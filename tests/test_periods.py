import calendar
import datetime as dt

import pytest

from basketflex.periods import Month, is_consecutive, month_range, parse_date


def test_parse_and_str_round_trip():
    m = Month.parse("2020-03")
    assert m == Month(2020, 3)
    assert str(m) == "2020-03"


# the last two in Arabic-Indic digits, which a regex ``\d`` would match
@pytest.mark.parametrize("bad", ["2020-3", "202003", "2020-13", "march 2020", "",
                                 "\u0662\u0660\u0662\u0660-01", "2020-\u0660\u0661"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        Month.parse(bad)


def test_ordering_and_arithmetic():
    assert Month(2019, 12) < Month(2020, 1) < Month(2020, 2)
    assert Month(2020, 12).next() == Month(2021, 1)
    assert Month(2020, 1).plus(14) == Month(2021, 3)
    assert Month(2021, 3).plus(-14) == Month(2020, 1)


def test_month_range_inclusive():
    months = month_range(Month(2020, 11), Month(2021, 2))
    assert [str(m) for m in months] == ["2020-11", "2020-12", "2021-01", "2021-02"]
    assert is_consecutive(months)
    assert not is_consecutive([Month(2020, 1), Month(2020, 3)])


def test_month_range_rejects_inverted():
    with pytest.raises(ValueError):
        month_range(Month(2021, 1), Month(2020, 1))


def test_day_helpers():
    assert Month(2020, 2).days() == 29  # leap year
    assert Month(2021, 2).days() == 28
    assert Month(2020, 1).first_day() == dt.date(2020, 1, 1)
    assert Month(2020, 1).last_day() == dt.date(2020, 1, 31)
    assert Month.of_date(dt.date(2020, 7, 15)) == Month(2020, 7)


def test_days_follow_the_gregorian_calendar_in_every_year():
    for index in range(Month(1, 1).index, Month(9999, 12).index + 1):
        m = Month.from_index(index)
        assert m.days() == calendar.monthrange(m.year, m.month)[1], m
    assert Month(9999, 12).last_day() == dt.date(9999, 12, 31)


def test_parse_date_reads_the_yyyy_mm_dd_form():
    assert parse_date("2020-02-29") == dt.date(2020, 2, 29)
    assert parse_date("0001-01-01") == dt.date.min
    assert parse_date("9999-12-31") == dt.date.max


# The first three are accepted by date.fromisoformat from Python 3.11 on.
@pytest.mark.parametrize("bad", ["20200105", "2020-W01-7", "2020W017", "2020-1-05", "2020-01-5",
                                 " 2020-01-05", "2020-01-05\n", "2020-01-05T00:00", "+2020-01-05",
                                 "\u0662\u0660\u0662\u0660-01-05", "2020-02-30", "0000-01-01",
                                 "2020-13-01", ""])
def test_parse_date_refuses_every_other_form(bad):
    with pytest.raises(ValueError):
        parse_date(bad)
