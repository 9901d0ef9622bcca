import io
import random
import tracemalloc
import warnings
from decimal import Decimal as D
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketflex import ingest, synth
from basketflex.errors import (
    BaseMonthMissingError,
    BasketflexError,
    EmptyInputError,
    GapInSeriesError,
    GapWarning,
    MalformedRecordError,
    MissingCellWarning,
    NegativeTotalError,
    NonFiniteAmountError,
    NonPositivePriceError,
    SchemaError,
    WeightSumOutOfRangeError,
    WeightSumWarning,
)
from basketflex.ingest import ExpenditurePanel, base_period, read_expenditure_panel
from basketflex.periods import Month

from conftest import panel_of


def ledger(*records):
    """A text stream of ``expenditures.csv`` holding (date, category, amount) records."""
    return io.StringIO("date,category,amount\n" + "".join(f"{d},{c},{a}\n" for d, c, a in records))


# --- monthly totals -----------------------------------------------------------


def test_aggregate_sums_within_month():
    panel = read_expenditure_panel(
        ledger(("2020-01-05", "food", "10"), ("2020-01-20", "food", "15"))
    )
    assert panel.total("food", Month(2020, 1)) == D("25")
    assert panel.months == (Month(2020, 1),)


def test_aggregate_empty_stream_errors():
    with pytest.raises(EmptyInputError):
        read_expenditure_panel(ledger())


def test_aggregate_gap_month_warns_and_zero_fills():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        panel = read_expenditure_panel(
            ledger(("2020-01-05", "food", "10"), ("2020-03-01", "food", "3"))
        )
    assert any(
        issubclass(w.category, GapWarning) and "2020-02" in str(w.message)
        for w in caught
    )
    assert panel.months == (Month(2020, 1), Month(2020, 2), Month(2020, 3))
    assert panel.total("food", Month(2020, 2)) == D(0)


def test_aggregate_sparse_category_warns_and_zero_fills():
    with pytest.warns(MissingCellWarning):
        panel = read_expenditure_panel(
            ledger(
                ("2020-01-05", "food", "10"),
                ("2020-01-06", "fuel", "4"),
                ("2020-02-01", "food", "11"),
            )
        )
    assert panel.total("fuel", Month(2020, 2)) == D(0)


def test_aggregate_is_permutation_invariant():
    rng = random.Random(11)
    records = [
        (f"2020-0{m}-{d:02d}", cat, f"{rng.randint(0, 10**7)}.{rng.randint(0, 99):02d}")
        for m in (1, 2, 3)
        for d in range(1, 25)
        for cat in ("a", "b")
    ]
    reference = read_expenditure_panel(ledger(*records))
    for _ in range(5):
        rng.shuffle(records)
        assert read_expenditure_panel(ledger(*records)) == reference


def test_aggregate_rejects_negative_unless_allowed():
    records = [("2020-01-05", "food", "10"), ("2020-01-06", "food", "-4")]
    with pytest.raises(MalformedRecordError):
        read_expenditure_panel(ledger(*records))
    panel = read_expenditure_panel(ledger(*records), allow_negative=True)
    assert panel.total("food", Month(2020, 1)) == D("6")


def test_aggregate_negative_error_names_file_line_only_when_known():
    # a text stream's undecodable bytes have no known line
    stream = io.TextIOWrapper(io.BytesIO(b"date,category,amount\n2020-01-05,caf\xe9,1\n"),
                              encoding="utf-8", newline="")
    with pytest.raises(MalformedRecordError) as exc:
        read_expenditure_panel(stream)
    assert exc.value.line is None
    assert not str(exc.value).startswith("line")
    text = "date,category,amount\n2020-01-05,food,10\n# refund\n2020-01-06,food,-4\n"
    with pytest.raises(MalformedRecordError) as exc:
        read_expenditure_panel(io.StringIO(text))
    assert exc.value.line == 4


@pytest.mark.parametrize("amount, allow_negative", [
    ("1e15", False),
    ("1000000000000000.0", False),
    ("-1e15", True),
    ("9e999999", False),
])
def test_amount_outside_the_bound_names_its_line(tmp_path, amount, allow_negative):
    text = f"date,category,amount\n2020-01-05,food,10\n2020-01-06,food,{amount}\n"
    with pytest.raises(MalformedRecordError, match="1E\\+15") as exc:
        read_expenditure_panel(io.StringIO(text), allow_negative=allow_negative)
    assert exc.value.line == 3
    path = tmp_path / "expenditures.csv"
    path.write_text(text, newline="")
    with pytest.raises(MalformedRecordError):
        read_expenditure_panel(path, allow_negative=allow_negative)


def test_amount_just_inside_the_bound_is_kept():
    text = (
        "date,category,amount\n"
        "2020-01-05,food,999999999999999.99\n2020-01-06,food,-999999999999999.99\n"
    )
    panel = read_expenditure_panel(io.StringIO(text), allow_negative=True)
    assert panel.total("food", Month(2020, 1)) == 0


def test_panel_table_keeps_its_contract():
    jan, feb, mar = Month(2020, 1), Month(2020, 2), Month(2020, 3)
    cells = {("b", feb): D("2"), ("a", jan): D("1")}
    with pytest.warns(MissingCellWarning, match="2 category-month cells"):
        panel = panel_of(cells)
    assert panel.categories == ("a", "b")
    assert panel.total("a", jan) == D("1") and panel.total("b", feb) == D("2")
    assert panel.total("a", feb) == 0 and panel.total("b", jan) == 0
    for category, month in (("a", mar), ("a", Month(2019, 12)), ("c", jan)):
        with pytest.raises(KeyError):
            panel.total(category, month)
    with pytest.warns(MissingCellWarning):
        assert panel == panel_of(dict(reversed(cells.items())))
        assert panel != panel_of({**cells, ("b", jan): D("3")})
    text = "date,category,amount\n2020-01-31,a,1\n2020-02-01,b,2\n"
    with pytest.warns(MissingCellWarning):
        assert read_expenditure_panel(io.StringIO(text)) == panel
    with pytest.raises(NegativeTotalError) as exc:
        panel_of({("b", jan): D("-2"), ("a", jan): D("1"), ("a", feb): D("-1")})
    assert (exc.value.category, exc.value.period) == ("a", feb)


def test_panel_constructor_checks_its_table():
    jan, feb = Month(2020, 1), Month(2020, 2)
    panel = ExpenditurePanel([jan, feb], {"a": [D(1), D(0)], "b": [D(0), D(2)]})
    assert panel.categories == ("a", "b") and panel.total("b", feb) == D(2)
    with pytest.raises(EmptyInputError, match="no months"):
        ExpenditurePanel([], {"a": []})
    with pytest.raises(ValueError, match="consecutive"):
        ExpenditurePanel([jan, Month(2020, 3)], {"a": [D(1), D(1)]})
    with pytest.raises(EmptyInputError, match="no categories"):
        ExpenditurePanel([jan], {})
    with pytest.raises(ValueError, match="'a' has 1 totals for 2 months"):
        ExpenditurePanel([jan, feb], {"a": [D(1)]})
    with pytest.raises(NegativeTotalError) as exc:
        ExpenditurePanel([jan, feb], {"a": [D(1), D(-1)]})
    assert (exc.value.category, exc.value.period) == ("a", feb)


def test_panel_warnings_keep_their_stacklevel(tmp_path):
    # both warnings name the reader's caller, whichever reader ran
    text = "date,category,amount\n2020-01-05,a,1\n2020-03-05,b,1\n"
    path = tmp_path / "expenditures.csv"
    path.write_text(text, newline="")
    assert ingest._block_sums(path, False) is not None  # the path takes the block reader
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read_expenditure_panel(io.StringIO(text))
        read_expenditure_panel(path)
        ingest.aggregate_daily(ingest.load_expenditures(path))
    assert [(w.category, w.filename) for w in caught] == [
        (GapWarning, __file__),
        (MissingCellWarning, __file__),
    ] * 3


def test_read_panel_peak_stays_near_the_panel(tmp_path):
    # the fold keeps one month dict per category, with no tuple-keyed cell
    # dict and no re-keyed copy beside it: 1.75x the panel here, where the
    # tuple-keyed fold peaked at 2.35x
    items = tuple(synth.SyntheticItem(f"c{k:03d}", D(1 + k % 7), D(100 + k)) for k in range(150))
    spec = synth.SyntheticEconomySpec(items=items, months=12, seed=5, max_records_per_month=6)
    path = tmp_path / "expenditures.csv"
    path.write_text(synth.generate(spec).expenditures_csv)
    ingest.read_expenditure_panel(path)  # warm-up: first-use imports and caches
    tracemalloc.start()
    try:
        panel = ingest.read_expenditure_panel(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(panel.categories) == 150 and len(panel.months) == 12
    assert peak < 2.05 * retained, (peak, retained)


# --- base_period ------------------------------------------------------------


def two_month_panel():
    return read_expenditure_panel(
        ledger(("2020-01-10", "food", "100"), ("2020-02-10", "food", "120"))
    )


def test_base_mean_of_two_months():
    assert base_period(two_month_panel(), [Month(2020, 1), Month(2020, 2)]) == {
        "food": D("110")
    }


def test_base_single_month_equals_that_month():
    assert base_period(two_month_panel(), [Month(2020, 2)])["food"] == D("120")


def test_base_missing_month_errors():
    with pytest.raises(BaseMonthMissingError):
        base_period(two_month_panel(), [Month(2019, 12)])


def test_base_absent_category_is_zero():
    with pytest.warns(MissingCellWarning):
        panel = read_expenditure_panel(
            ledger(
                ("2020-01-10", "food", "100"),
                ("2020-02-10", "food", "120"),
                ("2020-03-01", "fuel", "5"),
            )
        )
    base = base_period(panel, [Month(2020, 1), Month(2020, 2)])
    assert base["fuel"] == D(0)


def test_base_per_day_normalization():
    from decimal import localcontext

    base = base_period(
        two_month_panel(), [Month(2020, 1), Month(2020, 2)], per_day=True
    )
    with localcontext() as ctx:
        ctx.prec = 50
        expect = (D(100) / D(31) + D(120) / D(29)) / D(2)  # 2020-02 has 29 days
    assert base["food"] == expect


# --- load_weights -----------------------------------------------------------


def test_load_weights_exact_sum_is_silent():
    text = "item,weight\nfood,0.6\nfuel,0.4\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = ingest.load_weights(io.StringIO(text))
    assert w.shares == {"food": 0.6, "fuel": 0.4}


def test_load_weights_small_deviation_warns_and_renormalizes():
    text = "item,weight\nfood,0.6\nfuel,0.404\n"
    with pytest.warns(WeightSumWarning):
        w = ingest.load_weights(io.StringIO(text))
    assert sum(w.shares.values()) == pytest.approx(1.0, abs=1e-12)
    assert w.raw_sum == pytest.approx(1.004)


def test_load_weights_large_deviation_errors():
    text = "item,weight\nfood,0.5\nfuel,0.4\n"
    with pytest.raises(WeightSumOutOfRangeError):
        ingest.load_weights(io.StringIO(text))


def test_load_weights_schema_errors_carry_line_numbers():
    with pytest.raises(SchemaError) as exc:
        ingest.load_weights(io.StringIO("thing,weight\nfood,1\n"))
    assert exc.value.line == 1
    with pytest.raises(SchemaError) as exc:
        ingest.load_weights(io.StringIO("item,weight\nfood,0.5\nfood,0.5\n"))
    assert exc.value.line == 3
    with pytest.raises(SchemaError):
        ingest.load_weights(io.StringIO("item,weight\nfood,abc\n"))


def test_load_weights_skips_comments_and_blanks():
    text = "# basket\nitem,weight\n\nfood,1.0\n"
    assert ingest.load_weights(io.StringIO(text)).shares == {"food": 1.0}


# --- load_prices ------------------------------------------------------------


def test_load_prices_builds_series():
    text = "item,period,relative\nfood,2020-01,1.01\nfood,2020-02,0.99\n"
    series = ingest.load_prices(io.StringIO(text))
    assert series["food"].at(Month(2020, 2)) == 0.99


def test_load_prices_zero_relative_errors():
    with pytest.raises(NonPositivePriceError):
        ingest.load_prices(io.StringIO("item,period,relative\nfood,2020-01,0\n"))


@pytest.mark.parametrize("relative", ["1e25", "1e308", "99999999999999999999999999"])
def test_load_prices_rejects_relatives_at_the_limit(relative):
    text = f"item,period,relative\nfood,2020-01,1.0\nfood,2020-02,{relative}\n"
    with pytest.raises(SchemaError, match="line 3, column 'relative': .* not below 1e\\+25") as exc:
        ingest.load_prices(io.StringIO(text))
    assert exc.value.line == 3
    text = "item,period,relative\nfood,2020-01,9.999999999999999e24\n"
    assert ingest.load_prices(io.StringIO(text))["food"].at(Month(2020, 1)) < ingest.RELATIVE_LIMIT


@pytest.mark.parametrize("relative", ["0", "-1", "inf", "nan"])
def test_load_prices_rejects_relatives_not_finite_and_positive(relative):
    text = f"item,period,relative\nfood,2020-01,1.0\nfood,2020-02,{relative}\n"
    with pytest.raises(NonPositivePriceError, match="line 3: .* must be a finite number > 0") as exc:
        ingest.load_prices(io.StringIO(text))
    assert (exc.value.item, exc.value.period, exc.value.line) == ("food", Month(2020, 2), 3)


def test_load_prices_gap_errors():
    text = "item,period,relative\nfood,2020-01,1.0\nfood,2020-03,1.0\n"
    with pytest.raises(GapInSeriesError):
        ingest.load_prices(io.StringIO(text))


def test_load_prices_of_shuffled_rows_equals_the_sorted_file():
    rows = [f"i{k},2020-{m:02d},{1 + k / 100 + m / 1000}" for k in range(5) for m in range(1, 13)]
    sorted_text = "item,period,relative\n" + "\n".join(rows) + "\n"
    expect = ingest.load_prices(io.StringIO(sorted_text))
    assert [(s.start, s.end) for s in expect.values()] == [(Month(2020, 1), Month(2020, 12))] * 5
    rng = random.Random(7)
    for _ in range(3):
        rng.shuffle(rows)
        text = "item,period,relative\n" + "\n".join(rows) + "\n"
        assert ingest.load_prices(io.StringIO(text)) == expect


def test_load_prices_packs_each_series(tmp_path):
    # 80 items x 120 months: each relative is one 8-byte float of an array,
    # where (Month, float) pairs took about 80 bytes a relative
    path = tmp_path / "prices.csv"
    path.write_text("item,period,relative\n" + "".join(
        f"i{k:03d},{Month(2011, 1).plus(m)},{1 + (k * m % 97) / 1000}\n"
        for k in range(80) for m in range(120)))
    ingest.load_prices(path)  # warm-up: first-use imports and caches
    tracemalloc.start()
    try:
        series = ingest.load_prices(path)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(s.values) for s in series.values()) == 80 * 120
    assert retained <= 24 * 80 * 120, retained / (80 * 120)


def test_load_prices_duplicate_period_errors():
    text = "item,period,relative\nfood,2020-01,1.0\nfood,2020-01,1.0\n"
    with pytest.raises(SchemaError):
        ingest.load_prices(io.StringIO(text))


# --- the ledger's records -------------------------------------------------------


def test_load_expenditures_parses_and_reports_lines():
    text = "date,category,amount\n2020-01-05,food,12.50\n# comment\nnot-a-date,food,1\n"
    with pytest.raises(MalformedRecordError) as exc:
        read_expenditure_panel(io.StringIO(text))
    assert exc.value.line == 4


def test_load_expenditures_negative_gate():
    text = "date,category,amount\n2020-01-05,food,-2\n2020-01-06,food,5\n"
    with pytest.raises(MalformedRecordError):
        read_expenditure_panel(io.StringIO(text))
    panel = read_expenditure_panel(io.StringIO(text), allow_negative=True)
    assert panel.total("food", Month(2020, 1)) == D("3")


def test_load_expenditures_rejects_non_finite():
    text = "date,category,amount\n2020-01-05,food,Infinity\n"
    with pytest.raises(NonFiniteAmountError):
        read_expenditure_panel(io.StringIO(text))


# --- reader shared by the three files -------------------------------------


@pytest.mark.parametrize(
    "loader, text",
    [
        (ingest.load_weights, "item,weight\nfood,1.0\n"),
        (ingest.load_prices, "item,period,relative\nfood,2020-01,1.01\n"),
        (ingest.load_expenditures, "date,category,amount\n2020-01-05,food,1\n"),
        (ingest.read_expenditure_panel, "date,category,amount\n2020-01-05,food,1\n"),
    ],
)
def test_loaders_accept_utf8_byte_order_mark(tmp_path, loader, text):
    path = tmp_path / "input.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert loader(path)


@pytest.mark.parametrize("loader", [ingest.load_expenditures, ingest.read_expenditure_panel])
def test_non_utf8_byte_names_its_line(tmp_path, loader):
    good = "".join(f"2020-01-{d:02d},food,1\n" for d in range(1, 29)) * 20
    path = tmp_path / "expenditures.csv"
    path.write_bytes(b"date,category,amount\n" + good.encode() + b"2020-02-01,caf\xe9,1\n")
    with pytest.raises(MalformedRecordError) as exc:
        loader(path)
    assert exc.value.line == 2 + 28 * 20
    assert "UTF-8" in str(exc.value)
    stream = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8", newline="")
    with pytest.raises(MalformedRecordError) as exc:
        loader(stream)
    assert exc.value.line is None


def test_quoted_field_may_span_lines():
    text = (
        "date,category,amount\n"
        '2020-01-05,"food,\nstores",12.50\n'
        "2020-01-06,fuel,1\n"
        "not-a-date,food,1\n"
    )
    with pytest.raises(MalformedRecordError) as exc:
        read_expenditure_panel(io.StringIO(text))
    assert exc.value.line == 5
    text = text.rsplit("not-a-date", 1)[0]
    assert read_expenditure_panel(io.StringIO(text)).categories == ("food,\nstores", "fuel")
    with pytest.raises(MalformedRecordError) as exc:
        read_expenditure_panel(io.StringIO(text.replace("fuel,1", "fuel,x")))
    assert exc.value.line == 4
    weights = ingest.load_weights(io.StringIO('item,weight\n"a\nb",0.5\nc,0.5\n'))
    assert weights.shares == {"a\nb": 0.5, "c": 0.5}


def test_oversized_field_is_a_record_error():
    text = "date,category,amount\n2020-01-05," + "x" * 200_000 + ",1\n"
    with pytest.raises(MalformedRecordError) as exc:
        ingest.read_expenditure_panel(io.StringIO(text))
    assert exc.value.line == 2


# --- single-pass panel reader -----------------------------------------------


def _ledger_lines() -> list[str]:
    economy = synth.SyntheticEconomySpec(
        items=tuple(
            synth.SyntheticItem(f"i{k}", D(1), D(10 * (k + 1))) for k in range(4)
        ),
        months=6,
        start=Month(2020, 1),
        seed=7,
    )
    return synth.generate(economy).expenditures_csv.splitlines()


def test_panel_reader_matches_load_then_aggregate(tmp_path):
    # the two halves of the row reader, as the benchmark times them, on the
    # block reader's plain file and on the row reader's text streams
    header, *rows = _ledger_lines()
    path = tmp_path / "expenditures.csv"
    path.write_text("\n".join([header, *rows]) + "\n", newline="")
    assert ingest._block_sums(path, False) is not None
    assert ingest.aggregate_daily(ingest.load_expenditures(path)) == read_expenditure_panel(path)
    rng = random.Random(5)
    for _ in range(3):
        rng.shuffle(rows)
        lines = [header]
        for row in rows:
            lines.append(row)
            if rng.random() < 0.1:
                lines.append(rng.choice(["", "   ", "# note, with comma", '  # "quoted']))
        text = "\n".join(lines) + "\n"
        expect = ingest.aggregate_daily(ingest.load_expenditures(io.StringIO(text)))
        assert read_expenditure_panel(io.StringIO(text)) == expect


@pytest.mark.parametrize(
    "bad_row",
    ["2020-13-01,i0,1", "2020-01-05,,1", "2020-01-05,i0,x", "2020-01-05,i0", "2020-01-05,i0,-1"],
)
def test_panel_reader_reports_the_same_error_line(tmp_path, bad_row):
    header, *rows = _ledger_lines()
    lines = [header, "# comment", *rows[:40], "", bad_row, *rows[40:]]
    text = "\n".join(lines) + "\n"
    path = tmp_path / "expenditures.csv"
    path.write_text(text, newline="")
    with pytest.raises(MalformedRecordError) as from_path:
        read_expenditure_panel(path)
    with pytest.raises(MalformedRecordError) as from_stream:
        read_expenditure_panel(io.StringIO(text))
    assert from_stream.value.line == from_path.value.line == lines.index(bad_row) + 1


# --- block reader ---------------------------------------------------------------

_DATES = [f"2020-{m:02d}-{d:02d}" for m in (1, 2, 4) for d in (1, 15, 28)]  # March is a gap
_AMOUNTS = [
    "1", "0.50", "12.345", "0", "-0", "999999999999999.99", "1e-40", "1E+2",
    # 50 significant digits and more: the sums round, so their order counts
    "0.33333333333333333333333333333333333333333333333333333",
    "123456789012345.123456789012345678901234567890123456789",
    "99999999999999.999999999999999999999999999999999999999",
]
# Each is one line (or two) that only the row reader may read: the block
# reader declines it, and the row reader accepts it or names its line.
_ODD_LINES = [
    *(f"2020-01-15,a,{amount}" for amount in (
        "-2", "-999999999999999.99", "NaN", "-NaN", "Infinity", "-Infinity", "sNaN",
        "1e15", "-1e15", "1_000", " 3 ", "x", "",
    )),
    "", "   ", "# note, with, commas", "  # 2020-01-05,a,1", '2020-01-05,"a",1', '"2020-01-05,a,1',
    '2020-01-05,"b\nc",1', "2020-01-05,a", "2020-01-05,a,1,2", "2020-01-05,a,1,2020-01-15\nb,2",
    "2020-13-01,a,1", " 2020-01-05 ,a,1", "2020-01-05,a\0,1", "2020-01-05,a\r,1",
    "2020-01-05,b#,1", "2020-01-05,,1", "2020-01-05, a,1", "2020-01-05,a ,1", "2020-01-05,\u2028,1",
]


@st.composite
def _ledgers(draw) -> bytes:
    """Small expenditure files, plain but for at most a few odd lines or bytes."""
    record = st.builds(
        "{},{},{}".format,
        st.sampled_from(_DATES), st.sampled_from(["a", "b", "\xe9t\xe9"]), st.sampled_from(_AMOUNTS),
    )
    # long categories put line ends on either side of block boundaries;
    # one longer than two blocks is declined
    long_line = st.builds("2020-01-28,{},7".format, st.integers(1, 9000).map("z".__mul__))
    lines = draw(st.lists(st.one_of(record, record, long_line), max_size=30))
    filler = draw(st.integers(0, 400))
    lines[0:0] = [f"2020-02-15,b,{k % 97}.{k % 7}" for k in range(filler)]
    for odd in draw(st.lists(st.sampled_from(_ODD_LINES), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), odd)
    header = draw(st.sampled_from(["date,category,amount"] * 6 + [
        " Date , CATEGORY,amount", "# ledger\ndate,category,amount", "\ndate,category,amount",
        "date,category", "item,weight,amount",
    ]))
    end = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]))
    text = end.join([header, *lines]) + (end if draw(st.booleans()) else "")
    data = ("\ufeff" if draw(st.booleans()) else "").encode() + text.encode()
    if draw(st.integers(0, 9)) == 0:  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _read_outcome(path, allow_negative):
    """The panel, cell by cell as text, or the error; and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            panel = ingest.read_expenditure_panel(path, allow_negative)
        except BasketflexError as exc:
            outcome = (type(exc), str(exc), getattr(exc, "line", None))
        else:
            outcome = (panel.months, [
                (c, [str(panel.total(c, m)) for m in panel.months]) for c in panel.categories
            ])
    return outcome, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


@pytest.fixture(scope="module")
def ledger_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ledger") / "expenditures.csv"


@settings(max_examples=300, deadline=None)
@given(data=_ledgers(), allow_negative=st.booleans())
def test_block_reader_matches_the_row_reader(ledger_path, data, allow_negative):
    ledger_path.write_bytes(data)
    got = _read_outcome(ledger_path, allow_negative)
    with mock.patch.object(ingest, "_block_sums", return_value=None):
        expect = _read_outcome(ledger_path, allow_negative)
    assert got == expect


def test_block_reader_takes_plain_ledgers(tmp_path, example_dir):
    economy = synth.SyntheticEconomySpec(
        items=tuple(synth.SyntheticItem(f"i{k}", D(k + 1), D(7 * k + 3)) for k in range(9)),
        months=14, seed=3, max_records_per_month=9,
    )
    generated = tmp_path / "expenditures.csv"
    generated.write_text(synth.generate(economy).expenditures_csv, newline="")
    assert generated.stat().st_size > 2 * ingest._BLOCK
    for path in (generated, example_dir / "expenditures.csv"):
        for allow_negative in (False, True):
            assert ingest._block_sums(path, allow_negative) is not None, (path, allow_negative)
        with mock.patch.object(ingest, "_block_sums", return_value=None):
            rows = _read_outcome(path, False)
        assert _read_outcome(path, False) == rows


# date.fromisoformat takes the first three from Python 3.11 on, and 3.10 does not.
@pytest.mark.parametrize("date", ["20200105", "2020-W02-7", "2020W027", "2020-1-05",
                                  "2020-01-05T00:00"])
def test_readers_take_dates_only_as_yyyy_mm_dd(tmp_path, date):
    path = tmp_path / "expenditures.csv"
    path.write_text(f"date,category,amount\n2020-01-04,a,1\n{date},a,2\n", newline="")
    assert ingest._block_sums(path, False) is None
    with pytest.raises(MalformedRecordError, match=f"line 3: bad date '{date}'") as exc:
        ingest.read_expenditure_panel(path)
    assert exc.value.line == 3


def test_block_reader_declines_a_line_longer_than_two_blocks(tmp_path):
    # the block reader holds at most two blocks of a line, so its memory is bounded
    path = tmp_path / "expenditures.csv"
    long = "z" * (3 * ingest._BLOCK)
    path.write_text(f"date,category,amount\n2020-01-05,a,1\n2020-01-06,{long},2\n", newline="")
    assert ingest._block_sums(path, False) is None
    assert ingest.read_expenditure_panel(path).categories == ("a", long)


# "1_000" and Arabic-Indic "12", which float() and Decimal() both read
@pytest.mark.parametrize("number", ["1_000", "\u0661\u0662"])
def test_number_fields_take_only_plain_ascii(tmp_path, number):
    path = tmp_path / "expenditures.csv"
    path.write_text(f"date,category,amount\n2020-01-05,a,1\n2020-01-06,a,{number}\n",
                    encoding="utf-8", newline="")
    assert ingest._block_sums(path, False) is None
    for source in (path, io.StringIO(path.read_text(encoding="utf-8"))):
        with pytest.raises(MalformedRecordError, match="line 3: bad amount") as exc:
            read_expenditure_panel(source)
        assert exc.value.line == 3
    with pytest.raises(SchemaError, match="bad weight") as exc:
        ingest.load_weights(io.StringIO(f"item,weight\na,0.5\nb,{number}\n"))
    assert (exc.value.line, exc.value.column) == (3, "weight")
    with pytest.raises(SchemaError, match="bad relative") as exc:
        ingest.load_prices(io.StringIO(f"item,period,relative\na,2020-01,{number}\n"))
    assert (exc.value.line, exc.value.column) == (2, "relative")
    with pytest.raises(ValueError):
        synth._decimal(number)


# --- any text: the three CSV loaders raise only input errors ----------------------

# Fields of the three files and what breaks them; "\udcff" is written to a
# path as the byte 0xff, which is not UTF-8.
_FIELDS = st.sampled_from([
    "", " ", '"', '"a,b"', "#", "\ufeff", "\0", "\udcff", "item", "weight", "date", "a", "\xe9",
    "0", "1", "-1", "0.5", "1e-400", "1e400", "1e25", "NaN", "inf", "1_0", "\u0663",
    "2020-01", "2020-02", "2020-13", "2020-01-15", "2020-02-15", "0001-01-01", "9999-12-31",
]) | st.text(max_size=3)
# Values each column takes, so that drawn bodies often get past their first line.
_VALID = {
    "item": ["a", "b", "\xe9"], "weight": ["0.5", "0.25", "1", "0"],
    "period": ["2020-01", "2020-02", "2020-04"], "relative": ["1", "1.01", "0.99"],
    "date": ["2020-01-15", "2020-02-01", "2020-04-30"], "category": ["a", "b", "\xe9"],
    "amount": ["1", "0.5", "-1", "0"],
}


def _csv_texts(columns: tuple[str, ...]):
    """Up to eight lines of up to four fields, most of them well formed, after
    the header or not."""
    good = st.tuples(*(st.sampled_from(_VALID[c]) for c in columns)).map(",".join)
    bad = st.lists(_FIELDS, min_size=1, max_size=4).map(",".join)
    end = st.sampled_from(["\n", "\n", "\r\n", "\r", ""])
    lines = st.lists(st.tuples(st.one_of(good, good, bad), end).map("".join), max_size=8)
    return st.tuples(st.sampled_from(["", ",".join(columns) + "\n"]), lines).map(
        lambda parts: parts[0] + "".join(parts[1]))


_LOADERS = {
    "weights": (ingest.load_weights, ("item", "weight")),
    "prices": (ingest.load_prices, ("item", "period", "relative")),
    "ledger": (read_expenditure_panel, ("date", "category", "amount")),
    "ledger-with-refunds": (lambda source: read_expenditure_panel(source, True),
                            ("date", "category", "amount")),
}


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("any") / "input.csv"


@pytest.mark.filterwarnings("ignore::basketflex.errors.BasketflexWarning")
@pytest.mark.parametrize("loader", list(_LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_csv_loaders_raise_only_input_errors(csv_path, loader, data):
    load, columns = _LOADERS[loader]
    text = data.draw(_csv_texts(columns))
    csv_path.write_bytes(text.encode("utf-8", "surrogateescape"))
    for source in (csv_path, io.StringIO(text, newline="")):
        try:
            load(source)
        except BasketflexError:
            pass
