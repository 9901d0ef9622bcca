"""Calendar-month arithmetic shared across the package."""

from __future__ import annotations

import datetime as dt
import re
from typing import NamedTuple

_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})")
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


class _Month(NamedTuple):
    year: int
    month: int


class Month(_Month):
    """A calendar month (year plus month number), ordered chronologically.

    A NamedTuple: it equals, hashes and sorts as the tuple ``(year, month)``,
    and its ``index`` is the property below, not ``tuple.index``.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:  # checks the fields __new__ set
        if not 1 <= self.month <= 12:
            raise ValueError(f"month number out of range 1..12: {self.month}")

    @classmethod
    def parse(cls, text: str) -> "Month":
        """Parse the 'YYYY-MM' form used in all file formats, with no blanks around it."""
        m = _MONTH_RE.fullmatch(text)
        if m is None:
            raise ValueError(f"expected a month as YYYY-MM, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    @classmethod
    def of_date(cls, d: dt.date) -> "Month":
        return cls(d.year, d.month)

    @classmethod
    def from_index(cls, idx: int) -> "Month":
        """The month whose :attr:`index` is ``idx``."""
        return cls(idx // 12, idx % 12 + 1)

    @property
    def index(self) -> int:
        """Months since year zero; consecutive months differ by exactly one."""
        return self.year * 12 + self.month - 1

    def plus(self, n: int) -> "Month":
        return Month.from_index(self.index + n)

    def next(self) -> "Month":
        return self.plus(1)

    def days(self) -> int:
        """Days in the month, by the Gregorian leap-year rule."""
        if self.month == 2:
            y = self.year
            return 29 if y % 4 == 0 and (y % 100 != 0 or y % 400 == 0) else 28
        return 30 if self.month in (4, 6, 9, 11) else 31

    def first_day(self) -> dt.date:
        return dt.date(self.year, self.month, 1)

    def last_day(self) -> dt.date:
        return dt.date(self.year, self.month, self.days())

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


def parse_date(text: str) -> dt.date:
    """A date written exactly as YYYY-MM-DD, on every Python version.

    ``date.fromisoformat`` also takes ``20200105`` and ``2020-W01-7`` from
    Python 3.11 on; those raise ValueError here, as do impossible dates.
    """
    if _DATE_RE.fullmatch(text) is None:
        raise ValueError(f"expected a date as YYYY-MM-DD, got {text!r}")
    return dt.date.fromisoformat(text)


def month_range(start: Month, end: Month) -> list[Month]:
    """All months from start to end inclusive."""
    if end < start:
        raise ValueError(f"month range end {end} precedes start {start}")
    return [start.plus(i) for i in range(end.index - start.index + 1)]


def is_consecutive(months) -> bool:
    """True when the sequence steps one calendar month at a time."""
    ms = list(months)
    return all(b.index - a.index == 1 for a, b in zip(ms, ms[1:]))
