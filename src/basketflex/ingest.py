"""Loading, validation and monthly aggregation of the three input files.

File schemas (UTF-8, optionally with a byte-order mark; header row
required; ``#`` comment lines and blank lines permitted between records;
quoted fields may contain commas and newlines):

* ``expenditures.csv`` — ``date (YYYY-MM-DD), category, amount (decimal)``
* ``weights.csv``      — ``item, weight``
* ``prices.csv``       — ``item, period (YYYY-MM), relative (decimal factor)``

Numbers are written in ASCII, without ``_`` separators.

Each file is read in one pass by one CSV reader, and every error names the
line its record starts on. :func:`read_expenditure_panel` folds daily
expenditure records straight into (category, month) cells, so its memory
is bounded by the cells rather than the records. A plain expenditure file
(LF lines, no quotes, comments or blank lines) is first read in text blocks
split and converted in C; on anything else that reader declines and the CSV
reader reads the file from the start, so errors have one source.

Monetary amounts are parsed as exact decimal strings, must lie strictly
inside ±1e15 (``AMOUNT_LIMIT``), and are accumulated in a high-precision
decimal context, so aggregation is permutation-invariant;
they are converted to binary floating point only when a ratio is taken.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import math
import warnings
from decimal import Decimal, InvalidOperation, localcontext
from itertools import repeat
from typing import Iterable, Iterator

from .core import ItemId, PriceRelativeSeries, WeightVector, normalize_weights
from .crosswalk import CategoryId
from .errors import (
    BaseMonthMissingError,
    EmptyInputError,
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
from .periods import Month, is_consecutive, month_range, parse_date

# Loaded weights must sum to one; deviations up to the warn gate pass
# silently, deviations up to the error gate renormalize with a warning,
# anything beyond is rejected.
WEIGHT_SUM_WARN = 1e-6
WEIGHT_SUM_ERROR = 1e-2

# A daily amount must be strictly inside ±AMOUNT_LIMIT, so no sum of
# amounts leaves the decimal context and no total overflows a float.
AMOUNT_LIMIT = Decimal("1e15")

# A price relative must be below RELATIVE_LIMIT, so a product of twelve of
# them, times 100, stays a finite float (1e25**12 * 100 = 1e302).
RELATIVE_LIMIT = 1e25

_PREC = 50
_ZERO = Decimal(0)
# Characters of the block reader's text blocks; 4 KiB keeps the read's peak
# memory within about twice the panel it builds.
_BLOCK = 4096


def _plain(number: str) -> str:
    """``number`` if it is written in ASCII without ``_``, else ValueError:
    ``float`` and ``Decimal`` also read ``1_000`` and other scripts' digits (``١٢``)."""
    if not number.isascii() or "_" in number:
        raise ValueError(f"not a plain number: {number!r}")
    return number


class ExpenditurePanel:
    """Per-category monthly expenditure totals over a gapless month span.

    ``columns`` maps each category, in sorted order, to one total per month
    of ``months``; the panel keeps those lists as its table.
    """

    def __init__(self, months: Iterable[Month], columns: dict[CategoryId, list[Decimal]]):
        months = tuple(months)
        if not months:
            raise EmptyInputError("panel covers no months")
        if not is_consecutive(months):
            raise ValueError("panel months must be consecutive")
        if not columns:
            raise EmptyInputError("panel has no categories")
        for c, column in columns.items():
            if len(column) != len(months):
                raise ValueError(f"{c!r} has {len(column)} totals for {len(months)} months")
            for m, v in zip(months, column):
                if v < 0:
                    raise NegativeTotalError(c, m)
        self.months: tuple[Month, ...] = months
        self.categories: tuple[CategoryId, ...] = tuple(columns)
        self._pos = {m: k for k, m in enumerate(months)}
        self._totals = columns

    def total(self, category: CategoryId, month: Month) -> Decimal:
        return self._totals[category][self._pos[month]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExpenditurePanel)
            and self.months == other.months
            and self._totals == other._totals
        )


def read_expenditure_panel(path, allow_negative: bool = False) -> ExpenditurePanel:
    """Read ``expenditures.csv`` straight into calendar-month totals.

    The panel spans the months of the earliest to the latest record date;
    months inside the span with no records at all raise a GapWarning, and
    cells with no records a MissingCellWarning, and are filled with zeros.
    Negative amounts (refunds, chargebacks) are rejected unless
    ``allow_negative``; even then each monthly total must come out
    non-negative. Every amount must lie strictly inside ``±AMOUNT_LIMIT``
    (1e15). No record list is built: memory is bounded by the
    category-month cells. A path is tried with the block reader first; a
    text stream, or a file that reader declines, is read row by row.
    """
    sums = None if hasattr(path, "read") else _block_sums(path, allow_negative)
    if sums is not None:
        return _panel_of(sums)
    with _table(path, _EXPENDITURE_HEADER) as rows:
        return _panel_of(_fold(_expenditure_rows(rows), allow_negative))


def _block_sums(path, allow_negative: bool) -> dict[CategoryId, dict[int, Decimal]] | None:
    """``_fold``'s month sums of a plain expenditure file, or None to decline.

    The file is read in blocks of whole LF lines after an exact
    ``date,category,amount`` header; each block is split into its three
    columns and its amounts converted in C, checked with one min and max,
    and added in file order, so the sums equal ``_fold``'s to the exponent.
    The reader raises no input error: a quote, ``#``, CR or NUL, a line
    without exactly two commas or longer than two blocks, an amount that is
    not ``_plain`` or does not parse or is out of range, or an empty or
    padded category declines,
    and the row reader then reports the error from the file's start.
    """
    sums: dict[CategoryId, dict[int, Decimal]] = {}
    month_of: dict[str, int] = {}
    carry = ""
    try:
        with open(path, encoding="utf-8-sig", newline="\n") as fh, localcontext() as ctx:
            ctx.prec = _PREC
            if fh.readline() != ",".join(_EXPENDITURE_HEADER) + "\n":
                return None
            while True:
                block = fh.read(_BLOCK)
                text = carry + block
                end = text.rfind("\n") if block else len(text)
                if end < 0:  # no line ends in this block
                    if len(text) > 2 * _BLOCK:
                        return None
                    carry = text
                    continue
                text, carry = text[:end], text[end + 1:]
                if text:
                    if any(c in text for c in '"#\r\0') or set(
                        map(str.count, text.split("\n"), repeat(","))
                    ) != {2}:
                        return None
                    fields = text.replace("\n", ",").split(",")
                    dates, categories = fields[0::3], fields[1::3]
                    _plain("".join(fields[2::3]))  # one test for the whole column
                    amounts = list(map(Decimal, fields[2::3]))
                    del fields  # and the amount strings, so they do not live beside the sums
                    low = min(amounts)
                    if max(amounts) >= AMOUNT_LIMIT or not (
                        low > -AMOUNT_LIMIT if allow_negative else low >= _ZERO
                    ):
                        return None
                    for d in set(dates).difference(month_of):
                        month_of[d] = Month.of_date(parse_date(d.strip())).index
                    for c in set(categories).difference(sums):
                        if not c or c != c.strip():
                            return None
                        sums[c] = {}
                    for c, m, v in zip(categories, map(month_of.__getitem__, dates), amounts):
                        cells = sums[c]
                        cells[m] = cells.get(m, _ZERO) + v
                if not block:
                    return sums
    except (ValueError, ArithmeticError):  # UnicodeDecodeError and InvalidOperation too
        return None


def _fold(
    rows: Iterable[tuple[int, dt.date, CategoryId, Decimal]], allow_negative: bool
) -> dict[CategoryId, dict[int, Decimal]]:
    """Accumulate (line, date, category, amount) rows into month sums.

    Each category sums into a dict keyed by month index, because hashing a
    ``Month`` (or a tuple key) per row dominates the loop; ``Month`` objects
    are built once per month by :func:`_panel_of`.
    """
    sums: dict[CategoryId, dict[int, Decimal]] = {}
    month_of: dict[dt.date, int] = {}
    low = -AMOUNT_LIMIT
    with localcontext() as ctx:
        ctx.prec = _PREC
        for line, date, category, amount in rows:
            if amount < _ZERO and not allow_negative:
                raise MalformedRecordError(
                    line, f"negative amount {amount} for {category!r} on {date}"
                )
            if not low < amount < AMOUNT_LIMIT:
                raise MalformedRecordError(
                    line, f"amount {amount} for {category!r} on {date} is not inside "
                    f"±{AMOUNT_LIMIT}"
                )
            m = month_of.get(date)
            if m is None:
                m = month_of[date] = Month.of_date(date).index
            cells = sums.get(category)
            if cells is None:
                cells = sums[category] = {}
            cells[m] = cells.get(m, _ZERO) + amount
    return sums


def _panel_of(sums: dict[CategoryId, dict[int, Decimal]]) -> ExpenditurePanel:
    """The panel of the month sums; each dict is dropped as its column is built.

    Only here is it known which cells had records, so both warnings come
    from here. Only public readers call it, so they name a reader's caller.
    """
    if not sums:
        raise EmptyInputError("no expenditure records")
    seen = set().union(*sums.values())
    first, last = min(seen), max(seen)
    months = tuple(month_range(Month.from_index(first), Month.from_index(last)))
    empty = [m for m in months if m.index not in seen]
    if empty:
        warnings.warn(
            f"no records in {', '.join(str(m) for m in empty)}; totals set to 0",
            GapWarning,
            stacklevel=3,
        )
    columns, filled = {}, 0
    for c in sorted(sums):
        cells = sums.pop(c)
        columns[c] = [cells.get(k, _ZERO) for k in range(first, last + 1)]
        filled += len(cells)
    panel = ExpenditurePanel(months, columns)
    missing = len(columns) * len(months) - filled
    if missing:
        warnings.warn(
            f"{missing} category-month cells had no records and were set to 0",
            MissingCellWarning,
            stacklevel=3,
        )
    return panel


def base_period(
    panel: ExpenditurePanel, base_months: Iterable[Month], per_day: bool = False
) -> dict[CategoryId, Decimal]:
    """Average expenditure per category over the listed base months.

    The base is the mean of calendar-month totals; ``per_day=True`` divides
    each month by its day count first (and must then be paired with
    ``per_day=True`` in crosswalk application). Categories with zero base
    spending are returned as zero and rejected downstream where a ratio
    would be taken.
    """
    base_months = list(base_months)
    if not base_months:
        raise EmptyInputError("no base months given")
    for m in base_months:
        if m not in panel.months:
            raise BaseMonthMissingError(m)
    out: dict[CategoryId, Decimal] = {}
    with localcontext() as ctx:
        ctx.prec = _PREC
        n = Decimal(len(base_months))
        for c in panel.categories:
            if per_day:
                total = sum(
                    (panel.total(c, m) / Decimal(m.days()) for m in base_months),
                    Decimal(0),
                )
            else:
                total = sum((panel.total(c, m) for m in base_months), Decimal(0))
            out[c] = total / n
    return out


# --- CSV plumbing ----------------------------------------------------------

_EXPENDITURE_HEADER = ("date", "category", "amount")


def _csv_records(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each record of a CSV text stream.

    One reader parses the whole stream, so a quoted field may span lines; a
    record carries the number of the line it starts on. Between records,
    blank lines and lines whose first non-blank character is ``#`` are
    skipped.
    """
    start = 0

    def record_lines() -> Iterator[str]:
        nonlocal start
        for lineno, raw in enumerate(lines, start=1):
            if not start:
                head = raw.lstrip()
                if not head or head[0] == "#":
                    continue
                start = lineno
            yield raw

    try:
        for row in csv.reader(record_lines()):
            yield start, row
            start = 0
    except csv.Error as exc:
        raise MalformedRecordError(start, str(exc))


@contextlib.contextmanager
def _table(source, header: tuple[str, ...]) -> Iterator[Iterator[tuple[int, list[str]]]]:
    """Open a CSV input (a path or a text stream), check its header row and
    give the data records. Paths are read as UTF-8 with an optional BOM;
    other bytes raise MalformedRecordError naming the first bad line."""
    if hasattr(source, "read"):
        opened = contextlib.nullcontext(source)
    else:
        opened = open(source, encoding="utf-8-sig", newline="")
    with opened as fh:
        rows = _csv_records(fh)
        try:
            try:
                line, got = next(rows)
            except StopIteration:
                raise SchemaError(header[0], 0, "file is empty")
            _check_header(got, header, line)
            yield rows
        except UnicodeDecodeError as exc:
            line = None if hasattr(source, "read") else _undecodable_line(source)
            raise MalformedRecordError(line, f"not valid UTF-8: {exc.reason}")


def _undecodable_line(path) -> int | None:
    """Number of the first line of ``path`` that is not valid UTF-8.

    Only called after decoding failed: the text reader decodes in blocks, so
    its error does not say which line held the bad bytes.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return None


def _check_header(row: list[str], expected: tuple[str, ...], line: int) -> None:
    got = [c.strip().lower() for c in row]
    if got != list(expected):
        missing = [c for c in expected if c not in got]
        col = missing[0] if missing else ",".join(got)
        raise SchemaError(col, line, f"expected header {','.join(expected)}")


def _expenditure_rows(
    rows: Iterable[tuple[int, list[str]]],
) -> Iterator[tuple[int, dt.date, CategoryId, Decimal]]:
    """Validate expenditure records into (line, date, category, amount).

    The sign of the amount is left to the caller. Dates repeat across
    records, so each distinct date string is parsed once.
    """
    dates: dict[str, dt.date] = {}
    for line, row in rows:
        if len(row) != 3:
            raise MalformedRecordError(line, f"expected 3 fields, got {len(row)}")
        raw_date, category, raw_amount = row
        date = dates.get(raw_date)
        if date is None:
            try:
                date = dates[raw_date] = parse_date(raw_date.strip())
            except ValueError:
                raise MalformedRecordError(line, f"bad date {raw_date.strip()!r}")
        category = category.strip()
        if not category:
            raise MalformedRecordError(line, "empty category")
        raw_amount = raw_amount.strip()
        try:
            amount = Decimal(_plain(raw_amount))
        except (ValueError, InvalidOperation):
            raise MalformedRecordError(line, f"bad amount {raw_amount!r}")
        if not amount.is_finite():
            raise NonFiniteAmountError(f"line {line}: non-finite amount {raw_amount!r}")
        yield line, date, category, amount


def load_expenditures(path) -> list[tuple[int, dt.date, CategoryId, Decimal]]:
    """The checked (line, date, category, amount) records of ``expenditures.csv``,
    signs unchecked: the first half of :func:`read_expenditure_panel`'s row reader.
    Kept only for ``bench/run.py`` and ``bench/tracing.py``, until ROADMAP item 2."""
    with _table(path, _EXPENDITURE_HEADER) as rows:
        return list(_expenditure_rows(rows))


def aggregate_daily(rows: Iterable[tuple], allow_negative: bool = False) -> ExpenditurePanel:
    """The panel of :func:`load_expenditures`' records, with the sign check: the
    second half of :func:`read_expenditure_panel`'s row reader. Kept as a name
    only for ``bench/run.py`` and ``bench/tracing.py``, until ROADMAP item 2."""
    return _panel_of(_fold(rows, allow_negative))


def load_weights(path) -> WeightVector:
    """Read official basket weights from ``weights.csv``.

    The column sum is gated: within 1e-6 of one it is accepted silently,
    within 1e-2 it is renormalized with a warning, beyond that it is
    rejected as WeightSumOutOfRangeError.
    """
    raw: dict[ItemId, float] = {}
    with _table(path, ("item", "weight")) as rows:
        for line, row in rows:
            if len(row) != 2:
                raise SchemaError("weight", line, f"expected 2 fields, got {len(row)}")
            item, value = (f.strip() for f in row)
            if not item:
                raise SchemaError("item", line, "empty item id")
            if item in raw:
                raise SchemaError("item", line, f"duplicate item {item!r}")
            try:
                raw[item] = float(_plain(value))
            except ValueError:
                raise SchemaError("weight", line, f"bad weight {value!r}")
            if not math.isfinite(raw[item]):
                raise SchemaError("weight", line, f"non-finite weight {value!r}")
    if not raw:
        raise EmptyInputError("weights file has no rows")
    total = sum(raw.values())
    dev = abs(total - 1.0)
    if dev >= WEIGHT_SUM_ERROR:
        raise WeightSumOutOfRangeError(total)
    if dev > WEIGHT_SUM_WARN:
        warnings.warn(
            f"weights sum to {total:.6f}; renormalizing", WeightSumWarning, stacklevel=2
        )
    return normalize_weights(raw)


def load_prices(path) -> dict[ItemId, PriceRelativeSeries]:
    """Read per-item month-over-month price factors from ``prices.csv``.

    A relative must be a finite number above 0 and below ``RELATIVE_LIMIT``
    (1e25). Rows may come in any order; each item's months must be gap-free.
    Each distinct period string is parsed once.
    """
    by_item: dict[ItemId, dict[Month, float]] = {}
    months: dict[str, Month] = {}
    with _table(path, ("item", "period", "relative")) as rows:
        for line, row in rows:
            if len(row) != 3:
                raise SchemaError("relative", line, f"expected 3 fields, got {len(row)}")
            item, raw_period, raw_rel = map(str.strip, row)
            if not item:
                raise SchemaError("item", line, "empty item id")
            period = months.get(raw_period)
            if period is None:
                try:
                    period = months[raw_period] = Month.parse(raw_period)
                except ValueError:
                    raise SchemaError("period", line, f"bad period {raw_period!r}")
            try:
                rel = float(_plain(raw_rel))
            except ValueError:
                raise SchemaError("relative", line, f"bad relative {raw_rel!r}")
            if not 0 < rel < math.inf:  # also nan
                raise NonPositivePriceError(item, period, line)
            if rel >= RELATIVE_LIMIT:
                raise SchemaError(
                    "relative", line, f"relative {raw_rel!r} for {item!r} at {period} is not "
                    f"below {RELATIVE_LIMIT:g}"
                )
            series = by_item.setdefault(item, {})
            if period in series:
                raise SchemaError("period", line, f"duplicate period {period} for {item!r}")
            series[period] = rel
    if not by_item:
        raise EmptyInputError("prices file has no rows")
    return {
        item: PriceRelativeSeries.from_mapping(item, pts)
        for item, pts in by_item.items()
    }
