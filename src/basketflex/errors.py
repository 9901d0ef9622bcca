"""Exception and warning types raised across the package, and the JSON shape checker."""

from __future__ import annotations

import reprlib

from .periods import Month


class BasketflexError(Exception):
    """Base class for every error this package raises deliberately."""


# --- basket math ---------------------------------------------------------


class EmptyInputError(BasketflexError):
    pass


class NegativeWeightError(BasketflexError):
    def __init__(self, item: str, value: float):
        super().__init__(f"negative weight for item {item!r}: {value}")
        self.item = item
        self.value = value


class ZeroTotalError(BasketflexError):
    pass


class ItemSetMismatchError(BasketflexError):
    def __init__(self, missing=(), extra=()):
        self.missing = tuple(sorted(missing))
        self.extra = tuple(sorted(extra))
        parts = []
        if self.missing:
            parts.append(f"missing items: {', '.join(self.missing)}")
        if self.extra:
            parts.append(f"unexpected items: {', '.join(self.extra)}")
        super().__init__("; ".join(parts) or "item sets differ")


class NonPositiveRelativeError(BasketflexError):
    def __init__(self, item: str, value: float):
        super().__init__(
            f"expenditure relative for item {item!r} must be a finite number > 0, got {value}"
        )
        self.item = item
        self.value = value


class MissingPriceRelativeError(BasketflexError):
    def __init__(self, item: str, period=None):
        where = f" at {period}" if period is not None else ""
        super().__init__(f"no price relative for item {item!r}{where}")
        self.item = item
        self.period = period


class GapInSeriesError(BasketflexError):
    pass


class AllItemsExcludedError(BasketflexError):
    pass


class UnknownItemError(BasketflexError):
    def __init__(self, item: str):
        super().__init__(f"unknown item {item!r}")
        self.item = item


class PeriodMismatchError(BasketflexError):
    pass


# --- crosswalk -----------------------------------------------------------


class ZeroBaseError(BasketflexError):
    def __init__(self, category: str):
        super().__init__(f"base-period expenditure for category {category!r} is not > 0")
        self.category = category


class SpecInvalidError(BasketflexError):
    """A crosswalk spec failed validation; findings carry the details."""

    def __init__(self, findings):
        self.findings = tuple(findings)
        lines = "; ".join(str(f) for f in self.findings) or "invalid crosswalk spec"
        super().__init__(lines)


# --- ingestion -----------------------------------------------------------


class MalformedRecordError(BasketflexError):
    """A record failed validation; ``line`` is None when it is not known."""

    def __init__(self, line: int | None, reason: str):
        super().__init__(reason if line is None else f"line {line}: {reason}")
        self.line = line


class NonFiniteAmountError(BasketflexError):
    pass


class NegativeTotalError(BasketflexError):
    def __init__(self, category: str, period):
        super().__init__(f"total for category {category!r} in {period} is negative")
        self.category = category
        self.period = period


class BaseMonthMissingError(BasketflexError):
    def __init__(self, month):
        super().__init__(f"base month {month} is not covered by the panel")
        self.month = month


class SchemaError(BasketflexError):
    def __init__(self, column: str, line: int, reason: str = ""):
        msg = f"line {line}, column {column!r}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
        self.column = column
        self.line = line


class NonPositivePriceError(BasketflexError):
    def __init__(self, item: str, period, line: int | None = None):
        where = "" if line is None else f"line {line}: "
        super().__init__(
            f"{where}price relative for item {item!r} at {period} must be a finite number > 0"
        )
        self.item = item
        self.period = period
        self.line = line


class WeightSumOutOfRangeError(BasketflexError):
    def __init__(self, total: float):
        super().__init__(f"weights sum to {total}, outside the accepted range")
        self.total = total


# --- analysis ------------------------------------------------------------


class ConfigError(BasketflexError, ValueError):
    """A scenario configuration is inconsistent in itself."""


class NoOverlappingPeriodsError(BasketflexError):
    pass


class FixedMonthOutOfRangeError(BasketflexError):
    def __init__(self, month):
        super().__init__(f"fixed-weight month {month} is outside the scenario range")
        self.month = month


class ResultFieldError(BasketflexError, ValueError):
    """A field of a scenario result document is missing or of the wrong type."""


class PeriodNotCoveredError(BasketflexError):
    def __init__(self, country: str, period):
        super().__init__(f"scenario {country!r} does not cover {period}")
        self.country = country
        self.period = period


# --- synthetic economies -------------------------------------------------


class InvalidEconomySpecError(BasketflexError):
    """A synthetic economy description is malformed or out of bounds."""


class MonthOutOfRangeError(BasketflexError):
    def __init__(self, month):
        super().__init__(f"month {month} is outside the economy horizon")
        self.month = month


# --- command line --------------------------------------------------------


class UsageError(BasketflexError):
    """The command line does not parse: an unknown option, a missing or bad value."""


# --- JSON document shapes -------------------------------------------------
#
# A shape is a dict (a JSON object whose keys ending in "?" may be absent), a
# one-element list (a JSON list of values of that shape) or a
# (description, predicate) pair for a single value.


def parses(parse):
    """A predicate: does ``parse`` accept the value?"""

    def ok(value) -> bool:
        try:
            parse(value)
        except (AttributeError, TypeError, ValueError, ArithmeticError):
            return False
        return True

    return ok


STRING = ("a string", lambda v: isinstance(v, str))
STRINGS = [STRING]
NUMBER = ("a number", lambda v: type(v) in (int, float))
BOOL = ("true or false", lambda v: isinstance(v, bool))
MONTH = ("a month as YYYY-MM", parses(Month.parse))


def check_shape(value, shape, error: type, field: str = "") -> None:
    """Raise ``error`` naming the first part of ``value`` not of ``shape``.

    The error's ``field`` is the path to that part, e.g. ``items[0].id``, or
    None when the document itself is not of its shape.
    """
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise _shape_error(error, field, f"must be an object, got {reprlib.repr(value)}")
        for key, sub in shape.items():
            name = key.rstrip("?")
            where = f"{field}.{name}" if field else name
            if name in value:
                check_shape(value[name], sub, error, where)
            elif name == key:
                raise _shape_error(error, where, "is missing")
    elif isinstance(shape, list):
        if not isinstance(value, list):
            raise _shape_error(error, field, f"must be a list, got {reprlib.repr(value)}")
        for k, item in enumerate(value):
            check_shape(item, shape[0], error, f"{field}[{k}]")
    elif not shape[1](value):
        raise _shape_error(error, field, f"must be {shape[0]}, got {reprlib.repr(value)}")


def _shape_error(error: type, field: str, reason: str) -> BasketflexError:
    exc = error(f"field {field!r} {reason}" if field else f"the document {reason}")
    exc.field = field or None
    return exc


# --- warnings ------------------------------------------------------------


class BasketflexWarning(UserWarning):
    pass


class GapWarning(BasketflexWarning):
    """A calendar month inside the record span has no records at all."""


class MissingCellWarning(BasketflexWarning):
    """Category-month cells absent from the input were filled with zero."""


class WeightSumWarning(BasketflexWarning):
    """Loaded weights deviated slightly from one and were renormalized."""
