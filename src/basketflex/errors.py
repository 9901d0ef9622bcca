"""Exception and warning types raised across the package."""

from __future__ import annotations


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
            f"expenditure relative for item {item!r} must be > 0, got {value}"
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
    """A record failed validation; ``line`` is None when it was never in a file."""

    def __init__(self, line: int | None, reason: str):
        super().__init__(reason if line is None else f"line {line}: {reason}")
        self.line = line
        self.reason = reason


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
    def __init__(self, item: str, period):
        super().__init__(f"price relative for item {item!r} at {period} must be > 0")
        self.item = item
        self.period = period


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

    def __init__(self, field: str, reason: str):
        super().__init__(f"field {field} {reason}")
        self.field = field


class PeriodNotCoveredError(BasketflexError):
    def __init__(self, country: str, period):
        super().__init__(f"scenario {country!r} does not cover {period}")
        self.country = country
        self.period = period


# --- synthetic economies -------------------------------------------------


class InvalidEconomySpecError(BasketflexError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class MonthOutOfRangeError(BasketflexError):
    def __init__(self, month):
        super().__init__(f"month {month} is outside the economy horizon")
        self.month = month


# --- command line --------------------------------------------------------


class UsageError(BasketflexError):
    """The command line does not parse: an unknown option, a missing or bad value."""


# --- warnings ------------------------------------------------------------


class BasketflexWarning(UserWarning):
    pass


class GapWarning(BasketflexWarning):
    """A calendar month inside the record span has no records at all."""


class MissingCellWarning(BasketflexWarning):
    """Category-month cells absent from the input were filled with zero."""


class WeightSumWarning(BasketflexWarning):
    """Loaded weights deviated slightly from one and were renormalized."""
