"""Index-number math for expenditure-based basket reweighting.

Conventions used throughout:

* price relatives are month-over-month factors (1.02 means prices rose 2%);
* expenditure relatives compare a month's nominal spending on an item to its
  base-period average (1.0 means unchanged);
* inflation rates, contributions and bias are percent / percentage points.

Factors are converted to percent only inside :func:`monthly_inflation` and
:func:`weighting_bias`. Every function here is a pure function of its inputs
and all value types are immutable, so results can be computed per month in
parallel and merged by period.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    AllItemsExcludedError,
    EmptyInputError,
    GapInSeriesError,
    ItemSetMismatchError,
    MissingPriceRelativeError,
    NegativeWeightError,
    NonPositivePriceError,
    NonPositiveRelativeError,
    PeriodMismatchError,
    UnknownItemError,
    ZeroTotalError,
)
from .periods import Month, is_consecutive

ItemId = str

# Tolerance accepted on an already-constructed weight vector; internally
# computed vectors are renormalized and land far inside it.
WEIGHT_SUM_TOL = 1e-9


# Each value type below is a NamedTuple. One that checks its fields is a
# subclass of a plain NamedTuple base whose ``__init__`` checks the fields the
# base's ``__new__`` has set; ``_replace`` builds a copy without that check.


class _WeightVector(NamedTuple):
    shares: dict[ItemId, float]
    period: Month | None = None
    raw_sum: float = 1.0


class WeightVector(_WeightVector):
    """Basket shares for one period, summing to one.

    Construct via :func:`normalize_weights` (or another operation in this
    module), which renormalizes raw values and records their pre-normalization
    sum in ``raw_sum``.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if not self.shares:
            raise EmptyInputError("weight vector has no items")
        for item, w in self.shares.items():
            if not item:
                raise ValueError("empty item id in weight vector")
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight for item {item!r}: {w}")
            if w < 0:
                raise NegativeWeightError(item, w)
        total = math.fsum(self.shares.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weight vector sums to {total}, not 1")


class _ExpenditureRelativeVector(NamedTuple):
    period: Month
    relatives: dict[ItemId, float]


class ExpenditureRelativeVector(_ExpenditureRelativeVector):
    """Per-item expenditure change versus the base period, for one month."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if not self.relatives:
            raise EmptyInputError("expenditure relative vector has no items")
        for item, de in self.relatives.items():
            if not (de > 0 and math.isfinite(de)):
                raise NonPositiveRelativeError(item, de, self.period)


class _PriceRelativeSeries(NamedTuple):
    item: ItemId
    start: Month
    values: array


class PriceRelativeSeries(_PriceRelativeSeries):
    """Month-over-month price factors for one item, gap-free and positive.

    ``values[k]`` is the factor of month ``start.plus(k)``; the factors are
    packed in one ``array('d')``, so a series holds no per-month object.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if not self.values:
            raise EmptyInputError(f"price series for {self.item!r} is empty")
        for k, rel in enumerate(self.values):
            if not (rel > 0 and math.isfinite(rel)):
                raise NonPositivePriceError(self.item, self.start.plus(k))

    @classmethod
    def from_mapping(cls, item: ItemId, by_month: Mapping[Month, float]) -> "PriceRelativeSeries":
        """The series of a month-to-factor mapping, in any order; a gap is an error."""
        months = sorted(by_month)
        if not months:
            raise EmptyInputError(f"price series for {item!r} is empty")
        if not is_consecutive(months):
            raise GapInSeriesError(f"price series for {item!r} has non-consecutive months")
        return cls(item, months[0], array("d", map(by_month.__getitem__, months)))

    @property
    def end(self) -> Month:
        return self.start.plus(len(self.values) - 1)

    def at(self, period: Month) -> float | None:
        i = period.index - self.start.index
        if 0 <= i < len(self.values):
            return self.values[i]
        return None


class _InflationPoint(NamedTuple):
    period: Month
    monthly_pct: float
    contributions: dict[ItemId, float] = {}  # shared by every point that omits it, never mutated
    annual_pct: float | None = None


class InflationPoint(_InflationPoint):
    """One month of an inflation series.

    ``annual_pct`` is filled by :func:`chain_annual` (or the fixed-base
    alternative) once twelve chained months are available; contributions are
    percentage points and sum to ``monthly_pct``. Every number is finite.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        annual = () if self.annual_pct is None else (self.annual_pct,)
        if not all(map(math.isfinite, (self.monthly_pct, *annual, *self.contributions.values()))):
            raise ValueError(f"non-finite rate or contribution in the point of {self.period}")
        if self.contributions:
            total = math.fsum(self.contributions.values())
            if abs(total - self.monthly_pct) > 1e-9:
                raise ValueError(
                    f"contributions sum to {total}, point says {self.monthly_pct}"
                )


class BiasPoint(NamedTuple):
    """Official-minus-adjusted inflation gap for one month.

    Negative bias means the official rate understates inflation measured
    with the expenditure-adjusted basket.
    """

    period: Month
    monthly_pp: float
    annual_pp: float | None = None


def normalize_weights(
    raw: Mapping[ItemId, float], period: Month | None = None
) -> WeightVector:
    """Turn raw non-negative values into shares summing to one.

    Raises EmptyInputError, NegativeWeightError or ZeroTotalError when the
    input cannot be normalized.
    """
    if not raw:
        raise EmptyInputError("no weights given")
    for item, v in raw.items():
        if not math.isfinite(v):
            raise ValueError(f"non-finite weight for item {item!r}: {v}")
        if v < 0:
            raise NegativeWeightError(item, v)
    total = math.fsum(raw.values())
    if total <= 0:
        raise ZeroTotalError("weights sum to zero")
    return WeightVector(
        shares={item: v / total for item, v in raw.items()},
        period=period,
        raw_sum=total,
    )


def adjusted_weights(
    official: WeightVector, relatives: ExpenditureRelativeVector
) -> WeightVector:
    """Reweight official shares by expenditure relatives.

    Each output share is the official share times the item's expenditure
    relative, renormalized over the basket:

        w_out(i) = official(i) * de(i) / sum_j official(j) * de(j)

    Shares of items whose spending grew faster than the basket average rise,
    all others fall; scaling every relative by a common factor changes
    nothing. The output carries the relatives' period.
    """
    w_items = set(official.shares)
    r_items = set(relatives.relatives)
    if w_items != r_items:
        raise ItemSetMismatchError(
            missing=w_items - r_items, extra=r_items - w_items
        )
    scaled = {
        item: official.shares[item] * relatives.relatives[item]
        for item in official.shares
    }
    return normalize_weights(scaled, period=relatives.period)


def monthly_inflation(
    weights: WeightVector,
    prices: Mapping[ItemId, PriceRelativeSeries],
    period: Month,
) -> InflationPoint:
    """Weighted month-over-month inflation with per-item contributions.

    Each item contributes its weight times its price change in percentage
    points; the headline rate is the sum. The same function serves official
    weights and expenditure-adjusted weights. ``weights`` must cover exactly
    the items that have a price relative at ``period``; pass a subset of the
    price table when pricing a reduced basket.
    """
    contributions: dict[ItemId, float] = {}
    for item, w in weights.shares.items():
        series = prices.get(item)
        rel = series.at(period) if series is not None else None
        if rel is None:
            raise MissingPriceRelativeError(item, period)
        contributions[item] = w * (rel - 1.0) * 100.0
    extra = {
        item
        for item, series in prices.items()
        if item not in weights.shares and series.at(period) is not None
    }
    if extra:
        raise ItemSetMismatchError(extra=extra)
    return InflationPoint(
        period=period,
        monthly_pct=math.fsum(contributions.values()),
        contributions=contributions,
    )


def chain_annual(monthly: Iterable[InflationPoint]) -> list[InflationPoint]:
    """Fill 12-month rates by compounding trailing monthly rates.

    The annual rate at month t compounds months t-11..t; the first eleven
    points keep ``annual_pct`` absent. Months must be consecutive.
    """
    points = list(monthly)
    if not is_consecutive(p.period for p in points):
        raise GapInSeriesError("monthly inflation series has non-consecutive months")
    out: list[InflationPoint] = []
    for i, p in enumerate(points):
        if i < 11:
            out.append(p._replace(annual_pct=None))
            continue
        factor = math.prod(
            1.0 + q.monthly_pct / 100.0 for q in points[i - 11 : i + 1]
        )
        out.append(p._replace(annual_pct=(factor - 1.0) * 100.0))
    return out


def fixed_base_annual(
    weights: WeightVector,
    prices: Mapping[ItemId, PriceRelativeSeries],
    period: Month,
) -> float:
    """12-month inflation from one basket repricing a year of item changes.

    Alternative to chaining: each item's twelve monthly factors are compounded
    first and the given weights are applied to the compounded changes. With
    monthly-varying weights the two constructions differ slightly.

    The twelve factors are multiplied in chronological order, starting from
    1.0. When an item lacks a relative for part of the window
    ``period - 11 .. period``, MissingPriceRelativeError names the item and
    the earliest missing month of that window.
    """
    first = period.plus(-11)
    first_index = first.index
    terms = []
    for item, w in weights.shares.items():
        series = prices.get(item)
        if series is None:
            raise MissingPriceRelativeError(item, first)
        # Series are gap-free, so the window is one slice of their values.
        values = series.values
        lo = first_index - series.start.index
        if lo < 0 or lo >= len(values):
            raise MissingPriceRelativeError(item, first)
        if lo + 12 > len(values):
            raise MissingPriceRelativeError(item, series.end.next())
        factor = math.prod(values[lo : lo + 12], start=1.0)
        terms.append(w * (factor - 1.0) * 100.0)
    return math.fsum(terms)  # exactly rounded, so the same in any order of the weights


def exclude_items(weights: WeightVector, excluded: Iterable[ItemId]) -> WeightVector:
    """Drop items from a basket and renormalize the remaining shares."""
    excluded = set(excluded)
    for item in excluded:
        if item not in weights.shares:
            raise UnknownItemError(item)
    remaining = {i: w for i, w in weights.shares.items() if i not in excluded}
    if not remaining:
        raise AllItemsExcludedError("cannot exclude every item in the basket")
    return normalize_weights(remaining, period=weights.period)


def weighting_bias(
    official_series: Iterable[InflationPoint],
    adjusted_series: Iterable[InflationPoint],
) -> list[BiasPoint]:
    """Official-minus-adjusted gap per period, monthly and annual.

    A negative value means official inflation understates the rate measured
    with the expenditure-adjusted basket.
    """
    off = list(official_series)
    adj = list(adjusted_series)
    if [p.period for p in off] != [p.period for p in adj]:
        raise PeriodMismatchError("official and adjusted series cover different periods")
    out = []
    for o, a in zip(off, adj):
        annual = None
        if o.annual_pct is not None and a.annual_pct is not None:
            annual = o.annual_pct - a.annual_pct
        out.append(
            BiasPoint(
                period=o.period,
                monthly_pp=o.monthly_pct - a.monthly_pct,
                annual_pp=annual,
            )
        )
    return out
