"""Synthetic price/quantity economies for desk-scale verification.

Real transaction data is proprietary, so correctness is argued on generated
economies where the true prices and quantities are known. The generator
emits exactly the three CSV inputs the ingestion layer reads, and
:func:`oracle_adjusted_weights` computes basket weights directly as spending
shares from the known paths, never touching the reweighting formula or the
ingestion pipeline. Agreement between that definitional oracle and the
production path is the central correctness check of the test suite.

All path arithmetic is exact decimal: monthly spending splits into category
parts and daily records that sum back to the month's figure to the last
digit. Randomness (which days carry spending, how a month splits across
records) comes from one documented PRNG, Python's Mersenne Twister seeded
from the spec, so generated files are byte-stable across platforms.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from typing import Mapping

from .core import WeightVector, normalize_weights
from .errors import (
    MONTH, STRING, InvalidEconomySpecError, MonthOutOfRangeError, check_shape, parses,
)
from .ingest import AMOUNT_LIMIT, _plain
from .periods import Month, month_range

_PREC = 50
_CENT = Decimal("0.01")
_ONE = Decimal(1)
_CUTS = tuple(map(Decimal, range(1001)))  # each weight 1..1000 that splits a day's spend
MAX_MONTHS = 1200  # a century of monthly data
# Base prices, base quantities and quantity multipliers lie within
# 1e-MAGNITUDE..1e+MAGNITUDE, and so does each price drift compounded over the
# horizon, so every spending figure lies within 1e-240..1e+240: a float.
MAGNITUDE = 60
_END_INDEX = Month(10000, 1).index  # dates are written as YYYY-MM-DD


def _check_magnitude(value, field: str, power: int = 1) -> None:
    """``value`` to the ``power`` must lie within 1e-MAGNITUDE..1e+MAGNITUDE."""
    value = Decimal(value)
    if -MAGNITUDE <= value.adjusted() < MAGNITUDE and abs(math.log10(value)) * power <= MAGNITUDE:
        return
    reach = "" if power == 1 else f" compounded over {power} months"
    exc = InvalidEconomySpecError(
        f"field {field!r}{reach} must lie within 1e-{MAGNITUDE}..1e{MAGNITUDE}, got {value}"
    )
    exc.field = field
    raise exc


@dataclass(frozen=True)
class SyntheticItem:
    """One basket item with its base price/quantity and card-data footprint.

    ``categories`` maps transaction-category ids to the share of this item's
    spending they carry (shares sum to one exactly). An empty mapping means
    the item is unobserved in card data, like rent paid by bank transfer;
    its expenditure relative must then come from a non-provider crosswalk
    rule. By default the item is observed under its own id.
    """

    id: str
    base_price: Decimal
    base_quantity: Decimal
    label: str = ""
    categories: tuple[tuple[str, Decimal], ...] | None = None

    def category_shares(self) -> tuple[tuple[str, Decimal], ...]:
        if self.categories is None:
            return ((self.id, _ONE),)
        return self.categories


@dataclass(frozen=True)
class ShockWindow:
    """A span of months with scaled quantities and drifting prices.

    Quantity multipliers apply to the base quantity for every month inside
    the window; price drifts are month-over-month factors that compound
    while the window lasts. Items not listed keep their defaults.
    """

    start: Month
    end: Month
    quantity_multipliers: Mapping[str, Decimal] = field(default_factory=dict)
    price_drifts: Mapping[str, Decimal] = field(default_factory=dict)

    def covers(self, month: Month) -> bool:
        return self.start <= month <= self.end


@dataclass(frozen=True)
class SyntheticEconomySpec:
    """Parameters of a generated economy.

    The horizon starts at ``start`` and runs for ``months`` calendar months;
    the first ``base_months`` months form the base period and official
    weights are the spending shares over it. Price relatives are emitted
    from the second month onward (a factor needs two price levels), so an
    annual series needs a horizon of at least 13 months.
    """

    items: tuple[SyntheticItem, ...]
    months: int
    start: Month = Month(2020, 1)
    base_months: int = 2
    shock_windows: tuple[ShockWindow, ...] = ()
    base_drifts: Mapping[str, Decimal] = field(default_factory=dict)
    seed: int = 0
    max_records_per_month: int = 5

    def horizon(self) -> list[Month]:
        return month_range(self.start, self.start.plus(self.months - 1))

    def validate(self) -> None:
        # types and size caps first, so a bad spec is refused before any allocation
        for name in ("months", "base_months", "seed", "max_records_per_month"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                exc = InvalidEconomySpecError(f"{name} must be an integer, got {value!r}")
                exc.field = name
                raise exc
        if not 2 <= self.months <= MAX_MONTHS:
            raise InvalidEconomySpecError(f"months must lie in 2..{MAX_MONTHS}, got {self.months}")
        if self.start.year < 1 or self.start.index + self.months > _END_INDEX:
            raise InvalidEconomySpecError("horizon must lie within the years 0001..9999")
        if self.max_records_per_month < 1:
            raise InvalidEconomySpecError("max_records_per_month must be at least 1")
        if not self.items:
            raise InvalidEconomySpecError("economy needs at least one item")
        if not 1 <= self.base_months <= self.months:
            raise InvalidEconomySpecError(
                f"base_months must lie in 1..{self.months}, got {self.base_months}"
            )
        ids = [it.id for it in self.items]
        known = set(ids)
        if len(known) != len(ids):
            raise InvalidEconomySpecError("duplicate item ids")
        steps = self.months - 1  # price drifts compound over this many months
        for k, it in enumerate(self.items):
            if it.base_price <= 0 or it.base_quantity <= 0:
                raise InvalidEconomySpecError(
                    f"base price and quantity for {it.id!r} must be > 0"
                )
            _check_magnitude(it.base_price, f"items[{k}].base_price")
            _check_magnitude(it.base_quantity, f"items[{k}].base_quantity")
            shares = it.category_shares()
            if shares:
                with localcontext() as ctx:
                    ctx.prec = _PREC
                    total = sum((s for _, s in shares), Decimal(0))
                if total != 1:
                    raise InvalidEconomySpecError(
                        f"category shares for {it.id!r} sum to {total}, not 1"
                    )
                if any(s <= 0 for _, s in shares):
                    raise InvalidEconomySpecError(
                        f"category shares for {it.id!r} must be > 0"
                    )
        cats = [c for it in self.items for c, _ in it.category_shares()]
        if len(set(cats)) != len(cats):
            raise InvalidEconomySpecError("a category is emitted by two items")
        last_end = None
        for k, w in enumerate(self.shock_windows):
            if w.end < w.start:
                raise InvalidEconomySpecError(f"shock window {w.start}..{w.end} is inverted")
            if last_end is not None and w.start <= last_end:
                raise InvalidEconomySpecError("shock windows overlap or are unordered")
            last_end = w.end
            for name, key, values, power in (
                ("multiplier", "quantity_multipliers", w.quantity_multipliers, 1),
                ("drift", "price_drifts", w.price_drifts, steps),
            ):
                for item, v in values.items():
                    if item not in known:
                        raise InvalidEconomySpecError(f"shock names unknown item {item!r}")
                    if v <= 0:
                        raise InvalidEconomySpecError(
                            f"{name} for {item!r} must be > 0, got {v}"
                        )
                    _check_magnitude(v, f"shock_windows[{k}].{key}.{item}", power)
        for item, v in self.base_drifts.items():
            if v <= 0:
                raise InvalidEconomySpecError(f"base drift for {item!r} must be > 0")
            _check_magnitude(v, f"base_drifts.{item}", steps)

    def _window_at(self, month: Month) -> ShockWindow | None:
        for w in self.shock_windows:
            if w.covers(month):
                return w
        return None

    def price_factor(self, item: str, month: Month) -> Decimal:
        """Month-over-month price factor applied entering ``month``."""
        w = self._window_at(month)
        if w is not None and item in w.price_drifts:
            return Decimal(w.price_drifts[item])
        return Decimal(self.base_drifts.get(item, _ONE))

    def quantity_multiplier(self, item: str, month: Month) -> Decimal:
        w = self._window_at(month)
        if w is not None:
            return Decimal(w.quantity_multipliers.get(item, _ONE))
        return _ONE


def monthly_spend(
    spec: SyntheticEconomySpec, factors: dict[str, list[Decimal]] | None = None
) -> dict[str, dict[Month, Decimal]]:
    """Exact nominal spending per item and month implied by the spec.

    When ``factors`` is given, it receives each item's price factors from
    the second month on, the ones its spending path was built from.
    """
    spec.validate()
    horizon = spec.horizon()
    out: dict[str, dict[Month, Decimal]] = {}
    with localcontext() as ctx:
        ctx.prec = _PREC
        for it in spec.items:
            steps = [spec.price_factor(it.id, m) for m in horizon[1:]]
            price = Decimal(it.base_price)
            path: dict[Month, Decimal] = {}
            for i, m in enumerate(horizon):
                if i > 0:
                    price *= steps[i - 1]
                qty = Decimal(it.base_quantity) * spec.quantity_multiplier(it.id, m)
                path[m] = price * qty
            out[it.id] = path
            if factors is not None:
                factors[it.id] = steps
    return out


def oracle_adjusted_weights(spec: SyntheticEconomySpec, month: Month) -> WeightVector:
    """Basket weights computed directly as spending shares P*Q / sum(P*Q).

    This is the definitional left-hand side; it never touches the
    reweighting formula or the ingestion pipeline, which is what makes it
    usable as an independent oracle in tests.
    """
    spend = monthly_spend(spec)  # validates the spec
    if month not in spec.horizon():
        raise MonthOutOfRangeError(month)
    return normalize_weights(
        {item: float(path[month]) for item, path in spend.items()}, period=month
    )


@dataclass(frozen=True)
class GeneratedFiles:
    weights_csv: str
    prices_csv: str
    expenditures_csv: str


def _split_exact(total: Decimal, shares: list[Decimal]) -> list[Decimal]:
    """Split a decimal into cent-quantized parts that sum back exactly; run at ``_PREC``."""
    parts = []
    running = Decimal(0)
    for s in shares[:-1]:
        p = (total * s).quantize(_CENT)
        parts.append(p)
        running += p
    parts.append(total - running)
    if parts[-1] < 0 and len(parts) > 1:
        # rounding pushed the remainder negative; shift it onto the
        # largest earlier part so the sum stays exact
        i = max(range(len(parts) - 1), key=lambda j: parts[j])
        parts[i] += parts[-1]
        parts[-1] = Decimal(0)
    return parts


def generate(spec: SyntheticEconomySpec) -> GeneratedFiles:
    """Emit weights.csv, prices.csv and expenditures.csv for an economy.

    Official weights are base-period spending shares; price relatives are
    the exact drift factors of the price paths (from the second month on);
    expenditures spread each category's monthly figure across a few random
    days, with the split chosen so the records sum back exactly. Records
    are drawn item by item into per-day buckets, each written sorted by
    category (unique within a day, as a category has one item). A daily
    amount that ``ingest`` refuses, one not inside ``±AMOUNT_LIMIT``, raises
    ``InvalidEconomySpecError`` naming the item in ``field``.
    """
    factors: dict[str, list[Decimal]] = {}
    spend = monthly_spend(spec, factors)  # validates the spec
    rng = random.Random(spec.seed)
    randrange = rng.randrange
    horizon = spec.horizon()

    with localcontext() as ctx:  # official weights: mean spending shares over the base months
        ctx.prec = _PREC
        n = Decimal(spec.base_months)
        means = {
            item: float(sum((path[m] for m in horizon[: spec.base_months]), Decimal(0)) / n)
            for item, path in spend.items()
        }
    weights = ["item,weight\n"]
    for item, share in normalize_weights(means).shares.items():
        weights.append(f"{item},{share!r}\n")
    prices = ["item,period,relative\n"]
    for item, steps in factors.items():
        prices.extend(f"{item},{m},{f}\n" for m, f in zip(horizon[1:], steps))

    months = [(m, [[] for _ in range(m.days())]) for m in horizon]  # a bucket per day
    cap = spec.max_records_per_month
    with localcontext() as ctx:
        ctx.prec = _PREC
        for index, it in enumerate(spec.items):
            cats = it.category_shares()
            shares = [s for _, s in cats]
            path = spend[it.id]
            for m, buckets in months:
                n = len(buckets)
                # every daily part is less than a cent above its month's spend
                near_limit = path[m] > AMOUNT_LIMIT - _CENT
                for (cat, _), part in zip(cats, _split_exact(path[m], shares)):
                    # 1 + randrange(n) draws as randint(1, n) does, with fewer calls
                    k = 1 + randrange(min(cap, n))
                    if part < 1:  # too small to split into cent-quantized pieces
                        k = 1
                    days = sorted(rng.sample(range(1, n + 1), k))
                    cuts = [1 + randrange(1000) for _ in range(k)]
                    total_cut = Decimal(sum(cuts))
                    day_parts = _split_exact(part, [_CUTS[c] / total_cut for c in cuts])
                    if near_limit and max(day_parts) >= AMOUNT_LIMIT:
                        exc = InvalidEconomySpecError(
                            f"field 'items[{index}]' spends {max(day_parts)} on one day of {m} "
                            f"in {cat!r}; a ledger amount must lie inside ±{AMOUNT_LIMIT}"
                        )
                        exc.field, exc.month = f"items[{index}]", m
                        raise exc
                    for day, amount in zip(days, day_parts):
                        buckets[day - 1].append((cat, amount))
    ledger = ["date,category,amount\n"]
    for m, buckets in months:
        for day, bucket in enumerate(buckets, 1):
            if bucket:
                bucket.sort()
                date = f"{m}-{day:02d},"
                ledger.extend(f"{date}{cat},{amount!s}\n" for cat, amount in bucket)

    return GeneratedFiles(
        weights_csv="".join(weights),
        prices_csv="".join(prices),
        expenditures_csv="".join(ledger),
    )


# --- JSON form used by the CLI ---------------------------------------------
#
# {
#   "start": "2020-01", "months": 18, "base_months": 2, "seed": 7,
#   "items": [{"id": "food", "label": "...", "base_price": "1",
#              "base_quantity": "140", "categories": {"food-stores": "1"}}],
#   "base_drifts": {"food": "1.001"},
#   "shock_windows": [{"start": "2020-03", "end": "2020-05",
#                      "quantity_multipliers": {"food": "1.15"},
#                      "price_drifts": {"food": "1.002"}}]
# }
#
# Numeric values are strings so they stay exact decimals; `months`,
# `base_months`, `seed` and `max_records_per_month` are JSON integers. The
# shape table below checks everything but those four, which
# `SyntheticEconomySpec.validate` checks, as it also guards specs built in Python.


def _decimal(value) -> Decimal:
    """A finite decimal from a JSON string, in ASCII without ``_``, or number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(value)
    d = Decimal(_plain(str(value)))
    if not d.is_finite():
        raise ValueError(value)
    return d


_DECIMAL = ("a decimal string or number", parses(_decimal))
_DECIMALS = (
    "an object of decimal strings or numbers",
    lambda v: isinstance(v, dict) and all(map(_DECIMAL[1], v.values())),
)
_ECONOMY_SHAPE = {
    "items": [{"id": STRING, "label?": STRING, "base_price?": _DECIMAL,
               "base_quantity?": _DECIMAL, "categories?": _DECIMALS}],
    "months": ("an integer", lambda v: True),  # as the other three, checked by validate
    "start?": MONTH,
    "base_drifts?": _DECIMALS,
    "shock_windows?": [{"start": MONTH, "end": MONTH,
                        "quantity_multipliers?": _DECIMALS, "price_drifts?": _DECIMALS}],
}


def _decimals(mapping: Mapping) -> dict[str, Decimal]:
    return {key: _decimal(value) for key, value in mapping.items()}


def parse_economy(text: str) -> SyntheticEconomySpec:
    """Parse the JSON description of a synthetic economy.

    A value of the wrong JSON type raises ``InvalidEconomySpecError`` naming
    it in ``field``, e.g. ``items[0].id``.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also integers too long to convert
        raise InvalidEconomySpecError(f"not valid JSON: {exc}")
    check_shape(doc, _ECONOMY_SHAPE, InvalidEconomySpecError)
    items = tuple(
        SyntheticItem(
            id=entry["id"],
            base_price=_decimal(entry.get("base_price", "1")),
            base_quantity=_decimal(entry.get("base_quantity", "1")),
            label=entry.get("label", ""),
            categories=(
                tuple(_decimals(entry["categories"]).items()) if "categories" in entry else None
            ),
        )
        for entry in doc["items"]
    )
    windows = tuple(
        ShockWindow(
            start=Month.parse(w["start"]),
            end=Month.parse(w["end"]),
            quantity_multipliers=_decimals(w.get("quantity_multipliers", {})),
            price_drifts=_decimals(w.get("price_drifts", {})),
        )
        for w in doc.get("shock_windows", ())
    )
    spec = SyntheticEconomySpec(
        items=items,
        months=doc["months"],
        start=Month.parse(doc.get("start", "2020-01")),
        base_months=doc.get("base_months", 2),
        shock_windows=windows,
        base_drifts=_decimals(doc.get("base_drifts", {})),
        seed=doc.get("seed", 0),
        max_records_per_month=doc.get("max_records_per_month", 5),
    )
    spec.validate()
    return spec


def load_economy(path) -> SyntheticEconomySpec:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidEconomySpecError(f"not valid UTF-8: {exc}")
    return parse_economy(text)
