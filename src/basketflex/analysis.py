"""End-to-end scenarios: official vs. adjusted series, core variants, bias.

A scenario wires the whole pipeline together for one country/dataset: the
expenditure panel is compared to its base period through the crosswalk, the
official basket is reweighted month by month, both baskets are priced with
the same item price relatives, annual rates are chained, and the bias series
is the official-minus-adjusted gap. Negative bias therefore means official
inflation understates what the expenditure-adjusted basket measures; this
sign convention is fixed across the package and in all emitted files.

Lockdown windows are annotations only: they are carried into the plot data
(an ``in_lockdown`` column and result metadata) and never change any number.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import json
import logging
from dataclasses import dataclass, replace
from decimal import Decimal
from math import isfinite
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from . import crosswalk as cw
from . import ingest
from .core import (
    BiasPoint,
    ExpenditureRelativeVector,
    InflationPoint,
    ItemId,
    PriceRelativeSeries,
    WeightVector,
    adjusted_weights,
    chain_annual,
    exclude_items,
    fixed_base_annual,
    monthly_inflation,
    weighting_bias,
)
from .errors import (
    BOOL,
    MONTH,
    NUMBER,
    STRING,
    STRINGS,
    ConfigError,
    FixedMonthOutOfRangeError,
    MissingPriceRelativeError,
    NoOverlappingPeriodsError,
    PeriodNotCoveredError,
    ResultFieldError,
    SpecInvalidError,
    check_shape,
    parses,
)
from .periods import Month, month_range, parse_date

ANNUAL_METHODS = ("chained", "fixed_base")

SERIES_NAMES = ("official", "adjusted", "core_official", "core_adjusted")

RESULT_SCHEMA = "basketflex.scenario_result/1"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for one scenario run.

    ``annual_method`` selects how 12-month rates are built: ``chained``
    compounds the monthly rates (the default; the only construction fully
    consistent with weights that change every month) or ``fixed_base``,
    which reprices each item's compounded 12-month change with the current
    basket, kept as a comparison variant.
    """

    base_months: tuple[Month, ...]
    core_exclusions: frozenset[ItemId] = frozenset()
    fixed_weight_month: Month | None = None
    lockdown_windows: tuple[tuple[dt.date, dt.date], ...] = ()
    country_label: str = ""
    annual_method: str = "chained"
    per_day_base: bool = False

    def __post_init__(self) -> None:
        if not self.base_months:
            raise ConfigError("at least one base month is required")
        repeated = sorted({m for m in self.base_months if self.base_months.count(m) > 1})
        if repeated:
            raise ConfigError(
                f"base month listed more than once: {', '.join(map(str, repeated))}"
            )
        if self.annual_method not in ANNUAL_METHODS:
            raise ConfigError(f"annual_method must be one of {ANNUAL_METHODS}")
        if any("\ud800" <= c <= "\udfff" for c in self.country_label):  # lone surrogates
            raise ConfigError(f"country label {self.country_label!r} is not valid Unicode")
        last_end = None
        for start, end in self.lockdown_windows:
            if end < start:
                raise ConfigError(f"lockdown window {start}..{end} is inverted")
            if last_end is not None and start <= last_end:
                raise ConfigError("lockdown windows must be ordered and non-overlapping")
            last_end = end

    @property
    def variant(self) -> str:
        if self.fixed_weight_month is not None:
            return f"fixed-weight-{self.fixed_weight_month}"
        return "dynamic"

    def in_lockdown(self, month: Month) -> bool:
        first, last = month.first_day(), month.last_day()
        return any(start <= last and end >= first for start, end in self.lockdown_windows)


@dataclass(frozen=True)
class ScenarioResult:
    """Aligned monthly output of one scenario.

    All series share ``periods`` as their axis; weight paths carry one
    vector per period for each basket.
    """

    config: ScenarioConfig
    periods: tuple[Month, ...]
    official_weights: tuple[WeightVector, ...]
    adjusted_weights: tuple[WeightVector, ...]
    official: tuple[InflationPoint, ...]
    adjusted: tuple[InflationPoint, ...]
    core_official: tuple[InflationPoint, ...]
    core_adjusted: tuple[InflationPoint, ...]
    bias: tuple[BiasPoint, ...]
    core_bias: tuple[BiasPoint, ...]

    def series(self, name: str) -> tuple[InflationPoint, ...]:
        if name not in SERIES_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def bias_at(self, period: Month) -> BiasPoint:
        for b in self.bias:
            if b.period == period:
                return b
        raise PeriodNotCoveredError(self.config.country_label, period)


def _month_list(months: Iterable[Month]) -> str:
    return ", ".join(map(str, months)) or "none"


class CheckedScenario(NamedTuple):
    """What ``check_scenario`` hands on to ``crosswalk.apply`` and pricing."""

    base: dict[str, Decimal]
    prices: dict[ItemId, PriceRelativeSeries]
    axis: list[Month]
    core_official: WeightVector


def check_scenario(
    config: ScenarioConfig,
    weights: WeightVector,
    prices: Mapping[ItemId, PriceRelativeSeries],
    panel: ingest.ExpenditurePanel,
    spec: cw.CrosswalkSpec,
) -> CheckedScenario:
    """Make every check ``run`` makes before it computes the relatives.

    In order, it raises SpecInvalidError (the crosswalk's findings against
    the basket items and the panel's categories), BaseMonthMissingError,
    ZeroBaseError, MissingPriceRelativeError, NoOverlappingPeriodsError (the
    price series share no month, or none with the panel),
    FixedMonthOutOfRangeError, and UnknownItemError or AllItemsExcludedError
    for the core exclusions. ``validate`` is this check alone; ``run`` goes
    on to ``crosswalk.apply``, whose NonPositiveRelativeError is its last.
    """
    findings = cw.validate(spec, set(weights.shares), panel.categories)
    if findings:
        raise SpecInvalidError(findings)
    base = ingest.base_period(panel, config.base_months, per_day=config.per_day_base)
    cw.check_base(spec, base)
    for item in weights.shares:
        if item not in prices:
            raise MissingPriceRelativeError(item)
    basket_prices = {item: prices[item] for item in weights.shares}
    start = max(s.start for s in basket_prices.values())
    end = min(s.end for s in basket_prices.values())
    if end < start:
        raise NoOverlappingPeriodsError("price series share no common months")
    priced_months = month_range(start, end)
    panel_months = set(panel.months)
    axis = [m for m in priced_months if m in panel_months]
    if not axis:
        raise NoOverlappingPeriodsError("expenditure panel and price series share no months")
    if config.fixed_weight_month is not None and config.fixed_weight_month not in axis:
        raise FixedMonthOutOfRangeError(config.fixed_weight_month)
    core_official = exclude_items(weights, config.core_exclusions)
    log.info("scenario axis: %s..%s, %d months", axis[0], axis[-1], len(axis))
    log.info(
        "months dropped: no expenditure relatives [%s]; no price relatives [%s]",
        _month_list(m for m in priced_months if m not in panel_months),
        _month_list(m for m in panel.months if not start <= m <= end),
    )
    return CheckedScenario(base, basket_prices, axis, core_official)


def run_scenario(
    config: ScenarioConfig,
    weights: WeightVector,
    prices: Mapping[ItemId, PriceRelativeSeries],
    panel: ingest.ExpenditurePanel,
    spec: cw.CrosswalkSpec,
) -> ScenarioResult:
    """Run the full pipeline over the overlap of panel and price coverage.

    Per month: expenditure relatives via the crosswalk, adjusted weights,
    official and adjusted inflation with contributions, core variants on the
    renormalized exclusion set (official core weights are renormalized the
    same way, otherwise the asymmetry would fabricate bias), annual rates,
    and the bias series. When ``config.fixed_weight_month`` is set, adjusted
    weights are frozen at that month's values for every period.

    This is :func:`check_scenario`, ``crosswalk.apply`` and
    :func:`price_scenario`; ``run`` makes the three calls itself to release
    the panel before pricing.
    """
    checked = check_scenario(config, weights, prices, panel, spec)
    relatives = cw.apply(spec, panel, checked.base, per_day=config.per_day_base)
    return price_scenario(config, weights, checked, relatives)


def price_scenario(
    config: ScenarioConfig,
    weights: WeightVector,
    checked: CheckedScenario,
    relatives: dict[Month, ExpenditureRelativeVector],
) -> ScenarioResult:
    """Reweight and price the baskets given each month's expenditure relatives.

    ``relatives`` is consumed: it is emptied once the adjusted weights
    exist. The core-adjusted vectors, which the result does not keep, are
    built and priced before the other baskets and dropped.
    """
    axis = checked.axis
    if config.fixed_weight_month is not None:
        frozen = adjusted_weights(weights, relatives[config.fixed_weight_month])
        adj_vectors = [replace(frozen, period=m) for m in axis]
    else:
        adj_vectors = [adjusted_weights(weights, relatives[m]) for m in axis]
    relatives.clear()
    off_vectors = [replace(weights, period=m) for m in axis]

    core_off = checked.core_official
    core_prices = {i: s for i, s in checked.prices.items() if i in core_off.shares}

    def priced(vectors, prices) -> list[InflationPoint]:
        """One basket's monthly points on the axis, with their annual rates."""
        points = [monthly_inflation(v, prices, m) for v, m in zip(vectors, axis)]
        if config.annual_method == "chained":
            return chain_annual(points)
        return [
            replace(p, annual_pct=fixed_base_annual(v, prices, p.period)) if i >= 11 else p
            for i, (p, v) in enumerate(zip(points, vectors))
        ]

    core_adj_pts = priced([exclude_items(v, config.core_exclusions) for v in adj_vectors],
                          core_prices)
    official_pts = priced(off_vectors, checked.prices)
    adjusted_pts = priced(adj_vectors, checked.prices)
    core_off_pts = priced([core_off] * len(axis), core_prices)

    return ScenarioResult(
        config=config,
        periods=tuple(axis),
        official_weights=tuple(off_vectors),
        adjusted_weights=tuple(adj_vectors),
        official=tuple(official_pts),
        adjusted=tuple(adjusted_pts),
        core_official=tuple(core_off_pts),
        core_adjusted=tuple(core_adj_pts),
        bias=tuple(weighting_bias(official_pts, adjusted_pts)),
        core_bias=tuple(weighting_bias(core_off_pts, core_adj_pts)),
    )


@dataclass(frozen=True)
class CountryBias:
    """One comparison-table row: the weighting bias of one scenario."""

    country: str
    monthly_pp: float
    annual_pp: float | None
    sign: str


def compare_countries(
    results: Iterable[ScenarioResult], period: Month
) -> list[CountryBias]:
    """Bias of each scenario at one month, sorted most negative first.

    Both the monthly and (when twelve months are available) the annualized
    difference are reported; the sign column follows the monthly figure.
    ``results`` is consumed lazily and no result is kept once its row is
    built, so a generator of results holds one at a time.
    """

    def row(r: ScenarioResult) -> CountryBias:
        b = r.bias_at(period)
        sign = "negative" if b.monthly_pp < 0 else "positive" if b.monthly_pp > 0 else "zero"
        return CountryBias(r.config.country_label, b.monthly_pp, b.annual_pp, sign)

    return sorted(map(row, results), key=lambda row: (row.monthly_pp, row.country))


# --- serialization ----------------------------------------------------------


def _point_dict(p: InflationPoint) -> dict:
    return {
        "period": str(p.period),
        "monthly_pct": p.monthly_pct,
        "annual_pct": p.annual_pct,
        "contributions": p.contributions,
    }


def _bias_dict(b: BiasPoint) -> dict:
    return {"period": str(b.period), "monthly_pp": b.monthly_pp, "annual_pp": b.annual_pp}


def _weights_dicts(vectors: Iterable[WeightVector]) -> list[dict]:
    return [{"period": str(v.period), "raw_sum": v.raw_sum, "shares": v.shares} for v in vectors]


def _head_dict(result: ScenarioResult) -> dict:
    """The members of the result document other than its numbers."""
    cfg = result.config
    return {
        "schema": RESULT_SCHEMA,
        "country": cfg.country_label,
        "variant": cfg.variant,
        "config": {name: dump(getattr(cfg, name)) for name, (_, dump, _) in _CONFIG_FIELDS},
        "periods": [str(m) for m in result.periods],
        "in_lockdown": [cfg.in_lockdown(m) for m in result.periods],
    }


def result_to_dict(result: ScenarioResult) -> dict:
    """JSON-ready form of a scenario result; see ``result_from_dict``.

    Shares and contributions are the result's own dicts, in their own key
    order: dump with sorted keys for stable text, and do not mutate them.
    ``write_result`` writes this document without building it.
    """
    return {
        **_head_dict(result),
        "weights": {
            "official": _weights_dicts(result.official_weights),
            "adjusted": _weights_dicts(result.adjusted_weights),
        },
        "series": {name: [_point_dict(p) for p in result.series(name)] for name in SERIES_NAMES},
        "bias": [_bias_dict(b) for b in result.bias],
        "core_bias": [_bias_dict(b) for b in result.core_bias],
    }


# JSON shape of a result document, in the form ``errors.check_shape`` reads.
_NUMBER_OR_NULL = ("a finite number or null", lambda v: v is None or NUMBER[1](v))
_NUMBERS = (
    "an object of finite numbers",
    lambda v: isinstance(v, dict) and all(map(NUMBER[1], v.values())),
)
_IS_DATE = parses(parse_date)
_DATE_PAIR = (
    "a [start, end] pair of dates",
    lambda v: isinstance(v, list) and len(v) == 2 and all(map(_IS_DATE, v)),
)


# Each ScenarioConfig field but country_label: the shape of its JSON value, the
# JSON value of the field and the field of the JSON value. A key ending in "?"
# may be absent from the result's ``config``, and then takes the default.
_CONFIG = {
    "base_months": ([MONTH], lambda months: list(map(str, months)),
                    lambda texts: tuple(map(Month.parse, texts))),
    "core_exclusions?": (STRINGS, sorted, frozenset),
    "fixed_weight_month?": (
        ("a month or null", lambda v: v is None or MONTH[1](v)),
        lambda month: None if month is None else str(month),
        lambda text: None if text is None else Month.parse(text),
    ),
    "lockdown_windows?": (
        [_DATE_PAIR],
        lambda windows: [[start.isoformat(), end.isoformat()] for start, end in windows],
        lambda pairs: tuple((parse_date(a), parse_date(b)) for a, b in pairs),
    ),
    "annual_method?": (STRING, str, str),
    "per_day_base?": (BOOL, bool, bool),
}
_CONFIG_FIELDS = [(key.rstrip("?"), row) for key, row in _CONFIG.items()]
_POINT = {"period": MONTH, "monthly_pct": NUMBER, "contributions?": _NUMBERS,
          "annual_pct?": _NUMBER_OR_NULL}
_BIAS = {"period": MONTH, "monthly_pp": NUMBER, "annual_pp?": _NUMBER_OR_NULL}
_VECTOR = {"period": MONTH, "shares": _NUMBERS, "raw_sum?": NUMBER}
_RESULT_SHAPE = {
    # first, so that a document of another schema is named as such
    "schema": (repr(RESULT_SCHEMA), lambda v: v == RESULT_SCHEMA),
    "country?": STRING,
    "config": {key: shape for key, (shape, _, _) in _CONFIG.items()},
    "periods": [MONTH],
    "weights": {"official": [_VECTOR], "adjusted": [_VECTOR]},
    "series": {name: [_POINT] for name in SERIES_NAMES},
    "bias": [_BIAS],
    "core_bias": [_BIAS],
}


def result_from_dict(doc: Mapping) -> ScenarioResult:
    """Rebuild a scenario result from its JSON form.

    A document of another ``schema``, or with a field missing or of the
    wrong JSON type, raises ``ResultFieldError`` naming the field, e.g.
    ``weights.official[0].shares``.
    """
    check_shape(doc, _RESULT_SHAPE, ResultFieldError)
    cfg_doc = doc["config"]
    config = ScenarioConfig(
        country_label=doc.get("country", ""),
        **{name: read(cfg_doc[name]) for name, (_, _, read) in _CONFIG_FIELDS if name in cfg_doc},
    )

    def points(entries) -> tuple[InflationPoint, ...]:
        return tuple(
            InflationPoint(
                period=Month.parse(e["period"]),
                monthly_pct=e["monthly_pct"],
                contributions=dict(e.get("contributions", {})),
                annual_pct=e.get("annual_pct"),
            )
            for e in entries
        )

    def biases(entries) -> tuple[BiasPoint, ...]:
        return tuple(
            BiasPoint(
                period=Month.parse(e["period"]),
                monthly_pp=e["monthly_pp"],
                annual_pp=e.get("annual_pp"),
            )
            for e in entries
        )

    def vectors(entries) -> tuple[WeightVector, ...]:
        return tuple(
            WeightVector(
                shares=dict(e["shares"]),
                period=Month.parse(e["period"]),
                raw_sum=e.get("raw_sum", 1.0),
            )
            for e in entries
        )

    return ScenarioResult(
        config=config,
        periods=tuple(Month.parse(m) for m in doc["periods"]),
        official_weights=vectors(doc["weights"]["official"]),
        adjusted_weights=vectors(doc["weights"]["adjusted"]),
        official=points(doc["series"]["official"]),
        adjusted=points(doc["series"]["adjusted"]),
        core_official=points(doc["series"]["core_official"]),
        core_adjusted=points(doc["series"]["core_adjusted"]),
        bias=biases(doc["bias"]),
        core_bias=biases(doc["core_bias"]),
    )


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(x)


# --- result files -------------------------------------------------------------
# ``write_result`` writes the JSON document and the four tidy CSV files in one
# pass. A number's text is its ``repr`` in every file: what ``json`` prints
# for a float.

RESULT_JSON = "scenario_result.json"

CSV_FILES = {  # file name -> header line, in the order ``run`` writes them
    "inflation.csv": "period,series,monthly_pct,annual_pct,in_lockdown\n",
    "weights.csv": "period,basket,item,weight,in_lockdown\n",
    "contributions.csv": "period,series,item,contribution_pp\n",
    "bias.csv": "period,scope,monthly_pp,annual_pp\n",
}


def _number(x, *where: str) -> str:
    """The text of a number in every result file; a nan or inf raises ``ValueError``."""
    if isfinite(x):
        return repr(x)
    raise ValueError(f"refusing to write the non-finite number {x!r} ({' '.join(where)})")


def _numbers(values: Mapping[ItemId, float], order: list[ItemId], *where: str) -> list[str]:
    """``_number`` of each value, in ``order``."""
    if not all(map(isfinite, values.values())):
        bad = next(i for i in order if not isfinite(values[i]))
        _number(values[bad], *where, f"item {bad!r}")
    return list(map(repr, map(values.__getitem__, order)))


def _csv_field(text: str) -> str:
    """``text`` as a CSV field, quoted by the csv module's QUOTE_MINIMAL rules, and a comma."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-1]


def _csv_lines(prefix: str, fields: list[str], values: list[str], suffix: str = "") -> str:
    """CSV lines ``prefix + field + value + suffix``, one per item."""
    if not values:
        return ""
    return prefix + (suffix + "\n" + prefix).join(map(add, fields, values)) + suffix + "\n"


def _json_object(keys: list[str], values: list[str]) -> str:
    """A shares or contributions object, indented as ``json.dumps(indent=2)`` does."""
    if not values:
        return "{}"
    return "{" + ",".join(map(add, keys, values)) + "\n        }"


def _write_list(write, elements: Iterable[str], pad: str) -> None:
    """Write a JSON list of element texts; ``pad`` is the newline and indent
    of the list's own line."""
    sep = "[" + pad + "  "
    for text in elements:
        write(sep + text)
        sep = "," + pad + "  "
    write("[]" if sep[0] == "[" else pad + "]")


def _write_lists(write, keys: tuple[str, ...], lists) -> None:
    """Write a JSON object of lists in sorted key order, passing over the
    lists in the order of ``keys``, their CSV order.

    ``lists(key, to_csv, to_json)`` writes the CSV lines of one list when
    ``to_csv`` is true and yields its JSON elements when ``to_json`` is. A
    list whose JSON is not yet due when its CSV lines are is passed over a
    second time for the JSON once it is, rather than held in memory.
    """
    due = sorted(keys)
    passed = set()
    sep = "{"

    def put(key: str, to_csv: bool) -> None:
        nonlocal sep
        write(f'{sep}\n    "{key}": ')
        _write_list(write, lists(key, to_csv, True), "\n    ")
        sep = ","

    for key in keys:
        if key == due[0]:
            put(due.pop(0), True)
        else:
            for _ in lists(key, True, False):
                pass
        passed.add(key)
        while due and due[0] in passed:
            put(due.pop(0), False)
    write("\n  }")


def write_result(result: ScenarioResult, out: Mapping[str, Callable[[str], object]]) -> None:
    """Write the five result files: ``out`` maps ``RESULT_JSON`` and each
    name in ``CSV_FILES`` to the write function of that file.

    The JSON text is ``json.dumps(result_to_dict(result), indent=2,
    sort_keys=True)`` plus a newline; each CSV file holds what
    ``csv.writer`` with ``lineterminator="\\n"`` writes for its tidy rows.
    One pass over the result writes them all, in CSV order, and formats
    each number once, except that the ``official`` and ``core_official``
    series and the ``official`` weights are formatted again for the JSON,
    which lists them after lists that their CSV lines precede. A nan or inf
    raises ``ValueError``: no result file carries one.
    """
    write_json = out[RESULT_JSON]
    inflation, weights, contributions, bias = (out[name] for name in CSV_FILES)
    for name, header in CSV_FILES.items():
        out[name](header)

    @functools.cache
    def period(month: Month) -> tuple[str, str]:  # its text and its lockdown flag
        return str(month), str(int(result.config.in_lockdown(month)))

    @functools.cache
    def items(ids: frozenset) -> tuple[list, list, list]:  # sorted, CSV fields, JSON keys
        order = sorted(ids)
        return (order, list(map(_csv_field, order)),
                [f"\n          {json.dumps(item)}: " for item in order])

    def biases(key: str, to_csv: bool, to_json: bool):
        scope, points = ("headline", result.bias) if key == "bias" else ("core", result.core_bias)
        for b in points:
            text = period(b.period)[0]
            m = _number(b.monthly_pp, key, text)
            a = None if b.annual_pp is None else _number(b.annual_pp, key, text)
            if to_csv:
                bias(f"{text},{scope},{m},{a or ''}\n")
            if to_json:
                yield (f'{{\n      "annual_pp": {a or "null"},\n      "monthly_pp": {m},'
                       f'\n      "period": "{text}"\n    }}')

    def points(name: str, to_csv: bool, to_json: bool):
        for p in result.series(name):
            text, flag = period(p.period)
            m = _number(p.monthly_pct, name, text)
            a = None if p.annual_pct is None else _number(p.annual_pct, name, text)
            order, fields, keys = items(frozenset(p.contributions))
            values = _numbers(p.contributions, order, name, text)
            if to_csv:
                inflation(f"{text},{name},{m},{a or ''},{flag}\n")
                contributions(_csv_lines(f"{text},{name},", fields, values))
            if to_json:
                yield (f'{{\n        "annual_pct": {a or "null"},\n        "contributions": '
                       f'{_json_object(keys, values)},\n        "monthly_pct": {m},'
                       f'\n        "period": "{text}"\n      }}')

    def vectors(basket: str, to_csv: bool, to_json: bool):
        shares = None
        for v in result.official_weights if basket == "official" else result.adjusted_weights:
            text, flag = period(v.period)
            if v.shares is not shares:  # the official basket shares one dict
                shares = v.shares
                order, fields, keys = items(frozenset(shares))
                values = _numbers(shares, order, basket, text)
                obj = _json_object(keys, values) if to_json else ""
            if to_csv:
                weights(_csv_lines(f"{text},{basket},", fields, values, "," + flag))
            if to_json:
                raw_sum = _number(v.raw_sum, basket, text, "raw_sum")
                yield (f'{{\n        "period": "{text}",\n        "raw_sum": {raw_sum},'
                       f'\n        "shares": {obj}\n      }}')

    head = _head_dict(result)

    def member(key: str) -> None:
        text = json.dumps(head[key], indent=2, sort_keys=True).replace("\n", "\n  ")
        write_json(f',\n  "{key}": {text}')

    write_json('{\n  "bias": ')
    _write_list(write_json, biases("bias", True, True), "\n  ")
    member("config")
    write_json(',\n  "core_bias": ')
    _write_list(write_json, biases("core_bias", True, True), "\n  ")
    for key in ("country", "in_lockdown", "periods", "schema"):
        member(key)
    write_json(',\n  "series": ')
    _write_lists(write_json, SERIES_NAMES, points)
    member("variant")
    write_json(',\n  "weights": ')
    _write_lists(write_json, ("official", "adjusted"), vectors)
    write_json("\n}\n")


def _file_text(result: ScenarioResult, name: str) -> Iterator[str]:
    chunks: list[str] = []
    write_result(result, {**dict.fromkeys((RESULT_JSON, *CSV_FILES), lambda text: None),
                          name: chunks.append})
    return iter(chunks)


# The four tidy CSV files, as ``write_result`` writes them, chunk by chunk.


def inflation_rows(result: ScenarioResult) -> Iterator[str]:
    """Tidy CSV, header first: one line per period and series, for the rate panels."""
    return _file_text(result, "inflation.csv")


def weight_rows(result: ScenarioResult) -> Iterator[str]:
    """Tidy CSV, header first: one line per period, basket and item, for weight paths."""
    return _file_text(result, "weights.csv")


def contribution_rows(result: ScenarioResult) -> Iterator[str]:
    """Tidy CSV, header first: one line per period, series and item, in percentage points."""
    return _file_text(result, "contributions.csv")


def bias_rows(result: ScenarioResult) -> Iterator[str]:
    """Tidy CSV, header first: headline and core bias per period."""
    return _file_text(result, "bias.csv")


def comparison_rows(rows: Iterable[CountryBias]) -> list[list[str]]:
    out = [["country", "monthly_bias_pp", "annual_bias_pp", "sign"]]
    for r in rows:
        out.append([r.country, _fmt(r.monthly_pp), _fmt(r.annual_pp), r.sign])
    return out
