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
from decimal import Decimal
from math import isfinite
from operator import add
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Iterator, Mapping, NamedTuple

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
    DATE_PAIR,
    MONTH,
    NUMBER,
    STRING,
    STRINGS,
    BasketflexError,
    ConfigError,
    FixedMonthOutOfRangeError,
    MissingPriceRelativeError,
    NoOverlappingPeriodsError,
    PeriodNotCoveredError,
    ResultFieldError,
    SpecInvalidError,
    check_shape,
    is_number,
    only,
    shape_error,
)
from .periods import Month, month_range

if TYPE_CHECKING:  # imported where a scenario is run, so that compare loads neither
    from . import crosswalk as cw, ingest

ANNUAL_METHODS = ("chained", "fixed_base")

SERIES_NAMES = ("official", "adjusted", "core_official", "core_adjusted")

RESULT_SCHEMA = "basketflex.scenario_result/1"

log = logging.getLogger(__name__)


class _ScenarioConfig(NamedTuple):
    base_months: tuple[Month, ...]
    core_exclusions: frozenset[ItemId] = frozenset()
    fixed_weight_month: Month | None = None
    lockdown_windows: tuple[tuple[dt.date, dt.date], ...] = ()
    country_label: str = ""
    annual_method: str = "chained"
    per_day_base: bool = False


class ScenarioConfig(_ScenarioConfig):
    """Knobs for one scenario run.

    ``annual_method`` selects how 12-month rates are built: ``chained``
    compounds the monthly rates (the default; the only construction fully
    consistent with weights that change every month) or ``fixed_base``,
    which reprices each item's compounded 12-month change with the current
    basket, kept as a comparison variant. ``core_exclusions`` may be given
    as any iterable of item ids; it is kept as a frozenset.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        config = super().__new__(cls, *args, **kwargs)
        return config._replace(core_exclusions=frozenset(config.core_exclusions))

    def __init__(self, *args, **kwargs) -> None:  # checks the fields __new__ set
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


class ScenarioResult(NamedTuple):
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
    for the core exclusions.
    """
    from . import crosswalk as cw, ingest

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
    from . import crosswalk as cw

    checked = check_scenario(config, weights, prices, panel, spec)
    relatives = cw.apply(spec, panel, checked.base, config.per_day_base, checked.axis)
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
        adj_vectors = [frozen._replace(period=m) for m in axis]
    else:
        adj_vectors = [adjusted_weights(weights, relatives[m]) for m in axis]
    relatives.clear()
    off_vectors = [weights._replace(period=m) for m in axis]

    core_off = checked.core_official
    core_prices = {i: s for i, s in checked.prices.items() if i in core_off.shares}

    def priced(vectors, prices) -> list[InflationPoint]:
        """One basket's monthly points on the axis, with their annual rates."""
        points = [monthly_inflation(v, prices, m) for v, m in zip(vectors, axis)]
        if config.annual_method == "chained":
            return chain_annual(points)
        if config.annual_method == "fixed_base":
            return [
                p._replace(annual_pct=fixed_base_annual(v, prices, p.period)) if i >= 11 else p
                for i, (p, v) in enumerate(zip(points, vectors))
            ]
        raise ConfigError(f"annual_method must be one of {ANNUAL_METHODS}")

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


class CountryBias(NamedTuple):
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


def _entries(values: Iterable[WeightVector | InflationPoint | BiasPoint]) -> list[dict]:
    """The JSON objects of values: their fields, with the period as text."""
    return [{**v._asdict(), "period": str(v.period)} for v in values]


def _head_dict(result: ScenarioResult) -> dict:
    """The members of the result document other than its numbers."""
    cfg = result.config
    return {
        "schema": RESULT_SCHEMA,
        "country": cfg.country_label,
        "variant": cfg.variant,
        "config": {name: dump(getattr(cfg, name)) for name, (_, dump) in _CONFIG_FIELDS},
        "periods": [str(m) for m in result.periods],
        "in_lockdown": [cfg.in_lockdown(m) for m in result.periods],
    }


def result_to_dict(result: ScenarioResult) -> dict:
    """JSON-ready form of a scenario result; see ``result_from_dict``.

    Shares and contributions are the result's own dicts, in their own key
    order: do not mutate them. ``write_result`` writes this document without
    building it, with sorted keys in every object but ``series`` and
    ``weights``, whose members come in the order given here.
    """
    return {
        **_head_dict(result),
        "weights": {
            "official": _entries(result.official_weights),
            "adjusted": _entries(result.adjusted_weights),
        },
        "series": {name: _entries(result.series(name)) for name in SERIES_NAMES},
        "bias": _entries(result.bias),
        "core_bias": _entries(result.core_bias),
    }


# JSON shape of a result document, in the form ``errors.check_shape`` reads.
_NUMBER_OR_NULL = ("a finite number or null", only(lambda v: v is None or is_number(v)))
# the document's own dict, each value tested, none by its truth (0.0 is false)
_NUMBERS = (
    "an object of finite numbers",
    only(lambda v: isinstance(v, dict) and all(map(is_number, v.values()))),
)


# Each ScenarioConfig field but country_label: the shape that reads its JSON
# value, and the JSON value of the field. A key ending in "?" may be absent
# from the result's ``config``, and then takes the default.
_CONFIG = {
    "base_months": ([MONTH], lambda months: list(map(str, months))),
    "core_exclusions?": (STRINGS, sorted),
    "fixed_weight_month?": (
        ("a month or null", lambda v: None if v is None else Month.parse(v)),
        lambda month: None if month is None else str(month),
    ),
    "lockdown_windows?": (
        [DATE_PAIR],
        lambda windows: [[start.isoformat(), end.isoformat()] for start, end in windows],
    ),
    "annual_method?": (STRING, str),
    "per_day_base?": (BOOL, bool),
}
_CONFIG_FIELDS = [(key.rstrip("?"), row) for key, row in _CONFIG.items()]
_POINT = {"period": MONTH, "monthly_pct": NUMBER, "contributions?": _NUMBERS,
          "annual_pct?": _NUMBER_OR_NULL}
_BIAS = {"period": MONTH, "monthly_pp": NUMBER, "annual_pp?": _NUMBER_OR_NULL}
_VECTOR = {"period": MONTH, "shares": _NUMBERS, "raw_sum?": NUMBER}
_RESULT_SHAPE = {
    # first, so that a document of another schema is named as such
    "schema": (repr(RESULT_SCHEMA), only(lambda v: v == RESULT_SCHEMA)),
    "country?": STRING,
    "config": {key: shape for key, (shape, _) in _CONFIG.items()},
    "periods": [MONTH],
    "weights": {"official": [_VECTOR], "adjusted": [_VECTOR]},
    "series": {name: [_POINT] for name in SERIES_NAMES},
    "bias": [_BIAS],
    "core_bias": [_BIAS],
}


_CHUNK = 1 << 16  # the characters ``read_result`` reads at a time
_BLANKS = json.decoder.WHITESPACE.match
_DECODE = json.JSONDecoder().raw_decode
_TYPES = ((_VECTOR, WeightVector), (_POINT, InflationPoint), (_BIAS, BiasPoint))


class _Text:
    """A JSON text read from ``fh`` as needed: ``buf[pos:]`` is read and not
    yet consumed, and ``buf`` starts at character ``start`` of the text."""

    def __init__(self, fh) -> None:
        self.fh, self.buf, self.pos, self.start, self.eof = fh, "", 0, 0, False

    def more(self, need: int = 1) -> bool:
        """Read until ``need`` characters are unconsumed or the text ends; whether any were."""
        parts, held = [self.buf[self.pos:]], len(self.buf) - self.pos
        self.start, self.pos, unread = self.start + self.pos, 0, held
        while held < need and not self.eof:
            parts.append(self.fh.read(_CHUNK))
            self.eof, held = not parts[-1], held + len(parts[-1])
        self.buf = "".join(parts)
        return held > unread

    def peek(self) -> str:
        """The next character that is not a JSON blank, "" at the end of the text."""
        while True:
            self.pos = _BLANKS(self.buf, self.pos).end()
            if self.pos < len(self.buf) or not self.more():
                return self.buf[self.pos:self.pos + 1]

    def take(self, char: str, expecting: str = "',' delimiter") -> None:
        if self.peek() != char:
            raise json.JSONDecodeError(f"Expecting {expecting}", self.buf, self.pos)
        self.pos += 1

    def value(self):
        """The next JSON value, decoded whole."""
        self.peek()
        while True:
            try:
                value, end = _DECODE(self.buf, self.pos)
                if end + 2 < len(self.buf) or self.eof:  # else a number may go on: "1.", "1e-"
                    self.pos = end
                    return value
            except json.JSONDecodeError:
                if self.eof:
                    raise
            self.more(2 * (len(self.buf) - self.pos))

    def members(self, close: str) -> Iterator[None]:
        """Yield before each member of the object or list that opens here."""
        self.pos += 1
        if self.peek() != close:
            yield
            while self.peek() == ",":
                self.pos += 1
                yield
        self.take(close)


def _first(errors: list) -> Exception | None:
    """The one of ``errors``, in checking order, raised first: shape errors come before others."""
    shape_errors = [e for e in errors if isinstance(e, ResultFieldError)]
    return next(filter(None, shape_errors or errors), None)


def _read(text: _Text, shape, field: str, keep) -> tuple:
    """The next value of ``text`` as ``check_shape`` reads it, and ``_first``
    of its errors. Objects and lists of ``shape`` are read a member at a
    time; each list element is decoded whole, checked, built into its value
    type and dropped unless ``keep`` is None or names its list."""
    if isinstance(shape, dict) and text.peek() == "{":
        subs = {key.rstrip("?"): (key, f"{field}.{key}".strip(".?")) for key in shape}
        read, errors = {}, {}
        for _ in text.members("}"):
            if text.peek() != '"':
                text.take('"', "property name enclosed in double quotes")
            name = text.value()
            text.take(":", "':' delimiter")
            if name in subs:  # a repeated name takes its last value, as in json.load
                key, where = subs[name]
                read[name], errors[name] = _read(text, shape[key], where, keep)
            else:
                text.value()
        for name, (key, where) in subs.items():
            if name == key and name not in read:
                errors[name] = shape_error(ResultFieldError, where, "is missing")
        return read, _first([errors.get(name) for name in subs])
    if isinstance(shape, list) and text.peek() == "[":
        build = next((t for s, t in _TYPES if s is shape[0]), None)
        values, error = [], None
        for k, _ in enumerate(text.members("]")):
            value = text.value()
            if isinstance(error, ResultFieldError):  # no later element's error comes first
                continue
            try:
                value = check_shape(value, shape[0], ResultFieldError, f"{field}[{k}]")
                value = build(**value) if build and not error else value
            except (BasketflexError, ValueError) as exc:
                error = _first([error, exc])
            if not build or keep is None or field in keep:
                values.append(value)
        return tuple(values), error
    value = text.value()
    try:
        return check_shape(value, shape, ResultFieldError, field), None
    except ResultFieldError as exc:
        return None, exc


def read_result(fh, keep: Collection[str] | None = None) -> ScenarioResult:
    """Read a scenario result from the JSON text of ``fh``, a chunk at a time.

    Every weight vector, inflation point and bias point is checked and built as
    it is read; a list that ``keep`` does not name (``"bias"``,
    ``"series.official"``, ...) is then left empty, unless ``keep`` is None.

    Text that is not JSON raises ``BasketflexError`` "not valid JSON". Else
    the error is the first that checking the whole document finds: a
    ``ResultFieldError`` naming a field (``weights.official[0].shares``) that
    is missing, of the wrong JSON type or that does not read, or ``schema``
    if it is another; then one of ``ScenarioConfig``; then one of a value type.
    """
    text = _Text(fh)
    try:
        doc, error = _read(text, _RESULT_SHAPE, "", keep)
        if text.peek():
            raise json.JSONDecodeError("Extra data", text.buf, text.pos)
    except (ValueError, RecursionError) as exc:  # also a bad byte, long integer, deep nesting
        where = (f"{exc.msg}: character {text.start + exc.pos}"
                 if isinstance(exc, json.JSONDecodeError) else exc)
        raise BasketflexError(f"{getattr(fh, 'name', 'text')}: not valid JSON: {where}") from exc
    if isinstance(error, ResultFieldError):
        raise error
    config = ScenarioConfig(country_label=doc.get("country", ""), **doc["config"])
    if error:
        raise error
    weights, series = doc["weights"], doc["series"]
    return ScenarioResult(config, doc["periods"], weights["official"], weights["adjusted"],
                          *map(series.get, SERIES_NAMES), doc["bias"], doc["core_bias"])


def result_from_dict(doc: Mapping) -> ScenarioResult:
    """Rebuild a scenario result from its JSON form: ``read_result`` of its text."""
    return read_result(io.StringIO(json.dumps(doc)))


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


def write_result(result: ScenarioResult, out: Mapping[str, Callable[[str], object]]) -> None:
    """Write the five result files: ``out`` maps ``RESULT_JSON`` and each
    name in ``CSV_FILES`` to the write function of that file.

    The JSON text is ``json.dumps(result_to_dict(result), indent=2)`` plus a
    newline, with sorted keys in every object but ``series`` and ``weights``,
    whose members come in CSV order. Each CSV file holds what ``csv.writer``
    with ``lineterminator="\\n"`` writes for its tidy rows. One pass over the
    result writes them all and formats each number once: each list writes
    its CSV lines as it yields its JSON elements. A nan or inf raises
    ``ValueError``: no result file carries one.
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

    def biases(key: str):
        scope, points = ("headline", result.bias) if key == "bias" else ("core", result.core_bias)
        for b in points:
            text = period(b.period)[0]
            m = _number(b.monthly_pp, key, text)
            a = None if b.annual_pp is None else _number(b.annual_pp, key, text)
            bias(f"{text},{scope},{m},{a or ''}\n")
            yield (f'{{\n      "annual_pp": {a or "null"},\n      "monthly_pp": {m},'
                   f'\n      "period": "{text}"\n    }}')

    def points(name: str):
        for p in result.series(name):
            text, flag = period(p.period)
            m = _number(p.monthly_pct, name, text)
            a = None if p.annual_pct is None else _number(p.annual_pct, name, text)
            order, fields, keys = items(frozenset(p.contributions))
            values = _numbers(p.contributions, order, name, text)
            inflation(f"{text},{name},{m},{a or ''},{flag}\n")
            contributions(_csv_lines(f"{text},{name},", fields, values))
            yield (f'{{\n        "annual_pct": {a or "null"},\n        "contributions": '
                   f'{_json_object(keys, values)},\n        "monthly_pct": {m},'
                   f'\n        "period": "{text}"\n      }}')

    def vectors(basket: str):
        shares = None
        for v in result.official_weights if basket == "official" else result.adjusted_weights:
            text, flag = period(v.period)
            if v.shares is not shares:  # the official basket shares one dict
                shares = v.shares
                order, fields, keys = items(frozenset(shares))
                values = _numbers(shares, order, basket, text)
                obj = _json_object(keys, values)
            weights(_csv_lines(f"{text},{basket},", fields, values, "," + flag))
            raw_sum = _number(v.raw_sum, basket, text, "raw_sum")
            yield (f'{{\n        "period": "{text}",\n        "raw_sum": {raw_sum},'
                   f'\n        "shares": {obj}\n      }}')

    def lists(keys: tuple[str, ...], elements) -> None:  # an object of lists, in keys' order
        sep = "{"
        for key in keys:
            write_json(f'{sep}\n    "{key}": ')
            _write_list(write_json, elements(key), "\n    ")
            sep = ","
        write_json("\n  }")

    head = _head_dict(result)

    def member(key: str) -> None:
        text = json.dumps(head[key], indent=2, sort_keys=True).replace("\n", "\n  ")
        write_json(f',\n  "{key}": {text}')

    write_json('{\n  "bias": ')
    _write_list(write_json, biases("bias"), "\n  ")
    member("config")
    write_json(',\n  "core_bias": ')
    _write_list(write_json, biases("core_bias"), "\n  ")
    for key in ("country", "in_lockdown", "periods", "schema"):
        member(key)
    write_json(',\n  "series": ')
    lists(SERIES_NAMES, points)
    member("variant")
    write_json(',\n  "weights": ')
    lists(("official", "adjusted"), vectors)
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
