import csv
import dataclasses
import datetime as dt
import io
import math
import tracemalloc
from array import array
from decimal import Decimal as D

import pytest

from basketflex import analysis, crosswalk, ingest, synth
from basketflex.analysis import ScenarioConfig
from basketflex.errors import (
    BasketflexError,
    ConfigError,
    FixedMonthOutOfRangeError,
    NoOverlappingPeriodsError,
    PeriodNotCoveredError,
    SpecInvalidError,
    UnknownItemError,
)
from basketflex.periods import Month

START = Month(2020, 1)


def load_economy_inputs(economy: synth.SyntheticEconomySpec):
    files = synth.generate(economy)
    weights = ingest.load_weights(io.StringIO(files.weights_csv))
    prices = ingest.load_prices(io.StringIO(files.prices_csv))
    panel = ingest.read_expenditure_panel(io.StringIO(files.expenditures_csv))
    return weights, prices, panel, crosswalk.identity_spec(panel.categories)


def flat_economy(months=15):
    return synth.SyntheticEconomySpec(
        items=(
            synth.SyntheticItem("a", D(1), D(50)),
            synth.SyntheticItem("b", D(1), D(30)),
            synth.SyntheticItem("c", D(1), D(20)),
        ),
        months=months,
        start=START,
        seed=1,
    )


def priced_economy(months=16):
    # price movement but no quantity shocks: official vs adjusted differ only
    # through the price-driven expenditure drift
    return dataclasses.replace(
        flat_economy(months),
        base_drifts={"a": D("1.004"), "b": D("0.996"), "c": D("1.001")},
        shock_windows=(
            synth.ShockWindow(
                Month(2020, 5),
                Month(2020, 7),
                quantity_multipliers={"a": D("1.4"), "b": D("0.6")},
                price_drifts={"b": D("0.99")},
            ),
        ),
    )


BASE = (Month(2020, 1), Month(2020, 2))


def test_identity_panel_reproduces_official_exactly():
    weights, prices, panel, spec = load_economy_inputs(flat_economy())
    result = analysis.run_scenario(ScenarioConfig(base_months=BASE), weights, prices, panel, spec)
    for off, adj in zip(result.official, result.adjusted):
        assert adj.monthly_pct == pytest.approx(off.monthly_pct, abs=1e-12)
        if off.annual_pct is not None:
            assert adj.annual_pct == pytest.approx(off.annual_pct, abs=1e-12)
    assert all(b.monthly_pp == pytest.approx(0.0, abs=1e-12) for b in result.bias)


def test_fixed_weight_at_single_base_month_equals_official():
    weights, prices, panel, spec = load_economy_inputs(priced_economy())
    # generated price factors start one month into the panel; extend them to
    # the base month so the freeze month lies on the scenario axis
    assert all(s.start == START.next() for s in prices.values())
    prices = {
        i: dataclasses.replace(s, start=START, values=array("d", [1.0]) + s.values)
        for i, s in prices.items()
    }
    config = ScenarioConfig(base_months=(START,), fixed_weight_month=START)
    result = analysis.run_scenario(config, weights, prices, panel, spec)
    for off, adj in zip(result.official, result.adjusted):
        assert adj.monthly_pct == pytest.approx(off.monthly_pct, abs=1e-12)
    # whereas the dynamic run genuinely moves away from the official series
    dynamic = analysis.run_scenario(
        ScenarioConfig(base_months=(START,)), weights, prices, panel, spec
    )
    assert any(
        abs(a.monthly_pct - o.monthly_pct) > 1e-6
        for a, o in zip(dynamic.adjusted, dynamic.official)
    )


def test_fixed_weight_requires_month_in_range():
    weights, prices, panel, spec = load_economy_inputs(flat_economy())
    config = ScenarioConfig(base_months=BASE, fixed_weight_month=Month(2030, 1))
    with pytest.raises(FixedMonthOutOfRangeError):
        analysis.run_scenario(config, weights, prices, panel, spec)


def test_weight_paths_are_normalized_every_month():
    weights, prices, panel, spec = load_economy_inputs(priced_economy())
    result = analysis.run_scenario(ScenarioConfig(base_months=BASE), weights, prices, panel, spec)
    for vectors in (result.official_weights, result.adjusted_weights):
        assert len(vectors) == len(result.periods)
        for v in vectors:
            assert abs(math.fsum(v.shares.values()) - 1.0) < 1e-9


def test_adjusted_inflation_stays_in_item_envelope():
    weights, prices, panel, spec = load_economy_inputs(priced_economy())
    result = analysis.run_scenario(ScenarioConfig(base_months=BASE), weights, prices, panel, spec)
    for point in result.adjusted:
        rels = [prices[i].at(point.period) for i in weights.shares]
        lo = (min(rels) - 1.0) * 100.0
        hi = (max(rels) - 1.0) * 100.0
        assert lo - 1e-12 <= point.monthly_pct <= hi + 1e-12


def test_core_series_renormalizes_both_baskets():
    weights, prices, panel, spec = load_economy_inputs(priced_economy())
    config = ScenarioConfig(base_months=BASE, core_exclusions=frozenset({"b"}))
    result = analysis.run_scenario(config, weights, prices, panel, spec)
    point = result.core_official[0]
    assert set(point.contributions) == {"a", "c"}
    # renormalized by hand: a and c keep their relative proportions
    wa, wc = weights.shares["a"], weights.shares["c"]
    rel_a = prices["a"].at(point.period)
    rel_c = prices["c"].at(point.period)
    expect = (wa * (rel_a - 1) + wc * (rel_c - 1)) / (wa + wc) * 100
    assert point.monthly_pct == pytest.approx(expect, abs=1e-12)
    for p in result.core_adjusted:
        assert set(p.contributions) == {"a", "c"}


def test_two_steps_compose_to_run_scenario():
    weights, prices, panel, spec = load_economy_inputs(priced_economy())
    config = ScenarioConfig(base_months=BASE, core_exclusions=frozenset({"b"}))
    relatives = analysis._expenditure_relatives(config, weights, panel, spec)
    assert sorted(relatives) == list(panel.months)
    result = analysis._price_scenario(config, weights, prices, relatives)
    assert relatives == {}  # consumed once the adjusted weights exist
    assert result == analysis.run_scenario(config, weights, prices, panel, spec)


def test_run_scenario_peak_stays_near_its_result():
    # the relatives go once the adjusted weights exist, and the core-adjusted
    # vectors once priced, before the other baskets: the peak was 1.4x the
    # result while all of them lived to the end
    items = tuple(synth.SyntheticItem(f"i{k:02d}", D(1 + k % 5), D(40 + k)) for k in range(40))
    economy = synth.SyntheticEconomySpec(
        items=items, months=24, start=START, seed=9, max_records_per_month=2,
        base_drifts={it.id: D(1) + D(k % 7) / 1000 for k, it in enumerate(items)},
    )
    weights, prices, panel, spec = load_economy_inputs(economy)
    config = ScenarioConfig(base_months=BASE, core_exclusions=frozenset({"i00", "i01", "i02"}))
    analysis.run_scenario(config, weights, prices, panel, spec)  # warm-up
    tracemalloc.start()
    try:
        result = analysis.run_scenario(config, weights, prices, panel, spec)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.periods) == 23  # prices start in the second month
    assert peak < 1.2 * retained, (peak, retained)


def test_unknown_core_exclusion_fails():
    weights, prices, panel, spec = load_economy_inputs(flat_economy())
    config = ScenarioConfig(base_months=BASE, core_exclusions=frozenset({"zz"}))
    with pytest.raises(UnknownItemError):
        analysis.run_scenario(config, weights, prices, panel, spec)


def test_uncovered_item_fails_validation():
    weights, prices, panel, _ = load_economy_inputs(flat_economy())
    spec = crosswalk.identity_spec(["a", "b"])  # no rule for item c
    with pytest.raises(SpecInvalidError):
        analysis.run_scenario(ScenarioConfig(base_months=BASE), weights, prices, panel, spec)


def test_no_overlap_errors():
    weights, prices, panel, spec = load_economy_inputs(flat_economy(months=4))
    shifted = {
        i: dataclasses.replace(s, start=s.start.plus(120))
        for i, s in prices.items()
    }
    with pytest.raises(NoOverlappingPeriodsError):
        analysis.run_scenario(ScenarioConfig(base_months=BASE), weights, shifted, panel, spec)


def test_lockdown_windows_are_annotation_only():
    weights, prices, panel, spec = load_economy_inputs(priced_economy())
    plain = analysis.run_scenario(ScenarioConfig(base_months=BASE), weights, prices, panel, spec)
    shaded = analysis.run_scenario(
        ScenarioConfig(
            base_months=BASE,
            lockdown_windows=((dt.date(2020, 5, 1), dt.date(2020, 7, 31)),),
        ),
        weights,
        prices,
        panel,
        spec,
    )
    assert [p.monthly_pct for p in plain.adjusted] == [
        p.monthly_pct for p in shaded.adjusted
    ]
    assert shaded.config.in_lockdown(Month(2020, 6))
    assert not shaded.config.in_lockdown(Month(2020, 8))


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(base_months=())
    with pytest.raises(ValueError):
        ScenarioConfig(base_months=BASE, annual_method="yearly")
    with pytest.raises(ValueError):
        ScenarioConfig(
            base_months=BASE,
            lockdown_windows=(
                (dt.date(2020, 3, 1), dt.date(2020, 5, 1)),
                (dt.date(2020, 4, 1), dt.date(2020, 6, 1)),
            ),
        )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"base_months": ()},
        {"base_months": (Month(2020, 1), Month(2020, 2), Month(2020, 1))},
        {"base_months": BASE, "annual_method": "yearly"},
        {"base_months": BASE, "lockdown_windows": ((dt.date(2020, 5, 1), dt.date(2020, 3, 1)),)},
    ],
)
def test_config_errors_are_input_errors(kwargs):
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig(**kwargs)
    assert isinstance(exc.value, BasketflexError)


def test_annual_method_fixed_base_differs_but_tracks_chained():
    weights, prices, panel, spec = load_economy_inputs(priced_economy(months=20))
    chained = analysis.run_scenario(ScenarioConfig(base_months=BASE), weights, prices, panel, spec)
    fixed = analysis.run_scenario(
        ScenarioConfig(base_months=BASE, annual_method="fixed_base"),
        weights,
        prices,
        panel,
        spec,
    )
    pairs = [
        (c.annual_pct, f.annual_pct)
        for c, f in zip(chained.adjusted, fixed.adjusted)
        if c.annual_pct is not None
    ]
    assert pairs
    # the two constructions track each other but are not identical: chaining
    # compounds the weighted averages, fixed-base averages the compounds
    assert any(abs(c - f) > 1e-9 for c, f in pairs)
    for chained_pct, fixed_pct in pairs:
        assert fixed_pct == pytest.approx(chained_pct, abs=0.5)


def test_per_day_base_changes_relatives_but_keeps_invariants():
    weights, prices, panel, spec = load_economy_inputs(priced_economy())
    plain = analysis.run_scenario(ScenarioConfig(base_months=BASE), weights, prices, panel, spec)
    per_day = analysis.run_scenario(
        ScenarioConfig(base_months=BASE, per_day_base=True), weights, prices, panel, spec
    )
    # different month lengths shift the relatives, so the paths differ...
    assert any(
        abs(a.shares[i] - b.shares[i]) > 1e-9
        for a, b in zip(plain.adjusted_weights, per_day.adjusted_weights)
        for i in a.shares
    )
    # ...but every vector is still a proper weight vector on the same axis
    assert per_day.periods == plain.periods
    for v in per_day.adjusted_weights:
        assert abs(math.fsum(v.shares.values()) - 1.0) < 1e-9


# --- comparison table ---------------------------------------------------------


def test_compare_identical_scenarios_bias_zero():
    weights, prices, panel, spec = load_economy_inputs(flat_economy())
    config_a = ScenarioConfig(base_months=BASE, country_label="aa")
    config_b = ScenarioConfig(base_months=BASE, country_label="bb")
    results = [
        analysis.run_scenario(config_a, weights, prices, panel, spec),
        analysis.run_scenario(config_b, weights, prices, panel, spec),
    ]
    table = analysis.compare_countries(results, Month(2020, 5))
    assert [r.country for r in table] == ["aa", "bb"]
    assert all(abs(r.monthly_pp) < 1e-12 for r in table)


def test_compare_sorts_most_negative_first_and_signs():
    weights, prices, panel, spec = load_economy_inputs(priced_economy())
    neg = analysis.run_scenario(
        ScenarioConfig(base_months=BASE, country_label="shocked"),
        weights,
        prices,
        panel,
        spec,
    )
    weights_f, prices_f, panel_f, spec_f = load_economy_inputs(flat_economy())
    flat = analysis.run_scenario(
        ScenarioConfig(base_months=BASE, country_label="calm"),
        weights_f,
        prices_f,
        panel_f,
        spec_f,
    )
    table = analysis.compare_countries([flat, neg], Month(2020, 6))
    assert table[0].country == "shocked"
    assert table[0].sign == "negative"
    assert table[0].monthly_pp < 0
    assert table[1].sign == "zero"


def test_compare_empty_and_uncovered():
    assert analysis.compare_countries([], Month(2020, 5)) == []
    weights, prices, panel, spec = load_economy_inputs(flat_economy())
    result = analysis.run_scenario(
        ScenarioConfig(base_months=BASE, country_label="xx"), weights, prices, panel, spec
    )
    with pytest.raises(PeriodNotCoveredError):
        analysis.compare_countries([result], Month(2030, 1))


# --- serialization ------------------------------------------------------------


def test_result_dict_round_trip(dynamic_result):
    doc = analysis.result_to_dict(dynamic_result)
    again = analysis.result_from_dict(doc)
    assert again == dynamic_result


@pytest.mark.parametrize("schema", ["something/else", None])
def test_result_from_dict_rejects_other_schema(dynamic_result, schema):
    doc = analysis.result_to_dict(dynamic_result)
    doc["schema"] = schema
    with pytest.raises(ValueError, match="schema"):
        analysis.result_from_dict(doc)


def test_result_json_is_stable(dynamic_result):
    import json

    doc = analysis.result_to_dict(dynamic_result)
    text = json.dumps(doc, sort_keys=True)
    assert json.dumps(analysis.result_to_dict(dynamic_result), sort_keys=True) == text


def _csv_rows(text_chunks) -> list[list[str]]:
    return list(csv.reader(io.StringIO("".join(text_chunks))))


def test_tidy_rows_shapes(dynamic_result):
    n_periods = len(dynamic_result.periods)
    n_items = len(dynamic_result.official_weights[0].shares)
    n_core = len(dynamic_result.core_official[0].contributions)

    inflation = _csv_rows(analysis.inflation_rows(dynamic_result))
    assert inflation[0] == ["period", "series", "monthly_pct", "annual_pct", "in_lockdown"]
    assert len(inflation) == 1 + 4 * n_periods

    weights = _csv_rows(analysis.weight_rows(dynamic_result))
    assert len(weights) == 1 + 2 * n_periods * n_items

    contributions = _csv_rows(analysis.contribution_rows(dynamic_result))
    assert len(contributions) == 1 + 2 * n_periods * n_items + 2 * n_periods * n_core

    bias = _csv_rows(analysis.bias_rows(dynamic_result))
    assert len(bias) == 1 + 2 * n_periods
    in_lockdown = {
        row[0]: row[4] for row in weights[1:]
    }
    assert in_lockdown["2020-04"] == "1"
    assert in_lockdown["2020-07"] == "0"
