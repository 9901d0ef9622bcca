"""Acceptance suite: one test per release criterion, at pinned tolerances.

Real transaction data is proprietary, so the exit bar is built from property
suites, agreement with a definitional oracle on synthetic economies, and
sign-level reproduction of the qualitative lockdown findings on the bundled
scenario. Each test prints one pass line; run with ``pytest -v`` (or ``-s``)
to see them.
"""

import io
import random
import time
from decimal import Decimal as D

import pytest

from basketflex import crosswalk, ingest, synth
from basketflex.core import (
    ExpenditureRelativeVector,
    PriceRelativeSeries,
    adjusted_weights,
    monthly_inflation,
    normalize_weights,
    weighting_bias,
)
from basketflex.periods import Month, month_range

from conftest import panel_of, run_cli

M = Month(2020, 3)


def report(name: str) -> None:
    print(f"[acceptance] {name}: PASS")


def random_weights(rng: random.Random, n_items: int):
    return normalize_weights(
        {f"i{k}": rng.uniform(0.1, 10.0) for k in range(n_items)}
    )


def rel_vec(relatives, period=M):
    return ExpenditureRelativeVector(period=period, relatives=relatives)


def price_table(by_item, period=M):
    return {
        i: PriceRelativeSeries.from_mapping(i, {period: r}) for i, r in by_item.items()
    }


# --- 1: identity suite -------------------------------------------------------


def test_identity_suite_runs_under_one_second():
    rng = random.Random(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        w = random_weights(rng, rng.randint(3, 25))
        adj = adjusted_weights(w, rel_vec({i: 1.0 for i in w.shares}))
        worst = max(worst, max(abs(adj.shares[i] - w.shares[i]) for i in w.shares))
        prices = price_table({i: rng.uniform(0.9, 1.1) for i in w.shares})
        (bias,) = weighting_bias(
            [monthly_inflation(w, prices, M)], [monthly_inflation(adj, prices, M)]
        )
        worst = max(worst, abs(bias.monthly_pp))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12, f"identity deviation {worst}"
    assert elapsed < 1.0, f"identity suite took {elapsed:.2f}s"
    report(f"identity suite (100 baskets, worst {worst:.2e}, {elapsed:.2f}s)")


# --- 2: oracle equivalence ---------------------------------------------------


def random_economy(rng: random.Random) -> synth.SyntheticEconomySpec:
    n_items = rng.randint(2, 10)
    months = rng.randint(3, 24)
    windows = []
    if months >= 5 and rng.random() < 0.8:
        s = rng.randint(3, months - 1)
        e = rng.randint(s, months - 1)
        windows.append(
            synth.ShockWindow(
                Month(2020, 1).plus(s - 1),
                Month(2020, 1).plus(e - 1),
                quantity_multipliers={
                    f"i{k}": D(rng.randint(10, 300)) / 100
                    for k in range(n_items)
                    if rng.random() < 0.7
                },
                price_drifts={
                    f"i{k}": D(rng.randint(90, 110)) / 100
                    for k in range(n_items)
                    if rng.random() < 0.5
                },
            )
        )
    return synth.SyntheticEconomySpec(
        items=tuple(
            synth.SyntheticItem(
                f"i{k}",
                base_price=D(rng.randint(1, 50)) / 10,
                base_quantity=D(rng.randint(5, 500)),
            )
            for k in range(n_items)
        ),
        months=months,
        base_months=rng.randint(1, 2),
        shock_windows=tuple(windows),
        base_drifts={
            f"i{k}": D(rng.randint(995, 1005)) / 1000
            for k in range(n_items)
            if rng.random() < 0.5
        },
        seed=rng.randint(0, 10**6),
        max_records_per_month=3,
    )


def test_oracle_equivalence_200_random_economies(tmp_path):
    rng = random.Random(2020)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        economy = random_economy(rng)
        files = synth.generate(economy)
        weights = ingest.load_weights(io.StringIO(files.weights_csv))
        ledger = tmp_path / "expenditures.csv"
        ledger.write_text(files.expenditures_csv, newline="")
        panel = ingest.read_expenditure_panel(ledger)
        # the row reader, which `run` takes for what the block reader declines,
        # must give the same panel
        streamed = ingest.read_expenditure_panel(io.StringIO(files.expenditures_csv))
        assert streamed == panel
        spend = synth.monthly_spend(economy)
        for p in (panel, streamed):
            base = ingest.base_period(p, economy.horizon()[: economy.base_months])
            rels = crosswalk.apply(crosswalk.identity_spec(p.categories), p, base)
            for month in economy.horizon():
                via_pipeline = adjusted_weights(weights, rels[month])
                direct = normalize_weights(
                    {i: float(path[month]) for i, path in spend.items()}
                )
                worst = max(
                    worst,
                    max(
                        abs(via_pipeline.shares[i] - direct.shares[i])
                        for i in direct.shares
                    ),
                )
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10, f"pipeline/oracle gap {worst}"
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.2f}s"
    report(f"oracle equivalence (200 economies, worst {worst:.2e}, {elapsed:.2f}s)")


# --- 3: reweighting worked example --------------------------------------------


def test_reweighting_worked_example():
    official = normalize_weights({"A": 0.5, "B": 0.3, "C": 0.2})
    out = adjusted_weights(official, rel_vec({"A": 1.0, "B": 0.5, "C": 1.5}))
    assert out.shares["A"] == pytest.approx(0.5263, abs=1e-4)
    assert out.shares["B"] == pytest.approx(0.1579, abs=1e-4)
    assert out.shares["C"] == pytest.approx(0.3158, abs=1e-4)
    report("reweighting worked example (+-1e-4)")


# --- 4: homogeneity and monotonicity, 1000 cases each --------------------------


def test_homogeneity_1000_cases():
    rng = random.Random(303)
    worst = 0.0
    for _ in range(1000):
        w = random_weights(rng, rng.randint(3, 25))
        de = {i: rng.uniform(0.1, 10.0) for i in w.shares}
        lam = 10 ** rng.uniform(-2, 2)
        a = adjusted_weights(w, rel_vec(de))
        b = adjusted_weights(w, rel_vec({i: lam * v for i, v in de.items()}))
        worst = max(worst, max(abs(a.shares[i] - b.shares[i]) for i in w.shares))
    assert worst < 1e-12, f"homogeneity deviation {worst}"
    report(f"homogeneity (1000 cases, worst {worst:.2e})")


def test_monotonicity_1000_cases():
    rng = random.Random(304)
    for _ in range(1000):
        w = random_weights(rng, rng.randint(3, 25))
        de = {i: rng.uniform(0.1, 10.0) for i in w.shares}
        target = rng.choice(sorted(w.shares))
        bumped = dict(de)
        bumped[target] *= rng.uniform(1.1, 5.0)
        a = adjusted_weights(w, rel_vec(de))
        b = adjusted_weights(w, rel_vec(bumped))
        assert b.shares[target] > a.shares[target]
        assert all(
            b.shares[other] < a.shares[other]
            for other in w.shares
            if other != target
        )
    report("monotonicity (1000 cases)")


# --- 5: convexity envelope -----------------------------------------------------


def test_convexity_envelope_1000_cases():
    rng = random.Random(305)
    for _ in range(1000):
        w = random_weights(rng, rng.randint(3, 25))
        adj = adjusted_weights(
            w, rel_vec({i: rng.uniform(0.1, 10.0) for i in w.shares})
        )
        relatives = {i: rng.uniform(0.5, 1.5) for i in w.shares}
        point = monthly_inflation(adj, price_table(relatives), M)
        lo = (min(relatives.values()) - 1.0) * 100.0
        hi = (max(relatives.values()) - 1.0) * 100.0
        assert lo - 1e-12 <= point.monthly_pct <= hi + 1e-12
    report("convexity envelope (1000 cases)")


# --- 6: crosswalk conservation ---------------------------------------------------


def test_crosswalk_conservation_exact(israel_spec):
    rng = random.Random(306)
    pools = crosswalk.item_pools(israel_spec)
    consumed = sorted({c for cats in pools.values() for c in cats})
    months = month_range(Month(2020, 1), Month(2020, 6))
    for _ in range(50):
        totals = {
            (c, m): D(rng.randint(0, 10**8)) / 100 for c in consumed for m in months
        }
        panel = panel_of(totals)
        for m in months:
            pooled = sum(
                (panel.total(c, m) for cats in pools.values() for c in cats), D(0)
            )
            direct = sum((panel.total(c, m) for c in consumed), D(0))
            assert pooled == direct  # exact decimal equality
    report("crosswalk conservation (50 random panels, exact)")


# --- 7-9: bundled lockdown scenario ---------------------------------------------


def lockdown_partition(result):
    config = result.config
    shock = [m for m in result.periods if config.in_lockdown(m)]
    calm = [m for m in result.periods if not config.in_lockdown(m)]
    assert shock and calm
    return shock, calm


def window_months(result):
    months = []
    for start, end in result.config.lockdown_windows:
        months.append(
            [m for m in result.periods if start <= m.last_day() and end >= m.first_day()]
        )
    return months


def test_housing_weight_spikes_in_lockdowns_and_reverts(dynamic_result):
    gaps = {
        off.period: adj.shares["housing"] - off.shares["housing"]
        for off, adj in zip(
            dynamic_result.official_weights, dynamic_result.adjusted_weights
        )
    }
    shock, calm = lockdown_partition(dynamic_result)
    assert all(gaps[m] > 0 for m in shock), "housing weight must rise under lockdown"

    windows = window_months(dynamic_result)
    for k, months_in in enumerate(windows):
        after_start = months_in[-1]
        next_start = windows[k + 1][0] if k + 1 < len(windows) else None
        post = [
            m
            for m in dynamic_result.periods
            if m > after_start and (next_start is None or m < next_start)
        ]
        if not post:
            continue
        assert max(gaps[m] for m in post) < min(gaps[m] for m in months_in)
    assert max(gaps[m] for m in calm) < min(gaps[m] for m in shock)
    report("housing weight path: above official in lockdowns, reverting after")


def test_official_understates_inflation_during_lockdowns(dynamic_result):
    shock, _ = lockdown_partition(dynamic_result)
    by_period = {b.period: b for b in dynamic_result.bias}
    assert all(by_period[m].monthly_pp < 0 for m in shock)
    report("lockdown months: official monthly rate below adjusted (negative bias)")


def test_frozen_april_weights_give_same_bias_signs(dynamic_result, fixed_april_result):
    shock, _ = lockdown_partition(dynamic_result)
    dyn = {b.period: b.monthly_pp for b in dynamic_result.bias}
    fixed = {b.period: b.monthly_pp for b in fixed_april_result.bias}
    assert all((fixed[m] < 0) == (dyn[m] < 0) for m in shock)
    report("frozen-April robustness: same bias sign in every lockdown month")


# --- 10: CLI determinism ----------------------------------------------------------


def test_cli_runs_are_byte_identical(example_dir, tmp_path):
    manifest = str(example_dir / "manifest.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        proc = run_cli("run", "--manifest", manifest, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b and len(names_a) == 5
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    report("CLI determinism: two runs, byte-identical output trees")
