import hashlib
import io
import json
import math
from decimal import Decimal as D
from fractions import Fraction

import pytest

from basketflex import crosswalk, ingest, synth
from basketflex.core import adjusted_weights
from basketflex.errors import InvalidEconomySpecError, MonthOutOfRangeError
from basketflex.periods import Month

START = Month(2020, 1)


def flat_economy(n_items=3, months=4, seed=0):
    return synth.SyntheticEconomySpec(
        items=tuple(
            synth.SyntheticItem(f"i{k}", D(1), D(10 * (k + 1))) for k in range(n_items)
        ),
        months=months,
        start=START,
        seed=seed,
    )


def shock_economy():
    # base spending 50/30/20; month 3 halves B and boosts C by half
    return synth.SyntheticEconomySpec(
        items=(
            synth.SyntheticItem("A", D(1), D(50)),
            synth.SyntheticItem("B", D(1), D(30)),
            synth.SyntheticItem("C", D(1), D(20)),
        ),
        months=4,
        start=START,
        shock_windows=(
            synth.ShockWindow(
                Month(2020, 3),
                Month(2020, 3),
                quantity_multipliers={"B": D("0.5"), "C": D("1.5")},
            ),
        ),
        seed=3,
    )


def run_pipeline(files: synth.GeneratedFiles, base_months):
    weights = ingest.load_weights(io.StringIO(files.weights_csv))
    panel = ingest.read_expenditure_panel(io.StringIO(files.expenditures_csv))
    base = ingest.base_period(panel, base_months)
    spec = crosswalk.identity_spec(panel.categories)
    return weights, crosswalk.apply(spec, panel, base)


def test_flat_economy_relatives_are_one_after_ingestion():
    economy = flat_economy()
    _, rels = run_pipeline(synth.generate(economy), economy.horizon()[:2])
    for month in economy.horizon():
        assert all(v == 1.0 for v in rels[month].relatives.values())


def test_quantity_halving_shows_up_as_half_relative():
    economy = synth.SyntheticEconomySpec(
        items=tuple(synth.SyntheticItem(i, D(1), D(10)) for i in "ABC"),
        months=4,
        start=START,
        shock_windows=(
            synth.ShockWindow(
                Month(2020, 3), Month(2020, 3), quantity_multipliers={"B": D("0.5")}
            ),
        ),
    )
    _, rels = run_pipeline(synth.generate(economy), economy.horizon()[:2])
    assert rels[Month(2020, 3)].relatives == {"A": 1.0, "B": 0.5, "C": 1.0}


def test_oracle_worked_example():
    # independent expectation from exact rational spending shares
    month3 = {"A": Fraction(50), "B": Fraction(15), "C": Fraction(30)}
    total = sum(month3.values())
    expect = {i: float(v / total) for i, v in month3.items()}
    assert expect["A"] == pytest.approx(0.5263, abs=1e-4)

    oracle = synth.oracle_adjusted_weights(shock_economy(), Month(2020, 3))
    for item in expect:
        assert oracle.shares[item] == pytest.approx(expect[item], abs=1e-10)


def test_oracle_flat_economy_returns_base_shares_every_month():
    economy = flat_economy()
    for month in economy.horizon():
        assert synth.oracle_adjusted_weights(economy, month).shares == {
            "i0": pytest.approx(1 / 6),
            "i1": pytest.approx(2 / 6),
            "i2": pytest.approx(3 / 6),
        }


def test_oracle_single_item_economy():
    economy = synth.SyntheticEconomySpec(
        items=(synth.SyntheticItem("only", D(2), D(5)),), months=3, start=START
    )
    assert synth.oracle_adjusted_weights(economy, Month(2020, 2)).shares == {"only": 1.0}


def test_oracle_month_out_of_range():
    with pytest.raises(MonthOutOfRangeError):
        synth.oracle_adjusted_weights(flat_economy(months=3), Month(2021, 1))


def test_same_seed_is_byte_identical():
    a = synth.generate(shock_economy())
    b = synth.generate(shock_economy())
    assert a == b


def test_partition_choice_does_not_change_monthly_totals():
    # the seed only drives how months split into records; totals and hence
    # pipeline weights are identical for any seed
    economy = shock_economy()
    import dataclasses

    other = dataclasses.replace(economy, seed=999)
    files_a, files_b = synth.generate(economy), synth.generate(other)
    assert files_a.expenditures_csv != files_b.expenditures_csv
    panel_a = ingest.read_expenditure_panel(io.StringIO(files_a.expenditures_csv))
    panel_b = ingest.read_expenditure_panel(io.StringIO(files_b.expenditures_csv))
    assert panel_a == panel_b


def test_generated_weights_match_pipeline_end_to_end():
    economy = shock_economy()
    weights, rels = run_pipeline(synth.generate(economy), economy.horizon()[:2])
    for month in economy.horizon():
        adj = adjusted_weights(weights, rels[month])
        oracle = synth.oracle_adjusted_weights(economy, month)
        assert max(abs(adj.shares[i] - oracle.shares[i]) for i in adj.shares) < 1e-10


def test_category_split_conserves_spending():
    economy = synth.SyntheticEconomySpec(
        items=(
            synth.SyntheticItem(
                "x",
                D("1.37"),
                D("7.77"),
                categories=(("left", D("0.61")), ("right", D("0.39"))),
            ),
        ),
        months=3,
        start=START,
        seed=5,
    )
    files = synth.generate(economy)
    panel = ingest.read_expenditure_panel(io.StringIO(files.expenditures_csv))
    spend = synth.monthly_spend(economy)["x"]
    for month in economy.horizon():
        left = panel.total("left", month)
        right = panel.total("right", month)
        assert left + right == spend[month]


@pytest.mark.parametrize(
    "mutate",
    [
        dict(months=1),
        dict(base_months=0),
        dict(items=()),
    ],
)
def test_invalid_spec_scalars(mutate):
    import dataclasses

    with pytest.raises(InvalidEconomySpecError):
        dataclasses.replace(flat_economy(), **mutate).validate()


def test_invalid_spec_values():
    with pytest.raises(InvalidEconomySpecError):
        synth.SyntheticEconomySpec(
            items=(synth.SyntheticItem("a", D(0), D(1)),), months=3
        ).validate()
    with pytest.raises(InvalidEconomySpecError):
        synth.SyntheticEconomySpec(
            items=(synth.SyntheticItem("a", D(1), D(1)),),
            months=5,
            shock_windows=(
                synth.ShockWindow(
                    Month(2020, 2), Month(2020, 3), quantity_multipliers={"a": D(0)}
                ),
            ),
        ).validate()
    with pytest.raises(InvalidEconomySpecError):
        synth.SyntheticEconomySpec(
            items=(
                synth.SyntheticItem("a", D(1), D(1), categories=(("c", D("0.5")),)),
            ),
            months=3,
        ).validate()


def test_overlapping_shock_windows_rejected():
    with pytest.raises(InvalidEconomySpecError):
        synth.SyntheticEconomySpec(
            items=(synth.SyntheticItem("a", D(1), D(1)),),
            months=6,
            shock_windows=(
                synth.ShockWindow(Month(2020, 2), Month(2020, 4)),
                synth.ShockWindow(Month(2020, 4), Month(2020, 5)),
            ),
        ).validate()


def test_economy_json_round_trip(example_dir):
    economy = synth.load_economy(example_dir / "economy.json")
    assert economy.months == 18
    assert economy.start == Month(2020, 1)
    files = synth.generate(economy)
    assert files.weights_csv.startswith("item,weight\n")
    assert (example_dir / "weights.csv").read_text() == files.weights_csv
    assert (example_dir / "prices.csv").read_text() == files.prices_csv
    assert (example_dir / "expenditures.csv").read_text() == files.expenditures_csv


def test_parse_economy_rejects_garbage():
    with pytest.raises(InvalidEconomySpecError):
        synth.parse_economy("not json at all {")
    with pytest.raises(InvalidEconomySpecError):
        synth.parse_economy('{"months": 5}')
    with pytest.raises(InvalidEconomySpecError):
        synth.parse_economy(
            '{"months": 5, "items": [{"id": "a", "base_price": "zero"}]}'
        )


def golden_economy():
    """Twelve items over 26 months that reach every branch of the generator.

    Items split across two and three categories; one item is unobserved;
    ``stamps`` spends three cents a month, so its category parts fall below
    one and each gets a single record; a shock window carries multipliers
    and drifts; the record cap of 31 exceeds both Februaries' day counts.
    """
    plain = tuple(
        synth.SyntheticItem(f"g{k}", D(100 + 37 * k) / 100, D(10 + 13 * k)) for k in range(8)
    )
    return synth.SyntheticEconomySpec(
        items=(
            synth.SyntheticItem("bread", D("2.35"), D(40),
                                categories=(("bakery", D("0.6")), ("grocery", D("0.4")))),
            synth.SyntheticItem("transit", D("1.8"), D(55), categories=(
                ("bus", D("0.5")), ("rail", D("0.3")), ("taxi", D("0.2")))),
            synth.SyntheticItem("stamps", D("0.01"), D(3),
                                categories=(("post-a", D("0.5")), ("post-b", D("0.5")))),
            synth.SyntheticItem("rent", D(900), D(1), categories=()),
            *plain,
        ),
        months=26,
        start=START,
        base_months=3,
        shock_windows=(
            synth.ShockWindow(
                Month(2020, 3), Month(2020, 6),
                quantity_multipliers={"bread": D("1.3"), "transit": D("0.4"), "g1": D("0.7")},
                price_drifts={"bread": D("1.004"), "g2": D("0.995"), "stamps": D("1.05")},
            ),
        ),
        base_drifts={"g0": D("1.001"), "rent": D("1.003"), "transit": D("0.9995")},
        seed=20240229,
        max_records_per_month=31,
    )


# SHA-256 of the three generated files. Any change to the random draws, their
# order, the decimal splits or the record order fails here.
GOLDEN_SHA256 = {
    "weights_csv": "8456d8e88199e97166ffe8f091061dddebda220fb6c03ede868f3f2147607e27",
    "prices_csv": "5f4da48de8e83be8b1fe84fa5a52d4d37aec0e866a1933484cd61f7c14f2677f",
    "expenditures_csv": "26dd56dc4c836ca6573488452c9a4e4966218274d3f6604a4c477a3cf7f42943",
}


def test_generate_matches_golden_hashes():
    economy = golden_economy()
    files = synth.generate(economy)
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256(getattr(files, name).encode()).hexdigest() == digest, name
    # the spec reaches the branches it is meant to
    ledger = files.expenditures_csv.splitlines()[1:]
    stamps = [r for r in ledger if ",post-a," in r]
    assert len(stamps) == economy.months
    feb = [r for r in ledger if r.startswith("2021-02-") and ",g7," in r]
    assert 1 <= len(feb) <= 28


@pytest.mark.parametrize("mutate, message", [
    (dict(months=10**9), "months must lie in 2..1200"),
    (dict(months=1201), "months must lie in 2..1200"),
    (dict(max_records_per_month=0), "max_records_per_month"),
    (dict(max_records_per_month=-3), "max_records_per_month"),
    (dict(start=Month(9999, 1), months=13), "0001..9999"),
    (dict(start=Month(0, 12), months=2), "0001..9999"),
    (dict(months=2.5), "months must be an integer"),
    (dict(seed="7"), "seed must be an integer"),
])
def test_size_caps_refuse_before_allocating(mutate, message):
    import dataclasses

    economy = dataclasses.replace(flat_economy(), **mutate)
    with pytest.raises(InvalidEconomySpecError, match=message):
        synth.generate(economy)
    with pytest.raises(InvalidEconomySpecError, match=message):
        synth.oracle_adjusted_weights(economy, START)


def test_size_caps_admit_their_limits():
    import dataclasses

    economy = dataclasses.replace(
        flat_economy(n_items=1), months=synth.MAX_MONTHS, start=Month(9900, 1),
        max_records_per_month=1,
    )
    ledger = synth.generate(economy).expenditures_csv.splitlines()
    assert len(ledger) == 1 + synth.MAX_MONTHS
    assert ledger[-1].startswith("9999-12-")


def test_magnitude_bounds_admit_their_limits():
    import dataclasses

    big, small = D(10) ** synth.MAGNITUDE, D(10) ** -synth.MAGNITUDE
    steps = 12
    drift = D(10) ** (D(synth.MAGNITUDE) / steps)  # just under 1e60 once compounded
    economy = dataclasses.replace(
        flat_economy(n_items=2, months=steps + 1),
        items=(synth.SyntheticItem("i0", big * D("0.999"), small),
               synth.SyntheticItem("i1", small, D(1))),
        base_drifts={"i0": 1 / drift, "i1": drift},
    )
    weights = synth.oracle_adjusted_weights(economy, economy.horizon()[-1])
    assert all(math.isfinite(w) and w > 0 for w in weights.shares.values())
    for bad in (
        {"items": (synth.SyntheticItem("i0", big, D(1)),)},
        {"items": (synth.SyntheticItem("i0", D(1), small / 10),)},
        {"base_drifts": {"i0": drift * D("1.0001")}},
    ):
        with pytest.raises(InvalidEconomySpecError, match="must lie within"):
            dataclasses.replace(economy, **bad).validate()


@pytest.mark.parametrize("field, value", [
    ("months", 2.7), ("months", "18"), ("months", True), ("months", 1e9),
    ("base_months", 1.0), ("seed", 1.5), ("seed", "7"), ("seed", False),
    ("max_records_per_month", 5.0), ("max_records_per_month", None),
])
def test_parse_economy_requires_integers(example_dir, field, value):
    doc = json.loads((example_dir / "economy.json").read_text())
    doc[field] = value
    with pytest.raises(InvalidEconomySpecError, match=f"{field} must be an integer"):
        synth.parse_economy(json.dumps(doc))


def test_parse_economy_rejects_unconvertible_json():
    with pytest.raises(InvalidEconomySpecError, match="not valid JSON"):
        synth.parse_economy('{"items": [], "months": 1' + "0" * 5000 + "}")
    with pytest.raises(InvalidEconomySpecError, match="not valid JSON"):
        synth.parse_economy("[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("number", ["1_0", "١٢"])
def test_economy_decimals_take_only_plain_ascii(number):
    text = json.dumps({"items": [{"id": "a", "base_price": number}], "months": 3})
    with pytest.raises(InvalidEconomySpecError) as exc:
        synth.parse_economy(text)
    assert exc.value.field == "items[0].base_price"
    assert synth.parse_economy(text.replace(json.dumps(number), '"10"')).items[0].base_price == 10
