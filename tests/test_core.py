import math
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketflex.core import (
    ExpenditureRelativeVector,
    InflationPoint,
    PriceRelativeSeries,
    WeightVector,
    adjusted_weights,
    chain_annual,
    exclude_items,
    fixed_base_annual,
    monthly_inflation,
    normalize_weights,
    weighting_bias,
)
from basketflex.errors import (
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
from basketflex.periods import Month

M = Month(2020, 3)


def rel_vec(relatives, period=M):
    return ExpenditureRelativeVector(period=period, relatives=relatives)


def price_table(by_item, period=M):
    return {
        item: PriceRelativeSeries.from_mapping(item, {period: rel})
        for item, rel in by_item.items()
    }


# --- normalize_weights ------------------------------------------------------


def test_normalize_symmetric_pair():
    w = normalize_weights({"A": 2, "B": 2})
    assert w.shares == {"A": 0.5, "B": 0.5}
    assert w.raw_sum == 4


def test_normalize_single_item():
    assert normalize_weights({"A": 1}).shares == {"A": 1.0}


def test_normalize_hand_example():
    # independent oracle: exact rational arithmetic
    expect = {
        "A": Fraction(40, 100) / Fraction(65, 100),
        "B": Fraction(25, 100) / Fraction(65, 100),
    }
    w = normalize_weights({"A": 0.4, "B": 0.25})
    assert w.shares["A"] == pytest.approx(float(expect["A"]), abs=1e-4)
    assert w.shares["B"] == pytest.approx(float(expect["B"]), abs=1e-4)
    assert w.shares["A"] == pytest.approx(0.6154, abs=1e-4)
    assert w.shares["B"] == pytest.approx(0.3846, abs=1e-4)


def test_normalize_output_sums_to_one_tightly():
    w = normalize_weights({"A": 0.123, "B": 7.7, "C": 3.3e-4})
    assert abs(math.fsum(w.shares.values()) - 1.0) < 1e-12


def test_normalize_errors():
    with pytest.raises(EmptyInputError):
        normalize_weights({})
    with pytest.raises(NegativeWeightError) as exc:
        normalize_weights({"A": 1.0, "B": -0.1})
    assert exc.value.item == "B"
    with pytest.raises(ZeroTotalError):
        normalize_weights({"A": 0.0, "B": 0.0})


def test_weight_vector_rejects_unnormalized_direct_construction():
    with pytest.raises(ValueError):
        WeightVector(shares={"A": 0.7, "B": 0.7})
    # a nan share makes the sum nan, which no tolerance check refuses
    for shares in ({"A": math.nan}, {"A": 1.0, "B": math.nan}, {"A": 1.0, "B": -math.inf}):
        with pytest.raises(ValueError, match="non-finite weight for item"):
            WeightVector(shares=shares)


# --- adjusted_weights -------------------------------------------------------

OFFICIAL = normalize_weights({"A": 0.5, "B": 0.3, "C": 0.2})


def test_adjusted_identity_when_expenditures_unchanged():
    out = adjusted_weights(OFFICIAL, rel_vec({"A": 1.0, "B": 1.0, "C": 1.0}))
    for item in OFFICIAL.shares:
        assert out.shares[item] == pytest.approx(OFFICIAL.shares[item], abs=1e-12)
    assert out.period == M


def test_adjusted_worked_example():
    # independent oracle: exact rational evaluation of the reweighting
    off = {"A": Fraction(1, 2), "B": Fraction(3, 10), "C": Fraction(1, 5)}
    de = {"A": Fraction(1), "B": Fraction(1, 2), "C": Fraction(3, 2)}
    denom = sum(off[i] * de[i] for i in off)
    assert denom == Fraction(19, 20)  # 0.95
    expect = {i: float(off[i] * de[i] / denom) for i in off}

    out = adjusted_weights(OFFICIAL, rel_vec({"A": 1.0, "B": 0.5, "C": 1.5}))
    for item in expect:
        assert out.shares[item] == pytest.approx(expect[item], abs=1e-12)
    assert out.shares["A"] == pytest.approx(0.5263, abs=1e-4)
    assert out.shares["B"] == pytest.approx(0.1579, abs=1e-4)
    assert out.shares["C"] == pytest.approx(0.3158, abs=1e-4)


def test_adjusted_scale_invariance_worked_pair():
    a = adjusted_weights(OFFICIAL, rel_vec({"A": 2.0, "B": 1.0, "C": 3.0}))
    b = adjusted_weights(OFFICIAL, rel_vec({"A": 4.0, "B": 2.0, "C": 6.0}))
    for item in a.shares:
        assert a.shares[item] == pytest.approx(b.shares[item], abs=1e-12)


def test_adjusted_item_set_mismatch():
    with pytest.raises(ItemSetMismatchError) as exc:
        adjusted_weights(OFFICIAL, rel_vec({"A": 1.0, "B": 1.0, "D": 1.0}))
    assert exc.value.missing == ("C",)
    assert exc.value.extra == ("D",)


def test_relative_vector_rejects_nonpositive():
    with pytest.raises(NonPositiveRelativeError):
        rel_vec({"A": 1.0, "B": 0.0})
    with pytest.raises(NonPositiveRelativeError):
        rel_vec({"A": -0.5})
    for value in (math.inf, math.nan):
        with pytest.raises(NonPositiveRelativeError, match="must be a finite number > 0"):
            rel_vec({"A": value})


# --- monthly_inflation ------------------------------------------------------


def test_monthly_inflation_hand_example():
    point = monthly_inflation(OFFICIAL, price_table({"A": 1.01, "B": 0.98, "C": 1.02}), M)
    assert point.contributions["A"] == pytest.approx(0.50, abs=1e-9)
    assert point.contributions["B"] == pytest.approx(-0.60, abs=1e-9)
    assert point.contributions["C"] == pytest.approx(0.40, abs=1e-9)
    assert point.monthly_pct == pytest.approx(0.30, abs=1e-9)


def test_monthly_inflation_adjusted_pairing():
    adjusted = adjusted_weights(OFFICIAL, rel_vec({"A": 1.0, "B": 0.5, "C": 1.5}))
    point = monthly_inflation(adjusted, price_table({"A": 1.01, "B": 0.98, "C": 1.02}), M)
    assert point.monthly_pct == pytest.approx(0.8421, abs=1e-3)


def test_monthly_inflation_no_price_change():
    point = monthly_inflation(OFFICIAL, price_table({"A": 1.0, "B": 1.0, "C": 1.0}), M)
    assert point.monthly_pct == 0.0
    assert all(c == 0.0 for c in point.contributions.values())


def test_monthly_inflation_missing_relative():
    with pytest.raises(MissingPriceRelativeError) as exc:
        monthly_inflation(OFFICIAL, price_table({"A": 1.01, "B": 0.98}), M)
    assert exc.value.item == "C"
    assert exc.value.period == M


def test_monthly_inflation_extra_series_at_period():
    with pytest.raises(ItemSetMismatchError):
        monthly_inflation(
            OFFICIAL, price_table({"A": 1.0, "B": 1.0, "C": 1.0, "D": 1.0}), M
        )


def test_price_series_invariants():
    with pytest.raises(GapInSeriesError):
        PriceRelativeSeries.from_mapping("A", {Month(2020, 1): 1.0, Month(2020, 3): 1.0})
    with pytest.raises(NonPositivePriceError):
        PriceRelativeSeries("A", Month(2020, 1), array("d", [0.0]))


def test_price_series_from_mapping_sorts_and_packs():
    series = PriceRelativeSeries.from_mapping("A", {Month(2020, 3): 1.3, Month(2020, 1): 1.1,
                                                    Month(2020, 2): 1.2})
    assert (series.start, series.end) == (Month(2020, 1), Month(2020, 3))
    assert series.values == array("d", [1.1, 1.2, 1.3])
    assert [series.at(Month(2020, m)) for m in range(1, 5)] == [1.1, 1.2, 1.3, None]
    assert series.at(Month(2019, 12)) is None


def test_price_series_refuses_a_gap_and_an_empty_series():
    with pytest.raises(GapInSeriesError, match="'A'"):
        PriceRelativeSeries.from_mapping("A", {Month(2020, 1): 1.0, Month(2020, 12): 1.0})
    with pytest.raises(EmptyInputError, match="'A'"):
        PriceRelativeSeries.from_mapping("A", {})
    with pytest.raises(EmptyInputError, match="'A'"):
        PriceRelativeSeries("A", Month(2020, 1), array("d"))


@pytest.mark.parametrize("bad", [0.0, -0.5, math.inf, -math.inf, math.nan])
def test_price_series_names_the_item_and_month_of_a_bad_factor(bad):
    for build in (
        lambda: PriceRelativeSeries("A", Month(2020, 11), array("d", [1.0, 1.0, bad, 1.0])),
        lambda: PriceRelativeSeries.from_mapping(
            "A", {Month(2020, 11).plus(k): v for k, v in enumerate([1.0, 1.0, bad])}),
    ):
        with pytest.raises(NonPositivePriceError) as exc:
            build()
        assert (exc.value.item, exc.value.period) == ("A", Month(2021, 1))


# --- chain_annual -----------------------------------------------------------


def flat_series(monthly_pct, n, start=Month(2020, 1)):
    return [
        InflationPoint(period=start.plus(i), monthly_pct=monthly_pct) for i in range(n)
    ]


def test_chain_twelve_months_of_zero():
    out = chain_annual(flat_series(0.0, 12))
    assert out[-1].annual_pct == pytest.approx(0.0, abs=1e-12)


def test_chain_twelve_months_of_one_percent():
    out = chain_annual(flat_series(1.0, 12))
    assert out[-1].annual_pct == pytest.approx(12.6825, abs=1e-3)
    assert out[-1].annual_pct == pytest.approx((1.01**12 - 1) * 100, abs=1e-10)


def test_chain_needs_twelve_months():
    out = chain_annual(flat_series(1.0, 11))
    assert all(p.annual_pct is None for p in out)
    out = chain_annual(flat_series(1.0, 14))
    assert [p.annual_pct is None for p in out] == [True] * 11 + [False] * 3


def test_chain_rejects_gaps():
    pts = flat_series(1.0, 3)
    pts[2] = InflationPoint(period=Month(2021, 1), monthly_pct=1.0)
    with pytest.raises(GapInSeriesError):
        chain_annual(pts)


def test_fixed_base_annual_matches_chaining_for_uniform_inflation():
    # with one item both constructions compound the same twelve factors
    weights = normalize_weights({"A": 1.0})
    months = {Month(2020, 1).plus(i): 1.01 for i in range(12)}
    prices = {"A": PriceRelativeSeries.from_mapping("A", months)}
    got = fixed_base_annual(weights, prices, Month(2020, 12))
    assert got == pytest.approx((1.01**12 - 1) * 100, abs=1e-10)


def month_stepping_fixed_base_annual(weights, prices, period):
    """Reference: looks up each of the twelve months by stepping back from
    ``period``, multiplying the factors in chronological order; the terms
    are summed exactly rounded."""
    terms = []
    for item, w in weights.shares.items():
        series = prices.get(item)
        factor = 1.0
        for k in range(11, -1, -1):
            m = period.plus(-k)
            rel = series.at(m) if series is not None else None
            if rel is None:
                raise MissingPriceRelativeError(item, m)
            factor *= rel
        terms.append(w * (factor - 1.0) * 100.0)
    return math.fsum(terms)


def _outcome(fn, weights, prices, period):
    try:
        return fn(weights, prices, period)
    except MissingPriceRelativeError as exc:
        return ("missing", exc.item, exc.period)


_relative = st.floats(0.5, 1.5, exclude_min=True, exclude_max=True)
_series_shape = st.tuples(
    st.integers(0, 30),  # start offset from 2019-01
    st.lists(_relative, min_size=12, max_size=40),
)


@settings(max_examples=80, deadline=None)
@given(
    shapes=st.lists(_series_shape, min_size=1, max_size=4),
    raw_weights=st.lists(st.floats(0.01, 10.0), min_size=4, max_size=4),
)
def test_fixed_base_annual_equals_month_stepping_reference(shapes, raw_weights):
    origin = Month(2019, 1)
    prices = {}
    for n, (offset, rels) in enumerate(shapes):
        item = f"i{n}"
        start = origin.plus(offset)
        prices[item] = PriceRelativeSeries.from_mapping(
            item, {start.plus(k): r for k, r in enumerate(rels)}
        )
    weights = normalize_weights(dict(zip(prices, raw_weights)))
    lo = min(s.start for s in prices.values()).plus(-2)
    hi = max(s.end for s in prices.values()).plus(13)
    valid = 0
    for idx in range(lo.index, hi.index + 1):
        period = Month.from_index(idx)
        want = _outcome(month_stepping_fixed_base_annual, weights, prices, period)
        got = _outcome(fixed_base_annual, weights, prices, period)
        assert got == want  # exact, not approx: same products in the same order
        valid += not isinstance(want, tuple)
    first_valid = max(s.start for s in prices.values()).plus(11)
    last_valid = min(s.end for s in prices.values())
    assert valid == max(0, last_valid.index - first_valid.index + 1)


def _one_series(start, n):
    return {"A": PriceRelativeSeries.from_mapping("A", {start.plus(k): 1.01 for k in range(n)})}


@pytest.mark.parametrize(
    "prices, period, missing",
    [
        # no series for the item at all
        ({}, Month(2021, 6), Month(2020, 7)),
        # window starts two months before the series does
        (_one_series(Month(2020, 3), 24), Month(2020, 12), Month(2020, 1)),
        # period one past the series end (2021-12)
        (_one_series(Month(2020, 1), 24), Month(2022, 1), Month(2022, 1)),
        # window lies wholly after the end: the earliest missing month is
        # period - 11, not series.end + 1
        (_one_series(Month(2020, 1), 24), Month(2023, 6), Month(2022, 7)),
    ],
    ids=["no_series", "before_start", "one_past_end", "wholly_after_end"],
)
def test_fixed_base_annual_reports_earliest_missing_month(prices, period, missing):
    weights = normalize_weights({"A": 1.0})
    with pytest.raises(MissingPriceRelativeError) as info:
        fixed_base_annual(weights, prices, period)
    assert (info.value.item, info.value.period) == ("A", missing)
    with pytest.raises(MissingPriceRelativeError) as ref:
        month_stepping_fixed_base_annual(weights, prices, period)
    assert (ref.value.item, ref.value.period) == ("A", missing)


# --- exclude_items ----------------------------------------------------------


def test_exclude_core_example():
    w = normalize_weights(
        {"food": 0.2, "fv": 0.05, "energy": 0.1, "housing": 0.4, "other": 0.25}
    )
    core = exclude_items(w, {"food", "fv", "energy"})
    assert core.shares["housing"] == pytest.approx(0.6154, abs=1e-4)
    assert core.shares["other"] == pytest.approx(0.3846, abs=1e-4)


def test_exclude_nothing_is_identity():
    out = exclude_items(OFFICIAL, set())
    assert out.shares == pytest.approx(OFFICIAL.shares)


def test_exclude_all_but_one():
    out = exclude_items(OFFICIAL, {"A", "B"})
    assert out.shares == {"C": 1.0}


def test_exclude_errors():
    with pytest.raises(AllItemsExcludedError):
        exclude_items(OFFICIAL, {"A", "B", "C"})
    with pytest.raises(UnknownItemError):
        exclude_items(OFFICIAL, {"Z"})


# --- weighting_bias ---------------------------------------------------------


def test_bias_worked_example():
    prices = price_table({"A": 1.01, "B": 0.98, "C": 1.02})
    official = monthly_inflation(OFFICIAL, prices, M)
    adjusted = monthly_inflation(
        adjusted_weights(OFFICIAL, rel_vec({"A": 1.0, "B": 0.5, "C": 1.5})), prices, M
    )
    (bias,) = weighting_bias([official], [adjusted])
    assert bias.monthly_pp == pytest.approx(-0.5421, abs=1e-3)


def test_bias_identical_series_is_zero():
    pts = flat_series(0.7, 5)
    for b in weighting_bias(pts, pts):
        assert b.monthly_pp == 0.0


def test_bias_sign_convention_official_lower_annual():
    # official annual 0.2pp below adjusted -> bias -0.2 by convention
    off = [InflationPoint(period=M, monthly_pct=0.1, annual_pct=1.0)]
    adj = [InflationPoint(period=M, monthly_pct=0.1, annual_pct=1.2)]
    (bias,) = weighting_bias(off, adj)
    assert bias.annual_pp == pytest.approx(-0.2, abs=1e-12)
    assert bias.annual_pp < 0


def test_bias_period_mismatch():
    with pytest.raises(PeriodMismatchError):
        weighting_bias(flat_series(0.0, 3), flat_series(0.0, 4))
    with pytest.raises(PeriodMismatchError):
        weighting_bias(flat_series(0.0, 3), flat_series(0.0, 3, start=Month(2021, 1)))


def test_inflation_point_contribution_additivity_enforced():
    with pytest.raises(ValueError):
        InflationPoint(period=M, monthly_pct=1.0, contributions={"A": 0.3, "B": 0.3})
    for bad in (
        dict(monthly_pct=math.nan),
        dict(monthly_pct=math.inf, contributions={"A": math.inf}),
        dict(monthly_pct=1.0, contributions={"A": 1.0, "B": math.nan}),
        dict(monthly_pct=1.0, annual_pct=-math.inf),
    ):
        with pytest.raises(ValueError, match="non-finite rate or contribution"):
            InflationPoint(period=M, **bad)


# --- property tests ---------------------------------------------------------

ids = st.integers(3, 12).map(lambda n: [f"i{k}" for k in range(n)])
pos = st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def weights_and_relatives(draw):
    items = draw(ids)
    w = normalize_weights({i: draw(pos) for i in items})
    de = rel_vec({i: draw(pos) for i in items})
    return w, de


@given(weights_and_relatives())
def test_prop_adjusted_is_a_weight_vector(wd):
    w, de = wd
    out = adjusted_weights(w, de)
    assert abs(math.fsum(out.shares.values()) - 1.0) < 1e-9
    assert all(v >= 0 for v in out.shares.values())


@given(weights_and_relatives(), pos)
def test_prop_constant_relatives_are_identity(wd, c):
    w, _ = wd
    out = adjusted_weights(w, rel_vec({i: c for i in w.shares}))
    assert max(abs(out.shares[i] - w.shares[i]) for i in w.shares) < 1e-12


@given(weights_and_relatives(), pos)
def test_prop_homogeneity(wd, lam):
    w, de = wd
    a = adjusted_weights(w, de)
    b = adjusted_weights(w, rel_vec({i: lam * v for i, v in de.relatives.items()}))
    assert max(abs(a.shares[i] - b.shares[i]) for i in w.shares) < 1e-12


@given(weights_and_relatives(), st.floats(1.1, 10.0), st.integers(0, 10**6))
def test_prop_monotonicity(wd, factor, pick):
    w, de = wd
    target = sorted(w.shares)[pick % len(w.shares)]
    bumped = dict(de.relatives)
    bumped[target] = bumped[target] * factor
    a = adjusted_weights(w, de)
    b = adjusted_weights(w, rel_vec(bumped))
    assert b.shares[target] > a.shares[target]
    for other in w.shares:
        if other != target:
            assert b.shares[other] < a.shares[other]


@given(weights_and_relatives())
def test_prop_convexity_envelope(wd):
    w, de = wd
    relatives = {i: 0.5 + de.relatives[i] / 10 for i in w.shares}
    point = monthly_inflation(w, price_table(relatives), M)
    lo = min(relatives.values()) - 1.0
    hi = max(relatives.values()) - 1.0
    assert lo * 100 - 1e-12 <= point.monthly_pct <= hi * 100 + 1e-12
    assert abs(math.fsum(point.contributions.values()) - point.monthly_pct) <= 1e-9


@given(weights_and_relatives())
def test_prop_exclusion_idempotent_and_commutative(wd):
    w, _ = wd
    items = sorted(w.shares)
    first, second = {items[0]}, {items[1]}
    once = exclude_items(w, first)
    again = exclude_items(once, set())
    assert once.shares == pytest.approx(again.shares, abs=1e-15)
    ab = exclude_items(exclude_items(w, first), second)
    ba = exclude_items(exclude_items(w, second), first)
    both = exclude_items(w, first | second)
    for item in ab.shares:
        assert ab.shares[item] == pytest.approx(ba.shares[item], abs=1e-12)
        assert ab.shares[item] == pytest.approx(both.shares[item], abs=1e-12)


@st.composite
def price_quantity_panel(draw):
    items = draw(st.integers(2, 10).map(lambda n: [f"i{k}" for k in range(n)]))
    months = draw(st.integers(2, 24))
    paths = {
        i: [(draw(pos), draw(pos)) for _ in range(months)] for i in items
    }
    return paths


@given(price_quantity_panel())
@settings(max_examples=60)
def test_prop_oracle_equivalence_against_spending_shares(paths):
    # weights computed directly as spending shares must equal reweighting
    # official base-period shares by expenditure relatives from the same panel
    spend = {i: [p * q for p, q in path] for i, path in paths.items()}
    base = {i: s[0] for i, s in spend.items()}
    official = normalize_weights(base)
    for t in range(len(next(iter(spend.values())))):
        direct = normalize_weights({i: s[t] for i, s in spend.items()})
        de = rel_vec({i: s[t] / base[i] for i, s in spend.items()})
        via_formula = adjusted_weights(official, de)
        diff = max(abs(direct.shares[i] - via_formula.shares[i]) for i in spend)
        assert diff < 1e-10


@given(st.floats(-5.0, 5.0, allow_nan=False), st.integers(12, 30))
def test_prop_chaining_matches_closed_form_for_constant_inflation(rate, n):
    out = chain_annual(flat_series(rate, n))
    closed = ((1.0 + rate / 100.0) ** 12 - 1.0) * 100.0
    for p in out[11:]:
        assert p.annual_pct == pytest.approx(closed, abs=1e-10)
