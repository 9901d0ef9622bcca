"""The one-pass result writer behind `basketflex run`: JSON and CSV text, atomicity."""

import csv
import io
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketflex import analysis, cli
from basketflex.periods import Month

from conftest import run_cli

OUTPUTS = {analysis.RESULT_JSON, *analysis.CSV_FILES}


def _written(result) -> dict[str, str]:
    """The text ``write_result`` writes for each of its five files."""
    chunks = {name: [] for name in OUTPUTS}
    analysis.write_result(result, {name: chunks[name].append for name in OUTPUTS})
    return {name: "".join(parts) for name, parts in chunks.items()}


def _ordered(doc) -> str:
    """``doc`` dumped with ``indent=2`` and every object's keys sorted, except
    that ``series`` lists its members in ``SERIES_NAMES`` order and ``weights``
    official then adjusted, the order of the CSV files."""

    def sort(value):
        if isinstance(value, dict):
            return {key: sort(value[key]) for key in sorted(value)}
        return list(map(sort, value)) if isinstance(value, list) else value

    doc = sort(doc)
    doc["series"] = {name: doc["series"][name] for name in analysis.SERIES_NAMES}
    doc["weights"] = {basket: doc["weights"][basket] for basket in ("official", "adjusted")}
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("variant", ["default", "fixed-weight", "fixed-base"])
def test_json_chunks_match_dumps_on_results(example_config, example_inputs, variant):
    config = {
        "default": example_config,
        "fixed-weight": example_config._replace(fixed_weight_month=Month(2020, 4)),
        "fixed-base": example_config._replace(annual_method="fixed_base"),
    }[variant]
    result = analysis.run_scenario(config, *example_inputs)
    want = _ordered(analysis.result_to_dict(result))
    assert _written(result)[analysis.RESULT_JSON] == want


def test_result_without_points(dynamic_result):
    # empty lists, which json.dumps writes as "[]"
    empty = dynamic_result._replace(**{
        name: () for name in dynamic_result._fields if name != "config"
    })
    assert _written(empty) == {
        analysis.RESULT_JSON: _ordered(analysis.result_to_dict(empty)),
        **analysis.CSV_FILES,
    }


# --- the tidy CSV writers -------------------------------------------------------
# Reference: the list-row generators the text writers replaced, one row per
# line, written out through csv.writer.


def _fmt(x):
    return "" if x is None else repr(x)


def _reference_inflation_rows(result):
    yield ["period", "series", "monthly_pct", "annual_pct", "in_lockdown"]
    for name in analysis.SERIES_NAMES:
        for p in result.series(name):
            yield [str(p.period), name, _fmt(p.monthly_pct), _fmt(p.annual_pct),
                   str(int(result.config.in_lockdown(p.period)))]


def _reference_weight_rows(result):
    yield ["period", "basket", "item", "weight", "in_lockdown"]
    for basket, vectors in (
        ("official", result.official_weights),
        ("adjusted", result.adjusted_weights),
    ):
        for v in vectors:
            period, flag = str(v.period), str(int(result.config.in_lockdown(v.period)))
            for item in sorted(v.shares):
                yield [period, basket, item, _fmt(v.shares[item]), flag]


def _reference_contribution_rows(result):
    yield ["period", "series", "item", "contribution_pp"]
    for name in analysis.SERIES_NAMES:
        for p in result.series(name):
            for item in sorted(p.contributions):
                yield [str(p.period), name, item, _fmt(p.contributions[item])]


def _reference_bias_rows(result):
    yield ["period", "scope", "monthly_pp", "annual_pp"]
    for scope, series in (("headline", result.bias), ("core", result.core_bias)):
        for b in series:
            yield [str(b.period), scope, _fmt(b.monthly_pp), _fmt(b.annual_pp)]


WRITERS = {
    analysis.inflation_rows: _reference_inflation_rows,
    analysis.weight_rows: _reference_weight_rows,
    analysis.contribution_rows: _reference_contribution_rows,
    analysis.bias_rows: _reference_bias_rows,
}
CSV_VIEWS = dict(zip(analysis.CSV_FILES, WRITERS))

# Item ids the csv module must quote, or must not, and arbitrary text.
item_ids = st.text(min_size=1) | st.sampled_from(
    ["a,b", '"', 'say "hi", ok', "x\ry", "x\ny", "\r\n", "café", "€\U0001f600", " pad "]
)
rates = (
    st.none()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e-300, 5e-324, 1.7976931348623157e308])
)


def _relabelled(result, names, draw_rate, blank):
    """``result`` with its items renamed, its annual rates and bias redrawn and
    no contributions in the ``blank`` periods; vectors that shared a
    ``shares`` dict still share one."""
    shares = {}

    def vector(v):
        if id(v.shares) not in shares:
            shares[id(v.shares)] = {names[i]: w for i, w in v.shares.items()}
        return v._replace(shares=shares[id(v.shares)])

    def point(p):  # contributions must still sum to monthly_pct
        return p._replace(
            annual_pct=draw_rate(),
            contributions={
                names[i]: c for i, c in p.contributions.items() if p.period not in blank
            },
        )

    def bias(b):  # a drawn None keeps the monthly gap, which is never missing
        monthly = draw_rate()
        return b._replace(monthly_pp=b.monthly_pp if monthly is None else monthly,
                          annual_pp=draw_rate())

    fields = {
        "official_weights": vector, "adjusted_weights": vector,
        **dict.fromkeys(analysis.SERIES_NAMES, point), "bias": bias, "core_bias": bias,
    }
    return result._replace(**{
        name: tuple(map(fn, getattr(result, name))) for name, fn in fields.items()
    })


@pytest.fixture(scope="module")
def writer_results(example_config, example_inputs):
    results = {
        variant: analysis.run_scenario(config, *example_inputs)
        for variant, config in (
            ("default", example_config),
            ("fixed-weight", example_config._replace(fixed_weight_month=Month(2020, 4))),
            ("fixed-base", example_config._replace(annual_method="fixed_base")),
        )
    }
    # both sides of weight_rows's reuse check, and missing annual rates
    fixed = results["fixed-weight"]
    assert len({id(v.shares) for v in fixed.official_weights + fixed.adjusted_weights}) == 2
    assert len({id(v.shares) for v in results["default"].adjusted_weights}) > 1
    assert all(r.official[0].annual_pct is None for r in results.values())
    return results


def _drawn_relabelling(data, result):
    items = sorted(result.official_weights[0].shares)
    labels = data.draw(st.lists(item_ids, min_size=len(items), max_size=len(items), unique=True))
    rate_stream = itertools.cycle(data.draw(st.lists(rates, min_size=1, max_size=50)))
    blank = data.draw(st.sets(st.sampled_from(result.periods), max_size=3))
    return _relabelled(result, dict(zip(items, labels)), lambda: next(rate_stream), blank)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("variant", ["default", "fixed-weight", "fixed-base"])
def test_writers_match_csv_writer_on_any_item_ids(writer_results, variant, data):
    relabelled = _drawn_relabelling(data, writer_results[variant])
    want = {analysis.RESULT_JSON: _ordered(analysis.result_to_dict(relabelled))}
    for writer, reference in WRITERS.items():
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(reference(relabelled))
        want[writer.__name__] = buf.getvalue()
        assert "".join(writer(relabelled)) == buf.getvalue(), writer.__name__
    # all five files from one pass, as run writes them
    got = _written(relabelled)
    assert got == {analysis.RESULT_JSON: want[analysis.RESULT_JSON],
                   **{name: want[view.__name__] for name, view in CSV_VIEWS.items()}}


# --- non-finite numbers -----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(data=st.data(), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_writers_refuse_non_finite_draws(writer_results, data, bad):
    result = writer_results["default"]
    draws = data.draw(st.lists(rates, min_size=1, max_size=20))
    draws.insert(data.draw(st.integers(0, len(draws))), bad)
    # fewer draws than rates to fill, so every draw lands in the JSON and a CSV file
    rate_stream = itertools.cycle(draws)
    relabelled = _relabelled(result, {i: i for i in result.official_weights[0].shares},
                             lambda: next(rate_stream), set())
    with pytest.raises(ValueError, match="non-finite"):
        _written(relabelled)


def _at(seq, i, **changes):
    """``seq`` with ``changes`` made to a copy of its ``i``-th point, which is
    not checked again (a non-finite contribution breaks the contribution sum)."""
    return (*seq[:i], seq[i]._replace(**changes), *seq[i + 1:])


def _doctored(result, place, x):
    item = sorted(result.official_weights[0].shares)[2]
    if place == "contribution":
        contributions = {**result.official[3].contributions, item: x}
        return result._replace(official=_at(result.official, 3, contributions=contributions))
    if place == "monthly_pct":
        return result._replace(core_adjusted=_at(result.core_adjusted, 4, monthly_pct=x))
    if place == "annual_pct":
        return result._replace(adjusted=_at(result.adjusted, 13, annual_pct=x))
    if place == "share":
        shares = {**result.adjusted_weights[5].shares, item: x}
        return result._replace(adjusted_weights=_at(result.adjusted_weights, 5, shares=shares))
    if place == "raw_sum":
        return result._replace(official_weights=_at(result.official_weights, 7, raw_sum=x))
    return result._replace(core_bias=_at(result.core_bias, 12, annual_pp=x))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "place", ["contribution", "monthly_pct", "annual_pct", "share", "raw_sum", "bias"])
def test_writers_refuse_non_finite_numbers(dynamic_result, place, x):
    with pytest.raises(ValueError, match="non-finite"):
        _written(_doctored(dynamic_result, place, x))


def _previous_outputs(out):
    out.mkdir()
    for name in OUTPUTS:
        (out / name).write_text(f"previous {name}\n")


def _assert_untouched(out):
    assert {p.name: p.read_text() for p in out.iterdir()} == {
        name: f"previous {name}\n" for name in OUTPUTS
    }


@pytest.mark.parametrize("place,x", [("contribution", math.nan), ("annual_pct", math.inf)])
def test_run_refuses_a_non_finite_result(example_dir, tmp_path, monkeypatch, capsys, place, x):
    price = analysis.price_scenario
    monkeypatch.setattr(analysis, "price_scenario",
                        lambda *args: _doctored(price(*args), place, x))
    out = tmp_path / "out"
    _previous_outputs(out)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--manifest", str(example_dir / "manifest.json"), "--out", str(out)])
    assert exc.value.code == 3
    report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert report["internal"] is True and "non-finite" in report["message"]
    _assert_untouched(out)


# --- a failure midway leaves every output as it was --------------------------------


def _fail_on_call(monkeypatch, name, n, message):
    """Make ``analysis.<name>`` raise on its ``n``-th call."""
    real, calls = getattr(analysis, name), itertools.count(1)

    def failing(*args):
        if next(calls) == n:
            raise RuntimeError(message)
        return real(*args)

    monkeypatch.setattr(analysis, name, failing)


def test_failing_row_generator_leaves_no_file(example_dir, tmp_path, monkeypatch):
    # the 30th block of CSV lines: weights.csv and contributions.csv are part written
    _fail_on_call(monkeypatch, "_csv_lines", 30, "row generator failed")
    out = tmp_path / "out"
    _previous_outputs(out)
    with pytest.raises(RuntimeError, match="row generator failed"):
        cli.dispatch(["run", "--manifest", str(example_dir / "manifest.json"), "--out", str(out)])
    _assert_untouched(out)


def test_failing_json_writer_leaves_no_file(example_dir, tmp_path, monkeypatch):
    _fail_on_call(monkeypatch, "_json_object", 20, "encoder failed")
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="encoder failed"):
        cli.dispatch(["run", "--manifest", str(example_dir / "manifest.json"), "--out", str(out)])
    assert list(out.iterdir()) == []


def test_item_id_with_comma_and_quote_round_trips(example_dir, tmp_path):
    item = 'clothing, "shoes"'

    def renamed(name):
        with open(example_dir / name, newline="") as fh:
            rows = [[item if cell == "clothing" else cell for cell in row]
                    for row in csv.reader(fh)]
        with open(tmp_path / name, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        return str(tmp_path / name)

    spec = (example_dir.parent / "israel_crosswalk.yaml").read_text()
    assert "  - target: clothing\n" in spec
    (tmp_path / "crosswalk.yaml").write_text(
        spec.replace("  - target: clothing\n", "  - target: 'clothing, \"shoes\"'\n")
    )
    out = tmp_path / "out"
    proc = run_cli(
        "run", "--manifest", str(example_dir / "manifest.json"),
        "--weights", renamed("weights.csv"), "--prices", renamed("prices.csv"),
        "--crosswalk", str(tmp_path / "crosswalk.yaml"), "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("weights.csv", "contributions.csv"):
        text = (out / name).read_text()
        assert ',"clothing, ""shoes""",' in text
        with open(out / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {len(rows[0])}
        assert item in {row[2] for row in rows[1:]}
    doc = json.loads((out / "scenario_result.json").read_text())
    assert item in doc["weights"]["official"][0]["shares"]
