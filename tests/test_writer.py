"""The streamed writers behind `basketflex run`: JSON chunks, CSV text, atomicity."""

import csv
import dataclasses
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

CSV_OUTPUTS = {"inflation.csv", "weights.csv", "contributions.csv", "bias.csv"}

# Keys and strings with JSON escapes, control characters and non-ASCII text.
texts = st.text() | st.sampled_from(['', '"', "\\", "\n\t\x00", "café", "€\U0001f600"])
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
    | texts
)
documents = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(texts, children, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_json_chunks_match_indented_dumps(doc):
    assert "".join(cli._json_chunks(doc)) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("variant", ["default", "fixed-weight", "fixed-base"])
def test_json_chunks_match_dumps_on_results(example_config, example_inputs, variant):
    config = {
        "default": example_config,
        "fixed-weight": dataclasses.replace(example_config, fixed_weight_month=Month(2020, 4)),
        "fixed-base": dataclasses.replace(example_config, annual_method="fixed_base"),
    }[variant]
    doc = analysis.result_to_dict(analysis.run_scenario(config, *example_inputs))
    assert "".join(cli._json_chunks(doc)) == json.dumps(doc, indent=2, sort_keys=True)


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

# Item ids the csv module must quote, or must not, and arbitrary text.
item_ids = st.text(min_size=1) | st.sampled_from(
    ["a,b", '"', 'say "hi", ok', "x\ry", "x\ny", "\r\n", "café", "€\U0001f600", " pad "]
)
rates = st.none() | st.floats() | st.sampled_from([math.nan, math.inf, -0.0, 1e-300])


def _relabelled(result, names, draw_rate, blank):
    """``result`` with its items renamed, its annual rates and bias redrawn and
    no contributions in the ``blank`` periods; vectors that shared a
    ``shares`` dict still share one."""
    shares = {}

    def vector(v):
        if id(v.shares) not in shares:
            shares[id(v.shares)] = {names[i]: w for i, w in v.shares.items()}
        return dataclasses.replace(v, shares=shares[id(v.shares)])

    def point(p):  # contributions must still sum to monthly_pct
        return dataclasses.replace(
            p, annual_pct=draw_rate(),
            contributions={
                names[i]: c for i, c in p.contributions.items() if p.period not in blank
            },
        )

    def bias(b):
        return dataclasses.replace(b, monthly_pp=draw_rate(), annual_pp=draw_rate())

    fields = {
        "official_weights": vector, "adjusted_weights": vector,
        **dict.fromkeys(analysis.SERIES_NAMES, point), "bias": bias, "core_bias": bias,
    }
    return dataclasses.replace(result, **{
        name: tuple(map(fn, getattr(result, name))) for name, fn in fields.items()
    })


@pytest.fixture(scope="module")
def writer_results(example_config, example_inputs):
    replace = dataclasses.replace
    results = {
        variant: analysis.run_scenario(config, *example_inputs)
        for variant, config in (
            ("default", example_config),
            ("fixed-weight", replace(example_config, fixed_weight_month=Month(2020, 4))),
            ("fixed-base", replace(example_config, annual_method="fixed_base")),
        )
    }
    # both sides of weight_rows's reuse check, and missing annual rates
    fixed = results["fixed-weight"]
    assert len({id(v.shares) for v in fixed.official_weights + fixed.adjusted_weights}) == 2
    assert len({id(v.shares) for v in results["default"].adjusted_weights}) > 1
    assert all(r.official[0].annual_pct is None for r in results.values())
    return results


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("variant", ["default", "fixed-weight", "fixed-base"])
def test_writers_match_csv_writer_on_any_item_ids(writer_results, variant, data):
    result = writer_results[variant]
    items = sorted(result.official_weights[0].shares)
    labels = data.draw(st.lists(item_ids, min_size=len(items), max_size=len(items), unique=True))
    rate_stream = itertools.cycle(data.draw(st.lists(rates, min_size=1, max_size=50)))
    blank = data.draw(st.sets(st.sampled_from(result.periods), max_size=3))
    relabelled = _relabelled(
        result, dict(zip(items, labels)), lambda: next(rate_stream), blank
    )
    for writer, reference in WRITERS.items():
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(reference(relabelled))
        assert "".join(writer(relabelled)) == buf.getvalue(), writer.__name__


def _failing_rows(result):
    yield "period,series,item,contribution_pp\n"
    yield "2020-02,official,food,0.1\n"
    raise RuntimeError("row generator failed")


def test_failing_row_generator_leaves_no_file(example_dir, tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "contributions.csv").write_text("previous\n")
    monkeypatch.setattr(analysis, "contribution_rows", _failing_rows)
    with pytest.raises(RuntimeError, match="row generator failed"):
        cli.dispatch(["run", "--manifest", str(example_dir / "manifest.json"), "--out", str(out)])
    names = {p.name for p in out.iterdir()}
    assert not any(name.startswith(".tmp-") for name in names)
    # files before the failing one are complete; the failing one is untouched
    assert names == {"scenario_result.json", "inflation.csv", "weights.csv", "contributions.csv"}
    assert (out / "contributions.csv").read_text() == "previous\n"


def test_failing_json_writer_leaves_no_file(example_dir, tmp_path, monkeypatch):
    def failing_chunks(doc):
        yield "{"
        raise RuntimeError("encoder failed")

    out = tmp_path / "out"
    monkeypatch.setattr(cli, "_json_chunks", failing_chunks)
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


def test_format_csv_writes_only_csv_files(example_dir, tmp_path):
    # the JSON-only case is covered by test_cli.py::test_run_format_gating
    out = tmp_path / "out"
    proc = run_cli(
        "run", "--manifest", str(example_dir / "manifest.json"), "--out", str(out),
        "--format", "csv",
    )
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in out.iterdir()} == CSV_OUTPUTS
