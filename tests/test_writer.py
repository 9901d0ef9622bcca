"""The streamed writers behind `basketflex run`: JSON chunks, CSV rows, atomicity."""

import csv
import dataclasses
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


def _failing_rows(result):
    yield ["period", "series", "item", "contribution_pp"]
    yield ["2020-02", "official", "food", "0.1"]
    raise RuntimeError("row generator failed")


def test_failing_row_generator_leaves_no_file(example_dir, tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "contributions.csv").write_text("previous\n")
    monkeypatch.setattr(analysis, "contribution_rows", _failing_rows)
    with pytest.raises(RuntimeError, match="row generator failed"):
        cli.cli.main(
            ["run", "--manifest", str(example_dir / "manifest.json"), "--out", str(out)],
            standalone_mode=False,
        )
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
        cli.cli.main(
            ["run", "--manifest", str(example_dir / "manifest.json"), "--out", str(out)],
            standalone_mode=False,
        )
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
