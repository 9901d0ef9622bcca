import hashlib
import json

import pytest

from conftest import run_cli

EXPECTED_OUTPUTS = {
    "scenario_result.json",
    "inflation.csv",
    "weights.csv",
    "contributions.csv",
    "bias.csv",
}

# SHA-256 of each file `run` writes for the bundled manifest. A change that
# alters any output byte, across versions rather than within one run, fails here.
GOLDEN_SHA256 = {
    "bias.csv": "d8ffe21f5c21e3012dfd5b6991b2df4b5ae911fc7d8e813ccb2637917e992de1",
    "contributions.csv": "53a9414d5177d72f912aadf94d4a45e4eea2c1285576cc4e0f13128107a1ad90",
    "inflation.csv": "4e40764456935169482937c70244d9c68f681dc2813bd1a24fd13e2de85b735b",
    "scenario_result.json": "aaa36a11ca047533eb59c1b192a49327d355c23bdb17737bf0e4b44fdc134c92",
    "weights.csv": "e76ee37c63a607a446cd79c67cbf725b02053504647709bee38f6b9ff3323f97",
}


@pytest.fixture(scope="module")
def example_manifest(example_dir) -> str:
    return str(example_dir / "manifest.json")


def test_run_bundled_manifest(example_manifest, tmp_path):
    out = tmp_path / "out"
    proc = run_cli("run", "--manifest", example_manifest, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in out.iterdir()} == EXPECTED_OUTPUTS
    doc = json.loads((out / "scenario_result.json").read_text())
    assert doc["variant"] == "dynamic"
    assert doc["country"] == "synthetic-israel"
    assert doc["periods"][0] == "2020-02"


def test_run_bundled_manifest_matches_golden_hashes(example_manifest, tmp_path):
    out = tmp_path / "out"
    proc = run_cli("run", "--manifest", example_manifest, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == GOLDEN_SHA256


def test_run_format_gating(example_manifest, tmp_path):
    out = tmp_path / "json_only"
    proc = run_cli(
        "run", "--manifest", example_manifest, "--out", str(out), "--format", "json"
    )
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in out.iterdir()} == {"scenario_result.json"}

    proc = run_cli(
        "run", "--manifest", example_manifest, "--out", str(tmp_path / "x"),
        "--format", "yaml",
    )
    assert proc.returncode == 2
    assert "format" in proc.stderr


def test_run_fixed_weight_month_is_tagged(example_manifest, tmp_path):
    out = tmp_path / "fx"
    proc = run_cli(
        "run", "--manifest", example_manifest, "--out", str(out),
        "--fixed-weight-month", "2020-04",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((out / "scenario_result.json").read_text())
    assert doc["variant"] == "fixed-weight-2020-04"
    assert doc["config"]["fixed_weight_month"] == "2020-04"


def test_run_rejects_out_of_gate_weights(example_dir, tmp_path):
    bad = tmp_path / "weights.csv"
    bad.write_text("item,weight\nA,0.5\nB,0.4\n")
    proc = run_cli(
        "run",
        "--weights", str(bad),
        "--prices", str(example_dir / "prices.csv"),
        "--expenditures", str(example_dir / "expenditures.csv"),
        "--crosswalk", str(example_dir.parent / "israel_crosswalk.yaml"),
        "--base-months", "2020-01,2020-02",
        "--out", str(tmp_path / "out"),
    )
    assert proc.returncode == 2
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["error"] == "WeightSumOutOfRangeError"
    assert report["path"].endswith("weights.csv")


def test_run_negative_total_error_names_expenditure_file(example_dir, tmp_path):
    ledger = tmp_path / "expenditures.csv"
    ledger.write_text(
        (example_dir / "expenditures.csv").read_text() + "2020-03-10,fuel,-99999999\n"
    )
    proc = run_cli(
        "run", "--manifest", str(example_dir / "manifest.json"),
        "--expenditures", str(ledger), "--allow-negative-amounts",
        "--out", str(tmp_path / "out"),
    )
    assert proc.returncode == 2
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["error"] == "NegativeTotalError"
    assert report["path"].endswith("expenditures.csv")


@pytest.mark.parametrize("source", ["flag", "manifest"])
def test_run_rejects_duplicate_base_months(example_dir, tmp_path, source):
    manifest = json.loads((example_dir / "manifest.json").read_text())
    for key in ("weights", "prices", "expenditures", "crosswalk"):
        manifest[key] = str(example_dir / manifest[key])
    args = ["run", "--manifest", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "out")]
    if source == "flag":
        args += ["--base-months", "2020-01,2020-01"]
    else:
        manifest["base_months"] = ["2020-01", "2020-02", "2020-01"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    proc = run_cli(*args)
    assert proc.returncode == 2
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["error"] == "BasketflexError"
    assert "2020-01" in report["message"]


def test_run_missing_input_file(example_manifest, tmp_path):
    proc = run_cli(
        "run", "--manifest", example_manifest,
        "--weights", str(tmp_path / "nope.csv"),
        "--out", str(tmp_path / "out"),
    )
    assert proc.returncode == 2
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert "not found" in report["message"]


def test_validate_ok(example_manifest):
    proc = run_cli("validate", "--manifest", example_manifest)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok:")


def test_validate_reports_findings(example_dir, tmp_path):
    broken = tmp_path / "broken.yaml"
    broken.write_text(
        "version: 'x'\nrules:\n  - target: food\n    kind: direct\n    source: food-stores\n"
    )
    proc = run_cli(
        "validate",
        "--weights", str(example_dir / "weights.csv"),
        "--prices", str(example_dir / "prices.csv"),
        "--expenditures", str(example_dir / "expenditures.csv"),
        "--crosswalk", str(broken),
        "--base-months", "2020-01,2020-02",
    )
    assert proc.returncode == 2
    assert "uncovered_item" in proc.stdout
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["error"] == "SpecInvalidError"


def test_generate_reproduces_bundled_files(example_dir, tmp_path):
    out = tmp_path / "gen"
    proc = run_cli(
        "generate", "--economy", str(example_dir / "economy.json"), "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("weights.csv", "prices.csv", "expenditures.csv"):
        assert (out / name).read_bytes() == (example_dir / name).read_bytes()


def test_compare_command(example_manifest, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--manifest", example_manifest, "--out", str(a)).returncode == 0
    assert (
        run_cli(
            "run", "--manifest", example_manifest, "--out", str(b),
            "--fixed-weight-month", "2020-04", "--country", "synthetic-israel-fixed",
        ).returncode
        == 0
    )
    table = tmp_path / "table.csv"
    proc = run_cli(
        "compare",
        str(a / "scenario_result.json"),
        str(b / "scenario_result.json"),
        "--period", "2020-05",
        "--out", str(table),
    )
    assert proc.returncode == 0, proc.stderr
    lines = table.read_text().splitlines()
    assert lines[0] == "country,monthly_bias_pp,annual_bias_pp,sign"
    assert len(lines) == 3
    assert all(line.endswith("negative") for line in lines[1:])
    assert "synthetic-israel" in proc.stdout


def test_compare_period_not_covered(example_manifest, tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--manifest", example_manifest, "--out", str(out))
    proc = run_cli(
        "compare", str(out / "scenario_result.json"), "--period", "2030-01"
    )
    assert proc.returncode == 2
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["error"] == "PeriodNotCoveredError"


def test_run_fixed_month_outside_axis(example_manifest, tmp_path):
    proc = run_cli(
        "run", "--manifest", example_manifest, "--out", str(tmp_path / "out"),
        "--fixed-weight-month", "2030-01",
    )
    assert proc.returncode == 2
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["error"] == "FixedMonthOutOfRangeError"


def test_run_annual_method_flag(example_manifest, tmp_path):
    out_c, out_f = tmp_path / "chained", tmp_path / "fixed"
    assert run_cli("run", "--manifest", example_manifest, "--out", str(out_c)).returncode == 0
    proc = run_cli(
        "run", "--manifest", example_manifest, "--out", str(out_f),
        "--annual-method", "fixed_base",
    )
    assert proc.returncode == 0, proc.stderr
    doc_c = json.loads((out_c / "scenario_result.json").read_text())
    doc_f = json.loads((out_f / "scenario_result.json").read_text())
    assert doc_c["config"]["annual_method"] == "chained"
    assert doc_f["config"]["annual_method"] == "fixed_base"
    last_c = doc_c["series"]["adjusted"][-1]["annual_pct"]
    last_f = doc_f["series"]["adjusted"][-1]["annual_pct"]
    assert last_c is not None and last_f is not None and last_c != last_f


def test_run_per_day_base_flag(example_manifest, tmp_path):
    out = tmp_path / "per-day"
    proc = run_cli(
        "run", "--manifest", example_manifest, "--out", str(out), "--per-day-base"
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((out / "scenario_result.json").read_text())
    assert doc["config"]["per_day_base"] is True


def test_log_env_var_does_not_disturb_outputs(example_manifest, tmp_path):
    quiet, chatty = tmp_path / "quiet", tmp_path / "chatty"
    assert run_cli("run", "--manifest", example_manifest, "--out", str(quiet)).returncode == 0
    proc = run_cli(
        "run", "--manifest", example_manifest, "--out", str(chatty),
        env={"BASKETFLEX_LOG": "debug"},
    )
    assert proc.returncode == 0, proc.stderr
    for name in EXPECTED_OUTPUTS:
        assert (quiet / name).read_bytes() == (chatty / name).read_bytes()


def test_cli_without_arguments_shows_usage():
    proc = run_cli()
    assert proc.returncode == 2
    assert "Usage" in proc.stderr or "Usage" in proc.stdout


def test_outputs_are_written_atomically(example_manifest, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--manifest", example_manifest, "--out", str(out)).returncode == 0
    leftovers = [p for p in out.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []
