import contextlib
import functools
import hashlib
import json
import operator
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketflex import cli
from basketflex.errors import BasketflexError, ConfigError

from conftest import run_cli

EXPECTED_OUTPUTS = {
    "scenario_result.json",
    "inflation.csv",
    "weights.csv",
    "contributions.csv",
    "bias.csv",
}

# SHA-256 of each file `run` writes for the bundled manifest, per run variant.
# A change that alters any output byte, across versions rather than within one
# run, fails here.
GOLDEN_SHA256 = {
    "default": {
        "bias.csv": "d8ffe21f5c21e3012dfd5b6991b2df4b5ae911fc7d8e813ccb2637917e992de1",
        "contributions.csv": "53a9414d5177d72f912aadf94d4a45e4eea2c1285576cc4e0f13128107a1ad90",
        "inflation.csv": "4e40764456935169482937c70244d9c68f681dc2813bd1a24fd13e2de85b735b",
        "scenario_result.json": "aaa36a11ca047533eb59c1b192a49327d355c23bdb17737bf0e4b44fdc134c92",
        "weights.csv": "e76ee37c63a607a446cd79c67cbf725b02053504647709bee38f6b9ff3323f97",
    },
    "fixed-weight": {
        "bias.csv": "369b8897650446476722d23923d58d332ac5e845e58f638f076db220a48d966c",
        "contributions.csv": "b08fba7734766184f484bbb725649d7dd860925c298981e5ca194a45f81a019f",
        "inflation.csv": "e4c8f899c82b81fa22c7d5f2fe3ee51a07d808b4fc7550ba886186c71c633f1c",
        "scenario_result.json": "af42fdfcaed0ad6999e7c1d1724e293758c53e96b8cc6b7377f7959ae10007cb",
        "weights.csv": "acffe970ae96b4a33afc5f0f7652b93c518deed86e2b088ad8c352662edf2f4d",
    },
    "fixed-base": {
        "bias.csv": "48a620265d87b90a483371a3d84efc8ac7450d93741757f1f8153811aa7c81c4",
        "contributions.csv": "53a9414d5177d72f912aadf94d4a45e4eea2c1285576cc4e0f13128107a1ad90",
        "inflation.csv": "32309fd07f36dbd535b46b691e1a00ca50b44d359691215cfec7e89ea6627748",
        "scenario_result.json": "2bb882d3ddcfb0973b8e5a5723fb3d05551ccdcfb0bc359a7d8823ddf3e0b60f",
        "weights.csv": "e76ee37c63a607a446cd79c67cbf725b02053504647709bee38f6b9ff3323f97",
    },
}
GOLDEN_FLAGS = {
    "default": (),
    "fixed-weight": ("--fixed-weight-month", "2020-04"),
    "fixed-base": ("--annual-method", "fixed_base"),
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


@pytest.mark.parametrize("variant", list(GOLDEN_SHA256))
def test_run_bundled_manifest_matches_golden_hashes(example_manifest, tmp_path, variant):
    out = tmp_path / "out"
    proc = run_cli(
        "run", "--manifest", example_manifest, "--out", str(out), *GOLDEN_FLAGS[variant]
    )
    assert proc.returncode == 0, proc.stderr
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == GOLDEN_SHA256[variant]


def test_run_has_no_format_option(example_dir, example_manifest, tmp_path):
    # run always writes all five files; --format is unknown and a formats key ignored
    out = tmp_path / "out"
    proc = run_cli("run", "--manifest", example_manifest, "--out", str(out), "--format", "json")
    assert proc.returncode == 2
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["error"] == "UsageError" and "--format" in report["message"]
    assert not out.exists()
    manifest = _manifest_file(example_dir, tmp_path, formats=["json"])
    proc = run_cli("run", "--manifest", manifest, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in out.iterdir()} == EXPECTED_OUTPUTS


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
    assert report["error"] == "ConfigError"
    assert "2020-01" in report["message"]


@pytest.mark.parametrize(
    "flags, manifest_field",
    [
        (("--lockdowns", "2020-05-01:2020-03-01"), {}),
        (("--lockdowns", "2020-03-01:2020-05-01,2020-04-01:2020-06-01"), {}),
        ((), {"annual_method": "foo"}),
    ],
    ids=["inverted-lockdown", "overlapping-lockdowns", "manifest-annual-method"],
)
def test_run_config_errors_exit_2(example_dir, tmp_path, flags, manifest_field):
    manifest = json.loads((example_dir / "manifest.json").read_text())
    for key in ("weights", "prices", "expenditures", "crosswalk"):
        manifest[key] = str(example_dir / manifest[key])
    manifest.update(manifest_field)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    proc = run_cli(
        "run", "--manifest", str(tmp_path / "manifest.json"), "--out", str(out), *flags
    )
    assert proc.returncode == 2
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["error"] == "ConfigError"
    assert "internal" not in report
    assert not out.exists()  # rejected before the output directory is made


@pytest.mark.parametrize(
    "shape, field",
    [
        ([], None),
        ({"lockdowns": [["2020-03-01"]]}, "lockdowns"),
        ({"fixed_weight_month": 5}, "fixed_weight_month"),
        ({"base_months": "2020-01"}, "base_months"),
        ({"core_exclude": "energy"}, "core_exclude"),
        ({"per_day_base": "false"}, "per_day_base"),
    ],
    ids=["top-level-list", "lockdown-not-a-pair", "non-string-fixed-month",
         "string-base-months", "string-core-exclude", "string-per-day-base"],
)
@pytest.mark.parametrize("command", ["run", "validate"])
def test_malformed_manifest_shape_exits_2(example_dir, tmp_path, command, shape, field):
    manifest = json.loads((example_dir / "manifest.json").read_text())
    for key in ("weights", "prices", "expenditures", "crosswalk"):
        manifest[key] = str(example_dir / manifest[key])
    manifest = [manifest] if shape == [] else {**manifest, **shape}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    proc = run_cli(
        command, "--manifest", str(tmp_path / "manifest.json"),
        *(("--out", str(out)) if command == "run" else ()),
    )
    assert proc.returncode == 2
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["error"] == "ConfigError"
    assert "internal" not in report
    assert report["path"].endswith("manifest.json")
    assert report.get("field") == field
    if field is not None:
        assert repr(field) in report["message"]
    assert not out.exists()


def test_a_label_that_is_not_unicode_exits_2(example_manifest, example_result_text, tmp_path):
    out, weights = tmp_path / "out", tmp_path / "weights.csv"
    weights.write_text("not,a,weights,file\n")  # the label is refused before any input is read
    proc = run_cli("run", "--manifest", example_manifest, "--weights", str(weights),
                   "--country", "bad\udcff", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["error"] == "ConfigError" and "internal" not in report
    assert not (out / "scenario_result.json").exists()
    doc = json.loads(example_result_text)
    doc["country"] = "bad\udcff"
    result = tmp_path / "scenario_result.json"
    result.write_text(json.dumps(doc))
    proc = run_cli("compare", str(result), "--period", "2020-05", "--out", str(tmp_path / "t.csv"))
    report = _input_error_report(proc, result)
    assert "not valid Unicode" in report["message"]
    assert not (tmp_path / "t.csv").exists()


def test_non_utf8_manifest_exits_2(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(b'{"country_label": "caf\xe9"}')
    proc = run_cli("run", "--manifest", str(manifest), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert "internal" not in report
    assert report["path"] == str(manifest)


def _input_error_report(proc, path) -> dict:
    assert proc.returncode == 2, proc.stderr
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert "internal" not in report
    assert report["path"] == str(path)
    return report


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("name, bad_line", [
    ("weights.csv", 3),
    ("prices.csv", 3),
    ("expenditures.csv", 610),  # past the reader's first decoded block
])
def test_non_utf8_csv_input_exits_2_with_line(example_dir, tmp_path, command, name, bad_line):
    lines = (example_dir / name).read_bytes().splitlines(keepends=True)
    lines.insert(bad_line - 1, lines[bad_line - 2].replace(b",", b"\xe9,", 1))
    path = tmp_path / name
    path.write_bytes(b"".join(lines))
    proc = run_cli(
        command, "--manifest", str(example_dir / "manifest.json"),
        f"--{name[:-4]}", str(path),
        *(("--out", str(tmp_path / "out")) if command == "run" else ()),
    )
    report = _input_error_report(proc, path)
    assert report["error"] == "MalformedRecordError"
    assert report["line"] == str(bad_line)
    assert "UTF-8" in report["message"]


def test_non_utf8_crosswalk_exits_2(example_dir, tmp_path):
    spec = tmp_path / "crosswalk.yaml"
    spec.write_bytes((example_dir.parent / "israel_crosswalk.yaml").read_bytes() + b"# caf\xe9\n")
    proc = run_cli("validate", "--manifest", str(example_dir / "manifest.json"),
                   "--crosswalk", str(spec))
    assert _input_error_report(proc, spec)["error"] == "SpecInvalidError"


def test_non_utf8_result_file_exits_2(example_manifest, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--manifest", example_manifest, "--out", str(out)).returncode == 0
    result = out / "scenario_result.json"
    result.write_bytes(result.read_bytes().replace(b'"schema"', b'"sch\xe9ma"', 1))
    proc = run_cli("compare", str(result), "--period", "2020-05")
    assert "not valid JSON" in _input_error_report(proc, result)["message"]


def test_non_utf8_economy_exits_2(example_dir, tmp_path):
    economy = tmp_path / "economy.json"
    economy.write_bytes((example_dir / "economy.json").read_bytes().replace(b"{", b"{\xe9", 1))
    proc = run_cli("generate", "--economy", str(economy), "--out", str(tmp_path / "gen"))
    assert _input_error_report(proc, economy)["error"] == "InvalidEconomySpecError"
    assert not (tmp_path / "gen").exists()


def test_manifest_null_fields_count_as_absent(example_dir, tmp_path):
    manifest = json.loads((example_dir / "manifest.json").read_text())
    for key in ("weights", "prices", "expenditures", "crosswalk"):
        manifest[key] = str(example_dir / manifest[key])
    manifest.update({"annual_method": None, "lockdowns": None})
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    proc = run_cli("run", "--manifest", str(tmp_path / "manifest.json"), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in out.iterdir()} == EXPECTED_OUTPUTS


@pytest.mark.parametrize("command", ["run", "validate"])
def test_crosswalk_with_non_list_rules_exits_2(example_manifest, tmp_path, command):
    spec = tmp_path / "crosswalk.yaml"
    spec.write_text("version: 'x'\nrules: 5\n")
    proc = run_cli(
        command, "--manifest", example_manifest, "--crosswalk", str(spec),
        *(("--out", str(tmp_path / "out")) if command == "run" else ()),
    )
    assert proc.returncode == 2
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["error"] == "SpecInvalidError"
    assert "internal" not in report
    assert report["path"].endswith("crosswalk.yaml")


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
    assert proc.stdout == "ok: 11 items, 11 categories, 18 panel months, 11 price series\n"


@pytest.mark.parametrize("changes, error", [
    ({"annual_method": ""}, "ConfigError"),
    ({"base_months": ["2019-01"]}, "BaseMonthMissingError"),
    ({"core_exclude": ["nope"]}, "UnknownItemError"),
    ({"fixed_weight_month": "2030-01"}, "FixedMonthOutOfRangeError"),
])
def test_validate_refuses_what_run_refuses(example_dir, tmp_path, changes, error):
    manifest = _manifest_file(example_dir, tmp_path, **changes)
    for command, out in (("run", ("--out", str(tmp_path / "out"))), ("validate", ())):
        proc = run_cli(command, "--manifest", manifest, *out)
        assert proc.returncode == 2, (command, proc.stdout, proc.stderr)
        report = json.loads(proc.stderr.strip().splitlines()[-1])
        assert report["error"] == error, command
        assert "internal" not in report
        assert "ok:" not in proc.stdout


@pytest.mark.parametrize("relative", ["1e308", "1e25"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_price_relative_at_the_limit_exits_2_with_line(example_dir, tmp_path, relative, command):
    lines = (example_dir / "prices.csv").read_text().splitlines(keepends=True)
    item, period, _ = lines[5].split(",")
    lines[5] = f"{item},{period},{relative}\n"
    prices = tmp_path / "prices.csv"
    prices.write_text("".join(lines))
    out = ("--out", str(tmp_path / "out")) if command == "run" else ()
    proc = run_cli(command, "--manifest", str(example_dir / "manifest.json"),
                   "--prices", str(prices), *out)
    report = _input_error_report(proc, prices)
    assert report["error"] == "SchemaError"
    assert (report["line"], report["column"]) == ("6", "relative")
    assert "not below 1e+25" in report["message"]
    assert not (tmp_path / "out" / "scenario_result.json").exists()


def _prices_ten_years_on(example_dir, tmp_path) -> dict:
    text = (example_dir / "prices.csv").read_text()
    (tmp_path / "prices.csv").write_text(
        re.sub(r",(\d{4})-", lambda m: f",{int(m[1]) + 10}-", text)
    )
    return {"prices": str(tmp_path / "prices.csv")}


def _no_base_restaurants(example_dir, tmp_path) -> dict:
    lines = (example_dir / "expenditures.csv").read_text().splitlines(keepends=True)
    (tmp_path / "expenditures.csv").write_text(
        "".join(line for line in lines if not re.match("2020-0[12]-..,restaurants,", line))
    )
    return {"expenditures": str(tmp_path / "expenditures.csv")}


def _no_april_fuel(example_dir, tmp_path) -> dict:
    lines = (example_dir / "expenditures.csv").read_text().splitlines(keepends=True)
    (tmp_path / "expenditures.csv").write_text(
        "".join(line for line in lines if not re.match("2020-04-..,fuel,", line))
    )
    return {"expenditures": str(tmp_path / "expenditures.csv")}


def _fuel_underflows(example_dir, tmp_path) -> dict:
    text = (example_dir / "expenditures.csv").read_text()
    (tmp_path / "expenditures.csv").write_text(re.sub(r",fuel,.*", ",fuel,1e-400", text))
    return {"expenditures": str(tmp_path / "expenditures.csv")}


@pytest.mark.parametrize("inputs, changes, error", [
    (_prices_ten_years_on, {}, "NoOverlappingPeriodsError"),
    (_no_base_restaurants, {}, "ZeroBaseError"),
    (_no_base_restaurants, {"per_day_base": True}, "ZeroBaseError"),
    # two faults: the first that `run` meets is the one reported
    (_no_base_restaurants, {"core_exclude": ["nope"]}, "ZeroBaseError"),
    (_prices_ten_years_on, {"core_exclude": ["nope"]}, "NoOverlappingPeriodsError"),
    (None, {"core_exclude": ["nope"], "fixed_weight_month": "2030-01"},
     "FixedMonthOutOfRangeError"),
    (None, {"core_exclude": ["nope"], "base_months": ["2019-01"]}, "BaseMonthMissingError"),
    # a zero relative is run's last check: checks made without the relatives come first
    (_no_april_fuel, {"fixed_weight_month": "2030-01"}, "FixedMonthOutOfRangeError"),
    (_no_april_fuel, {"core_exclude": ["nope"]}, "UnknownItemError"),
    (_fuel_underflows, {}, "ZeroBaseError"),  # a base > 0 that is 0.0 as a float
])
def test_validate_and_run_report_the_same_error(example_dir, tmp_path, inputs, changes, error):
    if inputs is not None:
        changes = {**inputs(example_dir, tmp_path), **changes}
    manifest = _manifest_file(example_dir, tmp_path, **changes)
    reports = []
    for command, out in (("run", ("--out", str(tmp_path / "out"))), ("validate", ())):
        proc = run_cli(command, "--manifest", manifest, *out)
        assert proc.returncode == 2, (command, proc.stdout, proc.stderr)
        assert "ok:" not in proc.stdout
        reports.append(json.loads(proc.stderr.strip().splitlines()[-1]))
    assert reports[0] == reports[1]
    assert reports[0]["error"] == error and "internal" not in reports[0]


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


@pytest.mark.parametrize("shape", ["other-schema", "list"])
def test_compare_rejects_non_result_documents(example_manifest, tmp_path, shape):
    out = tmp_path / "out"
    assert run_cli("run", "--manifest", example_manifest, "--out", str(out)).returncode == 0
    doc = json.loads((out / "scenario_result.json").read_text())
    doc["schema"] = "something/else"
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc if shape == "other-schema" else [doc]))
    proc = run_cli("compare", str(other), "--period", "2020-05")
    assert proc.returncode == 2
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert "not a scenario result file" in report["message"]
    assert "internal" not in report
    if shape == "other-schema":
        assert "something/else" in report["message"]


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


def test_info_log_reports_axis_and_dropped_months(example_manifest, tmp_path, monkeypatch):
    monkeypatch.delenv("BASKETFLEX_LOG", raising=False)
    quiet, chatty = tmp_path / "quiet", tmp_path / "chatty"
    default = run_cli("run", "--manifest", example_manifest, "--out", str(quiet))
    info = run_cli(
        "run", "--manifest", example_manifest, "--out", str(chatty),
        env={"BASKETFLEX_LOG": "info"},
    )
    assert default.returncode == 0 and info.returncode == 0, info.stderr
    assert "scenario axis: 2020-02..2021-06, 17 months" in info.stderr
    # the panel starts at the base month 2020-01, the price relatives a month later
    assert "months dropped: no expenditure relatives [none]; no price relatives [2020-01]" in (
        info.stderr
    )
    assert "scenario axis" not in default.stderr
    assert "months dropped" not in default.stderr
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


@pytest.mark.parametrize("command, out, written", [
    ("generate", "a-file", "a-file/weights.csv"),
    ("generate", "a-file/sub", "a-file/sub/weights.csv"),
    ("compare", "a-dir", "a-dir"),
    ("compare", "a-file/table.csv", "a-file/table.csv"),
])
def test_unusable_out_path_exits_2(example_dir, example_result_text, tmp_path, command, out,
                                   written):
    (tmp_path / "a-file").write_text("")
    (tmp_path / "a-dir").mkdir()
    if command == "generate":
        args = ["generate", "--economy", str(example_dir / "economy.json")]
    else:
        result = tmp_path / "result.json"
        result.write_text(example_result_text)
        args = ["compare", str(result), "--period", "2020-05"]
    proc = run_cli(*args, "--out", str(tmp_path / out))
    _input_error_report(proc, tmp_path / written)
    assert list(tmp_path.rglob(".tmp-*")) == []


@pytest.mark.parametrize("command, directory, kept", [
    ("generate", "prices.csv", "weights.csv"),
    ("run", "bias.csv", "scenario_result.json"),
])
def test_an_output_that_is_a_directory_replaces_no_file(example_dir, tmp_path, command,
                                                         directory, kept):
    out = tmp_path / "out"
    out.mkdir()
    (out / kept).write_text("previous\n")
    (out / directory).mkdir()
    if command == "generate":
        args = ["generate", "--economy", str(example_dir / "economy.json")]
    else:
        args = ["run", "--manifest", str(example_dir / "manifest.json")]
    proc = run_cli(*args, "--out", str(out))
    assert "Is a directory" in _input_error_report(proc, out / directory)["message"]
    assert sorted(p.name for p in out.iterdir()) == sorted([kept, directory])
    assert (out / kept).read_text() == "previous\n"


@pytest.mark.parametrize("extra, flags, bad_line", [
    ("2020-03-05,fuel,1e999999999\n", (), 610),
    ("2020-03-05,fuel,-1e999999999\n", ("--allow-negative-amounts",), 610),
    # each amount fits the decimal context, but not the amount bound
    ("2020-03-05,fuel,9e999999\n2020-03-06,fuel,9e999999\n", (), 610),
    # two monthly totals whose base-period sum would overflow the decimal context
    ("2020-01-05,restaurants,6e999999\n2020-02-06,restaurants,6e999999\n", (), 610),
    # a monthly total beyond the float range
    ("2020-01-05,restaurants,1e500\n", (), 610),
])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_amount_overflow_exits_2_with_line(example_dir, tmp_path, extra, flags, bad_line, command):
    ledger = tmp_path / "expenditures.csv"
    ledger.write_text((example_dir / "expenditures.csv").read_text() + extra)
    assert len((example_dir / "expenditures.csv").read_text().splitlines()) == 609
    out = ("--out", str(tmp_path / "out")) if command == "run" else ()
    proc = run_cli(command, "--manifest", str(example_dir / "manifest.json"),
                   "--expenditures", str(ledger), *flags, *out)
    report = _input_error_report(proc, ledger)
    assert report["error"] == "MalformedRecordError"
    assert report["line"] == str(bad_line)
    assert "1E+15" in report["message"]


def test_importing_the_cli_leaves_pyyaml_unloaded():
    code = ("import sys, basketflex.cli; "
            "print(sorted({'yaml', 'click', 'basketflex.synth'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_public_names_and_submodules_resolve_on_access():
    code = """
import importlib, pkgutil, sys
import basketflex
assert [m for m in sys.modules if m.startswith("basketflex.")] == [], sys.modules
for name in basketflex.__all__:
    value = getattr(basketflex, name)
    module = getattr(value, "__module__", "basketflex")
    assert getattr(importlib.import_module(module), name) is value, name
for info in pkgutil.iter_modules(basketflex.__path__):
    assert getattr(basketflex, info.name) is sys.modules["basketflex." + info.name]
print(len(basketflex.__all__))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 39


@pytest.fixture(scope="module")
def example_result_text(example_manifest, tmp_path_factory) -> str:
    out = tmp_path_factory.mktemp("run")
    assert run_cli("run", "--manifest", example_manifest, "--out", str(out)).returncode == 0
    return (out / "scenario_result.json").read_text()


@pytest.mark.parametrize("command, encoding, escaped", [
    ("run", "utf-8:strict", "o\\udcff"),
    ("generate", "utf-8:strict", "o\\udcff"),
    ("compare --out", "utf-8:strict", "o\\udcff.csv"),
    ("compare", "ascii:strict", "\\u05d9\\u05e9\\u05e8\\u05d0\\u05dc"),
], ids=["run", "generate", "compare-out", "compare-label"])
def test_printed_lines_never_fail_to_encode(example_dir, example_manifest, example_result_text,
                                            tmp_path, command, encoding, escaped):
    # a path that is not UTF-8, or a label stdout's encoding lacks, prints escaped
    doc = json.loads(example_result_text)
    doc["country"] = "\u05d9\u05e9\u05e8\u05d0\u05dc"  # Israel, in Hebrew
    result = tmp_path / "scenario_result.json"
    result.write_text(json.dumps(doc))
    out = str(tmp_path / "o\udcff")
    args = {
        "run": ("run", "--manifest", example_manifest, "--out", out),
        "generate": ("generate", "--economy", str(example_dir / "economy.json"), "--out", out),
        "compare --out": ("compare", str(result), "--period", "2020-05", "--out", out + ".csv"),
        "compare": ("compare", str(result), "--period", "2020-05"),
    }[command]
    proc = run_cli(*args, env={"PYTHONIOENCODING": encoding})
    assert proc.returncode == 0, proc.stderr
    assert escaped in proc.stdout and proc.stderr == ""


@pytest.mark.parametrize("field, mangle", [
    ("config.base_months", lambda d: d["config"].update(base_months="2020-01")),
    ("weights.official[0].shares",
     lambda d: d["weights"]["official"][0].update(shares={"food": "0.5", "energy": "0.5"})),
    ("bias[3].monthly_pp", lambda d: d["bias"][3].update(monthly_pp="-0.1")),
    ("series.adjusted[2].contributions", lambda d: d["series"]["adjusted"][2].update(
        contributions=[])),
    ("config.lockdown_windows[1]", lambda d: d["config"].update(
        lockdown_windows=[["2020-03-01", "2020-05-31"], ["2020-09-01"]])),
    ("periods[0]", lambda d: d["periods"].__setitem__(0, "2020-13")),
    ("series.core_official", lambda d: d["series"].pop("core_official")),
    ("bias[0].monthly_pp", lambda d: d["bias"][0].update(monthly_pp=float("nan"))),
    ("series.official[1].annual_pct", lambda d: d["series"]["official"][1].update(
        annual_pct=float("1e400"))),
    ("weights.adjusted[0].shares", lambda d: d["weights"]["adjusted"][0]["shares"].update(
        food=10**400)),
])
def test_compare_names_the_bad_result_field(example_result_text, tmp_path, field, mangle):
    doc = json.loads(example_result_text)
    mangle(doc)
    result = tmp_path / "scenario_result.json"
    result.write_text(json.dumps(doc))
    proc = run_cli("compare", str(result), "--period", "2020-05")
    report = _input_error_report(proc, result)
    assert report["field"] == field
    assert "not a scenario result file" in report["message"]
    assert field in report["message"]
    assert "not supported between" not in report["message"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_written_files_follow_the_umask(example_dir, tmp_path, umask):
    manifest = str(example_dir / "manifest.json")
    old = os.umask(umask)
    try:
        cli.dispatch(["run", "--manifest", manifest, "--out", str(tmp_path / "run")])
        cli.dispatch(["generate", "--economy", str(example_dir / "economy.json"),
                      "--out", str(tmp_path / "gen")])
        cli.dispatch(["compare", str(tmp_path / "run" / "scenario_result.json"),
                      "--period", "2020-05", "--out", str(tmp_path / "compare.csv")])
    finally:
        os.umask(old)
    files = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert len(files) == len(EXPECTED_OUTPUTS) + 3 + 1
    assert {oct(stat.S_IMODE(p.stat().st_mode)) for p in files} == {oct(0o666 & ~umask)}


def _compare_peak(paths) -> int:
    """tracemalloc peak of one in-process ``compare`` over ``paths``."""
    tracemalloc.start()
    try:
        cli.dispatch(["compare", *map(str, paths), "--period", "2020-05"])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compare_holds_one_result_at_a_time(example_result_text, tmp_path, capsys):
    paths = []
    for k in range(4):
        paths.append(tmp_path / f"result{k}.json")
        paths[-1].write_text(example_result_text)
    _compare_peak(paths[:1])  # warm-up: first-use imports and caches
    one, four = _compare_peak(paths[:1]), _compare_peak(paths)
    assert capsys.readouterr().out.count("synthetic-israel") == 1 + 1 + 4
    assert four < 1.3 * one, (one, four)


def test_compare_reports_the_first_problem_in_argument_order(example_result_text, tmp_path):
    doc = json.loads(example_result_text)
    doc["country"] = "first-file"
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps(doc))
    second.write_text("{not json")
    proc = run_cli("compare", str(first), str(second), "--period", "2030-01")
    assert proc.returncode == 2
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["error"] == "PeriodNotCoveredError"
    assert "'first-file'" in report["message"]
    assert "internal" not in report
    # the other order reports the malformed file
    proc = run_cli("compare", str(second), str(first), "--period", "2030-01")
    assert _input_error_report(proc, second)["error"] == "BasketflexError"


def test_compare_names_the_result_that_lacks_the_period(example_result_text, tmp_path):
    covering, lacking = tmp_path / "covering.json", tmp_path / "lacking.json"
    covering.write_text(example_result_text)
    doc = json.loads(example_result_text)
    doc["bias"] = [b for b in doc["bias"] if b["period"] != "2020-05"]
    lacking.write_text(json.dumps(doc))
    for order in ((covering, lacking), (lacking, covering)):
        proc = run_cli("compare", *map(str, order), "--period", "2020-05")
        report = _input_error_report(proc, lacking)
        assert report["error"] == "PeriodNotCoveredError"
        assert report["period"] == "2020-05"
    # neither covers 2030-01: the first in argument order is named
    proc = run_cli("compare", str(lacking), str(covering), "--period", "2030-01")
    assert _input_error_report(proc, lacking)["error"] == "PeriodNotCoveredError"


def test_run_empty_country_flag_overrides_the_manifest(example_manifest, tmp_path):
    out = tmp_path / "out"
    proc = run_cli("run", "--manifest", example_manifest, "--country", "", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "scenario_result.json").read_text())["country"] == ""


def test_run_empty_lockdowns_flag_means_none(example_manifest, tmp_path):
    out = tmp_path / "out"
    proc = run_cli("run", "--manifest", example_manifest, "--lockdowns", "", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "scenario_result.json").read_text())["config"]["lockdown_windows"] == []


def test_run_empty_manifest_values_keep_their_meaning(example_dir, tmp_path):
    # an empty `out` is the manifest's directory and an empty
    # `fixed_weight_month` freezes nothing; only explicit flags are strict
    manifest = json.loads((example_dir / "manifest.json").read_text())
    for key in ("weights", "prices", "expenditures", "crosswalk"):
        manifest[key] = str(example_dir / manifest[key])
    manifest.update(out="", fixed_weight_month="")
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    proc = run_cli("run", "--manifest", str(tmp_path / "manifest.json"))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "scenario_result.json").read_text())
    assert doc["config"]["fixed_weight_month"] is None


@pytest.mark.parametrize("flag", ["--fixed-weight-month", "--out"])
def test_run_empty_flag_exits_2_instead_of_using_the_manifest(example_dir, tmp_path, flag):
    manifest = json.loads((example_dir / "manifest.json").read_text())
    for key in ("weights", "prices", "expenditures", "crosswalk"):
        manifest[key] = str(example_dir / manifest[key])
    manifest.update(out=str(tmp_path / "from-manifest"), fixed_weight_month="2020-04")
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    args = ["run", "--manifest", str(tmp_path / "manifest.json"), flag, ""]
    if flag != "--out":
        args += ["--out", str(tmp_path / "out")]
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert "internal" not in json.loads(proc.stderr.strip().splitlines()[-1])
    assert not (tmp_path / "from-manifest").exists()
    assert not (tmp_path / "out" / "scenario_result.json").exists()


def _manifest_file(example_dir, tmp_path, **changes) -> str:
    """The bundled manifest with absolute input paths and ``changes``, in ``tmp_path``."""
    manifest = json.loads((example_dir / "manifest.json").read_text())
    for key in ("weights", "prices", "expenditures", "crosswalk"):
        manifest[key] = str(example_dir / manifest[key])
    manifest.update(changes)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    return str(tmp_path / "manifest.json")


@pytest.mark.parametrize("changes, flags, key, value", [
    ({"fixed_weight_month": ""}, (), "fixed_weight_month", None),
    ({"lockdowns": ""}, (), "lockdown_windows", []),
    ({"core_exclude": []}, (), "core_exclusions", []),
    ({"country_label": ""}, (), "country", ""),
    ({}, ("--country", ""), "country", ""),
    ({}, ("--lockdowns", ""), "lockdown_windows", []),
    ({}, ("--core-exclude", ""), "core_exclusions", []),
])
def test_empty_values_keep_their_meaning(example_dir, tmp_path, changes, flags, key, value):
    # `"out": ""` is the manifest's directory in every case
    manifest = _manifest_file(example_dir, tmp_path, out="", **changes)
    cli.dispatch(["run", "--manifest", manifest, *flags])
    doc = json.loads((tmp_path / "scenario_result.json").read_text())
    assert {**doc, **doc["config"]}[key] == value


@pytest.mark.parametrize("changes, error, message", [
    ({"annual_method": ""}, ConfigError, "annual_method must be one of"),
    ({"base_months": []}, ConfigError, "at least one base month"),
    ({"weights": ""}, BasketflexError, "no weights file given"),
    ({"crosswalk": ""}, BasketflexError, "no crosswalk file given"),
])
def test_empty_manifest_values_that_are_errors(example_dir, tmp_path, changes, error, message):
    manifest = _manifest_file(example_dir, tmp_path, out="out", **changes)
    with pytest.raises(error, match=message):
        cli.dispatch(["run", "--manifest", manifest])
    assert not (tmp_path / "out" / "scenario_result.json").exists()


@pytest.mark.parametrize("field, value", [
    ("max_records_per_month", 0),
    ("months", 10**9),
    ("months", 2.7),
])
def test_generate_refuses_unbounded_economies(example_dir, tmp_path, field, value):
    doc = json.loads((example_dir / "economy.json").read_text())
    doc[field] = value
    economy = tmp_path / "economy.json"
    economy.write_text(json.dumps(doc))
    proc = run_cli("generate", "--economy", str(economy), "--out", str(tmp_path / "gen"))
    report = _input_error_report(proc, economy)
    assert report["error"] == "InvalidEconomySpecError"
    assert field in report["message"]
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("field, mangle", [
    ("base_drifts.food", lambda d: d.update(base_drifts={"food": "1e9999"})),
    ("items[0].base_price", lambda d: d["items"][0].update(base_price="1e999990")),
    ("shock_windows[0].quantity_multipliers.transport",
     lambda d: d["shock_windows"][0]["quantity_multipliers"].update(transport="1e400")),
    ("items[1].base_quantity", lambda d: d["items"][1].update(base_quantity="1e-61")),
    # 1e4 is a small number, but not compounded over the 17 months of the horizon
    ("shock_windows[0].price_drifts.food",
     lambda d: d["shock_windows"][0]["price_drifts"].update(food="1e4")),
], ids=["drift", "price", "multiplier", "quantity", "compounded-drift"])
def test_generate_bounds_economy_magnitudes(example_dir, tmp_path, field, mangle):
    # each exited 3 ("internal": true) with a non-finite weight or an
    # InvalidOperation when the decimals were unbounded
    doc = json.loads((example_dir / "economy.json").read_text())
    mangle(doc)
    economy = tmp_path / "economy.json"
    economy.write_text(json.dumps(doc))
    proc = run_cli("generate", "--economy", str(economy), "--out", str(tmp_path / "gen"))
    report = _input_error_report(proc, economy)
    assert report["error"] == "InvalidEconomySpecError"
    assert report["field"] == field
    assert "must lie within 1e-60..1e60" in report["message"]
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("field, mangle", [
    ("items", lambda d: d.update(items={"food": {}})),
    ("items[0]", lambda d: d["items"].__setitem__(0, "food")),
    ("items[0].id", lambda d: d["items"][0].update(id=None)),
    ("items[0].categories", lambda d: d["items"][0].update(categories=[["food-stores", "1"]])),
    ("start", lambda d: d.update(start=202001)),
    ("shock_windows[0].end", lambda d: d["shock_windows"][0].pop("end")),
    ("base_drifts", lambda d: d.update(base_drifts=["1.001"])),
    ("items[0].base_price", lambda d: d["items"][0].update(base_price="NaN")),
    ("shock_windows[1].price_drifts", lambda d: d["shock_windows"][1].update(
        price_drifts={"food": "Infinity"})),
])
def test_generate_names_the_bad_economy_field(example_dir, tmp_path, field, mangle):
    doc = json.loads((example_dir / "economy.json").read_text())
    mangle(doc)
    economy = tmp_path / "economy.json"
    economy.write_text(json.dumps(doc))
    proc = run_cli("generate", "--economy", str(economy), "--out", str(tmp_path / "gen"))
    report = _input_error_report(proc, economy)
    assert report["error"] == "InvalidEconomySpecError"
    assert report["field"] == field
    assert repr(field) in report["message"]
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("text", [
    '{"country_label": 1' + "0" * 5000 + "}",  # an integer too long to convert
    "[" * 100_000 + "]" * 100_000,
], ids=["long-integer", "deep-nesting"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_unconvertible_json_exits_2(tmp_path, command, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    if command == "run":
        proc = run_cli("run", "--manifest", str(path), "--out", str(tmp_path / "out"))
    else:
        proc = run_cli("compare", str(path), "--period", "2020-05")
    assert "not valid JSON" in _input_error_report(proc, path)["message"]


@pytest.mark.parametrize("args, message", [
    ((), "the following arguments are required"),
    (("bogus",), "invalid choice: 'bogus'"),
    (("run", "--manif", "manifest.json"), "unrecognized arguments: --manif"),
    (("run", "-h"), "unrecognized arguments: -h"),
    (("run", "--annual-method", "foo"), "invalid choice: 'foo'"),
    (("run", "--out"), "expected one argument"),
    (("compare", "result.json"), "required: --period"),
    (("generate", "--out", "gen"), "required: --economy"),
    (("compare", "--period", "2020-05"), "required: RESULT"),
])
def test_usage_errors_exit_2_with_a_report(args, message):
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert "Usage" in proc.stderr
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["error"] == "UsageError"
    assert message in report["message"]
    assert "internal" not in report


@pytest.mark.parametrize("command", ["run", "validate", "generate", "compare"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_missing_or_directory_input_path_exits_2_with_path(tmp_path, command, kind):
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    args = {
        "run": ("run", "--manifest", str(path), "--out", str(tmp_path / "out")),
        "validate": ("validate", "--manifest", str(path)),
        "generate": ("generate", "--economy", str(path), "--out", str(tmp_path / "gen")),
        "compare": ("compare", str(path), "--period", "2020-05"),
    }[command]
    proc = run_cli(*args)
    assert _input_error_report(proc, path)["error"] == "BasketflexError"
    assert "Usage" not in proc.stderr


def test_compare_accepts_options_between_result_paths(example_result_text, tmp_path):
    paths = []
    for country in ("first", "second"):
        doc = json.loads(example_result_text)
        doc["country"] = country
        paths.append(tmp_path / f"{country}.json")
        paths[-1].write_text(json.dumps(doc))
    proc = run_cli("compare", str(paths[0]), "--period", "2020-05", str(paths[1]),
                   "--out=" + str(tmp_path / "table.csv"))
    assert proc.returncode == 0, proc.stderr
    table = (tmp_path / "table.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in table[1:]] == ["first", "second"]


def test_run_accepts_option_equals_value(example_manifest, tmp_path):
    out = tmp_path / "out"
    proc = run_cli("run", "--manifest=" + example_manifest, f"--out={out}")
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in out.iterdir()} == EXPECTED_OUTPUTS


@pytest.mark.parametrize("args", [("--help",), ("run", "--help"), ("compare", "--help")])
def test_help_exits_0(args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("Usage: basketflex")
    assert "--help" in proc.stdout
    if args[0] == "run":
        assert "--allow-negative-amounts" in proc.stdout


def test_command_callbacks_are_looked_up_when_called(monkeypatch, example_manifest):
    calls = []
    monkeypatch.setattr(cli.cmd_compare, "callback", lambda **args: calls.append(args))
    cli.dispatch(["compare", example_manifest, "--period", "2020-05", "--out=x.csv"])
    assert calls == [{"results": [Path(example_manifest)], "period": "2020-05", "out": "x.csv"}]


@pytest.mark.parametrize("value, verbose", [
    ("basic_format", False),  # logging.BASIC_FORMAT, a format string, not a level
    ("notset", False),  # logging.NOTSET, level 0: every message
    ("raiseexceptions", False),
    ("", False),
    ("Info", True),
    ("DEBUG", True),
])
def test_log_env_var_accepts_only_level_names(example_manifest, tmp_path, value, verbose):
    proc = run_cli("run", "--manifest", example_manifest, "--out", str(tmp_path / "out"),
                   env={"BASKETFLEX_LOG": value})
    assert proc.returncode == 0, proc.stderr
    assert ("scenario axis" in proc.stderr) == verbose


# Keys and values of the three documents' shapes, so that drawn documents often
# get past their first checks.
_KEYS = st.sampled_from([
    "items", "id", "label", "base_price", "base_quantity", "categories", "months", "start",
    "end", "base_months", "seed", "max_records_per_month", "base_drifts", "shock_windows",
    "quantity_multipliers", "price_drifts", "schema", "country", "config", "periods",
    "weights", "official", "adjusted", "series", "core_official", "core_adjusted", "bias",
    "core_bias", "period", "shares", "monthly_pct", "monthly_pp", "annual_pct", "annual_pp",
    "contributions", "raw_sum", "core_exclusions", "lockdown_windows", "fixed_weight_month",
    "annual_method", "per_day_base", "prices", "expenditures", "crosswalk", "out",
    "core_exclude", "lockdowns", "country_label", "allow_negative_amounts",
]) | st.text(max_size=3)
_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats(-1e3, 1e3)
    | st.sampled_from(["", "1", "0.5", "-1", "NaN", "1e999", "2020-01", "2020-03-01",
                       "2020-03-01:2020-05-31", "2020-13", "chained", "csv",
                       "basketflex.scenario_result/1"])
    | st.text(max_size=4)
)
_JSON = st.recursive(
    _SCALARS,
    lambda values: st.lists(values, max_size=3) | st.dictionaries(_KEYS, values, max_size=4),
    max_leaves=12,
)


def _paths(doc, path=()):
    """Every path of keys and indices into ``doc``, the empty one first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, (*path, key))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_misshapen_documents_raise_only_input_errors(example_dir, example_result_text,
                                                      tmp_path_factory, data):
    """Small arbitrary JSON, alone or in place of one value of a bundled document."""
    from basketflex import analysis, synth

    def draw(text: str):
        if data.draw(st.booleans()):
            return data.draw(st.dictionaries(_KEYS, _JSON, max_size=6) | _JSON)
        doc = json.loads(text)
        *path, key = data.draw(st.sampled_from(list(_paths(doc))[1:]))
        parent = functools.reduce(operator.getitem, path, doc)
        if data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(_JSON)
        return doc

    with contextlib.suppress(BasketflexError):
        synth.parse_economy(json.dumps(draw((example_dir / "economy.json").read_text())))
    with contextlib.suppress(BasketflexError, ValueError):  # _read_result maps ValueError
        analysis.result_from_dict(draw(example_result_text))
    manifest = tmp_path_factory.getbasetemp() / "fuzzed-manifest.json"
    manifest.write_text(json.dumps(draw((example_dir / "manifest.json").read_text())))
    with contextlib.suppress(BasketflexError):
        cli._manifest_from(manifest).config()


# `basketflex run --help` and `validate --help` at 80 columns: option names,
# order, metavars and help text, all built from the manifest's field table.
RUN_HELP = """\
Usage: basketflex run [--help] [--manifest MANIFEST] [--weights WEIGHTS]
                      [--prices PRICES] [--expenditures EXPENDITURES]
                      [--crosswalk CROSSWALK] [--base-months BASE_MONTHS]
                      [--allow-negative-amounts] [--core-exclude CORE_EXCLUDE]
                      [--fixed-weight-month FIXED_WEIGHT_MONTH]
                      [--lockdowns LOCKDOWNS] [--country COUNTRY]
                      [--annual-method {chained,fixed_base}] [--per-day-base]
                      [--out OUT]

Run a scenario and write result files into --out.

options:
  --help                Show this message and exit.
  --manifest MANIFEST   JSON manifest carrying any of the other options.
  --weights WEIGHTS     weights.csv path.
  --prices PRICES       prices.csv path.
  --expenditures EXPENDITURES
                        expenditures.csv path (daily records).
  --crosswalk CROSSWALK
                        Crosswalk spec YAML path.
  --base-months BASE_MONTHS
                        Comma-separated base months, e.g. 2020-01,2020-02.
  --allow-negative-amounts
                        Accept negative daily amounts (refunds/chargebacks).
  --core-exclude CORE_EXCLUDE
                        Comma-separated items excluded from the core index.
  --fixed-weight-month FIXED_WEIGHT_MONTH
                        Freeze adjusted weights at this month (robustness
                        variant).
  --lockdowns LOCKDOWNS
                        Lockdown windows as START:END dates, comma separated
                        (annotation only).
  --country COUNTRY     Label used in comparisons and outputs.
  --annual-method {chained,fixed_base}
                        How 12-month rates are built (default: chained).
  --per-day-base        Normalize month totals by day count before ratios.
  --out OUT             Output directory.
"""
VALIDATE_HELP = """\
Usage: basketflex validate [--help] [--manifest MANIFEST] [--weights WEIGHTS]
                           [--prices PRICES] [--expenditures EXPENDITURES]
                           [--crosswalk CROSSWALK] [--base-months BASE_MONTHS]
                           [--allow-negative-amounts]

Check inputs and crosswalk coverage without running anything.

options:
  --help                Show this message and exit.
  --manifest MANIFEST   JSON manifest carrying any of the other options.
  --weights WEIGHTS     weights.csv path.
  --prices PRICES       prices.csv path.
  --expenditures EXPENDITURES
                        expenditures.csv path (daily records).
  --crosswalk CROSSWALK
                        Crosswalk spec YAML path.
  --base-months BASE_MONTHS
                        Comma-separated base months, e.g. 2020-01,2020-02.
  --allow-negative-amounts
                        Accept negative daily amounts (refunds/chargebacks).
"""


@pytest.mark.parametrize("command, text", [("run", RUN_HELP), ("validate", VALIDATE_HELP)])
def test_help_text_is_unchanged(command, text):
    proc = run_cli(command, "--help", env={"COLUMNS": "80"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == text


@pytest.mark.parametrize("field, changes, flag, message", [
    ("base_months[1]", {"base_months": ["2020-01", "2020-13"]},
     ("--base-months", "2020-01,2020-13"), "month number out of range 1..12: 13"),
    ("fixed_weight_month", {"fixed_weight_month": "2020-4"},
     ("--fixed-weight-month", "2020-4"), "expected a month as YYYY-MM, got '2020-4'"),
    ("lockdowns[1]", {"lockdowns": [["2020-03-01", "2020-05-31"], ["2020-09-01", "2020-13-31"]]},
     ("--lockdowns", "2020-03-01:2020-05-31,2020-09-01:2020-13-31"),
     "bad date '2020-13-31'; expected YYYY-MM-DD"),
    # date.fromisoformat takes both dates from Python 3.11 on
    ("lockdowns[0]", {"lockdowns": [["2020-W09-7", "20200531"]]},
     ("--lockdowns", "2020-W09-7:20200531"), "bad date '2020-W09-7'; expected YYYY-MM-DD"),
], ids=["base-months", "fixed-weight-month", "lockdowns", "lockdowns-iso-week"])
@pytest.mark.parametrize("source", ["manifest", "flag"])
def test_bad_field_value_names_its_field(example_dir, tmp_path, source, field, changes, flag,
                                         message):
    manifest = _manifest_file(example_dir, tmp_path, **(changes if source == "manifest" else {}))
    out = tmp_path / "out"
    proc = run_cli("run", "--manifest", manifest, "--out", str(out),
                   *(flag if source == "flag" else ()))
    assert proc.returncode == 2, proc.stderr
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert (report["error"], report["message"], report["field"]) == (
        "BasketflexError", message, field)
    assert report.get("path") == (manifest if source == "manifest" else None)
    assert not out.exists()


def test_generate_refuses_a_ledger_that_run_refuses(example_dir, tmp_path):
    # a base quantity of 1e20 lies inside the economy's 1e-60..1e60 bound, but
    # its daily amounts do not lie inside ingest's ±1e15
    doc = json.loads((example_dir / "economy.json").read_text())
    doc["items"][0]["base_quantity"] = "1e20"
    economy = tmp_path / "economy.json"
    economy.write_text(json.dumps(doc))
    proc = run_cli("generate", "--economy", str(economy), "--out", str(tmp_path / "gen"))
    report = _input_error_report(proc, economy)
    assert report["error"] == "InvalidEconomySpecError"
    assert (report["field"], report["month"]) == ("items[0]", "2020-01")
    assert "inside ±1E+15" in report["message"]
    assert not (tmp_path / "gen").exists()


# A value of each field of the manifest, and the same value as flag text;
# "{root}" is the manifest's directory, against which its paths resolve.
FIELD_SAMPLES = {
    "weights": ("w.csv", "{root}/w.csv"),
    "prices": ("p.csv", "{root}/p.csv"),
    "expenditures": ("e.csv", "{root}/e.csv"),
    "crosswalk": ("../c.yaml", "{root}/../c.yaml"),
    "base_months": (["2020-01", "2020-02"], "2020-01, 2020-02,"),
    "allow_negative_amounts": (True, None),
    "core_exclude": (["food", "energy"], "food,energy"),
    "fixed_weight_month": ("2020-04", "2020-04"),
    "lockdowns": ([["2020-03-01", "2020-05-31"], ["2020-09-01", "2020-10-31"]],
                  "2020-03-01:2020-05-31,2020-09-01:2020-10-31"),
    "country_label": ("israel", "israel"),
    "annual_method": ("fixed_base", "fixed_base"),
    "per_day_base": (True, None),
    "out": ("results", "{root}/results"),
}


@pytest.mark.parametrize("field", cli._FIELDS, ids=lambda f: f.key)
def test_each_field_reads_alike_from_its_flag_and_the_manifest(tmp_path, monkeypatch, field):
    assert list(FIELD_SAMPLES) == [f.key for f in cli._FIELDS]
    value, text = FIELD_SAMPLES[field.key]
    root = tmp_path.resolve()
    parsed = []
    monkeypatch.setattr(cli.cmd_run, "callback", lambda **flags: parsed.append(flags))

    def run_of(args, doc):
        """What a run uses: its inputs, options and configuration."""
        parsed.clear()
        cli.dispatch(["run", *args])
        (root / "manifest.json").write_text(json.dumps(doc))
        m = cli._manifest_from(root / "manifest.json", **{**parsed[0], "manifest": None})
        return m.inputs, {k: v for k, v in vars(m).items() if k not in ("inputs", "config")}, \
            m.config()

    # a base month, given the same way, so that every configuration can be built
    base = {} if field.key == "base_months" else {"base_months": ["2019-12"]}
    base_flags = () if field.key == "base_months" else ("--base-months", "2019-12")
    flag_args = (field.flag,) if text is None else (field.flag, text.format(root=root))
    from_flag = run_of((*base_flags, *flag_args), {})
    from_manifest = run_of((), {**base, field.key: value})
    assert from_flag == from_manifest
    if field.key != "base_months":
        assert from_flag != run_of(base_flags, {})  # the value is read, not defaulted
