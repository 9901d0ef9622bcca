"""Self-test of the benchmark harness on tiny inputs.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import launcher  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_harness():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_named_metric(workload, trace):
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[1:2] == [m["name"]] and m["unit"] in line.split()
                   for line in child.stdout.splitlines())
    assert "failed_frac" in child.stdout


def _bump_csv(path: Path, column: int) -> None:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    rows[1][column] = repr(float(rows[1][column]) * 1.001 + 1e-6)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text(buf.getvalue())


def _bump_json(path: Path) -> None:
    doc = json.loads(path.read_text())
    doc["series"]["adjusted"][3]["monthly_pct"] += 1e-6
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("target", ["weights.csv", "inflation.csv", "contributions.csv",
                                    "bias.csv", "scenario_result.json"])
def test_corrupted_output_counts_as_failed(monkeypatch, target):
    real = launcher.Launcher.run

    def corrupting(self, argv, log):
        code, rss, wall = real(self, argv, log)
        if argv[0] == "run":
            out = Path(argv[argv.index("--out") + 1]) / target
            if target.endswith(".json"):
                _bump_json(out)
            else:
                _bump_csv(out, {"weights.csv": 3, "contributions.csv": 3}.get(target, 2))
        return code, rss, wall

    monkeypatch.setattr(launcher.Launcher, "run", corrupting)
    out = run.benchmark("variant_sweep", 7, 0, False, ROOT, workloads.TINY)
    assert out["result"]["failed"] >= 3  # every run invocation
    assert out["meta"]["failed_frac"] == out["result"]["failed"] / out["result"]["attempted"] > 0
    assert not out["result"]["correct"]


def test_uncorrupted_run_passes():
    out = run.benchmark("variant_sweep", 7, 0, False, ROOT, workloads.TINY)
    assert out["result"]["correct"] and out["meta"]["failed_frac"] == 0


def test_traced_self_times_fit_in_traced_wall():
    out = run.benchmark("variant_sweep", 7, 0, True, ROOT, workloads.TINY)
    metrics = out["result"]["metrics"]
    iteration = [v["value"] for name, v in metrics.items()
                 if name.endswith(".self_s") and not name.startswith("synth.")]
    assert all(v >= 0 for v in iteration)
    assert sum(iteration) <= out["traced_wall_s"]
    assert metrics["core.fixed_base_annual.calls"]["value"] > 0
    assert metrics["crosswalk.validate.calls"]["value"] == 2 * 3 + 1


def test_refuses_to_run_without_sources(tmp_path):
    child = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "deep_ledger", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
