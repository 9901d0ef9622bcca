"""End-to-end and per-layer benchmark for the ``basketflex`` CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload deep_ledger --seed 1 --seconds 20 --trace 0

The load is closed-loop and sequential: one CLI invocation at a time from
this single process. With ``--trace 0`` every iteration runs the workload's
invocations as ``python -m basketflex.cli`` in fresh subprocesses and the
end-to-end metrics are reported. With ``--trace 1`` the same invocations run
in-process through ``cli.main``, alternately untraced and traced, and the
per-layer metrics are reported. Every invocation's output goes through the
independent gate in ``gate.py``; one that exits non-zero or fails the gate
counts as failed. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See
``bench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import workloads  # noqa: E402
from launcher import Launcher  # noqa: E402
from tracing import Tracer  # noqa: E402

# Set-ups per run: at least three, then more (up to nine) until 3 s have passed.
SETUP_REPS = (3, 9)
SETUP_MIN_S = 3.0
STARTUP_PROBES = 5
ORACLE_TOL = 1e-10

END_TO_END = {"wall_s": "s", "records_per_s": "records/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "ingest.load_expenditures.self_s": "s",
    "ingest.aggregate_daily.self_s": "s",
    "ingest.records": "count",
    "ingest.cells": "count",
    "ingest.bytes_read": "bytes",
    "ingest.peak_alloc_mb": "MB",
    "ingest.load_prices.self_s": "s",
    "ingest.load_weights.self_s": "s",
    "ingest.base_period.self_s": "s",
    "periods.of_date.calls": "count",
    "crosswalk.load_spec.self_s": "s",
    "crosswalk.validate.self_s": "s",
    "crosswalk.validate.calls": "count",
    "crosswalk.apply.self_s": "s",
    "crosswalk.relatives": "count",
    "core.monthly_inflation.self_s": "s",
    "core.monthly_inflation.calls": "count",
    "core.price_lookups": "count",
    "core.adjusted_weights.self_s": "s",
    "core.adjusted_weights.calls": "count",
    "core.exclude_items.self_s": "s",
    "core.chain_annual.self_s": "s",
    "core.weighting_bias.self_s": "s",
    "core.weight_vectors": "count",
    "core.fixed_base_annual.self_s": "s",
    "core.fixed_base_annual.calls": "count",
    "analysis.run_scenario.self_s": "s",
    "analysis.result_to_dict.self_s": "s",
    "analysis.rows.self_s": "s",
    "analysis.result_from_dict.self_s": "s",
    "analysis.compare_countries.self_s": "s",
    "cli.startup_s": "s",
    "cli.cmd_run.self_s": "s",
    "cli._csv_text.self_s": "s",
    "cli._write_atomic.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.invocations": "count",
    "synth.generate.self_s": "s",
    "synth.monthly_spend.calls": "count",
    "trace.overhead_s": "s",
}


def invoke_inprocess(argv: list[str], tracer: Tracer | None) -> tuple[int, str, str]:
    """Run ``cli.main`` in this process; return (exit code, stdout, stderr)."""
    from basketflex import cli

    stdout, stderr, saved = io.StringIO(), io.StringIO(), sys.argv
    sys.argv = ["basketflex", *argv]
    code = 0
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                cli.main()
            else:
                tracer.root(cli.main)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = saved
    return code, stdout.getvalue(), stderr.getvalue()


def _digest(stdout: str, out: Path | None) -> str:
    h = hashlib.sha256(stdout.encode())
    if out is not None:
        for path in sorted(out.iterdir()) if out.is_dir() else [out]:
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class Bench:
    """One workload at one seed: set-up, iterations and the correctness gate."""

    def __init__(self, workload: str, seed: int, root: Path, scale=None):
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.root = root
        self.scale = scale or self.workload.scale
        self.work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._verdicts: dict[str, tuple[str, list[str]]] = {}
        self.inputs = None
        self.reference = None

    # --- set-up -------------------------------------------------------------------

    def setup(self, reps: tuple[int, int] = (1, 1), min_seconds: float = 0.0) -> list[float]:
        """Build the inputs between ``reps[0]`` and ``reps[1]`` times, stopping
        early once ``min_seconds`` have passed. Every rep must write the same bytes.
        """
        import basketflex.synth  # noqa: F401  (importing is not part of building inputs)

        times, first = [], None
        while len(times) < reps[0] or (len(times) < reps[1] and sum(times) < min_seconds):
            t0 = time.perf_counter()
            inputs = workloads.make_inputs(self.workload, self.seed, self.scale)
            workloads.build_inputs(inputs, self.work / "inputs")
            times.append(time.perf_counter() - t0)
            digest = "".join(_digest("", p) for p in sorted(inputs.paths.values()))
            if first is None:
                first = digest
            elif digest != first:
                self.problems.append("set-up is not deterministic: inputs differ between reps")
        self.inputs = inputs
        self.reference = gate.Reference(inputs.paths, inputs.crosswalk.rules,
                                        inputs.crosswalk.reassignments, workloads.BASE_MONTHS,
                                        inputs.core_exclude, inputs.shock_months)
        return times

    @property
    def plan(self):
        return self.inputs.invocations(self.work / "out")

    @property
    def records_per_iteration(self) -> int:
        return self.inputs.records * sum(label != "compare" for label, _, _ in self.plan)

    # --- gate ---------------------------------------------------------------------

    def _check(self, label: str, stdout: str) -> list[str]:
        out = {lab: path for lab, _, path in self.plan}
        ref = self.reference
        try:
            if label == "run":
                return ref.check_run(out["run"]) + self._oracle(out["run"])
            if label == "fixed":
                return ref.check_run(out["fixed"], fixed_month=self.inputs.fixed_month)
            if label == "fixed_base":
                return ref.check_run(out["fixed_base"], annual_method="fixed_base")
            if label == "validate":
                return ref.check_validate(stdout)
            runs = {"dynamic": out["run"], "fixed": out["fixed"], "fixed_base": out["fixed_base"]}
            return gate.check_compare(out["compare"], runs, self.inputs.shock[1])
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            return [f"{label}: malformed output ({exc!r})"]

    def _oracle(self, out: Path) -> list[str]:
        """Identity crosswalk: adjusted weights are the economy's spending shares.

        The synthetic oracle recomputes every price path per call, so it is
        asked for a sample of months: the first, the last, the shock window
        and every twelfth. The gate's own reference covers all months.
        """
        if self.workload.mixed_crosswalk:
            return []
        from basketflex import synth
        from basketflex.periods import Month

        axis = self.reference.axis
        sample = sorted({axis[0], axis[-1], *axis[::12], *self.inputs.shock_months})
        got: dict[str, dict[str, float]] = {}
        for p, basket, item, w, _ in gate.rows(out / "weights.csv"):
            if basket == "adjusted" and p in sample:
                got.setdefault(p, {})[item] = float(w)
        problems = []
        for p in sample:
            want = synth.oracle_adjusted_weights(self.inputs.spec, Month.parse(p)).shares
            worst = max(abs(got.get(p, {}).get(i, float("inf")) - w) for i, w in want.items())
            if not worst <= ORACLE_TOL:
                problems.append(f"{out}: adjusted weights at {p} off the oracle by {worst!r}")
        return problems

    def record(self, label: str, code: int, stdout: str, stderr: str, out: Path | None) -> None:
        """Count one invocation; check its output, fully once per distinct digest."""
        self.attempted += 1
        if code != 0:
            problems = [f"{label}: exit code {code}: {stderr.strip()[-500:]}"]
        else:
            digest = _digest(stdout, out)
            if label not in self._verdicts:
                self._verdicts[label] = (digest, self._check(label, stdout))
            seen, problems = self._verdicts[label]
            if digest != seen:
                problems = [f"{label}: output not byte-identical to the first invocation"]
        if problems:
            self.failed += 1
            self.problems += problems[:5]

    # --- iterations ---------------------------------------------------------------

    def _clear_outputs(self) -> None:
        shutil.rmtree(self.work / "out", ignore_errors=True)
        (self.work / "out").mkdir(parents=True)
        (self.work / "logs").mkdir(exist_ok=True)

    def subprocess_iteration(self, launcher: Launcher) -> tuple[float, float]:
        """All invocations in fresh interpreters; return (wall s, peak RSS MB)."""
        self._clear_outputs()
        plan, logs = self.plan, self.work / "logs"
        done = [launcher.run(argv, logs / label) for label, argv, _ in plan]
        for (label, _, out), (code, _, _) in zip(plan, done):
            self.record(label, code, (logs / f"{label}.out").read_text(),
                        (logs / f"{label}.err").read_text(), out)
        return sum(wall for _, _, wall in done), max(rss for _, rss, _ in done) / 1024

    def inprocess_iteration(self, tracer: Tracer | None = None) -> float:
        self._clear_outputs()
        plan, done = self.plan, []
        t0 = time.perf_counter()
        for _, argv, _ in plan:
            done.append(invoke_inprocess(argv, tracer))
        wall = time.perf_counter() - t0
        for (label, _, out), (code, stdout, stderr) in zip(plan, done):
            self.record(label, code, stdout, stderr, out)
        return wall

    def startup_seconds(self) -> float:
        """Fresh interpreter until ``import basketflex.cli`` returns."""
        t0 = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", "import time, basketflex.cli; print(time.perf_counter())"],
            env=self.env, cwd=self.root, capture_output=True, text=True, check=True)
        return float(child.stdout) - t0

    def ingest_peak_mb(self) -> float:
        """tracemalloc peak over loading and aggregating the expenditure file."""
        from basketflex import ingest

        tracemalloc.start()
        try:
            ingest.aggregate_daily(ingest.load_expenditures(self.inputs.paths["expenditures"]))
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _until(deadline: float, step) -> list:
    samples = [step()]
    while time.perf_counter() < deadline:
        samples.append(step())
    return samples


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    launcher = Launcher(bench.env, bench.root)  # started while this process is still small
    try:
        setups = bench.setup(SETUP_REPS, SETUP_MIN_S)
        bench.startup_seconds()  # compiles bytecode in a fresh checkout before timing
        samples = _until(time.perf_counter() + seconds,
                         lambda: bench.subprocess_iteration(launcher))
    finally:
        launcher.close()
    walls = [w for w, _ in samples]
    wall = statistics.median(walls)
    values = {
        "wall_s": (wall, len(walls)),
        "records_per_s": (bench.records_per_iteration / wall, len(walls)),
        "peak_rss_mb": (statistics.median(rss for _, rss in samples), len(samples)),
        "setup_s": (statistics.median(setups), len(setups)),
    }
    return values, {"wall_s_samples": walls, "setup_s_samples": setups}


def measure_per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    with Tracer() as setup_tracer:
        bench.setup()
    startup = [bench.startup_seconds() for _ in range(STARTUP_PROBES + 1)][1:]
    tracers: list[Tracer] = []

    def pair():
        untraced = bench.inprocess_iteration()
        with Tracer() as tracer:
            traced = bench.inprocess_iteration(tracer)
        tracers.append(tracer)
        return untraced, traced

    samples = _until(time.perf_counter() + seconds, pair)
    untraced = statistics.median(u for u, _ in samples)
    traced = statistics.median(t for _, t in samples)
    self_times = [t.self_times() for t in tracers]
    counts = tracers[-1].counts + setup_tracer.counts
    values = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            source = [setup_tracer.self_times()] if span.startswith("synth.") else self_times
            values[name] = (statistics.median(s.get(span, 0.0) for s in source), len(source))
        else:
            values[name] = (counts.get(name, 0), 1)
    values["ingest.peak_alloc_mb"] = (bench.ingest_peak_mb(), 1)
    values["cli.startup_s"] = (statistics.median(startup), len(startup))
    values["trace.overhead_s"] = (traced - untraced, len(samples))
    extra = {"traced_wall_s": traced, "untraced_wall_s": untraced,
             "spans": [s for t in (setup_tracer, *tracers) for s in t.dump()]}
    return values, extra


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def benchmark(workload: str, seed: int, seconds: float, trace: bool, root: Path,
              scale=None) -> dict:
    """Run one workload; return the result object plus metadata and samples."""
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    bench = Bench(workload, seed, root, scale)
    try:
        measure = measure_per_layer if trace else measure_end_to_end
        values, extra = measure(bench, seconds)
        units = PER_LAYER if trace else END_TO_END
        src = sorted((root / "src" / "basketflex").glob("*.py"))
        meta = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "commit": _commit(root),
            "src_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest(),
            "nproc": os.cpu_count(),
            "scale": vars(bench.scale),
            "crosswalk": "mixed" if bench.workload.mixed_crosswalk else "identity",
            "invocations_per_iteration": [label for label, _, _ in bench.plan],
            "records": bench.inputs.records,
            "item_months": bench.scale.items * bench.scale.months,
            "categories": len(bench.reference.categories),
            "failed_frac": bench.failed / bench.attempted,
            "problems": bench.problems[:20],
            "metrics": {name: {"value": v, "unit": units[name], "samples": n}
                        for name, (v, n) in values.items()},
        }
        return {
            "result": {
                "correct": bench.failed == 0 and not bench.problems,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {name: {"value": v, "unit": units[name]} for name, (v, _) in values.items()},
            },
            "meta": meta,
            **extra,
        }
    finally:
        bench.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the harness self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "basketflex" / "cli.py").is_file():
        print(f"no basketflex sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), root,
                    workloads.TINY if args.tiny else None)
    meta = out["meta"]
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(out, indent=1) + "\n")

    for metric, m in meta["metrics"].items():
        print(f"{args.workload:14s} {metric:34s} {m['value']:>16.6g} {m['unit']:10s} n={m['samples']}")
    result = out["result"]
    print(f"{args.workload:14s} {'failed_frac':34s} {meta['failed_frac']:>16.6g} {'ratio':10s} "
          f"base={result['attempted']} invocations")
    for problem in meta["problems"]:
        print(f"FAILED: {problem}")
    print("meta: " + json.dumps({k: v for k, v in meta.items() if k != "metrics"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
