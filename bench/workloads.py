"""Seeded workload definitions: economy, crosswalk and CLI plan.

Each workload turns a seed into a ``basketflex.synth.SyntheticEconomySpec``
with one shock window, a crosswalk the benchmark writes itself, and the
list of CLI invocations one iteration makes. The program sees only the
files written by :func:`build_inputs`.

The crosswalk is described twice on purpose: as YAML for the program and as
a plain rule table (:class:`Crosswalk`) for the independent reference in
``gate.py``, which never imports ``basketflex``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

START_YEAR = 2020
BASE_MONTHS = ("2020-01", "2020-02")


@dataclass(frozen=True)
class Scale:
    items: int
    months: int
    max_records: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: Scale
    mixed_crosswalk: bool
    sweep: bool  # five invocations (three runs, validate, compare) instead of one run


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "deep_ledger",
            "80 items x 120 months, up to 30 records per item-month (~147k records), identity "
            "crosswalk, one run: expenditure ingest (load and aggregate) dominates",
            Scale(items=80, months=120, max_records=30),
            mixed_crosswalk=False,
            sweep=False,
        ),
        Workload(
            "variant_sweep",
            "100 items x 72 months, up to 8 records per item-month, every crosswalk rule kind; "
            "three run variants, validate and compare: fixed_base, result read path, five starts",
            Scale(items=100, months=72, max_records=8),
            mixed_crosswalk=True,
            sweep=True,
        ),
    )
}

# Small enough for the self-test, large enough for 12-month rates and a
# shock window inside the axis.
TINY = Scale(items=16, months=16, max_records=3)


@dataclass(frozen=True)
class Crosswalk:
    """Rule table: item -> (kind, sources, peer), plus reassignments."""

    rules: dict[str, tuple[str, tuple[str, ...], str | None]]
    reassignments: tuple[tuple[str, str, str], ...] = ()  # (source, from, to)

    def to_yaml(self) -> str:
        lines = ['version: "bench"', "rules:"]
        for item, (kind, sources, peer) in self.rules.items():
            lines.append(f"  - target: {item}")
            lines.append(f"    kind: {kind}")
            if kind == "direct":
                lines.append(f"    source: {sources[0]}")
            elif sources:
                lines.append(f"    sources: [{', '.join(sources)}]")
            if peer is not None:
                lines.append(f"    peer: {peer}")
        if self.reassignments:
            lines.append("reassignments:")
            for source, origin, dest in self.reassignments:
                lines += [f"  - source: {source}", f"    from: {origin}", f"    to: {dest}"]
        return "\n".join(lines) + "\n"


@dataclass
class Inputs:
    """Everything one seeded workload needs, and what it was built from."""

    workload: Workload
    scale: Scale
    spec: object  # basketflex.synth.SyntheticEconomySpec
    crosswalk: Crosswalk
    core_exclude: tuple[str, ...]
    shock: tuple[str, str]  # first and last month of the shock window
    # Adjusted weights freeze at the first shock month and the comparison is
    # taken at the last: at the frozen month itself the fixed-weight run
    # equals the dynamic one by construction, so the table would be a tie.
    fixed_month: str
    records: int = 0
    paths: dict[str, Path] = field(default_factory=dict)

    @property
    def shock_months(self) -> list[str]:
        first, last = self.shock
        return [m for m in map(month_name, range(self.scale.months)) if first <= m <= last]

    def invocations(self, out: Path) -> list[tuple[str, list[str], Path | None]]:
        """(label, argv after the program name, output dir or file) per invocation."""
        p = self.paths
        shared = [
            "--weights", str(p["weights"]), "--prices", str(p["prices"]),
            "--expenditures", str(p["expenditures"]), "--crosswalk", str(p["crosswalk"]),
            "--base-months", ",".join(BASE_MONTHS),
        ]
        first, last = self.shock
        lockdown = f"{first}-01:{last}-28"
        run = shared + ["--core-exclude", ",".join(self.core_exclude), "--lockdowns", lockdown]
        if not self.workload.sweep:
            return [("run", ["run", *run, "--country", "dynamic", "--out", str(out / "run")],
                     out / "run")]
        results = [out / name / "scenario_result.json" for name in ("run", "fixed", "fixed_base")]
        return [
            ("run", ["run", *run, "--country", "dynamic", "--out", str(out / "run")], out / "run"),
            ("fixed", ["run", *run, "--country", "fixed", "--fixed-weight-month",
                       self.fixed_month, "--out", str(out / "fixed")], out / "fixed"),
            ("fixed_base", ["run", *run, "--country", "fixed_base", "--annual-method",
                            "fixed_base", "--out", str(out / "fixed_base")], out / "fixed_base"),
            ("validate", ["validate", *shared], None),
            ("compare", ["compare", *map(str, results), "--period", self.shock[1],
                         "--out", str(out / "compare.csv")], out / "compare.csv"),
        ]


def month_name(k: int) -> str:
    return f"{START_YEAR + k // 12:04d}-{k % 12 + 1:02d}"


def _mixed_crosswalk(rng: random.Random, ids: list[str]):
    """Assign every rule kind, two-step peer chains and reassignments.

    Returns the rule table and each item's emitted categories with their
    exact shares (an empty tuple means the item is unobserved in card data).
    """
    n = len(ids)
    order = ids[:]
    rng.shuffle(order)
    n_const = max(1, n // 20)
    n_total = max(1, n // 20)
    n_peer = max(2, n // 10)
    n_aggr = max(2, n // 5)
    const = order[:n_const]
    total = order[n_const:n_const + n_total]
    peers = order[n_const + n_total:n_const + n_total + n_peer]
    aggr = order[n_const + n_total + n_peer:n_const + n_total + n_peer + n_aggr]
    direct = order[n_const + n_total + n_peer + n_aggr:]

    rules: dict[str, tuple[str, tuple[str, ...], str | None]] = {}
    cats: dict[str, tuple[tuple[str, Decimal], ...]] = {}
    for item in const:
        rules[item] = ("constant", (), None)
        cats[item] = ()
    for item in total:
        rules[item] = ("follow_total", (), None)
        cats[item] = ()
    for item in direct:
        rules[item] = ("direct", (f"c-{item}",), None)
        cats[item] = ((f"c-{item}", Decimal(1)),)
    # Items that give away a category keep at least two of their own.
    n_reassign = max(1, n // 20)
    givers = aggr[:n_reassign]
    reassignments = []
    # The number of categories (and so of records) does not depend on the seed.
    for j, item in enumerate(aggr):
        k = 3 if item in givers else 2 + j % 2
        a = Decimal(rng.randint(20, 50)) / 100
        b = Decimal(rng.randint(10, 40)) / 100
        shares = (a, 1 - a) if k == 2 else (a, b, 1 - a - b)
        names = tuple(f"c-{item}-{j}" for j in range(k))
        rules[item] = ("aggregate", names, None)
        cats[item] = tuple(zip(names, shares))
        if item in givers:
            reassignments.append((names[-1], item, rng.choice(direct)))
    providers = direct + aggr
    level1 = peers[: (2 * len(peers) + 2) // 3]
    for item in level1:
        rules[item] = ("follow_peer", (), rng.choice(providers))
        cats[item] = ()
    for item in peers[len(level1):]:
        rules[item] = ("follow_peer", (), rng.choice(level1))
        cats[item] = ()
    ordered = {item: rules[item] for item in ids}
    return Crosswalk(ordered, tuple(reassignments)), cats


def make_inputs(workload: Workload, seed: int, scale: Scale | None = None) -> Inputs:
    """Derive the economy, crosswalk and variant parameters from a seed."""
    from basketflex.periods import Month
    from basketflex.synth import ShockWindow, SyntheticEconomySpec, SyntheticItem

    scale = scale or workload.scale
    rng = random.Random(f"{workload.name}:{seed}")
    ids = [f"i{k:03d}" for k in range(scale.items)]
    if workload.mixed_crosswalk:
        crosswalk, cats = _mixed_crosswalk(rng, ids)
    else:
        crosswalk = Crosswalk({i: ("direct", (i,), None) for i in ids})
        cats = {i: None for i in ids}
    items = tuple(
        SyntheticItem(
            id=i,
            base_price=Decimal(rng.randint(100, 5000)) / 100,
            base_quantity=Decimal(rng.randint(20, 400)),
            categories=cats[i],
        )
        for i in ids
    )
    shock_start = rng.randint(3, 6)
    shocked = rng.sample(ids, max(1, len(ids) // 2))
    window = ShockWindow(
        start=Month.parse(month_name(shock_start)),
        end=Month.parse(month_name(shock_start + 2)),
        quantity_multipliers={i: Decimal(rng.randint(30, 200)) / 100 for i in shocked},
        price_drifts={i: Decimal(rng.randint(980, 1030)) / 1000 for i in shocked[::2]},
    )
    spec = SyntheticEconomySpec(
        items=items,
        months=scale.months,
        start=Month(START_YEAR, 1),
        base_months=len(BASE_MONTHS),
        shock_windows=(window,),
        base_drifts={i: Decimal(rng.randint(9990, 10040)) / 10000 for i in ids},
        seed=seed,
        max_records_per_month=scale.max_records,
    )
    return Inputs(
        workload=workload,
        scale=scale,
        spec=spec,
        crosswalk=crosswalk,
        core_exclude=tuple(sorted(rng.sample(ids, max(1, len(ids) // 10)))),
        shock=(month_name(shock_start), month_name(shock_start + 2)),
        fixed_month=month_name(shock_start),
    )


def build_inputs(inputs: Inputs, directory: Path) -> None:
    """Generate and write the three CSVs and the crosswalk YAML (the timed set-up)."""
    from basketflex import synth

    files = synth.generate(inputs.spec)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in (
        ("weights", files.weights_csv),
        ("prices", files.prices_csv),
        ("expenditures", files.expenditures_csv),
        ("crosswalk", inputs.crosswalk.to_yaml()),
    ):
        path = directory / (f"{name}.yaml" if name == "crosswalk" else f"{name}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        inputs.paths[name] = path
    inputs.records = files.expenditures_csv.count("\n") - 1

