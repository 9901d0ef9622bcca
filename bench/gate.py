"""Independent correctness gate for ``basketflex`` outputs.

Standard library only, and it never imports ``basketflex``: the expected
numbers come from the generated input files, exact ``Decimal`` sums per
category-month, the rule table and reassignments the benchmark wrote, and
the reweighting formula

    w_adj(i, t) = w_off(i) * de(i, t) / sum_j w_off(j) * de(j, t)

On top of the reference values every output is held to invariants that
need no reference: contributions add up, bias is official minus adjusted,
chained 12-month rates compound the trailing months, the JSON result agrees
with the CSV files, and so on. Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from decimal import Decimal, localcontext
from pathlib import Path

ADJUSTED_TOL = 1e-10  # adjusted weights against the reference
RATE_TOL = 1e-9  # rates (percent) against the reference and sum identities
EXACT_TOL = 1e-12  # identities the program computes with one subtraction
SERIES = ("official", "adjusted", "core_official", "core_adjusted")


def rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _num(text: str) -> float | None:
    return None if text == "" else float(text)


def _prices(path: Path) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for item, period, rel in rows(path):
        out.setdefault(item, {})[period] = float(rel)
    return out


def _normalized(raw: dict[str, float]) -> dict[str, float]:
    total = math.fsum(raw.values())
    return {k: v / total for k, v in raw.items()}


def _pct(weights: dict[str, float], rels: dict[str, float]) -> float:
    return math.fsum(w * (rels[i] - 1.0) * 100.0 for i, w in weights.items())


def _month_plus(month: str, k: int) -> str:
    idx = int(month[:4]) * 12 + int(month[5:7]) - 1 + k
    return f"{idx // 12:04d}-{idx % 12 + 1:02d}"


def _close(a: float | None, b: float | None, tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


class Reference:
    """Expected values for one set of generated inputs.

    ``rules`` maps item -> (kind, sources, peer); ``reassignments`` holds
    (category, from_item, to_item).
    """

    def __init__(self, paths: dict[str, Path], rules, reassignments, base_months,
                 core_exclude, lockdown_months):
        self.weights = _normalized({i: float(w) for i, w in rows(paths["weights"])})
        self.prices = _prices(paths["prices"])
        self.core_exclude = set(core_exclude)
        self.lockdown_months = set(lockdown_months)
        spend: dict[tuple[str, str], Decimal] = {}
        with localcontext() as ctx:
            ctx.prec = 50
            for date, category, amount in rows(paths["expenditures"]):
                key = (category, date[:7])
                spend[key] = spend.get(key, Decimal(0)) + Decimal(amount)
        self.categories = sorted({c for c, _ in spend})
        months = sorted({m for _, m in spend})
        self.panel_months = [_month_plus(months[0], k)
                             for k in range(self._distance(months[0], months[-1]) + 1)]
        self.axis = [m for m in self.panel_months
                     if all(m in self.prices[i] for i in self.weights)]
        self.adjusted = self._adjusted(spend, rules, reassignments, base_months)

    @staticmethod
    def _distance(a: str, b: str) -> int:
        return (int(b[:4]) - int(a[:4])) * 12 + int(b[5:7]) - int(a[5:7])

    def _adjusted(self, spend, rules, reassignments, base_months):
        pools = {i: list(src) for i, (kind, src, _) in rules.items()
                 if kind in ("direct", "aggregate")}
        for category, origin, dest in reassignments:
            if category in pools.get(origin, ()):
                pools[origin].remove(category)
            pools.setdefault(dest, []).append(category)
        consumed = sorted({c for cats in pools.values() for c in cats})
        out: dict[str, dict[str, float]] = {}
        with localcontext() as ctx:
            ctx.prec = 50

            def cell(c, m):
                return spend.get((c, m), Decimal(0))

            n = Decimal(len(base_months))
            base = {c: sum((cell(c, m) for m in base_months), Decimal(0)) / n for c in consumed}
            pool_base = {i: sum((base[c] for c in cats), Decimal(0)) for i, cats in pools.items()}
            total_base = sum(base[c] for c in consumed)
            for m in self.axis:
                de = {i: float(sum((cell(c, m) for c in cats), Decimal(0))) / float(pool_base[i])
                      for i, cats in pools.items()}
                total = float(sum(cell(c, m) for c in consumed)) / float(total_base)
                for item, (kind, _, _) in rules.items():
                    if kind == "constant":
                        de[item] = 1.0
                    elif kind == "follow_total":
                        de[item] = total
                for item in rules:
                    peer = item
                    while rules[peer][0] == "follow_peer":
                        peer = rules[peer][2]
                    de[item] = de[peer]
                out[m] = _normalized({i: w * de[i] for i, w in self.weights.items()})
        return out

    def core(self, weights: dict[str, float]) -> dict[str, float]:
        return _normalized({i: w for i, w in weights.items() if i not in self.core_exclude})

    def baskets(self, adjusted: dict[str, float]) -> dict[str, dict[str, float]]:
        """Weights of the four series, given the adjusted basket of one month."""
        return {"official": self.weights, "adjusted": adjusted,
                "core_official": self.core(self.weights), "core_adjusted": self.core(adjusted)}

    def rels(self, month: str) -> dict[str, float]:
        return {i: self.prices[i][month] for i in self.weights}

    # --- checks ---------------------------------------------------------------

    def check_run(self, out: Path, fixed_month: str | None = None,
                  annual_method: str = "chained") -> list[str]:
        """Check the five files one ``basketflex run`` wrote into ``out``."""
        problems: list[str] = []
        try:
            rates = {(p, s): (_num(m), _num(a), int(flag))
                     for p, s, m, a, flag in rows(out / "inflation.csv")}
            weights: dict[tuple[str, str], dict[str, float]] = {}
            for p, basket, item, w, _ in rows(out / "weights.csv"):
                weights.setdefault((basket, p), {})[item] = float(w)
            contributions: dict[tuple[str, str], dict[str, float]] = {}
            for p, s, item, c in rows(out / "contributions.csv"):
                contributions.setdefault((p, s), {})[item] = float(c)
            bias = {(p, scope): (_num(m), _num(a)) for p, scope, m, a in rows(out / "bias.csv")}
            with open(out / "scenario_result.json", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError, KeyError) as exc:
            return [f"{out}: unreadable output ({exc!r})"]

        periods = [p for p, s in rates if s == "official"]
        if periods != self.axis:
            return [f"{out}: axis {periods[:1]}..{periods[-1:]} != reference "
                    f"{self.axis[:1]}..{self.axis[-1:]}"]

        def bad(what, period, got, want):
            problems.append(f"{out}: {what} at {period}: got {got!r}, want {want!r}")

        fixed = self.adjusted[fixed_month] if fixed_month else None
        for p in periods:
            off = weights.get(("official", p), {})
            adj = weights.get(("adjusted", p), {})
            if off.keys() != self.weights.keys() or adj.keys() != self.weights.keys():
                bad("weight item set", p, sorted(off), sorted(self.weights))
                continue
            for i, w in self.weights.items():
                if abs(off[i] - w) > 1e-15:
                    bad(f"official share of {i}", p, off[i], w)
            want_adj = fixed if fixed is not None else self.adjusted[p]
            for i, w in want_adj.items():
                if abs(adj[i] - w) > ADJUSTED_TOL:
                    bad(f"adjusted share of {i}", p, adj[i], w)
            if fixed is not None and adj != weights[("adjusted", periods[0])]:
                bad("fixed-weight adjusted shares not constant", p, adj, periods[0])
            basket = self.baskets(want_adj)
            rels = self.rels(p)
            for s in SERIES:
                monthly, _, flag = rates[(p, s)]
                want = _pct(basket[s], rels)
                if not _close(monthly, want, RATE_TOL):
                    bad(f"{s} monthly_pct", p, monthly, want)
                total = math.fsum(contributions.get((p, s), {}).values())
                if not _close(total, monthly, RATE_TOL):
                    bad(f"{s} contributions sum", p, total, monthly)
                if flag != int(p in self.lockdown_months):
                    bad(f"{s} in_lockdown", p, flag, int(p in self.lockdown_months))
            for scope, (o, a) in (("headline", ("official", "adjusted")),
                                  ("core", ("core_official", "core_adjusted"))):
                (om, oa, _), (am, aa, _) = rates[(p, o)], rates[(p, a)]
                bm, ba = bias[(p, scope)]
                if not _close(bm, om - am, EXACT_TOL):
                    bad(f"{scope} monthly bias", p, bm, om - am)
                want_a = None if oa is None or aa is None else oa - aa
                if not _close(ba, want_a, EXACT_TOL):
                    bad(f"{scope} annual bias", p, ba, want_a)
        problems += self._check_annual(out, periods, rates, annual_method, fixed)
        problems += _check_json(out, doc, periods, rates, weights, contributions, bias)
        return problems

    def _check_annual(self, out, periods, rates, method, fixed) -> list[str]:
        problems = []
        for k, p in enumerate(periods):
            if method == "fixed_base" and k >= 11:
                window = [_month_plus(p, -j) for j in range(12)]
                factors = {i: math.prod(self.prices[i][m] for m in window) for i in self.weights}
                baskets = self.baskets(fixed if fixed is not None else self.adjusted[p])
            for s in SERIES:
                annual = rates[(p, s)][1]
                if k < 11:
                    want = None
                elif method == "chained":
                    factor = math.prod(1.0 + rates[(q, s)][0] / 100.0 for q in periods[k - 11:k + 1])
                    want = (factor - 1.0) * 100.0
                else:
                    want = math.fsum(w * (factors[i] - 1.0) * 100.0 for i, w in baskets[s].items())
                if not _close(annual, want, RATE_TOL):
                    problems.append(f"{out}: {s} {method} annual_pct at {p}: "
                                    f"got {annual!r}, want {want!r}")
        return problems

    def check_validate(self, stdout: str) -> list[str]:
        want = (f"ok: {len(self.weights)} items, {len(self.categories)} categories, "
                f"{len(self.panel_months)} panel months, {len(self.prices)} price series")
        return [] if stdout.strip() == want else [f"validate said {stdout.strip()!r}, want {want!r}"]


def check_compare(path: Path, runs: dict[str, Path], period: str) -> list[str]:
    """The comparison table: sorted most negative first, matching each run's bias.csv."""
    try:
        table = [(c, float(m), _num(a), sign) for c, m, a, sign in rows(path)]
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable output ({exc!r})"]
    problems = []
    if [(m, c) for c, m, _, _ in table] != sorted((m, c) for c, m, _, _ in table):
        problems.append(f"{path}: rows not sorted most negative first")
    if sorted(c for c, _, _, _ in table) != sorted(runs):
        problems.append(f"{path}: countries {[r[0] for r in table]} != {sorted(runs)}")
    for country, monthly, annual, sign in table:
        if country not in runs:
            continue
        bias = {(p, scope): (_num(m), _num(a)) for p, scope, m, a in rows(runs[country] / "bias.csv")}
        want = bias.get((period, "headline"))
        if want != (monthly, annual):
            problems.append(f"{path}: {country} bias {(monthly, annual)} != bias.csv {want}")
        want_sign = "negative" if monthly < 0 else "positive" if monthly > 0 else "zero"
        if sign != want_sign:
            problems.append(f"{path}: {country} sign {sign!r} for {monthly!r}")
    return problems


def _check_json(out, doc, periods, rates, weights, contributions, bias) -> list[str]:
    """scenario_result.json must carry exactly the numbers of the CSV files."""
    try:
        if doc["periods"] != periods:
            return [f"{out}: JSON periods differ from inflation.csv"]
        for s in SERIES:
            for point in doc["series"][s]:
                p = point["period"]
                if (point["monthly_pct"], point["annual_pct"]) != rates[(p, s)][:2]:
                    return [f"{out}: JSON {s} rate at {p} differs from inflation.csv"]
                if point["contributions"] != contributions[(p, s)]:
                    return [f"{out}: JSON {s} contributions at {p} differ from contributions.csv"]
        for basket in ("official", "adjusted"):
            for vec in doc["weights"][basket]:
                if vec["shares"] != weights[(basket, vec["period"])]:
                    return [f"{out}: JSON {basket} weights at {vec['period']} differ from weights.csv"]
        for key, scope in (("bias", "headline"), ("core_bias", "core")):
            for b in doc[key]:
                if (b["monthly_pp"], b["annual_pp"]) != bias[(b["period"], scope)]:
                    return [f"{out}: JSON {key} at {b['period']} differs from bias.csv"]
    except (KeyError, TypeError) as exc:
        return [f"{out}: JSON result malformed ({exc!r})"]
    return []
