"""Rewrites of the inputs that must leave all five result files byte-identical.

Each rewrite is run on the bundled example and on two small synthetic
economies whose crosswalks use every rule kind and a reassignment. The ledger
is fed through both readers: as LF text to the block reader, and as a CRLF
copy to the row reader. Outputs are compared by SHA-256, with no tolerance.
"""

import functools
import hashlib
import random
from decimal import Decimal as D

import pytest

from basketflex import cli, synth
from basketflex.periods import Month

from conftest import EXAMPLE_DIR

EXAMPLE_FLAGS = ("--manifest", str(EXAMPLE_DIR / "manifest.json"))
INPUTS = ("weights.csv", "prices.csv", "expenditures.csv")

# a aggregates c1 and c5, until c5 is reassigned to f; d follows a
MIXED_RULES = """\
rules:
  - {target: a, kind: aggregate, sources: [c1, c5]}
  - {target: b, kind: aggregate, sources: [c2, c3]}
  - {target: c, kind: constant}
  - {target: d, kind: follow_peer, peer: a}
  - {target: e, kind: follow_total}
  - {target: f, kind: direct, source: c4}
reassignments:
  - {source: c5, from: a, to: f}
"""


def _mixed_economy(seed: int, months: int, shocked: dict) -> synth.SyntheticEconomySpec:
    categories = {"a": {"c1": "1"}, "b": {"c2": "0.5", "c3": "0.5"}, "c": {}, "d": {},
                  "e": {}, "f": {"c4": "0.7", "c5": "0.3"}}
    return synth.SyntheticEconomySpec(
        items=tuple(
            synth.SyntheticItem(item, D(1), D(10 + 7 * k),
                                categories=tuple((c, D(s)) for c, s in shares.items()))
            for k, (item, shares) in enumerate(categories.items())
        ),
        months=months,
        shock_windows=(synth.ShockWindow(
            Month(2020, 3), Month(2020, 4),
            quantity_multipliers={item: D(v) for item, v in shocked.items()},
            price_drifts={"b": D("0.99")},
        ),),
        base_drifts={"a": D("1.002"), "f": D("0.999")},
        seed=seed,
        max_records_per_month=4,
    )


ECONOMIES = {
    "synth-monthly": (_mixed_economy(11, 6, {"a": "1.3", "b": "0.6"}),
                      ("--core-exclude", "c")),
    "synth-annual": (_mixed_economy(29, 15, {"b": "0.4", "f": "1.2"}),
                     ("--core-exclude", "a,e", "--annual-method", "fixed_base",
                      "--per-day-base")),
}


@pytest.fixture(scope="module")
def cases(tmp_path_factory) -> dict:
    """Each case's input texts and the flags that run it, apart from the input paths."""
    found = {"example": (
        {name: (EXAMPLE_DIR / name).read_text() for name in INPUTS},
        EXAMPLE_FLAGS,
    )}
    for name, (economy, flags) in ECONOMIES.items():
        files = synth.generate(economy)
        spec = tmp_path_factory.mktemp(name) / "crosswalk.yaml"
        spec.write_text(MIXED_RULES)
        found[name] = (
            {"weights.csv": files.weights_csv, "prices.csv": files.prices_csv,
             "expenditures.csv": files.expenditures_csv},
            ("--crosswalk", str(spec), "--base-months", "2020-01,2020-02",
             "--lockdowns", "2020-03-01:2020-04-30", "--country", name, *flags),
        )
    return found


def _run(tmp_path, texts: dict, flags, crlf: bool = False) -> dict:
    """The SHA-256 of each file ``run`` writes for these input texts."""
    tmp_path.mkdir()
    paths = []
    for name, text in texts.items():
        if crlf and name == "expenditures.csv":
            text = text.replace("\n", "\r\n")
        (tmp_path / name).write_bytes(text.encode())
        paths += [f"--{name[:-4]}", str(tmp_path / name)]
    out = tmp_path / "out"
    cli.dispatch(["run", *flags, *paths, "--out", str(out)])
    assert len(list(out.iterdir())) == 5
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def _shuffled(text: str, rng: random.Random) -> str:
    header, *rows = text.splitlines(keepends=True)
    rng.shuffle(rows)
    return header + "".join(rows)


def _split(text: str, rng: random.Random) -> str:
    """Each record as two whose amounts sum to it, in its own last decimal place."""
    header, *rows = text.splitlines(keepends=True)
    lines = [header]
    for row in rows:
        day, category, amount = row.rstrip("\n").split(",")
        exponent = D(amount).as_tuple().exponent
        units = int(D(amount).scaleb(-exponent))
        part = rng.randint(0, units)
        lines += [f"{day},{category},{D(n).scaleb(exponent):f}\n" for n in (part, units - part)]
    return "".join(lines)


def _scaled(text: str, rng: random.Random, k: int) -> str:
    """Every amount times 10**k, written exactly."""
    header, *rows = text.splitlines(keepends=True)
    lines = [header]
    for row in rows:
        day, category, amount = row.rstrip("\n").split(",")
        lines.append(f"{day},{category},{D(amount).scaleb(k):f}\n")
    return "".join(lines)


def _with_zeros(text: str, rng: random.Random) -> str:
    header, *rows = text.splitlines(keepends=True)
    for _ in range(50):
        day, category, _ = rng.choice(rows).split(",")
        rows.insert(rng.randint(0, len(rows)), f"{day},{category},0.00\n")
    return header + "".join(rows)


_NOT_RECORDS = ("# a comment\n", "\n", '  # indented, with a comma and "quotes"\n', " \t\n")


def _commented(text: str, rng: random.Random) -> str:
    """Comment and blank lines at random places, before the header too."""
    lines = text.splitlines(keepends=True)
    for _ in range(20):
        lines.insert(rng.randint(0, len(lines)), rng.choice(_NOT_RECORDS))
    return "".join(lines)


def _with_bom(text: str, rng: random.Random) -> str:
    return "\ufeff" + text


# rewrite -> the input files it rewrites and how
REWRITES = {
    "shuffled-records": (("expenditures.csv",), _shuffled),
    "split-records": (("expenditures.csv",), _split),
    "zero-records": (("expenditures.csv",), _with_zeros),
    **{f"scaled-records-1e{k}": (("expenditures.csv",), functools.partial(_scaled, k=k))
       for k in range(1, 7)},
    "shuffled-weights": (("weights.csv",), _shuffled),
    "shuffled-prices": (("prices.csv",), _shuffled),
    "comment-lines": (INPUTS, _commented),
    "byte-order-mark": (INPUTS, _with_bom),
}


@pytest.mark.parametrize("crlf", [False, True], ids=["block-reader", "row-reader"])
@pytest.mark.parametrize("rewrite", list(REWRITES))
@pytest.mark.parametrize("case", ["example", *ECONOMIES])
def test_rewritten_inputs_give_the_same_bytes(cases, tmp_path, case, rewrite, crlf):
    texts, flags = cases[case]
    names, rewritten = REWRITES[rewrite]
    rng = random.Random(f"{case}/{rewrite}")
    changed = {**texts, **{name: rewritten(texts[name], rng) for name in names}}
    assert all(changed[name] != texts[name] for name in names)
    assert _run(tmp_path / "changed", changed, flags, crlf) == _run(tmp_path / "plain", texts,
                                                                     flags)
