import functools
import hashlib
import json
import operator
import random
import sys
from decimal import Decimal as D

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from basketflex import cli
from basketflex import crosswalk as cw
from basketflex.errors import (
    NonPositiveRelativeError,
    SpecInvalidError,
    ZeroBaseError,
)
from basketflex.ingest import ExpenditurePanel
from basketflex.periods import Month

from conftest import panel_of
from test_cli import GOLDEN_SHA256, _paths

JAN, FEB, MAR = Month(2020, 1), Month(2020, 2), Month(2020, 3)


def make_panel(by_category: dict[str, dict[Month, D]]) -> ExpenditurePanel:
    return panel_of({(c, m): v for c, cells in by_category.items() for m, v in cells.items()})


def two_item_spec():
    return cw.CrosswalkSpec(
        rules=(
            cw.Rule(target="food", kind="direct", sources=("groceries",)),
            cw.Rule(target="misc", kind="direct", sources=("misc",)),
        )
    )


# --- validate ---------------------------------------------------------------


def test_validate_complete_spec_is_clean():
    spec = two_item_spec()
    assert cw.validate(spec, {"food", "misc"}, {"groceries", "misc"}) == []


def test_validate_reports_uncovered_item():
    spec = two_item_spec()
    findings = cw.validate(spec, {"food", "misc", "housing"}, {"groceries", "misc"})
    assert any(f.code == cw.UNCOVERED_ITEM and f.subject == "housing" for f in findings)


def test_validate_reports_peer_cycle():
    spec = cw.CrosswalkSpec(
        rules=(
            cw.Rule(target="a", kind="follow_peer", peer="b"),
            cw.Rule(target="b", kind="follow_peer", peer="a"),
        )
    )
    findings = cw.validate(spec, {"a", "b"}, set())
    cycles = [f for f in findings if f.code == cw.PEER_CYCLE]
    assert cycles and "a" in cycles[0].subject and "b" in cycles[0].subject


def test_validate_reports_duplicate_consumption_and_unknowns():
    spec = cw.CrosswalkSpec(
        rules=(
            cw.Rule(target="x", kind="direct", sources=("c1",)),
            cw.Rule(target="y", kind="aggregate", sources=("c1", "nowhere")),
        )
    )
    findings = cw.validate(spec, {"x", "y"}, {"c1", "c2"})
    codes = {f.code for f in findings}
    assert cw.DUPLICATE_CONSUMPTION in codes
    assert cw.UNKNOWN_CATEGORY in codes  # "nowhere"
    assert cw.UNCONSUMED_CATEGORY in codes  # "c2" is silently dropped otherwise


def test_validate_rejects_reassignment_to_poolless_item():
    spec = cw.CrosswalkSpec(
        rules=(
            cw.Rule(target="x", kind="direct", sources=("c1",)),
            cw.Rule(target="rent", kind="constant"),
        ),
        reassignments=(cw.Reassignment(source="c1", from_item="x", to_item="rent"),),
    )
    findings = cw.validate(spec, {"x", "rent"}, {"c1"})
    assert any(f.code == cw.BAD_REASSIGNMENT for f in findings)


def test_validate_structural_rule_shapes():
    spec = cw.CrosswalkSpec(
        rules=(
            cw.Rule(target="a", kind="aggregate", sources=("c1",)),  # needs >= 2
            cw.Rule(target="b", kind="follow_peer"),  # needs a peer
            cw.Rule(target="c", kind="mystery"),
            cw.Rule(target="d", kind="direct", sources=("c2",), peer="a"),  # takes no peer
        )
    )
    findings = cw.validate(spec, {"a", "b", "c", "d"}, {"c1", "c2"})
    assert {f.subject for f in findings if f.code == cw.BAD_RULE} == {"a", "b", "c", "d"}


# --- pools and reassignment -------------------------------------------------


def test_reassignment_moves_category_between_pools():
    # categories: food 100, restaurants 30, culture 20 in the base period;
    # moving restaurants out of food leaves pools of 100 and 50
    spec = cw.CrosswalkSpec(
        rules=(
            cw.Rule(target="food", kind="aggregate", sources=("food", "restaurants")),
            cw.Rule(target="culture", kind="direct", sources=("culture",)),
        ),
        reassignments=(
            cw.Reassignment(source="restaurants", from_item="food", to_item="culture"),
        ),
    )
    pools = cw.item_pools(spec)
    assert pools["food"] == ("food",)
    assert set(pools["culture"]) == {"culture", "restaurants"}
    base = {"food": D(100), "restaurants": D(30), "culture": D(20)}
    assert sum((base[c] for c in pools["food"]), D(0)) == 100
    assert sum((base[c] for c in pools["culture"]), D(0)) == 50


def test_conservation_of_pooled_expenditure():
    rng = random.Random(4)
    spec = cw.CrosswalkSpec(
        rules=(
            cw.Rule(target="food", kind="aggregate", sources=("food", "restaurants")),
            cw.Rule(target="culture", kind="direct", sources=("culture",)),
            cw.Rule(target="home", kind="aggregate", sources=("diy", "garden")),
        ),
        reassignments=(
            cw.Reassignment(source="restaurants", from_item="food", to_item="culture"),
        ),
    )
    pools = cw.item_pools(spec)
    for _ in range(25):
        amounts = {
            c: D(rng.randint(0, 10**6)) / 100
            for c in ("food", "restaurants", "culture", "diy", "garden")
        }
        pooled = sum(
            (amounts[c] for cats in pools.values() for c in cats), D(0)
        )
        assert pooled == sum(amounts.values(), D(0))


# --- apply ------------------------------------------------------------------


def test_apply_aggregate_hand_example():
    spec = cw.CrosswalkSpec(
        rules=(cw.Rule(target="x", kind="aggregate", sources=("m", "f")),)
    )
    panel = make_panel({"m": {JAN: D(40), FEB: D(20)}, "f": {JAN: D(60), FEB: D(30)}})
    base = {"m": D(40), "f": D(60)}
    rels = cw.apply(spec, panel, base)
    assert rels[FEB].relatives["x"] == pytest.approx(0.5, abs=0)
    assert rels[JAN].relatives["x"] == pytest.approx(1.0, abs=0)


def test_apply_constant_rule_always_one():
    spec = cw.CrosswalkSpec(
        rules=(
            cw.Rule(target="rent", kind="constant"),
            cw.Rule(target="x", kind="direct", sources=("c",)),
        )
    )
    panel = make_panel({"c": {JAN: D(10), FEB: D(3), MAR: D(70)}})
    rels = cw.apply(spec, panel, {"c": D(10)})
    assert all(rels[m].relatives["rent"] == 1.0 for m in panel.months)


def test_apply_follow_peer_and_total():
    spec = cw.CrosswalkSpec(
        rules=(
            cw.Rule(target="food", kind="direct", sources=("groceries",)),
            cw.Rule(target="fv", kind="follow_peer", peer="food"),
            cw.Rule(target="misc", kind="direct", sources=("misc",)),
            cw.Rule(target="other", kind="follow_total"),
        )
    )
    panel = make_panel(
        {"groceries": {JAN: D(100), FEB: D(110)}, "misc": {JAN: D(50), FEB: D(40)}}
    )
    base = {"groceries": D(100), "misc": D(50)}
    rels = cw.apply(spec, panel, base)
    assert rels[FEB].relatives["fv"] == rels[FEB].relatives["food"] == 1.1
    assert rels[FEB].relatives["other"] == pytest.approx(150 / 150 * (150 / 150) * (110 + 40) / 150)
    assert rels[FEB].relatives["other"] == pytest.approx(1.0)


def test_apply_peer_chain_resolves_and_order_does_not_matter():
    rules = [
        cw.Rule(target="a", kind="follow_peer", peer="b"),
        cw.Rule(target="b", kind="follow_peer", peer="c"),
        cw.Rule(target="c", kind="direct", sources=("cat",)),
    ]
    panel = make_panel({"cat": {JAN: D(10), FEB: D(25)}})
    base = {"cat": D(10)}
    expected = None
    for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        spec = cw.CrosswalkSpec(rules=tuple(rules[i] for i in order))
        rels = cw.apply(spec, panel, base)
        values = {i: rels[FEB].relatives[i] for i in ("a", "b", "c")}
        assert values["a"] == values["b"] == values["c"] == 2.5
        expected = expected or values
        assert values == expected


def test_apply_direct_identity_is_elementwise_division():
    cats = ["c1", "c2", "c3"]
    spec = cw.identity_spec(cats)
    panel = make_panel(
        {c: {JAN: D(10 * (k + 1)), FEB: D(7 * (k + 1))} for k, c in enumerate(cats)}
    )
    base = {c: panel.total(c, JAN) for c in cats}
    rels = cw.apply(spec, panel, base)
    for c in cats:
        assert rels[FEB].relatives[c] == float(panel.total(c, FEB)) / float(base[c])


def test_apply_is_deterministic():
    spec = two_item_spec()
    panel = make_panel(
        {"groceries": {JAN: D(9), FEB: D(11)}, "misc": {JAN: D(5), FEB: D(6)}}
    )
    base = {"groceries": D(9), "misc": D(5)}
    assert cw.apply(spec, panel, base) == cw.apply(spec, panel, base)


def test_apply_rejects_invalid_spec_and_zero_base():
    spec = cw.CrosswalkSpec(
        rules=(cw.Rule(target="x", kind="direct", sources=("missing",)),)
    )
    panel = make_panel({"c": {JAN: D(5)}})
    with pytest.raises(SpecInvalidError):
        cw.apply(spec, panel, {"c": D(5)})

    spec = cw.identity_spec(["c"])
    with pytest.raises(ZeroBaseError):
        cw.apply(spec, panel, {"c": D(0)})


def test_apply_zero_month_spend_is_rejected_not_zero_weighted():
    spec = cw.identity_spec(["c"])
    panel = make_panel({"c": {JAN: D(5), FEB: D(0)}})
    with pytest.raises(NonPositiveRelativeError):
        cw.apply(spec, panel, {"c": D(5)})


# --- configuration file form --------------------------------------------------


def test_parse_rejects_malformed_documents():
    with pytest.raises(SpecInvalidError):
        cw.parse_spec("just a string")
    with pytest.raises(SpecInvalidError):
        cw.parse_spec("rules:\n  - kind: direct\n")
    with pytest.raises(SpecInvalidError):
        cw.parse_spec("rules: []\nreassignments:\n  - source: a\n")


@pytest.mark.parametrize(
    "text, code",
    [
        ("rules: 5\n", cw.BAD_RULE),
        ("rules: null\n", cw.BAD_RULE),
        ("rules: []\nreassignments: 3\n", cw.BAD_REASSIGNMENT),
    ],
    ids=["rules-int", "rules-null", "reassignments-int"],
)
def test_parse_rejects_non_list_sections(text, code):
    with pytest.raises(SpecInvalidError) as exc:
        cw.parse_spec(text)
    assert [f.code for f in exc.value.findings] == [code]


@pytest.mark.parametrize(
    "text, field, code",
    [
        ("rules:\n  - {target: [a, b], kind: direct, source: x}\n", "rules[0].target", cw.BAD_RULE),
        ("rules:\n  - {target: a, kind: direct, source: x}\n"
         "  - {target: b, kind: direct, source: {x: 1}}\n", "rules[1].source", cw.BAD_RULE),
        ("rules:\n  - {target: a, kind: aggregate, sources: [x, [y]]}\n", "rules[0].sources[1]",
         cw.BAD_RULE),
        ("rules: []\nreassignments:\n  - {source: x, from: [a], to: b}\n",
         "reassignments[0].from", cw.BAD_REASSIGNMENT),
        ("version: {major: 1}\nrules: []\n", "version", cw.BAD_RULE),
        ("rules:\n  - {target: , kind: direct, source: x}\n", "rules[0].target", cw.BAD_RULE),
        ("rules:\n  - {target: a, kind: direct, source: null}\n", "rules[0].source", cw.BAD_RULE),
        ("rules:\n  - {target: a, kind: follow_peer, peer: ~}\n", "rules[0].peer", cw.BAD_RULE),
        ("rules: []\nreassignments:\n  - {source: x, from: a, to: b, notes: }\n",
         "reassignments[0].notes", cw.BAD_REASSIGNMENT),
        ("rules:\n  - {target: a, kind: aggregate, sources: x}\n", "rules[0].sources", cw.BAD_RULE),
        ("rules: {a: 1}\n", "rules", cw.BAD_RULE),
        ("rules:\n  - 5\n", "rules[0]", cw.BAD_RULE),
        ("rules: []\nreassignments: x\n", "reassignments", cw.BAD_REASSIGNMENT),
        ("rules: null\n", "rules", cw.BAD_RULE),
        ("rules:\n  - {target: a, kind: direct, source: x}\n"
         "  - {target: b, kind: direct, source: y, sources: [y, z]}\n", "rules[1].sources",
         cw.BAD_RULE),
    ],
    ids=["target-list", "source-mapping", "sources-entry", "reassignment-from", "version",
         "target-null", "source-null", "peer-null", "reassignment-notes-null", "sources-text",
         "rules-mapping", "rule-int", "reassignments-text", "rules-null", "source-and-sources"],
)
def test_parse_names_a_collection_where_a_value_belongs(text, field, code):
    # these were str()-coerced: the target ['a', 'b'], the category {'x': 1},
    # a null the text "None"; sources-text to rules-null named no field, and
    # the last rule dropped its sources
    with pytest.raises(SpecInvalidError) as exc:
        cw.parse_spec(text)
    assert exc.value.field == field
    assert [(f.code, f.subject) for f in exc.value.findings] == [(code, field)]


def test_parse_keeps_the_text_of_scalars():
    spec = cw.parse_spec("version: 2\nrules:\n  - {target: 5, kind: direct, source: 2020-01-01}\n")
    assert (spec.version, spec.rules[0].target, spec.rules[0].sources) == (
        "2", "5", ("2020-01-01",)
    )


def test_parse_reads_every_field():
    spec = cw.parse_spec(
        "version: v\nnotes: n\nrules:\n"
        "  - {target: a, kind: direct, source: x, notes: r}\n"
        "  - {target: b, kind: aggregate, sources: [y, z]}\n"
        "  - {target: c, kind: follow_peer, peer: a}\n"
        "reassignments:\n  - {source: y, from: b, to: a, notes: m}\n"
    )
    assert spec == cw.CrosswalkSpec(
        rules=(cw.Rule("a", "direct", ("x",), notes="r"), cw.Rule("b", "aggregate", ("y", "z")),
               cw.Rule("c", "follow_peer", peer="a")),
        reassignments=(cw.Reassignment("y", "b", "a", "m"),),
        version="v",
        notes="n",
    )


def test_parse_reads_a_top_level_null_as_absent():
    spec = cw.parse_spec("version:\nnotes:\nrules: []\nreassignments:\n")
    assert spec == cw.CrosswalkSpec(rules=(), reassignments=(), version="1", notes="")


def test_validate_reports_the_field_of_a_collection(example_dir, tmp_path, capsys):
    bad = tmp_path / "crosswalk.yaml"
    bad.write_text("rules:\n  - {target: [a, b], kind: direct, source: x}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--manifest", str(example_dir / "manifest.json"),
                  "--crosswalk", str(bad)])
    assert exc.value.code == 2
    report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (report["error"], report["field"], report["path"]) == (
        "SpecInvalidError", "rules[0].target", str(bad)
    )
    assert "internal" not in report


# The pure-Python loader, and libyaml's when PyYAML was built with it.
YAML_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
def test_spec_is_the_same_under_each_yaml_loader(
    loader, example_dir, tmp_path, monkeypatch, capsys
):
    bundled = example_dir.parent / "israel_crosswalk.yaml"
    reference = cw.parse_spec(bundled.read_text(encoding="utf-8"))
    used = []

    class Recording(loader):
        def __init__(self, stream):
            used.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(yaml, "CSafeLoader", Recording, raising=False)
    bom = tmp_path / "bom.yaml"
    bom.write_bytes(b"\xef\xbb\xbf" + bundled.read_bytes())
    assert cw.load_spec(bundled) == reference
    assert cw.load_spec(bom) == reference
    assert len(used) == 2

    too_many_digits = "rules: !!int " + "1" * 5000 + "\n"  # int() refuses it with a ValueError
    for k, text in enumerate(["rules: [a\n", "rules: a: b\n", "rules:\n\t- x\n", "\x01\n",
                              too_many_digits]):
        bad = tmp_path / f"bad{k}.yaml"
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(SpecInvalidError, match="not valid YAML"):
            cw.load_spec(bad)
        monkeypatch.setattr(sys, "argv", ["basketflex", "validate", "--manifest",
                                          str(example_dir / "manifest.json"),
                                          "--crosswalk", str(bad)])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 2
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"] == "SpecInvalidError"
        assert "internal" not in report
    # too deep for the pure-Python constructor, a list in place of a rule for libyaml's
    with pytest.raises(SpecInvalidError):
        cw.parse_spec("rules: " + "[" * 5000 + "]" * 5000 + "\n")


# YAML 1.1 typing read these as 31, 8, 1000, True, True, 0.5, 1000.0 and a date.
IDS_AS_WRITTEN = ["0x1F", "010", "1_000", "yes", "on", ".5", "1e3", "2020-01-01", "5"]


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
def test_spec_reads_ids_as_written(loader, example_dir, monkeypatch):
    bundled = (example_dir.parent / "israel_crosswalk.yaml").read_text(encoding="utf-8")
    reference = cw.parse_spec(bundled)
    assert cw.parse_spec("rules:\n  - {target: a, kind: direct, source: 0x1F}\n").rules[0].sources \
        == ("0x1F",)  # the default loader
    monkeypatch.setattr(yaml, "CSafeLoader", loader, raising=False)
    assert cw.parse_spec(bundled) == reference
    for written in IDS_AS_WRITTEN:
        spec = cw.parse_spec(
            f"version: {written}\nnotes: {written}\n"
            f"rules:\n  - {{target: {written}, kind: direct, source: {written}, notes: {written}}}\n"
            f"  - {{target: b, kind: aggregate, sources: [{written}, y]}}\n"
            f"  - {{target: c, kind: follow_peer, peer: {written}}}\n"
            f"reassignments:\n  - {{source: {written}, from: {written}, to: {written}}}\n"
        )
        assert spec == cw.CrosswalkSpec(
            rules=(cw.Rule(written, "direct", (written,), notes=written),
                   cw.Rule("b", "aggregate", (written, "y")),
                   cw.Rule("c", "follow_peer", peer=written)),
            reassignments=(cw.Reassignment(written, written, written),),
            version=written,
            notes=written,
        ), written


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("value", ["", "~", "null", "!!binary aGVsbG8=", "!!int 5", "!!float 1",
                                   "!!bool yes", "!!timestamp 2020-01-01"])
def test_spec_refuses_a_null_or_tagged_non_string(loader, value, monkeypatch):
    monkeypatch.setattr(yaml, "CSafeLoader", loader, raising=False)
    assert cw.parse_spec("rules:\n  - {target: a, kind: direct, source: !!str 5}\n").rules[0] \
        == cw.Rule("a", "direct", ("5",))
    with pytest.raises(SpecInvalidError) as exc:
        cw.parse_spec(f"rules:\n  - {{target: a, kind: direct, source: {value}}}\n")
    assert exc.value.field == "rules[0].source"
    assert [(f.code, f.subject) for f in exc.value.findings] == [(cw.BAD_RULE, "rules[0].source")]


def test_bundled_spec_loads_and_validates(israel_spec, example_inputs):
    weights, _, panel, _ = example_inputs
    assert cw.validate(israel_spec, set(weights.shares), panel.categories) == []
    # restaurant spending ends up pooled with entertainment, not food
    pools = cw.item_pools(israel_spec)
    assert "restaurants" in pools["culture-entertainment"]
    assert "restaurants" not in pools["food"]


def test_run_and_validate_report_crosswalk_findings_alike(example_dir, tmp_path, capsys):
    broken = tmp_path / "crosswalk.yaml"
    broken.write_text("rules:\n  - {target: food, kind: direct, source: food-stores}\n")
    reports = {}
    for command in ("run", "validate"):
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--manifest", str(example_dir / "manifest.json"),
                      "--crosswalk", str(broken), *out])
        assert exc.value.code == 2
        printed = capsys.readouterr()
        reports[command] = json.loads(printed.err.strip().splitlines()[-1])
    assert printed.out.splitlines() == reports["validate"]["findings"]
    assert reports["run"] == reports["validate"]
    assert set(reports["run"]) == {"error", "message", "findings", "path"}
    assert (reports["run"]["error"], reports["run"]["path"]) == ("SpecInvalidError", str(broken))
    assert "uncovered_item(housing): no rule maps this item" in reports["run"]["findings"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rule_order_does_not_change_run_output(example_dir, tmp_path, seed):
    doc = yaml.safe_load((example_dir.parent / "israel_crosswalk.yaml").read_text())
    rules = list(doc["rules"])
    random.Random(seed).shuffle(doc["rules"])
    assert doc["rules"] != rules
    shuffled = tmp_path / "crosswalk.yaml"
    shuffled.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    cli.main(["run", "--manifest", str(example_dir / "manifest.json"),
              "--crosswalk", str(shuffled), "--out", str(out)])
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == GOLDEN_SHA256["default"]


# Keys and values of the spec's shape, so that drawn documents often get past
# their first checks.
_SPEC_KEYS = st.sampled_from([
    "version", "notes", "rules", "reassignments", "target", "kind", "source", "sources",
    "peer", "from", "to",
]) | st.text(max_size=3)
_SPEC_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats() | st.dates()
    | st.sampled_from(["direct", "aggregate", "constant", "follow_peer", "food"])
    | st.text(max_size=4),
    lambda values: st.lists(values, max_size=3)
    | st.dictionaries(_SPEC_KEYS, values, max_size=4),
    max_leaves=10,
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_misshapen_specs_raise_only_spec_errors(example_dir, data):
    """Small arbitrary YAML, alone or in place of one value of the bundled spec."""
    if data.draw(st.booleans()):
        doc = data.draw(st.dictionaries(_SPEC_KEYS, _SPEC_VALUES, max_size=5) | _SPEC_VALUES)
    else:
        doc = yaml.safe_load((example_dir.parent / "israel_crosswalk.yaml").read_text())
        *path, key = data.draw(st.sampled_from(list(_paths(doc))[1:]))
        functools.reduce(operator.getitem, path, doc)[key] = data.draw(_SPEC_VALUES)
    try:
        cw.parse_spec(yaml.safe_dump(doc))
    except SpecInvalidError as exc:
        # only a document that is not a mapping has no part to name
        assert (exc.field is None) == (not isinstance(doc, dict)), exc
