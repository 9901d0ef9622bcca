"""Declarative mapping from transaction categories to basket items.

Card processors classify spending differently from the statistical agency's
basket, so expenditure changes have to be transferred across the two
taxonomies by rule rather than by renaming. Six rule kinds cover the
modifications needed in practice:

* ``direct`` — one category feeds one item;
* ``aggregate`` — two or more categories pool into one item;
* ``constant`` — the item's expenditure is treated as unchanged every month
  (rent, where hardly any leases reprice inside the window);
* ``follow_peer`` — the item's expenditure moves at the same rate as another
  item's (fresh produce following food);
* ``follow_total`` — the item moves with total observed spending (residual
  "other" baskets);
* a ``reassignment`` moves one category between two items' pools before any
  ratio is taken (restaurant meals moved out of food into entertainment),
  reallocating the flow itself.

Specs are data, not code: the bundled default encodes one country's mapping
and other mappings are configuration files with the same schema (see
``load_spec``). Validation never raises; it returns findings so a caller can
show all problems at once. ``apply`` is pure: the same spec and panel always
produce the same relatives.
"""

from __future__ import annotations

import functools
from decimal import Decimal, localcontext
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .core import ExpenditureRelativeVector, ItemId
from .errors import STRING, SpecInvalidError, ZeroBaseError, check_shape
from .periods import Month

if TYPE_CHECKING:
    from .ingest import ExpenditurePanel

CategoryId = str

RULE_KINDS = ("direct", "aggregate", "constant", "follow_peer", "follow_total")

# Finding codes emitted by validate().
UNCOVERED_ITEM = "uncovered_item"
DUPLICATE_RULE = "duplicate_rule"
UNKNOWN_ITEM = "unknown_item"
UNKNOWN_CATEGORY = "unknown_category"
DUPLICATE_CONSUMPTION = "duplicate_consumption"
UNCONSUMED_CATEGORY = "unconsumed_category"
PEER_CYCLE = "peer_cycle"
BAD_RULE = "bad_rule"
BAD_REASSIGNMENT = "bad_reassignment"


class Rule(NamedTuple):
    """How one basket item's expenditure relative is obtained."""

    target: ItemId
    kind: str
    sources: tuple[CategoryId, ...] = ()
    peer: ItemId | None = None
    notes: str = ""


class Reassignment(NamedTuple):
    """Move one category's spending between two items' pools."""

    source: CategoryId
    from_item: ItemId
    to_item: ItemId
    notes: str = ""


class Finding(NamedTuple):
    """One validation problem; the report is a list of these."""

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}({self.subject}): {self.message}"


class CrosswalkSpec(NamedTuple):
    rules: tuple[Rule, ...]
    reassignments: tuple[Reassignment, ...] = ()
    version: str = "1"
    notes: str = ""


def identity_spec(items: Iterable[ItemId], version: str = "identity") -> CrosswalkSpec:
    """Direct rules mapping each item to a category of the same name."""
    return CrosswalkSpec(
        rules=tuple(Rule(target=i, kind="direct", sources=(i,)) for i in items),
        version=version,
    )


def validate(
    spec: CrosswalkSpec,
    items: Iterable[ItemId],
    categories: Iterable[CategoryId],
) -> list[Finding]:
    """Check a spec against the basket's items and the panel's categories.

    Returns an empty list iff the spec is usable: every item has exactly one
    rule, every category is consumed exactly once, peer references resolve
    without cycles, and reassignments connect known provider items.
    """
    items = set(items)
    categories = set(categories)
    findings: list[Finding] = []

    rules_by_target: dict[ItemId, Rule] = {}
    for r in spec.rules:
        if r.target in rules_by_target:
            findings.append(
                Finding(DUPLICATE_RULE, r.target, "item has more than one rule")
            )
            continue
        rules_by_target[r.target] = r
        if r.target not in items:
            findings.append(
                Finding(UNKNOWN_ITEM, r.target, "rule targets an item not in the basket")
            )

    for item in sorted(items - set(rules_by_target)):
        findings.append(Finding(UNCOVERED_ITEM, item, "no rule maps this item"))

    # Structural checks per kind.
    for r in rules_by_target.values():
        if r.kind not in RULE_KINDS:
            findings.append(Finding(BAD_RULE, r.target, f"unknown kind {r.kind!r}"))
            continue
        if r.kind == "direct" and len(r.sources) != 1:
            findings.append(
                Finding(BAD_RULE, r.target, "direct rule needs exactly one source")
            )
        if r.kind == "aggregate" and len(r.sources) < 2:
            findings.append(
                Finding(BAD_RULE, r.target, "aggregate rule needs at least two sources")
            )
        if r.kind in ("constant", "follow_total", "follow_peer") and r.sources:
            findings.append(
                Finding(BAD_RULE, r.target, f"{r.kind} rule consumes no categories")
            )
        if r.kind == "follow_peer" and not r.peer:
            findings.append(Finding(BAD_RULE, r.target, "follow_peer rule needs a peer"))
        if r.kind != "follow_peer" and r.peer is not None:
            findings.append(Finding(BAD_RULE, r.target, f"{r.kind} rule takes no peer"))

    # Category consumption: at most one provider rule per category.
    consumed_by: dict[CategoryId, ItemId] = {}
    for r in rules_by_target.values():
        for c in r.sources:
            if c not in categories:
                findings.append(
                    Finding(UNKNOWN_CATEGORY, c, f"rule for {r.target!r} consumes an unknown category")
                )
            if c in consumed_by:
                findings.append(
                    Finding(
                        DUPLICATE_CONSUMPTION,
                        c,
                        f"consumed by rules for both {consumed_by[c]!r} and {r.target!r}",
                    )
                )
            else:
                consumed_by[c] = r.target

    reassigned: set[CategoryId] = set()
    for m in spec.reassignments:
        if m.source not in categories:
            findings.append(
                Finding(UNKNOWN_CATEGORY, m.source, "reassignment moves an unknown category")
            )
        if m.from_item == m.to_item:
            findings.append(
                Finding(BAD_REASSIGNMENT, m.source, "from/to items must differ")
            )
        for end in (m.from_item, m.to_item):
            if end not in items:
                findings.append(
                    Finding(UNKNOWN_ITEM, end, "reassignment names an item not in the basket")
                )
                continue
            rule = rules_by_target.get(end)
            if rule is not None and rule.kind not in ("direct", "aggregate"):
                findings.append(
                    Finding(
                        BAD_REASSIGNMENT,
                        m.source,
                        f"item {end!r} has a {rule.kind} rule and no category pool",
                    )
                )
        if m.source in reassigned:
            findings.append(
                Finding(DUPLICATE_CONSUMPTION, m.source, "category reassigned more than once")
            )
        reassigned.add(m.source)
        provider = consumed_by.get(m.source)
        if provider is not None and provider != m.from_item:
            findings.append(
                Finding(
                    DUPLICATE_CONSUMPTION,
                    m.source,
                    f"reassigned from {m.from_item!r} but consumed by the rule for {provider!r}",
                )
            )

    # Residual categories are an error: silently dropping them would shift
    # the follow_total denominator without any visible sign.
    for c in sorted(categories - set(consumed_by) - reassigned):
        findings.append(Finding(UNCONSUMED_CATEGORY, c, "no rule consumes this category"))

    # follow_peer chains must terminate in a non-peer rule.
    for r in rules_by_target.values():
        if r.kind != "follow_peer":
            continue
        seen = [r.target]
        cur = r.peer
        while True:
            if cur in seen:
                cycle = seen[seen.index(cur):] + [cur]
                findings.append(
                    Finding(PEER_CYCLE, ",".join(cycle), "peer references form a cycle")
                )
                break
            nxt = rules_by_target.get(cur)
            if nxt is None:
                findings.append(
                    Finding(UNKNOWN_ITEM, cur, f"peer of {seen[-1]!r} has no rule")
                )
                break
            if nxt.kind != "follow_peer":
                break
            seen.append(cur)
            cur = nxt.peer

    return findings


def item_pools(spec: CrosswalkSpec) -> dict[ItemId, tuple[CategoryId, ...]]:
    """Final category pool per provider item, after reassignments.

    Reassignments remove the source from the origin item's pool when present
    and append it to the destination's, so total pooled expenditure always
    equals total expenditure over consumed categories.
    """
    pools: dict[ItemId, list[CategoryId]] = {}
    for r in spec.rules:
        if r.kind in ("direct", "aggregate"):
            pools[r.target] = list(r.sources)
    for m in spec.reassignments:
        origin = pools.get(m.from_item)
        if origin is not None and m.source in origin:
            origin.remove(m.source)
        pools.setdefault(m.to_item, []).append(m.source)
    return {item: tuple(cats) for item, cats in pools.items()}


def check_base(spec: CrosswalkSpec, base: Mapping[CategoryId, Decimal]) -> None:
    """Raise ZeroBaseError for the first consumed category, in sorted order,
    whose base spending is not > 0 even as a float, as ``apply`` would."""
    for c in sorted({c for cats in item_pools(spec).values() for c in cats}):
        if not float(base.get(c, 0)) > 0:
            raise ZeroBaseError(c)


def apply(
    spec: CrosswalkSpec,
    panel: "ExpenditurePanel",
    base: Mapping[CategoryId, Decimal],
    per_day: bool = False,
    months: Iterable[Month] | None = None,
) -> dict[Month, ExpenditureRelativeVector]:
    """Expenditure relatives for every item the spec covers, per month of
    ``months`` (default: every panel month).

    Ratios divide a month's pooled spending by the pooled base value;
    ``constant`` items get 1.0, ``follow_peer`` items copy their resolved
    peer and ``follow_total`` items move with total spending across all
    panel categories. Pass ``per_day=True`` only together with a per-day
    base from ``base_period``; it divides monthly pools by the month's day
    count so months of different lengths compare cleanly.

    Raises SpecInvalidError when the spec does not validate against this
    panel and ZeroBaseError (``check_base``) when a consumed category has no
    base spending. A month in which a pool's spending drops to zero surfaces
    as NonPositiveRelativeError, because a zero weight would silently delete
    the item's price signal; floor expenditures or exclude the item instead.
    """
    items = {r.target for r in spec.rules}
    findings = validate(spec, items, panel.categories)
    if findings:
        raise SpecInvalidError(findings)
    check_base(spec, base)
    return _relatives(spec, panel, base, per_day, panel.months if months is None else months)


def _relatives(spec: CrosswalkSpec, panel: "ExpenditurePanel", base: Mapping[CategoryId, Decimal],
               per_day: bool, months: Iterable[Month]) -> dict[Month, ExpenditureRelativeVector]:
    """``apply``'s relatives of a spec that its checks have passed."""
    pools = item_pools(spec)
    consumed = sorted({c for cats in pools.values() for c in cats})
    rules = {r.target: r for r in spec.rules}

    def end(item: ItemId) -> ItemId:  # of a follow_peer chain; validate rules out cycles
        return end(rules[item].peer) if rules[item].kind == "follow_peer" else item

    peers = {r.target: end(r.peer) for r in spec.rules if r.kind == "follow_peer"}

    with localcontext() as ctx:
        ctx.prec = 50
        pool_base = {
            item: sum((base[c] for c in cats), Decimal(0))
            for item, cats in pools.items()
        }
        total_base = sum(base[c] for c in consumed)

        out: dict[Month, ExpenditureRelativeVector] = {}
        for month in months:
            day_scale = Decimal(month.days()) if per_day else Decimal(1)
            relatives: dict[ItemId, float] = {}
            for item, cats in pools.items():
                spend = sum((panel.total(c, month) for c in cats), Decimal(0))
                relatives[item] = float(spend / day_scale / pool_base[item])
            total_spend = sum(panel.total(c, month) for c in consumed)
            total_relative = float(total_spend / day_scale / total_base)

            for r in spec.rules:
                if r.kind == "constant":
                    relatives[r.target] = 1.0
                elif r.kind == "follow_total":
                    relatives[r.target] = total_relative
            for item, peer in peers.items():
                relatives[item] = relatives[peer]
            out[month] = ExpenditureRelativeVector(period=month, relatives=relatives)
    return out


# --- configuration file form ----------------------------------------------
#
# version: "israel-2020"
# notes: free text
# rules:
#   - target: food
#     kind: aggregate          # direct | aggregate | constant |
#     sources: [a, b]          #   follow_peer | follow_total
#     # direct takes `source: a` (or a one-entry `sources`)
#     # follow_peer takes `peer: item`
#     notes: optional free text
# reassignments:
#   - source: restaurants
#     from: food
#     to: culture-entertainment
#
# Each value is read as the text written: `target: 5` is the item "5", and
# `0x1F`, `010` and `yes` stay as written. Only an empty value, `~` and `null`
# are null, and a top-level null counts as absent. Any other part not of this
# shape (a null, list or mapping where a single value belongs, a value tagged
# as another type such as `!!int 5`, a section that is not a list, a missing
# key) is a SpecInvalidError naming it in `field`, e.g. rules[0].target.

_VALUE = ("a single value as text, not a list, mapping, null or other tagged type", STRING[1])
_SPEC_SHAPE = {
    "rules": [{"target": _VALUE, "kind": _VALUE, "source?": _VALUE, "sources?": [_VALUE],
               "peer?": _VALUE, "notes?": _VALUE}],
    "reassignments?": [{"source": _VALUE, "from": _VALUE, "to": _VALUE, "notes?": _VALUE}],
    "version?": _VALUE,
    "notes?": _VALUE,
}

_KEPT_TAGS = ("tag:yaml.org,2002:null", "tag:yaml.org,2002:merge")


@functools.cache
def _text_loader(base: type) -> type:
    """``base`` with no implicit typing of plain scalars but null and the
    ``<<`` merge key, so ``0x1F``, ``010`` and ``yes`` stay the text written
    instead of becoming YAML 1.1's 31, 8 and True."""
    resolvers = {
        first: [r for r in found if r[0] in _KEPT_TAGS]
        for first, found in base.yaml_implicit_resolvers.items()
    }
    return type(f"Text{base.__name__}", (base,), {"yaml_implicit_resolvers": resolvers})


def parse_spec(text: str) -> CrosswalkSpec:
    """Parse the YAML configuration form of a crosswalk spec."""
    import yaml  # here, not at module level: only spec files need PyYAML

    # libyaml's scanner and parser when PyYAML was built with it
    loader = _text_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    try:
        doc = yaml.load(text, Loader=loader)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        # also int() refusing a number of too many digits, and the pure-Python
        # loader recursing once per level of nesting
        raise SpecInvalidError([Finding(BAD_RULE, "file", f"not valid YAML: {exc}")])
    if isinstance(doc, dict):
        doc = {k: v for k, v in doc.items() if v is not None}
    try:
        check_shape(doc, _SPEC_SHAPE, ValueError)
        for k, r in enumerate(doc["rules"]):
            if "source" in r and "sources" in r:  # else one of them would be dropped
                exc = ValueError(f"field 'rules[{k}].sources' cannot be given with 'source'")
                exc.field = f"rules[{k}].sources"
                raise exc
    except ValueError as exc:  # check_shape's error names the part in ``field``
        where = exc.field or "file"
        code = BAD_REASSIGNMENT if where.startswith("reassignments") else BAD_RULE
        err = SpecInvalidError([Finding(code, where, str(exc))])
        err.field = exc.field
        raise err from None
    return CrosswalkSpec(
        rules=tuple(
            Rule(
                target=r["target"],
                kind=r["kind"],
                sources=tuple([r["source"]] if "source" in r else r.get("sources", ())),
                peer=r.get("peer"),
                notes=r.get("notes", ""),
            )
            for r in doc["rules"]
        ),
        reassignments=tuple(
            Reassignment(m["source"], m["from"], m["to"], m.get("notes", ""))
            for m in doc.get("reassignments", ())
        ),
        version=doc.get("version", "1"),
        notes=doc.get("notes", ""),
    )


def load_spec(path) -> CrosswalkSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SpecInvalidError([Finding(BAD_RULE, "file", f"not valid UTF-8: {exc}")])
    return parse_spec(text)
