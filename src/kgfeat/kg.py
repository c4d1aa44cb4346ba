"""Domain knowledge: class DAG, unit algebra, Horn rules, and the
interpretability verdict used to filter generated features."""
from __future__ import annotations

import graphlib
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Optional

from .data import read_json
from .transform import Arity, Expr, RawRef, catalog, catalog_op, children

BASE_DIMENSIONS = ("mass", "length", "time", "temperature", "currency", "count")


class KGError(ValueError):
    """Raised for malformed knowledge-graph documents."""


@dataclass(frozen=True)
class Unit:
    """Physical unit as a map of base dimensions to rational exponents.

    Stored as a sorted tuple of (dimension, exponent) pairs with zero
    exponents removed; the empty tuple is dimensionless.
    """

    dims: tuple = ()

    @classmethod
    def of(cls, **exponents) -> "Unit":
        return cls(dims=_normalize(dict(exponents)))

    @property
    def dimensionless(self) -> bool:
        return not self.dims

    def dims_dict(self) -> dict:
        return {d: e for d, e in self.dims}

    def dims_token(self) -> str:
        if not self.dims:
            return "dim:1"
        return "dim:" + ",".join(f"{d}={e}" for d, e in self.dims)

    def __mul__(self, other: "Unit") -> "Unit":
        dims = self.dims_dict()
        for d, e in other.dims:
            dims[d] = dims.get(d, 0) + e
        return Unit(dims=tuple(sorted((d, e) for d, e in dims.items() if e != 0)))

    def __truediv__(self, other: "Unit") -> "Unit":
        return self * other ** -1

    def __pow__(self, exponent) -> "Unit":
        return Unit(dims=tuple((d, e * Fraction(exponent)) for d, e in self.dims if exponent))


def _normalize(exponents: dict) -> tuple:
    for d in exponents:
        if d not in BASE_DIMENSIONS:
            raise KGError(f"unknown base dimension {d!r}")
    pairs = [(d, Fraction(e)) for d, e in exponents.items() if Fraction(e) != 0]
    return tuple(sorted(pairs))


DIMENSIONLESS = Unit()


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple


@dataclass(frozen=True)
class Rule:
    name: str
    body: tuple
    head: Atom


class VerdictStatus(str, Enum):
    INTERPRETABLE = "interpretable"
    NON_INTERPRETABLE = "non_interpretable"
    UNCOVERED = "uncovered"


@dataclass(frozen=True)
class Verdict:
    """A feature's status, the rule or check behind a discard, the unit
    propagated to its root (None when unknown), the name its root's hasUnit
    fact uses (None when it has none), and the concepts it lights: sorted
    indices into the KG's concept_order."""
    status: VerdictStatus
    reason: Optional[str] = None
    unit: Optional[Unit] = None
    unit_name: Optional[str] = None
    concepts: tuple = ()

    @property
    def interpretable(self) -> bool:
        return self.status == VerdictStatus.INTERPRETABLE


@dataclass
class KnowledgeGraph:
    classes: list
    unit_registry: dict               # unit name -> Unit
    unit_class: dict                  # unit name -> asserted class
    column_concepts: dict             # column -> (class, unit name or None)
    rules: list
    _parents: dict = field(default_factory=dict)  # class -> its direct parents
    _ancestors: dict = field(default_factory=dict)
    class_set: frozenset = field(init=False)  # `classes`, for membership tests
    unit_names: dict = field(init=False)      # dims -> first registered name
    concept_order: list = field(init=False)   # fixed index of classes + unit names
    concept_index: dict = field(init=False)   # concept name -> its concept_order index

    def __post_init__(self):
        self.class_set = frozenset(self.classes)
        self.concept_order = self.classes + list(self.unit_registry)
        self.concept_index = {name: i for i, name in enumerate(self.concept_order)}
        # in reverse, so the first name registered for some dims is kept
        self.unit_names = {u.dims: name for name, u in reversed(self.unit_registry.items())}

    def _ancestor_walk(self, cls: str) -> dict:
        """cls's ancestors as the keys of a dict, in depth-first order; the
        dict gives both the order and O(1) membership."""
        if cls not in self._ancestors:
            seen = {}
            stack = list(self._parents.get(cls, ()))
            while stack:
                c = stack.pop()
                if c not in seen:
                    seen[c] = None
                    stack.extend(self._parents.get(c, ()))
            self._ancestors[cls] = seen
        return self._ancestors[cls]

    def ancestors(self, cls: str):
        """All classes reachable upward from cls, excluding cls itself, in
        depth-first order."""
        return list(self._ancestor_walk(cls))


def empty_kg() -> KnowledgeGraph:
    return KnowledgeGraph([], {}, {}, {}, [])


# The shapes of a KG document and of a column-to-concept mapping document.
_ATOM = {"pred": str, "args": [str]}
_KG_SHAPE = {
    "classes": ([str], None),
    "subclass_of": ([[str]], None),
    "units": ([{"name": str, "class": (str, None), "dims": ({str: (float, str)}, None)}], None),
    "quantities": ({str: str}, None),
    "rules": ([{"name": (str, None), "body": [_ATOM], "head": _ATOM}], None),
}
_MAPPING_SHAPE = {str: {"class": str, "unit": (str, None)}}


def load_kg(path: str, mapping_path: Optional[str] = None) -> KnowledgeGraph:
    """Load a KG document (classes, subclass_of, units, quantities, rules)
    plus an optional column-to-concept mapping document. A document of the
    wrong shape (_KG_SHAPE, _MAPPING_SHAPE) is a KGError naming the file and
    the JSON path; so is a dims exponent that is not a number."""
    doc = read_json(path, _KG_SHAPE, KGError)
    mapping = read_json(mapping_path, _MAPPING_SHAPE, KGError) if mapping_path is not None else {}
    classes = doc.get("classes") or []
    class_set = set(classes)
    parents = {}
    for pair in doc.get("subclass_of") or []:
        if len(pair) != 2:
            raise KGError(f"{path}: subclass_of entry {pair!r} is not two class names")
        for c in pair:
            if c not in class_set:
                raise KGError(f"{path}: subclass edge references unknown class {c!r}")
        parents.setdefault(pair[0], []).append(pair[1])
    try:
        graphlib.TopologicalSorter(parents).prepare()
    except graphlib.CycleError as exc:
        raise KGError(f"{path}: cycle in subclass edges at {exc.args[1][0]!r}") from None

    unit_registry, unit_class = {}, {}
    for i, u in enumerate(doc.get("units") or []):
        name = u["name"]
        if name in unit_registry:
            raise KGError(f"{path}: duplicate unit name {name!r}")
        cls = "Units" if u.get("class") is None else u["class"]
        if cls not in class_set:
            raise KGError(f"{path}: unit {name!r} references unknown class {cls!r}")
        try:
            unit_registry[name] = Unit(dims=_normalize(u.get("dims") or {}))
        except (ValueError, ArithmeticError) as exc:  # a KGError, or an exponent Fraction rejects
            raise KGError(f"{path}: units[{i}].dims of unit {name!r}: {exc}") from None
        unit_class[name] = cls

    for name, q in (doc.get("quantities") or {}).items():
        if name not in unit_registry:
            raise KGError(f"{path}: quantity entry for unknown unit {name!r}")
        if q not in class_set:
            raise KGError(f"{path}: quantity entry references unknown class {q!r}")

    # The arity of each predicate the reasoner interprets, and its wording.
    arity = {**dict.fromkeys([*classes, "Feature", *(op.kg_class for op in catalog())],
                             (1, "one argument")),
             **dict.fromkeys(("Different", "hasInput", "hasOutput", "hasUnit"),
                             (2, "two arguments"))}
    # The predicates a fact can carry: those, and every rule's head.
    known = {*arity, *(r["head"]["pred"] for r in doc.get("rules") or [])}
    rules = []
    for i, r in enumerate(doc.get("rules") or []):
        name = f"rule {i + 1}" if r.get("name") is None else r["name"]
        body = tuple(Atom(a["pred"], tuple(a["args"])) for a in r["body"])
        head = Atom(r["head"]["pred"], tuple(r["head"]["args"]))
        for a in (*body, head):
            if a.pred not in known:
                raise KGError(f"{path}: rule {name!r}: unknown predicate {a.pred!r}")
            n, words = arity.get(a.pred, (len(a.args), ""))
            if len(a.args) != n:
                raise KGError(f"{path}: rule {name!r}: {a.pred} takes exactly {words}")
        bound = set()  # the body's variables so far; `Different` compares, binding none
        for a in body:
            free = [v for v in a.args if v.startswith("?") and v not in bound]
            if a.pred == "Different" and free:
                raise KGError(f"{path}: rule {name!r}: Different's {free[0]} is not bound "
                              "by an earlier atom")
            bound.update(free)
        if not {a for a in head.args if a.startswith("?")} <= bound:
            raise KGError(f"{path}: rule {name!r}: head variables must appear in the body")
        rules.append(Rule(name=name, body=body, head=head))

    column_concepts = {}
    for col, entry in mapping.items():
        cls, unit = entry["class"], entry.get("unit")
        if cls not in class_set:
            raise KGError(f"{mapping_path}: mapping for {col!r} references unknown class {cls!r}")
        if unit is not None and unit not in unit_registry:
            raise KGError(f"{mapping_path}: mapping for {col!r} references unknown unit {unit!r}")
        column_concepts[col] = (cls, unit)

    return KnowledgeGraph(classes, unit_registry, unit_class, column_concepts, rules,
                          _parents=parents)


def subsumes(kg: KnowledgeGraph, sub: str, sup: str) -> bool:
    """True iff sup is reachable from sub through subclass edges (reflexive)."""
    for c in (sub, sup):
        if c not in kg.class_set:
            raise KGError(f"unknown class {c!r}")
    return sub == sup or sup in kg._ancestor_walk(sub)


def is_instance(kg: KnowledgeGraph, unit_name: str, cls: str) -> bool:
    """Instance check: the unit's asserted class, or any ancestor, equals cls."""
    if cls not in kg.class_set:
        raise KGError(f"unknown class {cls!r}")
    if unit_name not in kg.unit_registry:
        return False
    return subsumes(kg, kg.unit_class[unit_name], cls)


def propagate_unit(op_name: str, input_units) -> Optional[Unit]:
    """Unit algebra over one transform application, by the unit rule of the
    op's catalog row; None means unknown. Unless the op's result is always
    dimensionless, any unknown input makes the result unknown."""
    rule = catalog_op(op_name).unit
    if rule is None:
        return DIMENSIONLESS
    units = list(input_units)
    return None if any(u is None for u in units) else rule(*units)


def _operands(expr: Expr) -> tuple:
    """The inputs of a transform node; an aggregation's group key is not one."""
    return expr.args[1:] if catalog_op(expr.op).arity == Arity.AGGREGATION else expr.args


def _token_dims(kg: KnowledgeGraph, token: str):
    """Dims behind a registered unit name, () behind `dim:1`; any other token
    compares as itself. A derived node's token is the registered name of its
    dims wherever one exists, so equal dims give equal tokens."""
    if token in kg.unit_registry:
        return kg.unit_registry[token].dims
    return () if token == "dim:1" else token


def _index(facts) -> dict:
    """Facts under their predicate and under (predicate, first argument)."""
    index = {}
    for fact in facts:
        index.setdefault(fact[0], []).append(fact)
        if len(fact) > 1:
            index.setdefault(fact[:2], []).append(fact)
    return index


def _match_body(kg, index, body, binding, i=0):
    """Bindings that extend `binding` to match body[i:] against the indexed
    facts; an atom whose first argument is bound looks up only the facts
    with that argument."""
    if i == len(body):
        yield dict(binding)
        return
    atom = body[i]
    if atom.pred == "Different":
        u, v = (binding.get(a, a) for a in atom.args)  # bound: load_kg checks
        if _token_dims(kg, u) != _token_dims(kg, v):
            yield from _match_body(kg, index, body, binding, i + 1)
        return
    first = atom.args[0] if atom.args else "?"
    key = atom.pred if first.startswith("?") and first not in binding else (
        atom.pred, binding.get(first, first))
    for fact in index.get(key, ()):
        if len(fact) - 1 != len(atom.args):
            continue
        new = dict(binding)
        ok = True
        for pat, val in zip(atom.args, fact[1:]):
            if pat.startswith("?"):
                if pat in new and new[pat] != val:
                    ok = False
                    break
                new[pat] = val
            elif pat != val:
                ok = False
                break
        if ok:
            yield from _match_body(kg, index, body, new, i + 1)


def forward_chain(kg: KnowledgeGraph, facts):
    """Naive fixpoint over the KG's Horn rules on a set of ground atoms
    (tuples of pred + args); returns (facts, provenance), where provenance
    maps each rule-derived fact to the name of the rule that derived it.
    Each round matches the rules, in order, against an index of the facts
    the previous round ended with, after closing each class fact up the
    class hierarchy."""
    facts = set(facts)
    provenance = {}
    changed = True
    while changed:
        changed = False
        facts.update([(c, f[1]) for f in facts if len(f) == 2 and f[0] in kg.class_set
                      for c in kg._ancestor_walk(f[0])])
        index = _index(facts)
        for rule in kg.rules:
            for binding in _match_body(kg, index, rule.body, {}):
                head = (rule.head.pred,) + tuple(
                    binding.get(a, a) for a in rule.head.args
                )
                if head not in facts:
                    facts.add(head)
                    provenance[head] = rule.name
                    changed = True
    return facts, provenance


def unit_token(kg: KnowledgeGraph, unit: Optional[Unit]):
    """The token a derived node's hasUnit fact names: the registered name of
    its dims, else its dims token; `dim:1` when it is dimensionless."""
    if unit is None:
        return None
    name = kg.unit_names.get(unit.dims) if unit.dims else None
    return name if name is not None else unit.dims_token()


def materialize_facts(kg: KnowledgeGraph, expr: Expr):
    """Ground atoms describing every distinct sub-expression of a feature.

    A node is its own individual, and ("t", N) is the transform application
    that outputs node N. One post-order walk visits each distinct node once,
    propagating units bottom-up, and returns the facts and a post-order map
    from each node to its (unit, the unit name its hasUnit fact uses or None).
    It is the only unit walk: verdicts and `explain` read units from that map.
    A mapped leaf asserts its class and unit; a transform application asserts
    hasInput/hasOutput and its transform class; a derived node's unit is named
    by `unit_token`. Only `forward_chain` closes classes upward.
    """
    facts, nodes = set(), {}

    def walk(node):
        if node in nodes:
            return
        for child in children(node):
            walk(child)
        facts.add(("Feature", node))
        if isinstance(node, RawRef):
            cls, unit_name = kg.column_concepts.get(node.name, (None, None))
            if cls is not None:
                facts.add((cls, node))
            unit = kg.unit_registry.get(unit_name)
        else:
            t = ("t", node)
            facts.update({(catalog_op(node.op).kg_class, t), ("hasOutput", t, node)})
            facts.update(("hasInput", t, child) for child in _operands(node))
            unit = propagate_unit(node.op, [nodes[c][0] for c in _operands(node)])
            unit_name = unit_token(kg, unit)
        if unit_name is not None:
            facts.add(("hasUnit", node, unit_name))
        nodes[node] = (unit, unit_name)

    walk(expr)
    return facts, nodes


def judge(kg: KnowledgeGraph, expr: Expr) -> Verdict:
    """The interpretability verdict for one feature expression.

    Features whose leaves are all unmapped are Uncovered (retained by the
    fallback rule); rule-derived non-interpretability and unknown units are
    discarded; everything else is Interpretable. Every verdict carries the
    root unit, its name and the feature's concepts: each mapped leaf's class,
    that class's ancestors and the leaf's unit, plus the root's unit name
    where it is a concept, so a dimensionless derived feature (`dim:1`)
    lights no `count` and a raw `mm` column no `m`.
    """
    facts, nodes = materialize_facts(kg, expr)
    unit, name = nodes[expr]
    mapped = [kg.column_concepts[n.name] for n in nodes
              if isinstance(n, RawRef) and n.name in kg.column_concepts]
    lit = {name}.union(*((cls, u, *kg._ancestor_walk(cls)) for cls, u in mapped))
    verdict = partial(Verdict, unit=unit, unit_name=name, concepts=tuple(sorted(
        kg.concept_index[c] for c in lit if c in kg.concept_index)))
    if not mapped:
        return verdict(VerdictStatus.UNCOVERED)
    if isinstance(expr, RawRef):
        return verdict(VerdictStatus.INTERPRETABLE)
    _, provenance = forward_chain(kg, facts)
    # A rule rejects a node by deriving nonInterpretable, or a class below it,
    # for the node; the first such fact in provenance order gives the reason.
    rejected = {f[1]: rule for f, rule in reversed(provenance.items()) if len(f) == 2 and (
        f[0] == "nonInterpretable" or "nonInterpretable" in kg._ancestor_walk(f[0]))}
    # The root, else the first sub-expression in post-order, a rule rejected.
    for node in (expr, *nodes):
        if node in rejected:
            return verdict(VerdictStatus.NON_INTERPRETABLE, rejected[node])
    if unit is None or (unit.dims and unit.dims not in kg.unit_names):
        return verdict(VerdictStatus.NON_INTERPRETABLE, "unknown unit")
    return verdict(VerdictStatus.INTERPRETABLE)


def coverage(kg: KnowledgeGraph, columns) -> float:
    """Fraction of the named (non-target) columns with a concept mapping."""
    if not columns:
        return 0.0
    return sum(1 for c in columns if c in kg.column_concepts) / len(columns)
