import json
import time
from fractions import Fraction
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgfeat
from kgfeat import kg as kgmod
from kgfeat.kg import (DIMENSIONLESS, KGError, Unit, VerdictStatus, coverage,
                       forward_chain, is_instance, judge, load_kg, propagate_unit,
                       subsumes)
from kgfeat.transform import (Arity, Node, RawRef, catalog, catalog_op, children,
                              render_name)

from conftest import cat_col, make_dataset, num_col


@pytest.fixture(scope="module")
def kg_doc():
    with open(kgfeat.resource_path("default_kg.json")) as fh:
        return json.load(fh)


def write_mapping(tmp_path, mapping):
    path = tmp_path / "mapping.json"
    path.write_text(json.dumps(mapping))
    return str(path)


@pytest.fixture()
def body_kg(tmp_path, default_kg_path):
    mapping = {
        "weight": {"class": "Weight", "unit": "kg"},
        "height": {"class": "Height", "unit": "m"},
        "t1": {"class": "Temperature", "unit": "celsius"},
        "t2": {"class": "Temperature", "unit": "celsius"},
        "stock": {"class": "Stock", "unit": "count"},
        "store": {"class": "CategoricalAttribute"},
    }
    return load_kg(default_kg_path, write_mapping(tmp_path, mapping))


@pytest.fixture()
def body_data():
    store = cat_col("store", ["a", "b", "a", "b"])
    return make_dataset(
        [num_col("weight", [70, 80, 60, 90]),
         num_col("height", [1.75, 1.8, 1.6, 2.0]),
         num_col("t1", [20, 21, 22, 23]),
         num_col("t2", [5, 6, 7, 8]),
         num_col("stock", [10, 20, 30, 40]),
         store,
         num_col("y", [1, 2, 3, 4])],
        target="y",
    )


# ---------------------------------------------------------------- units

def test_unit_normalization():
    u = Unit.of(mass=1, length=0)
    assert u.dims == (("mass", Fraction(1)),)
    assert Unit.of().dimensionless
    assert Unit.of().dims_token() == "dim:1"
    assert Unit.of(mass=1, length=-2).dims_token() == "dim:length=-2,mass=1"


def test_unit_unknown_dimension():
    with pytest.raises(KGError):
        Unit.of(flavor=1)


def test_propagate_unit_algebra():
    kg_u = Unit.of(mass=1)
    m_u = Unit.of(length=1)
    # kg / m^2 = mass=1, length=-2
    m2 = propagate_unit("square", [m_u])
    assert m2.dims == (("length", Fraction(2)),)
    ratio = propagate_unit("div", [kg_u, m2])
    assert ratio.dims == (("length", Fraction(-2)), ("mass", Fraction(1)))
    assert propagate_unit("mul", [m_u, m_u]).dims == (("length", Fraction(2)),)
    assert propagate_unit("sqrt", [m2]).dims == (("length", Fraction(1)),)
    assert propagate_unit("reciprocal", [m_u]).dims == (("length", Fraction(-1)),)
    # mul then div by the same unit cancels out
    assert propagate_unit("div", [propagate_unit("mul", [kg_u, m_u]), m_u]) == kg_u


def test_propagate_unit_add_sub():
    kg_u = Unit.of(mass=1)
    assert propagate_unit("add", [kg_u, Unit.of(mass=1)]) == kg_u
    assert propagate_unit("add", [kg_u, Unit.of(length=1)]) is None
    assert propagate_unit("sub", [kg_u, kg_u]) == kg_u


def test_propagate_unit_log():
    assert propagate_unit("log", [DIMENSIONLESS]) == DIMENSIONLESS
    assert propagate_unit("log", [Unit.of(mass=1)]) is None


def test_propagate_unit_dimensionless_ops():
    for op in ("one_hot", "and", "or", "is_weekend", "day", "month", "year"):
        assert propagate_unit(op, [None]) == DIMENSIONLESS


def test_propagate_unit_unknown_inputs():
    assert propagate_unit("add", [None, Unit.of(mass=1)]) is None
    assert propagate_unit("mul", [None, None]) is None


def test_propagate_unit_aggregation_passes_value_unit():
    u = Unit.of(currency=1)
    for op in ("group_min", "group_max", "group_mean", "group_sum"):
        assert propagate_unit(op, [u]).dims == u.dims


@settings(max_examples=60, deadline=None)
@given(e1=st.fractions(min_value=-3, max_value=3, max_denominator=4),
       e2=st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_unit_mul_div_exponent_property(e1, e2):
    a = Unit.of(length=e1)
    b = Unit.of(length=e2)
    prod = propagate_unit("mul", [a, b])
    quot = propagate_unit("div", [a, b])
    assert prod.dims_dict().get("length", Fraction(0)) == e1 + e2
    assert quot.dims_dict().get("length", Fraction(0)) == e1 - e2


# ---------------------------------------------------------------- hierarchy

def bfs_reachable(edges, start):
    """Independent reachability oracle over the subclass edge list."""
    adj = {}
    for child, parent in edges:
        adj.setdefault(child, []).append(parent)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for c in frontier:
            for p in adj.get(c, ()):
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


def test_subsumes_matches_bfs_oracle(default_kg_path, kg_doc):
    kg = load_kg(default_kg_path)
    for sub in kg.classes:
        reach = bfs_reachable(kg_doc["subclass_of"], sub)
        for sup in kg.classes:
            assert subsumes(kg, sub, sup) == (sup in reach), (sub, sup)


def test_subsumes_reflexive_and_examples(default_kg_path):
    kg = load_kg(default_kg_path)
    assert subsumes(kg, "Weight", "Weight")
    assert subsumes(kg, "Weight", "Mass")
    assert subsumes(kg, "Weight", "PhysicalQuantity")
    assert not subsumes(kg, "Mass", "Weight")
    with pytest.raises(KGError):
        subsumes(kg, "Weight", "NoSuchClass")


def test_is_instance(default_kg_path):
    kg = load_kg(default_kg_path)
    assert is_instance(kg, "kg", "MassUnit")
    assert is_instance(kg, "kg", "Units")
    assert not is_instance(kg, "kg", "LengthUnit")
    assert not is_instance(kg, "nope", "Units")


def test_cycle_detection(tmp_path):
    doc = {"classes": ["A", "B"], "subclass_of": [["A", "B"], ["B", "A"]]}
    path = tmp_path / "kg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(KGError, match="cycle in subclass edges at '[AB]'"):
        load_kg(str(path))


def test_deep_subclass_chain_loads(tmp_path):
    n = 1500
    doc = {"classes": [f"C{i}" for i in range(n)],
           "subclass_of": [[f"C{i + 1}", f"C{i}"] for i in range(n - 1)]}
    path = tmp_path / "kg.json"
    path.write_text(json.dumps(doc))
    kg = load_kg(str(path))
    assert subsumes(kg, f"C{n - 1}", "C0")


def test_subsumes_on_a_long_chain_is_fast(tmp_path):
    # ancestors are tested against a set: one lookup is linear in the depth
    n = 20_000
    doc = {"classes": [f"C{i}" for i in range(n)],
           "subclass_of": [[f"C{i + 1}", f"C{i}"] for i in range(n - 1)]}
    path = tmp_path / "kg.json"
    path.write_text(json.dumps(doc))
    kg = load_kg(str(path))
    start = time.perf_counter()
    assert subsumes(kg, f"C{n - 1}", "C0")
    assert time.perf_counter() - start < 1.0
    assert kg.ancestors(f"C{n - 1}")[:2] == [f"C{n - 2}", f"C{n - 3}"]


def test_load_kg_validates_references(tmp_path):
    path = tmp_path / "kg.json"
    path.write_text(json.dumps({"classes": ["A"], "subclass_of": [["A", "Z"]]}))
    with pytest.raises(KGError):
        load_kg(str(path))
    path.write_text(json.dumps(
        {"classes": ["A"], "units": [{"name": "u", "class": "Z"}]}))
    with pytest.raises(KGError):
        load_kg(str(path))


def test_load_kg_refuses_a_body_predicate_no_fact_can_carry(tmp_path, kg_doc):
    # misspelt, the rule loaded and never fired: WEIGHT + HEIGHT was
    # discarded as an "unknown unit", not as a "mixed-unit addition"
    doc = json.loads(json.dumps(kg_doc))
    rule = next(r for r in doc["rules"] if r["name"] == "mixed-unit addition")
    next(a for a in rule["body"] if a["pred"] == "hasUnit")["pred"] = "hasUnits"
    path = tmp_path / "kg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(KGError) as exc:
        load_kg(str(path))
    assert str(exc.value) == f"{path}: rule 'mixed-unit addition': unknown predicate 'hasUnits'"


def test_load_kg_knows_every_predicate_a_fact_can_carry(tmp_path):
    # a KG class, a catalog row's transform class, Feature, the three
    # relations, Different, and the head of a later rule
    def atom(pred, *args):
        return {"pred": pred, "args": list(args)}
    rules = [{"name": "all", "body": [atom("A", "?x"), atom("Addition", "?t"),
                                      atom("Feature", "?x"), atom("hasInput", "?t", "?x"),
                                      atom("hasOutput", "?t", "?z"), atom("hasUnit", "?x", "?u"),
                                      atom("Different", "?u", "kg"), atom("Marked", "?z")],
              "head": atom("B", "?z")},
             {"name": "mark", "body": [atom("Feature", "?z")], "head": atom("Marked", "?z")}]
    path = tmp_path / "kg.json"
    path.write_text(json.dumps({"classes": ["A", "B"], "rules": rules}))
    assert [r.name for r in load_kg(str(path)).rules] == ["all", "mark"]
    for pred, args, words in [("hasInput", ["?z"], "two arguments"),
                              ("hasOutput", ["?z"], "two arguments"),
                              ("hasUnit", ["?z"], "two arguments"),
                              ("Feature", ["?z", "?z"], "one argument"),
                              ("Addition", ["?z", "?z"], "one argument")]:
        rules[1]["body"] = [atom(pred, *args)]
        path.write_text(json.dumps({"classes": ["A", "B"], "rules": rules}))
        with pytest.raises(KGError, match=f"rule 'mark': {pred} takes exactly {words}"):
            load_kg(str(path))


def test_ancestors_transitive_property(default_kg_path):
    kg = load_kg(default_kg_path)
    for a in kg.classes:
        for b in kg.ancestors(a):
            for c in kg.ancestors(b):
                assert c in kg.ancestors(a), (a, b, c)


# ---------------------------------------------------------------- rules

def test_forward_chain_simple_rule(tmp_path):
    doc = {
        "classes": ["P", "Q"],
        "subclass_of": [],
        "rules": [{
            "name": "lift",
            "body": [{"pred": "P", "args": ["?x"]}],
            "head": {"pred": "Q", "args": ["?x"]},
        }],
    }
    path = tmp_path / "kg.json"
    path.write_text(json.dumps(doc))
    kg = load_kg(str(path))
    facts, _ = forward_chain(kg, {("P", "a"), ("P", "b")})
    assert ("Q", "a") in facts and ("Q", "b") in facts


def test_forward_chain_reaches_fixpoint(tmp_path):
    doc = {
        "classes": ["A", "B", "C"],
        "subclass_of": [],
        "rules": [
            {"name": "r1", "body": [{"pred": "A", "args": ["?x"]}],
             "head": {"pred": "B", "args": ["?x"]}},
            {"name": "r2", "body": [{"pred": "B", "args": ["?x"]}],
             "head": {"pred": "C", "args": ["?x"]}},
        ],
    }
    path = tmp_path / "kg.json"
    path.write_text(json.dumps(doc))
    kg = load_kg(str(path))
    facts, _ = forward_chain(kg, {("A", "a")})
    assert ("C", "a") in facts


def test_class_facts_close_upward(body_kg):
    facts, _ = forward_chain(body_kg, {("Weight", "n0")})
    assert ("Mass", "n0") in facts
    assert ("PhysicalQuantity", "n0") in facts


def test_a_derived_class_fact_is_closed_upward_in_the_next_round(tmp_path):
    # Weight is a subclass of Mass, so a rule on Mass matches what a rule
    # derived as Weight
    doc = {"classes": ["Addition", "Mass", "Weight", "Heavy"],
           "subclass_of": [["Weight", "Mass"]],
           "rules": [{"name": "sum", "body": [{"pred": "Addition", "args": ["?f"]}],
                      "head": {"pred": "Weight", "args": ["?f"]}},
                     {"name": "heavy", "body": [{"pred": "Mass", "args": ["?f"]}],
                      "head": {"pred": "Heavy", "args": ["?f"]}}]}
    path = tmp_path / "kg.json"
    path.write_text(json.dumps(doc))
    kg = load_kg(str(path))
    facts, provenance = forward_chain(kg, {("Addition", "t")})
    assert {("Weight", "t"), ("Mass", "t"), ("Heavy", "t")} <= facts
    assert provenance == {("Weight", "t"): "sum", ("Heavy", "t"): "heavy"}
    assert (facts, provenance) == forward_chain_scan(kg, {("Addition", "t")})


def test_rule_head_variable_validation(tmp_path):
    doc = {
        "classes": ["P"],
        "rules": [{"body": [{"pred": "P", "args": ["?x"]}],
                   "head": {"pred": "Q", "args": ["?y"]}}],
    }
    path = tmp_path / "kg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(KGError):
        load_kg(str(path))


# ---------------------------------------------------------------- verdicts

def test_judge_body_mass_ratio_interpretable(body_kg, body_data):
    bmi = Node("div", (RawRef("weight"), Node("square", (RawRef("height"),))))
    v = judge(body_kg, bmi)
    assert v.status == VerdictStatus.INTERPRETABLE
    assert v.unit == body_kg.unit_registry["kg_per_m2"]
    assert v.unit_name == "kg_per_m2"


def test_judge_mixed_unit_addition(body_kg, body_data):
    expr = Node("add", (RawRef("weight"), RawRef("height")))
    v = judge(body_kg, expr)
    assert v.status == VerdictStatus.NON_INTERPRETABLE
    assert v.reason == "mixed-unit addition"


def test_judge_stock_sum(body_kg, body_data):
    expr = Node("group_sum", (RawRef("store"), RawRef("stock")))
    v = judge(body_kg, expr)
    assert v.status == VerdictStatus.NON_INTERPRETABLE
    assert v.reason == "inventory totals are not summable"


def test_judge_temperature_addition(body_kg, body_data):
    expr = Node("add", (RawRef("t1"), RawRef("t2")))
    v = judge(body_kg, expr)
    assert v.status == VerdictStatus.NON_INTERPRETABLE
    assert v.reason == "temperatures are not additive"


def test_judge_uncovered_when_no_leaf_mapped(body_kg, body_data):
    expr = Node("square", (RawRef("y"),))
    assert judge(body_kg, expr).status == VerdictStatus.UNCOVERED


def test_judge_raw_mapped_interpretable(body_kg, body_data):
    assert judge(body_kg, RawRef("weight")).interpretable


def test_judge_unknown_unit(body_kg, body_data):
    # weight * weight * weight has mass^3, which no registered unit carries
    cube = Node("mul", (Node("mul", (RawRef("weight"), RawRef("weight"))), RawRef("weight")))
    v = judge(body_kg, cube)
    assert v.status == VerdictStatus.NON_INTERPRETABLE
    assert v.reason == "unknown unit"


def test_judge_log_of_dimensioned_value(body_kg, body_data):
    v = judge(body_kg, Node("log", (RawRef("weight"),)))
    assert v.status == VerdictStatus.NON_INTERPRETABLE
    assert v.reason == "unknown unit"


def test_judge_dimensionless_derivations_pass(body_kg, body_data):
    # a ratio of same-unit columns is dimensionless and needs no registry entry
    expr = Node("div", (RawRef("t1"), RawRef("t2")))
    assert judge(body_kg, expr).interpretable


def test_coverage(body_kg, body_data, default_kg_path):
    names = [c.name for c in body_data.feature_columns]
    assert coverage(body_kg, names) == pytest.approx(1.0)
    assert coverage(load_kg(default_kg_path), names) == 0.0


def op_names(arity):
    return st.sampled_from([op.name for op in catalog() if op.arity == arity])


def expressions(columns):
    """Random expressions over every catalog operator, with no kind checks;
    some binary nodes take one sub-expression twice."""
    def extend(sub):
        return st.one_of(
            st.builds(Node, op_names(Arity.UNARY), st.tuples(sub)),
            st.builds(Node, op_names(Arity.DATE), st.tuples(sub)),
            st.builds(Node, op_names(Arity.BINARY), st.tuples(sub, sub)),
            st.builds(Node, op_names(Arity.BINARY), sub.map(lambda e: (e, e))),
            st.builds(Node, op_names(Arity.AGGREGATION), st.tuples(sub, sub)),
        )
    return st.recursive(st.sampled_from(columns).map(RawRef), extend, max_leaves=8)


def expr_unit(kg, expr):
    """Oracle: the unit of an expression by its own recursive walk."""
    if isinstance(expr, RawRef):
        entry = kg.column_concepts.get(expr.name)
        if entry is None or entry[1] is None:
            return None
        return kg.unit_registry[entry[1]]
    operands = expr.args[1:] if catalog_op(expr.op).arity == Arity.AGGREGATION else expr.args
    return propagate_unit(expr.op, [expr_unit(kg, c) for c in operands])


def raw_refs(expr):
    """Oracle: the raw references of an expression, left to right, repeats
    included."""
    if isinstance(expr, RawRef):
        return [expr]
    return [leaf for c in children(expr) for leaf in raw_refs(c)]


def oracle_phi_feature(kg, expr):
    """Oracle: a feature's concept vector with the unit from expr_unit."""
    index = {name: i for i, name in enumerate(kg.concept_order)}
    vec = np.zeros(len(kg.concept_order), dtype=np.int64)
    for leaf in raw_refs(expr):
        entry = kg.column_concepts.get(leaf.name)
        if entry is None:
            continue
        cls, unit_name = entry
        for concept in [cls] + kg.ancestors(cls):
            if concept in index:
                vec[index[concept]] = 1
        if unit_name is not None and unit_name in index:
            vec[index[unit_name]] = 1
    if not isinstance(expr, RawRef):
        name = kgmod.unit_token(kg, expr_unit(kg, expr))
        if name is not None and name in index:
            vec[index[name]] = 1
    return vec


def oracle_concepts(kg, expr):
    """Oracle: the concepts a feature's verdict carries, as the sorted
    indices oracle_phi_feature lights."""
    return tuple(np.flatnonzero(oracle_phi_feature(kg, expr)).tolist())


def test_dimensionless_derived_features_light_no_count(sales_kg):
    # `count` is the first registered unit without dims, but a ratio of
    # prices or a day of the month is not a count
    count = sales_kg.concept_order.index("count")
    assert count in judge(sales_kg, RawRef("UNITS_SOLD")).concepts
    for expr in (Node("day", (RawRef("DATE"),)),
                 Node("div", (RawRef("PRICE"), RawRef("PRICE")))):
        verdict = judge(sales_kg, expr)
        assert verdict.unit is not None and verdict.unit.dimensionless
        assert count not in verdict.concepts


def draw_kg_and_expression(data, diabetes_kg, sales_kg):
    kg = data.draw(st.sampled_from([diabetes_kg, sales_kg]))
    return kg, data.draw(expressions(sorted(kg.column_concepts) + ["UNMAPPED"]))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_judge_unit_is_the_expression_unit(diabetes_kg, sales_kg, data):
    kg, expr = draw_kg_and_expression(data, diabetes_kg, sales_kg)
    assert judge(kg, expr).unit == expr_unit(kg, expr)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_concept_vector_from_the_verdict_unit_matches_the_oracle(diabetes_kg, sales_kg,
                                                                 data):
    kg, expr = draw_kg_and_expression(data, diabetes_kg, sales_kg)
    assert judge(kg, expr).concepts == oracle_concepts(kg, expr)


# ------------------------------------------- the rule join against a scan

def _match_body_scan(kg, facts, body, binding, i=0):
    """Oracle: the rule join as it was before the facts were indexed; every
    body atom scans every fact."""
    if i == len(body):
        yield dict(binding)
        return
    atom = body[i]
    if atom.pred == "Different":
        u, v = (binding.get(a, a) for a in atom.args)
        if not (isinstance(u, str) and u.startswith("?")) and not (
            isinstance(v, str) and v.startswith("?")
        ):
            if kgmod._token_dims(kg, u) != kgmod._token_dims(kg, v):
                yield from _match_body_scan(kg, facts, body, binding, i + 1)
        return
    for fact in facts:
        if fact[0] != atom.pred or len(fact) - 1 != len(atom.args):
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
            yield from _match_body_scan(kg, facts, body, new, i + 1)


def _add_class_fact(kg, facts, cls, individual):
    """A class fact and every ancestor of it, as the oracles assert them."""
    facts.update((c, individual) for c in (cls, *kg.ancestors(cls)))


def forward_chain_scan(kg, facts):
    """Oracle: forward_chain as it was before the facts were indexed, when
    each class a rule derived was closed upward as it was derived."""
    facts = set(facts)
    closed = set()
    for fact in list(facts):
        if len(fact) == 2 and fact[0] in kg.class_set:
            _add_class_fact(kg, closed, fact[0], fact[1])
    facts |= closed
    provenance = {}
    changed = True
    while changed:
        changed = False
        snapshot = frozenset(facts)
        for rule in kg.rules:
            for binding in _match_body_scan(kg, snapshot, rule.body, {}):
                head = (rule.head.pred,) + tuple(binding.get(a, a) for a in rule.head.args)
                if head not in facts:
                    facts.add(head)
                    provenance[head] = rule.name
                    if rule.head.pred in kg.class_set:
                        _add_class_fact(kg, facts, head[0], head[1])
                    changed = True
    return facts, provenance


def registered_name_scan(kg, unit):
    """Oracle: the first registered unit name with `unit`'s dims, by a scan
    of the registry, as the KG named units before it kept a map."""
    for name, u in kg.unit_registry.items():
        if u.dims == unit.dims:
            return name
    return None


def unit_name_oracle(kg, expr, unit):
    """Oracle: the name a feature's root hasUnit fact uses: a raw column's
    mapped unit; for a derived one the registered name of its dims, else its
    dims token, `dim:1` where it has no dims."""
    if isinstance(expr, RawRef):
        return kg.column_concepts.get(expr.name, (None, None))[1]
    if unit is None:
        return None
    if unit.dimensionless:
        return "dim:1"
    return registered_name_scan(kg, unit) or unit.dims_token()


def materialize_facts_numbered(kg, expr):
    """Oracle: materialize_facts as it was when one post-order walk named
    every node n0, n1, ..., repeats included, closed each class fact upward,
    and mapped each distinct node to its (first id, unit, unit name)."""
    facts, seen, ids = set(), {}, count()

    def walk(node):
        for child in children(node):
            walk(child)
        nid = f"n{next(ids)}"
        facts.add(("Feature", nid))
        if isinstance(node, RawRef):
            cls, unit_name = kg.column_concepts.get(node.name, (None, None))
            if cls is not None:
                _add_class_fact(kg, facts, cls, nid)
            unit = kg.unit_registry.get(unit_name)
        else:
            fid = f"t_{nid}"
            _add_class_fact(kg, facts, catalog_op(node.op).kg_class, fid)
            facts.add(("hasOutput", fid, nid))
            for child in kgmod._operands(node):
                facts.add(("hasInput", fid, seen[child][0]))
            unit = propagate_unit(node.op, [seen[c][1] for c in kgmod._operands(node)])
            unit_name = kgmod.unit_token(kg, unit)
        if unit_name is not None:
            facts.add(("hasUnit", nid, unit_name))
        seen.setdefault(node, (nid, unit, unit_name))

    walk(expr)
    return facts, seen


def judge_scan(kg, expr):
    """Oracle: judge as it was before the facts were indexed, before a
    dimensionless derived node's hasUnit fact named `dim:1` instead of the
    first registered unit without dims, and before each distinct node was its
    own individual. Rejected sub-nodes are taken in the order of their ids,
    which is post-order."""
    facts, nodes = materialize_facts_numbered(kg, expr)
    named = registered_name_scan(kg, DIMENSIONLESS) or "dim:1"
    facts = {(f[0], f[1], named) if f[0] == "hasUnit" and f[2] == "dim:1" else f
             for f in facts}
    root_id, unit = nodes[expr][:2]
    name = unit_name_oracle(kg, expr, unit)
    concepts = oracle_concepts(kg, expr)
    if not any(leaf.name in kg.column_concepts for leaf in raw_refs(expr)):
        return kgmod.Verdict(VerdictStatus.UNCOVERED, None, unit, name, concepts)
    if isinstance(expr, RawRef):
        return kgmod.Verdict(VerdictStatus.INTERPRETABLE, None, unit, name, concepts)
    fixpoint, provenance = forward_chain_scan(kg, facts)
    bad = ("nonInterpretable", root_id)
    if bad in fixpoint:
        return kgmod.Verdict(VerdictStatus.NON_INTERPRETABLE,
                             provenance.get(bad, "rule"), unit, name, concepts)
    rejected = sorted((int(f[1][1:]), reason) for f, reason in provenance.items()
                      if f[0] == "nonInterpretable")
    if rejected:
        return kgmod.Verdict(VerdictStatus.NON_INTERPRETABLE, rejected[0][1], unit, name,
                             concepts)
    if unit is None or (not unit.dimensionless and registered_name_scan(kg, unit) is None):
        return kgmod.Verdict(VerdictStatus.NON_INTERPRETABLE, "unknown unit", unit, name,
                             concepts)
    return kgmod.Verdict(VerdictStatus.INTERPRETABLE, None, unit, name, concepts)


@pytest.fixture(scope="module")
def temperature_kg(tmp_path_factory, default_kg_path):
    """The shipped KG with two temperatures and a stock, so every shipped
    rule can fire."""
    mapping = {"T1": {"class": "Temperature", "unit": "celsius"},
               "T2": {"class": "Temperature", "unit": "celsius"},
               "STOCK": {"class": "Stock", "unit": "count"},
               "WEIGHT": {"class": "Weight", "unit": "kg"}}
    path = tmp_path_factory.mktemp("kg") / "mapping.json"
    path.write_text(json.dumps(mapping))
    return load_kg(default_kg_path, str(path))


_LEAF = None
_STEPS = [_LEAF] * 4 + catalog()


def decode_expression(columns, codes):
    """A postfix program of integers as an expression of at most 8 leaves,
    with no kind checks: each code pushes a leaf or applies an operator to the
    top of the stack; an odd code hands a binary operator one sub-expression
    twice. Drawing integers is far cheaper for hypothesis than `expressions`."""
    stack = []                        # (expression, its number of leaves)
    for code in codes:
        step, arg = _STEPS[code % len(_STEPS)], code // len(_STEPS)
        if step is _LEAF or not stack:
            stack.append((RawRef(columns[arg % len(columns)]), 1))
        elif step.arity in (Arity.UNARY, Arity.DATE):
            top, n = stack.pop()
            stack.append((Node(step.name, (top,)), n))
        elif (arg % 2 or len(stack) < 2) and 2 * stack[-1][1] <= 8:
            top, n = stack.pop()
            stack.append((Node(step.name, (top, top)), 2 * n))
        elif len(stack) >= 2 and stack[-1][1] + stack[-2][1] <= 8:
            (right, m), (left, n) = stack.pop(), stack.pop()
            stack.append((Node(step.name, (left, right)), n + m))
    return stack[-1][0]


# 3,000 examples, one expression each: the indexed join must agree with the
# scan on every rule, binding and provenance the shipped KG produces
@settings(max_examples=3000, deadline=None)
@given(which=st.integers(0, 2), codes=st.lists(st.integers(0, 2**16), min_size=1,
                                               max_size=16))
def test_indexed_join_matches_the_scan_oracle(diabetes_kg, sales_kg, temperature_kg,
                                              which, codes):
    kg = [diabetes_kg, sales_kg, temperature_kg][which]
    expr = decode_expression(sorted(kg.column_concepts) + ["UNMAPPED"], codes)
    facts, _ = kgmod.materialize_facts(kg, expr)
    assert forward_chain(kg, facts) == forward_chain_scan(kg, facts)
    assert judge(kg, expr) == judge_scan(kg, expr)


def test_indexed_join_matches_the_scan_on_constants_and_repeats():
    # constant and repeated arguments, a predicate used at two arities, a
    # zero-argument atom, and a rule that feeds the next round; no fact the
    # engine asserts is an `R` or a `Go`, so load_kg refuses these rules, and
    # the KG is built directly
    Atom, Rule = kgmod.Atom, kgmod.Rule
    rules = [
        Rule("const", (Atom("R", ("k", "?y")), Atom("R", ("?y", "?y"))), Atom("A", ("?y",))),
        Rule("chain", (Atom("A", ("?x",)), Atom("R", ("?x",)), Atom("Go", ())),
             Atom("S", ("?x", "k"))),
        Rule("back", (Atom("S", ("?x", "?c")), Atom("R", ("?c", "?x"))), Atom("B", ("?x",))),
    ]
    kg = kgmod.KnowledgeGraph(["A", "B"], {}, {}, {}, rules)
    facts = {("R", "k", "a"), ("R", "a", "a"), ("R", "k", "b"), ("R", "b", "c"),
             ("R", "a"), ("Go",), ("R", "c", "c"), ("R", "k", "c")}
    got = forward_chain(kg, facts)
    assert got == forward_chain_scan(kg, facts)
    assert {("A", "a"), ("A", "c"), ("S", "a", "k"), ("B", "a")} <= got[0]
    assert ("B", "c") not in got[0]


def test_different_keeps_constants_and_compares_any_bound_value(tmp_path):
    # a constant argument is compared as itself; a variable bound to an
    # individual that is not a string is bound, not a pattern
    doc = {"classes": ["Units"],
           "units": [{"name": "kg", "dims": {"mass": 1}}, {"name": "m", "dims": {"length": 1}}],
           "rules": [{"name": "not kg", "body": [{"pred": "hasUnit", "args": ["?x", "?u"]},
                                                 {"pred": "Different", "args": ["?u", "kg"]}],
                      "head": {"pred": "Light", "args": ["?x"]}},
                     {"name": "pair", "body": [{"pred": "Feature", "args": ["?x"]},
                                               {"pred": "Feature", "args": ["?y"]},
                                               {"pred": "Different", "args": ["?x", "?y"]}],
                      "head": {"pred": "Pair", "args": ["?x", "?y"]}}]}
    path = tmp_path / "kg.json"
    path.write_text(json.dumps(doc))
    kg = load_kg(str(path))
    a, b = RawRef("a"), Node("sqrt", (RawRef("a"),))
    facts = {("hasUnit", a, "kg"), ("hasUnit", b, "m"), ("Feature", a), ("Feature", b)}
    got = forward_chain(kg, facts)
    assert got == forward_chain_scan(kg, facts)
    assert {f for f in got[0] if f[0] in ("Light", "Pair")} == {
        ("Light", b), ("Pair", a, b), ("Pair", b, a)}


def test_dimensionless_derived_nodes_name_dim_1(sales_kg):
    # a day of the month and a usd/usd ratio have no dims; `count` is the
    # registered unit without dims, but naming it claimed a count
    day = Node("day", (RawRef("DATE"),))
    ratio = Node("div", (RawRef("PRICE"), RawRef("PRICE")))
    for expr in (day, ratio):
        facts, nodes = kgmod.materialize_facts(sales_kg, expr)
        unit, name = nodes[expr]
        assert unit == DIMENSIONLESS
        assert kgmod.unit_token(sales_kg, unit) == name == "dim:1"
        assert ("hasUnit", expr, "dim:1") in facts
        assert judge(sales_kg, expr).status == VerdictStatus.INTERPRETABLE
        assert judge(sales_kg, expr).unit_name == "dim:1"
    squared = Node("mul", (RawRef("PRICE"), RawRef("PRICE")))
    assert kgmod.unit_token(sales_kg, judge(sales_kg, squared).unit) == "usd2"
    assert judge(sales_kg, squared).unit_name == "usd2"
    # a leaf keeps its mapped name, `count` included
    facts, _ = kgmod.materialize_facts(sales_kg, RawRef("UNITS_SOLD"))
    assert ("hasUnit", RawRef("UNITS_SOLD"), "count") in facts


def test_a_repeated_sub_expression_is_one_individual(diabetes_kg):
    # numbering every node of the tree asserted 2**13 - 1 = 8,191 Feature
    # facts for these 13 distinct nodes
    e = RawRef("WEIGHT")
    for _ in range(12):
        e = Node("add", (e, e))
    facts, nodes = kgmod.materialize_facts(diabetes_kg, e)
    assert len(nodes) == 13
    assert sum(f[0] == "Feature" for f in facts) == 13
    assert judge(diabetes_kg, e) == kgmod.Verdict(
        VerdictStatus.INTERPRETABLE, None, diabetes_kg.unit_registry["kg"], "kg",
        oracle_concepts(diabetes_kg, e))


def test_the_first_rejected_sub_expression_in_post_order_gives_the_reason(sales_kg):
    # the inventory sum comes before the mixed-unit addition in post-order;
    # ordering rejected node ids as strings put `n12` before `n2`
    stock = RawRef("STOCK_LEVEL")
    total = Node("group_sum", (stock, stock))
    day = Node("day", (total,))
    quartic_root = Node("sqrt", (Node("sqrt", (RawRef("PRICE"),)),))
    expr = Node("reciprocal", (Node("add", (Node("mul", (day, day)), quartic_root)),))
    assert render_name(expr) == (
        "RECIPROCAL(((DAY(GROUP_SUM(STOCK_LEVEL BY STOCK_LEVEL)) * "
        "DAY(GROUP_SUM(STOCK_LEVEL BY STOCK_LEVEL))) + SQRT(SQRT(PRICE))))")
    verdict = judge(sales_kg, expr)
    assert verdict.status == VerdictStatus.NON_INTERPRETABLE
    assert verdict.reason == "inventory totals are not summable"
    assert verdict == judge_scan(sales_kg, expr)
    # the repeated sum is asserted once, not again as an orphan copy
    facts, _ = kgmod.materialize_facts(sales_kg, expr)
    assert [f for f in facts if f[0] == "aggregationSum"] == [("aggregationSum", ("t", total))]


def test_a_null_unit_class_or_rule_name_reads_as_absent(tmp_path, kg_doc):
    doc = json.loads(json.dumps(kg_doc))
    doc["units"][0]["class"] = None
    doc["rules"][0]["name"] = None
    path = tmp_path / "kg.json"
    path.write_text(json.dumps(doc))
    kg = load_kg(str(path), kgfeat.resource_path("diabetes.mapping.json"))
    assert kg.unit_class[doc["units"][0]["name"]] == "Units"
    verdict = judge(kg, Node("add", (RawRef("WEIGHT"), RawRef("HEIGHT"))))
    assert verdict.status == VerdictStatus.NON_INTERPRETABLE and verdict.reason == "rule 1"


def test_unit_names_map_each_dims_to_its_first_registered_name(diabetes_kg):
    # `m` and `mm` share their dims, and `m` is registered first
    for unit in list(diabetes_kg.unit_registry.values()) + [Unit.of(mass=3)]:
        assert diabetes_kg.unit_names.get(unit.dims) == registered_name_scan(diabetes_kg, unit)
    assert diabetes_kg.unit_names[diabetes_kg.unit_registry["mm"].dims] == "m"
    assert kgmod._token_dims(diabetes_kg, "mm") == kgmod._token_dims(diabetes_kg, "m")
    assert kgmod._token_dims(diabetes_kg, "dim:1") == ()
    assert kgmod._token_dims(diabetes_kg, "count") == ()
    # a derived node names registered dims by name, so a dims token is never
    # one of them and compares as itself
    assert kgmod.unit_token(diabetes_kg, Unit.of(mass=1)) == "kg"
    assert kgmod._token_dims(diabetes_kg, "dim:mass=1") == "dim:mass=1"


def test_judge_rejects_a_class_a_rule_derives_below_non_interpretable(tmp_path, kg_doc):
    # a rule that derives a subclass of nonInterpretable rejects the node;
    # judge read only nonInterpretable facts, so WEIGHT + WEIGHT passed and
    # SQRT(WEIGHT + WEIGHT) was discarded as an unknown unit
    doc = json.loads(json.dumps(kg_doc))
    doc["classes"].append("Unsummable")
    doc["subclass_of"].append(["Unsummable", "nonInterpretable"])
    doc["rules"].append({"name": "sums are unsummable",
                         "body": [{"pred": "Addition", "args": ["?t"]},
                                  {"pred": "hasOutput", "args": ["?t", "?z"]}],
                         "head": {"pred": "Unsummable", "args": ["?z"]}})
    path = tmp_path / "kg.json"
    path.write_text(json.dumps(doc))
    kg = load_kg(str(path), kgfeat.resource_path("diabetes.mapping.json"))
    total = Node("add", (RawRef("WEIGHT"), RawRef("WEIGHT")))
    for expr in (total, Node("sqrt", (total,))):
        verdict = judge(kg, expr)
        assert verdict.status == VerdictStatus.NON_INTERPRETABLE
        assert verdict.reason == "sums are unsummable"
    assert judge(kg, RawRef("WEIGHT")).interpretable  # raw columns skip the rules


@pytest.mark.parametrize("first", [0, 1])
def test_the_first_rule_deriving_a_rejecting_class_is_the_reason(tmp_path, kg_doc, first):
    # two rules derive classes below nonInterpretable for the same node, one
    # of them two levels below: the earlier rule in the KG's order is the reason
    doc = json.loads(json.dumps(kg_doc))
    doc["classes"] += ["Unsummable", "Unwanted"]
    doc["subclass_of"] += [["Unsummable", "nonInterpretable"], ["Unwanted", "Unsummable"]]
    rules = [{"name": f"sums are {cls.lower()}",
              "body": [{"pred": "Addition", "args": ["?t"]},
                       {"pred": "hasOutput", "args": ["?t", "?z"]}],
              "head": {"pred": cls, "args": ["?z"]}} for cls in ("Unsummable", "Unwanted")]
    doc["rules"] += rules[first:] + rules[:first]
    path = tmp_path / "kg.json"
    path.write_text(json.dumps(doc))
    kg = load_kg(str(path), kgfeat.resource_path("diabetes.mapping.json"))
    verdict = judge(kg, Node("add", (RawRef("WEIGHT"), RawRef("WEIGHT"))))
    assert verdict.status == VerdictStatus.NON_INTERPRETABLE
    assert verdict.reason == rules[first]["name"]


@pytest.mark.parametrize("body, unbound", [
    ([{"pred": "Different", "args": ["?u", "?v"]},
      {"pred": "hasUnit", "args": ["?x", "?u"]}, {"pred": "hasUnit", "args": ["?y", "?v"]}],
     "?u"),
    ([{"pred": "hasUnit", "args": ["?x", "?u"]}, {"pred": "Different", "args": ["?u", "?v"]},
      {"pred": "hasUnit", "args": ["?y", "?v"]}], "?v"),
    ([{"pred": "hasUnit", "args": ["?x", "?u"]}, {"pred": "Different", "args": ["?u", "?w"]},
      {"pred": "Different", "args": ["?w", "?u"]}], "?w"),
])
def test_different_follows_the_atoms_binding_its_variables(tmp_path, body, unbound):
    # such a rule loaded, and its join dropped every binding, so it never fired
    doc = {"classes": ["Light"],
           "rules": [{"name": "apart", "body": body, "head": {"pred": "Light", "args": ["?x"]}}]}
    path = tmp_path / "kg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(KGError) as exc:
        load_kg(str(path))
    assert str(exc.value) == (f"{path}: rule 'apart': Different's {unbound} is not bound "
                              "by an earlier atom")
