import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgfeat.data import Column, Dataset, Kind, Task
from kgfeat.engine import target_codes
from kgfeat.transform import (AggNode, Arity, BinaryNode, DateNode, RawRef,
                              TransformError, UnaryNode, _abs_pearson,
                              _centred, apply, catalog, catalog_op,
                              expand_action, expr_from_json, expr_to_json,
                              order, render_name, search_space_size)


def num_col(name, vals, missing=None):
    vals = np.asarray(vals, dtype=float)
    if missing is None:
        missing = np.zeros(len(vals), dtype=bool)
    return Column(name, Kind.NUMERIC, vals, np.asarray(missing, dtype=bool))


def cat_col(name, vals, missing=None):
    vals = np.asarray(vals, dtype=object)
    if missing is None:
        missing = np.zeros(len(vals), dtype=bool)
    return Column(name, Kind.CATEGORICAL, vals, np.asarray(missing, dtype=bool))


def make_dataset(columns, target, task=Task.REGRESSION):
    return Dataset(columns=columns, target=target, task=task,
                   n_rows=len(columns[0]))


@pytest.fixture()
def d():
    return make_dataset(
        [
            num_col("weight", [70.0, 80.0, 60.0, 90.0]),
            num_col("height", [1.75, 1.80, 1.60, 2.0]),
            cat_col("city", ["paris", "rome", "paris", "rome"]),
            num_col("y", [1.0, 2.0, 3.0, 4.0]),
        ],
        target="y",
    )


def test_catalog_size_and_arities():
    ops = catalog()
    assert len(ops) == 19
    by_arity = {a: sum(1 for op in ops if op.arity == a) for a in Arity}
    assert by_arity[Arity.UNARY] == 5
    assert by_arity[Arity.BINARY] == 6
    assert by_arity[Arity.AGGREGATION] == 4
    assert by_arity[Arity.DATE] == 4


def test_catalog_op_lookup():
    assert catalog_op("div").arity == Arity.BINARY
    with pytest.raises(TransformError):
        catalog_op("cube")


def test_order():
    w = RawRef("weight")
    h = RawRef("height")
    assert order(w) == 0
    assert order(UnaryNode("log", w)) == 1
    bmi = BinaryNode("div", w, UnaryNode("square", h))
    assert order(bmi) == 2
    assert order(AggNode("group_mean", RawRef("city"), bmi)) == 3


def test_render_name():
    w = RawRef("weight")
    h = RawRef("height")
    bmi = BinaryNode("div", w, UnaryNode("square", h))
    assert render_name(bmi) == "(WEIGHT / SQUARE(HEIGHT))"
    assert render_name(AggNode("group_mean", RawRef("city"), w)) == \
        "GROUP_MEAN(WEIGHT BY CITY)"
    assert render_name(UnaryNode("one_hot", RawRef("city"), "paris")) == \
        "ONE_HOT(CITY=PARIS)"
    assert render_name(DateNode("is_weekend", RawRef("when"))) == "IS_WEEKEND(WHEN)"


def test_json_round_trip():
    exprs = [
        RawRef("a"),
        UnaryNode("one_hot", RawRef("c"), "x"),
        BinaryNode("div", RawRef("a"), UnaryNode("square", RawRef("b"))),
        AggNode("group_sum", RawRef("c"), RawRef("a")),
        DateNode("year", RawRef("d")),
    ]
    for e in exprs:
        assert expr_from_json(expr_to_json(e)) == e


def test_apply_ratio_of_square(d):
    # 70 / 1.75^2 = 22.857142857...
    bmi = BinaryNode("div", RawRef("weight"), UnaryNode("square", RawRef("height")))
    feat = apply(bmi, d)
    assert feat.values[0] == pytest.approx(70.0 / 1.75 ** 2, abs=1e-12)
    assert feat.values[0] == pytest.approx(22.857142857142858, abs=1e-9)
    assert not feat.missing.any()
    assert feat.kind == Kind.NUMERIC


def test_domain_violations_become_missing():
    d = make_dataset(
        [num_col("a", [1.0, 0.0, -2.0]), num_col("y", [1.0, 2.0, 3.0])],
        target="y",
    )
    log = apply(UnaryNode("log", RawRef("a")), d)
    assert log.missing.tolist() == [False, True, True]
    sqrt = apply(UnaryNode("sqrt", RawRef("a")), d)
    assert sqrt.missing.tolist() == [False, False, True]
    rec = apply(UnaryNode("reciprocal", RawRef("a")), d)
    assert rec.missing.tolist() == [False, True, False]
    div = apply(BinaryNode("div", RawRef("y"), RawRef("a")), d)
    assert div.missing.tolist() == [False, True, False]
    assert div.values[2] == pytest.approx(-1.5)


def test_missing_propagates():
    d = make_dataset(
        [num_col("a", [1.0, np.nan], [False, True]),
         num_col("b", [2.0, 3.0]),
         num_col("y", [0.0, 1.0])],
        target="y",
    )
    s = apply(BinaryNode("add", RawRef("a"), RawRef("b")), d)
    assert s.missing.tolist() == [False, True]
    assert s.values[0] == 3.0


_HUGE = st.floats(-1e300, 1e300, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -1e200, 1e200, 1.7e308, -1.7e308])


@settings(max_examples=60, deadline=None)
@given(a=st.lists(_HUGE, min_size=6, max_size=6),
       b=st.lists(_HUGE, min_size=6, max_size=6))
def test_apply_outputs_are_finite_or_missing(a, b):
    # overflow (square of 1e200, 1e308 + 1e308, a group sum) flags the cell
    # missing instead of leaving inf or NaN in it
    d = make_dataset([num_col("a", a), num_col("b", b),
                      cat_col("g", ["x", "x", "y", "y", "x", "y"]),
                      num_col("t", range(6))], target="t")
    x, y = RawRef("a"), RawRef("b")
    exprs = [UnaryNode(op, x) for op in ("log", "sqrt", "square", "reciprocal")]
    exprs += [BinaryNode(op, x, y) for op in ("add", "sub", "mul", "div")]
    exprs += [AggNode(op, RawRef("g"), x)
              for op in ("group_min", "group_max", "group_mean", "group_sum")]
    exprs += [UnaryNode("square", UnaryNode("square", x)),
              BinaryNode("sub", UnaryNode("square", x), UnaryNode("square", y)),
              UnaryNode("reciprocal", UnaryNode("square", x))]
    for expr in exprs:
        f = apply(expr, d)
        assert np.all(np.isfinite(f.values) | f.missing), render_name(expr)


def test_logical_ops_require_boolean():
    d = make_dataset(
        [num_col("a", [1.0, 0.0]), num_col("y", [0.0, 1.0])],
        target="y",
    )
    with pytest.raises(TransformError):
        apply(BinaryNode("and", RawRef("a"), RawRef("a")), d)


def test_logical_ops_on_booleans():
    f1 = Column("f1", Kind.BOOLEAN, np.array([1.0, 1.0, 0.0, 0.0]),
                np.zeros(4, dtype=bool))
    f2 = Column("f2", Kind.BOOLEAN, np.array([1.0, 0.0, 1.0, 0.0]),
                np.zeros(4, dtype=bool))
    d = make_dataset([f1, f2, num_col("y", [0, 1, 2, 3])], target="y")
    a = apply(BinaryNode("and", RawRef("f1"), RawRef("f2")), d)
    o = apply(BinaryNode("or", RawRef("f1"), RawRef("f2")), d)
    assert a.values.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert o.values.tolist() == [1.0, 1.0, 1.0, 0.0]
    assert a.kind == Kind.BOOLEAN


def test_group_aggregations(d):
    # paris rows: weights 70, 60; rome rows: 80, 90
    mean = apply(AggNode("group_mean", RawRef("city"), RawRef("weight")), d)
    assert mean.values.tolist() == [65.0, 85.0, 65.0, 85.0]
    mx = apply(AggNode("group_max", RawRef("city"), RawRef("weight")), d)
    assert mx.values.tolist() == [70.0, 90.0, 70.0, 90.0]
    mn = apply(AggNode("group_min", RawRef("city"), RawRef("weight")), d)
    assert mn.values.tolist() == [60.0, 80.0, 60.0, 80.0]
    sm = apply(AggNode("group_sum", RawRef("city"), RawRef("weight")), d)
    assert sm.values.tolist() == [130.0, 170.0, 130.0, 170.0]


def test_one_hot(d):
    f = apply(UnaryNode("one_hot", RawRef("city"), "paris"), d)
    assert f.values.tolist() == [1.0, 0.0, 1.0, 0.0]
    assert f.kind == Kind.BOOLEAN


def test_date_extractors():
    # 1970-01-01: Thursday; 1970-01-03: Saturday; 1970-02-01: Sunday;
    # 1971-01-01: Friday
    days = np.array([0.0, 2.0, 31.0, 365.0])
    col = Column("when", Kind.DATE, days, np.zeros(4, dtype=bool))
    d = make_dataset([col, num_col("y", [0, 1, 2, 3])], target="y")
    assert apply(DateNode("day", RawRef("when")), d).values.tolist() == [1, 3, 1, 1]
    assert apply(DateNode("month", RawRef("when")), d).values.tolist() == [1, 1, 2, 1]
    assert apply(DateNode("year", RawRef("when")), d).values.tolist() == \
        [1970, 1970, 1970, 1971]
    assert apply(DateNode("is_weekend", RawRef("when")), d).values.tolist() == \
        [0.0, 1.0, 1.0, 0.0]


def test_categorical_raw_has_no_numeric_value(d):
    with pytest.raises(TransformError):
        apply(RawRef("city"), d)


def test_expand_action_dedup_and_cap(d):
    from kgfeat.engine import raw_pool
    from kgfeat.kg import empty_kg

    pool = [e.feature for e in raw_pool(d, empty_kg())]
    numeric = [f for f in pool if f.kind == Kind.NUMERIC]
    # commutative add over 2 numeric columns: pairs with replacement = 3
    cands = expand_action(catalog_op("add"), numeric, target_codes(d),
                          cap=50, max_order=5)
    assert len(cands) == 3
    names = {c.display_name for c in cands}
    assert "(WEIGHT + HEIGHT)" in names and "(HEIGHT + WEIGHT)" not in names
    # non-commutative sub: ordered distinct pairs = 2
    cands = expand_action(catalog_op("sub"), numeric, target_codes(d),
                          cap=50, max_order=5)
    assert len(cands) == 2
    # cap respected
    cands = expand_action(catalog_op("add"), numeric, target_codes(d),
                          cap=1, max_order=5)
    assert len(cands) == 1


def test_expand_action_skips_existing(d):
    from kgfeat.engine import raw_pool
    from kgfeat.kg import empty_kg

    pool = [e.feature for e in raw_pool(d, empty_kg())]
    numeric = [f for f in pool if f.kind == Kind.NUMERIC]
    first = expand_action(catalog_op("square"), numeric, target_codes(d),
                          cap=10, max_order=5)
    assert len(first) == 2
    again = expand_action(catalog_op("square"), numeric + first,
                          target_codes(d), cap=10, max_order=5)
    assert {c.display_name for c in again}.isdisjoint(
        {c.display_name for c in first})


def test_expand_action_respects_max_order(d):
    from kgfeat.engine import raw_pool
    from kgfeat.kg import empty_kg

    pool = [e.feature for e in raw_pool(d, empty_kg())]
    numeric = [f for f in pool if f.kind == Kind.NUMERIC]
    assert expand_action(catalog_op("square"), numeric, target_codes(d),
                         cap=10, max_order=0) == []


def test_expand_action_drops_mostly_missing():
    d = make_dataset(
        [num_col("a", [0.0] * 7 + [1.0, 2.0, 3.0]),  # log missing on 7/10 rows
         num_col("y", list(range(10)))],
        target="y",
    )
    cands = expand_action(catalog_op("log"),
                          [apply(RawRef("a"), d)], target_codes(d),
                          cap=10, max_order=5)
    assert cands == []


def test_expand_action_deterministic(d):
    from kgfeat.engine import raw_pool
    from kgfeat.kg import empty_kg

    pool = [e.feature for e in raw_pool(d, empty_kg())]
    numeric = [f for f in pool if f.kind == Kind.NUMERIC]
    a = expand_action(catalog_op("mul"), numeric, target_codes(d),
                      cap=4, max_order=5)
    b = expand_action(catalog_op("mul"), numeric, target_codes(d),
                      cap=4, max_order=5)
    assert [c.display_name for c in a] == [c.display_name for c in b]


def brute_force_count(p, arities):
    """Independent oracle: enumerate every (ordered operand tuple, op) pair."""
    total = 0
    for i, n_ops in arities.items():
        tuples = list(itertools.permutations(range(p), i))
        total += len(tuples) * n_ops
    return total


def test_search_space_size_matches_enumeration():
    full = {1: 9, 2: 10}  # catalog: 5 unary + 4 date, 6 binary + 4 aggregation
    subsets = [full, {1: 9}, {2: 10}, {1: 3, 2: 2}, {1: 1}, {2: 1}]
    for p in range(1, 5):
        for arities in subsets:
            assert search_space_size(p, arities) == brute_force_count(p, arities)


def test_search_space_size_known_value():
    # p=2, full catalog: 2*9 + 2*10 = 38
    assert search_space_size(2, {1: 9, 2: 10}) == 38


def test_search_space_size_invalid():
    with pytest.raises(TransformError):
        search_space_size(0, {1: 9})


@settings(max_examples=50, deadline=None)
@given(p=st.integers(1, 6),
       n1=st.integers(0, 9), n2=st.integers(0, 10))
def test_search_space_size_property(p, n1, n2):
    arities = {}
    if n1:
        arities[1] = n1
    if n2:
        arities[2] = n2
    expected = sum(math.perm(p, i) * c for i, c in arities.items() if i <= p)
    assert search_space_size(p, arities) == expected


def mixed_dataset():
    """Numeric, Boolean, Categorical and Date columns with a few missing cells."""
    rng = np.random.default_rng(0)
    n = 12
    one_missing = np.arange(n) == 3

    def bool_col(name, p):
        return Column(name, Kind.BOOLEAN, (rng.random(n) < p).astype(float),
                      np.zeros(n, dtype=bool))

    return make_dataset(
        [num_col("a", rng.normal(size=n)),
         num_col("b", np.where(one_missing, np.nan, rng.uniform(0.5, 3.0, n)),
                 missing=one_missing),
         bool_col("f1", 0.5),
         bool_col("f2", 0.3),
         cat_col("city", np.where(one_missing, "", rng.choice(["oslo", "rome", "lima"], n)),
                 missing=one_missing),
         Column("when", Kind.DATE, rng.integers(0, 20000, n).astype(float),
                np.zeros(n, dtype=bool)),
         num_col("y", rng.normal(size=n))],
        target="y",
    )


def test_incremental_evaluation_matches_cold_apply():
    from kgfeat.engine import raw_pool
    from kgfeat.kg import empty_kg

    d = mixed_dataset()
    y = target_codes(d)
    pool = [e.feature for e in raw_pool(d, empty_kg())]
    first = [c for op in catalog() for c in expand_action(op, pool, y, cap=1000, max_order=5)]
    second = [c for op in catalog()
              for c in expand_action(op, pool + first, y, cap=1000, max_order=5)]
    assert {catalog_op(c.expr.op).arity for c in first} == set(Arity)
    assert any(order(c.expr) == 2 for c in second)
    for cand in first + second:
        cold = apply(cand.expr, d)
        assert cand.kind == cold.kind, render_name(cand.expr)
        assert cand.display_name == cold.display_name
        assert cand.missing.tolist() == cold.missing.tolist(), render_name(cand.expr)
        np.testing.assert_array_equal(cand.values, cold.values)  # NaN equals NaN


def _abs_pearson_oracle(vals, miss, tvals):
    """The ranking score as it was before the target's moments were computed
    once per expansion: target masked, copied and reduced per candidate."""
    sel = ~miss & ~np.isnan(tvals)
    if sel.sum() < 2:
        return 0.0
    a = vals[sel]
    b = tvals[sel]
    sa, sb = a.std(), b.std()
    if sa == 0 or sb == 0 or not np.isfinite(sa):
        return 0.0
    c = float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))
    return abs(c) if np.isfinite(c) else 0.0


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.0, 1e-300, 1e-150, 1.0, 1e150]),
       tscale=st.sampled_from([0.0, 1e-150, 1.0, 1e150]),
       offset=st.sampled_from([0.0, 0.1, -3.0]), gaps=st.booleans())
def test_abs_pearson_matches_oracle(n, seed, scale, tscale, offset, gaps):
    # scale 0 gives a constant column, tscale 0 a constant target
    rng = np.random.default_rng(seed)
    vals = offset + scale * rng.standard_normal(n)
    y = offset + tscale * rng.standard_normal(n)
    miss = rng.random(n) < 0.3 if gaps else np.zeros(n, dtype=bool)
    vals[miss] = np.nan
    assert _abs_pearson(vals, miss, y, *_centred(y)) == _abs_pearson_oracle(vals, miss, y)


def test_expand_action_ranks_as_the_oracle_on_planted_data(planted):
    # SQRT(SQUARE(X2)) near-ties X2, so a rounding change in the score
    # reorders the div and mul candidates built from them
    from kgfeat.engine import raw_pool

    d, kg, _ = planted
    y = target_codes(d)
    pool = [e.feature for e in raw_pool(d, kg)]
    for name in ("square", "sqrt", "div", "mul"):
        cands = expand_action(catalog_op(name), pool, y, cap=10_000, max_order=5)
        want = sorted(cands, key=lambda c: (
            -_abs_pearson_oracle(c.values, c.missing, y), c.display_name))
        assert [c.display_name for c in cands] == [c.display_name for c in want]
        if name in ("square", "sqrt"):
            pool = pool + cands
    assert "SQRT(SQUARE(X2))" in {f.display_name for f in pool}


@pytest.mark.parametrize("expr", [
    UnaryNode("one_hot", RawRef("a"), "x"),
    AggNode("group_mean", RawRef("a"), RawRef("b")),
    DateNode("day", RawRef("a")),
])
def test_apply_rejects_operands_of_the_wrong_kind(expr):
    with pytest.raises(TransformError):
        apply(expr, mixed_dataset())


def test_kg_tables_cover_the_catalog():
    from kgfeat import kg

    assert set(kg.TRANSFORM_CLASS) == {op.name for op in catalog()}
    for op in catalog():
        # an aggregation's group key carries no unit into the result
        n_units = 1 if op.arity == Arity.AGGREGATION else len(op.inputs)
        kg.propagate_unit(op.name, [kg.DIMENSIONLESS] * n_units)
