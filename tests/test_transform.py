import datetime
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgfeat.data import Kind
from kgfeat.engine import target_codes
from kgfeat import transform
from kgfeat.transform import (_FINALISTS, _RANK_ROWS, MAX_MISSING_FRACTION,
                              ONE_HOT_MAX_LEVELS, Arity, Node, RawRef, TransformError,
                              _abs_pearson, _centred, _confirmed, _derive, _operand_tuples,
                              _rank_rows, apply, catalog, catalog_op,
                              categorical_codes, categorical_levels, expand_action,
                              expr_from_json, expr_to_json, order, search_space_size)

from conftest import (cat_col, empty_kg, make_dataset, make_planted_dataset, num_col,
                      render_name)


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
    assert order(Node("log", (w,))) == 1
    bmi = Node("div", (w, Node("square", (h,))))
    assert order(bmi) == 2
    assert order(Node("group_mean", (RawRef("city"), bmi))) == 3


def test_render_name():
    # a feature is named as _derive names it, from its operands' names
    d = make_dataset([num_col("weight", [60.0, 80.0]), num_col("height", [1.6, 1.8]),
                      cat_col("City", ["Oslo", "Rome"]), cat_col("city", ["Paris", "Rome"]),
                      num_col("when", [0.0, 1.0], kind=Kind.DATE)], np.array([1.0, 2.0]))
    w = RawRef("weight")
    h = RawRef("height")
    bmi = Node("div", (w, Node("square", (h,))))
    assert apply(bmi, d).name == "(weight / SQUARE(height))"
    assert apply(Node("group_mean", (RawRef("City"), w)), d).name == \
        "GROUP_MEAN(weight BY City)"
    assert apply(Node("one_hot", (RawRef("city"),), "Paris"), d).name == \
        "ONE_HOT(city=Paris)"
    assert apply(Node("is_weekend", (RawRef("when"),)), d).name == "IS_WEEKEND(when)"


def test_json_round_trip():
    exprs = [
        RawRef("a"),
        Node("one_hot", (RawRef("c"),), "x"),
        Node("div", (RawRef("a"), Node("square", (RawRef("b"),)))),
        Node("group_sum", (RawRef("c"), RawRef("a"))),
        Node("year", (RawRef("d"),)),
    ]
    for e in exprs:
        assert expr_from_json(expr_to_json(e)) == e


_RAW_A = {"type": "raw", "name": "a"}
_PINNED_DOCS = [
    (_RAW_A, "a"),
    ({"type": "unary", "op": "log", "child": _RAW_A}, "LOG(a)"),
    ({"type": "unary", "op": "one_hot", "child": {"type": "raw", "name": "c"},
      "level": "x"}, "ONE_HOT(c=x)"),
    ({"type": "binary", "op": "sub", "left": _RAW_A,
      "right": {"type": "raw", "name": "b"}}, "(a - b)"),
    ({"type": "agg", "op": "group_max", "key": {"type": "raw", "name": "c"},
      "value": {"type": "binary", "op": "mul", "left": _RAW_A, "right": _RAW_A}},
     "GROUP_MAX((a * a) BY c)"),
    ({"type": "date", "op": "month", "child": {"type": "raw", "name": "d"}}, "MONTH(d)"),
]


def test_expression_json_format_is_pinned():
    # result.json files written by earlier versions must keep loading
    for doc, name in _PINNED_DOCS:
        expr = expr_from_json(doc)
        assert expr_to_json(expr) == doc
        assert render_name(expr) == name


@pytest.mark.parametrize("doc", [
    {"type": "cube", "op": "log", "child": _RAW_A},
    {"type": "date", "op": "log", "child": _RAW_A},
    {"type": "unary", "op": "cube", "child": _RAW_A},
    {"type": "binary", "op": "group_sum", "left": _RAW_A, "right": _RAW_A},
    {"type": "agg", "op": "div", "key": _RAW_A, "value": _RAW_A},
    {"type": "unary", "op": "square", "child": {"type": "date", "op": "sqrt",
                                                 "child": _RAW_A}},
    {"type": "unary", "op": "one_hot", "child": _RAW_A},
    {"type": "unary", "op": "log", "child": _RAW_A, "level": "x"},
    5,
    ["raw", "a"],
    {"op": "log", "child": _RAW_A},
    {"type": "raw"},
    {"type": "unary", "child": _RAW_A},
    {"type": "unary", "op": "log"},
    {"type": "binary", "op": "add", "left": _RAW_A},
    {"type": "unary", "op": "log", "child": "a"},
])
def test_malformed_expression_docs_are_rejected(doc):
    with pytest.raises(TransformError):
        expr_from_json(doc)


@pytest.mark.parametrize("doc, field", [
    ({"op": "log", "child": _RAW_A}, "type"),
    ({"type": "raw"}, "name"),
    ({"type": "unary", "child": _RAW_A}, "op"),
    ({"type": "unary", "op": "log"}, "child"),
    ({"type": "agg", "op": "group_sum", "key": _RAW_A}, "value"),
])
def test_missing_expression_field_is_named(doc, field):
    with pytest.raises(TransformError, match=f"no '{field}' field"):
        expr_from_json(doc)


def test_apply_ratio_of_square(d):
    # 70 / 1.75^2 = 22.857142857...
    bmi = Node("div", (RawRef("weight"), Node("square", (RawRef("height"),))))
    feat = apply(bmi, d)
    assert feat.values[0] == pytest.approx(70.0 / 1.75 ** 2, abs=1e-12)
    assert feat.values[0] == pytest.approx(22.857142857142858, abs=1e-9)
    assert not np.isnan(feat.values).any()
    assert feat.kind == Kind.NUMERIC


def test_domain_violations_become_missing():
    d = make_dataset(
        [num_col("a", [1.0, 0.0, -2.0]), num_col("y", [1.0, 2.0, 3.0])],
        target="y",
    )
    log = apply(Node("log", (RawRef("a"),)), d)
    assert np.isnan(log.values).tolist() == [False, True, True]
    sqrt = apply(Node("sqrt", (RawRef("a"),)), d)
    assert np.isnan(sqrt.values).tolist() == [False, False, True]
    rec = apply(Node("reciprocal", (RawRef("a"),)), d)
    assert np.isnan(rec.values).tolist() == [False, True, False]
    div = apply(Node("div", (RawRef("y"), RawRef("a"))), d)
    assert np.isnan(div.values).tolist() == [False, True, False]
    assert div.values[2] == pytest.approx(-1.5)


def test_missing_propagates():
    d = make_dataset(
        [num_col("a", [1.0, np.nan], [False, True]),
         num_col("b", [2.0, 3.0]),
         num_col("y", [0.0, 1.0])],
        target="y",
    )
    s = apply(Node("add", (RawRef("a"), RawRef("b"))), d)
    assert np.isnan(s.values).tolist() == [False, True]
    assert s.values[0] == 3.0


_HUGE = st.floats(-1e300, 1e300, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -1e200, 1e200, 1.7e308, -1.7e308])


@settings(max_examples=60, deadline=None)
@given(a=st.lists(_HUGE, min_size=6, max_size=6),
       b=st.lists(_HUGE, min_size=6, max_size=6))
def test_apply_outputs_are_finite_or_missing(a, b):
    # overflow (square of 1e200, 1e308 + 1e308, a group sum) makes the cell
    # missing, NaN, instead of leaving inf in it
    d = make_dataset([num_col("a", a), num_col("b", b),
                      cat_col("g", ["x", "x", "y", "y", "x", "y"]),
                      num_col("t", range(6))], target="t")
    x, y = RawRef("a"), RawRef("b")
    exprs = [Node(op, (x,)) for op in ("log", "sqrt", "square", "reciprocal")]
    exprs += [Node(op, (x, y)) for op in ("add", "sub", "mul", "div")]
    exprs += [Node(op, (RawRef("g"), x))
              for op in ("group_min", "group_max", "group_mean", "group_sum")]
    exprs += [Node("square", (Node("square", (x,)),)),
              Node("sub", (Node("square", (x,)), Node("square", (y,)))),
              Node("reciprocal", (Node("square", (x,)),))]
    for expr in exprs:
        f = apply(expr, d)
        assert not np.isinf(f.values).any(), render_name(expr)


def test_logical_ops_require_boolean():
    d = make_dataset(
        [num_col("a", [1.0, 0.0]), num_col("y", [0.0, 1.0])],
        target="y",
    )
    with pytest.raises(TransformError):
        apply(Node("and", (RawRef("a"), RawRef("a"))), d)


def test_logical_ops_on_booleans():
    f1 = num_col("f1", [1.0, 1.0, 0.0, 0.0], kind=Kind.BOOLEAN)
    f2 = num_col("f2", [1.0, 0.0, 1.0, 0.0], kind=Kind.BOOLEAN)
    d = make_dataset([f1, f2, num_col("y", [0, 1, 2, 3])], target="y")
    a = apply(Node("and", (RawRef("f1"), RawRef("f2"))), d)
    o = apply(Node("or", (RawRef("f1"), RawRef("f2"))), d)
    assert a.values.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert o.values.tolist() == [1.0, 1.0, 1.0, 0.0]
    assert a.kind == Kind.BOOLEAN


def test_group_aggregations(d):
    # paris rows: weights 70, 60; rome rows: 80, 90
    mean = apply(Node("group_mean", (RawRef("city"), RawRef("weight"))), d)
    assert mean.values.tolist() == [65.0, 85.0, 65.0, 85.0]
    mx = apply(Node("group_max", (RawRef("city"), RawRef("weight"))), d)
    assert mx.values.tolist() == [70.0, 90.0, 70.0, 90.0]
    mn = apply(Node("group_min", (RawRef("city"), RawRef("weight"))), d)
    assert mn.values.tolist() == [60.0, 80.0, 60.0, 80.0]
    sm = apply(Node("group_sum", (RawRef("city"), RawRef("weight"))), d)
    assert sm.values.tolist() == [130.0, 170.0, 130.0, 170.0]


def test_one_hot(d):
    f = apply(Node("one_hot", (RawRef("city"),), "paris"), d)
    assert f.values.tolist() == [1.0, 0.0, 1.0, 0.0]
    assert f.kind == Kind.BOOLEAN


def test_group_by_a_cell_reading_the_missing_sentinel():
    # the string keys gave a present cell reading "⟂missing" the missing
    # cells' group: 82.5 on all four of the last rows
    d = make_dataset([cat_col("k", ["a", "⟂missing", "", "a", "⟂missing", ""],
                              [False, False, True, False, False, True]),
                      num_col("v", [1, 10, 100, 3, 20, 200]),
                      num_col("y", [0, 1, 2, 3, 4, 5])], target="y")
    mean = apply(Node("group_mean", (RawRef("k"), RawRef("v"))), d)
    assert mean.values.tolist() == [2.0, 15.0, 150.0, 2.0, 15.0, 150.0]


def test_one_hot_of_a_level_the_column_lacks_is_zero_with_nan_at_missing():
    d = make_dataset([cat_col("city", ["paris", "", "rome"], [False, True, False]),
                      num_col("y", [0, 1, 2])], target="y")
    for level in ("oslo", "⟂other", ""):
        f = apply(Node("one_hot", (RawRef("city"),), level), d)
        np.testing.assert_array_equal(f.values, [0.0, np.nan, 0.0])


def test_a_cell_reading_the_fold_level_name_keeps_its_own_one_hot():
    # 30 cells read "⟂other", the fold level's old name, and 25 values two
    # cells each: ONE_HOT(k=⟂other) summed to 0 over the literal cells and
    # to 14 over the folded ones, and the level list had 19 entries
    cells = ["⟂other"] * 30 + [f"v{i:02d}" for i in range(25)] * 2
    d = make_dataset([cat_col("k", cells), num_col("y", np.arange(80.0))], target="y")
    levels = categorical_levels(d.column("k"))[0]
    assert len(levels) == ONE_HOT_MAX_LEVELS and "⟂other" in levels
    literal = np.array(cells) == "⟂other"
    one_hot = apply(Node("one_hot", (RawRef("k"),), "⟂other"), d).values
    assert one_hot.sum() == one_hot[literal].sum() == 30
    folded = apply(Node("one_hot", (RawRef("k"),), ""), d)
    assert folded.name == "ONE_HOT(k=)"
    assert folded.values.sum() == 2 * (25 - (ONE_HOT_MAX_LEVELS - 2))
    assert folded.values[literal].sum() == 0


def _string_keys_oracle(cells):
    """Levels and per-row group keys as strings, as they were computed
    before categorical codes: a per-row loop over the cells, an empty one
    missing, with sentinel strings."""
    counts = {}
    for c in filter(None, cells):
        counts[c] = counts.get(c, 0) + 1
    levels = sorted(counts, key=lambda lv: (-counts[lv], lv))
    if len(levels) > ONE_HOT_MAX_LEVELS:
        levels = levels[: ONE_HOT_MAX_LEVELS - 1] + [""]
    keys = np.array(["⟂missing" if not c else c if c in levels else ""
                     for c in cells], dtype=object)
    return levels, keys


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_categorical_codes_match_the_string_keys_oracle(data):
    n = data.draw(st.integers(1, 60))
    names = (st.text("abcXY_é", max_size=3) | st.just("⟂other")
             | st.sampled_from([f"v{i}" for i in range(30)]))
    cells = data.draw(st.lists(names, min_size=n, max_size=n))
    cells = ["" if m else c for m, c in
             zip(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), cells)]
    # the key coded as load_csv codes it; an empty cell is missing
    key = cat_col("k", cells)
    value = num_col("v", data.draw(st.lists(
        st.floats(-1e6, 1e6) | st.just(math.nan), min_size=n, max_size=n)))
    d = make_dataset([key, value, num_col("y", np.arange(n))], target="y")
    present = np.array([c != "" for c in cells], dtype=bool)
    codes = categorical_codes(key)
    assert key.levels == tuple(sorted(set(filter(None, cells))))
    assert codes[present].tolist() == [key.levels.index(c) for c in filter(None, cells)]
    assert (codes[~present] == len(key.levels)).all()
    assert np.isnan(key.values).tolist() == (~present).tolist()
    levels, keys = _string_keys_oracle(cells)
    assert list(categorical_levels(key)[0]) == levels
    for level in levels + ["absent"]:
        got = apply(Node("one_hot", (RawRef("k"),), level), d)
        want = (keys == level).astype(float)
        want[~present] = np.nan
        np.testing.assert_array_equal(got.values, want)
    for op, fn in (("group_min", np.min), ("group_max", np.max),
                   ("group_mean", np.mean), ("group_sum", np.sum)):
        got = apply(Node(op, (RawRef("k"), RawRef("v"))), d)
        for k in set(keys.tolist()):
            sel = keys == k
            member = value.values[sel & ~np.isnan(value.values)]
            want = fn(member) if len(member) else np.nan
            np.testing.assert_array_equal(got.values[sel], want)  # bit for bit


def _derive_with_masks_oracle(expr, operands):
    """`_derive` as it was while features carried a missing mask beside
    their values: (values, mask) of one node from operands given as
    (feature, mask) pairs, the mask propagated op by op."""
    def finite(out, bad):
        bad = bad | ~np.isfinite(out)
        out[bad] = np.nan
        return out, bad

    op = catalog_op(expr.op)
    if op.name == "one_hot":
        (f, miss), = operands
        levels, codes = categorical_levels(f)
        out = (codes == levels.get(expr.level, -1)).astype(float)
        out[miss] = np.nan
        return out, miss.copy()
    if op.arity == Arity.UNARY:
        (f, miss), = operands
        vals = f.values
        fn = {"log": np.log, "sqrt": np.sqrt, "square": lambda v: v ** 2,
              "reciprocal": lambda v: 1.0 / v}[op.name]
        return finite(fn(vals), miss)
    if op.arity == Arity.BINARY:
        (a, am), (b, bm) = operands
        a, b = a.values, b.values
        fn = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide,
              "and": lambda a, b: ((a != 0) & (b != 0)).astype(float),
              "or": lambda a, b: ((a != 0) | (b != 0)).astype(float)}[op.name]
        return finite(fn(a, b), am | bm)
    if op.arity == Arity.AGGREGATION:
        (k, _), (v, vm) = operands
        groups, vv = categorical_levels(k)[1], v.values
        out, bad = np.full(len(vv), np.nan), np.zeros(len(vv), dtype=bool)
        fn = getattr(np, op.name.removeprefix("group_"))
        for g in np.flatnonzero(np.bincount(groups)):
            sel = groups == g
            member = vv[sel & ~vm]
            if len(member) == 0:
                bad |= sel
            else:
                out[sel] = fn(member)
        return finite(out, bad)
    (f, miss), = operands
    days = np.where(miss, 0, f.values)
    out, ok = np.full(len(days), np.nan), ~miss
    d64 = days[ok].astype("int64").astype("datetime64[D]")
    if op.name == "day":
        out[ok] = (d64 - d64.astype("datetime64[M]")).astype(int) + 1
    elif op.name == "month":
        out[ok] = d64.astype("datetime64[M]").astype(int) % 12 + 1
    elif op.name == "year":
        out[ok] = d64.astype("datetime64[Y]").astype(int) + 1970
    else:
        out[ok] = (((days[ok].astype("int64") + 3) % 7) >= 5).astype(float)
    return out, miss.copy()


_CELL = {Kind.NUMERIC: st.floats(-1e200, 1e200) | st.sampled_from([0.0, -1.0, 1e300]),
         Kind.BOOLEAN: st.sampled_from([0.0, 1.0]),
         Kind.DATE: st.integers(-800, 20000).map(float),
         Kind.CATEGORICAL: st.sampled_from(["oslo", "rome", "lima"])}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_derive_missing_cells_match_the_mask_oracle(data):
    # a missing cell is NaN in its values, of every kind; every op's output
    # cells are missing exactly where the mask it used to propagate said so
    n = data.draw(st.integers(1, 12), label="n")

    def operand(kind):
        cells = data.draw(st.lists(_CELL[kind], min_size=n, max_size=n))
        miss = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if kind == Kind.CATEGORICAL:
            return cat_col("c", cells, miss), miss
        return num_col("x", cells, miss, kind=kind), miss

    # two operands of each kind; an op takes its i-th input from the i-th
    cols = {kind: [operand(kind), operand(kind)] for kind in _CELL}
    for op in catalog():
        feats = [cols[kind][i] for i, kind in enumerate(op.inputs)]
        level = data.draw(st.sampled_from(["oslo", "rome", "absent"])) \
            if op.name == "one_hot" else None
        expr = Node(op.name, tuple(RawRef(f"a{i}") for i in range(len(feats))), level)
        with np.errstate(all="ignore"):
            got = _derive(expr, [f for f, _ in feats])
            want, mask = _derive_with_masks_oracle(expr, feats)
        assert np.isnan(got.values).tolist() == mask.tolist(), op.name
        np.testing.assert_array_equal(got.values, want, err_msg=op.name)


def test_date_extractors():
    # 1970-01-01: Thursday; 1970-01-03: Saturday; 1970-02-01: Sunday;
    # 1971-01-01: Friday
    days = np.array([0.0, 2.0, 31.0, 365.0])
    col = num_col("when", days, kind=Kind.DATE)
    d = make_dataset([col, num_col("y", [0, 1, 2, 3])], target="y")
    assert apply(Node("day", (RawRef("when"),)), d).values.tolist() == [1, 3, 1, 1]
    assert apply(Node("month", (RawRef("when"),)), d).values.tolist() == [1, 1, 2, 1]
    assert apply(Node("year", (RawRef("when"),)), d).values.tolist() == \
        [1970, 1970, 1970, 1971]
    assert apply(Node("is_weekend", (RawRef("when"),)), d).values.tolist() == \
        [0.0, 1.0, 1.0, 0.0]


def test_raw_reference_is_its_column_of_its_own_kind(d):
    # a raw reference evaluates to the dataset's column itself
    for col in d.columns:
        assert apply(RawRef(col.name), d) is d.column(col.name)
    f = apply(RawRef("city"), d)
    assert f.kind == Kind.CATEGORICAL
    assert f.name == "city" and f.expr == RawRef("city")


def test_expand_action_dedup_and_cap(d):
    from kgfeat.engine import raw_pool

    pool = [e.feature for e in raw_pool(d, empty_kg())]
    numeric = [f for f in pool if f.kind == Kind.NUMERIC]
    # commutative add over 2 numeric columns: pairs with replacement = 3
    cands = expand_action(catalog_op("add"), numeric, target_codes(d),
                          cap=50, max_order=5)
    assert len(cands) == 3
    names = {c.name for c in cands}
    assert "(weight + height)" in names and "(height + weight)" not in names
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

    pool = [e.feature for e in raw_pool(d, empty_kg())]
    numeric = [f for f in pool if f.kind == Kind.NUMERIC]
    first = expand_action(catalog_op("square"), numeric, target_codes(d),
                          cap=10, max_order=5)
    assert len(first) == 2
    again = expand_action(catalog_op("square"), numeric + first,
                          target_codes(d), cap=10, max_order=5)
    assert {c.name for c in again}.isdisjoint(
        {c.name for c in first})


def test_expand_action_respects_max_order(d):
    from kgfeat.engine import raw_pool

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

    pool = [e.feature for e in raw_pool(d, empty_kg())]
    numeric = [f for f in pool if f.kind == Kind.NUMERIC]
    a = expand_action(catalog_op("mul"), numeric, target_codes(d),
                      cap=4, max_order=5)
    b = expand_action(catalog_op("mul"), numeric, target_codes(d),
                      cap=4, max_order=5)
    assert [c.name for c in a] == [c.name for c in b]


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
        return num_col(name, rng.random(n) < p, kind=Kind.BOOLEAN)

    return make_dataset(
        [num_col("a", rng.normal(size=n)),
         num_col("b", np.where(one_missing, np.nan, rng.uniform(0.5, 3.0, n)),
                 missing=one_missing),
         bool_col("f1", 0.5),
         bool_col("f2", 0.3),
         cat_col("city", np.where(one_missing, "", rng.choice(["oslo", "rome", "lima"], n)),
                 missing=one_missing),
         num_col("when", rng.integers(0, 20000, n), kind=Kind.DATE),
         num_col("y", rng.normal(size=n))],
        target="y",
    )


def test_incremental_evaluation_matches_cold_apply():
    from kgfeat.engine import raw_pool

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
        assert cand.name == cold.name
        assert np.isnan(cand.values).tolist() == np.isnan(cold.values).tolist()
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
    # SQRT(SQUARE(x2)) near-ties x2, so a rounding change in the score
    # reorders the div and mul candidates built from them
    from kgfeat.engine import raw_pool

    d, kg, _ = planted
    y = target_codes(d)
    pool = [e.feature for e in raw_pool(d, kg)]
    for name in ("square", "sqrt", "div", "mul"):
        cands = expand_action(catalog_op(name), pool, y, cap=10_000, max_order=5)
        want = sorted(cands, key=lambda c: (
            -_abs_pearson_oracle(c.values, np.isnan(c.values), y), c.name))
        assert [c.name for c in cands] == [c.name for c in want]
        if name in ("square", "sqrt"):
            pool = pool + cands
    assert "SQRT(SQUARE(x2))" in {f.name for f in pool}


def _expand_action_oracle(op, pool, y, cap, max_order):
    """expand_action as it was before it kept only the top `cap` while
    ranking: derive and score every candidate, then sort them all."""
    existing = {f.expr for f in pool}
    seen, scored = set(), []
    yc, sy = _centred(y)
    for expr, operands in _operand_tuples(op, pool, max_order):
        if expr in existing or expr in seen:
            continue
        seen.add(expr)
        cand = _derive(expr, operands)
        miss = np.isnan(cand.values)
        if miss.mean() > MAX_MISSING_FRACTION:
            continue
        scored.append((_abs_pearson(cand.values, miss, y, yc, sy), cand))
    scored.sort(key=lambda sc: (-sc[0], sc[1].name))
    return [cand for _, cand in scored[:cap]]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
       n_num=st.integers(1, 3), dup=st.booleans(), const=st.booleans(),
       sparse=st.booleans(), op=st.sampled_from(catalog()), data=st.data())
def test_expand_action_matches_the_sort_all_oracle(n, seed, n_num, dup, const, sparse, op,
                                                   data):
    # a duplicated column ties its twin exactly (broken by name), a constant
    # one scores 0, a sparse one is missing on more than half of the rows
    rng = np.random.default_rng(seed)
    cols = [num_col(f"x{i}", rng.normal(size=n).round(1)) for i in range(n_num)]
    if dup:
        cols.append(num_col("dup", cols[0].values.copy()))
    if const:
        cols.append(num_col("const", np.full(n, 2.0)))
    if sparse:
        miss = np.arange(n) < n // 2 + 1
        cols.append(num_col("sparse", np.where(miss, np.nan, rng.uniform(1, 2, n)), miss))
    cols += [cat_col("city", rng.choice(["oslo", "rome", "lima"], n)),
             num_col("f1", rng.random(n) < 0.5, kind=Kind.BOOLEAN),
             num_col("f2", rng.random(n) < 0.5, kind=Kind.BOOLEAN),
             num_col("when", rng.integers(0, 20000, n), kind=Kind.DATE),
             num_col("y", rng.normal(size=n).round(1))]
    d = make_dataset(cols, target="y")
    y = target_codes(d)
    pool = [apply(RawRef(c.name), d) for c in d.feature_columns]
    every = _expand_action_oracle(op, pool, y, cap=10_000, max_order=5)
    cap = data.draw(st.integers(1, len(every) + 2), label="cap")
    got = expand_action(op, pool, y, cap=cap, max_order=5)
    want = every[:cap]
    assert [c.name for c in got] == [c.name for c in want]
    for g, w in zip(got, want):
        assert np.array_equal(g.values, w.values, equal_nan=True), g.name


def test_expand_action_holds_only_the_top_candidates():
    # 870 `sub` candidates of 5,000 rows; each holds n floats and an n-byte mask
    n, cap = 5000, 8
    rng = np.random.default_rng(0)
    d = make_dataset([num_col(f"x{i}", rng.normal(size=n)) for i in range(30)]
                     + [num_col("y", rng.normal(size=n))], target="y")
    y = target_codes(d)
    pool = [apply(RawRef(c.name), d) for c in d.feature_columns]
    tracemalloc.start()
    try:
        cands = expand_action(catalog_op("sub"), pool, y, cap=cap, max_order=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cands) == cap
    assert peak < 40 * n * 9, f"peak {peak / (n * 9):.0f} candidate columns"


def _screened_pool(p=15, seed=0):
    """A pool of 4,096 rows whose other 2,048 rows repeat the sampled ones,
    so a candidate with no gaps scores the same on the sample as on all rows
    but for rounding; and its target. Numeric, Boolean and date columns
    track the target with noise that grows with the index. Besides them: x2's
    exact twin SQRT(SQUARE(x2)), x0 times odd numbers (ties but for
    rounding), constant columns, `sparse_*` columns missing on more than
    half of all rows but 10 sampled ones, and `gappy_*` columns missing on
    three quarters of the sampled rows but 37.5% of all."""
    n = 2 * _RANK_ROWS
    rows = _rank_rows(n)
    rng = np.random.default_rng(seed)

    def table(sampled):
        out = np.empty(n)
        out[rows] = sampled
        out[np.setdiff1d(np.arange(n), rows)] = sampled
        return out

    u = rng.uniform(1, 2, _RANK_ROWS)
    y = table(u)

    def noisy(i):
        return table(u * np.exp(0.05 * 1.4 ** i * rng.standard_normal(_RANK_ROWS)))

    def date_days(z):  # the year, month and day of a date all grow with z in [0, 1]
        return [(datetime.date(2000 + round(9 * v), 1 + round(11 * v), 1 + round(27 * v))
                 - datetime.date(1970, 1, 1)).days for v in z]

    monday = (datetime.date(2001, 1, 1) - datetime.date(1970, 1, 1)).days
    cols = [num_col(f"x{i}", noisy(i)) for i in range(p)]
    cols += [num_col(f"w{i}", 1 / noisy(i)) for i in range(p)]
    cols += [num_col(f"b{i}", noisy(i) > 1.5, kind=Kind.BOOLEAN) for i in range(p)]
    cols += [num_col(f"c{i}", noisy(i) < 1.5, kind=Kind.BOOLEAN) for i in range(p)]
    for i in range(p):
        cols.append(num_col(f"d{i}", date_days(np.clip(noisy(i), 1, 2) - 1), kind=Kind.DATE))
        # a Saturday where the column reads high, else the Monday before
        weeks = table(monday + 7 * rng.integers(0, 500, _RANK_ROWS))
        cols.append(num_col(f"e{i}", weeks + 5 * (noisy(i) > 1.5), kind=Kind.DATE))
    sparse = np.ones(n, dtype=bool)
    sparse[rows[10:]] = False
    gappy = np.zeros(n, dtype=bool)
    gappy[rows[:3 * _RANK_ROWS // 4]] = True
    for name, miss, v in (("sparse", sparse, y), ("gappy", gappy, noisy(2))):
        cols += [num_col(f"{name}_x", v, miss),
                 num_col(f"{name}_b", v > 1.5, miss, kind=Kind.BOOLEAN),
                 num_col(f"{name}_d", (v * 1000).round(), miss, kind=Kind.DATE)]
    cols += [num_col(f"x0_{k}", k * cols[0].values) for k in (3, 5, 7, 9, 11)]
    cols += [num_col("const_x", np.full(n, 2.0)),
             num_col("const_b", np.ones(n), kind=Kind.BOOLEAN),
             num_col("const_d", np.full(n, 11000.0), kind=Kind.DATE),
             num_col("y", y)]
    d = make_dataset(cols, target="y")
    pool = [apply(RawRef(c.name), d) for c in d.feature_columns]
    pool.append(apply(Node("sqrt", (Node("square", (RawRef("x2"),)),)), d))
    return pool, y


_ROW_WISE = [op for op in catalog() if op.name != "one_hot" and op.arity != Arity.AGGREGATION]


@pytest.mark.parametrize("op", _ROW_WISE, ids=lambda op: op.name)
def test_screened_ranking_matches_the_sort_all_oracle(monkeypatch, op):
    pool, y = _screened_pool()
    screened = []
    by_sample_rank = transform._by_sample_rank
    monkeypatch.setattr(transform, "_by_sample_rank",
                        lambda new, y: screened.append(len(new)) or by_sample_rank(new, y))
    every = _expand_action_oracle(op, pool, y, cap=10_000, max_order=5)
    new = len({expr for expr, _ in _operand_tuples(op, pool, max_order=5)})
    for cap in (1, 8, 40):
        screened.clear()
        got = expand_action(op, pool, y, cap=cap, max_order=5)
        assert [c.name for c in got] == [c.name for c in every[:cap]], cap
        for g, w in zip(got, every):
            assert np.array_equal(g.values, w.values, equal_nan=True), g.name
        # more new candidates than the finalists are screened, and only then
        assert screened == ([new] if new > _FINALISTS * cap else []), cap
    # sparse_* candidates lead on the sample but are mostly missing on all rows
    assert not any("sparse" in c.name for c in every)


def test_confirmed_takes_survivors_and_sample_ties_past_the_limit():
    # b is mostly missing on all rows; c and d tie a on the sample but for rounding
    def score(expr, operands):
        return None if expr == "b" else (operands, expr)

    screened = [(0.9, "a", 1.0), (0.9, "b", 1.0), (0.5, "c", 0.2), (0.5 - 1e-12, "d", 0.3),
                (0.49, "e", 0.9)]
    assert [e for _, e in _confirmed(score, screened, 2)] == ["a", "c", "d"]
    assert [e for _, e in _confirmed(score, screened, 10)] == ["a", "c", "d", "e"]


def test_short_tables_derive_each_candidate_once(monkeypatch):
    # a table of _RANK_ROWS rows is ranked exactly, never on a sample
    n = _RANK_ROWS
    rng = np.random.default_rng(0)
    d = make_dataset([num_col(f"x{i}", rng.normal(size=n)) for i in range(6)]
                     + [num_col(f"f{i}", rng.random(n) < 0.5, kind=Kind.BOOLEAN)
                        for i in range(6)]
                     + [num_col(f"t{i}", rng.integers(0, 20000, n), kind=Kind.DATE)
                        for i in range(6)]
                     + [cat_col("city", rng.choice(["oslo", "rome"], n)),
                        num_col("y", rng.normal(size=n))], target="y")
    y = target_codes(d)
    pool = [apply(RawRef(c.name), d) for c in d.feature_columns]
    derived = []

    def counted(expr, operands):
        derived.append(expr)
        return _derive(expr, operands)

    monkeypatch.setattr(transform, "_derive", counted)
    monkeypatch.setattr(transform, "_by_sample_rank", None)
    for op in catalog():
        derived.clear()
        expand_action(op, pool, y, cap=1, max_order=5)
        assert len(derived) == len(set(derived)) == len(set(
            expr for expr, _ in _operand_tuples(op, pool, max_order=5))), op.name


def test_planted_ratio_leads_the_screened_div_ranking(tmp_path):
    d, _, _ = make_planted_dataset(tmp_path, n=20_000)
    y = target_codes(d)
    pool = [apply(RawRef(c.name), d) for c in d.feature_columns]
    div = catalog_op("div")
    squared = pool + [apply(Node("square", (RawRef("x2"),)), d)]
    names = [c.name for c in expand_action(div, squared, y, cap=8, max_order=5)]
    assert names[:2] == ["(x1 / SQUARE(x2))", "(x1 / x2)"]
    # with every unary of every column, the 600 ratios are screened on a sample
    pool += [apply(Node(op, (RawRef(c.name),)), d) for c in d.feature_columns
             for op in ("square", "sqrt", "log", "reciprocal")]
    got = expand_action(div, pool, y, cap=8, max_order=5)
    assert got[0].name == "(x1 / SQUARE(x2))"
    want = _expand_action_oracle(div, pool, y, cap=8, max_order=5)
    assert [c.name for c in got] == [c.name for c in want]


@pytest.mark.parametrize("expr", [
    Node("one_hot", (RawRef("a"),), "x"),
    Node("group_mean", (RawRef("a"), RawRef("b"))),
    Node("day", (RawRef("a"),)),
    Node("log", (RawRef("a"), RawRef("a"))),
    Node("group_mean", (RawRef("a"),)),
])
def test_apply_rejects_operands_of_the_wrong_kind(expr):
    with pytest.raises(TransformError):
        apply(expr, mixed_dataset())


def test_kg_tables_cover_the_catalog():
    from kgfeat import kg

    for op in catalog():
        # an aggregation's group key carries no unit into the result
        n_units = 1 if op.arity == Arity.AGGREGATION else len(op.inputs)
        kg.propagate_unit(op.name, [kg.DIMENSIONLESS] * n_units)


# Each op over operands a and b (numeric in kg and m, or Boolean), k (a
# categorical, one-hot at level x) and d (a date): its display name, KG class,
# output kind and the dims token of its unit (None where it is unknown).
_CATALOG_ROWS = [
    ("log", "LOG(a)", "Logarithm", Kind.NUMERIC, None),
    ("sqrt", "SQRT(a)", "SquareRoot", Kind.NUMERIC, "dim:mass=1/2"),
    ("square", "SQUARE(a)", "Square", Kind.NUMERIC, "dim:mass=2"),
    ("reciprocal", "RECIPROCAL(a)", "Reciprocal", Kind.NUMERIC, "dim:mass=-1"),
    ("one_hot", "ONE_HOT(k=x)", "OneHotEncoding", Kind.BOOLEAN, "dim:1"),
    ("add", "(a + b)", "Addition", Kind.NUMERIC, None),
    ("sub", "(a - b)", "Subtraction", Kind.NUMERIC, None),
    ("mul", "(a * b)", "Multiplication", Kind.NUMERIC, "dim:length=1,mass=1"),
    ("div", "(a / b)", "Division", Kind.NUMERIC, "dim:length=-1,mass=1"),
    ("and", "(a AND b)", "LogicalAnd", Kind.BOOLEAN, "dim:1"),
    ("or", "(a OR b)", "LogicalOr", Kind.BOOLEAN, "dim:1"),
    ("group_min", "GROUP_MIN(a BY k)", "aggregationMin", Kind.NUMERIC, "dim:mass=1"),
    ("group_max", "GROUP_MAX(a BY k)", "aggregationMax", Kind.NUMERIC, "dim:mass=1"),
    ("group_mean", "GROUP_MEAN(a BY k)", "aggregationMean", Kind.NUMERIC, "dim:mass=1"),
    ("group_sum", "GROUP_SUM(a BY k)", "aggregationSum", Kind.NUMERIC, "dim:mass=1"),
    ("day", "DAY(d)", "DateDay", Kind.NUMERIC, "dim:1"),
    ("month", "MONTH(d)", "DateMonth", Kind.NUMERIC, "dim:1"),
    ("year", "YEAR(d)", "DateYear", Kind.NUMERIC, "dim:1"),
    ("is_weekend", "IS_WEEKEND(d)", "DateIsWeekend", Kind.BOOLEAN, "dim:1"),
]


def test_catalog_rows_read_as_written():
    import kgfeat
    from kgfeat import kg as kgmod

    kg = kgmod.load_kg(kgfeat.resource_path("default_kg.json"))
    kg.column_concepts.update(a=("Weight", "kg"), b=("Height", "m"))
    assert [row[0] for row in _CATALOG_ROWS] == [op.name for op in catalog()]
    operands = {Kind.NUMERIC: [num_col("a", [1.0, 2.0]), num_col("b", [3.0, 4.0])],
                Kind.BOOLEAN: [num_col(n, [0.0, 1.0], kind=Kind.BOOLEAN) for n in "ab"],
                Kind.CATEGORICAL: [cat_col("k", ["x", "y"])],
                Kind.DATE: [num_col("d", [0.0, 1.0], kind=Kind.DATE)]}
    for name, label, kg_class, output, unit in _CATALOG_ROWS:
        op = catalog_op(name)
        args = [operands[kind][op.inputs[:i].count(kind)] for i, kind in enumerate(op.inputs)]
        expr = Node(name, tuple(f.expr for f in args), "x" if name == "one_hot" else None)
        assert render_name(expr) == label
        assert _derive(expr, args).name == label
        assert (op.kg_class, op.output) == (kg_class, output)
        assert op.kg_class in kg.class_set  # a class of the shipped KG
        got = kgmod.materialize_facts(kg, expr)[1][expr][0]
        assert (got and got.dims_token()) == unit, name


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(st.sampled_from(catalog()), min_size=1, max_size=3),
       cap=st.integers(1, 50))
def test_derived_display_name_is_the_rendered_name(ops, cap):
    # _derive builds a name from its operands' names; render_name walks the tree
    d = mixed_dataset()
    y = target_codes(d)
    pool = [apply(RawRef(c.name), d) for c in d.feature_columns]
    for op in ops + ops:
        cands = expand_action(op, pool, y, cap=cap, max_order=5)
        for cand in cands:
            assert cand.name == render_name(cand.expr)
            assert apply(cand.expr, d).name == cand.name
        pool = pool + cands


# identifier-like names over few letters of both cases, so that distinct
# expressions often differ in case alone
identifiers = st.text("aAbB_", min_size=1, max_size=2)


def _well_formed(sub):
    """A node of any catalog op over operand expressions drawn from `sub`."""
    def node(op):
        args = st.tuples(*[sub] * (2 if op.arity in (Arity.BINARY, Arity.AGGREGATION) else 1))
        level = identifiers if op.name == "one_hot" else st.none()
        return st.builds(Node, st.just(op.name), args, level)
    return st.sampled_from(catalog()).flatmap(node)


expression_trees = st.recursive(identifiers.map(RawRef), _well_formed, max_leaves=5)


@settings(max_examples=150, deadline=None)
@given(exprs=st.lists(expression_trees, min_size=2, max_size=6, unique=True))
def test_distinct_expressions_have_distinct_display_names(exprs):
    # leaves and levels were upper-cased, so columns `a` and `A` both read "A"
    names = [render_name(e) for e in exprs]
    assert len(set(names)) == len(names), names


def rebuilt(expr):
    """An equal expression that shares no object with `expr`, strings included."""
    if isinstance(expr, RawRef):
        return RawRef(expr.name.encode().decode())
    level = None if expr.level is None else expr.level.encode().decode()
    return Node(expr.op.encode().decode(), tuple(rebuilt(c) for c in expr.args), level)


node_trees = st.recursive(
    st.sampled_from(["a", "b", "c"]).map(RawRef),
    lambda sub: st.builds(Node, st.sampled_from(["log", "add", "group_sum", "one_hot"]),
                          st.lists(sub, min_size=1, max_size=2).map(tuple),
                          st.none() | st.sampled_from(["x", "y"])),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(expr=node_trees)
def test_equal_nodes_hash_equal_before_and_after_pickling(expr):
    import pickle

    twin = rebuilt(expr)
    assert twin is not expr and twin == expr and hash(twin) == hash(expr)
    assert twin in {expr} and expr in {twin}
    # the hash cached in a node is not pickled: the bytes do not change
    fresh = rebuilt(expr)
    before = pickle.dumps(fresh)
    hash(fresh)
    assert pickle.dumps(fresh) == before
    back = pickle.loads(pickle.dumps(expr))
    assert back == expr and hash(back) == hash(expr)
    assert back in {twin} and {back: 1}[rebuilt(expr)] == 1
    assert hash(Node("add", (twin, back))) == hash(Node("add", (expr, expr)))
