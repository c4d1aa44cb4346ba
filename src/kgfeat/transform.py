"""Transformation catalog, feature-expression algebra, and candidate expansion."""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product, starmap
from typing import Callable, Optional, Union

import numpy as np

from .data import Dataset, Feature, Kind, RawRef, check, json_path


class Arity(str, Enum):
    UNARY = "unary"
    BINARY = "binary"
    AGGREGATION = "aggregation"
    DATE = "date"


@dataclass(frozen=True)
class TransformOp:
    """One operator, whole: what it takes and gives, computes, shows and means."""
    name: str
    arity: Arity
    inputs: tuple                     # operand kinds, an aggregation's key first
    output: Kind
    values: Callable                  # (node, *operand features) -> the node's float64 cells
    label: str                        # display name over operand names {0}, {1} and {level}
    kg_class: str                     # the KG class its application asserts
    # the rule over operand units (an aggregation's value only); None: always dimensionless
    unit: Optional[Callable] = None


@dataclass(frozen=True)
class Node:
    """One transform applied to its operands, given in the order of the op's
    `inputs` (an aggregation's key first); `level` is the category a one-hot
    node encodes. Its hash and `order` are computed at construction and kept
    in the instance; a pickle carries the fields only, so another process
    computes them afresh."""
    op: str
    args: tuple
    level: Optional[str] = None
    _hash: int = field(init=False, compare=False, repr=False)
    order: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.op, self.args, self.level)))
        object.__setattr__(self, "order", 1 + max(map(order, self.args), default=-1))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Node, (self.op, self.args, self.level)


Expr = Union[RawRef, Node]


def _cells(fn):
    """The `values` of an element-wise op: `fn` of its operands' cells."""
    return lambda _node, *operands: fn(*[f.values for f in operands])


def _logical(fn):
    """A logical op on 0/1 operands, NaN where either operand is NaN."""
    return _cells(lambda a, b: np.where(np.isnan(a) | np.isnan(b), np.nan, fn(a != 0, b != 0)))


def _one_hot(node, f):
    """1 where a row has the node's level, 0 where it has another; a missing
    cell stays missing."""
    levels, codes = categorical_levels(f)
    values = (codes == levels.get(node.level, -1)).astype(float)
    values[np.isnan(f.values)] = np.nan
    return values


def _group(fn):
    """The `values` of an aggregation: each row's `fn` of its group's present
    values, in row order; NaN where the group has none."""
    def values(_node, key, value):
        groups, vv = categorical_levels(key)[1], value.values
        out = np.full_like(vv, np.nan, dtype=float)
        present = ~np.isnan(vv)
        for g in np.flatnonzero(np.bincount(groups)):
            sel = groups == g
            member = vv[sel & present]
            if len(member):
                out[sel] = fn(member)
        return out
    return values


def _date(fn):
    """The `values` of a date op: `fn` of the present cells as datetime64[D]."""
    def values(_node, f):
        out = np.full_like(f.values, np.nan, dtype=float)
        ok = ~np.isnan(f.values)
        out[ok] = fn(f.values[ok].astype("int64").astype("datetime64[D]"))
        return out
    return values


_N, _B, _C, _D = Kind.NUMERIC, Kind.BOOLEAN, Kind.CATEGORICAL, Kind.DATE
_U, _BI, _AG, _DT = Arity.UNARY, Arity.BINARY, Arity.AGGREGATION, Arity.DATE
_MONTH, _YEAR = "datetime64[M]", "datetime64[Y]"
# A NaN operand gives a NaN cell. A domain violation (log or sqrt of a negative,
# division by zero) or an overflow gives inf or NaN, which `_derive` makes NaN.
# No operator returns a Categorical or Date result, so a feature of either
# kind is always a raw column.
_CATALOG = {op.name: op for op in (
    TransformOp("log", _U, (_N,), _N, _cells(np.log), "LOG({0})", "Logarithm",
                lambda a: a if a.dimensionless else None),
    TransformOp("sqrt", _U, (_N,), _N, _cells(np.sqrt), "SQRT({0})", "SquareRoot",
                lambda a: a ** 0.5),
    TransformOp("square", _U, (_N,), _N, _cells(lambda v: v ** 2), "SQUARE({0})", "Square",
                lambda a: a ** 2),
    TransformOp("reciprocal", _U, (_N,), _N, _cells(lambda v: 1.0 / v), "RECIPROCAL({0})",
                "Reciprocal", lambda a: a ** -1),
    TransformOp("one_hot", _U, (_C,), _B, _one_hot, "ONE_HOT({0}={level})", "OneHotEncoding"),
    TransformOp("add", _BI, (_N, _N), _N, _cells(np.add), "({0} + {1})", "Addition",
                lambda a, b: a if a == b else None),
    TransformOp("sub", _BI, (_N, _N), _N, _cells(np.subtract), "({0} - {1})", "Subtraction",
                lambda a, b: a if a == b else None),
    TransformOp("mul", _BI, (_N, _N), _N, _cells(np.multiply), "({0} * {1})", "Multiplication",
                lambda a, b: a * b),
    TransformOp("div", _BI, (_N, _N), _N, _cells(np.divide), "({0} / {1})", "Division",
                lambda a, b: a / b),
    TransformOp("and", _BI, (_B, _B), _B, _logical(np.logical_and), "({0} AND {1})",
                "LogicalAnd"),
    TransformOp("or", _BI, (_B, _B), _B, _logical(np.logical_or), "({0} OR {1})", "LogicalOr"),
    TransformOp("group_min", _AG, (_C, _N), _N, _group(np.min), "GROUP_MIN({1} BY {0})",
                "aggregationMin", lambda a: a),
    TransformOp("group_max", _AG, (_C, _N), _N, _group(np.max), "GROUP_MAX({1} BY {0})",
                "aggregationMax", lambda a: a),
    TransformOp("group_mean", _AG, (_C, _N), _N, _group(np.mean), "GROUP_MEAN({1} BY {0})",
                "aggregationMean", lambda a: a),
    TransformOp("group_sum", _AG, (_C, _N), _N, _group(np.sum), "GROUP_SUM({1} BY {0})",
                "aggregationSum", lambda a: a),
    TransformOp("day", _DT, (_D,), _N, _date(lambda d: (d - d.astype(_MONTH)).astype(int) + 1),
                "DAY({0})", "DateDay"),
    TransformOp("month", _DT, (_D,), _N, _date(lambda d: d.astype(_MONTH).astype(int) % 12 + 1),
                "MONTH({0})", "DateMonth"),
    TransformOp("year", _DT, (_D,), _N, _date(lambda d: d.astype(_YEAR).astype(int) + 1970),
                "YEAR({0})", "DateYear"),
    # 1970-01-01 was a Thursday (weekday index 3, Monday = 0)
    TransformOp("is_weekend", _DT, (_D,), _B, _date(lambda d: (d.astype(int) + 3) % 7 >= 5),
                "IS_WEEKEND({0})", "DateIsWeekend"),
)}
# A node's `type` and operand fields in result.json, per arity.
_JSON_FIELDS = {Arity.UNARY: ("unary", ("child",)), Arity.BINARY: ("binary", ("left", "right")),
                Arity.AGGREGATION: ("agg", ("key", "value")), Arity.DATE: ("date", ("child",))}

# Operand pairs per binary op: a commutative op takes each unordered pair once,
# and a logical one never pairs a feature with itself.
_PAIRS = {"add": combinations_with_replacement, "mul": combinations_with_replacement,
          "and": combinations, "or": combinations}

ONE_HOT_MAX_LEVELS = 20
_OTHER_LEVEL = ""  # the level rare values fold into; load_csv reads no cell as ""
MAX_MISSING_FRACTION = 0.5


class TransformError(ValueError):
    """Raised when an expression violates operator applicability."""


def catalog():
    """The fixed transformation catalog (19 operators)."""
    return list(_CATALOG.values())


def catalog_op(name: str) -> TransformOp:
    if name not in _CATALOG:
        raise TransformError(f"unknown transform {name!r}")
    return _CATALOG[name]


def children(expr: Expr) -> tuple:
    """Direct sub-expressions, left to right (an aggregation's key before its
    value); walks that recurse over them visit a tree in post-order."""
    return () if isinstance(expr, RawRef) else expr.args


def order(expr: Expr) -> int:
    """Transform nodes on the deepest path; raw references have order 0."""
    return 0 if isinstance(expr, RawRef) else expr.order


def render_name(expr: Expr) -> str:
    """Humanly readable infix rendering, fully parenthesized for binary ops;
    column names and one-hot levels read as written."""
    if isinstance(expr, RawRef):
        return expr.name
    return catalog_op(expr.op).label.format(*map(render_name, expr.args), level=expr.level)


def expr_to_json(expr: Expr) -> dict:
    if isinstance(expr, RawRef):
        return {"type": "raw", "name": expr.name}
    node_type, fields = _JSON_FIELDS[catalog_op(expr.op).arity]
    doc = {"type": node_type, "op": expr.op}
    doc.update((f, expr_to_json(c)) for f, c in zip(fields, expr.args))
    if expr.level is not None:
        doc["level"] = expr.level
    return doc


# A node's shape, by its `type`: a raw node names its column; any other names
# its op, its operands and, on a one-hot node, the level.
_NODE_SHAPES = {"raw": {"name": str}, **{
    node_type: {"op": str, "level": (str, None), **dict.fromkeys(fields, object)}
    for node_type, fields in _JSON_FIELDS.values()}}
_NODE_TYPE = {"type": str}


def expr_from_json(doc: dict, where: str = "expression", path=()) -> Expr:
    """Parse a serialized expression, named in errors by `where` (the file)
    and `path` (the keys that lead to it there). A node of the wrong shape
    (_NODE_SHAPES), an unknown type or op, a `type` that is not its op's, or a
    `level` missing on a one-hot node or present on another is an error."""
    check(doc, _NODE_TYPE, where, TransformError, path)
    if doc["type"] not in _NODE_SHAPES:
        raise TransformError(f"{where}: {json_path(path)} has unknown type {doc['type']!r}")
    check(doc, _NODE_SHAPES[doc["type"]], where, TransformError, path)
    if doc["type"] == "raw":
        return RawRef(doc["name"])
    op = catalog_op(doc["op"])
    node_type, fields = _JSON_FIELDS[op.arity]
    if doc["type"] != node_type:
        raise TransformError(f"{where}: {json_path(path)}: transform {op.name!r} has node "
                             f"type {node_type!r}, not {doc['type']!r}")
    level = doc.get("level")
    if (op.name == "one_hot") != (level is not None):
        raise TransformError(f"{where}: {json_path(path)}: level {level!r} does not fit "
                             f"transform {op.name!r}")
    return Node(op.name, tuple(expr_from_json(doc[f], where, (*path, f)) for f in fields), level)


def categorical_codes(f: Feature) -> np.ndarray:
    """Integer codes of a categorical feature: a present cell's index in
    `f.levels`, and a missing cell's len(f.levels)."""
    return np.where(np.isnan(f.values), len(f.levels), f.values).astype(np.int64)


def categorical_levels(f):
    """The levels one-hot and grouping see in a categorical feature, most
    frequent first (ties in value order), mapped to their `categorical_codes`,
    and each row's level code. Past ONE_HOT_MAX_LEVELS values, all but the
    ONE_HOT_MAX_LEVELS - 1 most frequent fold into one code, _OTHER_LEVEL's."""
    codes, values = categorical_codes(f), f.levels
    n = len(values)
    top = np.argsort(-np.bincount(codes, minlength=n + 1)[:n], kind="stable")
    if n <= ONE_HOT_MAX_LEVELS:
        return {values[i]: i for i in top}, codes
    top = top[:ONE_HOT_MAX_LEVELS - 1]
    rare = (codes < n) & ~np.isin(codes, top)
    return {**{values[i]: i for i in top}, _OTHER_LEVEL: n + 1}, np.where(rare, n + 1, codes)


def _derive(expr: Expr, operands) -> Feature:
    """Compute one expression node from its operands' features, given in
    `children(expr)` order."""
    op = catalog_op(expr.op)
    kinds = tuple(f.kind for f in operands)
    if kinds != op.inputs:
        raise TransformError(f"{op.name} takes {[k.value for k in op.inputs]} "
                             f"input, got {[k.value for k in kinds]}")
    with np.errstate(all="ignore"):
        values = op.values(expr, *operands)
    values[np.isinf(values)] = np.nan  # an overflow or a division by zero
    name = op.label.format(*[f.name for f in operands], level=expr.level)
    return Feature(expr, values, op.output, name)


def apply(expr: Expr, d: Dataset) -> Feature:
    """Evaluate an expression row-wise from the dataset's raw columns.

    A raw reference is its column itself. Domain violations on individual
    cells (log of non-positives, division by zero) make the cell missing
    rather than inventing a value.
    """
    if isinstance(expr, RawRef):
        return d.column(expr.name)
    return _derive(expr, [apply(c, d) for c in expr.args])


def _mean(x: np.ndarray):
    """`x.mean()` of a 1-D float64 array, bit for bit, without its overhead."""
    return np.add.reduce(x) / len(x)


def _centred(v: np.ndarray):
    """`v` minus its mean, and its standard deviation (bit-identical to
    `v.std()`). An overflow gives a non-finite moment, which ranks 0; the
    caller ignores floating-point errors."""
    d = v - _mean(v)
    return d, math.sqrt(_mean(d * d))


def _abs_pearson(vals: np.ndarray, miss: np.ndarray, y: np.ndarray,
                 yc: np.ndarray, sy: float) -> float:
    """|Pearson r| of a candidate with the finite target `y`, given
    `_centred(y)` as `yc, sy`. A candidate with gaps is correlated on its own
    rows, with the target's moments over those rows. 0 where either side is
    constant or a moment is not finite."""
    with np.errstate(all="ignore"):
        if np.count_nonzero(miss):
            vals, y = vals[~miss], y[~miss]
            if len(vals) < 2:
                return 0.0
            yc, sy = _centred(y)
        elif len(vals) < 2:
            return 0.0
        d, sa = _centred(vals)
        if sa == 0 or sy == 0 or not math.isfinite(sa):
            return 0.0
        c = float(_mean(d * yc) / (sa * sy))
    return abs(c) if math.isfinite(c) else 0.0


def _operand_tuples(op: TransformOp, pool, max_order: int):
    """Yield (expression, operand features) for one transform over the pool,
    taking operands of the kinds in `op.inputs`."""
    eligible = [[f for f in pool if f.kind == k and order(f.expr) < max_order]
                for k in op.inputs]
    if op.arity == Arity.BINARY:
        tuples = _PAIRS.get(op.name, permutations)(eligible[0], 2)
    else:
        tuples = product(*eligible)
    for operands in tuples:
        args = tuple(f.expr for f in operands)
        for level in categorical_levels(operands[0])[0] if op.name == "one_hot" else [None]:
            yield Node(op.name, args, level), operands


_RANK_ROWS = 2048  # rows a long table's candidates are screened on
_FINALISTS = 4     # screened candidates confirmed on all rows, per kept one
# Sample scores this close tie: they differ by rounding, as algebraic twins
# such as (x2 * x2) and ((x2 + x2) + x2) * x2 do, so all rows must order them.
_SAMPLE_TIE = 1e-9


@lru_cache(maxsize=None)
def _rank_rows(n: int) -> np.ndarray:
    """The sorted rows of an n-row table that its candidates are screened on."""
    rows = np.sort(np.random.default_rng(0).choice(n, _RANK_ROWS, replace=False))
    rows.flags.writeable = False
    return rows


def _by_sample_rank(new, y: np.ndarray):
    """(|r|, expression, operands) for each (expression, operands) pair of
    `new`, where r is the candidate's Pearson r with `y` on the `_rank_rows`
    sample; highest first, ties by name. Holds the sampled operand columns,
    never the sampled candidates."""
    rows = _rank_rows(len(y))
    ys = y[rows]
    distinct = {id(f): f for _, operands in new for f in operands}
    at_rows = {k: Feature(f.expr, f.values[rows], f.kind, f.name, f.levels)
               for k, f in distinct.items()}
    with np.errstate(all="ignore"):
        yc, sy = _centred(ys)
    keys = []
    for i, (expr, operands) in enumerate(new):
        cand = _derive(expr, [at_rows[id(f)] for f in operands])
        keys.append((-_abs_pearson(cand.values, np.isnan(cand.values), ys, yc, sy),
                     cand.name, i))
    return [(-r, *new[i]) for r, _, i in sorted(keys)]


def _confirmed(score, screened, limit: int):
    """`score` of the screened candidates in sample order, until `limit` of
    them pass the missing rule, then of those whose sample |r| ties the last
    of them within `_SAMPLE_TIE`."""
    floor = -math.inf
    for r, expr, operands in screened:
        if r < floor:
            return
        sc = score(expr, operands)
        if sc is not None:
            yield sc
            limit -= 1
            if limit == 0:
                floor = r - _SAMPLE_TIE


def expand_action(op: TransformOp, pool, y: np.ndarray, cap: int, max_order: int):
    """Expand one action into the top-`cap` candidate features.

    Enumerates every applicability-valid operand tuple over the pool, skips
    expressions already present, computes each candidate from its operands'
    values in the pool, drops candidates with more than half the cells
    missing, and ranks by absolute Pearson correlation with the encoded
    target `y` (class codes for classification, finite), on the rows where
    the candidate has a value. Deterministic.

    A table of at most `_RANK_ROWS` (2,048) rows is ranked exactly so, as is
    an op that reads whole columns (one_hot, group_*). On a longer table a
    row-wise op with more than `_FINALISTS` * cap new candidates screens them
    first: each is derived and ranked as above on the same 2,048 rows, a
    sample that depends only on the row count. Then, in sample order, the
    candidates are derived on all rows and put through the missing rule
    until `_FINALISTS` * cap pass it (with any tied with the last of those
    on the sample), and only these are ranked exactly for the top `cap`.
    """
    if cap < 1:
        raise TransformError("cap must be >= 1")
    existing = {f.expr for f in pool}
    with np.errstate(all="ignore"):
        yc, sy = _centred(y)

    def new_candidates():
        seen = set()
        for expr, operands in _operand_tuples(op, pool, max_order):
            if expr not in existing and expr not in seen:
                seen.add(expr)
                yield expr, operands

    def score(expr, operands):
        """(|r|, candidate), or None for a candidate with over half its cells missing."""
        cand = _derive(expr, operands)
        miss = np.isnan(cand.values)
        if np.count_nonzero(miss) > MAX_MISSING_FRACTION * len(miss):
            return None
        return _abs_pearson(cand.values, miss, y, yc, sy), cand

    new = new_candidates()
    ranked = None
    # An op that reads a categorical sees its levels counted over all rows,
    # which a sample of the rows would not count alike.
    if len(y) > _RANK_ROWS and Kind.CATEGORICAL not in op.inputs:
        new = list(new)
        if len(new) > _FINALISTS * cap:
            ranked = _confirmed(score, _by_sample_rank(new, y), _FINALISTS * cap)
    if ranked is None:
        ranked = filter(None, starmap(score, new))
    # nsmallest is a stable sorted()[:cap] that holds only `cap` candidates.
    best = heapq.nsmallest(cap, ranked, key=lambda sc: (-sc[0], sc[1].name))
    return [cand for _, cand in best]


def search_space_size(p: int, arities: dict) -> int:
    """Number of (ordered operand tuple, transform) pairs reachable in one step:
    sum over arity i of P(p, i) * |T_i|."""
    if p < 1:
        raise TransformError("p must be >= 1")
    total = 0
    for i, count in arities.items():
        if 1 <= i <= p:
            total += math.perm(p, i) * count
    return total
