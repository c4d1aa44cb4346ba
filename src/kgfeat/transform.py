"""Transformation catalog, feature-expression algebra, and candidate expansion."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations_with_replacement, permutations
from typing import Optional, Union

import numpy as np

from .data import Column, Dataset, Kind, _MISSING_LEVEL, _OTHER_LEVEL


class Arity(str, Enum):
    UNARY = "unary"
    BINARY = "binary"
    AGGREGATION = "aggregation"
    DATE = "date"


@dataclass(frozen=True)
class TransformOp:
    name: str
    arity: Arity


@dataclass(frozen=True)
class RawRef:
    name: str


@dataclass(frozen=True)
class UnaryNode:
    op: str
    child: "Expr"
    level: Optional[str] = None  # one_hot only: the encoded category level


@dataclass(frozen=True)
class BinaryNode:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class AggNode:
    op: str
    key: "Expr"
    value: "Expr"


@dataclass(frozen=True)
class DateNode:
    op: str
    child: "Expr"


Expr = Union[RawRef, UnaryNode, BinaryNode, AggNode, DateNode]

_CATALOG = (
    [TransformOp(n, Arity.UNARY) for n in ("log", "sqrt", "square", "reciprocal", "one_hot")]
    + [TransformOp(n, Arity.BINARY) for n in ("add", "sub", "mul", "div", "and", "or")]
    + [TransformOp(n, Arity.AGGREGATION) for n in ("group_min", "group_max", "group_mean", "group_sum")]
    + [TransformOp(n, Arity.DATE) for n in ("day", "month", "year", "is_weekend")]
)

_BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "and": "AND", "or": "OR"}
_COMMUTATIVE = {"add", "mul", "and", "or"}

ONE_HOT_MAX_LEVELS = 20
MAX_MISSING_FRACTION = 0.5


class TransformError(ValueError):
    """Raised when an expression violates operator applicability."""


def catalog():
    """The fixed transformation catalog (19 operators)."""
    return list(_CATALOG)


def catalog_op(name: str) -> TransformOp:
    for op in _CATALOG:
        if op.name == name:
            return op
    raise TransformError(f"unknown transform {name!r}")


def children(expr: Expr) -> tuple:
    """Direct sub-expressions, left to right (an aggregation's key before its
    value); walks that recurse over them visit a tree in post-order."""
    if isinstance(expr, (UnaryNode, DateNode)):
        return (expr.child,)
    if isinstance(expr, BinaryNode):
        return (expr.left, expr.right)
    if isinstance(expr, AggNode):
        return (expr.key, expr.value)
    return ()


def order(expr: Expr) -> int:
    """Transform nodes on the deepest path; raw references have order 0."""
    return 1 + max((order(c) for c in children(expr)), default=-1)


def render_name(expr: Expr) -> str:
    """Humanly readable infix rendering, fully parenthesized for binary ops."""
    if isinstance(expr, RawRef):
        return expr.name.upper()
    if isinstance(expr, UnaryNode):
        if expr.op == "one_hot":
            return f"ONE_HOT({render_name(expr.child)}={expr.level.upper()})"
        return f"{expr.op.upper()}({render_name(expr.child)})"
    if isinstance(expr, BinaryNode):
        sym = _BINARY_SYMBOL[expr.op]
        return f"({render_name(expr.left)} {sym} {render_name(expr.right)})"
    if isinstance(expr, AggNode):
        return f"{expr.op.upper()}({render_name(expr.value)} BY {render_name(expr.key)})"
    return f"{expr.op.upper()}({render_name(expr.child)})"


def expr_to_json(expr: Expr) -> dict:
    if isinstance(expr, RawRef):
        return {"type": "raw", "name": expr.name}
    if isinstance(expr, UnaryNode):
        doc = {"type": "unary", "op": expr.op, "child": expr_to_json(expr.child)}
        if expr.level is not None:
            doc["level"] = expr.level
        return doc
    if isinstance(expr, BinaryNode):
        return {
            "type": "binary",
            "op": expr.op,
            "left": expr_to_json(expr.left),
            "right": expr_to_json(expr.right),
        }
    if isinstance(expr, AggNode):
        return {
            "type": "agg",
            "op": expr.op,
            "key": expr_to_json(expr.key),
            "value": expr_to_json(expr.value),
        }
    return {"type": "date", "op": expr.op, "child": expr_to_json(expr.child)}


def expr_from_json(doc: dict) -> Expr:
    t = doc["type"]
    if t == "raw":
        return RawRef(doc["name"])
    if t == "unary":
        return UnaryNode(doc["op"], expr_from_json(doc["child"]), doc.get("level"))
    if t == "binary":
        return BinaryNode(doc["op"], expr_from_json(doc["left"]), expr_from_json(doc["right"]))
    if t == "agg":
        return AggNode(doc["op"], expr_from_json(doc["key"]), expr_from_json(doc["value"]))
    return DateNode(doc["op"], expr_from_json(doc["child"]))


@dataclass
class CandidateFeature:
    """A concrete feature: an expression plus its evaluated column.

    Numeric values with a missing mask; `kind` is the result kind (Boolean for
    logical/one-hot/is_weekend results). `unit` is filled in by the knowledge
    module when a KG is available (None means unknown).
    """

    expr: Expr
    values: np.ndarray
    missing: np.ndarray
    kind: Kind
    display_name: str
    unit: object = None


def result_kind(expr: Expr, d: Dataset) -> Kind:
    if isinstance(expr, RawRef):
        return d.column(expr.name).kind
    if isinstance(expr, UnaryNode):
        return Kind.BOOLEAN if expr.op == "one_hot" else Kind.NUMERIC
    if isinstance(expr, BinaryNode):
        return Kind.BOOLEAN if expr.op in ("and", "or") else Kind.NUMERIC
    if isinstance(expr, DateNode):
        return Kind.BOOLEAN if expr.op == "is_weekend" else Kind.NUMERIC
    return Kind.NUMERIC


def categorical_levels(col: Column):
    """Distinct levels kept for one-hot / grouping; rare levels fold into
    a shared bucket once the cap of ONE_HOT_MAX_LEVELS is exceeded."""
    counts = {}
    for v, m in zip(col.values, col.missing):
        if m:
            continue
        counts[str(v)] = counts.get(str(v), 0) + 1
    ordered = sorted(counts, key=lambda lv: (-counts[lv], lv))
    if len(ordered) <= ONE_HOT_MAX_LEVELS:
        return ordered
    return ordered[: ONE_HOT_MAX_LEVELS - 1] + [_OTHER_LEVEL]


def _categorical_keys(col: Column) -> np.ndarray:
    """Group keys as strings with rare-level folding and a missing level."""
    kept = set(categorical_levels(col))
    keys = np.empty(len(col), dtype=object)
    for i, (v, m) in enumerate(zip(col.values, col.missing)):
        if m:
            keys[i] = _MISSING_LEVEL
        else:
            s = str(v)
            keys[i] = s if s in kept else _OTHER_LEVEL
    return keys


# Element-wise transforms. A domain violation (log or sqrt of a negative,
# division by zero) or an overflow gives inf or NaN, which _finite flags.
_UNARY_FNS = {"log": np.log, "sqrt": np.sqrt, "square": lambda v: v ** 2,
              "reciprocal": lambda v: 1.0 / v}
_BINARY_FNS = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide,
               "and": lambda a, b: ((a != 0) & (b != 0)).astype(float),
               "or": lambda a, b: ((a != 0) | (b != 0)).astype(float)}


def _unary_values(op: str, vals: np.ndarray, miss: np.ndarray):
    if op not in _UNARY_FNS:
        raise TransformError(f"unknown unary op {op!r}")
    with np.errstate(all="ignore"):
        return _finite(_UNARY_FNS[op](vals), miss)


def _binary_values(op: str, lv, lm, rv, rm):
    if op not in _BINARY_FNS:
        raise TransformError(f"unknown binary op {op!r}")
    with np.errstate(all="ignore"):
        return _finite(_BINARY_FNS[op](lv, rv), lm | rm)


def _finite(out: np.ndarray, bad: np.ndarray):
    """Flag cells that are missing on input, or came out inf or NaN, as
    missing, with NaN values."""
    bad = bad | ~np.isfinite(out)
    out[bad] = np.nan
    return out, bad


def _agg_values(op: str, keys: np.ndarray, vv: np.ndarray, vm: np.ndarray):
    out = np.full_like(vv, np.nan, dtype=float)
    bad = np.zeros(len(vv), dtype=bool)
    fns = {"group_min": np.min, "group_max": np.max, "group_mean": np.mean, "group_sum": np.sum}
    fn = fns[op]
    with np.errstate(all="ignore"):
        for key in sorted(set(keys.tolist())):
            sel = keys == key
            member = vv[sel & ~vm]
            if len(member) == 0:
                bad |= sel
            else:
                out[sel] = fn(member)
    return _finite(out, bad)


def _date_values(op: str, days: np.ndarray, miss: np.ndarray):
    out = np.full_like(days, np.nan, dtype=float)
    ok = ~miss
    d64 = days[ok].astype("int64").astype("datetime64[D]")
    if op == "day":
        out[ok] = (d64 - d64.astype("datetime64[M]")).astype(int) + 1
    elif op == "month":
        out[ok] = d64.astype("datetime64[M]").astype(int) % 12 + 1
    elif op == "year":
        out[ok] = d64.astype("datetime64[Y]").astype(int) + 1970
    elif op == "is_weekend":
        # 1970-01-01 was a Thursday (weekday index 3, Monday = 0)
        out[ok] = (((days[ok].astype("int64") + 3) % 7) >= 5).astype(float)
    else:
        raise TransformError(f"unknown date op {op!r}")
    return out, miss.copy()


def _eval(expr: Expr, d: Dataset):
    """Evaluate an expression to (values, missing); values are float64."""
    if isinstance(expr, RawRef):
        col = d.column(expr.name)
        if col.kind == Kind.CATEGORICAL:
            raise TransformError(f"categorical column {expr.name!r} has no numeric value")
        return col.values.astype(float), col.missing.copy()
    if isinstance(expr, UnaryNode):
        if expr.op == "one_hot":
            if not isinstance(expr.child, RawRef):
                raise TransformError("one_hot applies to a raw categorical column")
            col = d.column(expr.child.name)
            if col.kind != Kind.CATEGORICAL:
                raise TransformError("one_hot requires a Categorical column")
            keys = _categorical_keys(col)
            vals = (keys == expr.level).astype(float)
            vals[col.missing] = np.nan
            return vals, col.missing.copy()
        _require_kind(expr.child, d, Kind.NUMERIC, expr.op)
        cv, cm = _eval(expr.child, d)
        return _unary_values(expr.op, cv, cm)
    if isinstance(expr, BinaryNode):
        want = Kind.BOOLEAN if expr.op in ("and", "or") else Kind.NUMERIC
        _require_kind(expr.left, d, want, expr.op)
        _require_kind(expr.right, d, want, expr.op)
        lv, lm = _eval(expr.left, d)
        rv, rm = _eval(expr.right, d)
        return _binary_values(expr.op, lv, lm, rv, rm)
    if isinstance(expr, AggNode):
        if not isinstance(expr.key, RawRef):
            raise TransformError("aggregation key must be a raw column")
        key_col = d.column(expr.key.name)
        if key_col.kind != Kind.CATEGORICAL:
            raise TransformError("aggregation key must be Categorical")
        _require_kind(expr.value, d, Kind.NUMERIC, expr.op)
        vv, vm = _eval(expr.value, d)
        return _agg_values(expr.op, _categorical_keys(key_col), vv, vm)
    if isinstance(expr, DateNode):
        if not (isinstance(expr.child, RawRef) and d.column(expr.child.name).kind == Kind.DATE):
            raise TransformError(f"{expr.op} requires a Date column")
        col = d.column(expr.child.name)
        days = np.where(col.missing, 0, col.values)
        return _date_values(expr.op, days, col.missing)
    raise TransformError(f"unknown expression node {expr!r}")


def _require_kind(expr: Expr, d: Dataset, want: Kind, op: str):
    got = result_kind(expr, d)
    if want == Kind.NUMERIC and got != Kind.NUMERIC:
        raise TransformError(f"{op} requires Numeric input, got {got.value}")
    if want == Kind.BOOLEAN and got != Kind.BOOLEAN:
        raise TransformError(f"{op} requires Boolean input, got {got.value}")


def apply(expr: Expr, d: Dataset) -> CandidateFeature:
    """Evaluate an expression row-wise against a dataset.

    Domain violations on individual cells (log of non-positives, division by
    zero) flag the cell missing rather than inventing a value.
    """
    values, missing = _eval(expr, d)
    return CandidateFeature(
        expr=expr,
        values=values,
        missing=missing,
        kind=result_kind(expr, d),
        display_name=render_name(expr),
    )


def _abs_pearson(vals: np.ndarray, miss: np.ndarray, tvals: np.ndarray) -> float:
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


def _operand_tuples(op: TransformOp, pool, d: Dataset, max_order: int):
    """Yield candidate expressions for one transform over the current pool."""
    if op.arity == Arity.UNARY:
        if op.name == "one_hot":
            for f in pool:
                if f.kind == Kind.CATEGORICAL and isinstance(f.expr, RawRef) and order(f.expr) + 1 <= max_order:
                    for level in categorical_levels(d.column(f.expr.name)):
                        yield UnaryNode("one_hot", f.expr, level)
        else:
            for f in pool:
                if f.kind == Kind.NUMERIC and order(f.expr) + 1 <= max_order:
                    yield UnaryNode(op.name, f.expr)
    elif op.arity == Arity.BINARY:
        want = Kind.BOOLEAN if op.name in ("and", "or") else Kind.NUMERIC
        eligible = [f for f in pool if f.kind == want]
        if op.name in _COMMUTATIVE:
            pairs = combinations_with_replacement(range(len(eligible)), 2)
            if op.name in ("and", "or"):
                pairs = (p for p in pairs if p[0] != p[1])
        else:
            pairs = permutations(range(len(eligible)), 2)
        for i, j in pairs:
            a, b = eligible[i], eligible[j]
            if max(order(a.expr), order(b.expr)) + 1 <= max_order:
                yield BinaryNode(op.name, a.expr, b.expr)
    elif op.arity == Arity.AGGREGATION:
        keys = [f for f in pool if f.kind == Kind.CATEGORICAL and isinstance(f.expr, RawRef)]
        values = [f for f in pool if f.kind == Kind.NUMERIC]
        for kf in keys:
            for vf in values:
                if max(order(kf.expr), order(vf.expr)) + 1 <= max_order:
                    yield AggNode(op.name, kf.expr, vf.expr)
    else:
        for f in pool:
            if f.kind == Kind.DATE and isinstance(f.expr, RawRef) and order(f.expr) + 1 <= max_order:
                yield DateNode(op.name, f.expr)


def expand_action(op: TransformOp, pool, d: Dataset, y: np.ndarray, cap: int,
                  max_order: int):
    """Expand one action into the top-`cap` candidate features.

    Enumerates every applicability-valid operand tuple over the pool, skips
    expressions already present, drops candidates with more than half the
    cells missing, and ranks by absolute Pearson correlation with the encoded
    target `y` (class codes for classification). Deterministic.
    """
    if cap < 1:
        raise TransformError("cap must be >= 1")
    existing = {f.expr for f in pool}
    seen = set()
    scored = []
    for expr in _operand_tuples(op, pool, d, max_order):
        if expr in existing or expr in seen:
            continue
        seen.add(expr)
        try:
            cand = apply(expr, d)
        except TransformError:
            continue
        if cand.missing.mean() > MAX_MISSING_FRACTION:
            continue
        score = _abs_pearson(cand.values, cand.missing, y)
        scored.append((score, cand))
    scored.sort(key=lambda sc: (-sc[0], sc[1].display_name))
    return [cand for _, cand in scored[:cap]]


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
