"""Transformation catalog, feature-expression algebra, and candidate expansion."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import Optional, Union

import numpy as np

from .data import Dataset, Kind, _MISSING_LEVEL, _OTHER_LEVEL


class Arity(str, Enum):
    UNARY = "unary"
    BINARY = "binary"
    AGGREGATION = "aggregation"
    DATE = "date"


@dataclass(frozen=True)
class TransformOp:
    name: str
    arity: Arity
    inputs: tuple                     # operand kinds, an aggregation's key first
    output: Kind


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

_N, _B, _C, _D = Kind.NUMERIC, Kind.BOOLEAN, Kind.CATEGORICAL, Kind.DATE
# No operator returns a Categorical or Date result, so a feature of either
# kind is always a raw column.
_CATALOG = (
    [TransformOp(n, Arity.UNARY, (_N,), _N) for n in ("log", "sqrt", "square", "reciprocal")]
    + [TransformOp("one_hot", Arity.UNARY, (_C,), _B)]
    + [TransformOp(n, Arity.BINARY, (_N, _N), _N) for n in ("add", "sub", "mul", "div")]
    + [TransformOp(n, Arity.BINARY, (_B, _B), _B) for n in ("and", "or")]
    + [TransformOp(n, Arity.AGGREGATION, (_C, _N), _N)
       for n in ("group_min", "group_max", "group_mean", "group_sum")]
    + [TransformOp(n, Arity.DATE, (_D,), _N) for n in ("day", "month", "year")]
    + [TransformOp("is_weekend", Arity.DATE, (_D,), _B)]
)
_NODE = {Arity.UNARY: UnaryNode, Arity.BINARY: BinaryNode,
         Arity.AGGREGATION: AggNode, Arity.DATE: DateNode}

_BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "and": "AND", "or": "OR"}
# Operand pairs per binary op: a commutative op takes each unordered pair once,
# and a logical one never pairs a feature with itself.
_PAIRS = {"add": combinations_with_replacement, "mul": combinations_with_replacement,
          "and": combinations, "or": combinations}

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
    logical/one-hot/is_weekend results).
    """

    expr: Expr
    values: np.ndarray
    missing: np.ndarray
    kind: Kind
    display_name: str


def categorical_levels(f):
    """Distinct levels of a categorical feature (a Column or CandidateFeature)
    kept for one-hot / grouping; rare levels fold into a shared bucket once
    the cap of ONE_HOT_MAX_LEVELS is exceeded."""
    counts = {}
    for v, m in zip(f.values, f.missing):
        if m:
            continue
        counts[str(v)] = counts.get(str(v), 0) + 1
    ordered = sorted(counts, key=lambda lv: (-counts[lv], lv))
    if len(ordered) <= ONE_HOT_MAX_LEVELS:
        return ordered
    return ordered[: ONE_HOT_MAX_LEVELS - 1] + [_OTHER_LEVEL]


def _categorical_keys(f) -> np.ndarray:
    """Group keys as strings with rare-level folding and a missing level."""
    kept = set(categorical_levels(f))
    keys = np.empty(len(f.values), dtype=object)
    for i, (v, m) in enumerate(zip(f.values, f.missing)):
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
    with np.errstate(all="ignore"):
        return _finite(_UNARY_FNS[op](vals), miss)


def _binary_values(op: str, lv, lm, rv, rm):
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
    else:  # is_weekend; 1970-01-01 was a Thursday (weekday index 3, Monday = 0)
        out[ok] = (((days[ok].astype("int64") + 3) % 7) >= 5).astype(float)
    return out, miss.copy()


def _derive(expr: Expr, operands) -> CandidateFeature:
    """Compute one expression node from its operands' features (values,
    missing, kind), given in `children(expr)` order."""
    op = catalog_op(expr.op)
    kinds = tuple(f.kind for f in operands)
    if not isinstance(expr, _NODE[op.arity]) or kinds != op.inputs:
        raise TransformError(f"{op.name} takes {[k.value for k in op.inputs]} "
                             f"input, got {[k.value for k in kinds]}")
    if op.name == "one_hot":
        (f,) = operands
        values = (_categorical_keys(f) == expr.level).astype(float)
        values[f.missing] = np.nan
        missing = f.missing.copy()
    elif op.arity == Arity.UNARY:
        values, missing = _unary_values(op.name, operands[0].values, operands[0].missing)
    elif op.arity == Arity.BINARY:
        a, b = operands
        values, missing = _binary_values(op.name, a.values, a.missing, b.values, b.missing)
    elif op.arity == Arity.AGGREGATION:
        k, v = operands
        values, missing = _agg_values(op.name, _categorical_keys(k), v.values, v.missing)
    else:
        (f,) = operands
        values, missing = _date_values(op.name, np.where(f.missing, 0, f.values), f.missing)
    return CandidateFeature(expr, values, missing, op.output, render_name(expr))


def apply(expr: Expr, d: Dataset) -> CandidateFeature:
    """Evaluate an expression row-wise from the dataset's raw columns.

    Domain violations on individual cells (log of non-positives, division by
    zero) flag the cell missing rather than inventing a value. A raw
    Categorical column has no numeric value of its own.
    """
    if isinstance(expr, RawRef):
        col = d.column(expr.name)
        if col.kind == Kind.CATEGORICAL:
            raise TransformError(f"categorical column {expr.name!r} has no numeric value")
        return CandidateFeature(expr, col.values.astype(float), col.missing.copy(),
                                col.kind, render_name(expr))
    return _derive(expr, [d.column(c.name) if isinstance(c, RawRef) else apply(c, d)
                          for c in children(expr)])


def _centred(v: np.ndarray):
    """`v` minus its mean, and its standard deviation (bit-identical to
    `v.std()`). An overflow gives a non-finite moment, which ranks 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = v - v.mean()
        return d, np.sqrt(np.mean(d * d))


def _abs_pearson(vals: np.ndarray, miss: np.ndarray, y: np.ndarray,
                 yc: np.ndarray, sy: float) -> float:
    """|Pearson r| of a candidate with the finite target `y`, given
    `_centred(y)` as `yc, sy`. A candidate with gaps is correlated on its own
    rows, with the target's moments over those rows. 0 where either side is
    constant or a moment is not finite."""
    if miss.any():
        vals, y = vals[~miss], y[~miss]
        if len(vals) < 2:
            return 0.0
        yc, sy = _centred(y)
    elif len(vals) < 2:
        return 0.0
    d, sa = _centred(vals)
    if sa == 0 or sy == 0 or not np.isfinite(sa):
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        c = float(np.mean(d * yc) / (sa * sy))
    return abs(c) if np.isfinite(c) else 0.0


def _operand_tuples(op: TransformOp, pool, max_order: int):
    """Yield (expression, operand features) for one transform over the pool,
    taking operands of the kinds in `op.inputs`."""
    eligible = [[f for f in pool if f.kind == k and order(f.expr) < max_order]
                for k in op.inputs]
    if op.arity == Arity.BINARY:
        for a, b in _PAIRS.get(op.name, permutations)(eligible[0], 2):
            yield BinaryNode(op.name, a.expr, b.expr), (a, b)
    elif op.arity == Arity.AGGREGATION:
        for k, v in product(*eligible):
            yield AggNode(op.name, k.expr, v.expr), (k, v)
    elif op.name == "one_hot":
        for f in eligible[0]:
            for level in categorical_levels(f):
                yield UnaryNode("one_hot", f.expr, level), (f,)
    else:
        for f in eligible[0]:
            yield _NODE[op.arity](op.name, f.expr), (f,)


def expand_action(op: TransformOp, pool, y: np.ndarray, cap: int, max_order: int):
    """Expand one action into the top-`cap` candidate features.

    Enumerates every applicability-valid operand tuple over the pool, skips
    expressions already present, computes each candidate from its operands'
    values in the pool, drops candidates with more than half the cells
    missing, and ranks by absolute Pearson correlation with the encoded
    target `y` (class codes for classification, finite), on the rows where
    the candidate has a value. Deterministic.
    """
    if cap < 1:
        raise TransformError("cap must be >= 1")
    existing = {f.expr for f in pool}
    seen = set()
    scored = []
    yc, sy = _centred(y)
    for expr, operands in _operand_tuples(op, pool, max_order):
        if expr in existing or expr in seen:
            continue
        seen.add(expr)
        cand = _derive(expr, operands)
        if cand.missing.mean() > MAX_MISSING_FRACTION:
            continue
        scored.append((_abs_pearson(cand.values, cand.missing, y, yc, sy), cand))
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
