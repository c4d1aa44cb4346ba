import functools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kgfeat import learn
from kgfeat.data import Task, kfold_indices
from kgfeat.learn import (LearnError, LearnerSpec, Model, _bin_columns, _Forest,
                          _positions, _rae_denominator, encode_labels,
                          evaluate_cv, feature_importance, impute_columns,
                          metric_f1, metric_one_minus_rae, predict, train)

from conftest import fold_pairs


# ---------------------------------------------------------------- metrics

def test_f1_hand_example():
    # TP=2, FP=1, FN=1 -> precision = recall = 2/3 -> F1 = 2/3
    y_true = np.array([1, 1, 1, 0, 0])
    y_pred = np.array([1, 1, 0, 1, 0])
    assert metric_f1(y_true, y_pred, positive=1) == pytest.approx(2 / 3, abs=1e-15)


def test_f1_defaults_to_last_label_as_positive():
    y_true = np.array([0, 1, 1])
    y_pred = np.array([0, 1, 0])
    # positive = 1: TP=1, FP=0, FN=1 -> 2/3
    assert metric_f1(y_true, y_pred) == pytest.approx(2 / 3, abs=1e-15)


def test_f1_perfect_and_zero():
    y = np.array([0, 1, 0, 1])
    assert metric_f1(y, y) == 1.0
    assert metric_f1(np.array([1, 1]), np.array([0, 0])) == 0.0


def test_f1_macro_for_multiclass():
    y_true = np.array([0, 1, 2])
    y_pred = np.array([0, 1, 1])
    # per class F1: 1.0, 2/3, 0.0 -> macro 5/9
    assert metric_f1(y_true, y_pred) == pytest.approx(5 / 9, abs=1e-12)


def test_one_minus_rae_hand_example():
    # errors sum to 2; deviations from mean(2) sum to 2 -> 1 - 2/2 = 0.0
    assert metric_one_minus_rae([1, 2, 3], [1, 2, 5]) == pytest.approx(0.0, abs=1e-15)


def test_one_minus_rae_perfect():
    assert metric_one_minus_rae([1.0, 2.0, 4.0], [1.0, 2.0, 4.0]) == 1.0


def test_one_minus_rae_constant_target_raises():
    with pytest.raises(LearnError):
        metric_one_minus_rae([2.0, 2.0], [1.0, 3.0])


def test_one_minus_rae_subnormal_deviation_raises():
    # the deviations sum to 1e-320, a subnormal: the error sum divided by it
    # overflowed to inf, and the score was -inf
    with pytest.raises(LearnError):
        metric_one_minus_rae([0.0, 1e-320], [1.0, 1.0])
    with pytest.raises(LearnError):
        metric_one_minus_rae([0.0, 1e-320], [0.0, 1e-320])


def test_evaluate_cv_subnormal_target_folds_score_zero():
    # every validation fold's deviations sum to zero or a subnormal, so each
    # fold is degenerate and scores 0 instead of aborting the run
    y = np.array([0.0, 1e-320] * 6)
    X = np.arange(12.0)[:, None]
    assert evaluate_cv(LearnerSpec(kind="linear"), X.T, y, Task.REGRESSION,
                       k=3, seed=0) == 0.0


def test_metric_length_mismatch():
    with pytest.raises(LearnError):
        metric_f1([1], [1, 0])
    with pytest.raises(LearnError):
        metric_one_minus_rae([1.0], [1.0, 2.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=3, max_size=20))
@example([0.0, 0.0, 5e-324])
def test_one_minus_rae_upper_bound(ys):
    ys = np.asarray(ys)
    if _rae_denominator(ys) is None:
        # deviations summing to zero or a subnormal (hypothesis draws 5e-324)
        with pytest.raises(LearnError):
            metric_one_minus_rae(ys, ys)
        return
    noise = ys + 1.0
    assert metric_one_minus_rae(ys, noise) <= 1.0
    assert metric_one_minus_rae(ys, ys) == 1.0


# ---------------------------------------------------------------- learners

def test_linear_recovers_slope():
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, (100, 1))
    y = 2.0 * X[:, 0]
    model = train(LearnerSpec(kind="linear"), X, y, Task.REGRESSION)
    assert model.coef.tolist() == [pytest.approx(2.0, abs=1e-4)]
    mean, y_mean = model.scaler  # the intercept is ȳ − x̄·coef
    assert y_mean - mean @ model.coef == pytest.approx(0.0, abs=1e-4)
    pred = predict(model, X)
    assert np.abs(pred - y).max() < 1e-4


def test_linear_fits_collinear_badly_scaled_columns():
    # two identical columns scaled by 1e12 make the normal matrix singular
    rng = np.random.default_rng(0)
    x = rng.normal(size=50)
    X = np.column_stack([1e12 * x, 1e12 * x, rng.normal(size=50)])
    y = 2.0 * x + 1.0
    model = train(LearnerSpec(kind="linear"), X, y, Task.REGRESSION)
    assert np.abs(predict(model, X) - y).max() < 1e-4


@pytest.mark.parametrize("offset", [1e6, 2.0 ** 30])
def test_linear_fits_a_column_far_from_zero_against_its_spread(offset):
    # the uncentred normal equations lost x1's coefficient (1e-6 at 1e6) and,
    # at 2^30, x0's too
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=2000)
    k = rng.integers(-40, 60, 2000).astype(float)
    y = 3.0 * x0 + 0.1 * k + 0.01 * rng.normal(size=2000)
    X = np.column_stack([x0, offset + k])
    model = train(LearnerSpec(kind="linear"), X, y, Task.REGRESSION)
    assert model.coef[:2] == pytest.approx([3.0, 0.1], abs=1e-3)
    assert np.abs(predict(model, X) - y).max() < 0.1


def test_decision_tree_fits_threshold_rule():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, (200, 2))
    y = (X[:, 0] > 0.5).astype(float)
    model = train(LearnerSpec(kind="decision_tree", max_depth=3), X, y,
                  Task.CLASSIFICATION)
    assert (predict(model, X) == y).all()


def test_decision_tree_regression():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    model = train(LearnerSpec(kind="decision_tree", max_depth=2), X, y,
                  Task.REGRESSION)
    assert predict(model, X).tolist() == y.tolist()


def test_decision_tree_splits_adjacent_floats():
    # the midpoint of two adjacent floats rounds to the upper one; the
    # threshold must stay strictly below it so that both children get a row
    X = np.array([[np.nextafter(94.0, 0.0)], [94.0]])
    y = np.array([0.0, 1.0])
    model = train(LearnerSpec(kind="decision_tree", max_depth=1), X, y,
                  Task.CLASSIFICATION)
    assert predict(model, X).tolist() == [0.0, 1.0]


def _tree_rows(kind, n, n_trees, seed):
    """Training rows of each tree: all rows, or each tree's bootstrap, all
    drawn first from the fit's one generator."""
    if kind == "decision_tree":
        return [np.arange(n)]
    return list(np.random.default_rng(seed).integers(0, n, size=(n_trees, n)))


_TIED = [-np.inf, -1.0, 0.0, np.nextafter(94.0, 0.0), 94.0, 1e308,
         np.finfo(float).max, np.inf]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(1, 3), st.integers(1, 5),
       st.sampled_from(["decision_tree", "random_forest"]),
       st.sampled_from([Task.CLASSIFICATION, Task.REGRESSION]),
       st.sampled_from([1.0, 1e200]), st.integers(0, 2**31 - 1))
def test_every_split_has_two_nonempty_children(n, p, depth, kind, task, scale,
                                               seed):
    rng = np.random.default_rng(seed)
    X = rng.choice(_TIED, size=(n, p))
    if task == Task.CLASSIFICATION:
        y = rng.integers(0, 3, n).astype(float)
    else:
        y = rng.uniform(-1e3, 1e3, n) * scale
    model = train(LearnerSpec(kind=kind, max_depth=depth, n_trees=3, seed=seed),
                  X, y, task)
    forest = model.trees
    for root, rows in zip(forest.roots, _tree_rows(kind, n, 3, seed)):
        stack = [(root, rows)]
        while stack:
            node, at = stack.pop()
            if forest.feature[node] < 0:
                continue
            go_left = X[at, forest.feature[node]] <= forest.threshold[node]
            assert go_left.any() and not go_left.all()
            stack += [(forest.left[node], at[go_left]),
                      (forest.left[node] + 1, at[~go_left])]
    pred = predict(model, X)
    assert np.isfinite(pred).all()
    if task == Task.CLASSIFICATION:
        assert set(pred.tolist()) <= set(y.tolist())


# An exact greedy tree, searching every threshold between adjacent values of
# every feature, as the oracle for the histogram learner.

def _exact_tree(X, y, task, n_classes, depth, importances, n_total):
    n = len(y)
    if task == Task.CLASSIFICATION:
        counts = np.bincount(y.astype(np.int64), minlength=n_classes)
        imp = 1.0 - np.sum((counts / n) ** 2)
        value = float(np.argmax(counts))
    else:
        imp = float(np.var(y))
        value = float(np.mean(y))
    if n < 2 or depth == 0 or imp <= 1e-15:
        return value
    best = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs, ys = X[order, j], y[order]
        nl = np.arange(1, n, dtype=float)
        nr = n - nl
        if task == Task.CLASSIFICATION:
            left = np.cumsum(ys[:, None] == np.arange(n_classes), axis=0)[:-1]
            right = counts - left
            score = (nl * (1.0 - np.sum((left / nl[:, None]) ** 2, axis=1))
                     + nr * (1.0 - np.sum((right / nr[:, None]) ** 2, axis=1))) / n
        else:
            s1, s2 = np.cumsum(ys)[:-1], np.cumsum(ys * ys)[:-1]
            t1, t2 = ys.sum(), (ys * ys).sum()
            var_l = s2 / nl - (s1 / nl) ** 2
            var_r = (t2 - s2) / nr - ((t1 - s1) / nr) ** 2
            score = (nl * np.maximum(var_l, 0) + nr * np.maximum(var_r, 0)) / n
        score = np.where(xs[:-1] < xs[1:], score, np.inf)
        i = int(np.argmin(score))
        if np.isfinite(score[i]) and (best is None or score[i] < best[2] - 1e-15):
            mid = (xs[i] + xs[i + 1]) / 2.0
            best = (j, mid if mid < xs[i + 1] else xs[i], score[i])
    if best is None or best[2] >= imp - 1e-15:
        return value
    j, thr, child_imp = best
    importances[j] += (n / n_total) * (imp - child_imp)
    go_left = X[:, j] <= thr
    return (j, thr,
            _exact_tree(X[go_left], y[go_left], task, n_classes, depth - 1,
                        importances, n_total),
            _exact_tree(X[~go_left], y[~go_left], task, n_classes, depth - 1,
                        importances, n_total))


def _shares(importances):
    """feature_importance of raw impurity decreases: the learner's are in its
    scaled target's units, so only their shares compare."""
    return feature_importance(Model("decision_tree", Task.REGRESSION, len(importances),
                                    importances=importances))


def _exact_predict(tree, x):
    while isinstance(tree, tuple):
        j, thr, left, right = tree
        tree = left if x[j] <= thr else right
    return tree


@pytest.mark.parametrize("case", range(48))
def test_histogram_trees_match_exact_greedy_search(case):
    # at most 255 distinct values per column keeps one bin per value, and
    # integer targets keep every sum exact, so both searches see equal scores
    rng = np.random.default_rng(case)
    kind = ["decision_tree", "random_forest"][case % 2]
    task = [Task.CLASSIFICATION, Task.REGRESSION][case // 2 % 2]
    n = int(rng.integers(2, 300))
    p = int(rng.integers(1, 6))
    levels = int(rng.integers(1, 256))
    X = rng.integers(0, levels, (n, p)) * rng.choice([1.0, 0.37, -1e3])
    if task == Task.CLASSIFICATION:
        y = rng.integers(0, int(rng.integers(2, 4)), n).astype(float)
    else:
        y = rng.integers(-20, 50, n).astype(float)
    depth = int(rng.integers(1, 7))
    spec = LearnerSpec(kind=kind, max_depth=depth, n_trees=4,
                       feature_subsample=1.0, seed=case)
    model = train(spec, X, y, task)

    n_classes = int(y.max()) + 1
    importances = np.zeros(p)
    trees = [_exact_tree(X[rows], y[rows], task, n_classes, depth, importances, n)
             for rows in _tree_rows(kind, n, 4, case)]
    leaves = np.array([[_exact_predict(t, x) for x in X] for t in trees])
    if task == Task.REGRESSION:
        expected = leaves.mean(axis=0)
    else:
        expected = np.array([np.argmax(np.bincount(col.astype(np.int64),
                                                   minlength=n_classes))
                             for col in leaves.T], dtype=float)
    assert predict(model, X).tolist() == expected.tolist()
    # node impurities are summed in another order: equal up to rounding
    assert feature_importance(model) == pytest.approx(_shares(importances),
                                                      rel=1e-9, abs=1e-12)
    if task == Task.REGRESSION:
        # an offset the target holds exactly grows the same trees; the leaf
        # means round to the offset's ulp (2.4e-7 at 2**30), while other
        # trees' predictions would differ by at least 1 / (4 · 300²)
        shift = [1e3, 2.0 ** 30][case // 4 % 2]
        shifted = train(spec, X, y + shift, task)
        assert predict(shifted, X) - shift == pytest.approx(expected, rel=0, abs=1e-6)
        assert feature_importance(shifted) == pytest.approx(_shares(importances),
                                                            rel=1e-6, abs=1e-9)


# The learner as it was before it grew trees on distinct bootstrap rows with
# weights and scored splits from one sort: every draw of a bootstrap is a
# sample, and the split search bins cells with np.unique. It is the oracle of
# the weighted one-sort learner.

def _rr_segment_cumsum(a, starts, seg):
    """Inclusive prefix sums of `a` restarted at each segment start."""
    c = np.cumsum(a, axis=0)
    before = np.concatenate([np.zeros_like(c[:1]), c[:-1]])[starts]
    return c - before[seg]


def _rr_draw_features(tree, rng, n_sub, p):
    """Tree by tree, in tree order, each open node's p keys from the fit's
    one generator, and the n_sub features of the smallest."""
    if n_sub >= p:
        return np.broadcast_to(np.arange(p), (len(tree), p))
    F = np.empty((len(tree), n_sub), dtype=np.int64)
    _, starts = np.unique(tree, return_index=True)
    for a, b in zip(starts, np.append(starts[1:], len(tree))):
        keys = rng.random((b - a, p))
        F[a:b] = np.sort(np.argsort(keys, axis=1)[:, :n_sub], axis=1)
    return F


def _rr_best_splits(codes, lo, hi, rows, ys, sk, F, stats, task, n_classes, tol):
    m, f = F.shape
    b = codes[F[sk], rows[:, None]]
    cell = ((sk[:, None] * f + np.arange(f)) << 8) + b
    cells, inv = np.unique(cell.ravel(), return_inverse=True)
    U = len(cells)
    seg, bins = cells >> 8, cells & 255
    starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
    v = np.flatnonzero(np.r_[seg[1:] == seg[:-1], False])  # a bin follows
    node = seg[v] // f
    nl = _rr_segment_cumsum(np.bincount(inv, minlength=U), starts, seg)[v]
    n = stats[0][node]
    nr = n - nl
    if task == Task.CLASSIFICATION:
        onehot = inv * n_classes + np.repeat(ys.astype(np.int64), f)
        hist = np.bincount(onehot, minlength=U * n_classes).reshape(U, n_classes)
        left = _rr_segment_cumsum(hist, starts, seg)[v]
        right = stats[1][node] - left
        gini_l = 1.0 - sum((left[:, c] / nl) ** 2 for c in range(n_classes))
        gini_r = 1.0 - sum((right[:, c] / nr) ** 2 for c in range(n_classes))
        score_v = (nl * gini_l + nr * gini_r) / n
    else:
        # the node's impurity less d²/(n²·nl·nr), the learner's score
        s1 = _rr_segment_cumsum(np.bincount(inv, np.repeat(ys, f), U), starts, seg)[v]
        d = n * s1 - nl * stats[1][node]
        score_v = stats[2][node] - d * d / (n * n * nl * nr)
    score = np.full(U, np.inf)
    score[v] = np.where(np.isnan(score_v), np.inf, score_v)
    seg_min = np.minimum.reduceat(score, starts)
    hit = np.flatnonzero(score == seg_min[seg])
    seg_cell = hit[np.r_[True, seg[hit][1:] != seg[hit][:-1]]].reshape(m, f)
    seg_min = seg_min.reshape(m, f)
    best, cell_at = seg_min[:, 0].copy(), seg_cell[:, 0].copy()
    slot = np.zeros(m, dtype=np.int64)
    for k in range(1, f):
        better = seg_min[:, k] < best - tol
        best[better] = seg_min[better, k]
        cell_at[better] = seg_cell[better, k]
        slot[better] = k
    j = F[np.arange(m), slot]
    split_bin = bins[cell_at]
    below = hi[j, split_bin]
    above = lo[j, bins[np.minimum(cell_at + 1, U - 1)]]
    with np.errstate(over="ignore", invalid="ignore"):
        mid = (below + above) / 2.0
    return best, j, np.where(mid < above, mid, below), split_bin


def _rr_grow(codes, lo, hi, y, task, n_classes, boots, rng, n_sub, max_depth,
             importances, n_total, tol):
    p = codes.shape[0]
    rows = np.concatenate(boots)
    node = np.repeat(np.arange(len(boots)), [len(b) for b in boots])
    ys = y[rows]
    tree = np.arange(len(boots))
    base = 0
    levels = []
    for depth in range(max_depth + 1):
        K = len(tree)
        k = node - base
        cnt = np.bincount(k, minlength=K).astype(float)
        if task == Task.CLASSIFICATION:
            counts = np.bincount(k * n_classes + ys.astype(np.int64),
                                 minlength=K * n_classes).reshape(K, n_classes)
            imp = 1.0 - np.sum((counts / cnt[:, None]) ** 2, axis=1)
            value = np.argmax(counts, axis=1).astype(float)
            stats = (cnt, counts)
        else:
            t1 = np.bincount(k, ys, K)
            value = t1 / cnt
            imp = np.bincount(k, (ys - value[k]) ** 2, K) / cnt
            stats = (cnt, t1, imp)
        feature = np.full(K, -1)
        threshold = np.zeros(K)
        left = np.full(K, -1)
        levels.append((feature, threshold, left, value))
        open_ = np.flatnonzero((cnt >= 2) & (imp > tol))
        if depth == max_depth or not len(open_):
            break
        s = _positions(open_, K)[k]
        inside = s >= 0
        F = _rr_draw_features(tree[open_], rng, n_sub, p)
        best, j, thr, split_bin = _rr_best_splits(
            codes, lo, hi, rows[inside], ys[inside], s[inside], F,
            tuple(a[open_] for a in stats), task, n_classes, tol)
        gain = best < imp[open_] - tol
        split = open_[gain]
        j, split_bin = j[gain], split_bin[gain]
        feature[split] = j
        threshold[split] = thr[gain]
        left[split] = base + K + 2 * np.arange(len(split))
        np.add.at(importances, j, (cnt[split] / n_total) * (imp[split] - best[gain]))
        s = _positions(split, K)[k]
        inside = s >= 0
        rows, ys, s = rows[inside], ys[inside], s[inside]
        node = base + K + 2 * s + (codes[j[s], rows] > split_bin[s])
        tree = np.repeat(tree[split], 2)
        base += K
    return tuple(np.concatenate(a) for a in zip(*levels))


def _rr_fit(spec, X, y, task, batch_rows):
    """The repeated-row forest of `train`, its trees batched as the learner
    batches them: up to batch_rows distinct rows, or one tree."""
    n, p = X.shape
    n_classes = int(y.max()) + 1 if task == Task.CLASSIFICATION else 0
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "decision_tree":
        boots, n_sub = [np.arange(n)], p
    else:
        frac = spec.feature_subsample
        n_sub = max(1, int(round(frac * p))) if frac is not None else max(1, math.isqrt(p))
        boots = [rng.integers(0, n, size=n) for _ in range(spec.n_trees)]
    batches, size = [[]], 0
    for t, boot in enumerate(boots):
        distinct = len(np.unique(boot))
        if batches[-1] and size + distinct > batch_rows:
            batches.append([])
            size = 0
        batches[-1].append(t)
        size += distinct
    codes, lo, hi = _bin_columns(X)
    # the learner's tolerances; its regression tolerance, taken on the target
    # it scales by a power of two, is this one scaled alike
    tol = (1e-15 if task == Task.CLASSIFICATION
           else 1e-15 * ((y.max() - y.min()) / 2) ** 2 or np.inf)
    importances = np.zeros(p)
    roots, parts, n_nodes = [], [], 0
    for batch in batches:
        feature, threshold, left, value = _rr_grow(
            codes, lo, hi, y, task, n_classes, [boots[t] for t in batch],
            rng, n_sub, spec.max_depth, importances, n, tol)
        roots.append(n_nodes + np.arange(len(batch)))
        parts.append((feature, threshold, np.where(left >= 0, left + n_nodes, -1),
                      value))
        n_nodes += len(feature)
    forest = _Forest(np.concatenate(roots), *(np.concatenate(a) for a in zip(*parts)), 0)
    return forest, importances


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400), p=st.integers(1, 5),
       levels=st.sampled_from([1, 2, 7, 255, 256, 100_000]),
       ties=st.sampled_from(["none", "copy", "negate"]),
       target=st.sampled_from(["2 classes", "3 classes", "8 classes", "11 classes",
                               "integers"]),
       kind=st.sampled_from(["decision_tree", "random_forest"]),
       depth=st.integers(1, 7), n_trees=st.integers(1, 6),
       subsample=st.sampled_from([None, 0.5, 1.0]),
       batch_rows=st.sampled_from([1, 64, learn._BATCH_ROWS]))
@example(seed=205, n=309, p=3, levels=7, ties="none", target="8 classes",
         kind="random_forest", depth=6, n_trees=4, subsample=None,
         batch_rows=learn._BATCH_ROWS)  # np.sum's order splits elsewhere
def test_weighted_trees_match_repeated_row_trees(seed, n, p, levels, ties, target,
                                                 kind, depth, n_trees, subsample,
                                                 batch_rows):
    # Columns of up to 255 distinct values keep one bin per value, more merge
    # bins; copied and negated columns and few levels tie cells. Counts and
    # integer targets sum exactly in any order, so weighting the distinct
    # rows must grow the very trees the repeated rows grew. Both add a
    # split's Gini terms in class order; from 8 classes on, np.sum would add
    # them pairwise.
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, (n, p)) * 0.37
    if p > 1 and ties == "copy":
        X[:, 1] = X[:, 0]
    elif p > 1 and ties == "negate":
        X[:, 1] = -X[:, 0]
    if target == "integers":
        task, y = Task.REGRESSION, rng.integers(-40, 60, n).astype(float)
    else:
        n_classes = int(target.split()[0])
        task, y = Task.CLASSIFICATION, rng.integers(0, n_classes, n).astype(float)
    spec = LearnerSpec(kind=kind, max_depth=depth, n_trees=n_trees,
                       feature_subsample=subsample, seed=seed)
    with mock.patch.object(learn, "_BATCH_ROWS", batch_rows):
        model = train(spec, X, y, task)
    forest, importances = _rr_fit(spec, X, y, task, batch_rows)
    for name in ("roots", "feature", "threshold", "left"):
        got, want = getattr(model.trees, name), getattr(forest, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    # the learner's leaves are in its scaled target's units
    got = np.ldexp(model.trees.value, model.trees.scale)
    assert got.tobytes() == forest.value.tobytes()
    oracle = Model(kind, task, p, trees=forest, classes=model.classes)
    assert predict(model, X).tobytes() == predict(oracle, X).tobytes()
    # decreases are summed in the same order but from weighted sums
    assert feature_importance(model) == pytest.approx(_shares(importances),
                                                      rel=1e-9, abs=1e-12)


def test_root_level_scores_each_distinct_bootstrap_row_once(monkeypatch):
    # the repeated-row learner scored every draw: about 1.58 samples per
    # distinct row of a bootstrap
    rng = np.random.default_rng(8)
    n, n_trees, seed = 200, 5, 3
    X = rng.uniform(size=(n, 3))
    y = (X[:, 0] > 0.5).astype(float)
    calls = []
    best_splits = learn._best_splits

    def spy(codes, lo, hi, rows, ys, w, sk, *rest):
        calls.append((rows, w, sk))
        return best_splits(codes, lo, hi, rows, ys, w, sk, *rest)

    monkeypatch.setattr(learn, "_best_splits", spy)
    train(LearnerSpec(kind="random_forest", n_trees=n_trees, seed=seed), X, y,
          Task.CLASSIFICATION)
    rows, w, sk = calls[0]  # the root level of the only batch
    boots = np.random.default_rng(seed).integers(0, n, size=(n_trees, n))
    assert len(rows) == sum(len(np.unique(b)) for b in boots) < n * n_trees
    for t, boot in enumerate(boots):
        distinct, draws = np.unique(boot, return_counts=True)
        assert sorted(rows[sk == t].tolist()) == distinct.tolist()
        assert w[sk == t][np.argsort(rows[sk == t])].tolist() == draws.tolist()


def test_regression_tree_splits_a_target_near_1e200():
    # sums of y**2 overflowed past |y| of about 1e154, so no split ever
    # lowered the impurity and every tree was one leaf
    X = np.linspace(0.0, 1.0, 20)[:, None]
    y = 1e200 * (X[:, 0] > 0.5)
    model = train(LearnerSpec(kind="decision_tree", max_depth=2), X, y,
                  Task.REGRESSION)
    assert model.trees.feature[0] == 0
    assert predict(model, X) == pytest.approx(y, rel=1e-12)
    assert model.importances[0] > 0


def test_regression_trees_split_a_tiny_target_and_never_a_constant():
    # the 1e-15 tolerance was absolute, in the target's squared units, so a
    # target below about 1e-8 never split. It is now relative to the
    # target's range; a constant target's sums still round, so it never
    # splits at all
    X = np.linspace(0.0, 1.0, 40)[:, None]
    for scale in (1e-8, 1e-12):
        y = scale * (X[:, 0] > 0.5)
        model = train(LearnerSpec(kind="decision_tree"), X, y, Task.REGRESSION)
        assert model.trees.feature[0] == 0
        assert predict(model, X) == pytest.approx(y, rel=1e-12)
    X = np.random.default_rng(0).uniform(size=(200, 3))
    for c in (0.1, 1e9 + 0.37):
        model = train(LearnerSpec(kind="random_forest", n_trees=10), X,
                      np.full(200, c), Task.REGRESSION)
        assert model.trees.feature.tolist() == [-1] * 10


@pytest.mark.parametrize("shift", [1e3, 2.0 ** 30])
def test_an_exact_target_offset_grows_the_same_trees(shift):
    # each side's variance was Σy²/n − (Σy/n)², which cancels when the mean
    # is large against the spread; the split scores now take the children's
    # mean difference from one exact prefix sum
    for seed in range(60):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(200, 4))
        y = rng.integers(-40, 60, 200).astype(float)
        spec = LearnerSpec(kind="random_forest", n_trees=5, seed=seed)
        plain = train(spec, X, y, Task.REGRESSION).trees
        moved = train(spec, X, y + shift, Task.REGRESSION).trees
        for name in ("feature", "threshold", "left"):
            assert getattr(moved, name).tobytes() == getattr(plain, name).tobytes(), \
                (seed, name)


def test_a_large_inexact_target_offset_grows_the_unshifted_trees():
    # 1e9 plus two-decimal values: the sums round, but the tolerance
    # follows the target's range, not its size (the variance formula grew
    # 20 nodes here against 602)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(200, 3))
        y = np.round(rng.uniform(0, 10, 200), 2)
        spec = LearnerSpec(kind="random_forest", n_trees=10, seed=seed)
        plain = train(spec, X, y, Task.REGRESSION).trees
        moved = train(spec, X, 1e9 + y, Task.REGRESSION).trees
        for name in ("feature", "threshold", "left"):
            assert getattr(moved, name).tobytes() == getattr(plain, name).tobytes(), \
                (seed, name)


def test_pure_regression_nodes_far_from_zero_stay_leaves():
    # a node holding one value has a mean that may round off it, and so
    # had an impurity above the range-relative tolerance: these forests grew
    # 203.2 and 214.0 nodes on average at offsets 1e6 and 1e9 against 30.0
    X = np.random.default_rng(0).uniform(size=(300, 3))
    step = 0.37 + 0.01 * (X[:, 0] > 0.5)
    for off in (0.0, 1e6, 1e9):
        sizes = [len(train(LearnerSpec(kind="random_forest", n_trees=10, feature_subsample=1.0,
                                       seed=seed), X, off + step, Task.REGRESSION).trees.feature)
                 for seed in range(10)]
        assert np.mean(sizes) == 30.0, off


@pytest.mark.parametrize("odd", [0, 49])
def test_a_node_with_one_other_sample_than_the_kept_one_splits(odd):
    # a node compares its samples with one of them, whichever numpy's
    # scatter keeps; one value off the rest, first or last, makes the node
    # impure whichever is kept, and the pure side stays a leaf at an offset
    # where its mean rounds off its value
    X = np.arange(50.0)[:, None]
    y = np.full(50, 1e9 + 0.38)
    y[odd] = 1e9 + 0.37
    model = train(LearnerSpec(kind="decision_tree", max_depth=4), X, y, Task.REGRESSION)
    assert model.trees.feature.tolist() == [0, -1, -1]
    pred = predict(model, X)
    assert pred[odd] == y[odd] and pred == pytest.approx(y, rel=0, abs=1e-6)


def _forest_bytes(model):
    """Every array of a forest model, as bytes, and its scale."""
    f = model.trees
    return ([a.tobytes() for a in (f.roots, f.feature, f.threshold, f.left, f.value,
                                   model.importances)], f.scale)


def _forest_case(task):
    """A table, target and forest spec whose nodes draw feature subsets."""
    rng = np.random.default_rng(6)
    n, p = 150, 9
    X = rng.uniform(size=(n, p))
    y = (X[:, 0] + X[:, 3] > 1).astype(float) if task == Task.CLASSIFICATION \
        else np.round(X[:, 0] * 10 + rng.normal(size=n), 1)
    return X, y, LearnerSpec(kind="random_forest", n_trees=7, max_depth=5, seed=11)


@pytest.mark.parametrize("task", [Task.CLASSIFICATION, Task.REGRESSION])
def test_a_forest_does_not_depend_on_the_fits_before_it(task):
    # a fit draws from a generator of its own and keeps nothing, so fits at
    # other seeds, row counts, tree counts and widths leave it as it is
    X, y, spec = _forest_case(task)
    cold = _forest_bytes(train(spec, X, y, task))
    train(replace(spec, seed=12), X, y, task)
    train(spec, X[:-10], y[:-10], task)
    train(replace(spec, n_trees=9), X, y, task)
    train(spec, X[:, :4], y, task)
    train(replace(spec, max_depth=2), X[:, :4], y, task)
    assert _forest_bytes(train(spec, X, y, task)) == cold


def test_forests_fit_in_threads_at_once_match_lone_fits():
    # 8 fits at once, half of them classification and half regression
    tasks = [Task.CLASSIFICATION, Task.REGRESSION] * 4

    def lone(task):
        X, y, spec = _forest_case(task)
        return _forest_bytes(train(spec, X, y, task))

    want = {task: lone(task) for task in tasks[:2]}
    got = [None] * len(tasks)
    start = threading.Barrier(len(tasks))

    def fit(i):
        start.wait(timeout=60)
        got[i] = lone(tasks[i])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fit, args=(i,)) for i in range(len(tasks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert got == [want[task] for task in tasks]


def test_a_forest_on_targets_near_the_largest_float_predicts_finite_values():
    # leaves were unscaled before the forest's mean, which overflowed
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(200, 3))
    y = np.where(X[:, 0] > 0.5, 1.0, -1.0) * rng.uniform(0.9, 1.0, 200) * 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pred = predict(train(LearnerSpec(kind="random_forest", seed=0), X, y,
                             Task.REGRESSION), X)
    assert np.isfinite(pred).all()
    assert (np.sign(pred) == np.sign(y)).mean() > 0.9


def test_importance_shares_do_not_depend_on_the_target_scale():
    # the shares of a target near 1e200 must be those of the same target
    # near 1
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(200, 3))
    y = 3.0 * (X[:, 0] > 0.5) + (X[:, 1] > 0.3) + 0.1 * rng.normal(size=200)
    spec = LearnerSpec(kind="random_forest", n_trees=8, max_depth=4, seed=2)
    small = feature_importance(train(spec, X, y, Task.REGRESSION))
    big = feature_importance(train(spec, X, 1e200 * y, Task.REGRESSION))
    assert small[0] > small[1] > small[2] > 0
    assert big == pytest.approx(small, rel=1e-9)


def test_random_forest_deterministic_and_importance():
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, (150, 4))
    y = (X[:, 2] > 0.5).astype(float)
    spec = LearnerSpec(kind="random_forest", n_trees=10, seed=5)
    m1 = train(spec, X, y, Task.CLASSIFICATION)
    m2 = train(LearnerSpec(kind="random_forest", n_trees=10, seed=5), X, y,
               Task.CLASSIFICATION)
    assert (predict(m1, X) == predict(m2, X)).all()
    imp = feature_importance(m1)
    assert imp.sum() == pytest.approx(1.0, abs=1e-12)
    assert int(np.argmax(imp)) == 2  # the informative column dominates


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest", "linear",
                                  "logistic"])
def test_feature_importance_ranks_the_signal_first_for_every_kind(kind):
    # y = 3·x0 plus noise; x1 is noise on a scale of 1e6, x2 noise on 1
    rng = np.random.default_rng(7)
    X = np.column_stack([rng.normal(size=300), 1e6 * rng.normal(size=300),
                         rng.normal(size=300)])
    y = 3.0 * X[:, 0] + 0.3 * rng.normal(size=300)
    task = Task.REGRESSION
    if kind == "logistic":
        y, task = (y > 0).astype(float), Task.CLASSIFICATION
    model = train(LearnerSpec(kind=kind, n_trees=10, seed=1), X, y, task)
    imp = feature_importance(model)
    assert imp.sum() == pytest.approx(1.0, abs=1e-12)
    assert int(np.argmax(imp)) == 0
    assert imp[0] > 2 * max(imp[1], imp[2])
    if kind == "linear":  # |coef_j|·std(x_j)
        want = np.abs(model.coef[:3]) * X.std(axis=0)
        assert model.importances == pytest.approx(want, rel=1e-9)
    if kind == "logistic":  # the sum over classes of |coef_j|
        want = np.abs(model.coef[:, :3]).sum(axis=0)
        assert model.importances == pytest.approx(want, rel=1e-12)


def test_feature_importance_rejects_non_finite_importances():
    # the target's mean overflows, so the linear fit's coefficients, and
    # importances, are NaN
    X = np.arange(8.0)[:, None]
    y = np.array([1e308, 1e308, 1e308, 0.0, 1.0, 2.0, 3.0, 4.0])
    with np.errstate(over="ignore"):
        model = train(LearnerSpec(kind="linear"), X, y, Task.REGRESSION)
    assert np.isnan(model.importances).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LearnError, match="importances are not finite"):
            feature_importance(model)
        model.importances = np.array([1e308, 1e308])  # finite, but the sum is not
        with pytest.raises(LearnError, match="importances are not finite"):
            feature_importance(model)


def test_forest_importances_whose_sum_overflows_keep_their_shares():
    # each impurity decrease of a target near 6e153 is finite but their sum
    # overflowed; the shares were all 0. The decreases are now in the scaled
    # target's units, and a power of two leaves the splits, and so the
    # shares, as they are
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(300, 3))
    y = rng.uniform(-1, 1, 300)
    spec = LearnerSpec(kind="random_forest", seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = feature_importance(train(spec, X, 6e153 * y, Task.REGRESSION))
    small = feature_importance(train(spec, X, 6e153 / 2 ** 10 * y, Task.REGRESSION))
    assert big.tobytes() == small.tobytes()
    assert (big > 0).all()


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest", "logistic"])
def test_every_classifier_fits_a_single_class(kind):
    # a training fold, or a pool to prune, may hold one class: it is predicted
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 3))
    model = train(LearnerSpec(kind=kind, n_trees=5), X, np.ones(20), Task.CLASSIFICATION)
    assert (predict(model, rng.normal(size=(7, 3))) == 1.0).all()
    assert np.isfinite(feature_importance(model)).all()


def test_logistic_separable():
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(-2, 0.3, (50, 1)), rng.normal(2, 0.3, (50, 1))])
    y = np.array([0.0] * 50 + [1.0] * 50)
    model = train(LearnerSpec(kind="logistic"), X, y, Task.CLASSIFICATION)
    assert (predict(model, X) == y).all()


def test_logistic_predict_standardises_a_far_cell_without_a_warning():
    # the cell 1.7e308 lies far outside the other fold's spread, so it
    # standardises to inf; that printed "overflow encountered in divide",
    # which the suite's warning filter turns into an error. The score is the
    # one predict gave with warnings silenced.
    rng = np.random.default_rng(0)
    y = np.array([0.0, 1.0] * 20)
    x = y + rng.normal(0, 0.3, 40)
    x[3] = 1.7e308
    assert evaluate_cv(LearnerSpec(kind="logistic"), [x], y, Task.CLASSIFICATION, 2, 0) == 0.5


def test_learner_spec_rejects_an_unknown_kind():
    with pytest.raises(LearnError, match="unknown learner 'foo'"):
        LearnerSpec(kind="foo")


def test_learner_task_mismatch():
    X = np.zeros((4, 1))
    with pytest.raises(LearnError):
        train(LearnerSpec(kind="linear"), X, np.array([0, 1, 0, 1.0]),
              Task.CLASSIFICATION)
    with pytest.raises(LearnError):
        train(LearnerSpec(kind="logistic"), X, np.arange(4.0), Task.REGRESSION)


def test_train_shape_validation():
    with pytest.raises(LearnError):
        train(LearnerSpec(kind="linear"), np.zeros((0, 2)), np.zeros(0),
              Task.REGRESSION)
    with pytest.raises(LearnError):
        train(LearnerSpec(kind="linear"), np.zeros((3, 2)), np.zeros(4),
              Task.REGRESSION)


def test_predict_schema_mismatch():
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = train(LearnerSpec(kind="linear"), X, np.array([0.0, 1.0]),
                  Task.REGRESSION)
    with pytest.raises(LearnError):
        predict(model, np.zeros((2, 3)))


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest", "linear"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_rejects_non_finite_target(kind, bad):
    # a tree fit on a target with one NaN used to predict NaN for every row
    X = np.arange(8.0).reshape(-1, 1)
    y = np.arange(8.0)
    y[3] = bad
    with pytest.raises(LearnError):
        train(LearnerSpec(kind=kind, n_trees=3), X, y, Task.REGRESSION)


def test_spec_validation():
    with pytest.raises(LearnError):
        LearnerSpec(max_depth=0)


# ---------------------------------------------------------------- evaluation

def test_encode_labels_sorted():
    codes, labels = encode_labels(["b", "a", "b", "c"])
    assert labels == ["a", "b", "c"]
    assert codes.tolist() == [1.0, 0.0, 1.0, 2.0]


def test_evaluate_cv_perfect_feature_scores_one():
    # a feature equal to the target gives a perfect per-fold linear fit
    rng = np.random.default_rng(4)
    y = rng.uniform(0, 10, 60)
    X = np.column_stack([y, rng.uniform(0, 1, 60)])
    score = evaluate_cv(LearnerSpec(kind="linear"), X.T, y, Task.REGRESSION,
                        k=5, seed=0)
    assert score == pytest.approx(1.0, abs=1e-6)


def test_evaluate_cv_handles_missing_cells():
    rng = np.random.default_rng(5)
    y = rng.uniform(0, 10, 60)
    X = np.column_stack([y, rng.uniform(0, 1, 60)])
    X[::7, 1] = np.nan
    score = evaluate_cv(LearnerSpec(kind="linear"), X.T, y, Task.REGRESSION,
                        k=5, seed=0)
    assert np.isfinite(score)
    assert score > 0.9


def test_evaluate_cv_classification():
    rng = np.random.default_rng(6)
    X = rng.uniform(0, 1, (80, 2))
    y = np.where(X[:, 0] > 0.5, "yes", "no")
    score = evaluate_cv(LearnerSpec(kind="decision_tree"), X.T, y,
                        Task.CLASSIFICATION, k=4, seed=0)
    assert score > 0.9



def test_evaluate_cv_scores_every_fold_of_a_multiclass_target_by_macro_f1():
    # class 0 is on 2 of 60 rows, so 2 of 5 folds hold all three classes; the
    # others were scored as binary F1 of class 2, not as macro F1
    rng = np.random.default_rng(8)
    y = np.array([0.0] * 2 + [1.0] * 29 + [2.0] * 29)
    X = np.column_stack([y + rng.normal(0, 0.8, 60), rng.uniform(0, 1, 60)])
    spec = LearnerSpec(kind="decision_tree", max_depth=3)
    folds = fold_pairs(kfold_indices(60, 5, 0, labels=y), 5)
    assert [len(set(y[va].tolist())) for _, va in folds] == [3, 3, 2, 2, 2]

    def macro_f1(t, p):
        return np.mean([2 * np.sum((t == c) & (p == c))
                        / (np.sum(t == c) + np.sum(p == c)) for c in np.unique(t)])

    scores = [macro_f1(y[va], predict(train(spec, X[tr], y[tr], Task.CLASSIFICATION), X[va]))
              for tr, va in folds]
    assert evaluate_cv(spec, X.T, y, Task.CLASSIFICATION, k=5, seed=0) == pytest.approx(
        np.mean(scores), abs=1e-12)

def test_evaluate_cv_deterministic():
    rng = np.random.default_rng(7)
    X = rng.uniform(0, 1, (50, 3))
    y = rng.uniform(0, 1, 50)
    spec = LearnerSpec(kind="random_forest", n_trees=5, seed=1)
    a = evaluate_cv(spec, X.T, y, Task.REGRESSION, k=3, seed=2)
    b = evaluate_cv(spec, X.T, y, Task.REGRESSION, k=3, seed=2)
    assert a == b


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["linear", "decision_tree", "random_forest"]), st.data())
def test_evaluate_cv_score_is_finite(kind, data):
    # targets near the float limit make a fold's absolute errors, or its
    # deviations, overflow (numpy warns); 1 - rae was then -inf or nan. The
    # linear learner's target mean overflows on such targets, and it predicts
    # NaN; a feature that spreads beyond about 1e154, which overflows its
    # fold's ZᵀZ, gets coefficient 0. Each fold scores at least 0.
    n = data.draw(st.integers(4, 16))
    y = data.draw(arrays(float, n, elements=st.floats(-1e308, 1e308)))
    X = data.draw(arrays(float, (n, 2),
                         elements=st.floats(-1e308, 1e308) | st.just(np.nan)))
    spec = LearnerSpec(kind=kind, n_trees=3, max_depth=3)
    with np.errstate(all="ignore"):
        try:
            score = evaluate_cv(spec, X.T, y, Task.REGRESSION, k=2, seed=0)
        except LearnError as e:
            assert kind == "linear"
            assert "predicted NaN" in str(e)
            return
    assert 0.0 <= score <= 1.0


def test_evaluate_cv_scores_an_overflowing_fold_zero():
    X = np.arange(6.0)[:, None]
    y = np.array([0.0, 1.0, 1e308, -1e308, 2.0, 3.0])
    with np.errstate(all="ignore"):
        assert metric_one_minus_rae([0.0, 1.0], [1e308, -1e308]) == -np.inf
        for kind in ("decision_tree", "random_forest"):
            assert evaluate_cv(LearnerSpec(kind=kind, n_trees=3), X.T, y,
                               Task.REGRESSION, k=2, seed=0) == 0.0


def test_evaluate_cv_floors_a_fold_that_validates_an_outlier_at_zero():
    # the fold that validates z = 1e60 predicts about 1e60 there: it scored
    # -2.5e57, and the CV score, a reward the agent trains on, -1.24e57
    x = np.arange(40.0)
    z = 0.5 * x
    z[7] = 1e60
    y = 1.5 * x + x % 3
    X = np.column_stack([x, z])
    score = evaluate_cv(LearnerSpec(kind="linear"), X.T, y, Task.REGRESSION, k=2, seed=0)
    train_idx, valid_idx = next(f for f in fold_pairs(kfold_indices(40, 2, 0), 2) if 7 not in f[1])
    fit = train(LearnerSpec(kind="linear"), X[train_idx], y[train_idx], Task.REGRESSION)
    want = metric_one_minus_rae(y[valid_idx], predict(fit, X[valid_idx])) / 2
    assert want > 0
    assert score == pytest.approx(want, rel=1e-9)


def test_one_minus_rae_overflowing_deviations_raise():
    # the deviations sum past the float range: the score was nan
    with pytest.raises(LearnError):
        metric_one_minus_rae([1e308, -1e308, 1e308], [0.0, 0.0, 0.0])
    y = np.array([1e308, -1e308, 1e308] * 4)
    assert evaluate_cv(LearnerSpec(kind="decision_tree"), [np.arange(12.0)],
                       y, Task.REGRESSION, k=3, seed=0) == 0.0


def test_evaluate_cv_raises_where_the_learner_predicts_nan():
    # the target's mean overflows, so the linear fit is NaN; that is not a
    # score of 0
    X = np.arange(8.0)[:, None]
    y = np.array([1e308, 1e308, 1e308, 0.0, 1.0, 2.0, 3.0, 4.0])
    with np.errstate(all="ignore"), pytest.raises(LearnError, match="NaN"):
        evaluate_cv(LearnerSpec(kind="linear"), X.T, y, Task.REGRESSION, k=2, seed=0)


def _impute_columns_oracle(train_X, other_X):
    """impute_columns as it was before it skipped gapless columns and
    matrices: a median for every column, a copy of both matrices."""
    med = np.zeros(train_X.shape[1])
    for j in range(train_X.shape[1]):
        col = train_X[:, j]
        finite = col[~np.isnan(col)]
        med[j] = np.median(finite) if len(finite) else 0.0
    out = []
    for M in (train_X, other_X):
        M = M.copy()
        nanmask = np.isnan(M)
        M[nanmask] = np.take(med, np.nonzero(nanmask)[1])
        out.append(M)
    return out


@st.composite
def gappy_matrices(draw):
    """A training and an other matrix with random gaps, some training
    columns all NaN, and an other matrix that may have no rows."""
    p = draw(st.integers(1, 5))
    cells = st.floats(-1e6, 1e6) | st.just(np.nan)
    train_X = draw(arrays(float, (draw(st.integers(1, 12)), p), elements=cells))
    other_X = draw(arrays(float, (draw(st.integers(0, 6)), p), elements=cells))
    for j in draw(st.sets(st.integers(0, p - 1), max_size=p)):
        train_X[:, j] = np.nan
    return train_X, other_X


@settings(max_examples=200, deadline=None)
@given(gappy_matrices())
def test_impute_columns_matches_oracle(mats):
    train_X, other_X = mats
    before = [M.tobytes() for M in mats]
    got = impute_columns(train_X, other_X)
    want = _impute_columns_oracle(train_X, other_X)
    for g, w, M in zip(got, want, mats):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()
        if not np.isnan(M).any():
            assert g is M  # a gapless matrix is not copied
    assert [M.tobytes() for M in mats] == before


def test_impute_columns_fills_a_median_whose_middle_pair_sum_overflows():
    # the mean of 1.6e308 and 1.7e308 was inf, with an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filled, other = impute_columns(np.array([[1.6e308], [1.7e308], [1.0], [1.8e308],
                                                 [np.nan]]), np.array([[np.nan]]))
    assert filled[4, 0] == other[0, 0] == 1.6e308 / 2 + 1.7e308 / 2


def _linear_cv_oracle(X, y, k, seed):
    """evaluate_cv's fold loop for the linear learner as it was before the
    fold sums: gather each training fold, fit it with train and predict its
    validation fold."""
    scores = []
    for train_idx, valid_idx in fold_pairs(kfold_indices(len(y), k, seed), k):
        yva = y[valid_idx]
        if _rae_denominator(yva) is None:
            scores.append(0.0)
            continue
        model = train(LearnerSpec(kind="linear"), X[train_idx], y[train_idx],
                      Task.REGRESSION)
        pred = predict(model, X[valid_idx])
        if np.isnan(pred).any():
            raise LearnError("the linear learner predicted NaN")
        with np.errstate(over="ignore"):
            scores.append(max(0.0, metric_one_minus_rae(yva, pred)))
    return float(np.mean(scores))


@st.composite
def linear_cv_cases(draw):
    """A gapless matrix whose columns are moderate floats, 2^30 plus small
    integers, a constant, or a power-of-two multiple of the column before (a
    collinear pair); a target that is noise or a linear fit of the columns
    plus noise, now and then with a NaN or inf cell; and k from 2 to 5.

    Every training fold has at least two rows more than the matrix has
    columns, and a collinear pair is exact. Otherwise the ridge term decides
    the fit, and the per-fold fit disagrees with itself, on its training
    rows in reverse order, by up to 1e-5."""
    k = draw(st.integers(2, 5))
    kinds = draw(st.lists(st.sampled_from(["float", "offset", "constant", "collinear"]),
                          min_size=1, max_size=6))
    n_min = next(n for n in range(k, 100) if n - -(-n // k) >= len(kinds) + 2)
    n = draw(st.integers(n_min, n_min + 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for kind in kinds:
        if kind == "float":
            cols.append(rng.uniform(-1e3, 1e3, n) * 10.0 ** rng.integers(-6, 1))
        elif kind == "offset":
            cols.append(2.0 ** 30 + rng.integers(-40, 60, n))
        elif kind == "constant":
            cols.append(np.full(n, draw(st.floats(-1e3, 1e3))))
        else:
            base = cols[-1] if cols else rng.normal(size=n)
            cols.append(draw(st.sampled_from([-4.0, -0.5, 0.25, 2.0, 8.0])) * base)
    X = np.column_stack(cols)
    y = rng.normal(size=n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        y += (X - X.mean(axis=0)) @ rng.normal(size=X.shape[1])
    if draw(st.integers(0, 9)) == 0:
        y[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf]))
    return X, y, k


@settings(max_examples=300, deadline=None)
@given(linear_cv_cases(), st.integers(0, 3))
def test_linear_cv_from_fold_sums_matches_per_fold_fits(case, seed):
    X, y, k = case
    spec = LearnerSpec(kind="linear")
    try:
        want = _linear_cv_oracle(X, y, k, seed)
    except LearnError as e:
        with pytest.raises(LearnError) as got:
            evaluate_cv(spec, X.T, y, Task.REGRESSION, k=k, seed=seed)
        assert str(got.value) == str(e)
        return
    got = evaluate_cv(spec, X.T, y, Task.REGRESSION, k=k, seed=seed)
    # 1 - rae, so the tolerance is relative to the larger of 1 and the score
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_evaluate_cv_linear_allocates_at_most_one_matrix_above_its_inputs():
    # each fold's training matrix, its validation matrix and the centred copy
    # took 2.14 times X's bytes
    rng = np.random.default_rng(0)
    X = rng.uniform(0.5, 2.0, (20000, 45))
    y = X[:, 0] / X[:, 1] ** 2 + rng.normal(0, 0.05, 20000)
    tracemalloc.start()
    try:
        evaluate_cv(LearnerSpec(kind="linear"), X.T, y, Task.REGRESSION, k=5, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * X.nbytes, f"peak {peak / X.nbytes:.2f} times X"


def _matrix_cv_oracle(spec, X, y, task, k, seed):
    """evaluate_cv as it was when it took an n × p matrix: each fold
    gathered as X[rows], the fold sums taken of a centred copy, and the
    validation fold predicted from another."""
    def centred_sums(X, y):
        n = X.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            total, y_total = np.ones(n) @ X, y.sum()
            Z = X - total / n
            return n, Z.T @ Z, Z.T @ (y - y_total / n), total, y_total

    X = np.asarray(X, dtype=float)
    if task == Task.CLASSIFICATION:
        y_codes, labels = encode_labels(y)
        folds = fold_pairs(kfold_indices(len(y_codes), k, seed, labels=y_codes), k)
    else:
        y_codes = np.asarray(y, dtype=float)
        folds = fold_pairs(kfold_indices(len(y_codes), k, seed), k)
    gaps = np.isnan(X).any()
    sums = None
    if (spec.kind == "linear" and task == Task.REGRESSION and X.size and not gaps
            and np.isfinite(y_codes).all()):
        sums = [centred_sums(X[valid_idx], y_codes[valid_idx]) for _, valid_idx in folds]
    scores = []
    for f, (train_idx, valid_idx) in enumerate(folds):
        yva = y_codes[valid_idx]
        if task == Task.REGRESSION and _rae_denominator(yva) is None:
            scores.append(0.0)
            continue
        if sums is not None:
            fit = learn._ridge(*functools.reduce(learn._merged_sums,
                                                 sums[:f] + sums[f + 1:]))
            mean, y_mean = fit.scaler
            with np.errstate(over="ignore", invalid="ignore"):
                pred = (X[valid_idx] - mean) @ fit.coef + y_mean
        else:
            Xtr, Xva = X[train_idx], X[valid_idx]
            if gaps:
                Xtr, Xva = impute_columns(Xtr, Xva)
            pred = predict(train(spec, Xtr, y_codes[train_idx], task), Xva)
        if task == Task.CLASSIFICATION:
            scores.append(learn._mean_f1(yva, pred, [float(len(labels) - 1)]
                                         if len(labels) <= 2
                                         else sorted(set(yva.tolist()), key=str)))
            continue
        if np.isnan(pred).any():
            raise LearnError(f"the {spec.kind} learner predicted NaN")
        with np.errstate(over="ignore"):
            scores.append(max(0.0, metric_one_minus_rae(yva, pred)))
    return float(np.mean(scores))


def _assert_cv_matches_the_matrix_oracle(spec, X, y, task, k, seed):
    """evaluate_cv on X's columns gives the oracle's score exactly, or its
    LearnError, and leaves X as it was."""
    before = X.tobytes()
    try:
        want = _matrix_cv_oracle(spec, X, y, task, k, seed)
    except LearnError as e:
        with pytest.raises(LearnError) as got:
            evaluate_cv(spec, X.T, y, task, k=k, seed=seed)
        assert str(got.value) == str(e)
    else:
        assert evaluate_cv(spec, X.T, y, task, k=k, seed=seed) == want
    assert X.tobytes() == before


@settings(max_examples=200, deadline=None)
@given(linear_cv_cases(), st.integers(0, 3), st.data())
def test_linear_cv_on_columns_matches_the_matrix_oracle(case, seed, data):
    X, y, k = case
    if data.draw(st.booleans()):  # gaps: every training fold is fit as gathered
        cells = data.draw(st.lists(st.tuples(st.integers(0, X.shape[0] - 1),
                                             st.integers(0, X.shape[1] - 1)),
                                   min_size=1, max_size=4))
        for i, j in cells:
            X[i, j] = np.nan
    _assert_cv_matches_the_matrix_oracle(LearnerSpec(kind="linear"), X, y,
                                         Task.REGRESSION, k, seed)


@st.composite
def cv_cases(draw, kinds):
    """(spec, X, y, task, k): a learner drawn from `kinds` and a small
    matrix, now and then with gaps, a constant or an integer column, with a
    noisy regression target or a two- or three-class one from its first
    column. The logistic learner gets a classification target."""
    kind = draw(st.sampled_from(kinds))
    task = (Task.CLASSIFICATION if kind == "logistic"
            else draw(st.sampled_from([Task.REGRESSION, Task.CLASSIFICATION])))
    k = draw(st.integers(2, 4))
    n = draw(st.integers(3 * k, 40))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, p)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    for j in range(p):
        shape = draw(st.sampled_from(["float", "integer", "constant"]))
        if shape == "integer":
            X[:, j] = rng.integers(-3, 4, n)
        elif shape == "constant":
            X[:, j] = draw(st.floats(-10, 10))
    if task == Task.CLASSIFICATION:
        y = np.digitize(X[:, 0] + rng.normal(0, 0.5, n), [-0.3, 0.3][:draw(st.integers(1, 2))])
    else:
        y = X[:, 0] + rng.normal(size=n)
    if draw(st.integers(0, 3)) == 0:
        X[rng.random((n, p)) < 0.1] = np.nan
    spec = LearnerSpec(kind=kind, n_trees=3, max_depth=draw(st.integers(1, 4)),
                       seed=draw(st.integers(0, 3)))
    return spec, X, y, task, k


@settings(max_examples=200, deadline=None)
@given(cv_cases(["decision_tree", "random_forest", "logistic"]), st.integers(0, 3))
def test_cv_on_columns_matches_the_matrix_oracle(case, seed):
    spec, X, y, task, k = case
    _assert_cv_matches_the_matrix_oracle(spec, X, y, task, k, seed)


@pytest.mark.parametrize("kind", ["linear", "decision_tree"])
def test_evaluate_cv_of_no_columns_raises_as_the_matrix_oracle(kind):
    y = np.arange(12.0) % 5
    with pytest.raises(LearnError) as want:
        _matrix_cv_oracle(LearnerSpec(kind=kind), np.empty((12, 0)), y, Task.REGRESSION, 3, 0)
    with pytest.raises(LearnError) as got:
        evaluate_cv(LearnerSpec(kind=kind), [], y, Task.REGRESSION, k=3, seed=0)
    assert str(got.value) == str(want.value) == "empty training matrix"


def test_evaluate_cv_rejects_rows_for_columns():
    X = np.random.default_rng(0).normal(size=(12, 3))
    with pytest.raises(LearnError, match="one value per target row"):
        evaluate_cv(LearnerSpec(kind="linear"), X, X[:, 0], Task.REGRESSION, k=3, seed=0)


@settings(max_examples=100, deadline=None)
@given(cv_cases(["linear", "decision_tree", "random_forest", "logistic"]))
def test_train_and_predict_leave_their_matrix_as_it_was(case):
    spec, X, y, task, _ = case
    if spec.kind == "linear":
        task = Task.REGRESSION
    X = impute_columns(X, X[:0])[0]
    y = encode_labels(y)[0] if task == Task.CLASSIFICATION else y
    before = X.tobytes()
    model = train(spec, X, y, task)
    assert X.tobytes() == before
    predict(model, X)
    assert X.tobytes() == before


def test_linear_fit_solves_the_columns_whose_sum_of_squares_is_finite():
    # AᵀA holds inf; lstsq on it raised LinAlgError or ran for minutes, so the
    # whole fit predicted the training mean, blind to the columns that fit.
    # A column whose centred sum of squares overflows gets coefficient,
    # centre and importance 0, and the others are solved without it
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=60), rng.normal(size=60)
    c = rng.uniform(1, 2, 60) * 1e160
    y = 3 * a + b
    spec = LearnerSpec(kind="linear")
    X = np.column_stack([a, c, b])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train(spec, X, y, Task.REGRESSION)
        want = train(spec, X[:, [0, 2]], y, Task.REGRESSION)
        assert predict(model, X) == pytest.approx(predict(want, X[:, [0, 2]]), rel=1e-12)
    assert model.coef[1] == model.scaler[0][1] == model.importances[1] == 0.0
    assert model.coef[[0, 2]] == pytest.approx(want.coef, rel=1e-12)
    assert model.scaler[1] == want.scaler[1]
    assert model.scaler[0][[0, 2]] == pytest.approx(want.scaler[0], rel=1e-12)
    assert model.importances[[0, 2]] == pytest.approx(want.importances, rel=1e-12)
    # with every column overflowing, the model predicts the training mean
    X = np.column_stack([np.arange(8.0), np.arange(8.0) ** 2])
    X[3] = 1e200
    y = np.arange(8.0) * 1.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train(spec, X, y, Task.REGRESSION)
        assert predict(model, X).tolist() == [y.mean()] * 8
    assert model.coef.tolist() == [0.0, 0.0]
    assert model.scaler[1] == y.mean()
    assert model.importances.tolist() == [0.0, 0.0]
    assert feature_importance(model).tolist() == [0.5, 0.5]


def test_evaluate_cv_fits_the_other_columns_where_one_overflows():
    # One column near 1e160 scored the pool 0.0, however well the others fit
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=60), rng.normal(size=60)
    c = rng.uniform(1, 2, 60) * 1e160
    spec = LearnerSpec(kind="linear")
    assert evaluate_cv(spec, [a, b, c], 3 * a + b, Task.REGRESSION,
                       k=2, seed=0) >= 0.9999
    # The folds that train on row 3 fit column 1 alone, where they predicted
    # their training mean; the one that validates it predicts near 1e200 and
    # scores 0, where it scored about -1e200
    X = rng.normal(size=(40, 2))
    X[3, 0] = 1e200
    y = X[:, 1] + rng.normal(0, 0.1, size=40)

    def per_fold(X, k):
        scores = []
        for train_idx, valid_idx in fold_pairs(kfold_indices(40, k, 0), k):
            Xtr, Xva = impute_columns(X[train_idx], X[valid_idx])
            cols = [1] if Xtr[:, 0].max() >= 1e200 else [0, 1]
            pred = predict(train(spec, Xtr[:, cols], y[train_idx], Task.REGRESSION),
                           Xva[:, cols])
            if cols == [0, 1] and Xva[:, 0].max() >= 1e200:
                assert metric_one_minus_rae(y[valid_idx], pred) < -1e100
            scores.append(max(0.0, metric_one_minus_rae(y[valid_idx], pred)))
        return np.mean(scores)

    start = time.perf_counter()
    want = per_fold(X, 5)
    assert want > 0.5
    assert evaluate_cv(spec, X.T, y, Task.REGRESSION, k=5, seed=0) == pytest.approx(
        want, rel=1e-9)
    assert time.perf_counter() - start < 1.0
    gapped = X.copy()
    gapped[5, 1] = np.nan  # fits each training fold as gathered
    assert evaluate_cv(spec, gapped.T, y, Task.REGRESSION, k=5, seed=0) == pytest.approx(
        per_fold(gapped, 5), rel=1e-9)
    (_, fold_a), (_, fold_b) = fold_pairs(kfold_indices(40, 2, 0), 2)
    X[[fold_a[0], fold_b[0]], 0] = 1e200  # every training fold holds one
    assert evaluate_cv(spec, X.T, y, Task.REGRESSION, k=2, seed=0) == pytest.approx(
        per_fold(X, 2), rel=1e-9)


def test_evaluate_cv_skips_imputation_without_gaps(monkeypatch):
    calls = []
    monkeypatch.setattr(learn, "impute_columns",
                        lambda *m: calls.append(1) or impute_columns(*m))
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 3))
    y = X[:, 0] + rng.normal(size=30)
    spec = LearnerSpec(kind="linear")
    clean = evaluate_cv(spec, X.T, y, Task.REGRESSION, k=3, seed=0)
    assert calls == []
    X[4, 1] = np.nan
    gappy = evaluate_cv(spec, X.T, y, Task.REGRESSION, k=3, seed=0)
    assert len(calls) == 3 and gappy != clean


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40)
       | st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), min_size=1, max_size=8))
@example([1.6e308, 1.0, 1.7e308, 1.8e308])
@example([-1.7e308, -1.6e308])
def test_median_is_numpys_bit_for_bit(values):
    x = np.array(values)
    with np.errstate(over="ignore"):
        got, want = learn._median(x), np.median(x)
    if np.isinf(want):  # two huge middle values a, b sum to ±inf: a/2 + b/2
        a, b = np.sort(x)[(len(x) - 1) // 2: len(x) // 2 + 1]
        want = a / 2 + b / 2
        assert np.isfinite(want)
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (values, got, want)
    assert np.array_equal(x, values)  # the input is not reordered


def test_classification_cv_does_not_import_numpy_ma():
    # in numpy 2.4 a plain np.unique and np.median import numpy.ma, which cost
    # a classification run about 14 ms and 1 MB of peak RSS
    code = ("import sys\nimport numpy as np\n"
            "from kgfeat.data import Task\nfrom kgfeat.learn import LearnerSpec, evaluate_cv\n"
            "X = np.random.default_rng(0).normal(size=(40, 3))\nX[3, 1] = np.nan\n"
            "y = (X[:, 0] > 0).astype(float)\n"
            "for kind in ('decision_tree', 'random_forest', 'logistic'):\n"
            "    evaluate_cv(LearnerSpec(kind=kind, n_trees=3), X.T, y, Task.CLASSIFICATION, 2, 0)\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
