"""Built-in learners, task metrics, cross-validated evaluation, and
feature importance."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Task, kfold_indices


class LearnError(ValueError):
    pass


RIDGE_LAMBDA = 1e-6      # L2 penalty of the linear and logistic learners
LOGISTIC_ITERS = 200     # gradient steps per class of the logistic learner
LEARNERS = ("decision_tree", "random_forest", "linear", "logistic")


@dataclass
class LearnerSpec:
    kind: str = "random_forest"  # one of LEARNERS
    max_depth: int = 6
    n_trees: int = 50
    feature_subsample: Optional[float] = None  # None -> sqrt(p)/p
    seed: int = 0

    def __post_init__(self):
        if self.kind not in LEARNERS:
            raise LearnError(f"unknown learner {self.kind!r}")
        if self.max_depth < 1 or self.n_trees < 1:
            raise LearnError("hyperparameters must be positive")

    def check_task(self, task: Task):
        if self.kind == "linear" and task != Task.REGRESSION:
            raise LearnError("linear learner requires a regression task")
        if self.kind == "logistic" and task != Task.CLASSIFICATION:
            raise LearnError("logistic learner requires a classification task")


@dataclass
class _Forest:
    """Flat node arrays of all the trees of a model, in level order within
    each batch of trees grown together. Tree t starts at node roots[t]. A
    node with feature -1 is a leaf that predicts ldexp(value, scale);
    otherwise rows with x <= threshold go to node left[i] and the others to
    left[i] + 1."""
    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    scale: int


@dataclass
class Model:
    kind: str
    task: Task
    n_features: int
    trees: Optional[_Forest] = None
    coef: Optional[np.ndarray] = None            # linear / per-class logistic
    scaler: Optional[tuple] = None               # logistic (mean, std); linear (mean, ȳ)
    classes: Optional[np.ndarray] = None         # encoded labels, sorted
    importances: Optional[np.ndarray] = None


# The trees use histogram split search (LightGBM, Ke et al., NeurIPS 2017;
# scikit-learn's histogram gradient boosting). Each train call bins every
# column once into rank codes. A tree trains on the distinct rows of its
# bootstrap, each weighted by the number of times it was drawn, as
# scikit-learn's forests turn bootstrap indices into sample weights. Integer
# weights sum exactly, so the counts are those of the repeated rows.
# The trees of a batch grow together, one depth level per pass: one sort of
# the open nodes' (node, feature, bin) keys, and prefix sums over it, score
# all their thresholds. A column with at most _MAX_BINS distinct values keeps
# one bin per value, so its splits are those of an exact greedy search.
_MAX_BINS = 255
_BATCH_ROWS = 4096  # distinct rows grown in one pass; bounds peak memory


def _bin_columns(X):
    """Rank codes (p, n) of each column in at most _MAX_BINS bins, and each
    bin's smallest and largest value, both (p, _MAX_BINS).

    A column with more distinct values merges neighbouring values into bins
    of about n / _MAX_BINS rows; equal values always share a bin.
    """
    n, p = X.shape
    codes = np.empty((p, n), dtype=np.uint8)
    lo = np.zeros((p, _MAX_BINS))
    hi = np.zeros((p, _MAX_BINS))
    for j in range(p):
        vals, inv, counts = np.unique(X[:, j], return_inverse=True,
                                      return_counts=True)
        first = last = np.arange(len(vals))
        if len(vals) > _MAX_BINS:
            rank = (np.cumsum(counts) - counts) * _MAX_BINS // n
            _, first, merged = np.unique(rank, return_index=True,
                                         return_inverse=True)
            last = np.append(first[1:], len(vals)) - 1
            inv = merged[inv]
        codes[j] = inv
        lo[j, :len(first)] = vals[first]
        hi[j, :len(last)] = vals[last]
    return codes, lo, hi


def _scaled_target(y):
    """A regression target scaled by a power of two into [-1, 1], and that
    power's exponent e: ldexp(y, -e), so that no sum of it or of its square
    overflows. Scaling by a power of two rounds nothing, so the sums, and
    the splits, are those of the unscaled target."""
    e = int(np.frexp(np.abs(y).max())[1])
    return np.ldexp(y, -e), e


def _draw_features(m, rng, n_sub, p):
    """Sorted feature subsets (m, n_sub), one per open node: each node keys
    the p features with the next p uniforms of rng and takes the n_sub of
    the smallest keys. Nothing is drawn when n_sub >= p."""
    if n_sub >= p:
        return np.broadcast_to(np.arange(p), (m, p))
    F = np.argpartition(rng.random((m, p)), n_sub - 1, axis=1)[:, :n_sub]
    F.sort(axis=1)
    return F


def _best_splits(codes, lo, hi, rows, ys, w, sk, F, stats, task, n_classes, tol):
    """Best split of each open node over its features F (m, f).

    Distinct samples (rows, ys) of weight w are in open node sk. stats holds
    the nodes' weighted counts and class counts, or counts, sums of y and
    impurities. Ties break toward the lowest feature unless a later one is
    better by more than tol, then toward the lowest threshold. Returns
    (weighted child impurity, feature, threshold, last left bin); the
    impurity is inf where a node has no split.
    """
    m, f = F.shape
    N = len(rows)
    size = np.bincount(sk, minlength=m)
    # One sort of (segment, bin, sample) keys, a segment being a (node,
    # feature) pair: it holds its node's samples once, ordered by bin, and
    # starts at position seg_start. The keys fit 63 bits while m * f * N
    # stays below 2**53.
    shift = max(1, (N - 1).bit_length())
    key = (F * codes.shape[1]).take(sk, axis=0)
    key += rows[:, None]
    key = codes.ravel().take(key).astype(np.int64)
    key <<= shift
    key += ((np.arange(m * f) << 8 << shift).reshape(m, f)).take(sk, axis=0)
    key += np.arange(N)[:, None]
    key = key.ravel()
    key.sort()
    smp = key & ((1 << shift) - 1)
    key >>= shift
    seg_start = (f * (np.cumsum(size) - size))[:, None] + np.arange(f) * size[:, None]
    # a split candidate is the last sample of a bin followed by another bin
    # of its segment; its left side is the segment's prefix up to it
    v = key[1:] ^ key[:-1]  # below 256 within a segment
    v = np.flatnonzero((v > 0) & (v < 256))
    if not len(v):
        return np.full(m, np.inf), F[:, 0], np.zeros(m), np.zeros(m, dtype=np.int64)
    g = key[v] >> 8
    start = seg_start.ravel()[g]
    prefix = np.zeros(len(key) + 1)

    def left_sum(a):
        """Sum of the per-sample values a over each candidate's left side."""
        np.cumsum(a.take(smp), out=prefix[1:])
        return prefix[v + 1] - prefix[start]

    nl = left_sum(w)
    node = g // f
    n = stats[0][node]
    nr = n - nl
    if task == Task.CLASSIFICATION:
        # 1 - sum over classes of (weight / n)**2, added in class order; the
        # count completes the last class exactly (integer weights)
        left = [left_sum(w * (ys == c)) for c in range(n_classes - 1)]
        left.append(nl - sum(left))
        gini_l = 1.0 - sum((lc / nl) ** 2 for lc in left)
        gini_r = 1.0 - sum(((stats[1][node, c] - lc) / nr) ** 2
                           for c, lc in enumerate(left))
        score = (nl * gini_l + nr * gini_r) / n
    else:
        # the node's impurity less nl·nr/n²·(mean_l − mean_r)², which is
        # d²/(n²·nl·nr); d is exact while the integer sums stay below 2**53,
        # so an offset the target holds exactly leaves it as it is
        d = n * left_sum(w * ys) - nl * stats[1][node]
        score = stats[2][node] - d * d / (n * n * nl * nr)
    # the lowest threshold of each (node, feature) segment reaching its minimum
    first = np.flatnonzero(np.concatenate([[True], g[1:] != g[:-1]]))
    seg_min = np.full(m * f, np.inf)
    seg_min[g[first]] = np.minimum.reduceat(score, first)
    hit = np.flatnonzero(score == seg_min[g])
    hit = hit[np.concatenate([[True], g[hit][1:] != g[hit][:-1]])]
    seg_cell = np.zeros(m * f, dtype=np.int64)
    seg_cell[g[hit]] = hit
    seg_min, seg_cell = seg_min.reshape(m, f), seg_cell.reshape(m, f)
    best, cell_at = seg_min[:, 0].copy(), seg_cell[:, 0].copy()
    slot = np.zeros(m, dtype=np.int64)
    for k in range(1, f):
        better = seg_min[:, k] < best - tol
        best[better] = seg_min[better, k]
        cell_at[better] = seg_cell[better, k]
        slot[better] = k
    j = F[np.arange(m), slot]
    split_bin = key[v[cell_at]] & 255
    below = hi[j, split_bin]
    above = lo[j, key[v[cell_at] + 1] & 255]  # any bin where no split
    # strictly below the right value: where the midpoint rounds up to it,
    # overflows or is inf - inf, the threshold is the left value
    with np.errstate(over="ignore", invalid="ignore"):
        mid = (below + above) / 2.0
    return best, j, np.where(mid < above, mid, below), split_bin


def _positions(subset, K):
    """Position of each of the K nodes within `subset`, -1 outside it."""
    pos = np.full(K, -1)
    pos[subset] = np.arange(len(subset))
    return pos


def _grow(codes, lo, hi, y, tol, task, n_classes, batch, rng, n_sub,
          max_depth, importances, n_total):
    """Grow the trees of `batch` (see _bootstraps) together, one depth level
    per pass; each level's open nodes, which are in tree order, draw their
    feature subsets from rng in that order (see _draw_features). y is the
    class codes, or the regression target as _scaled_target scales it; a
    node splits where that lowers its impurity by more than tol.

    Returns the batch's node arrays (feature, threshold, left, value) in
    level order, with the batch's i-th tree's root at node i. Leaf values,
    and the impurity decreases added to `importances`, are in y's units.
    """
    p = codes.shape[0]
    K, k, rows, w = batch  # K: the number of nodes of this level
    w = w.astype(float)
    ys = y[rows]
    base = 0  # id of this level's first node
    levels = []
    for depth in range(max_depth + 1):
        cnt = np.bincount(k, w, K)
        if task == Task.CLASSIFICATION:
            counts = np.bincount(k * n_classes + ys, w,
                                 K * n_classes).reshape(K, n_classes)
            imp = 1.0 - np.sum((counts / cnt[:, None]) ** 2, axis=1)
            value = np.argmax(counts, axis=1).astype(float)  # lowest code on ties
            stats = (cnt, counts)
        else:
            t1 = np.bincount(k, w * ys, K)
            value = t1 / cnt
            imp = np.bincount(k, w * (ys - value[k]) ** 2, K) / cnt
            # a node whose samples all equal any one of them has impurity
            # exactly 0, though its mean may round off that value
            kept = np.zeros(K)
            kept[k] = ys
            imp[np.bincount(k, ys != kept[k], K) == 0] = 0.0
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
        rows, ys, w, s = rows[inside], ys[inside], w[inside], s[inside]
        F = _draw_features(len(open_), rng, n_sub, p)
        best, j, thr, split_bin = _best_splits(
            codes, lo, hi, rows, ys, w, s, F, tuple(a[open_] for a in stats),
            task, n_classes, tol)
        gain = best < imp[open_] - tol
        split = open_[gain]
        j, split_bin = j[gain], split_bin[gain]
        feature[split] = j
        threshold[split] = thr[gain]
        left[split] = base + K + 2 * np.arange(len(split))
        np.add.at(importances, j, (cnt[split] / n_total) * (imp[split] - best[gain]))
        s = _positions(np.flatnonzero(gain), len(open_))[s]
        inside = s >= 0
        rows, ys, w, s = rows[inside], ys[inside], w[inside], s[inside]
        k = 2 * s + (codes[j[s], rows] > split_bin[s])
        base, K = base + K, 2 * len(split)
    return tuple(np.concatenate(a) for a in zip(*levels))


def _bootstraps(draws):
    """Batches of trees, in tree order, each as (its number of trees, and for
    each of its samples the sample's tree within the batch, row and weight):
    tree t of `draws` (trees, n) grows on the rows it drew, each weighted by
    its number of draws. A batch holds at most _BATCH_ROWS distinct rows, or
    one tree."""
    start, size = 0, 0
    sizes = np.count_nonzero(draws, axis=1).tolist()
    for t, s in enumerate(sizes + [0]):
        if t == len(sizes) or (t > start and size + s > _BATCH_ROWS):
            k, rows = np.nonzero(draws[start:t])
            yield t - start, k, rows, draws[start:t][k, rows]
            start, size = t, 0
        size += s


def _fit_trees(X, y, task, n_classes, draws, rng, n_sub, max_depth):
    """One tree per row of draws (see _bootstraps). Each node searches a
    subset of n_sub features drawn from rng, or all of them when n_sub >= p.
    Returns the forest and its summed impurity decreases, in the scaled
    target's units: a power of two, so their shares are those of the
    unscaled target's."""
    n, p = X.shape
    codes, lo, hi = _bin_columns(X)
    if task == Task.CLASSIFICATION:
        y, e, tol = y.astype(np.int64), 0, 1e-15
    else:
        y, e = _scaled_target(y)
        # relative to the target's range; a constant one's sums still round,
        # so it never splits
        tol = 1e-15 * ((y.max() - y.min()) / 2) ** 2 or np.inf
    importances = np.zeros(p)
    roots, parts, n_nodes = [], [], 0
    for batch in _bootstraps(draws):
        feature, threshold, left, value = _grow(
            codes, lo, hi, y, tol, task, n_classes, batch, rng, n_sub,
            max_depth, importances, n)
        roots.append(n_nodes + np.arange(batch[0]))
        parts.append((feature, threshold, np.where(left >= 0, left + n_nodes, -1),
                      value))
        n_nodes += len(feature)
    return _Forest(np.concatenate(roots),
                   *(np.concatenate(a) for a in zip(*parts)), e), importances


def _forest_leaves(forest: _Forest, X) -> np.ndarray:
    """Leaf values (trees, rows): every tree's rows descend one level per
    step."""
    node = np.repeat(forest.roots[:, None], X.shape[0], axis=1)
    cols = np.arange(X.shape[0])
    while True:
        feat = forest.feature[node]
        inner = feat >= 0
        if not inner.any():
            return forest.value[node]
        x = X[cols, np.maximum(feat, 0)]
        right = ~(x <= forest.threshold[node])
        node = np.where(inner, forest.left[node] + right, node)


def _centred_sums(X, y):
    """(rows, Gram matrix of the columns centred on their means, its products
    with the centred target, column sums, target sum): all a ridge fit reads
    of a row set. X is centred in place. An overflow gives inf or NaN."""
    n = X.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        total, y_total = np.ones(n) @ X, y.sum()  # a matmul beats X.sum(axis=0)
        X -= total / n
        return n, X.T @ X, X.T @ (y - y_total / n), total, y_total


def _merged_sums(a, b):
    """The _centred_sums of two disjoint row sets' union, from theirs: the
    pairwise update of Chan, Golub & LeVeque (1979). Each part is centred on
    its own means, so no large sum is subtracted from another."""
    na, Ga, ra, sa, ta = a
    nb, Gb, rb, sb, tb = b
    with np.errstate(over="ignore", invalid="ignore"):
        # the parts' mean difference, rounded once: na·sb − nb·sa is exact for
        # integer sums below 2**53, so a column at 2**30 merges exactly
        dm, dy = (na * sb - nb * sa) / (na * nb), (na * tb - nb * ta) / (na * nb)
        w = na * nb / (na + nb)
        return (na + nb, Ga + Gb + w * np.outer(dm, dm), ra + rb + w * dm * dy,
                sa + sb, ta + tb)


def _ridge(n, gram, rhs, total, y_total):
    """The ridge fit of a row set from its _centred_sums. The normal
    equations are scaled to a unit diagonal, and the model predicts from the
    centred columns, so an offset or badly scaled column keeps its digits.
    A column whose centred sum of squares overflows, which lstsq cannot
    solve (it raises or never returns), gets coefficient, centre and
    importance 0, and the other columns are solved; with none left the model
    predicts the target's mean."""
    p = len(gram)
    coef, mean, imp = np.zeros(p), np.zeros(p), np.zeros(p)
    with np.errstate(over="ignore", invalid="ignore"):
        y_mean = y_total / n
        ok = np.isfinite(gram.diagonal())
        g = gram[np.ix_(ok, ok)]
        d = np.sqrt(g.diagonal() + RIDGE_LAMBDA)
        # least squares, so a singular system (collinear columns) still solves
        coef[ok] = np.linalg.lstsq((g + RIDGE_LAMBDA * np.eye(len(g))) / d / d[:, None],
                                   rhs[ok] / d, rcond=None)[0] / d
        mean[ok] = total[ok] / n
        # |coef_j|·std(x_j) ranks the features
        imp[ok] = np.abs(coef[ok]) * np.sqrt(g.diagonal() / n)
        return Model("linear", Task.REGRESSION, p, coef=coef, scaler=(mean, y_mean),
                     importances=imp)


def train(spec: LearnerSpec, X: np.ndarray, y: np.ndarray, task: Task) -> Model:
    """Fit a learner; X is a fully numeric, imputed matrix, y is encoded
    (class codes for classification). Deterministic for a fixed seed."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise LearnError("empty training matrix")
    if X.shape[0] != len(y):
        raise LearnError("X rows must match y length")
    if not np.isfinite(y).all():
        raise LearnError("target has non-finite values")
    spec.check_task(task)
    n, p = X.shape
    classes = None
    n_classes = 0
    if task == Task.CLASSIFICATION:
        # return_counts keeps numpy 2.4's plain np.unique, which imports numpy.ma, away
        classes = np.unique(y.astype(np.int64), return_counts=True)[0]
        n_classes = int(classes.max()) + 1 if len(classes) else 0

    if spec.kind in ("decision_tree", "random_forest"):
        if spec.kind == "decision_tree":  # all rows once, all features
            draws, rng, n_sub = np.ones((1, n), dtype=np.int64), None, p
        else:
            frac = spec.feature_subsample
            n_sub = max(1, int(round(frac * p))) if frac is not None else max(1, int(math.isqrt(p)))
            # the fit's own generator draws every bootstrap first, kept as
            # each row's number of draws per tree, then the nodes' feature
            # keys (see _grow)
            rng = np.random.default_rng(spec.seed)
            picks = rng.integers(0, n, size=(spec.n_trees, n))
            picks += n * np.arange(spec.n_trees)[:, None]
            draws = np.bincount(picks.ravel(), minlength=spec.n_trees * n).reshape(-1, n)
        forest, importances = _fit_trees(X, y, task, n_classes, draws, rng, n_sub,
                                         spec.max_depth)
        return Model(spec.kind, task, p, trees=forest, classes=classes,
                     importances=importances)

    if spec.kind == "linear":
        return _ridge(*_centred_sums(X.copy(order="K"), y))

    # logistic, on standardised columns. As in _ridge, a column whose mean
    # or std overflows gets weight and importance 0: centre 0 and scale inf
    # make its Z column 0, in training and in predict.
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = X.mean(axis=0), X.std(axis=0)
    overflow = ~(np.isfinite(mean) & np.isfinite(std))
    mean[overflow], std[overflow] = 0.0, np.inf
    std[std == 0] = 1.0
    Z = np.hstack([(X - mean) / std, np.ones((n, 1))])
    coefs = []
    for c in classes:
        t = (y == c).astype(float)
        w = np.zeros(p + 1)
        for _ in range(LOGISTIC_ITERS):
            prob = 1.0 / (1.0 + np.exp(-(Z @ w)))
            grad = Z.T @ (t - prob) / n - RIDGE_LAMBDA * w
            w = w + 0.5 * grad
        coefs.append(w)
    return Model("logistic", task, p, coef=np.array(coefs), classes=classes,
                 scaler=(mean, std), importances=sum(abs(w[:p]) for w in coefs))


def predict(model: Model, X: np.ndarray) -> np.ndarray:
    """Class codes for classification, real values for regression."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise LearnError("prediction matrix does not match the training schema")
    n = X.shape[0]
    if model.kind in ("decision_tree", "random_forest"):
        leaves = _forest_leaves(model.trees, X)
        if model.task == Task.REGRESSION:
            return np.ldexp(leaves.mean(axis=0), model.trees.scale)
        # majority vote, the lowest code on ties, as one bincount over (row, class)
        n_classes = int(model.classes.max()) + 1
        votes = leaves.astype(np.int64) + n_classes * np.arange(n)
        tally = np.bincount(votes.ravel(), minlength=n * n_classes)
        return np.argmax(tally.reshape(n, n_classes), axis=1).astype(float)
    if model.kind == "linear":
        return _predict_centred(model, X.copy(order="K"))
    if model.kind == "logistic":
        mean, std = model.scaler
        # a cell far outside its training column's spread standardises to ±inf
        with np.errstate(over="ignore", invalid="ignore"):
            Z = np.hstack([(X - mean) / std, np.ones((n, 1))])
        scores = Z @ model.coef.T  # monotone in probability
        # ties (e.g. an all-zero model scores 0.5 everywhere) go to the class
        # with the lower encoded index, which argmax already guarantees
        return model.classes[np.argmax(scores, axis=1)].astype(float)
    raise LearnError(f"unknown model {model.kind!r}")


def _predict_centred(model: Model, X: np.ndarray) -> np.ndarray:
    """A linear model's predictions on X, which is centred in place."""
    mean, y_mean = model.scaler
    with np.errstate(over="ignore", invalid="ignore"):
        X -= mean
        return X @ model.coef + y_mean


def metric_f1(y_true, y_pred, positive=None) -> float:
    """Binary F1 on the positive class for two-class problems (default: the
    lexicographically last label), macro-averaged F1 otherwise."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) != len(y_pred):
        raise LearnError("length mismatch")
    labels = sorted(set(y_true.tolist()), key=str)
    if len(labels) <= 2:
        labels = [positive if positive is not None else labels[-1]]
    return _mean_f1(y_true, y_pred, labels)


def _mean_f1(y_true, y_pred, labels) -> float:
    """The mean over `labels` of each one's binary F1, 0 for a label neither
    true nor predicted anywhere."""
    scores = []
    for lab in labels:
        tp = int(np.sum((y_pred == lab) & (y_true == lab)))
        fp = int(np.sum((y_pred == lab) & (y_true != lab)))
        fn = int(np.sum((y_pred != lab) & (y_true == lab)))
        scores.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
    return float(np.mean(scores))


def _rae_denominator(y_true):
    """Sum of |y - mean(y)|, or None where the relative absolute error is
    undefined: the sum is zero (a constant target), subnormal, where
    dividing by it overflows, or not finite, where the target's mean or
    deviations overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        denom = np.abs(y_true - y_true.mean()).sum()
    return denom if np.finfo(float).tiny <= denom < np.inf else None


def metric_one_minus_rae(y_true, y_pred) -> float:
    """1 - (sum |err|) / (sum |deviation from the mean|); -inf where the
    error sum overflows."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if len(y_true) != len(y_pred):
        raise LearnError("length mismatch")
    denom = _rae_denominator(y_true)
    if denom is None:
        raise LearnError("relative absolute error undefined: the target's "
                         "deviations sum to zero, a subnormal or an overflow")
    return float(1.0 - np.abs(y_pred - y_true).sum() / denom)


def _median(x: np.ndarray) -> float:
    """np.median of a finite vector, bit for bit, without importing numpy.ma;
    but where the sum of the middle pair a, b overflows, where np.median
    gives ±inf, it is a/2 + b/2."""
    n = len(x)
    kth = [n // 2 - 1, n // 2, -1] if n % 2 == 0 else [n // 2, -1]
    mid = np.partition(x, kth)[(n - 1) // 2: n // 2 + 1]
    with np.errstate(over="ignore"):
        m = np.mean(mid)
    return m if np.isfinite(m) else mid[0] / 2 + mid[-1] / 2


def impute_columns(train_X, other_X):
    """Median-impute both matrices using training-fold medians (0 for a
    column with no value in the training fold).

    Only columns with a gap in either matrix get a median, and only a matrix
    with a gap is copied: a gapless one comes back as given.
    """
    masks = [np.isnan(M) for M in (train_X, other_X)]
    med = np.zeros(train_X.shape[1])
    for j in np.flatnonzero(masks[0].any(axis=0) | masks[1].any(axis=0)):
        finite = train_X[~masks[0][:, j], j]
        med[j] = _median(finite) if len(finite) else 0.0
    out = []
    for M, nanmask in zip((train_X, other_X), masks):
        if nanmask.any():
            M = M.copy()
            M[nanmask] = np.take(med, np.nonzero(nanmask)[1])
        out.append(M)
    return out


def encode_labels(y):
    """Integer codes (as floats) of labels in their natural sorted order, and
    that list of labels. Codes encode to themselves."""
    labels, codes = np.unique(np.asarray(y), return_inverse=True)
    return codes.astype(float), labels.tolist()


def gather(cols, rows, p=None) -> np.ndarray:
    """The columns `cols` at the index array `rows`, as one new C-ordered
    (len(rows), p) matrix: the values and layout of X[rows] for the matrix X
    of those columns. `cols` is p float arrays (an (n, p) matrix's .T
    works), or, where `p` is given, any iterable of p of them, so that each
    column may be built as it is read."""
    M = np.empty((len(rows), len(cols) if p is None else p))
    for j, col in enumerate(cols):
        M[:, j] = col[rows]
    return M


def evaluate_cv(spec: LearnerSpec, cols, y, task: Task, k: int, seed: int) -> float:
    """Mean k-fold score of the columns `cols` (p float arrays of length n, or
    an (n, p) matrix's .T): F1 for classification (binary F1 of the last
    class for a target of at most two classes, else every fold's macro F1
    over the classes in its targets), 1-rae for regression.

    Every fold matrix is gathered from the columns, so no n × p matrix is
    built. Missing cells are median-imputed per training fold; columns
    without gaps skip imputation. The linear learner on gapless columns (and
    a finite target) fits each training fold from the other folds'
    _centred_sums, merged, so no training matrix is gathered: one
    validation fold is held at a time, centred in place. Its scores can
    differ from a per-fold fit in the last bits. A regression fold scores
    max(0, 1-rae), and 0 where 1-rae is undefined (see _rae_denominator), so
    every score, and every difference of two, lies in [-1, 1]. A learner
    that predicts NaN raises LearnError.
    """
    cols = [np.asarray(c, dtype=float) for c in cols]
    if task == Task.CLASSIFICATION:
        y_codes, labels = encode_labels(y)
        fold = kfold_indices(len(y_codes), k, seed, labels=y_codes)
    else:
        y_codes = np.asarray(y, dtype=float)
        fold = kfold_indices(len(y_codes), k, seed)
    if any(c.shape != y_codes.shape for c in cols):
        raise LearnError("every column must hold one value per target row")
    valid = [np.flatnonzero(fold == f) for f in range(k)]
    gaps = any(np.isnan(c).any() for c in cols)
    # train rejects an empty matrix and a non-finite target, and per-fold
    # imputation gives each fold other values: those cases, like every other
    # learner, fit each training fold as gathered
    sums = None
    if (spec.kind == "linear" and task == Task.REGRESSION and cols and not gaps
            and np.isfinite(y_codes).all()):
        sums = [_centred_sums(gather(cols, valid_idx), y_codes[valid_idx])
                for valid_idx in valid]
    scores = []
    for f, valid_idx in enumerate(valid):
        yva = y_codes[valid_idx]
        if task == Task.REGRESSION and _rae_denominator(yva) is None:
            scores.append(0.0)
            continue
        if sums is not None:
            fit = _ridge(*functools.reduce(_merged_sums, sums[:f] + sums[f + 1:]))
            pred = _predict_centred(fit, gather(cols, valid_idx))
        else:
            train_idx = np.flatnonzero(fold != f)  # only this path gathers training rows
            Xtr, Xva = gather(cols, train_idx), gather(cols, valid_idx)
            if gaps:
                Xtr, Xva = impute_columns(Xtr, Xva)
            pred = predict(train(spec, Xtr, y_codes[train_idx], task), Xva)
        if task == Task.CLASSIFICATION:
            scores.append(_mean_f1(yva, pred, [float(len(labels) - 1)] if len(labels) <= 2
                                   else sorted(set(yva.tolist()), key=str)))
            continue
        if np.isnan(pred).any():
            raise LearnError(f"the {spec.kind} learner predicted NaN")
        with np.errstate(over="ignore"):
            scores.append(max(0.0, metric_one_minus_rae(yva, pred)))
    return float(np.mean(scores))


def feature_importance(model: Model) -> np.ndarray:
    """A model's importances scaled to sum to 1 (uniform where all are 0): the
    trees' decrease in impurity, |coef_j|·std(x_j) of a linear model, and the
    sum over classes of a logistic one's |coef_j| (its columns standardised).
    Raises LearnError where they or their sum are not finite."""
    imp = model.importances
    with np.errstate(over="ignore"):
        total = imp.sum()
    if not np.isfinite(total):
        raise LearnError(f"the {model.kind} learner's importances are not finite")
    if total <= 0:
        return np.full(len(imp), 1.0 / len(imp))
    return imp / total
