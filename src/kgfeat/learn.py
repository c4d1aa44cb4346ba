"""Built-in learners, task metrics, cross-validated evaluation, and
impurity-based feature importance."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Task, kfold_indices


class LearnError(ValueError):
    pass


RIDGE_LAMBDA = 1e-6      # L2 penalty of the linear and logistic learners
LOGISTIC_ITERS = 200     # gradient steps per class of the logistic learner


@dataclass
class LearnerSpec:
    kind: str = "random_forest"  # decision_tree | random_forest | linear | logistic
    max_depth: int = 6
    n_trees: int = 50
    feature_subsample: Optional[float] = None  # None -> sqrt(p)/p
    seed: int = 0

    def __post_init__(self):
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
    node with feature -1 is a leaf that predicts value; otherwise rows with
    x <= threshold go to node left[i] and the others to left[i] + 1."""
    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray


@dataclass
class Model:
    kind: str
    task: Task
    n_features: int
    trees: Optional[_Forest] = None
    coef: Optional[np.ndarray] = None            # linear / per-class logistic
    scaler: Optional[tuple] = None               # logistic (mean, std)
    classes: Optional[np.ndarray] = None         # encoded labels, sorted
    importances: Optional[np.ndarray] = None


# The trees use histogram split search (LightGBM, Ke et al., NeurIPS 2017;
# scikit-learn's histogram gradient boosting). Each train call bins every
# column once into rank codes. The trees of a batch grow together, one depth
# level per pass: a few numpy calls build the histograms of every open node
# and score all their thresholds. A column with at most _MAX_BINS distinct
# values keeps one bin per value, so its splits are those of an exact greedy
# search.
_MAX_BINS = 255
_BATCH_ROWS = 2048  # bootstrap rows grown in one pass; bounds peak memory


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


def _segment_cumsum(a, starts, seg):
    """Inclusive prefix sums of `a` restarted at each segment start."""
    c = np.cumsum(a, axis=0)
    before = np.concatenate([np.zeros_like(c[:1]), c[:-1]])[starts]
    return c - before[seg]


def _draw_features(tree, rngs, n_sub, p):
    """Sorted feature subsets (len(tree), n_sub), one per open node; tree[i]
    is the tree of node i, nodes of one tree are adjacent, and the tree's
    generator draws their subsets in node order."""
    if n_sub >= p:
        return np.broadcast_to(np.arange(p), (len(tree), p))
    F = np.empty((len(tree), n_sub), dtype=np.int64)
    trees, starts = np.unique(tree, return_index=True)
    for t, a, b in zip(trees, starts, np.append(starts[1:], len(tree))):
        keys = rngs[t].random((b - a, p))
        F[a:b] = np.sort(np.argsort(keys, axis=1)[:, :n_sub], axis=1)
    return F


def _best_splits(codes, lo, hi, rows, ys, sk, F, stats, task, n_classes):
    """Best split of each open node over its features F (m, f).

    Samples are (rows, ys) in open node sk. stats holds the nodes' sample
    counts and class counts, or counts, sums of y and sums of y**2. Ties
    break toward the lowest feature unless a later one is better by more
    than 1e-15, then toward the lowest threshold. Returns (weighted child
    impurity, feature, threshold, last left bin); the impurity is inf where
    a node has no split.
    """
    m, f = F.shape
    b = codes[F[sk], rows[:, None]]
    cell = ((sk[:, None] * f + np.arange(f)) << 8) + b
    cells, inv = np.unique(cell.ravel(), return_inverse=True)
    U = len(cells)
    seg, bins = cells >> 8, cells & 255
    starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
    v = np.flatnonzero(np.r_[seg[1:] == seg[:-1], False])  # a bin follows
    node = seg[v] // f
    nl = _segment_cumsum(np.bincount(inv, minlength=U), starts, seg)[v]
    n = stats[0][node]
    nr = n - nl
    if task == Task.CLASSIFICATION:
        onehot = inv * n_classes + np.repeat(ys.astype(np.int64), f)
        hist = np.bincount(onehot, minlength=U * n_classes).reshape(U, n_classes)
        left = _segment_cumsum(hist, starts, seg)[v]
        right = stats[1][node] - left
        gini_l = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
        score_v = (nl * gini_l + nr * gini_r) / n
    else:
        s1 = _segment_cumsum(np.bincount(inv, np.repeat(ys, f), U), starts, seg)[v]
        s2 = _segment_cumsum(np.bincount(inv, np.repeat(ys * ys, f), U), starts, seg)[v]
        t1, t2 = stats[1][node], stats[2][node]
        var_l = s2 / nl - (s1 / nl) ** 2
        var_r = (t2 - s2) / nr - ((t1 - s1) / nr) ** 2
        score_v = (nl * np.maximum(var_l, 0) + nr * np.maximum(var_r, 0)) / n
    score = np.full(U, np.inf)
    score[v] = np.where(np.isnan(score_v), np.inf, score_v)  # y*y overflowed
    # lowest threshold of each (node, feature) segment reaching its minimum
    seg_min = np.minimum.reduceat(score, starts)
    hit = np.flatnonzero(score == seg_min[seg])
    seg_cell = hit[np.r_[True, seg[hit][1:] != seg[hit][:-1]]].reshape(m, f)
    seg_min = seg_min.reshape(m, f)
    best, cell_at = seg_min[:, 0].copy(), seg_cell[:, 0].copy()
    slot = np.zeros(m, dtype=np.int64)
    for k in range(1, f):
        better = seg_min[:, k] < best - 1e-15
        best[better] = seg_min[better, k]
        cell_at[better] = seg_cell[better, k]
        slot[better] = k
    j = F[np.arange(m), slot]
    split_bin = bins[cell_at]
    below = hi[j, split_bin]
    above = lo[j, bins[np.minimum(cell_at + 1, U - 1)]]  # any bin where no split
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


def _grow(codes, lo, hi, y, task, n_classes, boots, rngs, n_sub, max_depth,
          importances, n_total):
    """Grow one tree on the rows of each of `boots`, all together, one depth
    level per pass; rngs[t] draws tree t's per-node feature subsets.

    Returns the batch's node arrays (feature, threshold, left, value) in
    level order, with tree t's root at node t.
    """
    p = codes.shape[0]
    rows = np.concatenate(boots)
    node = np.repeat(np.arange(len(boots)), [len(b) for b in boots])
    ys = y[rows]
    tree = np.arange(len(boots))  # tree of each node of this level
    base = 0                      # id of this level's first node
    levels = []
    for depth in range(max_depth + 1):
        K = len(tree)
        k = node - base
        cnt = np.bincount(k, minlength=K).astype(float)
        if task == Task.CLASSIFICATION:
            counts = np.bincount(k * n_classes + ys.astype(np.int64),
                                 minlength=K * n_classes).reshape(K, n_classes)
            imp = 1.0 - np.sum((counts / cnt[:, None]) ** 2, axis=1)
            value = np.argmax(counts, axis=1).astype(float)  # lowest code on ties
            stats = (cnt, counts)
        else:
            t1 = np.bincount(k, ys, K)
            value = t1 / cnt
            imp = np.bincount(k, (ys - value[k]) ** 2, K) / cnt
            stats = (cnt, t1, np.bincount(k, ys * ys, K))
        feature = np.full(K, -1)
        threshold = np.zeros(K)
        left = np.full(K, -1)
        levels.append((feature, threshold, left, value))
        open_ = np.flatnonzero((cnt >= 2) & (imp > 1e-15))
        if depth == max_depth or not len(open_):
            break
        s = _positions(open_, K)[k]
        inside = s >= 0
        F = _draw_features(tree[open_], rngs, n_sub, p)
        best, j, thr, split_bin = _best_splits(
            codes, lo, hi, rows[inside], ys[inside], s[inside], F,
            tuple(a[open_] for a in stats), task, n_classes)
        gain = best < imp[open_] - 1e-15
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


def _fit_trees(X, y, task, n_classes, rngs, n_sub, max_depth):
    """One tree per generator in `rngs`: on a bootstrap of the rows drawn
    from it, or on all rows where it is None. Each node searches a subset of
    n_sub features drawn from its tree's generator, or all of them when
    n_sub >= p. Returns the forest and its summed impurity decreases."""
    n, p = X.shape
    codes, lo, hi = _bin_columns(X)
    importances = np.zeros(p)
    per_batch = max(1, _BATCH_ROWS // n)
    roots, parts, n_nodes = [], [], 0
    for a in range(0, len(rngs), per_batch):
        batch = rngs[a:a + per_batch]
        boots = [np.arange(n) if r is None else r.integers(0, n, size=n)
                 for r in batch]
        feature, threshold, left, value = _grow(
            codes, lo, hi, y, task, n_classes, boots, batch, n_sub, max_depth,
            importances, n)
        roots.append(n_nodes + np.arange(len(batch)))
        parts.append((feature, threshold, np.where(left >= 0, left + n_nodes, -1),
                      value))
        n_nodes += len(feature)
    forest = _Forest(np.concatenate(roots),
                     *(np.concatenate(a) for a in zip(*parts)))
    return forest, importances


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
        classes = np.unique(y.astype(np.int64))
        n_classes = int(classes.max()) + 1 if len(classes) else 0

    if spec.kind in ("decision_tree", "random_forest"):
        if spec.kind == "decision_tree":
            rngs, n_sub = [None], p
        else:
            frac = spec.feature_subsample
            n_sub = max(1, int(round(frac * p))) if frac is not None else max(1, int(math.isqrt(p)))
            rngs = [np.random.default_rng(ss)
                    for ss in np.random.SeedSequence(spec.seed).spawn(spec.n_trees)]
        forest, importances = _fit_trees(X, y, task, n_classes, rngs, n_sub,
                                         spec.max_depth)
        return Model(spec.kind, task, p, trees=forest, classes=classes,
                     importances=importances)

    if spec.kind == "linear":
        A = np.hstack([X, np.ones((n, 1))])
        reg = RIDGE_LAMBDA * np.eye(p + 1)
        reg[p, p] = 0.0  # leave the intercept unregularized
        # least squares, so a singular system (collinear columns) still solves
        coef = np.linalg.lstsq(A.T @ A + reg, A.T @ y, rcond=None)[0]
        return Model("linear", task, p, coef=coef)

    if spec.kind == "logistic":
        if len(classes) < 2:
            raise LearnError("logistic requires at least two classes in y")
        mean = X.mean(axis=0)
        std = X.std(axis=0)
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
                     scaler=(mean, std))

    raise LearnError(f"unknown learner {spec.kind!r}")


def predict(model: Model, X: np.ndarray) -> np.ndarray:
    """Class codes for classification, real values for regression."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise LearnError("prediction matrix does not match the training schema")
    n = X.shape[0]
    if model.kind in ("decision_tree", "random_forest"):
        leaves = _forest_leaves(model.trees, X)
        if model.task == Task.REGRESSION:
            return leaves.mean(axis=0)
        # majority vote, the lowest code on ties, as one bincount over (row, class)
        n_classes = int(model.classes.max()) + 1
        votes = leaves.astype(np.int64) + n_classes * np.arange(n)
        tally = np.bincount(votes.ravel(), minlength=n * n_classes)
        return np.argmax(tally.reshape(n, n_classes), axis=1).astype(float)
    if model.kind == "linear":
        return np.hstack([X, np.ones((n, 1))]) @ model.coef
    if model.kind == "logistic":
        mean, std = model.scaler
        Z = np.hstack([(X - mean) / std, np.ones((n, 1))])
        scores = Z @ model.coef.T  # monotone in probability
        # ties (e.g. an all-zero model scores 0.5 everywhere) go to the class
        # with the lower encoded index, which argmax already guarantees
        return model.classes[np.argmax(scores, axis=1)].astype(float)
    raise LearnError(f"unknown model {model.kind!r}")


def metric_f1(y_true, y_pred, positive=None) -> float:
    """Binary F1 on the positive class for two-class problems (default: the
    lexicographically last label), macro-averaged F1 otherwise."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) != len(y_pred):
        raise LearnError("length mismatch")
    labels = sorted(set(y_true.tolist()), key=str)
    if len(labels) <= 2:
        pos = positive if positive is not None else labels[-1]
        return _binary_f1(y_true, y_pred, pos)
    return float(np.mean([_binary_f1(y_true, y_pred, lab) for lab in labels]))


def _binary_f1(y_true, y_pred, positive) -> float:
    tp = int(np.sum((y_pred == positive) & (y_true == positive)))
    fp = int(np.sum((y_pred == positive) & (y_true != positive)))
    fn = int(np.sum((y_pred != positive) & (y_true == positive)))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def _rae_denominator(y_true):
    """Sum of |y - mean(y)|, or None where the relative absolute error is
    undefined: the sum is zero (a constant target) or subnormal, where
    dividing by it overflows."""
    denom = np.abs(y_true - y_true.mean()).sum()
    return None if denom < np.finfo(float).tiny else denom


def metric_one_minus_rae(y_true, y_pred) -> float:
    """1 - (sum |err|) / (sum |deviation from the mean|)."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if len(y_true) != len(y_pred):
        raise LearnError("length mismatch")
    denom = _rae_denominator(y_true)
    if denom is None:
        raise LearnError("constant target: relative absolute error undefined")
    return float(1.0 - np.abs(y_pred - y_true).sum() / denom)


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
        med[j] = np.median(finite) if len(finite) else 0.0
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


def evaluate_cv(spec: LearnerSpec, X: np.ndarray, y, task: Task, k: int,
                seed: int) -> float:
    """Mean k-fold score: F1 for classification, 1-rae for regression.

    Missing cells are median-imputed per training fold; degenerate folds
    (a constant target, or one whose deviations sum to a subnormal) contribute
    0.
    """
    X = np.asarray(X, dtype=float)
    if task == Task.CLASSIFICATION:
        y_codes, labels = encode_labels(y)
        folds = kfold_indices(len(y_codes), k, seed, labels=y_codes)
    else:
        y_codes = np.asarray(y, dtype=float)
        folds = kfold_indices(len(y_codes), k, seed)
    scores = []
    for train_idx, valid_idx in folds:
        Xtr, Xva = impute_columns(X[train_idx], X[valid_idx])
        ytr, yva = y_codes[train_idx], y_codes[valid_idx]
        if task == Task.CLASSIFICATION:
            if len(np.unique(ytr)) < 2:
                pred = np.full(len(yva), ytr[0])
            else:
                pred = predict(train(spec, Xtr, ytr, task), Xva)
            scores.append(metric_f1(yva, pred, positive=float(len(labels) - 1)))
        else:
            if _rae_denominator(yva) is None:
                scores.append(0.0)
                continue
            pred = predict(train(spec, Xtr, ytr, task), Xva)
            scores.append(metric_one_minus_rae(yva, pred))
    return float(np.mean(scores))


def feature_importance(model: Model) -> np.ndarray:
    """Normalized mean-decrease-in-impurity importances of a forest."""
    if model.kind != "random_forest":
        raise LearnError("feature importance requires a random forest model")
    imp = model.importances.copy()
    total = imp.sum()
    if total <= 0:
        return np.full(len(imp), 1.0 / len(imp))
    return imp / total
