import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kgfeat.data import Task
from kgfeat.learn import (LearnError, LearnerSpec, _rae_denominator,
                          encode_labels, evaluate_cv, feature_importance,
                          impute_columns, metric_f1, metric_one_minus_rae,
                          predict, train)


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
    assert evaluate_cv(LearnerSpec(kind="linear"), X, y, Task.REGRESSION,
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
    assert model.coef[0] == pytest.approx(2.0, abs=1e-4)
    assert model.coef[1] == pytest.approx(0.0, abs=1e-4)
    pred = predict(model, X)
    assert np.abs(pred - y).max() < 1e-4


def test_linear_fits_collinear_badly_scaled_columns():
    # two identical columns scaled by 1e12 make the normal matrix singular
    rng = np.random.default_rng(0)
    x = rng.normal(size=50)
    X = np.column_stack([1e12 * x, 1e12 * x, rng.normal(size=50)])
    model = train(LearnerSpec(kind="linear"), X, 2.0 * x + 1.0, Task.REGRESSION)
    assert np.isfinite(predict(model, X)).all()


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
    """Training rows of each tree: all rows, or each tree's bootstrap."""
    if kind == "decision_tree":
        return [np.arange(n)]
    return [np.random.default_rng(ss).integers(0, n, size=n)
            for ss in np.random.SeedSequence(seed).spawn(n_trees)]


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
    with np.errstate(over="ignore", invalid="ignore"):  # y * y overflows at 1e200
        model = train(LearnerSpec(kind=kind, max_depth=depth, n_trees=3,
                                  seed=seed), X, y, task)
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
    assert model.importances == pytest.approx(importances, rel=1e-9, abs=1e-9)


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


def test_feature_importance_requires_forest():
    X = np.array([[0.0], [1.0]])
    model = train(LearnerSpec(kind="linear"), X, np.array([0.0, 1.0]),
                  Task.REGRESSION)
    with pytest.raises(LearnError):
        feature_importance(model)


def test_logistic_separable():
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(-2, 0.3, (50, 1)), rng.normal(2, 0.3, (50, 1))])
    y = np.array([0.0] * 50 + [1.0] * 50)
    model = train(LearnerSpec(kind="logistic"), X, y, Task.CLASSIFICATION)
    assert (predict(model, X) == y).all()


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
    score = evaluate_cv(LearnerSpec(kind="linear"), X, y, Task.REGRESSION,
                        k=5, seed=0)
    assert score == pytest.approx(1.0, abs=1e-6)


def test_evaluate_cv_handles_missing_cells():
    rng = np.random.default_rng(5)
    y = rng.uniform(0, 10, 60)
    X = np.column_stack([y, rng.uniform(0, 1, 60)])
    X[::7, 1] = np.nan
    score = evaluate_cv(LearnerSpec(kind="linear"), X, y, Task.REGRESSION,
                        k=5, seed=0)
    assert np.isfinite(score)
    assert score > 0.9


def test_evaluate_cv_classification():
    rng = np.random.default_rng(6)
    X = rng.uniform(0, 1, (80, 2))
    y = np.where(X[:, 0] > 0.5, "yes", "no")
    score = evaluate_cv(LearnerSpec(kind="decision_tree"), X, y,
                        Task.CLASSIFICATION, k=4, seed=0)
    assert score > 0.9


def test_evaluate_cv_deterministic():
    rng = np.random.default_rng(7)
    X = rng.uniform(0, 1, (50, 3))
    y = rng.uniform(0, 1, 50)
    spec = LearnerSpec(kind="random_forest", n_trees=5, seed=1)
    a = evaluate_cv(spec, X, y, Task.REGRESSION, k=3, seed=2)
    b = evaluate_cv(spec, X, y, Task.REGRESSION, k=3, seed=2)
    assert a == b


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
