import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kgfeat import agent, engine, learn, transform
from kgfeat.agent import AgentConfig
from kgfeat.data import Dataset, Task
from kgfeat.engine import (EngineConfig, EngineError, FEResult, PoolEntry, _Evaluator,
                           compute_reward, encode_feature, importance, max_order_sweep,
                           raw_pool, run, target_codes)
from kgfeat.kg import VerdictStatus, judge, load_kg
from kgfeat.learn import LearnerSpec
from kgfeat.transform import Node, RawRef

from conftest import cat_col, empty_kg, num_col


def small_cfg(**kw):
    base = dict(episodes=3, steps=3, cap=4, feature_budget=16, max_order=3,
                k_folds=3, learner=LearnerSpec(kind="linear"), seed=0,
                patience=10)
    base.update(kw)
    return EngineConfig(**base)


def test_config_validation():
    with pytest.raises(EngineError):
        EngineConfig(episodes=0)
    with pytest.raises(EngineError):
        EngineConfig(steps=99)
    with pytest.raises(EngineError):
        EngineConfig(policy="greedy")
    EngineConfig(max_order=0)  # order zero is allowed: raw features only


def test_compute_reward_is_score_delta():
    assert compute_reward(0.740, 0.832) == pytest.approx(0.092, abs=1e-12)
    assert compute_reward(0.5, 0.3) == pytest.approx(-0.2, abs=1e-15)


def test_encode_feature_categorical_codes():
    feat = cat_col("c", ["b", "a", "", "c"])  # "" is a missing cell
    out = encode_feature(feat)
    # levels sorted: a=0, b=1, c=2; missing cells get the extra code 3
    assert out.tolist() == [1.0, 0.0, 3.0, 2.0]


def test_encode_feature_numeric_nan_for_missing():
    feat = num_col("n", [1.0, np.nan])
    out = encode_feature(feat)
    assert out[0] == 1.0 and np.isnan(out[1])


def test_raw_pool_marks_raw_and_units(planted):
    d, kg, _ = planted
    pool = raw_pool(d, kg)
    assert len(pool) == 5
    assert all(f["raw"] for f in engine._snapshot(pool))
    by_name = {e.feature.name: e for e in pool}
    assert by_name["x1"].verdict.unit == kg.unit_registry["kg"]
    assert by_name["x1"].verdict.unit_name == "kg"
    assert by_name["x3"].verdict.unit is None
    assert by_name["x3"].verdict.unit_name is None
    assert by_name["x3"].verdict.status == VerdictStatus.UNCOVERED


def test_each_raw_column_is_judged_once_per_run(planted, monkeypatch):
    d, kg, _ = planted
    judged, real_judge = [], engine.judge

    def counting_judge(kg, expr):
        if isinstance(expr, RawRef):
            judged.append(expr.name)
        return real_judge(kg, expr)

    monkeypatch.setattr(engine, "judge", counting_judge)
    result = run(small_cfg(episodes=4), d, kg)
    assert len(result.episode_scores) == 4
    assert sorted(judged) == sorted(c.name for c in d.feature_columns)


def test_run_telescoping_rewards(planted):
    d, kg, _ = planted
    result = run(small_cfg(), d, kg)
    assert result.traces
    for trace in result.traces:
        total = sum(s.reward for s in trace.steps)
        first = trace.steps[0].score_before
        assert total == pytest.approx(trace.end_score - first, abs=1e-12)
        # per-episode start is the raw baseline
        assert first == pytest.approx(result.baseline_score, abs=1e-12)


def test_run_deterministic(planted):
    d, kg, _ = planted
    a = run(small_cfg(), d, kg)
    b = run(small_cfg(), d, kg)
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)


def test_a_forest_run_repeats_its_result_file_in_one_process(planted):
    # each forest fit depends only on its inputs, so a second run in the
    # same process writes the first one's file
    d, kg, _ = planted
    cfg = small_cfg(learner=LearnerSpec(kind="random_forest", n_trees=5, max_depth=3))
    texts = [json.dumps(run(cfg, d, kg).to_json(), indent=2, sort_keys=True)
             for _ in range(2)]
    assert texts[0] == texts[1]


def test_run_seed_changes_trajectory(planted):
    d, kg, _ = planted
    a = run(small_cfg(episodes=4), d, kg)
    b = run(small_cfg(episodes=4, seed=1), d, kg)
    assert a.seed != b.seed
    # scores may coincide, but the recorded seeds and configs must differ
    assert a.config["seed"] != b.config["seed"]


def test_best_score_never_below_baseline(planted):
    d, kg, _ = planted
    result = run(small_cfg(), d, kg)
    assert result.best_score >= result.baseline_score
    assert result.best_trajectory == sorted(result.best_trajectory)


def classified(d):
    """The planted data with its target split at the median into two classes."""
    y = d.target_column
    label = num_col("y", y.values > np.median(y.values))
    return Dataset(d.feature_columns + [label], target="y", task=Task.CLASSIFICATION,
                   n_rows=d.n_rows)


def test_feature_budget_enforced(planted, monkeypatch):
    d, kg, _ = planted
    pruned_with = []
    importance = engine.importance
    monkeypatch.setattr(engine, "importance",
                        lambda spec, *a: pruned_with.append(spec.kind) or importance(spec, *a))
    # three episodes keep no candidate on this data, so they never prune
    for kind in ("decision_tree", "random_forest", "linear", "logistic"):
        data = classified(d) if kind == "logistic" else d
        result = run(small_cfg(episodes=5, feature_budget=6,
                               learner=LearnerSpec(kind=kind)), data, kg)
        assert kind in pruned_with  # the run's own learner pruned the pool
        assert len(result.best_features) <= 6
        # raw features always survive pruning
        raw_names = {f["display_name"] for f in result.best_features if f["raw"]}
        assert raw_names == {"x1", "x2", "x3", "x4", "x5"}


@pytest.mark.parametrize("spec", [
    LearnerSpec(kind="linear"),
    LearnerSpec(kind="random_forest", max_depth=4, n_trees=7, seed=3),
], ids=["linear", "random_forest"])
def test_prune_trains_the_run_learner_once(planted, monkeypatch, spec):
    d, kg, _ = planted
    cfg = small_cfg(feature_budget=6, learner=spec)
    signal = Node("div", (RawRef("x1"), Node("square", (RawRef("x2"),))))
    pool = raw_pool(d, kg)
    for expr in (Node("square", (RawRef("x3"),)), signal,
                 Node("square", (RawRef("x4"),))):
        pool.append(PoolEntry(transform.apply(expr, d), judge(kg, expr)))
    trained = []
    train = learn.train
    monkeypatch.setattr(learn, "train", lambda s, *a: trained.append(s) or train(s, *a))
    kept = engine._prune_to_budget(pool, cfg, _Evaluator(cfg, d.task, target_codes(d)))
    assert len(trained) == 1 and trained[0] is cfg.learner  # no second model kind
    # the five raw columns and the planted x1 / x2**2
    assert [e.feature.expr for e in kept] == [e.feature.expr for e in pool[:5]] + [signal]


def test_discard_log_reasons(planted):
    d, kg, _ = planted
    result = run(small_cfg(episodes=6), d, kg)
    for entry in result.discard_log:
        assert entry["reason"]
        assert set(entry) == {"episode", "step", "display_name", "expr", "reason"}


def test_no_non_interpretable_survivors(planted):
    d, kg, _ = planted
    result = run(small_cfg(episodes=5), d, kg)
    for f in result.best_features:
        assert f["verdict"] != VerdictStatus.NON_INTERPRETABLE.value


def test_unmapped_kg_discards_nothing(planted, default_kg_path):
    d, _, _ = planted
    bare = load_kg(default_kg_path)  # no column mapping at all
    result = run(small_cfg(), d, bare)
    assert result.discard_log == []
    assert all(f["verdict"] == VerdictStatus.UNCOVERED.value
               for f in result.best_features if not f["raw"])


def test_empty_kg_runs_with_dqn(planted):
    # an empty KG has no concepts, so the Q-net's state vector has length 0;
    # a minibatch of 2 makes the run take TD steps on those states too
    d, _, _ = planted
    result = run(small_cfg(policy="dqn", agent=AgentConfig(minibatch_size=2)),
                 d, empty_kg())
    assert result.best_score >= result.baseline_score
    assert np.isfinite(result.best_score)


def test_evaluator_cache_tells_apart_columns_with_one_display_name():
    # a column named `SQUARE(a)` (noise) and the square of column `a` (the
    # signal) both render as "SQUARE(a)"
    rng = np.random.default_rng(0)
    a = rng.uniform(-2, 2, 60)
    y = a ** 2 + rng.normal(0, 0.05, 60)
    d = Dataset([num_col("a", a), num_col("SQUARE(a)", rng.normal(size=60)), num_col("y", y)],
                target="y", task=Task.REGRESSION, n_rows=60)
    evaluator = _Evaluator(small_cfg(), d.task, target_codes(d))
    noise = raw_pool(d, empty_kg())[1]
    square = Node("square", (RawRef("a"),))
    signal = PoolEntry(transform.apply(square, d), judge(empty_kg(), square))
    assert signal.feature.name == noise.feature.name
    assert evaluator.score([signal]) > 0.9
    assert evaluator.score([noise]) < 0.5


def test_evaluator_scores_a_pool_within_half_its_matrix():
    # the pool was stacked into one n × p matrix (1.0 times its bytes) before
    # cross-validation gathered and centred copies of each fold
    rng = np.random.default_rng(0)
    n, p = 20000, 45
    pool = [PoolEntry(num_col(f"x{j}", rng.uniform(0.5, 2.0, n)), None)
            for j in range(p)]
    y = pool[0].feature.values / pool[1].feature.values ** 2 + rng.normal(0, 0.05, n)
    evaluator = _Evaluator(small_cfg(k_folds=5), Task.REGRESSION, y)
    tracemalloc.start()
    try:
        score = evaluator.score(pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < score <= 1.0
    assert peak < 0.5 * n * p * 8, f"peak {peak / (n * p * 8):.2f} times the pool's matrix"


def test_logistic_importance_gives_a_column_whose_moments_overflow_zero():
    # the column's mean overflowed, so its standardised values, every weight
    # and every importance were NaN, and pruning raised
    rng = np.random.default_rng(0)
    y = np.repeat([0.0, 1.0], 20)
    X = np.column_stack([y + rng.normal(0, 0.3, 40), rng.uniform(1.4e308, 1.6e308, 40)])
    spec = LearnerSpec(kind="logistic")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        imp = importance(spec, X, y, Task.CLASSIFICATION)
        model = learn.train(spec, X, y, Task.CLASSIFICATION)
        alone = learn.train(spec, X[:, :1], y, Task.CLASSIFICATION)
        both = learn.evaluate_cv(spec, X.T, y, Task.CLASSIFICATION, 2, 0)
    assert imp.tolist() == [1.0, 0.0]
    assert (model.coef[:, 1] == 0).all()
    assert model.coef[:, ::2] == pytest.approx(alone.coef, rel=1e-12)
    assert (learn.predict(model, X) == learn.predict(alone, X[:, :1])).all()
    assert both == learn.evaluate_cv(spec, X[:, :1].T, y, Task.CLASSIFICATION, 2, 0)


def test_random_policy_runs(planted):
    d, kg, _ = planted
    result = run(small_cfg(policy="random"), d, kg)
    assert result.best_score >= result.baseline_score
    assert result.config["policy"] == "random"


def test_a_random_policy_run_takes_no_td_step(planted, monkeypatch):
    # its net cannot move, so the run pays for no TD step; the DQN arm of
    # the same config takes some
    d, kg, _ = planted
    calls = []
    step = agent.td_train_step

    def spy(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(agent, "td_train_step", spy)
    cfg = small_cfg(episodes=4, steps=5, agent=AgentConfig(minibatch_size=2))
    run(replace(cfg, policy="random"), d, kg)
    assert calls == []
    run(cfg, d, kg)
    assert calls


def test_the_random_policy_is_the_agent_with_epsilon_one_and_learning_rate_zero(planted):
    # the arms differ only by the agent's config, not by how they act
    d, kg, _ = planted
    cfg = small_cfg(episodes=4, steps=5, agent=AgentConfig(minibatch_size=2))
    pinned = replace(cfg.agent, epsilon_start=1.0, epsilon_end=1.0, learning_rate=0.0)
    rnd = run(replace(cfg, policy="random"), d, kg).to_json()
    same = run(replace(cfg, agent=pinned), d, kg).to_json()
    assert rnd == {**same, "config": {**same["config"], "policy": "random"}}


def test_patience_stops_early(planted):
    d, kg, _ = planted
    result = run(small_cfg(episodes=30, patience=2, max_order=0), d, kg)
    # max_order=0 generates nothing, so the best never improves
    assert len(result.episode_scores) == 2
    assert result.best_score == pytest.approx(result.baseline_score, abs=1e-12)


def test_max_order_sweep_orders_validated(planted):
    d, kg, _ = planted
    with pytest.raises(EngineError):
        max_order_sweep(small_cfg(), d, kg, [2, 1])
    out = max_order_sweep(small_cfg(episodes=2), d, kg, [0, 1])
    assert [o for o, _ in out] == [0, 1]
    assert all(np.isfinite(s) for _, s in out)


def test_result_json_round_trip(planted):
    d, kg, _ = planted
    result = run(small_cfg(), d, kg)
    # a result file names its inputs, as `kgfeat run` writes them
    result.config.update(kg_path="kg.json", mapping_path=None, dataset_path="d.csv",
                         schema_path="s.json")
    doc = json.loads(json.dumps(result.to_json()))
    back = FEResult.from_json(doc)
    assert back.best_score == result.best_score
    assert back.best_features == result.best_features
