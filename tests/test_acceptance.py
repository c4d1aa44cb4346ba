"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Lines are printed as tests finish (visible with -s) and collected in RESULTS,
which conftest replays in the terminal summary for captured runs.
"""
import itertools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import kgfeat
from kgfeat import kg as kgmod
from kgfeat.agent import (AgentConfig, QNetwork, ReplayBuffer, Transition,
                          epsilon_at, q_forward, select_action, sync_target,
                          td_train_step)
from kgfeat.cli import main as cli_main
from kgfeat.data import SchemaConfig, Task, load_csv
from kgfeat.engine import EngineConfig, max_order_sweep, run
from kgfeat.kg import VerdictStatus, judge, load_kg
from kgfeat.learn import (LearnerSpec, evaluate_cv, metric_f1,
                          metric_one_minus_rae)
from kgfeat.transform import Node, RawRef, search_space_size

from conftest import make_planted_dataset


RESULTS = []


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        RESULTS.append(f"ACCEPTANCE {num:02d} {name}: FAIL")
        print(RESULTS[-1], flush=True)
        raise
    RESULTS.append(f"ACCEPTANCE {num:02d} {name}: PASS")
    print(RESULTS[-1], flush=True)


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    return make_planted_dataset(tmp_path_factory.mktemp("planted"))


def linear_cfg(seed, **kw):
    return EngineConfig(learner=LearnerSpec(kind="linear", seed=seed),
                        seed=seed, **kw)


def test_criterion_01_search_space_count():
    with criterion(1, "search-space count"):
        start = time.time()
        full = {1: 9, 2: 10}  # 5 unary + 4 date ops, 6 binary + 4 aggregation
        subsets = [full, {1: 9}, {2: 10}, {1: 4, 2: 3}, {1: 1}, {2: 1}]
        for p in range(1, 5):
            for arities in subsets:
                expected = 0
                for i, n_ops in arities.items():
                    tuples = list(itertools.permutations(range(p), i))
                    expected += len(tuples) * n_ops
                assert search_space_size(p, arities) == expected
        assert time.time() - start < 1.0


def test_criterion_02_rule_fixpoint(tmp_path):
    with criterion(2, "rule fixpoint verdicts"):
        mapping = {
            "weight": {"class": "Weight", "unit": "kg"},
            "height": {"class": "Height", "unit": "m"},
            "t1": {"class": "Temperature", "unit": "celsius"},
            "t2": {"class": "Temperature", "unit": "celsius"},
            "stock": {"class": "Stock", "unit": "count"},
            "store": {"class": "CategoricalAttribute"},
        }
        map_path = tmp_path / "mapping.json"
        map_path.write_text(json.dumps(mapping))
        kg = load_kg(kgfeat.resource_path("default_kg.json"), str(map_path))

        mixed = Node("add", (RawRef("weight"), RawRef("height")))
        v = judge(kg, mixed)
        assert v.status == VerdictStatus.NON_INTERPRETABLE
        assert v.reason == "mixed-unit addition"

        stock_sum = Node("group_sum", (RawRef("store"), RawRef("stock")))
        v = judge(kg, stock_sum)
        assert v.status == VerdictStatus.NON_INTERPRETABLE
        assert v.reason == "inventory totals are not summable"

        temps = Node("add", (RawRef("t1"), RawRef("t2")))
        v = judge(kg, temps)
        assert v.status == VerdictStatus.NON_INTERPRETABLE
        assert v.reason == "temperatures are not additive"

        bmi = Node("div", (RawRef("weight"), Node("square", (RawRef("height"),))))
        assert judge(kg, bmi).status == VerdictStatus.INTERPRETABLE


def test_criterion_03_gradient_check():
    with criterion(3, "analytic vs finite-difference gradients"):
        start = time.time()
        rng = np.random.default_rng(0)
        cfg = AgentConfig(gamma=0.9, learning_rate=1e-3)
        net = QNetwork([4, 8, 3], seed=2)
        target = QNetwork([4, 8, 3], seed=3)
        batch = [Transition(s=rng.normal(size=4), a=int(rng.integers(0, 3)),
                            r=float(rng.normal()), s_next=rng.normal(size=4),
                            terminal=bool(rng.random() < 0.3))
                 for _ in range(5)]

        def loss():
            total = 0.0
            for t in batch:
                boot = 0.0 if t.terminal else cfg.gamma * float(
                    np.max(q_forward(target, t.s_next)))
                q = float(q_forward(net, t.s)[t.a])
                total += (q - (t.r + boot)) ** 2
            return total / len(batch)

        snapshot = net.copy()
        td_train_step(net, target, batch, cfg)
        analytic = [(old - new) / cfg.learning_rate
                    for new, old in zip(net.weights + net.biases,
                                        snapshot.weights + snapshot.biases)]
        net.load_from(snapshot)

        delta = 1e-4
        worst = 0.0
        for p, grad in zip(net.weights + net.biases, analytic):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = p[ix]
                p[ix] = orig + delta
                hi = loss()
                p[ix] = orig - delta
                lo = loss()
                p[ix] = orig
                fd = (hi - lo) / (2 * delta)
                worst = max(worst, abs(grad[ix] - fd) /
                            max(1e-8, abs(grad[ix]) + abs(fd)))
        assert worst <= 1e-4, worst
        assert time.time() - start < 5.0


def test_criterion_04_toy_mdp_convergence():
    """5-state chain: states 0..4, moving right from state 3 reaches the
    terminal state 4 with reward 1; the optimal greedy policy moves right
    everywhere."""
    with criterion(4, "toy-MDP convergence"):
        start = time.time()
        converged = 0
        for seed in range(10):
            cfg = AgentConfig(gamma=0.9)
            rng = np.random.default_rng(seed)
            net = QNetwork([5, 64, 64, 2], seed=seed)
            target = net.copy()
            buf = ReplayBuffer()
            state = int(rng.integers(0, 4))
            train_steps = 0
            for t in range(2_000):
                s = np.eye(5)[state]
                eps = epsilon_at(t, cfg)
                a = select_action(q_forward(net, s), eps, rng)
                if a == 1:
                    nxt = state + 1
                    r = 1.0 if nxt == 4 else 0.0
                    terminal = nxt == 4
                else:
                    nxt = max(0, state - 1)
                    r = 0.0
                    terminal = False
                buf.push(Transition(s, a, r, np.eye(5)[nxt], terminal))
                if len(buf) >= cfg.minibatch_size:
                    batch = buf.sample(cfg.minibatch_size, rng)
                    td_train_step(net, target, batch, cfg)
                    train_steps += 1
                    if train_steps % cfg.target_sync_period == 0:
                        sync_target(net, target)
                state = int(rng.integers(0, 4)) if terminal else nxt
            greedy = [int(np.argmax(q_forward(net, np.eye(5)[st])))
                      for st in range(4)]
            converged += greedy == [1, 1, 1, 1]
        assert converged >= 9, converged
        assert time.time() - start < 30.0


def test_criterion_05_telescoping_reward(planted):
    with criterion(5, "telescoping reward sums"):
        d, kg, _ = planted
        result = run(linear_cfg(0, episodes=4, steps=4, k_folds=3), d, kg)
        assert result.traces
        for trace in result.traces:
            total = sum(s.reward for s in trace.steps)
            first = trace.steps[0].score_before
            assert abs(total - (trace.end_score - first)) <= 1e-12


def test_criterion_06_no_non_interpretable_survivors():
    with criterion(6, "no non-interpretable survivors"):
        checked = 0
        for name in ("diabetes", "sales"):
            schema = SchemaConfig.from_json(
                kgfeat.resource_path(f"{name}.schema.json"))
            d = load_csv(kgfeat.resource_path(f"{name}.csv"), schema)
            kg = kgmod.load_kg(kgfeat.resource_path("default_kg.json"),
                               kgfeat.resource_path(f"{name}.mapping.json"))
            for seed in range(10):
                cfg = EngineConfig(
                    episodes=2, steps=3, cap=4, k_folds=3,
                    learner=LearnerSpec(kind="decision_tree", seed=seed),
                    seed=seed)
                result = run(cfg, d, kg)
                for f in result.best_features:
                    assert f["verdict"] != VerdictStatus.NON_INTERPRETABLE.value
                checked += 1
        assert checked == 20


def test_criterion_07_planted_signal_uplift(planted):
    with criterion(7, "planted-signal uplift"):
        d, kg, _ = planted
        cols = {c.name: c.values for c in d.feature_columns}
        X_raw = np.column_stack([cols[f"x{i}"] for i in range(1, 6)])
        y = d.target_column.values
        spec = LearnerSpec(kind="linear")
        base = evaluate_cv(spec, X_raw.T, y, Task.REGRESSION, k=5, seed=0)
        # oracle: the hand-built planted feature bounds the achievable uplift
        handmade = cols["x1"] / cols["x2"] ** 2
        oracle = evaluate_cv(spec, [*X_raw.T, handmade], y,
                             Task.REGRESSION, k=5, seed=0)
        assert oracle - base >= 0.15

        ok = 0
        for seed in range(10):
            start = time.time()
            result = run(linear_cfg(seed), d, kg)
            assert time.time() - start < 180.0
            if result.best_score - result.baseline_score >= 0.15:
                ok += 1
        assert ok >= 8, ok


def test_criterion_08_policy_beats_random(planted):
    with criterion(8, "learned policy vs random actions"):
        d, kg, _ = planted
        dqn, rnd = [], []
        for seed in range(10):
            cfg = linear_cfg(seed)
            dqn.append(run(cfg, d, kg).best_score)
            rnd.append(run(replace(cfg, policy="random"), d, kg).best_score)
        assert np.mean(dqn) >= np.mean(rnd), (np.mean(dqn), np.mean(rnd))


def test_criterion_09_order_sweep(planted):
    with criterion(9, "order-two beats order-one on planted data"):
        d, kg, _ = planted
        wins = 0
        for seed in range(10):
            # a longer patience lets every run spend its full episode budget,
            # which the order-two composition sometimes needs
            cfg = linear_cfg(seed, patience=30)
            out = max_order_sweep(cfg, d, kg, [1, 2])
            wins += out[1][1] > out[0][1]
        assert wins >= 8, wins


def test_criterion_10_unmapped_kg_fallback(planted):
    with criterion(10, "unmapped-KG fallback"):
        d, _, _ = planted
        bare = load_kg(kgfeat.resource_path("default_kg.json"))
        result = run(linear_cfg(0, episodes=3, steps=3, k_folds=3), d, bare)
        assert result.discard_log == []
        assert result.best_score >= result.baseline_score


def test_criterion_11_metric_units():
    with criterion(11, "metric hand examples"):
        y_true = np.array([1, 1, 1, 0, 0])
        y_pred = np.array([1, 1, 0, 1, 0])  # TP=2, FP=1, FN=1
        assert metric_f1(y_true, y_pred, positive=1) == 2 / 3
        assert metric_one_minus_rae([1, 2, 3], [1, 2, 5]) == 0.0


def test_criterion_12_determinism(planted, tmp_path):
    with criterion(12, "byte-identical reruns"):
        _, _, paths = planted
        manifest = {
            "dataset": paths["csv"],
            "schema": paths["schema"],
            "kg": kgfeat.resource_path("default_kg.json"),
            "engine": {"episodes": 2, "steps": 3, "cap": 4, "k_folds": 3,
                       "learner": "linear", "seed": 0},
        }
        blobs = []
        for name in ("a", "b"):
            doc = dict(manifest, out=str(tmp_path / name))
            mpath = tmp_path / f"{name}.json"
            mpath.write_text(json.dumps(doc))
            assert cli_main(["run", "--manifest", str(mpath)]) == 0
            with open(os.path.join(str(tmp_path / name), "result.json"), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]
