"""The generate / filter / evaluate / reward loop tying the pieces together."""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import agent as ag
from . import kg as kgmod
from . import learn
from .data import Dataset, Kind, SchemaConfig, Task, load_csv, _MISSING_LEVEL
from .kg import KnowledgeGraph, Verdict, VerdictStatus, judge
from .transform import (CandidateFeature, RawRef, catalog, expand_action,
                        expr_from_json, expr_to_json, render_name)
from .vectorize import phi_state

MAX_STEPS_PER_EPISODE = 20


class EngineError(ValueError):
    pass


@dataclass
class EngineConfig:
    episodes: int = 30
    steps: int = 5                    # transformations applied per episode
    cap: int = 8                      # candidates kept per action
    feature_budget: int = 64
    max_order: int = 5
    k_folds: int = 5
    learner: learn.LearnerSpec = field(default_factory=learn.LearnerSpec)
    seed: int = 0
    patience: int = 10                # episodes without a new best before stopping
    policy: str = "dqn"               # dqn | random (uniform actions, no training)
    agent: ag.AgentConfig = field(default_factory=ag.AgentConfig)

    def __post_init__(self):
        for name in ("episodes", "steps", "cap", "feature_budget", "max_order",
                     "k_folds", "patience"):
            if getattr(self, name) < (0 if name == "max_order" else 1):
                raise EngineError(f"{name} must be positive")
        if self.steps > MAX_STEPS_PER_EPISODE:
            raise EngineError(f"steps per episode capped at {MAX_STEPS_PER_EPISODE}")
        if self.policy not in ("dqn", "random"):
            raise EngineError("policy must be 'dqn' or 'random'")

    def to_json(self) -> dict:
        doc = {
            "episodes": self.episodes,
            "steps": self.steps,
            "cap": self.cap,
            "feature_budget": self.feature_budget,
            "max_order": self.max_order,
            "k_folds": self.k_folds,
            "seed": self.seed,
            "patience": self.patience,
            "policy": self.policy,
            "learner": {
                "kind": self.learner.kind,
                "max_depth": self.learner.max_depth,
                "n_trees": self.learner.n_trees,
                "seed": self.learner.seed,
            },
        }
        return doc


@dataclass
class PoolEntry:
    feature: CandidateFeature
    verdict: Verdict
    is_raw: bool


@dataclass
class StepRecord:
    action: str
    generated: int
    kept: int
    discarded: int
    discarded_features: list          # (display_name, reason) pairs
    score_before: float
    score_after: float
    reward: float


@dataclass
class EpisodeTrace:
    index: int
    steps: list
    end_score: float


@dataclass
class FEResult:
    best_features: list               # dicts: expr/display_name/verdict/unit
    best_score: float
    baseline_score: float
    episode_scores: list
    best_trajectory: list
    discard_log: list
    config: dict
    seed: int
    order_sweep: Optional[list] = None
    traces: list = field(default_factory=list, repr=False)  # not serialized

    def to_json(self) -> dict:
        return {
            "best_features": self.best_features,
            "best_score": self.best_score,
            "baseline_score": self.baseline_score,
            "episode_scores": self.episode_scores,
            "best_trajectory": self.best_trajectory,
            "discard_log": self.discard_log,
            "config": self.config,
            "seed": self.seed,
            "order_sweep": self.order_sweep,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FEResult":
        return cls(
            best_features=doc["best_features"],
            best_score=doc["best_score"],
            baseline_score=doc["baseline_score"],
            episode_scores=doc["episode_scores"],
            best_trajectory=doc["best_trajectory"],
            discard_log=doc["discard_log"],
            config=doc["config"],
            seed=doc["seed"],
            order_sweep=doc.get("order_sweep"),
        )


def compute_reward(prev: float, new: float) -> float:
    """Score delta between consecutive feature sets."""
    return new - prev


def encode_feature(entry: CandidateFeature) -> np.ndarray:
    """One numeric matrix column: categoricals as level codes with a dedicated
    missing level, everything else as floats with NaN at missing cells."""
    if entry.kind == Kind.CATEGORICAL:
        levels = sorted({str(v) for v, m in zip(entry.values, entry.missing) if not m})
        code = {lv: i for i, lv in enumerate(levels)}
        out = np.full(len(entry.values), float(len(levels)))
        for i, (v, m) in enumerate(zip(entry.values, entry.missing)):
            if not m:
                out[i] = code[str(v)]
        return out
    out = np.asarray(entry.values, dtype=float).copy()
    out[entry.missing] = np.nan
    return out


def _target_labels(d: Dataset):
    tcol = d.target_column
    if tcol.kind == Kind.CATEGORICAL:
        return np.array([_MISSING_LEVEL if m else str(v)
                         for v, m in zip(tcol.values, tcol.missing)], dtype=object)
    vals = tcol.values.copy()
    if np.isnan(vals).any():
        raise EngineError("target column has missing values")
    return vals


def raw_pool(d: Dataset, kg: KnowledgeGraph):
    pool = []
    for col in d.feature_columns:
        feat = CandidateFeature(
            expr=RawRef(col.name),
            values=col.values,
            missing=col.missing,
            kind=col.kind,
            display_name=render_name(RawRef(col.name)),
            unit=kgmod.expr_unit(kg, RawRef(col.name)),
        )
        pool.append(PoolEntry(feature=feat, verdict=judge(kg, feat.expr, d), is_raw=True))
    return pool


class _Evaluator:
    """Cross-validated scorer with per-feature-set caching."""

    def __init__(self, cfg: EngineConfig, d: Dataset):
        self.cfg = cfg
        self.d = d
        self.y = _target_labels(d)
        self.cache = {}

    def score(self, pool) -> float:
        key = tuple(sorted(e.feature.display_name for e in pool))
        if key not in self.cache:
            X = np.column_stack([encode_feature(e.feature) for e in pool])
            self.cache[key] = learn.evaluate_cv(
                self.cfg.learner, X, self.y, self.d.task, self.cfg.k_folds, self.cfg.seed
            )
        return self.cache[key]


def _prune_to_budget(pool, cfg: EngineConfig, evaluator: _Evaluator):
    """Drop lowest-importance generated features until the budget holds."""
    if len(pool) <= cfg.feature_budget:
        return pool
    X = np.column_stack([encode_feature(e.feature) for e in pool])
    X, _ = learn.impute_columns(X, X[:0])
    y = evaluator.y
    if evaluator.d.task == Task.CLASSIFICATION:
        y, _ = learn.encode_labels(y)
    spec = learn.LearnerSpec(kind="random_forest", n_trees=cfg.learner.n_trees,
                             max_depth=cfg.learner.max_depth, seed=cfg.seed)
    model = learn.train(spec, X, np.asarray(y, dtype=float), evaluator.d.task)
    imp = learn.feature_importance(model)
    order = sorted(range(len(pool)),
                   key=lambda i: (imp[i], pool[i].feature.display_name))
    drop = set()
    for i in order:
        if len(pool) - len(drop) <= cfg.feature_budget:
            break
        if not pool[i].is_raw:
            drop.add(i)
    return [e for i, e in enumerate(pool) if i not in drop]


class _AgentState:
    def __init__(self, cfg: EngineConfig, n_inputs: int, n_actions: int):
        seeds = np.random.SeedSequence(cfg.seed).spawn(4)
        self.net = ag.QNetwork([n_inputs, 64, 64, n_actions],
                               seed=seeds[0].generate_state(1)[0])
        self.target = self.net.copy()
        self.action_rng = np.random.default_rng(seeds[1])
        self.sample_rng = np.random.default_rng(seeds[2])
        self.buffer = ag.ReplayBuffer()
        self.selections = 0
        self.train_steps = 0


def run_episode(d: Dataset, kg: KnowledgeGraph, state: _AgentState,
                cfg: EngineConfig, evaluator: _Evaluator, episode_index: int,
                discard_log, best):
    """One pass of the generation loop starting from the raw features.

    `best` is a mutable [score, snapshot] pair updated whenever a state beats
    the best score seen so far.
    """
    ops = catalog()
    pool = raw_pool(d, kg)
    score = evaluator.score(pool)
    steps = []
    for i in range(cfg.steps):
        exprs = [e.feature.expr for e in pool]
        s_vec = phi_state(kg, exprs, d).astype(float) / (1.0 + len(pool))
        if cfg.policy == "random":
            action = int(state.action_rng.integers(0, len(ops)))
        else:
            eps = ag.epsilon_at(state.selections, cfg.agent)
            q = ag.q_forward(state.net, s_vec)
            action = ag.select_action(q, eps, state.action_rng)
        state.selections += 1
        op = ops[action]

        candidates = expand_action(
            op, [e.feature for e in pool], d, d.target_column,
            cfg.cap, cfg.seed, cfg.max_order,
        )
        kept, dropped = [], []
        for cand in candidates:
            verdict = judge(kg, cand.expr, d)
            if verdict.status == VerdictStatus.NON_INTERPRETABLE:
                dropped.append((cand.display_name, verdict.reason))
                discard_log.append({
                    "episode": episode_index,
                    "step": i,
                    "display_name": cand.display_name,
                    "expr": expr_to_json(cand.expr),
                    "reason": verdict.reason,
                })
            else:
                cand.unit = kgmod.expr_unit(kg, cand.expr)
                kept.append(PoolEntry(feature=cand, verdict=verdict, is_raw=False))
        pool = pool + kept
        pool = _prune_to_budget(pool, cfg, evaluator)

        new_score = evaluator.score(pool)
        reward = compute_reward(score, new_score)
        terminal = i == cfg.steps - 1

        if cfg.policy == "dqn":
            exprs_next = [e.feature.expr for e in pool]
            s_next = phi_state(kg, exprs_next, d).astype(float) / (1.0 + len(pool))
            state.buffer.push(ag.Transition(s_vec, action, reward, s_next, terminal))
            if len(state.buffer) >= cfg.agent.minibatch_size:
                batch = state.buffer.sample(cfg.agent.minibatch_size, state.sample_rng)
                ag.td_train_step(state.net, state.target, batch, cfg.agent)
                state.train_steps += 1
                if state.train_steps % cfg.agent.target_sync_period == 0:
                    ag.sync_target(state.net, state.target)

        steps.append(StepRecord(
            action=op.name,
            generated=len(candidates),
            kept=len(kept),
            discarded=len(dropped),
            discarded_features=dropped,
            score_before=score,
            score_after=new_score,
            reward=reward,
        ))
        score = new_score
        if score > best[0]:
            best[0] = score
            best[1] = _snapshot(pool)
    return EpisodeTrace(index=episode_index, steps=steps, end_score=score)


def _snapshot(pool):
    out = []
    for e in pool:
        unit = e.feature.unit
        out.append({
            "display_name": e.feature.display_name,
            "expr": expr_to_json(e.feature.expr),
            "verdict": e.verdict.status.value,
            "unit": unit.dims_token() if unit is not None else None,
            "unit_name": unit.name if unit is not None else None,
            "raw": e.is_raw,
        })
    return out


def run(cfg: EngineConfig, d: Dataset, kg: KnowledgeGraph) -> FEResult:
    """Full training run; stops at the episode budget or once the best score
    has not improved for `patience` episodes."""
    n_inputs = max(1, len(kg.concept_order))
    state = _AgentState(cfg, n_inputs, len(catalog()))
    evaluator = _Evaluator(cfg, d)
    baseline_pool = raw_pool(d, kg)
    baseline = evaluator.score(baseline_pool)
    best = [baseline, _snapshot(baseline_pool)]
    discard_log = []
    episode_scores = []
    best_trajectory = []
    traces = []
    stale = 0
    for ep in range(cfg.episodes):
        before = best[0]
        trace = run_episode(d, kg, state, cfg, evaluator, ep, discard_log, best)
        traces.append(trace)
        episode_scores.append(trace.end_score)
        best_trajectory.append(best[0])
        if best[0] > before + 1e-12:
            stale = 0
        else:
            stale += 1
        if stale >= cfg.patience:
            break
    return FEResult(
        best_features=best[1],
        best_score=best[0],
        baseline_score=baseline,
        episode_scores=episode_scores,
        best_trajectory=best_trajectory,
        discard_log=discard_log,
        config=cfg.to_json(),
        seed=cfg.seed,
        traces=traces,
    )


def run_paths(cfg: EngineConfig, dataset_path: str, schema_path: str,
              kg_path: str, mapping_path: Optional[str] = None) -> FEResult:
    """Load inputs from disk and run; the mapping path defaults to the
    schema's concept_map_path, resolved relative to the schema file."""
    schema = SchemaConfig.from_json(schema_path)
    d = load_csv(dataset_path, schema)
    if mapping_path is None and schema.concept_map_path:
        mapping_path = os.path.join(os.path.dirname(os.path.abspath(schema_path)),
                                    schema.concept_map_path)
    kg = kgmod.load_kg(kg_path, mapping_path)
    result = run(cfg, d, kg)
    result.config["dataset_path"] = os.path.abspath(dataset_path)
    result.config["schema_path"] = os.path.abspath(schema_path)
    result.config["kg_path"] = os.path.abspath(kg_path)
    result.config["mapping_path"] = (os.path.abspath(mapping_path)
                                     if mapping_path else None)
    return result


def max_order_sweep(cfg: EngineConfig, d: Dataset, kg: KnowledgeGraph, orders):
    """Independent runs per max_order value with a shared seed."""
    if list(orders) != sorted(orders):
        raise EngineError("orders must be ascending")
    out = []
    for order in orders:
        result = run(replace(cfg, max_order=order), d, kg)
        out.append((order, result.best_score))
    return out


def feature_matrix(d: Dataset, kg: KnowledgeGraph, feature_docs):
    """Re-evaluate a serialized feature set into (headers, columns)."""
    from .transform import apply

    headers, columns = [], []
    for doc in feature_docs:
        expr = expr_from_json(doc["expr"])
        if isinstance(expr, RawRef):
            col = d.column(expr.name)
            entry = CandidateFeature(expr, col.values, col.missing, col.kind,
                                     doc["display_name"])
        else:
            entry = apply(expr, d)
        headers.append(doc["display_name"])
        columns.append(encode_feature(entry))
    return headers, columns
