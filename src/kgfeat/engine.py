"""The generate / filter / evaluate / reward loop tying the pieces together."""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import agent as ag
from . import learn, transform
from .data import Dataset, Feature, Kind, Task, check
from .kg import KnowledgeGraph, Verdict, VerdictStatus, judge
from .transform import RawRef, catalog, expand_action, expr_from_json, expr_to_json

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
    seed: int = 0                     # the agent's, the folds' and the learner's
    patience: int = 10                # episodes without a new best before stopping
    policy: str = "dqn"               # dqn | random (the agent with ε 1 and learning rate 0)
    agent: ag.AgentConfig = field(default_factory=ag.AgentConfig)

    def __post_init__(self):
        for name in ("episodes", "steps", "cap", "feature_budget", "max_order",
                     "k_folds", "patience"):
            low = 0 if name == "max_order" else 1
            if getattr(self, name) < low:
                raise EngineError(f"{name} must be at least {low}")
        if self.steps > MAX_STEPS_PER_EPISODE:
            raise EngineError(f"steps per episode capped at {MAX_STEPS_PER_EPISODE}")
        if self.policy not in ("dqn", "random"):
            raise EngineError("policy must be 'dqn' or 'random'")
        self.learner = replace(self.learner, seed=self.seed)

    def to_json(self) -> dict:
        doc = {name: getattr(self, name) for name in ENGINE_OPTIONS}
        doc["learner"] = {
            "kind": self.learner.kind,
            "max_depth": self.learner.max_depth,
            "n_trees": self.learner.n_trees,
            "seed": self.learner.seed,
        }
        return doc


# The scalar options a manifest's `engine` block may set, with their types.
ENGINE_OPTIONS = {f.name: type(f.default) for f in fields(EngineConfig)
                  if f.name not in ("learner", "agent")}


@dataclass
class PoolEntry:
    feature: Feature
    verdict: Verdict


def phi_state(kg: KnowledgeGraph, pool) -> np.ndarray:
    """How many of the pool's entries light each concept, by their verdicts'
    concepts; fixed length regardless of how many entries the pool holds."""
    return np.bincount([i for e in pool for i in e.verdict.concepts],
                       minlength=len(kg.concept_order))


@dataclass
class StepRecord:
    action: str
    generated: int
    kept: int
    discarded: list                   # discard_log entries, in candidate order
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
        return {key: getattr(self, key) for key in _RESULT_KEYS}

    @classmethod
    def from_json(cls, doc, where: str = "result") -> "FEResult":
        """Parse a result document; one of the wrong shape (_RESULT_SHAPE) is
        an EngineError naming `where` and the JSON path."""
        check(doc, _RESULT_SHAPE, where, EngineError)
        return cls(**{key: doc.get(key) for key in _RESULT_KEYS})


# The keys of result.json: every FEResult field but the in-memory traces.
_RESULT_KEYS = tuple(f.name for f in fields(FEResult) if f.name != "traces")
# Every key is present, with the fields `explain` and `report` read typed;
# order_sweep may be null or absent, and each expr is checked as it is parsed.
_RESULT_SHAPE = {
    **dict.fromkeys(_RESULT_KEYS, object),
    "config": {"kg_path": str, "mapping_path": (str, None), "dataset_path": str,
               "schema_path": str, "seed": (int, None)},
    "best_features": [{"display_name": str, "expr": object, "verdict": object, "raw": bool}],
    "discard_log": [{"display_name": str, "expr": object, "reason": object}],
    "order_sweep": ([[float]], None)}


def compute_reward(prev: float, new: float) -> float:
    """Score delta between consecutive feature sets."""
    return new - prev


def encode_feature(entry: Feature) -> np.ndarray:
    """One numeric matrix column: categoricals as their
    `transform.categorical_codes`, everything else as its values (NaN at a
    missing cell)."""
    if entry.kind == Kind.CATEGORICAL:
        return transform.categorical_codes(entry).astype(float)
    return entry.values


def target_codes(d: Dataset) -> np.ndarray:
    """The target as one float vector: class codes in natural label order for
    classification, the values for regression. A missing cell is an error."""
    tcol = d.target_column
    if np.isnan(tcol.values).any():
        raise EngineError("target column has missing values")
    if d.task == Task.CLASSIFICATION:
        return learn.encode_labels(tcol.values)[0]
    return tcol.values.astype(float)


def importance(spec: learn.LearnerSpec, X: np.ndarray, y: np.ndarray,
               task: Task) -> np.ndarray:
    """Normalized importances of a `spec` model fit on median-imputed X."""
    X, _ = learn.impute_columns(X, X[:0])
    return learn.feature_importance(learn.train(spec, X, y, task))


def raw_pool(d: Dataset, kg: KnowledgeGraph):
    return [PoolEntry(feat, judge(kg, feat.expr)) for feat in d.feature_columns]


class _Evaluator:
    """Cross-validated scorer with per-feature-set caching, keyed by the set
    of the pool's expressions."""

    def __init__(self, cfg: EngineConfig, task: Task, y: np.ndarray):
        self.cfg = cfg
        self.task = task
        self.y = y
        self.cache = {}

    def score(self, pool) -> float:
        key = frozenset(e.feature.expr for e in pool)
        if key not in self.cache:
            self.cache[key] = learn.evaluate_cv(
                self.cfg.learner, [encode_feature(e.feature) for e in pool], self.y,
                self.task, self.cfg.k_folds, self.cfg.seed)
        return self.cache[key]


def _prune_to_budget(pool, cfg: EngineConfig, evaluator: _Evaluator):
    """Drop the generated features cfg.learner ranks lowest until the budget holds."""
    if len(pool) <= cfg.feature_budget:
        return pool
    X = learn.gather([encode_feature(e.feature) for e in pool], np.arange(len(evaluator.y)))
    imp = importance(cfg.learner, X, evaluator.y, evaluator.task)
    ranked = sorted(range(len(pool)), key=lambda i: (imp[i], pool[i].feature.name))
    generated = [i for i in ranked if not isinstance(pool[i].feature.expr, RawRef)]
    drop = set(generated[:len(pool) - cfg.feature_budget])
    return [e for i, e in enumerate(pool) if i not in drop]


def _state(kg: KnowledgeGraph, pool) -> np.ndarray:
    """The agent's view of a pool: its concept vector over 1 + pool size."""
    return phi_state(kg, pool).astype(float) / (1.0 + len(pool))


def run_episode(raw, kg: KnowledgeGraph, agent: ag.Agent,
                cfg: EngineConfig, evaluator: _Evaluator, episode_index: int, best):
    """One pass of the generation loop starting from the judged raw pool.

    `best` is a mutable [score, snapshot] pair updated whenever a state beats
    the best score seen so far.
    """
    ops = catalog()
    pool = raw
    score = evaluator.score(pool)
    s_vec = _state(kg, pool)
    steps = []
    for i in range(cfg.steps):
        action = agent.act(s_vec)
        op = ops[action]

        candidates = expand_action(op, [e.feature for e in pool], evaluator.y,
                                   cfg.cap, cfg.max_order)
        kept, discarded = [], []
        for cand in candidates:
            verdict = judge(kg, cand.expr)
            if verdict.status == VerdictStatus.NON_INTERPRETABLE:
                discarded.append({
                    "episode": episode_index,
                    "step": i,
                    "display_name": cand.name,
                    "expr": expr_to_json(cand.expr),
                    "reason": verdict.reason,
                })
            else:
                kept.append(PoolEntry(cand, verdict))
        pool = pool + kept
        pool = _prune_to_budget(pool, cfg, evaluator)

        new_score = evaluator.score(pool)
        reward = compute_reward(score, new_score)
        s_next = _state(kg, pool)
        agent.observe(ag.Transition(s_vec, action, reward, s_next, i == cfg.steps - 1))

        steps.append(StepRecord(
            action=op.name,
            generated=len(candidates),
            kept=len(kept),
            discarded=discarded,
            score_before=score,
            score_after=new_score,
            reward=reward,
        ))
        score, s_vec = new_score, s_next
        if score > best[0]:
            best[0] = score
            best[1] = _snapshot(pool)
    return EpisodeTrace(index=episode_index, steps=steps, end_score=score)


def _snapshot(pool):
    out = []
    for e in pool:
        unit = e.verdict.unit
        out.append({
            "display_name": e.feature.name,
            "expr": expr_to_json(e.feature.expr),
            "verdict": e.verdict.status.value,
            "unit": unit.dims_token() if unit is not None else None,
            "unit_name": e.verdict.unit_name,
            "raw": isinstance(e.feature.expr, RawRef),
        })
    return out


def run(cfg: EngineConfig, d: Dataset, kg: KnowledgeGraph) -> FEResult:
    """Full training run; stops at the episode budget or once the best score
    has not improved for `patience` episodes."""
    agent_cfg = cfg.agent if cfg.policy == "dqn" else replace(
        cfg.agent, epsilon_start=1.0, epsilon_end=1.0, learning_rate=0.0)
    agent = ag.Agent(agent_cfg, len(kg.concept_order), len(catalog()), cfg.seed)
    evaluator = _Evaluator(cfg, d.task, target_codes(d))
    raw = raw_pool(d, kg)
    baseline = evaluator.score(raw)
    best = [baseline, _snapshot(raw)]
    best_trajectory = []
    traces = []
    stale = 0
    for ep in range(cfg.episodes):
        before = best[0]
        traces.append(run_episode(raw, kg, agent, cfg, evaluator, ep, best))
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
        episode_scores=[t.end_score for t in traces],
        best_trajectory=best_trajectory,
        discard_log=[entry for t in traces for s in t.steps for entry in s.discarded],
        config=cfg.to_json(),
        seed=cfg.seed,
        traces=traces,
    )


def sweep_configs(cfg: EngineConfig, orders):
    """One config per max_order value; the values must ascend."""
    if list(orders) != sorted(orders):
        raise EngineError("orders must be ascending")
    return [replace(cfg, max_order=order) for order in orders]


def max_order_sweep(cfg: EngineConfig, d: Dataset, kg: KnowledgeGraph, orders):
    """Independent runs per max_order value with a shared seed."""
    return [(c.max_order, run(c, d, kg).best_score) for c in sweep_configs(cfg, orders)]


def feature_matrix(d: Dataset, feature_docs, where: str = "result"):
    """Re-evaluate a result's best features into (headers, matrix); `where`
    names the result file in errors."""
    return ([doc["display_name"] for doc in feature_docs],
            learn.gather((encode_feature(transform.apply(
                expr_from_json(doc["expr"], where, ("best_features", i, "expr")), d))
                for i, doc in enumerate(feature_docs)), np.arange(d.n_rows),
                len(feature_docs)))
