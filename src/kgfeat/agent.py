"""The DQN learner (Mnih et al., Nature 2015): Q-network with manual
backprop, replay buffer, epsilon schedule, the TD training step, and the
`Agent` that acts and trains with them."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


class AgentError(ValueError):
    pass


@dataclass
class AgentConfig:
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay: float = 0.995  # multiplicative, applied per action selection
    learning_rate: float = 1e-3
    minibatch_size: int = 32
    target_sync_period: int = 50

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise AgentError("gamma must lie in [0, 1]")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise AgentError("epsilon bounds must satisfy 0 <= end <= start <= 1")
        if not 0.0 <= self.epsilon_decay <= 1.0:
            raise AgentError("epsilon decay must lie in [0, 1]")
        if not 0.0 <= self.learning_rate < float("inf"):  # 0 freezes the net
            raise AgentError("learning rate must be a finite number >= 0")
        if self.minibatch_size < 1:
            raise AgentError("minibatch size must be >= 1")
        if self.target_sync_period < 1:
            raise AgentError("target sync period must be >= 1")


@dataclass(frozen=True)
class Transition:
    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray
    terminal: bool


class ReplayBuffer:
    """Bounded ring of transitions with oldest-first eviction."""

    def __init__(self, capacity: int = 10_000):
        self._items = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._items)

    def push(self, t: Transition):
        self._items.append(t)

    def sample(self, size: int, rng: np.random.Generator):
        if size < 1:
            raise AgentError("sample size must be >= 1")
        if not self._items:
            raise AgentError("cannot sample from an empty buffer")
        idx = rng.integers(0, len(self._items), size=size)
        return [self._items[i] for i in idx]


class QNetwork:
    """Fully-connected net: ReLU hidden layers, identity output."""

    def __init__(self, layer_sizes, seed: int = 0):
        if len(layer_sizes) < 2:
            raise AgentError("need at least input and output layers")
        self.layer_sizes = list(layer_sizes)
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    def copy(self) -> "QNetwork":
        other = QNetwork(self.layer_sizes)
        other.load_from(self)
        return other

    def load_from(self, src: "QNetwork"):
        if src.layer_sizes != self.layer_sizes:
            raise AgentError("architecture mismatch")
        self.weights = [w.copy() for w in src.weights]
        self.biases = [b.copy() for b in src.biases]


def _forward_cached(net: QNetwork, X: np.ndarray):
    """Batch forward pass keeping pre-activations for backprop."""
    acts, pre = [X], []
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        pre.append(acts[-1] @ W + b)
        acts.append(pre[-1] if i == len(net.weights) - 1 else np.maximum(pre[-1], 0.0))
    return acts, pre


def q_forward(net: QNetwork, s: np.ndarray) -> np.ndarray:
    """Q-values for one state vector (callers scale inputs as needed)."""
    s = np.asarray(s, dtype=float)
    if s.shape != (net.layer_sizes[0],):
        raise AgentError(f"state length {s.shape} does not match input size "
                         f"{net.layer_sizes[0]}")
    acts, _ = _forward_cached(net, s[None, :])
    return acts[-1][0]


def td_train_step(net: QNetwork, target_net: QNetwork, batch, cfg: AgentConfig) -> float:
    """One squared-TD-error descent step on the main network.

    Targets use the frozen target network (the bootstrap term is dropped on
    terminal transitions); returns the pre-step loss.
    """
    if not batch:
        raise AgentError("empty batch")
    S = np.array([t.s for t in batch], dtype=float)
    S_next = np.array([t.s_next for t in batch], dtype=float)
    actions = np.array([t.a for t in batch], dtype=np.int64)
    rewards = np.array([t.r for t in batch], dtype=float)
    terminal = np.array([t.terminal for t in batch], dtype=bool)

    acts_next, _ = _forward_cached(target_net, S_next)
    boot = np.max(acts_next[-1], axis=1)
    targets = rewards + np.where(terminal, 0.0, cfg.gamma * boot)

    acts, pre = _forward_cached(net, S)
    q_all = acts[-1]
    q_sa = q_all[np.arange(len(batch)), actions]
    residual = q_sa - targets
    loss = float(np.mean(residual ** 2))

    # Backprop of d(loss)/d(q_sa) = 2 * residual / B through the net.
    delta = np.zeros_like(q_all)
    delta[np.arange(len(batch)), actions] = 2.0 * residual / len(batch)
    for i in range(len(net.weights) - 1, -1, -1):
        # the layer below takes its delta through this layer's weights before the step
        below = (delta @ net.weights[i].T) * (pre[i - 1] > 0) if i else None
        net.weights[i] -= cfg.learning_rate * (acts[i].T @ delta)
        net.biases[i] -= cfg.learning_rate * delta.sum(axis=0)
        delta = below
    return loss


def select_action(q: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Argmax with probability 1-epsilon (lowest index on ties), else uniform."""
    q = np.asarray(q, dtype=float)
    if q.size == 0:
        raise AgentError("empty q-value vector")
    if not 0.0 <= epsilon <= 1.0:
        raise AgentError("epsilon must lie in [0, 1]")
    if rng.random() < epsilon:
        return int(rng.integers(0, len(q)))
    return int(np.argmax(q))


def epsilon_at(step: int, cfg: AgentConfig) -> float:
    if step < 0:
        raise AgentError("step must be >= 0")
    return max(cfg.epsilon_end, cfg.epsilon_start * cfg.epsilon_decay ** step)


def sync_target(net: QNetwork, target_net: QNetwork):
    """Copy the main network's parameters into the target network."""
    target_net.load_from(net)


class Agent:
    """A run's learner: online and target nets [n_inputs, 64, 64, n_actions],
    replay, and generators for the weights, actions and replay draws spawned
    from `seed`. With ε pinned at 1 it acts uniformly, and with learning
    rate 0 its nets never move."""

    def __init__(self, cfg: AgentConfig, n_inputs: int, n_actions: int, seed: int):
        seeds = np.random.SeedSequence(seed).spawn(3)
        self.cfg = cfg
        self.net = QNetwork([n_inputs, 64, 64, n_actions], seed=seeds[0].generate_state(1)[0])
        self.target = self.net.copy()
        self.action_rng, self.replay_rng = map(np.random.default_rng, seeds[1:])
        self.buffer = ReplayBuffer()
        self.selections = self.td_steps = 0

    def act(self, state: np.ndarray) -> int:
        """Epsilon-greedy on the online net's Q-values, epsilon decayed per
        selection."""
        eps = epsilon_at(self.selections, self.cfg)
        self.selections += 1
        return select_action(q_forward(self.net, state), eps, self.action_rng)

    def observe(self, t: Transition):
        """Store a step; once replay holds a minibatch, one TD step on a
        sampled one, and a target sync every `target_sync_period` of them.
        At learning rate 0 a TD step moves no weight, so none is taken."""
        self.buffer.push(t)
        if self.cfg.learning_rate and len(self.buffer) >= self.cfg.minibatch_size:
            td_train_step(self.net, self.target,
                          self.buffer.sample(self.cfg.minibatch_size, self.replay_rng), self.cfg)
            self.td_steps += 1
            if self.td_steps % self.cfg.target_sync_period == 0:
                sync_target(self.net, self.target)
