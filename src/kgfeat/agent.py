"""DQN machinery: Q-network with manual backprop, replay buffer, epsilon
schedule, and the TD training step."""
from __future__ import annotations

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
        if self.minibatch_size < 1:
            raise AgentError("minibatch size must be >= 1")


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
        self.capacity = capacity
        self._items = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, t: Transition):
        if len(self._items) < self.capacity:
            self._items.append(t)
        else:
            self._items[self._cursor] = t
            self._cursor = (self._cursor + 1) % self.capacity

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

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

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
    acts = [X]
    pre = []
    h = X
    last = len(net.weights) - 1
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ W + b
        pre.append(z)
        h = z if i == last else np.maximum(z, 0.0)
        acts.append(h)
    return acts, pre


def q_forward(net: QNetwork, s: np.ndarray) -> np.ndarray:
    """Q-values for one state vector (callers scale inputs as needed)."""
    s = np.asarray(s, dtype=float)
    if s.shape != (net.n_inputs,):
        raise AgentError(f"state length {s.shape} does not match input size {net.n_inputs}")
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
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.biases)
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (pre[i - 1] > 0)
    for i in range(len(net.weights)):
        net.weights[i] -= cfg.learning_rate * grads_w[i]
        net.biases[i] -= cfg.learning_rate * grads_b[i]
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
