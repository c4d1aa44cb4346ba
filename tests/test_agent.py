import numpy as np
import pytest

from kgfeat import agent as agent_mod
from kgfeat.agent import (Agent, AgentConfig, AgentError, QNetwork, ReplayBuffer,
                          Transition, epsilon_at, q_forward, select_action,
                          sync_target, td_train_step)


def random_batch(rng, n, dim, actions):
    batch = []
    for _ in range(n):
        batch.append(Transition(
            s=rng.normal(size=dim),
            a=int(rng.integers(0, actions)),
            r=float(rng.normal()),
            s_next=rng.normal(size=dim),
            terminal=bool(rng.random() < 0.3),
        ))
    return batch


def batch_loss(net, target_net, batch, gamma):
    """Reference TD loss used for finite-difference checks."""
    total = 0.0
    for t in batch:
        boot = 0.0 if t.terminal else gamma * float(np.max(q_forward(target_net, t.s_next)))
        q = float(q_forward(net, t.s)[t.a])
        total += (q - (t.r + boot)) ** 2
    return total / len(batch)


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(AgentError):
        AgentConfig(gamma=1.5)
    with pytest.raises(AgentError):
        AgentConfig(epsilon_start=0.1, epsilon_end=0.5)
    with pytest.raises(AgentError):
        AgentConfig(minibatch_size=0)


def test_config_rejects_a_target_sync_period_below_one():
    # a period of 0 ran until the first TD step and died of ZeroDivisionError
    for period in (0, -1):
        with pytest.raises(AgentError, match="target sync period"):
            AgentConfig(minibatch_size=2, target_sync_period=period)


def test_config_rejects_an_epsilon_decay_outside_zero_and_one():
    # a decay of 1.5 failed at the second selection: "epsilon must lie in [0, 1]"
    for decay in (1.5, -0.1, float("nan")):
        with pytest.raises(AgentError, match="epsilon decay"):
            AgentConfig(epsilon_decay=decay)
    for decay in (0.0, 1.0):
        AgentConfig(epsilon_decay=decay)


def test_config_rejects_a_learning_rate_that_is_not_finite_and_non_negative():
    # a NaN rate trained the net to NaN Q-values, so the greedy branch
    # always picked action 0; a rate of 0 keeps the net as it is
    for rate in (float("nan"), float("inf"), -1e-3):
        with pytest.raises(AgentError, match="learning rate"):
            AgentConfig(learning_rate=rate)
    AgentConfig(learning_rate=0.0)


def test_epsilon_schedule():
    cfg = AgentConfig()
    assert epsilon_at(0, cfg) == 1.0
    assert epsilon_at(1, cfg) == pytest.approx(0.995)
    assert epsilon_at(10, cfg) == pytest.approx(0.995 ** 10)
    assert epsilon_at(10_000, cfg) == 0.05  # clamped at the floor
    with pytest.raises(AgentError):
        epsilon_at(-1, cfg)


# ---------------------------------------------------------------- buffer

def test_buffer_ring_eviction_oldest_first():
    buf = ReplayBuffer(capacity=3)
    ts = [Transition(np.zeros(1), i, 0.0, np.zeros(1), False) for i in range(5)]
    for t in ts:
        buf.push(t)
    assert len(buf) == 3
    # every sampled transition is one of the last `capacity` pushed
    sampled = buf.sample(200, np.random.default_rng(0))
    assert {t.a for t in sampled} == {2, 3, 4}


def test_buffer_sampling():
    buf = ReplayBuffer(capacity=10)
    rng = np.random.default_rng(0)
    with pytest.raises(AgentError):
        buf.sample(1, rng)
    buf.push(Transition(np.zeros(1), 0, 0.0, np.zeros(1), False))
    # sampling with replacement can exceed the current size
    assert len(buf.sample(5, rng)) == 5
    with pytest.raises(AgentError):
        buf.sample(0, rng)


# ---------------------------------------------------------------- network

def test_network_shapes_and_determinism():
    a = QNetwork([4, 8, 3], seed=1)
    b = QNetwork([4, 8, 3], seed=1)
    for wa, wb in zip(a.weights, b.weights):
        assert (wa == wb).all()
    q = q_forward(a, np.zeros(4))
    assert q.shape == (3,)
    with pytest.raises(AgentError):
        q_forward(a, np.zeros(5))
    with pytest.raises(AgentError):
        QNetwork([4])


def test_network_copy_and_sync():
    net = QNetwork([3, 5, 2], seed=0)
    target = net.copy()
    net.weights[0] += 1.0
    assert not (net.weights[0] == target.weights[0]).all()
    sync_target(net, target)
    for w1, w2 in zip(net.weights, target.weights):
        assert (w1 == w2).all()


# ---------------------------------------------------------------- training

def test_td_gradients_match_finite_differences():
    """Analytic backprop vs central differences on every parameter."""
    rng = np.random.default_rng(0)
    cfg = AgentConfig(gamma=0.9, learning_rate=1e-3)
    net = QNetwork([4, 8, 3], seed=2)
    target = QNetwork([4, 8, 3], seed=3)
    batch = random_batch(rng, 5, 4, 3)

    snapshot = net.copy()
    td_train_step(net, target, batch, cfg)
    analytic = []
    for w_new, w_old in zip(net.weights + net.biases,
                            snapshot.weights + snapshot.biases):
        analytic.append((w_old - w_new) / cfg.learning_rate)
    net.load_from(snapshot)

    delta = 1e-4
    worst = 0.0
    for p, grad in zip(net.weights + net.biases, analytic):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + delta
            hi = batch_loss(net, target, batch, cfg.gamma)
            p[ix] = orig - delta
            lo = batch_loss(net, target, batch, cfg.gamma)
            p[ix] = orig
            fd = (hi - lo) / (2 * delta)
            a = grad[ix]
            rel = abs(a - fd) / max(1e-8, abs(a) + abs(fd))
            worst = max(worst, rel)
    assert worst <= 1e-4, worst


def test_td_step_returns_prestep_loss_and_learns():
    rng = np.random.default_rng(1)
    cfg = AgentConfig(gamma=0.9, learning_rate=1e-2)
    net = QNetwork([4, 8, 3], seed=4)
    target = net.copy()
    batch = random_batch(rng, 16, 4, 3)
    first = td_train_step(net, target, batch, cfg)
    assert first == pytest.approx(batch_loss(target, target, batch, cfg.gamma),
                                  rel=1e-9)
    losses = [td_train_step(net, target, batch, cfg) for _ in range(200)]
    assert losses[-1] < first * 0.5


def test_td_terminal_drops_bootstrap():
    cfg = AgentConfig(gamma=0.9, learning_rate=0.0)
    net = QNetwork([2, 4, 2], seed=0)
    target = net.copy()
    s = np.array([1.0, 0.0])
    q0 = float(q_forward(net, s)[0])
    t_term = Transition(s, 0, 1.0, s, True)
    loss_term = td_train_step(net, target, [t_term], cfg)
    assert loss_term == pytest.approx((q0 - 1.0) ** 2, rel=1e-12)
    t_live = Transition(s, 0, 1.0, s, False)
    boot = cfg.gamma * float(np.max(q_forward(target, s)))
    loss_live = td_train_step(net, target, [t_live], cfg)
    assert loss_live == pytest.approx((q0 - 1.0 - boot) ** 2, rel=1e-12)


def test_td_empty_batch():
    cfg = AgentConfig()
    net = QNetwork([2, 2], seed=0)
    with pytest.raises(AgentError):
        td_train_step(net, net.copy(), [], cfg)


# ---------------------------------------------------------------- actions

def test_select_action_greedy():
    rng = np.random.default_rng(0)
    q = np.array([0.1, 0.9, 0.5])
    assert select_action(q, 0.0, rng) == 1
    # ties break toward the lowest index
    assert select_action(np.array([0.5, 0.5]), 0.0, rng) == 0


def test_select_action_uniform_when_epsilon_one():
    rng = np.random.default_rng(42)
    q = np.array([0.0, 100.0, 0.0, 0.0])
    n = 4000
    counts = np.bincount([select_action(q, 1.0, rng) for _ in range(n)],
                         minlength=4)
    # each arm should land near n/4; allow 3 sigma of binomial noise
    expect = n / 4
    sigma = np.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - expect) < 3 * sigma), counts


def test_select_action_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(AgentError):
        select_action(np.array([]), 0.5, rng)
    with pytest.raises(AgentError):
        select_action(np.array([1.0]), 1.5, rng)


# ---------------------------------------------------------------- the agent

def same_net(a, b):
    return all((x == y).all() for x, y in zip(a.weights + a.biases, b.weights + b.biases))


def counted(monkeypatch, name, calls):
    """Count the agent's calls of agent.<name>, as perfbench's tracer does by
    replacing the module attribute."""
    fn = getattr(agent_mod, name)

    def wrapper(*args):
        calls.append(name)
        return fn(*args)
    monkeypatch.setattr(agent_mod, name, wrapper)


def test_agent_trains_once_replay_holds_a_minibatch_and_syncs_every_period(monkeypatch):
    calls = []
    for name in ("q_forward", "td_train_step", "sync_target"):
        counted(monkeypatch, name, calls)
    agent = Agent(AgentConfig(minibatch_size=2, target_sync_period=3), 4, 3, seed=0)
    for n, t in enumerate(random_batch(np.random.default_rng(0), 10, 4, 3), 1):
        assert agent.act(t.s) in range(3)
        agent.observe(t)
        td_steps = n - 1  # the first at the second transition
        assert calls.count("q_forward") == n and calls.count("td_train_step") == td_steps
        assert calls.count("sync_target") == td_steps // 3
        # the target equals the online net right after the 3rd, 6th, ... TD step
        assert same_net(agent.net, agent.target) == (td_steps % 3 == 0), n
    assert len(agent.buffer) == 10


@pytest.mark.parametrize("scale", [0.0, 1.0, 1e6])
def test_an_agent_with_epsilon_pinned_at_one_draws_uniformly_whatever_its_net(scale):
    # the random arm reads its action stream through select_action's ε branch,
    # as the DQN does, so its actions do not depend on the net's weights
    cfg = AgentConfig(epsilon_start=1.0, epsilon_end=1.0, learning_rate=0.0, minibatch_size=1)
    agent = Agent(cfg, 4, 19, seed=5)
    agent.net.weights = [w * scale for w in agent.net.weights]
    actions = np.random.default_rng(np.random.SeedSequence(5).spawn(3)[1])
    for t in random_batch(np.random.default_rng(1), 50, 4, 19):
        assert agent.act(t.s) == select_action(np.zeros(19), 1.0, actions)
        agent.observe(t)


def test_an_agent_with_learning_rate_zero_trains_without_moving_its_nets(monkeypatch):
    calls = []
    counted(monkeypatch, "td_train_step", calls)
    agent = Agent(AgentConfig(learning_rate=0.0, minibatch_size=1, target_sync_period=1),
                  4, 19, seed=5)
    net = agent.net.copy()
    for t in random_batch(np.random.default_rng(1), 50, 4, 19):
        agent.act(t.s)
        agent.observe(t)
    assert len(calls) == 50 and len(agent.buffer) == 50
    assert same_net(agent.net, net) and same_net(agent.target, net)
