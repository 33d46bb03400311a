"""Tabular Q-learning scheduler: per decision point it either executes the
next weak learner (a=1) or stops and aggregates (a=0).

`replay` is the one request loop over the simulated device: the offline
trainer steps it with an epsilon-greedy Q-learning `Agent`, and `simrun` with
its policy, forward, retrain and vote hooks.

State (e_now, e_last, p_harv, l): binned usable energy now and its trailing
mean, binned harvest power, and the learners already run for this request.

Reward: a=1 pays delta_acc(l+1) minus beta * (1 - usable-energy fraction);
declining an unserved request (l=0, a=0) pays -p_miss. Gamma discounts only
a successor at l=0, the next request's first decision, so it measures
request-to-request time, not prefix depth.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import artifacts
from .energy import (Capacitor, CostModel, Device, PowerTrace, RequestPattern,
                     discretize_energy, discretize_power, inference_cost,
                     power_terciles, ENERGY_LEVELS, POWER_LEVELS)
from .errors import ConfigError, TableLoadError  # noqa: F401 (old name, re-exported)

QTABLE_VERSION = 2
E_LAST_WINDOW = 10  # trailing requests feeding the mean-energy feature


@dataclass(frozen=True)
class SchedulerState:
    e_now: int   # 0..3
    e_last: int  # 0..3
    p_harv: int  # 0..2
    l: int       # 0..N learners already executed this request


def state_space_size(n: int) -> int:
    return ENERGY_LEVELS * ENERGY_LEVELS * POWER_LEVELS * (n + 1)


def encode_state(s: SchedulerState, n: int) -> int:
    """Mixed-radix index over (e_now, e_last, p_harv, l)."""
    if not (0 <= s.e_now < ENERGY_LEVELS and 0 <= s.e_last < ENERGY_LEVELS
            and 0 <= s.p_harv < POWER_LEVELS and 0 <= s.l <= n):
        raise ConfigError(f"state field out of range: {s}")
    idx = s.e_now
    idx = idx * ENERGY_LEVELS + s.e_last
    idx = idx * POWER_LEVELS + s.p_harv
    return idx * (n + 1) + s.l


@dataclass(frozen=True)
class RewardParams:
    beta: float = 0.05
    p_miss: float = 0.5
    delta_acc: tuple = ()

    def __post_init__(self):
        if self.beta < 0 or self.p_miss < 0:
            raise ConfigError("beta and p_miss must be >= 0")
        object.__setattr__(self, "delta_acc", tuple(self.delta_acc))


def reward(s: SchedulerState, a: int, params: RewardParams,
           energy_fraction: float) -> float:
    """energy_fraction is the continuous usable-energy fraction at s (the
    discretized e_now bin is too coarse for the penalty magnitude)."""
    if a == 1:
        if s.l >= len(params.delta_acc):
            raise ConfigError("action 1 is masked when all learners have run")
        return params.delta_acc[s.l] - params.beta * (1.0 - energy_fraction)
    if s.l == 0:
        return -params.p_miss
    return 0.0


@dataclass(frozen=True)
class QHyperParams:
    learning_rate: float = 0.1
    discount: float = 0.9
    epsilon_start: float = 0.3
    epsilon_end: float = 0.01
    anneal_fraction: float = 0.8


@dataclass
class QTable:
    values: np.ndarray   # (state count, 2)
    n: int
    hyper: QHyperParams = field(default_factory=QHyperParams)

    @classmethod
    def zeros(cls, n, hyper=None) -> "QTable":
        return cls(values=np.zeros((state_space_size(n), 2)), n=n,
                   hyper=hyper or QHyperParams())


def act(table: QTable, s: SchedulerState) -> int:
    """Greedy action; a=1 is masked at l=N and exact ties resolve to a=0."""
    if s.l >= table.n:
        return 0
    q0, q1 = table.values[encode_state(s, table.n)]
    return 1 if q1 > q0 else 0


def q_update(table: QTable, s: SchedulerState, a: int, r: float, s_next):
    """One-step Q-learning update in place. A terminal transition (s_next
    None) bootstraps 0; otherwise from the best legal action at s_next,
    which is a=0 alone at l=N, discounted by the table's gamma only when
    s_next starts the next request (l = 0)."""
    idx = encode_state(s, table.n)
    if s_next is None:
        bootstrap = 0.0
    else:
        gamma = table.hyper.discount if s_next.l == 0 else 1.0
        q0, q1 = table.values[encode_state(s_next, table.n)].tolist()
        bootstrap = gamma * (q0 if s_next.l >= table.n else max(q0, q1))
    q = table.values[idx, a]
    table.values[idx, a] = q + table.hyper.learning_rate * (r + bootstrap - q)
    return table


@dataclass
class EnvConfig:
    capacitor: Capacitor
    trace: PowerTrace
    cost_model: CostModel
    requests: RequestPattern
    reward: RewardParams
    power_thresholds: tuple = None

    def __post_init__(self):
        if self.power_thresholds is None:
            self.power_thresholds = power_terciles(self.trace)

    @property
    def horizon(self) -> float:
        """Simulated seconds of a run: requests stop at the trace's end."""
        return min(self.requests.horizon, self.trace.horizon)


class StateTracker:
    """Builds SchedulerState observations for one simulated run, including the
    trailing mean battery level over the last 10 served requests (running mean
    until 10 exist; the current level until a request is served)."""

    def __init__(self, one_learner_cost, power_thresholds):
        self.one_learner_cost = one_learner_cost
        self.power_thresholds = power_thresholds
        self.history = []
        self.mean_frac = None   # changes only when a request is served

    def observe(self, device: Device, l: int) -> SchedulerState:
        cap = device.cap
        e_now = discretize_energy(device.usable_energy, cap, self.one_learner_cost)
        mean_frac = device.usable_fraction if self.mean_frac is None else self.mean_frac
        e_last = discretize_energy(mean_frac * cap.max_usable_energy, cap,
                                   self.one_learner_cost)
        p = discretize_power(device.p_harv, self.power_thresholds)
        return SchedulerState(e_now=e_now, e_last=e_last, p_harv=p, l=l)

    def record_post_inference(self, device: Device):
        self.history.append(device.usable_fraction)
        self.mean_frac = float(np.mean(self.history[-E_LAST_WINDOW:]))


def _make_device(env: EnvConfig) -> Device:
    return Device(cap=env.capacitor, trace=env.trace, cost_model=env.cost_model)


# how a request ends
OFF = "off"            # the device is below cutoff at arrival
STOP = "stop"          # the agent chose a=0
BROWNOUT = "brownout"  # the store could not cover the next learner


class Agent:
    """The decision and hooks `replay` calls; the hooks default to no-ops."""

    def arrive(self, i: int, t: float):
        """Request i arrives; the device has advanced to its time t."""

    def decide(self, state: SchedulerState) -> int:
        """1 runs learner state.l, 0 stops; must be 0 at l = N."""
        raise NotImplementedError

    def ran(self, l: int):
        """Learner l's cost was drawn; it runs."""

    def done(self, l: int, end: str):
        """The request ended (OFF, STOP or BROWNOUT) after l learners ran."""


def replay(env: EnvConfig, device: Device, costs, agent: Agent):
    """Serve the periodic requests up to `env.horizon` on `device`, then
    advance it to that time. costs[l] is the energy learner l draws per run.

    Per request: advance to its time; if the device is off, miss it.
    Otherwise, for l = 0, 1, ... observe the state and ask the agent; stop
    on a=0, else draw learner l's cost, stopping on a brownout. A request
    that ran any learner feeds the trailing-energy feature.
    """
    tracker = StateTracker(max(costs), env.power_thresholds)
    period, horizon = env.requests.period, env.horizon
    for i, t in enumerate(np.arange(period, horizon + 1e-9, period).tolist()):
        device.advance(t)
        agent.arrive(i, t)
        if not device.is_on:
            agent.done(0, OFF)
            continue
        l, end = 0, STOP
        while agent.decide(tracker.observe(device, l=l)):
            if not device.draw(costs[l]):
                end = BROWNOUT
                break
            agent.ran(l)
            l += 1
        if l > 0:
            tracker.record_post_inference(device)
        agent.done(l, end)
    device.advance(horizon)


class _QLearner(Agent):
    """Epsilon-greedy exploration with one-step Q-updates for one episode."""

    def __init__(self, table: QTable, params: RewardParams, device: Device,
                 rng, epsilon):
        self.table = table
        self.params = params
        self.device = device
        self.rng = rng
        self.epsilon = epsilon
        self.total_reward = 0.0
        self.pending = None  # (s, a, reward) awaiting its successor state

    def decide(self, s):
        if self.pending is not None:
            q_update(self.table, *self.pending, s)
        if s.l < self.table.n and self.rng.random() < self.epsilon:
            a = int(self.rng.integers(0, 2))
        else:
            a = act(self.table, s)  # a=0 at l = N
        r = reward(s, a, self.params, self.device.usable_fraction)
        self.total_reward += r
        self.pending = (s, a, r)
        return a

    def done(self, l, end):
        if end == STOP:
            return
        # a brownout revokes the learner's accuracy gain; at l = 0 it fails
        # the request, as does a miss while off, which is charged to the action
        # before it: that is what lets the agent learn to conserve energy
        penalty = ((self.params.delta_acc[l] if end == BROWNOUT else 0.0)
                   + (self.params.p_miss if l == 0 else 0.0))
        if self.pending is not None:
            s, a, r = self.pending
            self.pending = (s, a, r - penalty)
        self.total_reward -= penalty


def train_offline(env: EnvConfig, ensemble_model, episodes, seed,
                  hyper: QHyperParams = None):
    """Episodic epsilon-greedy Q-learning against the simulated device.

    Each episode replays the trace from the start. Misses that happen while
    the device is off are charged (as -p_miss) to the reward of the previous
    action. Returns (QTable, per-episode cumulative reward list); 0 episodes
    give the all-zero table.
    """
    if episodes < 0:
        raise ConfigError(f"episodes must be >= 0, got {episodes}")
    params = replace(env.reward, delta_acc=tuple(ensemble_model.delta_acc))
    hyper = hyper or QHyperParams()
    table = QTable.zeros(ensemble_model.size, hyper)
    costs = [inference_cost(l.macs, env.cost_model) for l in ensemble_model.learners]
    rng = np.random.default_rng(seed)
    curve = []
    anneal_len = max(1, int(episodes * hyper.anneal_fraction))
    for episode in range(episodes):
        frac = min(1.0, episode / anneal_len)
        epsilon = hyper.epsilon_start + frac * (hyper.epsilon_end - hyper.epsilon_start)
        device = _make_device(env)
        learner = _QLearner(table, params, device, rng, epsilon)
        replay(env, device, costs, learner)
        if learner.pending is not None:
            q_update(table, *learner.pending, None)
        curve.append(learner.total_reward)
    return table, curve


# ---------------------------------------------------------------------------
# persistence: JSON header + full-precision value array


def save_qtable(table: QTable, path):
    doc = {
        "version": QTABLE_VERSION,
        "n": table.n,
        "hyperparameters": asdict(table.hyper),
        "values": [[float(v) for v in row] for row in table.values],
    }
    artifacts.write_json(path, doc)


def load_qtable(path, expected_n=None) -> QTable:
    def decode(doc):
        n = doc["n"]
        if expected_n is not None and n != expected_n:
            raise ValueError(f"table trained for N={n}, expected N={expected_n}")
        values = np.asarray(doc["values"], dtype=np.float64)
        if values.shape != (state_space_size(n), 2):
            raise ValueError(f"value array shape {values.shape} wrong for N={n}")
        return QTable(values=values, n=n,
                      hyper=QHyperParams(**doc["hyperparameters"]))

    return artifacts.read_json(path, decode, version=QTABLE_VERSION)
