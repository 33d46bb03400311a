"""Tabular Q-learning scheduler: per decision point it either executes the
next weak learner (a=1) or stops and aggregates (a=0).

`replay` is the one request loop over the simulated device: the offline
trainer steps it with an epsilon-greedy Q-learning `Agent`, and `simrun` with
its policy, forward, retrain and vote hooks.

State (e_now, e_last, p_harv, l): binned usable energy now and its trailing
mean, binned harvest power, and the learners already run for this request.
`StateTracker` bins it; agents see only its index into the q-table.

Reward: a=1 pays delta_acc(l+1) minus beta * (1 - usable-energy fraction);
declining an unserved request (l=0, a=0) pays -p_miss. Gamma discounts only
a successor at l=0, the next request's first decision, so it measures
request-to-request time, not prefix depth.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import artifacts
from .energy import (Capacitor, CostModel, Device, PowerTrace, RequestPattern,
                     inference_cost)
from .errors import ConfigError, TableLoadError  # noqa: F401 (old name, re-exported)

QTABLE_VERSION = 2
E_LAST_WINDOW = 10  # trailing requests feeding the mean-energy feature

# ---------------------------------------------------------------------------
# the state: its bins, and its mixed-radix index into the q-table,
# ((e_now * ENERGY_LEVELS + e_last) * POWER_LEVELS + p_harv) * (N + 1) + l

ENERGY_LEVELS = 4   # 0 depleted / 1 low / 2 high / 3 full
POWER_LEVELS = 3    # 0 low / 1 mid / 2 high

FULL_TOLERANCE = 1e-9   # joules short of max usable energy that still bin as full


def state_space_size(n: int) -> int:
    return ENERGY_LEVELS * ENERGY_LEVELS * POWER_LEVELS * (n + 1)


def power_terciles(trace: PowerTrace):
    """Default power-level thresholds: terciles of the training trace."""
    q1, q2 = np.quantile(trace.power, [1.0 / 3.0, 2.0 / 3.0])
    t1, t2 = float(q1), float(q2)
    pos = trace.power[trace.power > 0]
    if t1 <= 0:
        # traces with long zero stretches: keep zero harvest in the low bin
        t1 = float(pos.min()) / 2.0 if pos.size else 1e-9
    if t2 <= t1:
        top = float(trace.power.max())
        t2 = (t1 + top) / 2.0 if top > t1 else 2.0 * t1
    return (t1, t2)


@dataclass(frozen=True)
class RewardParams:
    beta: float = 0.05
    p_miss: float = 0.5
    delta_acc: tuple = ()

    def __post_init__(self):
        if self.beta < 0 or self.p_miss < 0:
            raise ConfigError("beta and p_miss must be >= 0")
        object.__setattr__(self, "delta_acc", tuple(self.delta_acc))


def reward(l, a, params: RewardParams, energy_fraction) -> float:
    """Reward of action a after l learners ran this request. energy_fraction
    is the continuous usable-energy fraction at the state (the discretized
    e_now bin is too coarse for the penalty magnitude)."""
    if a == 1:
        if l >= len(params.delta_acc):
            raise ConfigError("action 1 is masked when all learners have run")
        return params.delta_acc[l] - params.beta * (1.0 - energy_fraction)
    if l == 0:
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


# `act` and `q_update` take a table's rows (the value array, or its rows as
# lists of floats), n1 = N + 1 and state indices s, whose l = s % n1

def act(rows, n1, s) -> int:
    """Greedy action; a=1 is masked at l=N and exact ties resolve to a=0."""
    if s % n1 == n1 - 1:
        return 0
    q0, q1 = rows[s]
    return 1 if q1 > q0 else 0


def q_update(rows, n1, hyper: QHyperParams, s, a, r, s_next):
    """One-step Q-learning update of rows[s][a] in place. A terminal
    transition (s_next None) bootstraps 0; otherwise from the best legal
    action at s_next, which is a=0 alone at l=N, discounted by gamma only
    when s_next starts the next request (l = 0)."""
    if s_next is None:
        bootstrap = 0.0
    else:
        l_next = s_next % n1
        gamma = hyper.discount if l_next == 0 else 1.0
        q0, q1 = rows[s_next]
        bootstrap = gamma * (q0 if l_next == n1 - 1 else max(q0, q1))
    row = rows[s]
    q = row[a]
    row[a] = q + hyper.learning_rate * (r + bootstrap - q)


@dataclass
class EnvConfig:
    """One run's device, trace, costs, requests and reward. It serves
    `request_count` requests, request i at period + i * period s."""
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

    @property
    def request_count(self):
        """len(np.arange(period, horizon + 1e-9, period)); math.inf on overflow."""
        count = (self.horizon + 1e-9 - self.requests.period) / self.requests.period
        return max(0, math.ceil(count)) if count < math.inf else count


class StateTracker:
    """The one discretizer: observes one simulated run as state indices.
    Usable energy bins to 0 if it cannot cover one learner, 3 at full charge
    (within FULL_TOLERANCE), else 1 below half of max usable and 2 at or
    above; the harvest power to 0 below t1, 1 in [t1, t2), 2 at or above t2.
    The trailing level is the mean usable fraction over the last
    `E_LAST_WINDOW` served requests (fewer until that many exist; the
    current level until a request is served). The power is the device's
    `p_harv`, the power in force at its time. `cap` is the capacitor of the
    devices it observes."""

    def __init__(self, cap: Capacitor, one_learner_cost, power_thresholds, n):
        t1, t2 = power_thresholds
        if not t1 < t2:
            raise ConfigError(f"need t1 < t2, got {power_thresholds}")
        self.one_learner_cost = one_learner_cost
        self.power_thresholds = power_thresholds
        self.n = n
        self.n1 = n + 1
        self.cutoff = cap.cutoff_energy
        self.max_usable = cap.max_usable_energy
        self.full = cap.max_usable_energy - FULL_TOLERANCE
        self.half = 0.5 * cap.max_usable_energy
        self.history = []      # the usable fractions of the window
        self.e_last = None     # changes only when a request is served

    def _bin(self, usable: float) -> int:
        if usable < self.one_learner_cost:
            return 0
        if usable >= self.full:
            return 3
        return 1 if usable < self.half else 2

    def observe(self, device: Device, l: int) -> int:
        usable = device.energy - self.cutoff
        usable = usable if usable > 0.0 else 0.0   # `device.usable_energy`
        # self._bin(usable)
        if usable < self.one_learner_cost:
            e_now = 0
        elif usable >= self.full:
            e_now = 3
        else:
            e_now = 1 if usable < self.half else 2
        e_last = self.e_last
        if e_last is None:
            e_last = self._bin(usable)
        p = device.p_harv
        t1, t2 = self.power_thresholds
        p_bin = 0 if p < t1 else 1 if p < t2 else 2
        return (((e_now * ENERGY_LEVELS + e_last) * POWER_LEVELS + p_bin)
                * self.n1 + l)

    def record_post_inference(self, device: Device):
        usable = device.energy - self.cutoff
        history = self.history
        history.append((usable if usable > 0.0 else 0.0) / self.max_usable)
        if len(history) > E_LAST_WINDOW:
            del history[0]
        # fsum is correctly rounded on every Python; `sum` compensates only
        # from 3.12 on, so the q-table would depend on the Python version
        self.e_last = self._bin(math.fsum(history) / len(history) * self.max_usable)


def make_device(env: EnvConfig) -> Device:
    return Device(cap=env.capacitor, trace=env.trace, cost_model=env.cost_model)


# how a request ends
OFF = "off"            # the device is below cutoff at arrival
STOP = "stop"          # the agent chose a=0
BROWNOUT = "brownout"  # the store could not cover the next learner


class Agent:
    """The decision and hooks `replay` calls; the hooks default to no-ops."""

    def arrive(self, i: int, t: float):
        """Request i arrives; the device has advanced to its time t."""

    def decide(self, s: int) -> int:
        """1 runs the next learner, 0 stops; must be 0 at l = N. s is the
        state index from `StateTracker.observe`: l = s % (N + 1) learners have
        run this request, and e_now = s // (12 * (N + 1)) is the energy bin now."""
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
    tracker = StateTracker(device.cap, max(costs), env.power_thresholds, len(costs))
    # the calls of every request, bound once
    advance, draw, cutoff = device.advance, device.draw, device.cap.cutoff_energy
    observe, record = tracker.observe, tracker.record_post_inference
    arrive, decide, ran, done = agent.arrive, agent.decide, agent.ran, agent.done
    period = env.requests.period
    for i in range(env.request_count):
        t = period + i * period
        advance(t)
        arrive(i, t)
        if not device.energy >= cutoff:   # the device is off
            done(0, OFF)
            continue
        l, end = 0, STOP
        while decide(observe(device, l)):
            if not draw(costs[l]):
                end = BROWNOUT
                break
            ran(l)
            l += 1
        if l > 0:
            record(device)
        done(l, end)
    advance(env.horizon)


RAW_BLOCK = 256   # PCG64 words `_Draws` reads per `random_raw` call


class _Draws:
    """`np.random.default_rng(seed)`'s `random()` and `integers(0, 2)`, bit
    for bit, decoded in Python from the PCG64 words, which it reads in
    blocks of `RAW_BLOCK`; the words past the last draw go unused.

    `random()` is the top 53 bits of a word over 2**53. A 32-bit draw takes
    the low half of a fresh word and keeps the high half for the next one;
    `random()` leaves the kept half alone. `integers(0, 2)` is Lemire's
    multiply-shift on a 32-bit draw u, (2 * u) >> 32, which never rejects
    on range 2: the top bit of u."""

    def __init__(self, seed):
        self._word = self._words(np.random.PCG64(seed)).__next__
        self._kept = None   # the top bit of the kept high half

    @staticmethod
    def _words(bits):
        while True:
            yield from bits.random_raw(RAW_BLOCK).tolist()

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53

    def coin(self) -> int:
        """`int(integers(0, 2))`."""
        bit = self._kept
        if bit is None:
            word = self._word()
            self._kept = word >> 63
            return (word >> 31) & 1
        self._kept = None
        return bit


class _QLearner(Agent):
    """Epsilon-greedy exploration with one-step Q-updates for one episode,
    on the table's rows as lists of floats; rng is a `_Draws`."""

    def __init__(self, rows, n, hyper: QHyperParams, params: RewardParams,
                 device: Device, rng, epsilon):
        self.rows = rows
        self.n = n
        self.hyper = hyper
        self.params = params
        self.device = device
        self.rng = rng
        self.epsilon = epsilon
        self.total_reward = 0.0
        self.pending = None  # (s, a, reward) awaiting its successor state
        # what every decision reads, bound once
        self._n1 = n + 1
        self._alpha, self._gamma = hyper.learning_rate, hyper.discount
        self._delta_acc, self._beta = params.delta_acc, params.beta
        self._p_miss = params.p_miss
        self._cutoff = device.cap.cutoff_energy
        self._max_usable = device.cap.max_usable_energy
        self._random = rng.random

    def decide(self, s):
        """One decision in one pass: the pending transition's update, the
        action and its reward, each inlined from the function it equals."""
        rows, n1 = self.rows, self._n1
        l = s % n1
        row = rows[s]
        pending = self.pending
        if pending is not None:
            # q_update(rows, n1, hyper, *pending, s)
            q0, q1 = row
            bootstrap = q0 if l == n1 - 1 else q1 if q1 > q0 else q0
            if l == 0:
                bootstrap = self._gamma * bootstrap
            ps, pa, pr = pending
            prow = rows[ps]
            q = prow[pa]
            prow[pa] = q + self._alpha * (pr + bootstrap - q)
        if l == n1 - 1:
            a = 0   # a=1 is masked once all learners ran
        elif self._random() < self.epsilon:
            a = self.rng.coin()
        else:
            a = 1 if row[1] > row[0] else 0   # act(rows, n1, s), after the update
        # reward(l, a, params, device.usable_energy / max usable energy)
        if a == 1:
            usable = self.device.energy - self._cutoff
            r = self._delta_acc[l] - self._beta * (
                1.0 - (usable if usable > 0.0 else 0.0) / self._max_usable)
        else:
            r = -self._p_miss if l == 0 else 0.0
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
    n = ensemble_model.size
    table = QTable.zeros(n, hyper)
    rows = table.values.tolist()
    costs = [inference_cost(l.macs, env.cost_model) for l in ensemble_model.learners]
    rng = _Draws(seed)
    curve = []
    anneal_len = max(1, int(episodes * hyper.anneal_fraction))
    for episode in range(episodes):
        frac = min(1.0, episode / anneal_len)
        epsilon = hyper.epsilon_start + frac * (hyper.epsilon_end - hyper.epsilon_start)
        device = make_device(env)
        learner = _QLearner(rows, n, hyper, params, device, rng, epsilon)
        replay(env, device, costs, learner)
        if learner.pending is not None:
            q_update(rows, n + 1, hyper, *learner.pending, None)
        curve.append(learner.total_reward)
    table.values[:] = rows
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
        if not np.isfinite(values).all():
            raise ValueError("q-values must be finite")
        return QTable(values=values, n=n,
                      hyper=QHyperParams(**doc["hyperparameters"]))

    return artifacts.read_json(path, decode, version=QTABLE_VERSION)
