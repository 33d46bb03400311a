"""Discrete-event runtime: serves periodic inference requests on the
harvesting-powered device, executes the learner prefix chosen by a policy,
optionally interleaves FC-only retraining on the shared forward pass, and
accumulates mean-accuracy / failure-rate metrics.

A run takes two passes, since no decision reads a vote: the energy pass,
on the Q-trainer's request loop `qsched.replay`, decides and draws each
request's energy, and the scoring pass then applies its writes and votes.

Service is instantaneous in simulated time; "concurrent inference and
training" means one learner's forward pass is reused for both, not thread
parallelism.
"""
from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from . import artifacts
from .data import Dataset
from .energy import inference_cost
from .ensemble import EnsembleModel, checked_vote_weights, vote_batch
from .errors import ConfigError
from .nn import accuracy, fc_step, head, trunk
from .qsched import (BROWNOUT, ENERGY_LEVELS, OFF, POWER_LEVELS, STOP, Agent,
                     EnvConfig, QTable, act, make_device, replay)

RETRAIN_MODES = ("off", "high-energy", "low-energy", "auto")

# request outcomes
SERVED = "served"
MISS_OFF = "miss-off"            # device below cutoff at arrival
MISS_DECLINED = "miss-declined"  # policy stopped at l = 0
MISS_BROWNOUT = "miss-brownout"  # energy ran out mid-prefix
# the event of a request that ran no learner, by how `replay` says it ended
_MISSES = {OFF: MISS_OFF, STOP: MISS_DECLINED, BROWNOUT: MISS_BROWNOUT}


class QPolicy:
    """Greedy lookup into a trained table, on its rows as lists of floats,
    read once when the policy is built."""

    def __init__(self, table: QTable):
        self.table = table
        self.n = table.n
        self.name = "qtable"
        self._rows, self._n1 = table.values.tolist(), table.n + 1

    def decide(self, s: int) -> int:
        return act(self._rows, self._n1, s)


class FixedKPolicy:
    """Always executes min(k, N) learners when energy allows."""

    def __init__(self, k: int, n: int):
        self.k = min(k, n)
        self.n = n
        self.name = "all" if self.k >= n else f"fixed:{k}"

    def decide(self, s: int) -> int:
        return 1 if s % (self.n + 1) < self.k else 0


@dataclass
class SimConfig:
    env: EnvConfig
    ensemble: EnsembleModel
    dataset: Dataset
    policy: object
    seed: int = 0
    retrain_mode: str = "off"
    retrain_learning_rate: float = 0.05

    def __post_init__(self):
        if self.retrain_mode not in RETRAIN_MODES:
            raise ConfigError(f"unknown retrain mode {self.retrain_mode!r}")
        if self.dataset.class_count != self.ensemble.class_count:
            # a vote can only name the ensemble's classes
            raise ConfigError(f"the dataset has {self.dataset.class_count} classes "
                              f"but the ensemble was built for "
                              f"{self.ensemble.class_count}")
        if (isinstance(self.policy, (FixedKPolicy, QPolicy))
                and self.policy.n != self.ensemble.size):
            # a decision's state index lays out N + 1 prefix lengths
            raise ConfigError(f"the policy was built for {self.policy.n} learners "
                              f"but the ensemble has {self.ensemble.size}")


@dataclass
class SimReport:
    policy: str
    total_requests: int
    failures: int
    correct: int
    events: list                    # per-request dict rows
    learners_histogram: dict        # executed count -> requests
    retrain_events: int
    retrain_target_requests: int    # learner count set by the retrain target
    initial_energy: float
    harvested_energy: float
    consumed_energy: float
    final_energy: float
    seed: int

    @property
    def successes(self) -> int:
        return self.total_requests - self.failures

    @property
    def failure_rate(self):
        if self.total_requests == 0:
            return None
        return self.failures / self.total_requests

    @property
    def mean_accuracy(self):
        if self.successes == 0:
            return None
        return self.correct / self.successes

    def energy_closure_error(self) -> float:
        return abs(self.final_energy -
                   (self.initial_energy + self.harvested_energy - self.consumed_energy))

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "seed": self.seed,
            "total_requests": self.total_requests,
            "failures": self.failures,
            "successes": self.successes,
            "correct": self.correct,
            "failure_rate": self.failure_rate,
            "mean_accuracy": self.mean_accuracy,
            "learners_histogram": {str(k): v for k, v in
                                   sorted(self.learners_histogram.items())},
            "retrain_events": self.retrain_events,
            "retrain_target_requests": self.retrain_target_requests,
            "initial_energy_J": self.initial_energy,
            "harvested_energy_J": self.harvested_energy,
            "consumed_energy_J": self.consumed_energy,
            "final_energy_J": self.final_energy,
        }


def run(cfg: SimConfig, shared: dict = None) -> SimReport:
    """Policy-driven inference, with FC-only retraining per cfg.retrain_mode
    on the test split of cfg.dataset.  `shared`, from `run_many`, holds the
    `_Batches` of cfg's ensemble and dataset; without it the run builds its
    own."""
    batches = shared[id(cfg.ensemble), id(cfg.dataset)] if shared else _Batches(cfg)
    return _serve(cfg, batches)[0]


def run_many(cfgs):
    """A generator that `run`s each config in turn as it is iterated.  One
    `_Batches` for each distinct pair of ensemble and dataset objects among
    the configs is built before any run, and every run on that pair shares
    it."""
    pairs = {(id(cfg.ensemble), id(cfg.dataset)): cfg for cfg in cfgs}
    shared = {pair: _Batches(cfg) for pair, cfg in pairs.items()}
    return (run(cfg, shared) for cfg in cfgs)


def run_concurrent_training(cfg: SimConfig, drift_dataset: Dataset):
    """Inference plus FC-only retraining per the configured mode.

    Requests draw labeled samples from the drift dataset; one learner at a
    time is retrained, rotating round-robin across requests. Returns
    (SimReport, accuracy before, accuracy after) where the accuracy lists are
    per-learner on the drift eval split.
    """
    if cfg.retrain_mode == "off":
        raise ConfigError("run_concurrent_training requires a retrain mode")
    cfg = replace(cfg, dataset=drift_dataset)
    ex, ey = drift_dataset.split("eval")
    # one batch through each trunk, which an FC-only write never reaches;
    # its head is the batch's `forward`
    acts = [trunk(l, ex) for l in cfg.ensemble.learners]
    report, learners = _serve(cfg, _Batches(cfg))
    before = [accuracy(head(l, a), ey) for l, a in zip(cfg.ensemble.learners, acts)]
    after = [accuracy(head(l, a), ey) for l, a in zip(learners, acts)]
    return report, before, after


class _Batches:
    """Passes over the whole test split with the unretrained learners: per
    learner its trunk, which an FC-only write never reaches, and its head,
    whose rows are `nn.forward`'s on the split; per prefix length k in 1..N,
    the first k learners' votes."""

    def __init__(self, cfg: SimConfig):
        x = cfg.dataset.split("test")[0]
        learners, weights = cfg.ensemble.learners, cfg.ensemble.vote_weights
        self.trunks = [trunk(l, x) for l in learners]
        self.heads = [head(l, a) for l, a in zip(learners, self.trunks)]
        self.votes = {k: vote_batch(np.stack(self.heads[:k]), weights[:k])
                      for k in range(1, len(learners) + 1)}


class _EnergyPass(Agent):
    """The energy pass's decision and hooks on `replay`: each request leaves
    one events row, with the write drawn for it but no vote."""

    def __init__(self, cfg: SimConfig):
        self.device = make_device(cfg.env)
        self.costs = [inference_cost(l.macs, cfg.env.cost_model)
                      for l in cfg.ensemble.learners]
        self.test_size = cfg.dataset.split_size("test")
        # per e_now bin, the prefix length a retrain target runs (None: the policy decides)
        high, low = len(self.costs), max(len(self.costs) - 1, 1)
        self.targets = {"off": [None] * ENERGY_LEVELS, "auto": [None, low, high, high],
                        "high-energy": [high] * ENERGY_LEVELS,
                        "low-energy": [low] * ENERGY_LEVELS}[cfg.retrain_mode]
        self.retrain_cursor = 0
        self.target_requests = 0   # requests whose prefix the target decided
        self.events = []
        # what every decision and run reads, bound once
        self._n1 = len(self.costs) + 1
        self._per_e_now = ENERGY_LEVELS * POWER_LEVELS * self._n1   # states per e_now bin
        self._policy_decide = cfg.policy.decide
        self._retrain_fraction = cfg.env.cost_model.fc_retrain_energy_fraction

    def arrive(self, i, t):
        # requests cycle through the split so an unconstrained run reproduces
        # the offline split accuracy exactly
        self.row = {
            "time": t,
            "event": SERVED,
            "voltage": self.device.voltage,
            "p_harv": self.device.p_harv,
            "sample_index": i % self.test_size,
            "learners_run": 0,
            "retrained_learner": -1,
            "predicted": -1,
            "correct": 0,
            "inference_energy": 0.0,
            "retrain_energy": 0.0,
        }

    def decide(self, s):
        l = s % self._n1
        if l == 0:
            self.target = self.targets[s // self._per_e_now]
            self.retrain_idx = -1
            if self.target is not None:
                self.retrain_idx = self.retrain_cursor % self.target
                self.retrain_cursor += 1
                self.target_requests += 1
        if self.target is None:
            return self._policy_decide(s)
        return 1 if l < self.target else 0

    def ran(self, l):
        self.row["inference_energy"] += self.costs[l]
        if l == self.retrain_idx:
            increment = self._retrain_fraction * self.costs[l]
            if self.device.draw(increment):
                self.row["retrain_energy"] += increment
                self.row["retrained_learner"] = l

    def done(self, l, end):
        self.row["learners_run"] = l
        if l == 0:
            self.row["event"] = _MISSES[end]
        self.events.append(self.row)


def _score(cfg: SimConfig, events, batches: _Batches):
    """The scoring pass; returns the learners as the run leaves them.  Until
    the run's first write a vote is a lookup in `batches.votes`.  A write is
    a batch-1 `fc_step`, whose request votes on the step's pre-update
    output, and then one head batch of the written learner over the test
    split."""
    weights = checked_vote_weights(cfg.ensemble.vote_weights)
    labels = cfg.dataset.split("test")[1]
    # what `train_fc_only` checks and builds at every write, once per run:
    # the Dataset's labels are in range, and np.eye's rows are `_one_hot`'s,
    # in the dtype of the learners' trunk outputs, which is their parameters'
    dtype = batches.trunks[0].dtype
    one_hot = np.eye(cfg.dataset.class_count, dtype=dtype)[labels]
    unit = np.ones(1, dtype=dtype)
    # an FC-only step never writes in place: it gives the learner it
    # returns new FC arrays, so the input learners need no copy
    learners, heads = list(cfg.ensemble.learners), list(batches.heads)
    prefix_weights = [weights[:k] for k in range(len(weights) + 1)]
    votes = batches.votes   # None from the run's first write on
    for row in events:
        k, i, r = row["learners_run"], row["sample_index"], row["retrained_learner"]
        if r >= 0:
            learners[r], probs = fc_step(
                learners[r], batches.trunks[r][i:i + 1], one_hot[i:i + 1], unit,
                cfg.retrain_learning_rate)
            heads[r] = head(learners[r], batches.trunks[r])
            votes = None
        if k == 0:
            continue
        if votes is None:
            # np.array gives the C-order (k, classes) operand np.stack
            # gives, for less
            rows = [probs[0] if j == r else heads[j][i] for j in range(k)]
            pred = int((prefix_weights[k] @ np.array(rows)).argmax())
        else:
            pred = int(votes[k][i])
        row["predicted"] = pred
        row["correct"] = int(pred == labels[i])
    return learners


def _serve(cfg: SimConfig, batches: _Batches):
    energy = _EnergyPass(cfg)
    replay(cfg.env, energy.device, energy.costs, energy)
    events, device = energy.events, energy.device
    learners = _score(cfg, events, batches)
    failures = correct = retrain_events = 0
    histogram = Counter()   # over the requests the device was on for
    for row in events:
        event = row["event"]
        failures += event != SERVED
        if event != MISS_OFF:
            histogram[row["learners_run"]] += 1
        correct += row["correct"]
        retrain_events += row["retrained_learner"] >= 0
    report = SimReport(
        policy=getattr(cfg.policy, "name", cfg.retrain_mode),
        total_requests=len(events),
        failures=failures,
        correct=correct,
        events=events,
        learners_histogram=histogram,
        retrain_events=retrain_events,
        retrain_target_requests=energy.target_requests,
        initial_energy=cfg.env.capacitor.energy,
        harvested_energy=device.harvested,
        consumed_energy=device.consumed,
        final_energy=device.energy,
        seed=cfg.seed,
    )
    return report, learners


# ---------------------------------------------------------------------------
# rendering

EVENT_FIELDS = ["time", "event", "voltage", "p_harv", "sample_index",
                "learners_run", "retrained_learner", "predicted", "correct",
                "inference_energy", "retrain_energy"]


def write_events(report: SimReport, file):
    """Write the report's events table to the open text file, row by row:
    the `EVENT_FIELDS` header, then one line per request, floats by `repr`.
    No events cell is ever None."""
    writer = csv.writer(file, lineterminator="\n")
    writer.writerow(EVENT_FIELDS)
    writer.writerows(map(itemgetter(*EVENT_FIELDS), report.events))


def events_csv(report: SimReport) -> str:
    """The events table `write_events` writes, as one string."""
    buf = io.StringIO()
    write_events(report, buf)
    return buf.getvalue()


def failure_rate_reduction(report: SimReport, baseline: SimReport):
    if baseline.failure_rate in (None, 0.0) or report.failure_rate is None:
        return None
    return 1.0 - report.failure_rate / baseline.failure_rate


def report_document(report: SimReport, baseline: SimReport = None) -> dict:
    """What `report.json` holds: the report, and against a baseline run,
    the baseline's policy and failure rate and the reduction from it."""
    d = report.to_dict()
    if baseline is not None:
        d["baseline_policy"] = baseline.policy
        d["baseline_failure_rate"] = baseline.failure_rate
        d["failure_rate_reduction_vs_baseline"] = failure_rate_reduction(report, baseline)
    return d


def render_report(report: SimReport, fmt="text", baseline: SimReport = None) -> str:
    d = report_document(report, baseline)
    if fmt == "json":
        return artifacts.json_text(d)
    if fmt == "csv":
        # no nested dict, and no baseline rate column: it is one row per policy
        keys = sorted(k for k in d if k not in ("learners_histogram",
                                                "baseline_failure_rate"))
        return artifacts.csv_text(keys, [[d[k] for k in keys]])
    if fmt == "text":
        lines = [f"policy: {d['policy']} (seed {d['seed']})",
                 f"requests: {d['total_requests']}  failures: {d['failures']}",
                 f"failure rate: {_na(d['failure_rate'])}",
                 f"mean accuracy: {_na(d['mean_accuracy'])}",
                 f"learners per request: {d['learners_histogram']}",
                 f"retrain events: {d['retrain_events']}",
                 f"requests decided by the retrain target, not the policy: "
                 f"{d['retrain_target_requests']}",
                 (f"energy J: start {d['initial_energy_J']:.4f} "
                  f"harvested {d['harvested_energy_J']:.4f} "
                  f"consumed {d['consumed_energy_J']:.4f} "
                  f"final {d['final_energy_J']:.4f}")]
        if baseline is not None:
            lines.append("failure-rate reduction vs "
                         f"{baseline.policy}: {_na(d['failure_rate_reduction_vs_baseline'])}")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown report format {fmt!r}")


def _na(v):
    return "n/a" if v is None else f"{v:.4f}"
