"""Discrete-event runtime: serves periodic inference requests on the
harvesting-powered device, executes the learner prefix chosen by a policy,
optionally interleaves FC-only retraining on the shared forward pass, and
accumulates mean-accuracy / failure-rate metrics.

The request loop is `qsched.replay`, the one the Q-trainer steps too; this
module supplies its decision and its forward, retrain and vote hooks.

Service is instantaneous in simulated time; "concurrent inference and
training" means one learner's forward pass is reused for both, not thread
parallelism.

Requests cycle through the test split, so runs memoize per learner
(`_Memos`): the first time a command uses a learner, one batched `trunk`
pass gives the activations of the whole split entering its head, and one
batched `head` pass over them gives the unretrained learner's
probabilities, row for row those of `nn.forward` on the split.  Votes are
memoized per sample and prefix length.  The memos live for one `run`,
`run_many` or `run_concurrent_training` call, never longer, and `run_many`
shares them between its runs: `enboost simulate` computes each trunk once
for all its policies.  The trunk memo holds in every run, with or without
retraining, because an FC-only write never reaches it.  The probabilities
and votes are those of the unretrained learners, so a run that retrains
learner l gives l, and its votes, private memos that no other run sees:
after each FC-only write, the first vote that reads l runs one batched
`head` of l's trunk batch, and later votes read its rows until l's next
write.  The write itself is a batch-1 step on l's row of the trunk batch,
whose pre-update probabilities this request's vote reads, and it computes
no loss.  A run checks the ensemble's vote weights once, and warns once if
all are <= 0; each vote is then one product and an argmax.
`run_concurrent_training` scores the drift accuracies with one batched
trunk pass per learner over the eval split and a head pass before and
after.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import artifacts
from .data import Dataset
from .energy import inference_cost
from .ensemble import EnsembleModel, checked_vote_weights
from .errors import ConfigError
from .nn import accuracy, head, train_fc_only, trunk
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
    """Greedy lookup into a trained table."""

    def __init__(self, table: QTable):
        self.table = table
        self.name = "qtable"

    def decide(self, s: int) -> int:
        return act(self.table.values, self.table.n + 1, s)


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


@dataclass
class SimReport:
    policy: str
    total_requests: int
    failures: int
    correct: int
    events: list                    # per-request dict rows
    learners_histogram: dict        # executed count -> requests
    retrain_events: int
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
            "initial_energy_J": self.initial_energy,
            "harvested_energy_J": self.harvested_energy,
            "consumed_energy_J": self.consumed_energy,
            "final_energy_J": self.final_energy,
        }


def _round_robin_mode(mode, e_now):
    if mode == "auto":
        if e_now >= 2:
            return "high-energy"
        if e_now == 1:
            return "low-energy"
        return "off"
    return mode


def run(cfg: SimConfig) -> SimReport:
    """Policy-driven inference, with FC-only retraining per cfg.retrain_mode
    on the test split of cfg.dataset."""
    return run_many([cfg])[0]


def run_many(cfgs) -> list:
    """`run` each config in turn.  Runs on the same ensemble and dataset
    objects share one `_Memos` for this call, so each learner's trunk
    batch, and each unretrained learner's probabilities, is computed once
    for all."""
    memos = {}
    return [_serve(cfg, memos.setdefault((id(cfg.ensemble), id(cfg.dataset)),
                                         _Memos(cfg.ensemble.size)))[0]
            for cfg in cfgs]


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
    # at equal batch size its head is the batch's forward pass bit for bit
    acts = [trunk(l, ex) for l in cfg.ensemble.learners]
    report, learners = _serve(cfg, _Memos(cfg.ensemble.size))
    before = [accuracy(head(l, a), ey) for l, a in zip(cfg.ensemble.learners, acts)]
    after = [accuracy(head(l, a), ey) for l, a in zip(learners, acts)]
    return report, before, after


class _Memos:
    """Results that runs over one ensemble's learners and one test split can
    share, each filled the first time a run needs it.

    Per learner, `trunk` holds the activations of the whole split entering
    the head, one batch, and `probs` the unretrained learner's `head` of that
    batch, whose rows are `forward(l, test_x)`'s bit for bit; `votes` maps
    (sample index, learners run) to the unretrained vote.  A run that
    retrains learner l keeps l's `head` batch privately instead
    (`_Server.own_probs`)."""

    def __init__(self, n):
        self.trunk = [None] * n
        self.probs = [None] * n
        self.votes = {}


class _Server(Agent):
    """The simulator's decision and hooks on `replay`: the policy or the
    retrain target decides, each learner that runs does a forward pass (one
    of them also retrains), and the vote fills one events row per request.

    The trunk memo is shared for the whole run and with the other runs of
    the command, because an FC-only write never reaches it. The probability
    and vote memos are shared only while they hold the unretrained learners'
    outputs: once learner l is retrained, this run reads l's probabilities
    from a private memo, one `head` batch over l's trunk batch, and its
    votes from a private vote memo; each retrain of l empties l's batch,
    and every retrain empties the vote memo, so no other run can see the
    rewritten learner and no vote reads a stale one."""

    def __init__(self, cfg: SimConfig, memos: _Memos):
        self.cfg = cfg
        self.device = make_device(cfg.env)
        self.costs = [inference_cost(l.macs, cfg.env.cost_model)
                      for l in cfg.ensemble.learners]
        # an FC-only step never writes in place: it gives the learner it
        # returns new FC arrays, so the input learners need no copy
        self.learners = list(cfg.ensemble.learners)
        self.vote_weights = checked_vote_weights(cfg.ensemble.vote_weights)
        self.trunk = memos.trunk
        self.probs = memos.probs
        # retrained learner -> its head batch, None until a vote after its
        # latest FC-only write needs it
        self.own_probs = {}
        self.votes = memos.votes
        self.sx, self.sy = cfg.dataset.split("test")
        self.retrain_cursor = 0
        self.events = []

    def arrive(self, i, t):
        # requests cycle through the split so an unconstrained run reproduces
        # the offline split accuracy exactly
        sample_idx = i % len(self.sy)
        self.row = {
            "time": t,
            "event": SERVED,
            "voltage": self.device.voltage,
            "p_harv": self.device.p_harv,
            "sample_index": sample_idx,
            "learners_run": 0,
            "retrained_learner": -1,
            "predicted": -1,
            "correct": 0,
            "inference_energy": 0.0,
            "retrain_energy": 0.0,
        }
        self.label = int(self.sy[sample_idx])
        self.pre_update = None   # (l, probabilities) of this request's retrain

    def decide(self, s):
        n = len(self.costs)
        l = s % (n + 1)
        if l == 0:
            e_now = s // (ENERGY_LEVELS * POWER_LEVELS * (n + 1))
            mode = _round_robin_mode(self.cfg.retrain_mode, e_now)
            self.target = {"high-energy": n, "low-energy": max(n - 1, 1)}.get(mode)
            self.retrain_idx = -1
            if self.target is not None:
                self.retrain_idx = self.retrain_cursor % self.target
                self.retrain_cursor += 1
        if self.target is None:
            return self.cfg.policy.decide(s)
        return 1 if l < self.target else 0

    def _trunk(self, l):
        acts = self.trunk[l]
        if acts is None:
            acts = self.trunk[l] = trunk(self.learners[l], self.sx)
        return acts

    def _probs(self, l, i):
        # a row of l's head batch: shared while l is unretrained, private after
        memo = self.own_probs if l in self.own_probs else self.probs
        probs = memo[l]
        if probs is None:
            probs = memo[l] = head(self.learners[l], self._trunk(l))
        return probs[i]

    def _vote(self, i, l, r=-1, pre_update=None):
        # the weighted vote, on weights checked once for the run; np.array
        # gives the C-order (l, classes) operand np.stack gives, for less
        probs = [pre_update if j == r else self._probs(j, i) for j in range(l)]
        return int((self.vote_weights[:l] @ np.array(probs)).argmax())

    def ran(self, l):
        row = self.row
        row["inference_energy"] += self.costs[l]
        if l != self.retrain_idx:
            return
        increment = self.cfg.env.cost_model.fc_retrain_energy_fraction * self.costs[l]
        if self.device.draw(increment):
            # shared forward pass: the vote uses the pre-update outputs
            i = row["sample_index"]
            self.learners[l], probs = train_fc_only(
                self.learners[l], self._trunk(l)[i:i + 1],
                [self.label], [1.0], self.cfg.retrain_learning_rate)
            self.pre_update = (l, probs[0])
            self.own_probs[l] = None
            self.votes = {}
            row["retrain_energy"] += increment
            row["retrained_learner"] = l

    def done(self, l, end):
        row = self.row
        row["learners_run"] = l
        if l == 0:
            row["event"] = _MISSES[end]
        else:
            i = row["sample_index"]
            if self.pre_update is None:
                pred = self.votes.get((i, l))
                if pred is None:
                    pred = self.votes[(i, l)] = self._vote(i, l)
            else:   # a vote on pre-update outputs holds for this request only
                pred = self._vote(i, l, *self.pre_update)
            row["predicted"] = pred
            row["correct"] = int(pred == self.label)
        self.events.append(row)


def _serve(cfg: SimConfig, memos: _Memos):
    server = _Server(cfg, memos)
    replay(cfg.env, server.device, server.costs, server)
    events, device = server.events, server.device
    report = SimReport(
        policy=getattr(cfg.policy, "name", cfg.retrain_mode),
        total_requests=len(events),
        failures=sum(row["event"] != SERVED for row in events),
        correct=sum(row["correct"] for row in events),
        events=events,
        learners_histogram=Counter(row["learners_run"] for row in events
                                   if row["event"] != MISS_OFF),
        retrain_events=sum(row["retrained_learner"] >= 0 for row in events),
        initial_energy=cfg.env.capacitor.energy,
        harvested_energy=device.harvested,
        consumed_energy=device.consumed,
        final_energy=device.energy,
        seed=cfg.seed,
    )
    return report, server.learners


# ---------------------------------------------------------------------------
# rendering

EVENT_FIELDS = ["time", "event", "voltage", "p_harv", "sample_index",
                "learners_run", "retrained_learner", "predicted", "correct",
                "inference_energy", "retrain_energy"]


def events_csv(report: SimReport) -> str:
    return artifacts.csv_text(EVENT_FIELDS,
                              ([row[k] for k in EVENT_FIELDS] for row in report.events))


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
