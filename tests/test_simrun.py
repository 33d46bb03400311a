"""Request-serving simulation: outcomes, energy accounting, concurrent
FC retraining, and report rendering."""
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import (PolicyAgent, bits, discretize_energy, discretize_power,
                      power_at, tiny_spec, weighted_vote)
from enboost import qsched, simrun
from enboost.boost import PoolConfig, build_pool
from enboost.data import drift_dataset, synth_dataset
from enboost.energy import (Capacitor, CostModel, PowerTrace, RequestPattern,
                            inference_cost, synth_trace)
from enboost.ensemble import backfit_select, subset_accuracy, vote_batch
from enboost.errors import ConfigError
from enboost.nn import evaluate, fc_step, forward, head, train_fc_only, trunk
from enboost.qsched import (POWER_LEVELS, EnvConfig, QTable, RewardParams, replay,
                            make_device)
from enboost.simrun import (MISS_DECLINED, MISS_OFF, SERVED, FixedKPolicy,
                            QPolicy, SimConfig, events_csv,
                            failure_rate_reduction, render_report, run,
                            run_concurrent_training, run_many, _EnergyPass)


@pytest.fixture(scope="module")
def small_model():
    ds = synth_dataset(seed=5, classes=3, samples_per_class=24,
                       shape=(2, 8, 8), noise=0.5)
    cfg = PoolConfig(pool_size=3, ensemble_size=2, train_epochs=12,
                     learning_rate=0.1,
                     retrain_epochs_per_step=1,
                     seed=0)
    pool, _ = build_pool(tiny_spec(), ds, cfg)
    ex, ey = ds.split("eval")
    return backfit_select(pool, 2, ex, ey), ds


def make_env(model, trace, period, horizon, cap=None):
    return EnvConfig(
        capacitor=cap or Capacitor(capacitance=0.01),
        trace=trace,
        cost_model=CostModel(),
        requests=RequestPattern(period=period, horizon=horizon),
        reward=RewardParams(delta_acc=tuple(model.delta_acc)))


def abundant(model, requests, period=1.0):
    trace = synth_trace(0, "constant", duration=requests * period + period,
                        constant_power=0.05)
    return make_env(model, trace, period, requests * period)


def test_unconstrained_run_reproduces_split_accuracy(small_model):
    model, ds = small_model
    tx, ty = ds.split("test")
    env = abundant(model, requests=2 * len(ty))
    cfg = SimConfig(env=env, ensemble=model, dataset=ds,
                    policy=FixedKPolicy(model.size, model.size))
    report = run(cfg)
    assert report.total_requests == 2 * len(ty)
    assert report.failures == 0
    assert report.learners_histogram == {model.size: 2 * len(ty)}
    # every test sample served exactly twice with the full vote
    probs = np.stack([forward(l, tx) for l in model.learners])
    offline = subset_accuracy(probs, model.vote_weights, ty)
    assert abs(report.mean_accuracy - offline) < 1e-12
    assert report.energy_closure_error() < 1e-6


def test_zero_power_run_goes_dark(small_model):
    model, ds = small_model
    trace = synth_trace(0, "constant", duration=100.0, constant_power=0.0)
    env = make_env(model, trace, period=1.0, horizon=100.0,
                   cap=Capacitor(capacitance=1e-3, voltage=1.8))
    report = run(SimConfig(env=env, ensemble=model, dataset=ds,
                           policy=FixedKPolicy(model.size, model.size)))
    kinds = [e["event"] for e in report.events]
    assert MISS_OFF in kinds
    first_off = kinds.index(MISS_OFF)
    assert all(k == MISS_OFF for k in kinds[first_off:])  # no harvest: stays off
    assert report.failures >= len(kinds) - first_off
    assert report.energy_closure_error() < 1e-6


def test_failure_count_monotone_in_request_rate(small_model):
    model, ds = small_model
    trace = synth_trace(0, "day-night", duration=800.0, period=200.0,
                        high_power=5e-5)
    cap = Capacitor(capacitance=2e-3, voltage=2.5)
    failures = []
    for period in (8.0, 4.0, 2.0):
        env = make_env(model, trace, period=period, horizon=800.0, cap=cap)
        report = run(SimConfig(env=env, ensemble=model, dataset=ds,
                               policy=FixedKPolicy(model.size, model.size)))
        assert report.energy_closure_error() < 1e-6
        failures.append(report.failures)
    assert failures[0] <= failures[1] <= failures[2]
    assert failures[-1] > 0


def test_run_matches_bare_stepper(small_model):
    model, ds = small_model
    trace = synth_trace(0, "day-night", duration=800.0, period=200.0,
                        high_power=5e-5)
    env = make_env(model, trace, period=2.0, horizon=800.0,
                   cap=Capacitor(capacitance=2e-3, voltage=2.5))
    costs = [inference_cost(l.macs, env.cost_model) for l in model.learners]
    for k in (1, model.size):
        policy = FixedKPolicy(k, model.size)
        cfg = SimConfig(env=env, ensemble=model, dataset=ds, policy=policy)
        report = run(cfg)
        device = make_device(env)
        agent = PolicyAgent(policy.decide)
        replay(env, device, costs, agent)
        assert [e["learners_run"] for e in report.events] == agent.runs
        assert report.final_energy == device.energy
        assert report.failures > 0


def test_requests_on_power_changes_see_the_new_power(small_model, monkeypatch):
    # a CSV-style trace with samples every 0.5 s from 2 s, whose power
    # changes every 6 s (every third request) and repeats between changes;
    # the device starts before the trace, where its first sample holds
    model, ds = small_model
    times = 2.0 + 0.5 * np.arange(120)
    levels = np.array([0.0, 0.02, 0.005, 0.03])
    trace = PowerTrace(times=times, power=levels[(times // 6.0).astype(int) % 4])
    env = make_env(model, trace, period=2.0, horizon=trace.horizon)
    binned = []
    observe = qsched.StateTracker.observe

    def spy(self, device, l):
        s = observe(self, device, l)
        binned.append((device.t, s // (model.size + 1) % POWER_LEVELS))
        return s

    monkeypatch.setattr(qsched.StateTracker, "observe", spy)
    report = run(SimConfig(env=env, ensemble=model, dataset=ds, retrain_mode="off",
                           policy=FixedKPolicy(model.size, model.size)))
    request_times = [e["time"] for e in report.events]
    assert set(trace.changes[0][1:]) <= set(request_times)
    assert [e["p_harv"] for e in report.events] == [power_at(trace, t)
                                                     for t in request_times]
    assert {t for t, _ in binned} == set(request_times)
    assert all(p == discretize_power(power_at(trace, t), env.power_thresholds)
               for t, p in binned)


def counted_trunk(monkeypatch):
    """Learner ids of the single-sample `simrun.trunk` calls, and (learner
    id, batch size) of the batched ones."""
    single, batched = [], []

    def counted(learner, x):
        if np.ndim(x) == 3 or len(x) == 1:
            single.append(learner.id)
        else:
            batched.append((learner.id, len(x)))
        return trunk(learner, x)

    monkeypatch.setattr(simrun, "trunk", counted)
    return single, batched


def test_run_forwards_each_learner_sample_once(small_model, monkeypatch):
    model, ds = small_model
    split = ds.split_size("test")
    single, batched = counted_trunk(monkeypatch)
    report = run(SimConfig(env=abundant(model, requests=3 * split), ensemble=model,
                           dataset=ds, policy=FixedKPolicy(model.size, model.size)))
    assert report.learners_histogram == {model.size: 3 * split}
    # one batch over the test split per learner, and no batch-1 trunk
    assert single == []
    assert batched == [(l.id, split) for l in model.learners]


def test_retraining_runs_each_learner_trunk_once_per_sample(small_model, monkeypatch):
    # an FC-only write never reaches the trunk, so its activations outlive
    # every retrain; test_retrained_learner_is_forwarded_again checks the bits
    model, ds = small_model
    drift = drift_dataset(ds)
    split = ds.split_size("test")
    single, batched = counted_trunk(monkeypatch)
    cfg = SimConfig(env=abundant(model, requests=4 * split), ensemble=model,
                    dataset=ds, policy=FixedKPolicy(model.size, model.size),
                    retrain_mode="high-energy", retrain_learning_rate=0.5)
    report, _, _ = run_concurrent_training(cfg, drift)
    assert report.retrain_events == report.total_requests == 4 * split
    assert single == []
    # the drift evaluation runs each trunk once, on the whole eval split,
    # and serving once, on the whole test split
    assert batched == ([(l.id, drift.split_size("eval")) for l in model.learners] +
                       [(l.id, split) for l in model.learners])


def test_run_many_shares_trunks_and_matches_separate_runs(small_model, monkeypatch):
    # runs after a retraining run must still read the unretrained learners
    model, ds = small_model
    split = ds.split_size("test")
    env = abundant(model, requests=3 * split)
    cfgs = [SimConfig(env=env, ensemble=model, dataset=ds,
                      policy=FixedKPolicy(k, model.size), retrain_mode=mode,
                      retrain_learning_rate=0.5)
            for mode in ("off", "high-energy", "off") for k in (1, model.size)]
    alone = [run(cfg) for cfg in cfgs]
    single, batched = counted_trunk(monkeypatch)
    shared = list(run_many(cfgs))
    assert single == []
    assert batched == [(l.id, split) for l in model.learners]
    assert [r.retrain_events for r in shared] == [0, 0, 3 * split, 3 * split, 0, 0]
    for a, b in zip(alone, shared):
        assert a.to_dict() == b.to_dict()
        assert events_csv(a) == events_csv(b)


def counted_votes(monkeypatch):
    """(prefix length, prob stack, votes) of each `simrun.vote_batch` call."""
    calls = []

    def counted(prob_stack, vote_weights):
        votes = vote_batch(prob_stack, vote_weights)
        calls.append((len(vote_weights), prob_stack, votes))
        return votes

    monkeypatch.setattr(simrun, "vote_batch", counted)
    return calls


def test_unretrained_votes_use_rows_of_the_batched_forward(small_model, monkeypatch):
    # every probability vector a vote reads for an unretrained learner is, bit
    # for bit, its row of the forward pass over the whole test split
    model, ds = small_model
    n, split = model.size, ds.split_size("test")
    sx, _ = ds.split("test")
    offline = [bits(forward(l, sx)) for l in model.learners]
    calls = counted_votes(monkeypatch)
    env = abundant(model, requests=2 * split)
    reports = list(run_many([SimConfig(env=env, ensemble=model, dataset=ds,
                                       policy=FixedKPolicy(k, n)) for k in (1, n)]))
    seen = set()
    tables = {}
    for k, stack, votes in calls:
        for l in range(k):
            assert np.array_equal(bits(stack[l]), offline[l])
            seen.update((l, i) for i in range(split))
        tables[k] = votes
    assert seen == {(l, i) for l in range(n) for i in range(split)}
    # and each vote is its table's
    for report in reports:
        for row in report.events:
            assert row["predicted"] == tables[row["learners_run"]][row["sample_index"]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_retraining_keeps_the_learners_dtype(small_model, monkeypatch, dtype):
    # a float32 ensemble stays float32 through every write, and a float64
    # one (a pool written before float32) serves and retrains in float64
    model, ds = small_model
    learners = [replace(l, params=[None if p is None else (p[0].astype(dtype),
                                                           p[1].astype(dtype))
                                   for p in l.params]) for l in model.learners]
    model = replace(model, learners=learners)
    seen = []

    def stepped(learner, acts, y_onehot, weights, lr):
        assert acts.dtype == y_onehot.dtype == weights.dtype == dtype
        out, probs = fc_step(learner, acts, y_onehot, weights, lr)
        seen.append({probs.dtype} | {a.dtype for p in out.params if p is not None
                                     for a in p})
        return out, probs

    monkeypatch.setattr(simrun, "fc_step", stepped)
    cfg = SimConfig(env=abundant(model, requests=ds.split_size("test")),
                    ensemble=model, dataset=ds, policy=FixedKPolicy(2, 2),
                    retrain_mode="high-energy")
    report, before, after = run_concurrent_training(cfg, drift_dataset(ds))
    assert len(seen) == report.retrain_events > 0
    assert all(s == {np.dtype(dtype)} for s in seen)


def test_run_many_votes_one_table_per_prefix_length(small_model, monkeypatch):
    # a command builds one vote table per prefix length 1..N before any run,
    # whatever the number of runs and the lengths they use (none here uses 2)
    model, ds = small_model
    three = replace(model, learners=model.learners + model.learners[:1],
                    vote_weights=model.vote_weights + model.vote_weights[:1])
    n, split = three.size, ds.split_size("test")
    env = abundant(model, requests=2 * split)
    for ks in ((1,), (1, n, 1, n)):
        calls = counted_votes(monkeypatch)
        reports = list(run_many([SimConfig(env=env, ensemble=three, dataset=ds,
                                           policy=FixedKPolicy(k, n)) for k in ks]))
        assert [r.learners_histogram for r in reports] == [{k: 2 * split} for k in ks]
        assert [k for k, _, _ in calls] == [1, 2, 3]


def test_retrained_learners_run_one_head_batch_per_write(small_model, monkeypatch):
    # a vote reads a retrained learner from one head over the test split,
    # run once per FC-only write; the write runs its own batch-1 step
    model, ds = small_model
    n, split = model.size, ds.split_size("test")
    drift = drift_dataset(ds)
    sizes = []

    def counted(learner, acts):
        sizes.append(len(acts))
        return head(learner, acts)

    monkeypatch.setattr(simrun, "head", counted)
    cfg = SimConfig(env=abundant(model, requests=4 * split), ensemble=model,
                    dataset=ds, policy=FixedKPolicy(n, n),
                    retrain_mode="high-energy", retrain_learning_rate=0.5)
    report, _, _ = run_concurrent_training(cfg, drift)
    assert report.retrain_events == report.total_requests == 4 * split
    # the drift accuracies: one eval-split head per learner before, one after
    serving, scoring = sizes[:-2 * n], sizes[-2 * n:]
    assert scoring == [drift.split_size("eval")] * (2 * n)
    assert set(serving) == {split}
    assert len(serving) == n + report.retrain_events


def test_retrained_votes_use_rows_of_the_batched_head(small_model, monkeypatch):
    # every probability vector a vote reads from a head batch is, bit for
    # bit, its row of the head over the whole test split of the learner as
    # its latest write left it; every retrained learner is read on every sample
    model, ds = small_model
    n, split = model.size, ds.split_size("test")
    drift = drift_dataset(ds)
    sx, _ = drift.split("test")
    slot = {l.id: j for j, l in enumerate(model.learners)}
    latest = list(model.learners)
    seen = set()

    class Rows(np.ndarray):
        def __getitem__(self, i):
            if isinstance(i, int) and self.ndim == 2:
                j = slot[self.learner.id]
                assert self.learner is latest[j]
                want = head(self.learner, trunk(self.learner, sx))[i]
                row = np.asarray(super().__getitem__(i))
                assert np.array_equal(bits(row), bits(want))
                if self.learner is not model.learners[j]:
                    seen.add((j, i))
            return super().__getitem__(i)

    def rows(learner, acts):
        batch = head(learner, acts).view(Rows)
        batch.learner = learner
        return batch

    def stepped(learner, *args):
        out = fc_step(learner, *args)
        latest[slot[learner.id]] = out[0]
        return out

    monkeypatch.setattr(simrun, "head", rows)
    monkeypatch.setattr(simrun, "fc_step", stepped)
    cfg = SimConfig(env=abundant(model, requests=4 * split), ensemble=model,
                    dataset=ds, policy=FixedKPolicy(n, n),
                    retrain_mode="high-energy", retrain_learning_rate=0.5)
    run_concurrent_training(cfg, drift)
    assert seen == {(l, i) for l in range(n) for i in range(split)}


def test_run_many_keeps_memos_apart_for_other_ensembles_and_datasets(small_model):
    model, ds = small_model
    n = model.size
    reordered = replace(model, learners=model.learners[::-1],
                        vote_weights=model.vote_weights[::-1])
    other = synth_dataset(seed=6, classes=3, samples_per_class=24,
                          shape=(2, 8, 8), noise=0.5)
    env = abundant(model, requests=2 * ds.split_size("test"))
    cfgs = [SimConfig(env=env, ensemble=m, dataset=d, policy=FixedKPolicy(k, n))
            for m, d, k in ((model, ds, n), (model, ds, 1), (reordered, ds, 1),
                            (model, other, n))]
    for cfg, report in zip(cfgs, run_many(cfgs)):
        assert events_csv(run(cfg)) == events_csv(report)


def test_memos_hold_across_retrains_and_runs(small_model):
    # a retrain costs ten learners, so the first run retrains for its first
    # requests, while the harvest is high, and then only votes, also on
    # samples it voted on while retraining them.  Its predictions must come
    # from its learners at each request, and the runs after it, which share
    # its batches, must see the unretrained learners
    model, ds = small_model
    n = model.size
    trace = PowerTrace(times=[0.0, 10.0, 300.0], power=[1e-3, 2e-4, 2e-4])
    env = EnvConfig(capacitor=Capacitor(capacitance=1e-3), trace=trace,
                    cost_model=CostModel(fc_retrain_energy_fraction=10.0),
                    requests=RequestPattern(period=1.0, horizon=300.0),
                    reward=RewardParams(delta_acc=tuple(model.delta_acc)))
    drift = drift_dataset(ds)
    cfgs = [SimConfig(env=env, ensemble=model, dataset=drift,
                      policy=FixedKPolicy(k, n), retrain_mode=mode,
                      retrain_learning_rate=0.5)
            for mode, k in (("high-energy", n), ("off", n), ("off", 1))]
    shared = list(run_many(cfgs))
    events = shared[0].events
    retrains = [j for j, row in enumerate(events) if row["retrained_learner"] >= 0]
    assert len(retrains) > 10
    assert sum(row["learners_run"] == n for row in events[retrains[-1] + 1:]) > 200
    shadow = [l.copy() for l in model.learners]
    sx, sy = drift.split("test")
    acts = [trunk(l, sx) for l in model.learners]
    for event in events:
        k = event["learners_run"]
        i = event["sample_index"]
        pred, _ = weighted_vote(np.stack([forward(l, sx[i]) for l in shadow[:k]]),
                                model.vote_weights[:k])
        assert pred == event["predicted"]
        r = event["retrained_learner"]
        if r >= 0:
            shadow[r], _ = train_fc_only(shadow[r], acts[r][i:i + 1],
                                         [int(sy[i])], [1.0], 0.5)
    for cfg, report in zip(cfgs, shared):
        alone = run(cfg)
        assert alone.to_dict() == report.to_dict()
        assert events_csv(alone) == events_csv(report)


def test_retrained_learner_is_forwarded_again(small_model):
    # samples come back after their learners were rewritten; every prediction
    # must come from the learners' parameters at that request
    model, ds = small_model
    drift = drift_dataset(ds)
    split = ds.split_size("test")
    cfg = SimConfig(env=abundant(model, requests=4 * split), ensemble=model,
                    dataset=ds, policy=FixedKPolicy(model.size, model.size),
                    retrain_mode="high-energy", retrain_learning_rate=0.5)
    report, _, _ = run_concurrent_training(cfg, drift)
    assert report.retrain_events == report.total_requests == 4 * split
    shadow = [l.copy() for l in model.learners]
    sx, sy = drift.split("test")
    acts = [trunk(l, sx) for l in model.learners]
    for event in report.events:
        k = event["learners_run"]
        i = event["sample_index"]
        pred, _ = weighted_vote(np.stack([forward(l, sx[i]) for l in shadow[:k]]),
                                model.vote_weights[:k])
        assert pred == event["predicted"]
        r = event["retrained_learner"]
        shadow[r], _ = train_fc_only(shadow[r], acts[r][i:i + 1],
                                     [int(sy[i])], [1.0], 0.5)


def shadow_replay(events, learners, vote_weights, dataset, learning_rate):
    """Replay a run's events on copies of its learners, voting through
    `weighted_vote` and retraining where the run did; returns the copies.
    Each event's prediction must be the shadow's."""
    shadow = [l.copy() for l in learners]
    sx, sy = dataset.split("test")
    acts = [trunk(l, sx) for l in learners]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # a degenerate vote warns each time
        for event in events:
            k = event["learners_run"]
            i = event["sample_index"]
            if k:
                pred, _ = weighted_vote(np.stack([forward(l, sx[i]) for l in shadow[:k]]),
                                        vote_weights[:k])
                assert pred == event["predicted"]
            r = event["retrained_learner"]
            if r >= 0:
                shadow[r], _ = train_fc_only(shadow[r], acts[r][i:i + 1],
                                             [int(sy[i])], [1.0], learning_rate)
    return shadow


def test_drift_accuracies_are_exact(small_model):
    # one batched trunk per learner, and its head before and after the run,
    # give each learner's eval-split accuracy exactly
    model, ds = small_model
    drift = drift_dataset(ds)
    cfg = SimConfig(env=abundant(model, requests=4 * ds.split_size("test")),
                    ensemble=model, dataset=ds,
                    policy=FixedKPolicy(model.size, model.size),
                    retrain_mode="high-energy", retrain_learning_rate=0.5)
    report, before, after = run_concurrent_training(cfg, drift)
    learners = shadow_replay(report.events, model.learners, model.vote_weights,
                             drift, 0.5)
    ex, ey = drift.split("eval")
    assert before == [evaluate(l, ex, ey) for l in model.learners]
    assert after == [evaluate(l, ex, ey) for l in learners]
    assert before != after


def test_degenerate_ensemble_warns_once_per_run(small_model):
    model, ds = small_model
    negated = replace(model, vote_weights=[-abs(a) for a in model.vote_weights])
    n, split = model.size, ds.split_size("test")
    env = abundant(model, requests=3 * split)
    drift = drift_dataset(ds)
    for mode in ("off", "high-energy"):
        cfg = SimConfig(env=env, ensemble=negated, dataset=ds,
                        policy=FixedKPolicy(n, n), retrain_mode=mode,
                        retrain_learning_rate=0.5)
        with pytest.warns(UserWarning) as caught:
            if mode == "off":
                report, data = run(cfg), ds
            else:
                (report, _, _), data = run_concurrent_training(cfg, drift), drift
        assert [str(w.message) for w in caught] == [
            "all vote weights <= 0: degenerate ensemble"]
        assert report.learners_histogram == {n: 3 * split}
        shadow_replay(report.events, model.learners, negated.vote_weights, data, 0.5)


def test_empty_request_log(small_model):
    model, ds = small_model
    trace = synth_trace(0, "constant", duration=10.0, constant_power=0.01)
    env = make_env(model, trace, period=50.0, horizon=10.0)
    report = run(SimConfig(env=env, ensemble=model, dataset=ds,
                           policy=FixedKPolicy(1, model.size)))
    assert report.total_requests == 0
    assert report.failure_rate is None
    assert report.mean_accuracy is None
    assert "n/a" in render_report(report)
    # a run checks its vote weights whether or not it votes
    negated = replace(model, vote_weights=[-abs(a) for a in model.vote_weights])
    with pytest.warns(UserWarning) as caught:
        report = run(SimConfig(env=env, ensemble=negated, dataset=ds,
                               policy=FixedKPolicy(1, model.size)))
    assert [str(w.message) for w in caught] == [
        "all vote weights <= 0: degenerate ensemble"]
    assert report.total_requests == 0


def test_policy_names(small_model):
    model, _ = small_model
    assert FixedKPolicy(1, model.size).name == "fixed:1"
    assert FixedKPolicy(model.size, model.size).name == "all"
    assert QPolicy(QTable.zeros(model.size)).name == "qtable"


def test_qpolicy_zero_table_declines_everything(small_model):
    model, ds = small_model
    env = abundant(model, requests=5)
    report = run(SimConfig(env=env, ensemble=model, dataset=ds,
                           policy=QPolicy(QTable.zeros(model.size))))
    assert all(e["event"] == MISS_DECLINED for e in report.events)
    assert report.failures == report.total_requests == 5


def test_round_robin_mode_mapping(small_model):
    # the prefix length each retrain mode runs at each e_now bin; None
    # leaves the request to the policy
    model, ds = small_model
    high, low = model.size, max(model.size - 1, 1)
    assert high != low

    def targets(mode):
        return _EnergyPass(SimConfig(env=abundant(model, requests=1), ensemble=model,
                                     dataset=ds, policy=FixedKPolicy(1, model.size),
                                     retrain_mode=mode)).targets

    assert targets("auto")[3] == high
    assert targets("auto")[2] == high
    assert targets("auto")[1] == low
    assert targets("auto")[0] is None
    assert targets("low-energy")[3] == low
    assert targets("high-energy") == [high] * 4
    assert targets("off") == [None] * 4


def test_auto_mode_follows_each_requests_energy_bin(small_model, monkeypatch):
    # the store fills by day and drains by night, so requests see every
    # energy bin; half the store covers a full prefix, so no request browns
    # out, and the zero q-table declines whenever the mode leaves it to decide
    model, ds = small_model
    n = model.size
    trace = synth_trace(0, "day-night", duration=800.0, period=200.0,
                        high_power=1e-3)
    env = make_env(model, trace, period=1.0, horizon=800.0,
                   cap=Capacitor(capacitance=1e-3))
    first_bins = []   # e_now of each request's l = 0 state, by the reference
    tracker = qsched.StateTracker

    class Spy(tracker):
        def observe(self, device, l):
            if l == 0:
                first_bins.append(discretize_energy(device.usable_energy, device.cap,
                                                    self.one_learner_cost))
            return tracker.observe(self, device, l)

    monkeypatch.setattr(qsched, "StateTracker", Spy)
    report = run(SimConfig(env=env, ensemble=model, dataset=ds,
                           policy=QPolicy(QTable.zeros(n)), retrain_mode="auto"))
    rows = [row for row in report.events if row["event"] != MISS_OFF]
    assert len(rows) == len(first_bins)
    assert set(first_bins) == {0, 1, 2, 3}
    cursor = 0
    for row, e_now in zip(rows, first_bins):
        # auto: off at bin 0, low-energy (N - 1 learners) at 1, high-energy above
        target = (0, n - 1, n, n)[e_now]
        retrained = -1
        if target:
            retrained = cursor % target
            cursor += 1
        assert row["learners_run"] == target
        assert row["retrained_learner"] == retrained
        assert row["event"] == (SERVED if target else MISS_DECLINED)


def test_report_counts_the_requests_the_retrain_target_decided(small_model,
                                                               monkeypatch):
    # the day-night store of the test above: requests see every energy bin
    model, ds = small_model
    n = model.size
    trace = synth_trace(0, "day-night", duration=800.0, period=200.0,
                        high_power=1e-3)
    env = make_env(model, trace, period=1.0, horizon=800.0,
                   cap=Capacitor(capacitance=1e-3))
    first_bins = []
    tracker = qsched.StateTracker

    class Spy(tracker):
        def observe(self, device, l):
            if l == 0:
                first_bins.append(discretize_energy(device.usable_energy, device.cap,
                                                    self.one_learner_cost))
            return tracker.observe(self, device, l)

    monkeypatch.setattr(qsched, "StateTracker", Spy)

    def serve(mode):
        first_bins.clear()
        return run(SimConfig(env=env, ensemble=model, dataset=ds,
                             policy=QPolicy(QTable.zeros(n)), retrain_mode=mode))

    off, high, auto = map(serve, ("off", "high-energy", "auto"))
    # high-energy sets the prefix of every request that found the device on
    assert _count(high, MISS_OFF) > 0
    assert high.retrain_target_requests == high.total_requests - _count(high, MISS_OFF)
    # auto leaves bin 0 to the policy; first_bins now holds the auto run's
    assert auto.retrain_target_requests == sum(b >= 1 for b in first_bins)
    assert 0 < auto.retrain_target_requests < len(first_bins)
    assert off.retrain_target_requests == 0
    for report in (off, high, auto):
        doc = report.to_dict()
        assert doc["retrain_target_requests"] == report.retrain_target_requests
        assert (f"requests decided by the retrain target, not the policy: "
                f"{report.retrain_target_requests}\n") in render_report(report)


def _count(report, event):
    return sum(row["event"] == event for row in report.events)


def test_low_energy_mode_drops_one_learner(small_model):
    model, ds = small_model
    env = abundant(model, requests=8)
    cfg = SimConfig(env=env, ensemble=model, dataset=ds,
                    policy=FixedKPolicy(model.size, model.size),
                    retrain_mode="low-energy")
    report, _, _ = run_concurrent_training(cfg, ds)
    assert report.learners_histogram == {model.size - 1: 8}
    assert report.retrain_events == 8
    one_cost = report.events[0]["inference_energy"]
    assert all(e["inference_energy"] == one_cost for e in report.events)


def test_retrain_rotates_round_robin(small_model):
    model, ds = small_model
    env = abundant(model, requests=6)
    cfg = SimConfig(env=env, ensemble=model, dataset=ds,
                    policy=FixedKPolicy(model.size, model.size),
                    retrain_mode="high-energy")
    report, before, after = run_concurrent_training(cfg, ds)
    trained = [e["retrained_learner"] for e in report.events]
    assert trained == [i % model.size for i in range(6)]
    assert len(before) == len(after) == model.size


def test_zero_retrain_fraction_costs_nothing_extra(small_model):
    model, ds = small_model

    def consumed(retrain):
        trace = synth_trace(0, "constant", duration=9.0, constant_power=0.05)
        env = EnvConfig(capacitor=Capacitor(capacitance=0.01), trace=trace,
                        cost_model=CostModel(fc_retrain_energy_fraction=0.0),
                        requests=RequestPattern(period=1.0, horizon=8.0),
                        reward=RewardParams(delta_acc=tuple(model.delta_acc)))
        cfg = SimConfig(env=env, ensemble=model, dataset=ds,
                        policy=FixedKPolicy(model.size, model.size),
                        retrain_mode="high-energy" if retrain else "off")
        if retrain:
            return run_concurrent_training(cfg, ds)[0]
        return run(cfg)

    plain = consumed(False)
    retrained = consumed(True)
    assert retrained.retrain_events > 0
    assert abs(retrained.consumed_energy - plain.consumed_energy) < 1e-12
    assert all(e["retrain_energy"] == 0.0 for e in retrained.events)


def test_concurrent_training_requires_mode(small_model):
    model, ds = small_model
    env = abundant(model, requests=3)
    cfg = SimConfig(env=env, ensemble=model, dataset=ds,
                    policy=FixedKPolicy(model.size, model.size))
    with pytest.raises(ConfigError):
        run_concurrent_training(cfg, ds)


def test_sim_config_validation(small_model):
    model, ds = small_model
    env = abundant(model, requests=3)
    with pytest.raises(ConfigError):
        SimConfig(env=env, ensemble=model, dataset=ds,
                  policy=FixedKPolicy(1, 2), retrain_mode="sometimes")


def test_sim_config_rejects_class_count_unlike_ensemble(small_model):
    # every entry point builds a SimConfig, run_concurrent_training for its
    # drift set too
    model, ds = small_model
    env = abundant(model, requests=3)
    other = synth_dataset(seed=5, classes=4, samples_per_class=24,
                          shape=(2, 8, 8), noise=0.5)
    message = "the dataset has 4 classes but the ensemble was built for 3"
    with pytest.raises(ConfigError, match=message):
        SimConfig(env=env, ensemble=model, dataset=other,
                  policy=FixedKPolicy(1, model.size))
    cfg = SimConfig(env=env, ensemble=model, dataset=ds,
                    policy=FixedKPolicy(1, model.size), retrain_mode="high-energy")
    with pytest.raises(ConfigError, match=message):
        run_concurrent_training(cfg, drift_dataset(other))


def test_sim_config_rejects_a_policy_built_for_another_n(small_model):
    # a policy's state indices lay out its own N + 1 prefix lengths: one
    # built for more learners fails requests silently, one for fewer indexes
    # past its table
    model, ds = small_model
    env = abundant(model, requests=3)
    for n in (1, 3, 8):
        for policy in (FixedKPolicy(1, n), QPolicy(QTable.zeros(n))):
            with pytest.raises(ConfigError, match=f"the policy was built for {n} "
                               f"learners but the ensemble has {model.size}"):
                SimConfig(env=env, ensemble=model, dataset=ds, policy=policy)
    # the retrain mode is checked first
    with pytest.raises(ConfigError, match="unknown retrain mode"):
        SimConfig(env=env, ensemble=model, dataset=ds,
                  policy=FixedKPolicy(1, 3), retrain_mode="sometimes")
    cfg = SimConfig(env=env, ensemble=model, dataset=ds,
                    policy=QPolicy(QTable.zeros(model.size)), retrain_mode="auto")
    three = replace(model, learners=model.learners + model.learners[:1],
                    vote_weights=model.vote_weights + model.vote_weights[:1])
    with pytest.raises(ConfigError, match="built for 2 learners but the ensemble has 3"):
        replace(cfg, ensemble=three)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_q_policy_decides_as_act_on_the_value_array(n):
    # QPolicy reads the table's rows once, as lists of Python floats; every
    # decision equals `act` on the numpy array, ties and signed zeros too
    rng = np.random.default_rng(n)
    values = np.array([0.0, -0.0, 1.0, -1.0, 0.1, 0.1 + 2 ** -56 * 8, 1e300, -1e300,
                       1e-300, -5e-324, 5e-324, 2.5e15, 2.5e15 + 0.5])
    size = qsched.state_space_size(n)
    tables = [rng.choice(values, size=(size, 2)),
              np.repeat(rng.choice(values, size=(size, 1)), 2, axis=1),   # all ties
              np.tile([0.0, -0.0], (size, 1)), np.tile([-0.0, 0.0], (size, 1))]
    for table in tables:
        policy = QPolicy(QTable(values=table, n=n))
        decisions = [policy.decide(s) for s in range(size)]
        assert decisions == [qsched.act(table, n + 1, s) for s in range(size)]
    # the random table's ties and strict orders both occur
    q0, q1 = tables[0][:, 0], tables[0][:, 1]
    assert (q0 == q1).any() and (q1 > q0).any() and (q1 < q0).any()


def test_events_csv_shape(small_model):
    model, ds = small_model
    report = run(SimConfig(env=abundant(model, requests=4), ensemble=model,
                           dataset=ds, policy=FixedKPolicy(1, model.size)))
    lines = events_csv(report).strip().split("\n")
    assert lines[0].startswith("time,event,voltage")
    assert len(lines) == 1 + 4


def test_render_formats_and_reduction(small_model):
    model, ds = small_model
    base = run(SimConfig(env=abundant(model, requests=4), ensemble=model,
                         dataset=ds, policy=FixedKPolicy(model.size, model.size)))
    assert failure_rate_reduction(base, base) is None  # baseline failure 0
    text = render_report(base)
    assert "policy: all" in text
    import json as _json
    doc = _json.loads(render_report(base, fmt="json"))
    assert doc["total_requests"] == 4
    csv_out = render_report(base, fmt="csv", baseline=base)
    assert csv_out.count("\n") == 2
    with pytest.raises(ConfigError):
        render_report(base, fmt="xml")
