"""Acceptance suite: the headline correctness, budget, scheduling, and
determinism properties of the package, each with its stated tolerance and,
where applicable, a runtime bound."""
import json
import time

import numpy as np
import pytest

from conftest import (SchedulerState, brute_force_select, encode_state,
                      max_single_filter_macs, tiny_spec)
from enboost import boost, config, ensemble as ens, qsched, simrun
from enboost.boost import (PoolConfig, build_pool, init_weights,
                           update_weights, weight_multipliers)
from enboost.data import drift_dataset, synth_dataset
from enboost.energy import (Capacitor, CostModel, RequestPattern,
                            inference_cost, synth_trace)
from enboost.ensemble import backfit_select, pool_eval_probs, subset_accuracy
from enboost.nn import (NetworkSpec, TensorShape, avgpool, conv, count_macs,
                        count_params, evaluate, fc, forward, gradient_check,
                        params_checksum, softmax_layer, train_fc_only, trunk)
from enboost.prune import PruneSchedule
from enboost.qsched import (EnvConfig, QHyperParams, QTable, RewardParams, act,
                            load_qtable, q_update, save_qtable, train_offline)
from enboost.simrun import (FixedKPolicy, QPolicy, SimConfig, run,
                            run_concurrent_training)

# reports accumulated by the scheduling criteria; the energy-accounting
# criterion closes the books on all of them
COMPLETED_REPORTS = []


# ---------------------------------------------------------------------------
# 1: gradient correctness


def test_gradient_correctness_on_toy_networks():
    start = time.monotonic()
    specs = [
        NetworkSpec(input_shape=TensorShape(1, 4, 4),
                    layers=(conv(2, kernel=3, padding=1), avgpool(2),
                            fc(3), softmax_layer()), class_count=3),
        NetworkSpec(input_shape=TensorShape(2, 6, 6),
                    layers=(conv(3, kernel=3, padding=1), avgpool(2),
                            conv(4, kernel=3), fc(3), softmax_layer()),
                    class_count=3),
        NetworkSpec(input_shape=TensorShape(1, 1, 6),
                    layers=(fc(4), softmax_layer()), class_count=4),
    ]
    for seed, spec in enumerate(specs):
        err = gradient_check(spec, seed=seed, step=1e-5)
        assert err < 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"[criterion 1] gradient check < 1e-4 on 3 nets in {elapsed:.1f}s: PASS")


# ---------------------------------------------------------------------------
# 2 + 3: MAC budget and memory sub-linearity


def test_mac_budget_for_two_and_four_learners(pool4, model4, baseline_spec,
                                              bundled_cfg, bundled_dataset):
    start = time.monotonic()
    baseline_macs = count_macs(baseline_spec)
    slack = max_single_filter_macs(baseline_spec)

    pool2_cfg = PoolConfig(
        pool_size=6, ensemble_size=2,
        train_epochs=bundled_cfg["pool"]["train_epochs"],
        learning_rate=bundled_cfg["pool"]["learning_rate"],
        prune=PruneSchedule(target_mac_fraction=0.5, retrain_epochs_per_step=2),
        seed=0)
    pool2, _ = build_pool(baseline_spec, bundled_dataset, pool2_cfg)
    ex, ey = bundled_dataset.split("eval")
    model2 = backfit_select(pool2, 2, ex, ey)

    pool, _, _ = pool4
    for n, p, model in ((2, pool2, model2), (4, pool, model4)):
        for learner in p:
            assert learner.macs <= baseline_macs / n + slack
        assert model.total_macs <= baseline_macs
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"[criterion 2] MAC budgets hold for N=2,4 in {elapsed:.1f}s: PASS")


def test_memory_sublinearity(pool4, baseline_spec):
    pool, _, _ = pool4
    baseline_params = count_params(baseline_spec)
    for learner in pool:
        assert count_params(learner.spec) < baseline_params / 4
    print("[criterion 3] every N=4 pool learner holds < 1/4 baseline params: PASS")


# ---------------------------------------------------------------------------
# 4: weight-update examples


def test_weight_update_examples(pool4, bundled_dataset):
    assert abs(weight_multipliers([1.0], alpha=0.5)[0] - 1.0) < 1e-9
    assert abs(weight_multipliers([0.25], alpha=0.5)[0] - 2.0) < 1e-9
    pool, _, _ = pool4
    w0 = init_weights(bundled_dataset.split_size("train"))
    w1 = update_weights(w0, pool[0], bundled_dataset, alpha=0.5)
    assert abs(w1.mean() - 1.0) < 1e-9
    print("[criterion 4] weight-update multipliers and normalization: PASS")


# ---------------------------------------------------------------------------
# 5: backfitting vs brute force


def test_backfit_tracks_brute_force(baseline_spec, bundled_dataset):
    start = time.monotonic()
    ex, ey = bundled_dataset.split("eval")
    labels = np.asarray(ey)
    close = greedy_ok = 0
    for seed in range(20):
        # reduced epochs per pool keep 20 builds inside the runtime bound
        cfg = PoolConfig(pool_size=6, ensemble_size=3, train_epochs=8,
                         learning_rate=0.1,
                         prune=PruneSchedule(target_mac_fraction=1.0 / 3.0,
                                             retrain_epochs_per_step=1),
                         seed=seed)
        pool, _ = build_pool(baseline_spec, bundled_dataset, cfg)
        model = backfit_select(pool, 3, ex, ey)
        _, best = brute_force_select(pool, 3, ex, ey)
        probs = pool_eval_probs(pool, ex)
        weights = [ens.learner_weight(1.0 - l.eval_accuracy) for l in pool]
        g = ens.greedy_select(weights, 3, probs, labels)
        greedy_acc = subset_accuracy(probs[g], [weights[i] for i in g], labels)
        backfit_acc = model.acc_profile[-1]
        close += backfit_acc >= best - 0.005 - 1e-12
        greedy_ok += backfit_acc >= greedy_acc - 1e-12
    elapsed = time.monotonic() - start
    assert close >= 18
    assert greedy_ok == 20
    assert elapsed < 300.0
    print(f"[criterion 5] backfit within 0.5pp of optimum {close}/20, "
          f">= greedy {greedy_ok}/20, in {elapsed:.0f}s: PASS")


# ---------------------------------------------------------------------------
# 6: ensemble gain


def test_ensemble_beats_individuals(pool4, model4, bundled_cfg,
                                    bundled_dataset, baseline_spec):
    tx, ty = bundled_dataset.split("test")
    labels = np.asarray(ty)
    wins = 0
    for seed in range(5):
        if seed == 0:
            pool, model = pool4[0], model4
        else:
            pool_cfg = config.make_pool_config(bundled_cfg, seed=seed)
            pool, _ = build_pool(baseline_spec, bundled_dataset, pool_cfg)
            ex, ey = bundled_dataset.split("eval")
            model = backfit_select(pool, 4, ex, ey)
        probs = pool_eval_probs(model.learners, tx)
        ens_acc = subset_accuracy(probs, model.vote_weights, labels)
        best_individual = max(evaluate(l, tx, ty) for l in pool)
        # the first pool learner is exactly a single baseline trained with
        # uniform weights and pruned to 1/4 MACs
        single_pruned = evaluate(pool[0], tx, ty)
        wins += ens_acc >= best_individual and ens_acc >= single_pruned
    assert wins >= 4
    print(f"[criterion 6] ensemble >= best individual and single-pruned "
          f"{wins}/5 seeds: PASS")


# ---------------------------------------------------------------------------
# 7: toy-MDP optimality


def _chain_states():
    """The q-table rows of (e_now, e_last, p_harv, l) = (2, 2, 1, l) at N=2."""
    return tuple(encode_state(SchedulerState(2, 2, 1, l), 2) for l in range(3))


def _chain_step(s, a, s0, s1, s2):
    # optimal plan: run at s0 (+0.2), stop at s1 (0); alternatives are worse
    if s == s0:
        return (0.2, s1) if a == 1 else (-0.5, None)
    if s == s1:
        return (-0.3, s2) if a == 1 else (0.0, None)
    return (0.0, None)


def test_toy_mdp_recovers_optimal_policy():
    start = time.monotonic()
    s0, s1, s2 = _chain_states()
    for seed in range(5):
        table = QTable.zeros(2, QHyperParams(learning_rate=0.2, discount=0.9))
        rng = np.random.default_rng(seed)
        done = 0
        while done < 10_000:
            s = s0
            while s is not None and done < 10_000:
                if rng.random() < 0.2 and s % 3 < 2:
                    a = int(rng.integers(0, 2))
                else:
                    a = act(table.values, 3, s)
                r, s_next = _chain_step(s, a, s0, s1, s2)
                q_update(table.values, 3, table.hyper, s, a, r, s_next)
                done += 1
                s = s_next
        assert act(table.values, 3, s0) == 1
        assert act(table.values, 3, s1) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"[criterion 7] toy-MDP optimal policy 5/5 seeds in {elapsed:.1f}s: PASS")


# ---------------------------------------------------------------------------
# 8: scheduler dominance


def test_q_policy_beats_all_n(model4, bundled_cfg, bundled_dataset):
    start = time.monotonic()
    env = config.make_env(bundled_cfg)
    episodes = bundled_cfg["scheduler"]["episodes"]

    def sim(policy):
        report = run(SimConfig(env=env, ensemble=model4,
                               dataset=bundled_dataset, policy=policy))
        COMPLETED_REPORTS.append(report)
        return report

    baseline = sim(FixedKPolicy(model4.size, model4.size))
    assert baseline.failure_rate is not None and baseline.failure_rate > 0
    wins = 0
    for seed in range(5):
        table, _ = train_offline(env, model4, episodes, seed)
        report = sim(QPolicy(table))
        reduction = simrun.failure_rate_reduction(report, baseline)
        drop = baseline.mean_accuracy - report.mean_accuracy
        ok = reduction is not None and reduction >= 0.20 and drop <= 0.03
        print(f"  seed {seed}: failure-rate reduction "
              f"{reduction:.2f}, accuracy drop {drop * 100:+.2f}pp"
              f" -> {'ok' if ok else 'MISS'}")
        wins += ok
    elapsed = time.monotonic() - start
    assert wins >= 4
    assert elapsed < 600.0
    print(f"[criterion 8] scheduler dominance {wins}/5 seeds in {elapsed:.0f}s: PASS")


# ---------------------------------------------------------------------------
# 9: energy accounting


def test_energy_closure(model4, bundled_cfg, bundled_dataset):
    env = config.make_env(bundled_cfg)
    fresh = run(SimConfig(env=env, ensemble=model4, dataset=bundled_dataset,
                          policy=FixedKPolicy(2, model4.size)))
    for report in COMPLETED_REPORTS + [fresh]:
        assert report.energy_closure_error() < 1e-6
    print(f"[criterion 9] energy books close < 1e-6 J on "
          f"{len(COMPLETED_REPORTS) + 1} completed simulations: PASS")


# ---------------------------------------------------------------------------
# 10: concurrent-training contracts


def _abundant_env(model, requests, cost_model=None):
    trace = synth_trace(0, "constant", duration=requests + 1.0,
                        constant_power=0.05)
    return EnvConfig(capacitor=Capacitor(capacitance=0.01), trace=trace,
                     cost_model=cost_model or CostModel(),
                     requests=RequestPattern(period=1.0, horizon=float(requests)),
                     reward=RewardParams(delta_acc=tuple(model.delta_acc)))


def test_fc_retraining_preserves_conv_parameters(model4):
    learner = model4.learners[0]
    conv_idx = [i for i, l in enumerate(learner.spec.layers) if l.kind == "conv"]
    before = params_checksum([learner.params[i] for i in conv_idx])
    shape = learner.spec.input_shape
    x = np.random.default_rng(0).standard_normal(
        (2, shape.channels, shape.height, shape.width))
    updated, _ = train_fc_only(learner, trunk(learner, x), [0, 1], [1.0, 1.0],
                               0.1)
    after = params_checksum([updated.params[i] for i in conv_idx])
    assert before == after
    print("[criterion 10a] conv parameters bit-identical under FC retraining: PASS")


def test_low_energy_mode_saves_quarter_energy(model4, bundled_dataset):
    # four equal-cost copies of one learner: all-N costs 4c, low-energy 3c
    learners = []
    for i in range(4):
        l = model4.learners[0].copy()
        l.id = f"eq-{i}"
        learners.append(l)
    model = ens.EnsembleModel(learners=learners, vote_weights=[1.0] * 4,
                              acc_profile=[0.5] * 4)
    env = _abundant_env(model, requests=10)
    cfg = SimConfig(env=env, ensemble=model, dataset=bundled_dataset,
                    policy=FixedKPolicy(4, 4), retrain_mode="low-energy")
    report, _, _ = run_concurrent_training(cfg, bundled_dataset)
    cost = inference_cost(learners[0].macs, env.cost_model)
    assert report.learners_histogram == {3: 10}
    for event in report.events:
        assert event["inference_energy"] == 0.75 * (4.0 * cost)
    print("[criterion 10b] low-energy mode spends exactly 75% of all-N "
          "inference energy: PASS")


def test_forward_reuse_predictions_bit_exact(model4, bundled_dataset):
    # zero-rate retraining must reproduce the no-retraining run verbatim
    cm = CostModel(fc_retrain_energy_fraction=0.0)
    env = _abundant_env(model4, requests=30, cost_model=cm)
    plain = run(SimConfig(env=env, ensemble=model4, dataset=bundled_dataset,
                          policy=FixedKPolicy(4, 4)))
    frozen, _, _ = run_concurrent_training(
        SimConfig(env=env, ensemble=model4, dataset=bundled_dataset,
                  policy=FixedKPolicy(4, 4), retrain_mode="high-energy",
                  retrain_learning_rate=0.0),
        bundled_dataset)
    assert [e["predicted"] for e in frozen.events] == \
           [e["predicted"] for e in plain.events]

    # with live updates, each request's prediction still comes from the
    # pre-update parameters: replay the event log against shadow learners
    env = _abundant_env(model4, requests=30)
    cfg = SimConfig(env=env, ensemble=model4, dataset=bundled_dataset,
                    policy=FixedKPolicy(4, 4), retrain_mode="high-energy",
                    retrain_learning_rate=0.05)
    report, _, _ = run_concurrent_training(cfg, bundled_dataset)
    shadow = [l.copy() for l in model4.learners]
    sx, sy = bundled_dataset.split("test")
    for event in report.events:
        k = event["learners_run"]
        assert k == 4
        x = sx[event["sample_index"]]
        probs = np.stack([forward(l, x) for l in shadow[:k]])
        pred, _ = ens.weighted_vote(probs, model4.vote_weights[:k])
        assert pred == event["predicted"]
        r = event["retrained_learner"]
        if r >= 0:
            shadow[r], _ = train_fc_only(shadow[r], trunk(shadow[r], x[None]),
                                         [int(sy[event["sample_index"]])],
                                         [1.0], 0.05)
    assert sum(e["retrained_learner"] >= 0 for e in report.events) == 30
    print("[criterion 10c] forward-reuse predictions bit-exact "
          "request-by-request: PASS")


def test_drift_retraining_improves(bundled_cfg):
    wins = 0
    for seed in range(5):
        ds = synth_dataset(seed=5, classes=3, samples_per_class=24,
                           shape=(2, 8, 8), noise=0.5)
        cfg = PoolConfig(pool_size=3, ensemble_size=2, train_epochs=12,
                         learning_rate=0.1,
                         prune=PruneSchedule(target_mac_fraction=0.5,
                                             retrain_epochs_per_step=1),
                         seed=seed)
        pool, _ = build_pool(tiny_spec(), ds, cfg)
        ex, ey = ds.split("eval")
        model = backfit_select(pool, 2, ex, ey)
        drift = drift_dataset(ds)
        env = _abundant_env(model, requests=300)
        sim_cfg = SimConfig(env=env, ensemble=model, dataset=ds,
                            policy=FixedKPolicy(2, 2),
                            retrain_mode="high-energy",
                            retrain_learning_rate=0.05)
        report, before, after = run_concurrent_training(sim_cfg, drift)
        assert report.retrain_events > 0
        wins += all(a > b for a, b in zip(after, before))
    assert wins >= 4
    print(f"[criterion 10d] drift retraining strictly improves {wins}/5 "
          "seeds: PASS")


# ---------------------------------------------------------------------------
# 11: determinism and persistence


def test_cli_artifacts_byte_identical(tmp_path):
    from enboost.cli import main
    light = {
        "dataset": {"generator": {"seed": 5, "classes": 3,
                                  "samples_per_class": 20,
                                  "shape": [2, 8, 8], "noise": 0.5}},
        "network": {"spec_path": "net.json"},
        "pool": {"pool_size": 3, "train_epochs": 6, "learning_rate": 0.1,
                 "seed": 0, "prune": {"retrain_epochs_per_step": 1}},
        "ensemble": {"size": 2},
        "energy": {"capacitor": {"capacitance": 1e-3},
                   "trace": {"synthetic": {"profile": "day-night",
                                           "duration": 400.0,
                                           "period": 100.0,
                                           "high_power": 1e-4}}},
        "scheduler": {"episodes": 10, "seed": 0},
        "simulation": {"request_period": 5.0},
    }
    tiny_spec().save(tmp_path / "net.json")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(light))

    def pipeline(tag):
        root = tmp_path / tag
        assert main(["build-ensemble", "--config", str(cfg_path),
                     "--out", str(root / "build")]) == 0
        assert main(["train-scheduler", "--config", str(cfg_path),
                     "--ensemble", str(root / "build"),
                     "--out", str(root / "q.json")]) == 0
        assert main(["simulate", "--config", str(cfg_path),
                     "--ensemble", str(root / "build"),
                     "--policy", f"qtable:{root / 'q.json'}",
                     "--policy", "fixed:1",
                     "--out", str(root / "sims")]) == 0
        return root

    a, b = pipeline("a"), pipeline("b")
    artifacts = ["build/build_summary.json", "build/ensemble.json",
                 "q.json", "q.json.curve.csv",
                 "sims/qtable/report.json", "sims/qtable/events.csv",
                 "sims/fixed-1/report.json", "sims/fixed-1/events.csv"]
    artifacts += [f"build/pool/{p.name}"
                  for p in sorted((a / "build" / "pool").iterdir())]
    for rel in artifacts:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    table = load_qtable(a / "q.json")
    save_qtable(table, tmp_path / "roundtrip.json")
    reloaded = load_qtable(tmp_path / "roundtrip.json")
    assert np.array_equal(reloaded.values, table.values)
    assert (tmp_path / "roundtrip.json").read_bytes() == (a / "q.json").read_bytes()
    print(f"[criterion 11] {len(artifacts)} CLI artifacts byte-identical; "
          "q-table round-trip bit-exact: PASS")
