"""Filter ranking, structural pruning, and the MAC-budget loop."""
import warnings

import numpy as np
import pytest

from conftest import tiny_spec
from enboost import nn, prune
from enboost.data import synth_dataset
from enboost.errors import (BudgetInfeasibleError, ConfigError, ShapeError,
                            TrainingDivergedError)
from enboost.nn import (NetworkSpec, TensorShape, WeakLearner, conv,
                        count_macs, count_params, fc, softmax_layer, train)
from enboost.prune import prune_step, prune_to_budget, rank_filters


def two_filter_net():
    # conv weights shape (2 filters, 2 in-channels, 1, 1)
    spec = NetworkSpec(input_shape=TensorShape(2, 1, 1),
                       layers=(conv(2, kernel=1, activation="none"),
                               fc(2), softmax_layer()),
                       class_count=2)
    learner = WeakLearner.initialize(spec, seed=0, learner_id="t")
    learner.params[0] = (np.array([3.0, 4.0, 1.0, 0.0]).reshape(2, 2, 1, 1),
                         np.zeros(2))
    return learner


def test_rank_filters_hand_example():
    ranked = rank_filters(two_filter_net())
    assert ranked[0] == [(1, 1.0), (0, 5.0)]


def test_rank_filters_zero_norm_first_and_tie_break():
    learner = two_filter_net()
    learner.params[0] = (np.zeros((2, 2, 1, 1)), np.zeros(2))
    assert rank_filters(learner)[0] == [(0, 0.0), (1, 0.0)]


def test_rank_filters_requires_conv():
    spec = NetworkSpec(input_shape=TensorShape(1, 1, 4),
                       layers=(fc(2), softmax_layer()), class_count=2)
    with pytest.raises(ShapeError):
        rank_filters(WeakLearner.initialize(spec, seed=0, learner_id="t"))


def test_prune_step_halves_fc_input():
    learner = two_filter_net()
    pruned = prune_step(learner, {0: [1]})
    assert pruned.spec.layers[0].filters == 1
    # fc consumed 2 channels x 1x1; now 1
    assert pruned.params[1][0].shape == (2, 1)
    assert pruned.macs < learner.macs
    assert count_params(pruned.spec) < count_params(learner.spec)
    # survivor weights copied verbatim
    assert np.array_equal(pruned.params[0][0],
                          np.array([3.0, 4.0]).reshape(1, 2, 1, 1))
    assert np.array_equal(pruned.params[1][0], learner.params[1][0][:, :1])


def test_prune_step_empty_victims_is_identity():
    learner = two_filter_net()
    pruned = prune_step(learner, {0: []})
    assert pruned.checksum() == learner.checksum()
    assert pruned.macs == learner.macs


def test_prune_step_refuses_to_empty_a_layer():
    with pytest.raises(BudgetInfeasibleError):
        prune_step(two_filter_net(), {0: [0, 1]})


def test_prune_step_downstream_conv_channels():
    spec = tiny_spec()
    learner = WeakLearner.initialize(spec, seed=1, learner_id="t")
    pruned = prune_step(learner, {0: [2]})
    keep = [0, 1, 3]
    assert np.array_equal(pruned.params[0][0], learner.params[0][0][keep])
    assert np.array_equal(pruned.params[2][0], learner.params[2][0][:, keep])
    assert pruned.macs < learner.macs


def test_prune_step_shares_no_array_with_its_input():
    learner = WeakLearner.initialize(tiny_spec(), seed=1, learner_id="t")
    before = nn.copy_params(learner.params)
    pruned = prune_step(learner, {0: [2]})
    for p, q, r in zip(pruned.params, learner.params, before):
        if p is None:
            continue
        for a, b, c in zip(p, q, r):
            assert not np.shares_memory(a, b)
            assert np.array_equal(b, c)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_prune_step_keeps_the_parameters_dtype(dtype):
    learner = WeakLearner.initialize(tiny_spec(), seed=1, learner_id="t")
    learner.params = [None if p is None else (p[0].astype(dtype), p[1].astype(dtype))
                      for p in learner.params]
    for victims in ({0: [2]}, {2: [0, 3]}, {}):
        pruned = prune_step(learner, victims)
        assert {a.dtype for p in pruned.params if p is not None for a in p} == {
            np.dtype(dtype)}


def test_retraining_a_pruned_learner_does_not_depend_on_its_layout():
    # the GEMMs round by their operands' layout, so `train` must give a
    # pruned learner with F-order arrays the bits of C-order copies
    ds = small_dataset()
    learner = WeakLearner.initialize(tiny_spec(), seed=1, learner_id="t")
    pruned = prune_step(learner, {0: [2], 2: [1]})
    pruned.params = [p and tuple(map(np.asfortranarray, p)) for p in pruned.params]
    assert not all(a.flags.c_contiguous for p in pruned.params if p for a in p)
    w = np.ones(ds.split_size("train"))
    a, _ = train(pruned, ds, w, epochs=1, learning_rate=0.05, seed=0)
    b, _ = train(pruned.copy(), ds, w, epochs=1, learning_rate=0.05, seed=0)
    assert a.checksum() == b.checksum()


def small_dataset():
    return synth_dataset(seed=5, classes=3, samples_per_class=12,
                         shape=(2, 8, 8), noise=1.0)


def trained_tiny():
    ds = small_dataset()
    learner = WeakLearner.initialize(tiny_spec(), seed=0, learner_id="t")
    learner, _ = train(learner, ds, np.ones(ds.split_size("train")),
                       epochs=2, learning_rate=0.05, seed=0)
    return learner, ds


def test_prune_to_budget_identity_fraction():
    learner, ds = trained_tiny()
    out = prune_to_budget(learner, ds, np.ones(ds.split_size("train")), 1.0, 2, seed=0)
    assert out.checksum() == learner.checksum()
    assert out.macs == learner.macs


@pytest.mark.parametrize("fraction", [0.5, 0.25], ids=["0.5", "0.25"])
def test_prune_to_budget_meets_budget(fraction):
    learner, ds = trained_tiny()
    out = prune_to_budget(learner, ds, np.ones(ds.split_size("train")), fraction, 1,
                          seed=0)
    assert out.macs <= int(np.ceil(fraction * learner.macs))
    assert count_params(out.spec) < count_params(learner.spec)
    assert all(out.spec.layers[i].filters >= 1 for i in out.spec.conv_layers)


def test_prune_to_budget_deterministic():
    learner, ds = trained_tiny()
    w = np.ones(ds.split_size("train"))
    a = prune_to_budget(learner, ds, w, 0.5, 1, seed=0)
    b = prune_to_budget(learner, ds, w, 0.5, 1, seed=0)
    assert a.checksum() == b.checksum()


def test_prune_to_budget_infeasible_names_layer():
    learner, ds = trained_tiny()
    with pytest.raises(BudgetInfeasibleError) as err:
        prune_to_budget(learner, ds, np.ones(ds.split_size("train")), 0.001, 0, seed=0)
    assert err.value.layer_index in (0, 2)


def test_prune_retrain_divergence_names_learner_and_stage():
    learner, ds = trained_tiny()
    ds.x[0] = np.inf  # poison one train sample after training
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingDivergedError) as err:
            prune_to_budget(learner, ds, np.ones(ds.split_size("train")), 0.5, 2, seed=0)
    assert [str(w.message) for w in caught] == []
    assert (err.value.learner, err.value.stage) == ("t", "prune retrain")
    assert str(err.value).startswith("t: ") and "prune retrain" in str(err.value)


def test_bundled_baseline_quarter_params(pool4, baseline_spec):
    # cascading channel removal: 1/N MACs gives < 1/N parameters
    pool, _, _ = pool4
    baseline_params = count_params(baseline_spec)
    for learner in pool:
        assert count_params(learner.spec) < baseline_params / 4


def test_schedule_validation():
    learner = WeakLearner.initialize(tiny_spec(), seed=0, learner_id="t")
    ds = small_dataset()
    w = np.ones(ds.split_size("train"))
    with pytest.raises(ConfigError, match="target_mac_fraction"):
        prune_to_budget(learner, ds, w, 0.0, 1, seed=0)
    with pytest.raises(ConfigError, match="retrain_epochs"):
        prune_to_budget(learner, ds, w, 0.5, -1, seed=0)


def test_each_prune_step_removes_the_lowest_norm_filter_that_may_go(monkeypatch):
    # a layer's last-ranked filter never goes, so a step picks the global
    # minimum over every other (norm, layer, filter)
    learner, ds = trained_tiny()
    calls = []

    def spy(current, victims):
        allowed = min((norm, idx, f) for idx, entries in rank_filters(current).items()
                      for f, norm in entries[:-1])
        calls.append((victims, {allowed[1]: [allowed[2]]}))
        return prune_step(current, victims)

    monkeypatch.setattr(prune, "prune_step", spy)
    prune_to_budget(learner, ds, np.ones(ds.split_size("train")), 0.25, 1, seed=0)
    assert len(calls) > 1
    for victims, expected in calls:
        assert victims == expected
