"""Engine-level contracts: forward math, MAC accounting, weighted training,
FC-only updates, and the finite-difference gradient oracle."""
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (bits, float64_params, gradient_check, loss_and_grads,
                      parent_backward, parent_count_macs, parent_forward_cache,
                      parent_layer_out_shape, parent_param_shapes, parent_softmax,
                      reference_train, slice_im2col, tiny_spec)
from enboost import nn
from enboost.config import baseline_network
from enboost.data import Dataset, synth_dataset
from enboost.errors import ShapeError, TrainingDivergedError
from enboost.nn import (LayerSpec, NetworkSpec, TensorShape, TrainSet, WeakLearner,
                        avgpool, conv, count_macs, count_params, evaluate, fc,
                        flatten_params, fc_step, forward, head, param_shapes,
                        params_checksum, softmax_layer, train, train_fc_only,
                        trunk, unflatten_params)


def fc_net(inputs, units, classes=None):
    return NetworkSpec(input_shape=TensorShape(1, 1, inputs),
                       layers=(fc(units), softmax_layer()),
                       class_count=classes or units)


# ---------------------------------------------------------------------------
# forward


def test_zero_fc_weights_give_uniform_output():
    spec = tiny_spec(classes=4, filters=(3, 4))
    learner = WeakLearner.initialize(spec, seed=0, learner_id="t")
    fc_idx = next(i for i, l in enumerate(spec.layers) if l.kind == "fc")
    w, b = learner.params[fc_idx]
    learner.params[fc_idx] = (np.zeros_like(w), np.zeros_like(b))
    probs = forward(learner, np.random.default_rng(1).standard_normal((2, 8, 8)))
    assert np.allclose(probs, 0.25, atol=1e-12)


def test_probabilities_sum_to_one():
    spec = tiny_spec()
    learner = WeakLearner.initialize(spec, seed=1, learner_id="t")
    x = np.random.default_rng(2).standard_normal((5, 2, 8, 8)) * 10.0
    probs = forward(learner, x)
    assert probs.shape == (5, 3)
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_hand_computed_softmax():
    spec = fc_net(2, 2)
    learner = WeakLearner.initialize(spec, seed=0, learner_id="t")
    learner.params[0] = (np.array([[1.0, 2.0], [3.0, 4.0]]),
                         np.array([0.5, -0.5]))
    probs = forward(learner, np.array([1.0, -1.0]).reshape(1, 1, 2))
    # logits (-0.5, -1.5) -> sigmoid(1) for class 0
    expect = 1.0 / (1.0 + np.exp(-1.0))
    assert probs.shape == (2,)
    assert abs(probs[0] - expect) < 1e-12
    assert abs(probs[1] - (1.0 - expect)) < 1e-12


def test_forward_rejects_wrong_shape():
    learner = WeakLearner.initialize(tiny_spec(), seed=0, learner_id="t")
    with pytest.raises(ShapeError):
        forward(learner, np.zeros((3, 8, 8)))


# ---------------------------------------------------------------------------
# MAC accounting


def test_count_macs_unit_conv():
    spec = NetworkSpec(input_shape=TensorShape(1, 1, 1),
                       layers=(conv(1, kernel=1), softmax_layer()),
                       class_count=1)
    assert count_macs(spec) == 1


def test_count_macs_conv_example():
    # 3 in-channels, 16 filters, 3x3 kernel, 32x32 output: 3*16*9*1024
    spec = NetworkSpec(input_shape=TensorShape(3, 32, 32),
                       layers=(conv(16, kernel=3, padding=1), avgpool(32),
                               fc(10), softmax_layer()),
                       class_count=10)
    assert count_macs(spec) == 442368 + 16 * 10


def test_count_macs_fc_example():
    assert count_macs(fc_net(64, 10)) == 640


def test_count_macs_independent_of_parameters():
    spec = tiny_spec()
    a = WeakLearner.initialize(spec, seed=0, learner_id="a")
    b = WeakLearner.initialize(spec, seed=9, learner_id="b")
    assert a.macs == b.macs == count_macs(spec)


def test_count_params_matches_flattened_length():
    spec = tiny_spec()
    learner = WeakLearner.initialize(spec, seed=0, learner_id="t")
    assert count_params(spec) == flatten_params(learner.params).size
    rebuilt = unflatten_params(spec, flatten_params(learner.params))
    assert params_checksum(rebuilt) == learner.checksum()


def random_spec(rng):
    """A valid spec: up to four convs (kernel 1, 3 or 5, stride 1-3, padding
    0-3) and avgpools (a window that divides the input) in random order,
    then 0-2 fc layers and a softmax."""
    shape = TensorShape(*(int(v) for v in rng.integers(1, [5, 17, 17])))
    input_shape, layers = shape, []
    for _ in range(int(rng.integers(0, 5))):
        if rng.random() < 0.6:
            k, s = int(rng.choice([1, 3, 5])), int(rng.integers(1, 4))
            p = int(rng.integers(0, 4))
            if min(shape.height, shape.width) + 2 * p < k:
                continue
            layer = conv(int(rng.integers(1, 9)), kernel=k, stride=s, padding=p,
                         activation=str(rng.choice(["none", "relu"])))
        else:
            g = math.gcd(shape.height, shape.width)
            layer = avgpool(int(rng.choice([d for d in range(1, g + 1) if g % d == 0])))
        layers.append(layer)
        shape = parent_layer_out_shape(layer, shape)
    for _ in range(int(rng.integers(0, 3))):
        layers.append(fc(int(rng.integers(1, 9))))
        shape = parent_layer_out_shape(layers[-1], shape)
    return NetworkSpec(input_shape=input_shape, layers=(*layers, softmax_layer()),
                       class_count=shape.size)


def test_macs_and_param_shapes_match_the_frozen_walk():
    rng = np.random.default_rng(0)
    specs = [random_spec(rng) for _ in range(300)]
    convs = [l for spec in specs for l in spec.layers if l.kind == nn.CONV]
    assert ({l.kernel for l in convs}, {l.stride for l in convs},
            {l.padding for l in convs}) == ({1, 3, 5}, {1, 2, 3}, {0, 1, 2, 3})
    assert {len(spec.fc_layers) for spec in specs} == {0, 1, 2}
    assert any(l.kind == nn.AVGPOOL and l.window > 1 for spec in specs for l in spec.layers)
    for spec in specs:
        assert count_macs(spec) == parent_count_macs(spec)
        assert param_shapes(spec) == parent_param_shapes(spec)


@pytest.mark.parametrize("layer", [conv(3, kernel=5, stride=2, padding=1, activation="none"),
                                   avgpool(2), fc(4, activation="relu"), softmax_layer()],
                         ids=lambda l: l.kind)
def test_a_layer_round_trips_through_its_table_fields(layer):
    d = layer.to_dict()
    assert set(d) == {"kind", *nn.LAYER_FIELDS[layer.kind]}
    assert LayerSpec.from_dict(d) == layer


BAD_LAYOUTS = {
    "conv-kernel-even": lambda: conv(2, kernel=4),
    "conv-kernel-float": lambda: conv(2, kernel=3.0),
    "conv-filters-bool": lambda: conv(True),
    "conv-stride-0": lambda: conv(2, stride=0),
    "conv-padding-negative": lambda: conv(2, padding=-1),
    "conv-activation-unknown": lambda: conv(2, activation="tanh"),
    "avgpool-window-0": lambda: avgpool(0),
    "avgpool-window-float": lambda: avgpool(2.0),
    "fc-units-0": lambda: fc(0),
    "kind-unknown": lambda: LayerSpec(kind="pool"),
    "shape-float": lambda: TensorShape(3.0, 2, 2),
    "shape-0": lambda: TensorShape(1, 0, 2),
    "class-count-float": lambda: NetworkSpec(TensorShape(1, 1, 1), (softmax_layer(),),
                                             class_count=1.0),
    "class-count-bool": lambda: NetworkSpec(TensorShape(1, 1, 1), (softmax_layer(),),
                                            class_count=True),
}


@pytest.mark.parametrize("case", sorted(BAD_LAYOUTS))
def test_a_layout_field_of_the_wrong_type_or_range_is_rejected(case):
    with pytest.raises(ShapeError):
        BAD_LAYOUTS[case]()


@pytest.mark.parametrize("doc", [
    {"kind": "avgpool", "window": 2, "activation": "relu"},
    {"kind": "fc", "units": 4, "window": 3},
    {"kind": "softmax", "filters": 7},
    ["avgpool", 2],
])
def test_a_layer_key_its_kind_does_not_take_is_rejected(doc):
    with pytest.raises(ShapeError):
        LayerSpec.from_dict(doc)


@pytest.mark.parametrize("doc", [
    {"kind": "conv", "filters": 2, "kernel": 3, "stride": 1, "padding": 1},
    {"kind": "fc", "units": 4},
])
def test_a_conv_or_fc_layer_must_name_its_activation(doc):
    # `conv()` defaults to relu, `LayerSpec` to none: a spec file must say
    with pytest.raises(ShapeError, match=f"{doc['kind']} layers must name their activation"):
        LayerSpec.from_dict(doc)
    assert LayerSpec.from_dict(dict(doc, activation="relu")).activation == "relu"


# ---------------------------------------------------------------------------
# training


def small_dataset(**kw):
    args = dict(seed=5, classes=3, samples_per_class=12, shape=(2, 8, 8),
                noise=1.0)
    args.update(kw)
    return synth_dataset(**args)


def test_weight_one_identity():
    ds = small_dataset()
    spec = tiny_spec()
    base = WeakLearner.initialize(spec, seed=0, learner_id="t")
    n = ds.split_size("train")
    a = train(base, TrainSet(base, ds, np.ones(n), seed=7, batch_size=32), epochs=2,
              learning_rate=0.05)
    b = train(base, TrainSet(base, ds, np.ones(n), seed=7, batch_size=32), epochs=2,
              learning_rate=0.05)
    assert a.checksum() == b.checksum() != base.checksum()
    assert all(np.isfinite(v).all() for p in a.params if p for v in p)


def test_doubled_weights_normalize_to_identity():
    from enboost.boost import normalize
    ds = small_dataset()
    base = WeakLearner.initialize(tiny_spec(), seed=0, learner_id="t")
    n = ds.split_size("train")
    a = train(base, TrainSet(base, ds, np.ones(n), seed=7, batch_size=32), epochs=2,
              learning_rate=0.05)
    b = train(base, TrainSet(base, ds, normalize(2.0 * np.ones(n)), seed=7, batch_size=32),
              epochs=2, learning_rate=0.05)
    assert a.checksum() == b.checksum()


def test_separable_two_class_set_reaches_95_percent():
    ds = small_dataset(seed=11, classes=2, samples_per_class=30, noise=0.3)
    learner = WeakLearner.initialize(tiny_spec(classes=2), seed=0, learner_id="t")
    learner = train(learner, TrainSet(learner, ds, np.ones(ds.split_size("train")), seed=0,
                                      batch_size=32),
                    epochs=50, learning_rate=0.05)
    assert evaluate(learner, *ds.split("eval")) >= 0.95


def test_training_diverges_on_non_finite_loss():
    ds = small_dataset()
    ds.x[0] = np.inf  # poison one train sample
    learner = WeakLearner.initialize(tiny_spec(), seed=0, learner_id="learner-07")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingDivergedError) as err:
            train(learner, TrainSet(learner, ds, np.ones(ds.split_size("train")), seed=0,
                                    batch_size=len(ds.y)), epochs=1, learning_rate=0.05)
    assert err.value.epoch == 0
    assert [str(w.message) for w in caught] == []
    assert (err.value.learner, err.value.stage) == ("learner-07", "train")
    assert "learner-07" in str(err.value) and "train" in str(err.value)


def stride_2_spec():
    return NetworkSpec(input_shape=TensorShape(2, 8, 8), class_count=3, layers=(
        conv(4, kernel=3, stride=2, padding=1), conv(3, kernel=3, padding=1),
        avgpool(2), fc(3), softmax_layer()))


# (spec, float64 parameters, batch size): each size leaves a short last
# batch of the 36 train samples
TRAIN_CASES = {
    "float32-batch-7": (tiny_spec, False, 7),
    "float32-batch-32": (tiny_spec, False, 32),
    "float64-batch-10": (tiny_spec, True, 10),
    "stride-2-batch-5": (stride_2_spec, False, 5),
}


@pytest.mark.parametrize("epochs", [0, 1, 3])
@pytest.mark.parametrize("case", sorted(TRAIN_CASES))
def test_train_matches_the_reference_trainer(case, epochs):
    # the reference slices, checks and draws anew in each call, and sums the
    # float64 loss at every step; `train` reads its epochs from a TrainSet
    # that an earlier call drew
    make_spec, in_float64, batch_size = TRAIN_CASES[case]
    ds = small_dataset(samples_per_class=20)
    assert ds.split_size("train") == 36 and 36 % batch_size
    learner = WeakLearner.initialize(make_spec(), seed=3, learner_id="t")
    dtype = np.float64 if in_float64 else np.float32
    if in_float64:
        learner.params = float64_params(learner.params)
    w = np.random.default_rng(4).uniform(0.2, 3.0, ds.split_size("train"))
    want, _ = reference_train(learner, ds, w, epochs=epochs, learning_rate=0.1, seed=9,
                              batch_size=batch_size)
    data = TrainSet(learner, ds, w, seed=9, batch_size=batch_size)
    train(learner, data, epochs=3, learning_rate=0.1)   # draws every epoch first
    got = train(learner, data, epochs=epochs, learning_rate=0.1)
    assert got.spec == want.spec
    for p, q in zip(got.params, want.params):
        for a, b in zip(p or (), q or ()):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(bits(a), bits(b))


def poisoned_in_second_batch(ds, seed, batch_size, epoch=0):
    """Poison (inf) the train sample that the second batch of `epoch` at this
    seed opens with; returns its dataset index."""
    rng = np.random.default_rng(seed)
    for _ in range(epoch + 1):
        order = rng.permutation(ds.split_size("train"))
    victim = int(ds.splits["train"][order[batch_size]])
    ds.x[victim] = np.inf
    return victim


def test_training_diverges_at_the_step_of_the_poisoned_batch(monkeypatch):
    # one sample of the second batch is inf: the first step updates, the
    # second raises before its update, and numpy warns of nothing
    ds = small_dataset()
    poisoned_in_second_batch(ds, seed=3, batch_size=8)
    learner = WeakLearner.initialize(tiny_spec(), seed=0, learner_id="learner-02")
    steps = []
    monkeypatch.setattr(nn, "_sgd_step", lambda *a, real=nn._sgd_step: (
        steps.append(a[0][0][0].copy()), real(*a)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingDivergedError) as err:
            train(learner, TrainSet(learner, ds, np.ones(ds.split_size("train")), seed=3,
                                    batch_size=8), epochs=2, learning_rate=0.05)
    assert [str(w.message) for w in caught] == []
    assert (err.value.epoch, err.value.learner, err.value.stage) == (0, "learner-02", "train")
    assert len(steps) == 1 and np.isfinite(steps[0]).all()


def test_a_float64_weight_near_the_float64_max_diverges_one_step_later(monkeypatch):
    # the reference's float64 loss overflows at the heavy sample's step, so
    # it raised before that step's update; the update's gradient is finite,
    # so `train` makes it, and the next step's probabilities are NaN
    ds = small_dataset()
    w = np.ones(ds.split_size("train"))
    w[3] = 1.7e308
    learner = WeakLearner.initialize(tiny_spec(), seed=0, learner_id="t")
    learner.params = float64_params(learner.params)
    updates = {}
    for name, fit in (("reference", lambda: reference_train(
            learner, ds, w, epochs=3, learning_rate=0.05, seed=0, batch_size=8)),
                      ("train", lambda: train(learner, TrainSet(
                          learner, ds, w, seed=0, batch_size=8),
                          epochs=3, learning_rate=0.05))):
        steps = []
        monkeypatch.setattr(nn, "_sgd_step", lambda *a, real=nn._sgd_step: (
            steps.append(1), real(*a)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrainingDivergedError) as err:
                fit()
        monkeypatch.undo()
        assert [str(m.message) for m in caught] == [] and err.value.epoch == 0
        updates[name] = len(steps)
    assert updates == {"reference": 1, "train": 2}


def test_a_train_set_is_for_one_dtype_and_class_count():
    ds = small_dataset()
    learner = WeakLearner.initialize(tiny_spec(), seed=0, learner_id="t")
    data = TrainSet(learner, ds, np.ones(ds.split_size("train")), seed=0, batch_size=8)
    # each call gathers epoch 1 of the same permutation
    first, again = data.epoch(1), data.epoch(1)
    assert [len(x) for x, _, _ in first] == [8, 8, 6]
    for a, b in zip(first, again):
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
    f64 = WeakLearner(learner.spec, float64_params(learner.params), 0.0, "t")
    wide = WeakLearner.initialize(tiny_spec(classes=4), seed=0, learner_id="t")
    for other in (f64, wide):
        with pytest.raises(ShapeError, match="cannot train on a float32 train set of 3"):
            train(other, data, epochs=1, learning_rate=0.05)


@pytest.mark.parametrize("epochs", [0, 1])
def test_train_shares_no_array_with_its_input(epochs):
    ds = small_dataset()
    learner = WeakLearner.initialize(tiny_spec(), seed=0, learner_id="t")
    before = nn.copy_params(learner.params)
    trained = train(learner, TrainSet(learner, ds, np.ones(ds.split_size("train")), seed=0,
                                      batch_size=32),
                    epochs=epochs, learning_rate=0.05)
    for p, q, r in zip(trained.params, learner.params, before):
        if p is None:
            continue
        for a, b, c in zip(p, q, r):
            assert not np.shares_memory(a, b)
            assert np.array_equal(b, c)


_TRAIN_THREE_TIMES = """
import tracemalloc
import numpy as np
from enboost import nn
from enboost.data import synth_dataset
spec = nn.NetworkSpec(input_shape=nn.TensorShape(3, 6, 6), class_count=3, layers=(
    nn.conv(4, padding=1), nn.conv(4, padding=1), nn.conv(4, padding=1),
    nn.conv(4, padding=1), nn.fc(3), nn.softmax_layer()))
ds = synth_dataset(seed=5, classes=3, samples_per_class=20, shape=(3, 6, 6), noise=1.0)
learner = nn.WeakLearner.initialize(spec, seed=0, learner_id="t")
weights = np.ones(ds.split_size("train"))
for call in range(3):
    nn.train(learner, nn.TrainSet(learner, ds, weights, seed=0, batch_size=32), epochs=322,
             learning_rate=0.05)
    if call == 0:
        tracemalloc.start()
    print(tracemalloc.get_traced_memory()[0])
"""


def test_repeated_training_keeps_no_block_alive():
    # Three calls of 644 SGD steps and 4,508 patch gathers each, in a fresh
    # interpreter that no earlier test has warmed. Gathers through
    # `as_strided` views left numpy holding a 0.94 MB block from about their
    # 10,000th call, in the third call here. The small freed blocks that
    # numpy and Python cache stay below 16 KiB; one gather buffer of this
    # network at batch 32 is 24 KiB or more.
    env = dict(os.environ, PYTHONPATH=str(Path(nn.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _TRAIN_THREE_TIMES], env=env,
                          capture_output=True, text=True, check=True)
    first, _, third = map(int, done.stdout.split())
    assert third - first < 16 * 1024


def test_train_rejects_bad_weights():
    ds = small_dataset()
    learner = WeakLearner.initialize(tiny_spec(), seed=0, learner_id="t")
    with pytest.raises(ShapeError):
        TrainSet(learner, ds, np.ones(3), seed=0, batch_size=32)
    for value in (-1.0, 0.0, np.inf, np.nan):
        bad = np.ones(ds.split_size("train"))
        bad[0] = value
        with pytest.raises(ShapeError):
            TrainSet(learner, ds, bad, seed=0, batch_size=32)


def test_float32_step_with_an_underflowing_true_class_probability_is_finite():
    # logits of +-200 put the true class's probability at exp(-400), which is
    # 0.0 in float32; a float32 loss with a float32 floor of 1e-300 was
    # -log 0 = inf, and the step raised TrainingDivergedError. The
    # probabilities are finite, so the step completes
    learner = WeakLearner.initialize(fc_net(1, 2), seed=0, learner_id="t")
    learner.params[0] = (np.array([[200.0], [-200.0]], dtype=np.float32),
                         np.zeros(2, dtype=np.float32))
    x = np.ones((4, 1, 1, 1), dtype=np.float32)
    ds = Dataset(x=x, y=np.ones(4, dtype=int), class_count=2,
                 splits={"train": np.arange(4), "eval": np.arange(1),
                         "test": np.arange(1)})
    assert forward(learner, x)[:, 1].tolist() == [0.0] * 4
    trained = train(learner, TrainSet(learner, ds, np.ones(4), seed=0, batch_size=4),
                    epochs=1, learning_rate=0.1)
    assert all(np.isfinite(p).all() for p in trained.params[0])
    assert trained.params[0][0].tolist() != learner.params[0][0].tolist()


def param_dtypes(learner):
    return {a.dtype for p in learner.params if p is not None for a in p}


def test_the_engine_runs_in_float32():
    spec = tiny_spec()
    ds = small_dataset()
    assert ds.x.dtype == np.float32
    learner = WeakLearner.initialize(spec, seed=0, learner_id="t")
    assert param_dtypes(learner) == {np.dtype(np.float32)}
    trained = train(learner, TrainSet(learner, ds, np.ones(ds.split_size("train")), seed=0,
                                      batch_size=32),
                    epochs=1, learning_rate=0.05)
    assert param_dtypes(trained) == {np.dtype(np.float32)}
    assert all(np.isfinite(v).all() for p in trained.params if p for v in p)
    x = ds.split("eval")[0].astype(np.float64)   # inputs are cast, not followed
    acts = trunk(trained, x)
    assert acts.dtype == forward(trained, x).dtype == forward(trained, x[0]).dtype
    assert acts.dtype == head(trained, acts).dtype == np.float32
    # a float64 learning rate, weights or activations do not promote the step
    for lr in (0.1, np.float64(0.1)):
        updated, probs = train_fc_only(trained, acts.astype(np.float64), [0] * len(x),
                                       np.ones(len(x)), lr)
        assert probs.dtype == np.float32
        assert param_dtypes(updated) == {np.dtype(np.float32)}
        stepped, _ = fc_step(trained, acts, np.eye(3, dtype=np.float32)[[1] * len(x)],
                             np.ones(len(x), dtype=np.float32), lr)
        assert param_dtypes(stepped) == {np.dtype(np.float32)}


def test_a_float64_learner_trains_and_serves_in_float64():
    # a pool written before float32 holds float64 parameters: the engine
    # follows them, whatever the dataset's dtype
    spec = tiny_spec()
    ds = small_dataset()
    learner = WeakLearner.initialize(spec, seed=0, learner_id="t")
    learner.params = float64_params(learner.params)
    data = TrainSet(learner, ds, np.ones(ds.split_size("train")), seed=0, batch_size=32)
    trained = train(learner, data, epochs=1, learning_rate=0.05)
    assert param_dtypes(trained) == {np.dtype(np.float64)}
    x = ds.split("eval")[0]
    acts = trunk(trained, x)
    assert acts.dtype == forward(trained, x).dtype == head(trained, acts).dtype == np.float64
    updated, probs = train_fc_only(trained, acts, [0] * len(x), np.ones(len(x)), 0.1)
    assert probs.dtype == np.float64
    assert param_dtypes(updated) == {np.dtype(np.float64)}


# ---------------------------------------------------------------------------
# train_fc_only


def test_fc_only_zero_learning_rate_is_identity():
    learner = WeakLearner.initialize(tiny_spec(), seed=2, learner_id="t")
    x = np.random.default_rng(0).standard_normal((1, 2, 8, 8))
    updated, probs = train_fc_only(learner, trunk(learner, x), [1], [1.0],
                                   learning_rate=0.0)
    assert updated.checksum() == learner.checksum()
    assert np.array_equal(probs, forward(learner, x))


def test_fc_only_preserves_conv_parameters():
    spec = tiny_spec()
    learner = WeakLearner.initialize(spec, seed=2, learner_id="t")
    conv_idx = [i for i, l in enumerate(spec.layers) if l.kind == "conv"]
    before = params_checksum([learner.params[i] for i in conv_idx])
    x = np.random.default_rng(0).standard_normal((3, 2, 8, 8))
    updated, probs = train_fc_only(learner, trunk(learner, x), [0, 1, 2],
                                   [1.0, 0.5, 2.0], learning_rate=0.1)
    after = params_checksum([updated.params[i] for i in conv_idx])
    assert before == after
    # every layer below the head is bitwise unchanged, so is its output
    for idx in range(spec.head_start):
        old, new = learner.params[idx], updated.params[idx]
        assert (old is None) == (new is None)
        if old is not None:
            assert old[0].tobytes() == new[0].tobytes()
            assert old[1].tobytes() == new[1].tobytes()
    assert trunk(updated, x).tobytes() == trunk(learner, x).tobytes()
    assert updated.checksum() != learner.checksum()
    # returned outputs come from the pre-update parameters
    assert np.array_equal(probs, forward(learner, x))


def test_fc_only_shares_the_trunk_and_leaves_the_input_learner_alone():
    spec = two_fc_net()
    learner = WeakLearner.initialize(spec, seed=2, learner_id="t")
    fc_idx = [i for i, l in enumerate(spec.layers) if l.kind == "fc"]
    fc_before = params_checksum([learner.params[i] for i in fc_idx])
    x = np.random.default_rng(0).standard_normal((3, 2, 6, 6))
    updated, _ = train_fc_only(learner, trunk(learner, x), [0, 1, 2],
                               [1.0, 0.5, 2.0], learning_rate=0.1)
    for idx in range(spec.head_start):
        if learner.params[idx] is not None:
            assert updated.params[idx][0] is learner.params[idx][0]
            assert updated.params[idx][1] is learner.params[idx][1]
    assert params_checksum([learner.params[i] for i in fc_idx]) == fc_before
    assert params_checksum([updated.params[i] for i in fc_idx]) != fc_before


def test_fc_only_matches_finite_difference_gradient():
    spec = fc_net(2, 2)
    learner = WeakLearner.initialize(spec, seed=4, learner_id="t")
    learner.params = float64_params(learner.params)   # as gradient_check runs
    x = np.array([0.7, -0.3]).reshape(1, 1, 2)
    label, weight, lr = 1, 1.3, 0.25

    def loss_at(flat):
        probe = learner.copy()
        probe.params = unflatten_params(spec, flat)
        p = forward(probe, x)
        return weight * -np.log(p[label])

    flat = flatten_params(learner.params)
    step = 1e-6
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        hi, lo = flat.copy(), flat.copy()
        hi[i] += step
        lo[i] -= step
        numeric[i] = (loss_at(hi) - loss_at(lo)) / (2 * step)
    updated, _ = train_fc_only(learner, trunk(learner, x), [label], [weight],
                               learning_rate=lr)
    delta = flatten_params(updated.params) - flat
    assert np.allclose(delta, -lr * numeric, atol=1e-6)


def test_fc_only_zero_net_bias_gradient():
    # zero input and zero weights: dW = 0 and db = weight * (probs - onehot)
    spec = fc_net(3, 3)
    learner = WeakLearner.initialize(spec, seed=0, learner_id="t")
    learner.params[0] = (np.zeros((3, 3)), np.zeros(3))
    x = np.zeros((1, 1, 3))
    updated, probs = train_fc_only(learner, trunk(learner, x), [0], [1.0],
                                   learning_rate=1.0)
    assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)
    w, b = updated.params[0]
    onehot = np.array([1.0, 0.0, 0.0])
    assert np.allclose(w, 0.0, atol=1e-8)
    assert np.allclose(b, -(probs[0] - onehot), atol=1e-8)


def test_fc_only_rejects_empty_batch():
    learner = WeakLearner.initialize(fc_net(2, 2), seed=0, learner_id="t")
    with pytest.raises(ShapeError):
        train_fc_only(learner, trunk(learner, np.zeros((0, 1, 1, 2))), [], [], 0.1)


def fc_only_batch_of_three():
    learner = WeakLearner.initialize(baseline_network(), seed=0, learner_id="t")
    x = np.random.default_rng(0).standard_normal((3, 3, 12, 12))
    return learner, trunk(learner, x)


@pytest.mark.parametrize("labels", [[1], [0, 1], [0, 1, 2, 3], 1])
def test_fc_only_rejects_a_label_count_other_than_the_batch(labels):
    learner, acts = fc_only_batch_of_three()
    with pytest.raises(ShapeError, match="labels for a batch of 3"):
        train_fc_only(learner, acts, labels, [1.0, 1.0, 1.0], 0.1)


@pytest.mark.parametrize("weights", [[1.0], [1.0, 1.0], [1.0] * 4, 1.0])
def test_fc_only_rejects_a_weight_count_other_than_the_batch(weights):
    learner, acts = fc_only_batch_of_three()
    with pytest.raises(ShapeError, match="weights for 3 samples"):
        train_fc_only(learner, acts, [0, 1, 2], weights, 0.1)


@pytest.mark.parametrize("label", [-1, 6, 100])
def test_fc_only_rejects_labels_outside_the_classes(label):
    learner, acts = fc_only_batch_of_three()
    with pytest.raises(ShapeError, match=r"labels must be in \[0, 6\)"):
        train_fc_only(learner, acts, [0, label, 2], [1.0, 1.0, 1.0], 0.1)


@pytest.mark.parametrize("labels", [[0, 1.7, 2], [0.0, 1.0, 2.0], [False, True, True],
                                    ["0", "1", "2"]])
def test_fc_only_rejects_labels_that_are_not_integers(labels):
    # a cast would train 1.7 as class 1
    learner, acts = fc_only_batch_of_three()
    with pytest.raises(ShapeError, match="labels must be integers"):
        train_fc_only(learner, acts, labels, [1.0, 1.0, 1.0], 0.1)


@pytest.mark.parametrize("weight", [-1.0, 0.0, -0.0, np.nan, np.inf, -np.inf])
def test_fc_only_rejects_weights_not_positive_and_finite(weight):
    learner, acts = fc_only_batch_of_three()
    with pytest.raises(ShapeError, match="positive and finite"):
        train_fc_only(learner, acts, [0, 1, 2], [1.0, weight, 1.0], 0.1)


@pytest.mark.parametrize("weight", [1e-50, 1e39])
def test_weights_that_float32_rounds_to_0_or_inf_are_rejected_before_training(weight):
    # positive and finite in float64, but 0.0 or inf in a float32 learner;
    # a float64 learner trains with the same weight
    learner, acts = fc_only_batch_of_three()
    with pytest.raises(ShapeError, match="positive and finite in float32"):
        train_fc_only(learner, acts, [0, 1, 2], [1.0, weight, 1.0], 0.1)
    ds = synth_dataset(seed=0, classes=3, samples_per_class=5, shape=(2, 8, 8), noise=2.5)
    net = WeakLearner.initialize(tiny_spec(), seed=0, learner_id="t")
    weights = np.ones(ds.split_size("train"))
    weights[0] = weight
    with pytest.raises(ShapeError, match="positive and finite in float32"):
        nn.TrainSet(net, ds, weights, seed=0, batch_size=32)
    net.params = float64_params(net.params)
    # a rate small enough that a 1e39 weight does not diverge
    trained = nn.train(net, nn.TrainSet(net, ds, weights, seed=0, batch_size=32),
                       epochs=1, learning_rate=1e-40)
    assert trained.params[0][0].dtype == np.float64
    assert all(np.isfinite(v).all() for p in trained.params if p for v in p)


def test_fc_only_rejects_activations_of_the_wrong_shape():
    learner = WeakLearner.initialize(tiny_spec(), seed=0, learner_id="t")
    x = np.random.default_rng(0).standard_normal((2, 2, 8, 8))
    acts = trunk(learner, x)
    for bad in (x, acts[0], acts.reshape(2, -1), acts[:, :-1]):
        with pytest.raises(ShapeError):
            train_fc_only(learner, bad, [0, 1], [1.0, 1.0], 0.1)
        with pytest.raises(ShapeError):
            head(learner, bad)


# ---------------------------------------------------------------------------
# trunk / head split


def two_fc_net():
    return NetworkSpec(input_shape=TensorShape(2, 6, 6),
                       layers=(conv(3, kernel=3, padding=1), avgpool(2),
                               fc(5, activation="relu"), fc(4), softmax_layer()),
                       class_count=4)


def no_fc_net():
    return NetworkSpec(input_shape=TensorShape(2, 6, 6),
                       layers=(conv(3, kernel=3, padding=1), avgpool(2),
                               conv(4, kernel=3), softmax_layer()),
                       class_count=4)


@pytest.mark.parametrize("make, start", [
    (baseline_network, 5),
    (tiny_spec, 4),
    (lambda: fc_net(5, 3), 0),
    (two_fc_net, 2),
    (no_fc_net, 3),
], ids=["baseline", "tiny", "fc-only", "two-fc", "no-fc"])
def test_head_of_trunk_is_forward_bitwise(make, start):
    spec = make()
    assert spec.head_start == start
    learner = WeakLearner.initialize(spec, seed=7, learner_id="t")
    ish = spec.input_shape
    x = np.random.default_rng(3).standard_normal(
        (32, ish.channels, ish.height, ish.width))
    for batch in (x[:1], x):
        acts = trunk(learner, batch)
        assert acts.shape == (len(batch),) + spec.head_input
        assert head(learner, acts).tobytes() == forward(learner, batch).tobytes()


@pytest.mark.parametrize("make, labels, weights", [
    (baseline_network, [4], [1.0]),
    (baseline_network, [0, 5, 2], [1.0, 1.0, 1.0]),
    (baseline_network, [3], [0.25]),
    (baseline_network, [0, 5, 2], [1.5, 0.25, 3.0]),
    (two_fc_net, [3], [0.5]),
    (two_fc_net, [1, 0, 3], [2.0, 1.0, 0.75]),
], ids=["baseline-b1", "baseline-b3", "baseline-b1-weighted", "baseline-b3-weighted",
        "fc-relu-fc-b1", "fc-relu-fc-b3"])
def test_fc_step_is_train_fc_only_without_its_checks(make, labels, weights):
    # given the one-hot rows and weights that train_fc_only's checks build,
    # the step leaves the same bits and shares the same trunk arrays
    spec = make()
    learner = WeakLearner.initialize(spec, seed=5, learner_id="t")
    ish = spec.input_shape
    x = np.random.default_rng(6).standard_normal(
        (len(labels), ish.channels, ish.height, ish.width))
    acts = trunk(learner, x)
    want, want_probs = train_fc_only(learner, acts, labels, weights, 0.3)
    got, probs = fc_step(learner, acts, np.eye(spec.class_count, dtype=acts.dtype)[labels],
                         np.array(weights, dtype=acts.dtype), 0.3)
    assert np.array_equal(bits(probs), bits(want_probs))
    assert len(got.params) == len(want.params)
    for idx, (p, q) in enumerate(zip(got.params, want.params)):
        if idx < spec.head_start:
            assert p is learner.params[idx]
            continue
        if p is None:
            assert q is None
            continue
        for a, b in zip(p, q):
            assert np.array_equal(bits(a), bits(b))
    assert (got.macs, got.id, got.eval_accuracy) == (want.macs, want.id,
                                                      want.eval_accuracy)


# ---------------------------------------------------------------------------
# parent-engine oracle


def assert_close_to_oracle(got, want, where=None):
    """Same shape, and every value within 1e-12 of the larger of 1 and the
    oracle array's largest magnitude: the engine sums in its own order, so
    only the last bits may differ."""
    assert got.shape == want.shape, where
    bound = 1e-12 * max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert np.max(np.abs(got - want), initial=0.0) <= bound, where


@pytest.mark.parametrize("batch", [1, 29, 32])
def test_softmax_matches_parent_bitwise(batch):
    # direct ufunc reductions and an in-place exp and divide: the same bits
    rng = np.random.default_rng(batch)
    z = rng.standard_normal((batch, 7)) * 10.0
    z[0, 2:5] = z[0].max() + 1.0                   # a tie for the largest
    if batch > 1:
        z[1] = 0.0                                  # all tied
        z[2] = rng.standard_normal(7) * 1e300       # very large magnitudes
        z[3] = -1e308 + rng.standard_normal(7)      # very negative
        z[4] = [700.0, 710.0, -700.0, -745.0, -1e4, 709.0, 0.0]  # exp's edges
        z[5, ::2] = -0.0
    before = z.copy()
    got, want = nn._softmax(z), parent_softmax(z)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(z.view(np.int64), before.view(np.int64))   # input kept


@pytest.mark.parametrize("win", range(1, 13))
def test_avgpool_sums_in_numpys_order(win):
    # numpy's window mean, to rounding, on batch-last input in either layout
    rng = np.random.default_rng(win)
    for b, c, ho, wo in ((1, 1, 1, 1), (2, 1, 2, 3), (3, 4, 1, 1), (2, 3, 2, 2)):
        h, w = ho * win, wo * win
        x = rng.standard_normal((b, c, h, w))
        x[rng.random(x.shape) < 0.3] = -0.0
        x[0, 0, :win, :win] = -0.0
        want = x.reshape(b, c, ho, win, wo, win).mean(axis=(3, 5)).transpose(1, 2, 3, 0)
        # a view of the network's input, and C-ordered, as a conv output is
        batch_last = x.transpose(1, 2, 3, 0)
        for batch in (batch_last, np.ascontiguousarray(batch_last)):
            assert_close_to_oracle(nn._avgpool(batch, win), want)


def check_patch_gather(batch, k, s, p):
    # the patch rows only move data: the oracle's bits, signed zeros and
    # C-order layout, with its columns in (ho, wo, b) order; below them, one
    # row of exact ones for the bias
    rng = np.random.default_rng(100 * k + 10 * s + p)
    for c, h, w in ((1, 5, 5), (3, 12, 12), (4, 6, 7), (2, 1, 1)):
        if min(h, w) + 2 * p < k:
            continue
        x = rng.standard_normal((batch, c, h, w))
        x[rng.random(x.shape) < 0.2] = -0.0
        want, want_ho, want_wo = slice_im2col(x, k, s, p)
        want = (want.reshape(-1, batch, want_ho, want_wo).transpose(0, 2, 3, 1)
                .reshape(want.shape))
        # a view of the network's input, and C-ordered, as a conv or pool
        # output reaches the next conv
        batch_last = x.transpose(1, 2, 3, 0)
        for view in (batch_last, np.ascontiguousarray(batch_last)):
            got, ho, wo = nn._im2col(view, k, s, p)
            assert (ho, wo) == (want_ho, want_wo)
            assert got.shape == (want.shape[0] + 1, want.shape[1])
            assert got.flags.c_contiguous
            assert np.array_equal(got[:-1].view(np.int64), want.view(np.int64))
            assert np.array_equal(got[-1], np.ones(want.shape[1]))


@pytest.mark.parametrize("k", [1, 3, 5, 7])
@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_batch1_patch_gather_matches_slices(k, s, p):
    # the serving path
    check_patch_gather(1, k, s, p)


@pytest.mark.parametrize("k", [1, 3, 5, 7])
@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_patch_gather_matches_slices(k, s, p):
    # batch 3, where the gather's zero margins sit between images
    check_patch_gather(3, k, s, p)


def net(input_shape, *layers):
    """A spec whose classes are the outputs of the layer below softmax."""
    shape = TensorShape(*input_shape)
    for layer in layers[:-1]:
        shape = nn._layer_out_shape(layer, shape)
    return NetworkSpec(input_shape=TensorShape(*input_shape), layers=layers,
                       class_count=shape.size)


ORACLE_NETS = {
    # k3 s1 p1 relu convs; window 2 on channels-last input of > 1 channel
    "baseline": baseline_network,
    # 1-channel input and 1-filter convs; windows 2 and 3 on 1 channel, the
    # last one window wide
    "one-channel": lambda: net(
        (1, 12, 12), conv(1, kernel=3, padding=1), avgpool(2),
        conv(1, kernel=1, activation="none"), avgpool(2), avgpool(3),
        fc(3), softmax_layer()),
    # conv above conv: k5/k3/k1, strides 2 and 1, padding 0 and 1 above an
    # activation-free conv; a 1x1-filter conv; two FC layers
    "conv-stack": lambda: net(
        (2, 11, 11), conv(4, kernel=5, stride=2, padding=1, activation="none"),
        conv(2, kernel=3, padding=1), conv(1, kernel=1, activation="none"),
        conv(3, kernel=3, stride=2), fc(5, activation="relu"), fc(4),
        softmax_layer()),
    # no FC layer: window 3 on > 1 channel, then a one-window pool
    "no-fc": lambda: net(
        (3, 6, 6), conv(3, kernel=3, padding=1), avgpool(3),
        conv(4, kernel=1), avgpool(2), softmax_layer()),
    # an FC layer below a padded conv
    "fc-below-conv": lambda: net(
        (2, 4, 4), fc(3), conv(2, kernel=3, padding=1), fc(4),
        softmax_layer()),
    # pooling the raw input; a conv whose output is one pixel
    "pool-first": lambda: net(
        (2, 9, 9), avgpool(3), conv(4, kernel=5, stride=2, padding=1), fc(3),
        softmax_layer()),
    # padding >= kernel: the outer output rows and columns saw only padding,
    # and the input gradient's spread drops them
    "pad-beyond-kernel": lambda: net(
        (2, 5, 6), conv(3, kernel=3, padding=1), conv(2, kernel=3, padding=3),
        fc(3), softmax_layer()),
    # stride 3 where h + 2p - k (7 and 8) is no multiple of 3: the last input
    # rows and columns reach no output
    "stride-3-remainder": lambda: net(
        (2, 8, 9), conv(3, kernel=3, padding=1),
        conv(4, kernel=3, stride=3, padding=1, activation="none"), fc(3),
        softmax_layer()),
}


def parent_forward(spec, params, x, start=0, stop=None):
    """The oracle's pass without its cache, which `nn._forward` is."""
    return parent_forward_cache(spec, params, x, start, stop)[0]


def _engine_outputs(learner, x, y, w):
    """Every array the engine's callers see, as a flat list."""
    spec = learner.spec
    onehot = nn._one_hot(y, spec.class_count, np.float64)
    loss, grads, probs = loss_and_grads(spec, learner.params, x, onehot, w)
    acts = trunk(learner, x)
    head_loss, head_grads, _ = loss_and_grads(spec, learner.params, acts,
                                              onehot, w, spec.head_start)
    updated, fc_probs = train_fc_only(learner, acts, y, w, 0.1)
    out = [np.array(loss), probs, acts, head(learner, acts), forward(learner, x),
           np.array(head_loss), fc_probs]
    out.extend(nn._forward_cache(spec, learner.params, x, stop=stop)[0]
               for stop in range(1, len(spec.layers)))
    for g in list(grads) + list(head_grads) + list(updated.params):
        out.extend([] if g is None else g)
    return out


@pytest.mark.parametrize("name", ORACLE_NETS)
def test_engine_matches_parent_oracle(name, monkeypatch):
    spec = ORACLE_NETS[name]()
    rng = np.random.default_rng(11)
    learner = WeakLearner.initialize(spec, seed=5, learner_id="t")
    # in float64, as the oracle runs
    learner.params = [None if p is None else
                      (p[0], rng.standard_normal(p[1].shape) * 0.1)
                      for p in float64_params(learner.params)]
    ish = spec.input_shape
    for batch in (1, 2, 31, 32):
        x = rng.standard_normal((batch, ish.channels, ish.height, ish.width))
        # signed zeros, also where a whole window is -0.0
        x[rng.random(x.shape) < 0.1] = -0.0
        x[::2, :, :3] = -0.0
        y = rng.integers(0, spec.class_count, size=batch)
        w = rng.uniform(0.5, 1.5, size=batch)
        got = _engine_outputs(learner, x, y, w)
        with monkeypatch.context() as m:
            m.setattr(nn, "_forward_cache", parent_forward_cache)
            m.setattr(nn, "_forward", parent_forward)
            m.setattr(nn, "_backward", parent_backward)
            want = _engine_outputs(learner, x, y, w)
        assert len(got) == len(want)
        for i, (a, b) in enumerate(zip(got, want)):
            assert_close_to_oracle(a, b, (batch, i))


@pytest.mark.parametrize("batch", [1, 32])
@pytest.mark.parametrize("name", ["baseline", "conv-stack", "no-fc"])
def test_large_conv_biases_match_parent_oracle(name, batch, monkeypatch):
    # the bias rides in the conv GEMMs: biases of +-1e3 must still give the
    # oracle's outputs and bias gradients, where it adds and sums them apart
    spec = ORACLE_NETS[name]()
    rng = np.random.default_rng(batch)
    learner = WeakLearner.initialize(spec, seed=9, learner_id="t")
    # in float64, as the oracle runs
    learner.params = [p if p is None or layer.kind != nn.CONV else
                      (p[0], rng.choice([-1e3, 1e3], size=p[1].shape))
                      for p, layer in zip(float64_params(learner.params), spec.layers)]
    ish = spec.input_shape
    x = rng.standard_normal((batch, ish.channels, ish.height, ish.width))
    y = forward(learner, x).argmin(axis=1)   # the saturated softmax stays wrong
    w = rng.uniform(0.5, 1.5, size=batch)
    onehot = nn._one_hot(y, spec.class_count, np.float64)
    got = loss_and_grads(spec, learner.params, x, onehot, w)
    outs = [nn._forward_cache(spec, learner.params, x, stop=stop)[0]
            for stop in range(1, len(spec.layers) + 1)]
    with monkeypatch.context() as m:
        m.setattr(nn, "_forward_cache", parent_forward_cache)
        m.setattr(nn, "_backward", parent_backward)
        want = loss_and_grads(spec, learner.params, x, onehot, w)
        want_outs = [parent_forward_cache(spec, learner.params, x, stop=stop)[0]
                     for stop in range(1, len(spec.layers) + 1)]
    conv_grads = [(g, h) for g, h, layer in zip(got[1], want[1], spec.layers)
                  if layer.kind == nn.CONV]
    assert any(np.any(g[1]) for g, _ in conv_grads)   # some bias gradient is live
    for i, (g, h) in enumerate(conv_grads):
        assert_close_to_oracle(g[1], h[1], ("bias", i))
        assert_close_to_oracle(g[0], h[0], ("weight", i))
    for i, (a, b) in enumerate(zip(outs, want_outs)):
        assert_close_to_oracle(a.reshape(b.shape), b, ("output", i))
    assert_close_to_oracle(got[2], want[2], "probs")
    assert_close_to_oracle(np.array(got[0]), np.array(want[0]), "loss")


# ---------------------------------------------------------------------------
# gradient oracle


def test_gradient_check_two_layer_toy_net():
    spec = NetworkSpec(input_shape=TensorShape(1, 4, 4),
                       layers=(conv(2, kernel=3, padding=1), avgpool(2),
                               fc(3), softmax_layer()),
                       class_count=3)
    assert gradient_check(spec, seed=0, step=1e-5) < 1e-4


def test_gradient_check_three_seeds():
    spec = NetworkSpec(input_shape=TensorShape(2, 6, 6),
                       layers=(conv(3, kernel=3, padding=1), avgpool(2),
                               conv(4, kernel=3), fc(3), softmax_layer()),
                       class_count=3)
    for seed in (1, 2, 3):
        assert gradient_check(spec, seed=seed, step=1e-5) < 1e-4
