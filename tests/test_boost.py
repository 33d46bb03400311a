"""Boosting loop: weight initialization, the multiplicative update, pool
construction, and pool persistence."""
import hashlib
import json

import numpy as np
import pytest

from conftest import float64_params, pool_config, tiny_spec
from enboost import boost, nn, prune
from enboost.boost import (build_pool, init_weights, load_pool,
                           normalize, save_pool, update_weights,
                           weight_multipliers)
from enboost.data import synth_dataset
from enboost.errors import ArtifactError, ConfigError, ShapeError
from enboost.nn import TrainSet, WeakLearner, evaluate, forward, train
from enboost.prune import prune_to_budget


def test_init_weights_examples():
    assert np.array_equal(init_weights(5), np.ones(5))
    assert np.array_equal(init_weights(1), np.ones(1))
    assert init_weights(7).mean() == 1.0
    with pytest.raises(ConfigError):
        init_weights(0)


def test_multiplier_identity_at_full_confidence():
    assert abs(weight_multipliers([1.0], alpha=0.5)[0] - 1.0) < 1e-9


def test_multiplier_quarter_probability_example():
    # exp(-0.5 * ln 0.25) = 2
    assert abs(weight_multipliers([0.25], alpha=0.5)[0] - 2.0) < 1e-9


def test_multiplier_monotone_decreasing_in_confidence():
    p = np.linspace(0.05, 1.0, 40)
    m = weight_multipliers(p, alpha=0.7)
    assert np.all(np.diff(m) < 0)
    assert np.all(m >= 1.0 - 1e-12)


def test_multiplier_floor_bounds_singularity():
    m = weight_multipliers([0.0], alpha=0.5)[0]
    assert np.isfinite(m)
    assert abs(m - (1e-6) ** -0.5) < 1e-6


def test_normalize_mean_one():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.1, 5.0, size=100)
    assert abs(normalize(w).mean() - 1.0) < 1e-9


def test_sample_weights_validation():
    # Sample weights are plain arrays; the train set the boosting loop
    # trains on rejects a weight that is not positive and finite.
    spec, ds, cfg = small_pool_setup()
    learner = WeakLearner.initialize(spec, seed=0, learner_id="t")
    for value in (0.0, np.inf):
        w = init_weights(ds.split_size("train"))
        w[0] = value
        with pytest.raises(ShapeError):
            TrainSet(learner, ds, w, seed=cfg.seed, batch_size=cfg.batch_size)


def small_pool_setup():
    ds = synth_dataset(seed=5, classes=3, samples_per_class=16,
                       shape=(2, 8, 8), noise=1.5)
    cfg = pool_config(pool_size=3, ensemble_size=2, train_epochs=3,
                      learning_rate=0.05,
                      retrain_epochs_per_step=1,
                      seed=0)
    return tiny_spec(), ds, cfg


def test_update_weights_contract():
    spec, ds, cfg = small_pool_setup()
    learner = WeakLearner.initialize(spec, seed=0, learner_id="t")
    data = TrainSet(learner, ds, np.ones(ds.split_size("train")), seed=0, batch_size=32)
    learner = train(learner, data, epochs=3, learning_rate=0.05)
    w0 = init_weights(ds.split_size("train"))
    w1 = update_weights(w0, learner, ds, alpha=0.5)
    assert w1.shape == w0.shape
    assert np.all(w1 > 0)
    assert abs(w1.mean() - 1.0) < 1e-9
    # misclassified samples gained weight relative to pre-normalization
    x, y = ds.split("train")
    probs = forward(learner, x)
    p_true = probs[np.arange(len(y)), y]
    raw = w0 * weight_multipliers(p_true, 0.5)
    assert np.all(raw[p_true < 1.0] > w0[p_true < 1.0])


def test_update_weights_rejects_a_weight_that_rounds_to_0_in_the_learners_dtype():
    # 1e-50 is positive in float64 but 0.0 in float32 (smallest subnormal
    # about 1.4e-45); a float64 learner keeps it
    spec, ds, _ = small_pool_setup()
    learner = WeakLearner.initialize(spec, seed=0, learner_id="t")
    w = init_weights(ds.split_size("train"))
    w[0] = 1e-50
    with pytest.raises(ConfigError, match="boost_learning_rate"):
        update_weights(w, learner, ds, alpha=1e-9)
    learner.params = float64_params(learner.params)
    assert update_weights(w, learner, ds, alpha=1e-9)[0] > 0


def test_build_pool_shape_and_budget():
    spec, ds, cfg = small_pool_setup()
    pool, weights = build_pool(spec, ds, cfg)
    assert len(pool) == cfg.pool_size
    assert weights.shape == (ds.split_size("train"),)
    assert abs(weights.mean() - 1.0) < 1e-9
    from enboost.nn import count_macs
    budget = int(np.ceil(count_macs(spec) / cfg.ensemble_size))
    for learner in pool:
        assert learner.macs <= budget


def test_build_pool_deterministic():
    spec, ds, cfg = small_pool_setup()
    pool_a, wa = build_pool(spec, ds, cfg)
    pool_b, wb = build_pool(spec, ds, cfg)
    assert [l.checksum() for l in pool_a] == [l.checksum() for l in pool_b]
    assert np.array_equal(wa, wb)


def test_first_pool_learner_equals_standalone_train_prune():
    spec, ds, cfg = small_pool_setup()
    pool, _ = build_pool(spec, ds, cfg)
    fresh = WeakLearner.initialize(spec, seed=cfg.seed, learner_id="learner-00")
    w = init_weights(ds.split_size("train"))
    # a train set each for training and pruning: the pool's learner shares one
    fresh = train(fresh, TrainSet(fresh, ds, w, seed=cfg.seed, batch_size=cfg.batch_size),
                  epochs=cfg.train_epochs, learning_rate=cfg.learning_rate)
    fresh = prune_to_budget(fresh, TrainSet(fresh, ds, w, seed=cfg.seed,
                                            batch_size=cfg.batch_size),
                            1.0 / cfg.ensemble_size, cfg.retrain_epochs_per_step,
                            learning_rate=cfg.learning_rate)
    assert pool[0].checksum() == fresh.checksum()
    assert pool[0].eval_accuracy == evaluate(fresh, *ds.split("eval"))


def test_build_pool_evaluates_each_learner_once(monkeypatch):
    spec, ds, cfg = small_pool_setup()
    evaluated = []

    def counting_evaluate(learner, x, y, real=nn.evaluate):
        evaluated.append(learner.id)
        return real(learner, x, y)

    for module in (nn, prune, boost):
        monkeypatch.setattr(module, "evaluate", counting_evaluate, raising=False)
    build_pool(spec, ds, cfg)
    assert evaluated == [f"learner-{m:02d}" for m in range(cfg.pool_size)]


def test_build_pool_updates_weights_between_learners_only(monkeypatch):
    spec, ds, cfg = small_pool_setup()
    updated, trained_under = [], []

    def counting_update(weights, learner, dataset, alpha, real=update_weights):
        updated.append(learner.id)
        return real(weights, learner, dataset, alpha)

    def recording_train_set(learner, dataset, weights, **kw):
        trained_under.append(weights)
        return nn.TrainSet(learner, dataset, weights, **kw)

    monkeypatch.setattr(boost, "update_weights", counting_update)
    monkeypatch.setattr(boost, "TrainSet", recording_train_set)
    _, weights = build_pool(spec, ds, cfg)
    assert updated == [f"learner-{m:02d}" for m in range(cfg.pool_size - 1)]
    # the returned weights are the ones the last learner trained under
    assert weights is trained_under[-1]


def test_successive_learners_disagree():
    spec, ds, cfg = small_pool_setup()
    pool, _ = build_pool(spec, ds, cfg)
    ex, _ = ds.split("eval")
    for a, b in zip(pool, pool[1:]):
        pa = forward(a, ex).argmax(axis=1)
        pb = forward(b, ex).argmax(axis=1)
        assert np.mean(pa != pb) > 0.0


def test_pool_round_trip(tmp_path):
    spec, ds, cfg = small_pool_setup()
    pool, _ = build_pool(spec, ds, cfg)
    save_pool(pool, tmp_path / "pool")
    manifest = json.loads((tmp_path / "pool" / "pool.json").read_text())
    assert manifest["version"] == 2
    assert [e["params_checksum"] for e in manifest["learners"]] == [
        l.checksum() for l in pool]
    loaded = load_pool(tmp_path / "pool")
    assert [l.id for l in loaded] == [l.id for l in pool]
    assert [l.checksum() for l in loaded] == [l.checksum() for l in pool]
    assert [l.macs for l in loaded] == [l.macs for l in pool]
    assert [l.eval_accuracy for l in loaded] == [l.eval_accuracy for l in pool]
    for learner in loaded:
        assert {a.dtype for p in learner.params if p is not None for a in p} == {
            np.dtype(np.float32)}
    assert (tmp_path / "pool" / "learner-00.params.npy").stat().st_size == (
        128 + 4 * nn.count_params(loaded[0].spec))


def test_a_float64_pool_is_rejected_naming_its_file(tmp_path):
    # a pool as written before float32: float64 `.npy` files, and the
    # checksums of their bytes
    spec, ds, cfg = small_pool_setup()
    pool, _ = build_pool(spec, ds, cfg)
    for learner in pool:
        learner.params = float64_params(learner.params)
    save_pool(pool, tmp_path / "pool")
    path = tmp_path / "pool" / "learner-00.params.npy"
    with pytest.raises(ArtifactError, match=f"^{path}: parameters must be float32, "
                                            "got float64$"):
        load_pool(tmp_path / "pool")


@pytest.mark.parametrize("dtype", [np.int64, np.float16, np.float64])
def test_load_pool_rejects_parameters_other_than_float32(tmp_path, dtype):
    # even with a matching checksum: the engine would run in their dtype
    save_pool(build_pool(*small_pool_setup())[0], tmp_path / "pool")
    manifest = json.loads((tmp_path / "pool" / "pool.json").read_text())
    path = tmp_path / "pool" / manifest["learners"][0]["params"]
    flat = np.load(path).astype(dtype)
    np.save(path, flat)
    checksum = hashlib.sha256(flat.tobytes()).hexdigest()
    manifest["learners"][0]["params_checksum"] = checksum
    (tmp_path / "pool" / "pool.json").write_text(json.dumps(manifest))
    with pytest.raises(ArtifactError, match=f"{path}: parameters must be float32, "
                                            f"got {np.dtype(dtype)}"):
        load_pool(tmp_path / "pool")
