"""Vote weights, weighted voting, backfitting selection, and the accuracy
profile."""
import numpy as np
import pytest

from conftest import brute_force_select, tiny_spec
from enboost import ensemble
from enboost.boost import PoolConfig, build_pool
from enboost.data import synth_dataset
from enboost.ensemble import (ERROR_CLAMP, EnsembleModel, backfit_select,
                              greedy_select,
                              learner_weight, load_ensemble, pool_eval_probs,
                              profile_accuracy, save_ensemble,
                              subset_accuracy, weighted_vote)
from enboost.errors import ArtifactError, ConfigError
from enboost.prune import PruneSchedule


def pool_weights(pool):
    return [learner_weight(1.0 - l.eval_accuracy) for l in pool]


def test_learner_weight_examples():
    assert learner_weight(0.5) == 0.0
    assert abs(learner_weight(0.2) - 0.5 * np.log(4.0)) < 1e-12
    assert abs(learner_weight(0.0) -
               0.5 * np.log((1 - ERROR_CLAMP) / ERROR_CLAMP)) < 1e-12
    assert abs(learner_weight(1.0) + learner_weight(0.0)) < 1e-12
    assert learner_weight(0.2) > 0 > learner_weight(0.8)
    with pytest.raises(ConfigError):
        learner_weight(1.5)


def test_weighted_vote_hand_example():
    cls, scores = weighted_vote([(0.6, 0.4), (0.1, 0.9)], [1.0, 0.5])
    assert cls == 1
    assert np.allclose(scores, [0.65, 0.85])


def test_weighted_vote_unanimity():
    cls, _ = weighted_vote([(0.9, 0.1), (0.8, 0.2), (0.95, 0.05)],
                           [0.3, 0.7, 0.2])
    assert cls == 0


def test_weighted_vote_scale_invariance():
    probs = [(0.6, 0.4), (0.1, 0.9)]
    cls_a, scores_a = weighted_vote(probs, [1.0, 0.5])
    cls_b, scores_b = weighted_vote(probs, [3.0, 1.5])
    assert cls_a == cls_b
    assert np.allclose(scores_b, 3.0 * scores_a)


def test_weighted_vote_tie_breaks_low():
    cls, _ = weighted_vote([(0.5, 0.5)], [1.0])
    assert cls == 0


def test_weighted_vote_degenerate_warns():
    with pytest.warns(UserWarning):
        cls, _ = weighted_vote([(0.2, 0.8)], [-1.0])
    assert cls in (0, 1)


def test_weighted_vote_validation():
    with pytest.raises(ConfigError):
        weighted_vote([], [])
    with pytest.raises(ConfigError):
        weighted_vote([(0.5, 0.5)], [1.0, 2.0])


@pytest.fixture(scope="module")
def small_pool():
    ds = synth_dataset(seed=5, classes=3, samples_per_class=20,
                       shape=(2, 8, 8), noise=1.8)
    cfg = PoolConfig(pool_size=5, ensemble_size=3, train_epochs=4,
                     learning_rate=0.05,
                     prune=PruneSchedule(target_mac_fraction=1.0 / 3.0,
                                         retrain_epochs_per_step=1),
                     seed=0)
    pool, _ = build_pool(tiny_spec(), ds, cfg)
    return pool, ds


def test_backfit_identity_when_pool_equals_n(small_pool):
    pool, ds = small_pool
    ex, ey = ds.split("eval")
    model = backfit_select(pool[:3], 3, ex, ey)
    assert sorted(l.id for l in model.learners) == sorted(l.id for l in pool[:3])


def test_backfit_single_learner(small_pool):
    pool, ds = small_pool
    ex, ey = ds.split("eval")
    model = backfit_select(pool, 1, ex, ey)
    assert model.size == 1
    # best single learner under the weighted vote (negative vote weights can
    # flip a weak learner's predictions, so this is not raw eval accuracy)
    probs = pool_eval_probs(pool, ex)
    labels = np.asarray(ey)
    weights = pool_weights(pool)
    best = max(subset_accuracy(probs[[i]], [weights[i]], labels)
               for i in range(len(pool)))
    assert abs(model.acc_profile[0] - best) < 1e-12


def test_backfit_rejects_small_pool(small_pool):
    pool, ds = small_pool
    ex, ey = ds.split("eval")
    with pytest.raises(ConfigError):
        backfit_select(pool[:2], 3, ex, ey)


def test_backfit_at_least_greedy_and_ordered(small_pool):
    pool, ds = small_pool
    ex, ey = ds.split("eval")
    labels = np.asarray(ey)
    probs = pool_eval_probs(pool, ex)
    weights = pool_weights(pool)
    greedy = greedy_select(weights, 3, probs, labels)
    greedy_acc = subset_accuracy(probs[greedy], [weights[i] for i in greedy], labels)
    model = backfit_select(pool, 3, ex, ey)
    assert model.acc_profile[-1] >= greedy_acc
    evals = [l.eval_accuracy for l in model.learners]
    assert evals == sorted(evals, reverse=True)


def test_backfit_forwards_and_weighs_each_pool_learner_once(small_pool, monkeypatch):
    pool, ds = small_pool
    ex, ey = ds.split("eval")
    expected = backfit_select(pool, 3, ex, ey)
    forwarded, weighed = [], []
    forward, weight = ensemble.forward, ensemble.learner_weight
    monkeypatch.setattr(ensemble, "forward",
                        lambda l, x: forwarded.append(l.id) or forward(l, x))
    monkeypatch.setattr(ensemble, "learner_weight",
                        lambda e: weighed.append(e) or weight(e))
    model = backfit_select(pool, 3, ex, ey)
    assert forwarded == [l.id for l in pool]
    assert len(weighed) == len(pool)
    assert model == expected


def test_full_vote_order_independent(small_pool):
    pool, ds = small_pool
    ex, ey = ds.split("eval")
    model = backfit_select(pool, 3, ex, ey)
    probs = pool_eval_probs(model.learners, ex)
    base = subset_accuracy(probs, model.vote_weights, np.asarray(ey))
    perm = [2, 0, 1]
    shuffled = subset_accuracy(probs[perm],
                               np.asarray(model.vote_weights)[perm],
                               np.asarray(ey))
    assert base == shuffled


def test_profile_telescoping(small_pool):
    pool, ds = small_pool
    ex, ey = ds.split("eval")
    model = backfit_select(pool, 3, ex, ey)
    acc = profile_accuracy(pool_eval_probs(model.learners, ex),
                           model.vote_weights, np.asarray(ey))
    delta = model.delta_acc
    assert acc == model.acc_profile
    assert len(acc) == len(delta) == 3
    assert abs(sum(delta) - (acc[-1] - 1.0 / model.class_count)) < 1e-12
    assert all(0.0 <= a <= 1.0 for a in acc)


def test_single_learner_profile(small_pool):
    pool, ds = small_pool
    ex, ey = ds.split("eval")
    model = backfit_select(pool, 1, ex, ey)
    assert len(model.acc_profile) == 1
    assert abs(model.acc_profile[0] -
               subset_accuracy(pool_eval_probs(model.learners, ex),
                               model.vote_weights, np.asarray(ey))) < 1e-12


def test_backfit_close_to_brute_force(small_pool):
    pool, ds = small_pool
    ex, ey = ds.split("eval")
    model = backfit_select(pool, 3, ex, ey)
    _, best_acc = brute_force_select(pool, 3, ex, ey)
    assert model.acc_profile[-1] >= best_acc - 0.005 - 1e-12


def test_ensemble_round_trip(tmp_path, small_pool):
    pool, ds = small_pool
    ex, ey = ds.split("eval")
    model = backfit_select(pool, 3, ex, ey)
    from enboost.boost import save_pool
    save_pool(pool, tmp_path / "pool")
    save_ensemble(model, tmp_path / "ensemble.json", pool_dir="pool")
    loaded = load_ensemble(tmp_path / "ensemble.json")
    assert [l.id for l in loaded.learners] == [l.id for l in model.learners]
    assert loaded.vote_weights == model.vote_weights
    assert loaded.acc_profile == model.acc_profile
    assert loaded.delta_acc == model.delta_acc
    assert loaded.total_macs == model.total_macs


@pytest.mark.parametrize("key", ["vote_weights", "acc_profile", "delta_acc"])
@pytest.mark.parametrize("edit", ["short", "long", "nan", "inf", "text", "null"])
def test_load_ensemble_needs_one_finite_number_per_learner(tmp_path, small_pool,
                                                           key, edit):
    import json
    from enboost.boost import save_pool
    pool, ds = small_pool
    ex, ey = ds.split("eval")
    save_pool(pool, tmp_path / "pool")
    save_ensemble(backfit_select(pool, 3, ex, ey), tmp_path / "ensemble.json",
                  pool_dir="pool")
    doc = json.loads((tmp_path / "ensemble.json").read_text())
    values = doc[key]
    if edit == "short":
        values.pop()
    elif edit == "long":
        values.append(0.5)
    else:
        values[1] = {"nan": float("nan"), "inf": float("inf"),
                     "text": "0.5", "null": None}[edit]
    (tmp_path / "ensemble.json").write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match=f"ensemble.json: {key} must hold"):
        load_ensemble(tmp_path / "ensemble.json")
