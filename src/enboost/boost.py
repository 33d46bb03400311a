"""Boosted candidate-pool construction: train a learner, prune it to the MAC
budget, bump the weights of the samples it got wrong, repeat M times.

Sample-weight update: w_i <- w_i * exp(-alpha * log p_true(x_i)), i.e. the
multiplier p_true^(-alpha), then mean-normalized back to 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import artifacts
from .errors import ConfigError
from .nn import (NetworkSpec, WeakLearner, evaluate, flatten_params, forward,
                 params_checksum, params_dtype, unflatten_params, train)
from .prune import PruneSchedule, prune_to_budget

PROB_FLOOR = 1e-6  # clamp inside log: the update is singular at p_true = 0


@dataclass(frozen=True)
class PoolConfig:
    pool_size: int                 # M
    ensemble_size: int             # N
    boost_learning_rate: float = 0.5
    prune: PruneSchedule = None
    train_epochs: int = 12
    learning_rate: float = 0.1
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.ensemble_size:
            raise ConfigError("ensemble_size must be >= 2")
        if self.pool_size <= self.ensemble_size:
            raise ConfigError("pool_size must exceed ensemble_size")
        if self.boost_learning_rate <= 0:
            raise ConfigError("boost_learning_rate must be > 0")
        if self.train_epochs < 0:
            raise ConfigError("train_epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.prune is None:
            object.__setattr__(self, "prune",
                               PruneSchedule(target_mac_fraction=1.0 / self.ensemble_size))


def init_weights(train_size: int) -> np.ndarray:
    if train_size < 1:
        raise ConfigError("train_size must be >= 1")
    return np.ones(train_size)


def normalize(weights: np.ndarray) -> np.ndarray:
    return weights / weights.mean()


def weight_multipliers(p_true, alpha: float) -> np.ndarray:
    """Pre-normalization boosting multiplier p_true^(-alpha), clamped away
    from the singularity at p_true = 0."""
    if alpha <= 0:
        raise ConfigError("alpha must be > 0")
    p = np.clip(np.asarray(p_true, dtype=np.float64), PROB_FLOOR, None)
    return np.exp(-alpha * np.log(p))


def update_weights(weights: np.ndarray, learner: WeakLearner, dataset,
                   alpha: float) -> np.ndarray:
    """Multiply each weight by p_true^(-alpha) on the train split, then
    mean-normalize. Misclassified (low p_true) samples gain weight. An alpha
    so large that the weights overflow, or that a weight rounds to 0.0 in the
    dtype the learners train in, is a configuration error."""
    x, y = dataset.split("train")
    probs = forward(learner, x)
    p_true = probs[np.arange(len(y)), y]
    with np.errstate(over="ignore", invalid="ignore"):
        new = normalize(weights * weight_multipliers(p_true, alpha))
        rounded = new.astype(params_dtype(learner.params))
    if not (np.isfinite(rounded).all() and (rounded > 0).all()):
        raise ConfigError(f"pool.boost_learning_rate {alpha} overflows the sample "
                          f"weights after {learner.id}; use a smaller rate")
    return new


def build_pool(base_spec: NetworkSpec, dataset, cfg: PoolConfig):
    """Train, prune, and boost M weak learners. Learner m trains from a fresh
    seed (cfg.seed + m) under the weights left by learner m-1; each pruned
    learner is evaluated once, on the eval split. Returns (pool, the weights
    the last learner trained under): no learner follows the last, so its
    weight update is not run."""
    weights = init_weights(dataset.split_size("train"))
    pool = []
    for m in range(cfg.pool_size):
        if pool:
            weights = update_weights(weights, pool[-1], dataset,
                                     cfg.boost_learning_rate)
        learner = WeakLearner.initialize(base_spec, seed=cfg.seed + m,
                                         learner_id=f"learner-{m:02d}")
        learner, _ = train(learner, dataset, weights,
                           epochs=cfg.train_epochs,
                           learning_rate=cfg.learning_rate,
                           seed=cfg.seed + m, batch_size=cfg.batch_size)
        learner = prune_to_budget(learner, dataset, weights, cfg.prune,
                                  seed=cfg.seed + m,
                                  learning_rate=cfg.learning_rate,
                                  batch_size=cfg.batch_size)
        learner.eval_accuracy = evaluate(learner, *dataset.split("eval"))
        pool.append(learner)
    return pool, weights


# ---------------------------------------------------------------------------
# pool persistence: pool.json plus one spec json and one .npy per learner, in
# the parameters' dtype (float32; a pool written before float32 holds
# float64, and its learners run in float64); the manifest records each
# learner's parameter checksum and MACs, which loading checks

POOL_VERSION = 2


def save_pool(pool, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, learner in enumerate(pool):
        spec_file = f"{learner.id}.spec.json"
        param_file = f"{learner.id}.params.npy"
        learner.spec.save(out / spec_file)
        np.save(out / param_file, flatten_params(learner.params))
        entries.append({"id": learner.id, "macs": learner.macs,
                        "eval_accuracy": learner.eval_accuracy,
                        "generation": i, "spec": spec_file, "params": param_file,
                        "params_checksum": learner.checksum()})
    artifacts.write_json(out / "pool.json", {"version": POOL_VERSION, "learners": entries})


def load_pool(pool_dir):
    root = Path(pool_dir)

    def decode(manifest):
        pool = []
        for entry in manifest["learners"]:
            spec = NetworkSpec.load(root / entry["spec"])
            checksum = entry["params_checksum"]   # a missing key names pool.json
            with artifacts.reading(root / entry["params"]):
                flat = np.load(root / entry["params"])
                if flat.dtype not in (np.float32, np.float64):
                    raise ValueError("parameters must be float32 or float64, "
                                     f"got {flat.dtype}")
                params = unflatten_params(spec, flat)
                if params_checksum(params) != checksum:
                    raise ValueError("parameters do not match the pool's params_checksum")
            learner = WeakLearner(spec=spec, params=params,
                                  eval_accuracy=entry["eval_accuracy"], id=entry["id"])
            if entry["macs"] != learner.macs:
                raise ValueError(f"{learner.id}: macs {entry['macs']!r} differ from "
                                 f"its spec's {learner.macs}")
            pool.append(learner)
        return pool

    return artifacts.read_json(root / "pool.json", decode, version=POOL_VERSION)
