"""Ensemble selection and voting: pick N of M pool learners by greedy
inclusion plus improvement-only swaps (backfitting), weight votes by
a_m = 0.5*log((1-e_m)/e_m), and measure the accuracy-vs-prefix profile the
runtime scheduler consumes."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import artifacts
from .errors import ConfigError
from .nn import forward

ERROR_CLAMP = 1e-4  # a_m diverges at e_m in {0, 1}


def learner_weight(error_rate: float) -> float:
    if not 0.0 <= error_rate <= 1.0:
        raise ConfigError(f"error rate must be in [0,1], got {error_rate}")
    e = min(max(error_rate, ERROR_CLAMP), 1.0 - ERROR_CLAMP)
    return 0.5 * float(np.log((1.0 - e) / e))


def checked_vote_weights(vote_weights) -> np.ndarray:
    """The vote weights a_m as a float64 vector: at least one, and a warning
    when all are <= 0 (a degenerate ensemble, whose votes are inverted).  A
    run of votes over one ensemble checks its weights once."""
    a = np.asarray(vote_weights, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ConfigError("need k >= 1 vote weights")
    if np.all(a <= 0):
        warnings.warn("all vote weights <= 0: degenerate ensemble", stacklevel=3)
    return a


def weighted_vote(prob_vectors, vote_weights):
    """(argmax class, aggregated score vector) for sum_m a_m * f_m(x).

    prob_vectors: (k, C) or list of per-learner vectors; ties break low.
    """
    probs = np.asarray(prob_vectors, dtype=np.float64)
    a = checked_vote_weights(vote_weights)
    if probs.ndim != 2 or probs.shape[0] != a.shape[0]:
        raise ConfigError("need k >= 1 probability vectors and matching weights")
    scores = a @ probs
    return int(np.argmax(scores)), scores


def vote_batch(prob_stack, vote_weights):
    """(k, n, C) stacked probabilities -> each sample's voted class."""
    scores = np.tensordot(np.asarray(vote_weights), prob_stack, axes=(0, 0))
    return scores.argmax(axis=1)


@dataclass
class EnsembleModel:
    """class_count, delta_acc and total_macs derive from these three fields."""
    learners: list            # ordered by descending individual eval accuracy
    vote_weights: list        # a_m aligned with learners
    acc_profile: list         # weighted-vote eval accuracy of prefixes 1..N

    @property
    def size(self) -> int:
        return len(self.learners)

    @property
    def class_count(self) -> int:
        return self.learners[0].spec.class_count

    @property
    def delta_acc(self) -> list:   # acc(k) - acc(k-1), acc(0) = chance level
        acc = self.acc_profile
        return [b - a for a, b in zip([1.0 / self.class_count] + acc, acc)]

    @property
    def total_macs(self) -> int:
        return sum(l.macs for l in self.learners)


def subset_accuracy(prob_stack, vote_weights, labels) -> float:
    preds = vote_batch(prob_stack, vote_weights)
    return float(np.mean(preds == labels))


def pool_eval_probs(pool, eval_x):
    """Stacked per-learner class probabilities on the eval split: (M, n, C)."""
    return np.stack([forward(l, eval_x) for l in pool])


def greedy_select(weights, n, probs, labels):
    """Forward-greedy subset growth by pool index, given each pool learner's
    vote weight; ties resolve to the lower pool index."""
    selected = []
    for _ in range(n):
        best_idx, best_acc = None, -1.0
        for cand in range(len(weights)):
            if cand in selected:
                continue
            trial = selected + [cand]
            acc = subset_accuracy(probs[trial], [weights[i] for i in trial], labels)
            if acc > best_acc:
                best_idx, best_acc = cand, acc
        selected.append(best_idx)
    return selected


def backfit_select(pool, n, eval_x, eval_y) -> EnsembleModel:
    """Greedy selection followed by improvement-only swap passes, capped at
    M*N passes. Never worse than pure forward-greedy by construction."""
    m = len(pool)
    if m < n:
        raise ConfigError(f"pool of {m} cannot fill ensemble of {n}")
    labels = np.asarray(eval_y)
    probs = pool_eval_probs(pool, eval_x)
    weights = [learner_weight(1.0 - l.eval_accuracy) for l in pool]
    selected = greedy_select(weights, n, probs, labels)
    best_acc = subset_accuracy(probs[selected], [weights[i] for i in selected], labels)
    for _ in range(m * n):
        improved = False
        for pos in range(len(selected)):
            for cand in range(m):
                if cand in selected:
                    continue
                trial = list(selected)
                trial[pos] = cand
                acc = subset_accuracy(probs[trial], [weights[i] for i in trial], labels)
                if acc > best_acc:
                    selected, best_acc = trial, acc
                    improved = True
        if not improved:
            break
    # order by descending individual eval accuracy (stable on pool index)
    order = sorted(selected, key=lambda i: (-pool[i].eval_accuracy, i))
    vote_weights = [weights[i] for i in order]
    return EnsembleModel(learners=[pool[i] for i in order], vote_weights=vote_weights,
                         acc_profile=profile_accuracy(probs[order], vote_weights, labels))


def profile_accuracy(prob_stack, vote_weights, labels) -> list:
    """acc(k) = weighted-vote accuracy of the first k rows of prob_stack
    (k, n, C), for k = 1..len(vote_weights)."""
    return [subset_accuracy(prob_stack[:k], vote_weights[:k], labels)
            for k in range(1, len(vote_weights) + 1)]


# ---------------------------------------------------------------------------
# manifest persistence (learner files live in the pool directory)


def save_ensemble(model: EnsembleModel, path, pool_dir="."):
    manifest = {
        "version": 1,
        "class_count": model.class_count,
        "pool_dir": str(pool_dir),
        "learners": [l.id for l in model.learners],
        "vote_weights": model.vote_weights,
        "acc_profile": model.acc_profile,
        "delta_acc": model.delta_acc,
        "total_macs": model.total_macs,
    }
    artifacts.write_json(path, manifest)


def load_ensemble(path) -> EnsembleModel:
    from .boost import load_pool
    path = Path(path)

    def decode(manifest):
        ids = manifest["learners"]
        if not ids:
            raise ValueError("the ensemble lists no learner")
        per_learner = {key: _finite_list(manifest[key], key, len(ids))
                       for key in ("vote_weights", "acc_profile", "delta_acc")}
        by_id = {l.id: l for l in load_pool(path.parent / manifest["pool_dir"])}
        try:
            learners = [by_id[i] for i in ids]
        except KeyError as exc:
            raise ValueError(f"learner {exc} missing from pool") from exc
        model = EnsembleModel(learners=learners, vote_weights=per_learner["vote_weights"],
                              acc_profile=per_learner["acc_profile"])
        for key in ("class_count", "delta_acc", "total_macs"):   # stored copies
            if manifest[key] != getattr(model, key):
                raise ValueError(f"{key} {manifest[key]!r} differs from "
                                 f"{getattr(model, key)!r}, derived from the other keys")
        return model

    return artifacts.read_json(path, decode, version=1)


def _finite_list(values, key, n):
    """`values` as a list, which must hold n finite numbers."""
    values = list(values)
    if len(values) != n or not all(type(v) in (int, float) and math.isfinite(v)
                                   for v in values):
        raise ValueError(f"{key} must hold one finite number per learner ({n}), "
                         f"got {values}")
    return values
