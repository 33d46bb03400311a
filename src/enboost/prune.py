"""Iterative L2-norm filter pruning down to a MAC budget, with interleaved
retraining. Removing a conv filter also removes the matching input-channel
slices of the next parameterized layer, so memory shrinks faster than MACs."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import (BudgetInfeasibleError, ConfigError, ShapeError,
                     TrainingDivergedError)
from .nn import CONV, WeakLearner, train


def rank_filters(learner: WeakLearner):
    """Per conv layer: [(filter index, L2 norm of its weights)], ascending by
    norm; ties broken by lower filter index (stable sort)."""
    out = {}
    for idx in learner.spec.conv_layers:
        w, _ = learner.params[idx]
        norms = np.sqrt((w ** 2).sum(axis=(1, 2, 3)))
        order = np.argsort(norms, kind="stable")
        out[idx] = [(int(f), float(norms[f])) for f in order]
    if not out:
        raise ShapeError("learner has no conv layer to rank")
    return out


def prune_step(learner: WeakLearner, victims: dict) -> WeakLearner:
    """Remove the given {conv layer index: [filter indices]} and the matching
    downstream input channels. Surviving parameters are copied verbatim."""
    if not any(victims.values()):
        return learner.copy()
    spec = learner.spec
    layers = list(spec.layers)
    params = learner.copy().params
    for idx, filter_ids in sorted(victims.items()):
        if not filter_ids:
            continue
        layer = layers[idx]
        if layer.kind != CONV:
            raise ShapeError(f"layer {idx} is not conv")
        drop = set(filter_ids)
        keep = np.array([f for f in range(layer.filters) if f not in drop])
        if keep.size == 0:
            raise BudgetInfeasibleError(idx)
        if keep.size + len(drop) != layer.filters:
            raise ShapeError(f"victim index out of range in layer {idx}")
        w, b = params[idx]
        params[idx] = (w[keep], b[keep])
        layers[idx] = replace(layer, filters=int(keep.size))
        # the next layer with parameters, conv or fc, reads layer idx's
        # channels along axis 1 of its weights viewed as (out, channels, -1)
        nxt = next((j for j in range(idx + 1, len(params)) if params[j]), None)
        if nxt is not None:
            nw, nb = params[nxt]
            kept = nw.reshape(nw.shape[0], layer.filters, -1)[:, keep]
            params[nxt] = (kept.reshape(nw.shape[0], -1, *nw.shape[2:]), nb)
    return WeakLearner(spec=replace(spec, layers=tuple(layers)), params=params,
                       eval_accuracy=0.0, id=learner.id)


def prune_to_budget(learner: WeakLearner, dataset, sample_weights,
                    target_mac_fraction: float, retrain_epochs: int, seed,
                    learning_rate=0.1, batch_size=32) -> WeakLearner:
    """Remove the globally lowest-L2 filter, one per step, until count_macs
    <= ceil(target_mac_fraction * original), retraining `retrain_epochs`
    epochs after every step. The result is not evaluated."""
    if not 0.0 < target_mac_fraction <= 1.0:
        raise ConfigError(f"target_mac_fraction must be in (0, 1], got {target_mac_fraction}")
    if retrain_epochs < 0:
        raise ConfigError(f"retrain_epochs must be >= 0, got {retrain_epochs}")
    target = math.ceil(target_mac_fraction * learner.macs)
    current = learner
    while current.macs > target:
        # each layer may lose all but its last-ranked filter, so no step can
        # empty a layer
        candidates = [(norm, idx, f)
                      for idx, entries in rank_filters(current).items()
                      for f, norm in entries[:-1]]
        if not candidates:
            # every conv layer is down to one filter
            raise BudgetInfeasibleError(current.spec.conv_layers[0])
        _, idx, f = min(candidates)
        try:
            current, _ = train(prune_step(current, {idx: [f]}), dataset, sample_weights,
                               epochs=retrain_epochs, learning_rate=learning_rate,
                               seed=seed, batch_size=batch_size)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(exc.epoch, exc.learner, "prune retrain") from None
    return current
