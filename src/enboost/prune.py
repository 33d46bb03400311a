"""Iterative L2-norm filter pruning down to a MAC budget, with interleaved
retraining. Removing a conv filter also removes the matching input-channel
slices of the next parameterized layer, so memory shrinks faster than MACs."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (BudgetInfeasibleError, ConfigError, ShapeError,
                     TrainingDivergedError)
from .nn import CONV, FC, NetworkSpec, WeakLearner, train


@dataclass(frozen=True)
class PruneSchedule:
    target_mac_fraction: float
    filters_removed_per_step: int = 1
    retrain_epochs_per_step: int = 2

    def __post_init__(self):
        if not 0.0 < self.target_mac_fraction <= 1.0:
            raise ConfigError(
                f"target_mac_fraction must be in (0, 1], got {self.target_mac_fraction}")
        if self.filters_removed_per_step < 1:
            raise ConfigError("filters_removed_per_step must be >= 1")
        if self.retrain_epochs_per_step < 0:
            raise ConfigError("retrain_epochs_per_step must be >= 0")


def conv_layer_indices(spec: NetworkSpec):
    return [i for i, l in enumerate(spec.layers) if l.kind == CONV]


def rank_filters(learner: WeakLearner):
    """Per conv layer: [(filter index, L2 norm of its weights)], ascending by
    norm; ties broken by lower filter index (stable sort)."""
    out = {}
    for idx in conv_layer_indices(learner.spec):
        w, _ = learner.params[idx]
        norms = np.sqrt((w ** 2).sum(axis=(1, 2, 3)))
        order = np.argsort(norms, kind="stable")
        out[idx] = [(int(f), float(norms[f])) for f in order]
    if not out:
        raise ShapeError("learner has no conv layer to rank")
    return out


def _next_param_layer(spec: NetworkSpec, idx):
    """Index of the next conv or fc layer consuming layer idx's channels."""
    for j in range(idx + 1, len(spec.layers)):
        if spec.layers[j].kind in (CONV, FC):
            return j
    return None


def prune_step(learner: WeakLearner, victims: dict) -> WeakLearner:
    """Remove the given {conv layer index: [filter indices]} and the matching
    downstream input channels. Surviving parameters are copied verbatim."""
    if not any(victims.values()):
        return learner.copy()
    spec = learner.spec
    shapes = spec.shapes()
    layers = list(spec.layers)
    params = list(learner.params)
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
        nxt = _next_param_layer(spec, idx)
        if nxt is not None:
            nw, nb = params[nxt]
            if layers[nxt].kind == CONV:
                params[nxt] = (nw[:, keep], nb)
            else:
                # fc consumes channel-major flattened input: channel c owns
                # columns [c*hw, (c+1)*hw) where hw is the spatial size at fc.
                fc_in = shapes[nxt - 1]
                hw = fc_in.height * fc_in.width
                cols = (keep[:, None] * hw + np.arange(hw)).ravel()
                params[nxt] = (nw[:, cols], nb)
    # fancy indexing copied what it sliced; copy the arrays it did not touch
    own = {id(a) for p in learner.params if p is not None for a in p}
    params = [None if p is None else tuple(a.copy() if id(a) in own else a for a in p)
              for p in params]
    new_spec = NetworkSpec(input_shape=spec.input_shape, layers=tuple(layers),
                           class_count=spec.class_count)
    return WeakLearner(spec=new_spec, params=params, eval_accuracy=0.0, id=learner.id)


def prune_to_budget(learner: WeakLearner, dataset, sample_weights,
                    schedule: PruneSchedule, seed, learning_rate=0.1,
                    batch_size=32) -> WeakLearner:
    """Prune globally-lowest-L2 filters until count_macs <= ceil(fraction *
    original), retraining after every step. The result is not evaluated."""
    target = math.ceil(schedule.target_mac_fraction * learner.macs)
    current = learner
    while current.macs > target:
        # global candidate list: each layer may lose all but one filter, so
        # no prefix of it can empty a layer
        candidates = sorted((norm, idx, f)
                            for idx, entries in rank_filters(current).items()
                            for f, norm in entries[:-1])
        if not candidates:
            # every conv layer is down to one filter
            raise BudgetInfeasibleError(conv_layer_indices(current.spec)[0])
        victims = {}
        for _, idx, f in candidates[:schedule.filters_removed_per_step]:
            victims.setdefault(idx, []).append(f)
        try:
            current, _ = train(prune_step(current, victims), dataset, sample_weights,
                               epochs=schedule.retrain_epochs_per_step,
                               learning_rate=learning_rate, seed=seed,
                               batch_size=batch_size)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(exc.epoch, exc.learner, "prune retrain") from None
    return current
