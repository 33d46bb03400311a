"""Shared fixtures.

Session-scoped fixtures hold the expensive artifacts (the bundled pool and
ensemble) so the acceptance tests can share one build.
"""
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from enboost import boost, config, ensemble
from enboost.data import synth_dataset
from enboost.energy import Device
from enboost.nn import (NetworkSpec, TensorShape, avgpool, conv, count_macs, fc,
                        softmax_layer)
from enboost.prune import conv_layer_indices
from enboost.qsched import Agent


def tiny_spec(input_shape=(2, 8, 8), classes=3, filters=(4, 6)):
    """Small conv net that trains in well under a second per epoch."""
    return NetworkSpec(
        input_shape=TensorShape(*input_shape),
        layers=(conv(filters[0], kernel=3, padding=1), avgpool(2),
                conv(filters[1], kernel=3, padding=1), avgpool(2),
                fc(classes), softmax_layer()),
        class_count=classes)


def brute_force_select(pool, n, eval_x, eval_y):
    """Exhaustive best subset of n learners: the oracle for the selection
    heuristics on small pools. Returns (pool indices, accuracy)."""
    labels = np.asarray(eval_y)
    probs = ensemble.pool_eval_probs(pool, eval_x)
    best, best_acc = None, -1.0
    for combo in combinations(range(len(pool)), n):
        weights = [ensemble.learner_weight(1.0 - pool[i].eval_accuracy) for i in combo]
        acc = ensemble.subset_accuracy(probs[list(combo)], weights, labels)
        if acc > best_acc:
            best, best_acc = list(combo), acc
    return best, best_acc


def max_single_filter_macs(spec: NetworkSpec) -> int:
    """Largest MAC contribution of any single prunable filter (budget slack)."""
    best = 0
    for idx in conv_layer_indices(spec):
        layers = list(spec.layers)
        layers[idx] = replace(layers[idx], filters=layers[idx].filters + 1)
        grown = NetworkSpec(input_shape=spec.input_shape, layers=tuple(layers),
                            class_count=spec.class_count)
        best = max(best, count_macs(grown) - count_macs(spec))
    return best


class SearchsortedDevice(Device):
    """The reference for `Device`'s trace cursor, which must match it bit for
    bit: every trace segment is found with `np.searchsorted`, the clamp
    recomputes the full energy, and `p_harv` is `PowerTrace.power_at`."""

    def advance(self, until, load_power=None):
        if load_power is None:
            load_power = self.cost_model.sleep_power
        times = self.trace.times
        full = 0.5 * self.cap.capacitance * self.cap.v_max ** 2
        while self.t < until - 1e-12:
            idx = int(np.searchsorted(times, self.t, side="right"))
            seg_end = min(until, float(times[idx])) if idx < times.size else until
            dt = seg_end - self.t
            if dt <= 0:
                break
            p_harv = float(self.trace.power[max(idx - 1, 0)])
            before = self.energy
            self.energy = min(max(before + (p_harv - load_power) * dt, 0.0), full)
            served_load = min(load_power * dt, before + p_harv * dt)
            self.harvested += self.energy - before + served_load
            self.consumed += served_load
            self.t = seg_end

    @property
    def p_harv(self):
        return self.trace.power_at(self.t)


class PolicyAgent(Agent):
    """Drives `qsched.replay` with a bare decision function and records the
    learners run per request."""

    def __init__(self, decide):
        self.decide = decide
        self.runs = []

    def done(self, l, end):
        self.runs.append(l)


@pytest.fixture(scope="session")
def bundled_cfg():
    return config.default_config()


@pytest.fixture(scope="session")
def bundled_dataset(bundled_cfg):
    return config.make_dataset(bundled_cfg)


@pytest.fixture(scope="session")
def baseline_spec():
    return config.baseline_network()


@pytest.fixture(scope="session")
def pool4(bundled_cfg, bundled_dataset, baseline_spec):
    """The bundled M=6 pool at N=4 (seed 0); shared by several criteria."""
    pool_cfg = config.make_pool_config(bundled_cfg)
    pool, weights = boost.build_pool(baseline_spec, bundled_dataset, pool_cfg)
    return pool, weights, pool_cfg


@pytest.fixture(scope="session")
def model4(pool4, bundled_dataset):
    pool, _, _ = pool4
    ex, ey = bundled_dataset.split("eval")
    return ensemble.backfit_select(pool, 4, ex, ey)


@pytest.fixture(scope="session")
def tiny_dataset():
    return synth_dataset(seed=3, classes=3, samples_per_class=24,
                         shape=(2, 8, 8), noise=1.5)
