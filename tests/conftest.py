"""Shared fixtures.

Session-scoped fixtures hold the expensive artifacts (the bundled pool and
ensemble) so the acceptance tests can share one build.
"""
import csv
import io
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np
import pytest

from enboost import boost, config, ensemble, nn, qsched
from enboost.data import synth_dataset
from enboost.energy import Capacitor, Device, PowerTrace
from enboost.errors import ConfigError
from enboost.nn import (NetworkSpec, TensorShape, avgpool, conv, count_macs, fc,
                        softmax_layer)
from enboost.qsched import ENERGY_LEVELS, POWER_LEVELS, Agent, act, q_update, reward


def bits(a):
    """An array's bits, as integers of its own width: equal exactly when
    the arrays are bitwise equal, signed zeros and NaN payloads included."""
    return a.view(f"i{a.itemsize}")


def float64_params(params):
    """The parameters cast up to float64, as a pool written before float32
    holds them, or as `gradient_check` runs them."""
    return [None if p is None else (p[0].astype(np.float64), p[1].astype(np.float64))
            for p in params]


# ---------------------------------------------------------------------------
# References the pipeline does not run: backprop's finite-difference check,
# a single-sample vote, and the trace's power by lookup


def gradient_check(spec: NetworkSpec, seed: int, step=1e-5, batch=2) -> float:
    """Max relative error between backprop and central finite differences.

    Intended for toy specs (< 10k parameters); everything in float64, the
    parameters cast up from `init_params`.
    """
    rng = np.random.default_rng(seed)
    params = float64_params(nn.init_params(spec, rng))
    ish = spec.input_shape
    x = rng.standard_normal((batch, ish.channels, ish.height, ish.width))
    y = rng.integers(0, spec.class_count, size=batch)
    weights = rng.uniform(0.5, 1.5, size=batch)
    y_onehot = nn._one_hot(y, spec.class_count, np.float64)

    _, grads = nn._probs_and_grads(spec, params, x, y_onehot, weights)
    analytic = nn.flatten_params(grads)
    flat = nn.flatten_params(params)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        probe = np.zeros_like(flat)
        probe[i] = step
        hi, lo = (nn._loss(nn._forward(spec, nn.unflatten_params(spec, flat + d), x),
                           y_onehot, weights)
                  for d in (probe, -probe))
        numeric[i] = (hi - lo) / (2 * step)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def weighted_vote(prob_vectors, vote_weights):
    """(argmax class, aggregated score vector) for sum_m a_m * f_m(x).

    prob_vectors: (k, C) or list of per-learner vectors; ties break low.
    """
    probs = np.asarray(prob_vectors, dtype=np.float64)
    a = ensemble.checked_vote_weights(vote_weights)
    if probs.ndim != 2 or probs.shape[0] != a.shape[0]:
        raise ConfigError("need k >= 1 probability vectors and matching weights")
    scores = a @ probs
    return int(np.argmax(scores)), scores


def power_at(trace: PowerTrace, t: float) -> float:
    """Piecewise-constant lookup (value holds until the next sample)."""
    idx = int(np.searchsorted(trace.times, t, side="right")) - 1
    idx = min(max(idx, 0), trace.times.size - 1)
    return float(trace.power[idx])


def usable_fraction(device: Device) -> float:
    """The device's usable energy over its capacitor's max usable energy."""
    return device.usable_energy / device.cap.max_usable_energy


def tiny_spec(input_shape=(2, 8, 8), classes=3, filters=(4, 6)):
    """Small conv net that trains in well under a second per epoch."""
    return NetworkSpec(
        input_shape=TensorShape(*input_shape),
        layers=(conv(filters[0], kernel=3, padding=1), avgpool(2),
                conv(filters[1], kernel=3, padding=1), avgpool(2),
                fc(classes), softmax_layer()),
        class_count=classes)


def schema_leaves(schema=config._SCHEMA, path=""):
    """(dotted key, type, default, range or None) of every leaf of a config
    schema, in document order."""
    for key, (kind, default, *rule) in schema.items():
        here = f"{path}.{key}" if path else key
        if isinstance(kind, dict):
            yield from schema_leaves(kind, here)
        else:
            yield here, kind, default, rule[0] if rule else None


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
    for idx in spec.conv_layers:
        layers = list(spec.layers)
        layers[idx] = replace(layers[idx], filters=layers[idx].filters + 1)
        grown = NetworkSpec(input_shape=spec.input_shape, layers=tuple(layers),
                            class_count=spec.class_count)
        best = max(best, count_macs(grown) - count_macs(spec))
    return best


class SearchsortedDevice(Device):
    """The reference for `Device`'s trace cursor, which must match it bit for
    bit: every trace segment is found with `np.searchsorted`, the clamp
    recomputes the full energy, and `p_harv` is set to `power_at` when it is
    built and after each advance."""

    def __post_init__(self):
        super().__post_init__()
        self.p_harv = power_at(self.trace, self.t)

    def advance(self, until):
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
        self.p_harv = power_at(self.trace, self.t)


# ---------------------------------------------------------------------------
# The scheduler state as a value, and the discretizers, as they were before
# `qsched.StateTracker` became the one discretizer: its state index must
# match `encode_state` of these bins (test_qsched::ObserveMeanTracker and the
# `observe` tests). Frozen; do not optimize.

_FULL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SchedulerState:
    e_now: int   # 0..3
    e_last: int  # 0..3
    p_harv: int  # 0..2
    l: int       # 0..N learners already executed this request


def encode_state(s: SchedulerState, n: int) -> int:
    """Mixed-radix index over (e_now, e_last, p_harv, l)."""
    if not (0 <= s.e_now < ENERGY_LEVELS and 0 <= s.e_last < ENERGY_LEVELS
            and 0 <= s.p_harv < POWER_LEVELS and 0 <= s.l <= n):
        raise ConfigError(f"state field out of range: {s}")
    idx = s.e_now
    idx = idx * ENERGY_LEVELS + s.e_last
    idx = idx * POWER_LEVELS + s.p_harv
    return idx * (n + 1) + s.l


def discretize_energy(usable: float, cap: Capacitor, one_learner_cost: float) -> int:
    """Bin usable joules: 0 if they cannot cover one learner; 3 at full
    charge; else 1 below half of max usable, 2 at or above."""
    if usable < one_learner_cost:
        return 0
    if usable >= cap.max_usable_energy - _FULL_TOLERANCE:
        return 3
    return 1 if usable < 0.5 * cap.max_usable_energy else 2


def discretize_power(p_harv: float, thresholds) -> int:
    """0 below t1, 1 in [t1, t2), 2 at or above t2 (right-closed top bin)."""
    t1, t2 = thresholds
    if not t1 < t2:
        raise ConfigError(f"need t1 < t2, got {thresholds}")
    if p_harv < t1:
        return 0
    return 1 if p_harv < t2 else 2


# ---------------------------------------------------------------------------
# The events table as `simrun.events_csv` wrote it before `simrun.write_events`:
# `artifacts.csv_text` of each row's fields in order, None cells as "n/a".
# The CLI's events.csv and `events_csv` must equal it byte for byte
# (test_cli::test_simulate_events_csv_is_the_row_writers). Frozen; do not optimize.

PARENT_EVENT_FIELDS = ["time", "event", "voltage", "p_harv", "sample_index",
                       "learners_run", "retrained_learner", "predicted", "correct",
                       "inference_energy", "retrain_energy"]


def parent_events_csv(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PARENT_EVENT_FIELDS)
    for row in ([row[k] for k in PARENT_EVENT_FIELDS] for row in report.events):
        writer.writerow(["n/a" if v is None else v for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# The conv engine as it was before activations moved to channels-last memory:
# `nn`'s private engine must match it to within 1e-12 of each array's largest
# magnitude (test_nn::test_engine_matches_parent_oracle). The engine sums in
# its own order, so only the last bits may differ. Frozen; do not optimize.


def parent_im2col(x, k, s, p):
    b, c, h, w = x.shape
    if p:
        xp = np.zeros((b, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
        xp[:, :, p:p + h, p:p + w] = x
        x = xp
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    cols = np.empty((b, c, k, k, ho, wo), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = x[:, :, i:i + s * ho:s, j:j + s * wo:s]
    return cols, ho, wo


def parent_col2im(dcols, x_shape, k, s, p):
    """Sum patch gradients (b, ho, wo, c, k, k) onto the (b, c, h, w) input."""
    b, c, h, w = x_shape
    ho, wo = dcols.shape[1], dcols.shape[2]
    acc = np.zeros((b, h + 2 * p, w + 2 * p, c), dtype=dcols.dtype)
    for i in range(k):
        for j in range(k):
            acc[:, i:i + s * ho:s, j:j + s * wo:s] += dcols[..., i, j]
    dx = np.empty((b, c, h + 2 * p, w + 2 * p), dtype=dcols.dtype)
    dx[...] = acc.transpose(0, 3, 1, 2)
    return dx[:, :, p:p + h, p:p + w]


def parent_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def parent_forward_cache(spec, params, x, start=0, stop=None):
    """Run layers [start, stop) on a batch entering layer `start`, recording
    what backward needs; returns the batch leaving layer stop - 1."""
    cache = []
    cur = x
    for idx in range(start, len(spec.layers) if stop is None else stop):
        layer = spec.layers[idx]
        if layer.kind == nn.CONV:
            w, b = params[idx]
            cols, ho, wo = parent_im2col(cur, layer.kernel, layer.stride, layer.padding)
            # conv products here and in parent_backward are the GEMMs, with the operand
            # layouts, that np.einsum(optimize=True) plans: same bits, no planning
            z = (cols.transpose(0, 4, 5, 1, 2, 3).reshape(-1, w[0].size)
                 @ w.reshape(w.shape[0], -1).T)
            z = z.reshape(cur.shape[0], ho, wo, -1).transpose(0, 3, 1, 2)
            z += b[None, :, None, None]
            out = np.maximum(z, 0.0) if layer.activation == "relu" else z
            cache.append(("conv", cur.shape, cols, z, layer))
            cur = out
        elif layer.kind == nn.AVGPOOL:
            b_, c, h, w_ = cur.shape
            win = layer.window
            out = cur.reshape(b_, c, h // win, win, w_ // win, win).mean(axis=(3, 5))
            cache.append(("avgpool", cur.shape, layer))
            cur = out
        elif layer.kind == nn.FC:
            w, b = params[idx]
            flat = cur.reshape(cur.shape[0], -1)
            z = flat @ w.T + b
            out = np.maximum(z, 0.0) if layer.activation == "relu" else z
            cache.append(("fc", cur.shape, flat, z, layer))
            cur = out.reshape(cur.shape[0], layer.units, 1, 1)
        else:  # softmax
            flat = cur.reshape(cur.shape[0], -1)
            out = parent_softmax(flat)
            cache.append(("softmax", cur.shape))
            cur = out.reshape(cur.shape[0], -1, 1, 1)
    return cur, cache


def parent_backward(spec, params, cache, dlogits, start=0):
    """Backprop from d(loss)/d(softmax logits) down to layer `start`, whose
    forward `cache` holds; returns per-layer grads, None below `start`."""
    grads = [None] * len(spec.layers)
    dcur = dlogits
    for idx in range(len(spec.layers) - 1, start - 1, -1):
        entry = cache[idx - start]
        kind = entry[0]
        if kind == "softmax":
            in_shape = entry[1]
            dcur = dcur.reshape(in_shape)
        elif kind == "fc":
            _, in_shape, flat, z, layer = entry
            dz = dcur.reshape(z.shape)
            if layer.activation == "relu":
                dz = dz * (z > 0)
            w, _ = params[idx]
            grads[idx] = (dz.T @ flat, dz.sum(axis=0))
            if idx > start:  # the range's input needs no gradient
                dcur = (dz @ w).reshape(in_shape)
        elif kind == "avgpool":
            _, in_shape, layer = entry
            b_, c, h, w_ = in_shape
            win = layer.window
            d = dcur.reshape(b_, c, h // win, 1, w_ // win, 1) / (win * win)
            dcur = np.broadcast_to(d, (b_, c, h // win, win, w_ // win, win)).reshape(in_shape)
        else:  # conv
            _, in_shape, cols, z, layer = entry
            dz = dcur.reshape(z.shape)
            if layer.activation == "relu":
                dz = dz * (z > 0)
            w, _ = params[idx]
            f, c, k, _ = w.shape
            b_, _, ho, wo = z.shape
            dz_rows = dz.transpose(0, 2, 3, 1).reshape(-1, f)
            dw = cols.transpose(1, 2, 3, 0, 4, 5).reshape(c * k * k, -1) @ dz_rows
            grads[idx] = (dw.reshape(c, k, k, f).transpose(3, 0, 1, 2),
                          dz.sum(axis=(0, 2, 3)))
            if idx > start:
                dcols = (dz_rows @ w.reshape(f, -1)).reshape(b_, ho, wo, c, k, k)
                dcur = parent_col2im(dcols, in_shape, k, layer.stride, layer.padding)
    return grads


# ---------------------------------------------------------------------------
# `nn._im2col` as a copy per kernel offset into a C-order matrix. The
# engine's patch rows above its row of ones must have the same bits and
# layout (test_nn::test_batch1_patch_gather_matches_slices and
# test_nn::test_patch_gather_matches_slices).
# Frozen; do not optimize.


def slice_im2col(x, k, s, p):
    b, c, h, w = x.shape
    if p:
        xp = np.zeros((b, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
        xp[:, :, p:p + h, p:p + w] = x
        x = xp
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    cols = np.empty((c, k, k, b, ho, wo), dtype=x.dtype)
    x = x.transpose(1, 0, 2, 3)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = x[:, :, i:i + s * ho:s, j:j + s * wo:s]
    return cols.reshape(c * k * k, -1), ho, wo


# ---------------------------------------------------------------------------
# MAC and parameter-shape accounting as it was when each function walked the
# layer shapes itself. `nn.count_macs` and `nn.param_shapes` must match it on
# every valid spec (test_nn::test_macs_and_param_shapes_match_the_frozen_walk).
# Frozen; do not optimize.


def parent_layer_out_shape(layer, shape):
    if layer.kind == nn.CONV:
        h = (shape.height + 2 * layer.padding - layer.kernel) // layer.stride + 1
        w = (shape.width + 2 * layer.padding - layer.kernel) // layer.stride + 1
        return TensorShape(layer.filters, h, w)
    if layer.kind == nn.AVGPOOL:
        return TensorShape(shape.channels, shape.height // layer.window,
                           shape.width // layer.window)
    if layer.kind == nn.FC:
        return TensorShape(layer.units, 1, 1)
    return shape  # softmax


def parent_count_macs(spec):
    total = 0
    cur = spec.input_shape
    for layer in spec.layers:
        nxt = parent_layer_out_shape(layer, cur)
        if layer.kind == nn.CONV:
            total += layer.filters * cur.channels * layer.kernel ** 2 * nxt.height * nxt.width
        elif layer.kind == nn.FC:
            total += cur.size * layer.units
        cur = nxt
    return total


def parent_param_shapes(spec):
    out = []
    cur = spec.input_shape
    for layer in spec.layers:
        if layer.kind == nn.CONV:
            out.append(((layer.filters, cur.channels, layer.kernel, layer.kernel),
                        (layer.filters,)))
        elif layer.kind == nn.FC:
            out.append(((layer.units, cur.size), (layer.units,)))
        else:
            out.append(None)
        cur = parent_layer_out_shape(layer, cur)
    return out


# ---------------------------------------------------------------------------
# `qsched._QLearner.decide` as it was before the trainer decoded its draws
# from the raw PCG64 words: it draws from a numpy `Generator` with `random()`
# and `integers(0, 2)`. `train_offline` with this learner and
# `np.random.default_rng` for `_Draws` must match the trainer bit for bit
# (test_qsched::test_train_offline_matches_generator_draws). Frozen; do not
# optimize.


class GeneratorQLearner(qsched._QLearner):

    def decide(self, s):
        n1 = self.n + 1
        if self.pending is not None:
            q_update(self.rows, n1, self.hyper, *self.pending, s)
        l = s % n1
        if l < self.n and self.rng.random() < self.epsilon:
            a = int(self.rng.integers(0, 2))
        else:
            a = act(self.rows, n1, s)  # a=0 at l = N
        r = reward(l, a, self.params, usable_fraction(self.device))
        self.total_reward += r
        self.pending = (s, a, r)
        return a


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
