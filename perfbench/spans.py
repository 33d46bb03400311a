"""Span tracing around the calls one enboost module makes into another.

`install` rebinds every public function of the package, wherever a module
binds it (its own module, or a module that imported it), plus a few methods
and module-internal functions named in ``EXTRA``, to a wrapper that records a
span: name, start, end, parent span and an optional size.  Spans stay in
memory; `layer_metrics` turns them into per-layer numbers and `dump` writes
them out.  Nothing is wrapped until `install` runs, and `uninstall` restores
every original binding, so untraced runs execute the program unchanged.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

import numpy as np

MODULES = ("nn", "prune", "boost", "ensemble", "energy", "qsched", "simrun",
           "data", "config", "cli")

# Methods and module-internal calls whose counts or times the benchmark
# reports; cross-module function bindings are found automatically.
EXTRA = (
    ("energy", "Device", "advance"),
    ("energy", "Device", "draw"),
    ("qsched", "StateTracker", "observe"),
    ("qsched", "StateTracker", "record_post_inference"),
    ("data", "Dataset", "split"),
)


def _batch(x):
    return 1 if np.ndim(x) == 3 else len(x)


class Recorder:
    """Spans of one traced window, in start order, with a root span."""

    def __init__(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.sizes = [], []
        self.stack = []
        self.paused = False
        self.forward_macs = 0   # sum of learner MACs x samples over nn.forward

    def open(self, name, size=0):
        i = len(self.starts)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.sizes.append(size)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i):
        self.ends[i] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name):
        size_of = self._sizer(fn, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            i = self.open(name, size_of(args, kwargs) if size_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

    def _sizer(self, fn, name):
        """Span size: samples for forward passes, epochs for training."""
        if name == "nn.forward":
            def size(args, kwargs):
                n = _batch(args[1])
                self.forward_macs += args[0].macs * n
                return n
            return size
        if name == "nn.train_fc_only":
            return lambda args, kwargs: _batch(args[1])
        if name == "nn.train":
            sig = inspect.signature(fn)
            return lambda args, kwargs: sig.bind(*args, **kwargs).arguments["epochs"]
        return None


def install(rec: Recorder):
    """Wrap the package's public functions and `EXTRA`; returns the undo list."""
    mods = {m: importlib.import_module(f"enboost.{m}") for m in MODULES}
    undo = []
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("enboost.")):
                continue
            name = f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}"
            undo.append((mod, attr, obj))
            setattr(mod, attr, rec.wrap(obj, name))
    for short, cls_name, meth in EXTRA:
        cls = getattr(mods[short], cls_name)
        orig = cls.__dict__[meth]
        undo.append((cls, meth, orig))
        setattr(cls, meth, rec.wrap(orig, f"{short}.{cls_name}.{meth}"))
    return undo


def uninstall(undo):
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def unit_of(metric: str) -> str:
    """Unit of a `layer_metrics` value, from its name's suffix."""
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("_frac", "fraction"), ("_computed", "GMAC/s")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(rec: Recorder, units: float) -> dict:
    """Per-layer numbers of one traced window, each per unit of work.

    A span's self time is its duration minus its direct children's; a
    module's self time sums the self times of its spans.  The root span is
    the harness, so module self times plus ``harness.self_s`` equal
    ``trace.wall_s``.
    """
    starts = np.asarray(rec.starts)
    dur = np.asarray(rec.ends) - starts
    parents = np.asarray(rec.parents)
    sizes = np.asarray(rec.sizes, dtype=np.float64)
    names = np.asarray(rec.names)
    child = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_t = dur - child
    module = np.asarray([n.split(".", 1)[0] for n in rec.names])

    def sel(name):
        return names == name

    def total(mask):
        return float(dur[mask].sum())

    def count(mask):
        return int(mask.sum())

    fwd = sel("nn.forward")
    b1 = fwd & (sizes == 1)
    train = sel("nn.train")
    fc = sel("nn.train_fc_only")
    in_prune = np.asarray([p >= 0 and rec.names[p].startswith("prune.")
                           for p in rec.parents])
    epochs = float(sizes[train].sum())
    fwd_s = total(fwd)
    m = {
        "trace.wall_s": float(dur[0]) / units,
        "harness.self_s": float(self_t[0]) / units,
        "nn.train.calls": count(train) / units,
        "nn.train.epoch_ms": 1e3 * total(train) / epochs if epochs else 0.0,
        "prune.steps": count(sel("prune.prune_step")) / units,
        "prune.retrain_s": total(train & in_prune) / units,
        "nn.forward.samples": float(sizes[fwd].sum()) / units,
        "nn.forward.b1_p50_us": 1e6 * _pct(list(dur[b1]), 50),
        "nn.forward.b1_p99_us": 1e6 * _pct(list(dur[b1]), 99),
        "nn.fwd_gmac_per_s_computed": rec.forward_macs / fwd_s / 1e9 if fwd_s else 0.0,
        "nn.train_fc_only.calls": count(fc) / units,
        "nn.train_fc_only.p50_us": 1e6 * _pct(list(dur[fc]), 50),
        "ensemble.vote_s": total(sel("ensemble.weighted_vote")) / units,
        "ensemble.backfit_s": total(sel("ensemble.backfit_select")) / units,
        "boost.update_weights_s": total(sel("boost.update_weights")) / units,
        "energy.advance.calls": count(sel("energy.Device.advance")) / units,
        "energy.step.calls": count(sel("energy.step")) / units,
        "energy.advance_s": total(sel("energy.Device.advance")) / units,
        "qsched.observe_s": total(sel("qsched.StateTracker.observe")) / units,
        "qsched.q_update_s": total(sel("qsched.q_update")) / units,
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = float(self_t[module == mod].sum()) / units
    return m


def dump(rec: Recorder, path):
    """Write the spans as one JSON document of parallel arrays."""
    doc = {"fields": ["name", "start_s", "end_s", "parent", "size"],
           "names": sorted(set(rec.names))}
    index = {n: i for i, n in enumerate(doc["names"])}
    t0 = rec.starts[0] if rec.starts else 0.0
    doc["spans"] = [[index[n], s - t0, e - t0, p, z] for n, s, e, p, z in
                    zip(rec.names, rec.starts, rec.ends, rec.parents, rec.sizes)]
    with open(path, "w") as f:
        json.dump(doc, f, separators=(",", ":"))
