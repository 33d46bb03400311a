"""Project configuration: one JSON document driving the whole pipeline.

The document is validated up front (types checked, unknown keys rejected)
before any command does work. Relative paths resolve against the config
file's directory.
"""
from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .boost import PoolConfig
from .data import Dataset, load_csv, synth_dataset
from .energy import (Capacitor, CostModel, PowerTrace, RequestPattern,
                     load_trace, synth_trace)
from .errors import ConfigError
from .nn import CONV, NetworkSpec, TensorShape, count_macs, count_params
from .prune import PruneSchedule
from .qsched import EnvConfig, QHyperParams, RewardParams
from .simrun import RETRAIN_MODES

# schema: {key: (type or nested schema, default[, range])}; only a None
# default allows null. A range is (text, test): a value that fails the test
# is rejected as "<key>: must be <text>, got <value>".
_NUM = (int, float)
# a synthetic trace longer than this many samples is rejected before any
# array is allocated: its arrays and the device's lists scale with it
MAX_TRACE_SAMPLES = 10**7
# a generated dataset of more than this many elements (classes x
# samples_per_class x the sample shape), 400 MB in float32, is rejected
# before it is generated
MAX_DATASET_ELEMENTS = 10**8
# a network spec with more parameters, or more multiply-accumulates per
# sample, than these is rejected before any parameter is allocated
MAX_NETWORK_PARAMS = 10**7
MAX_NETWORK_MACS = 10**9
# a build that could take more SGD steps than this is rejected before any
# learner is initialized (`check_sgd_steps`)
MAX_SGD_STEPS = 10**7
# a run of more requests than this is rejected before any run starts: a
# `simulate` report keeps one events row per request
MAX_REQUESTS = 10**6


def _finite(v) -> bool:
    """False for NaN, +-inf (which `json` parses) and ints past float range."""
    return abs(v) <= sys.float_info.max


def _one_of(*names):
    return "one of " + ", ".join(map(repr, names)), names.__contains__


_SEED = ("an integer >= 0", lambda v: v >= 0)   # numpy seeds only from these
_AT_LEAST_2 = (">= 2", lambda v: v >= 2)
_AT_LEAST_1 = (">= 1", lambda v: v >= 1)
_NON_NEGATIVE = (">= 0", lambda v: v >= 0)
_POSITIVE = ("> 0", lambda v: v > 0)
_FRACTION = ("in [0, 1]", lambda v: 0 <= v <= 1)
_SHAPE = ("three positive integers",
          lambda v: len(v) == 3 and all(type(d) is int and d > 0 for d in v))
_THRESHOLDS = ("two finite numbers t1 < t2", lambda t: len(t) == 2 and all(
    type(v) in _NUM and _finite(v) for v in t) and t[0] < t[1])


_SCHEMA = {
    "dataset": ({
        "generator": ({
            "seed": (int, 1, _SEED),
            "classes": (int, 6, _AT_LEAST_2),
            "samples_per_class": (int, 100, _AT_LEAST_1),
            "shape": (list, [3, 12, 12], _SHAPE),
            "noise": (_NUM, 2.5, _NON_NEGATIVE),
        }, {}),
        "csv": ({
            "path": (str, None),
            "classes": (int, None, _AT_LEAST_2),
            "shape": (list, None, _SHAPE),
            "seed": (int, 0, _SEED),
        }, None),
    }, {}),
    "network": ({
        "spec_path": (str, None),
    }, {}),
    "pool": ({
        "pool_size": (int, 6, _AT_LEAST_1),
        "boost_learning_rate": (_NUM, 0.5, _POSITIVE),
        "train_epochs": (int, 12, _NON_NEGATIVE),
        "learning_rate": (_NUM, 0.1, _POSITIVE),
        "batch_size": (int, 32, _AT_LEAST_1),
        "seed": (int, 0, _SEED),
        "prune": ({
            "filters_removed_per_step": (int, 1, _AT_LEAST_1),
            "retrain_epochs_per_step": (int, 4, _NON_NEGATIVE),
        }, {}),
    }, {}),
    "ensemble": ({
        "size": (int, 4, _AT_LEAST_2),
    }, {}),
    "energy": ({
        "capacitor": ({
            # desk-scale store: the bundled ensemble's full execution is a few
            # percent of usable energy, so scheduling decisions matter
            "capacitance": (_NUM, 2.2e-3, _POSITIVE),
            "v_max": (_NUM, 4.2, _POSITIVE),
            "v_cutoff": (_NUM, 1.7, _POSITIVE),
        }, {}),
        "cost_model": ({
            "energy_per_mac": (_NUM, 1e-9, _NON_NEGATIVE),
            "per_inference_overhead": (_NUM, 1e-4, _NON_NEGATIVE),
            "sleep_power": (_NUM, 5e-6, _NON_NEGATIVE),
            "fc_retrain_energy_fraction": (_NUM, 0.1, _NON_NEGATIVE),
        }, {}),
        "trace": ({
            "csv": (str, None),
            "synthetic": ({
                "seed": (int, 7, _SEED),
                "profile": (str, "day-night", _one_of("day-night", "bursty", "constant")),
                "duration": (_NUM, 3200.0, _POSITIVE),
                "period": (_NUM, 800.0, _POSITIVE),
                "high_power": (_NUM, 2e-4, _NON_NEGATIVE),
                "constant_power": (_NUM, None, _NON_NEGATIVE),
                "burst_rate": (_NUM, 0.02, _FRACTION),
                "sample_interval": (_NUM, 1.0, _POSITIVE),
            }, {}),
        }, {}),
        "harvester_efficiency": (_NUM, 1.0, ("in (0, 1]", lambda v: 0 < v <= 1)),
        "power_thresholds": (list, None, _THRESHOLDS),
        "initial_voltage": (_NUM, None, _NON_NEGATIVE),
    }, {}),
    "scheduler": ({
        "reward": ({
            "beta": (_NUM, 0.05, _NON_NEGATIVE),
            "p_miss": (_NUM, 0.5, _NON_NEGATIVE),
        }, {}),
        "q": ({
            "learning_rate": (_NUM, 0.1, _FRACTION),
            "discount": (_NUM, 0.9, _FRACTION),
            "epsilon_start": (_NUM, 0.3, _FRACTION),
            "epsilon_end": (_NUM, 0.01, _FRACTION),
            "anneal_fraction": (_NUM, 0.8, _FRACTION),
        }, {}),
        "episodes": (int, 120, _NON_NEGATIVE),
        "seed": (int, 0, _SEED),
    }, {}),
    "simulation": ({
        "request_period": (_NUM, 10.0, _POSITIVE),
        "duration": (_NUM, None, _POSITIVE),
        "retrain_mode": (str, "off", _one_of(*RETRAIN_MODES)),
        "retrain_learning_rate": (_NUM, 0.05, _POSITIVE),
        "seed": (int, 0, _SEED),
    }, {}),
}


def _validate(doc, schema, path):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    out = {}
    unknown = set(doc) - set(schema)
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown keys {sorted(unknown)}")
    for key, (kind, default, *rule) in schema.items():
        here = f"{path}.{key}" if path else key
        value = doc.get(key, default)
        if value is None:
            if default is not None:
                raise ConfigError(f"{here}: must not be null")
            out[key] = None
        elif isinstance(kind, dict):
            out[key] = _validate(value, kind, here)
        elif not isinstance(value, kind) or isinstance(value, bool):
            raise ConfigError(f"{here}: expected "
                              f"{'a number' if kind is _NUM else kind.__name__}")
        elif kind is _NUM and not _finite(value):
            raise ConfigError(f"{here}: expected a finite number")
        else:
            for text, in_range in rule:   # a leaf has at most one range
                if not in_range(value):
                    raise ConfigError(f"{here}: must be {text}, got {value!r}")
            out[key] = float(value) if kind is _NUM else copy.deepcopy(value)
    return out


def validate_config(doc: dict) -> dict:
    cfg = _validate(doc, _SCHEMA, "")
    csv_cfg = cfg["dataset"]["csv"]
    for key in ("path", "classes", "shape"):
        if csv_cfg is not None and csv_cfg[key] is None:
            raise ConfigError(f"dataset.csv.{key} is required when dataset.csv is set")
    g = cfg["dataset"]["generator"]
    elements = g["classes"] * g["samples_per_class"] * math.prod(g["shape"])
    if csv_cfg is None and elements > MAX_DATASET_ELEMENTS:
        raise ConfigError("dataset.generator.classes * dataset.generator.samples_per_class"
                          f" * dataset.generator.shape: must be at most "
                          f"{MAX_DATASET_ELEMENTS} elements, got {elements}")
    if cfg["pool"]["pool_size"] <= cfg["ensemble"]["size"]:
        raise ConfigError("pool.pool_size must exceed ensemble.size")
    e = cfg["energy"]
    v_max = e["capacitor"]["v_max"]
    if not e["capacitor"]["v_cutoff"] < v_max:
        raise ConfigError(f"energy.capacitor.v_cutoff: must be < energy.capacitor.v_max "
                          f"({v_max!r}), got {e['capacitor']['v_cutoff']!r}")
    if e["initial_voltage"] is not None and e["initial_voltage"] > v_max:
        raise ConfigError(f"energy.initial_voltage: must be <= energy.capacitor.v_max "
                          f"({v_max!r}), got {e['initial_voltage']!r}")
    if e["trace"]["csv"] is not None:   # a CSV trace replaces the synthetic one
        return cfg
    synth = e["trace"]["synthetic"]
    if synth["profile"] == "constant" and synth["constant_power"] is None:
        raise ConfigError("energy.trace.synthetic.constant_power: required when "
                          "energy.trace.synthetic.profile is 'constant'")
    # one sample, at 0 s, leaves the trace no time to run requests in
    samples = synth["duration"] / synth["sample_interval"]
    if not 1 < samples <= MAX_TRACE_SAMPLES:
        bound = ("more than 1 sample" if samples <= 1
                 else f"at most {MAX_TRACE_SAMPLES} samples")
        raise ConfigError("energy.trace.synthetic.duration / energy.trace.synthetic."
                          f"sample_interval: must be {bound}, got {samples:.10g}")
    return cfg


def default_config() -> dict:
    return validate_config({})


def read_config(path):
    """The config file's JSON document, not yet validated."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def load_config(path) -> dict:
    return validate_config(read_config(path))


# ---------------------------------------------------------------------------
# builders


def baseline_network() -> NetworkSpec:
    """The bundled desk-scale baseline: three conv stages over 3x12x12."""
    return NetworkSpec.load(resources.files("enboost.assets") / "baseline_net.json")


def make_network(cfg: dict, config_dir=".") -> NetworkSpec:
    spec_path = cfg["network"]["spec_path"]
    if spec_path is None:
        return baseline_network()
    spec = NetworkSpec.load(Path(config_dir) / spec_path)
    for what, count, bound in (("parameters", count_params(spec), MAX_NETWORK_PARAMS),
                               ("MACs per sample", count_macs(spec), MAX_NETWORK_MACS)):
        if count > bound:
            raise ConfigError(f"network.spec_path {spec_path}: must have at most "
                              f"{bound} {what}, got {count}")
    return spec


def make_dataset(cfg: dict, config_dir=".", spec: NetworkSpec = None) -> Dataset:
    """The configured dataset, checked against the network `spec` when given:
    its sample shape before the dataset is built, its class count after."""
    csv_cfg = cfg["dataset"]["csv"]
    name = "generator" if csv_cfg is None else "csv"
    shape = TensorShape(*cfg["dataset"][name]["shape"])
    if spec is not None and shape != spec.input_shape:
        raise ConfigError(f"dataset.{name}.shape {shape.to_list()} differs from "
                          f"the network's input shape {spec.input_shape.to_list()}")
    if csv_cfg is not None:
        dataset = load_csv(Path(config_dir) / csv_cfg["path"], shape,
                           csv_cfg["classes"], seed=csv_cfg["seed"])
    else:
        g = cfg["dataset"]["generator"]
        dataset = synth_dataset(seed=g["seed"], classes=g["classes"],
                                samples_per_class=g["samples_per_class"],
                                shape=tuple(g["shape"]), noise=g["noise"])
    if spec is not None and dataset.class_count != spec.class_count:
        raise ConfigError(f"dataset.{name}.classes {dataset.class_count} differs from "
                          f"the network's class count {spec.class_count}")
    return dataset


def check_sgd_steps(cfg: dict, spec: NetworkSpec, train_size: int):
    """Reject a build that could take more than MAX_SGD_STEPS SGD steps.
    Each pool learner trains `train_epochs` epochs and then retrains
    `retrain_epochs_per_step` epochs after each prune step; a step removes
    at least one filter and each conv keeps one, so a learner takes at most
    (conv filters - conv layers) steps."""
    p = cfg["pool"]
    filters = [layer.filters for layer in spec.layers if layer.kind == CONV]
    epochs = (p["train_epochs"]
              + p["prune"]["retrain_epochs_per_step"] * (sum(filters) - len(filters)))
    steps = p["pool_size"] * -(-train_size // p["batch_size"]) * epochs
    if steps > MAX_SGD_STEPS:
        raise ConfigError("pool.pool_size * ceil(train samples / pool.batch_size) * "
                          "(pool.train_epochs + pool.prune.retrain_epochs_per_step * "
                          "(conv filters - conv layers)): must be at most "
                          f"{MAX_SGD_STEPS} SGD steps, got {steps}")


def make_pool_config(cfg: dict, seed=None) -> PoolConfig:
    p = cfg["pool"]
    n = cfg["ensemble"]["size"]
    schedule = PruneSchedule(
        target_mac_fraction=1.0 / n,
        filters_removed_per_step=p["prune"]["filters_removed_per_step"],
        retrain_epochs_per_step=p["prune"]["retrain_epochs_per_step"])
    return PoolConfig(pool_size=p["pool_size"], ensemble_size=n,
                      boost_learning_rate=p["boost_learning_rate"],
                      prune=schedule, train_epochs=p["train_epochs"],
                      learning_rate=p["learning_rate"],
                      batch_size=p["batch_size"],
                      seed=p["seed"] if seed is None else seed)


def make_trace(cfg: dict, config_dir=".") -> PowerTrace:
    """The harvest trace, CSV or synthetic, scaled by harvester_efficiency."""
    e = cfg["energy"]
    if e["trace"]["csv"] is not None:
        trace = load_trace(Path(config_dir) / e["trace"]["csv"])
    else:
        trace = synth_trace(**e["trace"]["synthetic"])
    return replace(trace, power=trace.power * e["harvester_efficiency"])


def make_env(cfg: dict, config_dir=".") -> EnvConfig:
    e = cfg["energy"]
    cap = Capacitor(capacitance=e["capacitor"]["capacitance"],
                    v_max=e["capacitor"]["v_max"],
                    v_cutoff=e["capacitor"]["v_cutoff"],
                    voltage=e["capacitor"]["v_max"] if e["initial_voltage"] is None
                    else e["initial_voltage"])
    cm = CostModel(**e["cost_model"])
    trace = make_trace(cfg, config_dir)
    if trace.horizon <= 0:
        raise ConfigError(f"energy.trace.csv {e['trace']['csv']}: the last sample is "
                          f"at {trace.horizon:.10g} s, and must be after 0 s")
    sim = cfg["simulation"]
    duration = sim["duration"] if sim["duration"] is not None else trace.horizon
    if duration > trace.horizon:
        raise ConfigError(f"simulation.duration {duration:.10g} s is past the "
                          f"trace's last sample at {trace.horizon:.10g} s")
    r = cfg["scheduler"]["reward"]
    thresholds = cfg["energy"]["power_thresholds"]
    env = EnvConfig(capacitor=cap, trace=trace, cost_model=cm,
                    requests=RequestPattern(period=sim["request_period"],
                                            horizon=duration),
                    reward=RewardParams(beta=r["beta"], p_miss=r["p_miss"]),
                    power_thresholds=tuple(thresholds) if thresholds else None)
    if env.request_count > MAX_REQUESTS:
        span = ("simulation.duration" if sim["duration"] is not None
                else f"the trace's last sample ({trace.horizon:.10g} s)")
        raise ConfigError(f"{span} / simulation.request_period: must be at most "
                          f"{MAX_REQUESTS} requests, got {env.request_count}")
    return env


def make_qhyper(cfg: dict) -> QHyperParams:
    return QHyperParams(**cfg["scheduler"]["q"])
