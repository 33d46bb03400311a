"""Project configuration: one JSON document driving the whole pipeline.

The document is validated up front (types checked, unknown keys rejected)
before any command does work. Relative paths resolve against the config
file's directory.
"""
from __future__ import annotations

import copy
import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .boost import PoolConfig
from .data import Dataset, load_csv, synth_dataset
from .energy import (Capacitor, CostModel, PowerTrace, RequestPattern,
                     load_trace, synth_trace)
from .errors import ConfigError
from .nn import NetworkSpec, TensorShape
from .prune import PruneSchedule
from .qsched import EnvConfig, QHyperParams, RewardParams

# schema: {key: (type or nested schema, default)}; only a None default allows null
_NUM = (int, float)


def _finite(v) -> bool:
    """False for NaN, +-inf (which `json` parses) and ints past float range."""
    return abs(v) <= sys.float_info.max


_SCHEMA = {
    "dataset": ({
        "generator": ({
            "seed": (int, 1),
            "classes": (int, 6),
            "samples_per_class": (int, 100),
            "shape": (list, [3, 12, 12]),
            "noise": (_NUM, 2.5),
        }, {}),
        "csv": ({
            "path": (str, None),
            "classes": (int, None),
            "shape": (list, None),
            "seed": (int, 0),
        }, None),
    }, {}),
    "network": ({
        "spec_path": (str, None),
    }, {}),
    "pool": ({
        "pool_size": (int, 6),
        "boost_learning_rate": (_NUM, 0.5),
        "train_epochs": (int, 12),
        "learning_rate": (_NUM, 0.1),
        "batch_size": (int, 32),
        "seed": (int, 0),
        "prune": ({
            "filters_removed_per_step": (int, 1),
            "retrain_epochs_per_step": (int, 4),
        }, {}),
    }, {}),
    "ensemble": ({
        "size": (int, 4),
    }, {}),
    "energy": ({
        "capacitor": ({
            # desk-scale store: the bundled ensemble's full execution is a few
            # percent of usable energy, so scheduling decisions matter
            "capacitance": (_NUM, 2.2e-3),
            "v_max": (_NUM, 4.2),
            "v_cutoff": (_NUM, 1.7),
        }, {}),
        "cost_model": ({
            "energy_per_mac": (_NUM, 1e-9),
            "per_inference_overhead": (_NUM, 1e-4),
            "sleep_power": (_NUM, 5e-6),
            "fc_retrain_energy_fraction": (_NUM, 0.1),
        }, {}),
        "trace": ({
            "csv": (str, None),
            "synthetic": ({
                "seed": (int, 7),
                "profile": (str, "day-night"),
                "duration": (_NUM, 3200.0),
                "period": (_NUM, 800.0),
                "high_power": (_NUM, 2e-4),
                "constant_power": (_NUM, None),
                "burst_rate": (_NUM, 0.02),
                "sample_interval": (_NUM, 1.0),
            }, {}),
        }, {}),
        "harvester_efficiency": (_NUM, 1.0),
        "power_thresholds": (list, None),
        "initial_voltage": (_NUM, None),
    }, {}),
    "scheduler": ({
        "reward": ({
            "beta": (_NUM, 0.05),
            "p_miss": (_NUM, 0.5),
        }, {}),
        "q": ({
            "learning_rate": (_NUM, 0.1),
            "discount": (_NUM, 0.9),
            "epsilon_start": (_NUM, 0.3),
            "epsilon_end": (_NUM, 0.01),
            "anneal_fraction": (_NUM, 0.8),
        }, {}),
        "episodes": (int, 120),
        "seed": (int, 0),
    }, {}),
    "simulation": ({
        "request_period": (_NUM, 10.0),
        "duration": (_NUM, None),
        "retrain_mode": (str, "off"),
        "retrain_learning_rate": (_NUM, 0.05),
        "seed": (int, 0),
    }, {}),
}


def _validate(doc, schema, path):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    out = {}
    unknown = set(doc) - set(schema)
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown keys {sorted(unknown)}")
    for key, (kind, default) in schema.items():
        here = f"{path}.{key}" if path else key
        value = doc.get(key, default)
        if value is None:
            if default is not None:
                raise ConfigError(f"{here}: must not be null")
            out[key] = None
        elif isinstance(kind, dict):
            out[key] = _validate(value, kind, here)
        elif kind is _NUM:
            if isinstance(value, bool) or not isinstance(value, _NUM):
                raise ConfigError(f"{here}: expected a number")
            if not _finite(value):
                raise ConfigError(f"{here}: expected a finite number")
            out[key] = float(value)
        elif not isinstance(value, kind) or isinstance(value, bool):
            raise ConfigError(f"{here}: expected {getattr(kind, '__name__', kind)}")
        elif key == "seed" and value < 0:   # numpy seeds only from integers >= 0
            raise ConfigError(f"{here}: must be an integer >= 0, got {value}")
        else:
            out[key] = copy.deepcopy(value)
    return out


def validate_config(doc: dict) -> dict:
    cfg = _validate(doc, _SCHEMA, "")
    csv_cfg = cfg["dataset"]["csv"]
    for key in ("path", "classes", "shape"):
        if csv_cfg is not None and csv_cfg[key] is None:
            raise ConfigError(f"dataset.csv.{key} is required when dataset.csv is set")
    for name in ("generator", "csv"):
        shape = (cfg["dataset"][name] or {}).get("shape")
        if shape is not None and not (len(shape) == 3 and all(
                type(v) is int and v > 0 for v in shape)):
            raise ConfigError(f"dataset.{name}.shape must be three positive "
                              f"integers, got {shape}")
    if cfg["pool"]["pool_size"] <= cfg["ensemble"]["size"]:
        raise ConfigError("pool.pool_size must exceed ensemble.size")
    if not 2 <= cfg["ensemble"]["size"]:
        raise ConfigError("ensemble.size must be >= 2")
    cap = cfg["energy"]["capacitor"]["capacitance"]
    if not cap > 0.0:
        raise ConfigError(f"energy.capacitor.capacitance must be > 0, got {cap}")
    eff = cfg["energy"]["harvester_efficiency"]
    if not 0.0 < eff <= 1.0:
        raise ConfigError(f"energy.harvester_efficiency must be in (0, 1], got {eff}")
    t = cfg["energy"]["power_thresholds"]
    if t is not None and not (len(t) == 2 and all(type(v) in _NUM and _finite(v)
                                                  for v in t) and t[0] < t[1]):
        raise ConfigError("energy.power_thresholds must be null or two finite "
                          f"numbers t1 < t2, got {t}")
    return cfg


def default_config() -> dict:
    return validate_config({})


def load_config(path) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return validate_config(doc)


# ---------------------------------------------------------------------------
# builders


def baseline_network() -> NetworkSpec:
    """The bundled desk-scale baseline: three conv stages over 3x12x12."""
    return NetworkSpec.load(resources.files("enboost.assets") / "baseline_net.json")


def make_network(cfg: dict, config_dir=".") -> NetworkSpec:
    spec_path = cfg["network"]["spec_path"]
    if spec_path is None:
        return baseline_network()
    return NetworkSpec.load(Path(config_dir) / spec_path)


def make_dataset(cfg: dict, config_dir=".", input_shape=None) -> Dataset:
    """The configured dataset, checked against `input_shape` when given."""
    csv_cfg = cfg["dataset"]["csv"]
    name = "generator" if csv_cfg is None else "csv"
    shape = TensorShape(*cfg["dataset"][name]["shape"])
    if input_shape is not None and shape != input_shape:
        raise ConfigError(f"dataset.{name}.shape {shape.to_list()} differs from "
                          f"the network's input shape {input_shape.to_list()}")
    if csv_cfg is not None:
        return load_csv(Path(config_dir) / csv_cfg["path"], shape,
                        csv_cfg["classes"], seed=csv_cfg["seed"])
    g = cfg["dataset"]["generator"]
    return synth_dataset(seed=g["seed"], classes=g["classes"],
                         samples_per_class=g["samples_per_class"],
                         shape=tuple(g["shape"]), noise=g["noise"])


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
    sim = cfg["simulation"]
    duration = sim["duration"] if sim["duration"] is not None else trace.horizon
    if duration > trace.horizon:
        raise ConfigError(f"simulation.duration {duration:.10g} s is past the "
                          f"trace's last sample at {trace.horizon:.10g} s")
    requests = RequestPattern(period=sim["request_period"], horizon=duration)
    r = cfg["scheduler"]["reward"]
    thresholds = cfg["energy"]["power_thresholds"]
    return EnvConfig(capacitor=cap, trace=trace, cost_model=cm,
                     requests=requests,
                     reward=RewardParams(beta=r["beta"], p_miss=r["p_miss"]),
                     power_thresholds=tuple(thresholds) if thresholds else None)


def make_qhyper(cfg: dict) -> QHyperParams:
    return QHyperParams(**cfg["scheduler"]["q"])
