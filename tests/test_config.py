"""Config schema validation and builders."""
import json
import re

import numpy as np
import pytest

from conftest import PolicyAgent, schema_leaves
from enboost import config, qsched
from enboost.errors import ConfigError
from enboost.nn import count_macs, count_params


def test_default_config_is_valid():
    cfg = config.default_config()
    assert cfg["pool"]["pool_size"] == 6
    assert cfg["ensemble"]["size"] == 4
    assert cfg["energy"]["cost_model"]["energy_per_mac"] == 1e-9
    assert cfg["energy"]["cost_model"]["per_inference_overhead"] == 1e-4
    assert cfg["energy"]["cost_model"]["sleep_power"] == 5e-6


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        config.validate_config({"pool": {"pool_sise": 6}})
    with pytest.raises(ConfigError, match="unknown keys"):
        config.validate_config({"extra": {}})
    with pytest.raises(ConfigError, match="unknown keys"):
        config.validate_config({"energy": {"cost_model": {"active_idle_power": 1e-3}}})
    with pytest.raises(ConfigError, match=r"^pool\.prune: unknown keys "
                                          r"\['filters_removed_per_step'\]$"):
        config.validate_config({"pool": {"prune": {"filters_removed_per_step": 1}}})


def test_type_errors_are_reported_with_path():
    with pytest.raises(ConfigError, match="pool.train_epochs"):
        config.validate_config({"pool": {"train_epochs": "many"}})
    with pytest.raises(ConfigError, match="expected a number"):
        config.validate_config({"energy": {"capacitor": {"capacitance": True}}})


def test_null_only_where_the_default_is_null():
    cfg = config.validate_config({"dataset": {"csv": None},
                                  "energy": {"power_thresholds": None,
                                             "initial_voltage": None}})
    assert cfg["dataset"]["csv"] is None
    assert cfg["energy"]["power_thresholds"] is None
    with pytest.raises(ConfigError, match="pool.train_epochs: must not be null"):
        config.validate_config({"pool": {"train_epochs": None}})
    with pytest.raises(ConfigError, match="dataset.generator: must not be null"):
        config.validate_config({"dataset": {"generator": None}})
    shape = config.default_config()["dataset"]["generator"]["shape"]
    shape.append(9)
    assert config.default_config()["dataset"]["generator"]["shape"] == [3, 12, 12]


@pytest.mark.parametrize("thresholds", [[], [1e-4], [2e-4, 1e-4], [1e-4, True],
                                        [1e-4, 2e-4, 3e-4], [1e-4, float("inf")]],
                         ids=["empty", "one", "decreasing", "bool", "three", "inf"])
def test_power_thresholds_must_be_two_increasing_numbers(thresholds):
    with pytest.raises(ConfigError, match="power_thresholds"):
        config.validate_config({"energy": {"power_thresholds": thresholds}})


@pytest.mark.parametrize("section", ["generator", "csv"])
@pytest.mark.parametrize("shape", [[3, 12], [3, 12, 12, 1], ["a", 12, 12],
                                   [3, 0, 12], [3, True, 12], [3.0, 12, 12]],
                         ids=["two", "four", "str", "zero", "bool", "float"])
def test_dataset_shape_must_be_three_positive_ints(section, shape):
    doc = {"generator": {"shape": shape}} if section == "generator" else \
        {"csv": {"path": "d.csv", "classes": 3, "shape": shape}}
    with pytest.raises(ConfigError, match=f"dataset.{section}.shape"):
        config.validate_config({"dataset": doc})


def test_pool_must_exceed_ensemble():
    with pytest.raises(ConfigError, match="must exceed"):
        config.validate_config({"pool": {"pool_size": 4},
                                "ensemble": {"size": 4}})
    with pytest.raises(ConfigError, match=">= 2"):
        config.validate_config({"pool": {"pool_size": 4},
                                "ensemble": {"size": 1}})


@pytest.mark.parametrize("energy, message", [
    ({"capacitor": {"v_cutoff": 5.0}},
     r"energy\.capacitor\.v_cutoff: must be < energy\.capacitor\.v_max \(4\.2\), got 5\.0"),
    ({"capacitor": {"v_max": 1.5}},
     r"energy\.capacitor\.v_cutoff: must be < energy\.capacitor\.v_max \(1\.5\), got 1\.7"),
    ({"initial_voltage": 9},
     r"energy\.initial_voltage: must be <= energy\.capacitor\.v_max \(4\.2\), got 9\.0"),
    ({"trace": {"synthetic": {"profile": "constant"}}},
     r"energy\.trace\.synthetic\.constant_power: required when "
     r"energy\.trace\.synthetic\.profile is 'constant'"),
    ({"trace": {"synthetic": {"duration": 1e7 + 1, "sample_interval": 1.0}}},
     r"energy\.trace\.synthetic\.duration / energy\.trace\.synthetic\.sample_interval: "
     r"must be at most 10000000 samples, got 10000001"),
    ({"trace": {"synthetic": {"sample_interval": 1e-300}}},
     r"energy\.trace\.synthetic\.duration / .* got 3\.2e\+303"),
])
def test_cross_key_device_rules_name_their_keys(energy, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        config.validate_config({"energy": energy})


def test_cross_key_device_rules_accept_their_edges():
    cfg = config.validate_config({"energy": {
        "capacitor": {"v_cutoff": 4.1}, "initial_voltage": 4.2,
        "trace": {"synthetic": {"profile": "constant", "constant_power": 0.0,
                                "duration": 1e7, "sample_interval": 1.0}}}})
    assert cfg["energy"]["trace"]["synthetic"]["duration"] == config.MAX_TRACE_SAMPLES


@pytest.mark.parametrize("generator, elements", [
    ({"samples_per_class": 10**9}, 2592000000000),      # at the default 6 x 3x12x12
    ({"classes": 2, "samples_per_class": 5001, "shape": [1, 100, 100]}, 100020000),
])
def test_dataset_size_bound_names_its_keys(generator, elements):
    with pytest.raises(ConfigError, match=(
            r"^dataset\.generator\.classes \* dataset\.generator\.samples_per_class "
            r"\* dataset\.generator\.shape: must be at most 100000000 elements, "
            f"got {elements}$")):
        config.validate_config({"dataset": {"generator": generator}})


def test_dataset_size_bound_accepts_its_edge_and_skips_a_csv_dataset():
    edge = {"classes": 2, "samples_per_class": 5000, "shape": [1, 100, 100]}
    cfg = config.validate_config({"dataset": {"generator": edge}})
    g = cfg["dataset"]["generator"]
    assert g["classes"] * g["samples_per_class"] * 10**4 == config.MAX_DATASET_ELEMENTS
    # the generator is unused when a CSV gives the dataset
    config.validate_config({"dataset": {
        "generator": {"samples_per_class": 10**9},
        "csv": {"path": "data.csv", "classes": 3, "shape": [1, 2, 2]}}})


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        config.load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        config.load_config(bad)


@pytest.mark.parametrize("key,token", [
    ("simulation.request_period", "NaN"),
    ("scheduler.reward.beta", "Infinity"),
    ("scheduler.q.learning_rate", "NaN"),
    ("energy.capacitor.capacitance", "NaN"),
    ("energy.cost_model.sleep_power", "-Infinity"),
    ("pool.learning_rate", "1" + "0" * 400),   # an int past float range
])
def test_non_finite_numbers_rejected(tmp_path, key, token):
    # `json` parses NaN and +-Infinity; every numeric key must be finite
    *sections, leaf = key.split(".")
    text = f'"{leaf}": {token}'
    for section in reversed(sections):
        text = f'"{section}": {{{text}}}'
    path = tmp_path / "config.json"
    path.write_text("{" + text + "}")
    with pytest.raises(ConfigError, match=rf"^{key}: expected a finite number$"):
        config.load_config(path)


def test_baseline_network_accounting():
    spec = config.baseline_network()
    assert spec.input_shape.channels == 3
    assert spec.class_count == 6
    assert count_macs(spec) == 78624
    assert count_params(spec) == 3714


def test_make_pool_config_prunes_to_one_over_n():
    cfg = config.default_config()
    pool_cfg = config.make_pool_config(cfg)
    assert pool_cfg.ensemble_size == 4
    assert pool_cfg.retrain_epochs_per_step == 4
    assert config.make_pool_config(cfg, seed=9).seed == 9


def test_make_env_defaults():
    cfg = config.default_config()
    env = config.make_env(cfg)
    assert env.capacitor.voltage == env.capacitor.v_max
    assert env.requests.period == 10.0
    assert env.requests.horizon == env.trace.horizon == env.horizon
    t1, t2 = env.power_thresholds
    assert 0 < t1 < t2


def test_make_env_rejects_duration_past_trace():
    cfg = config.default_config()
    cfg["simulation"]["duration"] = 3199.0   # the default trace's last sample
    env = config.make_env(cfg)
    assert env.horizon == env.requests.horizon == 3199.0
    cfg["simulation"]["duration"] = 99999.0
    with pytest.raises(ConfigError, match=r"duration 99999 s .* sample at 3199 s"):
        config.make_env(cfg)


@pytest.mark.parametrize("doc", [{}, {"energy": {"trace": {"synthetic": {"seed": 101}}},
                                     "simulation": {"seed": 101}}],
                         ids=["default", "bench"])
def test_request_bound_counts_the_requests_replay_serves(doc, monkeypatch):
    # `{}` and the benchmark's config (its trace and simulation keys) serve
    # a request every 10 s up to the trace's last sample at 3199 s
    cfg = config.validate_config(doc)
    env = config.make_env(cfg)
    agent = PolicyAgent(lambda s: 0)
    qsched.replay(env, qsched.make_device(env), [1e-3], agent)
    assert len(agent.runs) == 319
    monkeypatch.setattr(config, "MAX_REQUESTS", 319)
    config.make_env(cfg)
    monkeypatch.setattr(config, "MAX_REQUESTS", 318)
    with pytest.raises(ConfigError, match=r"^the trace's last sample \(3199 s\) / "
                       r"simulation.request_period: must be at most 318 requests, "
                       r"got 319$"):
        config.make_env(cfg)


def test_harvester_efficiency_scales_synthetic_trace():
    full = config.make_trace(config.default_config())
    half = config.make_trace(config.validate_config(
        {"energy": {"harvester_efficiency": 0.5}}))
    assert full.power.any()
    assert np.array_equal(half.times, full.times)
    assert np.array_equal(half.power, 0.5 * full.power)


@pytest.mark.parametrize("capacitance", [0, -0.0022])
def test_capacitance_must_be_positive(capacitance):
    # a negative store learned on negative energies; zero divided by it
    with pytest.raises(ConfigError, match=r"^energy\.capacitor\.capacitance: must be > 0"):
        config.validate_config({"energy": {"capacitor": {"capacitance": capacitance}}})


@pytest.mark.parametrize("eff", [-0.5, 0.0, 2.0])
def test_harvester_efficiency_out_of_range_rejected(eff):
    with pytest.raises(ConfigError, match="harvester_efficiency"):
        config.validate_config({"energy": {"harvester_efficiency": eff}})


SEED_KEYS = ["dataset.generator.seed", "dataset.csv.seed", "pool.seed",
             "energy.trace.synthetic.seed", "scheduler.seed", "simulation.seed"]


def seed_doc(key, value):
    """A config setting `key` to `value`, with a complete dataset.csv."""
    doc = value
    for part in reversed(key.split(".")):
        doc = {part: doc}
    if key.startswith("dataset.csv."):
        doc["dataset"]["csv"].update(path="d.csv", classes=3, shape=[3, 12, 12])
    return doc


def test_seed_keys_are_every_seed_in_the_schema():
    assert [k for k, *_ in schema_leaves() if k.endswith(".seed")] == SEED_KEYS


@pytest.mark.parametrize("key", SEED_KEYS)
def test_seeds_must_be_non_negative_integers(key):
    # numpy's generators take no negative seed
    for value in (-1, -4):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must be an "
                                              f"integer >= 0, got {value}$"):
            config.validate_config(seed_doc(key, value))
    cfg = config.validate_config(seed_doc(key, 0))
    for part in key.split("."):
        cfg = cfg[part]
    assert cfg == 0


def test_every_numeric_leaf_has_a_range_its_default_satisfies():
    # a key added without a range would accept any number
    numeric = [(key, default, rule) for key, kind, default, rule in schema_leaves()
               if kind in (int, config._NUM)]
    assert numeric
    for key, default, rule in numeric:
        assert rule is not None, key
        text, ok = rule
        assert default is None or ok(default), f"{key}: default {default} is not {text}"


@pytest.mark.parametrize("key,value,text", [
    ("pool.learning_rate", -1, "> 0"),
    ("pool.batch_size", 0, ">= 1"),
    ("energy.trace.synthetic.period", 0, "> 0"),
    ("energy.trace.synthetic.burst_rate", 1.5, "in [0, 1]"),
    ("energy.harvester_efficiency", 0, "in (0, 1]"),
    ("scheduler.q.epsilon_start", -0.25, "in [0, 1]"),
    ("energy.trace.synthetic.profile", "sunny",
     "one of 'day-night', 'bursty', 'constant'"),
    ("simulation.retrain_mode", "always",
     "one of 'off', 'high-energy', 'low-energy', 'auto'"),
])
def test_out_of_range_value_names_key_range_and_value(key, value, text):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must be "
                                          f"{re.escape(text)}, got {re.escape(repr(value))}$"):
        config.validate_config(seed_doc(key, value))


def test_make_dataset_csv_requires_path():
    with pytest.raises(ConfigError, match="dataset.csv.path"):
        config.validate_config({"dataset": {"csv": {"classes": 2,
                                                    "shape": [1, 2, 2]}}})
    with pytest.raises(ConfigError, match="dataset.csv.classes"):
        config.validate_config({"dataset": {"csv": {"path": "d.csv",
                                                    "shape": [1, 2, 2]}}})
    with pytest.raises(ConfigError, match="dataset.csv.shape"):
        config.validate_config({"dataset": {"csv": {"path": "d.csv", "classes": 2}}})


def test_make_network_custom_spec(tmp_path):
    from conftest import tiny_spec
    tiny_spec().save(tmp_path / "net.json")
    cfg = config.validate_config({"network": {"spec_path": "net.json"}})
    spec = config.make_network(cfg, tmp_path)
    assert spec.class_count == 3


def test_sgd_step_bound_counts_the_default_build(monkeypatch):
    # 6 learners x 12 batches of the 360-sample train split x (12 epochs +
    # 4 retrain epochs after each of at most 36 - 3 prune steps); the build
    # takes 9,024
    cfg = config.default_config()
    spec = config.baseline_network()
    train_size = config.make_dataset(cfg, spec=spec).split_size("train")
    assert train_size == 360
    monkeypatch.setattr(config, "MAX_SGD_STEPS", 10_368)
    config.check_sgd_steps(cfg, spec, train_size)
    monkeypatch.setattr(config, "MAX_SGD_STEPS", 10_367)
    with pytest.raises(ConfigError, match=r"at most 10367 SGD steps, got 10368$"):
        config.check_sgd_steps(cfg, spec, train_size)
