"""End-to-end command-line pipeline on a small self-contained workspace."""
import csv
import io
import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import parent_events_csv, tiny_spec
from enboost import config, ensemble as ens, nn, qsched, simrun
from enboost.cli import main
from enboost.qsched import load_qtable

LIGHT_CONFIG = {
    "dataset": {"generator": {"seed": 5, "classes": 3, "samples_per_class": 20,
                              "shape": [2, 8, 8], "noise": 0.5}},
    "network": {"spec_path": "net.json"},
    "pool": {"pool_size": 3, "train_epochs": 6, "learning_rate": 0.1,
             "seed": 0, "prune": {"retrain_epochs_per_step": 1}},
    "ensemble": {"size": 2},
    "energy": {"capacitor": {"capacitance": 1e-3},
               "trace": {"synthetic": {"profile": "day-night",
                                       "duration": 400.0, "period": 100.0,
                                       "high_power": 1e-4}}},
    "scheduler": {"episodes": 15, "seed": 0},
    "simulation": {"request_period": 5.0},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    tiny_spec().save(ws / "net.json")
    (ws / "config.json").write_text(json.dumps(LIGHT_CONFIG))
    assert main(["build-ensemble", "--config", str(ws / "config.json"),
                 "--out", str(ws / "build")]) == 0
    return ws


def test_build_summary_respects_budget(workspace):
    doc = json.loads((workspace / "build" / "build_summary.json").read_text())
    assert doc["ensemble_size"] == 2
    assert doc["ensemble_total_macs"] <= doc["baseline_macs"]
    assert len(doc["pool"]) == 3
    assert (workspace / "build" / "pool").is_dir()
    manifest = json.loads((workspace / "build" / "ensemble.json").read_text())
    assert doc["selected"] == manifest["learners"]
    assert doc["vote_weights"] == manifest["vote_weights"]


def test_build_summary_scores_the_test_split(workspace):
    doc = json.loads((workspace / "build" / "build_summary.json").read_text())
    model = ens.load_ensemble(workspace / "build" / "ensemble.json")
    cfg = config.load_config(workspace / "config.json")
    tx, ty = config.make_dataset(cfg, workspace).split("test")
    probs = [nn.forward(l, tx) for l in model.learners]
    assert doc["test_accuracy"]["samples"] == len(ty)
    assert doc["test_accuracy"]["ensemble_prefix"] == [
        float(np.mean(ens.vote_batch(np.stack(probs[:k]), model.vote_weights[:k]) == ty))
        for k in (1, 2)]
    pool = doc["test_accuracy"]["pool"]
    assert sorted(pool) == [e["id"] for e in doc["pool"]]
    for learner, p in zip(model.learners, probs):
        assert pool[learner.id] == nn.accuracy(p, ty)


def test_selection_never_reads_the_test_split(tmp_path, monkeypatch):
    # the same build with the test split's labels reversed: only the
    # test-split scores may differ
    tiny_spec().save(tmp_path / "net.json")
    (tmp_path / "config.json").write_text(json.dumps(LIGHT_CONFIG))
    make_dataset = config.make_dataset

    def reversed_test_labels(*args):
        ds = make_dataset(*args)
        test = ds.splits["test"]
        ds.y[test] = ds.y[test][::-1]
        return ds

    for out, make in (("a", make_dataset), ("b", reversed_test_labels)):
        monkeypatch.setattr(config, "make_dataset", make)
        assert main(["build-ensemble", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / out)]) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "ensemble.json").read_bytes() == (b / "ensemble.json").read_bytes()
    for path in sorted((a / "pool").iterdir()):
        assert path.read_bytes() == (b / "pool" / path.name).read_bytes()
    doc_a, doc_b = (json.loads((d / "build_summary.json").read_text()) for d in (a, b))
    assert doc_a.pop("test_accuracy") != doc_b.pop("test_accuracy")
    assert doc_a == doc_b


def test_build_with_every_vote_weight_at_most_0_exits_2_without_output(tmp_path,
                                                                       capsys):
    # an untrained pool leaves every learner below 50% eval accuracy at this
    # seed, so the two-class vote weight of each is <= 0
    seed = 101
    (tmp_path / "config.json").write_text(json.dumps({
        "dataset": {"generator": {"seed": seed, "samples_per_class": 24}},
        "pool": {"pool_size": 5, "train_epochs": 0, "seed": seed,
                 "prune": {"retrain_epochs_per_step": 0}}}))
    rc = main(["build-ensemble", "--config", str(tmp_path / "config.json"),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == ("error: every selected learner's vote weight is <= 0: "
                   "learner-04 -0.672, learner-02 -0.784, learner-01 -0.916, "
                   "learner-00 -1.3\n")
    assert not (tmp_path / "out").exists()


# case: (command, sections replacing LIGHT_CONFIG's, extra flags)
BAD_CONFIGS = {
    "pool-size": ("build-ensemble", {"pool": {"pool_size": 2}, "ensemble": {"size": 2}}, []),
    "train-epochs-null": ("build-ensemble", {"pool": {"train_epochs": None}}, []),
    "generator-null": ("build-ensemble", {"dataset": {"generator": None}}, []),
    "batch-size-0": ("build-ensemble", {"pool": {"batch_size": 0}}, []),
    "train-epochs-negative": ("build-ensemble", {"pool": {"train_epochs": -1}}, []),
    "filters-per-step-removed": ("build-ensemble",
                                 {"pool": {"prune": {"filters_removed_per_step": 1}}}, []),
    "episodes-null": ("train-scheduler", {"scheduler": {"episodes": None}}, []),
    "episodes-negative": ("train-scheduler", {"scheduler": {"episodes": -3}}, []),
    "episodes-flag-negative": ("train-scheduler", {}, ["--episodes", "-3"]),
    "power-thresholds-short": ("train-scheduler",
                               {"energy": {"power_thresholds": [1]}}, []),
    "generator-shape-short": ("build-ensemble",
                              {"dataset": {"generator": {"shape": [3, 12]}}}, []),
    "generator-shape-str": ("build-ensemble",
                            {"dataset": {"generator": {"shape": ["a", 12, 12]}}}, []),
    "empty-eval-split": ("build-ensemble", {"network": {}, "dataset": {
        "generator": {"classes": 2, "samples_per_class": 1}}}, []),
    "empty-test-split": ("build-ensemble", {"network": {}, "dataset": {
        "generator": {"classes": 3, "samples_per_class": 1}}}, []),
    "generator-shape-zero": ("build-ensemble",
                             {"dataset": {"generator": {"shape": [3, 0, 12]}}}, []),
    "capacitance-0": ("train-scheduler",
                      {"energy": {"capacitor": {"capacitance": 0}}}, []),
    "capacitance-negative": ("train-scheduler",
                             {"energy": {"capacitor": {"capacitance": -0.0022}}}, []),
    "pool-seed-negative": ("build-ensemble", {"pool": {"seed": -1}}, []),
    "generator-seed-negative": ("build-ensemble",
                                {"dataset": {"generator": {"seed": -2}}}, []),
    "scheduler-seed-negative": ("train-scheduler", {"scheduler": {"seed": -4}}, []),
    "trace-seed-negative": ("train-scheduler",
                            {"energy": {"trace": {"synthetic": {"seed": -2}}}}, []),
    "simulation-seed-negative": ("simulate", {"simulation": {"seed": -1}},
                                 ["--policy", "all"]),
    "v-cutoff-at-v-max": ("train-scheduler",
                          {"energy": {"capacitor": {"v_cutoff": 4.2}}}, []),
    "v-cutoff-above-v-max": ("train-scheduler",
                             {"energy": {"capacitor": {"v_cutoff": 5.0}}}, []),
    "initial-voltage-above-v-max": ("train-scheduler",
                                    {"energy": {"initial_voltage": 9.0}}, []),
    "constant-without-power": ("train-scheduler", {"energy": {"trace": {
        "synthetic": {"profile": "constant"}}}}, []),
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_invalid_config_exits_1_without_output(case, workspace, tmp_path, capsys):
    command, sections, flags = BAD_CONFIGS[case]
    (tmp_path / "config.json").write_text(json.dumps(dict(LIGHT_CONFIG, **sections)))
    if command != "build-ensemble":
        flags = ["--ensemble", str(workspace / "build"), *flags]
    rc = main([command, "--config", str(tmp_path / "config.json"),
               "--out", str(tmp_path / "out"), *flags])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("error:") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("interval", [1e-300, 1e-6])
def test_trace_sample_bound_exits_1_before_building_the_trace(interval, workspace,
                                                              tmp_path, capsys,
                                                              monkeypatch):
    # 1e-6 would ask for 3.2e9 samples; nothing may build the trace
    def no_trace(**kwargs):
        raise AssertionError("trace built")

    monkeypatch.setattr(config, "synth_trace", no_trace)
    (tmp_path / "config.json").write_text(json.dumps({"energy": {"trace": {
        "synthetic": {"duration": 3200.0, "sample_interval": interval}}}}))
    rc = main(["train-scheduler", "--config", str(tmp_path / "config.json"),
               "--ensemble", str(workspace / "build"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: energy.trace.synthetic.duration / "
                          "energy.trace.synthetic.sample_interval: must be at most "
                          f"{config.MAX_TRACE_SAMPLES} samples, got ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting", [{"duration": 0.5}, {"sample_interval": 5000.0}],
                         ids=["short-duration", "long-interval"])
def test_one_sample_trace_exits_1_naming_its_keys(setting, workspace, tmp_path, capsys):
    # one sample ends the trace at 0 s, before any request
    (tmp_path / "config.json").write_text(json.dumps(
        {"energy": {"trace": {"synthetic": setting}}}))
    rc = main(["train-scheduler", "--config", str(tmp_path / "config.json"),
               "--ensemble", str(workspace / "build"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: energy.trace.synthetic.duration / "
                          "energy.trace.synthetic.sample_interval: must be more "
                          "than 1 sample, got ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("times", [[0.0], [-5.0, -1.0]], ids=["at-0", "before-0"])
def test_csv_trace_ending_at_0_s_exits_1_naming_it(times, workspace, tmp_path, capsys):
    (tmp_path / "early.csv").write_text("timestamp_s,power_W\n" + "".join(
        f"{t},0.001\n" for t in times))
    (tmp_path / "config.json").write_text(json.dumps({"energy": {"trace": {
        "csv": "early.csv"}}}))
    rc = main(["train-scheduler", "--config", str(tmp_path / "config.json"),
               "--ensemble", str(workspace / "build"), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: energy.trace.csv early.csv: the last "
                                       f"sample is at {times[-1]:g} s, and must be "
                                       "after 0 s\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("synthetic", [{"duration": 0.5}, {"profile": "constant"}],
                         ids=["one-sample", "constant-without-power"])
def test_csv_trace_skips_the_synthetic_trace_rules(synthetic, workspace, tmp_path,
                                                  capsys):
    # the CSV replaces the synthetic trace, so its block is never read
    (tmp_path / "t.csv").write_text("timestamp_s,power_W\n0,0.0001\n100,0.0001\n")
    (tmp_path / "config.json").write_text(json.dumps({"energy": {"trace": {
        "csv": "t.csv", "synthetic": synthetic}}}))
    rc = main(["train-scheduler", "--config", str(tmp_path / "config.json"),
               "--ensemble", str(workspace / "build"), "--out", str(tmp_path / "q.json"),
               "--episodes", "2"])
    assert capsys.readouterr().err == ""
    assert rc == 0
    assert (tmp_path / "q.json").is_file()


@pytest.mark.parametrize("synthetic", [{"duration": 0.5}, {"profile": "constant"}],
                         ids=["one-sample", "constant-without-power"])
def test_simulate_trace_skips_the_synthetic_trace_rules(synthetic, workspace, tmp_path,
                                                        capsys):
    # --trace replaces the synthetic trace, as energy.trace.csv does, so the
    # synthetic block is never read
    (tmp_path / "t.csv").write_text("timestamp_s,power_W\n0,0.0001\n100,0.0001\n")
    doc = dict(LIGHT_CONFIG, energy=dict(LIGHT_CONFIG["energy"],
                                         trace={"synthetic": synthetic}))
    (tmp_path / "config.json").write_text(json.dumps(doc))
    rc = main(["simulate", "--config", str(tmp_path / "config.json"),
               "--ensemble", str(workspace / "build"), "--policy", "all",
               "--trace", str(tmp_path / "t.csv"), "--out", str(tmp_path / "sims")])
    assert capsys.readouterr().err == ""
    assert rc == 0
    assert (tmp_path / "sims" / "all" / "report.json").is_file()


@pytest.mark.parametrize("doc, err", [
    ([], "config: expected an object"),
    ({"energy": None}, "energy: must not be null"),
    ({"energy": []}, "energy: expected an object"),
    ({"energy": {"trace": 5}}, "energy.trace: expected an object"),
], ids=["config-list", "energy-null", "energy-list", "trace-number"])
def test_simulate_trace_keeps_the_errors_of_a_document_without_a_trace_object(
        doc, err, workspace, tmp_path, capsys):
    (tmp_path / "t.csv").write_text("timestamp_s,power_W\n0,0.0001\n100,0.0001\n")
    (tmp_path / "config.json").write_text(json.dumps(doc))
    rc = main(["simulate", "--config", str(tmp_path / "config.json"),
               "--ensemble", str(workspace / "build"), "--policy", "all",
               "--trace", str(tmp_path / "t.csv"), "--out", str(tmp_path / "sims")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not (tmp_path / "sims").exists()


# (dataset, pool, the step count): the bundled network has 36 conv filters in
# 3 convs, so each learner takes at most 33 prune steps
_LONG_BUILDS = {
    # 600 samples, 360 in the train split: 12 batches of 32
    "generator-train-epochs": ({}, {"train_epochs": 10**18},
                               6 * 12 * (10**18 + 4 * 33)),
    # 30 samples, 18 in the train split: one batch
    "csv-retrain-epochs": ({"csv": {"path": "d.csv", "classes": 6, "shape": [3, 12, 12]}},
                           {"prune": {"retrain_epochs_per_step": 10**12}},
                           6 * 1 * (12 + 10**12 * 33)),
}


@pytest.mark.parametrize("case", sorted(_LONG_BUILDS))
def test_sgd_step_bound_exits_1_before_initializing_a_learner(case, tmp_path, capsys,
                                                             monkeypatch):
    def no_params(*args, **kwargs):
        raise AssertionError("parameters made")

    monkeypatch.setattr(nn, "init_params", no_params)
    rows = [[i % 6, *np.zeros(3 * 12 * 12)] for i in range(30)]
    (tmp_path / "d.csv").write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
    dataset, pool, steps = _LONG_BUILDS[case]
    (tmp_path / "config.json").write_text(json.dumps({"dataset": dataset,
                                                      "pool": pool}))
    rc = main(["build-ensemble", "--config", str(tmp_path / "config.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: pool.pool_size * ceil(train samples / pool.batch_size) * "
        "(pool.train_epochs + pool.prune.retrain_epochs_per_step * "
        f"(conv filters - conv layers)): must be at most {config.MAX_SGD_STEPS} "
        f"SGD steps, got {steps}\n")
    assert not (tmp_path / "out").exists()


# (spec, the bound it breaks, the count): 3x12x12 inputs, one bound each
_HUGE_NETWORKS = {
    "params": ([{"kind": "fc", "units": 30000, "activation": "relu"},
                {"kind": "fc", "units": 6, "activation": "none"}],
               "MAX_NETWORK_PARAMS", "parameters", 432 * 30000 + 30000 + 30000 * 6 + 6),
    "macs": ([{"kind": "conv", "filters": 260000, "kernel": 3, "padding": 1,
               "activation": "relu"},
              {"kind": "avgpool", "window": 12},
              {"kind": "conv", "filters": 6, "kernel": 1, "activation": "relu"}],
             "MAX_NETWORK_MACS", "MACs per sample", 260000 * 27 * 144 + 6 * 260000),
}


@pytest.mark.parametrize("case", sorted(_HUGE_NETWORKS))
def test_network_size_bound_exits_1_before_making_parameters(case, tmp_path, capsys,
                                                             monkeypatch):
    # a conv of 10^7 filters would ask for 2.8e8 float64 parameters per
    # learner copy; nothing may make a parameter or the dataset
    def no_params(*args, **kwargs):
        raise AssertionError("parameters made")

    def no_dataset(**kwargs):
        raise AssertionError("dataset generated")

    monkeypatch.setattr(nn, "init_params", no_params)
    monkeypatch.setattr(config, "synth_dataset", no_dataset)
    layers, bound, what, count = _HUGE_NETWORKS[case]
    (tmp_path / "huge.json").write_text(json.dumps({
        "input_shape": [3, 12, 12], "class_count": 6,
        "layers": layers + [{"kind": "softmax"}]}))
    (tmp_path / "config.json").write_text(json.dumps(
        {"network": {"spec_path": "huge.json"}}))
    rc = main(["build-ensemble", "--config", str(tmp_path / "config.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: network.spec_path huge.json: must have at most "
        f"{getattr(config, bound)} {what}, got {count}\n")
    assert not (tmp_path / "out").exists()


def test_network_size_bounds_admit_the_bundled_network():
    spec = config.baseline_network()
    assert (nn.count_params(spec), nn.count_macs(spec)) == (3714, 78624)
    assert nn.count_params(spec) <= config.MAX_NETWORK_PARAMS
    assert nn.count_macs(spec) <= config.MAX_NETWORK_MACS


@pytest.mark.parametrize("command", ["build-ensemble", "simulate"])
def test_dataset_size_bound_exits_1_before_generating_the_dataset(command, workspace,
                                                                  tmp_path, capsys,
                                                                  monkeypatch):
    # 10^9 samples per class would ask for about 2e13 bytes; nothing may
    # generate the dataset
    def no_dataset(**kwargs):
        raise AssertionError("dataset generated")

    monkeypatch.setattr(config, "synth_dataset", no_dataset)
    (tmp_path / "config.json").write_text(json.dumps(
        {"dataset": {"generator": {"samples_per_class": 10**9}}}))
    flags = [] if command == "build-ensemble" else [
        "--ensemble", str(workspace / "build"), "--policy", "all"]
    rc = main([command, "--config", str(tmp_path / "config.json"),
               "--out", str(tmp_path / "out"), *flags])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: dataset.generator.classes * dataset.generator."
                          "samples_per_class * dataset.generator.shape: must be at "
                          f"most {config.MAX_DATASET_ELEMENTS} elements, got ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("duration", [None, 300.0])
@pytest.mark.parametrize("command", ["train-scheduler", "simulate"])
def test_request_bound_exits_1_before_any_run(command, duration, workspace, tmp_path,
                                              capsys, monkeypatch):
    # a 1 ns period over the 399 s trace asks for 3.99e11 requests, and
    # `replay`'s request times alone for about 3 TB; no run may start
    def no_run(*args, **kwargs):
        raise AssertionError("run started")

    monkeypatch.setattr(qsched, "replay", no_run)
    monkeypatch.setattr(simrun, "replay", no_run)
    doc = dict(LIGHT_CONFIG, simulation={"request_period": 1e-9, "duration": duration})
    (tmp_path / "config.json").write_text(json.dumps(doc))
    flags = ["--policy", "all"] if command == "simulate" else []
    rc = main([command, "--config", str(tmp_path / "config.json"),
               "--ensemble", str(workspace / "build"), "--out", str(tmp_path / "out"),
               *flags])
    span = ("the trace's last sample (399 s)" if duration is None
            else "simulation.duration")
    count = "399000000000" if duration is None else "300000000000"
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {span} / simulation.request_period: must be at most "
        f"{config.MAX_REQUESTS} requests, got {count}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["-1", "x7"])
@pytest.mark.parametrize("command", ["build-ensemble", "train-scheduler"])
def test_bad_seed_flag_exits_1_without_output(command, value, workspace, tmp_path,
                                              capsys):
    flags = [] if command == "build-ensemble" else ["--ensemble", str(workspace / "build")]
    rc = main([command, "--config", str(workspace / "config.json"),
               "--out", str(tmp_path / "out"), "--seed", value, *flags])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: --seed must be an integer >= 0, got '{value}'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, value, minimum", [
    ("train-scheduler", "--episodes", "x", 0),
    ("train-scheduler", "--episodes", "-3", 0),
    ("train-scheduler", "--episodes", "2.5", 0),
    ("simulate", "--jobs", "abc", 1),
    ("simulate", "--jobs", "-3", 1),
    ("simulate", "--jobs", "0", 1),
])
def test_bad_count_flag_exits_1_without_output(command, flag, value, minimum,
                                               workspace, tmp_path, capsys):
    flags = ["--ensemble", str(workspace / "build")]
    if command == "simulate":
        flags += ["--policy", "all"]
    rc = main([command, "--config", str(workspace / "config.json"),
               "--out", str(tmp_path / "out"), flag, value, *flags])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {flag} must be an integer >= {minimum}, got '{value}'\n"
    assert not (tmp_path / "out").exists()


def test_build_boost_rate_overflow_exits_1(tmp_path, capsys):
    # p_true^(-1000) overflows for any p_true below 0.49
    tiny_spec().save(tmp_path / "net.json")
    doc = dict(LIGHT_CONFIG, pool=dict(LIGHT_CONFIG["pool"], boost_learning_rate=1000))
    (tmp_path / "config.json").write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["build-ensemble", "--config", str(tmp_path / "config.json"),
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: pool.boost_learning_rate 1000.0 overflows the "
                          "sample weights after learner-0")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_build_rejects_non_finite_csv(tmp_path, capsys):
    tiny_spec().save(tmp_path / "net.json")
    rng = np.random.default_rng(0)
    rows = [[i % 3, *rng.standard_normal(2 * 8 * 8)] for i in range(30)]
    rows[7][5], rows[20][9] = float("nan"), float("inf")
    (tmp_path / "d.csv").write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
    doc = dict(LIGHT_CONFIG, dataset={"csv": {"path": "d.csv", "classes": 3,
                                              "shape": [2, 8, 8]}})
    (tmp_path / "config.json").write_text(json.dumps(doc))
    rc = main(["build-ensemble", "--config", str(tmp_path / "config.json"),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {tmp_path / 'd.csv'}:8: non-finite value\n"
    assert not (tmp_path / "out").exists()


def test_build_rejects_csv_values_beyond_float32(tmp_path, capsys):
    # 1e39 is finite in float64 and inf in the float32 dataset
    tiny_spec().save(tmp_path / "net.json")
    rng = np.random.default_rng(0)
    rows = [[i % 3, *rng.standard_normal(2 * 8 * 8)] for i in range(30)]
    rows[11][3] = 1e39
    (tmp_path / "d.csv").write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
    doc = dict(LIGHT_CONFIG, dataset={"csv": {"path": "d.csv", "classes": 3,
                                              "shape": [2, 8, 8]}})
    (tmp_path / "config.json").write_text(json.dumps(doc))
    rc = main(["build-ensemble", "--config", str(tmp_path / "config.json"),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"error: {tmp_path / 'd.csv'}:12: value beyond float32's range "
                   "(magnitude > 3.4028235e+38)\n")
    assert not (tmp_path / "out").exists()


def build_on_csv(tmp_path, rows, encoding="utf-8") -> int:
    """`build-ensemble`'s exit code on a 3-class CSV dataset of these rows;
    it must write nothing."""
    tiny_spec().save(tmp_path / "net.json")
    (tmp_path / "d.csv").write_bytes("".join(rows).encode(encoding))
    doc = dict(LIGHT_CONFIG, dataset={"csv": {"path": "d.csv", "classes": 3,
                                              "shape": [2, 8, 8]}})
    (tmp_path / "config.json").write_text(json.dumps(doc))
    rc = main(["build-ensemble", "--config", str(tmp_path / "config.json"),
               "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()
    return rc


def csv_rows(label_of=lambda i: i % 3):
    rng = np.random.default_rng(0)
    return [f"{label_of(i)},{','.join(map(str, rng.standard_normal(2 * 8 * 8)))}\n"
            for i in range(30)]


def test_build_rejects_a_csv_label_outside_the_classes(tmp_path, capsys):
    assert build_on_csv(tmp_path, csv_rows(lambda i: 7 if i == 4 else i % 3)) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'd.csv'}:5: label 7 outside [0, 3)\n"


def test_build_rejects_a_csv_that_is_not_utf8(tmp_path, capsys):
    rows = csv_rows()
    rows[17] = "# \xff\n"   # byte 0xff in latin-1
    assert build_on_csv(tmp_path, rows, encoding="latin-1") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'd.csv'}:18: not UTF-8 text: ")
    assert err.count("\n") == 1


def test_train_scheduler_rejects_a_config_that_is_not_utf8(workspace, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"scheduler": {"episodes": 1}, "note": "\xff"}')
    rc = main(["train-scheduler", "--config", str(path),
               "--ensemble", str(workspace / "build"), "--out", str(tmp_path / "q.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {path}: not UTF-8 text: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "q.json").exists()


def test_build_rejects_generator_noise_beyond_float32(tmp_path, capsys):
    # noise 1e39 draws finite float64 pixels that are inf in float32
    tiny_spec().save(tmp_path / "net.json")
    doc = json.loads(json.dumps(LIGHT_CONFIG))
    doc["dataset"]["generator"]["noise"] = 1e39
    (tmp_path / "config.json").write_text(json.dumps(doc))
    rc = main(["build-ensemble", "--config", str(tmp_path / "config.json"),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("error: dataset.generator.noise 1e+39 draws pixels beyond "
                   "float32's range (magnitude > 3.4028235e+38)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["generator", "csv"])
def test_build_rejects_dataset_shape_unlike_network(source, tmp_path, capsys):
    # LIGHT_CONFIG's 2x8x8 samples against the bundled 3x12x12 network
    rows = [[i % 3, *np.zeros(2 * 8 * 8)] for i in range(30)]
    (tmp_path / "d.csv").write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
    dataset = ({"csv": {"path": "d.csv", "classes": 3, "shape": [2, 8, 8]}}
               if source == "csv" else LIGHT_CONFIG["dataset"])
    doc = dict(LIGHT_CONFIG, network={}, dataset=dataset)
    (tmp_path / "config.json").write_text(json.dumps(doc))
    rc = main(["build-ensemble", "--config", str(tmp_path / "config.json"),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"error: dataset.{source}.shape [2, 8, 8] differs from the "
                   "network's input shape [3, 12, 12]\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source, classes", [("generator", 8), ("generator", 3),
                                             ("csv", 3)])
def test_build_rejects_class_count_unlike_network(source, classes, tmp_path, capsys):
    # the bundled network has 6 classes: 8 stopped in a raw IndexError, and 3
    # built an ensemble whose accuracy gains start from the wrong chance level
    rows = [[i % classes, *np.zeros(3 * 12 * 12)] for i in range(30)]
    (tmp_path / "d.csv").write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
    dataset = ({"csv": {"path": "d.csv", "classes": classes, "shape": [3, 12, 12]}}
               if source == "csv" else
               {"generator": {"classes": classes, "samples_per_class": 10}})
    (tmp_path / "config.json").write_text(json.dumps({"dataset": dataset}))
    rc = main(["build-ensemble", "--config", str(tmp_path / "config.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: dataset.{source}.classes {classes} "
                                       "differs from the network's class count 6\n")
    assert not (tmp_path / "out").exists()


def test_build_reruns_byte_identical(workspace, tmp_path):
    assert main(["build-ensemble", "--config", str(workspace / "config.json"),
                 "--out", str(tmp_path / "b2")]) == 0
    for rel in ("build_summary.json", "ensemble.json"):
        assert ((tmp_path / "b2" / rel).read_bytes() ==
                (workspace / "build" / rel).read_bytes())
    a_pool = sorted(p.name for p in (workspace / "build" / "pool").iterdir())
    for name in a_pool:
        assert ((tmp_path / "b2" / "pool" / name).read_bytes() ==
                (workspace / "build" / "pool" / name).read_bytes())


@pytest.fixture(scope="module")
def qtable_path(workspace):
    out = workspace / "q.json"
    assert main(["train-scheduler", "--config", str(workspace / "config.json"),
                 "--ensemble", str(workspace / "build"),
                 "--out", str(out)]) == 0
    return out


def test_train_scheduler_artifacts(workspace, qtable_path):
    table = load_qtable(qtable_path, expected_n=2)
    assert table.values.any()
    curve = (workspace / "q.json.curve.csv").read_text().strip().split("\n")
    assert curve[0] == "episode,cumulative_reward"
    assert len(curve) == 1 + 15


def test_train_scheduler_rerun_byte_identical(workspace, qtable_path, tmp_path):
    out = tmp_path / "q.json"
    assert main(["train-scheduler", "--config", str(workspace / "config.json"),
                 "--ensemble", str(workspace / "build"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == qtable_path.read_bytes()


def test_zero_episode_table_warns(workspace, tmp_path, capsys):
    out = tmp_path / "q0.json"
    assert main(["train-scheduler", "--config", str(workspace / "config.json"),
                 "--ensemble", str(workspace / "build"),
                 "--out", str(out), "--episodes", "0"]) == 0
    assert "warning" in capsys.readouterr().err
    assert not load_qtable(out).values.any()


@pytest.fixture(scope="module")
def sim_out(workspace, qtable_path):
    out = workspace / "sims"
    assert main(["simulate", "--config", str(workspace / "config.json"),
                 "--ensemble", str(workspace / "build"),
                 "--policy", "fixed:1", "--policy", "all",
                 "--policy", f"qtable:{qtable_path}",
                 "--out", str(out)]) == 0
    return out


def test_simulate_artifacts_and_ordering(sim_out):
    fixed1 = json.loads((sim_out / "fixed-1" / "report.json").read_text())
    allp = json.loads((sim_out / "all" / "report.json").read_text())
    qrep = json.loads((sim_out / "qtable" / "report.json").read_text())
    # cheaper prefixes cannot fail more often than running everything
    assert fixed1["failures"] <= allp["failures"]
    assert "failure_rate_reduction_vs_baseline" in qrep
    assert (sim_out / "qtable" / "events.csv").read_text().startswith("time,")


def test_simulate_rerun_byte_identical(workspace, qtable_path, sim_out):
    out2 = workspace / "sims2"
    assert main(["simulate", "--config", str(workspace / "config.json"),
                 "--ensemble", str(workspace / "build"),
                 "--policy", "fixed:1", "--out", str(out2)]) == 0
    for rel in ("report.json", "events.csv"):
        assert ((out2 / "fixed-1" / rel).read_bytes() ==
                (sim_out / "fixed-1" / rel).read_bytes())


@pytest.mark.parametrize("policies, runs", [(["all", "fixed:1"], 2), (["fixed:9"], 1)],
                         ids=["all-fixed-1", "fixed-9"])
def test_simulate_runs_the_all_baseline_once(workspace, sim_out, tmp_path,
                                            monkeypatch, policies, runs):
    # fixed:k with k >= N is the all-N policy too
    names = []
    real_run = simrun.run

    def counted(cfg, *shared):
        names.append(cfg.policy.name)
        return real_run(cfg, *shared)

    monkeypatch.setattr(simrun, "run", counted)
    argv = ["simulate", "--config", str(workspace / "config.json"),
            "--ensemble", str(workspace / "build"), "--out", str(tmp_path)]
    for policy in policies:
        argv += ["--policy", policy]
    assert main(argv) == 0
    assert len(names) == runs and names.count("all") == 1
    for rel in ("report.json", "events.csv"):
        assert (tmp_path / "all" / rel).read_bytes() == (sim_out / "all" / rel).read_bytes()


def test_simulate_jobs_write_identical_trees(workspace, qtable_path, tmp_path, capsys):
    outputs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs-{jobs}"
        assert main(["simulate", "--config", str(workspace / "config.json"),
                     "--ensemble", str(workspace / "build"),
                     "--policy", f"qtable:{qtable_path}", "--policy", "fixed:1",
                     "--policy", "all", "--jobs", str(jobs), "--out", str(out)]) == 0
        files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        outputs.append((files, capsys.readouterr().out))
    assert len(outputs[0][0]) == 6
    assert outputs[0] == outputs[1]


def test_simulate_writes_each_policys_tree_before_the_next_run(
        workspace, qtable_path, tmp_path, monkeypatch, capsys):
    # the "all" baseline runs first although it is named last, then fixed:1
    # and the q-table (the workspace's N is 2, so fixed:2 would be "all");
    # every tree already written is complete when a run starts, and the
    # printed reports keep the --policy order
    argv = ["simulate", "--config", str(workspace / "config.json"),
            "--ensemble", str(workspace / "build")]
    for policy in ("fixed:1", f"qtable:{qtable_path}", "all"):
        argv += ["--policy", policy]
    assert main(argv + ["--out", str(tmp_path / "whole")]) == 0
    whole = capsys.readouterr().out
    final = {p.relative_to(tmp_path / "whole"): p.read_bytes()
             for p in (tmp_path / "whole").rglob("*") if p.is_file()}
    out = tmp_path / "streamed"
    seen = []
    real_replay = simrun.replay

    def spied(env, device, costs, agent):
        seen.append({p.relative_to(out): p.read_bytes()
                     for p in out.rglob("*") if p.is_file()} if out.exists() else {})
        return real_replay(env, device, costs, agent)

    monkeypatch.setattr(simrun, "replay", spied)
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == whole
    assert (whole.index("policy: fixed:1") < whole.index("policy: qtable")
            < whole.index("policy: all"))

    def trees(*runs):
        return {Path(run, rel): final[Path(run, rel)]
                for run in runs for rel in ("report.json", "events.csv")}

    assert len(final) == 6
    assert seen == [{}, trees("all"), trees("all", "fixed-1")]
    assert {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()} == final


@pytest.mark.parametrize("mode", ["off", "high-energy", "auto"])
def test_simulate_policies_share_memos_without_seeing_each_other(
        workspace, qtable_path, tmp_path, monkeypatch, mode):
    # one command computes each (learner, sample) trunk once, and writes what
    # one command per policy writes: a run that retrains never leaks its
    # learners into the batches the other runs read
    doc = dict(LIGHT_CONFIG, simulation=dict(LIGHT_CONFIG["simulation"],
                                             retrain_mode=mode))
    (tmp_path / "config.json").write_text(json.dumps(doc))
    argv = ["simulate", "--config", str(tmp_path / "config.json"),
            "--ensemble", str(workspace / "build")]
    policies = [f"qtable:{qtable_path}", "fixed:1", "all"]
    trunks = []
    real_trunk = simrun.trunk

    def counted(learner, x):
        trunks.append((learner.id, x.tobytes()))
        return real_trunk(learner, x)

    with monkeypatch.context() as m:
        m.setattr(simrun, "trunk", counted)
        assert main(argv + [a for p in policies for a in ("--policy", p)]
                    + ["--out", str(tmp_path / "one")]) == 0
    assert len(trunks) == len(set(trunks))
    for policy in policies:
        assert main(argv + ["--policy", policy, "--out", str(tmp_path / "each")]) == 0

    def tree(out):
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    one = tree(tmp_path / "one")
    assert len(one) == 6
    assert one == tree(tmp_path / "each")
    retrained = json.loads(one[Path("qtable", "report.json")])["retrain_events"]
    assert (retrained > 0) == (mode != "off")


def test_simulate_warns_on_a_degenerate_ensemble(workspace, tmp_path):
    # each run checks the vote weights once, before it votes; loading derives
    # them from the pool, so both files say every learner is at 30%
    shutil.copytree(workspace / "build", tmp_path / "build")
    pool = tmp_path / "build" / "pool" / "pool.json"
    doc = json.loads(pool.read_text())
    for entry in doc["learners"]:
        entry["eval_accuracy"] = 0.3
    pool.write_text(json.dumps(doc))
    manifest = tmp_path / "build" / "ensemble.json"
    doc = json.loads(manifest.read_text())
    doc["vote_weights"] = [ens.learner_weight(0.7)] * len(doc["learners"])
    manifest.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="all vote weights <= 0"):
        assert main(["simulate", "--config", str(workspace / "config.json"),
                     "--ensemble", str(tmp_path / "build"), "--policy", "fixed:1",
                     "--out", str(tmp_path / "sims")]) == 0


@pytest.mark.parametrize("mode", ["off", "auto"])
def test_simulate_events_csv_is_the_row_writers(workspace, qtable_path, tmp_path,
                                               monkeypatch, mode):
    # simulate writes each events.csv row by row into the file; its bytes are
    # `events_csv` of the run's report and the table the parent's `csv_text`
    # path wrote
    doc = dict(LIGHT_CONFIG, simulation=dict(LIGHT_CONFIG["simulation"],
                                             retrain_mode=mode))
    (tmp_path / "config.json").write_text(json.dumps(doc))
    reports = {}
    real_run = simrun.run

    def kept(cfg, *shared):
        reports[cfg.policy.name] = report = real_run(cfg, *shared)
        return report

    monkeypatch.setattr(simrun, "run", kept)
    out = tmp_path / "sims"
    assert main(["simulate", "--config", str(tmp_path / "config.json"),
                 "--ensemble", str(workspace / "build"),
                 "--policy", f"qtable:{qtable_path}", "--policy", "fixed:1",
                 "--policy", "all", "--out", str(out)]) == 0
    assert sorted(reports) == ["all", "fixed:1", "qtable"]
    assert (reports["qtable"].retrain_events > 0) == (mode == "auto")
    for name, report in reports.items():
        written = (out / name.replace(":", "-") / "events.csv").read_text()
        assert written.count("\n") == 1 + report.total_requests
        assert written == simrun.events_csv(report) == parent_events_csv(report)


@pytest.mark.parametrize("mode", ["off", "high-energy"])
def test_simulate_applies_retrain_mode(workspace, qtable_path, tmp_path, mode):
    doc = dict(LIGHT_CONFIG, simulation=dict(LIGHT_CONFIG["simulation"],
                                             retrain_mode=mode))
    (workspace / f"retrain-{mode}.json").write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(workspace / f"retrain-{mode}.json"),
                 "--ensemble", str(workspace / "build"),
                 "--policy", f"qtable:{qtable_path}", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "qtable" / "report.json").read_text())
    assert (report["retrain_events"] > 0) == (mode != "off")


def test_simulate_json_stdout_is_each_report(workspace, qtable_path, tmp_path, capsys):
    out = tmp_path / "sims"
    assert main(["simulate", "--config", str(workspace / "config.json"),
                 "--ensemble", str(workspace / "build"),
                 "--policy", f"qtable:{qtable_path}", "--policy", "fixed:1",
                 "--policy", "all", "--format", "json", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    reports = [(out / name / "report.json").read_text()
               for name in ("qtable", "fixed-1", "all")]
    assert printed == "".join(doc + "\n" for doc in reports)
    assert all("baseline_failure_rate" in doc for doc in reports)


def test_simulate_csv_stdout_is_one_table(workspace, qtable_path, tmp_path, capsys):
    policies = [f"qtable:{qtable_path}", "fixed:1", "all"]
    out = tmp_path / "sims"
    assert main(["simulate", "--config", str(workspace / "config.json"),
                 "--ensemble", str(workspace / "build"),
                 *(arg for p in policies for arg in ("--policy", p)),
                 "--format", "csv", "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1 + len(policies)
    header = rows[0]
    assert "policy" in header
    # one row per policy, in order, with its report's values
    for name, row in zip(("qtable", "fixed-1", "all"), rows[1:]):
        report = json.loads((out / name / "report.json").read_text())
        assert row == ["n/a" if report[k] is None else str(report[k]) for k in header]


# LIGHT_CONFIG's trace has its last sample at 399 s
@pytest.mark.parametrize("command, duration, trace_end, last", [
    ("train-scheduler", 99999, None, "399"),
    ("simulate", 99999, None, "399"),
    ("simulate", 300, 100, "100"),
], ids=["train-scheduler", "simulate", "simulate-short-trace"])
def test_duration_past_trace_exits_1(command, duration, trace_end, last, workspace,
                                     qtable_path, tmp_path, capsys):
    doc = dict(LIGHT_CONFIG, simulation={"duration": duration})
    (tmp_path / "config.json").write_text(json.dumps(doc))
    argv = [command, "--config", str(tmp_path / "config.json"),
            "--ensemble", str(workspace / "build"), "--out", str(tmp_path / "out")]
    if command == "simulate":
        argv += ["--policy", f"qtable:{qtable_path}"]
    if trace_end is not None:
        trace = tmp_path / "short.csv"
        trace.write_text("timestamp_s,power_W\n" + "".join(
            f"{t},0.0001\n" for t in range(trace_end + 1)))
        argv += ["--trace", str(trace)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (f"error: simulation.duration {duration} s is "
                                       f"past the trace's last sample at {last} s\n")
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_non_finite_trace(workspace, tmp_path, capsys):
    trace = tmp_path / "nan.csv"
    trace.write_text("timestamp_s,power_W\n0.0,0.001\n1.0,nan\n")
    rc = main(["simulate", "--config", str(workspace / "config.json"),
               "--ensemble", str(workspace / "build"), "--policy", "all",
               "--trace", str(trace), "--out", str(tmp_path / "sims")])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


# the rows of a trace CSV that makes no valid trace, and what its error
# says after the file's path
_BAD_TRACES = {
    "header-only": (b"", ": no samples"),
    "backwards": (b"0,0.001\n2,0.001\n1,0.001\n",
                  ": trace timestamps must be strictly increasing"),
    "nan-power": (b"0,0.001\n1,nan\n", ": trace times and power must be finite"),
    "negative-power": (b"0,0.001\n1,-0.001\n", ": harvested power must be >= 0"),
    "not-utf-8": (b"0,0.001\n1,\xff\n",
                  ":3: malformed row: could not convert string to float: '\ufffd'"),
}


@pytest.mark.parametrize("case", sorted(_BAD_TRACES))
def test_simulate_bad_trace_exits_2_naming_it(case, workspace, tmp_path, capsys):
    rows, message = _BAD_TRACES[case]
    trace = tmp_path / f"{case}.csv"
    trace.write_bytes(b"timestamp_s,power_W\n" + rows)
    rc = main(["simulate", "--config", str(workspace / "config.json"),
               "--ensemble", str(workspace / "build"), "--policy", "all",
               "--trace", str(trace), "--out", str(tmp_path / "sims")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {trace.resolve()}{message}\n"
    assert not (tmp_path / "sims").exists()


def test_train_scheduler_bad_config_trace_exits_2_naming_it(workspace, tmp_path,
                                                             capsys):
    rows, message = _BAD_TRACES["backwards"]
    (tmp_path / "back.csv").write_bytes(b"timestamp_s,power_W\n" + rows)
    (tmp_path / "config.json").write_text(json.dumps({"energy": {"trace": {
        "csv": "back.csv"}}}))
    rc = main(["train-scheduler", "--config", str(tmp_path / "config.json"),
               "--ensemble", str(workspace / "build"), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'back.csv'}{message}\n"
    assert not (tmp_path / "out").exists()


def _edit_json(edit):
    def corrupt(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return corrupt


def _as_version_1(doc):
    # version 1 had a second radix for a flag equal to l == 0: the reachable
    # rows of a v2 table, interleaved with all-zero rows
    rows = []
    for i, row in enumerate(doc["values"]):
        rows += [[0.0, 0.0], row] if i % (doc["n"] + 1) == 0 else [row, [0.0, 0.0]]
    doc.update(version=1, values=rows)


# case: (file under a copy of the build dir plus q.json, how it is corrupted)
CORRUPT_ARTIFACTS = {
    "npy-header-cut": ("pool/learner-00.params.npy",
                       lambda p: p.write_bytes(p.read_bytes()[:20])),
    "npy-empty": ("pool/learner-00.params.npy", lambda p: p.write_bytes(b"")),
    "npy-values-cut": ("pool/learner-00.params.npy",
                       lambda p: np.save(p, np.load(p)[:-3])),
    # the right shape, but not the parameters the pool manifest's checksum names
    "npy-values-scaled": ("pool/learner-00.params.npy",
                          lambda p: np.save(p, np.load(p) * 1.5)),
    "manifest-no-vote-weights": ("ensemble.json",
                                 _edit_json(lambda d: d.pop("vote_weights"))),
    "manifest-bad-json": ("ensemble.json", lambda p: p.write_text("{bad")),
    "pool-entry-no-macs": ("pool/pool.json",
                           _edit_json(lambda d: d["learners"][0].pop("macs"))),
    "pool-entry-no-checksum": ("pool/pool.json", _edit_json(
        lambda d: d["learners"][0].pop("params_checksum"))),
    "pool-version-1": ("pool/pool.json", _edit_json(lambda d: d.update(version=1))),
    "manifest-version": ("ensemble.json", _edit_json(lambda d: d.update(version=9))),
    # one finite vote weight, accuracy and accuracy gain per learner
    "manifest-vote-weights-short": ("ensemble.json",
                                    _edit_json(lambda d: d["vote_weights"].pop())),
    "manifest-vote-weight-nan": ("ensemble.json", _edit_json(
        lambda d: d["vote_weights"].__setitem__(0, float("nan")))),
    # finite, but not learner_weight(1 - eval_accuracy) of the pool learner
    **{f"manifest-vote-weight-{v:g}": ("ensemble.json", _edit_json(
        lambda d, v=v: d["vote_weights"].__setitem__(0, v))) for v in (-1, 0, 1e308)},
    **{f"pool-entry-eval-accuracy-{name}": ("pool/pool.json", _edit_json(
        lambda d, v=v: d["learners"][0].update(eval_accuracy=v)))
       for name, v in (("above-1", 1.5), ("negative", -0.1), ("text", "0.9"),
                       ("null", None), ("true", True))},
    "manifest-delta-acc-short": ("ensemble.json",
                                 _edit_json(lambda d: d["delta_acc"].pop())),
    "manifest-acc-profile-long": ("ensemble.json", _edit_json(
        lambda d: d["acc_profile"].append(1.0))),
    "manifest-no-learners": ("ensemble.json", _edit_json(lambda d: d.update(
        learners=[], vote_weights=[], acc_profile=[], delta_acc=[]))),
    # copies of what the specs and acc_profile fix, which loading checks
    "pool-entry-macs-x100": ("pool/pool.json", _edit_json(lambda d: [
        e.update(macs=e["macs"] * 100) for e in d["learners"]])),
    "manifest-delta-acc-off": ("ensemble.json", _edit_json(
        lambda d: d["delta_acc"].__setitem__(0, d["delta_acc"][0] + 0.1))),
    "manifest-class-count": ("ensemble.json", _edit_json(lambda d: d.update(class_count=5))),
    "manifest-total-macs": ("ensemble.json", _edit_json(
        lambda d: d.update(total_macs=d["total_macs"] + 1))),
    "spec-no-shape": ("pool/learner-00.spec.json",
                      lambda p: p.write_text('{"layers": []}')),
    # a layer field that breaks the layout, or that its kind does not take
    "spec-padding-negative": ("pool/learner-00.spec.json", _edit_json(
        lambda d: d["layers"][0].update(padding=-1))),
    "spec-kernel-float": ("pool/learner-00.spec.json", _edit_json(
        lambda d: d["layers"][0].update(kernel=3.0))),
    "spec-avgpool-activation": ("pool/learner-00.spec.json", _edit_json(
        lambda d: d["layers"][1].update(activation="relu"))),
    "spec-layer-list": ("pool/learner-00.spec.json", _edit_json(
        lambda d: d["layers"].__setitem__(1, ["avgpool", 2]))),
    # the learner trained with a ReLU; without the key the layer would load
    # with none
    "spec-conv-no-activation": ("pool/learner-00.spec.json", _edit_json(
        lambda d: d["layers"][0].pop("activation"))),
    "qtable-unknown-hyper": ("q.json", _edit_json(
        lambda d: d["hyperparameters"].update(bogus=1))),
    # every hyperparameter is stated: none is filled in from a default
    "qtable-no-discount": ("q.json", _edit_json(
        lambda d: d["hyperparameters"].pop("discount"))),
    "qtable-no-values": ("q.json", _edit_json(lambda d: d.pop("values"))),
    "qtable-version-1": ("q.json", _edit_json(_as_version_1)),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_ARTIFACTS))
def test_simulate_corrupt_artifact_exits_2(workspace, qtable_path, tmp_path,
                                           capsys, case):
    rel, corrupt = CORRUPT_ARTIFACTS[case]
    shutil.copytree(workspace / "build", tmp_path, dirs_exist_ok=True)
    shutil.copy(qtable_path, tmp_path / "q.json")
    corrupt(tmp_path / rel)
    rc = main(["simulate", "--config", str(workspace / "config.json"),
               "--ensemble", str(tmp_path), "--policy", f"qtable:{tmp_path / 'q.json'}",
               "--out", str(tmp_path / "sims")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / rel) in err
    assert "Traceback" not in err
    assert not (tmp_path / "sims").exists()


# edits of the bundled network that `network.spec_path` names: (edit, what
# the error names besides the file)
LAYER_KINDS = ["conv", "avgpool", "fc", "softmax"]
BAD_NETWORK_SPECS = {
    "padding-negative": (lambda d: d["layers"][0].update(padding=-1), "padding"),
    "kernel-float": (lambda d: d["layers"][0].update(kernel=3.0), "kernel"),
    "filters-float": (lambda d: d["layers"][0].update(filters=8.0), "filters"),
    "stride-float": (lambda d: d["layers"][0].update(stride=1.0), "stride"),
    "padding-float": (lambda d: d["layers"][0].update(padding=1.0), "padding"),
    "window-float": (lambda d: d["layers"][1].update(window=2.0), "window"),
    "input-shape-float": (lambda d: d.update(input_shape=[3.0, 12, 12]),
                          "input_shape must be three integers >= 1, got [3.0, 12, 12]"),
    "class-count-float": (lambda d: d.update(class_count=6.0), "class_count"),
    "avgpool-activation": (lambda d: d["layers"][1].update(activation="relu"),
                           "activation"),
    "fc-window": (lambda d: d["layers"][5].update(window=3), "window"),
    "softmax-filters": (lambda d: d["layers"][6].update(filters=7), "filters"),
    "conv-no-activation": (lambda d: d["layers"][0].pop("activation"),
                           "conv layers must name their activation"),
    "fc-no-activation": (lambda d: d["layers"][5].pop("activation"),
                         "fc layers must name their activation"),
    "top-level-key": (lambda d: d.update(name="net"), "name"),
    "layer-list": (lambda d: d["layers"].__setitem__(1, ["avgpool", 2]), "list"),
    "conv-foo": (lambda d: d["layers"][0].update(foo=1), "conv layers take no ['foo']"),
    "layer-without-kind": (lambda d: d["layers"][0].pop("kind"),
                           f"layer kind must be one of {LAYER_KINDS}, got None"),
    "kind-list": (lambda d: d["layers"][5].update(kind=["fc"]),
                  f"layer kind must be one of {LAYER_KINDS}, got ['fc']"),
    "layers-int": (lambda d: d.update(layers=5), "layers must be a list, got 5"),
    "input-shape-short": (lambda d: d.update(input_shape=[3, 12]),
                          "input_shape must be three integers >= 1, got [3, 12]"),
}


@pytest.mark.parametrize("case", sorted(BAD_NETWORK_SPECS))
def test_build_with_a_bad_network_spec_exits_2_naming_it(case, tmp_path, capsys):
    edit, key = BAD_NETWORK_SPECS[case]
    doc = config.baseline_network().to_dict()
    edit(doc)
    (tmp_path / "net.json").write_text(json.dumps(doc))
    (tmp_path / "config.json").write_text(json.dumps({"network": {"spec_path": "net.json"}}))
    rc = main(["build-ensemble", "--config", str(tmp_path / "config.json"),
               "--out", str(tmp_path / "build")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {tmp_path / 'net.json'}: ") and err.count("\n") == 1
    assert key in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "net.json"]


@pytest.mark.parametrize("case", sorted(c for c in CORRUPT_ARTIFACTS
                                         if c.startswith("manifest-")))
def test_train_scheduler_corrupt_manifest_exits_2(workspace, tmp_path, capsys, case):
    rel, corrupt = CORRUPT_ARTIFACTS[case]
    shutil.copytree(workspace / "build", tmp_path / "build")
    corrupt(tmp_path / "build" / rel)
    rc = main(["train-scheduler", "--config", str(workspace / "config.json"),
               "--ensemble", str(tmp_path / "build"), "--out", str(tmp_path / "q.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / "build" / rel) in err
    assert not (tmp_path / "q.json").exists()


def test_simulate_rejects_dataset_shape_unlike_ensemble(workspace, tmp_path, capsys):
    doc = dict(LIGHT_CONFIG, dataset={"generator": dict(
        LIGHT_CONFIG["dataset"]["generator"], shape=[3, 12, 12])})
    (tmp_path / "config.json").write_text(json.dumps(doc))
    rc = main(["simulate", "--config", str(tmp_path / "config.json"),
               "--ensemble", str(workspace / "build"), "--policy", "all",
               "--out", str(tmp_path / "sims")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: dataset.generator.shape [3, 12, 12] "
                                       "differs from the network's input shape "
                                       "[2, 8, 8]\n")
    assert not (tmp_path / "sims").exists()


@pytest.mark.parametrize("classes", [2, 5])
def test_simulate_rejects_class_count_unlike_ensemble(workspace, tmp_path, capsys,
                                                      classes):
    # a 3-class ensemble can never predict labels 3 and 4 of a 5-class set
    doc = dict(LIGHT_CONFIG, dataset={"generator": dict(
        LIGHT_CONFIG["dataset"]["generator"], classes=classes)})
    (tmp_path / "config.json").write_text(json.dumps(doc))
    rc = main(["simulate", "--config", str(tmp_path / "config.json"),
               "--ensemble", str(workspace / "build"), "--policy", "fixed:1",
               "--out", str(tmp_path / "sims")])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: dataset.generator.classes {classes} "
                                       "differs from the network's class count 3\n")
    assert not (tmp_path / "sims").exists()


@pytest.mark.parametrize("policies, name", [(["qtable:{q}", "fixed:1", "qtable:{q2}"],
                                             "qtable"),
                                            (["all", "fixed:2"], "all")],
                         ids=["two-qtables", "all-and-fixed-N"])
def test_simulate_rejects_duplicate_policy_names(workspace, qtable_path, tmp_path,
                                                 capsys, policies, name):
    shutil.copy(qtable_path, tmp_path / "q2.json")
    argv = ["simulate", "--config", str(workspace / "config.json"),
            "--ensemble", str(workspace / "build"), "--out", str(tmp_path / "sims")]
    for policy in policies:
        argv += ["--policy", policy.format(q=qtable_path, q2=tmp_path / "q2.json")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f"are all named {name!r}\n")
    assert not (tmp_path / "sims").exists()


def test_simulate_rejects_unknown_policy(workspace, capsys):
    rc = main(["simulate", "--config", str(workspace / "config.json"),
               "--ensemble", str(workspace / "build"),
               "--policy", "random", "--out", str(workspace / "bad")])
    assert rc == 1
    assert "unknown policy" in capsys.readouterr().err


def test_report_table(sim_out, capsys):
    rc = main(["report", str(sim_out / "fixed-1"), str(sim_out / "all"),
               str(sim_out / "qtable"), "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "run,policy,mean_accuracy,failure_rate,failure_rate_reduction"
    assert len(lines) == 4
    reductions = []
    for line in lines[1:]:
        val = line.split(",")[-1]
        reductions.append(float("-inf") if val == "n/a" else float(val))
    assert reductions == sorted(reductions, reverse=True)


def test_report_ranks_by_reduction_with_missing_last(tmp_path, capsys):
    # a reduction of 0.0 (the baseline's own run) ranks above a negative one
    runs = {"a": -0.5, "b": None, "c": 0.0, "d": 0.2}
    for run, reduction in runs.items():
        (tmp_path / run).mkdir()
        (tmp_path / run / "report.json").write_text(json.dumps({
            "policy": run, "mean_accuracy": 0.5, "failure_rate": 0.1,
            "failure_rate_reduction_vs_baseline": reduction}))
    assert main(["report"] + [str(tmp_path / run) for run in runs]
                + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    assert [line.split(",")[1] for line in lines] == ["d", "c", "a", "b"]
    assert [line.split(",")[-1] for line in lines] == ["0.2", "0.0", "-0.5", "n/a"]


def test_report_missing_run_dir(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope")]) == 1
    assert "missing report" in capsys.readouterr().err
