"""Self-test of the quality gate on a tiny config: the checkout compared with
itself changes nothing at any seed, and the test-split count the gate takes
is the one `build_summary.json` records.

    python3 -m pytest quality
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from enboost.nn import NetworkSpec, TensorShape, avgpool, conv, fc, softmax_layer  # noqa: E402


def tiny_config(work: Path) -> Path:
    net = work / "net.json"
    NetworkSpec(input_shape=TensorShape(2, 8, 8),
                layers=(conv(4, kernel=3, padding=1), avgpool(2),
                        conv(6, kernel=3, padding=1), avgpool(2),
                        fc(3), softmax_layer()),
                class_count=3).save(net)
    path = work / "base.json"
    path.write_text(json.dumps({
        "dataset": {"generator": {"classes": 3, "samples_per_class": 12,
                                  "shape": [2, 8, 8], "noise": 0.5}},
        "network": {"spec_path": str(net)},
        "pool": {"pool_size": 4, "train_epochs": 2,
                 "prune": {"retrain_epochs_per_step": 1}},
        "ensemble": {"size": 3},
        "energy": {"capacitor": {"capacitance": 1e-3},
                   "trace": {"synthetic": {"duration": 200.0, "period": 50.0,
                                           "high_power": 1e-4}}},
        "scheduler": {"episodes": 3},
    }))
    return path


@pytest.fixture(scope="module")
def self_comparison(tmp_path_factory):
    # run.main's loop at seeds 1-2 on the tiny config, the checkout on both sides
    work = tmp_path_factory.mktemp("quality")
    base = json.loads(tiny_config(work).read_text())
    runs = {side: [] for side in run.SIDES}
    for seed in (1, 2):
        cfg_path = work / f"seed-{seed}.json"
        cfg_path.write_text(json.dumps(run.seed_config(base, seed)))
        for side in run.SIDES:
            runs[side].append(run.run_side(ROOT, cfg_path, work / side / f"seed-{seed}"))
    return run.compare(runs, (1, 2)), work


def test_a_checkout_against_itself_changes_nothing(self_comparison):
    doc, _ = self_comparison
    assert doc["seeds"] == [1, 2]
    assert doc["per_seed_accuracy_change"] == [0.0, 0.0]
    assert doc["median_accuracy_change"] == 0.0
    assert doc["pooled_correct_change"] == 0
    assert doc["parent"] == doc["change"]
    assert doc["parent"]["test_samples"] == [7, 7]
    assert doc["gate"] == {"median_accuracy_change_at_least_0": True,
                           "pooled_correct_change_at_least_0": True,
                           "qtable_median_failure_rate_not_higher": True,
                           "pass": True}


def test_the_count_is_the_recorded_ensemble_accuracy(self_comparison):
    doc, work = self_comparison
    for i, seed in enumerate((1, 2)):
        summary = json.loads((work / "change" / f"seed-{seed}" / "build" /
                              "build_summary.json").read_text())["test_accuracy"]
        assert summary["samples"] == doc["change"]["test_samples"][i]
        assert summary["ensemble_prefix"][-1] == (
            doc["change"]["test_correct"][i] / summary["samples"])


def test_the_gate_fails_on_a_loss():
    rows = {"parent": [{"test_correct": 10, "test_samples": 20, "qtable_failure_rate": 0.1}],
            "change": [{"test_correct": 9, "test_samples": 20, "qtable_failure_rate": 0.2}]}
    doc = run.compare(rows, [1])
    assert doc["per_seed_accuracy_change"] == [-0.05]
    assert doc["gate"] == {"median_accuracy_change_at_least_0": False,
                           "pooled_correct_change_at_least_0": False,
                           "qtable_median_failure_rate_not_higher": False,
                           "pass": False}
