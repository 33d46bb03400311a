"""Self-test of the benchmark on a tiny config: every named metric appears
with its unit, the checks pass, and equal seeds give equal fingerprints.

    python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
from enboost.nn import NetworkSpec, TensorShape, avgpool, conv, fc, softmax_layer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_config(seed, work):
    work.mkdir(parents=True, exist_ok=True)
    net = work / "net.json"
    NetworkSpec(input_shape=TensorShape(2, 8, 8),
                layers=(conv(4, kernel=3, padding=1), avgpool(2),
                        conv(6, kernel=3, padding=1), avgpool(2),
                        fc(3), softmax_layer()),
                class_count=3).save(net)
    return {
        "dataset": {"generator": {"seed": seed, "classes": 3, "samples_per_class": 12,
                                  "shape": [2, 8, 8], "noise": 0.5}},
        "network": {"spec_path": str(net)},
        "pool": {"pool_size": 4, "train_epochs": 2, "seed": seed,
                 "prune": {"retrain_epochs_per_step": 1}},
        "ensemble": {"size": 3},
        "energy": {"capacitor": {"capacitance": 1e-3},
                   "trace": {"synthetic": {"seed": seed, "duration": 200.0,
                                           "period": 50.0, "high_power": 1e-4}}},
        "scheduler": {"episodes": 2, "seed": seed},
        "simulation": {"seed": seed},
    }


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_metrics_named_and_outputs_reproducible(workload, tmp_path):
    docs = {}
    for tag, trace in (("a", False), ("b", False), ("traced", True)):
        docs[tag] = bench.run(workload, 3, 0.05, trace, tmp_path / tag,
                              config_fn=tiny_config)
    for tag, doc in docs.items():
        result = doc["result"]
        assert result["correct"], (tag, doc["failures"])
        assert result["failed"] == 0 and result["attempted"] >= 1
        want = units("per_layer" if doc["trace"] else "end_to_end")
        assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    for key in ("inputs", "output_sha256"):
        assert docs["a"][key] == docs["b"][key] == docs["traced"][key]
    assert docs["a"]["environment"]["seed"] == 3


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "serve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
