"""Paired quality gate: run two enboost checkouts, seed by seed, through
build-ensemble, train-scheduler and simulate, and compare their test-split
accuracy and q-table failure rate.

    python3 quality/run.py PARENT CHANGE --out QUALITY_<n>.json

PARENT and CHANGE are source checkouts (each with `src/enboost`).  Seed s
in 1..10 sets `dataset.generator.seed` and `pool.seed` on top of the base
config (`{}` unless `--config` names one).  README.md beside this file
states the rule; the script exits 0 when the three parts it measures pass,
1 when one fails.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
SEEDS = range(1, 11)
POLICIES = ("fixed:2", "all")   # run beside the q-table, as the README's example does
# the N-ensemble's test-split votes, counted by a checkout's own code from
# its config and ensemble, so that a checkout whose build_summary.json
# predates `test_accuracy` is gated as well
_COUNT_TEST = """
import sys
from pathlib import Path
import numpy as np
from enboost import config, ensemble, nn
cfg_path, build = Path(sys.argv[1]), Path(sys.argv[2])
model = ensemble.load_ensemble(build / "ensemble.json")
ds = config.make_dataset(config.load_config(cfg_path), cfg_path.parent,
                         model.learners[0].spec)
tx, ty = ds.split("test")
probs = np.stack([nn.forward(l, tx) for l in model.learners])
print(int((ensemble.vote_batch(probs, model.vote_weights) == ty).sum()), len(ty))
"""


def seed_config(base: dict, seed: int) -> dict:
    cfg = copy.deepcopy(base)
    cfg.setdefault("dataset", {}).setdefault("generator", {})["seed"] = seed
    cfg.setdefault("pool", {})["seed"] = seed
    return cfg


def run_enboost(checkout: Path, *args) -> str:
    """stdout of `python3 ARGS` with the checkout's sources on the path and
    one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(map(str, args))} exited "
                           f"{done.returncode}:\n{done.stderr}")
    return done.stdout


def counted_test_votes(checkout: Path, cfg_path: Path, build: Path):
    """(test samples the N-ensemble gets right, test samples), computed by the
    checkout's own code from its artifacts."""
    right, samples = run_enboost(checkout, "-c", _COUNT_TEST, cfg_path, build).split()
    return int(right), int(samples)


def run_side(checkout: Path, cfg_path: Path, out: Path) -> dict:
    """One seed through one checkout: the N-ensemble's test-split count and
    the q-table's failure rate."""
    build, qtable = out / "build", out / "q.json"
    run_enboost(checkout, "-m", "enboost.cli", "build-ensemble", "--config", cfg_path,
                "--out", build)
    run_enboost(checkout, "-m", "enboost.cli", "train-scheduler", "--config", cfg_path,
                "--ensemble", build, "--out", qtable)
    policies = [arg for p in (f"qtable:{qtable}", *POLICIES) for arg in ("--policy", p)]
    run_enboost(checkout, "-m", "enboost.cli", "simulate", "--config", cfg_path,
                "--ensemble", build, *policies, "--out", out / "sim")
    right, samples = counted_test_votes(checkout, cfg_path, build)
    report = json.loads((out / "sim" / "qtable" / "report.json").read_text())
    return {"test_correct": right, "test_samples": samples,
            "qtable_failure_rate": report["failure_rate"]}


def compare(runs: dict, seeds) -> dict:
    """The gate's three measured parts from per-side, per-seed results."""
    doc = {"seeds": list(seeds)}
    for side in SIDES:
        rows = runs[side]
        doc[side] = {
            "test_correct": [r["test_correct"] for r in rows],
            "test_samples": [r["test_samples"] for r in rows],
            "pooled_correct": sum(r["test_correct"] for r in rows),
            "qtable_failure_rate": [r["qtable_failure_rate"] for r in rows],
            "qtable_failure_rate_median": statistics.median(
                r["qtable_failure_rate"] for r in rows),
        }
    parent, change = doc["parent"], doc["change"]
    if parent["test_samples"] != change["test_samples"]:
        raise RuntimeError("the checkouts' test splits differ in size: "
                           f"{parent['test_samples']} and {change['test_samples']}")
    per_seed = [(c - p) / n for p, c, n in zip(parent["test_correct"],
                                               change["test_correct"],
                                               parent["test_samples"])]
    doc["per_seed_accuracy_change"] = per_seed
    doc["median_accuracy_change"] = statistics.median(per_seed)
    doc["pooled_correct_change"] = change["pooled_correct"] - parent["pooled_correct"]
    doc["gate"] = {
        "median_accuracy_change_at_least_0": doc["median_accuracy_change"] >= 0,
        "pooled_correct_change_at_least_0": doc["pooled_correct_change"] >= 0,
        "qtable_median_failure_rate_not_higher": (
            change["qtable_failure_rate_median"] <= parent["qtable_failure_rate_median"]),
    }
    doc["gate"]["pass"] = all(doc["gate"].values())
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source checkout of the parent")
    parser.add_argument("change", type=Path, help="source checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="QUALITY_<n>.json")
    parser.add_argument("--config", type=Path, default=None,
                        help="base config JSON, its paths absolute (default {})")
    args = parser.parse_args(argv)
    base = {} if args.config is None else json.loads(args.config.read_text())
    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="enboost-quality-") as tmp:
        work = Path(tmp)
        for seed in SEEDS:
            cfg_path = work / f"seed-{seed}.json"
            cfg_path.write_text(json.dumps(seed_config(base, seed)))
            for side, checkout in zip(SIDES, (args.parent, args.change)):
                runs[side].append(run_side(checkout.resolve(), cfg_path,
                                           work / side / f"seed-{seed}"))
                print(f"seed {seed} {side}: {runs[side][-1]}", file=sys.stderr)
    doc = {"checkouts": {"parent": str(args.parent), "change": str(args.change)},
           "config": base, **compare(runs, SEEDS)}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps(doc["gate"], sort_keys=True))
    return 0 if doc["gate"]["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
