"""Every numeric config key, set to a boundary value, either runs the whole
pipeline cleanly or exits 1 with one error line that names it. The values
that leave the pool untrained exit 2 instead, with the one error line of an
ensemble whose every vote weight is <= 0.

Huge values are tried only where a range has an upper bound: an accepted
`pool.train_epochs` of 10**18 would train for ever, so that case is not
walked and stays unverified.
"""
import copy
import json
import re
import shutil
import warnings

import numpy as np
import pytest

from conftest import schema_leaves, tiny_spec
from enboost import config
from enboost.cli import main

# a pipeline small enough to rebuild for each accepted pool or dataset value
WALK_CONFIG = {
    "dataset": {"generator": {"classes": 3, "samples_per_class": 10,
                              "shape": [2, 8, 8], "noise": 0.5}},
    "network": {"spec_path": "net.json"},
    "pool": {"pool_size": 3, "train_epochs": 4,
             "prune": {"retrain_epochs_per_step": 1}},
    "ensemble": {"size": 2},
    "energy": {"trace": {"synthetic": {"duration": 200.0, "period": 100.0}}},
    "scheduler": {"episodes": 2},
    "simulation": {"request_period": 10.0, "retrain_mode": "auto"},
}
WALK_CSV = {"path": "d.csv", "classes": 3, "shape": [2, 8, 8]}
COMMANDS = ("build-ensemble", "train-scheduler", "simulate")
# the first command that reads each section; the shared build serves the rest
FIRST_COMMAND = {"dataset": 0, "network": 0, "pool": 0, "ensemble": 0}
# at 0, no training, or pruning with no retraining, leaves every learner
# below 50% eval accuracy on 3 classes, so every two-class vote weight is <= 0
DEGENERATE = {"pool.train_epochs", "pool.prune.retrain_epochs_per_step"}


def walk_cases():
    """(key, value) for every numeric leaf at 0, -0.0 and -1, and at 1e300
    where its range has an upper bound; then unknown choice names."""
    for key, kind, _, rule in schema_leaves():
        if kind in (int, config._NUM):
            bounded = not rule[1](1e300)
            for value in (0, -0.0, -1) + ((1e300,) if bounded else ()):
                yield key, value
    yield "energy.trace.synthetic.profile", "sunny"
    yield "simulation.retrain_mode", "always"


def with_value(key, value):
    doc = copy.deepcopy(WALK_CONFIG)
    if key.startswith("dataset.csv."):
        doc["dataset"]["csv"] = dict(WALK_CSV)
    *sections, leaf = key.split(".")
    node = doc
    for section in sections:
        node = node.setdefault(section, {})
    node[leaf] = value
    return doc


def run_pipeline(ws, doc, first, shared_build):
    """Run the commands from `first` on; the first non-zero exit, or 0."""
    (ws / "config.json").write_text(json.dumps(doc))
    conf = ["--config", str(ws / "config.json")]
    build = ws / "build" if first == 0 else shared_build
    argvs = [["--out", str(ws / "build")],
             ["--ensemble", str(build), "--out", str(ws / "q.json")],
             ["--ensemble", str(build), "--policy", f"qtable:{ws / 'q.json'}",
              "--policy", "fixed:1", "--out", str(ws / "sims")]]
    for command, argv in list(zip(COMMANDS, argvs))[first:]:
        rc = main([command, *conf, *argv])
        if rc:
            return rc
    return 0


@pytest.fixture(scope="module")
def walk_dir(tmp_path_factory):
    ws = tmp_path_factory.mktemp("walk")
    tiny_spec().save(ws / "net.json")
    # learnable classes: on pure noise every vote weight is <= 0, and the
    # build exits 2 whatever the key
    rng = np.random.default_rng(0)
    rows = [[i % 3, *(rng.standard_normal(2 * 8 * 8) + i % 3)] for i in range(30)]
    (ws / "d.csv").write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
    assert run_pipeline(ws, WALK_CONFIG, 0, None) == 0
    return ws


def test_every_numeric_key_runs_or_exits_1_naming_it(walk_dir, tmp_path, capsys):
    capsys.readouterr()
    problems = []
    for i, (key, value) in enumerate(walk_cases()):
        ws = tmp_path / str(i)
        ws.mkdir()
        for name in ("net.json", "d.csv"):
            shutil.copy(walk_dir / name, ws / name)
        first = FIRST_COMMAND.get(key.split(".")[0], 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = run_pipeline(ws, with_value(key, value), first, walk_dir / "build")
            except Exception as exc:   # a raw traceback is a failure of the walk
                problems.append(f"{key}={value!r}: raised {exc!r}")
                continue
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        runtime = [str(w.message) for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        if key in DEGENERATE and value == 0 and type(value) is int:
            ok = (rc == 2 and len(errors) == 1
                  and errors[0].startswith("error: every selected learner's vote "
                                           "weight is <= 0: ")
                  and not (ws / "build").exists())
        elif rc == 1:
            ok = (len(errors) == 1
                  and re.match(rf"error: {re.escape(key)}[: ]", errors[0]))
        else:
            ok = (rc == 0 and not runtime
                  and (ws / "q.json").exists()
                  and (ws / "sims" / "qtable" / "report.json").exists())
        if not ok:
            problems.append(f"{key}={value!r}: exit {rc}, errors {errors}, "
                            f"RuntimeWarnings {runtime}")
    assert problems == []
