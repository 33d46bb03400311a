"""The enboost benchmark: workloads, output checks and metrics.

One closed-loop caller in one process drives the pipeline through its
public entry points: `enboost.cli.main` with the argv a user would type, and
`simrun.run_concurrent_training` for retraining, which the CLI does not
reach.  README.md beside this file explains the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import contextmanager, redirect_stdout
from io import StringIO
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from enboost import cli, config as cfgmod, data, ensemble as ens, qsched, simrun

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("build", "schedule", "serve", "serve-retrain")
SETUP_REPS = 3
LEDGER_TOL_J = 1e-6
# one unit of work per workload; work_per_s counts these
UNIT = {"build": "build", "schedule": "episode", "serve": "request",
        "serve-retrain": "request"}
# work_per_s under the name and unit the workload's users know it by
NAMED_RATE = {"build": ("build_s", "s", lambda r: 1.0 / r),
              "schedule": ("sched_episodes_per_s", "1/s", lambda r: r),
              "serve": ("serve_requests_per_s", "1/s", lambda r: r),
              "serve-retrain": ("serve_requests_per_s", "1/s", lambda r: r)}
QUALITY_UNITS = {"ens_acc": "fraction", "sched_final_reward": "reward",
                 "q_fail_rate": "fraction", "q_acc": "fraction",
                 "drift_acc_gain": "fraction", "retrain_events": "count"}
SIMULATE_POLICIES = ("qtable", "fixed:2", "all")
INPUT_KEYS = ("ensemble_sha256", "pool_params_sha256", "pool_specs_sha256",
              "qtable_sha256")
# CPU time of `reference_s` on this host at its usual speed (a 2-vCPU VM
# with Python 3.11 and OpenBLAS).  Timed work is scaled by how much slower
# or faster the reference loop ran during the same run.
REF_NOMINAL_S = 0.045
_REF_MATRIX = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
_REF_VECTOR = np.linspace(-1.0, 1.0, 16)


def bench_config(seed: int, work: Path) -> dict:
    """The measured input size: the bundled baseline CNN at the default
    N=4 MAC budget with default pruning (one filter per step), on a smaller
    pool, dataset and schedule than the `{}` default so that a build takes
    seconds rather than 45 s.  The scheduler explores uniformly
    (epsilon 1), which Q-learning learns from off-policy: with the default
    annealed epsilon the number of decisions per episode follows the
    seed's learned policy and varied 18% across seeds.  The seed feeds every
    stage; `work` is where a config may put files of its own (none here)."""
    return {
        "dataset": {"generator": {"seed": seed, "samples_per_class": 24}},
        "pool": {"pool_size": 5, "train_epochs": 3, "seed": seed,
                 "prune": {"retrain_epochs_per_step": 1}},
        "energy": {"trace": {"synthetic": {"seed": seed}}},
        "scheduler": {"episodes": 10, "seed": seed,
                      "q": {"epsilon_start": 1.0, "epsilon_end": 1.0}},
        "simulation": {"seed": seed},
    }


# ---------------------------------------------------------------------------
# host speed


def reference_s() -> float:
    """CPU time of a fixed loop in the pipeline's styles, about a third of
    the time each: small matrix products in BLAS, interpreted Python, and
    numpy calls on tiny arrays whose cost is call overhead.  It does not
    call enboost, so no change to the program moves it; only the speed the
    host gives this process does."""
    t0 = process_time()
    a = _REF_MATRIX
    for _ in range(250):
        a = a @ _REF_MATRIX * 0.01
    acc, seen = 0.0, {}
    for i in range(40000):
        acc += (i * 0.5 - acc) * 1e-3
        seen[i & 63] = acc
    for _ in range(3000):
        acc += float(np.maximum(_REF_VECTOR * 0.5, 0.0).sum())
    return process_time() - t0


class HostClock:
    """Times spans of work in CPU seconds and tracks the host's speed.

    On a shared 2-vCPU machine the same operation ran up to twice as slowly
    at some moments as at others, in phases of a fraction of a second to
    minutes.  CPU time leaves out the time the process waits for a CPU.  The
    rest of a slow phase (a busy sibling core, a lower clock) stretches CPU
    time too.  So the reference loop runs after every timed span, and
    `slowdown` is the median of those times over the run, relative to
    REF_NOMINAL_S.  Boundary samples cannot follow the host within one
    operation; over a run, their median follows its slow and fast phases."""

    def __init__(self):
        reference_s()           # warm up the loop's code and arrays
        self.refs = [reference_s()]

    def time(self, fn):
        """(fn(), wall s, CPU s)."""
        t0, c0 = perf_counter(), process_time()
        out = fn()
        cpu, wall = process_time() - c0, perf_counter() - t0
        self.refs.append(reference_s())
        return out, wall, cpu

    def slowdown(self) -> float:
        """Median reference time over nominal: > 1 on a slow host."""
        return statistics.median(self.refs) / REF_NOMINAL_S


# ---------------------------------------------------------------------------
# bookkeeping


class Ledger:
    """Operations and output checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def source_sha256() -> str:
    src = ROOT / "src" / "enboost"
    return sha256_files(sorted(p for p in src.rglob("*")
                               if p.is_file() and p.suffix in (".py", ".json")))


def git_commit():
    """HEAD of the checkout, read without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed) -> dict:
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# pipeline steps and their output checks


class Bench:
    """One invocation: work directory, config, checks and the setup's inputs."""

    def __init__(self, work: Path, config_doc: dict):
        self.work = work
        self.doc = config_doc
        self.cfg = cfgmod.validate_config(config_doc)
        self.n = self.cfg["ensemble"]["size"]
        self.episodes = self.cfg["scheduler"]["episodes"]
        self.ledger = Ledger()
        self.inputs = {}        # fingerprints of the setup's outputs
        self.quality = {}
        self.recorder = None    # spans.Recorder while tracing
        self.output_sha256 = None  # what every measured operation returned

    @contextmanager
    def harness(self):
        """Keep the benchmark's own calls (checks, reading outputs) out of
        the layer spans while tracing."""
        if self.recorder is None:
            yield
            return
        self.recorder.paused = True
        try:
            yield
        finally:
            self.recorder.paused = False

    def config_path(self, where: Path) -> Path:
        where.mkdir(parents=True, exist_ok=True)
        path = where / "config.json"
        path.write_text(json.dumps(self.doc, sort_keys=True))
        return path

    def run_cli(self, *argv) -> bool:
        """One enboost command as a user types it; True if it exited 0."""
        with redirect_stdout(StringIO()):
            code = cli.main(list(argv))
        return self.ledger.check(code == 0, f"enboost {argv[0]} exited {code}")

    def build(self, where: Path) -> dict:
        conf = self.config_path(where)
        out = where / "build"
        if not self.run_cli("build-ensemble", "--config", str(conf), "--out", str(out)):
            return {}
        with self.harness():
            summary = json.loads((out / "build_summary.json").read_text())
            manifest = json.loads((out / "ensemble.json").read_text())
            budget = math.ceil(summary["baseline_macs"] / self.n)
            for learner in summary["pool"]:
                self.ledger.check(learner["macs"] <= budget,
                                  f"{learner['id']} has {learner['macs']} MACs > {budget}")
            profile = manifest["acc_profile"]
            self.ledger.check(len(profile) == self.n,
                              f"acc_profile length {len(profile)} != {self.n}")
            self.quality["ens_acc"] = profile[-1]
            pool = out / "pool"
            return {
                "ensemble_sha256": sha256_files([out / "ensemble.json",
                                                 out / "build_summary.json"]),
                "pool_params_sha256": sha256_files(sorted(pool.glob("*.npy"))),
                "pool_specs_sha256": sha256_files(sorted(pool.glob("*.json"))),
            }

    def schedule(self, where: Path, ensemble_dir: Path) -> dict:
        conf = self.config_path(where)
        q = where / "q.json"
        if not self.run_cli("train-scheduler", "--config", str(conf),
                        "--ensemble", str(ensemble_dir), "--out", str(q)):
            return {}
        with self.harness():
            try:
                qsched.load_qtable(q, expected_n=self.n)
                loaded = True
            except (qsched.TableLoadError, KeyError, ValueError):
                loaded = False
            self.ledger.check(loaded, f"q-table does not load with expected_n={self.n}")
            curve_path = q.with_suffix(".json.curve.csv")
            curve = curve_path.read_text().splitlines()[1:]
            self.ledger.check(len(curve) == self.episodes,
                              f"reward curve has {len(curve)} of {self.episodes} episodes")
            if curve:
                self.quality["sched_final_reward"] = float(curve[-1].split(",")[1])
            return {"qtable_sha256": sha256_files([q, curve_path])}

    def setup(self, where: Path) -> dict:
        """Make every workload's inputs from the seed, through the code under
        test: an ensemble (build-ensemble) and a q-table (train-scheduler)."""
        fp = self.build(where)
        if fp:
            fp.update(self.schedule(where, where / "build"))
        return fp

    def expected_requests(self) -> int:
        env = cfgmod.make_env(self.cfg, self.work)
        horizon = min(env.requests.horizon, env.trace.horizon)
        return len(np.arange(env.requests.period, horizon + 1e-9, env.requests.period))

    def check_report(self, doc, expected, label):
        closure = abs(doc["final_energy_J"] - (doc["initial_energy_J"]
                                               + doc["harvested_energy_J"]
                                               - doc["consumed_energy_J"]))
        self.ledger.check(closure < LEDGER_TOL_J,
                          f"{label}: energy ledger off by {closure} J")
        self.ledger.check(doc["total_requests"] == expected,
                          f"{label}: {doc['total_requests']} of {expected} requests")

    def serve(self, where: Path, expected: int):
        conf = self.config_path(where)
        setup = self.work / "setup-0"
        sims = where / "sims"
        argv = ["simulate", "--config", str(conf), "--ensemble", str(setup / "build"),
                "--out", str(sims), "--jobs", "1"]
        for p in SIMULATE_POLICIES:
            argv += ["--policy", f"qtable:{setup / 'q.json'}" if p == "qtable" else p]
        if not self.run_cli(*argv):
            return 0, None
        with self.harness():
            runs = [sims / p.replace(":", "-") for p in SIMULATE_POLICIES]
            docs = [json.loads((r / "report.json").read_text()) for r in runs]
            for run_dir, doc in zip(runs, docs):
                self.check_report(doc, expected, f"simulate {run_dir.name}")
            self.quality["q_fail_rate"] = docs[0]["failure_rate"]
            self.quality["q_acc"] = docs[0]["mean_accuracy"]
            files = [f for r in runs for f in (r / "report.json", r / "events.csv")]
            return sum(d["total_requests"] for d in docs), sha256_files(files)

    def serve_retrain(self, expected: int):
        """Serving with FC-only retraining (retrain_mode "auto") on the
        label-shifted drift set, through the API: `enboost simulate` ignores
        retrain_mode."""
        setup = self.work / "setup-0"
        cfg = cfgmod.load_config(self.config_path(self.work / "retrain"))
        model = ens.load_ensemble(setup / "build" / "ensemble.json")
        table = qsched.load_qtable(setup / "q.json", expected_n=model.size)
        dataset = cfgmod.make_dataset(cfg, self.work)
        sim = simrun.SimConfig(env=cfgmod.make_env(cfg, self.work), ensemble=model,
                               dataset=dataset, policy=simrun.QPolicy(table),
                               seed=cfg["simulation"]["seed"], retrain_mode="auto",
                               retrain_learning_rate=cfg["simulation"]["retrain_learning_rate"])
        drift = data.drift_dataset(dataset, seed=cfg["dataset"]["generator"]["seed"])
        report, before, after = simrun.run_concurrent_training(sim, drift)
        with self.harness():
            self.check_report(report.to_dict(), expected, "serve-retrain")
            self.ledger.check(report.retrain_events > 0, "serve-retrain: no FC-only writes")
            self.quality["drift_acc_gain"] = float(np.mean(after) - np.mean(before))
            self.quality["retrain_events"] = report.retrain_events
            digest = hashlib.sha256(simrun.events_csv(report).encode())
            digest.update(repr((before, after)).encode())
            return report.total_requests, digest.hexdigest()

    def operation(self, workload: str):
        """(op, reference): op() does the workload's operation once and
        returns (units of work, output fingerprint); every op must give the
        reference fingerprint.  Where the setup has not already run the
        operation, an untimed first op sets the reference and warms up."""
        setup = self.work / "setup-0"
        if workload == "build":
            ref = json.dumps({k: self.inputs[k] for k in INPUT_KEYS[:3]}, sort_keys=True)
            return (lambda: (1, json.dumps(self.build(self.work / "op"), sort_keys=True)),
                    ref)
        if workload == "schedule":
            def op():
                fp = self.schedule(self.work / "op", setup / "build")
                return self.episodes, fp.get("qtable_sha256")
            return op, self.inputs["qtable_sha256"]
        expected = self.expected_requests()

        def op():
            if workload == "serve":
                return self.serve(self.work / "op", expected)
            return self.serve_retrain(expected)
        return op, op()[1]

    def measure(self, op, reference, seconds, clock=None):
        """Run op back to back while less than `seconds` have passed (once
        at least, if `seconds` > 0) and check each output against the
        reference.  Returns per-op (units, wall s, CPU s); without a clock
        the CPU time is the wall time."""
        samples = []
        start = perf_counter()
        while perf_counter() - start < seconds:
            try:
                if clock is None:
                    t0 = perf_counter()
                    units, fp = op()
                    wall = cpu = perf_counter() - t0
                else:
                    (units, fp), wall, cpu = clock.time(op)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.ledger.check(False, "operation raised")
                continue
            if units:
                samples.append((units, wall, cpu))
            self.ledger.check(fp == reference, "output differs from the reference")
        return samples


# ---------------------------------------------------------------------------
# one run


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        config_fn=bench_config) -> dict:
    """Set up, measure and check one workload; returns the result document."""
    bench = Bench(work, config_fn(seed, work))
    reps = 1 if trace else SETUP_REPS
    clock = None if trace else HostClock()
    setups, samples = [], []
    measured = 0.0
    for rep in range(reps):
        where = work / f"setup-{rep}"
        if clock is None:
            fp = bench.setup(where)
        else:
            fp, wall, cpu = clock.time(lambda: bench.setup(where))
            setups.append((wall, cpu))
        if rep == 0:
            if not bench.ledger.check(set(fp) == set(INPUT_KEYS), "setup produced no inputs"):
                return document(bench, workload, seed, trace, {}, {})
            bench.inputs = fp
            op, reference = bench.operation(workload)
            bench.output_sha256 = reference
        else:
            bench.ledger.check(fp == bench.inputs, "setup outputs differ between repetitions")
        if not trace:
            # The measured time is split between the setup repetitions, so
            # that the operations sample a longer stretch of a shared host's
            # slow and fast phases.
            t0 = perf_counter()
            samples += bench.measure(op, reference, seconds * (rep + 1) / reps - measured,
                                     clock)
            measured += perf_counter() - t0
    if not trace:
        # CPU time at nominal host speed: measured CPU time over slowdown
        slow = clock.slowdown()
        rate = statistics.median(u / c for u, _, c in samples) * slow if samples else 0.0
        metrics = {"setup_s": (statistics.median(c for _, c in setups) / slow, "s"),
                   "work_per_s": (rate, "1/s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
        name, unit, derive = NAMED_RATE[workload]
        named = {name: (derive(rate) if rate else 0.0, unit),
                 "wall_setup_s": (statistics.median(w for w, _ in setups), "s"),
                 "wall_work_per_s": (statistics.median(u / w for u, w, _ in samples)
                                     if samples else 0.0, "1/s"),
                 "host_slowdown": (slow, "ratio"),
                 "ops_measured": (len(samples), "count")}
        return document(bench, workload, seed, trace, metrics, named)

    plain = bench.measure(op, reference, seconds / 2)
    rec = bench.recorder = spans.Recorder()
    undo = spans.install(rec)
    root = rec.open("harness")
    try:
        traced = bench.measure(op, reference, seconds / 2)
    finally:
        rec.close(root)
        spans.uninstall(undo)
        bench.recorder = None
    units = sum(u for u, _, _ in traced)
    layers = spans.layer_metrics(rec, max(units, 1))
    parts = layers["harness.self_s"] + sum(layers[f"{m}.self_s"] for m in spans.MODULES)
    bench.ledger.check(math.isclose(parts, layers["trace.wall_s"], rel_tol=1e-9),
                       "self times do not sum to the traced wall time")
    layers["trace_overhead_frac"] = (
        statistics.median(w / u for u, w, _ in traced)
        / statistics.median(w / u for u, w, _ in plain) - 1.0
        if traced and plain else 0.0)
    OUT.mkdir(exist_ok=True)
    spans.dump(rec, OUT / f"{workload}-seed{seed}.spans.json")
    metrics = {k: (v, spans.unit_of(k)) for k, v in layers.items()}
    named = {"spans": (len(rec.starts), "count"), "ops_traced": (len(traced), "count")}
    return document(bench, workload, seed, trace, metrics, named)


def document(bench, workload, seed, trace, metrics, named) -> dict:
    ledger = bench.ledger
    named["failed_frac"] = (ledger.failed / max(ledger.attempted, 1), "fraction")
    for k, v in bench.quality.items():
        named[k] = (v, QUALITY_UNITS[k])
    return {
        "workload": workload,
        "unit_of_work": UNIT[workload],
        "trace": int(trace),
        "environment": environment(seed),
        "inputs": bench.inputs,
        "output_sha256": bench.output_sha256,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "failures": ledger.failures,
        "result": {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def render(doc) -> str:
    lines = [f"workload {doc['workload']} (unit of work: {doc['unit_of_work']}), "
             f"trace {doc['trace']}",
             "environment " + json.dumps(doc["environment"], sort_keys=True),
             "inputs " + json.dumps(doc["inputs"], sort_keys=True)]
    rows = list(doc["result"]["metrics"].items()) + list(doc["named"].items())
    for name, m in rows:
        lines.append(f"  {name:30s} {m['value']!r:>24} {m['unit']}")
    lines += [f"  FAILED: {f}" for f in doc["failures"]]
    return "\n".join(lines)


def main(argv) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        doc = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True))
    print(render(doc))
    print(json.dumps(doc["result"]))
    return 0
