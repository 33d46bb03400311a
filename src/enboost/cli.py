"""Command-line entry point: build ensembles, train the scheduler, run
simulations, render comparison reports.

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import artifacts, boost, config as cfgmod, ensemble as ens, qsched, simrun
from .errors import ConfigError, EnboostError
from .nn import accuracy, count_macs, count_params


def _int_flag(value, flag: str, minimum: int, default: int) -> int:
    """An integer flag's string value, which must be >= `minimum`, or
    `default` without the flag."""
    if value is None:
        return default
    if not value.isdecimal() or int(value) < minimum:
        raise ConfigError(f"{flag} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def cmd_build_ensemble(args) -> int:
    cfg = cfgmod.load_config(args.config)
    config_dir = Path(args.config).parent
    seed = _int_flag(args.seed, "--seed", 0, cfg["pool"]["seed"])
    pool_cfg = cfgmod.make_pool_config(cfg, seed=seed)
    base_spec = cfgmod.make_network(cfg, config_dir)
    dataset = cfgmod.make_dataset(cfg, config_dir, base_spec)
    cfgmod.check_sgd_steps(cfg, base_spec, dataset.split_size("train"))

    pool, _ = boost.build_pool(base_spec, dataset, pool_cfg)
    eval_x, eval_y = dataset.split("eval")
    model = ens.backfit_select(pool, pool_cfg.ensemble_size, eval_x, eval_y)
    if all(a <= 0 for a in model.vote_weights):   # every vote would be inverted
        raise EnboostError("every selected learner's vote weight is <= 0: " + ", ".join(
            f"{l.id} {a:.3g}" for l, a in zip(model.learners, model.vote_weights)))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    boost.save_pool(pool, out / "pool")
    ens.save_ensemble(model, out / "ensemble.json", pool_dir="pool")
    baseline_macs = count_macs(base_spec)
    summary = {
        "baseline_macs": baseline_macs,
        "baseline_params": count_params(base_spec),
        "ensemble_total_macs": model.total_macs,
        "ensemble_size": model.size,
        "pool": [{"id": l.id, "macs": l.macs,
                  "params": count_params(l.spec),
                  "eval_accuracy": l.eval_accuracy} for l in pool],
        "selected": [l.id for l in model.learners],
        "vote_weights": model.vote_weights,
        "acc_profile": model.acc_profile,
        "delta_acc": model.delta_acc,
    }
    summary["test_accuracy"] = score_test_split(pool, model, *dataset.split("test"))
    artifacts.write_json(out / "build_summary.json", summary)
    print(f"built pool of {len(pool)} and ensemble of {model.size} "
          f"({model.total_macs} MACs vs baseline {baseline_macs}) in {out}")
    return 0


def score_test_split(pool, model, test_x, test_y) -> dict:
    """`build_summary.json`'s test_accuracy, scored after selection, which
    never reads the test split: the ensemble's weighted-vote accuracy at each
    prefix length 1..N, and each pool learner's own accuracy."""
    probs = ens.pool_eval_probs(pool, test_x)
    slot = {l.id: m for m, l in enumerate(pool)}
    prefix = ens.profile_accuracy(probs[[slot[l.id] for l in model.learners]],
                                  model.vote_weights, test_y)
    return {"samples": len(test_y), "ensemble_prefix": prefix,
            "pool": {l.id: accuracy(p, test_y) for l, p in zip(pool, probs)}}


def cmd_train_scheduler(args) -> int:
    cfg = cfgmod.load_config(args.config)
    seed = _int_flag(args.seed, "--seed", 0, cfg["scheduler"]["seed"])
    episodes = _int_flag(args.episodes, "--episodes", 0, cfg["scheduler"]["episodes"])
    config_dir = Path(args.config).parent
    env = cfgmod.make_env(cfg, config_dir)
    model = ens.load_ensemble(Path(args.ensemble) / "ensemble.json")
    hyper = cfgmod.make_qhyper(cfg)
    if episodes == 0:
        print("warning: episodes = 0, writing an untrained all-zero table",
              file=sys.stderr)
    table, curve = qsched.train_offline(env, model, episodes, seed, hyper)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    qsched.save_qtable(table, out)
    curve_path = out.with_suffix(out.suffix + ".curve.csv")
    curve_path.write_text(artifacts.csv_text(["episode", "cumulative_reward"],
                                             enumerate(curve)))
    print(f"trained {episodes} episodes -> {out}")
    return 0


def _parse_policy(token, model):
    if token == "all":
        return simrun.FixedKPolicy(model.size, model.size)
    if token.startswith("fixed:"):
        try:
            k = int(token.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad policy {token!r}") from exc
        if k < 1:
            raise ConfigError("fixed:k needs k >= 1")
        return simrun.FixedKPolicy(k, model.size)
    if token.startswith("qtable:"):
        path = token.split(":", 1)[1]
        table = qsched.load_qtable(path, expected_n=model.size)
        return simrun.QPolicy(table)
    raise ConfigError(f"unknown policy {token!r} (use all, fixed:k, qtable:PATH)")


def _with_trace_csv(doc, path: str):
    """The config document with `energy.trace.csv` set to `path`, so that
    validation skips the synthetic block the CSV replaces; a document without
    objects down to `energy.trace` comes back as it is, for validation to
    reject."""
    energy = doc.get("energy", {}) if isinstance(doc, dict) else None
    trace = energy.get("trace", {}) if isinstance(energy, dict) else None
    if not isinstance(trace, dict):
        return doc
    return {**doc, "energy": {**energy, "trace": {**trace, "csv": path}}}


def cmd_simulate(args) -> int:
    doc = cfgmod.read_config(args.config)
    if args.trace is not None:
        doc = _with_trace_csv(doc, str(Path(args.trace).resolve()))
    cfg = cfgmod.validate_config(doc)
    workers = _int_flag(args.jobs, "--jobs", 1, 1)
    config_dir = Path(args.config).parent
    env = cfgmod.make_env(cfg, config_dir)
    model = ens.load_ensemble(Path(args.ensemble) / "ensemble.json")
    dataset = cfgmod.make_dataset(cfg, config_dir, model.learners[0].spec)
    policies = [_parse_policy(tok, model) for tok in args.policy]
    names = [p.name for p in policies]
    for name in names:
        if names.count(name) > 1:   # each name writes one run directory
            tokens = [tok for tok, n in zip(args.policy, names) if n == name]
            raise ConfigError(f"--policy values {tokens} are all named {name!r}")
    baseline_policy = simrun.FixedKPolicy(model.size, model.size)

    def sim_config(policy):
        return simrun.SimConfig(env=env, ensemble=model, dataset=dataset,
                                policy=policy, seed=cfg["simulation"]["seed"],
                                retrain_mode=cfg["simulation"]["retrain_mode"]
                                if policy.name != "all" else "off",
                                retrain_learning_rate=cfg["simulation"]["retrain_learning_rate"])

    # a policy named "all" has the baseline's SimConfig, so it takes the
    # baseline's report instead of running again
    runs = [p for p in policies if p.name != "all"]
    jobs = [sim_config(baseline_policy)] + [sim_config(p) for p in runs]
    out = Path(args.out)

    def write_tree(name, report, baseline):
        run_dir = out / name.replace(":", "-")
        run_dir.mkdir(parents=True, exist_ok=True)
        artifacts.write_json(run_dir / "report.json",
                             simrun.report_document(report, baseline))
        with open(run_dir / "events.csv", "w") as f:
            simrun.write_events(report, f)

    def publish(reports):
        """Write each policy's tree as its run ends, the baseline's first,
        and print the reports in `--policy` order. The later reports read
        only the baseline's policy name and failure rate, so its events rows
        are dropped once its tree is written."""
        baseline = next(reports)
        out.mkdir(parents=True, exist_ok=True)
        if "all" in names:
            write_tree("all", baseline, baseline)
        baseline = replace(baseline, events=[])
        for policy in policies:
            report = baseline if policy.name == "all" else next(reports)
            if report is not baseline:
                write_tree(policy.name, report, baseline)
            text = simrun.render_report(report, args.format, baseline=baseline)
            if args.format == "csv" and policy is not policies[0]:
                # one table: the header, then a row per policy
                text = text.partition("\n")[2]
            print(text, end="" if args.format == "csv" else "\n")

    if workers > 1:   # each run in a worker computes its own batches
        from concurrent.futures import ProcessPoolExecutor   # 2 MB of imports
        with ProcessPoolExecutor(max_workers=workers) as pool:
            publish(pool.map(simrun.run, jobs))   # in order, as each run ends
    else:   # the runs share each learner's batches and each prefix's vote table
        publish(simrun.run_many(jobs))
    return 0


def cmd_report(args) -> int:
    rows = []
    for run_dir in args.run_dirs:
        path = Path(run_dir) / "report.json"
        if not path.exists():
            raise ConfigError(f"missing report file: {path}")
        rows.append(artifacts.read_json(path, lambda doc: {
            "run": str(run_dir),
            "policy": doc["policy"],
            "mean_accuracy": doc["mean_accuracy"],
            "failure_rate": doc["failure_rate"],
            "failure_rate_reduction": doc.get("failure_rate_reduction_vs_baseline"),
        }))
    # highest reduction first, then runs without one; a reduction of 0.0 is
    # a value like any other
    rows.sort(key=lambda r: (r["failure_rate_reduction"] is None,
                             -(r["failure_rate_reduction"] or 0.0), r["run"]))
    fields = ["run", "policy", "mean_accuracy", "failure_rate",
              "failure_rate_reduction"]
    if args.format == "csv":
        print(artifacts.csv_text(fields, ([r[k] for k in fields] for r in rows)),
              end="")
    else:
        for r in rows:
            print("  ".join(f"{k}={'n/a' if r[k] is None else r[k]}" for k in fields))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="enboost")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-ensemble", help="train, prune, boost, and select")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", default=None, help="an integer >= 0")
    p.set_defaults(func=cmd_build_ensemble)

    p = sub.add_parser("train-scheduler", help="offline Q-learning on the energy env")
    p.add_argument("--config", required=True)
    p.add_argument("--ensemble", required=True, help="build-ensemble output dir")
    p.add_argument("--out", required=True, help="q-table file path")
    p.add_argument("--seed", default=None, help="an integer >= 0")
    p.add_argument("--episodes", default=None, help="an integer >= 0")
    p.set_defaults(func=cmd_train_scheduler)

    p = sub.add_parser("simulate", help="run policies on the harvesting device")
    p.add_argument("--config", required=True)
    p.add_argument("--ensemble", required=True)
    p.add_argument("--policy", action="append", required=True,
                   help="all, fixed:k, or qtable:PATH (repeatable)")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, help="override trace CSV")
    p.add_argument("--jobs", default=None, help="worker processes, an integer >= 1")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="comparison table across simulation runs")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EnboostError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2


if __name__ == "__main__":
    sys.exit(main())
