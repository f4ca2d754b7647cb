"""Command-line entry point: validate / run / calibrate / report / hunt /
detect over scenario plans and artifact directories."""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import analytics, attacks, harness, hunt, plan as planmod
from .detect import (DEFAULT_SPECS, NORMAL, attack_detection, cross_validate,
                     detection_rates, format_detection_table,
                     format_metrics_table)
from .netsim import iter_capture_jsonl
# not called here: `report` streams the capture. The benchmark's traced run
# wraps the name on this module, so it stays importable from it.
from .netsim import read_capture_jsonl


def _load_plan(args) -> dict:
    return planmod.load_plan(args.plan) if args.plan else planmod.default_plan()


def _fail(message, errors=()):
    json.dump({"error": message, "details": list(errors)}, sys.stderr,
              indent=2)
    sys.stderr.write("\n")
    return 2


def cmd_validate(args) -> int:
    plan = planmod.load_plan(args.plan)
    if not args.quiet:
        print(f"plan {args.plan} is valid "
              f"({len(plan.get('hosts', []))} hosts, "
              f"{len(plan.get('attacks', []))} attacks)")
    return 0


def cmd_run(args) -> int:
    plan = _load_plan(args)
    only = args.only.split(",") if args.only else None
    errors = planmod.output_errors(only or [])
    if errors:
        return _fail("--only names an unknown output", errors)
    try:
        result = harness.run(plan, args.out, seed=args.seed, only=only)
    except Exception as e:  # structured error contract for the CLI
        return _fail(f"run failed: {type(e).__name__}: {e}")
    if not args.quiet:
        for name in sorted(result.paths):
            print(result.paths[name])
    return 0


def cmd_calibrate(args) -> int:
    calibrated = planmod.calibrate(_load_plan(args))
    out = args.out_plan or (args.plan or "plan.calibrated.json")
    try:
        planmod.save_plan(calibrated, out)
    except OSError as e:
        return _fail(f"cannot write plan: {e}")
    if not args.quiet:
        print(json.dumps(calibrated["service_times_us"], indent=2))
        print(f"wrote {out}")
    return 0


@harness.collector_paused
def cmd_report(args) -> int:
    """Rebuild conn.log, dataset.csv and the metrics and hunt reports as
    `run` wrote them, from one read of the bundle's capture, its attack
    windows and the router syslogs the plan names, where it has them."""
    build = harness.Build(_load_plan(args))
    capture_path = os.path.join(args.out, "capture.jsonl")
    try:
        try:
            windows = attacks.read_windows_jsonl(
                os.path.join(args.out, "attack_windows.jsonl"))
        except FileNotFoundError:  # a bundle without attack windows
            windows = []
        syslogs = [_read_syslog(None, os.path.join(args.out, name))
                   for name in build.syslog_names()]
    except (OSError, ValueError) as e:
        return _fail(f"cannot read bundle: {e}")
    try:
        harness.derive(build, iter_capture_jsonl(capture_path), windows,
                       syslogs, functools.partial(os.path.join, args.out),
                       planmod.OUTPUTS)
    except ValueError as e:     # a bad capture record
        return _fail(f"cannot read bundle: {e}")
    except OSError as e:
        if e.filename != capture_path:      # an output, not the capture
            return _fail(f"cannot write bundle: {e}")
        if isinstance(e, FileNotFoundError):
            return _fail(f"no capture at {capture_path}")
        return _fail(f"cannot read bundle: {e}")
    if not args.quiet:
        print(json.dumps(build.class_counts, indent=2))
    return 0


def _read_syslog(given, default):
    """The lines of the syslog file at the given path, else at the bundle's
    default path. A missing file raises FileNotFoundError when its path was
    given, and is None when it is the default."""
    try:
        with open(given or default) as fh:
            return fh.readlines()
    except FileNotFoundError:
        if given:
            raise
        return None


@harness.collector_paused
def cmd_hunt(args) -> int:
    """Rebuild the plan's hunt report, as `run` wrote it, from the hunt's
    rows of the bundle's conn.log and the hunt's frames of its capture."""
    build = harness.Build(_load_plan(args))
    conn_path = os.path.join(args.out, "conn.log")
    capture_path = os.path.join(args.out, "capture.jsonl")
    missing = {conn_path: "conn.log", capture_path: "capture"}
    try:
        rows = analytics.read_conn_log(conn_path, keep=functools.partial(
            hunt.reads_row, victim_ip=build.victim))
        syslogs = [_read_syslog(given, os.path.join(args.out, name))
                   for given, name in zip((args.syslog, args.syslog_truth),
                                          build.syslog_names())]
        frames = list(iter_capture_jsonl(capture_path, keep=build.hunts))
        report = harness.build_hunt_report(build, rows, frames, *syslogs)
    except FileNotFoundError as e:
        return _fail(f"no {missing.get(e.filename, 'syslog')} at {e.filename}")
    except (OSError, ValueError) as e:
        return _fail(f"cannot read bundle: {e}")
    out_path = os.path.join(args.out, "hunt_report.json")
    try:
        harness.write_json(report, out_path)
    except OSError as e:
        return _fail(f"cannot write hunt report: {e}")
    if not args.quiet:
        print(f"identified attacker: {report['identified_attacker']}")
        print(f"backdoor ports: {report['backdoor_ports']}")
        print(out_path)
    return 0


def cmd_detect(args) -> int:
    if args.folds < 2:
        return _fail(f"--folds must be at least 2, got {args.folds}")
    dataset_path = os.path.join(args.out, "dataset.csv")
    try:
        features, labels = analytics.read_dataset_csv(dataset_path)
    except FileNotFoundError:
        return _fail(f"no dataset at {dataset_path}")
    except (OSError, ValueError) as e:
        return _fail(f"cannot read dataset: {e}")
    if not labels:
        return _fail("dataset is empty")
    if args.folds > len(labels):
        return _fail(f"--folds must be at most the dataset's {len(labels)} "
                     f"rows, got {args.folds}")
    # X is a view of the reader's buffer: no float object per value
    X = np.frombuffer(features, dtype=np.float64).reshape(
        len(labels), len(analytics.FEATURE_COLUMNS))
    y = np.array(labels)
    del labels      # the five cross-validations need only X and y
    results = []
    report = {"folds": args.folds, "seed": args.seed or 0, "models": {}}
    attack_labels = [l for l in sorted(set(y)) if l != NORMAL]
    for spec in DEFAULT_SPECS:
        try:
            res = cross_validate(spec, X, y, k=args.folds, seed=args.seed or 0)
        except ValueError as e:
            return _fail(f"cannot cross-validate {spec.kind}: {e}")
        results.append(res)
        metrics = {k: v for k, v in res.metrics.items() if k != "per_class"}
        report["models"][spec.kind] = {
            "metrics": {**metrics, **attack_detection(res)},
            "per_class": res.metrics["per_class"],
            "detection_rates": detection_rates(res, attack_labels),
            "warnings": res.warnings,
        }
        if not args.quiet:
            print(f"{spec.kind}: accuracy "
                  f"{100 * res.metrics['accuracy']:.1f}%")
    out_path = os.path.join(args.out, "detection_report.json")
    try:
        harness.write_json(report, out_path)
    except OSError as e:
        return _fail(f"cannot write detection report: {e}")
    if not args.quiet:
        print()
        print(format_metrics_table(results))
        print()
        print(format_detection_table(results, attack_labels))
        print(out_path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="iiotsim",
        description="deterministic industrial-IoT security testbed simulator")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a plan file")
    p.add_argument("--plan", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="simulate a plan and emit artifacts")
    p.add_argument("--plan", help="plan file (defaults to the shipped plan)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="out")
    p.add_argument("--only", help="comma-separated artifact list")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("calibrate",
                       help="solve service times for the latency targets")
    p.add_argument("--plan")
    p.add_argument("--out-plan")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("report",
                       help="re-derive analytics from an existing capture")
    p.add_argument("--plan")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("hunt", help="run the hunting chain over conn.log")
    p.add_argument("--plan", help="plan file (defaults to the shipped plan)")
    p.add_argument("--out", default="out")
    p.add_argument("--syslog", help="router syslog (defaults to the "
                   "bundle's syslog_<router>.txt, if there is one)")
    p.add_argument("--syslog-truth", help="router syslog before tampering "
                   "(defaults to the bundle's syslog_<router>_truth.txt, if "
                   "there is one)")
    p.set_defaults(fn=cmd_hunt)

    p = sub.add_parser("detect",
                       help="cross-validate the classifiers on dataset.csv")
    p.add_argument("--out", default="out")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_detect)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except planmod.PlanError as e:     # refused by load_plan or calibrate
        return _fail("plan is invalid", e.errors)


if __name__ == "__main__":
    sys.exit(main())
