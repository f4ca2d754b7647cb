"""iiotsim benchmark: times the paper's reference experiment and the offline
paths users rerun, checks every output, and prints the metrics named in
BENCHMARK.json.

    python3 perfbench/run.py --workload scenario_hour --seed 42 --seconds 10 --trace 0

Run from the root of the repository. Workloads:

  scenario_hour  harness.run of the shipped one-hour plan, all nine attack
                 kinds, to a full bundle including hunt_report.json.
  reanalyse      `iiotsim report` then `iiotsim hunt --syslog ...
                 --syslog-truth ...` over the capture of a set-up bundle.
  detect_cv      `iiotsim detect` (10-fold CV of five models) over the
                 dataset.csv of a set-up bundle.
  all            the three in turn, metrics prefixed by the workload.

The seed is the run seed and the CV seed. Every set-up and every operation
runs in a fresh interpreter (worker.py), one at a time, so each has its own
peak RSS. Operations repeat while the next one should end within --seconds;
there is always at least one. With --trace 0 the last line holds the
end-to-end metrics; with --trace 1 operations alternate between untraced
and traced (spans.py) and the last line holds the per-layer metrics. A
digest or exact count that differs between two operations at one seed
counts as a failed check. Scratch files go to .perfbench_run/ and are
removed at the end, except the spans of a traced run.

Everything runs on one CPU, beside a probe that measures the host's speed
(refclock.py). Every time the benchmark reports, end-to-end and per layer,
is read on that reference clock; the host time of the operations is the
per-layer metric refclock.host_wall_s.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from refclock import REF_PROBE_S, Probe
from spans import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
RUN_DIR = ".perfbench_run"
WORK_DIR = os.path.join(RUN_DIR, "work")      # removed when the run ends
SPANS_DIR = os.path.join(RUN_DIR, "spans")    # kept
WORKLOADS = ("scenario_hour", "reanalyse", "detect_cv")
# set-ups per run for the workloads that need a bundle; their digests must
# agree, and setup_s is their median
SETUP_REPEATS = 2
# worker start-ups per run that stop before the operation; with the
# operations' own start-ups they give setup_s its median
STARTUPS = 4
# artifacts the set-up bundle must have ("None" means the plan's full list)
BUNDLE_ONLY = {"reanalyse": None, "detect_cv": ["dataset"]}
# bundle files that `report` and `hunt` rebuild; reanalyse links the rest
REANALYSED = ("conn.log", "dataset.csv", "metrics_report.json",
              "hunt_report.json")


def median(values):
    return statistics.median(values) if values else 0.0


def spawn(spec: dict, tag: str) -> dict | None:
    """Run one worker step to completion; None when it exits non-zero."""
    spec_path = os.path.join(WORK_DIR, f"{tag}.json")
    spec["result"] = os.path.join(WORK_DIR, f"{tag}.result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    t_spawn = time.monotonic()
    # the worker's stdout goes to our stderr, so stdout holds only the report
    pid = os.posix_spawn(sys.executable, [sys.executable, WORKER, spec_path],
                         os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if os.waitstatus_to_exitcode(status) != 0:
        return None
    with open(spec["result"]) as fh:
        result = json.load(fh)
    result["t_spawn"] = t_spawn
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0   # ru_maxrss is KiB
    return result


def source_digest() -> str:
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk("src")):
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    h.update(path.encode() + b"\0" + fh.read())
    return h.hexdigest()


def commit() -> str:
    if not os.path.isdir(".git"):
        return "unavailable"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


class Run:
    """One workload at one seed: set-ups, operations, checks, metrics."""

    def __init__(self, workload, seed, seconds, trace, plan_path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.plan_path = plan_path
        self.work = os.path.join(WORK_DIR, workload)
        self.checks = []        # [name, ok, detail]
        self.lines = []         # report lines printed before the metrics
        self.bundles = []
        self.startups = []
        self.ops = []           # (index, traced, result or None)

    def check(self, name, ok, detail=""):
        self.checks.append([name, bool(ok), str(detail)])

    def step(self, phase, out, tag, traced=False, **extra):
        spec = {"workload": self.workload, "phase": phase, "seed": self.seed,
                "plan": self.plan_path, "out": out, "trace": traced, **extra}
        return spawn(spec, f"{self.workload}-{tag}")

    def set_up(self):
        for k in range(SETUP_REPEATS):
            out = os.path.join(self.work, f"setup{k}")
            res = self.step("bundle", out, f"setup{k}",
                            only=BUNDLE_ONLY[self.workload])
            if res is None:
                raise RuntimeError(f"set-up {k} of {self.workload} failed")
            self.bundles.append(res)
        first = self.bundles[0]["digests"]
        for k, res in enumerate(self.bundles[1:], 1):
            self.check(f"setup{k}_bundle_matches_setup0",
                       res["digests"] == first,
                       sorted(n for n in first
                              if res["digests"].get(n) != first[n]))
            shutil.rmtree(os.path.join(self.work, f"setup{k}"))

    def inputs(self, name) -> str:
        """A fresh output directory holding the operation's inputs.
        They are hard links: no copy competes with the timed operation, and
        a program that rewrote an input would fail the next checks."""
        out = os.path.join(self.work, name)
        os.makedirs(out)
        source = os.path.join(self.work, "setup0")
        if self.workload == "reanalyse":
            for entry in os.listdir(source):
                if entry not in REANALYSED:
                    os.link(os.path.join(source, entry),
                            os.path.join(out, entry))
        elif self.workload == "detect_cv":
            os.link(os.path.join(source, "dataset.csv"),
                    os.path.join(out, "dataset.csv"))
        return out

    def start_up(self):
        for k in range(STARTUPS):
            out = self.inputs(f"start{k}")
            res = self.step("start", out, f"start{k}")
            shutil.rmtree(out)
            if res is None:
                self.check(f"start{k}_worker_exit_0", False)
            else:
                self.startups.append(res)

    def operate(self, i, traced):
        out = self.inputs(f"op{i}")
        extra = {}
        if self.workload == "reanalyse":
            extra["reference"] = self.bundles[0]["digests"]
        res = self.step("op", out, f"op{i}", traced=traced, **extra)
        shutil.rmtree(out)
        self.ops.append((i, traced, res))
        if res is None:
            self.check(f"op{i}_worker_exit_0", False)
            return
        for name, sha in res["digests"].items():
            self.lines.append(f"digest op{i} {name} sha256 {sha}")
        for name, ok, detail in res["checks"]:
            self.check(f"op{i}_{name}", ok, detail)
        for flag, value in res["flags"].items():
            self.lines.append(f"flag op{i} {flag} = {str(value).lower()}")
        first = next(r for _, _, r in self.ops if r is not None)
        if res is not first:
            self.check(f"op{i}_digests_match_op0",
                       res["digests"] == first["digests"],
                       sorted(n for n in first["digests"]
                              if res["digests"].get(n)
                              != first["digests"][n]))
            self.check(f"op{i}_counts_match_op0",
                       (res["counts"], res["quality"], res["flags"])
                       == (first["counts"], first["quality"],
                           first["flags"]))

    def execute(self):
        os.makedirs(self.work)
        if self.workload in BUNDLE_ONLY:
            self.set_up()
        self.start_up()
        t0 = time.monotonic()
        i = 0
        # start another operation only if it should end within --seconds;
        # trace mode alternates untraced and traced operations so that the
        # tracing overhead is measured in the same run
        while True:
            self.operate(i, traced=self.trace and i % 2 == 1)
            i += 1
            elapsed = time.monotonic() - t0
            if (elapsed * (i + 1) / i > self.seconds
                    and not (self.trace and i < 2)):
                break
        shutil.rmtree(self.work)

    def read_clock(self, clock):
        """Turn the workers' host timestamps into reference seconds."""
        for k, res in enumerate(self.bundles):
            res["ref_s"] = clock.span(res["t_spawn"], res["t_done"])
            self.lines.append(f"setup {k}: {res['ref_s']:.4f} s to a bundle "
                              f"of {len(res['digests'])} files")
        for res in self.startups:
            res["setup_s"] = clock.span(res["t_spawn"], res["t_ready"])
        self.lines.append("start-ups: " + ", ".join(
            f"{res['setup_s']:.4f} s" for res in self.startups))
        for i, traced, res in self.ops:
            if res is None:
                continue
            res["host_wall_s"] = res["t_done"] - res["t_ready"]
            res["wall_s"] = clock.span(res["t_ready"], res["t_done"])
            res["setup_s"] = clock.span(res["t_spawn"], res["t_ready"])
            self.lines.append(
                f"op {i} ({'traced' if traced else 'untraced'}): "
                f"wall {res['wall_s']:.4f} s "
                f"(host {res['host_wall_s']:.4f} s), "
                f"setup {res['setup_s']:.4f} s, "
                f"peak_rss {res['peak_rss_mb']:.1f} MB")
            if traced:
                res["self_times"] = self_times(
                    [(name, clock.at(start), clock.at(end), parent)
                     for name, start, end, parent in res["spans"]])
                self_sum = sum(res["self_times"].values())
                self.check(f"op{i}_spans_cover_wall",
                           abs(res["wall_s"] - self_sum)
                           <= 0.01 + 0.01 * res["wall_s"],
                           f"self {self_sum:.4f} s of {res['wall_s']:.4f} s")

    def end_to_end(self) -> dict:
        plain = [r for _, traced, r in self.ops if r is not None and not traced]
        setup = median([r["setup_s"] for r in self.startups + plain])
        if self.bundles:
            setup += median([b["ref_s"] for b in self.bundles])
        return {"wall_s": median([r["wall_s"] for r in plain]),
                "setup_s": setup,
                "peak_rss_mb": median([r["peak_rss_mb"] for r in plain])}

    def per_layer(self) -> dict:
        plain = [r for _, traced, r in self.ops if r is not None and not traced]
        traced = [r for _, t, r in self.ops if r is not None and t]
        if not traced:
            return {}
        layers = [{f"{k}_s": v for k, v in r["self_times"].items()}
                  for r in traced]
        values = {name: median([layer.get(name, 0.0) for layer in layers])
                  for name in set().union(*layers)}
        first = traced[0]
        values.update(first["counts"])
        values.update(first["quality"])
        values.update({k: float(v) for k, v in first["flags"].items()})
        simulate = values.get("netsim.simulate_s", 0.0)
        if simulate:
            values["netsim.events_per_s"] = values["netsim.events"] / simulate
            values["netsim.frames_per_s"] = values["netsim.frames"] / simulate
            values["netsim.sim_speedup"] = first["simulated_s"] / simulate
        untraced_wall = median([r["wall_s"] for r in plain])
        traced_wall = median([r["wall_s"] for r in traced])
        host_wall = median([r["host_wall_s"] for r in plain])
        values.update({
            "refclock.host_wall_s": host_wall,
            "refclock.speed": untraced_wall / host_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.self_sum_s": median([sum(r["self_times"].values())
                                        for r in traced]),
            "trace.spans": len(first["spans"]),
        })
        return values

    def save_spans(self):
        path = os.path.join(SPANS_DIR, f"{self.workload}-seed{self.seed}.json")
        os.makedirs(SPANS_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({str(i): r["spans"] for i, traced, r in self.ops
                       if traced and r is not None}, fh)
        return path


def write_plan(seed) -> str:
    """The generated input: the shipped default plan at this seed."""
    sys.path.insert(0, os.path.abspath("src"))
    from iiotsim import plan as planmod
    plan = planmod.default_plan()
    plan["seed"] = seed
    path = os.path.join(WORK_DIR, f"plan-seed{seed}.json")
    planmod.save_plan(plan, path)
    return path


def report(run: Run, spec: dict) -> dict:
    """Print one workload's lines; return its metrics as {name: value}."""
    for line in run.lines:
        print(line)
    for name, ok, detail in run.checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'}"
              + (f" ({detail})" if detail else ""))
    e2e = run.end_to_end()
    layers = run.per_layer() if run.trace else {}
    for m in spec["end_to_end"]:
        print(f"metric {m['name']} {e2e[m['name']]!r} {m['unit']}")
    if run.trace:
        print(f"spans written to {run.save_spans()}")
        print(f"trace: layer self times sum to "
              f"{layers.get('trace.self_sum_s', 0.0):.4f} s; untraced wall "
              f"{layers.get('trace.untraced_wall_s', 0.0):.4f} s; tracing "
              f"overhead {layers.get('trace.overhead_s', 0.0):.4f} s")
        declared = {m["name"] for m in spec["per_layer"]}
        for m in spec["per_layer"]:
            print(f"layer {m['name']} {layers.get(m['name'], 0)!r} "
                  f"{m['unit']}")
        for name in sorted(set(layers) - declared):
            print(f"layer (not in BENCHMARK.json) {name} {layers[name]!r}")
        listed = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0) for m in listed}
    else:
        listed = spec["end_to_end"]
        values = e2e
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "iiotsim", "__init__.py")):
        print("perfbench: run from the repository root (no src/iiotsim here)",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the benchmark, its workers and the probe share one CPU, so the probe
    # measures the speed the operations get; each worker's nproc is then 1,
    # and its BLAS pool is capped at that (iiotsim reads none of these)
    nproc = os.cpu_count()
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    blas = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)

    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    plan_path = write_plan(args.seed)
    import numpy
    print(f"# perfbench seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"# python {sys.version.split()[0]} numpy {numpy.__version__} "
          f"nproc {nproc} pinned_cpu {cpu} blas_threads {blas} "
          f"commit {commit()} src_sha256 {source_digest()}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    probe = Probe()
    try:
        for name in names:
            runs.append(Run(name, args.seed, args.seconds, bool(args.trace),
                            plan_path))
            runs[-1].execute()
        clock = probe.stop()
    finally:
        probe.kill()
    print(f"# reference clock: {len(clock.times)} probes, median probe "
          f"{clock.median_probe_s * 1e3:.4f} ms (reference "
          f"{REF_PROBE_S * 1e3:.4f} ms), longest gap {clock.max_gap_s:.4f} s")
    metrics = {}
    attempted = failed = 0
    for run in runs:
        print(f"## workload {run.workload}")
        run.read_clock(clock)
        prefix = f"{run.workload}." if args.workload == "all" else ""
        for key, value in report(run, spec).items():
            metrics[prefix + key] = value
        attempted += len(run.checks)
        failed += sum(1 for _, ok, _ in run.checks if not ok)
    shutil.rmtree(WORK_DIR)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
