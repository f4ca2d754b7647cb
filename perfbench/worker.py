"""One benchmark step in a fresh interpreter.

    python3 perfbench/worker.py STEP.json

STEP.json names the workload, the phase ("bundle" makes a set-up bundle,
"start" stops where the operation would start, "op" runs one timed
operation), the seed, the plan file, the output directory and whether to
trace. The worker writes its timestamps (time.monotonic, comparable with
the parent's), checks, exact counts, detector quality, SHA-256 digests of
the files the step wrote and, when traced, its spans, to STEP.json's
"result" path. Run from the root of the repository; run.py starts it.
"""

import collections
import hashlib
import json
import os
import sys
import time

T_START = time.monotonic()

PROTO_TAGS = ("API", "ARP", "COAP", "DNS", "HTTP", "HTTPS", "MODBUS", "MQTT",
              "SCAN", "SMTP", "TCP")
MODELS = ("DT", "RF", "NB", "LR", "KNN")
# reanalyse outputs that must match the set-up bundle byte for byte
MATCH_RUN = ("conn.log", "dataset.csv", "hunt_report.json")


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(out_dir, skip=()) -> dict:
    return {name: sha256(os.path.join(out_dir, name))
            for name in sorted(os.listdir(out_dir)) if name not in skip}


def count_lines(path) -> int:
    n = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            n += block.count(b"\n")
    return n


class Step:
    """One step. The files in its output directory before it runs are its
    inputs; every other file there afterwards is one it wrote."""

    def __init__(self, spec):
        self.spec = spec
        self.out = spec["out"]
        os.makedirs(self.out, exist_ok=True)
        self.inputs = frozenset(os.listdir(self.out))
        self.written = {}
        self.checks = []
        self.counts = {}
        self.quality = {}
        self.flags = {}
        self.simulated_s = 0.0

    def prepare(self, planmod):
        """Set-up inside the worker, before the timed operation."""

    def check(self, name, ok, detail=""):
        self.checks.append([name, bool(ok), str(detail)])

    def result(self) -> dict:
        return {"checks": self.checks, "counts": self.counts,
                "quality": self.quality, "flags": self.flags,
                "digests": self.written}


class Scenario(Step):
    """harness.run of the plan: the set-up bundle, or the scenario_hour
    operation with its output checks."""

    def prepare(self, planmod):
        self.plan = planmod.load_plan(self.spec["plan"])

    def operate(self, harness, cli):
        self.run_result = harness.run(self.plan, self.out,
                                      seed=self.spec["seed"],
                                      only=self.spec.get("only"))

    def inspect(self):
        if self.spec["phase"] == "bundle":
            return
        r = self.run_result
        with open(os.path.join(self.out, "run_summary.json")) as fh:
            summary = json.load(fh)
        with open(os.path.join(self.out, "hunt_report.json")) as fh:
            attacker = json.load(fh)["identified_attacker"]
        frames = r.sim.capture
        capture = os.path.join(self.out, "capture.jsonl")
        conn_rows = count_lines(os.path.join(self.out, "conn.log")) - 1
        data_rows = count_lines(os.path.join(self.out, "dataset.csv")) - 1
        attacker_id = r.plan["roles"]["attacker"]
        attacker_ip = next(h["interfaces"][0][2] for h in r.plan["hosts"]
                           if h["id"] == attacker_id)
        self.check("capture_lines_equal_frames",
                   count_lines(capture) == summary["frames"],
                   f"run_summary.frames={summary['frames']}")
        self.check("netsim_frames_equal_run_summary",
                   len(frames) == summary["frames"], len(frames))
        self.check("conn_log_one_record_per_conversation",
                   conn_rows == summary["conversations"], conn_rows)
        self.check("dataset_rows_plus_dropped_equal_conversations",
                   data_rows + r.dropped_rows == len(r.conversations),
                   f"{data_rows}+{r.dropped_rows}")
        self.check("hunt_identifies_plan_attacker", attacker == attacker_ip,
                   attacker)
        tags = collections.Counter(f.proto_tag for f in frames)
        self.counts = {
            "netsim.events": r.sim._eseq,
            "netsim.frames": len(frames),
            **{f"netsim.frames.{t}": tags[t] for t in PROTO_TAGS},
            "netsim.frames_dropped": sum(1 for f in frames if f.drop_reason),
            "netsim.frames_denied": sum(1 for f in frames if f.fw_denied),
            "netsim.frames_undelivered": sum(1 for f in frames
                                             if not f.delivered),
            "netsim.capture_bytes": os.path.getsize(capture),
            "analytics.conversations": len(r.conversations),
            "analytics.dataset_rows": len(r.dataset_rows),
            "analytics.dropped_rows": r.dropped_rows,
            "historian.edge_rows": len(r.gateway.historian.rows),
            "historian.cloud_rows": len(r.broker.historian.rows),
            "cloud.messages_received": r.broker.messages_received,
            "cloud.bytes_sent": r.broker.bytes_sent,
            "cloud.quarantined": len(r.broker.historian.quarantine),
            "gateway.forwarded": len(r.gateway.forwarded),
            "gateway.faults": len(r.gateway.faults),
            "plant.plc_scans": len(r.plc.scan_log),
            "fieldbus.i2c_txns": len(r.gateway.i2c_bus.txn_log),
            "attacks.windows": len(r.windows),
            "attacks.frames": sum(1 for f in frames
                                  if f.sender == attacker_id),
        }
        self.simulated_s = r.sim.now_us / 1e6


class Reanalyse(Step):
    """`iiotsim report` then `iiotsim hunt` with both syslogs, over a copy
    of the set-up bundle without the files these two rebuild."""

    def prepare(self, planmod):
        with open(self.spec["plan"]) as fh:
            router = json.load(fh)["roles"]["router"]
        self.syslog = f"syslog_{router}.txt"
        self.truth = f"syslog_{router}_truth.txt"
        # warm the page cache so the timed reads do not depend on the disk
        with open(os.path.join(self.out, "capture.jsonl"), "rb") as fh:
            while fh.read(1 << 20):
                pass

    def operate(self, harness, cli):
        d = self.out
        self.codes = (
            cli.main(["--quiet", "report", "--plan", self.spec["plan"],
                      "--out", d]),
            cli.main(["--quiet", "hunt", "--out", d,
                      "--syslog", os.path.join(d, self.syslog),
                      "--syslog-truth", os.path.join(d, self.truth)]))

    def inspect(self):
        self.check("report_and_hunt_exit_0", self.codes == (0, 0), self.codes)
        ref = self.spec["reference"]
        for name in MATCH_RUN:
            self.check(f"{name}_matches_run",
                       self.written.get(name) == ref[name])
        self.flags["reanalyse.metrics_report_matches_run"] = (
            self.written["metrics_report.json"]
            == ref["metrics_report.json"])
        with open(os.path.join(self.out, "metrics_report.json")) as fh:
            dropped = json.load(fh)["dropped_rows"]
        self.counts = {
            "analytics.conversations":
                count_lines(os.path.join(self.out, "conn.log")) - 1,
            "analytics.dataset_rows":
                count_lines(os.path.join(self.out, "dataset.csv")) - 1,
            "analytics.dropped_rows": dropped,
        }


class DetectCv(Step):
    """`iiotsim detect`: 10-fold stratified CV of all five models."""

    def operate(self, harness, cli):
        self.code = cli.main(["--quiet", "detect", "--out", self.out,
                              "--seed", str(self.spec["seed"])])

    def inspect(self):
        self.check("detect_exit_0", self.code == 0, self.code)
        rows = count_lines(os.path.join(self.out, "dataset.csv")) - 1
        with open(os.path.join(self.out, "detection_report.json")) as fh:
            models = json.load(fh)["models"]
        self.check("all_models_reported", sorted(models) == sorted(MODELS),
                   sorted(models))
        for kind, m in models.items():
            total = sum(c["support"] for c in m["per_class"].values())
            self.check(f"{kind.lower()}_confusion_sums_to_rows",
                       total == rows, f"{total} of {rows}")
            rates = m["detection_rates"]
            self.quality[f"detect.{kind.lower()}.accuracy"] = (
                m["metrics"]["accuracy"])
            self.quality[f"detect.{kind.lower()}.attack_recall"] = (
                sum(rates.values()) / len(rates))


STEPS = {"bundle": Scenario, "scenario_hour": Scenario,
         "reanalyse": Reanalyse, "detect_cv": DetectCv}


def main(spec_path) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.abspath("src"))
    import numpy
    from iiotsim import cli, harness, plan as planmod

    step = STEPS["bundle" if spec["phase"] == "bundle"
                 else spec["workload"]](spec)
    step.prepare(planmod)
    tracer = None
    if spec["trace"]:
        from spans import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)
    t_ready = time.monotonic()
    result = {"t_start": T_START, "t_ready": t_ready}
    if spec["phase"] != "start":
        step.operate(harness, cli)
        t_done = time.monotonic()
        step.written = digests(step.out, skip=step.inputs)
        step.inspect()
        result.update(step.result(), t_done=t_done, numpy=numpy.__version__,
                      simulated_s=step.simulated_s,
                      spans=tracer.spans if tracer else [])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
