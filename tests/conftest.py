import os
import re
import shutil
import time
from base64 import b64encode

import numpy as np
import pytest

from iiotsim import analytics, cli, harness, plan as planmod
from iiotsim.cloud import _match, validate_filter
from iiotsim.detect import estimators
from iiotsim.detect.estimators import _logistic_grad, _sigmoid
from iiotsim.fieldbus import I2cTransaction


@pytest.fixture(scope="session")
def default_bundle(tmp_path_factory):
    """One calibrated run of the shipped default plan, shared by the
    acceptance suite and the heavier integration tests."""
    plan = planmod.calibrate(planmod.default_plan())
    out = tmp_path_factory.mktemp("bundle")
    t0 = time.time()
    result = harness.run(plan, str(out))
    result.wall_seconds = time.time() - t0
    result.out_dir = str(out)
    return result


# (dataset seed, CV seed) of each `detect` run whose report
# tests/golden.sha256 pins
GOLDEN_DETECT_RUNS = ((42, 42), (42, 7), (7, 42), (43, 42), (43, 7))


@pytest.fixture(scope="session")
def golden_bundles(default_bundle, tmp_path_factory):
    """seed -> the run of the shipped plan at that seed, written to its own
    directory, as `iiotsim run --seed` writes it; seed 42's is
    default_bundle."""
    builds = {42: default_bundle}
    for seed in (7, 43):
        out = tmp_path_factory.mktemp(f"seed{seed}")
        builds[seed] = harness.run(planmod.default_plan(), str(out), seed=seed)
        builds[seed].out_dir = str(out)
    return builds


@pytest.fixture(scope="session")
def golden_detections(golden_bundles, tmp_path_factory):
    """detect-seed<S>-cv<C> -> the directory where `iiotsim detect --seed C`
    ran on a copy of the seed-S bundle's dataset.csv."""
    root = tmp_path_factory.mktemp("golden")
    dirs = {}
    for seed, cv in GOLDEN_DETECT_RUNS:
        name = f"detect-seed{seed}-cv{cv}"
        dirs[name] = out = root / name
        out.mkdir()
        shutil.copy(os.path.join(golden_bundles[seed].out_dir, "dataset.csv"),
                    out)
        assert cli.main(["--quiet", "detect", "--seed", str(cv),
                         "--out", str(out)]) == 0
    return dirs


def small_plan(duration_s=60.0, attacks=()):
    """Default topology at a short duration, attacks replaced."""
    plan = planmod.default_plan()
    plan["duration_s"] = duration_s
    plan["attacks"] = list(attacks)
    return plan


class SilentSlave:
    """A TCP service that accepts the connection and never answers, as
    plant.ModbusSlaveService does with a request it cannot decode."""

    def on_open(self, stream):
        pass

    def on_data(self, stream, data):
        pass


@pytest.fixture()
def tiny_plan():
    return small_plan


def unbind_tcp(host, port) -> None:
    """Take the TCP service off host's port: a SYN to it is then refused."""
    host._tcp_services.pop(port, None)


def effect(window) -> tuple:
    """(start, end) of when an attack window's manipulation is live at the
    victim: its effect_* bounds, each defaulting to the window's own."""
    start = (window.t_start_us if window.effect_start_us is None
             else window.effect_start_us)
    end = window.t_end_us if window.effect_end_us is None else window.effect_end_us
    return start, end


def frame_to_record(f) -> dict:
    """A frame's capture record, key for key: the reference that
    netsim.write_capture_jsonl's lines equal, byte for byte, under
    json.dumps."""
    return {
        "ts_us": f.ts_us,
        "src_mac": f.src_mac,
        "dst_mac": f.dst_mac,
        "src_ip": f.src_ip,
        "src_port": f.src_port,
        "dst_ip": f.dst_ip,
        "dst_port": f.dst_port,
        "l4": f.l4,
        "tcp_flags": list(f.tcp_flags),
        "len": f.wire_len,
        "proto_tag": f.proto_tag,
        "payload_b64": b64encode(f.payload).decode(),
        "segment": f.segment,
        "sender": f.sender,
        "origin": f.origin,
        "final": f.final,
        "delivered": f.delivered,
        "deliver_ts_us": f.deliver_ts_us,
        "drop_reason": f.drop_reason,
        "fw_denied": f.fw_denied,
    }


# the grammar of fieldbus.I2cTransaction.render's sniffer lines
TRACE_RE = re.compile(r"^\[([0-9A-F]{2}[+\-])+(\[([0-9A-F]{2}[+\-])+)?\]$")


def parse_trace(line: str) -> I2cTransaction:
    """Invert I2cTransaction.render(): the transaction of a trace line."""
    if not TRACE_RE.match(line):
        raise ValueError(f"not a valid trace line: {line!r}")
    body = line[1:-1]
    if "[" in body:
        first, second = body.split("[", 1)
    else:
        first, second = body, ""
    head = [(int(first[i:i + 2], 16), first[i + 2])
            for i in range(0, len(first), 3)]
    addr_byte, addr_mark = head[0]
    if addr_mark == "-":
        return I2cTransaction(addr_byte >> 1, 0, (), acked=False)
    register = head[1][0] if len(head) > 1 else 0
    data = []
    if second:
        toks = [(int(second[i:i + 2], 16), second[i + 2])
                for i in range(0, len(second), 3)]
        data = [b for b, _ in toks[1:]]
    return I2cTransaction(addr_byte >> 1, register, tuple(data))


def topic_match(flt: str, topic: str) -> bool:
    """Wildcard match, as the broker matches a subscription: TopicFilterError
    when flt is not a valid filter."""
    validate_filter(flt)
    return _match(flt, topic)


def binary_logistic_loss_and_grad(params, X, t, l2=0.0,
                                  counts=None) -> tuple:
    """Cross-entropy of sigmoid(X w + b) plus L2 on w, with the gradient
    LogisticRegressionOvR's fit uses; params stacks [w..., b]. Row i stands
    for counts[i] rows (1 each when counts is None), and the loss is the
    mean over them."""
    if counts is None:
        counts = np.ones(len(X))
    w, b = params[:-1], params[-1]
    p = _sigmoid(X @ w + b)
    eps = 1e-12
    loss = -np.sum(counts * (t * np.log(p + eps)
                             + (1 - t) * np.log(1 - p + eps))) / counts.sum()
    loss += 0.5 * l2 * float(w @ w)
    return loss, _logistic_grad(X, t, counts, w, p, l2)


def reference_logistic_fit(X, y, l2=1e-4) -> tuple:
    """LogisticRegressionOvR's Newton fit with every training row in its
    sums, as it was before it read distinct (row, class) pairs: the
    reference the pair fit is compared with -> (classes, coef, intercept)."""
    classes, y_idx = np.unique(y, return_inverse=True)
    n, d = X.shape
    design = np.hstack([X, np.ones((n, 1))])
    ridge = np.diag(np.append(np.full(d, l2), 0.0))
    params = np.zeros((len(classes), d + 1))
    for c, theta in enumerate(params):
        t = (y_idx == c).astype(np.float64)
        for _ in range(estimators._NEWTON_MAX_STEPS):
            p = _sigmoid(design @ theta)
            grad = np.append(X.T @ (p - t) / n + l2 * theta[:-1],
                             np.mean(p - t))
            weighted = design * np.sqrt(p * (1.0 - p))[:, None]
            hessian = weighted.T @ weighted / n + ridge
            step = np.linalg.solve(hessian, grad)
            theta -= step
            if np.abs(step).max() < estimators._NEWTON_TOL:
                break
    return classes, params[:, :-1], params[:, -1]


def reference_confusion_matrix(y_true, y_pred, labels) -> np.ndarray:
    """confusion_matrix as it was before it counted with np.bincount: one
    cell increment per row."""
    labels = list(labels)
    index = {l: i for i, l in enumerate(labels)}
    cm = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        cm[index[t], index[p]] += 1
    return cm


def reference_label_dataset(conversations, windows) -> tuple:
    """label_dataset as it was before its rows became a view: (the list
    of every row, built at once, class_counts, dropped_count)."""
    rows, counts, dropped = [], {}, 0
    for conv in conversations:
        label, drop = analytics.label_for(conv, windows)
        if drop:
            dropped += 1
            continue
        rows.append(analytics.DatasetRow(
            analytics.conversation_features(conv), label))
        counts[label] = counts.get(label, 0) + 1
    return rows, counts, dropped


def reference_conversations(frames) -> list:
    """Conversations of the delivered frames with every sender's span, as
    they were built before spans were kept for the attack windows'
    attackers alone: the frames in (ts_us, deliver_ts_us) order, grouped
    by direction-normalized 5-tuple and split on an idle gap over
    IDLE_TIMEOUT_US or on a bare SYN after a FIN or RST. A conversation's
    flag_hist is None until its first TCP frame, as the walk's is."""
    live, done = {}, []
    for f in sorted((f for f in frames if f.delivered),
                    key=lambda f: (f.ts_us, f.deliver_ts_us)):
        ends = sorted([(f.src_ip, f.src_port), (f.dst_ip, f.dst_port)])
        key = (*ends, f.l4)
        tcp = f.l4 == "TCP"
        conv = live.get(key)
        if conv is not None and (
                f.ts_us - conv.ts_last_us > analytics.IDLE_TIMEOUT_US
                or conv.closed and tcp and "SYN" in f.tcp_flags
                and not f.payload):
            done.append(conv)
            conv = None
        if conv is None:
            conv = live[key] = analytics.ConversationRecord(
                f.ts_us, f.ts_us, f.src_ip, f.src_port, f.dst_ip, f.dst_port,
                f.proto_tag)
        conv.ts_last_us = f.ts_us
        if (f.src_ip, f.src_port) == (conv.orig_ip, conv.orig_port):
            conv.orig_pkts += 1
            conv.orig_bytes += len(f.payload)
        else:
            conv.resp_pkts += 1
            conv.resp_bytes += len(f.payload)
        if tcp:
            fk = f.flag_key()
            if conv.flag_hist is None:
                conv.flag_hist = {}
            conv.flag_hist[fk] = conv.flag_hist.get(fk, 0) + 1
            if {"FIN", "RST"} & set(f.tcp_flags):
                conv.closed = True
        if conv.sender_spans is None:
            conv.sender_spans = {}
        conv.sender_spans.setdefault(f.sender, [f.ts_us, f.ts_us])[1] = \
            f.ts_us
    done.extend(live.values())
    done.sort(key=lambda c: (c.ts_first_us, c.orig_ip, c.orig_port))
    return done
