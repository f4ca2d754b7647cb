"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers once its assertions hold."""

import filecmp
import itertools
import json
import os
import time

import numpy as np
import pytest

from iiotsim import analytics, fieldbus, harness, hunt, plan as planmod
from iiotsim.cloud import Broker, MqttClient, decode_packet
from iiotsim.detect import ModelSpec, cross_validate, metrics_from_confusion
from iiotsim.gateway import Reading, build_telemetry
from iiotsim.netsim import LinkProfile, Simulation

from conftest import binary_logistic_loss_and_grad, effect

ATTACKER_MAC = "00:0c:29:5b:a2:99"
LOCAL_IPS = {"192.168.10.150", "192.168.10.1", "192.168.10.20",
             "192.168.10.30", "192.168.10.151", "192.168.20.1",
             "192.168.20.10", "192.168.20.25"}


def ok(n, text):
    print(f"ACCEPTANCE {n:02d} PASS - {text}")


def test_01_decode_exactness():
    sample = fieldbus.mpl_decode(bytes.fromhex("5C847017F000"))
    assert sample.celsius == 23.9375
    d = (None,) + tuple(bytes.fromhex("5C847017F000"))
    hand = ((d[1] * 65536 + d[2] * 256 + (d[3] & 0xF0)) / 16) / 4.0 / 1000.0
    assert abs(sample.kilopascal - hand) <= 1e-9
    assert abs(sample.kilopascal - 94.73775) <= 1e-9
    ok(1, f"decode: {sample.celsius} degC bit-exact, "
          f"{sample.kilopascal} kPa within 1e-9")


def test_02_message_format():
    msg = build_telemetry(Reading("mpl", 94.34675, 0))
    expected = ('{"Device ID": "Slave 7", "Device Type": "I2C slave", '
                '"Measurement": 94.34675, "Function": "I/O Pressure Sensor", '
                '"Content Type": "Pressure"}')
    assert msg.body == expected
    assert msg.topic == "station/I2Cslave"
    assert len(msg.topic) == 16
    ok(2, "telemetry body byte-for-byte, topic length 16")


def test_03_qos2_exactly_once(default_bundle):
    r = default_bundle
    forwarded = len(r.gateway.forwarded)
    stored = len(r.broker.historian.rows)
    assert forwarded >= 1000
    assert stored == forwarded
    gw_ip = "192.168.10.150"
    firsts = {}
    dups = 0
    for f in r.sim.capture:
        if f.proto_tag != "MQTT" or not f.payload or not f.origin:
            continue
        if gw_ip not in (f.src_ip, f.dst_ip):
            continue
        try:
            pkt = decode_packet(f.payload)
        except ValueError:
            continue
        if pkt["type"] in ("PUBLISH", "PUBREC", "PUBREL", "PUBCOMP"):
            if pkt.get("dup"):
                dups += 1
            key = (pkt["type"], pkt.get("mid"))
            firsts.setdefault(key, f.ts_us)
    assert dups > 0, "duplicate retries must actually be injected"
    assert r.gateway.mqtt._pending == {}     # every handshake completed
    checked = 0
    for mid in [mid for kind, mid in firsts if kind == "PUBLISH"]:
        seq = [firsts.get(("PUBLISH", mid)), firsts.get(("PUBREC", mid)),
               firsts.get(("PUBREL", mid)), firsts.get(("PUBCOMP", mid))]
        assert None not in seq, mid
        assert seq == sorted(seq), mid
        checked += 1
    assert checked == forwarded
    ok(3, f"{forwarded} forwarded == {stored} stored; {checked} four-packet "
          f"handshakes verified; {dups} duplicate retries absorbed")


def test_04_calibration_fidelity(default_bundle):
    r = default_bundle
    assert r.wall_seconds < 120.0
    targets = r.plan["latency_targets_ms"]
    # the I2C mean comes from the live bus, so run_summary.json holds it
    with open(os.path.join(r.out_dir, "run_summary.json")) as fh:
        rts = {**r.metrics["response_times_ms"],
               **json.load(fh)["response_times_ms"]}
    report = []
    for proto, target in sorted(targets.items()):
        measured = rts[proto]["mean_ms"]
        assert rts[proto]["count"] > 0, proto
        assert abs(measured - target) <= 0.20 * target, (proto, measured)
        report.append(f"{proto} {measured:.3f}/{target}")
    assert rts["MODBUS"]["mean_ms"] < 20.0
    jitter = r.metrics["jitter"]
    assert jitter["windows"] > 0
    assert jitter["fraction_under"] >= 0.95
    ok(4, f"wall {r.wall_seconds:.1f}s; " + ", ".join(report) +
       f"; jitter {jitter['under_bound']}/{jitter['windows']} under 30 ms")


def routed_gw_frames(result):
    out = []
    for f in result.sim.capture:
        if f.sender != "edge-gw" or f.l4 == "ARP" or f.segment != "lan-a":
            continue
        if f.dst_ip in LOCAL_IPS:
            continue
        out.append(f)
    return out


def test_05_arp_spoof_redirection(default_bundle):
    r = default_bundle
    spoof = next(w for w in r.windows if w.kind == "arp_spoof")
    mitm_effects = [effect(w) for w in r.windows
                    if w.kind in ("arp_spoof", "tamper")]
    lo, hi = effect(spoof)
    inside = outside = inside_hit = outside_hit = 0
    for f in routed_gw_frames(r):
        if lo <= f.ts_us <= hi:
            inside += 1
            inside_hit += f.dst_mac == ATTACKER_MAC
        elif not any(a <= f.ts_us <= b for a, b in mitm_effects):
            outside += 1
            outside_hit += f.dst_mac == ATTACKER_MAC
    assert inside > 0 and outside > 0
    assert inside_hit == inside, "100% inside the window"
    assert outside_hit == 0, "0% outside the windows"
    ok(5, f"{inside}/{inside} frames to {ATTACKER_MAC} in window, "
          f"0/{outside} outside")


def test_06_tampering_divergence(default_bundle):
    r = default_bundle
    tamper = next(w for w in r.windows if w.kind == "tamper")
    lo, hi = effect(tamper)
    fw = r.gateway.forwarded
    rows = r.broker.historian.rows
    assert len(fw) == len(rows)
    n_in = n_out = 0
    for (ts, topic, body), row in zip(fw, rows):
        edge_val = json.loads(body)["Measurement"]
        if lo <= ts <= hi:
            assert row.measurement == 2.0 * edge_val
            n_in += 1
        else:
            assert row.measurement == edge_val
            n_out += 1
    assert n_in > 0 and n_out > 0
    ok(6, f"{n_in} in-window rows all 2x edge, {n_out} outside identical")


def test_07_dos_rate_and_resilience(default_bundle):
    r = default_bundle
    dos = next(w for w in r.windows if w.kind == "modbus_dos")
    series = r.metrics["plc_request_rates"]["series"]
    in_window = [s["read_per_s"] for s in series
                 if dos.t_start_us <= s["t0_us"] <= dos.t_end_us]
    baseline = [s["read_per_s"] for s in series
                if s["t0_us"] < dos.t_start_us - 1_000_000]
    assert in_window and baseline
    peak = max(in_window)
    base = max(max(baseline), 1e-9)
    assert peak >= 10.0 * base
    scans = [ts for ts, _, _ in r.plc.scan_log]
    period = r.plc.scan_period_us
    max_dev = max(abs((scans[i + 1] - scans[i]) - period) / period
                  for i in range(len(scans) - 1))
    assert max_dev <= 0.10 + 1e-9
    legit = [row for row in r.gateway.historian.rows
             if row.device_id == "Slave 2"
             and dos.t_start_us <= row.ts_us <= dos.t_end_us]
    assert legit, "a legitimate read must succeed during the flood"
    ok(7, f"flood read rate {peak:.0f}/s vs baseline {base:.2f}/s "
          f"(x{peak / base:.0f}); scan deviation {max_dev:.3f} <= 0.10; "
          f"{len(legit)} legit reads during flood")


def test_08_rogue_subscriber(default_bundle):
    from iiotsim.attacks import RogueSubscriber
    r = default_bundle
    rogue = next(a for a in r.attack_objs.values()
                 if isinstance(a, RogueSubscriber))
    transcript = rogue.transcript
    assert any(line.startswith("$SYS/broker/version: ")
               for line in transcript)
    plc_lines = [l for l in transcript if l.startswith("station/PLC: ")]
    assert plc_lines
    json.loads(plc_lines[0].split(": ", 1)[1])

    # delivered-set equivalence on a dedicated continuous-session scenario
    sim = Simulation(seed=5)
    sim.add_segment("wan", LinkProfile(200, 20, 0))
    cloud = sim.attach_host("cloud", [("wan", "00:50:56:c0:00:10",
                                       "192.168.2.10")])
    pub_host = sim.attach_host("pub", [("wan", "00:50:56:c0:00:99",
                                        "192.168.2.99")])
    rog_host = sim.attach_host("rog", [("wan", "00:50:56:c0:00:66",
                                        "192.168.2.66")])
    broker = Broker(sim, cloud, r.broker.historian.epoch,
                    version="iiotsim-broker 1.0", service_time_us=1000,
                    sys_period_us=5_000_000, acl_enabled=False, allowlist=())
    broker.start_sys_publisher()
    sim.horizon_us = 120_000_000
    publisher = MqttClient(pub_host, "192.168.2.10", "pub")
    rog = MqttClient(rog_host, "192.168.2.10", "rogue")
    got = []
    rog.on_message = lambda t, p: got.append((t, p))
    rog.on_connected = lambda c: c.subscribe(["#", "$SYS/#"])
    rog.connect()
    publisher.connect()

    sent = itertools.count()
    published = []

    def pump():
        published.append(json.dumps(
            {"Device ID": "Slave 2", "Device Type": "PLC MODBUS",
             "Measurement": float(next(sent)),
             "Function": "PLC Temperature Sensor",
             "Content Type": "Temperature"}))
        publisher.publish("station/PLC", published[-1], qos=2)
    sim.every(2_000_000, pump, first_us=1_000_000)
    sim.run_until(125_000_000)
    delivered = set(got)
    # the broker's deliveries to the rogue, as they crossed the wire
    expected = set()
    for f in sim.capture:
        if f.proto_tag == "MQTT" and f.dst_ip == "192.168.2.66" and f.payload:
            pkt = decode_packet(f.payload)
            if pkt["type"] == "PUBLISH":
                expected.add((pkt["topic"], pkt["payload"]))
    assert delivered == expected
    station = [p for t, p in got if t == "station/PLC"]
    # every publish while subscribed, exactly once
    assert station == published and len(station) == 60
    assert any(t.startswith("$SYS/") for t, _ in delivered)
    ok(8, f"transcript discloses broker state and telemetry "
          f"({len(transcript)} lines); delivered set == published set "
          f"({len(delivered)} messages)")


def test_09_hunt_chain(default_bundle):
    r = default_bundle
    rows = analytics.read_conn_log(os.path.join(r.out_dir, "conn.log"))
    ranked = hunt.aggregate_originators(rows, 443)
    assert ranked[0].orig_h == "192.168.10.151"
    assert ranked[0].total_orig_bytes == max(s.total_orig_bytes
                                             for s in ranked)
    reverse = hunt.reverse_connections(rows, "192.168.10.1",
                                       [s.orig_h for s in ranked])
    backdoor = [row for row in reverse["rows"] if row["resp_p"] == 4444]
    assert len(backdoor) == 5
    total = sum(row["duration"] for row in backdoor)
    assert abs(total - 1344.026) <= 0.001
    assert {row["resp_h"] for row in backdoor} == {"192.168.10.151"}
    profile = hunt.stream_flag_profile(backdoor)
    assert profile["verdict"] == "interactive-shell-like"
    with open(os.path.join(r.out_dir, "syslog_router.txt")) as fh:
        tampered_events, _ = hunt.parse_syslog(fh.readlines())
    with open(os.path.join(r.out_dir, "syslog_router_truth.txt")) as fh:
        truth_events, _ = hunt.parse_syslog(fh.readlines())
    after = hunt.search_events(tampered_events, "shell")
    before = hunt.search_events(truth_events, "shell")
    assert len(before) >= 5 and len(after) == 0
    assert r.hunt["identified_attacker"] == "192.168.10.151"
    ok(9, f"attacker ranked first on 443 ({ranked[0].total_duration:.1f}s, "
          f"{ranked[0].total_orig_bytes}B); 5 reverse rows on 4444 totaling "
          f"{total:.3f}s; shell verdict; syslog diff {len(before)} -> "
          f"{len(after)}")


def oracle_metrics(cm):
    k = len(cm)
    total = sum(sum(row) for row in cm)
    acc = sum(cm[i][i] for i in range(k)) / total
    wp = wr = wf = 0.0
    for i in range(k):
        support = sum(cm[i])
        predicted = sum(cm[r][i] for r in range(k))
        recall = cm[i][i] / support if support else 0.0
        precision = cm[i][i] / predicted if predicted else 0.0
        f = 2 * precision * recall / (precision + recall) \
            if precision + recall else 0.0
        w = support / total
        wp += w * precision
        wr += w * recall
        wf += w * f
    return acc, wp, wr, wf


def test_10_detection(default_bundle):
    t0 = time.time()
    rng = np.random.default_rng(41)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        cm = rng.integers(0, 40, size=(k, k))
        cm[0, 0] += 1
        m = metrics_from_confusion(cm, [f"c{i}" for i in range(k)])
        acc, wp, wr, wf = oracle_metrics(cm.tolist())
        assert m["accuracy"] == pytest.approx(acc, abs=1e-12)
        assert m["precision"] == pytest.approx(wp, abs=1e-12)
        assert m["recall"] == pytest.approx(wr, abs=1e-12)
        assert m["f_measure"] == pytest.approx(wf, abs=1e-12)
        assert m["recall"] == pytest.approx(m["accuracy"], abs=1e-12)

    X = rng.normal(size=(30, 4))
    t = (rng.random(30) > 0.5).astype(float)
    params = rng.normal(size=5) * 0.3
    _, grad = binary_logistic_loss_and_grad(params, X, t, 0.01)
    eps = 1e-6
    for j in range(len(params)):
        up = params.copy(); up[j] += eps
        dn = params.copy(); dn[j] -= eps
        lu, _ = binary_logistic_loss_and_grad(up, X, t, 0.01)
        ld, _ = binary_logistic_loss_and_grad(dn, X, t, 0.01)
        assert abs((lu - ld) / (2 * eps) - grad[j]) <= 1e-5

    from iiotsim.detect import DecisionTreeClassifier, RandomForestClassifier
    Xr = rng.normal(size=(200, 5))
    yr = np.where(Xr[:, 0] + Xr[:, 1] > 0, "p", "q")
    rf = RandomForestClassifier(n_trees=1, bootstrap=False,
                                max_features=None, random_state=3).fit(Xr, yr)
    dt = DecisionTreeClassifier(random_state=3).fit(Xr, yr)
    probe = rng.normal(size=(300, 5))
    assert (rf.predict(probe) == dt.predict(probe)).all()

    rows = default_bundle.dataset_rows
    counts = default_bundle.class_counts
    assert counts["normal"] >= 5000
    attack_classes = [c for c in counts if c != "normal"]
    assert len(attack_classes) >= 4
    assert all(counts[c] >= 100 for c in attack_classes)
    X = np.array([r.features for r in rows])
    y = np.array([r.label for r in rows])
    scores = {}
    for kind in ("DT", "RF"):
        res = cross_validate(ModelSpec(kind), X, y, k=10, seed=10)
        acc = res.metrics["accuracy"]
        dos = res.metrics["per_class"]["modbus_dos"]["recall"]
        assert acc >= 0.95, (kind, acc)
        assert dos >= 0.95, (kind, dos)
        scores[kind] = (acc, dos)
    wall = time.time() - t0
    assert wall < 120.0
    ok(10, "metrics oracle x20, recall==accuracy, LR gradient <=1e-5, "
           f"RF(1)==DT; dataset {dict(sorted(counts.items()))}; "
           + "; ".join(f"{k} acc {a:.3f} dos {d:.3f}"
                       for k, (a, d) in scores.items())
           + f"; {wall:.0f}s")


def test_11_determinism(default_bundle, tmp_path):
    second = tmp_path / "second"
    plan = planmod.calibrate(planmod.default_plan())
    harness.run(plan, str(second))
    names = sorted(os.listdir(default_bundle.out_dir))
    assert names == sorted(os.listdir(second))
    match, mismatch, errors = filecmp.cmpfiles(default_bundle.out_dir,
                                               str(second), names,
                                               shallow=False)
    assert mismatch == [] and errors == []
    assert sorted(match) == names
    ok(11, f"two runs, {len(names)} artifacts byte-identical")
