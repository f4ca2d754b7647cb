import json

import pytest

from iiotsim import attacks, cli, fieldbus, harness, netsim, plan as planmod

from conftest import TRACE_RE, effect, parse_trace, small_plan

ATTACKER_MAC = "00:0c:29:5b:a2:99"
ROUTER_MAC = "00:0c:29:6e:a7:ca"

LAN_A = {"192.168.10.150", "192.168.10.1", "192.168.10.20", "192.168.10.30",
         "192.168.10.151"}
LAN_W = {"192.168.20.1", "192.168.20.10", "192.168.20.25"}


def routed_gw_frames(result):
    """Frames the gateway sent toward the router as next hop."""
    out = []
    for f in result.sim.capture:
        if f.sender != "edge-gw" or f.l4 == "ARP" or f.segment != "lan-a":
            continue
        if f.dst_ip in LAN_A or f.dst_ip in LAN_W:
            continue
        out.append(f)
    return out


def spoof_attack(t_start=20.2, duration=30.0, kind="arp_spoof", scale=None):
    a = {"id": "atk", "kind": kind, "attacker": "attacker",
         "victim_a": "edge-gw", "victim_b": "router",
         "t_start_s": t_start, "duration_s": duration}
    if scale is not None:
        a["scale"] = scale
    return a


def test_every_plan_kind_builds_its_injector():
    assert planmod.ATTACK_KINDS == tuple(attacks.KINDS)
    plan = planmod.default_plan()
    build = harness.Build(plan)
    built = {a["kind"]: type(build.attack_objs[a["id"]])
             for a in plan["attacks"]}
    assert built == attacks.KINDS
    assert all(issubclass(cls, attacks.Injector)
               for cls in attacks.KINDS.values())


class TestArpSpoof:
    def test_all_routed_frames_carry_attacker_mac_in_window(self, tmp_path):
        plan = small_plan(duration_s=70.0, attacks=[spoof_attack()])
        result = harness.run(plan, str(tmp_path))
        window = result.windows[0]
        lo, hi = effect(window)
        inside = [f for f in routed_gw_frames(result) if lo <= f.ts_us <= hi]
        outside = [f for f in routed_gw_frames(result)
                   if not (lo <= f.ts_us <= hi)]
        assert inside
        assert all(f.dst_mac == ATTACKER_MAC for f in inside)
        assert outside
        assert all(f.dst_mac == ROUTER_MAC for f in outside)

    def test_cache_reconverges_after_window(self):
        plan = small_plan(duration_s=70.0, attacks=[spoof_attack()])
        build = harness.Build(plan)
        build.run()
        assert build.gw_host.arp_cache["192.168.10.1"][0] == ROUTER_MAC

    def test_cross_segment_victims_rejected(self):
        build = harness.Build(small_plan(duration_s=30.0))
        entry = dict(spoof_attack(t_start=1.0, duration=5.0),
                     victim_b="cloud")
        with pytest.raises(ValueError):
            attacks.ArpSpoof(build, entry)

    def test_window_ground_truth_recorded(self, tmp_path):
        plan = small_plan(duration_s=70.0, attacks=[spoof_attack()])
        result = harness.run(plan, str(tmp_path))
        w = result.windows[0]
        assert w.kind == "arp_spoof"
        assert w.attacker == "attacker"
        assert set(w.victims) == {"edge-gw", "router"}
        assert w.t_start_us <= effect(w)[0] < effect(w)[1] <= w.t_end_us


def forwarded_vs_cloud(result):
    fw = result.gateway.forwarded
    cl = result.broker.historian.rows
    assert len(fw) == len(cl)
    return list(zip(fw, cl))


class TestTamper:
    def test_scale_two_diverges_only_in_window(self, tmp_path):
        plan = small_plan(duration_s=90.0,
                          attacks=[spoof_attack(kind="tamper", scale=2.0,
                                                t_start=20.2, duration=40.0)])
        result = harness.run(plan, str(tmp_path))
        lo, hi = effect(result.windows[0])
        n_in = 0
        for (ts, topic, body), row in forwarded_vs_cloud(result):
            edge_val = json.loads(body)["Measurement"]
            if lo <= ts <= hi:
                assert row.measurement == 2.0 * edge_val
                n_in += 1
            else:
                assert row.measurement == edge_val
        assert n_in > 0

    def test_null_transform_keeps_historians_identical(self, tmp_path):
        plan = small_plan(duration_s=90.0,
                          attacks=[spoof_attack(kind="tamper", scale=1.0,
                                                t_start=20.2, duration=40.0)])
        result = harness.run(plan, str(tmp_path))
        for (ts, topic, body), row in forwarded_vs_cloud(result):
            assert row.measurement == json.loads(body)["Measurement"]

    def test_non_mqtt_frames_pass_unmodified(self):
        transform = attacks.scale_measurement_transform(2.0)
        raw = b'{"method": "GET", "path": "/api/snapshot"}'
        assert transform(raw) == raw
        assert transform(b"\x01\x02") == b"\x01\x02"

    @pytest.mark.parametrize("field", ["topic", "payload"])
    def test_publish_with_a_field_that_is_not_a_str_passes_unmodified(
            self, field):
        transform = attacks.scale_measurement_transform(2.0)
        pkt = {"type": "PUBLISH", "qos": 0, "topic": "plant/telemetry",
               "mid": 0, "payload": '{"Measurement": 1.5}'}
        pkt[field] = 5
        raw = json.dumps(pkt).encode()
        assert transform(raw) == raw

    def test_sys_topics_not_rewritten(self):
        transform = attacks.scale_measurement_transform(2.0)
        pkt = json.dumps({"type": "PUBLISH", "qos": 0,
                          "topic": "$SYS/broker/bytes/sent", "mid": 0,
                          "payload": "123"}).encode()
        assert transform(pkt) == pkt


class TestLogTamper:
    def exploited_build(self, duration=120.0):
        plan = small_plan(duration_s=duration, attacks=[
            {"id": "x", "kind": "exploit", "attacker": "attacker",
             "target": "router", "credentials": ["admin", "default"],
             "t_start_s": 5.0, "listener_port": 4444, "command_gap_s": 5.0,
             "sessions": [[10.0, 20.0]]},
        ])
        build = harness.Build(plan)
        build.run()
        return build

    def test_requires_foothold(self):
        plan = small_plan(duration_s=20.0)
        build = harness.Build(plan)
        build.run()
        with pytest.raises(PermissionError):
            attacks.log_tamper(build.sim, build.hosts["attacker"],
                               build.router, build.webgui, "shell")

    def test_deletes_only_matches_and_truth_keeps_all(self):
        build = self.exploited_build()
        before = list(build.router.syslog)
        matches = [e for e in before if "shell" in e[1]]
        assert matches
        attacks.log_tamper(build.sim, build.hosts["attacker"], build.router,
                           build.webgui, "shell")
        assert len(before) - len(build.router.syslog) == len(matches)
        assert all("shell" not in e[1] for e in build.router.syslog)
        truth = build.sim.syslog_truth["router"]
        assert [e for e in truth if "shell" in e[1]] == matches

    def test_empty_predicate_is_noop(self):
        build = self.exploited_build()
        before = list(build.router.syslog)
        attacks.log_tamper(build.sim, build.hosts["attacker"], build.router,
                           build.webgui, "")
        assert build.router.syslog == before

    def test_syslog_row_count_delta_matches_deletions(self):
        from iiotsim.hunt import parse_syslog
        build = self.exploited_build()
        fmt = lambda entries: [f"2019-01-01T00:00:00.000Z {t}"
                               for _, t in entries]
        before, _ = parse_syslog(fmt(build.router.syslog))
        matches = [text for text in before if "shell" in text]
        assert matches
        attacks.log_tamper(build.sim, build.hosts["attacker"], build.router,
                           build.webgui, "shell")
        after, _ = parse_syslog(fmt(build.router.syslog))
        assert len(before) - len(after) == len(matches)


    def test_plan_entry_without_foothold_adds_no_window(self):
        build = harness.Build(small_plan(duration_s=20.0, attacks=[
            {"id": "lt", "kind": "log_tamper", "attacker": "attacker",
             "target": "router", "t_start_s": 10.0}]))
        build.run()
        assert build.windows == []
        assert build.router.syslog == build.sim.syslog_truth["router"]

    def test_router_without_webgui_gives_no_foothold(self, tmp_path):
        plan = small_plan(duration_s=20.0, attacks=[
            {"id": "lt", "kind": "log_tamper", "attacker": "attacker",
             "target": "router", "t_start_s": 5.0}])
        del next(h for h in plan["hosts"] if h["id"] == "router")["webgui"]
        assert planmod.validate_plan(plan) == []
        build = harness.Build(plan)
        assert build.webgui is None
        build.run()
        assert build.windows == []
        assert build.router.syslog == build.sim.syslog_truth["router"]
        path = tmp_path / "plan.json"
        harness.write_json(plan, str(path))
        assert cli.main(["--quiet", "run", "--plan", str(path),
                         "--out", str(tmp_path / "out")]) == 0

    def test_plan_entry_after_exploit_joins_windows_at_its_start(
            self, tmp_path):
        plan = small_plan(duration_s=40.0, attacks=[
            {"id": "x", "kind": "exploit", "attacker": "attacker",
             "target": "router", "credentials": ["admin", "default"],
             "t_start_s": 5.0, "command_gap_s": 2.0,
             "sessions": [[10.0, 5.0]]},
            {"id": "lt", "kind": "log_tamper", "attacker": "attacker",
             "target": "router", "t_start_s": 25.0}])
        result = harness.run(plan, str(tmp_path))
        assert [w.kind for w in result.windows] == [
            "exploit", "reverse_shell", "log_tamper"]
        window = result.windows[-1]
        assert window.t_start_us == window.t_end_us == 25_000_000
        assert (window.attacker, window.victims) == ("attacker", ("router",))
        tampered = (tmp_path / "syslog_router.txt").read_text()
        truth = (tmp_path / "syslog_router_truth.txt").read_text()
        assert "shell" not in tampered and "shell" in truth
        lines = (tmp_path / "attack_windows.jsonl").read_text().splitlines()
        assert json.loads(lines[-1])["kind"] == "log_tamper"


def extracted_values(lines) -> list:
    """mpl_decode every complete 6-byte read among sniffed trace lines."""
    out = []
    for line in lines:
        txn = parse_trace(line)
        if txn.acked and len(txn.data) == 6:
            sample = fieldbus.mpl_decode(bytes(txn.data))
            out.append((sample.celsius, sample.kilopascal))
    return out


class TestI2cSniff:
    def test_reference_line_and_extraction(self):
        plan = small_plan(duration_s=30.0, attacks=[
            {"id": "s", "kind": "i2c_sniff", "t_start_s": 0.0,
             "duration_s": 30.0}])
        plan["plant"]["sensors"]["mpl-temp"].update(init=23.9375, walk_step=0.0)
        plan["plant"]["sensors"]["mpl-press"].update(init=94.73775,
                                                     walk_step=0.0)
        build = harness.Build(plan)
        build.run()
        sniffer = build.attack_objs["s"]
        assert "[C0+01+[C1+5C+84+70+17+F0+00-]" in sniffer.lines
        values = extracted_values(sniffer.lines)
        assert values
        assert all(v == (23.9375, 94.73775) for v in values)

    def test_every_sniffed_line_reparses(self):
        plan = small_plan(duration_s=30.0, attacks=[
            {"id": "s", "kind": "i2c_sniff", "t_start_s": 0.0,
             "duration_s": 30.0}])
        build = harness.Build(plan)
        build.run()
        for line in build.attack_objs["s"].lines:
            assert TRACE_RE.match(line)
            parse_trace(line)

    def test_empty_window(self):
        plan = small_plan(duration_s=10.0, attacks=[
            {"id": "s", "kind": "i2c_sniff", "t_start_s": 9.99,
             "duration_s": 0.001}])
        build = harness.Build(plan)
        build.run()
        assert build.attack_objs["s"].lines == []


    @pytest.mark.parametrize("attacker", [None, "mobile"])
    def test_window_names_the_entry_attacker(self, attacker):
        entry = {"id": "s", "kind": "i2c_sniff", "t_start_s": 1.0,
                 "duration_s": 2.0}
        if attacker:
            entry["attacker"] = attacker
        build = harness.Build(small_plan(duration_s=10.0, attacks=[entry]))
        assert build.windows[0].attacker == (attacker or "attacker")
        assert build.windows[0].victims == ("i2c-0",)


class TestModbusFlood:
    def flood_plan(self, rate=400, duration=5.0, target="plc"):
        return small_plan(duration_s=40.0, attacks=[
            {"id": "dos", "kind": "modbus_dos", "attacker": "attacker",
             "target": target, "t_start_s": 10.1, "duration_s": duration,
             "rate_per_s": rate, "addr_lo": 0, "addr_hi": 199,
             "reqs_per_conn": 10}])

    def test_request_volume(self, tmp_path):
        result = harness.run(self.flood_plan(), str(tmp_path))
        lo, hi = result.windows[0].t_start_us, result.windows[0].t_end_us
        captured = [f for f in result.sim.capture
                    if f.sender == "attacker" and f.proto_tag == "MODBUS"
                    and f.payload and lo <= f.ts_us <= hi]
        assert len(captured) >= 0.9 * 400 * 5

    def test_a_flood_at_a_closed_port_writes_only_while_connecting(
            self, tmp_path):
        # each connection's first request is held, then dropped by the RST;
        # the rest find the stream refused and are not written
        result = harness.run(self.flood_plan(target="router"), str(tmp_path))
        sent = [f for f in result.sim.capture
                if f.sender == "attacker" and f.proto_tag == "MODBUS"]
        assert len(sent) == 400 * 5 // 10
        assert all(f.tcp_flags == ("SYN",) for f in sent)

    def test_requests_join_the_heap_one_at_a_time(self):
        build = harness.Build(self.flood_plan())
        quiet = harness.Build(small_plan(duration_s=40.0))
        # all 2,000 requests are numbered at build time, one is queued
        assert build.sim._eseq == quiet.sim._eseq + 400 * 5
        assert len(build.sim._events) == len(quiet.sim._events) + 1

    def test_address_range_is_read_from_addr_lo_up(self):
        plan = self.flood_plan()
        plan["attacks"][0].update(addr_lo=100, addr_hi=50)
        assert planmod.validate_plan(plan) == [
            "attack 'dos': addr_hi must be an integer in [100, 65535], got 50"]
        del plan["attacks"][0]["addr_hi"]
        for lo, hi in ((100, 199), (300, 300)):
            plan["attacks"][0]["addr_lo"] = lo
            assert harness.Build(plan).attack_objs["dos"].addr_hi == hi

    def test_zero_rate_rejected(self):
        plan = self.flood_plan(rate=0)
        with pytest.raises(Exception):
            harness.Build(plan)

    def test_legit_read_succeeds_during_flood(self, tmp_path):
        result = harness.run(self.flood_plan(), str(tmp_path))
        lo, hi = result.windows[0].t_start_us, result.windows[0].t_end_us
        plc_rows = [r for r in result.gateway.historian.rows
                    if r.device_id == "Slave 2" and lo <= r.ts_us <= hi]
        assert plc_rows

    def test_scan_jitter_bounded(self, tmp_path):
        result = harness.run(self.flood_plan(), str(tmp_path))
        scans = result.plc.scan_log
        period = result.plc.scan_period_us
        devs = [abs((scans[i + 1] - scans[i]) - period) / period
                for i in range(len(scans) - 1)]
        assert max(devs) <= 0.10 + 1e-9


class TestRogueSubscriber:
    def rogue_plan(self, filters, acl=False):
        plan = small_plan(duration_s=60.0, attacks=[
            {"id": "r", "kind": "rogue_subscriber", "attacker": "attacker",
             "broker_host": "cloud", "filters": filters, "t_start_s": 5.1,
             "duration_s": 50.0, "cycle_s": 4.0}])
        if acl:
            plan["broker"]["acl_enabled"] = True
            plan["broker"]["allowlist"] = ["192.168.10.150"]
        return plan

    def test_wildcards_capture_sys_and_telemetry(self, tmp_path):
        result = harness.run(self.rogue_plan(["#", "$SYS/#"]),
                             str(tmp_path))
        transcript = result.attack_objs["r"].transcript
        assert any(line.startswith("$SYS/broker/version: ")
                   for line in transcript)
        plc_lines = [l for l in transcript if l.startswith("station/PLC: ")]
        assert plc_lines
        body = json.loads(plc_lines[0].split(": ", 1)[1])
        assert body["Device Type"] == "PLC MODBUS"

    def test_single_topic_filter(self, tmp_path):
        result = harness.run(self.rogue_plan(["station/PLC"]),
                             str(tmp_path))
        transcript = result.attack_objs["r"].transcript
        assert transcript
        assert all(l.startswith("station/PLC: ") for l in transcript)

    def test_acl_refuses_connection(self, tmp_path):
        result = harness.run(self.rogue_plan(["#"], acl=True),
                             str(tmp_path))
        assert result.attack_objs["r"].transcript == []
        rogue_ip = result.sim.hosts["attacker"].interfaces[0].ip
        sent = [json.loads(f.payload)["type"] for f in result.sim.capture
                if f.proto_tag == "MQTT" and f.src_ip == rogue_ip
                and f.payload]
        acks = [json.loads(f.payload) for f in result.sim.capture
                if f.proto_tag == "MQTT" and f.dst_ip == rogue_ip
                and f.payload]
        # every cycle's CONNECT is answered with a refusal, and nothing else
        assert sent and set(sent) == {"CONNECT"}
        assert len(acks) == len(sent)
        assert all(a == {"type": "CONNACK", "rc": 5} for a in acks)


def scan_open_ports(result, target) -> set:
    """The ports target answered a SCAN probe on with SYN_ACK, as the
    capture shows them."""
    return {f.src_port for f in result.sim.capture
            if f.proto_tag == "SCAN" and f.sender == target
            and f.tcp_flags == netsim.SYN_ACK}


class TestPortScan:
    def test_router_scan_reports_https(self, tmp_path):
        plan = small_plan(duration_s=20.0, attacks=[
            {"id": "scan", "kind": "recon", "attacker": "attacker",
             "target": "router", "t_start_s": 5.0,
             "ports": [22, 443, 9999]}])
        result = harness.run(plan, str(tmp_path))
        assert scan_open_ports(result, "router") == {443}

    def test_all_closed_host(self, tmp_path):
        plan = small_plan(duration_s=20.0, attacks=[
            {"id": "scan", "kind": "recon", "attacker": "attacker",
             "target": "pc", "t_start_s": 5.0, "ports": [22, 80, 443]}])
        result = harness.run(plan, str(tmp_path))
        assert scan_open_ports(result, "pc") == set()
        # every port was probed, and each refused the probe
        assert {f.dst_port for f in result.sim.capture
                if f.proto_tag == "SCAN" and f.sender == "attacker"
                and f.tcp_flags == netsim.SYN} == {22, 80, 443}


class TestWebEnum:
    def test_requests_per_session_and_window_bounds(self, tmp_path):
        plan = small_plan(duration_s=30.0, attacks=[
            {"id": "enum", "kind": "web_enum", "attacker": "attacker",
             "target": "router", "t_start_s": 5.0, "sessions": 2,
             "session_duration_s": 5.0, "request_period_s": 1.0}])
        result = harness.run(plan, str(tmp_path))
        window = result.windows[0]
        assert (window.kind, window.attacker, window.victims) == (
            "recon", "attacker", ("router",))
        # two sessions of 5 s plus a second each
        assert (window.t_start_us, window.t_end_us) == (5_000_000,
                                                        17_000_000)
        paths = {}
        for f in result.sim.capture:
            if f.sender == "attacker" and f.dst_port == 443 and f.payload:
                assert window.t_start_us <= f.ts_us <= window.t_end_us
                paths.setdefault(f.src_port, []).append(
                    json.loads(f.payload)["path"])
        assert sorted(paths.values()) == [
            [f"/admin/dir{k}/page{i:04d}" for i in range(1, 6)]
            for k in range(2)]


class TestExploit:
    def exploit_plan(self, credentials=("admin", "default"), vulnerable=True,
                     sessions=((10.0, 20.0), (31.0, 8.5))):
        plan = small_plan(duration_s=60.0, attacks=[
            {"id": "x", "kind": "exploit", "attacker": "attacker",
             "target": "router", "credentials": list(credentials),
             "t_start_s": 5.0, "listener_port": 4444, "command_gap_s": 5.0,
             "sessions": [list(s) for s in sessions]}])
        for h in plan["hosts"]:
            if h["id"] == "router":
                h["webgui"]["vulnerable"] = vulnerable
        return plan

    def test_sessions_originate_from_victim(self, tmp_path):
        result = harness.run(self.exploit_plan(), str(tmp_path))
        convs = [c for c in result.conversations if c.resp_port == 4444]
        assert len(convs) == 2
        assert all(c.orig_ip == "192.168.10.1" for c in convs)
        assert all(c.resp_ip == "192.168.10.151" for c in convs)

    def test_session_durations_exact(self, tmp_path):
        result = harness.run(self.exploit_plan(), str(tmp_path))
        convs = sorted((c for c in result.conversations
                        if c.resp_port == 4444),
                       key=lambda c: c.ts_first_us)
        assert [c.duration_s for c in convs] == [20.0, 8.5]

    def test_commands_and_root_marker(self, tmp_path):
        result = harness.run(self.exploit_plan(), str(tmp_path))
        syslog = [text for _, text in result.sim.hosts["router"].syslog]
        assert any("graph payload uploaded" in text for text in syslog)
        assert any("reverse shell" in text for text in syslog)
        # the victim opened each shell, so the listener's port is 4444
        commands = [f.payload for f in result.sim.capture
                    if f.src_port == 4444 and f.payload]
        outputs = [f.payload for f in result.sim.capture
                   if f.dst_port == 4444 and f.payload]
        assert commands
        assert outputs == [c + b": uid=0(root) gid=0(wheel)"
                           for c in commands]

    def test_wrong_credentials_fail(self, tmp_path):
        result = harness.run(self.exploit_plan(credentials=("admin", "wrong")),
                             str(tmp_path))
        syslog = [text for _, text in result.sim.hosts["router"].syslog]
        assert any("webgui: failed login" in text for text in syslog)
        assert not any("graph payload uploaded" in text for text in syslog)
        assert not [c for c in result.conversations if c.resp_port == 4444]

    def test_not_vulnerable_fails(self, tmp_path):
        result = harness.run(self.exploit_plan(vulnerable=False),
                             str(tmp_path))
        syslog = [text for _, text in result.sim.hosts["router"].syslog]
        assert any("webgui: login admin" in text for text in syslog)
        assert not any("graph payload uploaded" in text for text in syslog)
        assert not [c for c in result.conversations if c.resp_port == 4444]


class TestReadWindows:
    RECORD = {"kind": "modbus_dos", "t_start_us": 200_200_000,
              "t_end_us": 260_700_000, "attacker": "attacker",
              "victims": ["192.168.20.25"], "effect_start_us": None,
              "effect_end_us": None}

    def write(self, tmp_path, **change):
        path = tmp_path / "attack_windows.jsonl"
        path.write_text(json.dumps(self.RECORD) + "\n"
                        + json.dumps({**self.RECORD, **change}) + "\n")
        return path

    @pytest.mark.parametrize("key,value", [
        ("t_start_us", "200200000"), ("t_start_us", True),
        ("t_start_us", 200200000.0), ("t_end_us", "260700000"),
        ("t_end_us", None), ("effect_start_us", "200300000"),
        ("effect_end_us", 1.5), ("effect_end_us", False),
        ("kind", 3), ("attacker", None), ("victims", "192.168.20.25"),
        ("victims", [3]), ("victims", None)])
    def test_a_record_of_the_wrong_kind_is_refused(self, tmp_path, key,
                                                    value):
        path = self.write(tmp_path, **{key: value})
        with pytest.raises(ValueError, match=f"bad window record 2: "
                                             f"TypeError: {key} "):
            attacks.read_windows_jsonl(path)

    @pytest.mark.parametrize("change,error", [
        ({"t_start_us": 260_700_000, "t_end_us": 200_200_000},
         "t_end_us 200200000 is before t_start_us 260700000"),
        ({"effect_start_us": 200_100_000},
         r"effect_start_us 200100000 is outside \[200200000, 260700000\]"),
        ({"effect_end_us": 260_700_001},
         r"effect_end_us 260700001 is outside \[200200000, 260700000\]"),
        ({"effect_start_us": 230_000_000, "effect_end_us": 220_000_000},
         "effect_end_us 220000000 is before effect_start_us 230000000")])
    def test_times_out_of_order_are_refused(self, tmp_path, change, error):
        path = self.write(tmp_path, **change)
        with pytest.raises(ValueError, match=f"bad window record 2: "
                                             f"ValueError: {error}"):
            attacks.read_windows_jsonl(path)

    @pytest.mark.parametrize("tail,keys", [
        # a second kind, whose last value json.loads would keep
        (', "kind": "recon"}', list(attacks.WINDOW_KEYS) + ["kind"]),
        (', "attacker": "plc"}', list(attacks.WINDOW_KEYS) + ["attacker"]),
        (', "note": 1}', list(attacks.WINDOW_KEYS) + ["note"])])
    def test_a_key_to_json_does_not_write_is_refused(self, tmp_path, tail,
                                                     keys):
        path = tmp_path / "attack_windows.jsonl"
        line = json.dumps(self.RECORD)
        path.write_text(line + "\n" + line[:-1] + tail + "\n")
        with pytest.raises(ValueError) as error:
            attacks.read_windows_jsonl(path)
        assert str(error.value) == (
            f"{path}: bad window record 2: ValueError: keys {keys} are not "
            f"{list(attacks.WINDOW_KEYS)}")

    @pytest.mark.parametrize("keys", [
        attacks.WINDOW_KEYS[:-1],
        attacks.WINDOW_KEYS[1:] + attacks.WINDOW_KEYS[:1]])
    def test_a_missing_or_moved_key_is_refused(self, tmp_path, keys):
        path = tmp_path / "attack_windows.jsonl"
        path.write_text(json.dumps(self.RECORD) + "\n" + json.dumps(
            {k: self.RECORD[k] for k in keys}) + "\n")
        with pytest.raises(ValueError, match=r"bad window record 2: "
                                             r"ValueError: keys \["):
            attacks.read_windows_jsonl(path)

    def test_a_record_that_is_not_an_object_is_refused(self, tmp_path):
        path = tmp_path / "attack_windows.jsonl"
        path.write_text(json.dumps(list(self.RECORD.items())) + "\n")
        with pytest.raises(ValueError, match="bad window record 1: "
                                             "TypeError: .* is not a JSON "
                                             "object"):
            attacks.read_windows_jsonl(path)

    def test_times_at_their_bounds_are_read(self, tmp_path):
        path = self.write(tmp_path, t_end_us=200_200_000,
                          effect_start_us=200_200_000,
                          effect_end_us=200_200_000)
        window = attacks.read_windows_jsonl(path)[1]
        assert (window.t_start_us, window.t_end_us, window.effect_start_us,
                window.effect_end_us) == (200_200_000,) * 4
