import csv
import filecmp
import gc
import hashlib
import importlib.resources
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from array import array

import pytest

import iiotsim
from iiotsim import analytics, cli, harness, netsim, plan as planmod

from conftest import (reference_conversations, reference_label_dataset,
                      small_plan)


def as_lists(labelled) -> tuple:
    """label_dataset's result with its rows view read into a list."""
    rows, counts, dropped = labelled
    return list(rows), counts, dropped


class TestPlanValidation:
    def test_default_plan_is_clean(self):
        assert planmod.validate_plan(planmod.default_plan()) == []

    def test_default_plan_is_a_fresh_copy_of_the_shipped_file(self):
        first, second = planmod.default_plan(), planmod.default_plan()
        first["attacks"][7]["sessions"][0][1] = 1.0    # a nested list
        assert second == planmod.default_plan() != first
        shipped = importlib.resources.files("iiotsim").joinpath(
            "data/default_plan.json")
        with importlib.resources.as_file(shipped) as path:
            assert planmod.load_plan(path) == planmod.default_plan()

    def test_save_load_round_trip(self, tmp_path):
        plan = planmod.default_plan()
        path = tmp_path / "plan.json"
        harness.write_json(plan, path)
        assert planmod.load_plan(path) == plan

    def test_ghost_host_named_in_error(self):
        plan = planmod.default_plan()
        plan["attacks"][1]["attacker"] = "ghost"
        errors = planmod.validate_plan(plan)
        assert any("ghost" in e for e in errors)

    def test_all_errors_reported_not_just_first(self):
        plan = planmod.default_plan()
        plan["duration_s"] = -5
        plan["attacks"][0]["kind"] = "zaps"
        plan["attacks"][1]["attacker"] = "ghost"
        plan["hosts"][0]["interfaces"][0][0] = "no-such-segment"
        errors = planmod.validate_plan(plan)
        assert len(errors) >= 4

    def test_duplicate_attack_ids(self):
        plan = planmod.default_plan()
        plan["attacks"][1]["id"] = plan["attacks"][0]["id"]
        assert any("duplicate attack id" in e
                   for e in planmod.validate_plan(plan))

    def test_unknown_output_rejected(self):
        plan = planmod.default_plan()
        plan["outputs"] = ["capture", "captur"]
        assert planmod.validate_plan(plan) == [
            "unknown output 'captur'; known: " + ", ".join(planmod.OUTPUTS)]
        plan["outputs"] = "capture"
        assert any("must be a list" in e for e in planmod.validate_plan(plan))
        plan["outputs"] = []
        assert planmod.validate_plan(plan) == []

    # address text the validators once let through: a MAC that `$` matched
    # before its newline, and octets that int() read; the last two are pc's
    # address on pc's segment, in Arabic-Indic digits and with leading
    # zeros, which the duplicate-IP check compared as text
    @pytest.mark.parametrize("index,value", [
        (1, "b8:27:eb:aa:00:02\n"), (2, " 192.168.10.20"),
        (2, "+192.168.10.20"), (2, "1_92.168.10.20"),
        (2, "\u0661\u0669\u0662.168.10.30"), (2, "192.168.010.030")])
    def test_address_text_the_writer_would_escape_is_refused(self, index,
                                                             value):
        plan = planmod.default_plan()
        plc = next(h for h in plan["hosts"] if h["id"] == "plc")
        plc["interfaces"][0][index] = value
        field = ("MAC address", "IPv4 address")[index - 1]
        assert (f"host 'plc': {field} {value!r} is not valid"
                in planmod.validate_plan(plan))

    def test_attack_past_end_of_run(self):
        plan = small_plan(duration_s=10.0, attacks=[
            {"id": "x", "kind": "i2c_sniff", "t_start_s": 5.0,
             "duration_s": 60.0}])
        assert any("past the end" in e for e in planmod.validate_plan(plan))

    # a field is deleted or set to one of these JSON values
    MUTATIONS = (None, "null", '"x"', "-1", "[]", "{}")

    @classmethod
    def field_paths(cls, node, path=()):
        """The key path of every field of node, at any depth."""
        if isinstance(node, dict):
            items = node.items()
        elif isinstance(node, list):
            items = enumerate(node)
        else:
            return
        for key, value in items:
            yield path + (key,)
            yield from cls.field_paths(value, path + (key,))

    def mutated_plans(self, count, seed):
        """count default plans, each with one field deleted or replaced,
        drawn by seed from every field and mutation."""
        cases = list(itertools.product(
            self.field_paths(planmod.default_plan()), self.MUTATIONS))
        for path, text in random.Random(seed).sample(cases, count):
            yield self.mutated(planmod.default_plan(), path, text)

    @staticmethod
    def mutated(plan, path, text):
        """plan with the field at path deleted (text None) or set to the
        JSON text."""
        owner = plan
        for key in path[:-1]:
            owner = owner[key]
        if text is None:
            del owner[path[-1]]
        else:
            owner[path[-1]] = json.loads(text)
        return plan

    def test_one_wrong_field_is_an_error_not_an_exception(self):
        for plan in self.mutated_plans(600, seed=12):
            errors = planmod.validate_plan(plan)
            assert all(isinstance(e, str) for e in errors), errors

    def test_address_fields_fail_validation_not_the_run(self):
        """Each segment's subnet and each interface's MAC and IP, deleted or
        set to each mutation: the plan is invalid, or it builds and runs."""
        paths = [path for path in self.field_paths(small_plan())
                 if path[-1] == "subnet" or (path[2:3] == ("interfaces",)
                                             and path[4:] in ((1,), (2,)))]
        assert len(paths) == 3 + 2 * 11
        texts = self.MUTATIONS + ("5", '"10.0.0.0/33"', '"02:00:00:00:00"',
                                  '"192.168.10.256"')
        ran = 0
        for path, text in itertools.product(paths, texts):
            plan = self.mutated(small_plan(duration_s=2.0), path, text)
            if not planmod.validate_plan(plan):
                harness.Build(plan).run()
                ran += 1
        assert ran == 2 * 3      # the subnets deleted or null

    def test_wrong_typed_fields_are_named(self):
        plan = planmod.default_plan()
        plan["attacks"][0]["t_start_s"] = "x"
        plan["hosts"][0]["interfaces"] = -1
        plan["hosts"][1] = None
        plan["traffic"] = "x"
        plan["segments"]["lan-a"]["base_latency_us"] = "x"
        plan["segments"]["lan-a"]["loss_rate"] = 1.5
        plan["segments"]["lan-w"]["jitter_us"] = -1
        del plan["segments"]["wan"]["base_latency_us"]
        plan["segments"]["wan"]["loss_rate"] = "x"
        plan["segments"]["lan-a"]["subnet"] = "x"
        plan["segments"]["lan-w"]["subnet"] = 5
        plan["hosts"][2]["interfaces"][0][1] = "b8:27:eb:aa:00"
        plan["hosts"][3]["interfaces"][0][2] = "192.168.10.256"
        errors = planmod.validate_plan(plan)
        for error in ("host 'edge-gw' interfaces must be a list, got -1",
                      "host 1 must be an object, got None",
                      "traffic must be an object, got 'x'",
                      "attack 'sniff-1': t_start_s must be a number, got 'x'",
                      "segment 'lan-a': base_latency_us must be a "
                      "non-negative number, got 'x'",
                      "segment 'lan-a': loss_rate must be a number in "
                      "[0, 1], got 1.5",
                      "segment 'lan-w': jitter_us must be a non-negative "
                      "number, got -1",
                      "segment 'wan': base_latency_us must be a non-negative "
                      "number, got None",
                      "segment 'wan': loss_rate must be a number in [0, 1], "
                      "got 'x'",
                      "segment 'lan-a': subnet 'x' is not valid",
                      "segment 'lan-w': subnet 5 is not valid",
                      "host 'plc': MAC address 'b8:27:eb:aa:00' is not valid",
                      "host 'pc': IPv4 address '192.168.10.256' is not "
                      "valid"):
            assert error in errors
        plan = planmod.default_plan()
        plan["segments"]["wan"] = []
        assert planmod.validate_plan(plan) == [
            "segment 'wan' must be an object, got []"]

    def test_validate_command_exits_0_or_2_on_one_wrong_field(
            self, tmp_path, capsys):
        path = str(tmp_path / "plan.json")
        for plan in self.mutated_plans(100, seed=13):
            harness.write_json(plan, path)
            code = cli.main(["--quiet", "validate", "--plan", path])
            err = capsys.readouterr().err
            assert code in (0, 2)
            if code == 2:
                assert json.loads(err)["error"] == "plan is invalid"
            else:
                assert err == ""

    def test_one_wrong_read_field_is_invalid_or_runs(self):
        """Mutations of the sections harness.Build reads: each plan is
        invalid, or it builds and runs its first 2 s."""
        sections = ("plant", "gateway", "broker", "traffic", "acl",
                    "latency_targets_ms")
        cases = [(path, text) for path in self.field_paths(
            planmod.default_plan()) if path[0] in sections
            for text in self.MUTATIONS]
        ran = 0
        for path, text in random.Random(14).sample(cases, 150):
            plan = self.mutated(planmod.default_plan(), path, text)
            if not planmod.validate_plan(plan):
                harness.Build(plan).sim.run_until(2_000_000)
                ran += 1
        assert 0 < ran < 150

    @pytest.mark.parametrize("path,text", [
        (("plant", "tick_period_s"), "0"),
        (("plant", "plc", "scan_period_ms"), "0.001"),
        (("attacks", 1, "poison_period_s"), "0"),
        (("attacks", 1, "poison_period_s"), "-1"),
        (("attacks", 4, "cycle_s"), "0"),
        (("attacks", 4, "cycle_s"), "0.1"),
        (("attacks", 7, "command_gap_s"), "0"),
        (("attacks", 6, "request_period_s"), "0"),
        (("acl", "rules", 0, "src"), '"x"'),
        (("segments", "lan-a", "subnet"), '"192.168.10.0/ 24"'),
        (("segments", "lan-a", "subnet"), '"192.168.10.0/\u0662\u0664"'),
        (("segments", "lan-a", "subnet"), '"192.168.10.0/+24"'),
        (("segments", "lan-a", "subnet"), '"192.168.10.0/2_4"'),
        (("broker", "allowlist"), '["192.168.010.150"]'),
        (("broker", "allowlist"), '["x"]')])
    def test_periods_and_acl_addresses_are_checked_where_read(
            self, tmp_path, capsys, path, text):
        """Each of these validated once; its run then hung or raised, or,
        for a subnet, took a prefix length int() read from other text than
        1-2 ASCII digits, or, for the broker's allowlist, which it compares
        with each client's address text, matched no client."""
        path_text = str(tmp_path / "plan.json")
        harness.write_json(self.mutated(planmod.default_plan(), path, text),
                           path_text)
        assert cli.main(["--quiet", "validate", "--plan", path_text]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "plan is invalid"
        assert len(error["details"]) == 1
        assert f"{path[-1]} " in error["details"][0]

    def test_an_exploit_session_before_its_window_ends_is_refused(self):
        """Sessions are armed when the upload succeeds, so such a session
        was scheduled in the past and the clock ran backwards."""
        plan = planmod.default_plan()
        exploit = plan["attacks"][7]
        assert (exploit["id"], exploit["t_start_s"]) == ("exploit-1", 1990.0)
        exploit["sessions"].append([1000.0, 100.0])
        assert planmod.validate_plan(plan) == [
            "attack 'exploit-1': sessions 5: start must be a time of at least "
            "1992.0 s, got 1000.0"]
        exploit["sessions"][-1][0] = 1992.0     # the window's end itself
        assert planmod.validate_plan(plan) == []

    def test_a_time_fields_bound_is_stated_in_its_own_unit(self):
        plan = planmod.default_plan()
        plan["plant"]["tick_period_s"] = 0
        plan["plant"]["plc"]["scan_period_ms"] = 0.001
        assert planmod.validate_plan(plan) == [
            "plant.tick_period_s must be a time of at least 1e-06 s, got 0",
            "plant.plc.scan_period_ms must be a time of at least 0.002 ms, "
            "got 0.001"]


class TestCalibration:
    def test_solves_service_times(self):
        plan = planmod.calibrate(planmod.default_plan())
        svc = plan["service_times_us"]
        # MODBUS: 10.94 ms minus one LAN round trip (2 x 80 us)
        assert svc["MODBUS"] == 10940 - 160
        assert svc["I2C"] == 1340
        # MQTT: (8.6 ms - 4 one-way crossings of 320 us) / 2
        assert svc["MQTT"] == int(round((8600 - 4 * 320) / 2))

    # the service times of a plan that neither gives nor calibrates them
    FALLBACK_US = {"MODBUS": 10_780, "SMTP": 12_180, "MQTT": 3_660,
                   "I2C": 1_340, "COAP": 7_260, "DNS": 81, "HTTP": 346_310,
                   "API": 10_020}

    @staticmethod
    def built_service_times(plan) -> dict:
        build = harness.Build(plan)

        def tcp(host, port):
            return host._tcp_services[port].service_time_us

        return {"MODBUS": tcp(build.plc_host, 502),
                "SMTP": tcp(build.mail_host, 25),
                "MQTT": build.broker.service_time_us,
                "I2C": build.i2c_bus.service_time_us,
                "COAP": build.gateway.svc_us["COAP"],
                "DNS": build.gateway.svc_us["DNS"],
                "HTTP": tcp(build.gw_host, 80),
                "API": tcp(build.gw_host, 8080)}

    def test_uncalibrated_services_take_the_fallback_times(self):
        plan = small_plan(duration_s=10.0)
        del plan["latency_targets_ms"]
        assert plan["service_times_us"] == {}
        assert self.built_service_times(plan) == self.FALLBACK_US

    def test_one_target_calibrates_only_its_service(self):
        plan = small_plan(duration_s=10.0)
        plan["latency_targets_ms"] = {"MODBUS": 12.0}
        # 12 ms minus one LAN round trip (2 x 80 us)
        assert self.built_service_times(plan) == {**self.FALLBACK_US,
                                                  "MODBUS": 12_000 - 160}

    def test_infeasible_target_detected(self):
        plan = planmod.default_plan()
        plan["latency_targets_ms"]["MODBUS"] = 0.0
        with pytest.raises(planmod.CalibrationError):
            planmod.calibrate(plan)

    def test_measured_means_within_twenty_percent_short_run(self, tmp_path):
        plan = planmod.calibrate(small_plan(duration_s=120.0))
        result = harness.run(plan, str(tmp_path))
        # the I2C mean comes from the live bus, so run_summary.json holds it
        with open(tmp_path / "run_summary.json") as fh:
            live = json.load(fh)["response_times_ms"]
        assert list(live) == ["I2C"]
        rts = {**result.metrics["response_times_ms"], **live}
        for proto, target in plan["latency_targets_ms"].items():
            measured = rts[proto]["mean_ms"]
            assert rts[proto]["count"] > 0, proto
            assert abs(measured - target) <= 0.2 * target, (proto, measured)


ARTIFACTS = ("capture.jsonl", "conn.log", "edge_historian.csv",
             "cloud_historian.csv", "attack_windows.jsonl", "dataset.csv",
             "metrics_report.json", "run_summary.json")


# SHA-256 of every file of the golden bundles and detection reports, in
# sha256sum's format. A change that alters any byte must update it and say
# why in CHANGES.md.
GOLDEN_MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "golden.sha256")


def digests(directory, prefix, skip=()) -> dict:
    """prefix/name -> SHA-256 of each file in directory but those skipped."""
    out = {}
    for name in os.listdir(directory):
        if name not in skip:
            with open(os.path.join(directory, name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[f"{prefix}/{name}"] = digest
    return out


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_bundle")
    plan = small_plan(duration_s=60.0, attacks=[
        {"id": "dos", "kind": "modbus_dos", "attacker": "attacker",
         "target": "plc", "t_start_s": 20.1, "duration_s": 5.0,
         "rate_per_s": 200, "addr_lo": 0, "addr_hi": 50},
    ])
    plan["outputs"] = ["capture", "conn_log", "historians", "windows",
                       "dataset", "metrics", "hunt"]
    result = harness.run(plan, str(out))
    return result, str(out)


class TestRunArtifacts:
    def test_all_files_exist(self, bundle):
        result, out = bundle
        for name in ARTIFACTS:
            assert os.path.exists(os.path.join(out, name)), name
        assert os.path.exists(os.path.join(out, "hunt_report.json"))

    def test_capture_schema(self, bundle):
        result, out = bundle
        with open(os.path.join(out, "capture.jsonl")) as fh:
            rec = json.loads(fh.readline())
        for field in ("ts_us", "src_mac", "dst_mac", "src_ip", "src_port",
                      "dst_ip", "dst_port", "l4", "tcp_flags", "len",
                      "proto_tag", "payload_b64"):
            assert field in rec

    def test_conn_log_schema(self, bundle):
        result, out = bundle
        rows = analytics.read_conn_log(os.path.join(out, "conn.log"))
        assert rows
        assert rows[0]["duration"] >= 0.0

    def test_historian_csvs(self, bundle):
        result, out = bundle
        for name in ("edge_historian.csv", "cloud_historian.csv"):
            with open(os.path.join(out, name)) as fh:
                header = next(csv.reader(fh))
            assert header == list(
                ("Record_ID", "Time", "Device_ID", "Device_Type",
                 "Measurement", "Function", "Content_Type"))

    def test_windows_jsonl(self, bundle):
        result, out = bundle
        from iiotsim.attacks import read_windows_jsonl
        windows = read_windows_jsonl(os.path.join(out,
                                                  "attack_windows.jsonl"))
        assert [w.kind for w in windows] == ["modbus_dos"]

    def test_dataset_header(self, bundle):
        result, out = bundle
        with open(os.path.join(out, "dataset.csv")) as fh:
            header = next(csv.reader(fh))
        assert header == list(analytics.FEATURE_COLUMNS) + ["label"]

    def test_record_ids_gapless(self, bundle):
        result, out = bundle
        ids = [r.record_id for r in result.gateway.historian.rows]
        assert ids == list(range(1, len(ids) + 1))

    @pytest.mark.parametrize("outputs", [[], None])
    def test_empty_outputs_select_every_artifact(self, tmp_path, outputs):
        plan = small_plan(duration_s=20.0)
        if outputs is None:
            del plan["outputs"]
        else:
            plan["outputs"] = outputs
        harness.run(plan, str(tmp_path))
        names = set(os.listdir(tmp_path))
        assert set(ARTIFACTS) | {"hunt_report.json"} <= names

    def test_no_modbus_response_time_gives_no_modbus_verdict(self, tmp_path):
        # the gateway's first poll would come after the run has ended
        plan = small_plan(duration_s=10.0)
        plan["gateway"]["poll_period_s"] = 30.0
        metrics = harness.run(plan, str(tmp_path)).metrics
        assert metrics["response_times_ms"]["MODBUS"]["count"] == 0
        assert metrics["modbus_mean_below_20ms"] is None

    def test_no_attack_plan_yields_only_normal(self, tmp_path):
        plan = small_plan(duration_s=30.0)
        result = harness.run(plan, str(tmp_path))
        assert set(result.class_counts) == {"normal"}

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        plan_attacks = [{"id": "s", "kind": "arp_spoof",
                         "attacker": "attacker", "victim_a": "edge-gw",
                         "victim_b": "router", "t_start_s": 10.2,
                         "duration_s": 20.0}]
        harness.run(small_plan(duration_s=45.0, attacks=plan_attacks),
                    str(out_a))
        harness.run(small_plan(duration_s=45.0, attacks=plan_attacks),
                    str(out_b))
        match, mismatch, errors = filecmp.cmpfiles(
            out_a, out_b, os.listdir(out_a), shallow=False)
        assert mismatch == [] and errors == []

    def test_an_epoch_without_an_offset_is_utc_in_any_time_zone(
            self, tmp_path, monkeypatch):
        plan = small_plan(duration_s=30.0)
        plan["epoch"] = "2019-07-18T06:00:00"
        outs = [tmp_path / "utc", tmp_path / "new_york"]
        try:
            for out, tz in zip(outs, ("UTC", "America/New_York")):
                monkeypatch.setenv("TZ", tz)
                time.tzset()
                harness.run(plan, str(out))
        finally:
            monkeypatch.undo()
            time.tzset()
        names = sorted(os.listdir(outs[0]))
        assert sorted(os.listdir(outs[1])) == names
        match, mismatch, errors = filecmp.cmpfiles(*outs, names,
                                                   shallow=False)
        assert mismatch == [] and errors == []
        with open(outs[0] / "edge_historian.csv") as fh:
            first = list(csv.reader(fh))[1]
        assert first[1].startswith("2019-07-18T06:00:")

    def test_seed_override_changes_artifacts(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        harness.run(small_plan(duration_s=30.0), str(out_a))
        harness.run(small_plan(duration_s=30.0), str(out_b), seed=7)
        same = filecmp.cmp(out_a / "capture.jsonl", out_b / "capture.jsonl",
                           shallow=False)
        assert not same

    def test_bundles_and_detection_reports_match_the_golden_manifest(
            self, golden_bundles, golden_detections):
        """Every file `run` writes at seeds 42, 7 and 43, and each pinned
        detection report, is in the manifest with its digest, and nothing
        else is."""
        got = {}
        for seed, build in golden_bundles.items():
            got.update(digests(build.out_dir, f"seed{seed}"))
        for name, out in golden_detections.items():
            got.update(digests(out, name, skip=("dataset.csv",)))
        with open(GOLDEN_MANIFEST) as fh:
            pinned = {name: digest for digest, name in map(str.split, fh)}
        assert got == pinned

    def test_conn_row_is_the_row_conn_log_reads_back(self, default_bundle):
        rows = analytics.read_conn_log(
            os.path.join(default_bundle.out_dir, "conn.log"))
        assert len(rows) == 7057
        assert [analytics.conn_row(c)
                for c in default_bundle.conversations] == rows

    def test_dataset_rows_are_a_view_equal_to_the_written_rows(
            self, default_bundle):
        rows = default_bundle.dataset_rows
        features, labels = analytics.read_dataset_csv(
            os.path.join(default_bundle.out_dir, "dataset.csv"))
        reference = reference_label_dataset(default_bundle.conversations,
                                            default_bundle.windows)
        assert len(rows) == len(labels) == len(reference[0]) > 7000
        assert list(rows) == reference[0]
        assert features == array("d", [v for r in reference[0]
                                       for v in r.features])
        assert labels == [r.label for r in reference[0]]
        # a second read builds the same rows again
        assert list(rows) == reference[0]
        assert (default_bundle.class_counts, default_bundle.dropped_rows) \
            == reference[1:]
        assert not isinstance(rows, list)

    def test_default_hour_holds_only_its_live_connections(self,
                                                          default_bundle):
        # the edge gateway's MQTT session: one stream at each end and the
        # router's flow; every other stream and flow ended with its close
        hosts = default_bundle.sim.hosts.values()
        assert sum(len(h._streams) for h in hosts) <= 2
        assert sum(len(h._conntrack) for h in hosts) <= 1


def tcp_frame(ts, src, dst, flags, deliver, payload=b""):
    """A delivered TCP frame from src to dst, each an (ip, port)."""
    return netsim.Frame(
        ts, "lan", src[0], "02:00:00:00:00:01", "02:00:00:00:00:02", src[0],
        dst[0], src[1], dst[1], "TCP", flags, payload, "HTTP",
        delivered=True, deliver_ts_us=deliver)


# the senders whose spans the walks below keep: one client of the frames
# below, so both a kept span and a sender without one show in a repr
SPANNED = ("10.0.0.1",)


def walked(frames) -> harness.CaptureWalk:
    walk = harness.CaptureWalk(harness.Build(small_plan()), SPANNED)
    walk.feed(frames)
    return walk


def origins(conversations) -> list:
    return [(c.orig_ip, c.total_pkts()) for c in conversations]


class TestCaptureWalk:
    A, B, C = ("10.0.0.1", 40000), ("10.0.0.2", 80), ("10.0.0.3", 40001)

    def test_walk_equals_the_list_functions(self, bundle):
        result, out = bundle
        path = os.path.join(out, "capture.jsonl")
        frames = netsim.read_capture_jsonl(path)
        attackers = analytics.span_senders(result.windows)
        walk = harness.CaptureWalk(result, attackers)
        walk.feed(netsim.iter_capture_jsonl(path))
        conversations = walk.conversations.result()
        expected = analytics.build_conversations(frames, attackers)
        assert len(conversations) > 50
        # repr shows every field, flag_hist in its insertion order too
        assert repr(conversations) == repr(expected)
        assert (as_lists(analytics.label_dataset(conversations,
                                                 result.windows))
                == as_lists(analytics.label_dataset(expected,
                                                    result.windows)))

        metrics = walk.metrics()
        assert metrics["packet_stats"] == analytics.packet_size_stats(frames)
        assert metrics["response_times_ms"]
        for proto, entry in metrics["response_times_ms"].items():
            stats = analytics.response_times(frames, proto)
            assert stats.samples_ms == walk.response_times[proto].samples
            assert (entry["mean_ms"], entry["count"], entry["unmatched"]) \
                == (stats.mean_ms, stats.count, stats.unmatched)
        gw_ip = result.gw_host.interfaces[0].ip
        for name, (tag, select) in harness._jitter_flows(gw_ip).items():
            windows, flagged = analytics.jitter_series(
                [f for f in frames if f.proto_tag == tag and f.delivered
                 and select(f)])
            flow = metrics["jitter"]["flows"][name]
            assert (flow["windows"], flow["over_bound"]) == (len(windows),
                                                             len(flagged))
        assert metrics["jitter"]["windows"] > 0
        assert metrics["throughput_bytes_per_s"] == [
            {"t0_us": t0, "bytes_per_s": rate}
            for t0, rate in analytics.throughput_series(frames)]
        assert metrics["plc_request_rates"] == analytics.plc_request_rates(
            frames, result.plc_ip, result.read.duration_us)

    def test_equal_ts_run_in_reverse_deliver_order(self, tmp_path):
        a, b = self.A, self.B
        # one ts_us, written latest delivery first: the first delivered
        # frame (b -> a) makes b the originator, and the FIN it carries
        # lets the SYN after it start a second conversation
        frames = [tcp_frame(1000, a, b, ("SYN",), 1900),
                  tcp_frame(1000, a, b, ("ACK", "PSH"), 1800, b"x"),
                  tcp_frame(1000, b, a, ("ACK", "FIN"), 1100),
                  tcp_frame(2000, a, b, ("ACK",), 2100)]
        path = tmp_path / "capture.jsonl"
        netsim.write_capture_jsonl(frames, path)
        walk = walked(netsim.iter_capture_jsonl(path))
        expected = analytics.build_conversations(frames, SPANNED)
        # in file order it would be one conversation of 4, from a
        assert origins(expected) == [("10.0.0.1", 2), ("10.0.0.2", 2)]
        assert repr(walk.conversations.result()) == repr(expected)

    def test_an_equal_ts_run_that_ends_the_capture_is_fed(self):
        a, b, c = self.A, self.B, self.C
        frames = [tcp_frame(500, c, b, ("SYN",), 600),
                  tcp_frame(1000, a, b, ("SYN",), 1900),
                  tcp_frame(1000, a, b, ("ACK", "PSH"), 1800, b"x"),
                  tcp_frame(1000, b, a, ("ACK", "FIN"), 1100)]
        expected = analytics.build_conversations(frames, SPANNED)
        assert origins(expected) == [("10.0.0.3", 1), ("10.0.0.1", 1),
                                     ("10.0.0.2", 2)]
        assert repr(walked(frames).conversations.result()) == repr(expected)

    def test_a_one_record_capture(self):
        frames = [tcp_frame(1000, self.A, self.B, ("SYN",), 1100)]
        walk = walked(frames)
        assert origins(walk.conversations.result()) == [("10.0.0.1", 1)]
        assert walk.metrics()["packet_stats"] == \
            analytics.packet_size_stats(frames)

    @pytest.mark.parametrize("t0", [0, -7])
    def test_a_capture_that_starts_at_or_before_zero(self, t0):
        a, b = self.A, self.B
        # the SYN is delivered after the ACK sent later: only the runs of
        # equal ts_us are taken in delivery order
        frames = [tcp_frame(t0, a, b, ("SYN",), t0 + 5000),
                  tcp_frame(t0, b, a, ("ACK", "FIN"), t0 + 100),
                  tcp_frame(t0 + 1000, a, b, ("ACK",), t0 + 1100)]
        walk = walked(frames)
        expected = analytics.build_conversations(frames, SPANNED)
        assert origins(expected) == [("10.0.0.1", 2), ("10.0.0.2", 1)]
        assert repr(walk.conversations.result()) == repr(expected)

    def test_a_flag_set_no_stream_sends_keys_and_closes(self):
        a, b = self.A, self.B
        frames = [tcp_frame(1000, a, b, ("SYN",), 1100),
                  tcp_frame(1200, b, a, ("ACK", "SYN"), 1300),
                  tcp_frame(1400, a, b, ("ACK",), 1500),
                  tcp_frame(1600, a, b, ("ACK", "FIN", "PSH"), 1700, b"bye"),
                  tcp_frame(5000, a, b, ("SYN",), 5100)]
        rows = [analytics.conn_row(c)
                for c in walked(frames).conversations.result()]
        assert [(r["ts"], r["orig_bytes"], r["flags"]) for r in rows] == [
            (0.001, 3, "S:1,AS:1,A:1,AFP:1"), (0.005, 0, "S:1")]
        assert rows == [analytics.conn_row(c) for c in
                        analytics.build_conversations(frames, SPANNED)]

    def test_an_empty_walk_gives_no_modbus_verdict(self):
        walk = harness.CaptureWalk(harness.Build(planmod.default_plan()), ())
        walk.feed([])
        metrics = walk.metrics()
        assert metrics["response_times_ms"]["MODBUS"]["count"] == 0
        assert metrics["modbus_mean_below_20ms"] is None


class TestAttackerSpans:
    """A walk keeps the spans of the attack windows' attackers alone, and
    its conversations label as those with every sender's span did."""

    @pytest.mark.parametrize("seed", [7, 42, 43])
    def test_labels_equal_the_full_span_reference(self, golden_bundles,
                                                  seed):
        build = golden_bundles[seed]
        frames = netsim.capture_export(build.sim)
        attackers = analytics.span_senders(build.windows)
        walk = harness.CaptureWalk(build, attackers, metrics=False)
        walk.feed(frames)
        conversations = walk.conversations.result()
        reference = reference_conversations(frames)
        assert [analytics.conn_row(c) for c in conversations] == [
            analytics.conn_row(c) for c in reference]
        # a conversation no attacker sent in keeps no span dict at all
        assert [c.sender_spans for c in conversations] == [
            {s: span for s, span in c.sender_spans.items() if s in attackers}
            or None for c in reference]
        kept = sum(len(c.sender_spans or ()) for c in conversations)
        assert 0 < kept < sum(len(c.sender_spans) for c in reference) / 4
        labelled = as_lists(analytics.label_dataset(conversations,
                                                    build.windows))
        assert labelled == reference_label_dataset(reference, build.windows)
        assert len(labelled[1]) > 1


class TestCollectorPause:
    """run, report and hunt pause the cyclic garbage collector and put it
    back."""

    @pytest.fixture(autouse=True)
    def keep_collector_state(self):
        collecting = gc.isenabled()
        yield
        if collecting:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("collecting", [True, False])
    def test_run_pauses_the_collector_and_puts_it_back(
            self, tmp_path, monkeypatch, collecting):
        during = []
        write = harness.write_capture_jsonl

        def write_and_look(frames, path):
            during.append(gc.isenabled())
            write(frames, path)

        monkeypatch.setattr(harness, "write_capture_jsonl", write_and_look)
        gc.enable() if collecting else gc.disable()
        harness.run(small_plan(duration_s=5.0), str(tmp_path))
        assert during == [False]
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("collecting", [True, False])
    def test_a_run_that_raises_puts_the_collector_back(self, tmp_path,
                                                       collecting):
        out = tmp_path / "a_file"
        out.write_text("")
        gc.enable() if collecting else gc.disable()
        with pytest.raises(FileExistsError):
            harness.run(small_plan(duration_s=5.0), str(out))
        assert gc.isenabled() is collecting

    def test_the_first_pass_after_a_paused_call_is_the_callers(self):
        # a young pass scans every container the call allocated and still
        # holds (a `run`'s frames among them): nothing the pause does once
        # the collector is back may start it
        gc.enable()
        kept = harness.collector_paused(
            lambda: [[] for _ in range(5000)])()
        assert gc.get_count()[0] > len(kept) // 2

    @pytest.mark.parametrize("collecting", [True, False])
    @pytest.mark.parametrize("command,inner", [("report", "derive"),
                                               ("hunt", "build_hunt_report")])
    def test_report_and_hunt_pause_the_collector_and_put_it_back(
            self, tmp_path, monkeypatch, collecting, command, inner):
        plan_path = str(tmp_path / "plan.json")
        harness.write_json(small_plan(duration_s=5.0), plan_path)
        out = str(tmp_path / "out")
        harness.run(small_plan(duration_s=5.0), out)
        during = []
        wrapped = getattr(harness, inner)

        def look(*args):
            during.append(gc.isenabled())
            return wrapped(*args)

        monkeypatch.setattr(harness, inner, look)
        argv = ["--quiet", command, "--plan", plan_path, "--out", out]
        gc.enable() if collecting else gc.disable()
        assert cli.main(argv) == 0
        assert during == [False]
        assert gc.isenabled() is collecting
        # without the file it reads, the command fails
        os.remove(os.path.join(out, {"report": "capture.jsonl",
                                     "hunt": "conn.log"}[command]))
        assert cli.main(argv) == 2
        assert gc.isenabled() is collecting

    def test_a_paused_run_leaves_little_cyclic_garbage(self, tmp_path):
        # each rogue-subscriber connection leaves a cycle (its MqttClient
        # and TcpStream); the default hour's connections leave 2,125 cyclic
        # objects for 179,639 frames, 1.2%
        plan = small_plan(duration_s=60.0, attacks=[
            {"id": "dos", "kind": "modbus_dos", "attacker": "attacker",
             "target": "plc", "t_start_s": 20.0, "duration_s": 2.0,
             "rate_per_s": 1000, "addr_lo": 0, "addr_hi": 199,
             "reqs_per_conn": 10},
            {"id": "rogue", "kind": "rogue_subscriber",
             "attacker": "attacker", "broker_host": "cloud",
             "filters": ["#", "$SYS/#"], "t_start_s": 10.0,
             "duration_s": 40.0, "cycle_s": 4.0}])
        gc.collect()
        gc.disable()
        build = harness.run(plan, str(tmp_path))
        garbage = gc.collect()
        assert garbage < 0.05 * len(build.sim.capture)


# a host id and a segment name that hold a quote, a backslash and
# non-ASCII text, which the capture writer escapes
ESCAPED_HOST, ESCAPED_SEGMENT = 'edge-gw \u00e9 "1" \\', 'lan\\\u00e4 "a"'


def escaped_names_plan() -> dict:
    """The default topology for 30 s without attacks, with the gateway's
    id and its first segment's name replaced by names the writer escapes."""
    text = json.dumps(small_plan(duration_s=30.0))
    return json.loads(text.replace(
        '"edge-gw"', json.dumps(ESCAPED_HOST)).replace(
        '"lan-a"', json.dumps(ESCAPED_SEGMENT)))


class TestEscapedNames:
    def test_report_and_hunt_rebuild_the_bundle(self, tmp_path):
        plan = escaped_names_plan()
        plan_path = str(tmp_path / "plan.json")
        harness.write_json(plan, plan_path)
        out, rebuilt = tmp_path / "run", tmp_path / "rebuilt"
        build = harness.run(plan, str(out))
        frames = netsim.read_capture_jsonl(out / "capture.jsonl")
        assert frames == netsim.capture_export(build.sim)
        assert ESCAPED_HOST in {f.sender for f in frames}
        assert ESCAPED_SEGMENT in {f.segment for f in frames}
        shutil.copytree(out, rebuilt)
        for name in TestCli.REBUILT:
            os.remove(rebuilt / name)
        assert cli.main(["--quiet", "report", "--plan", plan_path,
                         "--out", str(rebuilt)]) == 0
        for name in TestCli.REBUILT:
            assert filecmp.cmp(out / name, rebuilt / name, shallow=False)
        os.remove(rebuilt / "hunt_report.json")
        assert cli.main(["--quiet", "hunt", "--plan", plan_path,
                         "--out", str(rebuilt)]) == 0
        assert filecmp.cmp(out / "hunt_report.json",
                           rebuilt / "hunt_report.json", shallow=False)


class TestClientScripts:
    def test_requests_follow_the_cycle_count(self):
        plan = small_plan(duration_s=24.0)
        plan["traffic"] = {
            "coap_client": {"host": "mobile", "period_s": 2.0,
                            "actuate_every": 3},
            "dns_client": {"host": "mobile", "period_s": 4.0},
            "http_client": {"host": "wan-client", "period_s": 4.0,
                            "setpoint_every": 2, "setpoints": [25.0, 30.0]},
            "api_client": {"host": "pc", "period_s": 6.0},
            "webgui_clients": [{"host": "pc", "period_s": 8.0,
                                "requests": 3}]}
        build = harness.Build(plan)
        build.run()

        def sent(tag):
            """(server ip, client port, body) of each request of tag."""
            ports = {"COAP": 5683, "DNS": 53, "HTTP": 80, "API": 8080,
                     "HTTPS": 443}
            return [(f.dst_ip, f.src_port, json.loads(f.payload))
                    for f in build.sim.capture
                    if f.origin and f.proto_tag == tag and f.payload
                    and f.dst_port == ports[tag]]

        coap = sent("COAP")
        assert [body["mid"] for _, _, body in coap] == list(range(1, 13))
        assert {ip for ip, _, _ in coap} == {"192.168.20.1"}
        assert [(body["mid"], body["payload"]) for _, _, body in coap
                if body["code"] == "PUT"] == [(3, "on"), (6, "off"),
                                              (9, "on"), (12, "off")]
        assert [body for _, _, body in sent("DNS")] == [
            {"q": "edge.local", "id": n} for n in range(1, 7)]
        snapshot = {"method": "GET", "path": "/api/snapshot"}
        http = sent("HTTP")
        assert {ip for ip, _, _ in http} == {"192.168.10.150"}
        assert [body.get("body", {}).get("value") for _, _, body in http] \
            == [None, 25.0, None, 30.0, None, 25.0]
        assert [body for _, _, body in sent("API")] == [snapshot] * 4
        gui = {}
        for ip, port, body in sent("HTTPS"):
            assert (ip, body) == ("192.168.10.1",
                                  {"action": "get", "path": "/status"})
            gui[port] = gui.get(port, 0) + 1
        assert list(gui.values()) == [3, 3, 3]


class TestCli:
    def write_plan(self, tmp_path, plan):
        path = tmp_path / "plan.json"
        harness.write_json(plan, path)
        return str(path)

    def test_validate_ok_and_invalid(self, tmp_path, capsys):
        path = self.write_plan(tmp_path, small_plan(duration_s=10.0))
        assert cli.main(["validate", "--plan", path]) == 0
        bad = small_plan(duration_s=-1.0)
        bad_path = tmp_path / "bad.json"
        harness.write_json(bad, bad_path)
        assert cli.main(["validate", "--plan", str(bad_path)]) == 2

    @pytest.mark.parametrize("listener_port", [4444, 5555])
    def test_run_report_hunt_detect_chain(self, tmp_path, listener_port):
        plan = small_plan(duration_s=60.0, attacks=[
            {"id": "dos", "kind": "modbus_dos", "attacker": "attacker",
             "target": "plc", "t_start_s": 20.1, "duration_s": 5.0,
             "rate_per_s": 200, "addr_lo": 0, "addr_hi": 50},
            {"id": "x", "kind": "exploit", "attacker": "attacker",
             "target": "router", "credentials": ["admin", "default"],
             "t_start_s": 5.0, "listener_port": listener_port,
             "command_gap_s": 5.0, "sessions": [[30.0, 15.0]]},
        ])
        path = self.write_plan(tmp_path, plan)
        out = str(tmp_path / "out")
        metrics_path = os.path.join(out, "metrics_report.json")
        assert cli.main(["--quiet", "run", "--plan", path, "--out", out]) == 0
        with open(metrics_path, "rb") as fh:
            run_metrics = fh.read()
        hunt_path = os.path.join(out, "hunt_report.json")
        with open(hunt_path, "rb") as fh:
            run_hunt = fh.read()
        os.remove(hunt_path)
        assert cli.main(["--quiet", "report", "--plan", path,
                         "--out", out]) == 0
        # report rebuilds the run's metrics report, every key of it, and
        # its hunt report for the plan's backdoor port
        with open(metrics_path, "rb") as fh:
            assert fh.read() == run_metrics
        with open(hunt_path, "rb") as fh:
            assert fh.read() == run_hunt
        # and so does hunt
        os.remove(hunt_path)
        assert cli.main(["--quiet", "hunt", "--plan", path, "--out", out,
                         "--syslog", os.path.join(out, "syslog_router.txt"),
                         "--syslog-truth",
                         os.path.join(out, "syslog_router_truth.txt")]) == 0
        with open(hunt_path, "rb") as fh:
            assert fh.read() == run_hunt
        assert cli.main(["--quiet", "detect", "--out", out,
                         "--folds", "2"]) == 0
        report = json.load(open(os.path.join(out, "detection_report.json")))
        assert set(report["models"]) == {"DT", "RF", "NB", "LR", "KNN"}
        hunt_report = json.loads(run_hunt)
        assert hunt_report["identified_attacker"] == "192.168.10.151"
        assert list(hunt_report["flag_profiles"]) == [
            f"192.168.10.151:{listener_port}"]

    def test_report_in_place_leaves_every_file_of_the_run(self, tmp_path):
        # metrics_report.json holds only what the capture and the attack
        # windows determine, so report rewrites the run's bytes
        plan = small_plan(duration_s=30.0, attacks=[
            {"id": "dos", "kind": "modbus_dos", "attacker": "attacker",
             "target": "plc", "t_start_s": 10.1, "duration_s": 5.0,
             "rate_per_s": 200, "addr_lo": 0, "addr_hi": 50},
            {"id": "s", "kind": "arp_spoof", "attacker": "attacker",
             "victim_a": "edge-gw", "victim_b": "router", "t_start_s": 18.2,
             "duration_s": 8.0}])
        path = self.write_plan(tmp_path, plan)
        out, ran = tmp_path / "out", tmp_path / "ran"
        assert cli.main(["--quiet", "run", "--plan", path,
                         "--out", str(out)]) == 0
        shutil.copytree(out, ran)
        assert cli.main(["--quiet", "report", "--plan", path,
                         "--out", str(out)]) == 0
        names = sorted(os.listdir(ran))
        assert "metrics_report.json" in names
        assert sorted(os.listdir(out)) == names
        match, mismatch, errors = filecmp.cmpfiles(ran, out, names,
                                                   shallow=False)
        assert (mismatch, errors) == ([], [])

    def test_report_rebuilds_its_four_files_and_writes_no_other(
            self, bundle, tmp_path):
        # perfbench's reanalyse hard-links every other bundle file into its
        # working directory: a write to one would reach the set-up bundle
        ran = bundle[1]
        out = tmp_path / "out"
        shutil.copytree(ran, out)
        for name in self.REBUILT:
            (out / name).unlink()

        def files():
            return {name: (os.stat(out / name).st_mtime_ns,
                           (out / name).read_bytes())
                    for name in sorted(os.listdir(out))}

        before = files()
        assert cli.main(["--quiet", "report", "--out", str(out), "--plan",
                         self.write_plan(tmp_path, bundle[0].plan)]) == 0
        after = files()
        assert sorted(after) == sorted(os.listdir(ran))
        for name in self.REBUILT:
            with open(os.path.join(ran, name), "rb") as fh:
                assert after.pop(name)[1] == fh.read(), name
        assert after == before

    def test_report_and_hunt_write_one_hunt_report_on_the_default_bundle(
            self, default_bundle, tmp_path):
        ran = default_bundle.out_dir
        plan = self.write_plan(tmp_path, default_bundle.plan)
        out = tmp_path / "out"
        out.mkdir()
        for name in ("capture.jsonl", "attack_windows.jsonl",
                     "syslog_router.txt", "syslog_router_truth.txt"):
            os.symlink(os.path.join(ran, name), out / name)
        assert cli.main(["--quiet", "report", "--plan", plan,
                         "--out", str(out)]) == 0
        for name in self.REBUILT:
            with open(os.path.join(ran, name), "rb") as fh:
                assert (out / name).read_bytes() == fh.read(), name
        reported = (out / "hunt_report.json").read_bytes()
        (out / "hunt_report.json").unlink()
        assert cli.main(["--quiet", "hunt", "--plan", plan,
                         "--out", str(out)]) == 0
        assert (out / "hunt_report.json").read_bytes() == reported
        assert json.loads(reported)["syslog"]["tampered"] is True

    def test_report_without_syslogs_hunts_as_hunt_does(self, bundle,
                                                       tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("capture.jsonl", "attack_windows.jsonl"):
            shutil.copy(os.path.join(bundle[1], name), out)
        assert cli.main(["--quiet", "report", "--out", str(out)]) == 0
        reported = (out / "hunt_report.json").read_bytes()
        assert json.loads(reported)["syslog"] == {}
        (out / "hunt_report.json").unlink()
        assert cli.main(["--quiet", "hunt", "--out", str(out)]) == 0
        assert (out / "hunt_report.json").read_bytes() == reported

    def test_hunt_without_capture_rebuilds_the_runs_hunt_report(
            self, default_bundle, tmp_path):
        # hunt reads conn.log and the syslogs alone
        out = tmp_path / "out"
        shutil.copytree(default_bundle.out_dir, out,
                        ignore=shutil.ignore_patterns("capture.jsonl"))
        (out / "hunt_report.json").unlink()
        assert cli.main(["--quiet", "hunt", "--out", str(out)]) == 0
        with open(os.path.join(default_bundle.out_dir, "hunt_report.json"),
                  "rb") as fh:
            assert (out / "hunt_report.json").read_bytes() == fh.read()
        assert not (out / "capture.jsonl").exists()

    def test_hunt_out_alone_rebuilds_the_runs_hunt_report(
            self, default_bundle, tmp_path):
        # without --syslog and --syslog-truth, hunt reads the plan router's
        # syslog and its truth copy from the bundle
        out = tmp_path / "out"
        out.mkdir()
        for name in ("conn.log", "syslog_router.txt",
                     "syslog_router_truth.txt"):
            os.symlink(os.path.join(default_bundle.out_dir, name), out / name)
        assert cli.main(["--quiet", "hunt", "--out", str(out)]) == 0
        with open(os.path.join(default_bundle.out_dir, "hunt_report.json"),
                  "rb") as fh:
            run_hunt = fh.read()
        assert (out / "hunt_report.json").read_bytes() == run_hunt
        assert json.loads(run_hunt)["syslog"]["tampered"] is True

    def test_report_without_attack_windows_labels_every_row_normal(
            self, tmp_path):
        plan = small_plan(duration_s=20.0, attacks=[
            {"id": "dos", "kind": "modbus_dos", "attacker": "attacker",
             "target": "plc", "t_start_s": 5.0, "duration_s": 5.0,
             "rate_per_s": 200, "addr_lo": 0, "addr_hi": 50}])
        out = tmp_path / "out"
        assert cli.main(["--quiet", "run", "--plan",
                         self.write_plan(tmp_path, plan), "--out", str(out),
                         "--only", "capture,windows"]) == 0
        windows = out / "attack_windows.jsonl"
        labels = {}
        for present in (True, False):
            if not present:
                windows.unlink()
            assert cli.main(["--quiet", "report", "--out", str(out)]) == 0
            labels[present] = set(analytics.read_dataset_csv(
                out / "dataset.csv")[1])
        assert labels == {True: {"normal", "modbus_dos"}, False: {"normal"}}

    @pytest.mark.parametrize("tag,port", [("COAP", 5683), ("DNS", 53),
                                          ("MQTT", 1883)])
    def test_report_skips_json_payloads_that_are_not_objects(
            self, tmp_path, tag, port):
        frame = netsim.Frame(
            ts_us=0, segment="lan-a", sender="mobile",
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="192.168.10.20", dst_ip="192.168.10.30", src_port=5000,
            dst_port=port, l4="UDP", tcp_flags=(), payload=b"[1]",
            proto_tag=tag, origin=True, final=True, delivered=True,
            deliver_ts_us=100)
        netsim.write_capture_jsonl([frame], tmp_path / "capture.jsonl")
        assert cli.main(["--quiet", "report", "--out", str(tmp_path)]) == 0
        metrics = json.load(open(tmp_path / "metrics_report.json"))
        assert metrics["response_times_ms"][tag]["count"] == 0

    @pytest.mark.parametrize("tag,port,payload,origin,final", [
        ("COAP", 5683, '{"code": "GET", "mid": [1]}', True, False),
        ("COAP", 5683, '{"code": "2.05 Content", "mid": {"a": 1}}', False,
         True),
        ("DNS", 53, '{"q": "plc.local", "id": [1]}', True, False),
        ("DNS", 53, '{"q": "plc.local", "a": "x", "mid": [1]}', False, True),
        ("MQTT", 1883, '{"type": "PUBLISH", "qos": 2, "topic": "t", '
         '"mid": [1]}', True, False),
        ("MQTT", 1883, '{"type": "PUBCOMP", "mid": [1]}', False, True),
    ])
    def test_report_skips_an_id_that_is_a_list_or_an_object(
            self, tmp_path, tag, port, payload, origin, final):
        frame = netsim.Frame(
            ts_us=0, segment="lan-a", sender="mobile",
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="192.168.10.20", dst_ip="192.168.10.30", src_port=5000,
            dst_port=port, l4="UDP", tcp_flags=(), payload=payload.encode(),
            proto_tag=tag, origin=origin, final=final, delivered=True,
            deliver_ts_us=100)
        netsim.write_capture_jsonl([frame], tmp_path / "capture.jsonl")
        assert cli.main(["--quiet", "report", "--out", str(tmp_path)]) == 0
        metrics = json.load(open(tmp_path / "metrics_report.json"))
        stats = metrics["response_times_ms"][tag]
        assert (stats["count"], stats["unmatched"]) == (0, 0)

    @pytest.mark.parametrize("field", ["ts_us", "src_port", "dst_port",
                                       "deliver_ts_us"])
    @pytest.mark.parametrize("text", ['"5"', "true", "5.0"])
    def test_report_refuses_a_time_or_port_that_is_not_an_integer(
            self, tmp_path, capsys, field, text):
        frames = [netsim.Frame(
            ts_us=k, segment="lan-a", sender="mobile",
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="192.168.10.20", dst_ip="192.168.10.30", src_port=5000,
            dst_port=502, l4="TCP", tcp_flags=("SYN",), payload=b"",
            proto_tag="MODBUS", delivered=True, deliver_ts_us=k + 100)
            for k in (10, 20, 30)]
        path = tmp_path / "capture.jsonl"
        netsim.write_capture_jsonl(frames, path)
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[1])
        lines[1] = lines[1].replace(f'"{field}": {rec[field]},',
                                    f'"{field}": {text},')
        assert lines[1] != json.dumps(rec) + "\n"
        path.write_text("".join(lines))
        assert cli.main(["--quiet", "report", "--out", str(tmp_path)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == (
            f"cannot read bundle: {path}: bad capture record 2: the line "
            f"departs from the writer's at {field}")
        assert not any((tmp_path / name).exists() for name in self.REBUILT)

    @staticmethod
    def copy_capture(bundle, out, edit):
        """out/ holding the bundle's capture with its lines edited."""
        with open(os.path.join(bundle[1], "capture.jsonl")) as fh:
            lines = fh.readlines()
        out.mkdir()
        (out / "capture.jsonl").write_text("".join(edit(lines)))

    REBUILT = ("conn.log", "dataset.csv", "metrics_report.json",
               "hunt_report.json")

    def swap_two_records(self, bundle, out) -> str:
        """out/ holding the bundle's capture with two records of rising
        ts_us swapped -> the error that refuses it."""
        ts = [json.loads(line)["ts_us"] for line in
              open(os.path.join(bundle[1], "capture.jsonl"))]
        k = next(k for k in range(100, len(ts)) if ts[k] < ts[k + 1])

        def swap(lines):
            lines[k], lines[k + 1] = lines[k + 1], lines[k]
            return lines

        self.copy_capture(bundle, out, swap)
        return (f"cannot read bundle: {out / 'capture.jsonl'}: bad capture "
                f"record {k + 2}: ts_us {ts[k]} is below the previous "
                f"record's {ts[k + 1]}")

    def test_report_refuses_a_capture_out_of_ts_order(self, bundle, tmp_path,
                                                      capsys):
        out = tmp_path / "out"
        expected = self.swap_two_records(bundle, out)
        assert cli.main(["--quiet", "report", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == expected
        assert not any((out / name).exists() for name in self.REBUILT)

    def test_hunt_reads_conn_log_beside_a_capture_out_of_ts_order(
            self, bundle, tmp_path):
        # report refuses the capture; hunt does not read it
        out = tmp_path / "out"
        self.swap_two_records(bundle, out)
        for name in ("conn.log", "syslog_router.txt",
                     "syslog_router_truth.txt"):
            shutil.copy(os.path.join(bundle[1], name), out)
        assert cli.main(["--quiet", "hunt", "--out", str(out)]) == 0
        with open(os.path.join(bundle[1], "hunt_report.json"), "rb") as fh:
            assert (out / "hunt_report.json").read_bytes() == fh.read()

    # an edit of the capture's 101st line -> why report refuses it
    REFUSED_LINES = {
        "reordered_keys": (lambda line: json.dumps(
            dict(reversed(json.loads(line).items()))) + "\n",
            "the line departs from the writer's at ts_us"),
        "blank_line": (lambda line: "\n" + line,
                       "the line departs from the writer's at ts_us"),
        "escaped_proto_tag": (lambda line: json.dumps(
            {**json.loads(line), "proto_tag": "caf\u00e9"}) + "\n",
            "the line departs from the writer's at proto_tag"),
        "unknown_proto_tag": (lambda line: json.dumps(
            {**json.loads(line), "proto_tag": "x"}) + "\n",
            "the line departs from the writer's at proto_tag"),
        "port_above_65535": (lambda line: json.dumps(
            {**json.loads(line), "src_port": 70000}) + "\n",
            "the line departs from the writer's at src_port"),
        "bad_base64": (lambda line: json.dumps(
            {**json.loads(line), "payload_b64": "abc"}) + "\n",
            "payload_b64 is not base64: Incorrect padding")}

    @pytest.mark.parametrize("case", sorted(REFUSED_LINES))
    def test_report_refuses_an_edited_line(self, bundle, tmp_path, capsys,
                                           case):
        edit, why = self.REFUSED_LINES[case]
        out = tmp_path / "out"

        def edited(lines):
            lines[100] = edit(lines[100])
            return lines

        self.copy_capture(bundle, out, edited)
        shutil.copy(os.path.join(bundle[1], "conn.log"), out)
        expected = (f"cannot read bundle: {out / 'capture.jsonl'}: bad "
                    f"capture record 101: {why}")
        assert cli.main(["--quiet", "report", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == expected
        assert sorted(os.listdir(out)) == ["capture.jsonl", "conn.log"]

    def test_report_writes_nothing_when_the_last_record_is_bad(
            self, bundle, tmp_path, capsys):
        out = tmp_path / "out"
        self.copy_capture(bundle, out,
                          lambda lines: lines[:-1] + [lines[-1][:60] + "\n"])
        assert cli.main(["--quiet", "report", "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        n = sum(1 for _ in open(out / "capture.jsonl"))
        assert error.startswith(f"cannot read bundle: {out / 'capture.jsonl'}"
                                f": bad capture record {n}: ")
        assert not any((out / name).exists() for name in self.REBUILT)

    def test_detect_rejects_fewer_than_two_folds(self, tmp_path, capsys):
        for folds in ("1", "0"):
            assert cli.main(["--quiet", "detect", "--out", str(tmp_path),
                             "--folds", folds]) == 2
            error = json.loads(capsys.readouterr().err)
            assert "--folds" in error["error"]

    def test_detect_rejects_more_folds_than_rows(self, tmp_path, capsys):
        analytics.write_dataset_csv(
            [analytics.DatasetRow(
                (float(i),) * len(analytics.FEATURE_COLUMNS),
                "normal" if i % 3 else "modbus_dos") for i in range(30)],
            tmp_path / "dataset.csv")
        assert cli.main(["--quiet", "detect", "--out", str(tmp_path),
                         "--folds", "31"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == "--folds must be at most the dataset's 30 rows, got 31"
        assert not (tmp_path / "detection_report.json").exists()
        assert cli.main(["--quiet", "detect", "--out", str(tmp_path),
                         "--folds", "30"]) == 0

    def test_calibrate_cli(self, tmp_path):
        path = self.write_plan(tmp_path, small_plan(duration_s=10.0))
        out_plan = str(tmp_path / "cal.json")
        assert cli.main(["--quiet", "calibrate", "--plan", path,
                         "--out-plan", out_plan]) == 0
        calibrated = json.load(open(out_plan))
        assert calibrated["service_times_us"]

    def test_run_only_selects_artifacts(self, tmp_path):
        path = self.write_plan(tmp_path, small_plan(duration_s=20.0))
        out = tmp_path / "sel"
        assert cli.main(["--quiet", "run", "--plan", path, "--out", str(out),
                         "--only", "capture,conn_log"]) == 0
        names = set(os.listdir(out))
        assert {"capture.jsonl", "conn.log"} <= names
        assert "dataset.csv" not in names
        assert "metrics_report.json" not in names

    def test_run_only_rejects_unknown_output(self, tmp_path, capsys):
        out = tmp_path / "sel"
        assert cli.main(["--quiet", "run", "--out", str(out),
                         "--only", "captur"]) == 2
        error = json.loads(capsys.readouterr().err)
        assert "--only" in error["error"]
        assert "'captur'" in error["details"][0]
        assert not out.exists()

    # a case whose capture's second (TCP) record has fields replaced -> the
    # field report names it at
    GARBLED_RECORDS = {
        "report_ip_a_number": ({"src_ip": 5}, "src_ip"),
        "report_flags_a_string": ({"tcp_flags": "SYN"}, "tcp_flags"),
        "report_lower_case_flags": ({"tcp_flags": ["ack"]}, "tcp_flags")}

    @pytest.mark.parametrize("case", [*GARBLED_RECORDS,
                                      "empty_plan", "missing_plan",
                                      "truncated_capture", "garbled_conn_log",
                                      "garbled_dataset", "one_class_dataset",
                                      "plan_without_roles",
                                      "plan_without_mobile_role",
                                      "hunt_missing_syslog",
                                      "hunt_syslog_is_a_directory",
                                      "detect_dataset_is_a_directory",
                                      "report_capture_is_a_directory",
                                      "report_windows_is_a_directory",
                                      "report_garbled_window",
                                      "detect_report_is_a_directory",
                                      "report_conn_log_is_a_directory",
                                      "hunt_report_is_a_directory",
                                      "calibrate_plan_is_a_directory"])
    def test_bad_input_gives_structured_error(self, tmp_path, capsys, case):
        out = tmp_path / "out"
        out.mkdir()
        if case == "empty_plan":
            argv = ["run", "--plan", os.devnull, "--out", str(out)]
        elif case == "missing_plan":
            argv = ["run", "--plan", str(tmp_path / "nope.json"),
                    "--out", str(out)]
        elif case == "truncated_capture":
            (out / "capture.jsonl").write_text('{"ts_us": 1, "src_m')
            argv = ["report", "--out", str(out)]
        elif case == "garbled_conn_log":
            (out / "conn.log").write_text("ts\torig_h\n1.0\t10.0.0.1\n")
            argv = ["hunt", "--out", str(out)]
        elif case == "garbled_dataset":
            (out / "dataset.csv").write_text("a,b\n1,x\n")
            argv = ["detect", "--out", str(out)]
        elif case == "one_class_dataset":
            analytics.write_dataset_csv(
                [analytics.DatasetRow(
                    (float(i),) * len(analytics.FEATURE_COLUMNS), "normal")
                 for i in range(30)], out / "dataset.csv")
            argv = ["detect", "--out", str(out)]
        elif case == "hunt_missing_syslog":
            # a named syslog that is not there: no hunt without its search
            analytics.write_conn_log([], out / "conn.log")
            argv = ["hunt", "--out", str(out),
                    "--syslog", str(tmp_path / "nope.log")]
        elif case == "hunt_syslog_is_a_directory":
            analytics.write_conn_log([], out / "conn.log")
            argv = ["hunt", "--out", str(out), "--syslog-truth", str(out)]
        elif case == "detect_dataset_is_a_directory":
            (out / "dataset.csv").mkdir()
            argv = ["detect", "--out", str(out)]
        elif case == "report_capture_is_a_directory":
            (out / "capture.jsonl").mkdir()
            argv = ["report", "--out", str(out)]
        elif case == "report_windows_is_a_directory":
            (out / "capture.jsonl").write_text("")
            (out / "attack_windows.jsonl").mkdir()
            argv = ["report", "--out", str(out)]
        elif case == "report_garbled_window":
            (out / "capture.jsonl").write_text("")
            (out / "attack_windows.jsonl").write_text(json.dumps(
                {"kind": "modbus_dos", "t_start_us": "200200000",
                 "t_end_us": 260700000, "attacker": "attacker",
                 "victims": ["192.168.20.25"]}) + "\n")
            argv = ["report", "--out", str(out)]
        elif case in self.GARBLED_RECORDS:
            path = out / "capture.jsonl"
            netsim.write_capture_jsonl(
                [tcp_frame(ts, ("10.0.0.1", 5000), ("10.0.0.2", 80),
                           ("SYN",), ts + 100) for ts in (10, 20, 30)], path)
            lines = path.read_text().splitlines()
            lines[1] = json.dumps({**json.loads(lines[1]),
                                   **self.GARBLED_RECORDS[case][0]})
            path.write_text("\n".join(lines) + "\n")
            argv = ["report", "--out", str(out)]
        elif case == "detect_report_is_a_directory":
            analytics.write_dataset_csv(
                [analytics.DatasetRow(
                    (float(i),) * len(analytics.FEATURE_COLUMNS),
                    "normal" if i % 3 else "modbus_dos") for i in range(30)],
                out / "dataset.csv")
            (out / "detection_report.json").mkdir()
            argv = ["detect", "--out", str(out), "--folds", "2"]
        elif case == "report_conn_log_is_a_directory":
            (out / "capture.jsonl").write_text("")
            (out / "conn.log").mkdir()
            argv = ["report", "--out", str(out)]
        elif case == "hunt_report_is_a_directory":
            analytics.write_conn_log([], out / "conn.log")
            (out / "hunt_report.json").mkdir()
            argv = ["hunt", "--out", str(out)]
        elif case == "calibrate_plan_is_a_directory":
            argv = ["calibrate", "--out-plan", str(out)]
        elif case == "plan_without_mobile_role":
            # calibrating the COAP and DNS targets needs the mobile host
            plan = planmod.default_plan()
            del plan["roles"]["mobile"]
            argv = ["run", "--plan", self.write_plan(tmp_path, plan),
                    "--out", str(out)]
        else:
            path = self.write_plan(tmp_path, {
                "schema_version": 1, "duration_s": 10, "segments": {"a": {}}})
            argv = ["report", "--plan", path, "--out", str(out)]
        assert cli.main(["--quiet"] + argv) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] and isinstance(error["details"], list)
        if case in ("plan_without_roles", "plan_without_mobile_role"):
            assert error["error"] == "plan is invalid"
        if case == "detect_dataset_is_a_directory":
            assert error["error"].startswith("cannot read dataset: ")
            assert not (out / "detection_report.json").exists()
        if case in ("report_capture_is_a_directory",
                    "report_windows_is_a_directory"):
            assert error["error"].startswith("cannot read bundle: ")
            assert not (out / "metrics_report.json").exists()
        if case == "report_garbled_window":
            assert "bad window record 1: TypeError: t_start_us" in error[
                "error"]
            assert not (out / "metrics_report.json").exists()
        if case in self.GARBLED_RECORDS:
            assert error["error"].endswith(
                "bad capture record 2: the line departs from the writer's at "
                + self.GARBLED_RECORDS[case][1])
            assert not (out / "metrics_report.json").exists()
        if case == "detect_report_is_a_directory":
            assert error["error"].startswith("cannot write detection report: ")
        if case == "report_conn_log_is_a_directory":
            assert error["error"].startswith("cannot write bundle: ")
            assert not (out / "metrics_report.json").exists()
        if case == "hunt_report_is_a_directory":
            assert error["error"].startswith("cannot write hunt report: ")
        if case == "calibrate_plan_is_a_directory":
            assert error["error"].startswith("cannot write plan: ")
        if case == "hunt_missing_syslog":
            assert error["error"] == f"no syslog at {tmp_path / 'nope.log'}"
            assert not (out / "hunt_report.json").exists()

    def test_python_dash_m_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(iiotsim.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        plan = importlib.resources.files("iiotsim").joinpath(
            "data/default_plan.json")
        proc = subprocess.run(
            [sys.executable, "-m", "iiotsim", "validate", "--plan", str(plan)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "is valid" in proc.stdout

    def test_run_refuses_invalid_plan(self, tmp_path):
        bad = small_plan(duration_s=10.0)
        bad["attacks"] = [{"id": "x", "kind": "nope", "t_start_s": 1.0}]
        path = self.write_plan(tmp_path, bad)
        assert cli.main(["--quiet", "run", "--plan", path,
                         "--out", str(tmp_path / "o")]) == 2
