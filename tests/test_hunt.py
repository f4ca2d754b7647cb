import json
import os

import pytest

from iiotsim import analytics, cli, harness, hunt, plan as planmod


def row(orig, resp, resp_p, duration, orig_bytes, orig_p=50000, proto="HTTPS",
        flags="-"):
    return {"ts": 0.0, "orig_h": orig, "orig_p": orig_p, "resp_h": resp,
            "resp_p": resp_p, "proto": proto, "duration": duration,
            "orig_bytes": orig_bytes, "resp_bytes": 0, "orig_pkts": 1,
            "resp_pkts": 1, "flags": flags}


def summed_flags(rows) -> dict:
    """flag key -> its count summed over the rows' flags columns."""
    total = {}
    for r in rows:
        for item in r["flags"].split(",") if r["flags"] != "-" else ():
            key, count = item.split(":")
            total[key] = total.get(key, 0) + int(count)
    return total


class TestAggregateOriginators:
    def rows(self):
        return [
            row("10.0.0.5", "10.0.0.1", 443, 2.0, 100),
            row("10.0.0.5", "10.0.0.1", 443, 3.0, 200),
            row("10.0.0.7", "10.0.0.1", 443, 60.0, 9000),
            row("10.0.0.7", "10.0.0.1", 443, 70.0, 8000),
            row("10.0.0.5", "10.0.0.1", 80, 99.0, 99999),   # other port
        ]

    def test_attacker_ranks_first_on_duration_and_bytes(self):
        out = hunt.aggregate_originators(self.rows(), 443)
        assert out[0].orig_h == "10.0.0.7"
        assert out[0].total_duration == pytest.approx(130.0)
        assert out[0].total_orig_bytes == 17000
        assert out[0].max_duration == 70.0
        assert out[0].min_duration == 60.0

    def test_counts_conserve_filtered_rows(self):
        out = hunt.aggregate_originators(self.rows(), 443)
        assert sum(s.count for s in out) == 4

    def test_port_without_rows_empty(self):
        assert hunt.aggregate_originators(self.rows(), 4444) == []


class TestReverseConnections:
    def test_five_backdoor_sessions(self):
        durations = [500.0, 400.0, 250.0, 100.0, 94.026]
        rows = [row("192.168.10.1", "192.168.10.151", 4444, d, 10, proto="TCP")
                for d in durations]
        rows.append(row("192.168.10.30", "192.168.10.151", 4444, 1.0, 1))
        out = hunt.reverse_connections(rows, "192.168.10.1",
                                       ["192.168.10.151"])
        assert len(out["rows"]) == 5
        assert out["total_duration"] == pytest.approx(1344.026)
        assert out["per_port"][4444]["count"] == 5

    def test_arp_exchange_is_not_a_connection(self):
        # the victim resolving the attacker's MAC is a port-less ARP row
        rows = [row("192.168.10.1", "192.168.10.151", 4444, 94.0, 10,
                    proto="TCP"),
                row("192.168.10.1", "192.168.10.151", 0, 0.001, 42, orig_p=0,
                    proto="ARP")]
        out = hunt.reverse_connections(rows, "192.168.10.1",
                                       ["192.168.10.151"])
        assert out["rows"] == rows[:1]
        assert out["total_duration"] == 94.0
        assert list(out["per_port"]) == [4444]

    def test_empty_candidates(self):
        out = hunt.reverse_connections([row("a", "b", 4444, 1.0, 1)], "a", [])
        assert out["rows"] == []
        assert out["total_duration"] == 0.0


class TestReadsRow:
    VICTIM = "192.168.10.1"

    def rows(self):
        victim = self.VICTIM
        return [
            row("192.168.10.151", victim, 443, 30.0, 900),  # web-admin client
            row("192.168.10.30", victim, 443, 2.0, 100),
            row(victim, "192.168.10.151", 4444, 94.0, 10, proto="TCP"),
            row(victim, "192.168.10.151", 0, 0.001, 42, orig_p=0,
                proto="ARP"),
            row("192.168.10.30", "192.168.10.151", 4444, 5.0, 10,
                proto="TCP"),
            row("192.168.10.30", victim, 53, 0.1, 30, proto="DNS"),
        ]

    def test_keeps_the_rows_the_hunt_reads(self):
        rows = self.rows()
        kept = [r for r in rows if hunt.reads_row(r, self.VICTIM)]
        assert kept == rows[:4]
        report = hunt.hunt_report(kept, self.VICTIM, [4444], None, None)
        assert report == hunt.hunt_report(rows, self.VICTIM, [4444], None,
                                          None)
        assert report["identified_attacker"] == "192.168.10.151"

    def test_on_the_default_bundle(self, default_bundle):
        build = default_bundle
        rows = analytics.read_conn_log(os.path.join(build.out_dir,
                                                    "conn.log"))
        kept = [r for r in rows if hunt.reads_row(r, build.victim)]
        assert 0 < len(kept) < len(rows) / 10
        report = harness.build_hunt_report(build, kept, None, None)
        assert report == harness.build_hunt_report(build, rows, None, None)
        assert report["flag_profiles"]


# one reverse shell's connection: handshake, ten command/output exchanges
# with their ACK, and a RST
SHELL_FLAGS = "S:1,AS:1,A:11,AP:20,R:1"


class TestFlagProfile:
    def shell_rows(self):
        return [row("10.0.0.1", "10.0.0.2", 4444, 9.0, 30, proto="TCP",
                    flags=SHELL_FLAGS) for _ in range(3)]

    def test_backdoor_stream_verdict_positive(self):
        out = hunt.stream_flag_profile(self.shell_rows())
        assert out["verdict"] == "interactive-shell-like"
        assert out["dominance"] > 0.8
        assert out["payload_frames"] == 60

    def test_handshake_only_negative(self):
        out = hunt.stream_flag_profile([row(
            "10.0.0.1", "10.0.0.2", 4444, 0.1, 0, proto="TCP",
            flags="S:1,AS:1,A:1")])
        assert out["verdict"] == "not-shell-like"
        assert (out["data_frames"], out["payload_frames"]) == (1, 0)

    def test_histogram_totals(self):
        # keys in first-seen order over the rows; a row without TCP frames
        # adds none
        rows = [row("10.0.0.1", "10.0.0.2", 4444, 1.0, 0, proto="TCP",
                    flags="S:1,AS:1,A:2,AF:2"),
                row("10.0.0.1", "10.0.0.2", 4444, 1.0, 0, proto="UDP"),
                *self.shell_rows()]
        out = hunt.stream_flag_profile(rows)
        assert list(out["histogram"].items()) == [
            ("S", 4), ("AS", 4), ("A", 35), ("AF", 2), ("AP", 60), ("R", 3)]
        assert out["total_frames"] == sum(out["histogram"].values()) == 108
        assert out["data_frames"] == 95 and out["payload_frames"] == 60
        assert out["dominance"] == 1.0


class TestLossyRun:
    def test_run_and_hunt_profile_the_delivered_frames(self, tmp_path):
        # 1% loss on every segment: a profile sums the flags of its reverse
        # connections' conn.log rows, which count delivered frames alone
        plan = planmod.default_plan()
        for segment in plan["segments"].values():
            segment["loss_rate"] = 0.01
        plan_path = str(tmp_path / "lossy.json")
        harness.write_json(plan, plan_path)
        out = tmp_path / "out"
        build = harness.run(plan, str(out), seed=42)
        ran = (out / "hunt_report.json").read_bytes()
        (out / "hunt_report.json").unlink()
        assert cli.main(["--quiet", "hunt", "--plan", plan_path,
                         "--out", str(out)]) == 0
        assert (out / "hunt_report.json").read_bytes() == ran
        rows = analytics.read_conn_log(out / "conn.log")
        profiles = json.loads(ran)["flag_profiles"]
        assert list(profiles) == ["192.168.10.151:4444"]
        for name, profile in profiles.items():
            suspect, port = name.split(":")
            reverse = [r for r in rows if r["orig_h"] == build.victim
                       and (r["resp_h"], r["resp_p"]) == (suspect, int(port))]
            assert list(profile["histogram"].items()) == list(
                summed_flags(reverse).items())
            sent = [f for f in build.sim.capture if f.l4 == "TCP"
                    and {f.src_ip, f.dst_ip} == {build.victim, suspect}
                    and int(port) in (f.src_port, f.dst_port)]
            # some of the streams' frames were lost on the way
            assert profile["total_frames"] == sum(
                f.delivered for f in sent) < len(sent)


class TestSyslog:
    LINES = [
        "2019-10-01T22:38:42.000Z webgui: login admin from 10.0.0.7",
        "2019-10-01T22:38:43.120Z php: reverse shell payload executed",
        "not a syslog line at all",
        "2019-10-01T22:39:00.000Z sh: payload command 'id' uid=0(root)",
    ]

    def test_parse_two_columns_and_rejects(self):
        events, rejects = hunt.parse_syslog(self.LINES)
        # the timestamp column is read and dropped
        assert events == ["webgui: login admin from 10.0.0.7",
                          "php: reverse shell payload executed",
                          "sh: payload command 'id' uid=0(root)"]
        assert rejects == ["not a syslog line at all"]

    def test_search(self):
        events, _ = hunt.parse_syslog(self.LINES)
        hits = hunt.search_events(events, "shell")
        assert len(hits) == 1
        assert hunt.search_events(events, "uid=0")[0].startswith("sh:")

    def test_empty_log(self):
        events, rejects = hunt.parse_syslog([])
        assert events == [] and rejects == []


class TestHuntChain:
    def test_end_to_end_identifies_attacker(self):
        conn = [
            row("10.0.0.5", "10.0.0.1", 443, 2.0, 100),
            row("10.0.0.7", "10.0.0.1", 443, 120.0, 9000),
            row("10.0.0.1", "10.0.0.7", 4444, 300.0, 10, proto="TCP",
                flags="S:1,AS:1,A:6,AP:5"),
        ]
        syslog = ["2019-10-01T22:00:00.000Z php: reverse shell opened\n"]
        report = hunt.hunt_report(conn, "10.0.0.1", backdoor_ports=(4444,),
                                  syslog=syslog, truth=syslog)
        assert report["identified_attacker"] == "10.0.0.7"
        assert report["backdoor_ports"] == [4444]
        assert report["reverse_connections"]["count"] == 1
        profile = report["flag_profiles"]["10.0.0.7:4444"]
        assert profile["verdict"] == "interactive-shell-like"
        assert report["syslog"]["hits"] == 1
        assert report["syslog"]["tampered"] is False
