import csv

import pytest

from iiotsim import hunt
from iiotsim.netsim import Frame


def write_syslog_csv(events, path, rejects=None, reject_path=None) -> None:
    """Parsed syslog events as a two-column CSV, and the rejected lines
    to reject_path."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("timestamp", "event"))
        for e in events:
            w.writerow((e.timestamp, e.event))
    if reject_path is not None:
        with open(reject_path, "w") as fh:
            for line in rejects or ():
                fh.write(line + "\n")


def row(orig, resp, resp_p, duration, orig_bytes, orig_p=50000, proto="HTTPS"):
    return {"ts": 0.0, "orig_h": orig, "orig_p": orig_p, "resp_h": resp,
            "resp_p": resp_p, "proto": proto, "duration": duration,
            "orig_bytes": orig_bytes, "resp_bytes": 0, "orig_pkts": 1,
            "resp_pkts": 1}


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


def tcp_frame(ts, src, dst, sport, dport, flags, payload=b""):
    return Frame(ts_us=ts, segment="lan", sender=src, src_mac="m1",
                 dst_mac="m2", src_ip=src, dst_ip=dst, src_port=sport,
                 dst_port=dport, l4="TCP", tcp_flags=tuple(sorted(flags)),
                 payload=payload, proto_tag="TCP", delivered=True,
                 deliver_ts_us=ts + 10)


class TestFlagProfile:
    def shell_stream(self):
        f = []
        f.append(tcp_frame(0, "10.0.0.1", "10.0.0.2", 500, 4444, ("SYN",)))
        f.append(tcp_frame(1, "10.0.0.2", "10.0.0.1", 4444, 500,
                           ("SYN", "ACK")))
        f.append(tcp_frame(2, "10.0.0.1", "10.0.0.2", 500, 4444, ("ACK",)))
        for n in range(10):
            f.append(tcp_frame(10 + n, "10.0.0.2", "10.0.0.1", 4444, 500,
                               ("PSH", "ACK"), b"cmd"))
            f.append(tcp_frame(11 + n, "10.0.0.1", "10.0.0.2", 500, 4444,
                               ("PSH", "ACK"), b"out"))
            f.append(tcp_frame(12 + n, "10.0.0.2", "10.0.0.1", 4444, 500,
                               ("ACK",)))
        f.append(tcp_frame(99, "10.0.0.1", "10.0.0.2", 500, 4444, ("RST",)))
        return f

    def test_backdoor_stream_verdict_positive(self):
        out = hunt.stream_flag_profile(self.shell_stream(), "10.0.0.1",
                                       "10.0.0.2", 4444)
        assert out["verdict"] == "interactive-shell-like"
        assert out["dominance"] > 0.8

    def test_handshake_only_negative(self):
        frames = self.shell_stream()[:3]
        out = hunt.stream_flag_profile(frames, "10.0.0.1", "10.0.0.2", 4444)
        assert out["verdict"] == "not-shell-like"
        assert out["payload_frames"] == 0

    def test_histogram_totals(self):
        frames = self.shell_stream()
        out = hunt.stream_flag_profile(frames, "10.0.0.1", "10.0.0.2", 4444)
        assert sum(out["histogram"].values()) == out["total_frames"] == \
            len(frames)
        assert out["histogram"]["AP"] == 20


class TestSyslog:
    LINES = [
        "2019-10-01T22:38:42.000Z webgui: login admin from 10.0.0.7",
        "2019-10-01T22:38:43.120Z php: reverse shell payload executed",
        "not a syslog line at all",
        "2019-10-01T22:39:00.000Z sh: payload command 'id' uid=0(root)",
    ]

    def test_parse_two_columns_and_rejects(self):
        events, rejects = hunt.parse_syslog(self.LINES)
        assert len(events) == 3
        assert events[0].timestamp == "2019-10-01T22:38:42.000Z"
        assert events[0].event == "webgui: login admin from 10.0.0.7"
        assert rejects == ["not a syslog line at all"]

    def test_search(self):
        events, _ = hunt.parse_syslog(self.LINES)
        hits = hunt.search_events(events, "shell")
        assert len(hits) == 1
        assert hunt.search_events(events, "uid=0")[0].event.startswith("sh:")

    def test_csv_and_reject_file(self, tmp_path):
        events, rejects = hunt.parse_syslog(self.LINES)
        csv_path = tmp_path / "log.csv"
        rej_path = tmp_path / "log.rejects"
        write_syslog_csv(events, csv_path, rejects, rej_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "timestamp,event"
        assert len(lines) == 4
        assert rej_path.read_text().strip() == "not a syslog line at all"

    def test_empty_log(self):
        events, rejects = hunt.parse_syslog([])
        assert events == [] and rejects == []


class TestHuntChain:
    def test_end_to_end_identifies_attacker(self):
        conn = [
            row("10.0.0.5", "10.0.0.1", 443, 2.0, 100),
            row("10.0.0.7", "10.0.0.1", 443, 120.0, 9000),
            row("10.0.0.1", "10.0.0.7", 4444, 300.0, 10, proto="TCP"),
        ]
        frames = []
        frames.append(tcp_frame(0, "10.0.0.1", "10.0.0.7", 600, 4444,
                                ("SYN",)))
        frames.append(tcp_frame(1, "10.0.0.7", "10.0.0.1", 4444, 600,
                                ("SYN", "ACK")))
        frames.append(tcp_frame(2, "10.0.0.1", "10.0.0.7", 600, 4444,
                                ("ACK",)))
        for n in range(5):
            frames.append(tcp_frame(10 + n, "10.0.0.7", "10.0.0.1", 4444, 600,
                                    ("PSH", "ACK"), b"x"))
            frames.append(tcp_frame(11 + n, "10.0.0.1", "10.0.0.7", 600, 4444,
                                    ("ACK",)))
        syslog = ["2019-10-01T22:00:00.000Z php: reverse shell opened\n"]
        report = hunt.hunt_report(conn, frames, "10.0.0.1",
                                  backdoor_ports=(4444,), syslog=syslog,
                                  truth=syslog)
        assert report["identified_attacker"] == "10.0.0.7"
        assert report["backdoor_ports"] == [4444]
        assert report["reverse_connections"]["count"] == 1
        profile = report["flag_profiles"]["10.0.0.7:4444"]
        assert profile["verdict"] == "interactive-shell-like"
        assert report["syslog"]["hits"] == 1
        assert report["syslog"]["tampered"] is False
