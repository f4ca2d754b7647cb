import gc
import json
import weakref

import pytest

from iiotsim import analytics, harness
from iiotsim.attacks import AttackWindow
from iiotsim.netsim import Frame

from conftest import small_plan


def mk_frame(ts_us, src, sport, dst, dport, flags=(), payload=b"",
             l4="TCP", proto="HTTP", sender=None, delivered=True,
             deliver_ts_us=None, origin=True, final=True):
    return Frame(ts_us=ts_us, segment="lan", sender=sender or src,
                 src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
                 src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
                 l4=l4, tcp_flags=tuple(sorted(flags)), payload=payload,
                 proto_tag=proto, origin=origin, final=final,
                 delivered=delivered,
                 deliver_ts_us=deliver_ts_us if deliver_ts_us is not None
                 else ts_us + 100)


def seven_frame_stream():
    """Handshake + two data frames + FIN close, hand-countable."""
    c, s = "10.0.0.1", "10.0.0.2"
    return [
        mk_frame(1_000, c, 5000, s, 80, ("SYN",)),
        mk_frame(1_200, s, 80, c, 5000, ("SYN", "ACK")),
        mk_frame(1_400, c, 5000, s, 80, ("ACK",)),
        mk_frame(2_000, c, 5000, s, 80, ("PSH", "ACK"), b"request-xy"),
        mk_frame(3_000, s, 80, c, 5000, ("PSH", "ACK"), b"resp"),
        mk_frame(4_000, c, 5000, s, 80, ("FIN", "ACK")),
        mk_frame(4_200, s, 80, c, 5000, ("FIN", "ACK")),
    ]


class TestBuildConversations:
    def test_seven_frame_fixture_hand_counts(self):
        convs = analytics.build_conversations(seven_frame_stream(), ())
        assert len(convs) == 1
        c = convs[0]
        assert (c.orig_ip, c.orig_port) == ("10.0.0.1", 5000)
        assert (c.resp_ip, c.resp_port) == ("10.0.0.2", 80)
        assert c.orig_pkts == 4
        assert c.resp_pkts == 3
        assert c.orig_bytes == 10
        assert c.resp_bytes == 4
        assert c.ts_first_us == 1_000 and c.ts_last_us == 4_200
        assert c.duration_s == pytest.approx(0.0032)
        assert c.flag_hist == {"S": 1, "AS": 1, "A": 1, "AP": 2, "AF": 2}

    def test_spans_are_kept_for_the_senders_given_alone(self):
        frames = seven_frame_stream()
        spanned = analytics.build_conversations(frames,
                                                ["10.0.0.1", "10.0.0.9"])
        assert spanned[0].sender_spans == {"10.0.0.1": [1_000, 4_000]}
        # a conversation no span sender sent in keeps no span dict at all
        assert analytics.build_conversations(frames, ())[0].sender_spans \
            is None

    def test_a_udp_conversation_keeps_no_flag_histogram(self):
        c, s = "10.0.0.1", "10.0.0.2"
        frames = [mk_frame(0, c, 5353, s, 53, l4="UDP", proto="DNS"),
                  mk_frame(50, s, 53, c, 5353, l4="UDP", proto="DNS")]
        convs = analytics.build_conversations(frames, [c])
        assert len(convs) == 1 and convs[0].total_pkts() == 2
        assert convs[0].flag_hist is None
        assert convs[0].sender_spans == {c: [0, 0]}
        assert analytics.conn_row(convs[0])["flags"] == "-"

    @pytest.mark.parametrize("request_end,reply_end", [
        # one address, two ports: ordered by port
        (("10.0.0.1", 5000), ("10.0.0.1", 80)),
        (("10.0.0.1", 80), ("10.0.0.1", 5000)),
        # one port, two addresses: ordered by address
        (("10.0.0.2", 7), ("10.0.0.1", 7)),
        (("10.0.0.1", 7), ("10.0.0.2", 7)),
        # the lower address has the higher port
        (("10.0.0.1", 9000), ("10.0.0.2", 80)),
        (("10.0.0.2", 80), ("10.0.0.1", 9000)),
    ])
    def test_a_frame_and_its_reply_are_one_conversation(self, request_end,
                                                        reply_end):
        for l4 in ("TCP", "UDP"):
            frames = [mk_frame(0, *request_end, *reply_end, l4=l4),
                      mk_frame(10, *reply_end, *request_end, l4=l4),
                      mk_frame(20, *request_end, *reply_end, l4=l4)]
            convs = analytics.build_conversations(frames, ())
            assert [(c.orig_ip, c.orig_port, c.orig_pkts, c.resp_pkts)
                    for c in convs] == [(*request_end, 2, 1)]
        # the same two ends under TCP and UDP are two conversations
        frames = [mk_frame(0, *request_end, *reply_end, l4="TCP"),
                  mk_frame(10, *reply_end, *request_end, l4="UDP")]
        assert len(analytics.build_conversations(frames, ())) == 2

    def test_empty_capture(self):
        assert analytics.build_conversations([], ()) == []

    def test_interleaved_flows_partition(self):
        frames = []
        for n in range(6):
            frames.append(mk_frame(1_000 + n * 100, "10.0.0.1", 5000,
                                   "10.0.0.2", 80, ("PSH", "ACK"), b"a"))
            frames.append(mk_frame(1_050 + n * 100, "10.0.0.3", 6000,
                                   "10.0.0.2", 80, ("PSH", "ACK"), b"bb"))
        convs = analytics.build_conversations(frames, ())
        assert len(convs) == 2
        assert sum(c.total_pkts() for c in convs) == len(frames)

    def test_idle_gap_splits(self):
        c, s = "10.0.0.1", "10.0.0.2"
        frames = [mk_frame(0, c, 5000, s, 80, ("PSH", "ACK"), b"x"),
                  mk_frame(61_000_000, c, 5000, s, 80, ("PSH", "ACK"), b"x")]
        assert len(analytics.build_conversations(frames, ())) == 2

    def test_syn_restart_after_close_splits(self):
        c, s = "10.0.0.1", "10.0.0.2"
        frames = [mk_frame(0, c, 5000, s, 80, ("SYN",)),
                  mk_frame(100, c, 5000, s, 80, ("PSH", "ACK"), b"x"),
                  mk_frame(200, c, 5000, s, 80, ("RST",)),
                  mk_frame(5_000, c, 5000, s, 80, ("SYN",)),
                  mk_frame(5_100, c, 5000, s, 80, ("PSH", "ACK"), b"y")]
        assert len(analytics.build_conversations(frames, ())) == 2

    def test_undelivered_frames_excluded(self):
        frames = [mk_frame(0, "10.0.0.1", 1, "10.0.0.2", 2, (), b"x",
                           l4="UDP", delivered=False)]
        assert analytics.build_conversations(frames, ()) == []

    def test_conservation_on_simulated_run(self, tmp_path):
        plan = small_plan(duration_s=30.0)
        result = harness.run(plan, str(tmp_path))
        frames = [f for f in result.sim.capture if f.delivered]
        convs = analytics.build_conversations(frames, ())
        assert sum(c.total_bytes() for c in convs) == \
            sum(len(f.payload) for f in frames)
        assert sum(c.total_pkts() for c in convs) == len(frames)


class TestConnLog:
    def test_round_trip(self, tmp_path):
        convs = analytics.build_conversations(seven_frame_stream(), ())
        path = tmp_path / "conn.log"
        analytics.write_conn_log(map(analytics.conn_row, convs), path)
        header = path.read_text().splitlines()[0].split("\t")
        assert tuple(header) == analytics.CONN_LOG_COLUMNS
        rows = analytics.read_conn_log(path)
        assert rows[0]["orig_h"] == "10.0.0.1"
        assert rows[0]["duration"] == pytest.approx(0.0032)
        assert rows[0]["orig_bytes"] == 10

    def test_keep_keeps_the_rows_of_a_filtered_full_read(self, tmp_path):
        frames = []
        for n in range(12):
            frames.append(mk_frame(1_000 * n, f"10.0.0.{n % 4 + 1}",
                                   5000 + n, "10.0.0.9", (80, 443)[n % 2],
                                   ("PSH", "ACK"), b"x" * n))
        path = tmp_path / "conn.log"
        analytics.write_conn_log(map(analytics.conn_row,
                                     analytics.build_conversations(frames,
                                                                   ())), path)
        full = analytics.read_conn_log(path)
        assert len(full) == 12

        def keep(row):
            return row["resp_p"] == 443 and row["orig_h"] != "10.0.0.2"

        kept = analytics.read_conn_log(path, keep=keep)
        assert kept == [r for r in full if keep(r)]
        assert 0 < len(kept) < len(full)
        assert analytics.read_conn_log(path, keep=lambda row: False) == []

    def test_a_bad_row_after_dropped_rows_names_its_line(self, tmp_path):
        path = tmp_path / "conn.log"
        analytics.write_conn_log(map(analytics.conn_row,
                                     analytics.build_conversations(
                                         seven_frame_stream(), ())), path)
        good = path.read_text().splitlines()
        # header, the row three times, a blank line, then a bad orig_p on
        # line 6 of the file
        bad = good[1].split("\t")
        bad[2] = "x"
        path.write_text("\n".join(good + good[1:] * 2 + ["", "\t".join(bad)])
                        + "\n")
        for keep in (None, lambda row: False):
            with pytest.raises(ValueError,
                               match="conn.log row at line 6: ValueError"):
                analytics.read_conn_log(path, keep=keep)


class TestResponseTimes:
    @pytest.mark.parametrize("proto", list(analytics.RESPONSE_PROTOCOLS))
    def test_reference_counting_frees_an_accumulator(self, proto):
        # the walk runs with the collector paused: an accumulator in a
        # cycle would hold its samples and pending requests until a pass
        collecting = gc.isenabled()
        gc.disable()
        try:
            acc = analytics.ResponseTimes(proto)
            acc.add(mk_frame(0, "10.0.0.1", 5000, "10.0.0.2", 80,
                             ("PSH", "ACK"), b"x", proto=proto))
            gone = weakref.ref(acc)
            del acc
            assert gone() is None
        finally:
            if collecting:
                gc.enable()

    def test_modbus_subtraction(self):
        from iiotsim import fieldbus as fb
        req_raw = fb.encode_request(fb.ModbusAdu(7, 1, 3, 100, 1))
        resp_raw = fb.encode_response(fb.ModbusAdu(7, 1, 3, data=(164,),
                                                   count_or_value=1))
        frames = [
            mk_frame(1_000_000, "10.0.0.1", 5000, "10.0.0.2", 502,
                     ("PSH", "ACK"), req_raw, proto="MODBUS"),
            mk_frame(1_005_000, "10.0.0.2", 502, "10.0.0.1", 5000,
                     ("PSH", "ACK"), resp_raw, proto="MODBUS",
                     deliver_ts_us=1_011_000),
        ]
        stats = analytics.response_times(frames, "MODBUS")
        assert stats.samples_ms == [11.0]
        assert stats.unmatched == 0

    def test_mqtt_qos2_handshake_time(self):
        def pkt(ptype, mid):
            return json.dumps({"type": ptype, "qos": 2, "mid": mid,
                               "topic": "station/PLC", "payload": "x"}).encode()
        frames = [
            mk_frame(0, "10.0.0.1", 5000, "10.0.0.2", 1883, ("PSH", "ACK"),
                     pkt("PUBLISH", 42115), proto="MQTT"),
            mk_frame(2_000, "10.0.0.2", 1883, "10.0.0.1", 5000,
                     ("PSH", "ACK"), pkt("PUBREC", 42115), proto="MQTT"),
            mk_frame(4_000, "10.0.0.1", 5000, "10.0.0.2", 1883,
                     ("PSH", "ACK"), pkt("PUBREL", 42115), proto="MQTT"),
            mk_frame(6_000, "10.0.0.2", 1883, "10.0.0.1", 5000,
                     ("PSH", "ACK"), pkt("PUBCOMP", 42115), proto="MQTT",
                     deliver_ts_us=8_600),
        ]
        stats = analytics.response_times(frames, "MQTT")
        assert stats.samples_ms == [8.6]

    def test_unmatched_request_excluded_from_mean(self):
        from iiotsim import fieldbus as fb
        req = fb.encode_request(fb.ModbusAdu(9, 1, 3, 0, 1))
        frames = [mk_frame(0, "10.0.0.1", 5000, "10.0.0.2", 502,
                           ("PSH", "ACK"), req, proto="MODBUS")]
        stats = analytics.response_times(frames, "MODBUS")
        assert stats.samples_ms == []
        assert stats.unmatched == 1
        assert stats.mean_ms == 0.0

    def test_matching_is_injective(self):
        # two identical-tid responses: only one request to consume
        from iiotsim import fieldbus as fb
        req = fb.encode_request(fb.ModbusAdu(3, 1, 3, 0, 1))
        resp = fb.encode_response(fb.ModbusAdu(3, 1, 3, data=(1,),
                                               count_or_value=1))
        frames = [
            mk_frame(0, "10.0.0.1", 5000, "10.0.0.2", 502, ("PSH", "ACK"),
                     req, proto="MODBUS"),
            mk_frame(1_000, "10.0.0.2", 502, "10.0.0.1", 5000, ("PSH", "ACK"),
                     resp, proto="MODBUS", deliver_ts_us=2_000),
            mk_frame(3_000, "10.0.0.2", 502, "10.0.0.1", 5000, ("PSH", "ACK"),
                     resp, proto="MODBUS", deliver_ts_us=4_000),
        ]
        stats = analytics.response_times(frames, "MODBUS")
        assert len(stats.samples_ms) == 1

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            analytics.response_times([], "GOPHER")

    @pytest.mark.parametrize("proto,port,question,answer", [
        ("COAP", 5683, {"type": "CON", "code": "GET", "mid": 5},
         {"type": "ACK", "code": "2.05", "mid": 5}),
        ("DNS", 53, {"q": "edge.local", "id": 5},
         {"q": "edge.local", "id": 5, "a": "192.168.10.30"}),
        ("MQTT", 1883, {"type": "PUBLISH", "qos": 2, "mid": 5},
         {"type": "PUBCOMP", "mid": 5}),
    ])
    def test_json_bodies_that_are_not_objects_are_skipped(
            self, proto, port, question, answer):
        c, s = "10.0.0.1", "10.0.0.2"
        frames = [mk_frame(0, c, 5000, s, port,
                           payload=json.dumps(question).encode(), proto=proto)]
        for n, body in enumerate((b"[1]", b'"x"', b"null", b"7"), start=1):
            frames += [mk_frame(n * 100, c, 5000, s, port, payload=body,
                                proto=proto),
                       mk_frame(n * 100 + 50, s, port, c, 5000, payload=body,
                                proto=proto)]
        frames.append(mk_frame(2_000, s, port, c, 5000,
                               payload=json.dumps(answer).encode(),
                               proto=proto, deliver_ts_us=4_000))
        stats = analytics.response_times(frames, proto)
        assert stats.samples_ms == [4.0]
        assert stats.unmatched == 0


class TestJitter:
    def frames_at(self, arrivals_ms):
        return [mk_frame(int(t * 1000) - 100, "10.0.0.1", 1, "10.0.0.2", 2,
                         (), b"", l4="UDP", proto="DNS",
                         deliver_ts_us=int(t * 1000)) for t in arrivals_ms]

    def test_equal_gaps_zero_jitter(self):
        frames = self.frames_at([10, 20, 30, 40, 50])
        windows, flagged = analytics.jitter_series(frames)
        assert len(windows) == 1
        assert windows[0].jitter_ms == 0.0
        assert flagged == []

    def test_hand_computed_value(self):
        # gaps 10, 20, 10 ms -> |10-20| and |20-10| -> mean 10 ms
        frames = self.frames_at([0, 10, 30, 40])
        windows, _ = analytics.jitter_series(frames)
        assert windows[0].jitter_ms == pytest.approx(10.0)

    def test_threshold_flags_windows(self):
        frames = self.frames_at([0, 10, 100, 110, 220])
        windows, flagged = analytics.jitter_series(frames)
        assert flagged and flagged[0].jitter_ms > 30.0

    def test_small_windows_skipped(self):
        frames = self.frames_at([0, 10])
        windows, _ = analytics.jitter_series(frames)
        assert windows == []

    def test_ten_second_windows(self):
        # 0..9.99 s and 10..13 s make two windows; 20 s alone is skipped
        frames = self.frames_at([0, 1000, 3000, 9990, 10_000, 11_000, 13_000,
                                 20_000])
        windows, flagged = analytics.jitter_series(frames)
        assert [w.t0_us for w in windows] == [0, 10_000_000]
        assert [w.gaps for w in windows] == [3, 2]
        assert windows[1].jitter_ms == pytest.approx(1000.0)
        assert flagged == windows


class TestThroughputAndRates:
    def test_bytes_per_second(self):
        frames = [mk_frame(n * 1_000_000, "10.0.0.1", 1, "10.0.0.2", 2, (),
                           b"x" * 617, l4="UDP", proto="RAW",
                           deliver_ts_us=n * 1_000_000 + 50)
                  for n in range(10)]
        series = analytics.throughput_series(frames)
        assert series == [(0, 617.0)]

    def test_plc_rate_decomposition(self):
        from iiotsim import fieldbus as fb
        frames = []
        t = 0
        for n in range(61):
            raw = fb.encode_request(fb.ModbusAdu(n, 1, 3, 100, 1))
            frames.append(mk_frame(t, "10.0.0.1", 5000, "10.0.0.9", 502,
                                   ("PSH", "ACK"), raw, proto="MODBUS"))
            t += 100_000
        for n in range(90):
            raw = fb.encode_request(fb.ModbusAdu(n, 1, 6, 101, 250))
            frames.append(mk_frame(t, "10.0.0.1", 5000, "10.0.0.9", 502,
                                   ("PSH", "ACK"), raw, proto="MODBUS"))
            t += 100_000
        rates = analytics.plc_request_rates(frames, "10.0.0.9",
                                            span_us=10_000_000)
        assert rates["read_per_s"] == pytest.approx(6.1)
        assert rates["write_per_s"] == pytest.approx(9.0)
        assert rates["transfer_per_s"] == pytest.approx(15.1)


def window(kind, lo, hi, attacker="attacker"):
    return AttackWindow(kind, lo, hi, attacker, ("victim",))


class TestLabeling:
    def conv(self, sender, t0, t1, windows, proto="MODBUS"):
        frames = [mk_frame(t0, "10.0.0.5", 5000, "10.0.0.9", 502,
                           ("PSH", "ACK"), b"x", proto=proto, sender=sender),
                  mk_frame(t1, "10.0.0.5", 5000, "10.0.0.9", 502,
                           ("PSH", "ACK"), b"x", proto=proto, sender=sender)]
        return analytics.build_conversations(
            frames, analytics.span_senders(windows))[0]

    def test_attacker_conversation_in_window_labeled(self):
        windows = [window("modbus_dos", 0, 10_000)]
        conv = self.conv("attacker", 1_000, 2_000, windows)
        rows, counts, dropped = analytics.label_dataset([conv], windows)
        assert list(rows)[0].label == "modbus_dos"

    def test_benign_traffic_in_window_stays_normal(self):
        windows = [window("modbus_dos", 0, 10_000)]
        conv = self.conv("edge-gw", 1_000, 2_000, windows)
        rows, counts, dropped = analytics.label_dataset([conv], windows)
        assert list(rows)[0].label == "normal"

    def test_attacker_conversation_outside_window_normal(self):
        windows = [window("modbus_dos", 0, 10_000)]
        conv = self.conv("attacker", 50_000, 60_000, windows)
        rows, counts, dropped = analytics.label_dataset([conv], windows)
        assert list(rows)[0].label == "normal"

    def test_unmapped_kind_drops_row(self):
        windows = [window("recon", 0, 10_000)]
        conv = self.conv("attacker", 1_000, 2_000, windows)
        rows, counts, dropped = analytics.label_dataset([conv], windows)
        assert list(rows) == [] and len(rows) == 0
        assert dropped == 1

    def test_overlapping_kinds_take_earliest_start(self):
        windows = [window("tamper", 1_000, 10_000),
                   window("arp_spoof", 2_000, 10_000)]
        conv = self.conv("attacker", 5_000, 6_000, windows)
        rows, _, _ = analytics.label_dataset([conv], windows)
        assert list(rows)[0].label == "poisoning"

    def test_labeling_deterministic(self):
        windows = [window("modbus_dos", 0, 10_000)]
        conv = self.conv("attacker", 1_000, 2_000, windows)
        a = analytics.label_dataset([conv], windows)
        b = analytics.label_dataset([conv], windows)
        assert list(a[0])[0].label == list(b[0])[0].label


DATASET_HEADER = ",".join(analytics.FEATURE_COLUMNS + ("label",))


class TestDatasetFeatures:
    def test_features_finite_and_csv_round_trip(self, tmp_path):
        convs = analytics.build_conversations(seven_frame_stream(), ())
        rows, _, _ = analytics.label_dataset(convs, [])
        rows = list(rows)
        for v in rows[0].features:
            assert v == v and abs(v) != float("inf")
        path = tmp_path / "dataset.csv"
        analytics.write_dataset_csv(rows, path)
        back = analytics.read_dataset_csv(path)
        assert back[0].features == rows[0].features
        assert back[0].label == "normal"

    @pytest.mark.parametrize("header,row,where", [
        ("a,b", "1,x", "row 1"),
        (DATASET_HEADER, "0," * 17 + "x,normal", "row 2"),
        (DATASET_HEADER, "0,normal", "row 2"),
    ])
    def test_read_rejects_malformed_csv(self, tmp_path, header, row, where):
        path = tmp_path / "dataset.csv"
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(ValueError, match=f"dataset.csv: {where}"):
            analytics.read_dataset_csv(path)

    def test_zero_duration_yields_finite_rates(self):
        frames = [mk_frame(1_000, "10.0.0.1", 1, "10.0.0.2", 2, (), b"xx",
                           l4="UDP", proto="DNS")]
        convs = analytics.build_conversations(frames, ())
        feats = analytics.conversation_features(convs[0])
        assert all(v == v and abs(v) != float("inf") for v in feats)

    def test_proto_one_hot(self):
        convs = analytics.build_conversations(seven_frame_stream(), ())
        feats = analytics.conversation_features(convs[0])
        onehot = feats[8:]
        assert sum(onehot) == 1.0
        assert onehot[analytics.PROTO_FEATURES.index("HTTP")] == 1.0
