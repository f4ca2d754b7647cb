import json
import random
from datetime import datetime, timezone

import pytest

from iiotsim import harness
from iiotsim.cloud import (MQTT_PORT, Broker, MqttClient, TopicFilterError,
                           _WindowCounter, decode_packet, dumps,
                           encode_packet, loads)
from iiotsim.netsim import LinkProfile, Simulation

from conftest import small_plan, topic_match

EPOCH = datetime(2019, 7, 18, 6, 0, 0, tzinfo=timezone.utc)


class TestTopicMatch:
    @pytest.mark.parametrize("flt,topic,expected", [
        ("station/+", "station/PLC", True),
        ("station/+", "station/PLC/x", False),
        ("station/#", "station/PLC/x", True),
        ("#", "station/PLC", True),
        ("#", "$SYS/broker/version", False),
        ("+/broker/version", "$SYS/broker/version", False),
        ("$SYS/#", "$SYS/broker/bytes/sent", True),
        ("$SYS/broker/version", "$SYS/broker/version", True),
        ("station/PLC", "station/PLC", True),
        ("station/PLC", "station/plc", False),
    ])
    def test_matching_table(self, flt, topic, expected):
        assert topic_match(flt, topic) is expected

    def test_invalid_filters_rejected(self):
        for flt in ("station/#/x", "sta#tion", "st+ation/x", ""):
            with pytest.raises(TopicFilterError):
                topic_match(flt, "station/PLC")


def outcome(fn, arg):
    """fn(arg) as ("value", its repr) or ("error", its type and text)."""
    try:
        return "value", repr(fn(arg))
    except Exception as e:
        return "error", type(e), str(e)


class TestJsonCodec:
    @pytest.mark.parametrize("value", [
        "caf\u00e9 \u65e5\u672c \U0001F600", 'quote " back \\ slash / tab \t',
        "\x00\x1f\x7f\n\r\b\f", "", 0.1, -0.0, 1e16, 1e-7, 2.5e300,
        123456789.123, float("nan"), float("inf"), float("-inf"), 10 ** 30,
        -7, True, False, None, [], {},
        {"type": "PUBLISH", "qos": 2, "topic": "station/PLC",
         "payload": '{"Measurement": 23.4}', "mid": 65535},
        {"a": [1, [2, {"b": None, "c": [True, False]}]], "": {"": []}},
        {1: "int key", 2.5: "float key", True: "bool key", None: "none"},
        ("tuple", "as", "list"),
    ])
    def test_dumps_is_json_dumps(self, value):
        assert dumps(value) == json.dumps(value)

    @pytest.mark.parametrize("value", [
        object(), {"set": {1}}, [b"bytes"], {("tuple", "key"): 1}])
    def test_dumps_refuses_what_json_dumps_refuses(self, value):
        assert outcome(dumps, value)[:2] == outcome(json.dumps, value)[:2]
        assert outcome(dumps, value)[0] == "error"

    def test_dumps_refuses_a_circular_value_and_recovers(self):
        inner = {"a": []}
        outer = [inner]
        inner["a"].append(outer)
        assert outcome(dumps, outer) == outcome(json.dumps, outer)
        assert outcome(dumps, outer)[1] is ValueError
        # the failed call leaves no mark on these objects for the next one
        inner["a"].pop()
        assert dumps(outer) == '[{"a": []}]'
        assert dumps([outer, outer]) == json.dumps([outer, outer])

    @pytest.mark.parametrize("text", [
        '{"a": 1}', "[1, 2.5, null, true]", '"caf\\u00e9"', "1e16", "NaN",
        "-Infinity", " 1", "1 ", "\n{}\t", "\ufeff{}", '{"a": 1} x', "1 2",
        "[1][2]", "", " ", "{", "nul", "[1,]", '{"a" 1}', "01", '"\x01"',
        '{"a": 1, "a": 2}', "[" * 3 + "]" * 3, '"\\ud800"'])
    def test_loads_is_json_loads(self, text):
        assert outcome(loads, text) == outcome(json.loads, text)


@pytest.mark.parametrize("raw", [b"[1]", b'"CONNECT"', b"null", b"7",
                                 b'{"type": "PING"}', b"{", b"\xff"])
def test_decode_packet_rejects_what_is_not_a_packet(raw):
    with pytest.raises(ValueError):
        decode_packet(raw)


def broker_pair(seed=21, acl_enabled=False, allowlist=(), dup_every=0):
    sim = Simulation(seed=seed)
    sim.add_segment("wan", LinkProfile(200, 0, 0))
    cloud = sim.attach_host("cloud", [("wan", "00:50:56:c0:00:10",
                                       "192.168.2.10")])
    gw = sim.attach_host("gw", [("wan", "00:50:56:c0:00:99", "192.168.2.99")])
    broker = Broker(sim, cloud, EPOCH, version="iiotsim-broker 1.0",
                    service_time_us=1000, sys_period_us=10_000_000,
                    acl_enabled=acl_enabled, allowlist=allowlist)
    client = MqttClient(sim, gw, "192.168.2.10", "pub", dup_every=dup_every)
    return sim, broker, client, gw


def mqtt_frames(sim, ptype):
    out = []
    for f in sim.capture:
        if f.proto_tag == "MQTT" and f.payload:
            try:
                pkt = decode_packet(f.payload)
            except ValueError:
                continue
            if pkt["type"] == ptype:
                out.append((f, pkt))
    return out


BODY = ('{"Device ID": "Slave 7", "Device Type": "I2C slave", '
        '"Measurement": 94.34675, "Function": "I/O Pressure Sensor", '
        '"Content Type": "Pressure"}')


class TestQos2:
    def test_four_packet_sequence_shares_one_id(self):
        sim, broker, client, gw = broker_pair()
        client.connect()
        sim.run_until(100_000)
        mid = client.publish("station/PLC", BODY, qos=2)
        sim.run_until(1_000_000)
        sequence = []
        for ptype in ("PUBLISH", "PUBREC", "PUBREL", "PUBCOMP"):
            hits = mqtt_frames(sim, ptype)
            assert hits, ptype
            assert all(pkt["mid"] == mid for _, pkt in hits)
            sequence.append(min(f.ts_us for f, _ in hits))
        assert sequence == sorted(sequence)
        assert client.completed_mids == [mid]

    def test_qos0_publish_has_no_acks(self):
        sim, broker, client, gw = broker_pair()
        client.connect()
        sim.run_until(100_000)
        client.publish("station/PLC", BODY, qos=0)
        sim.run_until(1_000_000)
        assert mqtt_frames(sim, "PUBLISH")
        assert not mqtt_frames(sim, "PUBREC")
        assert len(broker.historian.rows) == 1

    def test_each_subscriber_receives_exactly_one_copy(self):
        sim, broker, client, gw = broker_pair()
        subs = []
        for n in range(2):
            host = sim.attach_host(f"sub{n}", [("wan", f"00:50:56:c0:00:2{n}",
                                                f"192.168.2.2{n}")])
            sub = MqttClient(sim, host, "192.168.2.10", f"sub{n}")
            got = []
            sub.on_message = lambda t, p, got=got: got.append((t, p))
            sub.on_connected = lambda c: c.subscribe(["station/#"])
            sub.connect()
            subs.append(got)
        client.connect()
        sim.run_until(200_000)
        client.publish("station/PLC", BODY, qos=2)
        sim.run_until(2_000_000)
        for got in subs:
            assert got == [("station/PLC", BODY)]

    def test_duplicate_retries_deliver_exactly_once(self):
        sim, broker, client, gw = broker_pair(dup_every=1)
        client.connect()
        sim.run_until(100_000)
        for n in range(20):
            client.publish("station/PLC", BODY, qos=2)
        sim.run_until(5_000_000)
        # every handshake carried duplicate PUBLISH and PUBREL packets...
        publishes = mqtt_frames(sim, "PUBLISH")
        assert len(publishes) > 20
        # ...yet the historian gained exactly one row per publish
        assert len(broker.historian.rows) == 20
        assert len(client.completed_mids) == 20


class TestSysTopics:
    def test_subscription_count_snapshot(self):
        sim, broker, client, gw = broker_pair()
        filters = [f"station/t{n}" for n in range(10)]
        for n in range(2):
            host = sim.attach_host(f"sub{n}", [("wan", f"00:50:56:c0:00:3{n}",
                                                f"192.168.2.3{n}")])
            sub = MqttClient(sim, host, "192.168.2.10", f"sub{n}")
            sub.on_connected = lambda c: c.subscribe(filters)
            sub.connect()
        sim.run_until(1_000_000)
        snap = broker.sys_snapshot()
        assert snap["$SYS/broker/subscriptions/count"] == "20"
        assert snap["$SYS/broker/version"] == "iiotsim-broker 1.0"

    def test_counters_monotone_across_ticks(self):
        sim, broker, client, gw = broker_pair()
        client.connect()
        sim.run_until(100_000)
        seen = []
        for n in range(5):
            client.publish("station/PLC", BODY, qos=2)
            sim.run_until(sim.now_us + 500_000)
            snap = broker.sys_tick()
            seen.append((int(snap["$SYS/broker/bytes/sent"]),
                         int(snap["$SYS/broker/messages/received"])))
        assert seen == sorted(seen)

    def test_zero_traffic_leaves_bytes_sent_unchanged(self):
        sim, broker, client, gw = broker_pair()
        before = broker.sys_snapshot()["$SYS/broker/bytes/sent"]
        sim.run_until(1_000_000)
        after = broker.sys_snapshot()["$SYS/broker/bytes/sent"]
        assert before == after == "0"


class TestWindowCounter:
    def test_rate_equals_recomputed_sum(self):
        rng = random.Random(7)
        counter = _WindowCounter(60)
        added = []
        now = 0
        for _ in range(3000):
            now += rng.choice((0, 1, 250_000, 4_000_000, 90_000_000))
            if rng.random() < 0.7:
                amount = rng.randrange(0, 5000)
                counter.add(now, amount)
                added.append((now, amount))
            else:
                cutoff = now - counter.window_us
                expected = sum(a for ts, a in added if ts >= cutoff)
                assert counter.rate_per_min(now) == expected / counter.minutes


class TestCloudStore:
    def test_slave7_row(self):
        sim, broker, client, gw = broker_pair()
        rid = broker.historian.store(1000, "station/I2Cslave", BODY)
        assert rid == 1
        row = broker.historian.rows[0]
        assert row.device_id == "Slave 7"
        assert row.measurement == 94.34675

    def test_non_numeric_measurement_quarantined(self):
        sim, broker, client, gw = broker_pair()
        bad = json.loads(BODY)
        bad["Measurement"] = "94.3"
        assert broker.historian.store(0, "station/I2Cslave",
                                      json.dumps(bad)) is None
        bad["Measurement"] = True
        assert broker.historian.store(0, "station/I2Cslave",
                                      json.dumps(bad)) is None
        assert len(broker.historian.quarantine) == 2
        assert not broker.historian.rows

    def test_wrong_key_set_quarantined(self):
        sim, broker, client, gw = broker_pair()
        assert broker.historian.store(0, "station/x", '{"a": 1}') is None
        assert broker.historian.store(0, "station/x", "not json") is None
        assert len(broker.historian.quarantine) == 2

    def test_interval_query_shared_semantics(self):
        sim, broker, client, gw = broker_pair()
        broker.historian.store(5_000_000, "station/I2Cslave", BODY)
        rows = broker.historian.query(t0="2019-07-18T06:00:01.000Z",
                                      t1="2019-07-18T06:00:10.000Z")
        assert len(rows) == 1


class TestBrokerAcl:
    def test_allowlist_refuses_unknown_client(self):
        sim, broker, client, gw = broker_pair(acl_enabled=True,
                                              allowlist=("10.9.9.9",))
        rejected = []
        client.on_rejected = lambda c: rejected.append(True)
        client.connect()
        sim.run_until(1_000_000)
        assert rejected
        assert not client.connected


class TestDeliveredSetEquivalence:
    def test_rogue_window_receives_every_station_and_sys_publish(self):
        sim, broker, client, gw = broker_pair()
        host = sim.attach_host("rogue", [("wan", "00:50:56:c0:00:66",
                                          "192.168.2.66")])
        rogue = MqttClient(sim, host, "192.168.2.10", "rogue")
        got = []
        rogue.on_message = lambda t, p: got.append((t, p))
        rogue.on_connected = lambda c: c.subscribe(["#", "$SYS/#"])
        rogue.connect()
        client.connect()
        sim.run_until(200_000)
        sub_start = sim.now_us
        published = []
        for n in range(25):
            body = json.dumps({"Device ID": "Slave 2",
                               "Device Type": "PLC MODBUS",
                               "Measurement": 16.0 + n,
                               "Function": "PLC Temperature Sensor",
                               "Content Type": "Temperature"})
            client.publish("station/PLC", body, qos=2)
            sim.run_until(sim.now_us + 200_000)
            if n % 5 == 0:
                broker.sys_tick()
                sim.run_until(sim.now_us + 200_000)
        sim.run_until(sim.now_us + 2_000_000)
        station = {(t, p) for t, p in got if t.startswith("station/")}
        sys_topics = {t for t, _ in got if t.startswith("$SYS/")}
        expected_station = {(t, p) for _, cid, t, p in broker.delivered_log
                            if cid == "rogue" and t.startswith("station/")}
        assert station == expected_station
        assert len(station) == 25
        assert "$SYS/broker/version" in sys_topics
        assert "$SYS/broker/bytes/sent" in sys_topics


# packets the broker cannot act on, each dropped like an undecodable one
MALFORMED_PACKETS = [
    {"type": "SUBSCRIBE", "filters": 5, "mid": 1},
    {"type": "SUBSCRIBE", "filters": "station/#", "mid": 2},
    {"type": "PUBLISH", "qos": 1, "mid": 3, "payload": "x"},
    {"type": "PUBLISH", "topic": ["station"], "qos": 1, "mid": 4},
    {"type": "PUBLISH", "topic": "station/x", "qos": 1, "mid": 5,
     "payload": 7},
    {"type": "PUBLISH", "topic": "station/x", "qos": 3, "mid": 6},
    {"type": "PUBLISH", "topic": "station/x", "qos": -1, "mid": 7},
    {"type": "PUBLISH", "topic": "station/x", "qos": [2], "mid": 8},
    {"type": "PUBLISH", "topic": "station/x", "qos": 2, "mid": [9]},
    {"type": "PUBLISH", "topic": "station/x", "qos": 1, "mid": {"n": 10}},
    {"type": "SUBSCRIBE", "filters": ["station/#"], "mid": [11]},
    {"type": "PUBREL", "mid": [12]},
]


def test_broker_drops_malformed_packets_and_the_run_goes_on():
    build = harness.Build(small_plan(duration_s=30.0), seed=3)
    sim = build.sim
    stream = build.attacker.open_tcp(build.cloud_host.interfaces[0].ip,
                                     MQTT_PORT, "MQTT")
    replies = []
    stream.on_established = lambda s: s.write(encode_packet(
        {"type": "CONNECT", "client_id": "probe"}))
    stream.on_data = lambda s, data: replies.append(decode_packet(data))
    sim.run_until(1_000_000)
    assert [p["type"] for p in replies] == ["CONNACK"]
    for pkt in MALFORMED_PACKETS:
        stream.write(encode_packet(pkt))
        sim.run_until(sim.now_us + 500_000)
    assert [p["type"] for p in replies] == ["CONNACK"]
    assert stream.state == "established"
    # the session still works, and the rest of the run goes on
    stream.write(encode_packet({"type": "SUBSCRIBE", "filters": ["x/#"],
                                "mid": 13}))
    build.run()
    assert replies[1:] == [{"type": "SUBACK", "mid": 13}]
