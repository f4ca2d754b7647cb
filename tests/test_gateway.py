import csv
import datetime
import json

import pytest

from iiotsim import harness
from iiotsim.cloud import loads
from iiotsim.gateway import DeadbandPolicy, Reading, build_telemetry
from iiotsim.historian import Historian, IsoStamp

from conftest import SilentSlave, small_plan, unbind_tcp

FIG8_BODY = ('{"Device ID": "Slave 7", "Device Type": "I2C slave", '
             '"Measurement": 94.34675, "Function": "I/O Pressure Sensor", '
             '"Content Type": "Pressure"}')


class TestTelemetryFormat:
    def test_reference_body_byte_for_byte(self):
        msg = build_telemetry(Reading("mpl", 94.34675, 0))
        assert msg.body == FIG8_BODY
        assert msg.topic == "station/I2Cslave"
        assert len(msg.topic) == 16

    def test_plc_topic_and_function(self):
        msg = build_telemetry(Reading("plc", 16.407, 0))
        assert msg.topic == "station/PLC"
        body = loads(msg.body)
        assert body["Function"] == "PLC Temperature Sensor"
        assert body["Device Type"] == "PLC MODBUS"

    def test_body_has_exactly_five_keys(self):
        for key in ("mpl", "plc", "onewire", "sim-humidity",
                    "sim-temperature", "sim-pressure"):
            body = loads(build_telemetry(Reading(key, 1.0, 0)).body)
            assert set(body) == {"Device ID", "Device Type", "Measurement",
                                 "Function", "Content Type"}
            assert isinstance(body["Measurement"], (int, float))

    def test_sim_topics(self):
        assert build_telemetry(Reading("sim-humidity", 1.0, 0)).topic == \
            "station/sensor1"


class TestDeadband:
    def test_small_change_suppressed(self):
        policy = DeadbandPolicy()
        assert policy.decide("t", "Temperature", 20.0) is True   # first sample
        assert policy.decide("t", "Temperature", 20.3) is False

    def test_large_change_forwarded_and_reference_moves(self):
        policy = DeadbandPolicy()
        policy.decide("t", "Temperature", 20.0)
        assert policy.decide("t", "Temperature", 20.6) is True
        assert policy.last_forwarded["t"] == 20.6
        assert policy.decide("t", "Temperature", 20.9) is False

    def test_boundary_change_is_not_enough(self):
        policy = DeadbandPolicy()
        policy.decide("t", "Temperature", 20.0)
        assert policy.decide("t", "Temperature", 20.5) is False


class TestHistorian:
    def make(self):
        h = Historian(datetime.datetime(2019, 7, 12, 8, 0, 0,
                                        tzinfo=datetime.timezone.utc))
        return h

    def test_ids_gapless_and_increasing(self):
        h = self.make()
        ids = [h.insert(n * 1000, "Slave 1", "1-Wire Device", 20.0 + n,
                        "I/O Temperature Sensor", "Temperature")
               for n in range(10)]
        assert ids == list(range(1, 11))

    @staticmethod
    def strftime_stamp(epoch, ts_us):
        t = epoch + datetime.timedelta(microseconds=ts_us)
        return t.strftime("%Y-%m-%dT%H:%M:%S.") + f"{t.microsecond // 1000:03d}Z"

    @pytest.mark.parametrize("epoch_us", [0, 500_000, 999_999])
    def test_iso_ms_is_the_strftime_stamp(self, epoch_us):
        epoch = datetime.datetime(2019, 12, 31, 23, 59, 59, epoch_us,
                                  tzinfo=datetime.timezone.utc)
        h = Historian(epoch)
        # second, minute, day and year boundaries on both sides of the
        # epoch's own millisecond, then back to a second already left
        tss = [0, 1, 999, 1000, 499_999, 500_000, 500_001, 999_999,
               1_000_000, 1_000_001, 1_499_999, 1_500_000, 60_000_000,
               86_400_000_000, 86_400_000_001, 3_599_999_999, 0, 999_999,
               -1, -500_000, -1_000_000]
        assert [h.iso_ms(ts) for ts in tss] == [
            self.strftime_stamp(epoch, ts) for ts in tss]
        if epoch_us == 500_000:
            assert h.iso_ms(0) == "2019-12-31T23:59:59.500Z"
            assert h.iso_ms(500_000) == "2020-01-01T00:00:00.000Z"

    def test_csv_numbers_rows_by_position_and_stamps_each_ts(self, tmp_path):
        # rows inserted with a ts_us that goes backwards keep their order:
        # ids 1..n by position, each Time the IsoStamp text of its own ts_us
        h = self.make()
        tss = [5_000_000, 1_500, 5_000_000, 999, 3_600_000_000, 0]
        ids = [h.insert(ts, "Slave 1", "1-Wire Device", 20.0 + n,
                        "I/O Temperature Sensor", "Temperature")
               for n, ts in enumerate(tss)]
        path = tmp_path / "h.csv"
        h.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        stamp = IsoStamp(h.epoch)
        assert ids == list(range(1, len(tss) + 1))
        assert [(r[0], r[1]) for r in rows] == [
            (str(i), stamp(ts)) for i, ts in enumerate(tss, 1)]
        assert rows[3][1] == "2019-07-12T08:00:00.000Z"
        assert rows[4][1] == "2019-07-12T09:00:00.000Z"

    def test_last_actuator_record(self):
        h = self.make()
        h.insert(1000, "led1", "Actuator", 1.0, "Pump Relay", "State")
        h.insert(2000, "led1", "Actuator", 0.0, "Pump Relay", "State")
        h.insert(3000, "Slave 1", "1-Wire Device", 20.38,
                 "I/O Temperature Sensor", "Temperature")
        rows = [r for r in h.rows if r.device_id == "led1"]
        assert rows[-1].measurement == 0.0

    def test_empty_historian(self, tmp_path):
        # a run whose gateway forwarded nothing still writes the header
        path = tmp_path / "h.csv"
        self.make().write_csv(path)
        assert path.read_text().splitlines() == [
            "Record_ID,Time,Device_ID,Device_Type,Measurement,Function,"
            "Content_Type"]

    def test_csv_header(self, tmp_path):
        h = self.make()
        h.insert(0, "Slave 1", "1-Wire Device", 20.38,
                 "I/O Temperature Sensor", "Temperature")
        path = tmp_path / "h.csv"
        h.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("Record_ID,Time,Device_ID,Device_Type,"
                            "Measurement,Function,Content_Type")
        assert lines[1].startswith("1,2019-07-12T08:00:00.000Z,Slave 1,")


class TruncatedWriteSlave:
    """A TCP service that answers every request with a write-register
    response whose PDU stops after its first address byte."""

    def on_open(self, stream):
        pass

    def on_data(self, stream, data):
        stream.write(bytes.fromhex("000100000003010600"))


@pytest.fixture()
def gw_build():
    plan = small_plan(duration_s=30.0)
    plan["plant"]["sensors"]["plc-temp"]["walk_step"] = 0.0
    plan["plant"]["sensors"]["plc-temp"]["init"] = 16.4
    plan["plant"]["sensors"]["mpl-temp"]["walk_step"] = 0.0
    plan["plant"]["sensors"]["mpl-temp"]["init"] = 23.9375
    plan["plant"]["sensors"]["mpl-press"]["walk_step"] = 0.0
    plan["plant"]["sensors"]["mpl-press"]["init"] = 94.73775
    build = harness.Build(plan)
    return build


class TestPollCycle:
    def test_plc_register_read_back_as_engineering_units(self, gw_build):
        gw_build.run()
        gw = gw_build.gateway
        assert gw.latest["plc"].value == 16.4
        rows = [r for r in gw.historian.rows if r.device_id == "Slave 2"]
        assert rows
        assert rows[0].device_type == "PLC MODBUS"
        assert rows[0].measurement == 16.4

    def test_mpl_pressure_reading_via_decode(self, gw_build):
        gw_build.run()
        gw = gw_build.gateway
        assert gw.latest["mpl"].value == 94.73775

    def test_plc_unreachable_faults_but_others_read(self):
        plan = small_plan(duration_s=10.0)
        build = harness.Build(plan)
        unbind_tcp(build.plc_host, 502)
        build.run()
        gw = build.gateway
        assert any(d == "plc" for _, d, _ in gw.faults)
        for key in ("mpl", "onewire", "sim-humidity", "sim-temperature",
                    "sim-pressure"):
            assert key in gw.latest

    def test_silent_plc_faults_once_per_poll(self):
        build = harness.Build(small_plan(duration_s=10.0))
        build.plc_host.bind_tcp(502, SilentSlave())
        build.run()
        gw = build.gateway
        assert gw._poll_seq == 5
        assert [(d, r) for _, d, r in gw.faults] == [("plc", "unreachable")] * 5
        assert "plc" not in gw.latest

    def test_truncated_plc_reply_faults_once_per_poll(self):
        build = harness.Build(small_plan(duration_s=10.0))
        build.plc_host.bind_tcp(502, TruncatedWriteSlave())
        build.run()
        gw = build.gateway
        assert gw._poll_seq == 5
        assert [(d, r) for _, d, r in gw.faults] == [("plc", "unreachable")] * 5
        assert "plc" not in gw.latest

    def test_every_reading_lands_in_local_historian_once(self, gw_build):
        from collections import Counter
        gw_build.run()
        gw = gw_build.gateway
        counts = Counter(r.device_id for r in gw.historian.rows
                         if r.device_type != "Actuator")
        assert len(counts) == 6
        assert set(counts.values()) == {gw._poll_seq}


class TestCoapServe:
    def test_get_mpl_resource(self, gw_build):
        gw = gw_build.gateway
        resp = gw.coap_serve({"type": "CON", "code": "GET", "mid": 7,
                              "path": "/sensors/mpl3115a2"})
        assert resp["code"] == "2.05 Content"
        assert resp["type"] == "ACK"
        assert resp["mid"] == 7
        payload = json.loads(resp["payload"])
        assert payload["Device Name"] == "MPL3115A2"
        assert payload["data"]["Ctemp"]["Celsius"] == 23.9375
        assert payload["data"]["Pressure"]["Pascalpre"] == 94.73775

    def test_put_actuator_on(self, gw_build):
        gw = gw_build.gateway
        resp = gw.coap_serve({"type": "CON", "code": "PUT", "mid": 8,
                              "path": "/actuators/led1", "payload": "on"})
        assert resp["code"] == "2.04 Changed"
        assert gw_build.plant.actuators["led1"].state == "ON"
        assert gw.host.syslog[-1][1] == (
            "gateway: actuator led1 -> ON (source coap-client)")

    def test_unknown_path(self, gw_build):
        resp = gw_build.gateway.coap_serve({"type": "CON", "code": "GET",
                                            "mid": 9, "path": "/nope"})
        assert resp["code"] == "4.04 Not Found"

    def test_malformed_put_payload(self, gw_build):
        resp = gw_build.gateway.coap_serve(
            {"type": "CON", "code": "PUT", "mid": 10,
             "path": "/actuators/led1", "payload": "blast"})
        assert resp["code"] == "4.00 Bad Request"

    def test_non_confirmable_gets_non_ack(self, gw_build):
        resp = gw_build.gateway.coap_serve({"type": "NON", "code": "GET",
                                            "mid": 11, "path": "/nope"})
        assert resp["type"] == "NON"


def mail_texts(build) -> list:
    """The text of each message the gateway's notifications sent."""
    return [f.payload.decode()[4:] for f in build.sim.capture
            if f.sender == "edge-gw" and f.dst_port == 25
            and f.payload.startswith(b"MSG ")]


class TestNotify:
    def test_threshold_warning_reaches_mail_host(self):
        plan = small_plan(duration_s=20.0)
        plan["plant"]["sensors"]["plc-temp"]["init"] = 35.0
        plan["plant"]["sensors"]["plc-temp"]["walk_step"] = 0.0
        build = harness.Build(plan)
        build.run()
        texts = mail_texts(build)
        assert any("warning" in t and "35.0" in t for t in texts)
        # the mail host answered both lines of each message
        oks = [f for f in build.sim.capture
               if f.sender == build.mail_host.host_id and f.src_port == 25
               and f.payload == b"250 OK"]
        assert len(oks) == 2 * len(texts)

    def test_actuator_confirmation_message(self):
        plan = small_plan(duration_s=20.0)
        build = harness.Build(plan)
        build.gateway.plant.actuator_command("led1", "ON", "test")
        build.run()
        texts = mail_texts(build)
        assert any("confirmation" in t and "led1" in t for t in texts)

    def test_mail_host_down_logs_failure(self):
        plan = small_plan(duration_s=20.0)
        plan["plant"]["sensors"]["plc-temp"]["init"] = 35.0
        plan["plant"]["sensors"]["plc-temp"]["walk_step"] = 0.0
        build = harness.Build(plan)
        unbind_tcp(build.mail_host, 25)
        build.run()
        refusals = [f for f in build.sim.capture
                    if f.src_port == 25 and f.tcp_flags == ("RST",)]
        assert refusals
        assert mail_texts(build) == []


class TestApi:
    def test_setpoint_round_trip_flips_coil(self):
        plan = small_plan(duration_s=40.0)
        plan["plant"]["sensors"]["plc-temp"]["init"] = 27.0
        plan["plant"]["sensors"]["plc-temp"]["walk_step"] = 0.0
        plan["traffic"]["http_client"] = {"host": "wan-client",
                                          "period_s": 5.0,
                                          "setpoint_every": 2,
                                          "setpoints": [25.0]}
        build = harness.Build(plan)
        build.run()
        # setpoint dropped below the steady 27.0 input -> coil must be ON
        assert build.plc.setpoint_c == 25.0
        assert build.plc.coils[0] is True
        assert build.plant.actuators["led1"].state == "ON"

    def test_snapshot_shows_actuator_and_engines(self, gw_build):
        gw_build.gateway.plant.actuator_command("led1", "ON", "test")
        gw_build.run()
        snap = gw_build.gateway.api_snapshot()
        assert snap["actuators"]["led1"] == "ON"
        assert snap["setpoints"]["plc"] == 30.0
        assert set(snap["engines"]) == {"sim-humidity", "sim-pressure",
                                        "sim-temperature"}

    def test_engine_stop_omits_readings(self):
        plan = small_plan(duration_s=30.0)
        build = harness.Build(plan)
        done = {}
        build.gateway.api_handle(
            {"method": "PUT", "path": "/api/engines/sim-humidity",
             "body": {"running": False}},
            lambda status, body: done.update(status=status))
        assert done["status"] == 200
        build.run()
        rows = [r for r in build.gateway.historian.rows
                if r.device_id == "Slave 4"]
        assert rows == []
        snap = build.gateway.api_snapshot()
        assert snap["engines"]["sim-humidity"] is False

    def test_out_of_range_setpoint_rejected(self, gw_build):
        done = {}
        gw_build.gateway.api_handle(
            {"method": "PUT", "path": "/api/setpoint",
             "body": {"value": 500.0}},
            lambda status, body: done.update(status=status, body=body))
        assert done["status"] == 400

    def test_unknown_path_404(self, gw_build):
        done = {}
        gw_build.gateway.api_handle({"method": "GET", "path": "/zzz"},
                                    lambda status, body: done.update(s=status))
        assert done["s"] == 404
