"""Edge gateway: device polling, unit conversion, telemetry construction,
deadband-gated cloud forwarding, local historian, CoAP server, local/remote
API, and mail-style notifications."""

from dataclasses import dataclass

from . import fieldbus
from .cloud import MqttClient, dumps, loads
from .historian import Historian
from .plant import (PLC_INPUT_REGISTER, PLC_SETPOINT_REGISTER,
                    modbus_transact)

# telemetry identity per device class: (Device_ID, Device_Type, Function,
# Content_Type, topic)
DEVICE_PROFILES = {
    "onewire": ("Slave 1", "1-Wire Device", "I/O Temperature Sensor",
                "Temperature", "station/1wire"),
    "plc": ("Slave 2", "PLC MODBUS", "PLC Temperature Sensor",
            "Temperature", "station/PLC"),
    "sim-humidity": ("Slave 4", "sensor-1", "Sim-humidity Sensor",
                     "Humidity", "station/sensor1"),
    "sim-temperature": ("Slave 5", "sensor-2", "Sim-temperature Sensor",
                        "Temperature", "station/sensor2"),
    "sim-pressure": ("Slave 6", "sensor-3", "Sim-pressure Sensor",
                     "Pressure", "station/sensor3"),
    "mpl": ("Slave 7", "I2C slave", "I/O Pressure Sensor",
            "Pressure", "station/I2Cslave"),
}

MPL_I2C_ADDRESS = 0x60


@dataclass
class Reading:
    device_key: str
    value: float
    ts_us: int


@dataclass
class TelemetryMessage:
    topic: str
    body: str      # JSON text with exactly the five expected keys


def build_telemetry(reading: Reading) -> TelemetryMessage:
    device_id, device_type, function, content_type, topic = DEVICE_PROFILES[
        reading.device_key]
    body = dumps({
        "Device ID": device_id,
        "Device Type": device_type,
        "Measurement": reading.value,
        "Function": function,
        "Content Type": content_type,
    })
    return TelemetryMessage(topic, body)


class DeadbandPolicy:
    """Forward iff the reading moved more than the deadband since the last
    forwarded value (first sample always forwards)."""

    def __init__(self, per_content_type=None):
        self.deadbands = {"Temperature": 0.5, "Pressure": 0.5, "Humidity": 1.0}
        if per_content_type:
            self.deadbands.update(per_content_type)
        self.last_forwarded: dict[str, float] = {}

    def decide(self, device_key: str, content_type: str, value: float) -> bool:
        band = self.deadbands.get(content_type, 0.0)
        last = self.last_forwarded.get(device_key)
        if last is None or abs(value - last) > band:
            self.last_forwarded[device_key] = value
            return True
        return False


class EdgeGateway:
    """Owns the poll loop and every edge-facing service."""

    def __init__(self, build, cfg):
        """The gateway of a harness.Build, on its gateway host; cfg, a
        plan.Fields, reads the plan's gateway settings."""
        self.sim, self.host, self.plant = build.sim, build.gw_host, build.plant
        self.plc, self.plc_ip = build.plc, build.plc_ip
        self.i2c_bus, self.onewire_bus = build.i2c_bus, build.onewire_bus
        self.poll_period_us = cfg.time_us("poll_period_s", 2.0, least=1)
        self.deadband = DeadbandPolicy(cfg.get("deadband", dict, {}, lo=0,
                                               of=float))
        self.historian = Historian(build.epoch)
        self.mail_ip = build.reach("gateway", self.host,
                                   build.mail_host.interfaces[0].ip)
        self.notify_threshold_c = cfg.get("notify_threshold_c", float, 30.0)
        self.notify_min_gap_us = cfg.time_us("notify_min_gap_s", 60.0)
        self._last_notify_us = {}
        self.forwarded: list = []         # (ts_us, topic, body) handed to MQTT
        self.faults: list = []            # (ts_us, device_key, reason)
        self.sim_sensors: dict[str, object] = {}   # device_key -> SensorModel
        self.latest: dict[str, Reading] = {}
        self.svc_us = build.svc
        self.dns_table = cfg.get("dns", dict, {}, of=str)
        self.mqtt = MqttClient(self.host, build.reach(
            "gateway", self.host, build.cloud_host.interfaces[0].ip),
            "edge-gw", dup_every=cfg.get("mqtt_dup_every", int, 0, lo=0))
        # null, 0 or missing: no reconnects
        self.mqtt_reconnect_every_us = cfg.time_us("mqtt_reconnect_every_s",
                                                   None)
        self._poll_seq = 0
        self.plant.on_actuator_command = self._on_actuator_event

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.mqtt.connect()
        if self.mqtt_reconnect_every_us:
            self.sim.every(self.mqtt_reconnect_every_us, self._reconnect_mqtt)
        self.host.bind_udp(5683, self._coap_service)
        self.host.bind_udp(53, self._dns_service)
        self.host.bind_tcp(80, _HttpService(self, self.svc_us["HTTP"]))
        self.host.bind_tcp(8080, _HttpService(self, self.svc_us["API"]))
        self.sim.every(self.poll_period_us, self.poll_cycle)

    def _reconnect_mqtt(self) -> None:
        if self.mqtt.connected and not self.mqtt._pending:
            self.mqtt.disconnect()
            self.mqtt.connect()

    # -- poll cycle -------------------------------------------------------
    def poll_cycle(self) -> list:
        """One reading per registered device; faults never stop the cycle."""
        self._poll_seq += 1
        now = self.sim.now_us
        readings = []
        # local devices first: I2C pressure sensor, 1-wire probe, sim engines
        try:
            data, _trace = self.i2c_bus.read_block(MPL_I2C_ADDRESS, 0x01, 6,
                                                   ts_us=now)
            sample = fieldbus.mpl_decode(data)
            readings.append(Reading("mpl", sample.kilopascal, now))
        except fieldbus.I2cNack:
            self._fault("mpl", "i2c-nack")
        try:
            value = self.onewire_bus.read_temp("onewire")
            readings.append(Reading("onewire", value, now))
        except KeyError:
            self._fault("onewire", "absent")
        for key in sorted(self.sim_sensors):
            sensor = self.sim_sensors[key]
            if sensor.running:
                readings.append(Reading(key, round(sensor.value, 2), now))
        for r in readings:
            self._ingest(r)
        self._poll_plc()
        return readings

    def _poll_plc(self) -> None:
        tid = self._poll_seq & 0xFFFF
        request = fieldbus.ModbusAdu(tid, 1, fieldbus.READ_HOLDING_REGISTERS,
                                     PLC_INPUT_REGISTER, 1)

        def on_response(resp):
            if resp is None:
                self._fault("plc", "unreachable")
            elif resp.is_exception or not resp.data:
                self._fault("plc", f"exception-{resp.exception_code}")
            else:
                self._ingest(Reading("plc", resp.data[0] / 10.0,
                                     self.sim.now_us))

        modbus_transact(self.host, self.plc_ip, request, on_response)

    def _fault(self, device_key: str, reason: str) -> None:
        self.faults.append((self.sim.now_us, device_key, reason))
        self.sim.log_syslog(self.host, f"gateway: poll fault {device_key} {reason}")

    def _ingest(self, reading: Reading) -> None:
        """Historian keeps every reading; cloud forwarding is deadband-gated."""
        profile = DEVICE_PROFILES[reading.device_key]
        self.latest[reading.device_key] = reading
        self.historian.insert(reading.ts_us, profile[0], profile[1],
                              reading.value, profile[2], profile[3])
        if self.deadband.decide(reading.device_key, profile[3], reading.value):
            msg = build_telemetry(reading)
            self.forwarded.append((reading.ts_us, msg.topic, msg.body))
            self.mqtt.publish(msg.topic, msg.body, qos=2)
        if reading.device_key == "plc":
            self._check_threshold(reading)

    def _check_threshold(self, reading: Reading) -> None:
        if reading.value > self.notify_threshold_c:
            self.notify("threshold",
                        f"warning: {reading.device_key} value {reading.value} "
                        f"exceeds threshold {self.notify_threshold_c}")

    def _on_actuator_event(self, event) -> None:
        ts, actuator_id, state, source = event
        self.sim.log_syslog(self.host,
                            f"gateway: actuator {actuator_id} -> {state} "
                            f"(source {source})")
        self.historian.insert(ts, actuator_id, "Actuator", 1.0 if state == "ON"
                              else 0.0, "Pump Relay", "State")
        self.notify("actuator",
                    f"confirmation: command {state} sent to {actuator_id}")

    # -- notifications (mail-like two round trips) -------------------------
    def notify(self, kind: str, text: str) -> None:
        now = self.sim.now_us
        last = self._last_notify_us.get(kind)
        if last is not None and now - last < self.notify_min_gap_us:
            return
        self._last_notify_us[kind] = now
        stream = self.host.open_tcp(self.mail_ip, 25, "SMTP")
        stream.write(b"HELLO edge-gw")

        def on_data(s, data):
            if s.replies == 1:
                s.write(f"MSG {text}".encode())
            else:
                s.close()

        stream.on_data = on_data

    # -- CoAP ---------------------------------------------------------------
    def coap_serve(self, request: dict) -> dict:
        """GET reads resources, PUT actuates; codes follow CoAP naming."""
        code = request.get("code")
        path = request.get("path", "")
        confirmable = request.get("type", "CON") == "CON"
        rtype = "ACK" if confirmable else "NON"
        mid = request.get("mid", 0)
        if code == "GET" and path == "/sensors/mpl3115a2":
            try:
                data, _ = self.i2c_bus.read_block(MPL_I2C_ADDRESS, 0x01, 6,
                                                  ts_us=self.sim.now_us)
            except fieldbus.I2cNack:
                return {"type": rtype, "code": "5.00 Internal Server Error",
                        "mid": mid, "payload": ""}
            sample = fieldbus.mpl_decode(data)
            payload = dumps({"Device Name": "MPL3115A2",
                             "data": {"Ctemp": {"Celsius": sample.celsius},
                                      "Pressure": {"Pascalpre": sample.kilopascal}}})
            return {"type": rtype, "code": "2.05 Content", "mid": mid,
                    "payload": payload}
        if code == "PUT" and path.startswith("/actuators/"):
            actuator_id = path.split("/actuators/", 1)[1]
            if actuator_id not in self.plant.actuators:
                return {"type": rtype, "code": "4.04 Not Found", "mid": mid,
                        "payload": ""}
            body = request.get("payload", "")
            if body not in ("on", "off"):
                return {"type": rtype, "code": "4.00 Bad Request", "mid": mid,
                        "payload": ""}
            self.plant.actuator_command(actuator_id, body.upper(), "coap-client")
            return {"type": rtype, "code": "2.04 Changed", "mid": mid,
                    "payload": ""}
        return {"type": rtype, "code": "4.04 Not Found", "mid": mid,
                "payload": ""}

    def _coap_service(self, host, frame) -> None:
        try:
            request = loads(frame.payload.decode())
        except ValueError:
            return
        response = self.coap_serve(request)
        self.sim.schedule(self.svc_us["COAP"], host.send_udp, frame.src_ip,
                          frame.src_port, dumps(response).encode(),
                          "COAP", frame.dst_port)

    # -- DNS-lite -------------------------------------------------------------
    def _dns_service(self, host, frame) -> None:
        try:
            query = loads(frame.payload.decode())
        except ValueError:
            return
        name = query.get("q", "")
        answer = {"id": query.get("id", 0), "q": name}
        if name in self.dns_table:
            answer["a"] = self.dns_table[name]
        else:
            answer["error"] = "NXDOMAIN"
        self.sim.schedule(self.svc_us["DNS"], host.send_udp, frame.src_ip,
                          frame.src_port, dumps(answer).encode(), "DNS",
                          frame.dst_port)

    # -- API / Web-SCADA snapshot ----------------------------------------------
    def api_snapshot(self) -> dict:
        readings = {}
        for key in sorted(self.latest):
            r = self.latest[key]
            readings[key] = {"value": r.value, "ts_us": r.ts_us}
        return {
            "readings": readings,
            "actuators": {a: self.plant.actuators[a].state
                          for a in sorted(self.plant.actuators)},
            "setpoints": {"plc": self.plc.setpoint_c},
            "engines": {k: self.sim_sensors[k].running
                        for k in sorted(self.sim_sensors)},
            "coil": self.plc.coils[0],
        }

    def setpoint_update(self, value: float, reply) -> None:
        """Write the PLC setpoint over MODBUS; reply(status, body) when done."""
        if not 0.0 <= value <= 120.0:
            reply(400, {"error": "setpoint out of range"})
            return
        request = fieldbus.ModbusAdu(0x7000 + (self._poll_seq & 0xFFF), 1,
                                     fieldbus.WRITE_SINGLE_REGISTER,
                                     PLC_SETPOINT_REGISTER,
                                     int(round(value * 10)))

        def on_response(resp):
            if resp is None:
                reply(502, {"error": "plc unreachable"})
            elif resp.is_exception:
                reply(500, {"error": "plc rejected write"})
            else:
                self.sim.log_syslog(self.host,
                                    f"gateway: setpoint changed to {value}")
                reply(200, {"setpoint": resp.count_or_value / 10.0})

        modbus_transact(self.host, self.plc_ip, request, on_response)

    def api_handle(self, request: dict, reply) -> None:
        method = request.get("method")
        path = request.get("path", "")
        if method == "GET" and path == "/api/snapshot":
            reply(200, self.api_snapshot())
            return
        if method == "PUT" and path == "/api/setpoint":
            body = request.get("body", {})
            if not isinstance(body, dict) or not isinstance(
                    body.get("value"), (int, float)):
                reply(400, {"error": "bad body"})
                return
            self.setpoint_update(float(body["value"]), reply)
            return
        if method == "PUT" and path.startswith("/api/engines/"):
            key = path.split("/api/engines/", 1)[1]
            sensor = self.sim_sensors.get(key)
            body = request.get("body", {})
            if sensor is None:
                reply(404, {"error": "no such engine"})
                return
            if not isinstance(body, dict) or not isinstance(
                    body.get("running"), bool):
                reply(400, {"error": "bad body"})
                return
            sensor.running = body["running"]
            self.sim.log_syslog(self.host,
                                f"gateway: engine {key} running={sensor.running}")
            reply(200, {"engine": key, "running": sensor.running})
            return
        reply(404, {"error": "not found"})


class _HttpService:
    """Request/response JSON service shared by the WAN HTTP port and the
    local API port (they differ in service time)."""

    def __init__(self, gateway: EdgeGateway, service_time_us: int):
        self.gateway = gateway
        self.service_time_us = service_time_us

    def on_data(self, stream, data: bytes):
        try:
            request = loads(data.decode())
        except ValueError:
            request = {}

        def reply(status, body):
            stream.reply_after(self.service_time_us, dumps(
                {"status": status, "body": body}).encode())

        self.gateway.api_handle(request, reply)
