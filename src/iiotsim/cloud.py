"""Cloud tier: a minimal MQTT broker with QoS 0/1/2, topic matching,
$SYS state topics and a historian fed by exactly-once deliveries."""

import functools
import json
from collections import deque
from dataclasses import dataclass, field
from datetime import timedelta
from json.decoder import JSONDecoder
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii

from .historian import Historian

MQTT_PORT = 1883
PACKET_TYPES = ("CONNECT", "CONNACK", "SUBSCRIBE", "SUBACK", "PUBLISH",
                "PUBACK", "PUBREC", "PUBREL", "PUBCOMP", "DISCONNECT")


class TopicFilterError(Exception):
    pass


_default = JSONEncoder().default
_scan_once = JSONDecoder().scan_once


def dumps(obj) -> str:
    """json.dumps(obj), by the C encoder json.dumps itself runs, without its
    per-call set-up. The markers dict that catches a circular reference is
    new on each call, because the encoder leaves it dirty after an error."""
    return "".join(c_make_encoder({}, _default, encode_basestring_ascii,
                                  None, ": ", ", ", False, False, True)(obj, 0))


def loads(text: str):
    """json.loads(text) of a str. The scan at index 0 is all json.loads does
    for a text that is one JSON value with no surrounding whitespace; any
    other text, valid or not, goes to json.loads itself, so its result and
    its errors are json.loads's."""
    try:
        obj, end = _scan_once(text, 0)
    except StopIteration:
        return json.loads(text)
    return obj if end == len(text) else json.loads(text)


def encode_packet(pkt: dict) -> bytes:
    return dumps(pkt).encode()


def decode_packet(raw: bytes) -> dict:
    """The packet raw encodes; ValueError when it is not a JSON object of a
    known packet type."""
    pkt = loads(raw.decode())
    if not isinstance(pkt, dict):
        raise ValueError(f"MQTT packet is a JSON {type(pkt).__name__}, "
                         "not an object")
    if pkt.get("type") not in PACKET_TYPES:
        raise ValueError(f"bad MQTT packet type {pkt.get('type')!r}")
    return pkt


def _read_packet(raw: bytes) -> dict:
    """decode_packet, and ValueError for the fields the broker would choke
    on: SUBSCRIBE filters that are not a list, a PUBLISH without a str topic
    or payload, a qos outside 0-2 and an unhashable mid."""
    pkt = decode_packet(raw)
    kind = pkt["type"]
    if kind == "SUBSCRIBE" and not isinstance(pkt.get("filters", []), list):
        raise ValueError("SUBSCRIBE filters is not a list")
    if kind == "PUBLISH":
        if not isinstance(pkt.get("topic"), str):
            raise ValueError("PUBLISH topic is not a str")
        if not isinstance(pkt.get("payload", ""), str):
            raise ValueError("PUBLISH payload is not a str")
        if pkt.get("qos", 0) not in (0, 1, 2):
            raise ValueError(f"PUBLISH qos {pkt.get('qos')!r} is not 0-2")
    try:
        hash(pkt.get("mid", 0))
    except TypeError:
        raise ValueError("mid is unhashable") from None
    return pkt


def validate_filter(flt: str) -> None:
    if not isinstance(flt, str) or not flt:
        raise TopicFilterError(f"empty or not a string: {flt!r}")
    levels = flt.split("/")
    for i, lv in enumerate(levels):
        if lv == "#" and i != len(levels) - 1:
            raise TopicFilterError(f"'#' must be the final level: {flt!r}")
        if "#" in lv and lv != "#":
            raise TopicFilterError(f"'#' must stand alone: {flt!r}")
        if "+" in lv and lv != "+":
            raise TopicFilterError(f"'+' must stand alone: {flt!r}")


def _match(flt: str, topic: str) -> bool:
    """Wildcard match of a valid filter; '#'/'+' filters never match
    '$'-prefixed topics."""
    if topic.startswith("$") and flt[0] in ("#", "+"):
        return False
    flevels = flt.split("/")
    tlevels = topic.split("/")
    for i, f in enumerate(flevels):
        if f == "#":
            return True
        if i >= len(tlevels):
            return False
        if f == "+":
            continue
        if f != tlevels[i]:
            return False
    return len(flevels) == len(tlevels)


class CloudHistorian(Historian):
    """Stores telemetry bodies with exactly the five expected keys."""

    BODY_KEYS = ("Device ID", "Device Type", "Measurement", "Function",
                 "Content Type")

    def __init__(self, epoch):
        super().__init__(epoch)
        self.quarantine: list = []      # (ts_us, topic, payload, reason)

    def store(self, ts_us: int, topic: str, payload: str) -> int | None:
        try:
            body = loads(payload)
        except (ValueError, UnicodeDecodeError):
            self.quarantine.append((ts_us, topic, payload, "not JSON"))
            return None
        if not isinstance(body, dict) or set(body) != set(self.BODY_KEYS):
            self.quarantine.append((ts_us, topic, payload, "bad key set"))
            return None
        if not isinstance(body["Measurement"], (int, float)) or isinstance(
                body["Measurement"], bool):
            self.quarantine.append((ts_us, topic, payload,
                                    "non-numeric Measurement"))
            return None
        return self.insert(ts_us, body["Device ID"], body["Device Type"],
                           body["Measurement"], body["Function"],
                           body["Content Type"])


@dataclass
class _Session:
    stream: object
    subscriptions: list = field(default_factory=list)
    inflight: dict = field(default_factory=dict)     # mid -> (topic, payload)
    completed: set = field(default_factory=set)      # mids already released


class _WindowCounter:
    """Sliding-window sum for the $SYS load averages (per-minute rate).
    Amounts are ints, so the running total is exact."""

    def __init__(self, window_s: int):
        self.window_us = window_s * 1_000_000
        self.events = deque()
        self.total = 0
        self.minutes = window_s / 60.0

    def add(self, ts_us: int, amount: int) -> None:
        self.events.append((ts_us, amount))
        self.total += amount

    def rate_per_min(self, now_us: int) -> float:
        cutoff = now_us - self.window_us
        while self.events and self.events[0][0] < cutoff:
            self.total -= self.events.popleft()[1]
        return self.total / self.minutes


class Broker:
    """Single-node broker bound to a fabric host's MQTT port."""

    def __init__(self, sim, host, epoch, version: str, service_time_us: int,
                 sys_period_us: int, acl_enabled: bool, allowlist):
        self.sim = sim
        self.host = host
        self.version = version
        self.service_time_us = service_time_us
        self.sys_period_us = sys_period_us
        self.acl_enabled = acl_enabled
        self.allowlist = set(allowlist)
        self.historian = CloudHistorian(epoch)
        self.sessions: dict = {}           # stream -> _Session, open order
        self.bytes_sent = 0
        self.messages_received = 0
        self._load_bytes = {m: _WindowCounter(m * 60) for m in (1, 5, 15)}
        self._load_msgs = {m: _WindowCounter(m * 60) for m in (1, 5, 15)}
        # stored filters passed validate_filter, so deliveries match them
        # without checking them again, through a bounded memo
        self._match = functools.lru_cache(maxsize=1024)(_match)
        host.bind_tcp(MQTT_PORT, self)

    # -- fabric service interface ---------------------------------------
    def on_open(self, stream):
        self.sessions[stream] = _Session(stream)

    def on_data(self, stream, data: bytes):
        session = self.sessions.get(stream)
        if session is None:
            return
        try:
            pkt = _read_packet(data)
        except ValueError:
            return
        self.messages_received += 1
        for c in self._load_msgs.values():
            c.add(self.sim.now_us, 1)
        kind = pkt["type"]
        if kind == "CONNECT":
            if self.acl_enabled and stream.peer_ip not in self.allowlist:
                self._reply(session, {"type": "CONNACK", "rc": 5})
                self.sim.schedule(self.service_time_us, stream.reset)
                return
            self._reply(session, {"type": "CONNACK", "rc": 0})
        elif kind == "SUBSCRIBE":
            for flt in pkt.get("filters", ()):
                try:
                    validate_filter(flt)
                except TopicFilterError:
                    continue        # refused, not stored
                if flt not in session.subscriptions:
                    session.subscriptions.append(flt)
            self._reply(session, {"type": "SUBACK", "mid": pkt.get("mid", 0)})
        elif kind == "PUBLISH":
            self._on_publish(session, pkt)
        elif kind == "PUBREL":
            self._on_pubrel(session, pkt)
        elif kind == "DISCONNECT":
            self.sessions.pop(stream, None)
            self.sim.schedule(self.service_time_us, stream.close)

    # -- publish path ------------------------------------------------------
    def _on_publish(self, session: _Session, pkt: dict):
        qos = pkt.get("qos", 0)
        mid = pkt.get("mid", 0)
        topic = pkt["topic"]
        payload = pkt.get("payload", "")
        if qos == 0:
            self._deliver(topic, payload)
            return
        if qos == 1:
            self._deliver(topic, payload)
            self._reply(session, {"type": "PUBACK", "mid": mid})
            return
        # QoS 2: stage until PUBREL; duplicate PUBLISH re-acknowledges only
        if mid not in session.inflight and mid not in session.completed:
            session.inflight[mid] = (topic, payload)
        self._reply(session, {"type": "PUBREC", "mid": mid})

    def _on_pubrel(self, session: _Session, pkt: dict):
        mid = pkt.get("mid", 0)
        staged = session.inflight.pop(mid, None)
        if staged is not None:
            session.completed.add(mid)
            self._deliver(*staged)
        self._reply(session, {"type": "PUBCOMP", "mid": mid})

    def _deliver(self, topic: str, payload: str) -> None:
        """Exactly-once fan-out to matching subscribers plus historian feed."""
        if not topic.startswith("$"):
            self.historian.store(self.sim.now_us, topic, payload)
        out = encode_packet({"type": "PUBLISH", "qos": 0, "topic": topic,
                             "payload": payload, "mid": 0})
        match = self._match
        for session in self.sessions.values():
            if any(match(f, topic) for f in session.subscriptions):
                self._push(session, out)

    def _reply(self, session: _Session, pkt: dict) -> None:
        self.sim.schedule(self.service_time_us, self._push, session,
                          encode_packet(pkt))

    def _push(self, session: _Session, raw: bytes) -> None:
        if session.stream.state == "established":
            session.stream.write(raw)
            self._count_sent(len(raw))

    def _count_sent(self, n: int) -> None:
        self.bytes_sent += n
        for c in self._load_bytes.values():
            c.add(self.sim.now_us, n)

    # -- $SYS state topics ---------------------------------------------------
    def subscription_count(self) -> int:
        return sum(len(s.subscriptions) for s in self.sessions.values())

    def sys_snapshot(self) -> dict:
        now = self.sim.now_us
        heap = 30000 + 800 * len(self.sessions) + 16 * self.subscription_count()
        stamp = self.historian.epoch + timedelta(microseconds=now)
        snap = {
            "$SYS/broker/version": self.version,
            "$SYS/broker/timestamp": stamp.strftime(
                "%a, %d %b %Y %H:%M:%S +0000"),
            "$SYS/broker/bytes/sent": str(self.bytes_sent),
            "$SYS/broker/messages/received": str(self.messages_received),
            "$SYS/broker/subscriptions/count": str(self.subscription_count()),
            "$SYS/broker/heap/current": str(heap),
        }
        for m in (1, 5, 15):
            snap[f"$SYS/broker/load/bytes/sent/{m}min"] = (
                f"{self._load_bytes[m].rate_per_min(now):.2f}")
            snap[f"$SYS/broker/load/messages/received/{m}min"] = (
                f"{self._load_msgs[m].rate_per_min(now):.2f}")
        return snap

    def sys_tick(self) -> dict:
        snap = self.sys_snapshot()
        for topic in snap:
            self._deliver(topic, snap[topic])
        return snap

    def start_sys_publisher(self) -> None:
        self.sim.every(self.sys_period_us, self.sys_tick)


class MqttClient:
    """Publisher session with QoS-2 handshake and optional duplicate
    retries (PUBLISH/PUBREL re-sends) for exactly-once testing."""

    def __init__(self, host, broker_ip: str, client_id: str,
                 dup_every: int = 0):
        self.host = host
        self.broker_ip = broker_ip
        self.client_id = client_id
        self.dup_every = dup_every
        self.stream = None
        self.connected = False
        self._mid = 0
        self._publish_count = 0
        self._pending: dict[int, dict] = {}
        self._queue: list = []
        self.on_message = None       # fn(topic, payload) for subscriber use
        self.on_connected = None

    def connect(self) -> None:
        self.stream = self.host.open_tcp(self.broker_ip, MQTT_PORT, "MQTT")
        self.stream.write(encode_packet({"type": "CONNECT",
                                         "client_id": self.client_id}))
        self.stream.on_data = self._on_data
        self.stream.on_refused = self._on_refused
        self.stream.on_closed = self._on_closed

    def _on_refused(self, stream):
        self.connected = False

    def _on_closed(self, stream):
        self.connected = False

    def disconnect(self) -> None:
        if self.stream is not None and self.stream.state == "established":
            self.stream.write(encode_packet({"type": "DISCONNECT"}))
            self.connected = False

    def subscribe(self, filters) -> None:
        self._mid += 1
        self.stream.write(encode_packet(
            {"type": "SUBSCRIBE", "filters": list(filters), "mid": self._mid}))

    def publish(self, topic: str, payload: str, qos: int = 2) -> int:
        self._mid = (self._mid % 65535) + 1
        mid = self._mid
        pkt = {"type": "PUBLISH", "qos": qos, "topic": topic,
               "payload": payload, "mid": mid}
        if self.connected:
            self._send_publish(pkt)
        else:
            self._queue.append(pkt)
        if qos == 2:
            self._pending[mid] = pkt
        return mid

    def _send_publish(self, pkt: dict) -> None:
        self._publish_count += 1
        self.stream.write(encode_packet(pkt))
        if self.dup_every and pkt["qos"] == 2 and (
                self._publish_count % self.dup_every == 0):
            dup = dict(pkt)
            dup["dup"] = True
            self.stream.write(encode_packet(dup))

    def _on_data(self, stream, data: bytes):
        pkt = decode_packet(data)
        kind = pkt["type"]
        if kind == "CONNACK":
            if pkt.get("rc", 0) == 0:
                self.connected = True
                for queued in self._queue:
                    self._send_publish(queued)
                self._queue.clear()
                if self.on_connected:
                    self.on_connected(self)
            else:
                self.connected = False
            return
        if kind == "PUBREC":
            mid = pkt["mid"]
            rel = encode_packet({"type": "PUBREL", "mid": mid})
            stream.write(rel)
            if self.dup_every and self._publish_count % self.dup_every == 0:
                stream.write(rel)
            return
        if kind == "PUBCOMP":
            self._pending.pop(pkt["mid"], None)
            return
        if kind == "PUBLISH":
            if self.on_message:
                self.on_message(pkt["topic"], pkt.get("payload", ""))
            return
