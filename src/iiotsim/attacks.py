"""Scripted attack injectors with ground-truth windows for labeling.

Each injector drives the fabric like a real tool would (gratuitous ARP,
MODBUS read floods, rogue MQTT subscriptions, SYN scans, a webgui exploit
with reverse shells) and emits an AttackWindow covering its activity.
KINDS maps each plan attack `kind` to its injector class.
"""

import json
from dataclasses import dataclass, field

from . import fieldbus
from .cloud import MqttClient, decode_packet, dumps, encode_packet, loads
from .netsim import US_PER_S, ArpFailure
from .services import WEBGUI_PORT

ARP_SPOOF = "arp_spoof"
TAMPER = "tamper"
LOG_TAMPER = "log_tamper"
I2C_SNIFF = "i2c_sniff"
MODBUS_DOS = "modbus_dos"
ROGUE_SUBSCRIBER = "rogue_subscriber"
RECON = "recon"
WEB_ENUM = "web_enum"
EXPLOIT = "exploit"
REVERSE_SHELL = "reverse_shell"

DEFAULT_LISTENER_PORT = 4444
DISCONNECT_LEAD_US = 200_000   # a rogue cycle's client leaves this early


# the keys of a window record, in the order AttackWindow.to_json writes them
WINDOW_KEYS = ("kind", "t_start_us", "t_end_us", "attacker", "victims",
               "effect_start_us", "effect_end_us")


@dataclass
class AttackWindow:
    """Ground truth for one attack: [t_start, t_end] covers every attacker
    frame; effect_* narrows to when the manipulation is actually live at the
    victim (cache poisoned until cache restored)."""

    kind: str
    t_start_us: int
    t_end_us: int
    attacker: str
    victims: tuple
    effect_start_us: int | None = None
    effect_end_us: int | None = None

    def to_json(self) -> dict:
        return dict(zip(WINDOW_KEYS, (
            self.kind, self.t_start_us, self.t_end_us, self.attacker,
            list(self.victims), self.effect_start_us, self.effect_end_us)))


def write_windows_jsonl(windows, path) -> None:
    with open(path, "w") as fh:
        for w in sorted(windows, key=lambda w: w.t_start_us):
            fh.write(json.dumps(w.to_json()) + "\n")


def _check_window(d) -> None:
    """TypeError unless the window record d has JSON int times (not "5",
    true or 5.0, as the capture reader takes them), int or null effect_*
    times, and string kind, attacker and victims; ValueError unless its
    times are in order, with the effect_* times inside the window."""
    for key in ("t_start_us", "t_end_us", "effect_start_us", "effect_end_us"):
        if key.startswith("effect_") and d.get(key) is None:
            continue
        if type(d[key]) is not int:
            raise TypeError(f"{key} {d[key]!r} is not an integer")
    for key in ("kind", "attacker"):
        if type(d[key]) is not str:
            raise TypeError(f"{key} {d[key]!r} is not a string")
    if type(d["victims"]) is not list or not all(
            type(v) is str for v in d["victims"]):
        raise TypeError(f"victims {d['victims']!r} is not a list of strings")
    start, end = d["t_start_us"], d["t_end_us"]
    if end < start:
        raise ValueError(f"t_end_us {end} is before t_start_us {start}")
    effect = [d.get("effect_start_us"), d.get("effect_end_us")]
    for key, ts in zip(("effect_start_us", "effect_end_us"), effect):
        if ts is not None and not start <= ts <= end:
            raise ValueError(f"{key} {ts} is outside [{start}, {end}]")
    if None not in effect and effect[0] > effect[1]:
        raise ValueError(f"effect_end_us {effect[1]} is before "
                         f"effect_start_us {effect[0]}")


def read_windows_jsonl(path) -> list:
    """Attack windows of an attack_windows.jsonl; a malformed record raises
    ValueError, as does one whose keys are not WINDOW_KEYS, each once and
    in that order."""
    out = []
    with open(path) as fh:
        try:
            for line in fh:
                line = line.strip()
                if line:
                    pairs = json.loads(line, object_pairs_hook=tuple)
                    if type(pairs) is not tuple:
                        raise TypeError(f"{pairs!r} is not a JSON object")
                    d = dict(pairs)
                    _check_window(d)
                    keys = tuple(k for k, _ in pairs)
                    if keys != WINDOW_KEYS:
                        raise ValueError(f"keys {list(keys)} are not "
                                         f"{list(WINDOW_KEYS)}")
                    out.append(AttackWindow(d["kind"], d["t_start_us"],
                                            d["t_end_us"], d["attacker"],
                                            tuple(d["victims"]),
                                            d["effect_start_us"],
                                            d["effect_end_us"]))
        except (ValueError, KeyError, TypeError) as e:
            raise ValueError(f"{path}: bad window record {len(out) + 1}: "
                             f"{type(e).__name__}: {e}") from e
    return out


def read_window(a) -> tuple:
    """(t_start_us, duration_us) of the attack entry that a (plan.Fields)
    reads."""
    return a.time_us("t_start_s"), a.time_us("duration_s", 0)


class Injector:
    """One attack of a plan, built from (build, entry). It reads the entry's
    window, then setup(build, a) reads its other fields through a (a
    plan.Fields into the build's errors) and finds its hosts in the build;
    schedule() arms the attack and returns the windows known before the
    run, in the order they join the bundle's windows."""

    def __init__(self, build, entry):
        a = build.read.of(entry, f"attack {entry.get('id')!r}: ")
        self.sim = build.sim
        self.t_start_us, self.duration_us = read_window(a)
        self.t_end_us = self.t_start_us + self.duration_us
        self.setup(build, a)

    def reached(self, build, a, key):
        """The host a names at key, once the attacker reaches it."""
        host = build.host(a, key)
        build.reach(f"{a.name}{key}", self.attacker, host.interfaces[0].ip)
        return host

    def artifacts(self) -> dict:
        """The bundle files this attack leaves: file name -> lines."""
        return {}


# ---------------------------------------------------------------------------
# Spoofing / tampering: ARP cache poisoning with a pass-through MITM
# ---------------------------------------------------------------------------

def scale_measurement_transform(k: float):
    """Rewrite MQTT PUBLISH telemetry in flight: Measurement *= k."""

    def transform(payload: bytes) -> bytes:
        try:
            pkt = decode_packet(payload)
        except (ValueError, UnicodeDecodeError):
            return payload
        topic, body = pkt.get("topic", ""), pkt.get("payload", "")
        # a field the broker would refuse is relayed as it came
        if pkt.get("type") != "PUBLISH" or not isinstance(topic, str) or \
                topic.startswith("$") or not isinstance(body, str):
            return payload
        try:
            body = loads(body)
        except ValueError:
            return payload
        if not isinstance(body, dict) or "Measurement" not in body:
            return payload
        if isinstance(body["Measurement"], (int, float)):
            body["Measurement"] = body["Measurement"] * k
            pkt["payload"] = dumps(body)
        return encode_packet(pkt)

    return transform


class ArpSpoof(Injector):
    """Poison two victims' caches for each other's IP and forward in the
    middle; restores the true bindings when the window closes."""

    kind = ARP_SPOOF
    transform = None        # rewrites each forwarded payload when set

    def setup(self, build, a):
        self.attacker = build.host(a, "attacker")
        self.victim_a = build.host(a, "victim_a")
        self.victim_b = build.host(a, "victim_b")
        self.poison_period_us = a.time_us("poison_period_s", 2.0, least=1)
        self.segment = self._shared_segment(a)
        self.window = AttackWindow(self.kind, self.t_start_us, self.t_end_us,
                                   self.attacker.host_id,
                                   (self.victim_a.host_id,
                                    self.victim_b.host_id))

    def _shared_segment(self, a) -> str:
        segs_a = {i.segment for i in self.victim_a.interfaces}
        segs_b = {i.segment for i in self.victim_b.interfaces}
        segs_att = {i.segment for i in self.attacker.interfaces}
        shared = segs_a & segs_b & segs_att
        if not shared:
            a.fail("attacker and victims must share a segment")
        return sorted(shared)[0]

    def schedule(self) -> list:
        self.sim.schedule_at(self.t_start_us, self._begin)
        return [self.window]

    def _begin(self):
        self.window.t_start_us = self.sim.now_us
        # learn the true bindings first so forwarding works
        a_if = self.victim_a.iface_for_segment(self.segment)
        b_if = self.victim_b.iface_for_segment(self.segment)
        try:
            self.attacker.arp_resolve(a_if.ip)
            self.attacker.arp_resolve(b_if.ip)
        except ArpFailure:
            return
        self.attacker.mitm_handler = self._forward
        self._poison()

    def _poison(self):
        if self.sim.now_us >= self.t_end_us:
            self._restore()
            return
        att_mac = self.attacker.iface_for_segment(self.segment).mac
        a_if = self.victim_a.iface_for_segment(self.segment)
        b_if = self.victim_b.iface_for_segment(self.segment)
        f1 = self.attacker.send_gratuitous_arp(self.victim_a, b_if.ip, att_mac,
                                               self.segment)
        f2 = self.attacker.send_gratuitous_arp(self.victim_b, a_if.ip, att_mac,
                                               self.segment)
        if self.window.effect_start_us is None:
            # effective once victim_a's cache holds the forged binding
            self.window.effect_start_us = f1.deliver_ts_us or f1.ts_us
        self.sim.schedule(self.poison_period_us, self._poison)

    def _restore(self):
        a_if = self.victim_a.iface_for_segment(self.segment)
        b_if = self.victim_b.iface_for_segment(self.segment)
        f1 = self.attacker.send_gratuitous_arp(self.victim_a, b_if.ip,
                                               b_if.mac, self.segment)
        f2 = self.attacker.send_gratuitous_arp(self.victim_b, a_if.ip,
                                               a_if.mac, self.segment)
        self.window.effect_end_us = f1.deliver_ts_us or f1.ts_us
        self.window.t_end_us = max(f1.deliver_ts_us or f1.ts_us,
                                   f2.deliver_ts_us or f2.ts_us) + 1

    def _forward(self, frame):
        payload = frame.payload
        if self.transform is not None:
            payload = self.transform(payload)
        self.attacker.forward_packet(frame, payload=payload)


class Tamper(ArpSpoof):
    """ArpSpoof that scales the MQTT telemetry it forwards by `scale`."""

    kind = TAMPER

    def setup(self, build, a):
        super().setup(build, a)
        self.transform = scale_measurement_transform(
            a.get("scale", float, 2.0))


# ---------------------------------------------------------------------------
# Repudiation: post-exploit system-log tampering
# ---------------------------------------------------------------------------

def log_tamper(sim, attacker, target_host, webgui,
               predicate: str) -> AttackWindow:
    """Delete target syslog entries containing `predicate`, now.

    Requires a shell foothold from a prior exploit; the fabric's ground-truth
    shadow keeps every entry, so the deletion is provable by diff.
    """
    footholds = webgui.footholds if webgui is not None else ()
    if attacker.host_id not in footholds and (
            attacker.interfaces[0].ip not in footholds):
        raise PermissionError("log_tamper needs a shell foothold on the target")
    kept = [e for e in target_host.syslog
            if not (predicate and predicate in e[1])]
    target_host.syslog[:] = kept
    return AttackWindow(LOG_TAMPER, sim.now_us, sim.now_us,
                        attacker.host_id, (target_host.host_id,))


class LogTamper(Injector):
    """log_tamper at t_start_s. Its window joins the build's windows when it
    fires; without a foothold it adds none."""

    def setup(self, build, a):
        self.windows = build.windows
        self.attacker = build.host(a, "attacker")
        self.target_host = build.host(a, "target")
        self.webgui = build.webgui
        self.predicate = a.get("predicate", str, "shell")

    def schedule(self) -> list:
        self.sim.schedule_at(self.t_start_us, self._fire)
        return []

    def _fire(self):
        try:
            window = log_tamper(self.sim, self.attacker, self.target_host,
                                self.webgui, self.predicate)
        except PermissionError:
            return
        self.windows.append(window)


# ---------------------------------------------------------------------------
# Information disclosure: I2C bus sniffing
# ---------------------------------------------------------------------------

class I2cSniffer(Injector):
    """A tap on the gateway's I2C bus; keeps the trace lines in its window."""

    def setup(self, build, a):
        self.bus = build.i2c_bus
        self.lines: list[str] = []
        self.window = AttackWindow(I2C_SNIFF, self.t_start_us, self.t_end_us,
                                   a.get("attacker", str, "attacker"),
                                   (fieldbus.I2C_BUS_ID,))

    def schedule(self) -> list:
        self.bus.attach_sniffer(self._observe)
        return [self.window]

    def _observe(self, ts_us, trace):
        if self.t_start_us <= ts_us < self.t_end_us:
            self.lines.append(trace)

    def artifacts(self) -> dict:
        return {"i2c_trace.txt": self.lines}


# ---------------------------------------------------------------------------
# DoS: MODBUS read flood against the PLC
# ---------------------------------------------------------------------------

class ModbusFlood(Injector):
    def setup(self, build, a):
        self.rate_per_s = a.get("rate_per_s", float, positive=True)
        self.attacker = build.host(a, "attacker")
        self.plc_ip = self.reached(build, a, "target").interfaces[0].ip
        self.addr_lo = a.get("addr_lo", int, 0, lo=0, hi=0xFFFF)
        self.addr_hi = a.get("addr_hi", int, max(199, self.addr_lo),
                             lo=self.addr_lo, hi=0xFFFF)
        self.reqs_per_conn = a.get("reqs_per_conn", int, 10, lo=1)
        self._stream = None         # the connection of the current requests
        self.window = AttackWindow(MODBUS_DOS, self.t_start_us,
                                   self.t_start_us + self.duration_us + 500_000,
                                   self.attacker.host_id, (self.plc_ip,))

    def schedule(self) -> list:
        period = 1_000_000 / self.rate_per_s
        self.sim.series(int(self.rate_per_s * self.duration_us / 1_000_000),
                        lambda i: self.t_start_us + int(i * period),
                        self._fire)
        return [self.window]

    def _fire(self, i):
        slot = i % self.reqs_per_conn
        if slot == 0:
            self._stream = self.attacker.open_tcp(
                self.plc_ip, fieldbus.MODBUS_PORT, "MODBUS")
        stream = self._stream
        addr = self.addr_lo + i % (self.addr_hi - self.addr_lo + 1)
        request = fieldbus.ModbusAdu((i + 1) & 0xFFFF, 1,
                                     fieldbus.READ_HOLDING_REGISTERS, addr, 1)
        if stream.state in ("connecting", "established"):
            stream.write(fieldbus.encode_request(request))
        if slot == self.reqs_per_conn - 1:
            self.sim.schedule(100_000, stream.close)


# ---------------------------------------------------------------------------
# Elevation of privilege: rogue MQTT subscriber
# ---------------------------------------------------------------------------

class RogueSubscriber(Injector):
    """Reconnecting subscriber script; collects 'topic: payload' lines."""

    def setup(self, build, a):
        self.attacker = build.host(a, "attacker")
        self.broker_ip = self.reached(build, a,
                                      "broker_host").interfaces[0].ip
        self.filters = a.get("filters", list, ["#", "$SYS/#"], of=str)
        self.cycle_us = a.time_us("cycle_s", 4.0,
                                  least=DISCONNECT_LEAD_US + 1)
        self.transcript: list[str] = []
        self._cycle_n = 0
        self.window = AttackWindow(ROGUE_SUBSCRIBER, self.t_start_us,
                                   self.t_end_us, self.attacker.host_id,
                                   (self.broker_ip,))

    def schedule(self) -> list:
        self.sim.schedule_at(self.t_start_us, self._cycle)
        return [self.window]

    def _cycle(self):
        if self.sim.now_us >= self.t_end_us:
            return
        self._cycle_n += 1
        client = MqttClient(self.attacker, self.broker_ip,
                            f"rogue-{self._cycle_n}")
        client.on_message = lambda topic, payload: self.transcript.append(
            f"{topic}: {payload}")
        client.on_connected = lambda c: c.subscribe(self.filters)
        client.connect()
        self.sim.schedule(self.cycle_us - DISCONNECT_LEAD_US,
                          client.disconnect)
        self.sim.schedule(self.cycle_us, self._cycle)

    def artifacts(self) -> dict:
        return {"rogue_transcript.txt": self.transcript}


# ---------------------------------------------------------------------------
# Recon: SYN scan, and web directory enumeration
# ---------------------------------------------------------------------------


class PortScan(Injector):
    GAP_US = 10_000         # between probes

    def setup(self, build, a):
        self.attacker = build.host(a, "attacker")
        self.target_host = self.reached(build, a, "target")
        self.ports = a.get("ports", list, [443], of=int, lo=0, hi=0xFFFF)
        self.window = AttackWindow(
            RECON, self.t_start_us,
            self.t_start_us + self.GAP_US * (len(self.ports) + 2),
            self.attacker.host_id, (self.target_host.host_id,))

    def schedule(self) -> list:
        self.sim.series(len(self.ports),
                        lambda n: self.t_start_us + n * self.GAP_US,
                        lambda n: self._probe(self.target_host.interfaces[0].ip,
                                              self.ports[n]))
        return [self.window]

    def _probe(self, target_ip, port):
        stream = self.attacker.open_tcp(target_ip, port, "SCAN")
        stream.on_established = lambda s: s.reset()


class WebEnum(Injector):
    """Heavy directory-walk style enumeration of the web admin port: one
    HTTPS session per `sessions`, each session_duration_s long at one
    request per request_period_s, the next starting a second later."""

    def setup(self, build, a):
        self.attacker = build.host(a, "attacker")
        self.target_host = self.reached(build, a, "target")
        self.sessions = a.get("sessions", int, 3, lo=0)
        self.session_us = a.time_us("session_duration_s", 70.0)
        self.request_period_us = a.time_us("request_period_s", 1.0, least=1)
        self.window = AttackWindow(
            RECON, self.t_start_us,
            self.t_start_us + self.sessions * (self.session_us + US_PER_S),
            self.attacker.host_id, (self.target_host.host_id,))

    def schedule(self) -> list:
        for k in range(self.sessions):
            self.sim.schedule_at(
                self.t_start_us + k * (self.session_us + US_PER_S),
                self._session, k)
        return [self.window]

    def _session(self, k):
        stream = self.attacker.open_tcp(self.target_host.interfaces[0].ip,
                                        WEBGUI_PORT, "HTTPS")
        n_req = max(1, self.session_us // self.request_period_us)

        def request(n):
            return dumps({"action": "get",
                          "path": f"/admin/dir{k}/page{n:04d}",
                          "probe": "x" * 120}).encode()

        def on_data(s, data):
            if s.replies < n_req:
                s.reply_after(self.request_period_us, request(s.replies + 1))
            else:
                s.close()

        stream.write(request(1))
        stream.on_data = on_data


# ---------------------------------------------------------------------------
# Exploitation: webgui payload upload and reverse shells
# ---------------------------------------------------------------------------

@dataclass
class ReverseShellSession:
    duration_us: int
    commands: list = field(default_factory=list)


SHELL_COMMANDS = ("id", "whoami", "uname -a", "cat /etc/passwd",
                  "netstat -an")


class ExploitWebgui(Injector):
    """Credentialed login + payload upload, then victim-originated shells.

    Fails cleanly when the target is not vulnerable or credentials are wrong;
    on success every session is a TCP stream FROM the victim TO the
    attacker's listener, ended with an exact-duration reset. The exploit is
    its own listener service, bound on listener_port.
    """

    def setup(self, build, a):
        self.attacker = build.host(a, "attacker")
        self.target_host = self.reached(build, a, "target")
        self.credentials = tuple(a.get("credentials", list,
                                       ["admin", "admin"], of=str))
        if len(self.credentials) != 2:
            a.fail("credentials must be a user and a password")
        end_us = self.t_start_us + 2_000_000   # the login and upload window
        # [(start_us, duration_us), ...], armed once the upload succeeds
        self.session_plan = []
        for i, pair in enumerate(a.get("sessions", list, [], of=list)):
            s = a.of(dict(zip(("start", "duration"), pair))
                     if len(pair) == 2 else {}, f"{a.name}sessions {i}: ")
            self.session_plan.append((s.time_us("start", least=end_us),
                                      s.time_us("duration")))
        self.listener_port = a.get("listener_port", int,
                                   DEFAULT_LISTENER_PORT, lo=1, hi=0xFFFF)
        self.command_gap_us = a.time_us("command_gap_s", 20.0, least=1)
        self.sessions: list[ReverseShellSession] = []
        self._shells: dict = {}     # listener stream -> its session
        attacker_id = self.attacker.host_id
        victims = (self.target_host.host_id,)
        self.exploit_window = AttackWindow(EXPLOIT, self.t_start_us, end_us,
                                           attacker_id, victims)
        self.shell_window = AttackWindow(
            REVERSE_SHELL,
            min((s for s, _ in self.session_plan), default=self.t_start_us),
            max((s + d for s, d in self.session_plan),
                default=self.t_start_us) + 1_000, attacker_id, victims)

    def schedule(self) -> list:
        self.attacker.bind_tcp(self.listener_port, self)
        self.sim.schedule_at(self.t_start_us, self._login)
        return [self.exploit_window, self.shell_window]

    # stage 1: login and upload over the web admin port
    def _login(self):
        target_ip = self.target_host.interfaces[0].ip
        stream = self.attacker.open_tcp(target_ip, WEBGUI_PORT, "HTTPS")
        user, password = self.credentials
        stream.write(dumps({"action": "login", "user": user,
                            "password": password}).encode())

        def on_data(s, data):
            body = loads(data.decode())
            if s.replies == 1:
                if body.get("auth") != "ok":
                    s.close()
                    return
                s.write(dumps(
                    {"action": "inject", "attacker": self.attacker.host_id,
                     "payload": "<?php graph callback ?>"}).encode())
            else:
                s.close()
                if body.get("upload") == "ok":
                    self._arm_sessions()

        stream.on_data = on_data

    def _arm_sessions(self):
        for n, (start, duration) in enumerate(self.session_plan, start=1):
            self.sim.schedule_at(start, self._open_session, n, start, duration)

    def _open_session(self, n, start_us, duration_us):
        attacker_ip = self.attacker.interfaces[0].ip
        self.sessions.append(ReverseShellSession(duration_us))

        # reverse direction: the victim originates the stream
        stream = self.target_host.open_tcp(attacker_ip, self.listener_port,
                                           "TCP")
        self.sim.log_syslog(self.target_host,
                            f"php: reverse shell payload executed, session {n} "
                            f"to {attacker_ip}:{self.listener_port}")

        def on_data(s, data):
            # victim side: answer the command with root-privileged output
            cmd = data.decode()
            self.sim.log_syslog(self.target_host,
                                f"sh: payload command '{cmd}' uid=0(root)")
            s.write(f"{cmd}: uid=0(root) gid=0(wheel)".encode())

        stream.on_data = on_data
        self.sim.schedule_at(start_us + duration_us, stream.reset)

    # the attacker side: the n-th shell to reach the listener is session n
    def on_open(self, stream):
        if len(self._shells) < len(self.sessions):
            record = self._shells[stream] = self.sessions[len(self._shells)]
            self.sim.schedule(1_000, self._issue_command, stream, record)

    def on_data(self, stream, data: bytes):
        """The shell's answers reach the capture; the script keeps none."""

    def _issue_command(self, stream, record):
        if stream.state != "established":
            return
        cmd = SHELL_COMMANDS[len(record.commands) % len(SHELL_COMMANDS)]
        record.commands.append(cmd)
        stream.write(cmd.encode())
        if len(record.commands) * self.command_gap_us < record.duration_us:
            self.sim.schedule(self.command_gap_us, self._issue_command,
                              stream, record)


def backdoor_ports(injectors) -> list:
    """The reverse-shell listener ports of the exploits among injectors,
    else the default one: where a hunt looks for backdoor connections."""
    return [i.listener_port for i in injectors
            if isinstance(i, ExploitWebgui)] or [DEFAULT_LISTENER_PORT]


# plan attack kind -> the injector class its entries build
KINDS = {ARP_SPOOF: ArpSpoof, TAMPER: Tamper, LOG_TAMPER: LogTamper,
         I2C_SNIFF: I2cSniffer, MODBUS_DOS: ModbusFlood,
         ROGUE_SUBSCRIBER: RogueSubscriber, RECON: PortScan,
         WEB_ENUM: WebEnum, EXPLOIT: ExploitWebgui}
