"""Deterministic discrete-event network fabric.

Hosts with MAC/IP identities sit on switched LAN segments; a router with a
stateful access-control list joins segments; every frame (ARP, UDP, TCP at
flag+payload fidelity) is appended to a global capture. All randomness
(link jitter, loss) is drawn from per-host seeded streams so that adding
traffic from one host never perturbs the delay sequence of another.
"""

import binascii
import functools
import heapq
import itertools
import json
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from random import Random

US_PER_S = 1_000_000
BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"
ROUTER_FORWARD_DELAY_US = 40    # a plan without router_forward_delay_us
# every proto_tag the testbed sends, so every one a capture line may hold
PROTO_TAGS = ("API", "ARP", "COAP", "DNS", "HTTP", "HTTPS", "MODBUS", "MQTT",
              "SCAN", "SMTP", "TCP")

_MAC_RE = re.compile(r"([0-9a-f]{2}:){5}[0-9a-f]{2}")
# four octets of 1-3 ASCII digits each and a prefix length of 1-2, none
# with a leading zero: int() alone would also take spaces, signs,
# underscores and other scripts' digits, and "010" would be a second text
# for 10
_IPV4_RE = re.compile(r"\.".join([r"(0|[1-9][0-9]{0,2})"] * 4))
_PREFIX_RE = re.compile(r"0|[1-9][0-9]?")


class NetConfigError(Exception):
    """Invalid fabric configuration (duplicate address, bad MAC, ...)."""


class RouteError(Exception):
    """Destination not reachable from the sending host."""


class ArpFailure(Exception):
    """No responder for an ARP request."""


def check_mac(mac: str) -> str:
    mac = mac.lower()
    if not _MAC_RE.fullmatch(mac):
        raise NetConfigError(f"bad MAC address {mac!r}")
    return mac


def ip_to_int(ip: str) -> int:
    m = _IPV4_RE.fullmatch(ip)
    if m is None:
        raise NetConfigError(f"bad IPv4 address {ip!r}")
    val = 0
    for p in m.groups():
        n = int(p)
        if n > 255:
            raise NetConfigError(f"bad IPv4 address {ip!r}")
        val = (val << 8) | n
    return val


def parse_cidr(cidr: str) -> tuple:
    """-> (net, mask) ints; "any" and "*" match every address and a bare
    address matches itself."""
    if cidr in ("any", "*"):
        return 0, 0
    net, slash, bits = cidr.partition("/")
    if slash and not (_PREFIX_RE.fullmatch(bits) and int(bits) <= 32):
        raise NetConfigError(f"bad CIDR {cidr!r}")
    bits = int(bits) if slash else 32
    mask = ((1 << bits) - 1) << (32 - bits)
    return ip_to_int(net) & mask, mask


def cidr_match(ip: str, cidr: str) -> bool:
    net, mask = parse_cidr(cidr)
    return ip_to_int(ip) & mask == net


@dataclass
class LinkProfile:
    base_latency_us: int = 100
    jitter_us: int = 0
    loss_rate: float = 0.0


@dataclass
class Segment:
    name: str
    profile: LinkProfile
    subnet: str | None = None        # lets hosts ARP for unclaimed addresses
    hosts: list = field(default_factory=list)


@dataclass(slots=True)
class Frame:
    """One L2 transmission. Multi-hop packets produce one Frame per hop."""

    ts_us: int
    segment: str
    sender: str                    # host id that put the frame on the wire
    src_mac: str
    dst_mac: str
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    l4: str                        # "TCP" | "UDP" | "ARP"
    tcp_flags: tuple
    payload: bytes
    proto_tag: str
    origin: bool = True            # sender owns src_ip (False on forwards)
    final: bool = False            # delivered to the host owning dst_ip
    delivered: bool = False
    deliver_ts_us: int = 0
    drop_reason: str = ""          # "loss" when lost in transit
    fw_denied: bool = False        # delivered to router, refused by ACL

    @property
    def wire_len(self) -> int:
        header, counted = WIRE_LEN.get(self.l4, ARP_WIRE_LEN)
        return header + len(self.payload) if counted else header

    def flag_key(self) -> str:
        return _flag_key(self.tcp_flags)


# l4 -> (header bytes, whether the payload counts) of a frame's wire
# length; any other l4 is ARP's, 42 bytes whatever the payload
WIRE_LEN = {"TCP": (54, True), "UDP": (42, True)}
ARP_WIRE_LEN = (42, False)

FLAG_LETTER = {"ACK": "A", "FIN": "F", "PSH": "P", "RST": "R", "SYN": "S"}

# the flag sets TcpStream and the router send, each a sorted tuple
SYN, SYN_ACK, ACK = ("SYN",), ("ACK", "SYN"), ("ACK",)
PSH_ACK, FIN_ACK, RST = ("ACK", "PSH"), ("ACK", "FIN"), ("RST",)


def owes_ack(flags: tuple, payload: bytes) -> bool:
    """Whether the peer pays for the segment with a bare ACK."""
    return bool(payload) or "FIN" in flags or flags == SYN_ACK


@functools.cache
def _flag_key(flags: tuple) -> str:
    return "".join(FLAG_LETTER[f] for f in flags)


# every key _flag_key spells: a flag tuple is sorted, so a set of flags
# has one key
FLAG_KEYS = frozenset(
    _flag_key(flags) for n in range(len(FLAG_LETTER) + 1)
    for flags in itertools.combinations(sorted(FLAG_LETTER), n))


@dataclass
class AclRule:
    direction: str       # "in" (toward WAN-facing ingress -> LAN), "out", "any"
    src_cidr: str
    dst_cidr: str
    dst_ports: frozenset | None   # None = any port
    action: str          # "allow" | "deny"


class Acl:
    """First matching rule wins; empty rule list falls through to default.

    The rules are parsed once, so a verdict never changes: decide scans them
    once per (direction, src_ip, dst_ip, dst_port) and keeps the answer."""

    def __init__(self, rules=(), default="allow"):
        self.rules = list(rules)
        self.default = default
        self._parsed = [(r.direction, *parse_cidr(r.src_cidr),
                         *parse_cidr(r.dst_cidr), r.dst_ports, r.action)
                        for r in self.rules]
        self._verdicts: dict = {}

    def decide(self, direction: str, src_ip: str, dst_ip: str, dst_port: int) -> str:
        key = (direction, src_ip, dst_ip, dst_port)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self._scan(*key)
        return verdict

    def _scan(self, direction: str, src_ip: str, dst_ip: str, dst_port: int) -> str:
        src, dst = ip_to_int(src_ip), ip_to_int(dst_ip)
        for (rule_dir, src_net, src_mask, dst_net, dst_mask, ports,
             action) in self._parsed:
            if rule_dir not in ("any", direction):
                continue
            if src & src_mask != src_net or dst & dst_mask != dst_net:
                continue
            if ports is not None and dst_port not in ports:
                continue
            return action
        return self.default


class Simulation:
    """Event loop owning all fabric state for one run."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now_us = 0
        self.horizon_us: int | None = None   # periodic loops stop here
        self._events = []
        self._eseq = 0
        self.capture: list[Frame] = []
        self.segments: dict[str, Segment] = {}
        self.hosts: dict[str, "Host"] = {}
        self._mac_owner: dict[str, "Host"] = {}
        self._ip_owner: dict[tuple, "Host"] = {}   # (segment, ip) -> host
        self.syslog_truth: dict[str, list] = {}
        self._rngs: dict[str, Random] = {}
        # (sender, segment) -> [base latency, jitter, loss rate, (data lane,
        # ARP lane), last deliver ts], built at the sender's first frame there
        self._links: dict[tuple, list] = {}

    # -- clock ---------------------------------------------------------
    def rng(self, lane: str) -> Random:
        r = self._rngs.get(lane)
        if r is None:
            r = self._rngs[lane] = Random(f"{self.seed}/{lane}")
        return r

    def schedule(self, delay_us: int, fn, *args) -> None:
        self.schedule_at(self.now_us + int(delay_us), fn, *args)

    def schedule_at(self, ts_us: int, fn, *args) -> None:
        """Run fn(*args) at ts_us; equal times run in scheduling order. A
        time before now raises ValueError naming fn."""
        ts_us = int(ts_us)
        if ts_us < self.now_us:
            raise ValueError(f"{getattr(fn, '__qualname__', fn)}: cannot run "
                             f"at {ts_us} us, before now ({self.now_us} us)")
        self._eseq += 1
        heapq.heappush(self._events, (ts_us, self._eseq, fn, args))

    def series(self, count: int, time_of, fn) -> None:
        """Run fn(i) at time_of(i), non-decreasing, for i in range(count),
        numbered now as count schedule_at calls would be, so in the same
        order; each joins the heap only when the one before it runs."""
        first = self._eseq + 1
        self._eseq += count

        def run(i):
            if i + 1 < count:
                heapq.heappush(self._events, (int(time_of(i + 1)),
                                              first + i + 1, run, (i + 1,)))
            fn(i)

        if count > 0:
            heapq.heappush(self._events, (int(time_of(0)), first, run, (0,)))

    def every(self, period, fn, first_us: int | None = None) -> None:
        """Run fn until the next run would start past the horizon. period is
        a delay in us or a function that returns the delay after each run;
        the first run is first_us from now, else one period. A period that
        is not a positive int, which the clock could never pass, raises
        ValueError naming fn."""
        self._repeat_after(self._period(period, fn) if first_us is None
                           else first_us, period, fn)

    def _repeat(self, period, fn) -> None:
        fn()
        self._repeat_after(self._period(period, fn), period, fn)

    @staticmethod
    def _period(period, fn) -> int:
        delay = period() if callable(period) else period
        if isinstance(delay, int) and delay > 0:
            return delay
        raise ValueError(f"{getattr(fn, '__qualname__', fn)}: period must be "
                         f"a positive int of us, got {delay!r}")

    def _repeat_after(self, delay_us: int, period, fn) -> None:
        ts = self.now_us + int(delay_us)
        if self.horizon_us is None or ts <= self.horizon_us:
            self.schedule_at(ts, self._repeat, period, fn)

    def run_until(self, t_us: int) -> None:
        events, pop = self._events, heapq.heappop
        while events and events[0][0] <= t_us:
            ts, _, fn, args = pop(events)
            self.now_us = ts
            fn(*args)
        self.now_us = max(self.now_us, t_us)

    # -- topology ------------------------------------------------------
    def add_segment(self, name: str, profile: LinkProfile | None = None,
                    subnet: str | None = None) -> Segment:
        if name in self.segments:
            raise NetConfigError(f"segment {name!r} already exists")
        seg = Segment(name, profile or LinkProfile(), subnet)
        self.segments[name] = seg
        return seg

    def attach_host(self, host_id: str, interfaces, gateway_ip: str | None = None,
                    is_router: bool = False, acl: Acl | None = None,
                    forward_delay_us: int = ROUTER_FORWARD_DELAY_US) -> "Host":
        """interfaces: iterable of (segment_name, mac, ip)."""
        if host_id in self.hosts:
            raise NetConfigError(f"host {host_id!r} already attached")
        host = Host(self, host_id, gateway_ip=gateway_ip, is_router=is_router,
                    acl=acl, forward_delay_us=forward_delay_us)
        for seg_name, mac, ip in interfaces:
            mac = check_mac(mac)
            seg = self.segments[seg_name]
            if mac in self._mac_owner:
                raise NetConfigError(f"duplicate MAC {mac} on fabric")
            if (seg_name, ip) in self._ip_owner:
                raise NetConfigError(f"duplicate IP {ip} on segment {seg_name}")
            host.interfaces.append(Interface(seg_name, mac, ip))
            host.own_macs.setdefault(ip, mac)
            self._mac_owner[mac] = host
            self._ip_owner[(seg_name, ip)] = host
            seg.hosts.append(host)
        host.ips = frozenset(i.ip for i in host.interfaces)
        self.hosts[host_id] = host
        for h in self.hosts.values():
            h._routes.clear()
        self.syslog_truth[host_id] = []
        return host

    def owner_of_ip(self, segment: str, ip: str) -> "Host | None":
        return self._ip_owner.get((segment, ip))

    def log_syslog(self, host: "Host", text: str) -> None:
        entry = (self.now_us, text)
        host.syslog.append(entry)
        self.syslog_truth[host.host_id].append(entry)

    # -- wire ----------------------------------------------------------
    def transmit(self, frame: Frame) -> Frame:
        """Put a frame on its segment; draws loss/jitter from the sender lane.

        Delivery is FIFO per (sender, segment): jitter never reorders frames
        from one host on one wire.
        """
        self.capture.append(frame)
        key = (frame.sender, frame.segment)
        link = self._links.get(key)
        if link is None:
            p = self.segments[frame.segment].profile
            # ARP keeps its own jitter lane so that attack-induced resolutions
            # can never shift the delay sequence of a victim's data traffic
            link = self._links[key] = [
                p.base_latency_us, p.jitter_us, p.loss_rate,
                (self.rng(f"net/{frame.sender}"),
                 self.rng(f"net/{frame.sender}/arp")), 0]
        base, j, loss, lanes, last = link
        lane = lanes[frame.l4 == "ARP"]
        if loss and lane.random() < loss:
            frame.drop_reason = "loss"
            return frame
        delay = base
        if j:
            # Random.uniform(-j, j)'s own expression, so the float is equal
            delay += round(-j + (j + j) * lane.random())
        if delay <= 0:
            delay = 0
        deliver_ts = frame.ts_us + delay
        if deliver_ts < last:
            deliver_ts = last
        # scheduled; the delivered flag is set on arrival
        link[4] = frame.deliver_ts_us = deliver_ts
        self._eseq += 1
        heapq.heappush(self._events, (int(deliver_ts), self._eseq,
                                      self._deliver, (frame,)))
        return frame

    def _deliver(self, frame: Frame) -> None:
        frame.delivered = True
        if frame.dst_mac == BROADCAST_MAC:
            for h in self.segments[frame.segment].hosts:
                if not any(i.mac == frame.src_mac for i in h.interfaces):
                    h.receive(frame)
            return
        host = self._mac_owner.get(frame.dst_mac)
        if host is not None:
            if frame.dst_ip in host.ips:
                frame.final = True
            host.receive(frame)


@dataclass
class Interface:
    segment: str
    mac: str
    ip: str


class Host:
    def __init__(self, sim: Simulation, host_id: str, gateway_ip, is_router,
                 acl, forward_delay_us):
        self.sim = sim
        self.host_id = host_id
        self.interfaces: list[Interface] = []
        self.gateway_ip = gateway_ip
        self.is_router = is_router
        self.acl = acl or Acl()
        self.forward_delay_us = forward_delay_us
        self.wan_segments: set = set()
        self.arp_cache: dict[str, tuple] = {}   # ip -> (mac, ts_us)
        self.syslog: list = []
        self.mitm_handler = None                 # fn(frame) -> None
        self._tcp_services: dict[int, object] = {}
        self._udp_services: dict[int, object] = {}
        self._streams: dict[tuple, "TcpStream"] = {}
        self._eph_port = 49152
        # originator's key -> [FINs, segments owing an ACK (owes_ack) from
        # the originator, from the responder]; a TCP entry ends with its flow
        self._conntrack: dict[tuple, list] = {}
        self.ips: frozenset = frozenset()        # set by attach_host
        self.own_macs: dict[str, str] = {}       # own ip -> its first MAC
        self._routes: dict[str, tuple] = {}     # dst_ip -> route(dst_ip)

    # -- identity helpers ------------------------------------------------
    def iface_for_segment(self, segment: str) -> Interface:
        for i in self.interfaces:
            if i.segment == segment:
                return i
        raise NetConfigError(f"{self.host_id} has no interface on {segment}")

    def ephemeral_port(self) -> int:
        p = self._eph_port
        self._eph_port += 1
        if self._eph_port > 65535:
            self._eph_port = 49152
        return p

    # -- routing / ARP ----------------------------------------------------
    def route(self, dst_ip: str) -> tuple:
        """-> (interface, next_hop_ip); fixed until the next attach_host."""
        hit = self._routes.get(dst_ip)
        if hit is None:
            hit = self._routes[dst_ip] = self._find_route(dst_ip)
        return hit

    def _find_route(self, dst_ip: str) -> tuple:
        for i in self.interfaces:
            if self.sim.owner_of_ip(i.segment, dst_ip) is not None:
                return i, dst_ip
        for i in self.interfaces:
            subnet = self.sim.segments[i.segment].subnet
            if subnet and cidr_match(dst_ip, subnet):
                return i, dst_ip
        if self.gateway_ip:
            for i in self.interfaces:
                if self.sim.owner_of_ip(i.segment, self.gateway_ip) is not None:
                    return i, self.gateway_ip
        raise RouteError(f"{self.host_id}: no route to {dst_ip}")

    def arp_resolve(self, target_ip: str) -> tuple:
        """Resolve target_ip on the local segment -> (mac, ready_ts_us).

        A cache miss emits the request/reply exchange into the capture and
        returns the time at which the answer is available, as a hit does.
        """
        mac = self.own_macs.get(target_ip)
        if mac is not None:
            return mac, self.sim.now_us
        hit = self.arp_cache.get(target_ip)
        if hit is not None:
            return hit[0], max(hit[1], self.sim.now_us)
        iface, _ = self.route(target_ip)
        owner = self.sim.owner_of_ip(iface.segment, target_ip)
        if owner is None:
            # request goes out, nobody answers
            self._emit_arp(iface, BROADCAST_MAC, target_ip, op="request")
            raise ArpFailure(f"no ARP responder for {target_ip} on {iface.segment}")
        req, req_offset = self._emit_arp(iface, BROADCAST_MAC, target_ip,
                                         op="request")
        # reply is sent by the owner once the request lands
        o_iface = owner.iface_for_segment(iface.segment)
        reply, reply_offset = owner._emit_arp(
            o_iface, iface.mac, target_ip, op="reply",
            ts=req.ts_us + req_offset, claimed_ip=target_ip,
            claimed_mac=o_iface.mac, to_ip=iface.ip)
        ready = reply.ts_us + reply_offset
        self.arp_cache[target_ip] = (o_iface.mac, ready)
        return o_iface.mac, ready

    def _emit_arp(self, iface, dst_mac, target_ip, op, ts=None, claimed_ip=None,
                  claimed_mac=None, to_ip=""):
        """Transmit an ARP frame -> (frame, deliver_offset_us)."""
        payload = json.dumps({"op": op, "target": target_ip,
                              "claimed_ip": claimed_ip or "",
                              "claimed_mac": claimed_mac or ""}).encode()
        frame = Frame(ts_us=self.sim.now_us if ts is None else ts,
                      segment=iface.segment, sender=self.host_id,
                      src_mac=iface.mac, dst_mac=dst_mac,
                      src_ip=claimed_ip or iface.ip, dst_ip=to_ip or target_ip,
                      src_port=0, dst_port=0, l4="ARP", tcp_flags=(),
                      payload=payload, proto_tag="ARP")
        self.sim.transmit(frame)
        if frame.drop_reason:
            # lost ARP is retried in reality; abstract it as one base delay
            offset = self.sim.segments[iface.segment].profile.base_latency_us
        else:
            offset = frame.deliver_ts_us - frame.ts_us
        return frame, offset

    def send_gratuitous_arp(self, victim: "Host", claimed_ip: str, claimed_mac: str,
                            segment: str) -> Frame:
        """Unsolicited ARP reply binding claimed_ip -> claimed_mac in the victim cache."""
        iface = self.iface_for_segment(segment)
        v_iface = victim.iface_for_segment(segment)
        frame, _ = self._emit_arp(iface, v_iface.mac, claimed_ip, op="reply",
                                  claimed_ip=claimed_ip,
                                  claimed_mac=claimed_mac, to_ip=v_iface.ip)
        return frame

    # -- send paths --------------------------------------------------------
    def send_ip(self, dst_ip: str, dst_port: int, payload: bytes, proto_tag: str,
                l4: str = "UDP", tcp_flags: tuple = (), src_port: int = 0,
                src_ip: str | None = None) -> Frame:
        """tcp_flags is a sorted tuple, such as SYN_ACK."""
        hit = self._routes.get(dst_ip)
        if hit is None:
            hit = self._routes[dst_ip] = self._find_route(dst_ip)
        iface, next_hop = hit
        ts = self.sim.now_us
        # the cache is read on every frame: a gratuitous ARP may rebind it
        mac = self.own_macs.get(next_hop)
        if mac is None:
            hit = self.arp_cache.get(next_hop)
            mac, ready = hit if hit is not None else self.arp_resolve(next_hop)
            if ready > ts:
                ts = ready      # the ARP reply is still in flight
        src_ip = src_ip or iface.ip
        return self.sim.transmit(Frame(
            ts, iface.segment, self.host_id, iface.mac, mac, src_ip, dst_ip,
            src_port, dst_port, l4, tcp_flags, payload, proto_tag,
            src_ip in self.ips))

    def forward_packet(self, frame: Frame, payload=None) -> Frame | None:
        """Re-emit a packet (router hop or MITM pass-through); a packet with
        no route or no ARP answer for its next hop is dropped."""
        try:
            return self.send_ip(frame.dst_ip, frame.dst_port,
                                frame.payload if payload is None else payload,
                                frame.proto_tag, frame.l4, frame.tcp_flags,
                                frame.src_port, frame.src_ip)
        except (RouteError, ArpFailure):
            return None

    # -- receive -----------------------------------------------------------
    def receive(self, frame: Frame) -> None:
        if frame.l4 == "ARP":
            self._rx_arp(frame)
            return
        if frame.dst_ip in self.ips:
            self._rx_local(frame)
        elif self.is_router:
            self._router_forward(frame)
        elif self.mitm_handler is not None:
            self.mitm_handler(frame)
        # anything else: frame was switched to us but is not ours; ignore

    def _rx_arp(self, frame: Frame) -> None:
        info = json.loads(frame.payload.decode())
        if info["op"] == "reply" and info["claimed_ip"]:
            # gratuitous or solicited: most recent writer wins
            self.arp_cache[info["claimed_ip"]] = (info["claimed_mac"],
                                                  self.sim.now_us)
        # requests need no answer here: arp_resolve synthesizes the reply

    def _router_forward(self, frame: Frame) -> None:
        ingress_wan = frame.segment in self.wan_segments
        direction = "in" if ingress_wan else "out"
        key = (frame.src_ip, frame.src_port, frame.dst_ip, frame.dst_port, frame.l4)
        rkey = (frame.dst_ip, frame.dst_port, frame.src_ip, frame.src_port, frame.l4)
        flow = self._conntrack.get(rkey)
        if flow is not None:
            key, side = rkey, 2         # a reply on a tracked flow
        else:
            verdict = self.acl.decide(direction, frame.src_ip, frame.dst_ip,
                                      frame.dst_port)
            if verdict == "deny":
                frame.fw_denied = True
                if frame.l4 == "TCP":
                    # reject: RST back to the origin so clients fail fast
                    self.send_ip(frame.src_ip, frame.src_port,
                                 b"", frame.proto_tag, l4="TCP",
                                 tcp_flags=RST,
                                 src_port=frame.dst_port, src_ip=frame.dst_ip)
                return
            flow = self._conntrack.setdefault(key, [0, 0, 0])
            side = 1
        if frame.l4 == "TCP":
            # count as TcpStream._unacked does on each end
            flags = frame.tcp_flags
            if "RST" in flags:
                del self._conntrack[key]
            elif owes_ack(flags, frame.payload):
                flow[side] += 1
                if "FIN" in flags:
                    flow[0] += 1
            elif flags == ACK and flow[3 - side]:
                flow[3 - side] -= 1
                if flow == [2, 0, 0]:
                    del self._conntrack[key]
        self.sim.schedule(self.forward_delay_us, self.forward_packet, frame)

    # -- UDP ---------------------------------------------------------------
    def bind_udp(self, port: int, handler) -> None:
        """handler(host, frame) is invoked on delivery of each datagram."""
        self._udp_services[port] = handler

    def send_udp(self, dst_ip, dst_port, payload: bytes, proto_tag, src_port=None):
        sp = src_port if src_port is not None else self.ephemeral_port()
        return self.send_ip(dst_ip, dst_port, payload, proto_tag, l4="UDP",
                            src_port=sp)

    # -- TCP ---------------------------------------------------------------
    def bind_tcp(self, port: int, service) -> None:
        """service needs .on_data(stream, data), and may have
        .on_open(stream), called as a connection to it opens."""
        self._tcp_services[port] = service

    def open_tcp(self, dst_ip: str, dst_port: int,
                 proto_tag: str) -> "TcpStream":
        sp = self.ephemeral_port()
        iface, _ = self.route(dst_ip)
        stream = TcpStream(self, iface.ip, sp, dst_ip, dst_port, proto_tag)
        stream._send(SYN)
        return stream

    def _rx_local(self, frame: Frame) -> None:
        if frame.l4 == "UDP":
            svc = self._udp_services.get(frame.dst_port)
            if svc is not None:
                svc(self, frame)
            return
        if frame.l4 != "TCP":
            return
        key = (frame.dst_ip, frame.dst_port, frame.src_ip, frame.src_port)
        stream = self._streams.get(key)
        # a bare SYN on the key of a finished connection opens a new one
        if stream is not None and not (frame.tcp_flags == SYN and
                                       stream.state in ("closed", "refused")):
            stream._rx(frame)
        elif "SYN" in frame.tcp_flags and frame.dst_port in self._tcp_services:
            svc = self._tcp_services[frame.dst_port]
            stream = TcpStream(self, *key, frame.proto_tag)
            stream.on_established = getattr(svc, "on_open", None)
            stream.on_data = svc.on_data
            stream._rx(frame)
        elif "RST" not in frame.tcp_flags:
            # closed port: refuse
            self.send_ip(frame.src_ip, frame.src_port, b"", frame.proto_tag,
                         l4="TCP", tcp_flags=RST, src_port=frame.dst_port)


class TcpStream:
    """One endpoint of a flag+payload fidelity stream: handshake, PSH/ACK
    data, FIN/RST close. A connection is a client stream on one host and a
    server stream on the other. Data written while the handshake is pending,
    and a FIN behind it, is held and sent in order as the handshake ends (a
    client's SYN_ACK, a server's last ACK), so a service's on_open runs
    before its on_data; a RST or refusal drops it.

    No sequence numbers or retransmission; enough for conversation
    statistics and stream profiling.
    """

    def __init__(self, host, local_ip, local_port, peer_ip, peer_port,
                 proto_tag):
        self.host = host
        self.key = (local_ip, local_port, peer_ip, peer_port)
        host._streams[self.key] = self
        self.peer_ip = peer_ip
        self.proto_tag = proto_tag
        # -> established -> closing (FIN sent or held) -> closed, or refused
        self.state = "connecting"
        self.on_established = None   # server side: the service's on_open
        self.on_data = None          # fn(stream, bytes)
        self.on_closed = None
        self.on_refused = None
        self.replies = 0             # data segments handed to on_data
        self._unacked = 0            # our segments owing an ACK (owes_ack)
        self._held = []              # (flags, payload) made while connecting

    def _send(self, flags, payload: bytes = b""):
        if owes_ack(flags, payload):
            self._unacked += 1
        local_ip, local_port, peer_ip, peer_port = self.key
        return self.host.send_ip(peer_ip, peer_port, payload, self.proto_tag,
                                 "TCP", flags, local_port, local_ip)

    def write(self, payload: bytes):
        if self.state not in ("established", "connecting"):
            raise RuntimeError(f"stream not writable (state={self.state})")
        if self.state == "connecting":      # sent as the handshake ends
            self._held.append((PSH_ACK, payload))
            return None
        return self._send(PSH_ACK, payload)

    def reply_after(self, delay_us: int, payload: bytes) -> None:
        """Write payload after delay_us if the stream is still established."""
        self.host.sim.schedule(delay_us, self._write_if_established, payload)

    def _write_if_established(self, payload: bytes) -> None:
        if self.state == "established":
            self.write(payload)

    def close(self):
        if self.state not in ("connecting", "established"):
            return
        if self._held:                      # the FIN waits behind the data
            self._held.append((FIN_ACK, b""))
        else:
            self._send(FIN_ACK)
        self.state = "closing"

    def reset(self):
        if self.state in ("closed", "refused"):
            return
        self._send(RST)
        self._forget()
        self._set_state("closed")

    def _set_state(self, state: str) -> None:
        self.state = state
        callback = getattr(self, f"on_{state}")
        if callback:
            callback(self)

    def _handshake_done(self) -> None:
        """Send what was held, then open, unless closed meanwhile."""
        for flags, payload in self._held:
            self._send(flags, payload)
        self._held.clear()
        if self.state == "connecting":
            self._set_state("established")

    def _forget(self) -> None:
        if self.host._streams.get(self.key) is self:
            del self.host._streams[self.key]

    # -- inbound frame ---------------------------------------------------
    def _rx(self, frame: Frame):
        flags = frame.tcp_flags       # sorted, like SYN_ACK
        if "RST" in flags:
            self._forget()
            if self.state not in ("closed", "refused"):
                self._set_state("refused" if self.state == "connecting"
                                else "closed")
            return
        if flags == SYN:
            self._send(SYN_ACK)
            return
        if flags == SYN_ACK:
            self._send(ACK)
            self._handshake_done()
            return
        if flags == ACK and not frame.payload:
            if self._unacked:
                self._unacked -= 1
                if self.state == "connecting":
                    self._handshake_done()      # our SYN_ACK is paid
                elif self.state == "closed" and not self._unacked:
                    self._forget()      # the peer's last ACK
            return
        if self.state == "closed" or not owes_ack(flags, frame.payload):
            return   # owes no ACK, or comes late to a torn-down stream
        self._send(ACK)                 # for the data or the FIN
        if "FIN" in flags:
            self.close()                # our FIN, unless it is already out
            if not self._unacked:
                self._forget()          # the peer has ACKed all we sent
            self._set_state("closed")
        elif self.on_data:
            self.replies += 1
            self.on_data(self, frame.payload)


# ---------------------------------------------------------------------------
# capture export / import
# ---------------------------------------------------------------------------

def capture_export(sim: Simulation) -> list[Frame]:
    """The capture in ts_us order (frames of equal ts_us keep their order)."""
    return sorted(sim.capture, key=lambda f: f.ts_us)


class _Memo(dict):
    """A dict that fills a missing key with fn(key)."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


# the most characters write_capture_jsonl passes to one write, but for a
# line that is longer on its own
WRITE_BATCH = 256 * 1024


def write_capture_jsonl(frames, path) -> None:
    """One line per frame: the JSON object of _WRITER_FIELDS' keys, in that
    order, with `len` the wire length and the payload in base64, byte-equal
    to json.dumps of it (the same str escaping). A line is the frame's
    numbers and payload between segments of text memoised per value of
    the few-valued fields they hold, and lines are written in batches of
    at most WRITE_BATCH characters."""
    q = encode_basestring_ascii
    js = {True: "true", False: "false"}
    addresses = _Memo(lambda k: (
        f', "src_mac": {q(k[0])}, "dst_mac": {q(k[1])}, '
        f'"src_ip": {q(k[2])}, "src_port": '))
    destination = _Memo(lambda ip: f', "dst_ip": {q(ip)}, "dst_port": ')

    def kind(k):
        l4, flags, tag = k
        if tag not in PROTO_TAGS:
            raise ValueError(f"proto_tag {tag!r} is not one of {PROTO_TAGS}")
        return (f', "l4": {q(l4)}, "tcp_flags": {json.dumps(list(flags))}, '
                '"len": ', *WIRE_LEN.get(l4, ARP_WIRE_LEN),
                f', "proto_tag": {q(tag)}, "payload_b64": "')

    kinds = _Memo(kind)
    route = _Memo(lambda k: (
        f'", "segment": {q(k[0])}, "sender": {q(k[1])}, '
        f'"origin": {js[k[2]]}, "final": {js[k[3]]}, '
        f'"delivered": {js[k[4]]}, "deliver_ts_us": '))
    fate = _Memo(lambda k: (
        f', "drop_reason": {q(k[0])}, "fw_denied": {js[k[1]]}}}\n'))
    b2a = binascii.b2a_base64
    batch, size = [], 0
    with open(path, "w") as fh:
        for f in frames:
            before_len, header, counted, after_len = kinds[
                f.l4, f.tcp_flags, f.proto_tag]
            payload = f.payload
            line = (
                f'{{"ts_us": {f.ts_us}'
                f'{addresses[f.src_mac, f.dst_mac, f.src_ip]}{f.src_port}'
                f'{destination[f.dst_ip]}{f.dst_port}{before_len}'
                f'{header + len(payload) if counted else header}{after_len}'
                f'{b2a(payload, newline=False).decode()}'
                f'{route[f.segment, f.sender, f.origin, f.final, f.delivered]}'
                f'{f.deliver_ts_us}{fate[f.drop_reason, f.fw_denied]}')
            if size + len(line) > WRITE_BATCH and batch:
                fh.write("".join(batch))
                batch.clear()
                size = 0
            batch.append(line)
            size += len(line)
        fh.write("".join(batch))


# The line write_capture_jsonl writes, with its "\n", as one regex for
# fullmatch: the one capture format. Each group is a value whose text means
# to the reader what it means to json.loads: a JSON int ([0-9], not \d,
# which takes other scripts' digits; no leading zero; at most 640 digits,
# the least limit sys.set_int_max_str_digits allows, so int() takes it), a
# port in 0-65535, true/false, one of the kernel's three l4s, TCP flag
# names, one of PROTO_TAGS, and a str of printable ASCII without escapes
# but for the two a plan names freely, segment and sender, which take
# JSON's escapes (unrolled, so a name without one costs what a str does).
# The writer's encoder, encode_basestring_ascii, writes no other character
# raw, so no str takes a surrogate, which is how the reader sees a byte that
# is not UTF-8. Each value pattern has one group, at its first "(".
_PLAIN = r'[ !#-\[\]-~]*'
_STR = f'"({_PLAIN})"'
_NAME = fr'"({_PLAIN}(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{{4}}){_PLAIN})*)"'
_DIGITS = "0|[1-9][0-9]{0,639}"
_INT = f"({_DIGITS})"
_PORT = ("(0|[1-9][0-9]{0,3}|[1-5][0-9]{4}|6[0-4][0-9]{3}|65[0-4][0-9]{2}"
         "|655[0-2][0-9]|6553[0-5])")
_BOOL = "(true|false)"
_FLAG = '"(?:ACK|FIN|PSH|RST|SYN)"'
_FLAGS = fr'(\[(?:{_FLAG}(?:, {_FLAG})*)?\])'
_WRITER_FIELDS = (
    ("ts_us", _INT), ("src_mac", _STR), ("dst_mac", _STR), ("src_ip", _STR),
    ("src_port", _PORT), ("dst_ip", _STR), ("dst_port", _PORT),
    ("l4", '"(TCP|UDP|ARP)"'), ("tcp_flags", _FLAGS),
    ("len", _INT), ("proto_tag", f'"({"|".join(PROTO_TAGS)})"'),
    ("payload_b64", _STR), ("segment", _NAME), ("sender", _NAME),
    ("origin", _BOOL), ("final", _BOOL), ("delivered", _BOOL),
    ("deliver_ts_us", _INT), ("drop_reason", _STR), ("fw_denied", _BOOL))
# the writer's line up to the text that follows each field, compiled only
# to name the field a refused line departs at
_WRITER_PREFIXES = tuple(
    r"\{" + ", ".join(f'"{f}": {v}' for f, v in _WRITER_FIELDS[:k])
    + (", " if k < len(_WRITER_FIELDS) else r"\}\n")
    for k in range(1, len(_WRITER_FIELDS) + 1))
# the fields write_capture_jsonl writes anew for each frame; the text
# between two of them (quotes and keys with the fields there) is a segment,
# which it memoises per value of the fields the segment holds
_PER_FRAME = ("ts_us", "src_port", "dst_port", "len", "payload_b64",
              "deliver_ts_us")


def _segmented_line():
    """-> (the fullmatch of the writer's line whose groups are, in line
    order, its per-frame fields and its segments that hold fields, each
    segment whole; each such segment's fullmatch, whose groups are its
    fields, with the (key, value pattern) of those fields)."""
    line, segments = [], []
    text = bare = r"\{"       # the segment so far, its fields not captured
    fields = []

    def end_segment(tail):
        if fields:
            segments.append((re.compile(text + tail).fullmatch,
                             tuple(fields)))
            line.append(f"({bare}{tail})")
        else:
            line.append(bare + tail)

    for k, (key, value) in enumerate(_WRITER_FIELDS):
        label = f'{", " if k else ""}"{key}": '
        i = value.index("(")
        if key in _PER_FRAME:
            j = value.rindex(")") + 1
            end_segment(label + value[:i])
            line.append(value[i:j])
            text = bare = value[j:]
            fields = []
        else:
            text += label + value
            bare += label + value[:i] + "(?:" + value[i + 1:]
            fields.append((key, value))
    end_segment(r"\}\n")
    return re.compile("".join(line)).fullmatch, tuple(segments)


_writer_line, _SEGMENTS = _segmented_line()


def _departure(line: str) -> str:
    """The first writer field at which line departs from the writer's."""
    return next(key for (key, _), prefix in zip(_WRITER_FIELDS,
                                                _WRITER_PREFIXES)
                if re.match(prefix, line) is None)


def _writer_flags(text):
    """-> the flag tuple of a tcp_flags list the regex took, or None when
    its names are out of order or one repeats: a Frame's flags are a sorted
    tuple, so the writer writes no such list."""
    flags = tuple(json.loads(text))
    return flags if list(flags) == sorted(set(flags)) else None


# a field's value pattern -> the value of a text it took; any other field
# is a str that is its text
_VALUE_OF = {_NAME: lambda text: json.loads(f'"{text}"'),
             _BOOL: "true".__eq__, _FLAGS: _writer_flags}


def _segment_values(segment, share, text) -> tuple:
    """The values of the fields of a segment text the line regex took, each
    str and flag tuple the one object share holds for it. ValueError names
    the first field whose text is not the writer's for its value: a str
    that encode_basestring_ascii writes otherwise (a needless escape, an
    upper-case hex digit, a "\\/"), or tcp_flags out of order or repeated."""
    match, fields = segment
    values = []
    for (key, pattern), raw in zip(fields, match(text).groups()):
        value = _VALUE_OF.get(pattern, str)(raw)
        if value is None or isinstance(value, str) and \
                encode_basestring_ascii(value) != f'"{raw}"':
            raise ValueError(f"the line departs from the writer's at {key}")
        values.append(share[value])
    return tuple(values)


def _len_texts(l4) -> _Memo:
    """payload length -> the len text write_capture_jsonl writes for an l4
    record with that payload."""
    header, counted = WIRE_LEN.get(l4, ARP_WIRE_LEN)
    return _Memo(lambda n: str(header + n if counted else header))


def iter_capture_jsonl(path):
    """Frames of a capture.jsonl, one per record, in file order. A line
    that is not the writer's raises ValueError naming the file, the record
    (its line number) and the first field at which it departs, as does one
    whose payload is not base64, whose ts_us is below its predecessor's,
    whose len is not the wire length WIRE_LEN gives for its l4 and payload,
    or that is delivered before its ts_us. A line is the writer's when the
    line regex takes it, its payload_b64 is b2a_base64 of the bytes it
    decodes to, and each segment's strings are encode_basestring_ascii of
    their values and its flags sorted and distinct. Each distinct segment
    text is parsed and checked once, the first time it comes, and looked up
    after that; equal str values and flag tuples are one shared object."""
    share = _Memo(lambda v: v)
    addresses, destinations, kinds, tags, routes, fates = (
        _Memo(functools.partial(_segment_values, segment, share))
        for segment in _SEGMENTS)
    len_texts = _Memo(_len_texts)
    ports = _Memo(int)
    a2b, b2a = binascii.a2b_base64, binascii.b2a_base64
    last_ts = float("-inf")
    # a byte that is not UTF-8 reads as a surrogate, refused at its line
    with open(path, errors="surrogateescape") as fh:
        try:
            for n, line in enumerate(fh, 1):
                m = _writer_line(line)
                if m is None:
                    why = (f"the line departs from the writer's at "
                           f"{_departure(line)}")
                    break
                (ts, address, src_port, destination, dst_port, kind,
                 wire_len, tag, b64, route, deliver_ts, fate) = m.groups()
                # base64 that does not decode is refused before all else
                payload = a2b(b64)
                # the writer's text checks the regex leaves, in line order
                src_mac, dst_mac, src_ip = addresses[address]
                (dst_ip,) = destinations[destination]
                l4, tcp_flags = kinds[kind]
                (proto_tag,) = tags[tag]
                if b2a(payload, newline=False).decode() != b64:
                    why = "the line departs from the writer's at payload_b64"
                    break
                segment, sender, origin, final, delivered = routes[route]
                drop_reason, fw_denied = fates[fate]
                ts, deliver_ts = int(ts), int(deliver_ts)
                if ts < last_ts:
                    why = (f"ts_us {ts} is below the previous record's "
                           f"{last_ts}")
                    break
                # the regex took len in the writer's int text
                if wire_len != len_texts[l4][len(payload)]:
                    why = (f"len {wire_len} is not the wire length of a {l4} "
                           f"record with a {len(payload)}-byte payload")
                    break
                if deliver_ts < ts and delivered:
                    why = (f"deliver_ts_us {deliver_ts} of a delivered record "
                           f"is below its ts_us {ts}")
                    break
                last_ts = ts
                # the arguments of Frame, in its field order
                yield Frame(ts, segment, sender, src_mac, dst_mac, src_ip,
                            dst_ip, ports[src_port], ports[dst_port], l4,
                            tcp_flags, payload, proto_tag, origin, final,
                            delivered, deliver_ts, drop_reason, fw_denied)
            else:
                return
        except binascii.Error as e:
            why = f"payload_b64 is not base64: {e}"
        except ValueError as e:         # a segment the writer does not write
            why = str(e)
    raise ValueError(f"{path}: bad capture record {n}: {why}")


def read_capture_jsonl(path) -> list[Frame]:
    """Frames of a capture.jsonl; a malformed record raises ValueError."""
    return list(iter_capture_jsonl(path))
