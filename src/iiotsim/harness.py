"""Scenario runner: builds the topology from a plan, schedules traffic and
attacks, runs the simulation and emits the artifact bundle."""

import functools
import gc
import itertools
import operator
import os

from . import analytics, attacks, fieldbus, hunt, plan as planmod
from .cloud import Broker, dumps
from .gateway import EdgeGateway
from .historian import IsoStamp, parse_iso
from .netsim import (Acl, AclRule, RouteError, Simulation, capture_export,
                     ip_to_int, parse_cidr, write_capture_jsonl)
from .plan import write_json
from .plant import (TMP36_MAX_C, TMP36_MIN_C, ModbusSlaveService,
                    MplDevice, Plant, Plc, SensorModel)
from .fieldbus import MODBUS_PORT, I2cBus, OneWireBus
from .services import (API_PORT, COAP_PORT, DNS_PORT, HTTP_PORT, SMTP_PORT,
                       WEBGUI_PORT, MailService, WebGuiService)

# what a plan gets for a service time that neither its service_times_us nor
# a latency target sets, and for a missing epoch
SERVICE_TIMES_US = {"MODBUS": 10_780, "SMTP": 12_180, "MQTT": 3_660,
                    "I2C": 1_340, "COAP": 7_260, "DNS": 81, "HTTP": 346_310,
                    "API": 10_020}
DEFAULT_EPOCH = "2019-07-18T06:00:00.000Z"
GRACE_US = 2_000_000    # run past the horizon to drain in-flight exchanges
ACL_ACTIONS = ("allow", "deny")
# the plant sensors the PLC, the I2C bus and the 1-wire bus read -> the
# range their device can encode
DEVICE_SENSORS = {"plc-temp": (TMP36_MIN_C, TMP36_MAX_C),
                  "mpl-temp": fieldbus.MPL_CELSIUS,
                  "mpl-press": fieldbus.MPL_KILOPASCAL, "onewire": (None, None)}
_SNAPSHOT = {"method": "GET", "path": "/api/snapshot"}
_STATUS = {"action": "get", "path": "/status"}


def _coap_request(every, n) -> dict:
    """A sensor read; each every-th cycle an LED toggle, on first."""
    if every and n % every == 0:
        return {"type": "CON", "code": "PUT", "mid": n,
                "path": "/actuators/led1",
                "payload": "on" if n // every % 2 else "off"}
    return {"type": "CON", "code": "GET", "mid": n,
            "path": "/sensors/mpl3115a2"}


def _http_request(every, values, n) -> dict:
    """A snapshot read, or every every-th cycle the next of values."""
    if every and values and n % every == 0:
        return {"method": "PUT", "path": "/api/setpoint",
                "body": {"value": values[(n // every - 1) % len(values)]}}
    return _SNAPSHOT


class Build:
    """Everything wired up and scheduled, ready for run_until().

    Building reads the plan through `read`, a plan.Outline: first the
    outline, then every other field once, where it is used. A plan with a
    bad field raises PlanError listing every error."""

    def __init__(self, plan_dict: dict, seed: int | None = None):
        self.plan, self.read = plan_dict, planmod.Outline(plan_dict)
        try:
            self._build(seed)
        except Exception as e:
            if not self.read.errors:
                raise
            # a consequence of a field already found bad
            raise planmod.PlanError(self.read.errors) from e
        if self.read.errors:
            raise planmod.PlanError(self.read.errors)

    def _build(self, seed):
        read = self.read
        if read.errors:         # nothing can be wired
            return
        self.seed = read.get("seed", int, 0) if seed is None else seed
        self.name = read.get("name", str, "")
        self.duration_us = read.duration_us
        self.epoch = parse_iso(read.parsed("epoch", parse_iso, DEFAULT_EPOCH))
        self.sim = Simulation(self.seed)
        self.sim.horizon_us = self.duration_us
        self.targets = read.targets
        given = read.get("service_times_us", dict, {}, lo=0, of=float)
        self.svc = {**SERVICE_TIMES_US, **given, **(
            {} if given else planmod.service_times(read, read.errors))}
        self._build_fabric()
        self._build_plant()
        self._build_cloud()
        self._build_gateway()
        self._build_traffic()
        self._build_attacks()

    def host(self, fields, key):
        """The host named by the field key of fields, which must be given."""
        return self.hosts.get(fields.get(key, str))

    def reach(self, what, host, ip) -> str:
        """ip, once host routes to it and its owner routes back; else an
        error naming what."""
        owner = next(h for h in self.hosts.values() if ip in h.ips)
        try:
            owner.route(host.route(ip)[0].ip)
        except RouteError as e:
            self.read.error(what, f"cannot reach {ip}: {e}")
        return ip

    # -- fabric ----------------------------------------------------------
    def _build_fabric(self):
        for name, (profile, subnet) in self.read.segments.items():
            self.sim.add_segment(name, profile, subnet=subnet)
        cfg = self.read.obj("acl", {})
        rules = [AclRule(r.one_of("direction", ("in", "out", "any")),
                         r.parsed("src", parse_cidr, "any"),
                         r.parsed("dst", parse_cidr, "any"),
                         frozenset(r.get("ports", list, None, of=int, lo=0,
                                             hi=65535) or ()) or None,
                         r.one_of("action", ACL_ACTIONS))
                 for r in cfg.objects("rules", "acl rule").values()]
        acl = Acl(rules, cfg.one_of("default", ACL_ACTIONS, "allow"))
        self.hosts = {}
        for hid, (h, interfaces, gateway) in self.read.hosts.items():
            router = h.get("router", bool, False)
            host = self.sim.attach_host(
                hid, interfaces, gateway_ip=gateway, is_router=router,
                acl=acl if router else None,
                forward_delay_us=self.read.forward_delay_us)
            host.wan_segments = set(h.get("wan_segments", list, [], of=str))
            # the plan names each host's OS and services for its reader
            h.get("os_label", str, "")
            banner = h.get("banner", dict, {}, of=str)
            if not all(port.isdecimal() for port in banner):
                h.error(f"{h.name}banner", f"keys must be ports, got {banner}")
            self.hosts[hid] = host
        roles = self.read.roles
        self.gw_host = self.hosts[roles["gateway"]]
        self.router = self.hosts[roles["router"]]
        self.plc_host = self.hosts[roles["plc"]]
        self.cloud_host = self.hosts[roles["broker"]]
        self.mail_host = self.hosts[roles["mail"]]
        self.attacker = self.hosts[roles["attacker"]]
        # the hunt's victim: the router's address facing the attacker
        self.victim = self.router_ip_for(self.attacker)
        self.plc_ip = self.reach("gateway", self.gw_host,
                                 self.plc_host.interfaces[0].ip)

        gui = self.read.hosts[roles["router"]][0].obj("webgui", None)
        self.webgui = None
        if gui is not None:
            self.webgui = WebGuiService(
                self.sim, self.router,
                credentials=tuple(gui.get("credentials", list,
                                          ["admin", "admin"], of=str)),
                vulnerable=gui.get("vulnerable", bool, False))
            self.router.bind_tcp(WEBGUI_PORT, self.webgui)
        self.mail_host.bind_tcp(SMTP_PORT, MailService(self.svc["SMTP"]))

    # -- plant -------------------------------------------------------------
    def _build_plant(self):
        cfg = self.read.obj("plant")
        self.plant = Plant(self.sim, cfg.time_us("tick_period_s", 1.0,
                                                 least=1))
        sensors = cfg.objects("sensors", "plant sensor", dict)
        for sid in DEVICE_SENSORS:
            if sid not in sensors:
                cfg.error(f"{cfg.name}sensors", f"must have {sid!r}")
        self.sensors = {}
        for sid, s in sensors.items():
            low, high = DEVICE_SENSORS.get(sid, (None, None))
            lo = s.get("lo", float, lo=low, hi=high)
            hi = s.get("hi", float, lo=lo, hi=high)
            s.get("kind", str)      # the plan names each sensor's model
            self.sensors[sid] = self.plant.add_sensor(SensorModel(
                sid, lo, hi, s.get("walk_step", float, lo=0),
                s.get("init", float, lo=lo, hi=hi)))
        actuators = cfg.get("actuators", list, ["led1"], of=str)
        if not actuators:
            cfg.error(f"{cfg.name}actuators", "must name the PLC's actuator")
        for act in actuators:
            self.plant.add_actuator(act)
        plc_cfg = cfg.obj("plc", {})
        self.plc = Plc(self.sim, self.plant, self.sensors["plc-temp"],
                       actuators[0],
                       # a scan jitters by up to -10%, to at least 1 us
                       scan_period_us=plc_cfg.time_us(
                           "scan_period_ms", 100, scale=1000, least=2),
                       setpoint_c=plc_cfg.get("setpoint_c", float, 30.0),
                       scan_phase_us=plc_cfg.time_us("scan_phase_ms", 13,
                                                     scale=1000))
        self.plc_host.bind_tcp(MODBUS_PORT, ModbusSlaveService(
            self.plc.handle_modbus, self.svc["MODBUS"]))
        self.plant.start()
        self.plc.start()

    # -- cloud ---------------------------------------------------------------
    def _build_cloud(self):
        cfg = self.read.obj("broker", {})
        self.broker = Broker(self.sim, self.cloud_host, self.epoch,
                             version=cfg.get("version", str,
                                             "iiotsim-broker 1.0"),
                             service_time_us=self.svc["MQTT"],
                             sys_period_us=cfg.time_us("sys_period_s", 10.0,
                                                       least=1),
                             acl_enabled=cfg.get("acl_enabled", bool, False),
                             allowlist=cfg.parsed("allowlist", ip_to_int, [],
                                                  list))
        self.broker.start_sys_publisher()

    # -- gateway ----------------------------------------------------------------
    def _build_gateway(self):
        self.i2c_bus = I2cBus(self.svc["I2C"])
        self.i2c_bus.register(0x60, MplDevice(self.sensors["mpl-temp"],
                                              self.sensors["mpl-press"]))
        self.onewire_bus = OneWireBus()
        self.onewire_bus.register("onewire", self.sensors["onewire"])
        self.gateway = EdgeGateway(self, self.read.obj("gateway", {}))
        for key in ("sim-temperature", "sim-pressure", "sim-humidity"):
            if key in self.sensors:
                self.gateway.sim_sensors[key] = self.sensors[key]
        self.gateway.start()

    # -- scripted clients -----------------------------------------------------
    def _build_traffic(self):
        clients = self.read.traffic
        gw_ip = self.gw_host.interfaces[0].ip
        gw_ips = {i.segment: i.ip for i in self.gw_host.interfaces}

        def gw_near(host):
            return gw_ips.get(host.interfaces[0].segment, gw_ip)

        # the start order is the order of the clients' events at equal times
        for cfg in clients.get("coap_client", ()):
            self._client(cfg, gw_near, COAP_PORT, "COAP", functools.partial(
                _coap_request, cfg.get("actuate_every", int, 0, lo=0)))
        for cfg in clients.get("dns_client", ()):
            self._client(cfg, gw_near, DNS_PORT, "DNS",
                         lambda n: {"q": "edge.local", "id": n})
        for cfg in clients.get("http_client", ()):
            self._client(cfg, lambda host: gw_ip, HTTP_PORT, "HTTP",
                         functools.partial(
                             _http_request,
                             cfg.get("setpoint_every", int, 0, lo=0),
                             cfg.get("setpoints", list, [], of=float)),
                         exchanges=1)
        for cfg in clients.get("api_client", ()):
            self._client(cfg, lambda host: gw_ip, API_PORT, "API",
                         lambda n: _SNAPSHOT, exchanges=1)
        for cfg in clients.get("webgui_clients", ()):
            self._client(cfg, self.router_ip_for, WEBGUI_PORT, "HTTPS",
                         lambda n: _STATUS,
                         exchanges=cfg.get("requests", int, 2, lo=1))

    def _client(self, cfg, server_ip, port, tag, request, exchanges=None):
        """Every cfg's period_s, cfg's host sends request(n) for cycle n = 1,
        2, ... to server_ip(host): as one UDP datagram, or, given exchanges,
        on a new TCP connection that sends it again after each reply until
        that many replies came, then closes."""
        host = self.host(cfg, "host")
        ip = self.reach(f"{cfg.name}host", host, server_ip(host))
        cycles = itertools.count(1)

        def datagram():
            body = dumps(request(next(cycles))).encode()
            host.send_udp(ip, port, body, tag)

        def connection():
            body = dumps(request(next(cycles))).encode()
            stream = host.open_tcp(ip, port, tag)
            stream.write(body)
            stream.on_data = lambda s, data: (
                s.write(body) if s.replies < exchanges else s.close())

        self.sim.every(cfg.time_us("period_s", least=1),
                       datagram if exchanges is None else connection)

    def syslog_names(self) -> tuple:
        """-> the file names of the router's syslog and of its truth copy in
        the bundle."""
        router_id = self.router.host_id
        return f"syslog_{router_id}.txt", f"syslog_{router_id}_truth.txt"

    def router_ip_for(self, host) -> str:
        """The router's address on the last of its segments that host is on,
        else its first address."""
        segs = {i.segment for i in host.interfaces}
        ips = [i.ip for i in self.router.interfaces if i.segment in segs]
        return ips[-1] if ips else self.router.interfaces[0].ip

    # -- attacks -----------------------------------------------------------------
    def _build_attacks(self):
        self.windows = []
        self.attack_objs = {}
        for a in self.read.attacks:
            atk = attacks.KINDS[a["kind"]](self, a)
            self.windows.extend(atk.schedule())
            self.attack_objs[a["id"]] = atk

    def run(self) -> None:
        # nothing new starts past the horizon
        self.sim.run_until(self.duration_us + GRACE_US)


# ---------------------------------------------------------------------------
# artifact emission
# ---------------------------------------------------------------------------

def write_lines(lines, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)


def derive(build, frames, windows, syslogs, path, outputs) -> None:
    """`run`'s and `report`'s one walk of a capture's frames, then the
    analytics, set on build, and the conn_log, hunt, dataset and metrics
    files outputs names, each written to path(file name). windows label the
    rows; syslogs are the router's syslog's and truth copy's lines, or None.

    Nothing is written before the walk ends. Each conn.log row is written
    as it is made, and only the rows the hunt reads are kept; the walk goes
    before labelling. The dataset rows are a view of the conversations and
    their labels, each row made as dataset.csv is written."""
    hunting = "hunt" in outputs
    walk = CaptureWalk(build, analytics.span_senders(windows),
                       "metrics" in outputs)
    walk.feed(frames)
    build.conversations = walk.conversations.result()
    capture_metrics = walk.metrics() if "metrics" in outputs else None
    build.metrics, build.hunt = {}, {}
    hunt_rows = []

    def conn_rows():
        for c in build.conversations:
            row = analytics.conn_row(c)
            if hunting and hunt.reads_row(row, build.victim):
                hunt_rows.append(row)
            yield row

    if "conn_log" in outputs:
        analytics.write_conn_log(conn_rows(), path("conn.log"))
    elif hunting:       # the rows, for the hunt's alone
        for _ in conn_rows():
            pass
    if hunting:
        build.hunt = build_hunt_report(build, hunt_rows, *syslogs)
        write_json(build.hunt, path("hunt_report.json"))
    del walk, hunt_rows
    build.dataset_rows, build.class_counts, build.dropped_rows = \
        analytics.label_dataset(build.conversations, windows)
    if "dataset" in outputs:
        analytics.write_dataset_csv(build.dataset_rows, path("dataset.csv"))
    if capture_metrics is not None:
        build.metrics = build_metrics_report(
            capture_metrics, build.class_counts, build.dropped_rows)
        write_json(build.metrics, path("metrics_report.json"))


def collector_paused(fn):
    """fn, run with the cyclic garbage collector paused, which is put back
    as fn found it when fn returns or raises.

    `run`, `report` and `hunt` work this way. A pass would scan every live
    Frame and find next to nothing to free: reference counting frees what
    they drop, and the few cycles they leave (an MqttClient and its
    TcpStream per rogue-subscriber connection, and the JSON encoder) wait
    for the next pass. Nothing is allocated after the collector is back,
    so that pass, which scans what fn allocated and still holds, comes
    after fn's caller takes the result."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()

    return paused


@collector_paused
def run(plan_dict: dict, out_dir: str, seed: int | None = None,
        only=None) -> Build:
    """Build and run the plan, and write its bundle to out_dir, with the
    collector paused. The build returned also holds the analytics:
    conversations, dataset_rows, class_counts, dropped_rows, metrics, hunt
    and the paths written."""
    build = Build(plan_dict, seed=seed)
    build.run()
    os.makedirs(out_dir, exist_ok=True)
    outputs = set(only or build.read.outputs or planmod.OUTPUTS)
    build.paths = {}
    frames = capture_export(build.sim)

    def path(name):
        build.paths[name] = p = os.path.join(out_dir, name)
        return p

    if "capture" in outputs:
        write_capture_jsonl(frames, path("capture.jsonl"))

    stamp = IsoStamp(build.epoch)
    syslogs = [[f"{stamp(ts)} {text}" for ts, text in entries] for entries in (
        build.router.syslog, build.sim.syslog_truth[build.router.host_id])]
    derive(build, frames, build.windows, syslogs, path, outputs)

    if "historians" in outputs:
        build.gateway.historian.write_csv(path("edge_historian.csv"))
        build.broker.historian.write_csv(path("cloud_historian.csv"))

    if "windows" in outputs:
        attacks.write_windows_jsonl(build.windows,
                                    path("attack_windows.jsonl"))

    for atk in build.attack_objs.values():
        for name, lines in atk.artifacts().items():
            write_lines(lines, path(name))

    for lines, name in zip(syslogs, build.syslog_names()):
        write_lines(lines, path(name))

    summary = {
        "plan": build.name,
        "seed": build.seed,
        "duration_s": build.plan["duration_s"],
        "frames": len(frames),
        "conversations": len(build.conversations),
        "edge_rows": len(build.gateway.historian.rows),
        "cloud_rows": len(build.broker.historian.rows),
        "forwarded": len(build.gateway.forwarded),
        "class_counts": build.class_counts,
        "dropped_rows": build.dropped_rows,
        "faults": len(build.gateway.faults),
        **live_figures(build),
        "windows": [w.to_json() for w in sorted(build.windows,
                                                key=lambda w: w.t_start_us)],
    }
    write_json(summary, path("run_summary.json"))
    return build


def _jitter_flows(gw_ip: str) -> dict:
    """The periodic request flows jitter is measured on, in
    metrics_report.json order: name -> (proto_tag, which delivered frames of
    that tag belong to the flow)."""
    return {
        "modbus-poll": ("MODBUS", lambda f: (
            f.origin and f.src_ip == gw_ip and f.dst_port == MODBUS_PORT
            and len(f.payload) >= 8
            and f.payload[7] == fieldbus.READ_HOLDING_REGISTERS)),
        "dns-query": ("DNS", lambda f: f.origin and f.dst_port == DNS_PORT),
        "coap-request": ("COAP", lambda f: (f.origin
                                            and f.dst_port == COAP_PORT)),
        "api-request": ("API", lambda f: (f.origin and f.dst_port == API_PORT
                                          and f.payload)),
    }


class CaptureWalk:
    """Every capture analytic that `run` and `report` write, fed from one
    pass over a capture in non-decreasing ts_us order, the order
    capture_export and write_capture_jsonl give. The conversations take
    each run of equal ts_us stably sorted by deliver_ts_us, which is
    build_conversations' own (ts_us, deliver_ts_us) order, and keep the
    spans of senders; the other analytics take the frames in capture
    order. No frame is kept past the run of its ts_us. A `run` that writes
    no metrics sets metrics false."""

    def __init__(self, build: Build, senders, metrics: bool = True):
        self.with_metrics = metrics
        self.targets = build.targets
        self.conversations = analytics.Conversations(senders)
        self.packet_sizes = analytics.PacketSizes()
        self.throughput = analytics.Throughput()
        self.plc_rates = analytics.PlcRates(build.plc_ip, build.duration_us)
        self.response_times = {proto: analytics.ResponseTimes(proto)
                               for proto in analytics.RESPONSE_PROTOCOLS}
        gw_ip = build.gw_host.interfaces[0].ip
        self.jitter = {name: (tag, select, analytics.JitterSeries())
                       for name, (tag, select)
                       in _jitter_flows(gw_ip).items()}

    def feed(self, frames) -> None:
        """Feed every frame, in non-decreasing ts_us order."""
        add_conversation = self.conversations.add
        metrics = self.with_metrics
        add_sizes, add_throughput, add_plc = (
            self.packet_sizes.add, self.throughput.add, self.plc_rates.add)
        # delivered frames by proto_tag: their response-time pairing's add,
        # and their jitter flow's selection and add; None where there is none
        pairing = {tag: acc.add for tag, acc in self.response_times.items()}
        flows = {tag: (select, acc.add)
                 for tag, select, acc in self.jitter.values()}
        by_tag = {tag: (pairing.get(tag), *flows.get(tag, (None, None)))
                  for tag in pairing.keys() | flows.keys()}
        untagged = (None, None, None)
        same_ts = []            # the frames of ts_us last_ts, in order
        last_ts = None
        deliver_ts = operator.attrgetter("deliver_ts_us")

        def flush():
            if len(same_ts) > 1:
                same_ts.sort(key=deliver_ts)
            for g in same_ts:
                add_conversation(g)
            same_ts.clear()

        for f in frames:
            ts = f.ts_us
            if ts != last_ts:
                flush()
                last_ts = ts
            same_ts.append(f)
            if metrics:
                add_plc(f)
                if f.delivered:
                    add_sizes(f)
                    add_throughput(f)
                    pair, select, flow = by_tag.get(f.proto_tag, untagged)
                    if pair is not None:
                        pair(f)
                    if select is not None and select(f):
                        flow(f)
        flush()

    def metrics(self) -> dict:
        """The part of metrics_report.json that the capture alone
        determines: packet sizes, network response times, jitter,
        throughput and PLC request rates over the plan's duration."""
        targets = self.targets
        report = {"packet_stats": self.packet_sizes.result()}
        rts = {}
        for proto, acc in self.response_times.items():
            stats = acc.result()
            if stats.count == 0 and proto not in targets:
                continue
            rts[proto] = {"mean_ms": stats.mean_ms, "count": stats.count,
                          "unmatched": stats.unmatched}
            if proto in targets:
                rts[proto]["target_ms"] = targets[proto]
        report["response_times_ms"] = rts
        modbus = rts.get("MODBUS", {})
        report["modbus_mean_below_20ms"] = (
            modbus["mean_ms"] < 20.0 if modbus.get("count") else None)

        all_windows = []
        flow_summaries = {}
        for name, (_, _, acc) in self.jitter.items():
            windows, flagged = acc.result()
            all_windows.extend(windows)
            flow_summaries[name] = {
                "windows": len(windows), "over_bound": len(flagged),
                "max_jitter_ms": max((w.jitter_ms for w in windows),
                                     default=0.0),
            }
        bound = analytics.JITTER_BOUND_MS
        under = sum(1 for w in all_windows if w.jitter_ms < bound)
        report["jitter"] = {
            "bound_ms": bound,
            "windows": len(all_windows),
            "under_bound": under,
            "fraction_under": under / len(all_windows) if all_windows else 1.0,
            "flows": flow_summaries,
            "series": [{"t0_us": w.t0_us, "jitter_ms": w.jitter_ms}
                       for w in sorted(all_windows, key=lambda w: w.t0_us)],
        }
        report["throughput_bytes_per_s"] = [
            {"t0_us": t0, "bytes_per_s": rate}
            for t0, rate in self.throughput.result()]
        report["plc_request_rates"] = self.plc_rates.result()
        return report


def build_metrics_report(capture_metrics: dict, class_counts,
                         dropped_rows) -> dict:
    """metrics_report.json, as `run` and `report` write it: what the
    capture and the attack windows determine, a walk's metrics() followed
    by the labelled rows' class counts and the rows dropped."""
    return {**capture_metrics, "class_counts": class_counts,
            "dropped_rows": dropped_rows}


def live_figures(build: Build) -> dict:
    """The run_summary.json sections that only the live simulation knows:
    the I2C transaction time, the PLC scan regularity and the broker
    counters."""
    i2c_times = [(end - start) / 1000.0
                 for start, end, _ in build.i2c_bus.txn_log]
    i2c = {"mean_ms": (analytics.left_sum(i2c_times) / len(i2c_times)
                       if i2c_times else 0.0),
           "count": len(i2c_times), "unmatched": 0}
    if "I2C" in build.targets:
        i2c["target_ms"] = build.targets["I2C"]
    scan_ts = build.plc.scan_log
    period = build.plc.scan_period_us
    # the largest |gap - period| over the period: dividing by a positive
    # period keeps the order, so the max of the quotients is this quotient
    worst = max((abs(b - a - period) for a, b in itertools.pairwise(scan_ts)),
                default=0)
    return {
        "response_times_ms": {"I2C": i2c},
        "plc_scan": {"scans": len(scan_ts), "period_us": period,
                     "max_period_deviation": worst / period},
        "broker": {
            "bytes_sent": build.broker.bytes_sent,
            "messages_received": build.broker.messages_received,
            "historian_rows": len(build.broker.historian.rows),
            "quarantined": len(build.broker.historian.quarantine),
        },
    }


def build_hunt_report(build: Build, conn_rows, syslog, truth) -> dict:
    """The hunt of `run`, `report` and `iiotsim hunt`, as the plan sets it:
    on the victim, for clients of its web admin port and the exploits'
    listener ports."""
    return hunt.hunt_report(
        conn_rows, build.victim,
        attacks.backdoor_ports(build.attack_objs.values()), syslog, truth)
