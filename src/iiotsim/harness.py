"""Scenario runner: builds the topology from a plan, schedules traffic and
attacks, runs the simulation and emits the artifact bundle."""

import itertools
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import analytics, attacks, fieldbus, hunt, plan as planmod
from .cloud import Broker
from .gateway import EdgeGateway
from .historian import iso_ms
from .netsim import (ROUTER_FORWARD_DELAY_US, US_PER_S, Acl, AclRule,
                     LinkProfile, Simulation, capture_export, us,
                     write_capture_jsonl)
from .plant import (Ds18b20Device, ModbusSlaveService, MplDevice, Plant, Plc,
                    SensorModel)
from .fieldbus import MODBUS_PORT, I2cBus, OneWireBus
from .services import MailService, WebGuiService

# what a plan gets for a service time that neither its service_times_us nor
# a latency target sets, and for a missing epoch
SERVICE_TIMES_US = {"MODBUS": 10_780, "SMTP": 12_180, "MQTT": 3_660,
                    "I2C": 1_340, "COAP": 7_260, "DNS": 81, "HTTP": 346_310,
                    "API": 10_020}
DEFAULT_EPOCH = "2019-07-18T06:00:00.000Z"
GRACE_US = 2_000_000    # run past the horizon to drain in-flight exchanges
_SNAPSHOT = {"method": "GET", "path": "/api/snapshot"}
_STATUS = {"action": "get", "path": "/status"}


def _coap_request(cfg, n) -> dict:
    """A sensor read; each actuate_every-th cycle an LED toggle, on first."""
    every = cfg.get("actuate_every", 0)
    if every and n % every == 0:
        return {"type": "CON", "code": "PUT", "mid": n,
                "path": "/actuators/led1",
                "payload": "on" if n // every % 2 else "off"}
    return {"type": "CON", "code": "GET", "mid": n,
            "path": "/sensors/mpl3115a2"}


def _http_request(cfg, n) -> dict:
    """A snapshot read, or every setpoint_every-th cycle the next setpoint."""
    every = cfg.get("setpoint_every", 0)
    values = cfg.get("setpoints", [])
    if every and values and n % every == 0:
        return {"method": "PUT", "path": "/api/setpoint",
                "body": {"value": values[(n // every - 1) % len(values)]}}
    return _SNAPSHOT


@dataclass
class RunResult:
    plan: dict
    seed: int
    sim: Simulation
    gateway: EdgeGateway
    broker: Broker
    plc: Plc
    plant: Plant
    windows: list
    attack_objs: dict
    conversations: list = field(default_factory=list)
    dataset_rows: list = field(default_factory=list)
    class_counts: dict = field(default_factory=dict)
    dropped_rows: int = 0
    metrics: dict = field(default_factory=dict)
    hunt: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)


class Build:
    """Everything wired up and scheduled, ready for run_until()."""

    def __init__(self, plan_dict: dict, seed: int | None = None):
        errors = planmod.validate_plan(plan_dict)
        if errors:
            raise planmod.PlanError(errors)
        if not plan_dict.get("service_times_us") and plan_dict.get(
                "latency_targets_ms"):
            plan_dict = planmod.calibrate(plan_dict)
        self.plan = plan_dict
        self.seed = plan_dict["seed"] if seed is None else seed
        self.duration_us = us(plan_dict["duration_s"])
        self.epoch = datetime.fromisoformat(
            plan_dict.get("epoch", DEFAULT_EPOCH).replace(
                "Z", "+00:00")).astimezone(timezone.utc)
        self.sim = Simulation(self.seed)
        self.sim.horizon_us = self.duration_us
        self.svc = {**SERVICE_TIMES_US, **plan_dict.get("service_times_us", {})}
        self._build_fabric()
        self._build_plant()
        self._build_cloud()
        self._build_gateway()
        self._build_traffic()
        self._build_attacks()

    # -- fabric ----------------------------------------------------------
    def _build_fabric(self):
        p = self.plan
        for name, cfg in p["segments"].items():
            self.sim.add_segment(name, LinkProfile(cfg["base_latency_us"],
                                                   cfg["jitter_us"],
                                                   cfg.get("loss_rate", 0.0)),
                                 subnet=cfg.get("subnet"))
        acl_cfg = p.get("acl", {})
        rules = [AclRule(r["direction"], r.get("src", "any"),
                         r.get("dst", "any"),
                         frozenset(r["ports"]) if r.get("ports") else None,
                         r["action"])
                 for r in acl_cfg.get("rules", [])]
        acl = Acl(rules, acl_cfg.get("default", "allow"))
        self.hosts = {}
        for h in p["hosts"]:
            host = self.sim.attach_host(
                h["id"], [tuple(i) for i in h["interfaces"]],
                gateway_ip=h.get("gateway"),
                is_router=h.get("router", False),
                acl=acl if h.get("router") else None,
                forward_delay_us=p.get("router_forward_delay_us",
                                       ROUTER_FORWARD_DELAY_US))
            host.wan_segments = set(h.get("wan_segments", []))
            host.os_label = h.get("os_label", "")
            host.banner = {int(k): v for k, v in h.get("banner", {}).items()}
            self.hosts[h["id"]] = host
        roles = p["roles"]
        self.gw_host = self.hosts[roles["gateway"]]
        self.router = self.hosts[roles["router"]]
        self.plc_host = self.hosts[roles["plc"]]
        self.cloud_host = self.hosts[roles["broker"]]
        self.mail_host = self.hosts[roles["mail"]]
        self.attacker = self.hosts[roles["attacker"]]
        self.plc_ip = self.plc_host.interfaces[0].ip

        webgui_cfg = next((h.get("webgui") for h in p["hosts"]
                           if h["id"] == roles["router"]), None)
        self.webgui = None
        if webgui_cfg:
            self.webgui = WebGuiService(
                self.sim, self.router,
                credentials=tuple(webgui_cfg.get("credentials",
                                                 ("admin", "admin"))),
                vulnerable=webgui_cfg.get("vulnerable", False))
            self.router.bind_tcp(443, self.webgui)
        self.mail_svc = MailService(self.sim, self.svc["SMTP"])
        self.mail_host.bind_tcp(25, self.mail_svc)

    # -- plant -------------------------------------------------------------
    def _build_plant(self):
        cfg = self.plan["plant"]
        self.plant = Plant(self.sim, us(cfg.get("tick_period_s", 1.0)))
        self.sensors = {}
        for sid, s in cfg["sensors"].items():
            self.sensors[sid] = self.plant.add_sensor(SensorModel(
                sid, s["kind"], s["lo"], s["hi"], s["walk_step"], s["init"]))
        for act in cfg.get("actuators", []):
            self.plant.add_actuator(act)
        plc_cfg = cfg.get("plc", {})
        self.plc = Plc(self.sim, self.plant, self.sensors["plc-temp"],
                       cfg.get("actuators", ["led1"])[0],
                       scan_period_us=plc_cfg.get("scan_period_ms", 100) * 1000,
                       setpoint_c=plc_cfg.get("setpoint_c", 30.0),
                       scan_phase_us=plc_cfg.get("scan_phase_ms", 13) * 1000)
        self.plc_host.bind_tcp(MODBUS_PORT, ModbusSlaveService(
            self.sim, self.plc.handle_modbus, self.svc["MODBUS"]))
        self.plant.start()
        self.plc.start()

    # -- cloud ---------------------------------------------------------------
    def _build_cloud(self):
        cfg = self.plan.get("broker", {})
        self.broker = Broker(self.sim, self.cloud_host, self.epoch,
                             version=cfg.get("version", "iiotsim-broker 1.0"),
                             service_time_us=self.svc["MQTT"],
                             sys_period_us=us(cfg.get("sys_period_s", 10.0)),
                             acl_enabled=cfg.get("acl_enabled", False),
                             allowlist=cfg.get("allowlist", []))
        self.broker.start_sys_publisher()

    # -- gateway ----------------------------------------------------------------
    def _build_gateway(self):
        cfg = self.plan.get("gateway", {})
        self.i2c_bus = I2cBus(self.svc["I2C"])
        self.i2c_bus.register(0x60, MplDevice(self.sensors["mpl-temp"],
                                              self.sensors["mpl-press"]))
        self.onewire_bus = OneWireBus()
        self.onewire_bus.register("onewire",
                                  Ds18b20Device(self.sensors["onewire"]))
        self.gateway = EdgeGateway(
            self.sim, self.gw_host, self.plant, self.plc, self.plc_ip,
            self.i2c_bus, self.onewire_bus, self.epoch,
            broker_ip=self.cloud_host.interfaces[0].ip,
            poll_period_us=us(cfg.get("poll_period_s", 2.0)),
            deadband=cfg.get("deadband"),
            service_times_us=self.svc,
            mail_ip=self.mail_host.interfaces[0].ip,
            notify_threshold_c=cfg.get("notify_threshold_c", 30.0),
            notify_min_gap_us=us(cfg.get("notify_min_gap_s", 60.0)),
            mqtt_dup_every=cfg.get("mqtt_dup_every", 0),
            mqtt_reconnect_every_us=us(cfg.get("mqtt_reconnect_every_s") or 0),
            dns_table=cfg.get("dns", {}))
        for key in ("sim-temperature", "sim-pressure", "sim-humidity"):
            if key in self.sensors:
                self.gateway.sim_sensors[key] = self.sensors[key]
        self.gateway.start()

    # -- scripted clients -----------------------------------------------------
    def _build_traffic(self):
        t = self.plan.get("traffic", {})
        gw_ip = self.gw_host.interfaces[0].ip
        gw_ips = {i.segment: i.ip for i in self.gw_host.interfaces}

        def gw_near(host):
            return gw_ips.get(host.interfaces[0].segment, gw_ip)

        # the start order is the order of the clients' events at equal times
        if "coap_client" in t:
            self._client(t["coap_client"], gw_near, 5683, "COAP",
                         _coap_request)
        if "dns_client" in t:
            self._client(t["dns_client"], gw_near, 53, "DNS",
                         lambda cfg, n: {"q": "edge.local", "id": n})
        if "http_client" in t:
            self._client(t["http_client"], lambda host: gw_ip, 80, "HTTP",
                         _http_request, exchanges=1)
        if "api_client" in t:
            self._client(t["api_client"], lambda host: gw_ip, 8080, "API",
                         lambda cfg, n: _SNAPSHOT, exchanges=1)
        for cfg in t.get("webgui_clients", []):
            self._client(cfg, self.router_ip_for, 443, "HTTPS",
                         lambda cfg, n: _STATUS,
                         exchanges=cfg.get("requests", 2))

    def _client(self, cfg, server_ip, port, tag, request, exchanges=None):
        """Every cfg's period_s, cfg's host sends request(cfg, n) for cycle
        n = 1, 2, ... to server_ip(host): as one UDP datagram, or, given
        exchanges, on a new TCP connection that sends it again after each
        reply until that many replies came, then closes."""
        host = self.hosts[cfg["host"]]
        ip = server_ip(host)
        cycles = itertools.count(1)

        def datagram():
            body = json.dumps(request(cfg, next(cycles))).encode()
            host.send_udp(ip, port, body, tag)

        def connection():
            body = json.dumps(request(cfg, next(cycles))).encode()
            replies = itertools.count(1)
            stream = host.open_tcp(ip, port, tag)
            stream.on_established = lambda s: s.write(body)
            stream.on_data = lambda s, data: (
                s.write(body) if next(replies) < exchanges else s.close())

        self.sim.every(us(cfg["period_s"]),
                       datagram if exchanges is None else connection)

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
        for a in self.plan.get("attacks", []):
            atk = attacks.KINDS[a["kind"]](self, a)
            self.windows.extend(atk.schedule())
            self.attack_objs[a["id"]] = atk

    def run(self) -> None:
        # nothing new starts past the horizon
        self.sim.run_until(self.duration_us + GRACE_US)


# ---------------------------------------------------------------------------
# artifact emission
# ---------------------------------------------------------------------------

def write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def write_lines(lines, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)


def _syslog_lines(build, entries) -> list:
    return [f"{iso_ms(build.epoch, ts)} {text}" for ts, text in entries]


def label_capture(frames, windows, conn_log_path, dataset_path):
    """Conversations, conn.log, labelled rows and dataset.csv from a capture,
    for both `run` and `report`; a false path skips that file. Returns
    (conversations, rows, class_counts, dropped_rows)."""
    conversations = analytics.build_conversations(frames)
    if conn_log_path:
        analytics.write_conn_log(conversations, conn_log_path)
    rows, counts, dropped = analytics.label_dataset(conversations, windows)
    if dataset_path:
        analytics.write_dataset_csv(rows, dataset_path)
    return conversations, rows, counts, dropped


def run(plan_dict: dict, out_dir: str, seed: int | None = None,
        only=None) -> RunResult:
    build = Build(plan_dict, seed=seed)
    build.run()
    os.makedirs(out_dir, exist_ok=True)
    outputs = set(only or build.plan.get("outputs") or planmod.OUTPUTS)
    result = RunResult(build.plan, build.seed, build.sim, build.gateway,
                       build.broker, build.plc, build.plant, build.windows,
                       build.attack_objs)
    frames = capture_export(build.sim)

    def path(name):
        result.paths[name] = p = os.path.join(out_dir, name)
        return p

    if "capture" in outputs:
        write_capture_jsonl(frames, path("capture.jsonl"))

    (result.conversations, result.dataset_rows, result.class_counts,
     result.dropped_rows) = label_capture(
        frames, build.windows, "conn_log" in outputs and path("conn.log"),
        "dataset" in outputs and path("dataset.csv"))

    if "historians" in outputs:
        build.gateway.historian.write_csv(path("edge_historian.csv"))
        build.broker.historian.write_csv(path("cloud_historian.csv"))

    if "windows" in outputs:
        attacks.write_windows_jsonl(build.windows,
                                    path("attack_windows.jsonl"))

    if "metrics" in outputs:
        result.metrics = build_metrics_report(build, frames)
        write_json(result.metrics, path("metrics_report.json"))

    for atk in build.attack_objs.values():
        for name, lines in atk.artifacts().items():
            write_lines(lines, path(name))

    router_id = build.plan["roles"]["router"]
    write_lines(_syslog_lines(build, build.router.syslog),
                path(f"syslog_{router_id}.txt"))
    write_lines(_syslog_lines(build, build.sim.syslog_truth[router_id]),
                path(f"syslog_{router_id}_truth.txt"))

    if "hunt" in outputs:
        result.hunt = build_hunt_report(build, frames, result.conversations)
        write_json(result.hunt, path("hunt_report.json"))

    summary = {
        "plan": build.plan.get("name", ""),
        "seed": build.seed,
        "duration_s": build.plan["duration_s"],
        "frames": len(frames),
        "conversations": len(result.conversations),
        "edge_rows": len(build.gateway.historian.rows),
        "cloud_rows": len(build.broker.historian.rows),
        "forwarded": len(build.gateway.forwarded),
        "class_counts": result.class_counts,
        "dropped_rows": result.dropped_rows,
        "faults": len(build.gateway.faults),
        "windows": [w.to_json() for w in sorted(build.windows,
                                                key=lambda w: w.t_start_us)],
    }
    write_json(summary, path("run_summary.json"))
    return result


def _plan_ip(plan: dict, role: str) -> str:
    hid = plan["roles"][role]
    return next(h["interfaces"][0][2] for h in plan["hosts"]
                if h["id"] == hid)


def capture_metrics(plan: dict, frames) -> dict:
    """The part of metrics_report.json that the capture alone determines:
    packet sizes, network response times, jitter, throughput and PLC
    request rates over the plan's duration."""
    targets = plan.get("latency_targets_ms", {})
    gw_ip = _plan_ip(plan, "gateway")
    report = {"packet_stats": analytics.packet_size_stats(frames)}
    # delivered frames by proto_tag, in capture order: what response_times
    # and jitter_series look at
    by_tag: dict[str, list] = {}
    for f in frames:
        if f.delivered:
            by_tag.setdefault(f.proto_tag, []).append(f)
    rts = {}
    for proto in analytics.RESPONSE_PROTOCOLS:
        stats = analytics.response_times(by_tag.get(proto, []), proto)
        if stats.count == 0 and proto not in targets:
            continue
        rts[proto] = {"mean_ms": stats.mean_ms, "count": stats.count,
                      "unmatched": stats.unmatched}
        if proto in targets:
            rts[proto]["target_ms"] = targets[proto]
    report["response_times_ms"] = rts
    report["modbus_mean_below_20ms"] = rts.get("MODBUS", {}).get(
        "mean_ms", 0.0) < 20.0

    # jitter over the periodic request flows
    flows = {
        "modbus-poll": [f for f in by_tag.get("MODBUS", ())
                        if f.origin and f.src_ip == gw_ip
                        and f.dst_port == MODBUS_PORT and len(f.payload) >= 8
                        and f.payload[7] == fieldbus.READ_HOLDING_REGISTERS],
        "dns-query": [f for f in by_tag.get("DNS", ())
                      if f.origin and f.dst_port == 53],
        "coap-request": [f for f in by_tag.get("COAP", ())
                         if f.origin and f.dst_port == 5683],
        "api-request": [f for f in by_tag.get("API", ())
                        if f.origin and f.dst_port == 8080 and f.payload],
    }
    all_windows = []
    flow_summaries = {}
    for name, sel in flows.items():
        windows, flagged = analytics.jitter_series(sel)
        all_windows.extend(windows)
        flow_summaries[name] = {
            "windows": len(windows), "over_bound": len(flagged),
            "max_jitter_ms": max((w.jitter_ms for w in windows), default=0.0),
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
        for t0, rate in analytics.throughput_series(frames)]
    report["plc_request_rates"] = analytics.plc_request_rates(
        frames, _plan_ip(plan, "plc"), us(plan["duration_s"]))
    return report


def build_metrics_report(build: Build, frames) -> dict:
    """capture_metrics plus what only the live simulation knows: the I2C
    transaction time, the PLC scan regularity and the broker counters."""
    report = capture_metrics(build.plan, frames)
    i2c_times = [(end - start) / 1000.0
                 for start, end, _ in build.i2c_bus.txn_log]
    i2c = report["response_times_ms"]["I2C"] = {
        "mean_ms": sum(i2c_times) / len(i2c_times) if i2c_times else 0.0,
        "count": len(i2c_times), "unmatched": 0}
    targets = build.plan.get("latency_targets_ms", {})
    if "I2C" in targets:
        i2c["target_ms"] = targets["I2C"]
    scan_ts = [t for t, _, _ in build.plc.scan_log]
    period = build.plc.scan_period_us
    devs = [abs((scan_ts[i + 1] - scan_ts[i]) - period) / period
            for i in range(len(scan_ts) - 1)]
    report["plc_scan"] = {
        "scans": len(scan_ts),
        "period_us": period,
        "max_period_deviation": max(devs, default=0.0),
    }
    report["broker"] = {
        "bytes_sent": build.broker.bytes_sent,
        "messages_received": build.broker.messages_received,
        "historian_rows": len(build.broker.historian.rows),
        "quarantined": len(build.broker.historian.quarantine),
    }
    return report


def build_hunt_report(build: Build, frames, conversations) -> dict:
    rows = [{"ts": c.ts_first_us / US_PER_S, "orig_h": c.orig_ip,
             "orig_p": c.orig_port, "resp_h": c.resp_ip,
             "resp_p": c.resp_port, "proto": c.proto,
             "duration": round(c.duration_s, 6),
             "orig_bytes": c.orig_bytes, "resp_bytes": c.resp_bytes,
             "orig_pkts": c.orig_pkts, "resp_pkts": c.resp_pkts}
            for c in conversations]
    syslog_events, _ = hunt.parse_syslog(
        _syslog_lines(build, build.router.syslog))
    truth_events, _ = hunt.parse_syslog(
        _syslog_lines(build, build.sim.syslog_truth[build.router.host_id]))
    return hunt.hunt_report(rows, frames, build.router_ip_for(build.attacker),
                            443, backdoor_ports=attacks.backdoor_ports(
                                build.attack_objs.values()),
                            syslog_events=syslog_events,
                            truth_events=truth_events, search_pattern="shell")
