"""Declarative scenario plans: schema, validation, persistence and the
shipped default scenario (one simulated hour of plant traffic with the full
attack schedule)."""

import copy
import json
from importlib import resources

from .attacks import KINDS
from .netsim import (ROUTER_FORWARD_DELAY_US, NetConfigError, check_mac,
                     ip_to_int, parse_cidr)

SCHEMA_VERSION = 1

ATTACK_KINDS = tuple(KINDS)

# artifact groups a plan's "outputs" (or `run --only`) selects; a missing or
# empty list selects all of them
OUTPUTS = ("capture", "conn_log", "historians", "windows", "dataset",
           "metrics", "hunt")

# the hosts harness.Build looks up by role
REQUIRED_ROLES = ("gateway", "router", "plc", "broker", "mail", "attacker")

# the two ends of the request/response path calibrate() solves for each
# protocol's latency target (MQTT's gateway and broker are required roles)
TARGET_ROLES = {"MODBUS": ("gateway", "plc"), "COAP": ("mobile", "gateway"),
                "DNS": ("mobile", "gateway"), "SMTP": ("gateway", "mail"),
                "API": ("pc", "gateway"), "HTTP": ("wan_client", "gateway")}


class PlanError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def load_plan(path) -> dict:
    try:
        with open(path) as fh:
            plan = json.load(fh)
    except (OSError, ValueError) as e:
        raise PlanError([f"cannot read plan {path}: {e}"]) from e
    errors = validate_plan(plan)
    if errors:
        raise PlanError(errors)
    return plan


def save_plan(plan: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(plan, fh, indent=2)
        fh.write("\n")


_JSON_TYPES = {dict: "an object", list: "a list", (int, float): "a number"}


def _typed(errors, what, value, kind, default):
    """value when it is of kind, else default and an error naming what."""
    if isinstance(value, kind):
        return value
    errors.append(f"{what} must be {_JSON_TYPES[kind]}, got {value!r}")
    return default


def _objects(errors, what, items):
    """(index, item) for the objects in items; any other item is an error
    naming what and its index."""
    for i, item in enumerate(items):
        if isinstance(item, dict):
            yield i, item
        else:
            errors.append(f"{what} {i} must be an object, got {item!r}")


def _address(errors, what, value, parse):
    """An error naming what unless value is a str netsim's parse accepts."""
    if isinstance(value, str):
        try:
            parse(value)
            return
        except (NetConfigError, ValueError):
            pass
    errors.append(f"{what} {value!r} is not valid")


def validate_plan(plan: dict) -> list:
    """Full validation pass; returns every problem found, not just the first.
    A field of the wrong JSON type is one of them."""
    errors = []
    if not isinstance(plan, dict):
        return ["plan must be a JSON object"]
    if plan.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"unsupported schema_version {plan.get('schema_version')!r}")
    duration = plan.get("duration_s", 0)
    if not isinstance(duration, (int, float)) or duration <= 0:
        errors.append(f"duration_s must be positive, got {duration!r}")
    segments = plan.get("segments", {})
    if not segments:
        errors.append("no segments defined")
    segments = _typed(errors, "segments", segments or {}, dict, {})
    for name, seg in segments.items():
        if _typed(errors, f"segment {name!r}", seg, dict, None) is None:
            continue
        for key in ("base_latency_us", "jitter_us"):
            if not isinstance(seg.get(key), (int, float)) or not 0 <= seg[key]:
                errors.append(f"segment {name!r}: {key} must be a "
                              f"non-negative number, got {seg.get(key)!r}")
        loss = seg.get("loss_rate", 0.0)
        if not isinstance(loss, (int, float)) or not 0 <= loss <= 1:
            errors.append(f"segment {name!r}: loss_rate must be a number "
                          f"in [0, 1], got {loss!r}")
        if seg.get("subnet") is not None:
            _address(errors, f"segment {name!r}: subnet", seg["subnet"],
                     parse_cidr)
    hosts = _typed(errors, "hosts", plan.get("hosts", []), list, [])
    host_ids = set()
    seen_macs = set()
    seen_ips = set()
    for _, h in _objects(errors, "host", hosts):
        hid = h.get("id")
        if not hid:
            errors.append("host without id")
            continue
        if not isinstance(hid, str):
            errors.append(f"host id must be a string, got {hid!r}")
            continue
        if hid in host_ids:
            errors.append(f"duplicate host id {hid!r}")
        host_ids.add(hid)
        for iface in _typed(errors, f"host {hid!r} interfaces",
                            h.get("interfaces", []), list, []):
            if not (isinstance(iface, list) and len(iface) == 3
                    and all(isinstance(v, str) for v in iface)):
                errors.append(f"host {hid!r}: malformed interface {iface!r}")
                continue
            seg, mac, ip = iface
            _address(errors, f"host {hid!r}: MAC address", mac, check_mac)
            _address(errors, f"host {hid!r}: IPv4 address", ip, ip_to_int)
            if seg not in segments:
                errors.append(f"host {hid!r} references unknown segment {seg!r}")
            if mac in seen_macs:
                errors.append(f"duplicate MAC {mac!r}")
            seen_macs.add(mac)
            if (seg, ip) in seen_ips:
                errors.append(f"duplicate IP {ip!r} on segment {seg!r}")
            seen_ips.add((seg, ip))
    roles = _typed(errors, "roles", plan.get("roles", {}), dict, {})
    missing = [r for r in REQUIRED_ROLES if r not in roles]
    if missing:
        errors.append(f"roles must name {', '.join(missing)}")
    targets = _typed(errors, "latency_targets_ms",
                     plan.get("latency_targets_ms") or {}, dict, {})
    unnamed = {}     # role -> the latency targets that need it
    for proto, ends in TARGET_ROLES.items():
        if proto in targets:
            for role in ends:
                if role not in roles and role not in missing:
                    unnamed.setdefault(role, []).append(proto)
    for role, protos in unnamed.items():
        errors.append(f"latency targets {', '.join(protos)} need "
                      f"role {role!r}")
    def unknown_host(hid):      # hid may be any JSON value, even unhashable
        return not isinstance(hid, str) or hid not in host_ids

    for role, hid in roles.items():
        if unknown_host(hid):
            errors.append(f"role {role!r} references unknown host {hid!r}")
    acl = _typed(errors, "acl", plan.get("acl", {}), dict, {})
    if acl.get("default", "allow") not in ("allow", "deny"):
        errors.append(f"acl default must be allow|deny")
    for i, rule in _objects(errors, "acl rule", _typed(
            errors, "acl rules", acl.get("rules", []), list, [])):
        if rule.get("action") not in ("allow", "deny"):
            errors.append(f"acl rule {i}: bad action {rule.get('action')!r}")
        if rule.get("direction") not in ("in", "out", "any"):
            errors.append(f"acl rule {i}: bad direction {rule.get('direction')!r}")
    traffic = _typed(errors, "traffic", plan.get("traffic", {}), dict, {})
    for key, cfg in traffic.items():
        entries = cfg if isinstance(cfg, list) else [cfg]
        for _, entry in _objects(errors, f"traffic {key!r} entry", entries):
            hid = entry.get("host")
            if hid is not None and unknown_host(hid):
                errors.append(f"traffic {key!r} references unknown host {hid!r}")
    attack_ids = set()
    for _, a in _objects(errors, "attack", _typed(
            errors, "attacks", plan.get("attacks", []), list, [])):
        aid = a.get("id")
        kind = a.get("kind")
        if not aid:
            errors.append(f"attack without id: {a!r}")
        elif not isinstance(aid, str):
            errors.append(f"attack id must be a string, got {aid!r}")
        elif aid in attack_ids:
            errors.append(f"duplicate attack id {aid!r}")
        else:
            attack_ids.add(aid)
        if kind not in ATTACK_KINDS:
            errors.append(f"attack {aid!r}: unknown kind {kind!r}")
        for ref in ("attacker", "victim_a", "victim_b", "target",
                    "broker_host"):
            if ref in a and unknown_host(a[ref]):
                errors.append(f"attack {aid!r} references unknown host {a[ref]!r}")
        t0 = _typed(errors, f"attack {aid!r}: t_start_s",
                    a.get("t_start_s", 0), (int, float), 0)
        dur = _typed(errors, f"attack {aid!r}: duration_s",
                     a.get("duration_s", 0), (int, float), 0)
        if isinstance(duration, (int, float)) and duration > 0:
            if t0 < 0 or t0 > duration:
                errors.append(f"attack {aid!r} starts outside the run")
            if t0 + dur > duration:
                errors.append(f"attack {aid!r} extends past the end of the run")
        rate = a.get("rate_per_s", 0)
        if kind == "modbus_dos" and (not isinstance(rate, (int, float))
                                     or rate <= 0):
            errors.append(f"attack {aid!r}: rate_per_s must be positive")
    errors.extend(output_errors(plan.get("outputs") or []))
    return errors


def output_errors(names) -> list:
    if not isinstance(names, list):
        return [f"outputs must be a list of names, got {names!r}"]
    return [f"unknown output {n!r}; known: {', '.join(OUTPUTS)}"
            for n in names if n not in OUTPUTS]


# ---------------------------------------------------------------------------
# default scenario
# ---------------------------------------------------------------------------

def default_plan() -> dict:
    """The shipped scenario, `data/default_plan.json`: one simulated hour of
    six polled devices, five client scripts and the full attack schedule
    (spoof, tamper, flood, rogue subscriber, recon, exploit with five
    reverse-shell sessions, log tampering). Each call returns a new dict."""
    shipped = resources.files("iiotsim").joinpath("data/default_plan.json")
    return json.loads(shipped.read_text())


# ---------------------------------------------------------------------------
# calibration: service times from Table-style response-time targets
# ---------------------------------------------------------------------------

class CalibrationError(Exception):
    pass


def _segments_of(plan, host_id):
    for h in plan["hosts"]:
        if h["id"] == host_id:
            return [i[0] for i in h.get("interfaces", [])]
    raise CalibrationError(f"unknown host {host_id!r}")


def one_way_us(plan: dict, src: str, dst: str) -> float:
    """Expected one-way latency between two hosts on the plan topology."""
    segs_src = set(_segments_of(plan, src))
    segs_dst = set(_segments_of(plan, dst))
    base = {name: cfg["base_latency_us"]
            for name, cfg in plan["segments"].items()}
    shared = segs_src & segs_dst
    if shared:
        return float(base[sorted(shared)[0]])
    router = plan["roles"]["router"]
    segs_router = set(_segments_of(plan, router))
    in_seg = segs_src & segs_router
    out_seg = segs_dst & segs_router
    if not in_seg or not out_seg:
        raise CalibrationError(f"no route between {src} and {dst}")
    fwd = plan.get("router_forward_delay_us", ROUTER_FORWARD_DELAY_US)
    return float(base[sorted(in_seg)[0]] + fwd + base[sorted(out_seg)[0]])


def calibrate(plan: dict) -> dict:
    """Solve per-protocol service times so simulated mean response times hit
    the latency targets; raises when a target is below the path RTT."""
    plan = copy.deepcopy(plan)
    targets = plan.get("latency_targets_ms", {})
    roles = plan["roles"]
    svc = {}
    errors = []
    for proto, (a, b) in TARGET_ROLES.items():
        if proto not in targets:
            continue
        target_us = targets[proto] * 1000.0
        rtt = 2.0 * one_way_us(plan, roles[a], roles[b])
        if target_us < rtt:
            errors.append(f"{proto}: target {targets[proto]}ms below path "
                          f"RTT {rtt / 1000.0}ms")
            continue
        svc[proto] = int(round(target_us - rtt))
    if "MQTT" in targets:
        target_us = targets["MQTT"] * 1000.0
        one_way = one_way_us(plan, roles["gateway"], roles["broker"])
        if target_us < 4.0 * one_way:
            errors.append(f"MQTT: target {targets['MQTT']}ms below 4 legs "
                          f"({4.0 * one_way / 1000.0}ms)")
        else:
            svc["MQTT"] = int(round((target_us - 4.0 * one_way) / 2.0))
    if "I2C" in targets:
        if targets["I2C"] < 0:
            errors.append("I2C: negative target")
        else:
            svc["I2C"] = int(round(targets["I2C"] * 1000.0))
    if errors:
        raise CalibrationError("; ".join(errors))
    plan["service_times_us"] = svc
    return plan
