"""Declarative scenario plans: the typed reader every field goes through, the
outline that must hold before anything is wired, calibration, persistence
and the shipped default scenario (one simulated hour of plant traffic with
the full attack schedule)."""

import copy
import json
import math
from importlib import resources

from .attacks import KINDS, read_window
from .netsim import (ROUTER_FORWARD_DELAY_US, US_PER_S, LinkProfile,
                     NetConfigError, check_mac, ip_to_int, parse_cidr)

SCHEMA_VERSION = 1

ATTACK_KINDS = tuple(KINDS)

# artifact groups a plan's "outputs" (or `run --only`) selects; a missing or
# empty list selects all of them
OUTPUTS = ("capture", "conn_log", "historians", "windows", "dataset",
           "metrics", "hunt")

# the hosts harness.Build looks up by role
REQUIRED_ROLES = ("gateway", "router", "plc", "broker", "mail", "attacker")

# protocol -> the roles at the two ends of the path calibrate() solves its
# latency target over, the one-way legs of an exchange and the times its
# service answers in one
TARGET_PATHS = {"MODBUS": ("gateway", "plc", 2, 1),
                "COAP": ("mobile", "gateway", 2, 1),
                "DNS": ("mobile", "gateway", 2, 1),
                "SMTP": ("gateway", "mail", 2, 1),
                "API": ("pc", "gateway", 2, 1),
                "HTTP": ("wan_client", "gateway", 2, 1),
                "MQTT": ("gateway", "broker", 4, 2)}


class PlanError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class CalibrationError(PlanError):
    """Latency targets that the paths' own latency exceeds."""


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


def write_json(obj, path) -> None:
    """obj as the plans and the bundle's JSON reports are written: indented
    by 2, with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


# perfbench/run.py writes its generated plan through this name
save_plan = write_json


def validate_plan(plan) -> list:
    """Every problem found, not just the first: the outline's, or when it
    has none, what harness.Build meets when it reads the rest."""
    from . import harness       # harness imports this module
    try:
        harness.Build(plan)
    except PlanError as e:
        return e.errors
    return []


def output_errors(names) -> list:
    if not isinstance(names, list):
        return [f"outputs must be a list of names, got {names!r}"]
    return [f"unknown output {n!r}; known: {', '.join(OUTPUTS)}"
            for n in names if n not in OUTPUTS]


# ---------------------------------------------------------------------------
# the typed reader
# ---------------------------------------------------------------------------

_NEEDED = object()      # the default of a field that must be given

# a read's kind -> (the JSON values it takes, their name in errors)
_KINDS = {float: ((int, float), "number"), int: (int, "integer"),
          str: (str, "string"), bool: (bool, "boolean"),
          dict: (dict, "object"), list: (list, "list")}


def _fits(value, kind, lo=None, hi=None, positive=False) -> bool:
    return (isinstance(value, _KINDS[kind][0])
            and (kind is bool or not isinstance(value, bool))
            and (kind is not float or math.isfinite(value))
            and (lo is None or value >= lo) and (hi is None or value <= hi)
            and (not positive or value > 0))


def _describe(noun, lo=None, hi=None, positive=False) -> str:
    if positive or lo == 0 and hi is None:
        return ("positive " if positive else "non-negative ") + noun
    if lo is not None and hi is not None:
        return f"{noun} in [{lo}, {hi}]"
    return noun + (f" of at least {lo}" if lo is not None else "") + (
        f" of at most {hi}" if hi is not None else "")


def _parses(parse, value) -> bool:
    """Whether value is a string that parse accepts."""
    try:
        return isinstance(value, str) and parse(value) is not None
    except (NetConfigError, ValueError, OverflowError):
        return False


class Fields:
    """Typed reads of one object of a plan, whose fields errors call `name`
    and the key. A read gives the field's key, its JSON kind, its range and
    its default: a missing field takes the default, a field without one
    must be given, and one whose default is None may be null. A bad value
    records one error in `errors` and reads as the default, so the caller
    carries on and one pass reports every error."""

    def __init__(self, value, name, errors):
        self.value = value if isinstance(value, dict) else {}
        self.name, self.errors = name, errors

    def of(self, value, name) -> "Fields":
        return Fields(value, name, self.errors)

    def error(self, what, message) -> None:
        self.errors.append(f"{what} {message}")

    def fail(self, message):
        """Record message and raise PlanError: the object cannot be built."""
        self.errors.append(self.name + message)
        raise PlanError(self.errors)

    def _read(self, key, default, fits, text=None):
        value = self.value.get(key, default)
        if value is None and default is None or (
                value is not _NEEDED and fits(value)):
            return value
        got = None if value is _NEEDED else value
        self.error(f"{self.name}{key}", f"must be {text}, got {got!r}"
                   if text else f"{got!r} is not valid")
        return None if default is _NEEDED else default

    def get(self, key, kind, default=_NEEDED, lo=None, hi=None,
            positive=False, of=None):
        """The field, of kind; with of, a list or object of values of that
        kind, which lo, hi and positive then bound."""
        text = _describe(_KINDS[kind][1], lo, hi, positive)
        fits = lambda v: _fits(v, kind, lo, hi, positive)
        if of is not None:
            text = f"{_KINDS[kind][1]} of " + _describe(
                _KINDS[of][1] + "s", lo, hi, positive)
            fits = lambda v: isinstance(v, kind) and all(
                _fits(x, of, lo, hi, positive)
                for x in (v.values() if kind is dict else v))
        return self._read(key, default, fits,
                          ("an " if text[0] in "aeiou" else "a ") + text)

    def one_of(self, key, options, default=_NEEDED):
        return self._read(key, default, lambda v: v in options,
                          "one of " + ", ".join(options))

    def parsed(self, key, parse, default=_NEEDED, kind=str):
        """The field, a string that parse accepts; with kind list, a list
        of such strings."""
        fits = lambda v: _parses(parse, v)
        return self._read(key, default, fits if kind is str else (
            lambda v: isinstance(v, list) and all(map(fits, v))))

    def time_us(self, key, default=_NEEDED, scale=US_PER_S, least=0):
        """The field, a number of seconds (of 1/scale s), in whole us; an
        error states the bound least (in us) in the field's own unit."""
        value = self.get(key, float, default)
        if value is not None and int(round(value * scale)) < least:
            unit = "s" if scale == US_PER_S else "ms"
            self.error(f"{self.name}{key}", f"must be a time of at least "
                       f"{least / scale} {unit}, got {value!r}")
            value = None if default is _NEEDED else default
        return None if value is None else int(round(value * scale))

    def obj(self, key, default=_NEEDED) -> "Fields | None":
        """Reads of the object at key; None if it is null, default None."""
        value = self.get(key, dict, default)
        return None if value is None and default is None else self.of(
            value, f"{self.name}{key}.")

    def objects(self, key, name, kind=list) -> dict:
        """Reads of each object of the list (or object) at key, by index (or
        key), named name and the index; any other item is an error."""
        out = {}
        items = self.get(key, kind, kind())
        for k, item in items.items() if kind is dict else enumerate(items):
            if isinstance(item, dict):
                out[k] = self.of(item, f"{name} {k!r}: ")
            else:
                self.error(f"{name} {k!r}", f"must be an object, got {item!r}")
        return out


class Outline(Fields):
    """Reads of a whole plan, starting with what must hold before anything
    is wired: the topology (segments, hosts, their interfaces and
    gateways), the roles, every host reference, the attacks' ids, kinds and
    windows, the outputs and the latency targets (protocol -> mean response
    time in ms). errors holds what is wrong with them."""

    def __init__(self, plan):
        super().__init__(plan, "", [])
        self.segments = {}      # name -> (LinkProfile, subnet)
        self.hosts = {}         # id -> (Fields, interfaces, gateway ip)
        self.roles, self.traffic, self.attacks = {}, {}, []
        if not isinstance(plan, dict):
            self.errors.append("plan must be a JSON object")
            return
        if plan.get("schema_version") != SCHEMA_VERSION:
            self.errors.append(
                f"unsupported schema_version {plan.get('schema_version')!r}")
        self.duration_us = self.time_us("duration_s", least=1)
        self.forward_delay_us = self.get("router_forward_delay_us", float,
                                         ROUTER_FORWARD_DELAY_US, lo=0)
        self._read_topology(plan.get("segments"))
        self.roles = self.get("roles", dict, {})
        missing = [r for r in REQUIRED_ROLES if r not in self.roles]
        if missing:
            self.errors.append(f"roles must name {', '.join(missing)}")
        for role, hid in self.roles.items():
            self._check_host(f"role {role!r}", hid)
        for key, cfg in self.get("traffic", dict, {}).items():
            # webgui_clients is a list of clients, any other key one client
            self.traffic[key] = list(self.of(
                {key: cfg if key == "webgui_clients" else [cfg]},
                "traffic ").objects(key, f"traffic {key!r} entry").values())
            for entry in self.traffic[key]:
                if "host" in entry.value:
                    self._check_host(f"traffic {key!r}", entry.value["host"])
        for a in self.objects("attacks", "attack").values():
            self._read_attack(a, [e.get("id") for e in self.attacks])
        self.outputs = plan.get("outputs") or []
        self.errors.extend(output_errors(self.outputs))
        self.targets = self.get("latency_targets_ms", dict, {}, lo=0,
                                of=float)

    def _check_host(self, what, ref):
        if not isinstance(ref, str) or ref not in self.hosts:
            self.errors.append(f"{what} references unknown host {ref!r}")

    def _read_topology(self, segments):
        errors = self.errors
        if not segments:
            errors.append("no segments defined")
        for name, seg in self.objects("segments", "segment", dict).items():
            self.segments[name] = (LinkProfile(
                seg.get("base_latency_us", float, lo=0),
                seg.get("jitter_us", float, lo=0),
                seg.get("loss_rate", float, 0.0, lo=0, hi=1)),
                seg.parsed("subnet", parse_cidr, None))
        # a member that is not an object is one error, not one per interface
        known = tuple(segments) if isinstance(segments, dict) else ()
        owners, macs = {}, set()        # (segment, ip) -> host id; MACs
        for h in self.objects("hosts", "host").values():
            hid = h.value.get("id")
            if not isinstance(hid, str) or not hid or hid in self.hosts:
                errors.append(f"host id must be a unique, non-empty string, "
                              f"got {hid!r}")
                continue
            h.name, interfaces = f"host {hid!r} ", []
            for iface in h.get("interfaces", list) or ():
                i = h.of(dict(zip(("segment", "MAC address", "IPv4 address"),
                                  iface if isinstance(iface, list)
                                  and len(iface) == 3 else ())),
                         f"host {hid!r}: ")
                iface = (i.one_of("segment", known),
                         i.parsed("MAC address", check_mac),
                         i.parsed("IPv4 address", ip_to_int))
                if None in iface:
                    continue
                seg, mac, ip = iface
                if mac.lower() in macs or (seg, ip) in owners:
                    errors.append(f"duplicate MAC {mac!r}" if mac.lower()
                                  in macs else f"duplicate IP {ip!r} on "
                                  f"segment {seg!r}")
                macs.add(mac.lower())
                owners[(seg, ip)] = hid
                interfaces.append(iface)
            if not interfaces:
                errors.append(f"host {hid!r} has no interfaces")
            h.name = f"host {hid!r}: "
            self.hosts[hid] = (h, interfaces,
                               h.parsed("gateway", ip_to_int, None))
        for hid, (_, interfaces, gateway) in self.hosts.items():
            if gateway and not any((seg, gateway) in owners
                                   for seg, _, _ in interfaces):
                errors.append(f"host {hid!r}: gateway {gateway!r} is no host "
                              f"on its segments")

    def _read_attack(self, a, ids):
        aid, kind = a.value.get("id"), a.value.get("kind")
        if not isinstance(aid, str) or not aid or aid in ids:
            self.errors.append(f"duplicate attack id {aid!r}" if aid in ids
                               else f"attack id must be a non-empty string, "
                               f"got {aid!r}")
        if kind not in ATTACK_KINDS:
            self.errors.append(f"attack {aid!r}: unknown kind {kind!r}")
        for ref in ("attacker", "victim_a", "victim_b", "target",
                    "broker_host"):
            if ref in a.value:
                self._check_host(f"attack {aid!r}", a.value[ref])
        a.name = f"attack {aid!r}: "
        t0, duration = read_window(a)
        if None not in (self.duration_us, t0, duration):
            if t0 > self.duration_us:
                self.errors.append(f"attack {aid!r} starts outside the run")
            elif t0 + duration > self.duration_us:
                self.errors.append(f"attack {aid!r} extends past the end of "
                                   f"the run")
        self.attacks.append(a.value)


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

def _one_way_us(outline: Outline, src: str, dst: str) -> float | None:
    """Expected one-way latency between two hosts, None without a path."""
    segs_src, segs_dst, segs_router = (
        {i[0] for i in outline.hosts[h][1]}
        for h in (src, dst, outline.roles["router"]))
    base = {name: profile.base_latency_us
            for name, (profile, _) in outline.segments.items()}
    shared = segs_src & segs_dst
    if shared:
        return float(base[sorted(shared)[0]])
    in_seg, out_seg = segs_src & segs_router, segs_dst & segs_router
    if in_seg and out_seg:
        return float(base[sorted(in_seg)[0]] + outline.forward_delay_us
                     + base[sorted(out_seg)[0]])


def service_times(outline: Outline, errors) -> dict:
    """Service times in us that put each protocol's mean response time on
    the outline's latency target over the outline's paths; a target below
    the latency of its path is an error."""
    targets, svc = outline.targets, {}
    for proto, (a, b, legs, visits) in TARGET_PATHS.items():
        if proto not in targets:
            continue
        ends = [outline.roles.get(role) for role in (a, b)]
        one_way = None if None in ends else _one_way_us(outline, *ends)
        if one_way is None:
            errors.append(f"latency target {proto} needs a path from role "
                          f"{a!r} to role {b!r}")
        elif targets[proto] * 1000.0 < legs * one_way:
            errors.append(f"latency target {proto} of {targets[proto]}ms is "
                          f"below its path's {legs} legs "
                          f"({legs * one_way / 1000.0}ms)")
        else:
            svc[proto] = int(round((targets[proto] * 1000.0 - legs * one_way)
                                   / visits))
    if "I2C" in targets:
        svc["I2C"] = int(round(targets["I2C"] * 1000.0))
    return svc


def calibrate(plan: dict) -> dict:
    """A copy of plan whose service_times_us put the simulated mean response
    times on its latency targets. Raises PlanError when its outline is
    invalid, and CalibrationError naming each target it cannot meet."""
    outline = Outline(plan)
    if outline.errors:
        raise PlanError(outline.errors)
    errors = []
    svc = service_times(outline, errors)
    if errors:
        raise CalibrationError(errors)
    plan = copy.deepcopy(plan)
    plan["service_times_us"] = svc
    return plan
