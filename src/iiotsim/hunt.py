"""Threat-hunting queries over conn.log rows, packet captures and device
system logs: originator aggregation, reverse-connection detection, TCP-flag
stream profiling and syslog parsing/search."""

import re
from dataclasses import dataclass

from .services import WEBGUI_PORT

SHELL_DOMINANCE = 0.80      # PSH/ACK + ACK share of a shell's data phase
SYSLOG_PATTERN = "shell"    # what an exploit leaves in the victim's syslog


@dataclass
class OriginatorSummary:
    orig_h: str
    count: int = 0
    total_duration: float = 0.0
    max_duration: float = 0.0
    min_duration: float = float("inf")
    total_orig_bytes: int = 0


def aggregate_originators(conn_rows, resp_port: int) -> list:
    """One summary per originator with connections to resp_port, sortable by
    total duration and bytes sent."""
    summaries: dict[str, OriginatorSummary] = {}
    for row in conn_rows:
        if row["resp_p"] != resp_port:
            continue
        s = summaries.setdefault(row["orig_h"], OriginatorSummary(row["orig_h"]))
        s.count += 1
        s.total_duration += row["duration"]
        s.max_duration = max(s.max_duration, row["duration"])
        s.min_duration = min(s.min_duration, row["duration"])
        s.total_orig_bytes += row["orig_bytes"]
    out = list(summaries.values())
    out.sort(key=lambda s: (-s.total_duration, -s.total_orig_bytes, s.orig_h))
    return out


def reverse_connections(conn_rows, from_host: str, to_hosts) -> dict:
    """Connections originated by from_host back toward any candidate host.
    ARP exchanges have no ports and are not connections."""
    to_hosts = set(to_hosts)
    rows = [r for r in conn_rows
            if r["orig_h"] == from_host and r["resp_h"] in to_hosts
            and r["proto"] != "ARP"]
    per_port: dict[int, dict] = {}
    for r in rows:
        slot = per_port.setdefault(r["resp_p"], {"count": 0, "duration": 0.0})
        slot["count"] += 1
        slot["duration"] += r["duration"]
    return {"rows": rows,
            "total_duration": sum(r["duration"] for r in rows),
            "per_port": per_port}


def stream_flag_profile(frames, ip_a: str, ip_b: str, port: int) -> dict:
    """Flag-set histogram for the streams between two hosts on a port.

    Verdict is interactive-shell-like when PSH/ACK plus pure ACK dominate the
    data phase (handshake and teardown frames excluded)."""
    hist: dict[str, int] = {}
    data_frames = 0
    payload_frames = 0
    shell_like = 0
    total = 0
    for f in frames:
        if (f.l4 != "TCP" or {f.src_ip, f.dst_ip} != {ip_a, ip_b}
                or port not in (f.src_port, f.dst_port)):
            continue
        total += 1
        key = f.flag_key()
        hist[key] = hist.get(key, 0) + 1
        flags = set(f.tcp_flags)
        if flags & {"SYN", "FIN", "RST"}:
            continue
        data_frames += 1
        if f.payload:
            payload_frames += 1
        if flags in ({"PSH", "ACK"}, {"ACK"}):
            shell_like += 1
    dominance = shell_like / data_frames if data_frames else 0.0
    positive = payload_frames > 0 and dominance > SHELL_DOMINANCE
    return {"histogram": hist, "total_frames": total,
            "data_frames": data_frames, "payload_frames": payload_frames,
            "dominance": dominance,
            "verdict": "interactive-shell-like" if positive
                       else "not-shell-like"}


# ---------------------------------------------------------------------------
# system logs
# ---------------------------------------------------------------------------

@dataclass
class SyslogEvent:
    timestamp: str
    event: str


# timestamp token must lead with a digit (ISO text or epoch seconds)
_SYSLOG_RE = re.compile(r"^(\d\S*)\s+(.*)$")


def parse_syslog(lines) -> tuple:
    """-> (events, rejects): timestamp-prefixed lines become two-column
    events; unparseable lines are preserved, never dropped."""
    events = []
    rejects = []
    for line in lines:
        line = line.rstrip("\n")
        if not line.strip():
            continue
        m = _SYSLOG_RE.match(line)
        if m is None:
            rejects.append(line)
            continue
        events.append(SyslogEvent(m.group(1), m.group(2)))
    return events, rejects


def search_events(events, pattern: str) -> list:
    rx = re.compile(pattern)
    return [e for e in events if rx.search(e.event)]


# ---------------------------------------------------------------------------
# the full hunt chain
# ---------------------------------------------------------------------------

def hunt_report(conn_rows, frames, victim_ip: str, backdoor_ports, syslog,
                truth) -> dict:
    """Ranked originators -> reverse connections -> flag profile -> syslog.

    Identifies which client of victim_ip's web admin port the victim later
    connected back to on one of backdoor_ports, profiles those streams, and
    searches the lines of the system log and of its ground-truth shadow,
    each when not None, for SYSLOG_PATTERN."""
    ranked = aggregate_originators(conn_rows, WEBGUI_PORT)
    candidates = [s.orig_h for s in ranked]
    reverse = reverse_connections(conn_rows, victim_ip, candidates)
    suspects = sorted({r["resp_h"] for r in reverse["rows"]})
    called = {(r["resp_h"], r["resp_p"]) for r in reverse["rows"]}
    profiles = {f"{s}:{p}": stream_flag_profile(frames, victim_ip, s, p)
                for s in suspects for p in backdoor_ports if (s, p) in called}
    syslog_part = {}
    if syslog is not None:
        hits = search_events(parse_syslog(syslog)[0], SYSLOG_PATTERN)
        syslog_part = {"pattern": SYSLOG_PATTERN, "hits": len(hits)}
        if truth is not None:
            truth_hits = search_events(parse_syslog(truth)[0], SYSLOG_PATTERN)
            syslog_part["truth_hits"] = len(truth_hits)
            syslog_part["tampered"] = len(truth_hits) != len(hits)
    return {
        "ranked_originators": [vars(s) for s in ranked],
        "reverse_connections": {
            "count": len(reverse["rows"]),
            "total_duration": reverse["total_duration"],
            "per_port": reverse["per_port"],
        },
        "flag_profiles": profiles,
        "identified_attacker": suspects[0] if suspects else None,
        "backdoor_ports": sorted({r["resp_p"] for r in reverse["rows"]}),
        "syslog": syslog_part,
    }
