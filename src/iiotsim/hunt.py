"""Threat-hunting queries over what a Zeek-style hunter has, conn.log rows
and device system logs: originator aggregation, reverse-connection
detection, TCP-flag profiles of those connections from conn.log's `flags`
column, and syslog parsing/search."""

import re
from dataclasses import dataclass

from .analytics import left_sum
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
            "total_duration": left_sum(r["duration"] for r in rows),
            "per_port": per_port}


def reads_row(row, victim_ip: str) -> bool:
    """Whether hunt_report on victim_ip reads the conn.log row: a connection
    to the web admin port, which aggregate_originators ranks, or one that
    victim_ip originated, among which reverse_connections looks."""
    return row["resp_p"] == WEBGUI_PORT or row["orig_h"] == victim_ip


def stream_flag_profile(rows) -> dict:
    """Flag-set histogram of the delivered TCP frames of conn.log rows: the
    sum of the rows' `flags` pairs, each key in first-seen order.

    The data phase is the frames whose flag set has no SYN, FIN or RST.
    Only TcpStream.write sends a payload, and it always sends PSH_ACK, so a
    data frame carries a payload when its set has PSH. The verdict is
    interactive-shell-like when PSH/ACK plus pure ACK dominate the data
    phase."""
    hist: dict[str, int] = {}
    for r in rows:
        for key, count in r["flags"]:
            hist[key] = hist.get(key, 0) + count
    data = {k: n for k, n in hist.items() if not {"S", "F", "R"} & set(k)}
    data_frames = sum(data.values())
    payload_frames = sum(n for k, n in data.items() if "P" in k)
    shell_like = data.get("AP", 0) + data.get("A", 0)
    dominance = shell_like / data_frames if data_frames else 0.0
    positive = payload_frames > 0 and dominance > SHELL_DOMINANCE
    return {"histogram": hist, "total_frames": sum(hist.values()),
            "data_frames": data_frames, "payload_frames": payload_frames,
            "dominance": dominance,
            "verdict": "interactive-shell-like" if positive
                       else "not-shell-like"}


# ---------------------------------------------------------------------------
# system logs
# ---------------------------------------------------------------------------

# timestamp token must lead with a digit (ISO text or epoch seconds)
_SYSLOG_RE = re.compile(r"^\d\S*\s+(.*)$")


def parse_syslog(lines) -> tuple:
    """-> (events, rejects): the event text after the timestamp of each
    timestamp-prefixed line; unparseable lines are preserved, never
    dropped."""
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
        events.append(m.group(1))
    return events, rejects


def search_events(events, pattern: str) -> list:
    rx = re.compile(pattern)
    return [e for e in events if rx.search(e)]


# ---------------------------------------------------------------------------
# the full hunt chain
# ---------------------------------------------------------------------------

def hunt_report(conn_rows, victim_ip: str, backdoor_ports, syslog,
                truth) -> dict:
    """Ranked originators -> reverse connections -> flag profile -> syslog.

    Identifies which client of victim_ip's web admin port the victim later
    connected back to on one of backdoor_ports, profiles those
    connections' flags, and searches the lines of the system log and of
    its ground-truth shadow, each when not None, for SYSLOG_PATTERN.
    conn_rows need hold only the rows reads_row keeps."""
    ranked = aggregate_originators(conn_rows, WEBGUI_PORT)
    candidates = [s.orig_h for s in ranked]
    reverse = reverse_connections(conn_rows, victim_ip, candidates)
    suspects = sorted({r["resp_h"] for r in reverse["rows"]})
    called: dict[tuple, list] = {}
    for r in reverse["rows"]:
        called.setdefault((r["resp_h"], r["resp_p"]), []).append(r)
    profiles = {f"{s}:{p}": stream_flag_profile(called[s, p])
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
