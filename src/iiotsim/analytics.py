"""Post-run traffic analytics: conversation assembly, performance metrics
(response times, jitter, throughput, PLC request rates) and ML feature
extraction with ground-truth labeling."""

import csv
import json
import struct
from dataclasses import dataclass, field

from . import fieldbus
from .cloud import decode_packet

IDLE_TIMEOUT_US = 60_000_000
JITTER_WINDOW_US = 10_000_000
JITTER_BOUND_MS = 30.0
THROUGHPUT_INTERVAL_US = 10_000_000
PLC_RATE_INTERVAL_US = 1_000_000

PROTO_FEATURES = ("ARP", "COAP", "DNS", "HTTP", "HTTPS", "API", "MODBUS",
                  "MQTT", "SMTP", "OTHER")

# attack-window kind -> dataset label; kinds outside this map are excluded
# from the dataset (they model traffic the classifiers are not trained on)
KIND_TO_LABEL = {
    "arp_spoof": "arp_spoof",
    "tamper": "poisoning",
    "modbus_dos": "modbus_dos",
    "rogue_subscriber": "rogue_mqtt",
}

CONN_LOG_COLUMNS = ("ts", "orig_h", "orig_p", "resp_h", "resp_p", "proto",
                    "duration", "orig_bytes", "resp_bytes", "orig_pkts",
                    "resp_pkts", "flags")


@dataclass
class ConversationRecord:
    ts_first_us: int
    ts_last_us: int
    orig_ip: str
    orig_port: int
    resp_ip: str
    resp_port: int
    proto: str
    orig_bytes: int = 0
    resp_bytes: int = 0
    orig_pkts: int = 0
    resp_pkts: int = 0
    flag_hist: dict = field(default_factory=dict)
    sender_spans: dict = field(default_factory=dict)   # host -> [min_ts, max_ts]

    @property
    def duration_s(self) -> float:
        return (self.ts_last_us - self.ts_first_us) / 1_000_000

    def total_bytes(self) -> int:
        return self.orig_bytes + self.resp_bytes

    def total_pkts(self) -> int:
        return self.orig_pkts + self.resp_pkts


def build_conversations(frames) -> list:
    """Group delivered frames into direction-normalized conversations.

    Every delivered frame lands in exactly one conversation; a conversation
    splits when the same 5-tuple goes idle longer than IDLE_TIMEOUT_US or
    restarts with a fresh SYN after teardown. Frames are walked in ts_us
    order, so each one is the latest of its conversation and sender.
    """
    open_convs: dict = {}
    done: list = []
    for f in sorted(frames, key=lambda f: (f.ts_us, f.deliver_ts_us)):
        if not f.delivered:
            continue
        a = (f.src_ip, f.src_port)
        b = (f.dst_ip, f.dst_port)
        key = (a, b, f.l4) if a <= b else (b, a, f.l4)
        state = open_convs.get(key)
        if state is not None:
            conv, closed = state
            stale = f.ts_us - conv.ts_last_us > IDLE_TIMEOUT_US
            restart = closed and "SYN" in f.tcp_flags and not f.payload
            if stale or restart:
                done.append(conv)
                state = None
        if state is None:
            conv = ConversationRecord(f.ts_us, f.ts_us, f.src_ip, f.src_port,
                                      f.dst_ip, f.dst_port, f.proto_tag)
            state = (conv, False)
            open_convs[key] = state
        conv, closed = state
        conv.ts_last_us = f.ts_us
        is_orig = f.src_ip == conv.orig_ip and f.src_port == conv.orig_port
        if is_orig:
            conv.orig_pkts += 1
            conv.orig_bytes += len(f.payload)
        else:
            conv.resp_pkts += 1
            conv.resp_bytes += len(f.payload)
        if f.l4 == "TCP":
            fk = f.flag_key()
            conv.flag_hist[fk] = conv.flag_hist.get(fk, 0) + 1
            if "RST" in f.tcp_flags or "FIN" in f.tcp_flags:
                closed = True
        span = conv.sender_spans.get(f.sender)
        if span is None:
            conv.sender_spans[f.sender] = [f.ts_us, f.ts_us]
        else:
            span[1] = f.ts_us
        open_convs[key] = (conv, closed)
    for conv, _ in open_convs.values():
        done.append(conv)
    done.sort(key=lambda c: (c.ts_first_us, c.orig_ip, c.orig_port))
    return done


def write_conn_log(conversations, path) -> None:
    with open(path, "w") as fh:
        fh.write("\t".join(CONN_LOG_COLUMNS) + "\n")
        for c in conversations:
            flags = ",".join(f"{k}:{v}" for k, v in c.flag_hist.items())
            fh.write("\t".join((
                f"{c.ts_first_us / 1_000_000:.6f}", c.orig_ip,
                str(c.orig_port), c.resp_ip, str(c.resp_port), c.proto,
                f"{c.duration_s:.6f}", str(c.orig_bytes), str(c.resp_bytes),
                str(c.orig_pkts), str(c.resp_pkts), flags or "-")) + "\n")


def read_conn_log(path) -> list:
    """conn.log rows as dicts with numeric fields parsed; a malformed row
    raises ValueError."""
    out = []
    with open(path) as fh:
        header = fh.readline().strip().split("\t")
        try:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                row = dict(zip(header, line.split("\t")))
                for k in ("orig_p", "resp_p", "orig_bytes", "resp_bytes",
                          "orig_pkts", "resp_pkts"):
                    row[k] = int(row[k])
                for k in ("ts", "duration"):
                    row[k] = float(row[k])
                out.append(row)
        except (ValueError, KeyError) as e:
            raise ValueError(f"{path}: bad conn.log row {len(out) + 1}: "
                             f"{type(e).__name__}: {e}") from e
    return out


# ---------------------------------------------------------------------------
# response-time extraction
# ---------------------------------------------------------------------------

@dataclass
class ResponseStats:
    proto: str
    samples_ms: list
    unmatched: int

    @property
    def mean_ms(self) -> float:
        return sum(self.samples_ms) / len(self.samples_ms) if self.samples_ms else 0.0

    @property
    def count(self) -> int:
        return len(self.samples_ms)


# the proto_tags response_times pairs, in metrics_report.json order: the
# server ports of the byte-stream protocols, None for those paired on an id
RESPONSE_PROTOCOLS = {"MODBUS": None, "COAP": None, "DNS": None,
                      "HTTP": {80}, "API": {8080}, "SMTP": {25}, "MQTT": None,
                      "HTTPS": {443}}


def response_times(frames, proto_tag: str) -> ResponseStats:
    """Pair requests with responses per the protocol's own rule.

    MODBUS matches on transaction id, CoAP/DNS on message id, MQTT QoS-2 on
    PUBLISH->PUBCOMP per message id; byte-stream protocols (HTTP, API, SMTP,
    HTTPS) pair each client payload with the next server payload on the same
    stream. Times run from the origin's send to the final delivery back.
    """
    if proto_tag not in RESPONSE_PROTOCOLS:
        raise ValueError(f"no request/response pairing rule for {proto_tag!r}")
    sel = [f for f in frames if f.proto_tag == proto_tag and f.delivered]
    sel.sort(key=lambda f: f.ts_us)
    samples: list = []
    pending: dict = {}

    if proto_tag == "MODBUS":
        for f in sel:
            if not f.payload or len(f.payload) < 8:
                continue
            tid = struct.unpack(">H", f.payload[:2])[0]
            if f.dst_port == fieldbus.MODBUS_PORT and f.origin:
                pending.setdefault((f.src_ip, f.src_port, f.dst_ip, tid), f)
            elif f.src_port == fieldbus.MODBUS_PORT and f.final:
                key = (f.dst_ip, f.dst_port, f.src_ip, tid)
                req = pending.pop(key, None)
                if req is not None:
                    samples.append((f.deliver_ts_us - req.ts_us) / 1000.0)
    elif proto_tag in ("COAP", "DNS"):
        for f in sel:
            if not f.payload:
                continue
            try:
                body = json.loads(f.payload.decode())
            except ValueError:
                continue
            if not isinstance(body, dict):
                continue
            mid = body.get("mid", body.get("id", 0))
            is_request = (body.get("code") in ("GET", "PUT")) if proto_tag == "COAP" \
                else "q" in body and "a" not in body and "error" not in body
            if is_request and f.origin:
                pending.setdefault((f.src_ip, f.src_port, mid), f)
            elif not is_request and f.final:
                req = pending.pop((f.dst_ip, f.dst_port, mid), None)
                if req is not None:
                    samples.append((f.deliver_ts_us - req.ts_us) / 1000.0)
    elif proto_tag == "MQTT":
        for f in sel:
            try:
                pkt = decode_packet(f.payload)
            except ValueError:
                continue
            if pkt.get("type") == "PUBLISH" and pkt.get("qos") == 2 and \
                    not pkt.get("dup") and f.origin:
                pending.setdefault((f.src_ip, f.src_port, pkt.get("mid")), f)
            elif pkt.get("type") == "PUBCOMP" and f.final:
                req = pending.pop((f.dst_ip, f.dst_port, pkt.get("mid")), None)
                if req is not None:
                    samples.append((f.deliver_ts_us - req.ts_us) / 1000.0)
    else:
        # sequential pairing, client payload -> next server payload per stream
        ports = RESPONSE_PROTOCOLS[proto_tag]
        for f in sel:
            if not f.payload:
                continue
            if f.dst_port in ports and f.origin:
                stream = (f.src_ip, f.src_port, f.dst_ip, f.dst_port)
                pending.setdefault(stream, []).append(f)
            elif f.src_port in ports and f.final:
                stream = (f.dst_ip, f.dst_port, f.src_ip, f.src_port)
                queue = pending.get(stream)
                if queue:
                    req = queue.pop(0)
                    samples.append((f.deliver_ts_us - req.ts_us) / 1000.0)

    unmatched = sum(len(v) if isinstance(v, list) else 1
                    for v in pending.values())
    return ResponseStats(proto_tag, samples, unmatched)


# ---------------------------------------------------------------------------
# jitter
# ---------------------------------------------------------------------------

@dataclass
class JitterWindow:
    t0_us: int
    jitter_ms: float
    gaps: int


def jitter_series(frames) -> tuple:
    """Per-window mean |delta of consecutive inter-arrival gaps|.

    -> (windows, flagged) where flagged lists windows whose jitter exceeds
    JITTER_BOUND_MS. Windows with fewer than 3 deliveries are skipped.
    """
    arrivals = sorted(f.deliver_ts_us for f in frames if f.delivered)
    if not arrivals:
        return [], []
    buckets: dict[int, list] = {}
    for ts in arrivals:
        buckets.setdefault(ts // JITTER_WINDOW_US, []).append(ts)
    windows = []
    for b in sorted(buckets):
        pts = buckets[b]
        if len(pts) < 3:
            continue
        gaps = [pts[i + 1] - pts[i] for i in range(len(pts) - 1)]
        diffs = [abs(gaps[i + 1] - gaps[i]) for i in range(len(gaps) - 1)]
        jitter_ms = (sum(diffs) / len(diffs)) / 1000.0
        windows.append(JitterWindow(b * JITTER_WINDOW_US, jitter_ms, len(gaps)))
    flagged = [w for w in windows if w.jitter_ms > JITTER_BOUND_MS]
    return windows, flagged


# ---------------------------------------------------------------------------
# throughput and PLC request rates
# ---------------------------------------------------------------------------

def throughput_series(frames) -> list:
    """Delivered payload bytes per interval -> [(t0_us, bytes_per_s), ...]."""
    buckets: dict[int, int] = {}
    for f in frames:
        if f.delivered:
            b = f.deliver_ts_us // THROUGHPUT_INTERVAL_US
            buckets[b] = buckets.get(b, 0) + len(f.payload)
    return [(b * THROUGHPUT_INTERVAL_US,
             buckets[b] / (THROUGHPUT_INTERVAL_US / 1_000_000))
            for b in sorted(buckets)]


def plc_request_rates(frames, plc_ip: str, span_us: int) -> dict:
    """Read (fn 3) / write (fn 5, 6) request rates toward the PLC, per
    interval and averaged over span_us."""
    reads: dict[int, int] = {}
    writes: dict[int, int] = {}
    total_read = total_write = 0
    for f in frames:
        if (f.dst_ip != plc_ip or f.dst_port != fieldbus.MODBUS_PORT
                or not f.origin):
            continue
        if not f.payload or len(f.payload) < 8:
            continue
        fn = f.payload[7]
        b = f.ts_us // PLC_RATE_INTERVAL_US
        if fn == fieldbus.READ_HOLDING_REGISTERS:
            reads[b] = reads.get(b, 0) + 1
            total_read += 1
        elif fn in (fieldbus.WRITE_SINGLE_COIL, fieldbus.WRITE_SINGLE_REGISTER):
            writes[b] = writes.get(b, 0) + 1
            total_write += 1
    span_s = span_us / 1_000_000
    secs = PLC_RATE_INTERVAL_US / 1_000_000
    series = []
    for b in sorted(set(reads) | set(writes)):
        r = reads.get(b, 0) / secs
        w = writes.get(b, 0) / secs
        series.append({"t0_us": b * PLC_RATE_INTERVAL_US, "read_per_s": r,
                       "write_per_s": w, "transfer_per_s": r + w})
    return {
        "read_per_s": total_read / span_s,
        "write_per_s": total_write / span_s,
        "transfer_per_s": (total_read + total_write) / span_s,
        "series": series,
    }


def packet_size_stats(frames) -> dict:
    delivered = [f for f in frames if f.delivered]
    if not delivered:
        return {"avg_packet_size_bytes": 0.0, "avg_bytes_per_s": 0.0,
                "avg_bits_per_s": 0.0}
    total_wire = sum(f.wire_len for f in delivered)
    t0 = min(f.ts_us for f in delivered)
    t1 = max(f.deliver_ts_us for f in delivered)
    span_s = max(1e-9, (t1 - t0) / 1_000_000)
    return {
        "avg_packet_size_bytes": total_wire / len(delivered),
        "avg_bytes_per_s": total_wire / span_s,
        "avg_bits_per_s": 8 * total_wire / span_s,
    }


# ---------------------------------------------------------------------------
# dataset extraction and labeling
# ---------------------------------------------------------------------------

FEATURE_COLUMNS = ("duration", "orig_pkts", "resp_pkts", "orig_bytes",
                   "resp_bytes", "bit_rate", "mean_pkt_size",
                   "mean_interarrival") + tuple(
                       f"proto_{p}" for p in PROTO_FEATURES)


@dataclass
class DatasetRow:
    features: tuple
    label: str


def conversation_features(conv: ConversationRecord) -> tuple:
    dur = conv.duration_s
    pkts = conv.total_pkts()
    total = conv.total_bytes()
    bit_rate = (8 * total / dur) if dur > 0 else 0.0
    mean_pkt = total / pkts if pkts else 0.0
    mean_gap = dur / (pkts - 1) if pkts > 1 else 0.0
    proto = conv.proto if conv.proto in PROTO_FEATURES else "OTHER"
    onehot = tuple(1.0 if proto == p else 0.0 for p in PROTO_FEATURES)
    return (dur, float(conv.orig_pkts), float(conv.resp_pkts),
            float(conv.orig_bytes), float(conv.resp_bytes), bit_rate,
            mean_pkt, mean_gap) + onehot


def label_for(conv: ConversationRecord, windows) -> tuple:
    """-> (label, dropped) by attacker-attributed overlap; earliest window
    start wins when several kinds touch one conversation."""
    hits = []
    for w in windows:
        span = conv.sender_spans.get(w.attacker)
        if span is None:
            continue
        if w.t_start_us <= span[1] and span[0] <= w.t_end_us:
            hits.append(w)
    if not hits:
        return "normal", False
    hits.sort(key=lambda w: w.t_start_us)
    label = KIND_TO_LABEL.get(hits[0].kind)
    if label is None:
        return "", True
    return label, False


def label_dataset(conversations, windows) -> tuple:
    """-> (rows, class_counts, dropped_count)"""
    rows = []
    counts: dict[str, int] = {}
    dropped = 0
    for conv in conversations:
        label, drop = label_for(conv, windows)
        if drop:
            dropped += 1
            continue
        rows.append(DatasetRow(conversation_features(conv), label))
        counts[label] = counts.get(label, 0) + 1
    return rows, counts, dropped


def write_dataset_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(FEATURE_COLUMNS + ("label",))
        for r in rows:
            w.writerow([repr(v) for v in r.features] + [r.label])


def read_dataset_csv(path) -> list:
    """Rows of a dataset.csv; a bad header or row raises ValueError."""
    columns = list(FEATURE_COLUMNS + ("label",))
    out = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        if next(r, None) != columns:
            raise ValueError(f"{path}: row 1 is not the header "
                             f"{','.join(columns)}")
        for n, row in enumerate(r, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise ValueError(f"{path}: row {n} has {len(row)} fields, "
                                 f"expected {len(columns)}")
            try:
                features = tuple(float(v) for v in row[:-1])
            except ValueError as e:
                raise ValueError(f"{path}: row {n}: {e}") from e
            out.append(DatasetRow(features, row[-1]))
    return out
