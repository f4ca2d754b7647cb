"""Post-run traffic analytics: conversation assembly, performance metrics
(response times, jitter, throughput, PLC request rates) and ML feature
extraction with ground-truth labeling."""

import csv
import math
import struct
from array import array
from dataclasses import dataclass, field

from . import fieldbus
from .cloud import decode_packet, loads
from .netsim import FLAG_KEYS, PROTO_TAGS
from .services import API_PORT, HTTP_PORT, SMTP_PORT, WEBGUI_PORT

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
_INT_COLUMNS = ("orig_p", "resp_p", "orig_bytes", "resp_bytes", "orig_pkts",
                "resp_pkts")


@dataclass(slots=True)
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
    # flag key -> count of the TCP frames, None until the first one
    flag_hist: dict | None = None
    # sender -> [first ts_us, last ts_us], for the senders that labelling
    # reads (the attack windows' attackers) alone; None until the first
    sender_spans: dict | None = None
    # a RST or FIN was seen, so a bare SYN starts a new conversation
    closed: bool = field(default=False, repr=False, compare=False)

    @property
    def duration_s(self) -> float:
        return (self.ts_last_us - self.ts_first_us) / 1_000_000

    def total_bytes(self) -> int:
        return self.orig_bytes + self.resp_bytes

    def total_pkts(self) -> int:
        return self.orig_pkts + self.resp_pkts


class Conversations:
    """Delivered frames grouped into direction-normalized conversations,
    fed one frame at a time in (ts_us, deliver_ts_us) order.

    Every delivered frame lands in exactly one conversation; a conversation
    splits when the same 5-tuple goes idle longer than IDLE_TIMEOUT_US or
    restarts with a fresh SYN after teardown. Each frame fed is the latest
    of its conversation and sender. A conversation keeps the span of each
    of senders that sent in it, and of no other sender. Its flag_hist and
    sender_spans are None until it has a TCP frame and a span to keep.
    """

    def __init__(self, senders):
        self._senders = frozenset(senders)
        # (ip, port, ip, port, l4), the lower end first -> open conversation
        self._open: dict = {}
        self._done: list = []
        # TCP flag tuple -> (flag_key, has SYN, closes the conversation)
        self._flag_facts: dict = {}

    def add(self, f) -> None:
        if not f.delivered:
            return
        ts = f.ts_us
        src_ip, src_port, dst_ip, dst_port, l4 = (
            f.src_ip, f.src_port, f.dst_ip, f.dst_port, f.l4)
        if src_ip < dst_ip or src_ip == dst_ip and src_port <= dst_port:
            key = (src_ip, src_port, dst_ip, dst_port, l4)
        else:
            key = (dst_ip, dst_port, src_ip, src_port, l4)
        facts = None
        if l4 == "TCP":
            flags = f.tcp_flags
            facts = self._flag_facts.get(flags)
            if facts is None:
                facts = self._flag_facts[flags] = (
                    f.flag_key(), "SYN" in flags,
                    "RST" in flags or "FIN" in flags)
        conv = self._open.get(key)
        # only a TCP conversation is ever closed, so facts is set there
        if conv is not None and (
                ts - conv.ts_last_us > IDLE_TIMEOUT_US
                or conv.closed and facts[1] and not f.payload):
            self._done.append(conv)
            conv = None
        if conv is None:
            conv = self._open[key] = ConversationRecord(
                ts, ts, src_ip, src_port, dst_ip, dst_port, f.proto_tag)
        conv.ts_last_us = ts
        if src_ip == conv.orig_ip and src_port == conv.orig_port:
            conv.orig_pkts += 1
            conv.orig_bytes += len(f.payload)
        else:
            conv.resp_pkts += 1
            conv.resp_bytes += len(f.payload)
        if facts is not None:
            hist = conv.flag_hist
            fk = facts[0]
            if hist is None:
                conv.flag_hist = {fk: 1}
            else:
                hist[fk] = hist.get(fk, 0) + 1
            if facts[2]:
                conv.closed = True
        sender = f.sender
        if sender in self._senders:
            spans = conv.sender_spans
            if spans is None:
                conv.sender_spans = {sender: [ts, ts]}
            else:
                span = spans.get(sender)
                if span is None:
                    spans[sender] = [ts, ts]
                else:
                    span[1] = ts

    def result(self) -> list:
        """Every conversation, by (first ts_us, orig_ip, orig_port). The
        open conversations' index is let go: a frame fed after this starts
        a new conversation."""
        done = self._done
        done.extend(self._open.values())
        self._open.clear()
        done.sort(key=lambda c: (c.ts_first_us, c.orig_ip, c.orig_port))
        return done


def _fed(acc, frames):
    """acc after add() of every frame, in order."""
    add = acc.add
    for f in frames:
        add(f)
    return acc


def build_conversations(frames, senders) -> list:
    """Conversations of the frames, walked in (ts_us, deliver_ts_us) order,
    with the spans of senders."""
    return _fed(Conversations(senders), sorted(
        frames, key=lambda f: (f.ts_us, f.deliver_ts_us))).result()


def conn_row(c: ConversationRecord) -> dict:
    """c's conn.log row, as read_conn_log reads its line back: flags is the
    (flag key, count) pairs of its TCP frames, written k:n,k:n or - when
    there are none."""
    return dict(zip(CONN_LOG_COLUMNS, (
        c.ts_first_us / 1_000_000, c.orig_ip, c.orig_port, c.resp_ip,
        c.resp_port, c.proto, c.duration_s, c.orig_bytes, c.resp_bytes,
        c.orig_pkts, c.resp_pkts, tuple((c.flag_hist or {}).items()))))


def write_conn_log(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("\t".join(CONN_LOG_COLUMNS) + "\n")
        for row in rows:
            *values, flags = row.values()
            fh.write("\t".join(f"{v:.6f}" if isinstance(v, float) else str(v)
                               for v in values) + "\t"
                     + (",".join(f"{k}:{n}" for k, n in flags) or "-") + "\n")


def _read_flags(text) -> tuple:
    """-> (the (flag key, count) pairs of a conn.log flags text, their
    count sum); ValueError naming the fault if conn_row writes no such
    text: a key _flag_key spells for no set of flags, a repeated key or a
    count that is not a positive int as str() writes it."""
    if text == "-":
        return (), None
    pairs = []
    for item in text.split(","):
        k, n_text = item.split(":")
        n = int(n_text)
        if k not in FLAG_KEYS:
            raise ValueError(f"flags key {k!r} is no set of flags")
        if n <= 0:
            raise ValueError(f"flags count {k}:{n} is not positive")
        if str(n) != n_text:
            raise ValueError(f"flags count {k}:{n_text} is not written "
                             f"as {n}")
        pairs.append((k, n))
    pairs = tuple(pairs)
    if len(dict(pairs)) < len(pairs):
        raise ValueError("a flags key repeats")
    return pairs, sum(n for _, n in pairs)


def _check_conn_row(row, texts, flag_sum) -> None:
    """Raises ValueError naming the field if write_conn_log cannot have
    written the parsed row from a conn_row, whose flags count flag_sum
    frames (None for -): texts is the row as read, before parsing, and
    each number must be written as the writer writes it."""
    for k in ("orig_p", "resp_p"):
        if not 0 <= row[k] <= 0xFFFF:
            raise ValueError(f"{k} {row[k]} is not a port")
    for k in ("ts", "duration"):
        if not 0 <= row[k] < math.inf or math.copysign(1.0, row[k]) < 0:
            raise ValueError(f"{k} {row[k]} is not finite and non-negative")
        if f"{row[k]:.6f}" != texts[k]:
            raise ValueError(f"{k} {texts[k]!r} is not written as "
                             f"{row[k]:.6f}")
    for k in _INT_COLUMNS:
        if row[k] < 0:
            raise ValueError(f"{k} {row[k]} is negative")
        if str(row[k]) != texts[k]:
            raise ValueError(f"{k} {texts[k]!r} is not written as {row[k]}")
    if row["proto"] not in PROTO_TAGS:
        raise ValueError(f"proto {row['proto']!r} is not one of "
                         f"{PROTO_TAGS}")
    packets = row["orig_pkts"] + row["resp_pkts"]
    if flag_sum not in (None, packets):
        raise ValueError(f"the flags counts do not sum to orig_pkts + "
                         f"resp_pkts, {packets}")


def read_conn_log(path, keep=None) -> list:
    """conn.log rows as conn_row makes them, numeric fields parsed and
    flags read into pairs. A row conn_row cannot make (_read_flags,
    _check_conn_row) raises ValueError naming its line in the file. keep,
    when given, is called with each parsed row, and only the rows it is
    true of are kept."""
    out = []
    read_flags = {}                            # text -> _read_flags(text)
    with open(path) as fh:
        header = fh.readline().strip().split("\t")
        n = 1                                  # the line read last
        try:
            for n, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                texts = dict(zip(header, line.split("\t")))
                row = texts.copy()
                for k in _INT_COLUMNS:
                    row[k] = int(row[k])
                for k in ("ts", "duration"):
                    row[k] = float(row[k])
                text = row["flags"]
                if text not in read_flags:
                    read_flags[text] = _read_flags(text)
                row["flags"], flag_sum = read_flags[text]
                _check_conn_row(row, texts, flag_sum)
                if keep is None or keep(row):
                    out.append(row)
        except (ValueError, KeyError) as e:
            raise ValueError(f"{path}: bad conn.log row at line {n}: "
                             f"{type(e).__name__}: {e}") from e
    return out


# ---------------------------------------------------------------------------
# response-time extraction
# ---------------------------------------------------------------------------

def left_sum(values):
    """sum(values) as Python 3.10 and 3.11 add floats: left to right. From
    3.12, sum() compensates, which would move the bundle's bytes."""
    total = 0
    for v in values:
        total += v
    return total


@dataclass
class ResponseStats:
    proto: str
    samples_ms: list
    unmatched: int

    @property
    def mean_ms(self) -> float:
        return (left_sum(self.samples_ms) / len(self.samples_ms)
                if self.samples_ms else 0.0)

    @property
    def count(self) -> int:
        return len(self.samples_ms)


# the proto_tags response_times pairs, in metrics_report.json order: the
# server ports of the byte-stream protocols, None for those paired on an id
RESPONSE_PROTOCOLS = {"MODBUS": None, "COAP": None, "DNS": None,
                      "HTTP": {HTTP_PORT}, "API": {API_PORT},
                      "SMTP": {SMTP_PORT}, "MQTT": None,
                      "HTTPS": {WEBGUI_PORT}}


# the JSON values that cannot key pending: a frame whose id is one is not
# paired, as the broker drops such a packet
_UNHASHABLE = (list, dict)


# proto_tag -> the ResponseTimes method that pairs it; the byte-stream
# protocols take _add_stream
_PAIRING_RULES = {"MODBUS": "_add_modbus", "COAP": "_add_message",
                  "DNS": "_add_message", "MQTT": "_add_mqtt"}


class ResponseTimes:
    """Request/response pairing for one protocol, fed that protocol's
    delivered frames in ts_us order.

    MODBUS matches on transaction id, CoAP/DNS on message id, MQTT QoS-2 on
    PUBLISH->PUBCOMP per message id; byte-stream protocols (HTTP, API, SMTP,
    HTTPS) pair each client payload with the next server payload on the same
    stream. Times run from the origin's send to the final delivery back. A
    pending request keeps only its ts_us. A CoAP, DNS or MQTT frame whose id
    is a JSON list or object is not paired.
    """

    def __init__(self, proto_tag: str):
        if proto_tag not in RESPONSE_PROTOCOLS:
            raise ValueError(
                f"no request/response pairing rule for {proto_tag!r}")
        self.proto = proto_tag
        self.samples: list = []
        self.pending: dict = {}
        self.ports = RESPONSE_PROTOCOLS[proto_tag]

    @property
    def add(self):
        """The pairing rule of the protocol, as a method taking a frame.
        It is looked up, not stored: a stored bound method would make the
        accumulator a cycle that outlives its last reference while the
        collector is paused."""
        return getattr(self, _PAIRING_RULES.get(self.proto, "_add_stream"))

    def _answer(self, key, f) -> None:
        ts = self.pending.pop(key, None)
        if ts is not None:
            self.samples.append((f.deliver_ts_us - ts) / 1000.0)

    def _add_modbus(self, f) -> None:
        if not f.payload or len(f.payload) < 8:
            return
        tid = struct.unpack(">H", f.payload[:2])[0]
        if f.dst_port == fieldbus.MODBUS_PORT and f.origin:
            self.pending.setdefault((f.src_ip, f.src_port, f.dst_ip, tid),
                                    f.ts_us)
        elif f.src_port == fieldbus.MODBUS_PORT and f.final:
            self._answer((f.dst_ip, f.dst_port, f.src_ip, tid), f)

    def _add_message(self, f) -> None:
        if not f.payload:
            return
        try:
            body = loads(f.payload.decode())
        except ValueError:
            return
        if not isinstance(body, dict):
            return
        mid = body.get("mid", body.get("id", 0))
        if isinstance(mid, _UNHASHABLE):
            return
        is_request = (body.get("code") in ("GET", "PUT")) \
            if self.proto == "COAP" \
            else "q" in body and "a" not in body and "error" not in body
        if is_request and f.origin:
            self.pending.setdefault((f.src_ip, f.src_port, mid), f.ts_us)
        elif not is_request and f.final:
            self._answer((f.dst_ip, f.dst_port, mid), f)

    def _add_mqtt(self, f) -> None:
        if not f.payload:
            return
        try:
            pkt = decode_packet(f.payload)
        except ValueError:
            return
        mid = pkt.get("mid")
        if isinstance(mid, _UNHASHABLE):
            return
        if pkt.get("type") == "PUBLISH" and pkt.get("qos") == 2 and \
                not pkt.get("dup") and f.origin:
            self.pending.setdefault((f.src_ip, f.src_port, mid), f.ts_us)
        elif pkt.get("type") == "PUBCOMP" and f.final:
            self._answer((f.dst_ip, f.dst_port, mid), f)

    def _add_stream(self, f) -> None:
        # sequential pairing, client payload -> next server payload per stream
        if not f.payload:
            return
        if f.dst_port in self.ports and f.origin:
            stream = (f.src_ip, f.src_port, f.dst_ip, f.dst_port)
            self.pending.setdefault(stream, []).append(f.ts_us)
        elif f.src_port in self.ports and f.final:
            queue = self.pending.get((f.dst_ip, f.dst_port, f.src_ip,
                                      f.src_port))
            if queue:
                self.samples.append((f.deliver_ts_us - queue.pop(0)) / 1000.0)

    def result(self) -> ResponseStats:
        unmatched = sum(len(v) if isinstance(v, list) else 1
                        for v in self.pending.values())
        return ResponseStats(self.proto, self.samples, unmatched)


def response_times(frames, proto_tag: str) -> ResponseStats:
    """ResponseTimes of the frames' delivered proto_tag frames."""
    acc = ResponseTimes(proto_tag)
    return _fed(acc, sorted((f for f in frames
                             if f.proto_tag == proto_tag and f.delivered),
                            key=lambda f: f.ts_us)).result()


# ---------------------------------------------------------------------------
# jitter
# ---------------------------------------------------------------------------

@dataclass
class JitterWindow:
    t0_us: int
    jitter_ms: float


class JitterSeries:
    """Per-window mean |delta of consecutive inter-arrival gaps|, fed
    frames in any order; it keeps each delivered frame's deliver_ts_us."""

    def __init__(self):
        self.arrivals: list = []

    def add(self, f) -> None:
        if f.delivered:
            self.arrivals.append(f.deliver_ts_us)

    def result(self) -> tuple:
        """-> (windows, flagged) where flagged lists windows whose jitter
        exceeds JITTER_BOUND_MS. Windows with fewer than 3 deliveries are
        skipped."""
        buckets: dict[int, list] = {}
        for ts in sorted(self.arrivals):
            buckets.setdefault(ts // JITTER_WINDOW_US, []).append(ts)
        windows = []
        for b in sorted(buckets):
            pts = buckets[b]
            if len(pts) < 3:
                continue
            gaps = [pts[i + 1] - pts[i] for i in range(len(pts) - 1)]
            diffs = [abs(gaps[i + 1] - gaps[i]) for i in range(len(gaps) - 1)]
            jitter_ms = (sum(diffs) / len(diffs)) / 1000.0
            windows.append(JitterWindow(b * JITTER_WINDOW_US, jitter_ms))
        flagged = [w for w in windows if w.jitter_ms > JITTER_BOUND_MS]
        return windows, flagged


def jitter_series(frames) -> tuple:
    """JitterSeries of the frames: (windows, flagged)."""
    return _fed(JitterSeries(), frames).result()


# ---------------------------------------------------------------------------
# throughput, PLC request rates and packet sizes: sums, fed in any order
# ---------------------------------------------------------------------------

class Throughput:
    """Delivered payload bytes per THROUGHPUT_INTERVAL_US."""

    def __init__(self):
        self.buckets: dict[int, int] = {}

    def add(self, f) -> None:
        if f.delivered:
            b = f.deliver_ts_us // THROUGHPUT_INTERVAL_US
            self.buckets[b] = self.buckets.get(b, 0) + len(f.payload)

    def result(self) -> list:
        """-> [(t0_us, bytes_per_s), ...]"""
        return [(b * THROUGHPUT_INTERVAL_US,
                 self.buckets[b] / (THROUGHPUT_INTERVAL_US / 1_000_000))
                for b in sorted(self.buckets)]


def throughput_series(frames) -> list:
    """Delivered payload bytes per interval -> [(t0_us, bytes_per_s), ...]."""
    return _fed(Throughput(), frames).result()


class PlcRates:
    """Read (fn 3) / write (fn 5, 6) requests toward the PLC, per
    PLC_RATE_INTERVAL_US and averaged over span_us."""

    def __init__(self, plc_ip: str, span_us: int):
        self.plc_ip = plc_ip
        self.span_us = span_us
        self.reads: dict[int, int] = {}
        self.writes: dict[int, int] = {}

    def add(self, f) -> None:
        if (f.dst_ip != self.plc_ip or f.dst_port != fieldbus.MODBUS_PORT
                or not f.origin):
            return
        if not f.payload or len(f.payload) < 8:
            return
        fn = f.payload[7]
        if fn == fieldbus.READ_HOLDING_REGISTERS:
            counts = self.reads
        elif fn in (fieldbus.WRITE_SINGLE_COIL,
                    fieldbus.WRITE_SINGLE_REGISTER):
            counts = self.writes
        else:
            return
        b = f.ts_us // PLC_RATE_INTERVAL_US
        counts[b] = counts.get(b, 0) + 1

    def result(self) -> dict:
        reads, writes = self.reads, self.writes
        total_read = sum(reads.values())
        total_write = sum(writes.values())
        span_s = self.span_us / 1_000_000
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


def plc_request_rates(frames, plc_ip: str, span_us: int) -> dict:
    """Read (fn 3) / write (fn 5, 6) request rates toward the PLC, per
    interval and averaged over span_us."""
    return _fed(PlcRates(plc_ip, span_us), frames).result()


class PacketSizes:
    """Mean wire size and rate of the delivered frames."""

    def __init__(self):
        self.count = self.wire = 0
        self.t0 = self.t1 = None     # first send, last delivery

    def add(self, f) -> None:
        if not f.delivered:
            return
        self.count += 1
        self.wire += f.wire_len
        if self.t0 is None or f.ts_us < self.t0:
            self.t0 = f.ts_us
        if self.t1 is None or f.deliver_ts_us > self.t1:
            self.t1 = f.deliver_ts_us

    def result(self) -> dict:
        if not self.count:
            return {"avg_packet_size_bytes": 0.0, "avg_bytes_per_s": 0.0,
                    "avg_bits_per_s": 0.0}
        span_s = max(1e-9, (self.t1 - self.t0) / 1_000_000)
        return {
            "avg_packet_size_bytes": self.wire / self.count,
            "avg_bytes_per_s": self.wire / span_s,
            "avg_bits_per_s": 8 * self.wire / span_s,
        }


def packet_size_stats(frames) -> dict:
    return _fed(PacketSizes(), frames).result()


# ---------------------------------------------------------------------------
# dataset extraction and labeling
# ---------------------------------------------------------------------------

FEATURE_COLUMNS = ("duration", "orig_pkts", "resp_pkts", "orig_bytes",
                   "resp_bytes", "bit_rate", "mean_pkt_size",
                   "mean_interarrival") + tuple(
                       f"proto_{p}" for p in PROTO_FEATURES)


@dataclass(slots=True)
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


def span_senders(windows) -> frozenset:
    """The senders whose spans label_for reads: the windows' attackers."""
    return frozenset(w.attacker for w in windows)


def label_for(conv: ConversationRecord, windows) -> tuple:
    """-> (label, dropped) by attacker-attributed overlap; earliest window
    start wins when several kinds touch one conversation. conv needs the
    spans of span_senders(windows)."""
    spans = conv.sender_spans
    if not spans:
        return "normal", False
    hits = []
    for w in windows:
        span = spans.get(w.attacker)
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


class LabelledRows:
    """The dataset rows of conversations, in their order: a sized,
    re-iterable view that builds each DatasetRow from its conversation and
    its label as it is read. labels has one entry per conversation, None
    for one left out of the dataset."""

    def __init__(self, conversations, labels):
        self._conversations = conversations
        self._labels = labels
        self._size = len(labels) - labels.count(None)

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        for conv, label in zip(self._conversations, self._labels):
            if label is not None:
                yield DatasetRow(conversation_features(conv), label)


def label_dataset(conversations, windows) -> tuple:
    """-> (rows, class_counts, dropped_count), rows a LabelledRows view of
    conversations, which must not change while it is read."""
    labels = []
    counts: dict[str, int] = {}
    dropped = 0
    for conv in conversations:
        label, drop = label_for(conv, windows)
        if drop:
            dropped += 1
            labels.append(None)
            continue
        labels.append(label)
        counts[label] = counts.get(label, 0) + 1
    return LabelledRows(conversations, labels), counts, dropped


def write_dataset_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(FEATURE_COLUMNS + ("label",))
        for r in rows:
            w.writerow([repr(v) for v in r.features] + [r.label])


def read_dataset_csv(path) -> tuple:
    """-> (features, labels) of a dataset.csv: features an array('d') of
    every row's FEATURE_COLUMNS values end to end, each float() of its
    cell, and labels the rows' label strings in order. A bad header or row
    raises ValueError."""
    columns = list(FEATURE_COLUMNS + ("label",))
    features, labels = array("d"), []
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
            label = row.pop()
            try:
                features.extend(map(float, row))
            except ValueError as e:
                raise ValueError(f"{path}: row {n}: {e}") from e
            labels.append(label)
    return features, labels
