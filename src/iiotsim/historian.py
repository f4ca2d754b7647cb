"""Time-series historian shared by the edge gateway and the cloud tier."""

import csv
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

CSV_HEADER = ("Record_ID", "Time", "Device_ID", "Device_Type", "Measurement",
              "Function", "Content_Type")


class IsoStamp:
    """Call with ts_us for the ISO-8601 UTC text, to the millisecond, of
    epoch + ts_us. It keeps the text of the last second it formatted, so
    stamps within one second format only their milliseconds."""

    def __init__(self, epoch: datetime):
        self._base = epoch.replace(microsecond=0)
        self._base_us = epoch.microsecond
        self._second = None
        self._text = ""

    def __call__(self, ts_us: int) -> str:
        second, us = divmod(self._base_us + ts_us, 1_000_000)
        if second != self._second:
            self._second = second
            self._text = (self._base + timedelta(seconds=second)).strftime(
                "%Y-%m-%dT%H:%M:%S.")
        return f"{self._text}{us // 1000:03d}Z"


def parse_iso(text: str) -> datetime:
    """ISO-8601 text -> the UTC datetime it names; a time without an offset
    is UTC, whatever the machine's time zone."""
    t = datetime.fromisoformat(text.replace("Z", "+00:00"))
    return t.replace(tzinfo=t.tzinfo or timezone.utc).astimezone(timezone.utc)


@dataclass(slots=True)
class TelemetryRecord:
    ts_us: int
    device_id: str
    device_type: str
    measurement: float
    function: str
    content_type: str


class Historian:
    """Append-only store. A row's record id is its position from 1 and its
    time text comes from ts_us, so write_csv makes both as it writes."""

    def __init__(self, epoch: datetime):
        self.epoch = epoch
        self.rows: list[TelemetryRecord] = []
        self.iso_ms = IsoStamp(epoch)
        self._labels: dict[str, str] = {}   # one object per label text

    def insert(self, ts_us: int, device_id: str, device_type: str,
               measurement: float, function: str, content_type: str) -> int:
        """Store one row; returns its record id."""
        label = self._labels.setdefault
        self.rows.append(TelemetryRecord(
            ts_us, label(device_id, device_id),
            label(device_type, device_type), float(measurement),
            label(function, function), label(content_type, content_type)))
        return len(self.rows)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_HEADER)
            w.writerows((i, self.iso_ms(r.ts_us), r.device_id, r.device_type,
                         repr(r.measurement), r.function, r.content_type)
                        for i, r in enumerate(self.rows, 1))
