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


@dataclass
class TelemetryRecord:
    record_id: int
    ts_us: int
    time_iso: str
    device_id: str
    device_type: str
    measurement: float
    function: str
    content_type: str

    def csv_row(self):
        return (self.record_id, self.time_iso, self.device_id,
                self.device_type, repr(self.measurement), self.function,
                self.content_type)


class Historian:
    """Append-only store with gapless, strictly increasing record ids."""

    def __init__(self, epoch: datetime):
        self.epoch = epoch
        self.rows: list[TelemetryRecord] = []
        self._next_id = 1
        self.iso_ms = IsoStamp(epoch)

    def insert(self, ts_us: int, device_id: str, device_type: str,
               measurement: float, function: str, content_type: str) -> int:
        rec = TelemetryRecord(self._next_id, ts_us, self.iso_ms(ts_us),
                              device_id, device_type, float(measurement),
                              function, content_type)
        self._next_id += 1
        self.rows.append(rec)
        return rec.record_id

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_HEADER)
            for r in self.rows:
                w.writerow(r.csv_row())
