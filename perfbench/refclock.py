"""A reference clock for a host whose speed changes from second to second.

On a shared vCPU the same Python work can take from 1x to 2x as long, in
phases of about a second, as neighbours come and go on the physical core;
process CPU time slows just as much, so it is no steadier than host time.
A probe process pinned to the CPU the benchmark runs on wakes every PERIOD_S
seconds, times a fixed piece of Python work and records (start, duration).
The host's speed after a probe is REF_PROBE_S over the median duration of
that probe and its two neighbours. ReferenceClock.at(t) integrates the speed
up to t, so ReferenceClock.span(t0, t1) is the time the interval would have
taken on a host as fast as the reference: a vCPU of a 2.1 GHz Xeon with no
neighbour load, on which the probe takes REF_PROBE_S.

    python3 perfbench/refclock.py    # the probe: prints its samples as JSON
                                     # when its standard input closes
"""

import bisect
import json
import select
import statistics
import subprocess
import sys
import time

PERIOD_S = 0.02
# the probe's duration at the reference speed
REF_PROBE_S = 0.0004


# the probe's table: larger than a core's private caches, as the
# simulator's and analytics' working sets are
TABLE_SIZE = 200_000
TABLE = {}


def probe_work(state=[0]) -> int:
    """The fixed work the probe times: 1500 lookups and stores at
    pseudo-random keys of TABLE, the dict and str work of the simulator and
    analytics, with their cache misses."""
    acc = 0
    key = state[0]
    for _ in range(1500):
        key = (key * 1103515245 + 12345) % TABLE_SIZE
        value = TABLE[key]
        acc += len(value)
        TABLE[key] = value
    state[0] = key
    return acc


def probe_main() -> None:
    TABLE.update((i, str(i)) for i in range(TABLE_SIZE))
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        t = time.monotonic()
        probe_work()
        samples.append((t, time.monotonic() - t))
    json.dump(samples, sys.stdout)


class Probe:
    """The probe process, started on the caller's CPUs (pin them first)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)

    def stop(self) -> "ReferenceClock":
        out, _ = self.proc.communicate(b"", timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError("the reference-clock probe failed")
        return ReferenceClock(json.loads(out))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class ReferenceClock:
    """Host time mapped to reference seconds by the probe's samples."""

    def __init__(self, samples):
        if len(samples) < 3:
            raise RuntimeError("the reference-clock probe took no samples")
        self.times = [t for t, _ in samples]
        took = [d for _, d in samples]
        self.median_probe_s = statistics.median(took)
        self.speed = [REF_PROBE_S
                      / statistics.median(took[max(i - 1, 0):i + 2])
                      for i in range(len(took))]
        self.ref = [0.0]
        for i in range(1, len(self.times)):
            self.ref.append(self.ref[-1] + (self.times[i] - self.times[i - 1])
                            * self.speed[i - 1])
        self.max_gap_s = max(b - a for a, b in zip(self.times, self.times[1:]))

    def at(self, t: float) -> float:
        """Reference seconds from the first sample to host time t."""
        i = max(bisect.bisect_right(self.times, t) - 1, 0)
        return self.ref[i] + (t - self.times[i]) * self.speed[i]

    def span(self, t0: float, t1: float) -> float:
        return self.at(t1) - self.at(t0)


if __name__ == "__main__":
    probe_main()
