"""Every name the benchmark's traced run wraps still exists, checked in
milliseconds instead of by a traced benchmark run."""

import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "spans.py")


class LookupTracer:
    """A tracer whose patch only looks the name up, as spans.Tracer.patch
    does first, and wraps nothing."""

    def __init__(self):
        self.names = []

    def patch(self, owner, attr, name):
        getattr(owner, attr)
        self.names.append((owner.__name__, attr))


def test_every_name_the_traced_benchmark_wraps_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = LookupTracer()
    spans.instrument(tracer)
    assert ("iiotsim.harness", "build_metrics_report") in tracer.names
    assert ("iiotsim.cli", "cmd_report") in tracer.names
