"""Spans recorded from outside the package.

The traced run replaces public functions of iiotsim with wrappers that
record (name, start, end, parent) in memory. Each wrapper is installed where
the caller resolves the name: `harness` imports `capture_export` and
`write_capture_jsonl` by name, and `cli` imports `read_capture_jsonl` and
`cross_validate` by name, so those are patched on the importing module.
"""

import functools
import time

# estimator class name -> model key used in metric names
MODEL_KEYS = {"DecisionTreeClassifier": "dt", "RandomForestClassifier": "rf",
              "GaussianNBClassifier": "nb", "LogisticRegressionOvR": "lr",
              "KNeighborsClassifier": "knn"}

# analytics function -> layer name
ANALYTICS_LAYERS = {
    "build_conversations": "analytics.conversations",
    "write_conn_log": "analytics.conn_log_write",
    "label_dataset": "analytics.label",
    "write_dataset_csv": "analytics.dataset_write",
    "response_times": "analytics.response_times",
    "jitter_series": "analytics.jitter_series",
    "throughput_series": "analytics.throughput_series",
    "plc_request_rates": "analytics.plc_request_rates",
    "packet_size_stats": "analytics.packet_size_stats",
    "read_conn_log": "hunt.read_conn_log",
    "read_dataset_csv": "detect.read_dataset",
}


class Tracer:
    """In-memory span list; spans nest by call order in one thread."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or None]
        self._open = []

    def patch(self, owner, attr, name):
        """Replace owner.attr with a wrapper that records a span per call.
        name is a string, or a function of the call's positional arguments
        that returns one."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name,
                    time.monotonic(), None,
                    self._open[-1] if self._open else None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._open.pop()

        setattr(owner, attr, traced)


def self_times(spans) -> dict:
    """Layer name -> summed self time: each span's duration minus the part
    its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out = {}
    for (name, start, end, _), child in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start) - child
    return out


def instrument(tracer: Tracer) -> None:
    """Wrap every public function the benchmark times in a span."""
    from iiotsim import analytics, cli, harness, historian, hunt
    from iiotsim import plan as planmod
    from iiotsim.detect import estimators

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "cmd_report", "cli.report")
    tracer.patch(cli, "cmd_hunt", "cli.hunt")
    tracer.patch(cli, "cmd_detect", "cli.detect")
    tracer.patch(cli, "read_capture_jsonl", "netsim.capture_read")
    tracer.patch(cli, "cross_validate",
                 lambda args: f"detect.{args[0].kind.lower()}.cv")
    tracer.patch(planmod, "load_plan", "plan.load")
    tracer.patch(planmod, "calibrate", "plan.calibrate")
    tracer.patch(harness, "run", "harness.run")
    tracer.patch(harness.Build, "__init__", "harness.build")
    tracer.patch(harness.Build, "run", "netsim.simulate")
    tracer.patch(harness, "capture_export", "netsim.export")
    tracer.patch(harness, "write_capture_jsonl", "netsim.capture_write")
    tracer.patch(harness, "build_metrics_report", "harness.metrics")
    tracer.patch(historian.Historian, "write_csv", "historian.write")
    tracer.patch(hunt, "hunt_report", "hunt.hunt")
    for attr, layer in ANALYTICS_LAYERS.items():
        tracer.patch(analytics, attr, layer)
    for cls_name, key in MODEL_KEYS.items():
        cls = getattr(estimators, cls_name)
        tracer.patch(cls, "fit", f"detect.{key}.fit")
        tracer.patch(cls, "predict", f"detect.{key}.predict")
