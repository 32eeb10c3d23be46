"""Span tracing installed from outside the library, for the per-layer metrics.

``bind`` finds every module-level binding of each traced function inside the
``sphermoments`` package and ``installed`` points them at timing wrappers, so
calls made through a name imported elsewhere (``oracle`` and ``distributions``
import ``jacobi_eigh`` by name, ``anisotropy`` imports ``vmf_covariance``,
``cli`` imports ``moment_report_to_json``) are seen too.  The library is not
edited.

A span's self time is its duration minus the time its child spans cover.
Statistics are aggregated for every span; the raw spans of the first
``keep_spans`` are kept in memory and written as JSON lines at the end.
"""

import functools
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, function, span name); functions sharing a span name form one layer entry
TARGETS = (
    ("sphermoments._linalg", "jacobi_eigh", "linalg.jacobi_eigh"),
    ("sphermoments._kernels_py", "_ratio_lentz", "kernels.lentz"),
    ("sphermoments._kernels_py", "_bessel_asymptotic_scaled", "kernels.asymptotic"),
    ("sphermoments.specfun", "bessel_ratio", "specfun.bessel_ratio"),
    ("sphermoments.specfun", "bessel_i", "specfun.bessel_i"),
    ("sphermoments.distributions", "validate", "distributions.validate"),
    ("sphermoments.distributions", "distribution_from_json", "distributions.from_json"),
    ("sphermoments.distributions", "density_many", "distributions.density_many"),
    ("sphermoments.moments", "vmf_mean", "moments.closed_form"),
    ("sphermoments.moments", "vmf_covariance", "moments.closed_form"),
    ("sphermoments.moments", "vmf_moments", "moments.closed_form"),
    ("sphermoments.moments", "bimodal_vmf_moments", "moments.closed_form"),
    ("sphermoments.moments", "peanut_moments", "moments.closed_form"),
    ("sphermoments.anisotropy", "symmetric_eigen", "anisotropy.symmetric_eigen"),
    ("sphermoments.anisotropy", "diffusion_tensor", "anisotropy.diffusion_tensor"),
    ("sphermoments.anisotropy", "vmf_closed_form_report", "anisotropy.closed_route"),
    ("sphermoments.anisotropy", "peanut_closed_form_report", "anisotropy.closed_route"),
    ("sphermoments.anisotropy", "anisotropy_report", "anisotropy.generic_route"),
    ("sphermoments.reports", "moment_report_to_json", "reports.to_json"),
    ("sphermoments.cli", "_closed_form_report", "cli.route"),
    ("sphermoments.cli", "_anisotropy_report", "cli.route"),
    ("sphermoments.cli", "dumps", "cli.dumps"),
    ("sphermoments.cli", "main", "cli.main"),
    ("sphermoments.oracle", "quad_moments", "oracle.quad"),
    ("sphermoments.oracle", "mc_moments", "oracle.mc"),
    ("sphermoments.oracle", "sample_vmf", "oracle.sampler"),
    ("sphermoments.oracle", "sample_peanut", "oracle.sampler"),
)

REQUEST = "request"  # the benchmark's root span; its self time is the remainder

# span-name prefix -> layer, for the per-layer self-time totals
LAYERS = {
    "kernels": "specfun",
    "specfun": "specfun",
    "moments": "moments",
    "distributions": "distributions",
    "linalg": "anisotropy",
    "anisotropy": "anisotropy",
    "oracle": "oracle",
    "reports": "reports_cli",
    "cli": "reports_cli",
    REQUEST: "remainder",
}

# spans that must record calls on a workload, or the traced run fails
EXPECTED_CALLS = {
    "closed_form": (
        "linalg.jacobi_eigh", "distributions.validate", "anisotropy.symmetric_eigen",
        "distributions.from_json", "moments.closed_form", "reports.to_json", "cli.dumps",
    ),
    "sweep": (
        "specfun.bessel_ratio", "anisotropy.closed_route", "anisotropy.generic_route",
        "cli.dumps", "cli.main",
    ),
    "oracle": (
        "oracle.quad", "oracle.mc", "oracle.sampler", "distributions.density_many",
        "specfun.bessel_i",
    ),
}

# (span, measures) reported per request
SPAN_METRICS = (
    ("linalg.jacobi_eigh", ("calls", "self_ms")),
    ("distributions.validate", ("calls", "self_ms")),
    ("distributions.from_json", ("self_ms",)),
    ("distributions.density_many", ("calls", "self_ms")),
    ("anisotropy.symmetric_eigen", ("calls", "self_ms")),
    ("anisotropy.closed_route", ("calls",)),
    ("anisotropy.generic_route", ("calls",)),
    ("specfun.bessel_ratio", ("calls", "self_ms")),
    ("specfun.bessel_i", ("calls", "self_ms")),
    ("kernels.lentz", ("calls",)),
    ("kernels.asymptotic", ("calls",)),
    ("moments.closed_form", ("calls", "self_ms")),
    ("reports.to_json", ("self_ms",)),
    ("cli.dumps", ("self_ms",)),
    ("cli.main", ("self_ms",)),
    ("oracle.quad", ("calls", "self_ms")),
    ("oracle.mc", ("calls", "self_ms")),
    ("oracle.sampler", ("calls", "self_ms")),
)
ANISOTROPY_REPORT = ("anisotropy.closed_route", "anisotropy.generic_route",
                     "anisotropy.diffusion_tensor")


def _units(metric):
    if metric.endswith(".self_ms") or metric.endswith("_ms"):
        return "ms/req", "lower"
    if metric.endswith("acceptance_rate"):
        return "ratio", "higher"
    if metric in ("oracle.quad.nodes", "oracle.mc.samples", "anisotropy.closed_route.calls"):
        return "count/req", "higher"
    return "count/req", "lower"


class Tracer:
    """Spans with self time, per-name statistics and counters, single-threaded."""

    def __init__(self, keep_spans=50_000):
        self.keep_spans = keep_spans
        self.stack = []  # open frames: [name, start, child seconds, span id]
        self.stats = {}  # span name -> [calls, self seconds]
        self.counts = {}
        self.spans = []
        self.next_id = 0
        self.request_id = None
        self.requests = 0

    def open(self, name):
        frame = [name, time.perf_counter(), 0.0, self.next_id]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        stat = self.stats.setdefault(name, [0, 0.0])
        stat[0] += 1
        stat[1] += duration - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if span_id < self.keep_spans:
            self.spans.append((span_id, name, start, end,
                               parent[3] if parent else None, self.request_id))

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def enclosing(self, names):
        """Name of the innermost open span among ``names``, or None."""
        for frame in reversed(self.stack):
            if frame[0] in names:
                return frame[0]
        return None

    @contextmanager
    def request(self, request_id):
        self.request_id = request_id
        frame = self.open(REQUEST)
        try:
            yield
        finally:
            self.close(frame)
            self.requests += 1

    def wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def calls(self, name):
        return self.stats.get(name, (0, 0.0))[0]

    def self_seconds(self, *names):
        return sum(self.stats.get(name, (0, 0.0))[1] for name in names)

    def metrics(self):
        """Per-layer metrics, each per traced request: {name: (value, unit, better)}."""
        per = max(self.requests, 1)
        values = {}
        for span, measures in SPAN_METRICS:
            if "calls" in measures:
                values[f"{span}.calls"] = self.calls(span) / per
            if "self_ms" in measures:
                values[f"{span}.self_ms"] = 1e3 * self.self_seconds(span) / per
        values["anisotropy.report.self_ms"] = 1e3 * self.self_seconds(*ANISOTROPY_REPORT) / per
        values["oracle.quad.nodes"] = self.counts.get("oracle.quad.nodes", 0) / per
        values["oracle.mc.samples"] = self.counts.get("oracle.mc.samples", 0) / per
        attempted = self.counts.get("oracle.sampler.attempted", 0)
        values["oracle.sampler.acceptance_rate"] = (
            self.counts.get("oracle.sampler.useful", 0) / attempted if attempted else 0.0
        )
        layer_seconds = dict.fromkeys(LAYERS.values(), 0.0)
        for name, (_, seconds) in self.stats.items():
            layer_seconds[LAYERS[name.split(".")[0]]] += seconds
        for layer, seconds in layer_seconds.items():
            values[f"layer.{layer}.self_ms"] = 1e3 * seconds / per
        values["traced.request_ms"] = sum(layer_seconds.values()) * 1e3 / per
        return {name: (value, *_units(name)) for name, value in values.items()}

    def missing_calls(self, workload):
        return [span for span in EXPECTED_CALLS[workload] if self.calls(span) == 0]

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, request_id in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request_id}) + "\n")


def _count_points(tracer, args, result):
    """Density evaluations inside quadrature (nodes) and Monte Carlo (samples)."""
    owner = tracer.enclosing(("oracle.quad", "oracle.mc"))
    if owner is not None:
        counter = "oracle.quad.nodes" if owner == "oracle.quad" else "oracle.mc.samples"
        tracer.count(counter, int(np.shape(result)[0]))


def _count_proposals(tracer, args, batch):
    tracer.count("oracle.sampler.useful", len(batch.points))
    tracer.count("oracle.sampler.attempted", len(batch.points) / batch.acceptance_rate)


AFTER = {"distributions.density_many": _count_points, "oracle.sampler": _count_proposals}


def library_modules():
    return [module for name, module in sys.modules.items()
            if name == "sphermoments" or name.startswith("sphermoments.")]


def bindings(original):
    """(module, name) of every module-level binding of ``original`` in the library."""
    return [(module, key) for module in library_modules()
            for key, value in list(vars(module).items()) if value is original]


def replace_bindings(original, replacement):
    """Point every module-level name bound to ``original`` at ``replacement``."""
    for module, key in bindings(original):
        setattr(module, key, replacement)


def bind(tracer):
    """Wrap every target; returns (swaps, names of targets that do not exist).

    A swap is (module, name, original, wrapper); ``installed`` applies them.
    """
    swaps = []
    missing = []
    for module_name, attr, span in TARGETS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(original, span, AFTER.get(span))
        swaps += [(module, key, original, wrapper) for module, key in bindings(original)]
    return swaps, missing


@contextmanager
def installed(swaps):
    """The wrappers in place for the duration of the block."""
    for module, key, _, wrapper in swaps:
        setattr(module, key, wrapper)
    try:
        yield
    finally:
        for module, key, original, _ in swaps:
            setattr(module, key, original)
