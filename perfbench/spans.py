"""In-memory span tracing of the demoire library, applied from outside.

The command line resolves its library functions through module globals at
call time: ``demoire.cli`` for everything a command calls directly, and
``demoire.spectral`` for the steps ``denoise_moire`` chains together. While a
:class:`Tracer` is installed, each of those names is replaced by a wrapper
that records one span per call: name, start, end, parent span and op id.
Nothing in the package is edited, and :meth:`Tracer.uninstall` restores the
original functions.

A span's self time is its duration minus the time of its child spans. Calls
nest strictly (one thread), so the children of a span never overlap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import demoire.cli
import demoire.spectral

# Functions wrapped in each module, with the span name they are reported
# under. ``read_pgm`` is reported per input format (``.p2`` / ``.p5``).
CLI_FUNCTIONS = {
    "read_pgm": "core.read_pgm",
    "write_pgm": "core.write_pgm",
    "psnr": "core.psnr",
    "synthesize_moire": "noise.synthesize_moire",
    "dft2d": "transform.dft2d",
    "idft2d": "transform.idft2d",
    "center_shift": "transform.center_shift",
    "denoise_moire": "spectral.denoise_moire",
    "detect_peaks": "spectral.detect_peaks",
    "notch_reject": "spectral.notch_reject",
    "spectral_median": "spectral.spectral_median",
    "median_filter": "spatial.median_filter",
    "mode_filter": "spatial.mode_filter",
    "bilateral_filter": "spatial.bilateral_filter",
    "anisotropic_diffusion": "spatial.anisotropic_diffusion",
    "tv_denoise": "spatial.tv_denoise",
    "nlm_denoise": "spatial.nlm_denoise",
}
SPECTRAL_FUNCTIONS = ("dft2d", "idft2d", "center_shift", "detect_peaks", "notch_reject", "spectral_median")
REPAIR_SPANS = ("spectral.notch_reject", "spectral.spectral_median")
SPATIAL_SPANS = tuple(v for v in CLI_FUNCTIONS.values() if v.startswith("spatial."))


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    count: int | None = None  # bytes read, peaks found or bins repaired

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class OpRecord:
    """What the traced run needs to know about one op to normalize its spans."""

    id: int
    cases: int  # image x pattern cases the op denoises
    sinusoids: int  # injected sinusoids per case (0: no spectral work)
    latency_s: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    ops: list[OpRecord] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self) -> None:
        for attr, name in CLI_FUNCTIONS.items():
            self._patch(demoire.cli, attr, name)
        for attr in SPECTRAL_FUNCTIONS:
            self._patch(demoire.spectral, attr, CLI_FUNCTIONS[attr])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self._wrap(name, original))

    def begin(self, name: str) -> Span:
        op = self.ops[-1].id if self.ops else -1
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, op, parent, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "core.read_pgm":
                span_name += ".p2" if bytes(args[0][:2]) == b"P2" else ".p5"
            span = self.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            # Counts are taken after the span closes so they cost the parent,
            # not the layer being timed.
            if name == "core.read_pgm":
                span.count = len(args[0])
            elif name == "spectral.detect_peaks":
                span.count = len(result)
            elif name in REPAIR_SPANS:
                span.count = int(np.count_nonzero(args[0].data != result.data))
            return result

        return traced

    def dump(self) -> list[list]:
        return [[s.id, s.name, s.op, s.parent, s.start, s.end] for s in self.spans]


def _per_op(total: float, n_ops: int) -> float:
    return total / n_ops if n_ops else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def aggregate(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-module metrics of a traced run: name -> (value, unit).

    Times and call counts are per op, so a layer that gets faster shows a
    smaller number even though a run of fixed length then does more ops.
    """
    n_ops = len(tracer.ops)
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def self_s(name: str) -> float:
        return _per_op(sum(s.self_s for s in by_name.get(name, ())), n_ops)

    def calls(name: str) -> float:
        return _per_op(len(by_name.get(name, ())), n_ops)

    op_s = _per_op(sum(op.latency_s for op in tracer.ops), n_ops)
    detect_calls = len(by_name.get("spectral.detect_peaks", ()))
    # A call that raised has no count.
    detect = [s for s in by_name.get("spectral.detect_peaks", ()) if s.count is not None]
    sinusoids = {op.id: op.sinusoids for op in tracer.ops}
    cases = sum(op.cases for op in tracer.ops if op.sinusoids)
    reads = by_name.get("core.read_pgm.p2", []) + by_name.get("core.read_pgm.p5", [])
    repairs = [s for name in REPAIR_SPANS for s in by_name.get(name, []) if s.count is not None]

    m: dict[str, tuple[float, str]] = {"op.latency_s": (op_s, "s/op")}
    for name in (
        "cli.main",
        "core.read_pgm.p2",
        "core.read_pgm.p5",
        "core.write_pgm",
        "core.psnr",
        "noise.synthesize_moire",
        "transform.dft2d",
        "transform.idft2d",
        "transform.center_shift",
        "spectral.denoise_moire",
        "spectral.detect_peaks",
        "spectral.notch_reject",
        "spectral.spectral_median",
        *SPATIAL_SPANS,
    ):
        m[f"{name}.self_s"] = (self_s(name), "s/op")
    m["core.read_pgm.bytes"] = (_per_op(sum(s.count for s in reads), n_ops), "B/op")
    for name in ("transform.dft2d", "transform.idft2d", "transform.center_shift"):
        m[f"{name}.calls"] = (calls(name), "calls/op")
    m["spectral.detect_peaks.share"] = (self_s("spectral.detect_peaks") / op_s if op_s else 0.0, "ratio")
    m["spectral.detect_peaks.calls_per_case"] = (detect_calls / cases if cases else 0.0, "calls/case")
    m["spectral.peaks"] = (_mean([s.count for s in detect]), "peaks/call")
    m["spectral.peaks_per_component"] = (
        _mean([s.count / (2 * sinusoids[s.op]) for s in detect]),
        "ratio",
    )
    m["spectral.repaired_bins"] = (_mean([s.count for s in repairs]), "bins/call")
    return m
