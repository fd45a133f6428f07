"""The benchmark tracer (perfbench/spans.py) wraps fixed library names in
demoire.cli and demoire.spectral, and the commands must call through those
names at call time. A refactor that drops a name breaks every traced
benchmark run, and one that binds a function early loses its spans without
an error; this test catches both in the unit suite."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import demoire.cli
import demoire.spectral
from demoire import GrayImage, write_pgm

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_wraps_and_restores_library_functions(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses resolve the module by name
    spec.loader.exec_module(spans)
    targets = [(demoire.cli, name) for name in spans.CLI_FUNCTIONS]
    targets += [(demoire.spectral, name) for name in spans.SPECTRAL_FUNCTIONS]
    originals = [getattr(module, name) for module, name in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, n) is not f for (m, n), f in zip(targets, originals))
        # The commands must call through the wrapped names, or spans go missing.
        rng = np.random.default_rng(5)
        (tmp_path / "t.pgm").write_bytes(write_pgm(GrayImage(128.0 + rng.normal(0.0, 2.0, (32, 32)))))
        argv = ["bench", "--images", str(tmp_path), "--out", str(tmp_path / "b.csv")]
        assert demoire.cli.main([*argv, "--methods", "notch,spectral-median,median"]) == 0
        recorded = {span.name for span in tracer.spans}
        assert {"spectral.detect_peaks", "spectral.notch_reject", "spectral.spectral_median"} <= recorded
        assert "spatial.median_filter" in recorded
    finally:
        tracer.uninstall()
    assert all(getattr(m, n) is f for (m, n), f in zip(targets, originals))
