"""The benchmark tracer (perfbench/spans.py) wraps fixed library names in
demoire.cli and demoire.spectral, and the commands must call through those
names at call time. A refactor that drops a name breaks every traced
benchmark run, and one that binds a function early loses its spans without
an error; this test catches both in the unit suite."""

import importlib.util
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import demoire.cli
import demoire.spatial
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


def test_tracer_records_denoise_spans(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    rng = np.random.default_rng(6)
    (tmp_path / "t.pgm").write_bytes(write_pgm(GrayImage(128.0 + rng.normal(0.0, 2.0, (32, 32)))))
    argv = ["denoise", "--in", str(tmp_path / "t.pgm"), "--out", str(tmp_path / "o.pgm"), "--method"]
    expected = {
        "spectral-median": {"transform.dft2d", "spectral.detect_peaks", "spectral.spectral_median", "transform.idft2d"},
        "mode": {"spatial.mode_filter"},
    }
    for method, names in expected.items():
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert demoire.cli.main([*argv, method]) == 0
        finally:
            tracer.uninstall()
        assert names <= {span.name for span in tracer.spans}


def test_row_strip_filters_trace_on_one_thread(monkeypatch, tmp_path):
    # The tracer assumes spans nest on one thread: the worker threads of every
    # spatial filter's row strips must not call a wrapped name.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    monkeypatch.setattr(demoire.spatial.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    threads = []
    begin = spans.Tracer.begin

    def begin_on_thread(self, name):
        threads.append(threading.get_ident())
        return begin(self, name)

    monkeypatch.setattr(spans.Tracer, "begin", begin_on_thread)
    rng = np.random.default_rng(7)
    (tmp_path / "t.pgm").write_bytes(write_pgm(GrayImage(128.0 + rng.normal(0.0, 9.0, (40, 36)))))
    argv = ["denoise", "--in", str(tmp_path / "t.pgm"), "--out", str(tmp_path / "o.pgm"), "--method"]
    filters = (
        (["median"], "spatial.median_filter"),
        (["mode"], "spatial.mode_filter"),
        (["mode", "--mode-kind", "global"], "spatial.mode_filter"),
        (["bilateral"], "spatial.bilateral_filter"),
        (["diffusion"], "spatial.anisotropic_diffusion"),
        (["tv"], "spatial.tv_denoise"),
        (["nlm"], "spatial.nlm_denoise"),
    )
    for method, name in filters:
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert demoire.cli.main([*argv, *method]) == 0
        finally:
            tracer.uninstall()
        assert [s.name for s in tracer.spans if s.name.startswith("spatial.")] == [name]
    assert set(threads) == {threading.get_ident()}


def test_cli_import_leaves_thread_pool_unloaded():
    # concurrent.futures costs milliseconds to import; the row strips run on
    # plain threads, so neither an import of the command line nor a filter pays it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, demoire.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
