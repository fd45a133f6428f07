"""The public surface: each module's __all__ is the one list of its public names,
and the package re-exports exactly their union."""

import os
import subprocess
import sys
from pathlib import Path

import demoire
from demoire import core, noise, spatial, spectral, synth, transform

EXPORTING = (core, noise, spatial, spectral, transform)


def test_no_name_exported_twice():
    # Two modules exporting one name would leave whichever star import runs last.
    assert len(demoire.__all__) == len(set(demoire.__all__))


def test_all_is_the_union_of_the_module_lists():
    assert sorted(demoire.__all__) == sorted(name for module in EXPORTING for name in module.__all__)


def test_each_name_is_its_modules_object():
    for module in EXPORTING:
        for name in module.__all__:
            assert getattr(demoire, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_synth_stays_unexported():
    assert not set(synth.__all__) & (set(demoire.__all__) | set(vars(demoire)))


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args``, importing this checkout's demoire."""
    src = str(Path(demoire.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_cli_import_loads_only_the_pipeline_modules():
    code = "import sys, demoire.cli; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'demoire'))"
    run = _python("-c", code)
    assert run.returncode == 0, run.stderr
    names = ("", ".cli", ".core", ".noise", ".spatial", ".spectral", ".transform")
    assert run.stdout.split() == [f"demoire{suffix}" for suffix in names]


def test_cli_module_runs_main(tmp_path):
    image = tmp_path / "a.pgm"
    image.write_bytes(b"P2\n2 2\n255\n0 1\n2 3\n")
    run = _python("-m", "demoire.cli", "psnr", "--ref", str(image), "--test", str(image))
    assert (run.returncode, run.stdout) == (0, "psnr_db=inf\n")
    assert _python("-m", "demoire.cli").returncode == 2
