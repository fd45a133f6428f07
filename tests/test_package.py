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


def test_cli_import_loads_only_the_pipeline_modules():
    code = "import sys, demoire.cli; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'demoire'))"
    src = str(Path(demoire.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    names = ("", ".cli", ".core", ".noise", ".spatial", ".spectral", ".transform")
    assert out.split() == [f"demoire{suffix}" for suffix in names]
