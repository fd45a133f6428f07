"""What the scripts in ``benchmarks/`` share: the ``--src/--label/--json``
command line, quartiles of wall times, and the JSON file that keeps one
result per label next to a block describing the host.

``--src`` times another source tree, such as a checkout of an earlier commit.
``--json`` merges the result under ``--label`` into the file, keeping the
labels already there, so one file can hold a before/after pair.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def parse_args(doc: str, argv=None) -> argparse.Namespace:
    """Parse the shared command line and put ``--src`` first on the import path."""
    parser = argparse.ArgumentParser(description=doc, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree holding the demoire package")
    parser.add_argument("--label", default="current", help="key of this result in --json")
    parser.add_argument("--json", help="merge the result into this JSON file")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    return args


def quartiles_ms(samples_s) -> dict:
    """Median and quartiles of wall times given in seconds, in milliseconds."""
    q1, q2, q3 = np.percentile(samples_s, [25, 50, 75]) * 1000.0
    return {"median_ms": round(q2, 3), "q1_ms": round(q1, 3), "q3_ms": round(q3, 3), "calls": len(samples_s)}


def time_calls(call, repeats: int) -> dict:
    """Quartiles of ``repeats`` timed calls, after one untimed call."""
    call()
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return quartiles_ms(samples)


def describe(label: str, name: str, t: dict) -> str:
    return (f"{label}: {name} {t['median_ms']:.2f} ms/call "
            f"(IQR {t['q1_ms']:.2f}-{t['q3_ms']:.2f}, {t['calls']} calls)")


def save(args: argparse.Namespace, result: dict) -> None:
    """Merge ``result`` under ``args.label`` into ``args.json``, if given."""
    if not args.json:
        return
    path = Path(args.json)
    doc = json.loads(path.read_text()) if path.exists() else {}
    # cpus_available is the number of row strips every spatial filter runs.
    doc.setdefault("host", {}).update(
        cpus=os.cpu_count(),
        cpus_available=len(os.sched_getaffinity(0)),
        machine=platform.machine(),
        python=platform.python_version(),
        numpy=np.__version__,
    )
    doc.setdefault("results", {})[args.label] = result
    path.write_text(json.dumps(doc, indent=1) + "\n")
