"""Median wall time of one ``read_pgm`` and one ``write_pgm`` call, per format
and image size.

Four sets: P2 ("ascii") and P5 ("binary") files of a 257x256 image (the
off-grid workload's odd shape) and a 1024x1024 image. Each image is filtered
noise (``make_filtered_field``, sigma 1.2) quantized to 8 bits, so the P2 text
has the one- to three-digit mix of a photographic image. The file bytes are
encoded once before timing; reads decode those bytes and writes encode the
image, so no file system work is timed.

    python benchmarks/pgm.py                        # time ./src, print only
    python benchmarks/pgm.py --src OTHER/src --label parent --json BENCH_7.json
    python benchmarks/pgm.py --label change --json BENCH_7.json

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
SHAPES = ((257, 256), (1024, 1024))
FORMATS = {"p2": "ascii", "p5": "binary"}
REPEATS = 15  # timed calls per set and direction, after one untimed call


def quartiles_ms(call) -> dict:
    call()
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    q1, q2, q3 = np.percentile(samples, [25, 50, 75]) * 1000.0
    return {"median_ms": round(q2, 3), "q1_ms": round(q1, 3), "q3_ms": round(q3, 3), "calls": len(samples)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree holding the demoire package")
    parser.add_argument("--label", default="current", help="key of this result in --json")
    parser.add_argument("--json", help="merge the result into this JSON file")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import demoire
    from demoire.synth import make_filtered_field

    result = {}
    for h, w in SHAPES:
        img = demoire.read_pgm(demoire.write_pgm(make_filtered_field(h, w, sigma=1.2, seed=0)))
        for name, fmt in FORMATS.items():
            data = demoire.write_pgm(img, fmt)
            result[f"{name} {h}x{w}"] = {
                "bytes": len(data),
                "read": quartiles_ms(lambda: demoire.read_pgm(data)),
                "write": quartiles_ms(lambda: demoire.write_pgm(img, fmt)),
            }
    for name, r in result.items():
        for op in ("read", "write"):
            t = r[op]
            print(f"{args.label}: {name} ({r['bytes']} bytes): {op}_pgm {t['median_ms']:.2f} ms/call "
                  f"(IQR {t['q1_ms']:.2f}-{t['q3_ms']:.2f}, {t['calls']} calls)")
    if args.json:
        path = Path(args.json)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.setdefault("host", {}).update(
            cpus=os.cpu_count(), machine=platform.machine(), python=platform.python_version(), numpy=np.__version__
        )
        doc.setdefault("results", {})[args.label] = result
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
