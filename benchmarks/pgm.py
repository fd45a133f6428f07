"""Median wall time of one ``read_pgm`` and one ``write_pgm`` call, per format
and image size.

Five sets: P2 ("ascii") and P5 ("binary") files of a 257x256 image (the
off-grid workload's odd shape) and a 1024x1024 image, plus the 257x256 image
as P2 with every value zero-padded to four digits ("p2-padded", read only;
``write_pgm`` never pads). Each image is filtered noise
(``make_filtered_field``, sigma 1.2) quantized to 8 bits, so the P2 text has
the one- to three-digit mix of a photographic image. The file bytes are
encoded once before timing; reads decode those bytes and writes encode the
image, so no file system work is timed.

    python benchmarks/pgm.py                        # time ./src, print only
    python benchmarks/pgm.py --src OTHER/src --label parent --json BENCH_7.json
    python benchmarks/pgm.py --label change --json BENCH_7.json

The options are those of ``benchmarks/harness.py``.
"""

from __future__ import annotations

import sys

import harness
import numpy as np

SHAPES = ((257, 256), (1024, 1024))
PADDED_SHAPE = (257, 256)
FORMATS = {"p2": "ascii", "p5": "binary"}
REPEATS = 15  # timed calls per set and direction, after one untimed call


def zero_padded_p2(img) -> bytes:
    rows = np.asarray(img.pixels, dtype=np.int64).tolist()
    body = "\n".join(" ".join(f"{v:04d}" for v in row) for row in rows)
    return f"P2\n{img.width} {img.height}\n255\n{body}\n".encode("ascii")


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, argv)
    import demoire
    from demoire.synth import make_filtered_field

    result = {}
    for h, w in SHAPES:
        img = demoire.read_pgm(demoire.write_pgm(make_filtered_field(h, w, sigma=1.2, seed=0)))
        for name, fmt in FORMATS.items():
            data = demoire.write_pgm(img, fmt)
            result[f"{name} {h}x{w}"] = {
                "bytes": len(data),
                "read": harness.time_calls(lambda: demoire.read_pgm(data), REPEATS),
                "write": harness.time_calls(lambda: demoire.write_pgm(img, fmt), REPEATS),
            }
        if (h, w) == PADDED_SHAPE:
            padded = zero_padded_p2(img)
            assert np.array_equal(demoire.read_pgm(padded).pixels, img.pixels)
            result[f"p2-padded {h}x{w}"] = {
                "bytes": len(padded),
                "read": harness.time_calls(lambda: demoire.read_pgm(padded), REPEATS),
            }
    for name, r in result.items():
        for op in ("read", "write"):
            if op in r:
                print(harness.describe(args.label, f"{name} ({r['bytes']} bytes): {op}_pgm", r[op]))
    harness.save(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
