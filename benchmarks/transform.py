"""Median wall time of one ``dft2d`` and one ``idft2d`` call, per image shape.

Four shapes: 256x256 (the bench images), 257x256 and 256x320 (two of the
off-grid workload's shapes; 257 is prime) and 1024x1024. Each image is
filtered noise (``make_filtered_field``, sigma 1.2) quantized to 8 bits.
``idft2d`` inverts the spectrum ``dft2d`` gave for that image, computed once
before timing, so each direction is timed on its own.

    python benchmarks/transform.py                        # time ./src, print only
    python benchmarks/transform.py --src OTHER/src --label parent --json BENCH_10.json
    python benchmarks/transform.py --label change --json BENCH_10.json

The options are those of ``benchmarks/harness.py``.
"""

from __future__ import annotations

import sys

import harness

SHAPES = ((256, 256), (257, 256), (256, 320), (1024, 1024))
REPEATS = 25  # timed calls per shape and direction, after one untimed call


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, argv)
    import demoire
    from demoire.synth import make_filtered_field

    result = {}
    for h, w in SHAPES:
        img = demoire.read_pgm(demoire.write_pgm(make_filtered_field(h, w, sigma=1.2, seed=0)))
        spec = demoire.dft2d(img)
        result[f"{h}x{w}"] = {
            "dft2d": harness.time_calls(lambda: demoire.dft2d(img), REPEATS),
            "idft2d": harness.time_calls(lambda: demoire.idft2d(spec), REPEATS),
        }
    for name, r in result.items():
        for op, t in r.items():
            print(harness.describe(args.label, f"{name} {op}", t))
    harness.save(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
