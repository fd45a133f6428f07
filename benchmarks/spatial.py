"""Median wall time of one call of each spatial filter on a 256x256 image.

The image is the first bench image (``default_bench_images``) with the first
on-grid corpus pattern added, quantized to 8 bits as ``denoise`` reads it.
Twelve sets: each of the six filters at its defaults (``mode`` runs the
local kind), and ``mode_filter`` with the global kind at windows 3, 5, 9, 15
and 21 (bin width 8, the default).

    python benchmarks/spatial.py                        # time ./src, print only
    python benchmarks/spatial.py --src OTHER/src --label parent --json BENCH_8.json
    python benchmarks/spatial.py --label change --json BENCH_8.json

The options are those of ``benchmarks/harness.py``.
"""

from __future__ import annotations

import sys

import harness

SIZE = 256
GLOBAL_WINDOWS = (3, 5, 9, 15, 21)
REPEATS = 9  # timed calls per set, after one untimed call


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, argv)
    import demoire
    from demoire.noise import default_noise_corpus
    from demoire.synth import default_bench_images

    _, clean = default_bench_images(SIZE)[0]
    _, spec = default_noise_corpus(SIZE, SIZE)[0]
    img = demoire.read_pgm(demoire.write_pgm(demoire.synthesize_moire(clean, spec)))
    calls = {
        "median": lambda: demoire.median_filter(img, demoire.MedianParams()),
        "mode": lambda: demoire.mode_filter(img),
        "bilateral": lambda: demoire.bilateral_filter(img, demoire.BilateralParams()),
        "diffusion": lambda: demoire.anisotropic_diffusion(img, demoire.DiffusionParams()),
        "tv": lambda: demoire.tv_denoise(img, demoire.TvParams()),
        "nlm": lambda: demoire.nlm_denoise(img, demoire.NlmParams()),
    }
    for window in GLOBAL_WINDOWS:
        calls[f"mode global window {window}"] = lambda window=window: demoire.mode_filter(img, window, "global")
    result = {}
    for name, call in calls.items():
        result[name] = harness.time_calls(call, REPEATS)
        print(harness.describe(args.label, f"{name} {SIZE}x{SIZE}", result[name]), flush=True)
    harness.save(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
