"""Median wall time of scoring one repaired spectrum against a clean image, per shape.

Two ways to the same MSE: ``idft2d`` of the repaired spectrum then ``psnr``
against the clean image (the spatial path), and ``spectral_mse`` of the
repaired spectrum against the clean image's spectrum (Parseval). The second
is timed only where the source tree has ``transform.spectral_mse``, so an
earlier commit reports the spatial path alone. Four shapes: 256x256 (the
bench images), 257x256 and 256x320 (two of the off-grid workload's shapes;
257 is prime) and 1024x1024. The clean image is filtered noise
(``make_filtered_field``, sigma 1.2) quantized to 8 bits; the repaired
spectrum is its notch repair after an on-grid sinusoid was added, and both
spectra are computed once before timing.

    python benchmarks/score.py                        # time ./src, print only
    python benchmarks/score.py --src OTHER/src --label parent --json BENCH_14.json
    python benchmarks/score.py --label change --json BENCH_14.json

The options are those of ``benchmarks/harness.py``.
"""

from __future__ import annotations

import sys

import harness

SHAPES = ((256, 256), (257, 256), (256, 320), (1024, 1024))
REPEATS = 25  # timed calls per shape and path, after one untimed call


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, argv)
    import demoire
    from demoire import transform
    from demoire.synth import make_filtered_field

    result = {}
    for h, w in SHAPES:
        clean = demoire.read_pgm(demoire.write_pgm(make_filtered_field(h, w, sigma=1.2, seed=0)))
        moire = demoire.MoireSpec((demoire.MoireComponent(20.0, (h // 6) / h, (w // 5) / w, 0.3),))
        params = demoire.RepairParams()
        noisy_spec = demoire.dft2d(demoire.synthesize_moire(clean, moire))
        peaks = demoire.detect_peaks(noisy_spec, params)
        repaired = demoire.notch_reject(noisy_spec, peaks, params)
        timings = {"idft2d+psnr": harness.time_calls(lambda: demoire.psnr(clean, demoire.idft2d(repaired)), REPEATS)}
        if hasattr(transform, "spectral_mse"):
            clean_spec = demoire.dft2d(clean)
            timings["spectral_mse"] = harness.time_calls(lambda: transform.spectral_mse(clean_spec, repaired), REPEATS)
        result[f"{h}x{w}"] = timings
    for name, r in result.items():
        for path, t in r.items():
            print(harness.describe(args.label, f"{name} {path}", t))
    harness.save(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
