"""Median wall time of one ``notch_reject`` and one ``spectral_median`` call, per input set.

Four sets, built as ``benchmarks/detect.py`` builds them: the 24
acceptance-bench cases (the four 256x256 bench images x the six on-grid
corpus patterns, whose (12, 0) patterns put peaks in a self-mirror column),
and for each of 240x256, 256x320 and 257x256 four off-grid cases. Each
spectrum's peaks are detected once before timing, with the default
``RepairParams``, and every call repairs that spectrum with them. The
spectrum keeps the magnitude plane its detection built, so the timed median
repair reads it as a ``denoise`` run does. Each set also reports the mean
peaks and repaired half-plane bins per case.

The radius set times ``detect_peaks`` plus ``notch_reject`` on the first
bench case at repair radii 3, 46 and 2000, each with window 2r + 1, which
every tree accepts. Non-maximum suppression and the notch both stamp repair
disks, and every bin of a 256x256 plane lies within 182 bins of every other,
so radius 2000 stamps no more bins than 182 does.

    python benchmarks/repair.py                        # time ./src, print only
    python benchmarks/repair.py --src OTHER/src --label parent --json BENCH_29.json
    python benchmarks/repair.py --label change --json BENCH_29.json

The options are those of ``benchmarks/harness.py``.
"""

from __future__ import annotations

import sys
import time

import detect
import harness
import numpy as np

REPEATS = 20  # timed passes over each set, after one untimed pass
RADII = (3, 46, 2000)
# Timed calls per radius, after one untimed call: few, as a tree that builds the
# whole radius-2000 disk takes ~1.3 s per call.
RADIUS_REPEATS = 5


def repaired_bins(demoire, spec, peaks, params) -> int:
    """Half-plane bins within ``repair_radius`` of a peak or its mirror: those the repairs write."""
    h, w = spec.shape
    return int(demoire.spectral._contamination_mask(h, w, peaks, params.repair_radius)[:, : w // 2 + 1].sum())


def time_repair(repair, cases, params) -> dict:
    for spec, peaks in cases:
        repair(spec, peaks, params)
    samples = []
    for _ in range(REPEATS):
        for spec, peaks in cases:
            started = time.perf_counter()
            repair(spec, peaks, params)
            samples.append(time.perf_counter() - started)
    return harness.quartiles_ms(samples)


def time_radii(demoire, spec) -> dict:
    result = {}
    for radius in RADII:
        params = demoire.RepairParams(repair_radius=radius, window=2 * radius + 1)
        result[f"radius {radius}"] = harness.time_calls(
            lambda: demoire.notch_reject(spec, demoire.detect_peaks(spec, params), params), RADIUS_REPEATS
        )
    return result


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, argv)
    import demoire

    params = demoire.RepairParams()
    sets = {"bench 256x256": detect.bench_spectra(demoire)}
    for h, w in detect.OFFGRID_SHAPES:
        sets[f"offgrid {h}x{w}"] = detect.offgrid_spectra(demoire, h, w)
    result = {}
    for name, spectra in sets.items():
        cases = [(spec, demoire.detect_peaks(spec, params)) for spec in spectra]
        result[name] = {
            "notch_reject": time_repair(demoire.notch_reject, cases, params),
            "spectral_median": time_repair(demoire.spectral_median, cases, params),
            "peaks_per_case": float(np.mean([len(peaks) for _, peaks in cases])),
            "bins_per_case": float(np.mean([repaired_bins(demoire, *case, params) for case in cases])),
        }
    radii = time_radii(demoire, sets["bench 256x256"][0])
    for name, r in result.items():
        for op in ("notch_reject", "spectral_median"):
            print(harness.describe(args.label, f"{name}: {op}", r[op]))
        print(f"{args.label}: {name}: {r['peaks_per_case']:.1f} peaks, {r['bins_per_case']:.1f} repaired bins per case")
    for name, t in radii.items():
        print(harness.describe(args.label, f"bench 256x256 case 0: detect_peaks + notch_reject, {name}", t))
    harness.save(args, {**result, "bench 256x256 case 0 detect_peaks + notch_reject": radii})
    return 0


if __name__ == "__main__":
    sys.exit(main())
