"""Median wall time of one ``detect_peaks`` call, per input set.

Eight sets, and a ninth where the timed tree has it: the 24 acceptance-bench
cases (the four 256x256 bench images x the six on-grid corpus patterns), with
no base and, as ``demoire bench`` calls it, against the clean spectrum; for
each of 240x256, 256x320 and 257x256 four off-grid cases (filtered-noise
textures with two sinusoids 0.37 and 0.29 bin off the grid); and 256x256
spectra on which the tier-1 count bound of ``spectral._exceeds_background``
rules out few bins: a flat spectrum with a near-zero bin on every third row
and column (no peaks), and a white spectrum at thresholds 3, 1.5 and 1.2
(hundreds to thousands of peaks, so greedy non-maximum suppression does real
work). The flat and white spectra are drawn as half planes, as a real image's
spectrum is stored, and completed as Hermitian in their self-mirror columns,
as a Spectrum must be, so a tree that checks that symmetry accepts them and
every tree sees the same magnitudes. Spectra are computed in dft2d order
before timing, so no transform is timed. Each call gets a fresh copy of its
spectrum, made outside the timer, so a tree that keeps a spectrum's magnitude
plane builds it inside every timed call, as a pipeline run does once per
spectrum. Where the timed tree has the tier-1 bound, each set also reports
the share of the bins tier 1 scans that it keeps for the exact count: the
whole plane, a column band around the half plane, or the half plane, as the
tree scans.

The set against the clean spectrum runs only where ``detect_peaks`` takes a
``base``. Its noisy spectra are built in closed form (``moire_spectrum``), so
they share every untouched bin with the clean one, as in ``bench``. Each
image gets a fresh clean spectrum per pass, so its first timed case also
builds the clean spectrum's magnitude and analysis; ``mean_ms`` spreads that
over the image's six cases.

    python benchmarks/detect.py                        # time ./src, print only
    python benchmarks/detect.py --src OTHER/src --label parent --json BENCH_6.json
    python benchmarks/detect.py --label change --json BENCH_6.json

The options are those of ``benchmarks/harness.py``.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time

import harness
import numpy as np

OFFGRID_SHAPES = ((240, 256), (256, 320), (257, 256))
REPEATS = 10  # timed passes over each set
WHITE_THRESHOLDS = (3.0, 1.5, 1.2)


def bench_spectra(demoire):
    from demoire.noise import default_noise_corpus
    from demoire.synth import default_bench_images

    return [
        demoire.dft2d(demoire.synthesize_moire(img, spec))
        for _, img in default_bench_images(256)
        for _, spec in default_noise_corpus(*img.shape)
    ]


def offgrid_spectra(demoire, h: int, w: int, cases: int = 4):
    from demoire.synth import make_filtered_field

    spectra = []
    for seed in range(cases):
        rng = np.random.default_rng([h, w, seed])
        comps = tuple(
            demoire.MoireComponent(
                float(rng.uniform(15.0, 30.0)),
                (int(rng.integers(20, 70)) + 0.37) / h,
                (int(rng.integers(-70, 70)) + 0.29) / w,
                float(rng.uniform(0.0, 2 * np.pi)),
            )
            for _ in range(2)
        )
        img = make_filtered_field(h, w, sigma=0.7, seed=seed)
        noisy = demoire.synthesize_moire(img, demoire.MoireSpec(comps))
        spectra.append(demoire.dft2d(noisy))
    return spectra


def half_plane_spectrum(demoire, half: np.ndarray, w: int):
    """The Spectrum of width ``w`` whose half plane is ``half``, completed as
    Hermitian in place: in the self-mirror columns (0, and w/2 for even w)
    each row below its mirror -u mod H takes the conjugate of the mirror's
    bin, and each bin that is its own mirror keeps its real part."""
    h = half.shape[0]
    u = np.arange(h)
    lower, point = u > -u % h, u == -u % h
    for v in {0, w // 2} if w % 2 == 0 else {0}:
        half[lower, v] = np.conj(half[-u[lower] % h, v])
        half[point, v] = half[point, v].real
    return demoire.Spectrum(half, w)


def lattice_spectrum(demoire, h: int = 256, w: int = 256):
    half = np.ones((h, w // 2 + 1), dtype=complex)
    half[::3, ::3] = 1e-3  # nearly every 3x3 tile holds one, so tile minima rule out few bins
    return half_plane_spectrum(demoire, half, w)


def white_spectrum(demoire, h: int = 256, w: int = 256):
    rng = np.random.default_rng([h, w])
    shape = (h, w // 2 + 1)
    return half_plane_spectrum(demoire, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), w)


def bench_cases_with_base(demoire):
    from demoire.noise import default_noise_corpus
    from demoire.synth import default_bench_images

    cases = []
    for _, img in default_bench_images(256):
        clean = demoire.dft2d(img)
        spectra = [demoire.moire_spectrum(clean, s.components) for _, s in default_noise_corpus(*img.shape)]
        cases.append((clean, spectra))
    return cases


def fresh(spec):
    """A copy of ``spec`` with none of its derived planes built yet."""
    return dataclasses.replace(spec)


def warm_up(demoire, spectra, params):
    """One untimed detection per spectrum, which takes first-call allocations
    and imports out of the timing. Returns the mean share of the bins tier 1
    scans that its count bound keeps, or None if the timed tree has no such
    bound."""
    spectral = demoire.spectral
    count_bound = getattr(spectral, "_count_bound", None)
    kept = []

    def recording(padded, limit):
        bound = count_bound(padded, limit)
        kept.append(np.count_nonzero(bound >= spectral._annulus_footprint().sum() // 2) / bound.size)
        return bound

    if count_bound is not None:
        spectral._count_bound = recording
    try:
        for spec in spectra:
            demoire.detect_peaks(fresh(spec), params)
    finally:
        if count_bound is not None:
            spectral._count_bound = count_bound
    return round(float(np.mean(kept)), 4) if kept else None


def median_ms(demoire, spectra, threshold: float | None = None) -> dict:
    params = demoire.RepairParams() if threshold is None else demoire.RepairParams(detect_threshold=threshold)
    share = warm_up(demoire, spectra, params)
    samples = []
    for _ in range(REPEATS):
        for spec in spectra:
            cold = fresh(spec)
            started = time.perf_counter()
            demoire.detect_peaks(cold, params)
            samples.append(time.perf_counter() - started)
    result = harness.quartiles_ms(samples)
    if share is not None:
        result["tier1_share"] = share
    return result


def median_ms_with_base(demoire, cases) -> dict:
    """Per case, over REPEATS passes after one untimed pass; each pass starts from fresh clean spectra."""
    params = demoire.RepairParams()
    samples = []
    for repeat in range(REPEATS + 1):
        for clean, spectra in cases:
            base = fresh(clean)
            for spec in spectra:
                cold = fresh(spec)
                started = time.perf_counter()
                demoire.detect_peaks(cold, params, base)
                if repeat:
                    samples.append(time.perf_counter() - started)
    return {**harness.quartiles_ms(samples), "mean_ms": round(float(np.mean(samples)) * 1000.0, 3)}


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, argv)
    import demoire

    sets = {"bench 256x256": (bench_spectra(demoire), None)}
    for h, w in OFFGRID_SHAPES:
        sets[f"offgrid {h}x{w}"] = (offgrid_spectra(demoire, h, w), None)
    sets["lattice 256x256"] = ([lattice_spectrum(demoire)], None)
    for threshold in WHITE_THRESHOLDS:
        sets[f"white 256x256 threshold {threshold:g}"] = ([white_spectrum(demoire)], threshold)
    result = {name: median_ms(demoire, spectra, threshold) for name, (spectra, threshold) in sets.items()}
    if "base" in inspect.signature(demoire.detect_peaks).parameters:
        cases = bench_cases_with_base(demoire)
        result["bench 256x256 against the clean spectrum"] = median_ms_with_base(demoire, cases)
    for name, r in result.items():
        share = f", tier 1 keeps {r['tier1_share']:.1%} of the bins it scans" if "tier1_share" in r else ""
        share += f", mean {r['mean_ms']:.2f} ms" if "mean_ms" in r else ""
        print(harness.describe(args.label, f"{name}: detect_peaks", r) + share)
    harness.save(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
