"""Detection must match the reference: the annulus median computed at every bin.

``detect_peaks`` needs the exact median only where at least half the annulus
lies below ``mag / threshold``. It tests that count in two tiers: an upper
bound for the whole plane from the minima of 3x3 tiles, then the exact count
on the bins the bound cannot rule out, and computes the median only for the
bins that pass both. These tests keep the full-plane median as the reference
and require identical ``PeakSet``s, including the cases where rounding, ties,
many surviving bins and chunked gathers decide. They also require the tier-1
bound never to fall below a brute-force count.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from demoire import (
    GrayImage,
    MoireComponent,
    MoireSpec,
    Peak,
    PeakSet,
    RepairParams,
    Spectrum,
    center_shift,
    detect_peaks,
    dft2d,
    synthesize_moire,
)
from demoire import spectral
from demoire.noise import default_noise_corpus
from demoire.synth import default_bench_images, make_filtered_field


def reference_background(mag):
    """Median magnitude over a 21x21 neighborhood with its 5x5 core removed.

    Computed in float32 in row chunks, at every bin.
    """
    h, w = mag.shape
    size, core = spectral.ANNULUS_SIZE, spectral.ANNULUS_CORE
    r = size // 2
    footprint = np.ones((size, size), dtype=bool)
    lo = r - core // 2
    footprint[lo : lo + core, lo : lo + core] = False
    padded = np.pad(mag.astype(np.float32), r, mode="wrap")
    windows = sliding_window_view(padded, (size, size))
    out = np.empty((h, w), dtype=np.float32)
    chunk = max(1, 8_000_000 // (w * size * size))
    for i0 in range(0, h, chunk):
        sel = windows[i0 : i0 + chunk, :, footprint]
        out[i0 : i0 + chunk] = np.median(sel, axis=2)
    return out


def reference_exceeds(mag, candidates, threshold):
    background = reference_background(mag).astype(np.float64)
    return (mag > threshold * background) & candidates


def reference_detect(spec, params, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(spectral, "_exceeds_background", reference_exceeds)
        return detect_peaks(spec, params)


def assert_same_detection(spec, params, monkeypatch):
    got = detect_peaks(spec, params)
    assert got == reference_detect(spec, params, monkeypatch)
    return got


@pytest.mark.parametrize(
    "img", [pytest.param(img, id=name) for name, img in default_bench_images(256)]
)
def test_bench_corpus_identical(img, monkeypatch):
    params = RepairParams()
    for _, spec in default_noise_corpus(*img.shape):
        peaks = assert_same_detection(dft2d(synthesize_moire(img, spec)), params, monkeypatch)
        assert len(peaks) >= 2


@pytest.mark.parametrize("shape,seed", [((257, 256), 1), ((256, 320), 2)])
def test_off_bin_sinusoids_identical(shape, seed, monkeypatch):
    h, w = shape
    rng = np.random.default_rng(seed)
    img = make_filtered_field(h, w, sigma=1.2, seed=seed)
    comps = tuple(
        MoireComponent(
            float(rng.uniform(15.0, 30.0)),
            float(rng.uniform(20.0, 70.0) + 0.37) / h,
            float(rng.uniform(-70.0, 70.0) + 0.29) / w,
            float(rng.uniform(0.0, 2 * np.pi)),
        )
        for _ in range(2)
    )
    spec = dft2d(synthesize_moire(img, MoireSpec(comps)))
    params = RepairParams()
    exceeding = spectral._exceeds_background(np.abs(spec.data), np.ones(shape, bool), 10.0)
    assert np.count_nonzero(exceeding) > 20  # leakage makes many bins exceed
    assert len(assert_same_detection(spec, params, monkeypatch)) > 4


def test_exceeds_mask_identical_off_bin():
    img = make_filtered_field(257, 256, sigma=0.7, seed=9)
    noisy = synthesize_moire(
        img, MoireSpec((MoireComponent(25.0, 40.4 / 257, 31.7 / 256, 0.5),))
    )
    mag = np.abs(dft2d(noisy).data)
    background = reference_background(mag).astype(np.float64)
    everywhere = np.ones(mag.shape, dtype=bool)
    for threshold in (2.0, 10.0, 37.5):
        got = spectral._exceeds_background(mag, everywhere, threshold)
        assert np.array_equal(got, mag > threshold * background)


def test_plateau_with_spike_ties(monkeypatch):
    data = np.full((64, 64), 5.0, dtype=complex)
    data[32 + 12, 32 + 3] = 500.0
    data[32 - 12, 32 - 3] = 500.0
    spec = center_shift(Spectrum(data, centered=True))
    peaks = assert_same_detection(spec, RepairParams(), monkeypatch)
    assert sorted((p.u, p.v) for p in peaks) == [(20, 29), (44, 35)]


def test_bin_exactly_at_threshold_does_not_exceed(monkeypatch):
    # Background is exactly 4.0 (float32 exact); the bin sits at 10 x 4.0.
    data = np.full((64, 64), 4.0, dtype=complex)
    data[32 + 12, 32 + 3] = 40.0
    data[32 - 12, 32 - 3] = 40.0
    spec = center_shift(Spectrum(data, centered=True))
    assert len(assert_same_detection(spec, RepairParams(), monkeypatch)) == 0
    data[32 + 12, 32 + 3] = np.nextafter(40.0, np.inf)
    data[32 - 12, 32 - 3] = np.nextafter(40.0, np.inf)
    peaks = assert_same_detection(center_shift(Spectrum(data, centered=True)), RepairParams(), monkeypatch)
    assert len(peaks) == 2


def test_wrapping_annulus_at_minimum_size(monkeypatch):
    img = GrayImage(np.full((16, 16), 120.0))
    noisy = synthesize_moire(img, MoireSpec((MoireComponent(30.0, 6 / 16, 6 / 16, 0.2),)))
    peaks = assert_same_detection(dft2d(noisy), RepairParams(), monkeypatch)
    assert sorted((p.u, p.v) for p in peaks) == [(2, 2), (14, 14)]
    textured = synthesize_moire(
        make_filtered_field(16, 16, sigma=0.7, seed=3),
        MoireSpec((MoireComponent(30.0, 5.3 / 16, 6.6 / 16, 0.2),)),
    )
    for threshold in (2.0, 10.0):
        assert_same_detection(
            dft2d(textured), RepairParams(detect_threshold=threshold), monkeypatch
        )


def reference_footprint():
    size, core = spectral.ANNULUS_SIZE, spectral.ANNULUS_CORE
    footprint = np.ones((size, size), dtype=bool)
    lo = size // 2 - core // 2
    footprint[lo : lo + core, lo : lo + core] = False
    return footprint


def brute_force_count(padded, limit):
    """Per bin, the annulus values below ``limit``: one compare per annulus cell."""
    h, w = limit.shape
    count = np.zeros((h, w), dtype=np.int64)
    for du, dv in np.argwhere(reference_footprint()):
        count += padded[du : du + h, dv : dv + w] < limit
    return count


@pytest.mark.parametrize("shape,seed", [((16, 16), 0), ((23, 37), 1), ((48, 40), 2)])
@pytest.mark.parametrize("sparse", [False, True])
def test_count_bound_never_below_exact_count(shape, seed, sparse):
    rng = np.random.default_rng(seed)
    if sparse:
        # Isolated low cells: a tile that misses one leaves the bound below the count.
        plane = np.full(shape, 10.0, dtype=np.float32)
        plane.flat[rng.choice(plane.size, 3, replace=False)] = 1.0
        limit = np.where(rng.random(shape) < 0.5, 5.0, 1.0).astype(np.float32)
    else:
        # Few levels make plateaus; limits drawn from the plane tie with its values.
        plane = rng.integers(0, 5, size=shape).astype(np.float32)
        smooth = rng.random(shape) < 0.5
        plane[smooth] = rng.rayleigh(2.0, size=np.count_nonzero(smooth)).astype(np.float32)
        limit = rng.choice(plane.ravel(), size=shape)
    limit[rng.random(shape) < 0.2] = 0.0
    limit[rng.random(shape) < 0.05] = np.inf
    padded = np.pad(plane, spectral.ANNULUS_SIZE // 2, mode="wrap")
    bound = spectral._count_bound(padded, limit)
    assert np.all(bound >= brute_force_count(padded, limit))
    assert np.all(bound[limit == 0.0] == 0)
    assert np.all(bound[limit == np.inf] == reference_footprint().sum())


@pytest.mark.parametrize("gather_limit", [1, 7 * spectral.ANNULUS_SIZE**2])
def test_chunked_gathers_identical(gather_limit, monkeypatch):
    img = make_filtered_field(64, 64, sigma=0.7, seed=5)
    noisy = synthesize_moire(img, MoireSpec((MoireComponent(25.0, 20.4 / 64, 13.7 / 64, 0.5),)))
    spec = dft2d(noisy)
    params = RepairParams(detect_threshold=2.0)
    bounds = []
    count_bound = spectral._count_bound
    monkeypatch.setattr(spectral, "_count_bound", lambda *a: bounds.append(count_bound(*a)) or bounds[-1])
    monkeypatch.setattr(spectral, "_GATHER_LIMIT", gather_limit)
    assert len(assert_same_detection(spec, params, monkeypatch)) >= 2
    chunk = max(1, gather_limit // spectral.ANNULUS_SIZE**2)
    assert np.count_nonzero(bounds[0] >= 208) > 3 * chunk


@pytest.mark.parametrize("shape", [(48, 40), (47, 41)])
@pytest.mark.parametrize("threshold,surviving", [(1.05, 0.25), (2.0, 0.0)])
def test_survivor_heavy_white_spectrum_identical(shape, threshold, surviving, monkeypatch):
    rng = np.random.default_rng(shape[0] + shape[1])
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spec = center_shift(Spectrum(data, centered=True))
    bound = spectral._count_bound(
        np.pad(np.abs(data).astype(np.float32), spectral.ANNULUS_SIZE // 2, mode="wrap"),
        (np.abs(data) / threshold).astype(np.float32),
    )
    assert np.count_nonzero(bound >= 208) >= surviving * data.size
    assert_same_detection(spec, RepairParams(detect_threshold=threshold), monkeypatch)


def pairwise_detect(spec, params):
    """Detection with greedy NMS as a pairwise loop, in centered order.

    Candidates, strongest first with ties on (u, v), are kept iff their
    toroidal distance to every kept peak exceeds repair_radius; the kept
    peaks' Hermitian mirrors are then added.
    """
    data = center_shift(spec).data
    h, w = data.shape
    cu, cv = h // 2, w // 2
    mag = np.abs(data)
    uu = (np.arange(h) - cu)[:, np.newaxis]
    vv = (np.arange(w) - cv)[np.newaxis, :]
    guard = params.resolved_guard(h, w)
    eligible = (uu * uu + vv * vv > guard * guard) & (mag > spectral.MAG_FLOOR_REL * mag.max())
    exceeds = reference_exceeds(mag, eligible, params.detect_threshold)
    order = sorted(map(tuple, np.argwhere(exceeds).tolist()), key=lambda b: (-mag[b], b))

    def dist2(a, b):
        du, dv = abs(a[0] - b[0]), abs(a[1] - b[1])
        return min(du, h - du) ** 2 + min(dv, w - dv) ** 2

    kept = []
    for b in order:
        if all(dist2(b, k) > params.repair_radius**2 for k in kept):
            kept.append(b)
    bins = set(kept) | {((2 * cu - u) % h, (2 * cv - v) % w) for u, v in kept}
    return PeakSet(tuple(Peak(u, v, float(mag[u, v])) for u, v in sorted(bins)))


@pytest.mark.parametrize("shape", [(64, 64), (63, 65)])
@pytest.mark.parametrize("threshold,radius", [(1.2, 3), (2.0, 3), (1.5, 33)])
def test_nms_matches_pairwise_loop_on_white_spectra(shape, threshold, radius):
    # White noise at low thresholds gives hundreds of candidates; a radius
    # of at least half the side makes every repair disk wrap onto itself.
    spec = dft2d(GrayImage(np.random.default_rng(shape[0] * shape[1]).standard_normal(shape)))
    params = RepairParams(detect_threshold=threshold, repair_radius=radius, window=2 * radius + 3)
    candidates = np.count_nonzero(spectral._exceeds_background(np.abs(spec.data), np.ones(shape, bool), threshold))
    got = detect_peaks(spec, params)
    assert 0 < len(got) < candidates
    assert got == pairwise_detect(spec, params)


def test_nms_ties_break_on_centered_labels():
    # Equal spikes two rows apart across the wrap of dft2d order: rows 31 and
    # 33 are rows 63 and 1 there, and the centered label 31 goes first.
    data = np.full((64, 64), 5.0, dtype=complex)
    data[31, 20] = data[33, 20] = 500.0
    spec = center_shift(Spectrum(data, centered=True))
    peaks = detect_peaks(spec, RepairParams())
    assert peaks == pairwise_detect(spec, RepairParams())
    assert [(p.u, p.v) for p in peaks] == [(31, 20), (33, 44)]
