"""Detection must match the reference: the annulus median computed at every bin.

``detect_peaks`` needs the exact median only where at least half the annulus
lies below ``mag / threshold``. It tests that count in two tiers: an upper
bound for the whole plane from the minima of 3x3 tiles, then the exact count
on the bins the bound cannot rule out, and computes the median only for the
bins that pass both. These tests keep the full-plane median as the reference
and require identical ``PeakSet``s, including the cases where rounding, ties,
many surviving bins and chunked gathers decide. They also require the tier-1
bound never to fall below a brute-force count.

Spectra are half planes, so the synthetic white planes are drawn as half
planes too, completed as Hermitian in their self-mirror columns; detection
sees the full plane of their mirrored magnitudes.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from demoire import (
    GrayImage,
    MoireComponent,
    MoireSpec,
    Peak,
    PeakSet,
    RepairParams,
    Spectrum,
    detect_peaks,
    dft2d,
    moire_spectrum,
    synthesize_moire,
)
from demoire import spectral
from demoire.noise import default_noise_corpus
from demoire.synth import default_bench_images, make_filtered_field

from test_transform import centered_spectrum, full_plane, hermitian, offgrid_specs


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
    exceeding = spectral._exceeds_background(np.abs(full_plane(spec)), np.ones(shape, bool), 10.0)
    assert np.count_nonzero(exceeding) > 20  # leakage makes many bins exceed
    assert len(assert_same_detection(spec, params, monkeypatch)) > 4


def test_exceeds_mask_identical_off_bin():
    img = make_filtered_field(257, 256, sigma=0.7, seed=9)
    noisy = synthesize_moire(
        img, MoireSpec((MoireComponent(25.0, 40.4 / 257, 31.7 / 256, 0.5),))
    )
    mag = np.abs(full_plane(dft2d(noisy)))
    background = reference_background(mag).astype(np.float64)
    everywhere = np.ones(mag.shape, dtype=bool)
    for threshold in (2.0, 10.0, 37.5):
        got = spectral._exceeds_background(mag, everywhere, threshold)
        assert np.array_equal(got, mag > threshold * background)


def test_plateau_with_spike_ties(monkeypatch):
    data = np.full((64, 64), 5.0, dtype=complex)
    data[32 + 12, 32 + 3] = 500.0
    data[32 - 12, 32 - 3] = 500.0
    spec = centered_spectrum(data)
    peaks = assert_same_detection(spec, RepairParams(), monkeypatch)
    assert sorted((p.u, p.v) for p in peaks) == [(20, 29), (44, 35)]


def test_bin_exactly_at_threshold_does_not_exceed(monkeypatch):
    # Background is exactly 4.0 (float32 exact); the bin sits at 10 x 4.0.
    data = np.full((64, 64), 4.0, dtype=complex)
    data[32 + 12, 32 + 3] = 40.0
    data[32 - 12, 32 - 3] = 40.0
    spec = centered_spectrum(data)
    assert len(assert_same_detection(spec, RepairParams(), monkeypatch)) == 0
    data[32 + 12, 32 + 3] = np.nextafter(40.0, np.inf)
    data[32 - 12, 32 - 3] = np.nextafter(40.0, np.inf)
    peaks = assert_same_detection(centered_spectrum(data), RepairParams(), monkeypatch)
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
    h, w = shape
    rng = np.random.default_rng(h + w)
    half = (h, w // 2 + 1)
    spec = Spectrum(hermitian(rng.standard_normal(half) + 1j * rng.standard_normal(half), w), w)
    mag = np.abs(full_plane(spec))
    bound = spectral._count_bound(
        np.pad(mag.astype(np.float32), spectral.ANNULUS_SIZE // 2, mode="wrap"),
        (mag / threshold).astype(np.float32),
    )
    assert np.count_nonzero(bound >= 208) >= surviving * mag.size
    assert_same_detection(spec, RepairParams(detect_threshold=threshold), monkeypatch)


def pairwise_detect(spec, params):
    """Detection with greedy NMS as a pairwise loop, in centered order.

    Candidates, strongest first with ties on (u, v), are kept iff their
    toroidal distance to every kept peak exceeds repair_radius; the kept
    peaks' Hermitian mirrors are then added.
    """
    data = np.fft.fftshift(full_plane(spec))
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
    mag = np.abs(full_plane(spec))
    candidates = np.count_nonzero(spectral._exceeds_background(mag, np.ones(shape, bool), threshold))
    got = detect_peaks(spec, params)
    assert 0 < len(got) < candidates
    assert got == pairwise_detect(spec, params)


def test_nms_ties_break_on_centered_labels():
    # Equal spikes two rows apart across the wrap of dft2d order: rows 30,
    # 32 and 34 are rows 62, 0 and 2 there, in column 44 and its mirror 20.
    # The centered label 30 goes first and blocks 32, which leaves 34; in
    # dft2d order row 0 (label 32) would go first and block both others.
    data = np.full((64, 64), 5.0, dtype=complex)
    data[30:35:2, 20] = data[30:35:2, 44] = 500.0
    spec = centered_spectrum(data)
    peaks = detect_peaks(spec, RepairParams())
    assert peaks == pairwise_detect(spec, RepairParams())
    assert [(p.u, p.v) for p in peaks] == [(30, 20), (30, 44), (34, 20), (34, 44)]


# Detection against a base spectrum: ``detect_peaks(spec, params, base)`` must
# equal ``detect_peaks(spec, params)`` on every input. The tier-1 count bound
# runs once per full test, so the calls to it tell the paths apart: building
# the analysis of a new base is one full test, and a spectrum the rule cannot
# re-test takes one more.


def detect_with_base(spec, params, base, monkeypatch):
    """``detect_peaks(spec, params, base)``, required to equal the call without
    ``base``, and the number of tier-1 passes the call with ``base`` made."""
    calls = []
    count_bound = spectral._count_bound
    with monkeypatch.context() as m:
        m.setattr(spectral, "_count_bound", lambda *a: calls.append(1) or count_bound(*a))
        got = detect_peaks(spec, params, base)
    assert got == detect_peaks(spec, params)
    return got, len(calls)


def edited(spec, edits):
    """``spec`` with each half-plane bin (u, v) of ``edits`` set to its value. A bin
    in a self-mirror column sets its mirror -u to the conjugate, and a bin that is
    its own mirror keeps the real part, so the spectrum stays Hermitian."""
    h, w = spec.shape
    data = spec.data.copy()
    for (u, v), value in edits.items():
        data[u, v] = value
        if v == 0 or 2 * v == w:
            data[-u % h, v] = np.conj(value) if -u % h != u else complex(value).real
    return Spectrum(data, w)


def symmetric_plane(h, w, fill, bins):
    """The Spectrum whose full plane in dft2d order is ``fill`` but for ``bins``, a
    {(u, v): value} of real values, each set at (u, v) and at its mirror."""
    full = np.full((h, w), fill, dtype=complex)
    for (u, v), value in bins.items():
        full[u, v] = full[-u % h, -v % w] = value
    return centered_spectrum(np.fft.fftshift(full))


@pytest.mark.parametrize("size", [256, 384, 512])
def test_bench_corpus_with_clean_base(size, monkeypatch):
    params = RepairParams()
    for _, img in default_bench_images(size):
        clean = dft2d(img)
        passes = 0
        for _, mspec in default_noise_corpus(size, size):
            peaks, calls = detect_with_base(moire_spectrum(clean, mspec.components), params, clean, monkeypatch)
            assert len(peaks) >= 2
            passes += calls
        assert passes == 1  # the clean spectrum's analysis; every pattern is re-tested


@pytest.mark.parametrize("shape", [(240, 256), (257, 256), (256, 320)])
def test_offgrid_moire_takes_the_full_test(shape, monkeypatch):
    clean = dft2d(make_filtered_field(*shape, sigma=0.7, seed=sum(shape)))
    for i, mspec in enumerate(offgrid_specs(*shape, count=3, seed=11)):
        peaks, calls = detect_with_base(moire_spectrum(clean, mspec.components), RepairParams(), clean, monkeypatch)
        assert len(peaks) >= 4
        assert calls == (2 if i == 0 else 1)  # the closed form changes every bin


@st.composite
def sparse_edits(draw):
    h, w = draw(st.sampled_from([(128, 128), (96, 97), (97, 96), (64, 64), (64, 63), (33, 40)]))
    n = w // 2 + 1
    edits = {}
    for _ in range(draw(st.integers(1, 4))):
        u, v = draw(st.integers(0, h - 1)), draw(st.integers(0, n - 1))
        edits[u, v] = draw(st.sampled_from([0.0, 1 + 1e-9, 3.0, 40.0, 1e3])), draw(st.floats(0.0, 6.3))
    return (h, w), edits, draw(st.integers(0, 2**16)), draw(st.sampled_from([10.0, 3.0, 1.5]))


@settings(max_examples=60, deadline=None)
@given(sparse_edits())
def test_sparse_edits_of_filtered_fields(case):
    # No monkeypatch here: hypothesis runs the body many times per fixture.
    (h, w), edits, seed, threshold = case
    base = dft2d(make_filtered_field(h, w, sigma=1.2, seed=seed))
    scale = np.median(base.magnitude)
    spec = edited(base, {(u, v): base.data[u, v] * factor + scale * factor * np.exp(1j * phase)
                         for (u, v), (factor, phase) in edits.items()})
    params = RepairParams(detect_threshold=threshold)
    assert detect_peaks(spec, params, base) == detect_peaks(spec, params)


def test_zeroed_mirror_bins_let_a_bin_exceed(monkeypatch):
    # The bin t = (16, 44) of a 96x96 plane of 100s holds 50. Its annulus holds
    # 207 ones, in 23 whole 3x3 tiles, so its tier-1 bound is exactly 207 and
    # it cannot exceed. Zeroing two more annulus bins makes 209 values low, so
    # the median falls to 1 and t exceeds: only bound + k reaches 208. The two
    # bins lie past column W/2, so the half plane stores their mirrors, 54 rows
    # from t: only the mirrors of the changed bins reach t.
    h = w = 96
    tiles = [(a, b) for a in (0, 1) for b in range(7)] + [(a, b) for a in (2, 3) for b in (0, 1, 5, 6)] + [(4, 0)]
    low = {(6 + 3 * a + i, 34 + 3 * b + j): 1.0 for a, b in tiles for i in range(3) for j in range(3)}
    base = symmetric_plane(h, w, 100.0, {**low, (16, 44): 50.0})
    spec = symmetric_plane(h, w, 100.0, {**low, (16, 44): 50.0, (26, 52): 0.0, (26, 53): 0.0})
    assert np.argwhere(base.data != spec.data).tolist() == [[70, 43], [70, 44]]  # the half plane's changed bins
    t = (16 + h // 2, 44 + w // 2)  # centered label
    assert t not in {p[:2] for p in detect_peaks(base, RepairParams())}
    peaks, calls = detect_with_base(spec, RepairParams(), base, monkeypatch)
    assert t in {p[:2] for p in peaks}
    assert calls == 1


def test_new_largest_magnitude_moves_the_floor(monkeypatch):
    # A bin of 1 over a floor of 1e-3 exceeds while the largest magnitude is
    # 100, and falls below the floor once a bin of 1e10 appears.
    base = symmetric_plane(64, 64, 1e-3, {(0, 0): 100.0, (20, 20): 1.0})
    assert [p[:2] for p in detect_peaks(base, RepairParams())] == [(12, 12), (52, 52)]
    spec = symmetric_plane(64, 64, 1e-3, {(0, 0): 100.0, (20, 20): 1.0, (5, 25): 1e10})
    peaks, calls = detect_with_base(spec, RepairParams(), base, monkeypatch)
    assert [p[:2] for p in peaks] == [(27, 7), (37, 57)]
    assert calls == 2


@pytest.mark.parametrize("threshold", [10.0, 3.0])
def test_self_mirror_edits(threshold, monkeypatch):
    # Rows and columns 0 and 64 hold bins that are their own mirrors or whose
    # mirrors also lie in the half plane.
    base = dft2d(make_filtered_field(128, 128, sigma=1.2, seed=21))
    peak = 0.05 * base.magnitude.max()
    spec = edited(base, {(20, 0): peak, (0, 30): peak, (64, 40): -peak, (30, 64): 1j * peak, (64, 64): peak})
    peaks, calls = detect_with_base(spec, RepairParams(detect_threshold=threshold), base, monkeypatch)
    # Centered labels of the edited bins and their mirrors.
    assert {(84, 64), (44, 64), (64, 94), (64, 34), (0, 104), (94, 0), (0, 0)} <= {p[:2] for p in peaks}
    assert calls == 1


def test_edit_inside_the_dc_guard(monkeypatch):
    base = dft2d(make_filtered_field(128, 128, sigma=1.2, seed=22))
    spec = edited(base, {(2, 3): 20 * base.data[2, 3]})
    assert spec.magnitude.max() == base.magnitude.max()
    assert detect_with_base(spec, RepairParams(detect_threshold=1.5), base, monkeypatch)[1] == 1


def test_dense_noise_takes_the_full_test(monkeypatch):
    base = dft2d(make_filtered_field(128, 128, sigma=1.2, seed=23))
    noise = np.random.default_rng(23).standard_normal(base.data.shape) * np.median(base.magnitude) * 1e-3
    noise[0, 0] = 0.0  # DC stays the largest magnitude: the cost alone decides
    spec = Spectrum(hermitian(base.data + noise, 128), 128)
    assert spec.magnitude.max() == base.magnitude.max()
    for threshold in (10.0, 1.5):
        assert detect_with_base(spec, RepairParams(detect_threshold=threshold), base, monkeypatch)[1] == 2


def test_base_is_spec_and_unrelated_base(monkeypatch):
    spec = dft2d(synthesize_moire(make_filtered_field(96, 97, sigma=1.2, seed=24),
                                  MoireSpec((MoireComponent(20.0, 20 / 96, 15 / 97, 0.3),))))
    peaks, calls = detect_with_base(spec, RepairParams(), spec, monkeypatch)
    assert len(peaks) == 2 and calls == 1
    other = dft2d(make_filtered_field(96, 97, sigma=1.2, seed=25))
    assert detect_with_base(spec, RepairParams(), other, monkeypatch)[1] == 2


def test_base_of_another_shape_is_rejected():
    spec = dft2d(make_filtered_field(64, 64, sigma=1.2, seed=26))
    with pytest.raises(ValueError, match="base spectrum is 64x63, not 64x64"):
        detect_peaks(spec, RepairParams(), dft2d(make_filtered_field(64, 63, sigma=1.2, seed=26)))


def test_analysis_lives_as_long_as_its_base():
    gc.collect()
    kept = len(spectral._ANALYSES)
    base = dft2d(make_filtered_field(64, 64, sigma=1.2, seed=27))
    detect_peaks(base, RepairParams(), base)
    detect_peaks(base, RepairParams(detect_threshold=3.0), base)
    assert len(spectral._ANALYSES) == kept + 1
    assert len(spectral._ANALYSES[base]) == 2  # one per (threshold, guard)
    alive = weakref.ref(base)
    del base
    gc.collect()
    assert alive() is None
    assert len(spectral._ANALYSES) == kept
