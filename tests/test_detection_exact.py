"""Detection must match the reference: the annulus median computed at every bin.

``detect_peaks`` prescreens bins by counting annulus values below
``mag / threshold`` and computes the exact median only for the bins that
pass. These tests keep the full-plane median as the reference and require
identical ``PeakSet``s, including the cases where rounding and ties decide.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from demoire import (
    GrayImage,
    MoireComponent,
    MoireSpec,
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


def centered(img):
    return center_shift(dft2d(img))


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
        peaks = assert_same_detection(centered(synthesize_moire(img, spec)), params, monkeypatch)
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
    spec = centered(synthesize_moire(img, MoireSpec(comps)))
    params = RepairParams()
    exceeding = spectral._exceeds_background(np.abs(spec.data), np.ones(shape, bool), 10.0)
    assert np.count_nonzero(exceeding) > 20  # leakage makes many bins exceed
    assert len(assert_same_detection(spec, params, monkeypatch)) > 4


def test_exceeds_mask_identical_off_bin():
    img = make_filtered_field(257, 256, sigma=0.7, seed=9)
    noisy = synthesize_moire(
        img, MoireSpec((MoireComponent(25.0, 40.4 / 257, 31.7 / 256, 0.5),))
    )
    mag = np.abs(centered(noisy).data)
    background = reference_background(mag).astype(np.float64)
    everywhere = np.ones(mag.shape, dtype=bool)
    for threshold in (2.0, 10.0, 37.5):
        got = spectral._exceeds_background(mag, everywhere, threshold)
        assert np.array_equal(got, mag > threshold * background)


def test_plateau_with_spike_ties(monkeypatch):
    data = np.full((64, 64), 5.0, dtype=complex)
    data[32 + 12, 32 + 3] = 500.0
    data[32 - 12, 32 - 3] = 500.0
    spec = Spectrum(data, centered=True)
    peaks = assert_same_detection(spec, RepairParams(), monkeypatch)
    assert sorted((p.u, p.v) for p in peaks) == [(20, 29), (44, 35)]


def test_bin_exactly_at_threshold_does_not_exceed(monkeypatch):
    # Background is exactly 4.0 (float32 exact); the bin sits at 10 x 4.0.
    data = np.full((64, 64), 4.0, dtype=complex)
    data[32 + 12, 32 + 3] = 40.0
    data[32 - 12, 32 - 3] = 40.0
    spec = Spectrum(data, centered=True)
    assert len(assert_same_detection(spec, RepairParams(), monkeypatch)) == 0
    data[32 + 12, 32 + 3] = np.nextafter(40.0, np.inf)
    data[32 - 12, 32 - 3] = np.nextafter(40.0, np.inf)
    peaks = assert_same_detection(Spectrum(data, centered=True), RepairParams(), monkeypatch)
    assert len(peaks) == 2


def test_wrapping_annulus_at_minimum_size(monkeypatch):
    img = GrayImage(np.full((16, 16), 120.0))
    noisy = synthesize_moire(img, MoireSpec((MoireComponent(30.0, 6 / 16, 6 / 16, 0.2),)))
    peaks = assert_same_detection(centered(noisy), RepairParams(), monkeypatch)
    assert sorted((p.u, p.v) for p in peaks) == [(2, 2), (14, 14)]
    textured = synthesize_moire(
        make_filtered_field(16, 16, sigma=0.7, seed=3),
        MoireSpec((MoireComponent(30.0, 5.3 / 16, 6.6 / 16, 0.2),)),
    )
    for threshold in (2.0, 10.0):
        assert_same_detection(
            centered(textured), RepairParams(detect_threshold=threshold), monkeypatch
        )
