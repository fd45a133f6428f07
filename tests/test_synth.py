import numpy as np

from demoire import RepairParams, detect_peaks, dft2d
from demoire.synth import (
    _rescale,
    default_bench_images,
    make_checkerboard,
    make_filtered_field,
    make_ramp,
    make_vignette,
)


def test_generators_cover_nominal_range():
    for img in (
        make_ramp(32, 48),
        make_vignette(32, 48),
        make_checkerboard(32, 48, period=8),
        make_filtered_field(32, 48, sigma=1.5, seed=1),
    ):
        assert img.pixels.min() >= 0.0
        assert img.pixels.max() <= 255.0
        assert img.pixels.max() - img.pixels.min() > 100.0


def test_filtered_field_respects_custom_range():
    img = make_filtered_field(32, 32, sigma=2.0, seed=2, lo=80.0, hi=176.0)
    assert img.pixels.min() == 80.0
    assert img.pixels.max() == 176.0


def test_flat_input_rescales_to_mid_range():
    assert np.array_equal(_rescale(np.full((3, 4), 7.0), 80.0, 176.0), np.full((3, 4), 128.0))
    assert np.array_equal(make_ramp(1, 1).pixels, [[127.5]])


def test_bench_images_deterministic():
    first = default_bench_images(64)
    second = default_bench_images(64)
    assert [name for name, _ in first] == [name for name, _ in second]
    for (_, a), (_, b) in zip(first, second):
        assert np.array_equal(a.pixels, b.pixels)


def test_bench_images_clean_of_detectable_impulses():
    # The bench corpus must not trip the detector before noise is added.
    for _, img in default_bench_images(256):
        peaks = detect_peaks(dft2d(img), RepairParams())
        assert len(peaks) == 0
