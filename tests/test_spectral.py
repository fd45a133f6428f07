import numpy as np
import pytest

from demoire import (
    GrayImage,
    MoireComponent,
    MoireSpec,
    Peak,
    PeakSet,
    RepairParams,
    Spectrum,
    center_shift,
    denoise_moire,
    detect_peaks,
    dft2d,
    format_peaks_csv,
    idft2d,
    notch_reject,
    psnr,
    spectral_median,
    synthesize_moire,
)
from demoire.synth import make_filtered_field


def paired_peaks(h, w, offsets, mag=1.0):
    """Build a conjugate-complete PeakSet from centered offsets."""
    cu, cv = h // 2, w // 2
    bins = set()
    for du, dv in offsets:
        bins.add(((cu + du) % h, (cv + dv) % w))
        bins.add(((cu - du) % h, (cv - dv) % w))
    return PeakSet(tuple(Peak(u, v, mag) for u, v in sorted(bins)))


class TestRepairParams:
    def test_defaults(self):
        p = RepairParams()
        assert (p.repair_radius, p.window, p.detect_threshold) == (3, 9, 10.0)
        assert p.resolved_guard(64, 64) == 8
        assert p.resolved_guard(1000, 1000) == 20

    def test_explicit_guard_wins(self):
        assert RepairParams(guard_dc_radius=2).resolved_guard(64, 64) == 2

    def test_rejects_even_window(self):
        with pytest.raises(ValueError, match="odd"):
            RepairParams(window=8)

    def test_rejects_window_without_donor_support(self):
        with pytest.raises(ValueError, match="donor"):
            RepairParams(window=3, repair_radius=3)

    def test_rejects_low_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            RepairParams(detect_threshold=1.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError, match="repair_radius"):
            RepairParams(repair_radius=0)


class TestDetectPeaks:
    def test_clean_constant_image_gives_empty_set(self):
        spec = dft2d(GrayImage(np.full((64, 64), 128.0)))
        assert len(detect_peaks(spec, RepairParams())) == 0

    def test_single_sinusoid_gives_exactly_one_pair(self):
        img = GrayImage(np.full((64, 64), 128.0))
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(20.0, 2 / 64, 0.0, 0.0),)))
        peaks = detect_peaks(dft2d(noisy), RepairParams(guard_dc_radius=1))
        assert sorted((p.u, p.v) for p in peaks) == [(30, 32), (34, 32)]
        for p in peaks:
            assert p.magnitude == pytest.approx(20.0 * 64 * 64 / 2.0, rel=1e-6)

    def test_two_components_give_exactly_two_pairs(self):
        img = GrayImage(np.full((64, 64), 100.0))
        spec = MoireSpec(
            (
                MoireComponent(20.0, 5 / 64, 7 / 64, 0.3),
                MoireComponent(15.0, 9 / 64, -3 / 64, 1.0),
            )
        )
        noisy = synthesize_moire(img, spec)
        peaks = detect_peaks(dft2d(noisy), RepairParams(guard_dc_radius=4))
        offsets = sorted((p.u - 32, p.v - 32) for p in peaks)
        assert offsets == [(-9, 3), (-5, -7), (5, 7), (9, -3)]

    def test_mirrors_always_present(self):
        img = make_filtered_field(64, 64, sigma=1.2, seed=5)
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(20.0, 12 / 64, 0.0, 0.0),)))
        peaks = detect_peaks(dft2d(noisy), RepairParams())
        bins = {(p.u, p.v) for p in peaks}
        for u, v in bins:
            assert ((64 - u) % 64, (64 - v) % 64) in bins

    def test_peaks_outside_dc_guard(self):
        img = GrayImage(np.full((64, 64), 128.0))
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(20.0, 2 / 64, 0.0, 0.0),)))
        # Default guard radius is 8; the pair at distance 2 must be ignored.
        peaks = detect_peaks(dft2d(noisy), RepairParams())
        assert len(peaks) == 0

    def test_rejects_centered_spectrum(self):
        spec = center_shift(dft2d(GrayImage(np.zeros((32, 32)))))
        peaks = paired_peaks(32, 32, [(10, 4)])
        with pytest.raises(ValueError, match="detect_peaks expects a spectrum in dft2d order"):
            detect_peaks(spec, RepairParams())
        with pytest.raises(ValueError, match="notch_reject expects a spectrum in dft2d order"):
            notch_reject(spec, peaks, RepairParams())
        with pytest.raises(ValueError, match="spectral_median expects a spectrum in dft2d order"):
            spectral_median(spec, peaks, RepairParams())

    def test_rejects_tiny_spectrum(self):
        spec = dft2d(GrayImage(np.zeros((8, 8))))
        with pytest.raises(ValueError, match="at least 16x16"):
            detect_peaks(spec, RepairParams())


class TestNotchReject:
    def test_empty_peakset_is_identity(self):
        spec = dft2d(GrayImage(np.arange(256.0).reshape(16, 16)))
        out = notch_reject(spec, PeakSet(), RepairParams())
        assert np.array_equal(out.data, spec.data)

    def test_pure_sinusoid_fully_removed(self):
        x = np.arange(64)[:, None]
        img = GrayImage(np.broadcast_to(np.sin(2 * np.pi * 12 * x / 64), (64, 64)).copy())
        spec = dft2d(img)
        peaks = detect_peaks(spec, RepairParams())
        assert len(peaks) == 2
        out = idft2d(notch_reject(spec, peaks, RepairParams()))
        assert np.max(np.abs(out.pixels)) < 1e-6

    def test_energy_never_increases(self):
        rng = np.random.default_rng(17)
        img = GrayImage(rng.random((32, 32)) * 255)
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(25.0, 10 / 32, 0.0, 0.0),)))
        spec = dft2d(noisy)
        peaks = detect_peaks(spec, RepairParams())
        out = notch_reject(spec, peaks, RepairParams())
        assert np.sum(np.abs(out.data) ** 2) <= np.sum(np.abs(spec.data) ** 2)

    def test_untouched_bins_bit_identical(self):
        img = make_filtered_field(32, 32, sigma=1.2, seed=3)
        spec = dft2d(img)
        peaks = paired_peaks(32, 32, [(10, 4)])
        out = notch_reject(spec, peaks, RepairParams())
        zeroed = out.data == 0.0
        assert np.array_equal(out.data[~zeroed], spec.data[~zeroed])
        # two disks of radius 3 hold 29 bins each
        assert np.count_nonzero(out.data == 0.0) >= 58


class TestSpectralMedian:
    def test_empty_peakset_is_identity(self):
        spec = dft2d(GrayImage(np.arange(256.0).reshape(16, 16)))
        out = spectral_median(spec, PeakSet(), RepairParams())
        assert np.array_equal(out.data, spec.data)

    def test_constant_spectrum_spike_repaired_exactly(self):
        data = np.full((32, 32), 3.0, dtype=complex)
        data[16 + 5, 16] = 1e9
        data[16 - 5, 16] = 1e9
        peaks = paired_peaks(32, 32, [(5, 0)], mag=1e9)
        out = spectral_median(center_shift(Spectrum(data, centered=True)), peaks, RepairParams())
        assert np.allclose(out.data, 3.0, atol=1e-9)

    def test_poisoned_bins_never_donate(self):
        rng = np.random.default_rng(23)
        base = rng.normal(0, 10, (32, 32)) + 1j * rng.normal(0, 10, (32, 32))
        base = 0.5 * (base + np.conj(base[(-np.arange(32)) % 32][:, (-np.arange(32)) % 32]))
        peaks = paired_peaks(32, 32, [(9, 5)])
        poisoned = base.copy()
        cu = cv = 16
        for du in range(-3, 4):
            for dv in range(-3, 4):
                if du * du + dv * dv <= 9:
                    poisoned[cu + 9 + du, cv + 5 + dv] = 1e30
                    poisoned[cu - 9 - du, cv - 5 - dv] = 1e30
        out = spectral_median(center_shift(Spectrum(poisoned, centered=True)), peaks, RepairParams())
        assert np.max(np.abs(out.data)) < 1e3

    def test_untouched_bins_bit_identical(self):
        img = make_filtered_field(32, 32, sigma=1.2, seed=4)
        spec = dft2d(img)
        peaks = paired_peaks(32, 32, [(10, 4)])
        params = RepairParams()
        # Peaks carry centered labels, so compare in centered order.
        out = center_shift(spectral_median(spec, peaks, params))
        spec = center_shift(spec)
        changed = out.data != spec.data
        # every changed bin lies within repair_radius of a peak (wrap metric)
        for i, j in np.argwhere(changed):
            d2 = min(
                min(abs(i - p.u), 32 - abs(i - p.u)) ** 2
                + min(abs(j - p.v), 32 - abs(j - p.v)) ** 2
                for p in peaks
            )
            assert d2 <= params.repair_radius**2
        untouched = ~changed
        assert np.array_equal(out.data[untouched], spec.data[untouched])

    def test_output_is_hermitian(self):
        img = make_filtered_field(64, 64, sigma=1.2, seed=5)
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(20.0, 12 / 64, 0.0, 0.0),)))
        spec = dft2d(noisy)
        peaks = detect_peaks(spec, RepairParams())
        out = spectral_median(spec, peaks, RepairParams())
        data = out.data
        mirrored = np.conj(data[(-np.arange(64)) % 64][:, (-np.arange(64)) % 64])
        assert np.max(np.abs(data - mirrored)) <= 1e-9 * np.max(np.abs(data))

    def test_donor_starvation_raises(self):
        spec = dft2d(GrayImage(np.full((32, 32), 50.0)))
        dense = [(du, dv) for du in range(4, 12) for dv in range(-4, 5)]
        peaks = paired_peaks(32, 32, dense)
        with pytest.raises(ValueError, match="increase window"):
            spectral_median(spec, peaks, RepairParams())

    def test_deterministic(self):
        img = make_filtered_field(64, 64, sigma=1.2, seed=6)
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(20.0, 12 / 64, 0.0, 0.0),)))
        spec = dft2d(noisy)
        peaks = detect_peaks(spec, RepairParams())
        a = spectral_median(spec, peaks, RepairParams())
        b = spectral_median(spec, peaks, RepairParams())
        assert np.array_equal(a.data, b.data)


def loop_spectral_median(spec, peaks, params):
    """Per-bin reference for spectral_median: one np.median per repaired bin."""
    h, w = spec.shape
    mask = np.zeros((h, w), dtype=bool)
    r = params.repair_radius
    for p in peaks:
        for du in range(-r, r + 1):
            for dv in range(-r, r + 1):
                if du * du + dv * dv <= r * r:
                    mask[(p.u + du) % h, (p.v + dv) % w] = True
    src = spec.data
    repaired = src.copy()
    offsets = np.arange(-(params.window // 2), params.window // 2 + 1)
    for i, j in np.argwhere(mask):
        grid = np.ix_((i + offsets) % h, (j + offsets) % w)
        donors = src[grid][~mask[grid]]
        estimate = float(np.median(np.abs(donors)))
        value = src[i, j]
        scale = abs(value)
        repaired[i, j] = estimate * (value / scale) if scale > 0.0 else estimate
    mu = (2 * (h // 2) - np.arange(h)) % h
    mv = (2 * (w // 2) - np.arange(w)) % w
    symmetric = 0.5 * (repaired + np.conj(repaired[np.ix_(mu, mv)]))
    return np.where(mask, symmetric, src)


class TestSpectralMedianReference:
    @pytest.mark.parametrize("window,radius", [(5, 2), (9, 3), (11, 3)])
    def test_matches_per_bin_loop_off_bin(self, window, radius):
        img = make_filtered_field(97, 80, sigma=1.2, seed=8)
        comps = (MoireComponent(25.0, 20.4 / 97, 13.7 / 80, 0.4), MoireComponent(15.0, 31.3 / 97, -9.6 / 80, 1.1))
        spec = dft2d(synthesize_moire(img, MoireSpec(comps)))
        params = RepairParams(window=window, repair_radius=radius)
        peaks = detect_peaks(spec, params)
        assert len(peaks) > 4
        got = center_shift(spectral_median(spec, peaks, params)).data
        assert np.array_equal(got, loop_spectral_median(center_shift(spec), peaks, params))

    def test_matches_per_bin_loop_with_zero_bins(self):
        # Zero-magnitude bins keep the estimate as a real value; even donor
        # counts take the midpoint of the two middle values.
        data = np.zeros((32, 32), dtype=complex)
        data[::3, ::2] = np.arange(1, 177).reshape(11, 16) * (1 + 1j)
        peaks = paired_peaks(32, 32, [(5, 2), (7, 9)])
        params = RepairParams(window=5, repair_radius=1)
        got = center_shift(spectral_median(center_shift(Spectrum(data, centered=True)), peaks, params)).data
        assert np.array_equal(got, loop_spectral_median(Spectrum(data, centered=True), peaks, params))

    def test_starvation_names_first_bin(self):
        spec = dft2d(GrayImage(np.full((32, 32), 50.0)))
        dense = [(du, dv) for du in range(4, 12) for dv in range(-4, 5)]
        expected = r"^only 2 uncontaminated donor bins around spectrum bin \(6, 14\); increase window above 9$"
        with pytest.raises(ValueError, match=expected):
            spectral_median(spec, paired_peaks(32, 32, dense), RepairParams())


class TestDenoiseMoire:
    def test_clean_image_round_trips(self):
        img = GrayImage(np.full((64, 64), 128.0))
        out, peaks = denoise_moire(img, "notch")
        assert len(peaks) == 0
        assert np.max(np.abs(out.pixels - img.pixels)) <= 1e-9

    def test_constant_image_high_psnr(self):
        img = GrayImage(np.full((64, 64), 128.0))
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(20.0, 12 / 64, 0.0, 0.0),)))
        out, peaks = denoise_moire(noisy, "median")
        assert sorted((p.u, p.v) for p in peaks) == [(20, 32), (44, 32)]
        report = psnr(img, out)
        assert report.psnr_db is None or report.psnr_db >= 40.0

    def test_median_beats_notch_on_textured_image(self):
        img = make_filtered_field(64, 64, sigma=1.2, seed=5)
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(20.0, 12 / 64, 0.0, 0.0),)))
        med, _ = denoise_moire(noisy, "median")
        notch, _ = denoise_moire(noisy, "notch")
        p_med = psnr(img, med).psnr_db
        p_notch = psnr(img, notch).psnr_db
        assert p_med > p_notch
        # frozen from the reference run of this exact configuration
        assert p_med == pytest.approx(35.93, abs=0.5)
        assert p_notch == pytest.approx(29.76, abs=0.5)

    def test_denoised_beats_noisy(self):
        img = make_filtered_field(64, 64, sigma=1.2, seed=7)
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(20.0, 12 / 64, 0.0, 0.0),)))
        out, _ = denoise_moire(noisy, "median")
        assert psnr(img, out).psnr_db > psnr(img, noisy).psnr_db

    def test_odd_dimensions_round_trip(self):
        img = GrayImage(np.full((17, 19), 90.0))
        out, peaks = denoise_moire(img, "median")
        assert len(peaks) == 0
        assert np.max(np.abs(out.pixels - img.pixels)) <= 1e-9

    def test_minimum_size_full_repair(self):
        # At 16x16 the detection annulus and the repair disks wrap around the
        # whole grid; the oblique pair at distance sqrt(72) clears the guard.
        img = GrayImage(np.full((16, 16), 120.0))
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(30.0, 6 / 16, 6 / 16, 0.2),)))
        out, peaks = denoise_moire(noisy, "median")
        assert sorted((p.u, p.v) for p in peaks) == [(2, 2), (14, 14)]
        better = psnr(img, out).psnr_db
        worse = psnr(img, noisy).psnr_db
        assert better is None or better > worse

    def test_odd_dimensions_full_repair(self):
        # Mirror bookkeeping is the tricky part on odd grids: center (16, 14),
        # pair at (16 +- 7, 14 +- 5).
        img = GrayImage(np.full((33, 29), 100.0))
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(30.0, 7 / 33, 5 / 29, 0.4),)))
        out, peaks = denoise_moire(noisy, "median")
        assert sorted((p.u, p.v) for p in peaks) == [(9, 9), (23, 19)]
        better = psnr(img, out).psnr_db
        worse = psnr(img, noisy).psnr_db
        assert better is None or better > worse

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown repair method"):
            denoise_moire(GrayImage(np.zeros((32, 32))), "butterworth")


class TestPeaksCsv:
    def test_format(self):
        peaks = PeakSet((Peak(3, 4, 12.5), Peak(10, 11, 99.0)))
        text = format_peaks_csv(peaks)
        lines = text.strip().split("\n")
        assert lines[0] == "u,v,magnitude"
        assert lines[1] == "3,4,12.5"
        assert lines[2] == "10,11,99"
