import math

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
from demoire import spectral
from demoire.synth import make_filtered_field

from test_transform import centered_spectrum, full_plane, hermitian


def centered_full_plane(spec):
    """The full plane of ``spec`` with DC at (H//2, W//2), the order of peak labels."""
    return np.fft.fftshift(full_plane(spec))


def paired_peaks(h, w, offsets, mag=1.0):
    """Build a conjugate-complete PeakSet from centered offsets."""
    cu, cv = h // 2, w // 2
    bins = set()
    for du, dv in offsets:
        bins.add(((cu + du) % h, (cv + dv) % w))
        bins.add(((cu - du) % h, (cv - dv) % w))
    return PeakSet(tuple(Peak(u, v, mag) for u, v in sorted(bins)))


def uncapped_disk(radius):
    """(du, dv) rows, row-major, of every offset within ``radius``, from the full square of offsets."""
    du, dv = np.indices((2 * radius + 1, 2 * radius + 1)).reshape(2, -1) - radius
    inside = du * du + dv * dv <= radius * radius
    return np.stack([du[inside], dv[inside]], axis=1)


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

    def test_disk_offsets_cached_read_only(self):
        # NMS and both repairs share one array per radius, so none may write to it.
        for radius in range(1, 21):
            disk = spectral._disk_offsets(radius)
            du, dv = np.indices((2 * radius + 1, 2 * radius + 1)).reshape(2, -1) - radius
            inside = du * du + dv * dv <= radius * radius
            assert np.array_equal(disk, np.stack([du[inside], dv[inside]], axis=1))
            assert spectral._disk_offsets(radius) is disk and not disk.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                disk[0, 0] = 0

    @pytest.mark.parametrize("shape", [(16, 16), (17, 16), (16, 17), (33, 40), (64, 63)])
    def test_capped_disk_stamps_the_uncapped_bins(self, shape):
        # Past the covering radius every bin is stamped, so capping the disk there changes no bin.
        # The reference of 10**8 is the disk of cap + 3, which already holds every bin.
        h, w = shape
        cap = math.isqrt((h // 2) ** 2 + (w // 2) ** 2) + 1
        u, v = np.array([0, 3, h // 2, h - 1]), np.array([0, w // 2, 5, w - 1])
        for radius in [*range(1, cap + 4), 10**8]:
            disk = uncapped_disk(min(radius, cap + 3))
            # The repairs stamp arrays of bins; NMS stamps one scalar bin at a time.
            for bu, bv in ((u, v), (u[1], v[1])):
                want = np.zeros(shape, dtype=bool)
                want[(np.reshape(bu, (-1, 1)) + disk[:, 0]) % h, (np.reshape(bv, (-1, 1)) + disk[:, 1]) % w] = True
                got = np.zeros(shape, dtype=bool)
                spectral._stamp_disks(got, bu, bv, radius)
                assert np.array_equal(got, want), (radius, bu, bv)
        assert want.all()

    def test_rejects_low_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            RepairParams(detect_threshold=1.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError, match="repair_radius"):
            RepairParams(repair_radius=0)

    def test_rejects_non_finite_threshold(self):
        with pytest.raises(ValueError, match=r"^repair detect_threshold must be finite, got inf$"):
            RepairParams(detect_threshold=math.inf)
        with pytest.raises(ValueError, match=r"^detect_threshold must exceed 1, got nan$"):
            RepairParams(detect_threshold=math.nan)

    def test_rejects_negative_guard(self):
        assert RepairParams(guard_dc_radius=0).resolved_guard(64, 64) == 0
        with pytest.raises(ValueError, match=r"^guard_dc_radius must be >= 0, got -1$"):
            RepairParams(guard_dc_radius=-1)


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

    @pytest.mark.parametrize("h, w", [(16, 16), (17, 16), (16, 17), (33, 29)])
    def test_guard_mask_is_the_disk_around_dc(self, h, w):
        fu = np.fft.fftfreq(h, 1.0 / h).round().astype(np.int64)[:, np.newaxis]  # signed frequencies
        fv = np.fft.fftfreq(w, 1.0 / w).round().astype(np.int64)[np.newaxis, :]
        for guard in [0, 1, 5, 8, h // 2, w // 2 + 1, h + w - 1, h + w, h + w + 1, 10**4]:
            want = fu * fu + fv * fv > guard * guard
            assert np.array_equal(spectral._outside_guard(h, w, guard), want), guard

    def test_huge_guard_finds_nothing(self):
        img = make_filtered_field(64, 64, sigma=1.2, seed=5)
        spec = dft2d(synthesize_moire(img, MoireSpec((MoireComponent(20.0, 12 / 64, 0.0, 0.0),))))
        assert len(detect_peaks(spec, RepairParams())) > 0
        assert detect_peaks(spec, RepairParams(guard_dc_radius=10**30)) == PeakSet(())

    def test_rejects_tiny_spectrum(self):
        spec = dft2d(GrayImage(np.zeros((8, 8))))
        with pytest.raises(ValueError, match="at least 16x16"):
            detect_peaks(spec, RepairParams())


@pytest.mark.parametrize("method", [notch_reject, spectral_median])
def test_peak_without_its_mirror_is_repaired_with_it(method):
    # The half plane holds only one bin of the pair (column 5 and its
    # mirror, column 59): either alone repairs both.
    img = make_filtered_field(64, 64, sigma=1.2, seed=5)
    spec = dft2d(synthesize_moire(img, MoireSpec((MoireComponent(20.0, 12 / 64, 5 / 64, 0.0),))))
    params = RepairParams()
    peaks = detect_peaks(spec, params)
    assert len(peaks) == 2
    want = method(spec, peaks, params).data
    for peak in peaks:
        assert np.array_equal(method(spec, PeakSet((peak,)), params).data, want)


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
        assert np.sum(np.abs(full_plane(out)) ** 2) <= np.sum(np.abs(full_plane(spec)) ** 2)

    def test_untouched_bins_bit_identical(self):
        img = make_filtered_field(32, 32, sigma=1.2, seed=3)
        spec = dft2d(img)
        peaks = paired_peaks(32, 32, [(10, 4)])
        out = full_plane(notch_reject(spec, peaks, RepairParams()))
        spec = full_plane(spec)
        zeroed = out == 0.0
        assert np.array_equal(out[~zeroed], spec[~zeroed])
        # two disks of radius 3 hold 29 bins each
        assert np.count_nonzero(out == 0.0) >= 58


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
        out = spectral_median(centered_spectrum(data), peaks, RepairParams())
        assert np.allclose(full_plane(out), 3.0, atol=1e-9)

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
        out = spectral_median(centered_spectrum(poisoned), peaks, RepairParams())
        assert np.max(np.abs(full_plane(out))) < 1e3

    def test_untouched_bins_bit_identical(self):
        img = make_filtered_field(32, 32, sigma=1.2, seed=4)
        spec = dft2d(img)
        peaks = paired_peaks(32, 32, [(10, 4)])
        params = RepairParams()
        # Peaks carry centered labels, so compare in centered order.
        out = centered_full_plane(spectral_median(spec, peaks, params))
        spec = centered_full_plane(spec)
        changed = out != spec
        # every changed bin lies within repair_radius of a peak (wrap metric)
        for i, j in np.argwhere(changed):
            d2 = min(
                min(abs(i - p.u), 32 - abs(i - p.u)) ** 2
                + min(abs(j - p.v), 32 - abs(j - p.v)) ** 2
                for p in peaks
            )
            assert d2 <= params.repair_radius**2
        untouched = ~changed
        assert np.array_equal(out[untouched], spec[untouched])

    def test_output_is_hermitian(self):
        img = make_filtered_field(64, 64, sigma=1.2, seed=5)
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(20.0, 12 / 64, 0.0, 0.0),)))
        spec = dft2d(noisy)
        peaks = detect_peaks(spec, RepairParams())
        out = spectral_median(spec, peaks, RepairParams())
        data = full_plane(out)
        mirrored = np.conj(data[(-np.arange(64)) % 64][:, (-np.arange(64)) % 64])
        assert np.max(np.abs(data - mirrored)) <= 1e-9 * np.max(np.abs(data))

    def test_donor_starvation_raises(self):
        spec = dft2d(GrayImage(np.full((32, 32), 50.0)))
        dense = [(du, dv) for du in range(4, 12) for dv in range(-4, 5)]
        peaks = paired_peaks(32, 32, dense)
        with pytest.raises(ValueError, match="increase window"):
            spectral_median(spec, peaks, RepairParams())

    def test_covering_disks_name_the_radius(self):
        # Radius 23 covers the 32x32 torus from any bin; a wider window cannot help, a smaller radius can.
        spec = dft2d(GrayImage(np.full((32, 32), 50.0)))
        expected = r"^repair disks of radius 23 leave only 0 uncontaminated bins in the whole spectrum, fewer than 5;"
        with pytest.raises(ValueError, match=expected):
            spectral_median(spec, paired_peaks(32, 32, [(5, 0)]), RepairParams(repair_radius=23, window=63))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (1, 4)])
    def test_spectrum_of_fewer_bins_than_donors_without_peaks_is_identity(self, shape):
        spec = dft2d(GrayImage(np.arange(float(shape[0] * shape[1])).reshape(shape)))
        assert np.array_equal(spectral_median(spec, PeakSet(), RepairParams()).data, spec.data)

    def test_deterministic(self):
        img = make_filtered_field(64, 64, sigma=1.2, seed=6)
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(20.0, 12 / 64, 0.0, 0.0),)))
        spec = dft2d(noisy)
        peaks = detect_peaks(spec, RepairParams())
        a = spectral_median(spec, peaks, RepairParams())
        b = spectral_median(spec, peaks, RepairParams())
        assert np.array_equal(a.data, b.data)


def loop_spectral_median(src, peaks, params):
    """Per-bin reference for spectral_median on a full plane in centered order:
    one np.median per repaired bin, then pair-averaging with every mirror."""
    h, w = src.shape
    mask = np.zeros((h, w), dtype=bool)
    r = params.repair_radius
    for p in peaks:
        for du in range(-r, r + 1):
            for dv in range(-r, r + 1):
                if du * du + dv * dv <= r * r:
                    mask[(p.u + du) % h, (p.v + dv) % w] = True
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
        got = centered_full_plane(spectral_median(spec, peaks, params))
        assert np.array_equal(got, loop_spectral_median(centered_full_plane(spec), peaks, params))

    def test_matches_per_bin_loop_with_zero_bins(self):
        # Zero-magnitude bins keep the estimate as a real value; even donor
        # counts take the midpoint of the two middle values.
        data = np.zeros((32, 17), dtype=complex)
        data[::3, ::2] = np.arange(1, 100).reshape(11, 9) * (1 + 1j)
        spec = Spectrum(hermitian(data, 32), 32)
        peaks = paired_peaks(32, 32, [(5, 2), (7, 9)])
        params = RepairParams(window=5, repair_radius=1)
        got = centered_full_plane(spectral_median(spec, peaks, params))
        assert np.array_equal(got, loop_spectral_median(centered_full_plane(spec), peaks, params))

    @pytest.mark.parametrize(
        "h,w", [pytest.param(32, 32, id="32"), pytest.param(32, 33, id="33"), (33, 32), (33, 33)]
    )
    def test_matches_per_bin_loop_in_self_mirror_columns(self, h, w):
        # The self-mirror columns (v = 0, and v = W/2 for even W) hold both
        # bins of a pair; the repaired pair must stay conjugate, as the
        # loop's pair-average makes it. Odd H has no self-mirror row at H/2.
        spec = dft2d(make_filtered_field(h, w, sigma=1.2, seed=w))
        # Peaks in centered column W//2 (v = 0), column 0 (v = W/2 for even W) and off them.
        peaks = paired_peaks(h, w, [(4, 0), (3, -(w // 2)), (6, 5)])
        params = RepairParams(window=5, repair_radius=2)
        got = centered_full_plane(spectral_median(spec, peaks, params))
        assert np.array_equal(got, loop_spectral_median(centered_full_plane(spec), peaks, params))

    def test_starvation_names_first_bin(self):
        spec = dft2d(GrayImage(np.full((32, 32), 50.0)))
        dense = [(du, dv) for du in range(4, 12) for dv in range(-4, 5)]
        # The first bin of the half plane, in centered row-major order.
        expected = r"^only 0 uncontaminated donor bins around spectrum bin \(6, 16\); increase window above 9$"
        with pytest.raises(ValueError, match=expected):
            spectral_median(spec, paired_peaks(32, 32, dense), RepairParams())

    def test_starvation_names_unestimated_lower_row(self):
        # Centered (9, 0) of a 33x32 plane is dft2d bin (26, 16): a lower row
        # of the self-mirror column v = W/2, estimated like every half-plane
        # bin. It is the first bin short of donors, so it is named.
        spec = dft2d(GrayImage(np.full((33, 32), 50.0)))
        peaks = paired_peaks(33, 32, [(du, 16) for du in range(2, 9)])
        expected = r"^only 2 uncontaminated donor bins around spectrum bin \(9, 0\); increase window above 5$"
        with pytest.raises(ValueError, match=expected):
            spectral_median(spec, peaks, RepairParams(window=5, repair_radius=2))


class TestDenoiseMoire:
    def test_clean_image_round_trips(self):
        img = GrayImage(np.full((64, 64), 128.0))
        out, peaks = denoise_moire(img, notch_reject)
        assert len(peaks) == 0
        assert np.max(np.abs(out.pixels - img.pixels)) <= 1e-9

    def test_constant_image_high_psnr(self):
        img = GrayImage(np.full((64, 64), 128.0))
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(20.0, 12 / 64, 0.0, 0.0),)))
        out, peaks = denoise_moire(noisy, spectral_median)
        assert sorted((p.u, p.v) for p in peaks) == [(20, 32), (44, 32)]
        report = psnr(img, out)
        assert report.psnr_db is None or report.psnr_db >= 40.0

    def test_median_beats_notch_on_textured_image(self):
        img = make_filtered_field(64, 64, sigma=1.2, seed=5)
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(20.0, 12 / 64, 0.0, 0.0),)))
        med, _ = denoise_moire(noisy, spectral_median)
        notch, _ = denoise_moire(noisy, notch_reject)
        p_med = psnr(img, med).psnr_db
        p_notch = psnr(img, notch).psnr_db
        assert p_med > p_notch
        # frozen from the reference run of this exact configuration
        assert p_med == pytest.approx(35.93, abs=0.5)
        assert p_notch == pytest.approx(29.76, abs=0.5)

    def test_denoised_beats_noisy(self):
        img = make_filtered_field(64, 64, sigma=1.2, seed=7)
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(20.0, 12 / 64, 0.0, 0.0),)))
        out, _ = denoise_moire(noisy, spectral_median)
        assert psnr(img, out).psnr_db > psnr(img, noisy).psnr_db

    def test_odd_dimensions_round_trip(self):
        img = GrayImage(np.full((17, 19), 90.0))
        out, peaks = denoise_moire(img, spectral_median)
        assert len(peaks) == 0
        assert np.max(np.abs(out.pixels - img.pixels)) <= 1e-9

    def test_minimum_size_full_repair(self):
        # At 16x16 the detection annulus and the repair disks wrap around the
        # whole grid; the oblique pair at distance sqrt(72) clears the guard.
        img = GrayImage(np.full((16, 16), 120.0))
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(30.0, 6 / 16, 6 / 16, 0.2),)))
        out, peaks = denoise_moire(noisy, spectral_median)
        assert sorted((p.u, p.v) for p in peaks) == [(2, 2), (14, 14)]
        better = psnr(img, out).psnr_db
        worse = psnr(img, noisy).psnr_db
        assert better is None or better > worse

    def test_odd_dimensions_full_repair(self):
        # Mirror bookkeeping is the tricky part on odd grids: center (16, 14),
        # pair at (16 +- 7, 14 +- 5).
        img = GrayImage(np.full((33, 29), 100.0))
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(30.0, 7 / 33, 5 / 29, 0.4),)))
        out, peaks = denoise_moire(noisy, spectral_median)
        assert sorted((p.u, p.v) for p in peaks) == [(9, 9), (23, 19)]
        better = psnr(img, out).psnr_db
        worse = psnr(img, noisy).psnr_db
        assert better is None or better > worse

    @pytest.mark.parametrize("repair", [notch_reject, spectral_median], ids=["notch", "median"])
    def test_repair_returns_the_spectrum_denoise_inverts(self, repair):
        img = make_filtered_field(64, 64, sigma=1.2, seed=5)
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(20.0, 12 / 64, 5 / 64, 0.0),)))
        spec = dft2d(noisy)
        repaired = repair(spec, detect_peaks(spec, RepairParams()), RepairParams())
        assert isinstance(repaired, Spectrum)
        out, _ = denoise_moire(noisy, repair)
        assert np.array_equal(idft2d(repaired).pixels, out.pixels)


class TestPeaksCsv:
    def test_format(self):
        peaks = PeakSet((Peak(3, 4, 12.5), Peak(10, 11, 99.0)))
        text = format_peaks_csv(peaks)
        lines = text.strip().split("\n")
        assert lines[0] == "u,v,magnitude"
        assert lines[1] == "3,4,12.5"
        assert lines[2] == "10,11,99"
