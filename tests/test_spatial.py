import math
import re
import threading

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import demoire.cli
import demoire.spatial
from demoire import (
    BilateralParams,
    DiffusionParams,
    GrayImage,
    MedianParams,
    ModeParams,
    NlmParams,
    TvParams,
    anisotropic_diffusion,
    bilateral_filter,
    edge_conductance,
    gauss_weight,
    median_filter,
    mode_filter,
    nlm_denoise,
    total_variation,
    tv_denoise,
    tv_energy,
    write_pgm,
)


def sort_median_oracle(pixels, window):
    # Brute force: sort the padded neighborhood, take the middle element.
    half = window // 2
    padded = np.pad(pixels, half, mode="edge")
    h, w = pixels.shape
    out = np.empty_like(pixels)
    for i in range(h):
        for j in range(w):
            block = padded[i : i + window, j : j + window].ravel()
            out[i, j] = sorted(block)[(window * window) // 2]
    return out


def global_mode_oracle(pixels, window, bin_width):
    # Per-pixel histogram: np.unique counts, np.lexsort breaks count ties.
    h, w = pixels.shape
    half = window // 2
    padded = np.pad(pixels, half, mode="edge")
    windows = sliding_window_view(padded, (window, window)).reshape(h, w, -1)
    out = np.empty((h, w))
    for i in range(h):
        for j in range(w):
            center = pixels[i, j]
            values = windows[i, j]
            bins = np.round((values - center) / bin_width)
            uniq, counts = np.unique(bins, return_counts=True)
            best = counts.max()
            centers = center + uniq[counts == best] * bin_width
            # Tie break: nearest to the center pixel, then the lower bin.
            dist = np.abs(centers - center)
            out[i, j] = centers[np.lexsort((centers, dist))[0]]
    return out


def local_mode_reference(img, window, bin_width):
    # The mean-shift over the whole-plane window stack, before row blocks.
    h, w = img.shape
    half = window // 2
    padded = np.pad(img.pixels, half, mode="edge")
    view = sliding_window_view(padded, (window, window))
    windows = view.reshape(h, w, -1)
    est = img.pixels.copy()
    active = np.ones((h, w), dtype=bool)
    for _ in range(50):
        if not active.any():
            break
        vals = windows[active]
        current = est[active][:, np.newaxis]
        in_band = np.abs(vals - current) <= bin_width
        counts = in_band.sum(axis=1)
        sums = np.where(in_band, vals, 0.0).sum(axis=1)
        updated = np.where(counts > 0, sums / np.maximum(counts, 1), est[active])
        moved = np.abs(updated - est[active])
        est[active] = updated
        active[active] = moved >= 1e-3
    return est


def gauss_weight_reference(x, sigma):
    # The kernel as one out-of-place expression.
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-(x * x) / (2.0 * sigma * sigma)) / (2.0 * math.pi * sigma * sigma)


def bilateral_full_offsets(img, p: BilateralParams):
    # Every window offset, each pixel pair weighed from both sides.
    r = p.radius
    h, w = img.shape
    base = img.pixels
    padded = np.pad(base, r, mode="edge")
    num = np.zeros((h, w))
    den = np.zeros((h, w))
    for du in range(-r, r + 1):
        for dv in range(-r, r + 1):
            ws = float(gauss_weight_reference(math.hypot(du, dv), p.sigma_s))
            shifted = padded[r + du : r + du + h, r + dv : r + dv + w]
            wgt = ws * gauss_weight_reference(base - shifted, p.sigma_r)
            num += wgt * shifted
            den += wgt
    return num / den


def _conv_valid_sep_dot(arr, k1):
    # Kernel is symmetric, so correlation equals convolution.
    rows = sliding_window_view(arr, len(k1), axis=0) @ k1
    return sliding_window_view(rows, len(k1), axis=1) @ k1


def nlm_full_offsets(img, p: NlmParams):
    # Every search offset, each pixel pair weighed from both sides.
    pr, sr = p.patch_radius, p.search_radius
    h, w = img.shape
    big = np.pad(img.pixels, sr + pr, mode="edge")
    ref = big[sr : sr + h + 2 * pr, sr : sr + w + 2 * pr]
    k1 = demoire.spatial._patch_kernel(pr)
    h2 = p.h * p.h
    num = np.zeros((h, w))
    den = np.zeros((h, w))
    for du in range(-sr, sr + 1):
        for dv in range(-sr, sr + 1):
            cand = big[sr + du : sr + du + h + 2 * pr, sr + dv : sr + dv + w + 2 * pr]
            dist = _conv_valid_sep_dot((ref - cand) ** 2, k1)
            wgt = np.exp(-dist / h2)
            num += wgt * cand[pr : pr + h, pr : pr + w]
            den += wgt
    return num / den


def tv_iterated_steps(img, p: TvParams):
    u = img
    for _ in range(p.iterations):
        u = tv_denoise_step(u, img, p)
    return u.pixels


SMALL_SHAPES = [(1, 1), (1, 7), (7, 1), (5, 9), (11, 6), (13, 13)]


def diffusion_four_directions(img, p: DiffusionParams):
    # Reference: the flux through each edge computed from both of its pixels,
    # one zero-padded difference plane per direction.
    u = img.pixels.copy()
    for _ in range(p.iterations):
        dn, ds, de, dw = (np.zeros_like(u) for _ in range(4))
        dn[1:, :] = u[:-1, :] - u[1:, :]
        ds[:-1, :] = u[1:, :] - u[:-1, :]
        de[:, :-1] = u[:, 1:] - u[:, :-1]
        dw[:, 1:] = u[:, :-1] - u[:, 1:]
        flux = (
            edge_conductance(dn, p.k, p.conductance) * dn
            + edge_conductance(ds, p.k, p.conductance) * ds
            + edge_conductance(de, p.k, p.conductance) * de
            + edge_conductance(dw, p.k, p.conductance) * dw
        )
        u = u + p.lam * flux
    return u


def bilateral_reference(img, p: BilateralParams):
    # Reference: the half-offset pair sums over the whole image on one thread.
    r = p.radius
    base = img.pixels
    padded = np.pad(base, r, mode="edge")
    wgt0 = float(gauss_weight(0.0, p.sigma_s)) * float(gauss_weight(0.0, p.sigma_r))
    num = wgt0 * base
    den = np.full(img.shape, wgt0)
    for du, dv in demoire.spatial._half_offsets(r):
        ws = float(gauss_weight(math.hypot(du, dv), p.sigma_s))
        near, far = demoire.spatial._pair_windows(padded, r, img.shape, du, dv)
        wgt = gauss_weight(near - far, p.sigma_r)
        wgt *= ws
        demoire.spatial._add_pair(num, den, wgt, near, far, du, dv)
    return num / den


def nlm_reference(img, p: NlmParams):
    # Reference: the half-offset pair sums over the whole image on one thread.
    sp = demoire.spatial
    pr, sr = p.patch_radius, p.search_radius
    h, w = img.shape
    big = np.pad(img.pixels, sr + pr, mode="edge")
    k1 = sp._patch_kernel(pr)
    h2 = p.h * p.h
    num = img.pixels.copy()
    den = np.ones(img.shape)
    for du, dv in sp._half_offsets(sr):
        near_patch, far_patch = sp._pair_windows(big, sr, (h + 2 * pr, w + 2 * pr), du, dv)
        sq = np.subtract(near_patch, far_patch)
        dist = sp._conv_valid_sep(np.multiply(sq, sq, out=sq), k1)
        wgt = np.exp(np.divide(dist, -h2, out=dist), out=dist)
        near, far = sp._pair_windows(big, sr + pr, img.shape, du, dv)
        sp._add_pair(num, den, wgt, near, far, du, dv)
    return num / den


# Row strips: every shape is split across 1, 2, 3 and 5 reported CPUs, down
# to one row or one column per strip and more CPUs than rows.
STRIP_SHAPES = [(256, 256), (257, 256), (64, 63), (17, 31), (5, 7), (1, 9), (12, 1), (2, 40)]
STRIP_CPUS = (1, 2, 3, 5)


def strip_image(shape):
    rng = np.random.default_rng([*shape, 19])
    return GrayImage(np.round(rng.random(shape) * 255.0))


def report_cpus(monkeypatch, n):
    monkeypatch.setattr(demoire.spatial.os, "sched_getaffinity", lambda pid: set(range(n)))


def small_images(shape):
    # Uniform noise, and few levels with an edge: weights near 1 and near 0.
    rng = np.random.default_rng(shape)
    steps = np.where(np.arange(shape[1]) < shape[1] // 2, 40.0, 200.0) + rng.integers(0, 3, shape) * 5.0
    return [GrayImage(rng.random(shape) * 255.0), GrayImage(steps)]


def gaussian_convolution_oracle(pixels, sigma_s, radius):
    # Truncated, normalized Gaussian blur with replicate padding.
    h, w = pixels.shape
    padded = np.pad(pixels, radius, mode="edge")
    num = np.zeros((h, w))
    den = 0.0
    for du in range(-radius, radius + 1):
        for dv in range(-radius, radius + 1):
            wgt = math.exp(-(du * du + dv * dv) / (2.0 * sigma_s * sigma_s))
            num += wgt * padded[radius + du : radius + du + h, radius + dv : radius + dv + w]
            den += wgt
    return num / den


def nlm_oracle(pixels, p: NlmParams):
    """Per-pixel loops; returns (output, per-pixel normalized weight lists)."""
    pr, sr = p.patch_radius, p.search_radius
    h, w = pixels.shape
    big = np.pad(pixels, sr + pr, mode="edge")
    sigma = pr / 2.0
    axis = np.arange(-pr, pr + 1)
    k1 = np.exp(-(axis**2) / (2 * sigma * sigma))
    k1 /= k1.sum()
    kernel = np.outer(k1, k1)
    out = np.empty((h, w))
    all_weights = []
    for i in range(h):
        for j in range(w):
            ci, cj = i + sr + pr, j + sr + pr
            ref = big[ci - pr : ci + pr + 1, cj - pr : cj + pr + 1]
            raw = []
            vals = []
            for du in range(-sr, sr + 1):
                for dv in range(-sr, sr + 1):
                    cand = big[ci + du - pr : ci + du + pr + 1, cj + dv - pr : cj + dv + pr + 1]
                    dist = float(np.sum(kernel * (ref - cand) ** 2))
                    raw.append(math.exp(-dist / (p.h * p.h)))
                    vals.append(big[ci + du, cj + dv])
            z = math.fsum(raw)
            weights = [r / z for r in raw]
            all_weights.append(weights)
            out[i, j] = math.fsum(wt * v for wt, v in zip(weights, vals))
    return out, all_weights


class TestMedianFilter:
    def test_constant_fixed_point(self):
        img = GrayImage(np.full((10, 10), 42.0))
        out = median_filter(img, MedianParams(3))
        assert np.array_equal(out.pixels, img.pixels)

    def test_impulse_removed(self):
        arr = np.zeros((8, 8))
        arr[4, 4] = 255.0
        out = median_filter(GrayImage(arr), MedianParams(3))
        assert np.array_equal(out.pixels, np.zeros((8, 8)))

    @pytest.mark.parametrize("window", [3, 5])
    def test_matches_sort_oracle(self, window):
        rng = np.random.default_rng(12)
        for _ in range(5):
            img = GrayImage(rng.random((16, 16)) * 255)
            got = median_filter(img, MedianParams(window)).pixels
            want = sort_median_oracle(img.pixels, window)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", STRIP_SHAPES)
    @pytest.mark.parametrize("window", [3, 5])
    def test_row_blocks_same_bytes_as_whole_view(self, monkeypatch, shape, window):
        img = strip_image(shape)
        view = sliding_window_view(np.pad(img.pixels, window // 2, mode="edge"), (window, window))
        want = np.median(view, axis=(2, 3)).tobytes()
        assert median_filter(img, MedianParams(window)).pixels.tobytes() == want
        for rows in (1, 3):  # blocks of 1 and 3 rows cross every block boundary
            monkeypatch.setattr(demoire.spatial, "_BLOCK_VALUES", rows * shape[1] * window * window)
            assert median_filter(img, MedianParams(window)).pixels.tobytes() == want

    def test_rejects_even_window(self):
        with pytest.raises(ValueError, match="odd"):
            MedianParams(4)

    def test_output_within_neighborhood_range(self):
        rng = np.random.default_rng(13)
        img = GrayImage(rng.random((12, 12)) * 255)
        out = median_filter(img, MedianParams(5))
        assert out.pixels.min() >= img.pixels.min()
        assert out.pixels.max() <= img.pixels.max()


class TestModeFilter:
    def test_constant_fixed_point_both_kinds(self):
        img = GrayImage(np.full((6, 6), 77.0))
        for kind in ("global", "local"):
            out = mode_filter(img, ModeParams(3, kind, 8.0))
            assert np.array_equal(out.pixels, img.pixels)

    def test_global_mode_dominant_bin(self):
        arr = np.zeros((5, 5))
        arr[2, 2] = 255.0
        out = mode_filter(GrayImage(arr), ModeParams(3, "global", 8.0))
        # zeros dominate every neighborhood; pixels whose own value is 0 get
        # the zero-anchored bin center, exactly 0
        want = np.zeros((5, 5))
        want[2, 2] = -1.0  # 255-anchored grid: the zeros' bin center is 255 - 32*8
        assert np.array_equal(out.pixels, want)

    def test_bimodal_neighborhood_hand_case(self):
        # 5x5 window at the center holds 13 values of 50, 11 of 200, center 190.
        arr = np.full((5, 5), 50.0)
        flat = [(i, j) for i in range(5) for j in range(5) if (i, j) != (2, 2)]
        for i, j in flat[:11]:
            arr[i, j] = 200.0
        arr[2, 2] = 190.0
        count50 = int(np.sum(arr == 50.0))
        assert count50 == 13
        img = GrayImage(arr)
        bw = 16.0
        global_out = mode_filter(img, ModeParams(5, "global", bw)).pixels[2, 2]
        local_out = mode_filter(img, ModeParams(5, "local", bw)).pixels[2, 2]
        # 190-anchored grid: the 50s land in bin round(-140/16) = -9 with
        # count 13, beating the 200s; its center is 190 - 9*16 = 46
        assert global_out == 46.0
        # mean shift from 190 with half-band 16: mean of {11 x 200, 190}
        assert local_out == pytest.approx((11 * 200.0 + 190.0) / 12.0, abs=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError, match="odd"):
            ModeParams(4, "global", 8.0)
        with pytest.raises(ValueError, match="bin_width"):
            ModeParams(3, "global", 0.0)
        with pytest.raises(ValueError, match="mode_kind"):
            ModeParams(3, "median", 8.0)

    @pytest.mark.parametrize("shape", SMALL_SHAPES)
    @pytest.mark.parametrize("window", [3, 5, 7, 9])
    def test_global_matches_per_pixel_oracle(self, shape, window):
        rng = np.random.default_rng([*shape, window])
        plateaus = np.repeat(rng.integers(0, 2, (shape[0], 1)) * 9.0, shape[1], axis=1)
        cases = [
            rng.integers(0, 3, shape) * 10.0,  # few levels: count ties everywhere
            np.where((plateaus == 0.0) & (rng.random(shape) < 0.5), -0.0, plateaus),  # signed zeros
            np.full(shape, -0.0),
            rng.random(shape) * 255.0,
            np.round(rng.normal(128.0, 12.0, shape)),
        ]
        for pixels in cases:
            for bin_width in (0.3, 1.0, 4.0, 8.0, 16.0, 40.0):
                got = mode_filter(GrayImage(pixels), ModeParams(window, "global", bin_width)).pixels
                assert np.array_equal(got, global_mode_oracle(pixels, window, bin_width))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_global_row_blocks(self, monkeypatch, rows):
        # Blocks of 1 and 3 rows: every block boundary of the 11-row image is crossed.
        rng = np.random.default_rng(15)
        pixels = rng.integers(0, 4, (11, 8)) * 7.0 + rng.random((11, 8))
        for window in (3, 5, 9):
            monkeypatch.setattr(demoire.spatial, "_BLOCK_VALUES", rows * 8 * window * window)
            for bin_width in (0.3, 8.0, 40.0):
                got = mode_filter(GrayImage(pixels), ModeParams(window, "global", bin_width)).pixels
                assert np.array_equal(got, global_mode_oracle(pixels, window, bin_width))

    @pytest.mark.parametrize("shape", SMALL_SHAPES)
    @pytest.mark.parametrize("window", [3, 5, 9])
    def test_local_matches_whole_plane_reference(self, shape, window):
        rng = np.random.default_rng([*shape, window, 1])
        for pixels in (rng.integers(0, 3, shape) * 10.0, rng.random(shape) * 255.0):
            for bin_width in (0.3, 8.0, 40.0):
                got = mode_filter(GrayImage(pixels), ModeParams(window, "local", bin_width)).pixels
                assert np.array_equal(got, local_mode_reference(GrayImage(pixels), window, bin_width))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_local_row_blocks(self, monkeypatch, rows):
        rng = np.random.default_rng(16)
        img = GrayImage(rng.integers(0, 4, (11, 8)) * 7.0 + rng.random((11, 8)) * 9.0)
        for window in (3, 5, 9):
            monkeypatch.setattr(demoire.spatial, "_BLOCK_VALUES", rows * 8 * window * window)
            for bin_width in (0.3, 8.0, 40.0):
                got = mode_filter(img, ModeParams(window, "local", bin_width)).pixels
                assert np.array_equal(got, local_mode_reference(img, window, bin_width))

    @pytest.mark.parametrize("bin_width", [float("nan"), float("inf")])
    def test_rejects_non_finite_bin_width(self, bin_width):
        with pytest.raises(ValueError, match=r"mode bin_width must be finite"):
            ModeParams(3, "global", bin_width)

    def test_output_within_neighborhood_range(self):
        rng = np.random.default_rng(14)
        img = GrayImage(rng.random((10, 10)) * 255)
        for kind in ("global", "local"):
            out = mode_filter(img, ModeParams(3, kind, 16.0))
            assert out.pixels.min() >= img.pixels.min() - 8.0
            assert out.pixels.max() <= img.pixels.max() + 8.0


class TestBilateralFilter:
    def test_constant_fixed_point(self):
        img = GrayImage(np.full((8, 8), 33.0))
        out = bilateral_filter(img, BilateralParams(1.5, 20.0))
        assert np.allclose(out.pixels, 33.0, atol=1e-12)

    def test_kernel_center_weight(self):
        assert float(gauss_weight(0.0, 1.0)) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)

    def test_gaussian_limit_for_huge_sigma_r(self):
        rng = np.random.default_rng(15)
        img = GrayImage(rng.random((12, 12)) * 255)
        p = BilateralParams(sigma_s=1.5, sigma_r=1e6)
        got = bilateral_filter(img, p).pixels
        want = gaussian_convolution_oracle(img.pixels, 1.5, p.radius)
        assert np.max(np.abs(got - want)) <= 1e-6

    @pytest.mark.parametrize("shape", SMALL_SHAPES)
    def test_half_offsets_match_full_offsets(self, shape):
        # Radii 6 (default), 2, 9 and 15: most exceed the image sides.
        radii = (BilateralParams(), BilateralParams(0.5, 10.0), BilateralParams(3.0, 60.0), BilateralParams(5.0, 5.0))
        for p in radii:
            for img in small_images(shape):
                got = bilateral_filter(img, p).pixels
                assert np.max(np.abs(got - bilateral_full_offsets(img, p))) <= 1e-9

    @pytest.mark.parametrize("shape", STRIP_SHAPES)
    @pytest.mark.parametrize("p", [BilateralParams(), BilateralParams(7.5, 12.0)], ids=["default", "7.5-12"])
    def test_row_strips_same_bytes_as_reference(self, monkeypatch, shape, p):
        img = strip_image(shape)
        want = bilateral_reference(img, p).tobytes()
        for cpus in STRIP_CPUS:
            report_cpus(monkeypatch, cpus)
            assert bilateral_filter(img, p).pixels.tobytes() == want, cpus

    def test_row_strips_by_cpu_count_without_affinity(self, monkeypatch):
        # Platforms without os.sched_getaffinity (macOS, Windows) split by os.cpu_count().
        monkeypatch.delattr(demoire.spatial.os, "sched_getaffinity")
        monkeypatch.setattr(demoire.spatial.os, "cpu_count", lambda: 3)
        img = strip_image((17, 31))
        assert bilateral_filter(img, BilateralParams()).pixels.tobytes() == bilateral_reference(img, BilateralParams()).tobytes()

    def test_gauss_weight_matches_reference(self):
        rng = np.random.default_rng(17)
        x = rng.normal(0.0, 60.0, (7, 9))
        for sigma in (0.5, 2.0, 30.0):
            assert np.array_equal(gauss_weight(x, sigma), gauss_weight_reference(x, sigma))
            scalar = gauss_weight(-3.5, sigma)
            assert np.isscalar(scalar) and scalar == gauss_weight_reference(-3.5, sigma)

    def test_radius_derived_from_sigma_s(self):
        assert BilateralParams(sigma_s=2.0).radius == 6
        assert BilateralParams(sigma_s=2.1).radius == 7

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="positive"):
            BilateralParams(sigma_s=0.0)
        with pytest.raises(ValueError, match="positive"):
            BilateralParams(sigma_r=-1.0)

    def test_output_within_range(self):
        rng = np.random.default_rng(16)
        img = GrayImage(rng.random((10, 10)) * 255)
        out = bilateral_filter(img, BilateralParams())
        assert out.pixels.min() >= img.pixels.min() - 1e-9
        assert out.pixels.max() <= img.pixels.max() + 1e-9


class TestAnisotropicDiffusion:
    def test_conductance_at_zero_gradient(self):
        assert float(edge_conductance(0.0, 15.0, "exponential")) == 1.0
        assert float(edge_conductance(0.0, 15.0, "rational")) == 1.0

    def test_conductance_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match=r"^conductance must be 'exponential' or 'rational', got 'linear'$"):
            edge_conductance(1.0, 15.0, "linear")

    def test_constant_unchanged(self):
        img = GrayImage(np.full((9, 9), 5.0))
        for kind in ("exponential", "rational"):
            out = anisotropic_diffusion(img, DiffusionParams(15.0, 0.25, 30, kind))
            assert np.array_equal(out.pixels, img.pixels)

    def test_mean_preserved_and_variance_decreases(self):
        rng = np.random.default_rng(17)
        img = GrayImage(rng.random((32, 32)) * 255)
        out = anisotropic_diffusion(img, DiffusionParams(15.0, 0.25, 20, "exponential"))
        assert abs(out.pixels.mean() - img.pixels.mean()) <= 1e-9
        assert out.pixels.var() < img.pixels.var()

    def test_rational_kind_also_smooths(self):
        rng = np.random.default_rng(18)
        img = GrayImage(rng.random((16, 16)) * 255)
        out = anisotropic_diffusion(img, DiffusionParams(30.0, 0.2, 10, "rational"))
        assert out.pixels.var() < img.pixels.var()

    def test_lambda_bounds(self):
        with pytest.raises(ValueError, match="lambda"):
            DiffusionParams(lam=0.3)
        with pytest.raises(ValueError, match="lambda"):
            DiffusionParams(lam=0.0)

    @pytest.mark.parametrize("shape", [(256, 256), (257, 256), (64, 63), (5, 7), (1, 9), (12, 1)])
    @pytest.mark.parametrize("kind", ["exponential", "rational"])
    def test_same_bytes_as_four_direction_reference(self, shape, kind):
        rng = np.random.default_rng([*shape, len(kind)])
        p = DiffusionParams(3.0, 0.25, 25, kind)
        for pixels in (np.round(rng.random(shape) * 255.0), np.round(rng.normal(128.0, 4.0, shape))):
            img = GrayImage(pixels)
            assert anisotropic_diffusion(img, p).pixels.tobytes() == diffusion_four_directions(img, p).tobytes()

    def test_zero_iterations_identity(self):
        rng = np.random.default_rng(19)
        img = GrayImage(rng.random((8, 8)) * 255)
        out = anisotropic_diffusion(img, DiffusionParams(iterations=0))
        assert np.array_equal(out.pixels, img.pixels)


class TestTvDenoise:
    def test_constant_is_stationary(self):
        img = GrayImage(np.full((8, 8), 9.0))
        out = tv_denoise(img, TvParams())
        assert np.array_equal(out.pixels, img.pixels)
        assert total_variation(img) == 0.0

    def test_discrete_tv_hand_value(self):
        img = GrayImage(np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert total_variation(img, epsilon=0.0) == 2.0

    @pytest.mark.parametrize("shape", [(1, 1), (1, 8), (8, 1), (13, 9)])
    def test_equals_iterated_steps(self, shape):
        rng = np.random.default_rng(shape)
        img = GrayImage(rng.random(shape) * 255)
        for p in (TvParams(), TvParams(lam=0.3, step=0.05, iterations=7, epsilon=0.5)):
            assert np.array_equal(tv_denoise(img, p).pixels, tv_iterated_steps(img, p))

    def test_huge_lambda_keeps_noisy_input(self):
        rng = np.random.default_rng(20)
        img = GrayImage(rng.random((16, 16)) * 255)
        out = tv_denoise(img, TvParams(lam=1e6, step=1e-6, iterations=200))
        rms = math.sqrt(float(np.mean((out.pixels - img.pixels) ** 2)))
        assert rms <= 1e-3

    def test_energy_decreases_net(self):
        rng = np.random.default_rng(21)
        img = GrayImage(rng.random((24, 24)) * 255)
        p = TvParams()
        out = tv_denoise(img, p)
        assert tv_energy(out, img, p) < tv_energy(img, img, p)

    def test_energy_monotone_in_stable_regime(self):
        # With epsilon large enough, the objective gradient is Lipschitz with
        # constant ~ lam + 8/epsilon, and the default step is safely below the
        # descent bound; every step must then decrease the objective.
        p = TvParams(lam=1.0, step=0.1, iterations=1, epsilon=2.0)
        rng = np.random.default_rng(22)
        for _ in range(5):
            noisy = GrayImage(rng.random((16, 16)) * 255)
            u = noisy
            prev = tv_energy(u, noisy, p)
            for _ in range(100):
                nxt = tv_denoise_step(u, noisy, p)
                e = tv_energy(nxt, noisy, p)
                assert e <= prev
                u, prev = nxt, e

    def test_smooths_noise(self):
        rng = np.random.default_rng(23)
        img = GrayImage(rng.random((16, 16)) * 255)
        out = tv_denoise(img, TvParams(lam=0.05, step=0.1, iterations=100))
        assert total_variation(out, 1e-6) < total_variation(img, 1e-6)

    def test_param_validation(self):
        for bad in (dict(lam=0.0), dict(step=0.0), dict(epsilon=0.0)):
            with pytest.raises(ValueError):
                TvParams(**bad)


def tv_denoise_step(u: GrayImage, noisy: GrayImage, p: TvParams) -> GrayImage:
    # One descent step anchored to the original noisy frame.
    from demoire.spatial import _forward_diff

    arr = u.pixels
    gx, gy = _forward_diff(arr)
    mag = np.sqrt(gx * gx + gy * gy + p.epsilon * p.epsilon)
    px, py = gx / mag, gy / mag
    div = px + py
    div[:, 1:] -= px[:, :-1]
    div[1:, :] -= py[:-1, :]
    return GrayImage(arr - p.step * (-div + p.lam * (arr - noisy.pixels)))


class TestNlmDenoise:
    def test_constant_fixed_point(self):
        img = GrayImage(np.full((8, 8), 21.0))
        out = nlm_denoise(img, NlmParams(10.0, 1, 2))
        assert np.allclose(out.pixels, 21.0, atol=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(24)
        img = GrayImage(rng.random((8, 8)) * 255)
        p = NlmParams(h=25.0, patch_radius=1, search_radius=2)
        got = nlm_denoise(img, p).pixels
        want, weights = nlm_oracle(img.pixels, p)
        assert np.max(np.abs(got - want)) <= 1e-9
        for wlist in weights:
            assert abs(math.fsum(wlist) - 1.0) <= 1e-12
            assert all(0.0 <= wt <= 1.0 for wt in wlist)

    def test_matches_bruteforce_oracle_non_square(self):
        rng = np.random.default_rng(27)
        img = GrayImage(rng.random((4, 7)) * 255)
        p = NlmParams(h=30.0, patch_radius=1, search_radius=5)
        got = nlm_denoise(img, p).pixels
        want, _ = nlm_oracle(img.pixels, p)
        assert np.max(np.abs(got - want)) <= 1e-9

    @pytest.mark.parametrize("shape", SMALL_SHAPES)
    def test_half_offsets_match_full_offsets(self, shape):
        # Search radius 10 (default) exceeds every side; patch radii 3, 1 and 2.
        for p in (NlmParams(), NlmParams(15.0, 1, 2), NlmParams(40.0, 2, 6)):
            for img in small_images(shape):
                got = nlm_denoise(img, p).pixels
                assert np.max(np.abs(got - nlm_full_offsets(img, p))) <= 1e-9

    @pytest.mark.parametrize("shape", STRIP_SHAPES)
    @pytest.mark.parametrize("p", [NlmParams(), NlmParams(25.0, 2, 14)], ids=["default", "25-2-14"])
    def test_row_strips_same_bytes_as_reference(self, monkeypatch, shape, p):
        img = strip_image(shape)
        want = nlm_reference(img, p).tobytes()
        for cpus in STRIP_CPUS:
            report_cpus(monkeypatch, cpus)
            assert nlm_denoise(img, p).pixels.tobytes() == want, cpus

    def test_worker_strip_error_exits_1(self, monkeypatch, tmp_path, capsys):
        # A ValueError on a worker thread reaches cli.main, after every strip is joined.
        conv = demoire.spatial._conv_valid_sep

        def failing_off_main(arr, k1):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("worker strip failed")
            return conv(arr, k1)

        report_cpus(monkeypatch, 2)
        monkeypatch.setattr(demoire.spatial, "_conv_valid_sep", failing_off_main)
        before = threading.active_count()
        (tmp_path / "in.pgm").write_bytes(write_pgm(strip_image((24, 20))))
        argv = ["denoise", "--in", str(tmp_path / "in.pgm"), "--out", str(tmp_path / "out.pgm"), "--method", "nlm"]
        assert demoire.cli.main(argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: worker strip failed"]
        assert threading.active_count() == before
        assert not (tmp_path / "out.pgm").exists()

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(25)
        half = rng.random((10, 5)) * 255
        sym = np.hstack([half, half[:, ::-1]])
        out = nlm_denoise(GrayImage(sym), NlmParams(15.0, 1, 3)).pixels
        assert np.max(np.abs(out - out[:, ::-1])) <= 1e-9

    def test_param_validation(self):
        with pytest.raises(ValueError, match="h must"):
            NlmParams(h=0.0)
        with pytest.raises(ValueError, match="patch_radius"):
            NlmParams(patch_radius=0)
        with pytest.raises(ValueError, match="search_radius"):
            NlmParams(patch_radius=3, search_radius=2)

    def test_output_within_range(self):
        rng = np.random.default_rng(26)
        img = GrayImage(rng.random((9, 9)) * 255)
        out = nlm_denoise(img, NlmParams(10.0, 1, 2))
        assert out.pixels.min() >= img.pixels.min() - 1e-9
        assert out.pixels.max() <= img.pixels.max() + 1e-9


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "params, field",
    [
        (BilateralParams, "sigma_s"),
        (BilateralParams, "sigma_r"),
        (DiffusionParams, "k"),
        (TvParams, "lam"),
        (TvParams, "step"),
        (TvParams, "epsilon"),
        (NlmParams, "h"),
    ],
)
def test_params_reject_non_finite_field(params, field, value):
    with pytest.raises(ValueError, match=rf" {field} must be finite, got {value}$"):
        params(**{field: value})


@pytest.mark.parametrize(
    "params, field, value, message",
    [
        (DiffusionParams, "k", 0.0, "diffusion K must be positive, got 0.0"),
        (DiffusionParams, "iterations", -1, "iterations must be >= 0, got -1"),
        (DiffusionParams, "conductance", "linear", "conductance must be 'exponential' or 'rational', got 'linear'"),
        (TvParams, "iterations", -1, "iterations must be >= 0, got -1"),
    ],
    ids=["diffusion-k", "diffusion-iterations", "diffusion-conductance", "tv-iterations"],
)
def test_params_reject_out_of_range_field(params, field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        params(**{field: value})


def test_negative_infinity_keeps_positivity_error():
    with pytest.raises(ValueError, match="bilateral sigmas must be positive"):
        BilateralParams(sigma_s=float("-inf"))
    with pytest.raises(ValueError, match="bin_width must be positive"):
        ModeParams(3, "global", float("-inf"))
