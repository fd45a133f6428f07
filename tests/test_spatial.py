import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import demoire.spatial
from demoire import (
    BilateralParams,
    DiffusionParams,
    GrayImage,
    MedianParams,
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
            out = mode_filter(img, 3, kind, 8.0)
            assert np.array_equal(out.pixels, img.pixels)

    def test_global_mode_dominant_bin(self):
        arr = np.zeros((5, 5))
        arr[2, 2] = 255.0
        out = mode_filter(GrayImage(arr), 3, "global", 8.0)
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
        global_out = mode_filter(img, 5, "global", bw).pixels[2, 2]
        local_out = mode_filter(img, 5, "local", bw).pixels[2, 2]
        # 190-anchored grid: the 50s land in bin round(-140/16) = -9 with
        # count 13, beating the 200s; its center is 190 - 9*16 = 46
        assert global_out == 46.0
        # mean shift from 190 with half-band 16: mean of {11 x 200, 190}
        assert local_out == pytest.approx((11 * 200.0 + 190.0) / 12.0, abs=1e-9)

    def test_errors(self):
        img = GrayImage(np.zeros((4, 4)))
        with pytest.raises(ValueError, match="odd"):
            mode_filter(img, 4, "global", 8.0)
        with pytest.raises(ValueError, match="bin_width"):
            mode_filter(img, 3, "global", 0.0)
        with pytest.raises(ValueError, match="mode_kind"):
            mode_filter(img, 3, "median", 8.0)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 9), (11, 6), (13, 13)])
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
                got = mode_filter(GrayImage(pixels), window, "global", bin_width).pixels
                assert np.array_equal(got, global_mode_oracle(pixels, window, bin_width))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_global_row_blocks(self, monkeypatch, rows):
        # Blocks of 1 and 3 rows: every block boundary of the 11-row image is crossed.
        rng = np.random.default_rng(15)
        pixels = rng.integers(0, 4, (11, 8)) * 7.0 + rng.random((11, 8))
        for window in (3, 5, 9):
            monkeypatch.setattr(demoire.spatial, "_MODE_BLOCK_VALUES", rows * 8 * window * window)
            for bin_width in (0.3, 8.0, 40.0):
                got = mode_filter(GrayImage(pixels), window, "global", bin_width).pixels
                assert np.array_equal(got, global_mode_oracle(pixels, window, bin_width))

    @pytest.mark.parametrize("bin_width", [float("nan"), float("inf")])
    def test_rejects_non_finite_bin_width(self, bin_width):
        with pytest.raises(ValueError, match=r"mode bin_width must be finite"):
            mode_filter(GrayImage(np.zeros((4, 4))), 3, "global", bin_width)

    def test_output_within_neighborhood_range(self):
        rng = np.random.default_rng(14)
        img = GrayImage(rng.random((10, 10)) * 255)
        for kind in ("global", "local"):
            out = mode_filter(img, 3, kind, 16.0)
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


def test_negative_infinity_keeps_positivity_error():
    with pytest.raises(ValueError, match="bilateral sigmas must be positive"):
        BilateralParams(sigma_s=float("-inf"))
    with pytest.raises(ValueError, match="bin_width must be positive"):
        mode_filter(GrayImage(np.zeros((4, 4))), 3, "global", float("-inf"))
