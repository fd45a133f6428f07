"""Classical spatial denoisers: median, mode, bilateral, diffusion, TV, NLM.

Every filter is a pure map over an immutable input frame with replicate
(Neumann) border handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import GrayImage

__all__ = [
    "BilateralParams",
    "DiffusionParams",
    "MedianParams",
    "NlmParams",
    "TvParams",
    "anisotropic_diffusion",
    "bilateral_filter",
    "edge_conductance",
    "gauss_weight",
    "median_filter",
    "mode_filter",
    "nlm_denoise",
    "total_variation",
    "tv_denoise",
    "tv_energy",
]

# Window values the global mode filter bins and sorts per block of rows, so
# its peak memory depends on this, not on the image height.
_MODE_BLOCK_VALUES = 1 << 16


def _require_finite(owner: str, **values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{owner} {name} must be finite, got {value}")


@dataclass(frozen=True)
class MedianParams:
    window: int = 3

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"median window must be an odd integer >= 3, got {self.window}")


@dataclass(frozen=True)
class BilateralParams:
    sigma_s: float = 2.0  # spatial std, pixels
    sigma_r: float = 30.0  # range std, intensity units

    def __post_init__(self):
        if self.sigma_s <= 0 or self.sigma_r <= 0:
            raise ValueError(f"bilateral sigmas must be positive, got {self.sigma_s}, {self.sigma_r}")
        _require_finite("bilateral", sigma_s=self.sigma_s, sigma_r=self.sigma_r)

    @property
    def radius(self) -> int:
        """Window truncation radius, ceil(3 * sigma_s)."""
        return math.ceil(3.0 * self.sigma_s)


@dataclass(frozen=True)
class DiffusionParams:
    k: float = 15.0  # edge threshold, gradient units
    lam: float = 0.2  # explicit step size; > 0.25 is unstable for 4 neighbors
    iterations: int = 10
    conductance: str = "exponential"  # or "rational"

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError(f"diffusion K must be positive, got {self.k}")
        _require_finite("diffusion", k=self.k)  # the range check below rejects a non-finite lam
        if not 0.0 < self.lam <= 0.25:
            raise ValueError(f"diffusion lambda must lie in (0, 0.25], got {self.lam}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.conductance not in ("exponential", "rational"):
            raise ValueError(f"conductance must be 'exponential' or 'rational', got {self.conductance!r}")


@dataclass(frozen=True)
class TvParams:
    lam: float = 1.0  # fidelity weight; large keeps the noisy input, small smooths hard
    step: float = 0.1
    iterations: int = 100
    epsilon: float = 1e-6  # gradient regularizer

    def __post_init__(self):
        if self.lam <= 0 or self.step <= 0 or self.epsilon <= 0:
            raise ValueError("TV lambda, step, and epsilon must all be positive")
        _require_finite("TV", lam=self.lam, step=self.step, epsilon=self.epsilon)
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")


@dataclass(frozen=True)
class NlmParams:
    h: float = 10.0  # weight decay
    patch_radius: int = 3
    search_radius: int = 10

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError(f"NLM h must be positive, got {self.h}")
        _require_finite("NLM", h=self.h)
        if self.patch_radius < 1:
            raise ValueError(f"patch_radius must be >= 1, got {self.patch_radius}")
        if self.search_radius < self.patch_radius:
            raise ValueError(
                f"search_radius ({self.search_radius}) must be >= patch_radius ({self.patch_radius})"
            )


def median_filter(img: GrayImage, p: MedianParams) -> GrayImage:
    """Window median at every pixel; odd window gives the exact middle value."""
    half = p.window // 2
    padded = np.pad(img.pixels, half, mode="edge")
    windows = sliding_window_view(padded, (p.window, p.window))
    return GrayImage(np.median(windows, axis=(2, 3)))


def _global_mode(windows: np.ndarray, center: np.ndarray, bin_width: float) -> np.ndarray:
    # Each pixel's window offsets from its center, binned and sorted, so equal
    # bins form runs. A value's depth in its run is its index minus the run's
    # start; only the most populated bins reach the deepest depth, once each.
    c = center[..., np.newaxis]
    bins = np.subtract(windows, c[..., np.newaxis]).reshape(*center.shape, -1)
    bins /= bin_width
    np.round(bins, out=bins)
    bins.sort(axis=-1)
    index = np.arange(bins.shape[-1])
    run_start = np.zeros(bins.shape, dtype=np.intp)
    np.multiply(bins[..., 1:] != bins[..., :-1], index[1:], out=run_start[..., 1:])
    depth = index - np.maximum.accumulate(run_start, axis=-1)
    modal = depth == depth.max(axis=-1, keepdims=True)
    # Tie break: nearest to the center pixel, then the lower bin.
    centers = c + bins * bin_width
    dist = np.where(modal, np.abs(centers - c), np.inf)
    nearest = modal & (dist == dist.min(axis=-1, keepdims=True))
    return np.where(nearest, centers, np.inf).min(axis=-1)


def mode_filter(
    img: GrayImage, window: int = 3, mode_kind: str = "local", bin_width: float = 8.0
) -> GrayImage:
    """Histogram-mode smoothing over a sliding window.

    "global" takes the center of the most populated histogram bin, with the
    bin grid anchored on the center pixel's value so a constant image is a
    fixed point; count ties break toward the bin nearest the center pixel.
    "local" runs a banded mean-shift from the center pixel value (move to the
    mean of the neighbors within +-bin_width of the estimate) until the move
    drops below 1e-3 or 50 iterations pass.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError(f"mode window must be an odd integer >= 3, got {window}")
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    _require_finite("mode", bin_width=bin_width)
    if mode_kind not in ("global", "local"):
        raise ValueError(f"mode_kind must be 'global' or 'local', got {mode_kind!r}")
    h, w = img.shape
    half = window // 2
    padded = np.pad(img.pixels, half, mode="edge")
    view = sliding_window_view(padded, (window, window))

    if mode_kind == "global":
        out = np.empty((h, w))
        rows = max(1, _MODE_BLOCK_VALUES // (w * window * window))
        for i0 in range(0, h, rows):
            out[i0 : i0 + rows] = _global_mode(view[i0 : i0 + rows], img.pixels[i0 : i0 + rows], bin_width)
        return GrayImage(out)

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
    return GrayImage(est)


def gauss_weight(x, sigma: float):
    """Gaussian kernel (1/(2*pi*sigma^2)) * exp(-x^2 / (2*sigma^2))."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-(x * x) / (2.0 * sigma * sigma)) / (2.0 * math.pi * sigma * sigma)


def bilateral_filter(img: GrayImage, p: BilateralParams) -> GrayImage:
    """Edge-preserving weighted mean: spatial closeness times range similarity."""
    r = p.radius
    h, w = img.shape
    base = img.pixels
    padded = np.pad(base, r, mode="edge")
    num = np.zeros((h, w))
    den = np.zeros((h, w))
    for du in range(-r, r + 1):
        for dv in range(-r, r + 1):
            ws = float(gauss_weight(math.hypot(du, dv), p.sigma_s))
            shifted = padded[r + du : r + du + h, r + dv : r + dv + w]
            wgt = ws * gauss_weight(base - shifted, p.sigma_r)
            num += wgt * shifted
            den += wgt
    return GrayImage(num / den)


def edge_conductance(grad, k: float, kind: str = "exponential"):
    """Edge-stopping weight c(|g|): exp(-|g|/K) or 1/(1+(|g|/K)^2); c(0) = 1."""
    g = np.abs(np.asarray(grad, dtype=np.float64))
    if kind == "exponential":
        return np.exp(-g / k)
    if kind == "rational":
        return 1.0 / (1.0 + (g / k) ** 2)
    raise ValueError(f"conductance must be 'exponential' or 'rational', got {kind!r}")


def anisotropic_diffusion(img: GrayImage, p: DiffusionParams) -> GrayImage:
    """Explicit 4-neighbor scheme u += lam * sum_d c(|d|) * d, Neumann borders."""
    u = img.pixels.copy()
    for _ in range(p.iterations):
        dn = np.zeros_like(u)
        ds = np.zeros_like(u)
        de = np.zeros_like(u)
        dw = np.zeros_like(u)
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
    return GrayImage(u)


def _forward_diff(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Forward differences with Neumann boundaries (zero at the far edge).
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[:, :-1] = u[:, 1:] - u[:, :-1]
    gy[:-1, :] = u[1:, :] - u[:-1, :]
    return gx, gy


def total_variation(img: GrayImage, epsilon: float = 0.0) -> float:
    """Discrete TV: sum of sqrt(gx^2 + gy^2 + epsilon^2) over all pixels."""
    gx, gy = _forward_diff(img.pixels)
    return float(np.sum(np.sqrt(gx * gx + gy * gy + epsilon * epsilon)))


def tv_energy(u: GrayImage, noisy: GrayImage, p: TvParams) -> float:
    """Objective minimized by tv_denoise: smoothed TV + (lam/2)*||u - noisy||^2."""
    fidelity = float(np.sum((u.pixels - noisy.pixels) ** 2))
    return total_variation(u, p.epsilon) + 0.5 * p.lam * fidelity


def tv_denoise(img: GrayImage, p: TvParams) -> GrayImage:
    """Fixed-step gradient descent on the epsilon-regularized TV objective."""
    u0 = img.pixels
    u = u0.copy()
    for _ in range(p.iterations):
        gx, gy = _forward_diff(u)
        mag = np.sqrt(gx * gx + gy * gy + p.epsilon * p.epsilon)
        px = gx / mag
        py = gy / mag
        div = px + py
        div[:, 1:] -= px[:, :-1]
        div[1:, :] -= py[:-1, :]
        u = u - p.step * (-div + p.lam * (u - u0))
    return GrayImage(u)


def _patch_kernel(radius: int) -> np.ndarray:
    # Separable 1D factor; the outer product sums to 1, so patch distances
    # are Gaussian-weighted means.
    sigma = radius / 2.0
    ax = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    return k1 / k1.sum()


def _conv_valid_sep(arr: np.ndarray, k1: np.ndarray) -> np.ndarray:
    # Kernel is symmetric, so correlation equals convolution.
    rows = sliding_window_view(arr, len(k1), axis=0) @ k1
    return sliding_window_view(rows, len(k1), axis=1) @ k1


def nlm_denoise(img: GrayImage, p: NlmParams) -> GrayImage:
    """Non-local means: weighted average over the search window.

    w(p,q) = exp(-D(p,q)/h^2) / Z(p), where D is the Gaussian-weighted
    (sigma = patch_radius/2) mean squared patch difference; Z normalizes the
    weights to sum to 1.
    """
    pr, sr = p.patch_radius, p.search_radius
    h, w = img.shape
    big = np.pad(img.pixels, sr + pr, mode="edge")
    ref = big[sr : sr + h + 2 * pr, sr : sr + w + 2 * pr]
    k1 = _patch_kernel(pr)
    h2 = p.h * p.h
    num = np.zeros((h, w))
    den = np.zeros((h, w))
    for du in range(-sr, sr + 1):
        for dv in range(-sr, sr + 1):
            cand = big[sr + du : sr + du + h + 2 * pr, sr + dv : sr + dv + w + 2 * pr]
            dist = _conv_valid_sep((ref - cand) ** 2, k1)
            wgt = np.exp(-dist / h2)
            num += wgt * cand[pr : pr + h, pr : pr + w]
            den += wgt
    return GrayImage(num / den)
