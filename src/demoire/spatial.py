"""Classical spatial denoisers: median, mode, bilateral, diffusion, TV, NLM.

Every filter is a pure map over an immutable input frame with replicate
(Neumann) border handling.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import GrayImage, _require_finite

__all__ = [
    "BilateralParams",
    "DiffusionParams",
    "MedianParams",
    "ModeParams",
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

# Window values per row block of the median and mode filters: it, not the height, bounds their memory.
_BLOCK_VALUES = 1 << 16


def _windows(img: GrayImage, window: int) -> tuple[np.ndarray, list[slice]]:
    """The edge-padded window view of the image, and row blocks of it that hold at most _BLOCK_VALUES values."""
    h, w = img.shape
    rows = max(1, _BLOCK_VALUES // (w * window * window))
    view = sliding_window_view(np.pad(img.pixels, window // 2, mode="edge"), (window, window))
    return view, [np.s_[i0 : i0 + rows] for i0 in range(0, h, rows)]


@dataclass(frozen=True)
class MedianParams:
    window: int = 3

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"median window must be an odd integer >= 3, got {self.window}")


@dataclass(frozen=True)
class ModeParams:
    window: int = 3
    mode_kind: str = "local"  # or "global"
    bin_width: float = 8.0  # histogram bin width (global), mean-shift band half-width (local)

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"mode window must be an odd integer >= 3, got {self.window}")
        if self.bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {self.bin_width}")
        _require_finite("mode", bin_width=self.bin_width)
        if self.mode_kind not in ("global", "local"):
            raise ValueError(f"mode_kind must be 'global' or 'local', got {self.mode_kind!r}")


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
    view, blocks = _windows(img, p.window)
    return GrayImage(np.concatenate([np.median(view[b], axis=(2, 3)) for b in blocks]))


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


def _local_mode(windows: np.ndarray, center: np.ndarray, bin_width: float) -> np.ndarray:
    # Banded mean-shift per pixel; pixels stop moving independently.
    windows = windows.reshape(*center.shape, -1)
    est = center.copy()
    active = np.ones(center.shape, dtype=bool)
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


def mode_filter(img: GrayImage, p: ModeParams) -> GrayImage:
    """Histogram-mode smoothing over a sliding window.

    "global" takes the center of the most populated histogram bin, with the
    bin grid anchored on the center pixel's value so a constant image is a
    fixed point; count ties break toward the bin nearest the center pixel.
    "local" runs a banded mean-shift from the center pixel value (move to the
    mean of the neighbors within +-bin_width of the estimate) until the move
    drops below 1e-3 or 50 iterations pass.
    """
    view, blocks = _windows(img, p.window)
    mode = _global_mode if p.mode_kind == "global" else _local_mode
    return GrayImage(np.concatenate([mode(view[b], img.pixels[b], p.bin_width) for b in blocks]))


def gauss_weight(x, sigma: float):
    """Gaussian kernel (1/(2*pi*sigma^2)) * exp(-x^2 / (2*sigma^2))."""
    x = np.asarray(x, dtype=np.float64)
    # In place on one array; dividing by -(2 sigma^2) is exactly negating first.
    g = np.multiply(x, x, out=np.empty_like(x))
    g /= -(2.0 * sigma * sigma)
    np.exp(g, out=g)
    g /= 2.0 * math.pi * sigma * sigma
    return g if g.ndim else g[()]


def _by_rows(h: int, rows) -> np.ndarray:
    """``rows(lo, hi)`` on one strip of the h rows per available CPU, stacked; the last strip
    runs on this thread, the others on worker threads (numpy's loops release the GIL)."""
    from concurrent.futures import ThreadPoolExecutor  # ~6 ms to import: not at module load

    n = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1, h)
    bounds = [h * k // n for k in range(n + 1)]
    with ThreadPoolExecutor(n) as pool:
        workers = [pool.submit(rows, lo, hi) for lo, hi in zip(bounds[:-2], bounds[1:-1])]
        last = rows(bounds[-2], bounds[-1])
        return np.concatenate([worker.result() for worker in workers] + [last])


def _half_offsets(radius: int):
    """One offset d = (du, dv) of each pair d, -d in the window: du > 0, or du == 0 and dv > 0."""
    for du in range(radius + 1):
        for dv in range(-radius if du else 1, radius + 1):
            yield du, dv


def _pair_windows(padded: np.ndarray, pad: int, shape: tuple[int, int], du: int, dv: int):
    """Values at p and at p + d over the pixels p for which p or p + d lies in the image.

    Both windows are (h + du) x (w + |dv|). ``padded`` is the h x w image
    padded by ``pad``, at least the largest |du| and |dv|.
    """
    h, w = shape
    pos, neg = max(dv, 0), max(-dv, 0)
    near = padded[pad - du : pad + h, pad - pos : pad + w + neg]
    far = padded[pad : pad + h + du, pad - neg : pad + w + pos]
    return near, far


def _add_pair(num: np.ndarray, den: np.ndarray, wgt: np.ndarray, near: np.ndarray, far: np.ndarray, du: int, dv: int):
    """Add each pair's weight to both of its pixels, each with the other's value.

    ``wgt``, ``near`` and ``far`` span the windows of :func:`_pair_windows`:
    p lies in the image on the last h rows and at columns max(dv, 0) on,
    q = p + d on the first h rows and at columns max(-dv, 0) on.
    """
    h, w = num.shape
    pos, neg = max(dv, 0), max(-dv, 0)
    at_p = np.s_[du : du + h, pos : pos + w]
    at_q = np.s_[:h, neg : neg + w]
    num += wgt[at_p] * far[at_p]
    den += wgt[at_p]
    num += wgt[at_q] * near[at_q]
    den += wgt[at_q]


def bilateral_filter(img: GrayImage, p: BilateralParams) -> GrayImage:
    """Edge-preserving weighted mean: spatial closeness times range similarity.

    The weight of a pixel pair is symmetric: ws(|d|) is, and (a - b)^2 equals
    (b - a)^2 in IEEE arithmetic. So each pair (p, p + d) is weighed once, for
    half the window's offsets, and its weight is added at both pixels; the
    zero offset starts the sums. The weights are the same numbers as a pass
    over every offset computes; only the order of the sums differs.
    """
    r = p.radius
    padded = np.pad(img.pixels, r, mode="edge")
    wgt0 = float(gauss_weight(0.0, p.sigma_s)) * float(gauss_weight(0.0, p.sigma_r))

    def rows(lo: int, hi: int) -> np.ndarray:
        num = wgt0 * img.pixels[lo:hi]
        den = np.full(num.shape, wgt0)
        for du, dv in _half_offsets(r):
            ws = float(gauss_weight(math.hypot(du, dv), p.sigma_s))
            near, far = _pair_windows(padded[lo : hi + 2 * r], r, num.shape, du, dv)
            wgt = gauss_weight(near - far, p.sigma_r)
            wgt *= ws
            _add_pair(num, den, wgt, near, far, du, dv)
        return num / den

    return GrayImage(_by_rows(img.shape[0], rows))


def edge_conductance(grad, k: float, kind: str = "exponential"):
    """Edge-stopping weight c(|g|): exp(-|g|/K) or 1/(1+(|g|/K)^2); c(0) = 1."""
    g = np.abs(np.asarray(grad, dtype=np.float64))
    if kind == "exponential":
        return np.exp(-g / k)
    if kind == "rational":
        return 1.0 / (1.0 + (g / k) ** 2)
    raise ValueError(f"conductance must be 'exponential' or 'rational', got {kind!r}")


def anisotropic_diffusion(img: GrayImage, p: DiffusionParams) -> GrayImage:
    """Explicit 4-neighbor scheme u += lam * sum_d c(|d|) * d, Neumann borders.

    The flux c(|d|) * d through an edge leaves one pixel and enters the other:
    seen from the far pixel the difference is -d, and c(|-d|) * -d is exactly
    -(c(|d|) * d). So each edge's flux is computed once, on the H - 1 row
    edges and the W - 1 column edges, and added south, north, east, west in
    that order.
    """
    u = img.pixels.copy()
    for _ in range(p.iterations):
        dr = u[1:, :] - u[:-1, :]
        dc = u[:, 1:] - u[:, :-1]
        fr = edge_conductance(dr, p.k, p.conductance) * dr
        fc = edge_conductance(dc, p.k, p.conductance) * dc
        flux = np.zeros_like(u)
        flux[:-1, :] += fr
        flux[1:, :] -= fr
        flux[:, :-1] += fc
        flux[:, 1:] -= fc
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
    # gx's last column and gy's last row stay 0 (Neumann); px, py are
    # computed in place over gx, gy and div doubles as scratch.
    gx, gy = np.zeros_like(u), np.zeros_like(u)
    mag, div = np.empty_like(u), np.empty_like(u)
    eps2 = p.epsilon * p.epsilon
    for _ in range(p.iterations):
        np.subtract(u[:, 1:], u[:, :-1], out=gx[:, :-1])
        np.subtract(u[1:, :], u[:-1, :], out=gy[:-1, :])
        np.multiply(gx, gx, out=mag)
        mag += np.multiply(gy, gy, out=div)
        mag += eps2
        np.sqrt(mag, out=mag)
        px = np.divide(gx, mag, out=gx)
        py = np.divide(gy, mag, out=gy)
        np.add(px, py, out=div)
        div[:, 1:] -= px[:, :-1]
        div[1:, :] -= py[:-1, :]
        grad = np.subtract(u, u0, out=mag)
        grad *= p.lam
        grad += np.negative(div, out=div)
        grad *= p.step
        u -= grad
    return GrayImage(u)


def _patch_kernel(radius: int) -> np.ndarray:
    # Separable 1D factor; the outer product sums to 1, so patch distances
    # are Gaussian-weighted means.
    sigma = radius / 2.0
    ax = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    return k1 / k1.sum()


def _conv_valid_1d(arr: np.ndarray, k1: np.ndarray, axis: int) -> np.ndarray:
    # k1[t] == k1[n-1-t] exactly, so each pair of taps shares one multiply.
    n = len(k1)
    c = n // 2
    m = arr.shape[axis] - n + 1

    def tap(t):
        return arr[t : t + m] if axis == 0 else arr[:, t : t + m]

    out = tap(c) * k1[c]
    pair = np.empty_like(out)
    for t in range(c):
        np.add(tap(t), tap(n - 1 - t), out=pair)
        pair *= k1[t]
        out += pair
    return out


def _conv_valid_sep(arr: np.ndarray, k1: np.ndarray) -> np.ndarray:
    # Kernel is symmetric, so correlation equals convolution.
    return _conv_valid_1d(_conv_valid_1d(arr, k1, 0), k1, 1)


def nlm_denoise(img: GrayImage, p: NlmParams) -> GrayImage:
    """Non-local means: weighted average over the search window.

    w(p,q) = exp(-D(p,q)/h^2) / Z(p), where D is the Gaussian-weighted
    (sigma = patch_radius/2) mean squared patch difference; Z normalizes the
    weights to sum to 1.

    D is symmetric, D(p, p+d) = D(p+d, p), and so is its computed value: the
    squared differences are equal in IEEE arithmetic and the patch sum adds
    the same terms in the same order. So each pair is weighed once, for half
    the search offsets (Darbon et al., ISBI 2008), and its weight is added at
    both pixels; the zero offset, weight exp(0) = 1, starts the sums.
    """
    pr, sr = p.patch_radius, p.search_radius
    big = np.pad(img.pixels, sr + pr, mode="edge")
    k1 = _patch_kernel(pr)
    h2 = p.h * p.h

    def rows(lo: int, hi: int) -> np.ndarray:
        strip = big[lo : hi + 2 * (sr + pr)]
        num = img.pixels[lo:hi].copy()
        den = np.ones(num.shape)
        grown = (hi - lo + 2 * pr, num.shape[1] + 2 * pr)
        for du, dv in _half_offsets(sr):
            # The same windows over the strip grown by pr hold the patches.
            near_patch, far_patch = _pair_windows(strip, sr, grown, du, dv)
            sq = np.subtract(near_patch, far_patch)
            dist = _conv_valid_sep(np.multiply(sq, sq, out=sq), k1)
            # In place, with dist / -h2 == -dist / h2 exactly.
            wgt = np.exp(np.divide(dist, -h2, out=dist), out=dist)
            near, far = _pair_windows(strip, sr + pr, num.shape, du, dv)
            _add_pair(num, den, wgt, near, far, du, dv)
        return num / den

    return GrayImage(_by_rows(img.shape[0], rows))
