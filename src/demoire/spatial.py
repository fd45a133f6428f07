"""Classical spatial denoisers: median, mode, bilateral, diffusion, TV, NLM.

Every filter is a pure map over an immutable input frame with replicate
(Neumann) border handling.
"""

from __future__ import annotations

import functools
import math
import os
import threading
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


def _in_strips(h: int, *phases, rounds: int = 1) -> None:
    """Each ``phase(lo, hi)`` in turn, ``rounds`` times, on one strip of the h rows per available CPU, the
    last on this thread and the others on worker threads (numpy's loops release the GIL). A barrier ends
    each phase on every strip; the first error aborts it, and is raised here once every thread ends."""
    n = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1, h)
    bounds = [h * k // n for k in range(n + 1)]
    barrier, errors, threads = threading.Barrier(n), [], []

    def run(lo: int, hi: int) -> None:
        try:
            for _ in range(rounds):
                for phase in phases:
                    phase(lo, hi)
                    barrier.wait()
        except threading.BrokenBarrierError:
            pass  # another strip failed
        except BaseException as exc:  # raised below, on the calling thread
            errors.append(exc)
            barrier.abort()

    try:
        for strip in zip(bounds[:-2], bounds[1:-1]):
            thread = threading.Thread(target=run, args=strip)
            thread.start()
            threads.append(thread)
        run(bounds[-2], bounds[-1])
    finally:
        barrier.abort()  # ends the started strips if a thread could not start; harmless after the last wait
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _by_window_blocks(img: GrayImage, window: int, block_for) -> GrayImage:
    """Each pixel from its window, in row strips of blocks of at most _BLOCK_VALUES window values:
    ``block_for(rows)`` gives, per strip, the map from a block of up to ``rows`` rows to its output."""
    rows = max(1, _BLOCK_VALUES // (img.width * window * window))
    view = sliding_window_view(np.pad(img.pixels, window // 2, mode="edge"), (window, window))
    out = np.empty(img.shape)

    def strip(lo: int, hi: int) -> None:
        block = block_for(min(rows, hi - lo))
        for i in range(lo, hi, rows):
            b = np.s_[i : min(i + rows, hi)]
            out[b] = block(view[b], img.pixels[b])

    _in_strips(img.height, strip)
    return GrayImage(out)


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
    return _by_window_blocks(img, p.window, lambda rows: lambda windows, center: np.median(windows, axis=(2, 3)))


def _global_mode(shape: tuple[int, int, int], bin_width: float):
    """The global mode over blocks of up to ``shape`` = (rows, w, window**2) values, in buffers made once."""
    index = np.arange(shape[-1])
    floats, ints, masks = np.empty((2, *shape)), np.zeros((2, *shape), np.intp), np.empty((2, *shape), bool)

    def mode(windows: np.ndarray, center: np.ndarray) -> np.ndarray:
        (bins, centers), (run_start, depth), (modal, nearest) = (buf[:, : len(center)] for buf in (floats, ints, masks))
        # Each pixel's window offsets from its center, binned and sorted, so equal
        # bins form runs. A value's depth in its run is its index minus the run's
        # start; only the most populated bins reach the deepest depth, once each.
        c = center[..., np.newaxis]
        np.subtract(windows, c[..., np.newaxis], out=bins.reshape(windows.shape))
        bins /= bin_width
        np.round(bins, out=bins)
        bins.sort(axis=-1)
        np.not_equal(bins[..., 1:], bins[..., :-1], out=modal[..., 1:])
        np.multiply(modal[..., 1:], index[1:], out=run_start[..., 1:])  # run_start[..., 0] stays 0
        np.maximum.accumulate(run_start, axis=-1, out=depth)
        np.subtract(index, depth, out=depth)
        np.equal(depth, depth.max(axis=-1, keepdims=True), out=modal)
        # Tie break: nearest to the center pixel, then the lower bin.
        np.add(c, np.multiply(bins, bin_width, out=centers), out=centers)
        dist = np.abs(np.subtract(centers, c, out=bins), out=bins)
        np.copyto(dist, np.inf, where=np.logical_not(modal, out=nearest))
        np.equal(dist, dist.min(axis=-1, keepdims=True), out=nearest)
        nearest &= modal
        np.copyto(centers, np.inf, where=np.logical_not(nearest, out=modal))
        return centers.min(axis=-1)

    return mode


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
    if p.mode_kind == "local":
        return _by_window_blocks(img, p.window, lambda rows: functools.partial(_local_mode, bin_width=p.bin_width))
    return _by_window_blocks(img, p.window, lambda rows: _global_mode((rows, img.width, p.window**2), p.bin_width))


def gauss_weight(x, sigma: float):
    """Gaussian kernel (1/(2*pi*sigma^2)) * exp(-x^2 / (2*sigma^2))."""
    x = np.asarray(x, dtype=np.float64)
    # In place on one array; dividing by -(2 sigma^2) is exactly negating first.
    g = np.multiply(x, x, out=np.empty_like(x))
    g /= -(2.0 * sigma * sigma)
    np.exp(g, out=g)
    g /= 2.0 * math.pi * sigma * sigma
    return g if g.ndim else g[()]


def _half_offsets(radius: int):
    """One offset d = (du, dv) of each pair d, -d in the window: du > 0, or du == 0 and dv > 0."""
    for du in range(radius + 1):
        for dv in range(-radius if du else 1, radius + 1):
            yield du, dv


def _pair_means(img: GrayImage, pad: int, radius: int, wgt0: float, weights) -> GrayImage:
    """Weighted means over p + d, |du|, |dv| <= radius, in row strips, each symmetric pair weighed once.

    A strip, edge-padded by ``pad`` >= radius, is one flat array of rows W + 2 pad long, where d is the
    shift s = du (W + 2 pad) + dv > 0. ``weights(flat, a, b, s, du, dv)`` gives w(x, x + s) over the
    span [o0, o1) of the strip's pixels widened to [a, b) = [o0 - s, o1), so p takes w(p, p + s) and q
    w(q - s, q) in contiguous passes. The zero offset, weight ``wgt0``, starts the sums on the padded-
    width grid; no kept pixel's pair wraps into another row, and the pad columns are dropped."""
    h, w = img.shape
    padded = np.pad(img.pixels, pad, mode="edge")
    row = w + 2 * pad
    out = np.empty(img.shape)

    def strip(lo: int, hi: int) -> None:
        flat = padded[lo : hi + 2 * pad].ravel()
        o0 = pad * row + pad
        o1 = o0 + (hi - lo - 1) * row + w
        grid = np.empty((hi - lo) * row)
        num = np.multiply(wgt0, flat[o0:o1], out=grid[: o1 - o0])
        den = np.full(num.shape, wgt0)
        for du, dv in _half_offsets(radius):
            s = du * row + dv
            wgt = weights(flat, o0 - s, o1, s, du, dv)
            num += wgt[s:] * flat[o0 + s : o1 + s]
            den += wgt[s:]
            num += wgt[: o1 - o0] * flat[o0 - s : o1 - s]
            den += wgt[: o1 - o0]
        np.divide(num, den, out=num)
        out[lo:hi] = grid.reshape(hi - lo, row)[:, :w]

    _in_strips(h, strip)
    return GrayImage(out)


def bilateral_filter(img: GrayImage, p: BilateralParams) -> GrayImage:
    """Edge-preserving weighted mean: spatial closeness times range similarity.

    The weight of a pixel pair is symmetric: ws(|d|) is, and (a - b)^2 equals
    (b - a)^2 in IEEE arithmetic. So each pair (p, p + d) is weighed once and
    added at both pixels; the weights are the same numbers as a pass over
    every offset computes, and only the order of the sums differs.
    """
    wgt0 = float(gauss_weight(0.0, p.sigma_s)) * float(gauss_weight(0.0, p.sigma_r))

    def weights(flat: np.ndarray, a: int, b: int, s: int, du: int, dv: int) -> np.ndarray:
        wgt = gauss_weight(flat[a:b] - flat[a + s : b + s], p.sigma_r)
        wgt *= float(gauss_weight(math.hypot(du, dv), p.sigma_s))
        return wgt

    return _pair_means(img, p.radius, p.radius, wgt0, weights)


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
    that order. Row strips run in lockstep: each computes its edges' fluxes
    (down to the next strip's first row), then adds them and the edge above.
    """
    u = img.pixels.copy()
    h, w = u.shape
    fr, fc = np.empty((h - 1, w)), np.empty((h, w - 1))

    def fluxes(lo: int, hi: int) -> None:
        e = min(hi, h - 1)
        dr = u[lo + 1 : e + 1] - u[lo:e]
        dc = u[lo:hi, 1:] - u[lo:hi, :-1]
        np.multiply(edge_conductance(dr, p.k, p.conductance), dr, out=fr[lo:e])
        np.multiply(edge_conductance(dc, p.k, p.conductance), dc, out=fc[lo:hi])

    def update(lo: int, hi: int) -> None:
        top = max(lo, 1)
        flux = np.zeros((hi - lo, w))
        flux[: min(hi, h - 1) - lo] += fr[lo:hi]
        flux[top - lo :] -= fr[top - 1 : hi - 1]
        flux[:, :-1] += fc[lo:hi]
        flux[:, 1:] -= fc[lo:hi]
        np.add(u[lo:hi], p.lam * flux, out=u[lo:hi])

    _in_strips(h, fluxes, update, rounds=p.iterations)
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
    u, h = u0.copy(), len(u0)
    # gx's last column and gy's last row stay 0 (Neumann); px, py are
    # computed in place over gx, gy and div doubles as scratch.
    gx, gy = np.zeros_like(u), np.zeros_like(u)
    mag, div = np.empty_like(u), np.empty_like(u)
    eps2 = p.epsilon * p.epsilon

    # Row strips in lockstep: px, py (gy reads u below the strip), then u (div reads py above it).
    def normalized_gradient(lo: int, hi: int) -> None:
        e = min(hi, h - 1)
        np.subtract(u[lo:hi, 1:], u[lo:hi, :-1], out=gx[lo:hi, :-1])
        np.subtract(u[lo + 1 : e + 1], u[lo:e], out=gy[lo:e])
        x, y, m = gx[lo:hi], gy[lo:hi], mag[lo:hi]
        np.multiply(x, x, out=m)
        m += np.multiply(y, y, out=div[lo:hi])
        m += eps2
        np.sqrt(m, out=m)
        np.divide(x, m, out=x)
        np.divide(y, m, out=y)

    def update(lo: int, hi: int) -> None:
        top = max(lo, 1)
        px, py, d = gx[lo:hi], gy[lo:hi], div[lo:hi]
        np.add(px, py, out=d)
        np.subtract(d[:, 1:], px[:, :-1], out=d[:, 1:])
        np.subtract(d[top - lo :], gy[top - 1 : hi - 1], out=d[top - lo :])
        grad = np.subtract(u[lo:hi], u0[lo:hi], out=mag[lo:hi])
        grad *= p.lam
        grad += np.negative(d, out=d)
        grad *= p.step
        np.subtract(u[lo:hi], grad, out=u[lo:hi])

    _in_strips(h, normalized_gradient, update, rounds=p.iterations)
    return GrayImage(u)


def _patch_kernel(radius: int) -> np.ndarray:
    # Separable 1D factor; the outer product sums to 1, so patch distances
    # are Gaussian-weighted means.
    sigma = radius / 2.0
    ax = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    return k1 / k1.sum()


def _conv_valid_1d(arr: np.ndarray, k1: np.ndarray, step: int) -> np.ndarray:
    # Taps ``step`` apart in the flat array. k1[t] == k1[n-1-t] exactly, so each
    # pair of taps shares one multiply.
    n = len(k1)
    c = n // 2
    m = len(arr) - (n - 1) * step

    def tap(t):
        return arr[t * step : t * step + m]

    out = tap(c) * k1[c]
    pair = np.empty_like(out)
    for t in range(c):
        np.add(tap(t), tap(n - 1 - t), out=pair)
        pair *= k1[t]
        out += pair
    return out


def _conv_valid_sep(arr: np.ndarray, k1: np.ndarray, row: int) -> np.ndarray:
    # Down the columns of a flat array with rows ``row`` long, then along its rows;
    # the kernel is symmetric, so correlation equals convolution.
    return _conv_valid_1d(_conv_valid_1d(arr, k1, row), k1, 1)


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
    k1 = _patch_kernel(pr)
    h2 = p.h * p.h
    row = img.shape[1] + 2 * (sr + pr)
    reach = pr * row + pr  # the patch around x spans [x - reach, x + reach] of the flat strip

    def weights(flat: np.ndarray, a: int, b: int, s: int, du: int, dv: int) -> np.ndarray:
        sq = np.subtract(flat[a - reach : b + reach], flat[a - reach + s : b + reach + s])
        dist = _conv_valid_sep(np.multiply(sq, sq, out=sq), k1, row)
        # In place, with dist / -h2 == -dist / h2 exactly.
        return np.exp(np.divide(dist, -h2, out=dist), out=dist)

    return _pair_means(img, sr + pr, sr, 1.0, weights)
