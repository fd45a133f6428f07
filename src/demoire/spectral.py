"""Conjugate impulse detection and repair in a centered spectrum.

A real sinusoid contaminates the spectrum with one Hermitian-mirrored pair of
impulses. This module finds those pairs against the local spectral background
and repairs them either by zeroing (ideal notch, the conventional baseline)
or by re-estimating each contaminated bin from the median of its untouched
neighbors, which preserves the underlying image content.

All neighborhood geometry (detection annulus, repair disks, donor windows)
wraps periodically, matching the periodicity of the discrete spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import GrayImage
from .transform import Spectrum, center_shift, dft2d, idft2d

__all__ = [
    "Peak",
    "PeakSet",
    "RepairParams",
    "denoise_moire",
    "detect_peaks",
    "format_peaks_csv",
    "notch_reject",
    "spectral_median",
]

ANNULUS_SIZE = 21  # side of the local-background window for detection
ANNULUS_CORE = 5  # excluded core so an impulse cannot bias its own background
MIN_DETECT_DIM = 16
MIN_DONORS = 5
# The threshold test is a pure ratio, so bins at FFT rounding-noise scale
# (~1e-16 of the spectrum peak) could pass it while carrying no energy.
# Bins below this fraction of the peak magnitude are never impulses.
MAG_FLOOR_REL = 1e-9
# Elements gathered per batch when neighborhoods are copied out of a plane.
_GATHER_LIMIT = 8_000_000


class Peak(NamedTuple):
    u: int  # row bin, centered indexing
    v: int  # column bin, centered indexing
    magnitude: float


@dataclass(frozen=True)
class PeakSet:
    """Detected impulse bins; mirrors of every peak are present (DC excluded)."""

    peaks: tuple[Peak, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "peaks", tuple(Peak(*p) for p in self.peaks))

    def __len__(self) -> int:
        return len(self.peaks)

    def __iter__(self):
        return iter(self.peaks)


@dataclass(frozen=True)
class RepairParams:
    """Detection and repair geometry.

    ``repair_radius``  disk (in bins) re-estimated around each peak
    ``window``         odd side of the donor window for the median repair
    ``guard_dc_radius``  bins around DC excluded from detection;
                         None resolves to max(8, ceil(0.02 * min(H, W)))
    ``detect_threshold`` multiple of the local background magnitude a bin
                         must exceed to count as an impulse
    """

    repair_radius: int = 3
    window: int = 9
    guard_dc_radius: int | None = None
    detect_threshold: float = 10.0

    def __post_init__(self):
        if self.repair_radius < 1:
            raise ValueError(f"repair_radius must be >= 1, got {self.repair_radius}")
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be an odd integer >= 3, got {self.window}")
        if self.guard_dc_radius is not None and self.guard_dc_radius < 0:
            raise ValueError(f"guard_dc_radius must be >= 0, got {self.guard_dc_radius}")
        if not self.detect_threshold > 1.0:
            raise ValueError(f"detect_threshold must exceed 1, got {self.detect_threshold}")
        # Worst case: the window centered on a peak. The median needs support
        # even after the whole repair disk is excluded from the donors.
        disk_in_window = sum(
            1
            for du, dv in _disk_offsets(self.repair_radius)
            if abs(du) <= self.window // 2 and abs(dv) <= self.window // 2
        )
        if self.window * self.window - disk_in_window < MIN_DONORS:
            raise ValueError(
                f"window {self.window} leaves fewer than {MIN_DONORS} donor bins outside "
                f"a repair disk of radius {self.repair_radius}; increase window"
            )

    def resolved_guard(self, height: int, width: int) -> int:
        if self.guard_dc_radius is not None:
            return self.guard_dc_radius
        return max(8, math.ceil(0.02 * min(height, width)))


def _disk_offsets(radius: int) -> list[tuple[int, int]]:
    return [
        (du, dv)
        for du in range(-radius, radius + 1)
        for dv in range(-radius, radius + 1)
        if du * du + dv * dv <= radius * radius
    ]


def _mirror_axes(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    # Hermitian partner of centered bin (i, j) is ((2*cu - i) % H, (2*cv - j) % W).
    cu, cv = h // 2, w // 2
    mu = (2 * cu - np.arange(h)) % h
    mv = (2 * cv - np.arange(w)) % w
    return mu, mv


def _toroidal_dist2(u1: int, v1: int, u2: int, v2: int, h: int, w: int) -> int:
    du = abs(u1 - u2)
    dv = abs(v1 - v2)
    du = min(du, h - du)
    dv = min(dv, w - dv)
    return du * du + dv * dv


def _contamination_mask(h: int, w: int, peaks: PeakSet, radius: int) -> np.ndarray:
    centers = np.array([(p.u, p.v) for p in peaks], dtype=np.intp).reshape(-1, 1, 2)
    cells = centers + np.array(_disk_offsets(radius), dtype=np.intp)
    mask = np.zeros((h, w), dtype=bool)
    mask[cells[..., 0] % h, cells[..., 1] % w] = True
    return mask


def _exceeds_background(mag: np.ndarray, candidates: np.ndarray, threshold: float) -> np.ndarray:
    """Candidate bins whose magnitude exceeds threshold x local background.

    The local background of a bin is the float32 median magnitude over the
    21x21 neighborhood (wrapping periodically) with its 5x5 core removed: 416
    bins, so the median is fl(a + b) / 2 of the 208th- and 209th-smallest
    values a <= b, which is never below a. A bin can therefore exceed only if
    at least 208 annulus values lie below mag / threshold. That count is a
    necessary condition and costs 416 shifted compares of the plane, with no
    sort. The per-bin limit is rounded up (relative slack 1e-6, then one
    float32 step) so float32 and float64 rounding can only let more bins
    through, never fewer. The few bins that pass get the exact float32
    median and the float64 test ``mag > threshold * background``, so the
    result is the same as computing the median at every bin.
    """
    h, w = mag.shape
    r = ANNULUS_SIZE // 2
    footprint = np.ones((ANNULUS_SIZE, ANNULUS_SIZE), dtype=bool)
    lo = r - ANNULUS_CORE // 2
    footprint[lo : lo + ANNULUS_CORE, lo : lo + ANNULUS_CORE] = False
    padded = np.pad(mag.astype(np.float32), r, mode="wrap")

    raised = (mag / threshold * (1.0 + 1e-6)).astype(np.float32)
    # A limit of 0 admits no magnitude, so non-candidates never pass.
    limit = np.where(candidates, np.nextafter(raised, np.float32(np.inf)), np.float32(0.0))
    below = np.zeros((h, w), dtype=np.int16)
    hit = np.empty((h, w), dtype=bool)
    for du, dv in np.argwhere(footprint):
        np.less(padded[du : du + h, dv : dv + w], limit, out=hit)
        below += hit

    exceeds = np.zeros((h, w), dtype=bool)
    rows, cols = np.nonzero(below >= footprint.sum() // 2)
    windows = sliding_window_view(padded, (ANNULUS_SIZE, ANNULUS_SIZE))
    chunk = max(1, _GATHER_LIMIT // footprint.size)
    for i0 in range(0, rows.size, chunk):
        u, v = rows[i0 : i0 + chunk], cols[i0 : i0 + chunk]
        background = np.median(windows[u, v][:, footprint], axis=1).astype(np.float64)
        exceeds[u, v] = mag[u, v] > threshold * background
    return exceeds


def detect_peaks(spec: Spectrum, params: RepairParams) -> PeakSet:
    """Find impulse bins: magnitude above threshold x local background.

    The local background is the median magnitude of the annulus around each
    bin; it is computed exactly, but only for the bins a rank-count
    prescreen cannot rule out (see ``_exceeds_background``). Bins within the
    DC guard are ignored, non-maximum suppression keeps one bin per repair
    disk, and the result is symmetrized so every peak's Hermitian mirror is
    present.
    """
    if not spec.centered:
        raise ValueError("detect_peaks expects a centered spectrum")
    h, w = spec.shape
    if h < MIN_DETECT_DIM or w < MIN_DETECT_DIM:
        raise ValueError(
            f"spectrum {h}x{w} is too small for the {ANNULUS_SIZE}x{ANNULUS_SIZE} detection "
            f"annulus; images must be at least {MIN_DETECT_DIM}x{MIN_DETECT_DIM}"
        )
    mag = np.abs(spec.data)
    cu, cv = h // 2, w // 2
    guard = params.resolved_guard(h, w)
    uu = (np.arange(h) - cu)[:, np.newaxis]
    vv = (np.arange(w) - cv)[np.newaxis, :]
    outside_guard = uu * uu + vv * vv > guard * guard
    eligible = outside_guard & (mag > MAG_FLOOR_REL * float(mag.max()))
    exceeds = _exceeds_background(mag, eligible, params.detect_threshold)

    candidates = np.argwhere(exceeds)
    if candidates.size == 0:
        return PeakSet(())

    # Greedy non-maximum suppression, strongest first; ties break on (u, v).
    order = sorted(
        ((int(u), int(v)) for u, v in candidates),
        key=lambda b: (-mag[b[0], b[1]], b[0], b[1]),
    )
    kept: list[tuple[int, int]] = []
    r2 = params.repair_radius
    for u, v in order:
        if all(_toroidal_dist2(u, v, ku, kv, h, w) > r2 * r2 for ku, kv in kept):
            kept.append((u, v))

    mu, mv = _mirror_axes(h, w)
    complete = set(kept)
    for u, v in kept:
        complete.add((int(mu[u]), int(mv[v])))
    peaks = tuple(
        Peak(u, v, float(mag[u, v])) for u, v in sorted(complete)
    )
    return PeakSet(peaks)


def notch_reject(spec: Spectrum, peaks: PeakSet, params: RepairParams) -> Spectrum:
    """Conventional baseline: zero every bin within repair_radius of a peak."""
    if not spec.centered:
        raise ValueError("notch_reject expects a centered spectrum")
    h, w = spec.shape
    mask = _contamination_mask(h, w, peaks, params.repair_radius)
    data = spec.data.copy()
    data[mask] = 0.0
    return Spectrum(data, centered=True)


def _donor_median(
    mag: np.ndarray, mask: np.ndarray, u: np.ndarray, v: np.ndarray, window: int
) -> np.ndarray:
    """Median of the uncontaminated magnitudes in each bin's window x window.

    Contaminated donors sort last as +inf, so each row's median is read at
    its own donor count: the middle value, or fl(a + b) / 2 of the two middle
    values, exactly as ``np.median`` computes it.
    """
    h, w = mag.shape
    offsets = np.arange(-(window // 2), window // 2 + 1)
    rows = ((u[:, None] + offsets) % h)[:, :, None]
    cols = ((v[:, None] + offsets) % w)[:, None, :]
    poisoned = mask[rows, cols].reshape(len(u), -1)
    counts = poisoned.shape[1] - np.count_nonzero(poisoned, axis=1)
    starving = np.flatnonzero(counts < MIN_DONORS)
    if starving.size:
        k = starving[0]
        raise ValueError(
            f"only {counts[k]} uncontaminated donor bins around spectrum bin "
            f"({u[k]}, {v[k]}); increase window above {window}"
        )
    donors = np.where(poisoned, np.inf, mag[rows, cols].reshape(len(u), -1))
    donors.sort(axis=1)
    at = np.arange(len(u))
    upper = donors[at, counts // 2]
    lower = donors[at, (counts - 1) // 2]
    return np.where(counts % 2 == 1, upper, (lower + upper) / 2)


def spectral_median(spec: Spectrum, peaks: PeakSet, params: RepairParams) -> Spectrum:
    """Re-estimate contaminated bins from the median of untouched neighbors.

    The magnitude surface of a spectrum is locally smooth, so each bin inside
    a repair disk gets its magnitude replaced by the median magnitude over
    its window x window neighborhood, excluding every contaminated bin (the
    impulse never feeds its own estimate). The bin's phase is kept: away from
    the impulse carrier it belongs to the image content this repair exists to
    preserve, which is what lets the method beat zeroing. Pair-averaging with
    the conjugate mirror then pins Hermitian symmetry exactly. Bins outside
    all repair disks are returned bit-identical.
    """
    if not spec.centered:
        raise ValueError("spectral_median expects a centered spectrum")
    h, w = spec.shape
    if len(peaks) == 0:
        return Spectrum(spec.data, centered=True)
    mask = _contamination_mask(h, w, peaks, params.repair_radius)
    src = spec.data
    mag = np.abs(src)
    repaired = src.copy()
    bins = np.argwhere(mask)
    chunk = max(1, _GATHER_LIMIT // (params.window * params.window))
    for i0 in range(0, len(bins), chunk):
        u, v = bins[i0 : i0 + chunk].T
        estimate = _donor_median(mag, mask, u, v, params.window)
        value = src[u, v]
        # The phase is normalized by hypot: numpy's vectorized complex abs
        # (used for the donor magnitudes) can differ from it in the last bit.
        scale = np.hypot(value.real, value.imag)
        unit = np.divide(value, scale, out=np.ones_like(value), where=scale > 0.0)
        repaired[u, v] = estimate * unit
    mu, mv = _mirror_axes(h, w)
    symmetric = 0.5 * (repaired + np.conj(repaired[np.ix_(mu, mv)]))
    out = np.where(mask, symmetric, src)
    return Spectrum(out, centered=True)


def denoise_moire(
    img: GrayImage, method: str, params: RepairParams | None = None
) -> tuple[GrayImage, PeakSet]:
    """Full pipeline: transform, detect, repair ("notch" or "median"), invert."""
    if method not in ("notch", "median"):
        raise ValueError(f"unknown repair method {method!r}: expected 'notch' or 'median'")
    if params is None:
        params = RepairParams()
    centered = center_shift(dft2d(img))
    peaks = detect_peaks(centered, params)
    if method == "notch":
        repaired = notch_reject(centered, peaks, params)
    else:
        repaired = spectral_median(centered, peaks, params)
    return idft2d(center_shift(repaired)), peaks


def format_peaks_csv(peaks: PeakSet) -> str:
    lines = ["u,v,magnitude"]
    for p in peaks:
        lines.append(f"{p.u},{p.v},{p.magnitude:.17g}")
    return "\n".join(lines) + "\n"
