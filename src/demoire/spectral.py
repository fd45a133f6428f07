"""Conjugate impulse detection and repair in a periodic spectrum.

A real sinusoid contaminates the spectrum with one Hermitian-mirrored pair of
impulses. This module finds those pairs against the local spectral background
and repairs them either by zeroing (ideal notch, the conventional baseline)
or by re-estimating each contaminated bin from the median of its untouched
neighbors, which preserves the underlying image content.

Spectra stay in ``dft2d`` order (DC at (0, 0)). All neighborhood geometry
(detection annulus, repair disks, donor windows) wraps periodically, matching
the periodicity of the discrete spectrum, so none of it depends on where DC
sits. Peaks carry centered labels, DC at (H//2, W//2): bin k of an axis of n
bins is labelled (k + n//2) % n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import GrayImage
# perfbench/spans.py wraps center_shift in this module, so it stays importable here.
from .transform import Spectrum, center_shift, dft2d, idft2d  # noqa: F401

__all__ = [
    "Peak",
    "PeakSet",
    "RepairParams",
    "analyze",
    "denoise_moire",
    "detect_peaks",
    "format_peaks_csv",
    "notch_reject",
    "repair",
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
# Side of the tiles whose minima bound the detection count; it divides
# ANNULUS_SIZE. Chosen by timing detection on the bench corpus: coarser tiles
# have lower minima, and with 7x7 tiles so many bins survive to the exact
# count that detection took ~10x as long as with 3x3.
_TILE = 3


class Peak(NamedTuple):
    u: int  # row bin, centered label: DC at row H//2
    v: int  # column bin, centered label: DC at column W//2
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


def _disk_offsets(radius: int) -> np.ndarray:
    """(du, dv) rows, row-major: the offsets of the bins within ``radius`` of a bin."""
    du, dv = np.indices((2 * radius + 1, 2 * radius + 1)).reshape(2, -1) - radius
    inside = du * du + dv * dv <= radius * radius
    return np.stack([du[inside], dv[inside]], axis=1)


def _centered(k, n: int):
    """Centered label of the dft2d-order index ``k`` on an axis of ``n`` bins."""
    return (k + n // 2) % n


def _stamp_disks(mask: np.ndarray, u, v, disk: np.ndarray) -> None:
    """Set the bins at the ``disk`` offsets around each (u, v), wrapping periodically."""
    h, w = mask.shape
    mask[(np.reshape(u, (-1, 1)) + disk[:, 0]) % h, (np.reshape(v, (-1, 1)) + disk[:, 1]) % w] = True


def _contamination_mask(h: int, w: int, peaks: PeakSet, radius: int) -> np.ndarray:
    """Bins within ``radius`` of a peak, in dft2d order."""
    labels = np.array([(p.u, p.v) for p in peaks], dtype=np.intp).reshape(-1, 2)
    mask = np.zeros((h, w), dtype=bool)
    _stamp_disks(mask, labels[:, 0] - h // 2, labels[:, 1] - w // 2, _disk_offsets(radius))
    return mask


def _annulus_footprint() -> np.ndarray:
    footprint = np.ones((ANNULUS_SIZE, ANNULUS_SIZE), dtype=bool)
    lo = ANNULUS_SIZE // 2 - ANNULUS_CORE // 2
    footprint[lo : lo + ANNULUS_CORE, lo : lo + ANNULUS_CORE] = False
    return footprint


def _window_min(plane: np.ndarray, side: int) -> np.ndarray:
    """Minimum over every side x side window of the plane, one axis at a time."""
    n = plane.shape[0] - side + 1
    rows = np.minimum(plane[:n], plane[1 : n + 1])
    for k in range(2, side):
        np.minimum(rows, plane[k : k + n], out=rows)
    n = plane.shape[1] - side + 1
    out = np.minimum(rows[:, :n], rows[:, 1 : n + 1])
    for k in range(2, side):
        np.minimum(out, rows[:, k : k + n], out=out)
    return out


def _count_bound(padded: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Per bin, an upper bound on the annulus values below ``limit``.

    ``padded`` is the plane wrapped by ANNULUS_SIZE // 2 on every side. The
    annulus window is covered by _TILE x _TILE tiles. A tile can hold a value
    below the limit only if its minimum does, and then it holds at most its
    number of annulus cells; a minimum taken over core cells can only raise
    the bound. So the bound is never below the exact count, and it costs one
    compare per tile instead of one per annulus cell. Tiles of equal weight
    are counted together in uint8 (at most 49 tiles) and weighted once.
    """
    h, w = limit.shape
    n = ANNULUS_SIZE // _TILE
    weights = _annulus_footprint().reshape(n, _TILE, n, _TILE).sum(axis=(1, 3))
    least = _window_min(padded, _TILE)
    hit = np.empty((h, w), dtype=bool)
    bound = np.zeros((h, w), dtype=np.int16)
    for weight in np.unique(weights[weights > 0]):
        tiles = np.zeros((h, w), dtype=np.uint8)
        for a, b in np.argwhere(weights == weight) * _TILE:
            np.less(least[a : a + h, b : b + w], limit, out=hit)
            np.add(tiles, hit.view(np.uint8), out=tiles)
        bound += tiles.astype(np.int16) * int(weight)
    return bound


def _exceeds_background(mag: np.ndarray, candidates: np.ndarray, threshold: float) -> np.ndarray:
    """Candidate bins whose magnitude exceeds threshold x local background.

    The local background of a bin is the float32 median magnitude over the
    21x21 neighborhood (wrapping periodically) with its 5x5 core removed: 416
    bins, so the median is fl(a + b) / 2 of the 208th- and 209th-smallest
    values a <= b, which is never below a. A bin can therefore exceed only if
    at least 208 annulus values lie below mag / threshold. The per-bin limit
    is rounded up (relative slack 1e-6, then one float32 step) so float32 and
    float64 rounding can only let more bins through, never fewer.

    The count is tested in two tiers. Tier 1 bounds it from above for the
    whole plane with one compare per tile (``_count_bound``); bins whose
    bound is below 208 cannot exceed. Tier 2 gathers the 21x21 window of
    each surviving bin and counts its annulus exactly. The few bins that
    still pass get the exact float32 median and the float64 test
    ``mag > threshold * background``, so the result is the same as computing
    the median at every bin.

    The saving depends on tier 1 ruling out almost every bin, as it does on
    the spectra of textured images (it keeps under 1.5%). Where small bins
    are scattered so that most tiles hold one (a flat spectrum with a
    near-zero bin every third row and column keeps 88%), each kept window
    costs a gather, and detection is several times slower than 416
    whole-plane compares (``benchmarks/detect.py``).
    """
    h, w = mag.shape
    r = ANNULUS_SIZE // 2
    footprint = _annulus_footprint()
    half = footprint.sum() // 2
    padded = np.pad(mag.astype(np.float32), r, mode="wrap")

    raised = (mag / threshold * (1.0 + 1e-6)).astype(np.float32)
    # A limit of 0 admits no magnitude, so non-candidates never pass.
    limit = np.where(candidates, np.nextafter(raised, np.float32(np.inf)), np.float32(0.0))
    rows, cols = np.nonzero(_count_bound(padded, limit) >= half)

    exceeds = np.zeros((h, w), dtype=bool)
    windows = sliding_window_view(padded, (ANNULUS_SIZE, ANNULUS_SIZE))
    core = slice(r - ANNULUS_CORE // 2, r + ANNULUS_CORE // 2 + 1)
    chunk = max(1, _GATHER_LIMIT // footprint.size)
    for i0 in range(0, rows.size, chunk):
        u, v = rows[i0 : i0 + chunk], cols[i0 : i0 + chunk]
        window = windows[u, v]
        # Count the whole window and take the core back out: the annulus is
        # masked out (a slower gather) only for the bins that pass.
        below = (window < limit[u, v, np.newaxis, np.newaxis]).view(np.uint8)
        count = below.reshape(u.size, -1).sum(axis=1, dtype=np.int16)
        count -= below[:, core, core].sum(axis=(1, 2), dtype=np.int16)
        counted = count >= half
        u, v = u[counted], v[counted]
        background = np.median(window[counted][:, footprint], axis=1).astype(np.float64)
        exceeds[u, v] = mag[u, v] > threshold * background
    return exceeds


def detect_peaks(spec: Spectrum, params: RepairParams) -> PeakSet:
    """Find impulse bins: magnitude above threshold x local background.

    The local background is the median magnitude of the annulus around each
    bin; it is computed exactly, but only for the bins that pass a two-tier
    rank-count prescreen: a whole-plane upper bound from 3x3 tile minima,
    then the exact count on the survivors (see ``_exceeds_background``).
    Bins within the DC guard are ignored, non-maximum suppression keeps one
    bin per repair disk, and the result is symmetrized so every peak's
    Hermitian mirror is present. The spectrum is in dft2d order; the peaks
    carry centered labels.
    """
    if spec.centered:
        raise ValueError("detect_peaks expects a spectrum in dft2d order, not a centered one")
    h, w = spec.shape
    if h < MIN_DETECT_DIM or w < MIN_DETECT_DIM:
        raise ValueError(
            f"spectrum {h}x{w} is too small for the {ANNULUS_SIZE}x{ANNULUS_SIZE} detection "
            f"annulus; images must be at least {MIN_DETECT_DIM}x{MIN_DETECT_DIM}"
        )
    mag = np.abs(spec.data)
    guard = params.resolved_guard(h, w)
    fu = (_centered(np.arange(h), h) - h // 2)[:, np.newaxis]  # signed frequencies
    fv = (_centered(np.arange(w), w) - w // 2)[np.newaxis, :]
    outside_guard = fu * fu + fv * fv > guard * guard
    eligible = outside_guard & (mag > MAG_FLOOR_REL * float(mag.max()))
    u, v = np.nonzero(_exceeds_background(mag, eligible, params.detect_threshold))
    if u.size == 0:
        return PeakSet(())

    # Greedy non-maximum suppression, strongest first; ties break on the
    # centered labels. A candidate is kept iff no kept peak's repair disk
    # covers it: the disk is symmetric, so that is the toroidal distance test.
    order = np.lexsort((_centered(v, w), _centered(u, h), -mag[u, v]))
    disk = _disk_offsets(params.repair_radius)
    blocked = np.zeros((h, w), dtype=bool)
    kept = []
    for i in order.tolist():
        if not blocked[u[i], v[i]]:
            kept.append(i)
            _stamp_disks(blocked, u[i], v[i], disk)

    # The Hermitian mirror of bin k is -k.
    rows = np.concatenate([u[kept], -u[kept] % h]).tolist()
    cols = np.concatenate([v[kept], -v[kept] % w]).tolist()
    complete = {(_centered(i, h), _centered(j, w)): float(mag[i, j]) for i, j in zip(rows, cols)}
    return PeakSet(tuple(Peak(i, j, m) for (i, j), m in sorted(complete.items())))


def notch_reject(spec: Spectrum, peaks: PeakSet, params: RepairParams) -> Spectrum:
    """Conventional baseline: zero every bin within repair_radius of a peak."""
    if spec.centered:
        raise ValueError("notch_reject expects a spectrum in dft2d order, not a centered one")
    h, w = spec.shape
    mask = _contamination_mask(h, w, peaks, params.repair_radius)
    data = spec.data.copy()
    data[mask] = 0.0
    return Spectrum(data)


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
            f"({_centered(u[k], h)}, {_centered(v[k], w)}); increase window above {window}"
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
    if spec.centered:
        raise ValueError("spectral_median expects a spectrum in dft2d order, not a centered one")
    h, w = spec.shape
    if len(peaks) == 0:
        return spec
    mask = _contamination_mask(h, w, peaks, params.repair_radius)
    src = spec.data
    mag = np.abs(src)
    repaired = src.copy()
    # Centered row-major order: a donor shortage names the first bin by its label.
    bins = np.argwhere(mask)
    bins = bins[np.lexsort((_centered(bins[:, 1], w), _centered(bins[:, 0], h)))]
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
    mirror = np.ix_(-np.arange(h) % h, -np.arange(w) % w)
    symmetric = 0.5 * (repaired + np.conj(repaired[mirror]))
    out = np.where(mask, symmetric, src)
    return Spectrum(out)


def analyze(img: GrayImage, params: RepairParams) -> tuple[Spectrum, PeakSet]:
    """Transform and detect; one analysis can feed a ``repair`` per method."""
    spec = dft2d(img)
    return spec, detect_peaks(spec, params)


def repair(spec: Spectrum, peaks: PeakSet, method: str, params: RepairParams) -> GrayImage:
    """Repair the detected bins ("notch" or "median") and invert to an image."""
    if method not in ("notch", "median"):
        raise ValueError(f"unknown repair method {method!r}: expected 'notch' or 'median'")
    step = notch_reject if method == "notch" else spectral_median
    return idft2d(step(spec, peaks, params))


def denoise_moire(
    img: GrayImage, method: str, params: RepairParams | None = None
) -> tuple[GrayImage, PeakSet]:
    """Full pipeline: ``analyze``, then ``repair`` with "notch" or "median"."""
    if params is None:
        params = RepairParams()
    spec, peaks = analyze(img, params)
    return repair(spec, peaks, method, params), peaks


def format_peaks_csv(peaks: PeakSet) -> str:
    lines = ["u,v,magnitude"]
    for p in peaks:
        lines.append(f"{p.u},{p.v},{p.magnitude:.17g}")
    return "\n".join(lines) + "\n"
