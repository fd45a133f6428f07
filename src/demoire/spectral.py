"""Conjugate impulse detection and repair in a periodic spectrum.

A real sinusoid contaminates the spectrum with one Hermitian-mirrored pair of
impulses. This module finds those pairs against the local spectral background
and repairs them either by zeroing (ideal notch, the conventional baseline)
or by re-estimating each contaminated bin from the median of its untouched
neighbors, which preserves the underlying image content.

Spectra are the ``rfft2`` half plane in ``dft2d`` order (DC at (0, 0)).
Detection and the donor windows read the magnitude of the full H x W plane,
mirrored out of the half plane (``Spectrum.magnitude``, built once per
spectrum), so every peak is found together with its mirror; the repairs
write only the half plane. Every Spectrum is exactly Hermitian by
construction, so the magnitude is point-symmetric: the local-background test
is computed only on the half plane, and the other columns take the verdicts
of their mirrors. Its tier-1 count bound runs each tile compare as one
contiguous 1-D compare in a row-strided layout.
All neighborhood geometry (detection annulus, repair disks, donor windows)
wraps periodically, matching the periodicity of the discrete spectrum, so
none of it depends on where DC sits. Peaks carry centered labels, DC at
(H//2, W//2): bin k of an axis of n bins is labelled (k + n//2) % n.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import GrayImage, _require_finite
# perfbench/spans.py wraps center_shift in this module, so it stays importable here.
from .transform import Spectrum, _fill_mirrors, _owned_spectrum, center_shift, dft2d, idft2d  # noqa: F401

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

    ``repair_radius``  disk (in bins) re-estimated around each peak; a radius
                       past the covering one acts as it (see ``_stamp_disks``)
    ``window``         odd side of the median repair's donor window; the median raises
                       for a bin with fewer than MIN_DONORS donors, the notch ignores it
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
        _require_finite("repair", detect_threshold=self.detect_threshold)

    def resolved_guard(self, height: int, width: int) -> int:
        if self.guard_dc_radius is not None:
            return self.guard_dc_radius
        return max(8, math.ceil(0.02 * min(height, width)))


@functools.cache  # built once per radius and read-only, so every caller shares it
def _disk_offsets(radius: int) -> np.ndarray:
    """(du, dv) rows, row-major: the offsets of the bins within ``radius`` of a bin."""
    du, dv = np.indices((2 * radius + 1, 2 * radius + 1)).reshape(2, -1) - radius
    inside = du * du + dv * dv <= radius * radius
    (offsets := np.stack([du[inside], dv[inside]], axis=1)).setflags(write=False)
    return offsets


def _centered(k, n: int):
    """Centered label of the dft2d-order index ``k`` on an axis of ``n`` bins."""
    return (k + n // 2) % n


def _stamp_disks(mask: np.ndarray, u, v, radius: int) -> None:
    """Set the bins within ``radius`` of each (u, v), wrapping periodically. Every bin is within
    hypot(H//2, W//2) of every other, so the disk stops at the covering radius just past that."""
    h, w = mask.shape
    disk = _disk_offsets(min(radius, math.isqrt((h // 2) ** 2 + (w // 2) ** 2) + 1))
    mask[(np.reshape(u, (-1, 1)) + disk[:, 0]) % h, (np.reshape(v, (-1, 1)) + disk[:, 1]) % w] = True


def _contamination_mask(h: int, w: int, peaks: PeakSet, radius: int) -> np.ndarray:
    """Bins within ``radius`` of a peak or its mirror (the repairs write only the half plane)."""
    labels = np.array([(p.u, p.v) for p in peaks], dtype=np.intp).reshape(-1, 2)
    u, v = labels[:, 0] - h // 2, labels[:, 1] - w // 2
    mask = np.zeros((h, w), dtype=bool)
    _stamp_disks(mask, np.concatenate([u, -u]), np.concatenate([v, -v]), radius)
    return mask


def _annulus_footprint() -> np.ndarray:
    footprint = np.ones((ANNULUS_SIZE, ANNULUS_SIZE), dtype=bool)
    lo = ANNULUS_SIZE // 2 - ANNULUS_CORE // 2
    footprint[lo : lo + ANNULUS_CORE, lo : lo + ANNULUS_CORE] = False
    return footprint


def _tile_groups() -> dict[int, list[tuple[int, int]]]:
    """Offsets of the _TILE x _TILE tiles that cover the annulus window, keyed
    by weight: the number of annulus cells a tile holds (0 is left out)."""
    n = ANNULUS_SIZE // _TILE
    weights = _annulus_footprint().reshape(n, _TILE, n, _TILE).sum(axis=(1, 3))
    groups: dict[int, list[tuple[int, int]]] = {}
    for (a, b), weight in np.ndenumerate(weights):
        if weight:
            groups.setdefault(int(weight), []).append((a * _TILE, b * _TILE))
    return groups


_TILE_GROUPS = _tile_groups()
_ANNULUS = np.argwhere(_annulus_footprint()) - ANNULUS_SIZE // 2  # (du, dv) offsets of the 416 annulus bins


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

    The limit is laid out with the row stride of the tile minima, so the
    compare for the tile at offset (a, b) is one contiguous 1-D compare from
    flat position a * stride + b, not a 2-D slice over many short rows. The
    columns past the limit's width only pad the stride and are dropped.
    """
    h, w = limit.shape
    least = _window_min(padded, _TILE)
    stride = least.shape[1]
    size = (h - 1) * stride + w  # from the first bin to the last, in the strided layout
    strided = np.zeros((h, stride), dtype=np.float32)
    strided[:, :w] = limit
    flat_limit = strided.reshape(-1)[:size]
    flat_least = least.reshape(-1)
    hit = np.empty(size, dtype=bool)
    tiles = np.empty(size, dtype=np.uint8)
    bound = np.zeros((h, stride), dtype=np.int16)
    flat_bound = bound.reshape(-1)[:size]
    for weight, offsets in _TILE_GROUPS.items():
        tiles.fill(0)
        for a, b in offsets:
            start = a * stride + b
            np.less(flat_least[start : start + size], flat_limit, out=hit)
            np.add(tiles, hit.view(np.uint8), out=tiles)
        flat_bound += tiles.astype(np.int16) * weight
    return bound[:, :w]


def _limits(mag: np.ndarray, threshold: float) -> np.ndarray:
    """The float32 count limits of the magnitudes ``mag``, rounded up (see ``_exceeds_background``)."""
    limit = (mag / threshold * (1.0 + 1e-6)).astype(np.float32)
    return np.minimum(limit.view(np.uint32) + 1, np.float32(np.inf).view(np.uint32)).view(np.float32)


def _exact_test(mag: np.ndarray, u: np.ndarray, v: np.ndarray, threshold: float, windows=None) -> np.ndarray:
    """Tier 2 at the bins (u, v): the exact count, the float32 median and the float64 verdict. The 21x21
    windows come from ``windows``, those of the wrapped float32 plane, or if None straight from ``mag``."""
    (h, w), r, footprint, half = mag.shape, ANNULUS_SIZE // 2, _annulus_footprint(), len(_ANNULUS) // 2
    span, core = np.arange(-r, r + 1), slice(r - ANNULUS_CORE // 2, r + ANNULUS_CORE // 2 + 1)
    verdict, chunk = np.zeros(u.size, dtype=bool), max(1, _GATHER_LIMIT // footprint.size)
    for i0 in range(0, u.size, chunk):
        at = slice(i0, i0 + chunk)
        if windows is None:
            window = mag[(u[at, None, None] + span[:, None]) % h, (v[at, None, None] + span) % w].astype(np.float32)
        else:
            window = windows[u[at], v[at]]
        # Count the whole window and take the core back out: the annulus is
        # masked out (a slower gather) only for the bins that pass.
        below = (window < _limits(mag[u[at], v[at]], threshold)[:, np.newaxis, np.newaxis]).view(np.uint8)
        count = below.reshape(len(window), -1).sum(axis=1, dtype=np.int16)
        count -= below[:, core, core].sum(axis=(1, 2), dtype=np.int16)
        counted = np.flatnonzero(count >= half)
        # np.median's value without its per-call cost: fl(a + b) / 2 of the middle two, in float32.
        middle = np.partition(window[counted][:, footprint], (half - 1, half), axis=1)[:, half - 1 : half + 1]
        background = ((middle[:, 0] + middle[:, 1]) / np.float32(2)).astype(np.float64)
        verdict[i0 + counted] = mag[u[at][counted], v[at][counted]] > threshold * background
    return verdict


def _background_test(mag: np.ndarray, candidates: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """``_exceeds_background``, and the tier-1 count bound of the half plane."""
    h, w = mag.shape
    r, n = ANNULUS_SIZE // 2, w // 2 + 1
    # The half plane wrapped by r on every side: padded (i, j) is plane (i - r, j - r).
    padded = np.pad(mag.astype(np.float32), r, mode="wrap")[:, : n + 2 * r]
    mirrored = np.roll(candidates[::-1, ::-1], 1, axis=(0, 1))  # mirrored[k] = candidates[-k]
    limit = _limits(mag[:, :n], threshold)
    # A limit of 0 admits no magnitude: the bound of a non-candidate is 0, so tier 2 never sees it.
    limit[~(candidates | mirrored)[:, :n]] = 0.0
    bound = _count_bound(padded, limit)
    rows, cols = np.divmod(np.flatnonzero(bound >= len(_ANNULUS) // 2), n)
    exceeds = np.zeros((h, w), dtype=bool)
    exceeds[rows, cols] = _exact_test(mag, rows, cols, threshold, sliding_window_view(padded, (ANNULUS_SIZE,) * 2))
    _fill_mirrors(exceeds)
    return exceeds & candidates, bound


def _exceeds_background(mag: np.ndarray, candidates: np.ndarray, threshold: float) -> np.ndarray:
    """Candidate bins whose magnitude exceeds threshold x local background.

    The local background of a bin is the float32 median magnitude over the
    21x21 neighborhood (wrapping periodically) with its 5x5 core removed: 416
    bins, so the median is fl(a + b) / 2 of the 208th- and 209th-smallest
    values a <= b, which is never below a. A bin can therefore exceed only if
    at least 208 annulus values lie below mag / threshold. The per-bin limit
    is rounded up (relative slack 1e-6, then one float32 step: the next bit
    pattern, as limit >= 0, with +inf kept) so float32 and float64 rounding
    can only let more bins through, never fewer.

    ``mag`` is a full plane in dft2d order that is point-symmetric, mag[-k]
    == mag[k], as ``Spectrum.magnitude`` is. The annulus is point-symmetric
    too, so every bin has the same count, median and verdict as its mirror.
    Only the half plane, columns 0 .. W//2, is computed; the other columns
    are copied from their mirrors (row -u, column -v). The half plane is
    computed for the candidates and their mirrors, and the result is masked
    by ``candidates`` last, so any candidate mask gives the exact answer.

    The count is tested in two tiers. Tier 1 bounds it from above for the
    whole half plane with one compare per tile (``_count_bound``); bins whose
    bound is below 208 cannot exceed. Tier 2 (``_exact_test``) gathers the
    21x21 window of each surviving bin and counts its annulus exactly. The
    few bins that still pass get the exact float32 median and the float64
    test ``mag > threshold * background``, so the result is the same as
    computing the median at every bin. The saving depends on tier 1 ruling out almost
    every bin, as it does on the spectra of textured images (it keeps under
    1.5%); each bin it keeps costs a window gather.
    """
    return _background_test(mag, candidates, threshold)[0]


def _outside_guard(h: int, w: int, guard: int) -> np.ndarray:
    """Bins farther than ``guard`` from DC, fu^2 + fv^2 > guard^2, in dft2d order. Computed
    as fv^2 > g^2 - fu^2, a row against a column, so no H x W integer plane is built; no
    bin is h + w from DC, so clipping g there only keeps its square in range."""
    fu = _centered(np.arange(h), h) - h // 2  # signed frequencies
    fv = _centered(np.arange(w), w) - w // 2
    g = min(guard, h + w)
    return (fv * fv)[np.newaxis, :] > (g * g - fu * fu)[:, np.newaxis]


# Spectrum -> {(threshold, guard): (peak, outside, exceeds, bound)}; weak keys, so an entry dies with its spectrum.
_ANALYSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _retest(mag: np.ndarray, base: Spectrum, threshold: float, guard: int) -> np.ndarray | None:
    """``_exceeds_background`` of ``mag`` from the full test of ``base``, or None when the full test is due."""
    found = _ANALYSES.setdefault(base, {})
    if (threshold, guard) not in found:
        peak, outside = float(base.magnitude.max()), _outside_guard(*base.shape, guard)
        tested = _background_test(base.magnitude, outside & (base.magnitude > MAG_FLOOR_REL * peak), threshold)
        found[threshold, guard] = peak, outside, *tested
    peak, outside, exceeds, bound = found[threshold, guard]
    (h, w), n = mag.shape, mag.shape[1] // 2 + 1
    du, dv = np.divmod(np.flatnonzero(mag != base.magnitude), w)
    if float(mag.max()) != peak or 2 * du.size * len(_ANNULUS) > h * n:
        return None
    # k: per half-plane bin, the changed bins in its annulus; the changed half-plane bins are re-tested too.
    tu, tv = (du[:, np.newaxis] - _ANNULUS[:, 0]) % h, (dv[:, np.newaxis] - _ANNULUS[:, 1]) % w
    touched, k = np.unique(tu[tv < n] * n + tv[tv < n], return_counts=True)
    tu, tv = np.divmod(touched, n)
    ru, rv = np.divmod(np.union1d(touched[bound[tu, tv] + k >= len(_ANNULUS) // 2], (du * n + dv)[dv < n]), n)
    eligible = outside[ru, rv] & (mag[ru, rv] > MAG_FLOOR_REL * peak)
    exceeds = exceeds.copy()
    exceeds[tu, tv] = exceeds[du, dv] = False
    exceeds[ru[eligible], rv[eligible]] = _exact_test(mag, ru[eligible], rv[eligible], threshold)
    _fill_mirrors(exceeds)
    return exceeds


def detect_peaks(spec: Spectrum, params: RepairParams, base: Spectrum | None = None) -> PeakSet:
    """Find impulse bins: magnitude above threshold x local background.

    The local background is the median magnitude of the annulus around each
    bin; it is computed exactly, but only for the bins that pass a two-tier
    rank-count prescreen: an upper bound from 3x3 tile minima, then the
    exact count on the survivors. Both run on the half plane; the other bins
    take their mirrors' verdicts (see ``_exceeds_background``).
    Bins within the DC guard are ignored, non-maximum suppression keeps one
    bin per repair disk, and the result is symmetrized so every peak's
    Hermitian mirror is present. Detection runs on the full magnitude plane
    in dft2d order; the peaks carry centered labels.

    ``base``, a spectrum of the same shape whose full test is kept while it
    lives, changes the cost, never the result ``detect_peaks(spec, params)``.
    A half-plane bin b with an unchanged magnitude has at most c(b) + k(b) <=
    bound(b) + k(b) annulus values below its limit (c and bound: its count
    and tier-1 bound in ``base``; k: the changed full-plane bins in its
    annulus). Tier 2 re-tests the changed bins and those with k(b) > 0 and
    bound(b) + k(b) >= 208; other bins with k(b) > 0 are False, and the rest
    keep their verdicts. A new largest magnitude (it sets the floor), or a
    re-test that could cost more than the full test, takes the full test.
    """
    h, w = spec.shape
    if h < MIN_DETECT_DIM or w < MIN_DETECT_DIM:
        raise ValueError(
            f"spectrum {h}x{w} is too small for the {ANNULUS_SIZE}x{ANNULUS_SIZE} detection "
            f"annulus; images must be at least {MIN_DETECT_DIM}x{MIN_DETECT_DIM}"
        )
    if base is not None and base.shape != spec.shape:
        raise ValueError(f"base spectrum is {base.shape[0]}x{base.shape[1]}, not {h}x{w}")
    mag, threshold, guard = spec.magnitude, params.detect_threshold, params.resolved_guard(h, w)
    exceeds = None if base is None else _retest(mag, base, threshold, guard)
    if exceeds is None:
        eligible = _outside_guard(h, w, guard) & (mag > MAG_FLOOR_REL * float(mag.max()))
        exceeds = _exceeds_background(mag, eligible, threshold)
    # Flat indices: np.nonzero walks a 2-D mask element by element.
    u, v = np.divmod(np.flatnonzero(exceeds), w)

    # Greedy non-maximum suppression, strongest first; ties break on the
    # centered labels. A candidate is kept iff no kept peak's repair disk
    # covers it: the disk is symmetric, so that is the toroidal distance test.
    order = np.lexsort((_centered(v, w), _centered(u, h), -mag[u, v]))
    blocked = np.zeros((h, w), dtype=bool)
    kept = []
    for i in order.tolist():
        if not blocked[u[i], v[i]]:
            kept.append(i)
            _stamp_disks(blocked, u[i], v[i], params.repair_radius)

    # The Hermitian mirror of bin k is -k.
    rows = np.concatenate([u[kept], -u[kept] % h]).tolist()
    cols = np.concatenate([v[kept], -v[kept] % w]).tolist()
    complete = {(_centered(i, h), _centered(j, w)): float(mag[i, j]) for i, j in zip(rows, cols)}
    return PeakSet(tuple(Peak(i, j, m) for (i, j), m in sorted(complete.items())))


def notch_reject(spec: Spectrum, peaks: PeakSet, params: RepairParams) -> Spectrum:
    """Conventional baseline: zero every bin within repair_radius of a peak."""
    h, w = spec.shape
    mask = _contamination_mask(h, w, peaks, params.repair_radius)
    data = spec.data.copy()
    data[mask[:, : w // 2 + 1]] = 0.0
    return _owned_spectrum(data, w)


def _donor_median(mag: np.ndarray, mask: np.ndarray, u: np.ndarray, v: np.ndarray, window: int) -> np.ndarray:
    """Median of the uncontaminated magnitudes in each bin's window x window.

    A shortage names the first starving bin. Contaminated donors sort last
    as +inf, so each row's median is read at its own donor count: the middle
    value, or fl(a + b) / 2 of the two middle values, exactly as
    ``np.median`` does.
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
    a, b = donors[at, (counts - 1) // 2], donors[at, counts // 2]
    return np.where(counts % 2 == 1, b, (a + b) / 2)


def spectral_median(spec: Spectrum, peaks: PeakSet, params: RepairParams) -> Spectrum:
    """Re-estimate contaminated bins from the median of untouched neighbors.

    The magnitude surface of a spectrum is locally smooth, so each bin inside
    a repair disk gets its magnitude replaced by the median magnitude over
    its window x window neighborhood, excluding every contaminated bin (the
    impulse never feeds its own estimate). The bin's phase is kept: away from
    the impulse carrier it belongs to the image content this repair exists to
    preserve, which is what lets the method beat zeroing. Every contaminated
    half-plane bin is estimated, both bins of a pair in the self-mirror
    columns too. The estimates of a pair come out conjugate: mask, magnitude
    plane and donor windows are point-symmetric, so both bins sort the same
    donors, and their phases are conjugate (the Spectrum construction then
    sets the pair conjugate exactly). Bins outside all repair disks are
    returned bit-identical.
    """
    h, w = spec.shape
    mask = _contamination_mask(h, w, peaks, params.repair_radius)
    if (clean := mask.size - np.count_nonzero(mask)) < min(MIN_DONORS, mask.size):  # a bin needs donors no window has
        raise ValueError(f"repair disks of radius {params.repair_radius} leave only {clean} uncontaminated bins in the "
                         f"whole spectrum, fewer than {MIN_DONORS}; reduce the repair radius")
    src = spec.data
    mag = spec.magnitude
    repaired = src.copy()
    # Centered row-major order: a donor shortage names the first bin by its label.
    # Flat indices: np.argwhere walks a 2-D mask element by element.
    rows, cols = np.divmod(np.flatnonzero(mask[:, : w // 2 + 1]), w // 2 + 1)
    order = np.lexsort((_centered(cols, w), _centered(rows, h)))
    rows, cols = rows[order], cols[order]
    chunk = max(1, _GATHER_LIMIT // (params.window * params.window))
    for i0 in range(0, rows.size, chunk):
        u, v = rows[i0 : i0 + chunk], cols[i0 : i0 + chunk]
        estimate = _donor_median(mag, mask, u, v, params.window)
        value = src[u, v]
        # The phase is normalized by hypot: numpy's vectorized complex abs
        # (used for the donor magnitudes) can differ from it in the last bit.
        scale = np.hypot(value.real, value.imag)
        unit = np.divide(value, scale, out=np.ones_like(value), where=scale > 0.0)
        repaired[u, v] = estimate * unit
    return _owned_spectrum(repaired, w)


def denoise_moire(
    img: GrayImage, repair: Callable[[Spectrum, PeakSet, RepairParams], Spectrum], params: RepairParams | None = None
) -> tuple[GrayImage, PeakSet]:
    """Full pipeline: ``dft2d``, ``detect_peaks``, ``repair`` (``notch_reject`` or
    ``spectral_median``), then ``idft2d`` of the repaired spectrum."""
    if params is None:
        params = RepairParams()
    spec = dft2d(img)
    peaks = detect_peaks(spec, params)
    return idft2d(repair(spec, peaks, params)), peaks


def format_peaks_csv(peaks: PeakSet) -> str:
    lines = ["u,v,magnitude"]
    for p in peaks:
        lines.append(f"{p.u},{p.v},{p.magnitude:.17g}")
    return "\n".join(lines) + "\n"
