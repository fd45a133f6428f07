"""Exact 2D discrete Fourier transform, DC centering, and magnitude display.

Conventions: the forward transform is unnormalized, the inverse carries the
1/(H*W) factor, and arbitrary (including prime) dimensions are exact.

Images are real, so their spectra are Hermitian: S(-k) = conj(S(k)), indices
taken modulo the shape. Both transforms use that. ``dft2d`` computes the
half plane of columns 0 .. W//2 with ``rfft2`` and fills the rest of the full
H x W plane from the mirrors, so its spectrum is exactly Hermitian.
``idft2d`` inverts the half plane with ``irfft2``, after testing that the
bins the half plane leaves out agree with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GrayImage

__all__ = ["Spectrum", "center_shift", "dft2d", "idft2d", "log_magnitude"]

# Tolerance of the inverse's Hermitian test. The relative test catches
# asymmetric spectral edits; the absolute floor, in pixel units (one bin's
# gap g moves a pixel by up to g / (H*W)), keeps all-but-zero spectra from
# tripping on rounding noise, where every bin is at machine scale.
_HERMITIAN_REL_TOL = 1e-6
_HERMITIAN_ABS_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Complex 2D spectrum; ``centered`` is true when DC sits at (H//2, W//2)."""

    data: np.ndarray
    centered: bool = False

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen(np.array(self.data, dtype=np.complex128, copy=True)))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Validate a complex spectrum array and mark it read-only."""
    if arr.ndim != 2:
        raise ValueError(f"expected a 2D spectrum array, got {arr.ndim}D")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"spectrum dimensions must be at least 1x1, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("spectrum values must all be finite")
    arr.setflags(write=False)
    return arr


def _owned_spectrum(data: np.ndarray, centered: bool = False) -> Spectrum:
    """A Spectrum over ``data``, a fresh complex128 array the caller hands over.

    It is validated and frozen like the public constructor's copy, but not
    copied again; the caller must hold no other reference it writes through.
    """
    spec = object.__new__(Spectrum)
    object.__setattr__(spec, "data", _frozen(data))
    object.__setattr__(spec, "centered", centered)
    return spec


def _self_mirror(n: int) -> slice:
    """The indices k of an axis of n bins with k == -k mod n: 0, and n/2 when n is even."""
    return slice(0, None, n // 2) if n % 2 == 0 else slice(0, 1)


def _mirror_pairs(data: np.ndarray):
    """Views of the bins outside the rfft2 half plane, and of the self-mirror columns.

    Returns ``(pairs, points)``. Each pair ``(bins, mirrors)`` holds the bins
    k and, elementwise, their mirrors -k: the right half (columns W//2+1 ..
    W-1) against columns (W-1)//2 .. 1 with the rows reversed modulo H, then
    the lower rows of the self-mirror columns (v = 0, and v = W/2 when W is
    even) against their upper rows. ``points`` are the bins that are their
    own mirror, which are real in a Hermitian spectrum.
    """
    h, w = data.shape
    k = (w - 1) // 2
    cols = data[:, _self_mirror(w)]
    pairs = (
        (data[:1, w - k :], data[:1, k:0:-1]),
        (data[1:, w - k :], data[:0:-1, k:0:-1]),
        (cols[h - (h - 1) // 2 :], cols[(h - 1) // 2 : 0 : -1]),
    )
    return pairs, cols[_self_mirror(h)]


def dft2d(img: GrayImage) -> Spectrum:
    """Forward transform: S(u,v) = sum_xy f(x,y) exp(-2i*pi*(ux/H + vy/W)).

    ``rfft2`` computes columns 0 .. W//2. Every other bin, and the lower
    rows of the self-mirror columns (whose ``rfft2`` values are Hermitian
    only to rounding), is set to the conjugate of its mirror, and the
    imaginary part of each bin that is its own mirror to zero. The result
    is exactly Hermitian, so mirror bins have bit-equal magnitudes.
    """
    h, w = img.shape
    data = np.empty((h, w), dtype=np.complex128)
    np.fft.rfft2(img.pixels, out=data[:, : w // 2 + 1])
    pairs, points = _mirror_pairs(data)
    for bins, mirrors in pairs:
        np.conjugate(mirrors, out=bins)
    points.imag = 0.0
    return _owned_spectrum(data)


def idft2d(spec: Spectrum) -> GrayImage:
    """Normalized inverse transform of an un-centered Hermitian spectrum.

    The spectrum must be un-centered (apply :func:`center_shift` first).
    ``irfft2`` reads only columns 0 .. W//2 and takes the Hermitian part of
    the self-mirror columns, so a spectrum that is not Hermitian would be
    inverted silently to some other image. The bins it cannot see are
    therefore tested first, elementwise on views: the right half and the
    lower rows of the self-mirror columns against the conjugates of their
    mirrors, and the self-mirror bins for a zero imaginary part. A gap above
    tolerance, relative to the largest bin magnitude, signals a
    symmetry-breaking bug in upstream spectral edits.
    """
    if spec.centered:
        raise ValueError("spectrum is centered: apply center_shift before the inverse transform")
    data = spec.data
    h, w = data.shape
    pairs, points = _mirror_pairs(data)
    gap = max(float(np.abs(a - b.conj()).max(initial=0.0)) for a, b in pairs)
    gap = max(gap, float(np.abs(points.imag).max()))
    largest = float(np.abs(data[:, : w // 2 + 1]).max())
    if gap > _HERMITIAN_REL_TOL * largest and gap > _HERMITIAN_ABS_FLOOR * h * w:
        raise ValueError(
            f"spectrum bins differ from the conjugates of their mirrors by up to {gap:.3e} "
            f"against max magnitude {largest:.3e}: spectrum lost Hermitian symmetry"
        )
    return GrayImage(np.fft.irfft2(data[:, : w // 2 + 1], s=(h, w)))


def center_shift(spec: Spectrum) -> Spectrum:
    """Move DC to (H//2, W//2), or back to (0, 0) if already centered.

    For even dimensions the two directions coincide; for odd dimensions the
    inverse rolls by the complementary offset.
    """
    h, w = spec.shape
    if spec.centered:
        shift = (-(h // 2), -(w // 2))
    else:
        shift = (h // 2, w // 2)
    return _owned_spectrum(np.roll(spec.data, shift, axis=(0, 1)), centered=not spec.centered)


def log_magnitude(spec: Spectrum) -> GrayImage:
    """Display view log(1 + |S|), rescaled to [0, 255] over the full grid."""
    scaled = np.log1p(np.abs(spec.data))
    lo = float(scaled.min())
    hi = float(scaled.max())
    if hi == lo:
        return GrayImage(np.zeros(spec.shape))
    return GrayImage((scaled - lo) * (255.0 / (hi - lo)))
