"""Exact 2D discrete Fourier transform and magnitude display.

Conventions: the forward transform is unnormalized, the inverse carries the
1/(H*W) factor, and arbitrary (including prime) dimensions are exact.

Images are real, so their spectra are Hermitian: S(-k) = conj(S(k)), indices
taken modulo the shape. A :class:`Spectrum` stores only the ``rfft2`` half
plane, columns 0 .. W//2 in ``dft2d`` order (DC at (0, 0)); column -v of the
full plane is the conjugate of column v with its rows mirrored, -u mod H.
Only the self-mirror columns (v = 0, and v = W/2 for even W) hold mirror
pairs within the half plane: ``dft2d`` makes them exactly Hermitian, and
``idft2d`` tests them before it inverts the half plane with ``irfft2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import GrayImage, _frozen, _owned_image

__all__ = ["Spectrum", "center_shift", "dft2d", "idft2d", "log_magnitude"]

# Tolerance of the inverse's Hermitian test. The relative test catches
# asymmetric spectral edits; the absolute floor, in pixel units (one bin's
# gap g moves a pixel by up to g / (H*W)), keeps all-but-zero spectra from
# tripping on rounding noise, where every bin is at machine scale.
_HERMITIAN_REL_TOL = 1e-6
_HERMITIAN_ABS_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Spectrum of a real H x W image: the H x (W//2+1) ``rfft2`` half plane and W.

    ``shape`` is the image's (H, W), not the shape of ``data``.
    """

    data: np.ndarray
    width: int

    def __post_init__(self):
        self._own(np.array(self.data, dtype=np.complex128, copy=True))

    def _own(self, data: np.ndarray) -> None:
        object.__setattr__(self, "data", _frozen(data, "spectrum"))
        cols = self.width // 2 + 1
        if self.width < 1 or data.shape[1] != cols:
            raise ValueError(f"a spectrum of width {self.width} holds {cols} columns, got {data.shape[1]}")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.height, self.width

    @cached_property
    def magnitude(self) -> np.ndarray:
        """|S| over the full H x W plane in dft2d order, mirrored out of the half plane.

        Built on first use and kept, read-only, so detection, the median repair
        and the display view of one spectrum share one plane. Off the
        self-mirror columns it is exactly point-symmetric: bin -k is a copy of
        bin k.
        """
        h, w = self.shape
        mag = np.empty((h, w))
        np.abs(self.data, out=mag[:, : w // 2 + 1])
        k = (w - 1) // 2
        mag[0, w // 2 + 1 :] = mag[0, k:0:-1]
        mag[1:, w // 2 + 1 :] = mag[:0:-1, k:0:-1]
        mag.flags.writeable = False
        return mag


def _owned_spectrum(data: np.ndarray, width: int) -> Spectrum:
    """A Spectrum over the fresh complex128 ``data``, not copied, as in :func:`core._owned_image`."""
    spec = object.__new__(Spectrum)
    object.__setattr__(spec, "width", width)
    spec._own(data)
    return spec


def _self_mirror(n: int) -> slice:
    """The indices k of an axis of n bins with k == -k mod n: 0, and n/2 when n is even."""
    return slice(0, None, n // 2) if n % 2 == 0 else slice(0, 1)


def _self_mirror_columns(data: np.ndarray, w: int):
    """Views ``(lower, upper, points)`` of the self-mirror columns of a half plane
    of width ``w``: their lower rows, elementwise the upper rows they mirror
    (-u mod H), and their bins that are their own mirrors (real if Hermitian)."""
    h = data.shape[0]
    k = (h - 1) // 2
    cols = data[:, _self_mirror(w)]
    return cols[h - k :], cols[k:0:-1], cols[_self_mirror(h)]


def dft2d(img: GrayImage) -> Spectrum:
    """Forward transform: S(u,v) = sum_xy f(x,y) exp(-2i*pi*(ux/H + vy/W)).

    ``rfft2`` computes the half plane. In the self-mirror columns its values
    are Hermitian only to rounding, so their lower rows are set to the
    conjugates of their upper rows, and the imaginary part of each bin that
    is its own mirror to zero. The spectrum is then exactly Hermitian, and
    mirror bins have bit-equal magnitudes.
    """
    data = np.fft.rfft2(img.pixels)
    lower, upper, points = _self_mirror_columns(data, img.width)
    np.conjugate(upper, out=lower)
    points.imag = 0.0
    return _owned_spectrum(data, img.width)


def idft2d(spec: Spectrum) -> GrayImage:
    """Normalized inverse transform of a Hermitian half-plane spectrum.

    ``irfft2`` takes only the Hermitian part of the self-mirror columns, so a
    spectrum whose edits broke their symmetry would be inverted silently to
    some other image. Those columns are therefore tested first, elementwise
    on views: their lower rows against the conjugates of their mirrors, and
    the self-mirror bins for a zero imaginary part. A gap above tolerance,
    relative to the largest bin magnitude, signals a symmetry-breaking bug
    in upstream spectral edits. The largest magnitude is found only for a gap
    above the absolute floor, so exactly Hermitian spectra never pay for it.
    """
    h, w = spec.shape
    lower, upper, points = _self_mirror_columns(spec.data, w)
    gap = max(float(np.abs(lower - upper.conj()).max(initial=0.0)), float(np.abs(points.imag).max()))
    if gap > _HERMITIAN_ABS_FLOOR * h * w:
        largest = float(np.abs(spec.data).max())
        if gap > _HERMITIAN_REL_TOL * largest:
            raise ValueError(
                f"spectrum bins differ from the conjugates of their mirrors by up to {gap:.3e} "
                f"against max magnitude {largest:.3e}: spectrum lost Hermitian symmetry"
            )
    return _owned_image(np.fft.irfft2(spec.data, s=(h, w)))


def center_shift(spec: Spectrum) -> np.ndarray:
    """Display view: |S| over the full plane with DC moved to (H//2, W//2)."""
    return np.fft.fftshift(spec.magnitude)


def log_magnitude(spec: Spectrum) -> GrayImage:
    """Display view log(1 + |S|), centered, rescaled to [0, 255] over the full grid."""
    scaled = np.log1p(center_shift(spec))
    lo = float(scaled.min())
    hi = float(scaled.max())
    if hi == lo:
        return GrayImage(np.zeros(spec.shape))
    return GrayImage((scaled - lo) * (255.0 / (hi - lo)))
