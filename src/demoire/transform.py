"""Exact 2D discrete Fourier transform and magnitude display.

Conventions: the forward transform is unnormalized, the inverse carries the
1/(H*W) factor, and arbitrary (including prime) dimensions are exact.

Images are real, so their spectra are Hermitian: S(-k) = conj(S(k)), indices
taken modulo the shape. A :class:`Spectrum` stores only the ``rfft2`` half
plane, columns 0 .. W//2 in ``dft2d`` order (DC at (0, 0)); column -v of the
full plane is the conjugate of column v with its rows mirrored, -u mod H.
Only the self-mirror columns (v = 0, and v = W/2 for even W) hold mirror
pairs within the half plane. Every Spectrum is exactly Hermitian there by
construction (:func:`_hermitian`), so the transforms, detection and the
repairs never test or restore that symmetry themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import GrayImage, _checked, _owned_image

__all__ = ["Spectrum", "center_shift", "dft2d", "idft2d", "log_magnitude", "moire_spectrum", "spectral_mse"]

# Tolerance of the Hermitian test at construction. The relative test catches
# asymmetric spectral edits; the absolute floor, in pixel units (one bin's
# gap g moves a pixel by up to g / (H*W)), keeps all-but-zero spectra from
# tripping on rounding noise, where every bin is at machine scale.
_HERMITIAN_REL_TOL = 1e-6
_HERMITIAN_ABS_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Spectrum of a real H x W image: the H x (W//2+1) ``rfft2`` half plane and W.

    ``shape`` is the image's (H, W), not the shape of ``data``. The data is
    copied, checked and made exactly Hermitian on construction (see
    :func:`_hermitian`); a half plane whose self-mirror columns are not
    Hermitian to within rounding is rejected.
    """

    data: np.ndarray
    width: int

    def __post_init__(self):
        data = np.array(self.data, dtype=np.complex128, copy=True)
        object.__setattr__(self, "data", _hermitian(data, self.width))

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
        and the display view of one spectrum share one plane. It is exactly
        point-symmetric: bin -k is a copy of bin k, or equal to it in the
        self-mirror columns, which hold conjugate pairs.
        """
        h, w = self.shape
        mag = np.empty((h, w))
        np.abs(self.data, out=mag[:, : w // 2 + 1])
        _fill_mirrors(mag)
        mag.flags.writeable = False
        return mag


def _owned_spectrum(data: np.ndarray, width: int) -> Spectrum:
    """A Spectrum over the fresh complex128 ``data``, not copied, as in :func:`core._owned_image`."""
    spec = object.__new__(Spectrum)
    object.__setattr__(spec, "width", width)
    object.__setattr__(spec, "data", _hermitian(data, width))
    return spec


def _fill_mirrors(plane: np.ndarray) -> None:
    """Set columns W//2+1 .. W-1 of the H x W ``plane`` to their point mirrors, plane[-u, -v]."""
    w = plane.shape[1]
    k = (w - 1) // 2
    plane[0, w // 2 + 1 :] = plane[0, k:0:-1]
    plane[1:, w // 2 + 1 :] = plane[:0:-1, k:0:-1]


def _self_mirror(n: int) -> slice:
    """The indices k of an axis of n bins with k == -k mod n: 0, and n/2 when n is even."""
    return slice(0, None, n // 2) if n % 2 == 0 else slice(0, 1)


def _hermitian(data: np.ndarray, w: int) -> np.ndarray:
    """Check the half plane ``data`` of an image of width ``w``, make it exactly Hermitian in place, and freeze it.

    The one owner of the Spectrum invariant, run by every construction. First
    ``data`` is validated: 2D, at least 1x1, finite, W//2+1 columns. Then its
    self-mirror columns are tested elementwise: their lower rows against the
    conjugates of the upper rows they mirror (-u mod H), and their self-mirror
    bins for a zero imaginary part. A gap above tolerance, relative to the
    largest bin magnitude (found only for a gap above the absolute floor),
    signals a symmetry-breaking edit that ``irfft2`` would silently invert to
    another image. Within tolerance (``rfft2`` output is Hermitian there only
    to rounding) the lower rows are set to the conjugates of the upper rows
    and each self-mirror bin to its real part, so mirror bins have bit-equal
    magnitudes.
    """
    _checked(data, "spectrum")
    cols = w // 2 + 1
    if w < 1 or data.shape[1] != cols:
        raise ValueError(f"a spectrum of width {w} holds {cols} columns, got {data.shape[1]}")
    h = data.shape[0]
    k = (h - 1) // 2
    mirror_cols = data[:, _self_mirror(w)]
    lower, upper, points = mirror_cols[h - k :], mirror_cols[k:0:-1], mirror_cols[_self_mirror(h)]
    gap = max(float(np.abs(lower - upper.conj()).max(initial=0.0)), float(np.abs(points.imag).max()))
    if gap > _HERMITIAN_ABS_FLOOR * h * w:
        largest = float(np.abs(data).max())
        if gap > _HERMITIAN_REL_TOL * largest:
            raise ValueError(
                f"spectrum bins differ from the conjugates of their mirrors by up to {gap:.3e} "
                f"against max magnitude {largest:.3e}: spectrum lost Hermitian symmetry"
            )
    np.conjugate(upper, out=lower)
    points.imag = 0.0
    data.setflags(write=False)
    return data


def dft2d(img: GrayImage) -> Spectrum:
    """Forward transform: S(u,v) = sum_xy f(x,y) exp(-2i*pi*(ux/H + vy/W)).

    ``rfft2`` computes the half plane; the Spectrum construction makes its
    self-mirror columns exactly Hermitian.
    """
    return _owned_spectrum(np.fft.rfft2(img.pixels), img.width)


def idft2d(spec: Spectrum) -> GrayImage:
    """Normalized inverse transform: ``irfft2`` of the half plane, exactly Hermitian by construction."""
    return _owned_image(np.fft.irfft2(spec.data, s=spec.shape))


def _dirichlet(f: float, n: int) -> tuple[tuple[int, np.ndarray], tuple[int, np.ndarray]]:
    """D_n(f) and D_n(-f), the length-n FFTs of exp(+-2i*pi*f*x), each as (first bin, values) over its support."""
    if float(f * n).is_integer():  # on the bin grid: one exact impulse of height n
        return (int(f * n) % n, np.full(1, float(n))), (-int(f * n) % n, np.full(1, float(n)))
    d = np.fft.fft(np.exp(2j * np.pi * (f * np.arange(n))))
    return (0, d), (0, np.roll(d[::-1], 1).conj())  # D_n(-f)[k] = conj(D_n(f)[-k])


def moire_spectrum(base: Spectrum, components) -> Spectrum:
    """``dft2d`` of the image of ``base`` plus each (A, fu, fv, phase) of ``components`` as A*sin(2*pi*(fu*x +
    fv*y) + phase), to rounding, in closed form (Dirichlet kernels; Harris 1978): c * D_H(fu) (x) D_W(fv) +
    conj(c) * D_H(-fu) (x) D_W(-fv), c = A e^{i phase} / 2i, added over the kernels' supports in the half plane."""
    h, w = base.shape
    data = base.data.copy()
    for amp, fu, fv, phase in components:
        c = amp * np.exp(1j * phase) / 2j
        for coef, (u, rows), (v, cols) in zip((c, c.conjugate()), _dirichlet(fu, h), _dirichlet(fv, w)):
            data[u : u + rows.size, v : v + cols.size] += np.outer(coef * rows, cols[: w // 2 + 1 - v])
    return _owned_spectrum(data, w)


def spectral_mse(a: Spectrum, b: Spectrum) -> float:
    """``core.mse`` of the two spectra's images, to rounding, without inverting either.

    Parseval: sum |A - B|^2 over the full plane is (H*W)^2 times the MSE. A half-plane
    column stands for itself and its mirror, so it counts twice; the self-mirror
    columns, 0 and W/2 for even W, once."""
    if a.shape != b.shape:
        raise ValueError(f"spectrum dimensions differ: {a.shape} vs {b.shape}")
    h, w = a.shape
    power = (a.data - b.data).view(np.float64)  # real and imaginary parts interleaved
    np.multiply(power, power, out=power)
    once = power.reshape(h, -1, 2)[:, _self_mirror(w)]
    return float(2.0 * power.sum() - once.sum()) / (h * w) ** 2


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
