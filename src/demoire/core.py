"""Grayscale image container, MSE/PSNR quality metrics, and PGM file I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GrayImage",
    "PgmError",
    "QualityReport",
    "mse",
    "psnr",
    "read_pgm",
    "write_pgm",
]

PEAK_VALUE = 255.0

_WHITESPACE = b" \t\n\r\x0b\x0c"


class PgmError(ValueError):
    """Malformed or unsupported PGM data."""


@dataclass(frozen=True, eq=False)
class GrayImage:
    """2D grid of real-valued intensities with nominal range [0, 255].

    Values may leave the nominal range mid-pipeline (noise addition, inverse
    transforms); clamping and quantization happen only in :func:`write_pgm`.
    The pixel array is copied on construction and marked read-only, so no
    operation can mutate a shared input.
    """

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.array(self.pixels, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2D pixel array, got {arr.ndim}D")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image dimensions must be at least 1x1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("pixel values must all be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.pixels.shape


@dataclass(frozen=True)
class QualityReport:
    """MSE/PSNR summary against a reference image.

    ``psnr_db`` is ``None`` when the images are identical (mse == 0); the
    infinity never enters arithmetic and is rendered as the string "inf".
    """

    mse: float
    psnr_db: float | None
    peak_value: float = PEAK_VALUE

    def psnr_label(self) -> str:
        return "inf" if self.psnr_db is None else f"{self.psnr_db:.2f}"


def _require_same_shape(a: GrayImage, b: GrayImage) -> None:
    if a.shape != b.shape:
        raise ValueError(f"image dimensions differ: {a.shape} vs {b.shape}")


def mse(a: GrayImage, b: GrayImage) -> float:
    """Mean squared error between two images of identical dimensions."""
    _require_same_shape(a, b)
    diff = a.pixels - b.pixels
    return float(np.mean(diff * diff))


def psnr(a: GrayImage, b: GrayImage) -> QualityReport:
    """Peak signal-to-noise ratio with an 8-bit peak of 255."""
    err = mse(a, b)
    if err == 0.0:
        return QualityReport(mse=0.0, psnr_db=None)
    return QualityReport(mse=err, psnr_db=10.0 * math.log10(PEAK_VALUE * PEAK_VALUE / err))


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Header tokens are separated by whitespace; '#' comments run to end of line.
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == 0x23:  # '#'
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise PgmError("truncated PGM: header ended before all fields were read")
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != 0x23:
        pos += 1
    return data[start:pos], pos


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    if not token.isdigit():
        raise PgmError(f"invalid {what} in PGM header: {token!r}")
    return int(token), pos


def read_pgm(data: bytes) -> GrayImage:
    """Decode a P2 (ASCII) or P5 (binary) PGM byte sequence.

    Only 8-bit files (maxval <= 255) are supported. Pixel values are kept
    as-is; they already lie in [0, 255].
    """
    data = bytes(data)
    magic, pos = _next_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"bad magic number {magic!r}: expected P2 or P5")
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    if width < 1 or height < 1:
        raise PgmError(f"nonpositive image dimensions {width}x{height}")
    maxval, pos = _int_token(data, pos, "maxval")
    if maxval < 1:
        raise PgmError(f"invalid maxval {maxval}")
    if maxval > 255:
        raise PgmError(f"unsupported maxval {maxval}: only 8-bit PGM (maxval <= 255)")

    count = width * height
    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise PgmError("malformed P5 header: expected whitespace before pixel data")
        pos += 1  # exactly one separator byte, then the raster
        payload = data[pos : pos + count]
        if len(payload) < count:
            raise PgmError(
                f"truncated PGM payload: expected {count} pixel bytes, found {len(payload)}"
            )
        values = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    else:
        # Each pixel takes at least a separator and a digit; checking that
        # before allocating keeps a forged header from sizing the buffer.
        if len(data) - pos < 2 * count:
            raise PgmError(
                f"truncated PGM payload: expected {count} pixel values, "
                f"found {len(data) - pos} bytes"
            )
        flat = np.empty(count, dtype=np.float64)
        for i in range(count):
            try:
                token, pos = _next_token(data, pos)
            except PgmError:
                raise PgmError(
                    f"truncated PGM payload: expected {count} pixel values, found {i}"
                ) from None
            if not token.isdigit():
                raise PgmError(f"invalid pixel value {token!r} in P2 payload")
            flat[i] = int(token)
        values = flat
    if values.max(initial=0.0) > maxval:
        raise PgmError(f"pixel value exceeds declared maxval {maxval}")
    return GrayImage(values.reshape(height, width))


def _quantize(arr: np.ndarray) -> np.ndarray:
    # Clamp to [0, 255], then round half away from zero. Only this export
    # boundary quantizes; the rest of the pipeline is full precision.
    clipped = np.clip(arr, 0.0, 255.0)
    return np.floor(clipped + 0.5).astype(np.uint8)


def write_pgm(img: GrayImage, fmt: str = "binary") -> bytes:
    """Encode an image as canonical P5 ("binary") or P2 ("ascii") bytes."""
    if fmt not in ("binary", "ascii"):
        raise ValueError(f"unknown PGM format {fmt!r}: expected 'binary' or 'ascii'")
    q = _quantize(img.pixels)
    if fmt == "binary":
        header = f"P5\n{img.width} {img.height}\n255\n"
        return header.encode("ascii") + q.tobytes()
    header = f"P2\n{img.width} {img.height}\n255\n"
    body = "\n".join(" ".join(str(int(v)) for v in row) for row in q)
    return (header + body + "\n").encode("ascii")
