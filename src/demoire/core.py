"""Grayscale image container, MSE/PSNR quality metrics, and PGM file I/O."""

from __future__ import annotations

import math
import re
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

# Byte classes of the P2 payload tokenizer.
_SEPARATOR, _DIGIT, _OTHER = 0, 1, 2
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[list(_WHITESPACE)] = _SEPARATOR
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_COMMENT = re.compile(rb"#[^\r\n]*")
_DECIMAL = [str(v) for v in range(256)]  # P2 text of each 8-bit value
_OVERFLOW_DIGITS = 309  # digits of the shortest pixel token that can overflow a float64


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
    try:
        return int(token), pos
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise PgmError(f"invalid {what} in PGM header: {len(token)} digits") from None


def _decode_p2_payload(payload: bytes, count: int) -> np.ndarray:
    # A comment separates like whitespace: it also ends a token it touches.
    payload = _COMMENT.sub(b" ", payload)
    raw = np.frombuffer(payload, dtype=np.uint8)
    kind = np.take(_BYTE_CLASS, raw)
    in_token = np.zeros(len(raw) + 2, dtype=bool)  # padded with a separator at each end
    np.not_equal(kind, _SEPARATOR, out=in_token[1:-1])
    edges = np.flatnonzero(in_token[1:] != in_token[:-1])
    starts, ends = edges[0::2], edges[1::2]
    found = min(len(starts), count)
    # The first non-digit byte lies in the first token that is not a digit run.
    other = kind == _OTHER
    first_other = int(other.argmax())
    bad = found
    if other[first_other]:
        bad = min(found, int(np.searchsorted(starts, first_other, side="right")) - 1)
    starts, ends = starts[:found], ends[:found]
    length = ends - starts
    # A token's value from its last three digits; a digit place before a
    # token's start is masked out.
    small = np.zeros(found, dtype=np.int16)
    for place, scale in ((1, 1), (2, 10), (3, 100)):
        digit = np.take(raw, ends - place, mode="clip").astype(np.int16) - 48
        digit *= length >= place
        small += digit * scale
    values = small.astype(np.float64)
    # A longer digit token is its last three digits when the digits before
    # them are all "0", and at least 1000 (above any maxval) otherwise; each
    # pass reads one more digit place of the tokens that reach it. From
    # _OVERFLOW_DIGITS digits on, int() converts a token and decides whether
    # it fails.
    longer = np.flatnonzero(length[:bad] > 3)
    for place in range(4, _OVERFLOW_DIGITS):
        if not longer.size:
            break
        values[longer[raw[ends[longer] - place] > ord("0")]] = 1000.0
        longer = longer[length[longer] > place]
    for i in longer:
        token = payload[starts[i] : ends[i]]
        try:
            values[i] = int(token)
        except (ValueError, OverflowError):  # too many digits for int() or for a float64
            raise PgmError(f"invalid pixel value of {len(token)} digits in P2 payload") from None
    if bad < found:
        raise PgmError(f"invalid pixel value {payload[starts[bad] : ends[bad]]!r} in P2 payload")
    if found < count:
        raise PgmError(f"truncated PGM payload: expected {count} pixel values, found {found}")
    return values


def read_pgm(data: bytes) -> GrayImage:
    """Decode a P2 (ASCII) or P5 (binary) PGM byte sequence.

    Only 8-bit files (maxval <= 255) are supported. Pixel values are kept
    as-is; they already lie in [0, 255].

    The header is read token by token; a P2 payload is tokenized with array
    operations over all its bytes. Whitespace is space, tab, LF, CR, VT and
    FF. A ``#`` starts a comment that runs to the next CR or LF and separates
    like whitespace, so ``b"12#c\\n34"`` is two pixels. Only the first
    width*height tokens are read; whatever follows them is ignored. Before
    anything is allocated, the payload must hold at least two bytes per
    pixel. Then the first of those tokens that fails decides the error: one
    that is not a run of ASCII digits, or one with too many digits for
    ``int()`` or a float64. If none fails and there are fewer tokens than
    pixels, the payload is truncated. Values above ``maxval`` are rejected
    last. Zero-padded tokens such as ``0042`` are decoded by the same array
    operations; only tokens of 309 or more digits go through ``int()``.
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
        values = _decode_p2_payload(data[pos:], count)
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
    body = "\n".join(" ".join([_DECIMAL[v] for v in row]) for row in q.tolist())
    return (header + body + "\n").encode("ascii")
