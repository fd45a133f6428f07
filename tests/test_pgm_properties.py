"""Property tests for PGM I/O: encoding round-trips, hostile bytes fail
only with ``PgmError``, and the vectorized P2 decoder matches the per-token
reference decoder pixel for pixel and error message for error message.

The examples are derandomized, so every run checks the same inputs.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from demoire import GrayImage, PgmError, read_pgm, write_pgm
from demoire.core import _WHITESPACE, _int_token, _next_token

FORMATS = st.sampled_from(["binary", "ascii"])
SHAPES = st.tuples(st.integers(1, 12), st.integers(1, 12))
fixed = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def reference_read_pgm(data: bytes) -> GrayImage:
    """``read_pgm`` with the P2 payload read one token at a time in Python."""
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
        pos += 1
        payload = data[pos : pos + count]
        if len(payload) < count:
            raise PgmError(
                f"truncated PGM payload: expected {count} pixel bytes, found {len(payload)}"
            )
        values = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    else:
        if len(data) - pos < 2 * count:
            raise PgmError(
                f"truncated PGM payload: expected {count} pixel values, "
                f"found {len(data) - pos} bytes"
            )
        values = np.empty(count, dtype=np.float64)
        for i in range(count):
            try:
                token, pos = _next_token(data, pos)
            except PgmError:
                raise PgmError(
                    f"truncated PGM payload: expected {count} pixel values, found {i}"
                ) from None
            if not token.isdigit():
                raise PgmError(f"invalid pixel value {token!r} in P2 payload")
            try:
                values[i] = int(token)
            except (ValueError, OverflowError):
                raise PgmError(f"invalid pixel value of {len(token)} digits in P2 payload") from None
    if values.max(initial=0.0) > maxval:
        raise PgmError(f"pixel value exceeds declared maxval {maxval}")
    return GrayImage(values.reshape(height, width))


def decode_or_pgm_error(data: bytes) -> GrayImage | None:
    try:
        return read_pgm(data)
    except PgmError:
        return None


@fixed
@given(arrays(np.uint8, SHAPES), FORMATS)
def test_quantized_images_round_trip(pixels, fmt):
    img = read_pgm(write_pgm(GrayImage(pixels), fmt))
    assert np.array_equal(img.pixels, pixels)


@fixed
@given(arrays(np.float64, SHAPES, elements=st.floats(-300.0, 600.0)), FORMATS)
def test_encoding_quantizes_once(pixels, fmt):
    encoded = write_pgm(GrayImage(pixels), fmt)
    img = read_pgm(encoded)
    assert img.shape == pixels.shape
    assert write_pgm(img, fmt) == encoded


@fixed
@given(st.binary(max_size=300))
@example(b"P5 " + b"9" * 5000 + b" 1 255\n\x00")
@example(b"P2 1 1 " + b"2" * 5000 + b"\n0\n")
def test_arbitrary_bytes_raise_only_pgm_error(data):
    decode_or_pgm_error(data)


SEPARATOR = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b" # note\n", b"#\n"])
SIZE = st.one_of(st.integers(1, 6), st.integers(0, 10**30))
MAXVAL = st.one_of(st.just(255), st.integers(0, 300))


# P2 payload pieces: every separator, comments glued to digits, leading
# zeros, tokens of 4 to 5000 digits, non-digit and non-ASCII bytes.
PIECE = st.one_of(
    st.integers(0, 300).map(lambda v: str(v).encode()),
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n", b"  \n"]),
    st.sampled_from([b"#", b"# c\n", b"#\xb2#x\r", b"0", b"00", b"007", b"0255", b"1234"]),
    st.sampled_from([b"x", b"-", b"+1", b"\xb2", b"\xff", b"\x00"]),
    st.sampled_from([b"7" * 308, b"7" * 400, b"0" * 400 + b"5", b"1" * 5000]),
)


@st.composite
def headed_payloads(draw):
    """A well-formed header, then a payload that may be anything."""
    magic = draw(st.sampled_from([b"P2", b"P5"]))
    fields = [magic, *(str(draw(v)).encode() for v in (SIZE, SIZE, MAXVAL))]
    header = b"".join(f + draw(SEPARATOR) for f in fields)
    text = st.text(alphabet="0123456789 \n\t#x-", max_size=400).map(str.encode)
    pieces = st.lists(PIECE, max_size=60).map(b"".join)
    payload = draw(st.one_of(st.binary(max_size=400), text, pieces))
    return header + payload


@fixed
@given(headed_payloads())
@example(b"P2 1 1 255\n" + b"7" * 5000 + b"\n")
@example(b"P2 1 1 255\n" + b"7" * 400 + b"\n")
def test_valid_headers_with_arbitrary_payloads_raise_only_pgm_error(data):
    img = decode_or_pgm_error(data)
    if img is not None:
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 255.0


GAP = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n", b"#c\n", b"# \xb2#\r", b"#\n\t"])


@st.composite
def p2_files(draw):
    """A small P2 file, near-valid: pixels, gaps, then up to 3 pieces spliced in."""
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    count = width * height
    maxval = draw(st.sampled_from([255, 200, 9]))
    header = b"P2" + b"".join(draw(GAP) + str(v).encode() for v in (width, height, maxval))
    pixel = st.integers(0, 255).map(lambda v: str(v).encode())
    pixels = draw(st.lists(pixel, min_size=max(0, count - 2), max_size=count + 2))
    payload = b"".join(draw(GAP) + p for p in pixels) + draw(GAP)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(payload)))
        payload = payload[:at] + draw(PIECE) + payload[at:]
    return header + payload


def outcome(decode, data: bytes):
    try:
        return decode(data).pixels.tolist()
    except PgmError as exc:
        return f"PgmError: {exc}"


@settings(fixed, max_examples=500)
@given(st.one_of(p2_files(), headed_payloads()))
@example(b"P2 2 2 255\n1 2 3\n\n\n")  # fewer tokens than pixels
@example(b"P2 1000000 1000000 255\n0 1 2\n")  # fewer bytes than two per pixel
@example(b"P2 3 1 255\n1 x2 3\n")  # a non-digit token
@example(b"P2 2 1 255\n1 \xb2\n")  # a non-ASCII token
@example(b"P2 1 1 255\n" + b"7" * 5000 + b"\n")  # too many digits for int()
@example(b"P2 1 1 255\n" + b"7" * 400 + b"\n")  # too many digits for a float64
@example(b"P2 2 1 100\n1 200\n")  # a value above maxval
@example(b"P2 2 1 255\n0255 1234\n")  # four digits: a leading zero, then a value above maxval
@example(b"P2 3 1 255\n" + b"7" * 400 + b" x 1\n")  # the first failing token wins
@example(b"P2 3 1 9\n12 x 1\n")  # the maxval check comes last
@example(b"P2 2 2 255\n12#c\n34#\r5\x0b\x0c0006 x\xff")  # comments end tokens; trailing garbage
def test_p2_decoder_matches_reference(data):
    assert outcome(read_pgm, data) == outcome(reference_read_pgm, data)
