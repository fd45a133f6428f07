"""Property tests for PGM I/O: encoding round-trips, and hostile bytes fail
only with ``PgmError``.

The examples are derandomized, so every run checks the same inputs.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from demoire import GrayImage, PgmError, read_pgm, write_pgm

FORMATS = st.sampled_from(["binary", "ascii"])
SHAPES = st.tuples(st.integers(1, 12), st.integers(1, 12))
fixed = settings(derandomize=True, database=None, deadline=None, max_examples=200)


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


@st.composite
def headed_payloads(draw):
    """A well-formed header, then a payload that may be anything."""
    magic = draw(st.sampled_from([b"P2", b"P5"]))
    fields = [magic, *(str(draw(v)).encode() for v in (SIZE, SIZE, MAXVAL))]
    header = b"".join(f + draw(SEPARATOR) for f in fields)
    text = st.text(alphabet="0123456789 \n\t#x-", max_size=400).map(str.encode)
    payload = draw(st.one_of(st.binary(max_size=400), text))
    return header + payload


@fixed
@given(headed_payloads())
@example(b"P2 1 1 255\n" + b"7" * 5000 + b"\n")
@example(b"P2 1 1 255\n" + b"7" * 400 + b"\n")
def test_valid_headers_with_arbitrary_payloads_raise_only_pgm_error(data):
    img = decode_or_pgm_error(data)
    if img is not None:
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 255.0
