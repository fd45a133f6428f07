import math

import numpy as np
import pytest

from demoire import GrayImage, PgmError, QualityReport, mse, psnr, read_pgm, write_pgm


def scalar_mse(a, b):
    # Independent double-loop oracle.
    total = 0.0
    for i in range(a.height):
        for j in range(a.width):
            d = a.pixels[i, j] - b.pixels[i, j]
            total += d * d
    return total / (a.width * a.height)


class TestGrayImage:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2D"):
            GrayImage(np.zeros(5))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="1x1"):
            GrayImage(np.zeros((0, 4)))

    def test_rejects_nan(self):
        arr = np.zeros((2, 2))
        arr[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            GrayImage(arr)

    def test_pixels_are_read_only(self):
        img = GrayImage(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0

    def test_source_array_not_aliased(self):
        arr = np.zeros((2, 2))
        img = GrayImage(arr)
        arr[0, 0] = 99.0
        assert img.pixels[0, 0] == 0.0


class TestMetrics:
    def test_mse_identical_is_zero(self):
        x = GrayImage(np.arange(64.0).reshape(8, 8))
        assert mse(x, x) == 0.0

    def test_mse_constant_difference(self):
        a = GrayImage(np.zeros((8, 8)))
        b = GrayImage(np.full((8, 8), 255.0))
        assert mse(a, b) == 65025.0

    def test_mse_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        a = GrayImage(rng.random((16, 16)) * 255)
        b = GrayImage(rng.random((16, 16)) * 255)
        got = mse(a, b)
        want = scalar_mse(a, b)
        assert abs(got - want) <= 1e-12 * want

    def test_mse_symmetric(self):
        rng = np.random.default_rng(4)
        a = GrayImage(rng.random((9, 7)) * 255)
        b = GrayImage(rng.random((9, 7)) * 255)
        assert mse(a, b) == mse(b, a)

    def test_mse_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            mse(GrayImage(np.zeros((2, 2))), GrayImage(np.zeros((2, 3))))

    def test_psnr_identical_is_sentinel(self):
        x = GrayImage(np.full((4, 4), 7.0))
        report = psnr(x, x)
        assert report.psnr_db is None
        assert report.mse == 0.0
        assert report.psnr_label() == "inf"

    def test_psnr_peak_difference_is_zero_db(self):
        a = GrayImage(np.zeros((4, 4)))
        b = GrayImage(np.full((4, 4), 255.0))
        assert psnr(a, b).psnr_db == 0.0

    def test_psnr_uniform_difference_one(self):
        a = GrayImage(np.full((6, 5), 100.0))
        b = GrayImage(np.full((6, 5), 101.0))
        report = psnr(a, b)
        assert report.psnr_db == pytest.approx(20.0 * math.log10(255.0), abs=1e-12)
        assert report.psnr_db == pytest.approx(48.1308, abs=1e-4)
        assert report.psnr_label() == "48.13"

    def test_report_from_mse_is_psnr_of_images(self):
        rng = np.random.default_rng(8)
        a, b = GrayImage(rng.uniform(0.0, 255.0, (5, 7))), GrayImage(rng.uniform(0.0, 255.0, (5, 7)))
        assert QualityReport.from_mse(mse(a, b)) == psnr(a, b)
        assert QualityReport.from_mse(0.0) == QualityReport(mse=0.0, psnr_db=None)
        assert QualityReport.from_mse(1e-26).psnr_label() == "308.13"

    def test_psnr_decreases_as_mse_increases(self):
        base = GrayImage(np.zeros((8, 8)))
        values = []
        for delta in (1.0, 2.0, 5.0, 20.0, 80.0):
            values.append(psnr(base, GrayImage(np.full((8, 8), delta))).psnr_db)
        assert all(x > y for x, y in zip(values, values[1:]))


def p5_bytes(width, height, payload, maxval=255, header_junk=""):
    head = f"P5{header_junk}\n{width} {height}\n{maxval}\n".encode()
    return head + bytes(payload)


class TestReadPgm:
    def test_p5_basic(self):
        img = read_pgm(p5_bytes(2, 2, [0, 128, 255, 64]))
        assert img.shape == (2, 2)
        assert img.pixels.tolist() == [[0.0, 128.0], [255.0, 64.0]]

    def test_p2_matches_p5(self):
        p2 = b"P2\n2 2\n255\n0 128\n255 64\n"
        a = read_pgm(p2)
        b = read_pgm(p5_bytes(2, 2, [0, 128, 255, 64]))
        assert np.array_equal(a.pixels, b.pixels)

    def test_header_comments(self):
        data = b"P2 # magic\n# a comment line\n2 1 # dims\n255\n12 34\n"
        img = read_pgm(data)
        assert img.pixels.tolist() == [[12.0, 34.0]]

    def test_bad_magic(self):
        with pytest.raises(PgmError, match="magic"):
            read_pgm(b"P6\n1 1\n255\n\x00")

    def test_maxval_too_large(self):
        with pytest.raises(PgmError, match="maxval"):
            read_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_truncated_p5(self):
        with pytest.raises(PgmError, match="truncated"):
            read_pgm(p5_bytes(4, 4, [0] * 7))

    def test_truncated_p2(self):
        with pytest.raises(PgmError, match="truncated"):
            read_pgm(b"P2\n3 3\n255\n1 2 3 4\n")

    def test_p2_huge_header_rejected_before_allocation(self):
        with pytest.raises(PgmError, match="truncated"):
            read_pgm(b"P2\n1000000 1000000\n255\n0 1 2\n")

    def test_p2_payload_without_trailing_newline(self):
        assert read_pgm(b"P2 2 1 255 7 8").pixels.tolist() == [[7.0, 8.0]]

    def test_nonpositive_dimensions(self):
        with pytest.raises(PgmError, match="nonpositive"):
            read_pgm(b"P2\n0 3\n255\n")

    def test_value_above_maxval(self):
        with pytest.raises(PgmError, match="exceeds"):
            read_pgm(b"P2\n1 1\n100\n101\n")

    def test_small_maxval_values_pass_through(self):
        img = read_pgm(b"P2\n2 1\n100\n0 100\n")
        assert img.pixels.tolist() == [[0.0, 100.0]]


class TestWritePgm:
    def test_clamp_above(self):
        data = write_pgm(GrayImage(np.array([[300.0]])))
        assert data.endswith(b"\xff")

    def test_clamp_below(self):
        data = write_pgm(GrayImage(np.array([[-3.0]])))
        assert data.endswith(b"\x00")

    def test_round_half_away_from_zero(self):
        data = write_pgm(GrayImage(np.array([[127.5]])))
        assert data.endswith(bytes([128]))

    def test_canonical_binary_header(self):
        data = write_pgm(GrayImage(np.zeros((3, 5))))
        assert data.startswith(b"P5\n5 3\n255\n")

    def test_ascii_format(self):
        data = write_pgm(GrayImage(np.array([[1.0, 2.0], [3.0, 4.0]])), fmt="ascii")
        assert data == b"P2\n2 2\n255\n1 2\n3 4\n"

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            write_pgm(GrayImage(np.zeros((1, 1))), fmt="png")


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["binary", "ascii"])
    def test_read_write_idempotent(self, fmt):
        rng = np.random.default_rng(11)
        for _ in range(10):
            h, w = rng.integers(1, 12, 2)
            values = rng.integers(0, 256, (h, w))
            once = write_pgm(GrayImage(values.astype(float)), fmt=fmt)
            twice = write_pgm(read_pgm(once), fmt=fmt)
            assert once == twice

    def test_messy_input_normalizes_to_canonical(self):
        # Same pixels via an eccentric but valid encoding.
        messy = b"P2\n# comment\n  3\n2\n# another\n255\n0   1\n\t2 3\n4 5 "
        canonical = write_pgm(GrayImage(np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])), fmt="ascii")
        assert write_pgm(read_pgm(messy), fmt="ascii") == canonical

    def test_binary_roundtrip_preserves_all_values(self):
        values = np.arange(256.0).reshape(16, 16)
        data = write_pgm(GrayImage(values))
        assert np.array_equal(read_pgm(data).pixels, values)

    def test_random_messy_encodings_normalize_to_canonical(self):
        rng = np.random.default_rng(29)
        seps = [" ", "\n", "\t", "  ", " \n", "\n# noise\n"]
        for _ in range(20):
            h, w = rng.integers(1, 9, 2)
            values = rng.integers(0, 256, (h, w))
            sep = lambda: seps[rng.integers(0, len(seps))]
            body = sep().join(str(v) for v in values.ravel())
            messy = f"P2{sep()}{w}{sep()}{h}{sep()}255{sep()}{body}".encode()
            canonical = write_pgm(GrayImage(values.astype(float)), fmt="ascii")
            assert write_pgm(read_pgm(messy), fmt="ascii") == canonical
