import math

import numpy as np
import pytest

from demoire import (
    GrayImage,
    MoireComponent,
    MoireSpec,
    Peak,
    PeakSet,
    RepairParams,
    Spectrum,
    center_shift,
    default_noise_corpus,
    detect_peaks,
    dft2d,
    idft2d,
    log_magnitude,
    mse,
    notch_reject,
    spectral_median,
    spectral_mse,
    synthesize_moire,
)
from demoire.core import _owned_image
from demoire.synth import default_bench_images, make_filtered_field
from demoire.transform import _dirichlet, _owned_spectrum, moire_spectrum

# Shapes whose axes have no mirror pairs (1), one self-mirror bin (odd) or
# two (even), and a prime axis.
GUARD_SHAPES = [(1, 1), (1, 7), (7, 1), (6, 9), (9, 6), (257, 16)]


def dft2d_oracle(pixels):
    """Direct O(N^4) transform with exactly-rounded accumulation."""
    h, w = pixels.shape
    out = np.empty((h, w), dtype=np.complex128)
    for u in range(h):
        for v in range(w):
            real_terms = []
            imag_terms = []
            for x in range(h):
                for y in range(w):
                    angle = -2.0 * math.pi * (u * x / h + v * y / w)
                    real_terms.append(pixels[x, y] * math.cos(angle))
                    imag_terms.append(pixels[x, y] * math.sin(angle))
            out[u, v] = complex(math.fsum(real_terms), math.fsum(imag_terms))
    return out


def mirror(arr):
    h, w = arr.shape
    return arr[(-np.arange(h)) % h][:, (-np.arange(w)) % w]


def full_plane(spec):
    """The full H x W plane in dft2d order: the stored half plane, then each
    column v > W//2 as the conjugate of column W - v with its rows mirrored."""
    h, w = spec.shape
    full = np.empty((h, w), dtype=complex)
    full[:, : w // 2 + 1] = spec.data
    for v in range(w // 2 + 1, w):
        full[:, v] = np.conj(spec.data[(-np.arange(h)) % h, w - v])
    return full


def hermitian(half, w):
    """A copy of the half plane ``half`` of width ``w`` with its self-mirror
    columns (0, and w/2 for even w) completed as Hermitian: each row u below
    its mirror -u mod H gets the conjugate of the mirror's bin, and each bin
    that is its own mirror keeps its real part."""
    h = half.shape[0]
    out = np.array(half, dtype=complex)
    u = np.arange(h)
    lower, point = u > -u % h, u == -u % h
    for v in {0, w // 2} if w % 2 == 0 else {0}:
        out[lower, v] = np.conj(out[-u[lower] % h, v])
        out[point, v] = out[point, v].real
    return out


def centered_spectrum(data):
    """The Spectrum whose full plane, with DC moved to (H//2, W//2), is ``data``.

    ``data`` must be the conjugate-mirror expansion of its own half plane.
    """
    h, w = data.shape
    full = np.fft.ifftshift(data)
    spec = Spectrum(full[:, : w // 2 + 1], w)
    assert np.array_equal(full_plane(spec), full), "data is not the expansion of a half plane"
    return spec


# The full-plane complex transforms, adapted to the half-plane Spectrum, kept
# as the reference for the pipeline's bytes: the forward transform is the left
# half of fft2, the inverse runs ifft2 on the conjugate-mirror expansion.
_IMAG_REL_TOL = 1e-6
_IMAG_ABS_FLOOR = 1e-9


def fft2_dft2d(img):
    return Spectrum(np.fft.fft2(img.pixels)[:, : img.width // 2 + 1], img.width)


def ifft2_idft2d(spec):
    inv = np.fft.ifft2(full_plane(spec))
    max_imag = float(np.max(np.abs(inv.imag)))
    max_real = float(np.max(np.abs(inv.real)))
    if max_imag > _IMAG_REL_TOL * max_real and max_imag > _IMAG_ABS_FLOOR:
        raise ValueError(
            f"inverse transform has imaginary residue {max_imag:.3e} against "
            f"max real {max_real:.3e}: spectrum lost Hermitian symmetry"
        )
    return GrayImage(inv.real)


def random_image(h, w, seed=0):
    return GrayImage(np.random.default_rng([h, w, seed]).random((h, w)) * 255 + 1.0)


def pure_sinusoid(h, w, amplitude=100.0):
    """A cosine on bin (h//3, w//3) (the constant image on a 1x1 grid)."""
    x, y = np.indices((h, w))
    return GrayImage(amplitude * np.cos(2.0 * np.pi * ((h // 3) * x / h + (w // 3) * y / w)))


class TestDft2d:
    def test_single_bin(self):
        spec = dft2d(GrayImage(np.array([[42.0]])))
        assert spec.data[0, 0] == 42.0 + 0.0j
        assert spec.data.shape == (1, 1) and spec.shape == (1, 1)

    @pytest.mark.parametrize("h,w", [(1, 1), (1, 2), (5, 8), (5, 9), (256, 320)])
    def test_stores_half_plane(self, h, w):
        spec = dft2d(random_image(h, w))
        assert spec.data.shape == (h, w // 2 + 1)
        assert spec.shape == (h, w) and spec.width == w and spec.height == h

    @pytest.mark.parametrize("h,w", [(8, 8), (6, 10)])
    def test_constant_image(self, h, w):
        spec = dft2d(GrayImage(np.full((h, w), 7.0)))
        assert spec.data[0, 0] == pytest.approx(7.0 * h * w, abs=1e-9)
        rest = full_plane(spec)
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) <= 1e-9

    def test_cosine_impulse_pair(self):
        x = np.arange(8)[:, None]
        img = GrayImage(np.broadcast_to(np.cos(2.0 * np.pi * 2.0 * x / 8.0), (8, 8)).copy())
        spec = dft2d(img)
        oracle = dft2d_oracle(img.pixels)
        assert np.max(np.abs(full_plane(spec) - oracle)) <= 1e-9
        assert spec.data[2, 0] == pytest.approx(32.0 + 0.0j, abs=1e-9)
        assert spec.data[6, 0] == pytest.approx(32.0 + 0.0j, abs=1e-9)
        rest = full_plane(spec)
        rest[2, 0] = rest[6, 0] = 0.0
        assert np.max(np.abs(rest)) <= 1e-9

    @pytest.mark.parametrize(
        "h,w", [(2, 3), (5, 5), (7, 4), (11, 13), (12, 12), (1, 1), (1, 8), (1, 9), (8, 1), (9, 1), (6, 9), (9, 6)]
    )
    def test_matches_direct_sum_oracle(self, h, w):
        rng = np.random.default_rng(h * 100 + w)
        img = GrayImage(rng.random((h, w)) * 255)
        spec = dft2d(img)
        assert np.max(np.abs(full_plane(spec) - dft2d_oracle(img.pixels))) <= 1e-9

    @pytest.mark.parametrize(
        "h,w", [(1, 1), (1, 2), (2, 1), (1, 8), (1, 9), (8, 1), (9, 1), (2, 2), (6, 9), (9, 6), (16, 16), (257, 16)]
    )
    def test_exactly_hermitian(self, h, w):
        s = full_plane(dft2d(random_image(h, w)))
        assert np.array_equal(s, np.conj(mirror(s)))

    def test_exactly_hermitian_at_pipeline_shapes(self):
        for h, w in [(256, 256), (240, 256), (256, 320), (257, 256)]:
            s = full_plane(dft2d(make_filtered_field(h, w, sigma=0.7, seed=h + w)))
            assert np.array_equal(s, np.conj(mirror(s)))

    def test_left_half_is_rfft2(self):
        # Only the lower rows of the self-mirror columns, which rfft2 rounds
        # asymmetrically, are replaced by their mirrors.
        img = random_image(9, 6)
        s, r = dft2d(img).data, np.fft.rfft2(img.pixels)
        assert np.array_equal(s[:5, :4], r[:5])
        assert np.array_equal(s[:, 1:3], r[:, 1:3])


class TestIdft2d:
    def test_round_trip(self):
        rng = np.random.default_rng(21)
        img = GrayImage(rng.random((64, 64)) * 255)
        back = idft2d(dft2d(img))
        assert np.max(np.abs(back.pixels - img.pixels)) <= 1e-9

    def test_dc_only_gives_constant(self):
        h, w = 6, 9
        data = np.zeros((h, w // 2 + 1), dtype=complex)
        data[0, 0] = h * w * 3.5
        out = idft2d(Spectrum(data, w))
        assert np.allclose(out.pixels, 3.5, atol=1e-12)

    def test_conjugate_pair_gives_cosine(self):
        data = np.zeros((8, 5), dtype=complex)
        data[2, 0] = 32.0
        data[6, 0] = 32.0
        out = idft2d(Spectrum(data, 8))
        x = np.arange(8)[:, None]
        want = np.broadcast_to(np.cos(2.0 * np.pi * 2.0 * x / 8.0), (8, 8))
        assert np.max(np.abs(out.pixels - want)) <= 1e-9

    def test_detects_broken_symmetry(self):
        rng = np.random.default_rng(8)
        spec = dft2d(GrayImage(rng.random((16, 16)) * 255))
        data = spec.data.copy()
        data[3, 8] += 1e5j  # asymmetric edit in the self-mirror column v = W/2
        with pytest.raises(ValueError, match="Hermitian"):
            idft2d(Spectrum(data, 16))

    def test_all_zero_spectrum_ok(self):
        out = idft2d(Spectrum(np.zeros((4, 3), dtype=complex), 4))
        assert np.array_equal(out.pixels, np.zeros((4, 4)))

    @pytest.mark.parametrize("method", [notch_reject, spectral_median])
    @pytest.mark.parametrize("h,w", [(64, 64), (33, 40), (40, 33), (37, 29)])
    def test_matches_full_plane_inverse_on_repaired_spectra(self, h, w, method):
        clean = make_filtered_field(h, w, sigma=1.2, seed=h * w)
        noisy = synthesize_moire(clean, MoireSpec((MoireComponent(25.0, 5.3 / h, 3.7 / w, 0.4),)))
        params = RepairParams(guard_dc_radius=2)
        spec = dft2d(noisy)
        peaks = detect_peaks(spec, params)
        assert len(peaks) > 0
        repaired = method(spec, peaks, params)
        want = np.fft.ifft2(full_plane(repaired)).real
        assert np.max(np.abs(idft2d(repaired).pixels - want)) <= 1e-9


# Edits of a half plane that break the symmetry of its self-mirror columns.
def edit_column_0_lower_row(data):
    h, _ = data.shape
    data[h - h // 3, 0] += 1e-4 * np.abs(data).max()


def edit_column_0_imag(data):
    h, _ = data.shape
    data[h // 3, 0] += 1e-4j * np.abs(data).max()


def edit_column_half(data):
    # The last column of the half plane of an even width W is v = W/2.
    h, _ = data.shape
    data[h // 3, -1] += 1e-4 * np.abs(data).max()


def edit_dc_imag(data):
    data[0, 0] += 1e-4j * np.abs(data).max()


class TestHermitianGuard:
    """irfft2 takes the Hermitian part of the self-mirror columns, so idft2d must test them."""

    @pytest.mark.parametrize(
        "edit, shapes",
        [
            (edit_column_0_lower_row, [(7, 1), (6, 9), (9, 6), (257, 16)]),  # H >= 3: there is a lower row
            (edit_column_0_imag, [(7, 1), (6, 9), (9, 6), (257, 16)]),  # H >= 2: not the DC
            (edit_column_half, [(9, 6), (257, 16)]),  # even W
            (edit_dc_imag, GUARD_SHAPES),
        ],
    )
    def test_rejects_edit(self, edit, shapes):
        for h, w in shapes:
            data = dft2d(random_image(h, w)).data.copy()
            edit(data)
            with pytest.raises(ValueError, match="Hermitian"):
                idft2d(Spectrum(data, w))

    @pytest.mark.parametrize("h,w", GUARD_SHAPES)
    def test_accepts_all_zero_spectrum(self, h, w):
        out = idft2d(Spectrum(np.zeros((h, w // 2 + 1), dtype=complex), w))
        assert np.array_equal(out.pixels, np.zeros((h, w)))

    @pytest.mark.parametrize("forward", [dft2d, fft2_dft2d], ids=["dft2d", "fft2"])
    @pytest.mark.parametrize("h,w", GUARD_SHAPES)
    def test_accepts_fully_notched_pure_sinusoid(self, h, w, forward):
        # With the full-plane fft2, what is left after the notch is rounding
        # noise that is Hermitian only to rounding: the absolute floor holds.
        data = forward(pure_sinusoid(h, w)).data.copy()
        for u, v in ((h // 3, w // 3), (-(h // 3) % h, -(w // 3) % w)):
            if v <= w // 2:  # the half plane holds the bin
                data[u, v] = 0.0
        out = idft2d(Spectrum(data, w))
        assert np.max(np.abs(out.pixels)) <= 1e-9

    @pytest.mark.parametrize("scale", [1.0, 1e8])
    @pytest.mark.parametrize("h,w", GUARD_SHAPES)
    def test_accepts_rounding_asymmetry(self, h, w, scale):
        # fft2 output is Hermitian only to rounding, which grows with the
        # values: the relative test admits it at large values.
        img = GrayImage(random_image(h, w).pixels * scale)
        back = idft2d(fft2_dft2d(img))
        assert np.max(np.abs(back.pixels - img.pixels)) <= 1e-9 * scale


def fft2_half(h, w, seed=0):
    """The left half of fft2, Hermitian in its self-mirror columns only to rounding."""
    return np.fft.fft2(random_image(h, w, seed).pixels)[:, : w // 2 + 1]


class TestHermitianContract:
    """Every construction checks the self-mirror columns, then makes them exactly Hermitian."""

    CONSTRUCTORS = pytest.mark.parametrize("constructor", [Spectrum, _owned_spectrum], ids=["public", "owned"])
    SHAPES = [(1, 1), (2, 2), (7, 1), (6, 9), (9, 6), (16, 16), (17, 46), (257, 16)]

    @CONSTRUCTORS
    @pytest.mark.parametrize("edit", [edit_column_0_lower_row, edit_column_0_imag, edit_column_half, edit_dc_imag])
    def test_rejects_broken_symmetry(self, constructor, edit):
        data = fft2_half(9, 6)
        edit(data)
        message = (
            r"^spectrum bins differ from the conjugates of their mirrors by up to \S+ "
            r"against max magnitude \S+: spectrum lost Hermitian symmetry$"
        )
        with pytest.raises(ValueError, match=message):
            constructor(data, 6)

    @CONSTRUCTORS
    @pytest.mark.parametrize("h,w", SHAPES)
    def test_completes_within_tolerance(self, constructor, h, w):
        # The upper rows are kept, the lower rows of the self-mirror columns
        # become their mirrors' conjugates and the self-mirror bins real.
        half = fft2_half(h, w)
        spec = constructor(half.copy(), w)
        assert np.array_equal(spec.data, hermitian(half, w))
        full = full_plane(spec)
        assert np.array_equal(full, np.conj(mirror(full)))

    def test_fft2_is_not_exactly_hermitian(self):
        # So that the completion above does real work.
        assert any(not np.array_equal(fft2_half(h, w), hermitian(fft2_half(h, w), w)) for h, w in self.SHAPES)

    def test_public_constructor_leaves_input_untouched(self):
        half = fft2_half(16, 16)
        before = half.copy()
        spec = Spectrum(half, 16)
        assert np.array_equal(half, before) and half.flags.writeable
        assert not np.array_equal(spec.data, half)

    @CONSTRUCTORS
    @pytest.mark.parametrize("at", [(3, 0), (2, 0), (2, 2), (0, 0)], ids=["lower-row", "point", "point-W/2", "dc"])
    def test_nan_in_self_mirror_column_is_not_finite(self, constructor, at):
        # The completion would overwrite a lower row and the imaginary part of
        # a self-mirror bin, so the finiteness check must come first.
        data = fft2_half(4, 4)
        data[at] = complex(1.0, np.nan)
        with pytest.raises(ValueError, match="finite"):
            constructor(data, 4)

    @pytest.mark.parametrize("h,w", SHAPES)
    def test_magnitude_is_point_symmetric(self, h, w):
        mag = Spectrum(fft2_half(h, w, seed=1), w).magnitude
        assert np.array_equal(mag, mirror(mag))


class TestSpectrumOwnership:
    def test_public_constructor_copies(self):
        data = np.ones((3, 4), dtype=complex)
        spec = Spectrum(data, 6)
        data[0, 0] = 5.0
        assert spec.data[0, 0] == 1.0
        assert not spec.data.flags.writeable

    def test_owned_spectrum_keeps_array_and_freezes_it(self):
        data = np.ones((3, 4), dtype=complex)
        spec = _owned_spectrum(data, 7)
        assert spec.data is data and spec.shape == (3, 7)
        assert not data.flags.writeable

    @pytest.mark.parametrize(
        "data, problem",
        [
            (np.ones(4, dtype=complex), "2D"),
            (np.ones((0, 4), dtype=complex), "at least 1x1"),
            (np.array([[1.0, np.inf]], dtype=complex), "finite"),
            (np.array([[1.0, complex(0.0, np.nan)]]), "finite"),
            (np.full(4, np.nan, dtype=complex), "2D"),  # the shape is checked before the values
        ],
    )
    def test_owned_spectrum_validates(self, data, problem):
        w = 2 * (data.shape[-1] - 1)  # a width that fits the columns
        with pytest.raises(ValueError, match=problem):
            _owned_spectrum(data, w)
        with pytest.raises(ValueError, match=problem):
            Spectrum(data, w)

    @pytest.mark.parametrize("constructor", [Spectrum, _owned_spectrum], ids=["public", "owned"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_part_rejected(self, constructor, order, part, value):
        # The check reads the float64 view of the complex plane, and a
        # Fortran-ordered plane is copied into that view first.
        data = np.asarray(fft2_half(6, 7), order=order)
        getattr(data, part)[4, 2] = value
        with pytest.raises(ValueError, match="^spectrum values must all be finite$"):
            constructor(data, 7)

    @pytest.mark.parametrize("constructor", [Spectrum, _owned_spectrum], ids=["public", "owned"])
    def test_rejects_half_plane_of_other_width(self, constructor):
        # 4 columns are the half plane of widths 6 and 7 only.
        for w in (6, 7):
            assert constructor(np.ones((3, 4), dtype=complex), w).shape == (3, w)
        for w in (-1, 0, 4, 5, 8, 9):
            with pytest.raises(ValueError, match=f"width {w} holds {w // 2 + 1} columns, got 4$"):
                constructor(np.ones((3, 4), dtype=complex), w)

    def test_outputs_read_only(self):
        img = make_filtered_field(64, 64, sigma=1.2, seed=3)
        noisy = synthesize_moire(img, MoireSpec((MoireComponent(30.0, 20 / 64, 12 / 64, 0.0),)))
        params = RepairParams()
        spec = dft2d(noisy)
        peaks = detect_peaks(spec, params)
        assert len(peaks) == 2
        outputs = (spec, notch_reject(spec, peaks, params), spectral_median(spec, peaks, params))
        assert not any(out.data.flags.writeable for out in outputs)
        assert not idft2d(spec).pixels.flags.writeable


class TestImageOwnership:
    def test_public_constructor_copies(self):
        pixels = np.ones((3, 4))
        img = GrayImage(pixels)
        pixels[0, 0] = 5.0
        assert img.pixels[0, 0] == 1.0
        assert not img.pixels.flags.writeable

    def test_owned_image_keeps_array_and_freezes_it(self):
        pixels = np.ones((3, 4))
        img = _owned_image(pixels)
        assert img.pixels is pixels and img.shape == (3, 4)
        assert not pixels.flags.writeable

    @pytest.mark.parametrize(
        "pixels, problem",
        [
            (np.ones(4), "2D"),
            (np.ones((0, 4)), "at least 1x1"),
            (np.array([[1.0, np.inf]]), "finite"),
            (np.array([[np.nan, 1.0]]), "finite"),
        ],
    )
    def test_owned_image_validates(self, pixels, problem):
        with pytest.raises(ValueError, match=problem):
            _owned_image(pixels)
        with pytest.raises(ValueError, match=problem):
            GrayImage(pixels)

    def test_inverse_hands_over_its_output(self, monkeypatch):
        # idft2d wraps the fresh irfft2 output without a second copy.
        made = []
        irfft2 = np.fft.irfft2
        monkeypatch.setattr(np.fft, "irfft2", lambda *a, **k: made.append(irfft2(*a, **k)) or made[-1])
        out = idft2d(dft2d(random_image(6, 9)))
        assert out.pixels is made[0]
        assert not out.pixels.flags.writeable


class TestCenterShift:
    def test_dc_lands_at_center(self):
        data = np.zeros((4, 3), dtype=complex)
        data[0, 0] = 1.0
        shifted = center_shift(Spectrum(data, 4))
        assert shifted.shape == (4, 4)
        assert shifted[2, 2] == 1.0
        assert np.count_nonzero(shifted) == 1

    def test_odd_dims_roll_back(self):
        rng = np.random.default_rng(32)
        spec = Spectrum(hermitian(rng.random((5, 3)) + 1j * rng.random((5, 3)), 5), 5)
        mag = np.abs(full_plane(spec))
        shifted = center_shift(spec)
        # Index-permutation oracle: position (i, j) moves to ((i+2)%5, (j+2)%5).
        for i in range(5):
            for j in range(5):
                assert shifted[(i + 2) % 5, (j + 2) % 5] == mag[i, j]
        # Rolling back takes the complementary offset on odd axes.
        assert np.array_equal(np.fft.ifftshift(shifted), mag)

    @pytest.mark.parametrize("h,w", [(6, 8), (7, 5), (16, 9), (257, 256)])
    def test_matches_shifted_fft2_magnitude(self, h, w):
        img = random_image(h, w)
        want = np.abs(np.fft.fftshift(np.fft.fft2(img.pixels)))
        assert np.max(np.abs(center_shift(dft2d(img)) - want)) <= 1e-12 * want.max()


class TestLogMagnitude:
    def test_zero_spectrum(self):
        out = log_magnitude(Spectrum(np.zeros((4, 3), dtype=complex), 5))
        assert np.array_equal(out.pixels, np.zeros((4, 5)))

    def test_single_nonzero_bin(self):
        # Bin (1, 1) of the half plane and its mirror (3, 4), both centered.
        data = np.zeros((4, 3), dtype=complex)
        data[1, 1] = 50.0
        out = log_magnitude(Spectrum(data, 5))
        assert out.pixels[3, 3] == out.pixels[1, 1] == 255.0
        assert np.count_nonzero(out.pixels) == 2

    def test_moire_spectrum_shows_bright_pair(self):
        from demoire import MoireComponent, MoireSpec, synthesize_moire

        base = GrayImage(np.full((64, 64), 128.0))
        noisy = synthesize_moire(
            base, MoireSpec((MoireComponent(20.0, 12 / 64, 0.0, 0.0),))
        )
        view = log_magnitude(dft2d(noisy)).pixels
        flat = view.copy()
        flat[32, 32] = 0.0  # ignore DC
        top = np.argsort(flat.ravel())[-2:]
        coords = {tuple(divmod(int(i), 64)) for i in top}
        assert coords == {(20, 32), (44, 32)}


class TestProperties:
    def test_parseval(self):
        rng = np.random.default_rng(41)
        for h, w in [(16, 16), (31, 17), (64, 64), (128, 128)]:
            img = GrayImage(rng.random((h, w)) * 255)
            spec = dft2d(img)
            lhs = np.sum(img.pixels**2)
            rhs = np.sum(np.abs(full_plane(spec)) ** 2) / (h * w)
            assert abs(lhs - rhs) <= 1e-9 * lhs

    def test_linearity(self):
        rng = np.random.default_rng(42)
        f = rng.random((24, 24)) * 255
        g = rng.random((24, 24)) * 255
        alpha, beta = 0.7, -2.4
        lhs = dft2d(GrayImage(alpha * f + beta * g)).data
        rhs = alpha * dft2d(GrayImage(f)).data + beta * dft2d(GrayImage(g)).data
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(rhs))

    def test_hermitian_symmetry_random_sizes(self):
        rng = np.random.default_rng(43)
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        for case in range(200):
            if case % 3 == 0:
                h, w = rng.choice(primes), rng.choice(primes)
            else:
                h, w = rng.integers(1, 33, 2)
            img = GrayImage(rng.random((int(h), int(w))) * 255)
            s = full_plane(dft2d(img))
            err = np.max(np.abs(s - np.conj(mirror(s))))
            assert err <= 1e-9 * max(np.max(np.abs(s)), 1.0)

    def test_round_trip_many_sizes(self):
        rng = np.random.default_rng(44)
        for h, w in [(1, 1), (1, 7), (5, 3), (13, 13), (32, 24)]:
            img = GrayImage(rng.random((h, w)) * 255)
            back = idft2d(dft2d(img))
            assert np.max(np.abs(back.pixels - img.pixels)) <= 1e-9

    def test_inputs_not_mutated(self):
        rng = np.random.default_rng(45)
        arr = rng.random((8, 8)) * 255
        img = GrayImage(arr)
        spec = dft2d(img)
        center_shift(spec)
        log_magnitude(spec)
        idft2d(spec)
        assert np.array_equal(img.pixels, arr)

    def test_transform_bit_deterministic(self):
        rng = np.random.default_rng(46)
        img = GrayImage(rng.random((48, 36)) * 255)
        assert np.array_equal(dft2d(img).data, dft2d(img).data)
        spec = dft2d(img)
        assert np.array_equal(idft2d(spec).pixels, idft2d(spec).pixels)


# Both parities of H and W, so the half plane has one self-mirror column
# (odd W) or two (even W), down to a single bin.
SCORE_SHAPES = [(1, 1), (1, 2), (2, 1), (16, 16), (33, 29), (64, 63), (256, 256), (257, 256), (256, 320)]


def score_pair(h, w):
    """A random image and a noisy copy of it, both of shape h x w."""
    rng = np.random.default_rng(h * 1000 + w)
    clean = rng.uniform(0.0, 255.0, (h, w))
    return GrayImage(clean), GrayImage(clean + rng.normal(0.0, 20.0, (h, w)))


def self_mirror_peaks(h, w):
    """Peak pairs in column v = 0, in column v = W/2 (or the last half-plane
    column for odd W) and off both, as centered labels."""
    offsets = [(h // 4, 0), (h // 3, -(w // 2)), (h // 5, w // 6)]
    bins = {((h // 2 + s * du) % h, (w // 2 + s * dv) % w) for du, dv in offsets for s in (1, -1)}
    return PeakSet(tuple(Peak(u, v, 1.0) for u, v in sorted(bins)))


class TestSpectralMse:
    @pytest.mark.parametrize("h, w", SCORE_SHAPES)
    def test_matches_image_mse(self, h, w):
        clean, noisy = score_pair(h, w)
        assert spectral_mse(dft2d(clean), dft2d(noisy)) == pytest.approx(mse(clean, noisy), rel=1e-12)

    # Below 16 bins a side every donor of the median repair lies in a repair disk.
    @pytest.mark.parametrize(
        "h, w, repair",
        [(h, w, notch_reject) for h, w in SCORE_SHAPES]
        + [(h, w, spectral_median) for h, w in SCORE_SHAPES if min(h, w) >= 16],
    )
    def test_matches_image_mse_of_repair(self, h, w, repair):
        clean, noisy = score_pair(h, w)
        repaired = repair(dft2d(noisy), self_mirror_peaks(h, w), RepairParams(repair_radius=2, window=7))
        assert repaired.data.tobytes() != dft2d(noisy).data.tobytes()
        want = mse(clean, idft2d(repaired))
        assert spectral_mse(dft2d(clean), repaired) == pytest.approx(want, rel=1e-12)

    def test_equal_spectra_score_zero(self):
        spec = dft2d(score_pair(9, 8)[1])
        assert spectral_mse(spec, spec) == 0.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            spectral_mse(dft2d(score_pair(8, 8)[0]), dft2d(score_pair(8, 9)[0]))


# Shapes of the closed-form moire tests: a detection minimum, the off-grid
# workload shapes (257 is prime) and single rows and columns.
MOIRE_SHAPES = [(16, 16), (240, 256), (257, 256), (256, 320), (1, 9), (12, 1)]


def moire_cases(h, w):
    """Named MoireSpecs for an h x w image: bins (ku, kv) on the grid, and off it by a fraction."""
    ku, kv = h // 5, w // 7
    on_u, on_v, off_u, off_v = ku / h, kv / w, (ku + 0.37) / h, (kv + 0.29) / w
    return {
        "on-grid": [(20.0, on_u, on_v, 0.4), (8.0, on_u, 0.0, 1.3)],
        "off-grid": [(25.0, off_u, off_v, 0.3), (15.0, (h // 9 + 0.41) / h, -(w // 4 + 0.43) / w, 1.9)],
        "one-axis-on-grid": [(12.0, on_u, off_v, 2.2), (9.0, off_u, on_v, -0.8)],
        "near-grid": [(30.0, ku / h + 1e-9, np.nextafter(kv / w, 1.0), 0.6)],
        "negative": [(18.0, -off_u, -on_v, 0.9), (11.0, -on_u, off_v, 2.9)],
        "nyquist": [(10.0, 0.5, off_v, 0.3), (7.0, -0.5, -0.5, 1.2), (5.0, off_u, 0.5, 0.0)],
        "zero-frequency": [(12.0, 0.0, 0.0, 0.0), (9.0, 0.0, 0.0, math.pi / 2)],
        "zero-amplitude": [(0.0, off_u, off_v, 0.7)],
        "empty": [],
    }


def offgrid_specs(h, w, count, seed):
    """Seeded MoireSpecs of two sinusoids each at least 0.2 bin off the grid on both axes."""
    rng = np.random.default_rng([h, w, seed])
    specs = []
    for _ in range(count):
        comps = []
        for _ in range(2):
            bu = rng.integers(h // 10, 2 * h // 5) + rng.uniform(0.2, 0.8)
            bv = rng.integers(w // 10, 2 * w // 5) + rng.uniform(0.2, 0.8)
            sign = rng.choice([-1.0, 1.0])
            comps.append(MoireComponent(rng.uniform(10.0, 40.0), bu / h, sign * bv / w, rng.uniform(0.0, 2 * math.pi)))
        specs.append(MoireSpec(tuple(comps)))
    return specs


def assert_same_peaks(got, want):
    """Same peak bins in the same order; magnitudes equal to rounding."""
    assert [p[:2] for p in got] == [p[:2] for p in want]
    assert all(abs(g.magnitude - m.magnitude) <= 1e-12 * m.magnitude for g, m in zip(got, want))


class TestMoireSpectrum:
    @pytest.mark.parametrize("h, w", MOIRE_SHAPES)
    @pytest.mark.parametrize("case", list(moire_cases(16, 16)))
    def test_matches_transform_of_synthesis(self, h, w, case):
        img = random_image(h, w)
        spec = MoireSpec(tuple(MoireComponent(*c) for c in moire_cases(h, w)[case]))
        base = dft2d(img)
        before = base.data.copy()
        got = moire_spectrum(base, spec.components)
        want = dft2d(synthesize_moire(img, spec)).data
        assert np.abs(got.data - want).max() <= 1e-12 * np.abs(want).max()
        # Built as every Spectrum is: exactly Hermitian, read-only; base untouched.
        assert np.array_equal(got.data, hermitian(got.data, w)) and not got.data.flags.writeable
        assert np.array_equal(base.data, before)
        if case == "empty":
            assert got is not base and np.array_equal(got.data, base.data)

    def test_on_grid_axis_is_one_exact_impulse(self):
        assert [(k, d.tolist()) for k, d in _dirichlet(3 / 16, 16)] == [(3, [16.0]), (13, [16.0])]
        assert [(k, d.tolist()) for k, d in _dirichlet(-0.5, 16)] == [(8, [16.0]), (8, [16.0])]
        assert [(k, d.tolist()) for k, d in _dirichlet(0.0, 1)] == [(0, [1.0]), (0, [1.0])]

    @pytest.mark.parametrize("f, n", [(np.nextafter(3 / 16, 1.0), 16), (3 / 16 + 1e-9, 16), (0.5, 9), (-0.2371, 257)])
    def test_off_grid_axis_is_the_whole_fft(self, f, n):
        (k, pos), (k_neg, neg) = _dirichlet(f, n)
        x = np.arange(n)
        assert (k, k_neg, pos.size, neg.size) == (0, 0, n, n)
        assert np.allclose(pos, np.fft.fft(np.exp(2j * np.pi * f * x)), rtol=0, atol=1e-12 * n)
        assert np.allclose(neg, np.fft.fft(np.exp(-2j * np.pi * f * x)), rtol=0, atol=1e-12 * n)

    def test_on_grid_component_changes_only_its_bins(self):
        img = random_image(16, 16)
        base = dft2d(img)
        # Bin (3, 2) lies in the half plane and its mirror (13, 14) does not;
        # bin (5, 0) and its mirror (11, 0) both lie in column 0.
        for comp, bins in [((20.0, 3 / 16, 2 / 16, 0.4), {(3, 2)}), ((9.0, 5 / 16, 0.0, 1.1), {(5, 0), (11, 0)})]:
            got = moire_spectrum(base, [comp])
            changed = set(zip(*np.nonzero(got.data != base.data)))
            assert changed == bins

    def test_bench_corpus_peaks_match_image_path(self):
        for _, clean in default_bench_images(256):
            base = dft2d(clean)
            for _, mspec in default_noise_corpus(256, 256):
                got = detect_peaks(moire_spectrum(base, mspec.components), RepairParams())
                want = detect_peaks(dft2d(synthesize_moire(clean, mspec)), RepairParams())
                assert len(want) > 0
                assert_same_peaks(got, want)

    @pytest.mark.parametrize("h, w", [(240, 256), (256, 320), (257, 256)])
    def test_offgrid_peaks_match_image_path(self, h, w):
        clean = make_filtered_field(h, w, sigma=0.7, seed=h + w)
        base = dft2d(clean)
        for mspec in offgrid_specs(h, w, count=6, seed=11):
            got = detect_peaks(moire_spectrum(base, mspec.components), RepairParams())
            want = detect_peaks(dft2d(synthesize_moire(clean, mspec)), RepairParams())
            assert len(want) >= 4
            assert_same_peaks(got, want)
