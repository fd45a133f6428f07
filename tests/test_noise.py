import math

import numpy as np
import pytest

from demoire import (
    GrayImage,
    MoireComponent,
    MoireSpec,
    add_gaussian,
    add_salt_pepper,
    center_shift,
    default_noise_corpus,
    dft2d,
    format_moire_csv,
    parse_moire_csv,
    synthesize_moire,
)
from demoire.spectral import RepairParams


def per_pixel_moire(img, spec):
    """Reference synthesis: np.sin of the full phase at every pixel, one component at a time."""
    out = img.pixels.copy()
    x = np.arange(img.height, dtype=np.float64)[:, np.newaxis]
    y = np.arange(img.width, dtype=np.float64)[np.newaxis, :]
    for c in spec.components:
        out = out + c.amplitude * np.sin(2.0 * math.pi * (c.freq_u * x + c.freq_v * y) + c.phase)
    return GrayImage(out)


EQUIVALENCE_SPECS = {
    "negative": MoireSpec((MoireComponent(25.0, -0.1234, 0.3141, 0.3), MoireComponent(15.0, 0.0712, -0.4321, 1.9))),
    "nyquist": MoireSpec((MoireComponent(10.0, 0.5, -0.5, 0.7), MoireComponent(5.0, -0.5, 0.25, 0.0))),
    "large-phase": MoireSpec((MoireComponent(30.0, 0.2071, 0.1113, 977.3), MoireComponent(8.0, -0.31, 0.05, -512.25))),
    "three": MoireSpec(
        (
            MoireComponent(40.0, 5 / 256, 11 / 256, math.pi / 3),
            MoireComponent(20.0, 0.4137, -0.0273, 2.5),
            MoireComponent(1.5, -0.25, 0.5, 4.0),
        )
    ),
}


class TestSynthesizeMoire:
    def test_empty_spec_is_identity(self):
        rng = np.random.default_rng(1)
        img = GrayImage(rng.random((8, 8)) * 255)
        out = synthesize_moire(img, MoireSpec())
        assert np.array_equal(out.pixels, img.pixels)

    def test_single_component_on_zero_image(self):
        img = GrayImage(np.zeros((64, 64)))
        spec = MoireSpec((MoireComponent(20.0, 2 / 64, 0.0, 0.0),))
        out = synthesize_moire(img, spec)
        assert out.pixels.max() == pytest.approx(20.0, abs=1e-9)
        assert out.pixels.min() == pytest.approx(-20.0, abs=1e-9)
        assert abs(out.pixels.mean()) <= 1e-9

    def test_impulse_pair_magnitude(self):
        img = GrayImage(np.full((64, 64), 128.0))
        spec = MoireSpec((MoireComponent(20.0, 2 / 64, 0.0, 0.0),))
        mag = center_shift(dft2d(synthesize_moire(img, spec)))
        want = 20.0 * 64 * 64 / 2.0
        assert mag[34, 32] == pytest.approx(want, rel=1e-6)
        assert mag[30, 32] == pytest.approx(want, rel=1e-6)
        # Everything else is DC plus numerical dust.
        mag[34, 32] = mag[30, 32] = mag[32, 32] = 0.0
        assert mag.max() <= 1e-6 * want

    def test_additivity_is_exact(self):
        rng = np.random.default_rng(2)
        img = GrayImage(rng.random((32, 32)) * 255)
        a = MoireSpec((MoireComponent(5.0, 3 / 32, 1 / 32, 0.1),))
        b = MoireSpec(
            (
                MoireComponent(7.0, 5 / 32, 0.0, 1.3),
                MoireComponent(2.0, 0.0, 9 / 32, 2.0),
            )
        )
        both = MoireSpec(a.components + b.components)
        two_step = synthesize_moire(synthesize_moire(img, a), b)
        one_step = synthesize_moire(img, both)
        assert np.array_equal(two_step.pixels, one_step.pixels)

    def test_integer_period_preserves_mean(self):
        rng = np.random.default_rng(3)
        img = GrayImage(rng.random((48, 48)) * 255)
        spec = MoireSpec((MoireComponent(30.0, 6 / 48, 9 / 48, 0.7),))
        out = synthesize_moire(img, spec)
        assert abs(out.pixels.mean() - img.pixels.mean()) <= 1e-9

    def test_rejects_frequency_above_nyquist(self):
        with pytest.raises(ValueError, match="Nyquist"):
            MoireSpec((MoireComponent(1.0, 0.6, 0.0, 0.0),))

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError, match="amplitude"):
            MoireSpec((MoireComponent(-1.0, 0.1, 0.0, 0.0),))

    @pytest.mark.parametrize("field", MoireComponent._fields)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_field(self, field, value):
        comp = MoireComponent(1.0, 0.1, 0.1, 0.0)._replace(**{field: value})
        with pytest.raises(ValueError, match=f"^moire {field} must be finite"):
            MoireSpec((comp,))

    @pytest.mark.parametrize("spec", EQUIVALENCE_SPECS.values(), ids=EQUIVALENCE_SPECS.keys())
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (64, 64), (240, 320), (257, 256), (1024, 1024)])
    def test_matches_per_pixel_formula(self, shape, spec):
        img = GrayImage(np.random.default_rng(shape[0] * 31 + shape[1]).random(shape) * 255)
        got = synthesize_moire(img, spec).pixels
        assert np.abs(got - per_pixel_moire(img, spec).pixels).max() <= 1e-9

    def test_input_untouched(self):
        img = GrayImage(np.zeros((16, 16)))
        synthesize_moire(img, MoireSpec((MoireComponent(9.0, 0.25, 0.0, 0.0),)))
        assert np.array_equal(img.pixels, np.zeros((16, 16)))


class TestAddGaussian:
    def test_deterministic_per_seed(self):
        img = GrayImage(np.zeros((32, 32)))
        a = add_gaussian(img, 5.0, seed=7)
        b = add_gaussian(img, 5.0, seed=7)
        assert np.array_equal(a.pixels, b.pixels)

    def test_different_seeds_differ(self):
        img = GrayImage(np.zeros((32, 32)))
        a = add_gaussian(img, 5.0, seed=7)
        b = add_gaussian(img, 5.0, seed=8)
        assert not np.array_equal(a.pixels, b.pixels)

    def test_sample_statistics(self):
        img = GrayImage(np.zeros((256, 256)))
        out = add_gaussian(img, 10.0, seed=123)
        assert 9.5 <= out.pixels.std() <= 10.5
        assert abs(out.pixels.mean()) <= 5 * 10.0 / 256.0

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            add_gaussian(GrayImage(np.zeros((4, 4))), 0.0, seed=1)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match=rf"^gaussian sigma must be finite, got {sigma}$"):
            add_gaussian(GrayImage(np.zeros((4, 4))), sigma, seed=1)


class TestAddSaltPepper:
    def test_corrupted_fraction(self):
        img = GrayImage(np.full((256, 256), 128.0))
        out = add_salt_pepper(img, 0.1, seed=5)
        frac = np.mean(out.pixels != 128.0)
        assert 0.08 <= frac <= 0.12

    def test_corrupted_values_are_extremes(self):
        img = GrayImage(np.full((128, 128), 60.0))
        out = add_salt_pepper(img, 0.2, seed=6)
        changed = out.pixels[out.pixels != 60.0]
        assert set(np.unique(changed)) <= {0.0, 255.0}

    def test_deterministic_per_seed(self):
        img = GrayImage(np.full((64, 64), 128.0))
        a = add_salt_pepper(img, 0.15, seed=9)
        b = add_salt_pepper(img, 0.15, seed=9)
        assert np.array_equal(a.pixels, b.pixels)

    @pytest.mark.parametrize("density", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_bad_density(self, density):
        with pytest.raises(ValueError, match="density"):
            add_salt_pepper(GrayImage(np.zeros((4, 4))), density, seed=1)


class TestPurity:
    def test_random_generators_leave_input_untouched(self):
        arr = np.full((16, 16), 50.0)
        img = GrayImage(arr)
        add_gaussian(img, 3.0, seed=1)
        add_salt_pepper(img, 0.2, seed=1)
        assert np.array_equal(img.pixels, arr)


class TestCsv:
    def test_round_trip(self):
        spec = MoireSpec(
            (
                MoireComponent(10.0, 0.125, 0.09375, 0.0),
                MoireComponent(40.0, 0.01953125, 0.04296875, math.pi / 3),
            )
        )
        again = parse_moire_csv(format_moire_csv(spec))
        assert again == spec

    def test_parse_tolerates_header_and_comments(self):
        text = "amplitude,freq_u,freq_v,phase\n# comment\n\n5.0,0.1,0.2,0.3\n"
        spec = parse_moire_csv(text)
        assert spec.components == (MoireComponent(5.0, 0.1, 0.2, 0.3),)

    def test_parse_rejects_wrong_field_count(self):
        with pytest.raises(ValueError, match="expected"):
            parse_moire_csv("1.0,0.1,0.2\n")

    def test_parse_rejects_non_numeric(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_moire_csv("a,b,c,d\nx,0.1,0.2,0.3\n")


class TestDefaultCorpus:
    def test_six_specs_scaled_to_size(self):
        corpus = default_noise_corpus(128, 256)
        assert len(corpus) == 6
        names = [name for name, _ in corpus]
        assert len(set(names)) == 6
        for _, spec in corpus:
            assert len(spec.components) == 1
        amps = sorted({spec.components[0].amplitude for _, spec in corpus})
        assert amps == [10.0, 20.0, 40.0]
        first = corpus[0][1].components[0]
        assert first.freq_u == pytest.approx(8 / 128)
        assert first.freq_v == pytest.approx(6 / 256)

    def test_phases(self):
        corpus = default_noise_corpus(64, 64)
        phases = sorted({spec.components[0].phase for _, spec in corpus})
        assert phases == pytest.approx([0.0, math.pi / 3])

    @pytest.mark.parametrize("shape", [(256, 256), (512, 512), (1024, 1024), (2048, 2048), (256, 1024)])
    def test_patterns_outside_dc_guard_and_below_nyquist(self, shape):
        h, w = shape
        guard = RepairParams().resolved_guard(h, w)
        for name, spec in default_noise_corpus(h, w):
            (c,) = spec.components
            u, v = c.freq_u * h, c.freq_v * w  # bins from DC
            assert u * u + v * v > guard * guard, name
            assert max(abs(c.freq_u), abs(c.freq_v)) < 0.5, name

    @pytest.mark.parametrize("shape", [(23, 22), (24, 21)])
    def test_below_minimum_size_names_size_and_minimum(self, shape):
        # Bins 12 (rows) and 11 (columns) reach Nyquist at 24 rows and 22 columns.
        with pytest.raises(ValueError, match=rf"at least 24 rows and 22 columns, got {shape[0]}x{shape[1]}$"):
            default_noise_corpus(*shape)

    def test_minimum_size_builds_the_corpus(self):
        assert [name for name, _ in default_noise_corpus(24, 22)] == [
            name for name, _ in default_noise_corpus(256, 256)
        ]

    def test_bins_scale_with_shorter_side(self):
        # Up to 383 pixels the base bins are kept, so 256x256 keeps its bytes;
        # from 384 they scale by round(min(H, W) / 256).
        assert [name for name, _ in default_noise_corpus(256, 256)] == [
            "a10-u08-v06-p00", "a10-u08-v06-p60", "a20-u12-v00-p00",
            "a20-u12-v00-p60", "a40-u05-v11-p00", "a40-u05-v11-p60",
        ]
        for (h, w), scale in (((383, 1024), 1), ((384, 384), 2), ((1024, 1024), 4), ((2048, 640), 2)):
            (name, spec), *_ = default_noise_corpus(h, w)
            assert name == f"a10-u{8 * scale:02d}-v{6 * scale:02d}-p00"
            assert spec.components[0][1:3] == (8 * scale / h, 6 * scale / w)
