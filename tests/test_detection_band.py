"""The local-background test on the half plane, and what it reads.

``spectral._exceeds_background`` computes only the columns 0 .. W//2 and
copies every other column from its point mirror. That is exact because
every Spectrum is exactly Hermitian, so its magnitude plane is
point-symmetric, the self-mirror columns (0, and W/2 for even W) included.
These tests compare the half plane against the full-plane reference median
on half planes drawn freely and then completed as Hermitian, at widths of
both parities from 16, below the annulus side, to 256, and heights of both
parities. They also pin the candidate contract, the limit's one-float32-step
margin and the flat-layout tier-1 bound.
"""

import numpy as np
import pytest

from demoire import RepairParams, Spectrum, dft2d
from demoire import spectral

from test_detection_exact import assert_same_detection, brute_force_count, reference_background, reference_exceeds
from test_transform import full_plane, hermitian, random_image

# Narrow and wide widths of both parities; most heights exceed the annulus
# side, so that the annulus never covers a whole column.
BAND_SHAPES = [
    (64, 16), (65, 41), (64, 42), (65, 43), (64, 44), (65, 45), (64, 46),
    (65, 64), (64, 65), (65, 256), (16, 256), (17, 46),
]
THRESHOLDS = (1.05, 1.2, 1.5, 2.0, 10.0)


def hermitian_half_plane(h, w, kind, seed=0):
    """A Spectrum whose half plane is drawn freely and then completed as Hermitian.

    ``white``: complex normal bins. ``lattice``: magnitudes in [0.5, 2] with a
    near-zero bin every third row and column, so tier 1 keeps most bins.
    ``skewed``: white, with the self-mirror columns scaled up 30x in both
    halves alike, so that a bin whose annulus reaches them counts quite
    differently from one whose annulus misses them.
    """
    rng = np.random.default_rng([h, w, seed])
    shape = (h, w // 2 + 1)
    if kind == "lattice":
        half = rng.uniform(0.5, 2.0, shape) * np.exp(2j * np.pi * rng.random(shape))
        half[::3, ::3] = 1e-3
    else:
        half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "skewed":
        half[:, [0, w // 2] if w % 2 == 0 else [0]] *= 30.0
    return Spectrum(hermitian(half, w), w)


def mirrored(plane):
    """plane[-u, -v] at every (u, v)."""
    h, w = plane.shape
    return plane[np.ix_(-np.arange(h) % h, -np.arange(w) % w)]


@pytest.mark.parametrize("kind", ["white", "lattice", "skewed"])
def test_fixture_is_point_symmetric(kind):
    mag = hermitian_half_plane(17, 44, kind).magnitude
    assert np.array_equal(mag, mirrored(mag))
    if kind == "skewed":
        assert mag[:, [0, 22]].mean() > 10 * mag[:, 1:22].mean()


@pytest.mark.parametrize("shape", BAND_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("kind", ["white", "lattice", "skewed"])
def test_band_matches_full_plane_reference(shape, kind):
    mag = hermitian_half_plane(*shape, kind).magnitude
    background = reference_background(mag).astype(np.float64)
    everywhere = np.ones(shape, dtype=bool)
    for threshold in THRESHOLDS:
        got = spectral._exceeds_background(mag, everywhere, threshold)
        assert np.array_equal(got, mag > threshold * background), threshold


@pytest.mark.parametrize("shape", [(16, 16), (17, 45), (16, 46), (17, 65), (16, 256)])
def test_asymmetric_candidates_are_exact(shape):
    # The half plane is computed for the candidates and their mirrors; the
    # result is then masked by the candidates themselves.
    mag = hermitian_half_plane(*shape, "white", seed=1).magnitude
    rng = np.random.default_rng(shape)
    for share in (0.1, 0.5, 0.9):
        candidates = rng.random(shape) < share
        assert not np.array_equal(candidates, mirrored(candidates))
        for threshold in (1.05, 2.0):
            got = spectral._exceeds_background(mag, candidates, threshold)
            assert np.array_equal(got, reference_exceeds(mag, candidates, threshold))


@pytest.mark.parametrize("shape", [(16, 43), (17, 64), (16, 65)])
def test_detection_on_completed_half_plane(shape, monkeypatch):
    spec = hermitian_half_plane(*shape, "white", seed=2)
    for threshold in (1.05, 2.0):
        params = RepairParams(detect_threshold=threshold, guard_dc_radius=2)
        assert len(assert_same_detection(spec, params, monkeypatch)) > 0


@pytest.mark.parametrize("seed", range(3))
def test_limit_margin_in_float32_subnormals(seed):
    # Magnitudes of a few float32 subnormal steps (1.4e-45 each): rounding
    # mag / threshold to float32 can lose up to half a step, far more than
    # the limit's relative slack, so only its one step up keeps the count
    # from missing annulus values below the exact limit.
    h = w = 24
    rng = np.random.default_rng(seed)
    shape = (h, w // 2 + 1)
    half = rng.integers(1, 8, shape) * 1e-45 * np.exp(2j * np.pi * rng.random(shape))
    mag = Spectrum(hermitian(half, w), w).magnitude
    everywhere = np.ones(mag.shape, dtype=bool)
    want = reference_exceeds(mag, everywhere, 1.05)
    assert want.any()
    assert np.array_equal(spectral._exceeds_background(mag, everywhere, 1.05), want)


def count_bound_2d(padded, limit):
    """The tier-1 bound as it was before the flat layout: each tile compare is
    a 2-D slice of the tile minima against the limit."""
    h, w = limit.shape
    n = spectral.ANNULUS_SIZE // spectral._TILE
    weights = spectral._annulus_footprint().reshape(n, spectral._TILE, n, spectral._TILE).sum(axis=(1, 3))
    least = spectral._window_min(padded, spectral._TILE)
    hit = np.empty((h, w), dtype=bool)
    bound = np.zeros((h, w), dtype=np.int16)
    for weight in np.unique(weights[weights > 0]):
        tiles = np.zeros((h, w), dtype=np.uint8)
        for a, b in np.argwhere(weights == weight) * spectral._TILE:
            np.less(least[a : a + h, b : b + w], limit, out=hit)
            np.add(tiles, hit.view(np.uint8), out=tiles)
        bound += tiles.astype(np.int16) * int(weight)
    return bound


@pytest.mark.parametrize("shape,seed", [((16, 16), 0), ((23, 37), 1), ((17, 149), 2), ((48, 41), 3)])
def test_flat_count_bound_equals_2d_layout(shape, seed):
    rng = np.random.default_rng(seed)
    # Few levels make plateaus; limits drawn from the plane tie with its values.
    plane = rng.integers(0, 4, size=shape).astype(np.float32)
    smooth = rng.random(shape) < 0.5
    plane[smooth] = rng.rayleigh(2.0, size=np.count_nonzero(smooth)).astype(np.float32)
    limit = rng.choice(plane.ravel(), size=shape)
    limit[rng.random(shape) < 0.2] = 0.0
    limit[rng.random(shape) < 0.05] = np.inf
    padded = np.pad(plane, spectral.ANNULUS_SIZE // 2, mode="wrap")
    bound = spectral._count_bound(padded, limit)
    assert bound.shape == shape
    assert np.array_equal(bound, count_bound_2d(padded, limit))
    assert np.all(bound >= brute_force_count(padded, limit))


@pytest.mark.parametrize("shape", [(16, 16), (17, 45), (64, 65), (63, 64)])
def test_magnitude_plane_is_read_only_and_exact(shape):
    for spec in (dft2d(random_image(*shape)), hermitian_half_plane(*shape, "white")):
        mag = spec.magnitude
        assert mag is spec.magnitude  # built once
        assert not mag.flags.writeable
        with pytest.raises(ValueError):
            mag[0, 0] = 1.0
        assert np.array_equal(mag, np.abs(full_plane(spec)))

