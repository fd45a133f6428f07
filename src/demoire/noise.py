"""Ground-truth contamination: moire sinusoids, Gaussian and salt-and-pepper noise."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import GrayImage, _owned_image, _require_finite

__all__ = [
    "MoireComponent",
    "MoireSpec",
    "add_gaussian",
    "add_salt_pepper",
    "default_noise_corpus",
    "format_moire_csv",
    "parse_moire_csv",
    "synthesize_moire",
]


class MoireComponent(NamedTuple):
    amplitude: float
    freq_u: float  # cycles/pixel along rows (vertical axis)
    freq_v: float  # cycles/pixel along columns (horizontal axis)
    phase: float  # radians


@dataclass(frozen=True)
class MoireSpec:
    """A sum-of-sinusoids interference pattern; may be empty (identity)."""

    components: tuple[MoireComponent, ...] = ()

    def __post_init__(self):
        comps = tuple(MoireComponent(*c) for c in self.components)
        for c in comps:
            _require_finite("moire", **c._asdict())
            if c.amplitude < 0:
                raise ValueError(f"moire amplitude must be nonnegative, got {c.amplitude}")
            if abs(c.freq_u) > 0.5 or abs(c.freq_v) > 0.5:
                raise ValueError(
                    f"moire frequency ({c.freq_u}, {c.freq_v}) exceeds Nyquist (0.5 cycles/pixel)"
                )
        object.__setattr__(self, "components", comps)


def synthesize_moire(img: GrayImage, spec: MoireSpec) -> GrayImage:
    """Add each sinusoid A*sin(2*pi*(fu*x + fv*y) + phase) to the image.

    The output is not clamped; downstream code sees the full-precision field.
    By angle addition, sin(a + b) = sin a cos b + cos a sin b with a = 2*pi*fu*x
    per row and b = 2*pi*fv*y + phase per column: a component costs H + W sines
    and cosines, and its rank-2 outer product is added to the image in place.
    """
    out = img.pixels.copy()
    term = np.empty_like(out)
    x = np.arange(img.height, dtype=np.float64)
    y = np.arange(img.width, dtype=np.float64)
    for c in spec.components:
        a = 2.0 * math.pi * (c.freq_u * x)
        b = 2.0 * math.pi * (c.freq_v * y) + c.phase
        rows = c.amplitude * np.stack([np.sin(a), np.cos(a)])
        np.einsum("ki,kj->ij", rows, np.stack([np.cos(b), np.sin(b)]), out=term)
        out += term
    return _owned_image(out)


def add_gaussian(img: GrayImage, sigma: float, seed: int) -> GrayImage:
    """Add i.i.d. zero-mean Gaussian noise; deterministic for a fixed seed."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    _require_finite("gaussian", sigma=sigma)
    rng = np.random.default_rng(seed)
    return GrayImage(img.pixels + rng.normal(0.0, sigma, img.shape))


def add_salt_pepper(img: GrayImage, density: float, seed: int) -> GrayImage:
    """Replace each pixel by 0 or 255 (equal odds) with probability ``density``."""
    if not 0.0 < density < 1.0:
        raise ValueError(f"density must lie strictly in (0, 1), got {density}")
    rng = np.random.default_rng(seed)
    corrupt = rng.random(img.shape) < density
    salt = rng.random(img.shape) < 0.5
    out = np.where(corrupt, np.where(salt, 255.0, 0.0), img.pixels)
    return GrayImage(out)


def parse_moire_csv(text: str) -> MoireSpec:
    """Parse "amplitude,freq_u,freq_v,phase" lines into a MoireSpec.

    Blank lines, '#' comments, and a leading header line are tolerated.
    """
    comps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().replace(" ", "").startswith("amplitude,"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(
                f"noise spec line {lineno}: expected 'amplitude,freq_u,freq_v,phase', got {line!r}"
            )
        try:
            numbers = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"noise spec line {lineno}: non-numeric field in {line!r}") from None
        comps.append(MoireComponent(*numbers))
    return MoireSpec(tuple(comps))


def format_moire_csv(spec: MoireSpec) -> str:
    lines = ["amplitude,freq_u,freq_v,phase"]
    for c in spec.components:
        lines.append(f"{c.amplitude:.17g},{c.freq_u:.17g},{c.freq_v:.17g},{c.phase:.17g}")
    return "\n".join(lines) + "\n"


def default_noise_corpus(height: int, width: int) -> list[tuple[str, MoireSpec]]:
    """The six documented benchmark contaminations, scaled to the image size.

    Three (amplitude, frequency) pairings spanning weak/strong and
    axis-aligned/oblique interference, each at phases 0 and pi/3. Bins are given
    for a 256-pixel side and scale with the shorter side, outside the DC guard.
    The image needs at least 24 rows and 22 columns, so that each bin stays
    within Nyquist; a smaller one raises ValueError.
    """
    bases = [
        (10.0, 8, 6),
        (20.0, 12, 0),
        (40.0, 5, 11),
    ]
    min_h, min_w = (2 * max(b[axis] for b in bases) for axis in (1, 2))
    if height < min_h or width < min_w:
        raise ValueError(f"the benchmark corpus needs at least {min_h} rows and {min_w} columns, got {height}x{width}")
    scale = max(1, round(min(height, width) / 256))
    corpus = []
    for amp, bu, bv in bases:
        bu, bv = bu * scale, bv * scale  # bins from DC
        for tag, phase in (("p00", 0.0), ("p60", math.pi / 3.0)):
            name = f"a{int(amp):02d}-u{bu:02d}-v{bv:02d}-{tag}"
            comp = MoireComponent(amp, bu / height, bv / width, phase)
            corpus.append((name, MoireSpec((comp,))))
    return corpus
