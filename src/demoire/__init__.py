"""demoire: moire noise removal for grayscale images.

Detects the conjugate impulse pairs a sinusoidal interference pattern leaves
in the Fourier spectrum and repairs them with a spectral median filter, with
an ideal notch baseline and six classical spatial denoisers for comparison.
"""

from . import core, noise, spatial, spectral, transform
from .core import *  # noqa: F403
from .noise import *  # noqa: F403
from .spatial import *  # noqa: F403
from .spectral import *  # noqa: F403
from .transform import *  # noqa: F403

__version__ = "0.1.0"

# A name is made public by its module's __all__; the package re-exports exactly those.
__all__ = [*core.__all__, *noise.__all__, *spatial.__all__, *spectral.__all__, *transform.__all__]
