"""demoire: moire noise removal for grayscale images.

Detects the conjugate impulse pairs a sinusoidal interference pattern leaves
in the Fourier spectrum and repairs them with a spectral median filter, with
an ideal notch baseline and six classical spatial denoisers for comparison.
"""

from .core import GrayImage, PgmError, QualityReport, mse, psnr, read_pgm, write_pgm
from .noise import (
    MoireComponent,
    MoireSpec,
    add_gaussian,
    add_salt_pepper,
    default_noise_corpus,
    format_moire_csv,
    parse_moire_csv,
    synthesize_moire,
)
from .spatial import (
    BilateralParams,
    DiffusionParams,
    MedianParams,
    ModeParams,
    NlmParams,
    TvParams,
    anisotropic_diffusion,
    bilateral_filter,
    edge_conductance,
    gauss_weight,
    median_filter,
    mode_filter,
    nlm_denoise,
    total_variation,
    tv_denoise,
    tv_energy,
)
from .spectral import (
    Peak,
    PeakSet,
    RepairParams,
    denoise_moire,
    detect_peaks,
    format_peaks_csv,
    notch_reject,
    spectral_median,
)
from .transform import Spectrum, center_shift, dft2d, idft2d, log_magnitude, moire_spectrum, spectral_mse

__version__ = "0.1.0"

__all__ = [
    "BilateralParams",
    "DiffusionParams",
    "GrayImage",
    "MedianParams",
    "ModeParams",
    "MoireComponent",
    "MoireSpec",
    "NlmParams",
    "Peak",
    "PeakSet",
    "PgmError",
    "QualityReport",
    "RepairParams",
    "Spectrum",
    "TvParams",
    "add_gaussian",
    "add_salt_pepper",
    "anisotropic_diffusion",
    "bilateral_filter",
    "center_shift",
    "default_noise_corpus",
    "denoise_moire",
    "detect_peaks",
    "dft2d",
    "edge_conductance",
    "format_moire_csv",
    "format_peaks_csv",
    "gauss_weight",
    "idft2d",
    "log_magnitude",
    "median_filter",
    "mode_filter",
    "moire_spectrum",
    "mse",
    "nlm_denoise",
    "notch_reject",
    "parse_moire_csv",
    "psnr",
    "read_pgm",
    "spectral_median",
    "spectral_mse",
    "synthesize_moire",
    "total_variation",
    "tv_denoise",
    "tv_energy",
    "write_pgm",
]
