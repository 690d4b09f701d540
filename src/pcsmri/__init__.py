"""Parallel compressed-sensing MRI reconstruction on Cartesian grids.

Multi-coil forward model y_l = U F S_l x + n_l, half-quadratic-splitting
reconstruction with pluggable priors, sampling protocols, sensitivity
estimation, synthetic phantom cases, quality metrics, and a CLI tying
everything into reproducible on-disk experiments.
"""

from .container import load_array, load_image, save_array, save_image
from .errors import (
    ConfigError,
    ContainerError,
    DivergenceError,
    EstimationError,
    PcsmriError,
    PriorExecutionError,
    ProtocolError,
    ShapeError,
)
from .masks import (
    PRESETS,
    SamplingMask,
    acs_band,
    load_mask,
    make_equispaced_mask,
    make_preset_mask,
    make_random_mask,
    save_mask,
)
from .metrics import evaluate, nmse, psnr, rmse, ssim
from .operators import SensitivitySet, adjoint, forward, rss_combine, zero_filled
from .phantoms import make_coil_profiles, make_phantom, simulate_case
from .priors import (
    ExternalPrior,
    HaarPrior,
    Prior,
    SoftThresholdPrior,
    TikhonovPrior,
    TotalVariationPrior,
    make_prior,
    tv_denoise,
)
from .sensitivity import estimate_maps
from .solver import (
    SolverConfig,
    SolverState,
    dc_update,
    objective,
    solve,
    x_update,
)
from .transforms import fft2c, ifft2c

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContainerError",
    "DivergenceError",
    "EstimationError",
    "ExternalPrior",
    "HaarPrior",
    "PRESETS",
    "PcsmriError",
    "Prior",
    "PriorExecutionError",
    "ProtocolError",
    "SamplingMask",
    "SensitivitySet",
    "ShapeError",
    "SoftThresholdPrior",
    "SolverConfig",
    "SolverState",
    "TikhonovPrior",
    "TotalVariationPrior",
    "acs_band",
    "adjoint",
    "dc_update",
    "estimate_maps",
    "evaluate",
    "fft2c",
    "forward",
    "ifft2c",
    "load_array",
    "load_image",
    "load_mask",
    "make_coil_profiles",
    "make_equispaced_mask",
    "make_phantom",
    "make_preset_mask",
    "make_prior",
    "make_random_mask",
    "nmse",
    "objective",
    "psnr",
    "rmse",
    "rss_combine",
    "save_array",
    "save_image",
    "save_mask",
    "simulate_case",
    "solve",
    "ssim",
    "tv_denoise",
    "x_update",
    "zero_filled",
]
