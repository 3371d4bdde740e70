"""Low-rank plus sparse reconstruction of dynamic volumes from undersampled k-space."""

from .core import (
    Decomposition,
    DynamicVolume,
    SolverConfig,
    soft_threshold,
    soft_threshold_matrix,
)
from .io import (
    BadMagicError,
    HeaderError,
    PayloadError,
    VolumeFileError,
    load_volume,
    save_volume,
)
from .operators import (
    KSpaceData,
    SamplingMask,
    acquire,
    acquire_adjoint,
    make_mask,
    sv_threshold,
)
from .harness import (
    ExperimentSpec,
    SweepRow,
    parse_config,
    run_sweep,
)
from .phantom import PhantomSpec, generate_frames, psnr
from .solvers import (
    FrameSolveError,
    SolveResult,
    default_config,
    solve,
    solve_sequence,
)
from .wavelets import WAVELET_LEVELS, wavelet_forward, wavelet_inverse

__version__ = "0.1.0"

__all__ = [
    "Decomposition",
    "DynamicVolume",
    "SolverConfig",
    "soft_threshold",
    "soft_threshold_matrix",
    "BadMagicError",
    "HeaderError",
    "PayloadError",
    "VolumeFileError",
    "load_volume",
    "save_volume",
    "KSpaceData",
    "SamplingMask",
    "acquire",
    "acquire_adjoint",
    "make_mask",
    "sv_threshold",
    "ExperimentSpec",
    "SweepRow",
    "parse_config",
    "run_sweep",
    "PhantomSpec",
    "generate_frames",
    "psnr",
    "FrameSolveError",
    "SolveResult",
    "default_config",
    "solve",
    "solve_sequence",
    "WAVELET_LEVELS",
    "wavelet_forward",
    "wavelet_inverse",
]
