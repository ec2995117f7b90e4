"""Ground states of Kirchhoff-Choquard equations on the integer lattice.

The package computes discrete Riesz-type Green's functions of the lattice
fractional Laplacian, assembles the Kirchhoff-Choquard energy on finite
boxes, finds ground states by Nehari-manifold reduction, and ships an
executable property suite that stress-tests the variational structure
(mountain-pass geometry, convolution inequalities, fiber monotonicity,
level identities, symmetry).
"""

from .lattice import (
    DIRICHLET,
    PERIODIC,
    Field,
    LatticeBox,
    gradient_inner,
    h_inner,
    laplacian,
    load_field_text,
    lp_norm,
    save_field_text,
    translate,
)
from .kernel import (
    GreenKernel,
    QuadratureError,
    build_kernel,
    cache_key,
    convolve,
    fit_decay_exponent,
    fractional_degree,
    fractional_degree_refined,
    green_values,
)
from .energy import (
    COERCIVE,
    CONSTANT,
    PERIODIC_POTENTIAL,
    FiberCoefficients,
    PotentialSpec,
    PowerNonlinearity,
    ProblemSpec,
    energy,
    evaluate,
)
from .nehari import (
    SolveReport,
    gaussian_bump_field,
    nehari_scale,
    random_start_field,
    solve_ground_state,
    sphere_inverse,
)
from .config import FILE_START, GAUSSIAN_BUMP, RANDOM_START, ConfigError, RunConfig

__version__ = "0.1.0"

# the property suite is imported on first use of one of its names (PEP 562),
# so that a solve does not load it
_VERIFY_NAMES = frozenset({
    "PropertyReport",
    "check_box_convergence",
    "check_fiber_monotonicity",
    "check_hls",
    "check_kernel_integrity",
    "check_level_identity",
    "check_mountain_pass_geometry",
    "check_symmetry_and_translation",
    "run_suite",
    "suite_csv",
    "suite_passed",
    "suite_summary",
})


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _VERIFY_NAMES)

# the solve path's names, then the property suite's
__all__ = [
    "DIRICHLET",
    "PERIODIC",
    "GAUSSIAN_BUMP",
    "RANDOM_START",
    "FILE_START",
    "CONSTANT",
    "COERCIVE",
    "PERIODIC_POTENTIAL",
    "ConfigError",
    "Field",
    "LatticeBox",
    "GreenKernel",
    "QuadratureError",
    "PotentialSpec",
    "PowerNonlinearity",
    "ProblemSpec",
    "RunConfig",
    "FiberCoefficients",
    "SolveReport",
    "build_kernel",
    "cache_key",
    "convolve",
    "energy",
    "evaluate",
    "fit_decay_exponent",
    "fractional_degree",
    "fractional_degree_refined",
    "gaussian_bump_field",
    "gradient_inner",
    "green_values",
    "h_inner",
    "laplacian",
    "load_field_text",
    "lp_norm",
    "nehari_scale",
    "random_start_field",
    "save_field_text",
    "solve_ground_state",
    "sphere_inverse",
    "translate",
] + sorted(_VERIFY_NAMES)
