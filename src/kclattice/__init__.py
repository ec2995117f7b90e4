"""Ground states of Kirchhoff-Choquard equations on the integer lattice.

The package computes discrete Riesz-type Green's functions of the lattice
fractional Laplacian, assembles the Kirchhoff-Choquard energy on finite
boxes, finds ground states by Nehari-manifold reduction, and ships an
executable property suite that stress-tests the variational structure
(mountain-pass geometry, convolution inequalities, fiber monotonicity,
level identities, symmetry).

Each public name is declared once, in the table below, under the module
that defines it, and served by the module ``__getattr__`` (PEP 562): its
first use imports that module and binds the name here, so ``import
kclattice`` alone loads no submodule.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "lattice": ("DIRICHLET", "PERIODIC", "Field", "LatticeBox", "load_field_text",
                "save_field_text", "translate"),
    "kernel": ("GreenKernel", "QuadratureError", "build_kernel", "cache_key", "convolve",
               "fit_decay_exponent", "fractional_degree", "fractional_degree_refined",
               "green_values"),
    "energy": ("COERCIVE", "CONSTANT", "PERIODIC_POTENTIAL", "FiberCoefficients",
               "PotentialSpec", "PowerNonlinearity", "ProblemSpec", "evaluate"),
    "nehari": ("SolveReport", "gaussian_bump_field", "nehari_scale", "random_start_field",
               "solve_ground_state", "sphere_inverse"),
    "config": ("FILE_START", "GAUSSIAN_BUMP", "RANDOM_START", "ConfigError", "RunConfig"),
    "verify": ("PropertyReport", "check_box_convergence", "check_fiber_monotonicity",
               "check_hls", "check_kernel_integrity", "check_level_identity",
               "check_mountain_pass_geometry", "check_symmetry_and_translation", "run_suite",
               "suite_csv", "suite_passed", "suite_summary"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later uses read it without calling this function
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
