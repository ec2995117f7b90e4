"""The public surface: a new export or solver knob needs a deliberate edit here."""

import dataclasses

import kclattice as kc

PUBLIC = [
    "COERCIVE", "CONSTANT", "ConfigError", "DIRICHLET", "FILE_START", "FiberCoefficients",
    "Field", "GAUSSIAN_BUMP", "GreenKernel", "HEAT_KERNEL", "LatticeBox", "PERIODIC",
    "PERIODIC_POTENTIAL", "PotentialSpec", "PowerNonlinearity", "ProblemSpec",
    "PropertyReport", "QuadratureError", "RANDOM_START", "RunConfig", "SolveConfig",
    "SolveReport", "TORUS_QUADRATURE", "build_kernel", "cache_key", "check_box_convergence",
    "check_fiber_monotonicity", "check_hls", "check_kernel_integrity", "check_level_identity",
    "check_mountain_pass_geometry", "check_symmetry_and_translation", "convolve", "energy",
    "energy_gradient", "evaluate", "fit_decay_exponent", "fractional_degree",
    "fractional_degree_refined", "gaussian_bump_field", "gradient_energy", "gradient_inner",
    "green_values", "h_inner", "h_norm", "interaction_energy", "laplace_symbol", "laplacian",
    "load_field_binary", "load_field_text", "lp_norm", "mountain_pass_level_check",
    "nehari_scale", "pairing", "random_start_field", "run_suite", "save_field_binary",
    "save_field_text", "solve_ground_state", "sphere_inverse", "suite_csv", "suite_passed",
    "suite_summary", "translate",
]

SOLVE_CONFIG_FIELDS = (
    "max_iterations", "gradient_tolerance", "nehari_root_tolerance", "sufficient_decrease",
    "backtrack_factor", "max_backtracks", "switch_residual", "newton_max_iterations", "seed",
    "initial_guess", "initial_field", "bump_width",
)


def test_all_is_the_pinned_public_surface():
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 64
    assert len(set(kc.__all__)) == len(kc.__all__)
    assert sorted(kc.__all__) == PUBLIC


def test_every_exported_name_resolves():
    for name in kc.__all__:
        assert getattr(kc, name, None) is not None, name


def test_solve_config_has_the_pinned_knobs():
    assert tuple(f.name for f in dataclasses.fields(kc.SolveConfig)) == SOLVE_CONFIG_FIELDS
