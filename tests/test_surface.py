"""The public surface: a new export, solver knob or config key needs a deliberate edit here."""

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import kclattice as kc
from kclattice import config as config_module

PUBLIC = [
    "COERCIVE", "CONSTANT", "ConfigError", "DIRICHLET", "FILE_START", "FiberCoefficients",
    "Field", "GAUSSIAN_BUMP", "GreenKernel", "LatticeBox", "PERIODIC", "PERIODIC_POTENTIAL",
    "PotentialSpec", "PowerNonlinearity", "ProblemSpec", "PropertyReport", "QuadratureError",
    "RANDOM_START", "RunConfig", "SolveReport", "build_kernel", "cache_key",
    "check_box_convergence", "check_fiber_monotonicity", "check_hls", "check_kernel_integrity",
    "check_level_identity", "check_mountain_pass_geometry", "check_symmetry_and_translation",
    "convolve", "evaluate", "fit_decay_exponent", "fractional_degree",
    "fractional_degree_refined", "gaussian_bump_field", "green_values",
    "load_field_text", "nehari_scale", "random_start_field", "run_suite",
    "save_field_text", "solve_ground_state", "sphere_inverse", "suite_csv", "suite_passed",
    "suite_summary", "translate",
]

# the solver takes a start field; choosing one is the job of the [solver] keys
SOLVE_PARAMETERS = ("spec", "kernel", "start")

INI_KEYS = {
    "problem": ("a", "b", "alpha", "radius", "mode"),
    "potential": ("kind", "v0", "rate", "power", "center", "tau", "table"),
    "nonlinearity": ("coefficient", "exponent"),
    "solver": ("seed", "initial_guess", "initial_file"),
    "kernel": ("table_radius", "cache_dir"),
    "output": ("directory",),
    "verify": ("trials", "mp_trials", "fiber_fields", "level_samples", "radii"),
    "sweep": ("parameter", "values"),
}


# a kernel table is a function of (alpha, table_radius) alone, and R_alpha
# is computed and applied by one route each, with no method selector
KERNEL_PARAMETERS = {
    "build_kernel": ("alpha", "table_radius", "cache_dir"),
    "cache_key": ("alpha", "table_radius"),
    "convolve": ("kernel", "w"),
    "green_values": ("alpha", "zs", "k_alpha"),
}


# the property suite's sample counts are settable; its tolerances and grids,
# the start fields' widths and the K_alpha resolution are not
FIXED_PARAMETERS = {
    "check_kernel_integrity": ("kernel",),
    "check_mountain_pass_geometry": ("spec", "kernel", "trials", "seed"),
    "check_hls": ("kernel", "trials"),
    "check_fiber_monotonicity": ("spec", "kernel", "fields", "seed"),
    "check_level_identity": ("spec", "kernel", "solve_report", "samples", "seed"),
    "check_box_convergence": ("spec", "kernel", "solve_report", "radii"),
    "check_symmetry_and_translation": ("spec", "kernel", "solve_report"),
    "run_suite": ("spec", "kernel", "solve_report", "seed", "trials", "mp_trials",
                  "fiber_fields", "level_samples", "radii"),
    "gaussian_bump_field": ("box", "center"),
    "random_start_field": ("box", "rng", "center"),
    "fractional_degree_refined": ("alpha",),
    # the ray record carries its Kirchhoff weight, and the problem its box and energy norm
    "nehari_scale": ("coeffs",),
    "sphere_inverse": ("spec", "u"),
}

# a solve's history is one table, whose columns the SolveReport documents
SOLVE_REPORT_FIELDS = (
    "solution", "energy", "residual", "residual_scale", "h_residual", "nehari_defect",
    "eta_estimate", "iterations", "newton_iterations", "converged", "message", "history",
)


def declared_keys():
    """[(section, key)] in the order the RunConfig fields declare them."""
    return [(section, key) for section, keys in config_module._SECTIONS.items() for key in keys]


def test_all_is_the_pinned_public_surface():
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 47
    assert len(set(kc.__all__)) == len(kc.__all__)
    assert sorted(kc.__all__) == PUBLIC


def test_every_exported_name_resolves():
    for name in kc.__all__:
        assert getattr(kc, name, None) is not None, name
    # the property suite's names are served on first use, star import included
    namespace = {}
    exec("from kclattice import *", namespace)
    assert set(kc.__all__) <= set(namespace)
    assert set(kc.__all__) <= set(dir(kc))


def test_no_export_shadows_a_submodule():
    import kclattice.energy as m

    assert m is sys.modules["kclattice.energy"]
    for info in pkgutil.iter_modules(kc.__path__):
        module = importlib.import_module(f"kclattice.{info.name}")
        assert getattr(kc, info.name) is module, info.name


def test_solver_has_the_pinned_parameters():
    assert tuple(inspect.signature(kc.solve_ground_state).parameters) == SOLVE_PARAMETERS
    # the superlinearity index is 2p, not a field
    assert tuple(f.name for f in dataclasses.fields(kc.PowerNonlinearity)) == (
        "coefficient", "exponent")


def test_solve_report_has_the_pinned_fields():
    assert tuple(f.name for f in dataclasses.fields(kc.SolveReport)) == SOLVE_REPORT_FIELDS
    # the ray record's fields: the four invariants, the power and the Kirchhoff weight
    assert tuple(f.name for f in dataclasses.fields(kc.FiberCoefficients)) == (
        "norm_h2", "grad2", "drive", "interaction", "exponent", "b")


def test_a_property_report_passes_iff_it_has_no_witness():
    assert tuple(f.name for f in dataclasses.fields(kc.PropertyReport)) == (
        "name", "anchor", "samples", "measured", "tolerance", "details", "witness")
    passed = inspect.getattr_static(kc.PropertyReport, "passed")
    assert isinstance(passed, property) and passed.fset is None
    assert kc.PropertyReport("x", "y", 1, 0.0, 0.0).passed
    assert not kc.PropertyReport("x", "y", 1, 0.0, 0.0, witness="first failure").passed


def test_kernel_entry_points_have_the_pinned_parameters():
    for name, parameters in KERNEL_PARAMETERS.items():
        assert tuple(inspect.signature(getattr(kc, name)).parameters) == parameters, name


def test_fixed_numerics_have_no_parameter():
    for name, parameters in FIXED_PARAMETERS.items():
        assert tuple(inspect.signature(getattr(kc, name)).parameters) == parameters, name
    # the suite certifies the solve it is handed and has no start policy of its own
    for name in ("run_suite", "check_box_convergence"):
        solve_report = inspect.signature(getattr(kc, name)).parameters["solve_report"]
        assert solve_report.default is inspect.Parameter.empty, name
    # a periodic potential's floor is its smallest entry
    assert tuple(inspect.signature(kc.PotentialSpec.periodic).parameters) == ("tau", "table")


def test_the_problem_owns_its_potential_on_its_box():
    # V has one formula, PotentialSpec.table_on; the problem caches its table and reads the
    # minimum site off it, and the pointwise V is a test referee
    assert not hasattr(kc.PotentialSpec, "value")
    assert not hasattr(kc.PotentialSpec, "minimum_site")
    for name in ("potential_table", "minimum_site"):
        assert isinstance(inspect.getattr_static(kc.ProblemSpec, name), functools.cached_property)


def test_config_has_the_pinned_sections_and_keys():
    assert declared_keys() == [(section, key) for section, keys in INI_KEYS.items()
                               for key in keys]


def test_every_solver_knob_is_a_solver_key():
    solver = config_module._SECTIONS["solver"]
    for name in ("seed", "initial_guess"):
        assert solver.get(name) == name, name


def test_readme_lists_every_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    text = "\n".join(line.split("#")[0].strip() for line in block.splitlines())
    assert kc.RunConfig.from_text(text, "README.md") == kc.RunConfig.defaults()
    listed, section = [], None
    for line in filter(None, text.splitlines()):
        if line.startswith("["):
            section = line.strip("[]")
        else:
            listed.append((section, line.split("=")[0].strip()))
    assert listed == declared_keys()
