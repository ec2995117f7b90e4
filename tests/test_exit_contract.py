"""Property test of the command line's exit contract over extreme problems.

``kclattice green``, ``solve``, ``verify`` and ``sweep`` leave through exit
codes 0-4 and never raise, and a solve's exit 0 means a finite
residual within the solver's tolerance.  Coefficients range over 1e-200 to 1e200, where
energies, norms and the nonlinearity leave the double range.
"""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import kclattice.nehari as nehari_module  # noqa: E402
from kclattice.cli import main  # noqa: E402

# exit 0 certifies ||g|| <= _TOLERANCE * scale (nehari.py)
_TOLERANCE = 1.0e-13

# 10^e rounded to four digits, so a failing config reads back short
_magnitudes = st.floats(-200.0, 200.0).map(lambda e: float(f"{10.0 ** e:.4g}"))

# solves that once left through the wrong door: this one exited 0 with
# converged = True and residual inf
_OVERFLOWED_RESIDUAL = {
    "problem": {"radius": 2, "mode": "dirichlet", "a": 71.04, "b": 0.261},
    "potential": {"kind": "constant", "v0": 8.83},
    "nonlinearity": {"coefficient": 0.01005, "exponent": 2.0365},
}
# this one's ray energy raised OverflowError: exit 1 and a traceback
_OVERFLOWED_RAY_ENERGY = {
    "problem": {"radius": 3, "mode": "periodic", "b": 0.0},
    "potential": {"kind": "coercive"},
    "nonlinearity": {"coefficient": 1e-140, "exponent": 3.0},
}
# and this one's Nehari radius, exp of a log past the double range, did too
_OVERFLOWED_NEHARI_RADIUS = {
    "problem": {"radius": 1},
    "potential": {"kind": "constant", "v0": 1e200},
    "nonlinearity": {"coefficient": 1e-200, "exponent": 2.0001},
}
# a Newton step landed on u = 0, and nehari_scale raised ValueError; later the
# polish, started from the bump below an absolute hand-over of 1e-3, exited 3
# at a zero drive.  Handed over relative to its scale of 1e-26, it converges
_NEWTON_STEP_TO_ZERO = {
    "problem": {"radius": 1, "alpha": 0.21875, "a": 1e-38, "b": 0.0},
    "potential": {"kind": "constant", "v0": 4.217e-21},
    "nonlinearity": {"coefficient": 1e9, "exponent": 4.25},
}
# the door the problem above once took: a RuntimeError inside the Newton polish,
# here a trial point whose ray energy overflows after 6 descent steps
_NEWTON_STEP_OVERFLOWS = {
    "problem": {"radius": 1, "a": 6.364e-154, "b": 0.0},
    "potential": {"kind": "constant", "v0": 6.365e-115},
    "nonlinearity": {"coefficient": 3.898e-181, "exponent": 2.198},
}
# the preconditioner's CG overflowed: a RuntimeWarning, raised under the tests' filter
_OVERFLOWED_INNER_SOLVE = {
    "problem": {"radius": 1, "alpha": 1.5, "a": 1e-170, "b": 0.0},
    "potential": {"kind": "coercive", "v0": 1e-169, "rate": 1.0, "power": 1.0},
    "nonlinearity": {"coefficient": 1e9, "exponent": 3.0},
}
# a separable table near the top of the double range: the start field's energy
# norm overflowed, the field normalized to 0 and nehari_scale's ValueError left
# as a traceback.  No start brings the Newton preconditioner's eigenvalue sums,
# about V + 6c, past the double range: unit fields of so large a V or c
# underflow the drive first, so test_separable tests that overflow directly
_OVERFLOWED_SEPARABLE_TABLE = {
    "problem": {"radius": 1, "mode": "dirichlet"},
    "potential": {"kind": "coercive", "v0": 1.0, "rate": 5.99e307, "power": 2.0},
}
# F(u) was finite but its convolution was not: the Field wrapped around the
# inf result raised ValueError, and solve and verify ended in a traceback
_OVERFLOWED_CONVOLUTION = {
    "problem": {"radius": 4, "mode": "dirichlet", "b": 0.0},
    "potential": {"kind": "constant", "v0": 1.0},
    "nonlinearity": {"coefficient": 1.7e308, "exponent": 3.0},
}
_PAST_DEFECTS = {
    "residual": _OVERFLOWED_RESIDUAL,
    "ray-energy": _OVERFLOWED_RAY_ENERGY,
    "nehari-radius": _OVERFLOWED_NEHARI_RADIUS,
    "newton-overflow": _NEWTON_STEP_OVERFLOWS,
    "inner-solve": _OVERFLOWED_INNER_SOLVE,
    "separable-table": _OVERFLOWED_SEPARABLE_TABLE,
    "convolution": _OVERFLOWED_CONVOLUTION,
}


@st.composite
def _potentials(draw):
    kind = draw(st.sampled_from(["constant", "coercive", "periodic"]))
    if kind == "periodic":
        tau = draw(st.integers(1, 2))
        return {"kind": kind, "tau": tau, "table": [draw(_magnitudes) for _ in range(tau ** 3)]}
    potential = {"kind": kind, "v0": draw(_magnitudes)}
    if kind == "coercive":
        # power 2 is additive, which takes the Newton polish's separable preconditioner
        potential.update(rate=draw(_magnitudes), power=draw(st.just(2.0) | st.floats(0.5, 4.0)))
    return potential


def _problems_with(radius, alpha, **sections):
    return st.fixed_dictionaries({
        "problem": st.fixed_dictionaries({
            "radius": radius,
            "mode": st.sampled_from(["dirichlet", "periodic"]),
            "alpha": alpha,
            "a": _magnitudes,
            "b": st.just(0.0) | _magnitudes,
        }),
        "potential": _potentials(),
        "nonlinearity": st.fixed_dictionaries({
            "coefficient": _magnitudes,
            "exponent": st.floats(2.0, 8.0, exclude_min=True),
        }),
        **sections,
    })


_problems = _problems_with(st.integers(0, 3), st.floats(0.0, 3.0, exclude_min=True,
                                                         exclude_max=True))
# the property suite at its smallest counts; three orders keep the kernel builds,
# at the table radius 16 the hls check needs, to three per run
_SMALL_SUITE = {"trials": 2, "mp_trials": 2, "fiber_fields": 1, "level_samples": 2,
                "radii": "1 2"}
_suites = _problems_with(st.integers(0, 2), st.sampled_from([0.5, 1.0, 2.0]),
                         verify=st.just(_SMALL_SUITE))


def _value_text(value):
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return " ".join(map(repr, value))
    return repr(value)


def _config_text(problem, cache_dir):
    """The run config of ``{section: {key: value}}``, with keys left out at their defaults."""
    sections = dict(problem, kernel={**problem.get("kernel", {}), "cache_dir": str(cache_dir)})
    return "".join(f"[{name}]\n" + "".join(f"{key} = {_value_text(value)}\n"
                                           for key, value in entries.items()) + "\n"
                   for name, entries in sections.items())


@pytest.fixture(scope="module")
def contract_dirs(tmp_path_factory):
    # some extreme problems descend for the whole 2,000-step budget, 20 s at
    # radius 1; a budget of 50 keeps each solve under a second and leaves
    # every exit path, running out of steps included
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nehari_module, "_MAX_ITERATIONS", 50)
        yield tmp_path_factory.mktemp("contract_cache"), tmp_path_factory.mktemp("contract_out")


def _run(problem, cache_dir, out_dir, command="solve"):
    """Exit code, stdout and stderr of ``kclattice <command>`` on the problem."""
    cfg = out_dir / "run.cfg"
    cfg.write_text(_config_text(problem, cache_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg), "--output", str(out_dir), command])
    return code, out.getvalue(), err.getvalue()


def _report_value(report, name):
    return re.search(rf"^{name} += (.*)$", report, re.M).group(1)


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(_OVERFLOWED_RESIDUAL)
@example(_OVERFLOWED_RAY_ENERGY)
@example(_OVERFLOWED_NEHARI_RADIUS)
@example(_NEWTON_STEP_TO_ZERO)
@example(_OVERFLOWED_INNER_SOLVE)
@example(_OVERFLOWED_SEPARABLE_TABLE)
@example(_OVERFLOWED_CONVOLUTION)
@given(_problems)
def test_solve_exit_contract(contract_dirs, problem):
    code, out, _ = _run(problem, *contract_dirs)
    assert 0 <= code <= 4
    if code == 0:
        report = (Path(re.search(r"run directory: (.*)", out).group(1)) / "report.txt").read_text()
        residual = float(_report_value(report, "residual"))
        scale = float(_report_value(report, "residual_scale"))
        assert math.isfinite(residual) and residual <= _TOLERANCE * scale, report


# its fiber check once divided by an interaction that underflowed to 0
_UNDERFLOWED_FIBER = {
    "problem": {"radius": 0, "a": 1e107},
    "potential": {"kind": "constant", "v0": 1.0},
    "nonlinearity": {"coefficient": 1.0, "exponent": 3.0},
    "verify": _SMALL_SUITE,
}


@settings(max_examples=25, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(_UNDERFLOWED_FIBER)
@example(dict(_OVERFLOWED_CONVOLUTION, verify=_SMALL_SUITE))
@given(_suites)
def test_verify_exit_contract(contract_dirs, problem):
    code, _, err = _run(problem, *contract_dirs, "verify")
    assert 0 <= code <= 4
    assert "Traceback" not in err


# two points of one swept parameter; the alphas and radii keep the kernel
# builds to three orders at table radius 4 or less
_SWEPT = {
    "b": st.just(0.0) | _magnitudes,
    "p": st.floats(2.0, 8.0, exclude_min=True),
    "alpha": st.sampled_from([0.5, 1.0, 2.0]),
    "radius": st.integers(0, 2),
}


@st.composite
def _sweeps(draw):
    parameter = draw(st.sampled_from(sorted(_SWEPT)))
    sweep = {"parameter": parameter, "values": [draw(_SWEPT[parameter]) for _ in range(2)]}
    return draw(_problems_with(st.integers(0, 2), st.sampled_from([0.5, 1.0, 2.0]),
                               sweep=st.just(sweep)))


@settings(max_examples=15, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_sweeps())
def test_sweep_exit_contract(contract_dirs, problem):
    code, _, err = _run(problem, *contract_dirs, "sweep")
    assert 0 <= code <= 4
    assert "Traceback" not in err


@pytest.mark.parametrize("problem", _PAST_DEFECTS.values(), ids=_PAST_DEFECTS.keys())
def test_overflowing_solve_exits_three_with_its_artifacts(tmp_path, problem):
    code, out, err = _run(problem, tmp_path / "cache", tmp_path)
    assert code == 3
    assert "NOT CONVERGED" in err and "Traceback" not in err
    run = Path(re.search(r"run directory: (.*)", out).group(1))
    assert sorted(p.name for p in run.iterdir()) == [
        "config.snapshot", "history.csv", "report.txt", "solution.field"]
    assert _report_value((run / "report.txt").read_text(), "converged") == "False"


# problems whose whole gradient lies below unit scale, which an absolute
# hand-over to the Newton polish sent there from the start
_BELOW_UNIT_SCALE = {
    "newton-to-zero": _NEWTON_STEP_TO_ZERO,
    "coefficient-1e150": {"problem": {"radius": 4}, "nonlinearity": {"coefficient": 1e150}},
}


@pytest.mark.parametrize("problem", _BELOW_UNIT_SCALE.values(), ids=_BELOW_UNIT_SCALE.keys())
def test_below_unit_scale_solves_converge(tmp_path, problem):
    code, out, err = _run(problem, tmp_path / "cache", tmp_path)
    assert code == 0, err
    report = (Path(re.search(r"run directory: (.*)", out).group(1)) / "report.txt").read_text()
    assert _report_value(report, "converged") == "True"
    residual = float(_report_value(report, "residual"))
    assert residual <= _TOLERANCE * float(_report_value(report, "residual_scale"))
    assert float(_report_value(report, "nehari_defect")) <= 1e-12


# green tabulates whatever table radius it is given: a negative one ended in a
# traceback from build_kernel, and alpha 0.05 lies below what the quadrature reaches
_GREEN_EXAMPLES = {
    "table-radius--1": ({"problem": {"radius": 2}, "kernel": {"table_radius": -1}}, 1),
    "table-radius-0": ({"problem": {"radius": 2}, "kernel": {"table_radius": 0}}, 0),
    "table-radius-3": ({"problem": {"radius": 2}, "kernel": {"table_radius": 3}}, 0),
    "alpha-0.05": ({"problem": {"radius": 1, "alpha": 0.05}}, 2),
}


@pytest.mark.parametrize("case", sorted(_GREEN_EXAMPLES))
def test_green_exit_contract(tmp_path, case):
    problem, want = _GREEN_EXAMPLES[case]
    code, _, err = _run(problem, tmp_path / "cache", tmp_path, "green")
    assert code == want and 0 <= code <= 2
    assert "Traceback" not in err


def test_verify_reports_an_overflowing_ray_energy(tmp_path):
    problem = dict(_OVERFLOWED_RAY_ENERGY, verify={
        "trials": 4, "mp_trials": 4, "fiber_fields": 1, "level_samples": 2, "radii": "3 4"})
    code, out, err = _run(problem, tmp_path / "cache", tmp_path, "verify")
    assert code == 4
    assert "Traceback" not in err
    assert "[FAIL] mountain-pass-geometry (raised)" in out
    assert "witness: RuntimeError: ray energy at scale" in out
