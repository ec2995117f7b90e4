"""End-to-end command-line runs against temporary run directories."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kclattice as kc
import kclattice.cli as cli_module
import kclattice.nehari as nehari_module
import kclattice.verify as verify_module
from kclattice.cli import main


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    # shared kernel cache so the table is quadratured once per shape
    return tmp_path_factory.mktemp("kernel_cache")


def base_config(cache_dir, extra=""):
    return (
        "[problem]\n"
        "b = 0.0\n"
        "radius = 3\n"
        "\n"
        "[potential]\n"
        "kind = coercive\n"
        "v0 = 1.0\n"
        "rate = 3.0\n"
        "power = 2.0\n"
        "\n"
        "[kernel]\n"
        f"cache_dir = {cache_dir}\n"
        "\n" + extra
    )


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def run_dirs(base):
    return sorted(p for p in base.iterdir() if p.is_dir())


def latest_run(base):
    return run_dirs(base)[-1]


def test_green_writes_octant_and_caches(tmp_path, cache_dir, capsys):
    cfg = write_config(tmp_path, base_config(cache_dir))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "green"]) == 0
    first = capsys.readouterr().out
    assert "written" in first and "cached" not in first
    run = latest_run(out)
    lines = (run / "octant.csv").read_text().splitlines()
    assert lines[0] == "z1,z2,z3,R_alpha"
    # orbit representatives 0 <= z1 <= z2 <= z3 <= 6
    assert len(lines) - 1 == sum(1 for k in range(7) for j in range(k + 1) for i in range(j + 1))
    z1, z2, z3, val = lines[1].split(",")
    assert (z1, z2, z3) == ("0", "0", "0")
    assert float(val) == pytest.approx(1.08718047897907, rel=1e-12)
    report = (run / "report.txt").read_text()
    assert "K_alpha" in report
    assert (run / "config.snapshot").exists()

    assert main(["--config", cfg, "--output", str(out), "green"]) == 0
    second = capsys.readouterr().out
    assert "cached" in second


def test_solve_artifacts_and_determinism(tmp_path, cache_dir, capsys):
    cfg = write_config(tmp_path, base_config(cache_dir))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "solve"]) == 0
    assert main(["--config", cfg, "--output", str(out), "solve"]) == 0
    capsys.readouterr()
    first, second = run_dirs(out)[-2:]
    for run in (first, second):
        assert (run / "solution.field").exists()
        assert (run / "history.csv").exists()
        assert re.search(r"converged\s*=\s*True", (run / "report.txt").read_text())
    u1 = kc.load_field_text(first / "solution.field")
    u2 = kc.load_field_text(second / "solution.field")
    assert np.array_equal(u1.values, u2.values)
    history = (first / "history.csv").read_text().splitlines()
    assert history[0] == "iteration,energy,residual,s_u"
    assert len(history) >= 3
    final = history[-1].split(",")
    assert float(final[2]) <= 1e-9


def test_solve_exit3_still_writes_artifacts(tmp_path, cache_dir, capsys, monkeypatch):
    monkeypatch.setattr(nehari_module, "_MAX_ITERATIONS", 2)
    monkeypatch.setattr(nehari_module, "_NEWTON_MAX_ITERATIONS", 1)
    cfg = write_config(tmp_path, base_config(cache_dir, "[solver]\ngradient_tolerance = 1e-13\n"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "solve"]) == 3
    capsys.readouterr()
    run = latest_run(out)
    assert (run / "solution.field").exists()
    report = (run / "report.txt").read_text()
    assert re.search(r"converged\s*=\s*False", report)
    assert "budget exhausted" in report


@pytest.mark.parametrize("coefficient", ["1e100", "1e150", "1e200"])
def test_solve_with_an_overflowing_coefficient_exits_through_a_documented_path(
        tmp_path, cache_dir, capsys, monkeypatch, coefficient):
    # at 1e100 the ray root lies near 1e-49 and took an unbounded ulp walk;
    # at 1e200 the start's drive overflows a double
    calls = [0]
    nextafter = math.nextafter

    def bounded(x, y):
        calls[0] += 1
        if calls[0] > 10 ** 5:
            raise AssertionError("the ulp walk did not stop")
        return nextafter(x, y)

    monkeypatch.setattr(math, "nextafter", bounded)
    cfg = write_config(tmp_path, f"[problem]\nradius = 4\n\n[nonlinearity]\ncoefficient = "
                                 f"{coefficient}\n\n[kernel]\ncache_dir = {cache_dir}\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "solve"]) in (0, 3)
    capsys.readouterr()
    report = (latest_run(out) / "report.txt").read_text()
    if re.search(r"converged\s*=\s*True", report):
        # at 1e150 the ray coefficients once underflowed to a zero drive
        values = dict(re.findall(r"^(nehari_defect|eta_estimate)\s*=\s*(\S+)$", report, re.M))
        assert float(values["nehari_defect"]) <= 1e-8
        assert 0.0 < float(values["eta_estimate"]) < math.inf


VERIFY_1E200 = ("[problem]\nradius = 4\n\n[nonlinearity]\ncoefficient = 1e200\n\n"
                "[verify]\ntrials = 5\nmp_trials = 4\nfiber_fields = 2\nlevel_samples = 2\n"
                "radii = 2 4\n\n[kernel]\ncache_dir = {}\n")


def test_verify_reports_a_raising_check_as_failed(tmp_path, cache_dir, capsys):
    # at 1e200 a unit direction's drive overflows and evaluate raises
    cfg = write_config(tmp_path, VERIFY_1E200.format(cache_dir))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "verify"]) == 4
    assert "mountain-pass-geometry" in capsys.readouterr().err
    run = latest_run(out)
    rows = (run / "suite.csv").read_text().splitlines()
    assert len(rows) == 8
    assert "mountain-pass-geometry,raised,0,fail,nan,nan" in rows
    assert "witness: RuntimeError: fiber coefficient drive is not finite" in (
        run / "report.txt").read_text()


def test_verify_lets_a_quadrature_failure_exit_two(tmp_path, cache_dir, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise kc.QuadratureError("injected")

    monkeypatch.setattr(verify_module, "check_hls", failing)
    cfg = write_config(tmp_path, VERIFY_1E200.format(cache_dir).replace("1e200", "1.0"))
    assert main(["--config", cfg, "--output", str(tmp_path / "out"), "verify"]) == 2
    assert "quadrature failure: injected" in capsys.readouterr().err


def test_solve_ray_root_failure_exits_three_with_artifacts(tmp_path, cache_dir, capsys,
                                                          monkeypatch):
    calls = [0]

    def failing_scale(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 3:
            raise RuntimeError("injected ray-root failure")
        return kc.nehari_scale(*args, **kwargs)

    monkeypatch.setattr(nehari_module, "nehari_scale", failing_scale)
    cfg = write_config(tmp_path, base_config(cache_dir))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "solve"]) == 3
    assert "NOT CONVERGED: injected ray-root failure" in capsys.readouterr().err
    run = latest_run(out)
    assert (run / "solution.field").exists()
    assert (run / "history.csv").exists()
    report = (run / "report.txt").read_text()
    assert re.search(r"converged\s*=\s*False", report)
    assert "message         = injected ray-root failure" in report


def test_solve_drive_underflow_exits_three_with_artifacts(tmp_path, cache_dir, capsys):
    # c = 1e-300 makes the start's drive underflow to 0, so its ray has no root in doubles
    cfg = write_config(tmp_path, base_config(cache_dir, "[nonlinearity]\ncoefficient = 1e-300\n"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "solve"]) == 3
    assert "NOT CONVERGED: ray drive of a nonzero field" in capsys.readouterr().err
    run = latest_run(out)
    assert (run / "solution.field").exists()
    assert (run / "history.csv").exists()
    assert re.search(r"converged\s*=\s*False", (run / "report.txt").read_text())


def test_verify_passes_on_resolved_problem(tmp_path, cache_dir, capsys):
    cfg = write_config(
        tmp_path,
        base_config(
            cache_dir,
            "[verify]\ntrials = 30\nmp_trials = 15\nfiber_fields = 4\n"
            "level_samples = 4\nradii = 2 3 4 5\n",
        ),
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "verify"]) == 0
    stdout = capsys.readouterr().out
    assert "all checks passed" in stdout
    run = latest_run(out)
    suite = (run / "suite.csv").read_text().splitlines()
    assert suite[0] == "name,anchor,samples,pass,measured,tolerance"
    assert len(suite) == 8
    assert all(row.split(",")[3] == "pass" for row in suite[1:])


def test_verify_fails_honestly_on_unresolved_radii(tmp_path, cache_dir, capsys):
    # b = 1 levels still move percent-level between radii 2 and 3
    text = base_config(cache_dir).replace("b = 0.0", "b = 1.0")
    cfg = write_config(
        tmp_path,
        text + "[verify]\ntrials = 20\nmp_trials = 10\nfiber_fields = 3\n"
        "level_samples = 3\nradii = 2 3\n",
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "verify"]) == 4
    captured = capsys.readouterr()
    assert "failing checks:" in captured.err
    assert "box-convergence" in captured.err
    run = latest_run(out)
    assert "CHECK FAILURES PRESENT" in (run / "report.txt").read_text()


@pytest.mark.parametrize("extra, anchor, message", [
    pytest.param("[sweep]\nparameter = radius\nvalues = 2 2.5\n", "values = 2 2.5",
                 "[sweep] values: radius values must be integers", id="fractional-radius"),
    pytest.param("[sweep]\nvalues = 0.5\n", "[sweep]",
                 "[sweep] parameter: must be set for the sweep command", id="no-parameter"),
])
def test_sweep_config_errors_exit_one_at_their_line(tmp_path, cache_dir, capsys, extra, anchor,
                                                    message):
    text = base_config(cache_dir, extra)
    cfg = write_config(tmp_path, text)
    assert main(["--config", cfg, "--output", str(tmp_path / "out"), "sweep"]) == 1
    line = text.splitlines().index(anchor) + 1
    assert f"run.cfg:{line}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, message", [
    pytest.param("sweep", "[sweep]\nvalues = 1 2\n",
                 "run.cfg:1: [sweep] parameter: must be set", id="sweep-without-parameter"),
    pytest.param("solve", "[kernel]\ntable_radius = 4\n",
                 "run.cfg:2: [kernel] table_radius: 4 cannot cover", id="solve-table-radius"),
    pytest.param("verify", "[kernel]\ntable_radius = 4\n",
                 "run.cfg:2: [kernel] table_radius: 4 cannot cover", id="verify-table-radius"),
    pytest.param("verify", "[potential]\ncenter = 1 0 0\n",
                 "run.cfg:2: [potential] center: the octahedral symmetry check needs",
                 id="verify-off-center"),
    pytest.param("solve", "[output]\nsolution_format = binary\n",
                 "run.cfg:2: unknown key 'solution_format' in section [output]",
                 id="solve-removed-solution-format"),
])
def test_rejected_config_leaves_no_run_directory(tmp_path, capsys, command, text, message):
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, text), "--output", str(out), command]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_periodic_verify_covers_the_hls_boxes(tmp_path, cache_dir, capsys):
    # check_hls convolves on Dirichlet boxes up to radius 8 whatever the mode,
    # so a periodic run's kernel table must reach 16
    cfg = write_config(
        tmp_path,
        "[problem]\nradius = 2\nmode = periodic\n\n[potential]\nkind = constant\n\n"
        f"[kernel]\ncache_dir = {cache_dir}\n\n[verify]\ntrials = 20\nmp_trials = 10\n"
        "fiber_fields = 3\nlevel_samples = 3\nradii = 2 3\n",
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "verify"]) in (0, 4)
    capsys.readouterr()
    suite = (latest_run(out) / "suite.csv").read_text().splitlines()
    assert suite[0] == "name,anchor,samples,pass,measured,tolerance"
    assert len(suite) == 8


def test_sweep_single_point_matches_solve(tmp_path, cache_dir, capsys):
    sweep_cfg = write_config(
        tmp_path, base_config(cache_dir, "[sweep]\nparameter = b\nvalues = 0.0\n")
    )
    out = tmp_path / "out"
    assert main(["--config", sweep_cfg, "--output", str(out), "sweep"]) == 0
    capsys.readouterr()
    sweep_lines = (latest_run(out) / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == "param,value,energy,residual,norm,iterations"
    row = sweep_lines[1].split(",")
    assert row[0] == "b" and float(row[1]) == 0.0

    solve_cfg = write_config(tmp_path, base_config(cache_dir))
    assert main(["--config", solve_cfg, "--output", str(out), "solve"]) == 0
    capsys.readouterr()
    report = (latest_run(out) / "report.txt").read_text()
    energy = next(
        float(line.split()[-1]) for line in report.splitlines() if line.startswith("energy")
    )
    assert float(row[2]) == pytest.approx(energy, rel=1e-12)


def test_sweep_monotonicity_observation(tmp_path, cache_dir, capsys):
    cfg = write_config(
        tmp_path, base_config(cache_dir, "[sweep]\nparameter = b\nvalues = 0.0 0.5 1.0\n")
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "sweep"]) == 0
    stdout = capsys.readouterr().out
    assert "# observation: energy nondecreasing in b: yes" in stdout
    lines = (latest_run(out) / "sweep.csv").read_text().splitlines()
    energies = [float(line.split(",")[2]) for line in lines[1:4]]
    assert energies == sorted(energies)


def test_sweep_records_a_quadrature_failure_and_keeps_the_other_rows(tmp_path, cache_dir,
                                                                    capsys):
    # the heat-kernel route cannot reach alpha = 2.95; the alpha = 1 point still solves
    cfg = write_config(
        tmp_path, base_config(cache_dir, "[sweep]\nparameter = alpha\nvalues = 1.0 2.95\n"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "sweep"]) == 3
    capsys.readouterr()
    lines = (latest_run(out) / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("alpha,1,") and "nan" not in lines[1]
    assert lines[2] == "alpha,2.9500000000000002,nan,nan,nan,0"
    assert lines[3].startswith("# observation: point alpha=2.95 failed: heat-kernel tail cutoff")


def test_seed_flag_lands_in_snapshot(tmp_path, cache_dir, capsys):
    cfg = write_config(tmp_path, base_config(cache_dir))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "--seed", "99", "solve"]) == 0
    capsys.readouterr()
    snapshot = (latest_run(out) / "config.snapshot").read_text()
    assert "seed = 99" in snapshot


def test_defaults_without_config_green(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--output", "out", "green"]) == 0
    capsys.readouterr()
    assert (tmp_path / "out").exists()


def test_config_errors_exit_one(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["--config", str(tmp_path / "nope.cfg"), "--output", out, "green"]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("[problem]\nradius = -2\n")
    assert main(["--config", str(bad), "--output", out, "green"]) == 1
    err = capsys.readouterr().err
    assert "bad.cfg:2:" in err
    bad.write_text("[problem]\nradiu = 2\n")
    assert main(["--config", str(bad), "--output", out, "green"]) == 1
    # sweep command without sweep section configured
    ok = tmp_path / "ok.cfg"
    ok.write_text("[problem]\nradius = 2\n")
    assert main(["--config", str(ok), "--output", out, "sweep"]) == 1


# (command, extra config text, the offending line, the error it must name);
# each is rejected before any kernel is built
_BAD_INPUTS = {
    # a key the solver no longer takes: the start bump's width is fixed
    "bump-width": ("solve", "[solver]\nbump_width = 0\n", "bump_width = 0",
                   "unknown key 'bump_width' in section [solver]"),
    # the solver's step budgets are fixed too
    "max-iterations": ("solve", "[solver]\nmax_iterations = 500\n", "max_iterations = 500",
                       "unknown key 'max_iterations' in section [solver]"),
    "negative-seed": ("verify", "[solver]\nseed = -1\n", "seed = -1",
                      "[solver] seed must be nonnegative"),
    "verify-radius": ("verify", "[verify]\nradii = -1 3\n", "radii = -1 3",
                      "[verify] radii: box radius must be a nonnegative integer"),
    "table-radius": ("solve", None, "table_radius = 2",
                     "[kernel] table_radius: 2 cannot cover a dirichlet box of radius 3"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_config_inputs_exit_one_at_their_line(tmp_path, cache_dir, capsys, monkeypatch,
                                                  case):
    command, extra, bad_line, message = _BAD_INPUTS[case]
    if extra is None:
        text = base_config(cache_dir).replace("[kernel]\n", f"[kernel]\n{bad_line}\n")
    else:
        text = base_config(cache_dir, extra)

    def unbuildable(*args, **kwargs):
        raise AssertionError("no kernel should be built for a rejected config")

    monkeypatch.setattr(cli_module, "build_kernel", unbuildable)
    cfg = write_config(tmp_path, text)
    assert main(["--config", cfg, "--output", str(tmp_path / "out"), command]) == 1
    err = capsys.readouterr().err
    line = text.splitlines().index(bad_line) + 1
    assert f"run.cfg:{line}: {message}" in err


@pytest.mark.parametrize("section, entry", [
    ("problem", "a = inf"),
    ("problem", "b = nan"),
    ("potential", "rate = nan"),
    ("nonlinearity", "exponent = nan"),
])
def test_non_finite_values_exit_one_at_their_line(tmp_path, capsys, section, entry):
    cfg = write_config(tmp_path, f"# never reaches a solve\n[{section}]\n{entry}\n")
    assert main(["--config", cfg, "--output", str(tmp_path / "out"), "solve"]) == 1
    key, value = entry.split(" = ")
    message = f"run.cfg:3: [{section}] {key}: expected a finite number, got {value!r}"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("case", ["other-box", "unparsable"])
def test_bad_initial_file_exits_one_naming_it(tmp_path, cache_dir, capsys, case):
    start = tmp_path / "start.field"
    if case == "other-box":
        kc.save_field_text(kc.Field.zeros(kc.LatticeBox(2)), start)
        message = f"{start} holds a field on a radius-2 dirichlet box"
    else:
        start.write_text("# lattice-field v1 radius=3 mode=dirichlet\nabc\n")
        message = f"cannot read {start}: could not convert string 'abc'"
    extra = f"[solver]\ninitial_guess = file\ninitial_file = {start}\n"
    cfg = write_config(tmp_path, base_config(cache_dir, extra))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "solve"]) == 1
    assert f"[solver] initial_file: {message}" in capsys.readouterr().err
    assert not out.exists()
    # in a sweep the same file fails its point, not the run
    cfg = write_config(tmp_path, base_config(cache_dir, extra + "\n[sweep]\nparameter = b\n"
                                             "values = 0.0\n"))
    assert main(["--config", cfg, "--output", str(out), "sweep"]) == 3
    sweep_out = capsys.readouterr().out
    assert "# observation: point b=0.0 failed: " in sweep_out
    assert f"[solver] initial_file: {message}" in sweep_out


def test_verify_with_a_file_start(tmp_path, cache_dir, capsys):
    start = tmp_path / "start.field"
    box = kc.LatticeBox(3)  # a bump of width 1.5, wider than the default start's
    kc.save_field_text(kc.Field(box, np.exp(-box.squared_distance_grid((0, 0, 0)) / 4.5)), start)
    text = base_config(cache_dir, f"[solver]\ninitial_guess = file\ninitial_file = {start}\n\n"
                       "[verify]\ntrials = 30\nmp_trials = 15\nfiber_fields = 4\n"
                       "level_samples = 4\nradii = 2 3 4 5\n")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "verify"]) == 0
    suite = (latest_run(out) / "suite.csv").read_text().splitlines()
    assert len(suite) == 8
    assert all(row.split(",")[3] == "pass" for row in suite[1:])
    # a file on another box is a config error at its key, before any run directory
    kc.save_field_text(kc.Field.zeros(kc.LatticeBox(2)), start)
    other = tmp_path / "other"
    capsys.readouterr()
    assert main(["--config", cfg, "--output", str(other), "verify"]) == 1
    line = text.splitlines().index(f"initial_file = {start}") + 1
    assert (f"run.cfg:{line}: [solver] initial_file: {start} holds a field on a radius-2"
            in capsys.readouterr().err)
    assert not other.exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_initial_file_is_read_once_per_run(tmp_path, cache_dir, capsys, monkeypatch, command):
    start = tmp_path / "start.field"
    kc.save_field_text(kc.gaussian_bump_field(kc.LatticeBox(3)), start)
    reads = []

    def counted(path):
        reads.append(path)
        return kc.load_field_text(path)

    monkeypatch.setattr(cli_module, "load_field_text", counted)
    text = base_config(cache_dir, f"[solver]\ninitial_guess = file\ninitial_file = {start}\n\n"
                       "[verify]\ntrials = 4\nmp_trials = 4\nfiber_fields = 1\n"
                       "level_samples = 2\nradii = 2 3\n")
    cfg = write_config(tmp_path, text)
    assert main(["--config", cfg, "--output", str(tmp_path / "out"), command]) in (0, 4)
    capsys.readouterr()
    assert reads == [str(start)]


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["--config"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_run_directory_race_is_lost_gracefully(tmp_path, cache_dir, monkeypatch, capsys):
    # another run made this second's directory between the check and the mkdir
    stamp = "20260101T000000Z"
    out = tmp_path / "out"
    (out / stamp).mkdir(parents=True)
    monkeypatch.setattr(cli_module.time, "strftime", lambda fmt, t=None: stamp)
    monkeypatch.setattr(cli_module.Path, "exists", lambda self: False)
    cfg = write_config(tmp_path, base_config(cache_dir))
    assert main(["--config", cfg, "--output", str(out), "green"]) == 0
    capsys.readouterr()
    assert (out / f"{stamp}-1" / "octant.csv").is_file()
    assert not any((out / stamp).iterdir())


def test_quadrature_failure_exit_two(tmp_path, capsys):
    # near alpha = 3 the heat-kernel tail cutoff overflows a double
    cfg = tmp_path / "steep.cfg"
    cfg.write_text("[problem]\nradius = 2\nalpha = 2.95\n")
    out = str(tmp_path / "out")
    assert main(["--config", str(cfg), "--output", out, "green"]) == 2
    err = capsys.readouterr().err
    assert "quadrature failure: heat-kernel tail cutoff overflows" in err


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A kernel cache holding the alpha = 1, radius-16 table."""
    cache = tmp_path_factory.mktemp("warm_cache")
    kc.build_kernel(1.0, 16, cache_dir=cache)
    return cache


def _scipy_modules_after(tmp_path, config_text, command):
    """Run ``command`` in a fresh interpreter; its exit code and the scipy modules it loaded."""
    cfg = write_config(tmp_path, config_text)
    script = (
        "import json, sys\n"
        "from kclattice.cli import main\n"
        f"code = main(['--config', {cfg!r}, '--output', {str(tmp_path / 'out')!r}, {command!r}])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    src = str(Path(kc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_warm_solve_imports_no_scipy(tmp_path, warm_cache):
    # scipy is only needed to build a table; a fresh process solving the
    # reference problem on a cached table must not pay its import
    code, scipy_modules = _scipy_modules_after(
        tmp_path, f"[kernel]\ncache_dir = {warm_cache}\n", "solve")
    assert code == 0
    assert scipy_modules == []


def test_warm_verify_imports_no_scipy(tmp_path, warm_cache):
    # the whole property suite, the segment referee included, runs on numpy
    config = (
        "[problem]\nradius = 4\n\n"
        "[potential]\nkind = coercive\nv0 = 1.0\nrate = 3.0\npower = 2.0\n\n"
        f"[kernel]\ncache_dir = {warm_cache}\n\n"
        "[verify]\ntrials = 4\nmp_trials = 4\nfiber_fields = 1\nlevel_samples = 2\n"
        "radii = 6 8\n"
    )
    code, scipy_modules = _scipy_modules_after(tmp_path, config, "verify")
    assert code == 0
    assert scipy_modules == []
