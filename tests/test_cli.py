"""End-to-end command-line runs against temporary run directories."""

import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kclattice as kc
import kclattice.cli as cli_module
import kclattice.config as config_module
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


# SHA-256 of the artifacts that the solver wrote for the periodic config of
# the test below at --seed 1 before the Newton polish had a separable inverse,
# when every preconditioner application was a Jacobi-CG solve (numpy 2.4, x86-64)
_PERIODIC_DIGESTS = {
    "solution.field": "06e225e6984f5b6464d5b537b0f2de1434492f0530cb8ac3195f046ff7ddbd75",
    "report.txt": "d1be61b4848e1914cbdf6e09d0cc549d7091a98dee592ea2712264be657424de",
    "history.csv": "9a475f916d816142b94ce722922b1946325a09f70827d739c89fe812fe57d7d4",
}


def test_periodic_solve_artifacts_match_the_cg_preconditioned_solver(tmp_path, cache_dir,
                                                                     capsys):
    # a periodic box never separates: its polish keeps the Jacobi-CG
    # preconditioner and writes the same bytes as before the exact inverse
    cfg = write_config(tmp_path, base_config(cache_dir).replace(
        "radius = 3\n", "radius = 3\nmode = periodic\n").replace(
        "kind = coercive\nv0 = 1.0\nrate = 3.0\npower = 2.0\n",
        "kind = periodic\ntau = 1\ntable = 2.5\n"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "--seed", "1", "solve"]) == 0
    capsys.readouterr()
    run = latest_run(out)
    for name, digest in _PERIODIC_DIGESTS.items():
        assert hashlib.sha256((run / name).read_bytes()).hexdigest() == digest, name


# SHA-256 of the artifacts of warm Dirichlet runs of the module's base config
# at --seed 1 (numpy 2.4, x86-64): a change that keeps every answer keeps them
_WARM_DIGESTS = {
    "solve": {
        "solution.field": "efb592acb7484f80e55af6317fb4620a4ec0c2740b713eba8298c72b4c22b291",
        "report.txt": "ce13699ddaea35bc535c5b2648c5941326ac769c873038be2d693811dbaeaad3",
        "history.csv": "462631c1694aec72e4f71e092b71f482df38937654f88955f480e1d1091fb1c0",
    },
    "verify": {
        "suite.csv": "d2d5ea57c4f7fc2bc0ccb8db0050ec4f73ad543735b882b3734009f05d1e4ee7",
        "report.txt": "67c6a85488b9e57779829717fecd29741d2aa6d1f18e033dec3ccfd1dd71c3a6",
    },
}


@pytest.mark.parametrize("command", sorted(_WARM_DIGESTS))
def test_warm_dirichlet_artifacts_keep_their_bytes(tmp_path, cache_dir, capsys, command):
    cfg = write_config(tmp_path, base_config(cache_dir))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(tmp_path / "cold"), command]) == 0
    assert main(["--config", cfg, "--output", str(out), "--seed", "1", command]) == 0
    capsys.readouterr()
    run = latest_run(out)
    for name, digest in _WARM_DIGESTS[command].items():
        assert hashlib.sha256((run / name).read_bytes()).hexdigest() == digest, name


def test_solve_report_prints_the_potential_floor_the_solve_used(tmp_path, cache_dir, capsys):
    # a periodic potential's floor, on which eta rests, is the table minimum
    cfg = write_config(tmp_path, base_config(cache_dir).replace(
        "kind = coercive\nv0 = 1.0\nrate = 3.0\npower = 2.0\n",
        "kind = periodic\ntau = 1\ntable = 2.5\n"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "solve"]) == 0
    capsys.readouterr()
    report = (latest_run(out) / "report.txt").read_text()
    assert "potential: periodic (v0=2.5)" in report.splitlines()


def test_solve_exit3_still_writes_artifacts(tmp_path, cache_dir, capsys, monkeypatch):
    monkeypatch.setattr(nehari_module, "_MAX_ITERATIONS", 2)
    monkeypatch.setattr(nehari_module, "_NEWTON_MAX_ITERATIONS", 1)
    monkeypatch.setattr(nehari_module, "_TOLERANCE", 1e-16)
    cfg = write_config(tmp_path, base_config(cache_dir))
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
    values = dict(re.findall(r"^(energy|nehari_defect|eta_estimate)\s*=\s*(\S+)$",
                             report, re.M))
    # eta is a closed form in logs, finite where K itself overflows a double
    assert 0.0 < float(values["eta_estimate"]) < math.inf
    if re.search(r"converged\s*=\s*True", report):
        # at 1e150 the ray coefficients once underflowed to a zero drive, and
        # later an absolute residual tolerance passed the unsolved start
        assert float(values["nehari_defect"]) <= 1e-8
        # u = v / sqrt(c) leaves the b = 0, c = 1 problem up to a Kirchhoff
        # term of relative size 1/c, so the level is that problem's over c
        level = 8.387450841858964 / float(coefficient)
        assert float(values["energy"]) == pytest.approx(level, rel=1e-6, abs=0.0)
    else:
        assert re.search(r"converged\s*=\s*False", report)


def test_solve_below_unit_scale_descends_then_converges(tmp_path, cache_dir, capsys):
    # the whole gradient, about 7e-75, lay below an absolute hand-over of 1e-3:
    # the Newton polish started from the bump, stalled and the solve exited 3
    cfg = write_config(tmp_path, f"[problem]\nradius = 4\n\n[nonlinearity]\ncoefficient = "
                                 f"1e150\n\n[kernel]\ncache_dir = {cache_dir}\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "solve"]) == 0
    capsys.readouterr()
    report = (latest_run(out) / "report.txt").read_text()
    values = dict(re.findall(r"^(\w+)\s*= (.*)$", report, re.M))
    assert float(values["energy"]) == pytest.approx(8.387450841858959e-150, rel=1e-12, abs=0.0)
    assert float(values["residual"]) <= 1e-13 * float(values["residual_scale"])
    assert not values["iterations"].startswith("0 descent")


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


def test_verify_lets_a_quadrature_failure_exit_two(tmp_path, cache_dir, capsys):
    # verify builds its kernel before the solve; no check builds one
    cfg = write_config(tmp_path, VERIFY_1E200.format(cache_dir).replace("1e200", "1.0").replace(
        "radius = 4\n", "radius = 4\nalpha = 2.95\n"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--output", str(out), "verify"]) == 2
    assert "quadrature failure: heat-kernel tail cutoff overflows" in capsys.readouterr().err
    assert not (latest_run(out) / "suite.csv").exists()


def test_solve_ray_root_failure_exits_three_with_artifacts(tmp_path, cache_dir, capsys,
                                                          monkeypatch):
    calls = [0]
    # bound now: a first lookup under the patch would bind kc.nehari_scale to the patch
    real = kc.nehari_scale

    def failing_scale(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 3:
            raise RuntimeError("injected ray-root failure")
        return real(*args, **kwargs)

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
    pytest.param("[sweep]\nparameter = radius\nvalues = 2 1000000\n", "values = 2 1000000",
                 "[sweep] values: a radius-2000000 kernel table takes", id="radius-beyond-memory"),
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
    pytest.param("solve", "[problem]\nradius = 1000000\n",
                 "run.cfg:2: [problem] radius: a radius-2000000 kernel table takes",
                 id="solve-radius-beyond-memory"),
    pytest.param("sweep", "[problem]\nradius = 1000000\n\n[sweep]\nparameter = b\nvalues = 0 1\n",
                 "run.cfg:2: [problem] radius: a radius-2000000 kernel table takes",
                 id="b-sweep-radius-beyond-memory"),
    pytest.param("sweep", "[kernel]\ntable_radius = 4\n\n[sweep]\nparameter = b\nvalues = 0 1\n",
                 "run.cfg:2: [kernel] table_radius: 4 cannot cover", id="b-sweep-table-radius"),
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


def test_non_ascii_text_runs_and_undecodable_config_exits_one(tmp_path, cache_dir, capsys):
    cfg = write_config(tmp_path, "# température du réseau\n" + base_config(cache_dir))
    out = tmp_path / "out-é"
    assert main(["--config", cfg, "--output", str(out), "solve"]) == 0
    assert f"run directory: {out}" in capsys.readouterr().out
    snapshot = (latest_run(out) / "config.snapshot").read_text(encoding="utf-8")
    assert kc.RunConfig.from_text(snapshot).output_directory == str(out)
    # a config that is not UTF-8 is a config error at the line of its first bad byte
    Path(cfg).write_bytes(b"[problem]\nradius = 3\n# temp\xe9rature\n")
    other = tmp_path / "other"
    assert main(["--config", cfg, "--output", str(other), "solve"]) == 1
    assert "run.cfg:3: not valid UTF-8" in capsys.readouterr().err
    assert not other.exists()


@pytest.mark.parametrize("encoding, shown", [("ascii", b"out-\\xe9"),
                                             ("utf-8", "out-é".encode("utf-8"))])
def test_a_stdout_that_cannot_encode_the_run_directory_escapes_it(tmp_path, cache_dir, encoding,
                                                                  shown):
    # escaped as Python's own stderr does, so the run still writes its artifacts and exits 0
    cfg = write_config(tmp_path, base_config(cache_dir))
    src = str(Path(kc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONIOENCODING=encoding, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-m", "kclattice.cli", "--config", cfg,
                             "--output", "out-é", "green"], cwd=tmp_path, env=env,
                            capture_output=True, timeout=600)
    assert result.returncode == 0, result.stderr
    assert b"run directory: " + shown in result.stdout
    assert (latest_run(tmp_path / "out-é") / "report.txt").exists()


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
    # the stopping rule is relative to the gradient's scale, not a key
    "gradient-tolerance": ("solve", "[solver]\ngradient_tolerance = 1e-9\n",
                           "gradient_tolerance = 1e-9",
                           "unknown key 'gradient_tolerance' in section [solver]"),
    # the power's superlinearity index is 2p
    "theta": ("verify", "[nonlinearity]\ntheta = 6\n", "theta = 6",
              "unknown key 'theta' in section [nonlinearity]"),
    "negative-seed": ("verify", "[solver]\nseed = -1\n", "seed = -1",
                      "[solver] seed must be nonnegative"),
    "verify-radius": ("verify", "[verify]\nradii = -1 3\n", "radii = -1 3",
                      "[verify] radii: box radius must be a nonnegative integer"),
    "table-radius": ("solve", None, "table_radius = 2",
                     "[kernel] table_radius: 2 cannot cover a dirichlet box of radius 3"),
    "verify-trials": ("verify", "[verify]\ntrials = 0\n", "trials = 0",
                      "[verify] trials: must be at least 1"),
    # a kernel table the machine cannot hold, 8 (2m + 1)^3 bytes, is refused at the key
    # that sets its radius m
    "verify-radii-beyond-memory": ("verify", "[verify]\nradii = 4 1000000\n",
                                   "radii = 4 1000000",
                                   "[verify] radii: a radius-2000000 kernel table takes"),
    "table-radius-beyond-memory": ("solve", None, "table_radius = 1000000",
                                   "[kernel] table_radius: a radius-1000000 kernel table takes"),
    "green-table-radius-beyond-memory": (
        "green", None, "table_radius = 1000000",
        "[kernel] table_radius: a radius-1000000 kernel table takes"),
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


@pytest.mark.parametrize("case", ["other-box", "unparsable", "zero"])
def test_bad_initial_file_exits_one_naming_it(tmp_path, cache_dir, capsys, case):
    start = tmp_path / "start.field"
    if case == "other-box":
        kc.save_field_text(kc.Field.zeros(kc.LatticeBox(2)), start)
        message = f"{start} holds a field on a radius-2 dirichlet box"
    elif case == "zero":
        # the zero field has no ray to the Nehari set; the solver raises, not reports, on it
        kc.save_field_text(kc.Field.zeros(kc.LatticeBox(3)), start)
        message = f"{start} holds the zero field, which no solve can start from"
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

    monkeypatch.setattr(config_module, "load_field_text", counted)
    text = base_config(cache_dir, f"[solver]\ninitial_guess = file\ninitial_file = {start}\n\n"
                       "[verify]\ntrials = 4\nmp_trials = 4\nfiber_fields = 1\n"
                       "level_samples = 2\nradii = 2 3\n")
    cfg = write_config(tmp_path, text)
    assert main(["--config", cfg, "--output", str(tmp_path / "out"), command]) in (0, 4)
    capsys.readouterr()
    assert reads == [str(start)]


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_table_radius_is_worked_out_once_per_run(tmp_path, cache_dir, capsys, monkeypatch,
                                                 command):
    calls = []
    for name in ("solve_table_radius", "verify_table_radius"):
        def counted(self, original=getattr(kc.RunConfig, name), name=name):
            calls.append(name)
            return original(self)

        monkeypatch.setattr(kc.RunConfig, name, counted)
    text = base_config(cache_dir, "[verify]\ntrials = 4\nmp_trials = 4\nfiber_fields = 1\n"
                       "level_samples = 2\nradii = 2 3\n")
    cfg = write_config(tmp_path, text)
    assert main(["--config", cfg, "--output", str(tmp_path / "out"), command]) in (0, 4)
    capsys.readouterr()
    assert calls == [f"{command}_table_radius"]


@pytest.mark.parametrize("command, built", [("solve", [8]), ("verify", [4, 6, 8, 10])])
def test_a_run_builds_one_potential_table_per_box(tmp_path, cache_dir, capsys, monkeypatch,
                                                  command, built):
    # the reference problem; the solver's start and the suite's directions read its minimum
    # site off the table the problem already holds
    radii = []
    table_on = kc.PotentialSpec.table_on
    monkeypatch.setattr(kc.PotentialSpec, "table_on",
                        lambda self, box: radii.append(box.radius) or table_on(self, box))
    text = ("[problem]\nb = 1.0\nradius = 8\n\n"
            "[potential]\nkind = coercive\nv0 = 1.0\nrate = 1.0\npower = 2.0\n\n"
            f"[kernel]\ncache_dir = {cache_dir}\n\n"
            "[verify]\ntrials = 4\nmp_trials = 4\nfiber_fields = 1\nlevel_samples = 2\n"
            "radii = 4 6 8 10\n")
    cfg = write_config(tmp_path, text)
    assert main(["--config", cfg, "--output", str(tmp_path / "out"), command]) == 0
    capsys.readouterr()
    assert sorted(radii) == built


def test_negative_seed_flag_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--seed", "-1", "--output", str(out), "solve"]) == 1
    assert "error: <cli>:0: --seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_green_rejects_a_negative_table_radius_at_its_line(tmp_path, capsys, monkeypatch):
    def unbuildable(*args, **kwargs):
        raise AssertionError("no kernel should be built for a rejected config")

    monkeypatch.setattr(cli_module, "build_kernel", unbuildable)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "[problem]\nradius = 2\n\n[kernel]\ntable_radius = -1\n")
    assert main(["--config", cfg, "--output", str(out), "green"]) == 1
    err = capsys.readouterr().err
    assert "run.cfg:5: [kernel] table_radius: must be nonnegative" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_options_may_follow_the_command(tmp_path, cache_dir, capsys):
    cfg = write_config(tmp_path, base_config(cache_dir))
    before, after = tmp_path / "before", tmp_path / "after"
    assert main(["--config", cfg, "--output", str(before), "solve"]) == 0
    assert main(["solve", "--config", cfg, "--output", str(after)]) == 0
    capsys.readouterr()
    field = "solution.field"
    assert (latest_run(before) / field).read_bytes() == (latest_run(after) / field).read_bytes()


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


# run before kclattice is imported: LAPACK's decompositions and least-squares
# fits raise, and after the run a 2-D product and an eigh report how many kB
# of numpy's BLAS/LAPACK library they map.  The first call of a BLAS-3
# product or of a LAPACK decomposition maps pages that raise a warm run's
# peak resident set by 0.4-0.9 MB; where the run made such a call, the same
# call after it maps nothing new.  The page count sees the `@` operator,
# np.dot and tensordot, which reach the BLAS at C level without any numpy
# attribute a patch could replace.  It does not see lstsq, whose pages an
# eigh does not map, so lstsq is patched, and so is polyfit, which holds its
# own reference to lstsq.
_NO_LAPACK_OR_BLAS3 = """
import numpy, numpy.linalg
_eigh = numpy.linalg.eigh
def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(name + " called")
    return call
for _name in ("eigh", "eigvalsh", "solve", "lstsq"):
    setattr(numpy.linalg, _name, _forbidden("numpy.linalg." + _name))
numpy.polyfit = _forbidden("numpy.polyfit")
def _blas_kb():
    total, found, take = 0, False, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            head = line.split()
            if len(head) >= 5 and not head[0].endswith(":"):
                path = head[5].lower() if len(head) > 5 else ""
                take = "blas" in path or "lapack" in path
                found = found or take
            elif take and head[0] == "Rss:":
                total += int(head[1])
    return total if found else None
def _fresh_blas_kb():
    before = _blas_kb()
    if before is None:
        return None
    numpy.ones((17, 17)) @ numpy.ones((17, 289))
    gemm = _blas_kb()
    _eigh(numpy.eye(5))
    return {"gemm": gemm - before, "eigh": _blas_kb() - gemm}
"""


def _fresh_process(args, environ=os.environ):
    """Run the interpreter with ``args`` in a fresh process that imports this
    kclattice, in ``environ``; the completed process, its output captured as text."""
    src = str(Path(kc.__file__).resolve().parents[1])
    env = dict(environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=600)


def _in_fresh_interpreter(script):
    """Run ``script`` in a fresh interpreter that imports this kclattice;
    the JSON value its last line of output prints."""
    result = _fresh_process(["-c", script])
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _main_call(cfg, out, command):
    """Source of a ``main`` call that runs ``command`` at --seed 1."""
    return (f"main(['--config', {str(cfg)!r}, '--output', {str(out)!r}, "
            f"'--seed', '1', {command!r}])")


def _modules_after(tmp_path, config_text, command, prelude=""):
    """Run ``command`` in a fresh interpreter with LAPACK's decompositions
    disabled, after the source ``prelude``; its exit code, the modules it
    loaded and the kB of BLAS/LAPACK pages that a 2-D product and an eigh map
    after it (None without a /proc/self/smaps that names such a library)."""
    cfg = write_config(tmp_path, config_text)
    return _in_fresh_interpreter(
        "import json, os, sys\n"
        + _NO_LAPACK_OR_BLAS3 + prelude +
        "from kclattice.cli import main\n"
        f"code = main(['--config', {cfg!r}, '--output', {str(tmp_path / 'out')!r}, {command!r}])\n"
        "fresh = _fresh_blas_kb() if os.path.exists('/proc/self/smaps') else None\n"
        "print(json.dumps([code, sorted(sys.modules), fresh]))\n"
    )


def _assert_no_blas3_or_lapack_ran(fresh):
    if fresh is None:
        pytest.skip("no /proc/self/smaps mapping of a BLAS or LAPACK library to count")
    assert fresh["gemm"] > 0, "the run already mapped the BLAS-3 product's pages"
    assert fresh["eigh"] > 0, "the run already mapped LAPACK eigh's pages"


def _under(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


@pytest.fixture(scope="module")
def warm_solve_modules(tmp_path_factory, warm_cache):
    """Exit code, loaded modules and fresh BLAS/LAPACK pages of the reference
    solve on the warm cache."""
    return _modules_after(tmp_path_factory.mktemp("warm_solve"),
                          f"[kernel]\ncache_dir = {warm_cache}\n", "solve")


def test_warm_solve_imports_no_scipy(warm_solve_modules):
    # scipy is only needed to build a table; a fresh process solving the
    # reference problem on a cached table must not pay its import
    code, modules, _ = warm_solve_modules
    assert code == 0
    assert _under(modules, "scipy") == []


def test_warm_solve_loads_neither_the_suite_nor_numpy_polynomial(warm_solve_modules):
    # a solve loads only the code it runs: the property suite and
    # numpy.polynomial, which no kclattice module uses, stay unloaded
    code, modules, _ = warm_solve_modules
    assert code == 0
    assert "kclattice.nehari" in modules
    assert _under(modules, "kclattice.verify") == []
    assert _under(modules, "numpy.polynomial") == []


def test_warm_solve_runs_no_blas3_product_or_lapack_decomposition(warm_solve_modules):
    # the Newton polish's exact inverse factors and applies with plain-Python
    # rotations and 2-D einsum: a warm solve leaves those pages unmapped
    code, _, fresh = warm_solve_modules
    assert code == 0
    _assert_no_blas3_or_lapack_ran(fresh)


# numpy.random maps 2.5 MB of extension modules and, through secrets and
# hmac, OpenSSL's libcrypto, 3.5 MB resident; the cache digest comes from
# CPython's own SHA-256 and sampled fields from kclattice.splitmix
_NOT_LOADED = ("numpy.random", "secrets", "hmac", "hashlib", "_hashlib")


def _assert_no_openssl_or_numpy_random(modules):
    for package in _NOT_LOADED:
        assert _under(modules, package) == [], package


def test_warm_solve_loads_no_openssl(warm_solve_modules):
    code, modules, _ = warm_solve_modules
    assert code == 0
    _assert_no_openssl_or_numpy_random(modules)
    # the Gaussian-bump start draws nothing
    assert "kclattice.splitmix" not in modules


def test_warm_random_start_solve_loads_no_openssl_or_numpy_random(tmp_path, warm_cache):
    code, modules, fresh = _modules_after(
        tmp_path, f"[solver]\ninitial_guess = random\n\n[kernel]\ncache_dir = {warm_cache}\n",
        "solve")
    assert code == 0
    assert "kclattice.splitmix" in modules
    _assert_no_openssl_or_numpy_random(modules)
    _assert_no_blas3_or_lapack_ran(fresh)


# a small warm verify of the radius-4 problem on the alpha = 1, radius-16 table
def _warm_verify_config(warm_cache):
    return (
        "[problem]\nradius = 4\n\n"
        "[potential]\nkind = coercive\nv0 = 1.0\nrate = 3.0\npower = 2.0\n\n"
        f"[kernel]\ncache_dir = {warm_cache}\n\n"
        "[verify]\ntrials = 4\nmp_trials = 4\nfiber_fields = 1\nlevel_samples = 2\n"
        "radii = 6 8\n"
    )


def test_warm_verify_imports_no_scipy(tmp_path, warm_cache):
    # the property suite, the segment referee included, runs on numpy; where
    # run_suite forks, this sees the caller's half of the checks only
    code, modules, fresh = _modules_after(tmp_path, _warm_verify_config(warm_cache), "verify")
    assert code == 0
    assert "kclattice.verify" in modules
    assert _under(modules, "scipy") == []
    _assert_no_openssl_or_numpy_random(modules)
    _assert_no_blas3_or_lapack_ran(fresh)


# pins the fresh interpreter to one CPU, where run_suite runs every check in
# process; a fork raises
_ONE_CPU = """
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
def _no_fork():
    raise AssertionError("os.fork called")
os.fork = _no_fork
"""


def _requires_affinity():
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity to pin a process to one CPU")


def test_warm_verify_on_one_cpu_runs_every_check_without_scipy_or_lapack(tmp_path, warm_cache):
    # the checks a forked worker runs elsewhere run here in the guarded process
    _requires_affinity()
    code, modules, fresh = _modules_after(tmp_path, _warm_verify_config(warm_cache), "verify",
                                          prelude=_ONE_CPU)
    assert code == 0
    assert _under(modules, "scipy") == []
    _assert_no_openssl_or_numpy_random(modules)
    _assert_no_blas3_or_lapack_ran(fresh)


def test_warm_verify_on_one_cpu_writes_the_bytes_of_a_free_run(tmp_path, warm_cache):
    _requires_affinity()
    cfg = write_config(tmp_path, _warm_verify_config(warm_cache))
    count_forks = "_fork = os.fork\nos.fork = lambda: forks.append(1) or _fork()\n"
    runs = {}
    for route, prelude in (("one_cpu", _ONE_CPU), ("free", count_forks)):
        runs[route] = _in_fresh_interpreter(
            "import json, os\n"
            "forks = []\n"
            + prelude +
            "from kclattice.cli import main\n"
            f"code = {_main_call(cfg, tmp_path / route, 'verify')}\n"
            "print(json.dumps([code, len(forks)]))\n")
    assert runs == {"one_cpu": [0, 0], "free": [0, int(verify_module._may_fork())]}
    for name in ("suite.csv", "report.txt"):
        assert ((latest_run(tmp_path / "one_cpu") / name).read_bytes()
                == (latest_run(tmp_path / "free") / name).read_bytes()), name


def test_verify_exits_4_without_a_traceback_when_its_worker_is_killed(tmp_path, warm_cache):
    if not verify_module._may_fork():
        pytest.skip("run_suite runs in process here: one CPU, or other threads")
    cfg = write_config(tmp_path, _warm_verify_config(warm_cache))
    result = _fresh_process(["-c", (
        "import json, os, signal\n"
        "import kclattice.verify\n"
        "from kclattice.cli import main\n"
        "caller = os.getpid()\n"
        "def killed(*args, **kwargs):\n"
        "    assert os.getpid() != caller, 'the check ran in the caller'\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
        "kclattice.verify.check_hls = killed\n"
        f"print(json.dumps({_main_call(cfg, tmp_path / 'out', 'verify')}))\n")])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == cli_module.EXIT_VERIFY_FAILED == 4
    assert "Traceback" not in result.stderr
    assert result.stderr.endswith("failing checks: kernel-integrity, mountain-pass-geometry, "
                                  "hls-ratio, fiber-monotonicity\n")
    witness = f"witness: check worker was killed by signal {int(signal.SIGKILL)} before it reported"
    assert result.stdout.count(witness) == 4


def test_verify_on_a_pipe_announces_its_run_directory_once(tmp_path, warm_cache):
    # the worker ends without flushing the output buffer it inherited, which
    # holds the announcement where stdout is a buffered pipe
    cfg = write_config(tmp_path, _warm_verify_config(warm_cache))
    buffered = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    result = _fresh_process(["-m", "kclattice.cli", "--config", cfg,
                             "--output", str(tmp_path / "out"), "verify"], buffered)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("run directory:") == 1


# a warm run loads the package modules its command imports, and no others
_SOLVE_PATH = ["kclattice", "kclattice.cli", "kclattice.config", "kclattice.energy",
               "kclattice.kernel", "kclattice.krylov", "kclattice.lattice", "kclattice.nehari"]


def test_warm_solve_loads_exactly_the_solve_path(warm_solve_modules):
    code, modules, _ = warm_solve_modules
    assert code == 0
    assert _under(modules, "kclattice") == _SOLVE_PATH


def test_warm_verify_loads_exactly_the_solve_path_and_the_suite(tmp_path, warm_cache):
    code, modules, _ = _modules_after(tmp_path, _warm_verify_config(warm_cache), "verify")
    assert code == 0
    assert _under(modules, "kclattice") == sorted(
        _SOLVE_PATH + ["kclattice.splitmix", "kclattice.verify"])


def test_a_public_name_loads_its_module_on_first_use():
    # the package's __getattr__ serves each exported name, binds it for later uses,
    # and serves nothing else
    steps = _in_fresh_interpreter(
        "import json, sys\n"
        "import kclattice\n"
        "def step():\n"
        "    return [sorted(m for m in sys.modules if m.startswith('kclattice.')),\n"
        "            sorted(set(vars(kclattice)) & set(kclattice.__all__))]\n"
        "steps = [hasattr(kclattice, 'nehari_radius'), step()]\n"
        "kclattice.LatticeBox\n"
        "steps.append(step())\n"
        "kclattice.run_suite\n"
        "steps.append(step())\n"
        "print(json.dumps(steps))\n")
    unexported, imported, lattice_name, suite_name = steps
    assert unexported is False
    assert imported == [[], []]
    assert lattice_name == [["kclattice.lattice"], ["LatticeBox"]]
    assert "kclattice.verify" in suite_name[0]
    assert suite_name[1] == ["LatticeBox", "run_suite"]


def test_library_import_leaves_the_collector_alone():
    # only a command-line run freezes the heap; importing the package,
    # its command-line module included, must not touch the collector
    before, after = _in_fresh_interpreter(
        "import gc, json\n"
        "before = [gc.isenabled(), gc.get_freeze_count()]\n"
        "import kclattice, kclattice.cli\n"
        "print(json.dumps([before, [gc.isenabled(), gc.get_freeze_count()]]))\n")
    assert before == after == [True, 0]


def test_cli_run_freezes_the_imported_heap_once_and_keeps_the_collector_on(tmp_path,
                                                                           warm_cache):
    # the exit collection skips what was alive when the first main call
    # started; later calls freeze nothing, or each would keep the cycles an
    # earlier run left uncollected (its argument parser's among them) forever
    cfg = write_config(tmp_path, f"[kernel]\ncache_dir = {warm_cache}\n")
    code, enabled, frozen, later = _in_fresh_interpreter(
        "import gc, json\n"
        "from kclattice.cli import main\n"
        f"code = {_main_call(cfg, tmp_path / 'out', 'solve')}\n"
        "frozen = gc.get_freeze_count()\n"
        "assert [main(['no-such-command']) for _ in range(3)] == [1, 1, 1]\n"
        "print(json.dumps([code, gc.isenabled(), frozen, gc.get_freeze_count()]))\n")
    assert code == 0
    assert enabled is True
    assert frozen > 0
    assert later == frozen


def test_two_runs_in_one_interpreter_write_the_bytes_of_separate_processes(tmp_path,
                                                                           warm_cache):
    # the second main call runs on the heap the first one froze and left
    # its own objects in; its answers must not depend on either
    cfg = write_config(tmp_path, _warm_verify_config(warm_cache))
    codes = _in_fresh_interpreter(
        "import json\n"
        "from kclattice.cli import main\n"
        f"codes = [{_main_call(cfg, tmp_path / 'shared_solve', 'solve')}, "
        f"{_main_call(cfg, tmp_path / 'shared_verify', 'verify')}]\n"
        "print(json.dumps(codes))\n")
    assert codes == [0, 0]
    for command, digests in _WARM_DIGESTS.items():
        code = _in_fresh_interpreter(
            "import json\n"
            "from kclattice.cli import main\n"
            f"print(json.dumps({_main_call(cfg, tmp_path / ('own_' + command), command)}))\n")
        assert code == 0
        shared = latest_run(tmp_path / f"shared_{command}")
        own = latest_run(tmp_path / f"own_{command}")
        for name in digests:
            assert (shared / name).read_bytes() == (own / name).read_bytes(), (command, name)
