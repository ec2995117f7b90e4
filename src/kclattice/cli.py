"""Command-line entry point.

Commands: ``green`` (kernel tables), ``solve`` (one ground state),
``verify`` (the property suite), ``sweep`` (one parameter, many solves);
options may come before or after the command.
Every run writes its artifacts under ``<output>/<timestamp>/`` next to a
snapshot of the exact configuration that produced them.  Each command
makes its config checks before that directory exists, so a rejected run
leaves none.

Exit codes: 0 success; 1 configuration problem; 2 kernel quadrature
failure; 3 solver non-convergence (artifacts are still written); 4
verify-suite check failures.
"""

from __future__ import annotations

# the package's modules load before the standard library's and numpy: a run's
# peak resident set follows the order in which modules are compiled, and is
# about 0.2 MB lower in this one
from .config import ConfigError, RunConfig
from .kernel import QuadratureError, build_kernel, fit_decay_exponent
from .lattice import save_field_text
from .nehari import solve_ground_state

import argparse
import gc
import io
import itertools
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_QUADRATURE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFY_FAILED = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # config and usage mistakes share one exit code; argparse's default
    # SystemExit(2) would collide with the quadrature-failure code
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kclattice",
        description="Ground states of Kirchhoff-Choquard equations on lattice boxes.",
    )
    parser.add_argument("command", choices=_COMMANDS,
                        help="green builds and caches the kernel table, solve solves for the "
                        "ground state, verify runs the property suite, sweep solves across "
                        "one parameter range")
    parser.add_argument("--config", metavar="PATH", help="run configuration file")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override the configured master seed")
    parser.add_argument("--output", metavar="DIR",
                        help="override the configured output directory")
    return parser


def _load_run_config(args) -> RunConfig:
    if args.config is None:
        config = RunConfig.defaults()
    else:
        config = RunConfig.from_file(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("<cli>", 0, "--seed must be nonnegative")
        config = replace(config, seed=args.seed)
    if args.output is not None:
        config = replace(config, output_directory=args.output)
    return config


def _open_run(config: RunConfig) -> Path:
    """A new run directory holding the config snapshot, announced on stdout.

    The directory is <stamp>, <stamp>-1, ... under the output directory;
    mkdir itself arbitrates races.
    """
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    base = Path(config.output_directory)
    base.mkdir(parents=True, exist_ok=True)
    for counter in itertools.count():
        run_dir = base / (f"{stamp}-{counter}" if counter else stamp)
        try:
            run_dir.mkdir()
        except FileExistsError:
            continue
        (run_dir / "config.snapshot").write_text(config.to_text(), encoding="utf-8")
        print(f"run directory: {run_dir}")
        return run_dir


def _kernel_for(config: RunConfig, table_radius: int):
    cache_dir = config.cache_dir
    if cache_dir is None:
        cache_dir = str(Path(config.output_directory) / "kernel_cache")
    return build_kernel(config.alpha, table_radius, cache_dir=cache_dir)


def _report_kernel(kernel, out) -> None:
    status = "cached" if kernel.meta.get("cached") else "written"
    print(f"kernel table: {status} ({kernel.meta.get('cache_path', 'not cached')})", file=out)
    print(f"normalization K_alpha = {kernel.k_alpha!r}", file=out)
    if kernel.table_radius >= 6:
        slope = fit_decay_exponent(kernel)
        print(f"fitted decay exponent = {slope:.4f} "
              f"(alpha - 3 = {kernel.alpha - 3.0:.4f})", file=out)


def cmd_green(config: RunConfig) -> int:
    # green tabulates the radius it is given, whether or not it covers the box
    radius = config.solve_table_radius() if config.table_radius is None else config.table_radius
    run_dir = _open_run(config)
    kernel = _kernel_for(config, radius)
    report = io.StringIO()
    _report_kernel(kernel, report)
    sys.stdout.write(report.getvalue())
    octant = run_dir / "octant.csv"
    with open(octant, "w", encoding="utf-8") as handle:
        handle.write("z1,z2,z3,R_alpha\n")
        for z1, z2, z3 in kernel.octant_triples():
            handle.write(f"{z1},{z2},{z3},{kernel.value((z1, z2, z3)):.17g}\n")
    (run_dir / "report.txt").write_text(report.getvalue(), encoding="utf-8")
    print(f"octant table: {octant}")
    return EXIT_OK


def _solve_report_text(config: RunConfig, spec, report) -> str:
    u = report.solution
    lines = [
        "ground-state solve report",
        f"problem: a={config.a!r} b={config.b!r} alpha={config.alpha!r} "
        f"p={config.exponent!r} c={config.coefficient!r}",
        f"potential: {config.potential_kind} (v0={float(spec.potential_table.min())!r})",
        f"box: radius={config.radius} mode={config.mode}",
        f"seed: {config.seed}",
        "",
        f"energy          = {report.energy!r}",
        f"residual        = {report.residual!r}",
        f"residual_scale  = {report.residual_scale!r}",
        f"h_residual      = {report.h_residual!r}",
        f"nehari_defect   = {report.nehari_defect!r}",
        f"eta_estimate    = {report.eta_estimate!r}",
        f"max_amplitude   = {float(np.abs(u.values).max())!r}",
        f"iterations      = {report.iterations} descent + {report.newton_iterations} newton",
        f"converged       = {report.converged}",
        f"message         = {report.message}",
        "",
    ]
    return "\n".join(lines)


def _write_history(report, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("iteration,energy,residual,s_u\n")
        for i, (e, r, s) in enumerate(report.history):
            handle.write(f"{i},{e:.17g},{r:.17g},{s:.17g}\n")


def cmd_solve(config: RunConfig) -> int:
    table_radius = config.solve_table_radius()
    spec = config.problem_spec()
    start = config.start_field(spec)
    run_dir = _open_run(config)
    report = solve_ground_state(spec, _kernel_for(config, table_radius), start)
    save_field_text(report.solution, run_dir / "solution.field")
    (run_dir / "report.txt").write_text(_solve_report_text(config, spec, report), encoding="utf-8")
    _write_history(report, run_dir / "history.csv")
    print(f"energy = {report.energy!r}")
    print(f"residual = {report.residual:.3e}  nehari defect = {report.nehari_defect:.3e}")
    print(f"iterations = {report.iterations}+{report.newton_iterations}  "
          f"converged = {report.converged}")
    if not report.converged:
        print(f"NOT CONVERGED: {report.message}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    from .verify import require_origin_center, run_suite, suite_csv, suite_passed, suite_summary

    table_radius = config.verify_table_radius()
    spec = config.problem_spec()
    try:
        require_origin_center(spec.potential)
    except ValueError as exc:
        raise config.sections["potential"].error("center", str(exc)) from None
    start = config.start_field(spec)
    run_dir = _open_run(config)
    kernel = _kernel_for(config, table_radius)
    reports = run_suite(
        spec,
        kernel,
        solve_ground_state(spec, kernel, start),
        seed=config.seed,
        trials=config.verify_trials,
        mp_trials=config.verify_mp_trials,
        fiber_fields=config.verify_fiber_fields,
        level_samples=config.verify_level_samples,
        radii=config.verify_radii,
    )
    summary = suite_summary(reports)
    (run_dir / "suite.csv").write_text(suite_csv(reports), encoding="utf-8")
    (run_dir / "report.txt").write_text(summary, encoding="utf-8")
    print(summary, end="")
    if not suite_passed(reports):
        failing = ", ".join(r.name for r in reports if not r.passed)
        print(f"failing checks: {failing}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_sweep(config: RunConfig) -> int:
    param = config.sweep_parameter
    if param is None:
        raise config.sections["sweep"].error("parameter", "must be set for the sweep command")
    if param != "radius":  # every point solves on the base box, so one table check serves all
        config.solve_table_radius()
    run_dir = _open_run(config)
    rows = []
    observations = []
    energies = []
    for value in config.sweep_values:
        point = config.sweep_point(value)
        try:
            kernel = _kernel_for(point, point.solve_table_radius())
            spec = point.problem_spec()
            report = solve_ground_state(spec, kernel, point.start_field(spec))
        except (ValueError, QuadratureError) as exc:
            observations.append(f"# observation: point {param}={value!r} failed: {exc}")
            rows.append(f"{param},{value:.17g},nan,nan,nan,0")
            energies.append(math.nan)
            continue
        rows.append(
            f"{param},{value:.17g},{report.energy:.17g},{report.residual:.17g},"
            f"{spec.h_norm(report.solution):.17g},{report.iterations + report.newton_iterations}"
        )
        energies.append(report.energy)
        if not report.converged:
            observations.append(
                f"# observation: point {param}={value!r} did not converge: {report.message}")
    all_converged = not observations
    if param == "b" and len(energies) > 1 and all(math.isfinite(e) for e in energies):
        ordered = all(
            e2 >= e1 - 1.0e-6 * max(1.0, abs(e1))
            for e1, e2 in zip(energies, energies[1:])
        )
        observations.append(
            "# observation: energy nondecreasing in b: " + ("yes" if ordered else "NO"))
    content = "param,value,energy,residual,norm,iterations\n"
    content += "".join(row + "\n" for row in rows)
    content += "".join(line + "\n" for line in observations)
    (run_dir / "sweep.csv").write_text(content, encoding="utf-8")
    (run_dir / "report.txt").write_text(content, encoding="utf-8")
    print(content, end="")
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


_COMMANDS = {
    "green": cmd_green,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    The first call freezes everything alive when it starts (the imported
    modules, numpy's internals) into the collector's permanent generation,
    so the collection at interpreter exit skips it and the cyclic collector
    never reclaims those objects. Later calls freeze nothing: by then the
    heap also holds earlier runs' uncollected cycles, which would never be
    reclaimed either.

    A stdout that cannot encode a character, such as one of a run
    directory's name, escapes it as Python's own stderr does.
    """
    if not gc.get_freeze_count():
        gc.freeze()
    reconfigure = getattr(sys.stdout, "reconfigure", None)  # an io.StringIO has none
    if reconfigure is not None:
        reconfigure(errors="backslashreplace")
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](_load_run_config(args))
    except (_UsageError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE


if __name__ == "__main__":
    sys.exit(main())
