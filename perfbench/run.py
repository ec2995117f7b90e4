"""Benchmark of the kclattice command line: solve, verify and sweep.

    python3 perfbench/run.py --workload solve-ref --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1 --quick

Each workload runs the real ``kclattice`` CLI (``kclattice.cli.main``, from
``src/`` of this checkout) in a fresh child process, one child at a time,
until ``--seconds`` have passed, and reports medians over the children.
Every child gets its own output directory and kernel cache under
``.perfbench_work/``, which is removed at exit; BLAS and OpenMP are pinned
to one thread and the FFT keeps its default single worker.

``--trace 0`` reports the end-to-end metrics, timed with no hooks but the
one that marks the return of the first ``build_kernel``:

* ``wall_s``: spawn to exit of the child.
* ``setup_s``: spawn to the return of the first ``build_kernel`` (imports,
  config parsing, the run directory, and the kernel build or cache load).
* ``peak_rss_mb``: the child's own peak resident set, from ``os.wait4``
  (``RUSAGE_CHILDREN`` would be a maximum over every child so far).

The speed of a small shared machine can change by a factor of two within a
minute, for interpreter start-up and FFTs alike, so ``wall_s`` and
``setup_s`` are reported at a fixed reference speed.  Before the first
child and after every child the benchmark times ``calibrate.py``, a fixed
numpy/scipy task that does not import kclattice (after a child, repeated
for at least ``CALIBRATION_SHARE`` of that child's time), and scales each
child's times by ``CALIBRATION_REFERENCE_S`` over the mean of the two
calibrations around it: the times the child would take where ``calibrate.py`` takes exactly
``CALIBRATION_REFERENCE_S``.  The medians of the unscaled times and of the
calibration are printed beside them.  Per-layer times are not scaled.

``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of ``layers.py`` (medians over traced children) and
``trace.overhead_s``, the median over neighbouring pairs of traced minus
untraced ``wall_s``.

Every operation is checked from the run's artifacts, and ``failed`` counts
the operations that miss their gate (``fail_ratio`` = failed / attempted):

* solve-ref, one operation per child: exit code 0, and in ``report.txt`` the
  level within 1e-9 (relative) of 3212.704611141712 and the residual and
  Nehari defect at most 1e-8.
* verify-suite, one operation per property check: its ``suite.csv`` row
  passes.
* sweep-periodic, one operation per sweep point: its ``sweep.csv``
  residual is at most 1e-8.  No level reference is kept for these points.

sweep-periodic is not listed in ``BENCHMARK.json``: a benchmarked workload
must be one on which no operation fails, and every periodic point fails
through the recentering defect named in ``KNOWN_DEFECT``.  It stays here so
that ``--workload sweep-periodic`` (or ``all``) shows the defect, and goes
back into ``BENCHMARK.json`` once the defect is fixed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--quick`` runs
one child per workload (two with ``--trace 1``) on cut-down inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import EXIT_NO_PROGRAM  # noqa: E402
from layers import CHECKS, PER_LAYER  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

REFERENCE_LEVEL = 3212.704611141712
LEVEL_RTOL = 1.0e-9
RESIDUAL_MAX = 1.0e-8

# counts of the reference solve at the commit that introduced this benchmark
SEED_COMMIT_COUNTS = {"kernel.conv_calls": 536, "nehari.descent_steps": 110,
                      "nehari.newton_steps": 2}

KNOWN_DEFECT = (
    "known defect: solve_ground_state (nehari.py) recenters a periodic "
    "solution by a shift that is not a multiple of the potential period tau, "
    "so the returned field is no longer a critical point (converged=False, "
    "message 'ok')"
)

CHILD_TIMEOUT_S = 150.0
# the time of calibrate.py at the reference speed the times are reported at
CALIBRATION_REFERENCE_S = 1.0
# calibrate.py is repeated for at least this share of the child just run, so
# that a long child, which averages the machine's speed over a long time, is
# not scaled by a speed sampled over one second
CALIBRATION_SHARE = 0.1
# a median needs more than one sample; a traced run needs one child of each kind
MIN_CHILDREN = 2
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

clock = time.monotonic


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (program missing, set-up failed)."""


# ---------------------------------------------------------------------------
# workloads


def _ini(sections) -> str:
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
    return "\n".join(lines) + "\n"


# acceptance criterion 08: Dirichlet box of radius 8, V = 1 + |x|^2,
# alpha = 1, a = b = 1, p = 3, Gaussian-bump start
REFERENCE_PROBLEM = {
    "problem": {"a": "1.0", "b": "1.0", "alpha": "1.0", "radius": "8", "mode": "dirichlet"},
    "potential": {"kind": "coercive", "v0": "1.0", "rate": "1.0", "power": "2.0"},
    "nonlinearity": {"coefficient": "1.0", "exponent": "3.0"},
    "solver": {"initial_guess": "gaussian_bump"},
}


class Workload:
    command = ""
    warm_cache = True

    def sections(self, seed, quick):
        raise NotImplementedError

    def prebuild_sections(self, seed, quick):
        """Config whose ``green`` run fills the cache the workload reads."""
        return self.sections(seed, quick)

    def gate(self, run_dir, exit_code, quick):
        """(attempted, failed, notes) for one child, read from its artifacts."""
        raise NotImplementedError


class SolveRef(Workload):
    """The reference radius-8 solve on a warm kernel cache."""

    command = "solve"

    def sections(self, seed, quick):
        return {**REFERENCE_PROBLEM, "kernel": {"table_radius": "16"}}

    def gate(self, run_dir, exit_code, quick):
        report = _key_values(run_dir / "report.txt")
        try:
            level = float(report["energy"])
            residual = float(report["residual"])
            defect = float(report["nehari_defect"])
        except (KeyError, ValueError):
            return 1, 1, [f"exit {exit_code}, report.txt missing or unreadable"]
        notes = [f"level {report['energy']} residual {residual:.2e} defect {defect:.2e}"]
        ok = (exit_code == 0
              and abs(level / REFERENCE_LEVEL - 1.0) <= LEVEL_RTOL
              and residual <= RESIDUAL_MAX and defect <= RESIDUAL_MAX)
        if not ok:
            notes.append(f"FAILED the gate (exit {exit_code}, level reference "
                         f"{REFERENCE_LEVEL!r} to {LEVEL_RTOL:g}, residual and defect "
                         f"<= {RESIDUAL_MAX:g})")
        return 1, 0 if ok else 1, notes


class VerifySuite(Workload):
    """The property suite on the reference problem, one radius-20 table for radii 4-10."""

    command = "verify"
    # radii must stay 4 6 8 10: with 4 6 8 box-convergence fails its 1e-3 gap
    RADII = (4, 6, 8, 10)

    def sections(self, seed, quick):
        trials = ({"trials": "10", "mp_trials": "10", "fiber_fields": "1", "level_samples": "2"}
                  if quick else
                  {"trials": "50", "mp_trials": "50", "fiber_fields": "5", "level_samples": "10"})
        return {**REFERENCE_PROBLEM,
                "verify": {**trials, "radii": " ".join(map(str, self.RADII))}}

    def prebuild_sections(self, seed, quick):
        table = {"table_radius": str(2 * max(self.RADII))}
        return {**self.sections(seed, quick), "kernel": table}

    def gate(self, run_dir, exit_code, quick):
        rows = _csv_rows(run_dir / "suite.csv")
        passed = {row["name"] for row in rows if row.get("pass") == "pass"}
        if exit_code not in (0, 4):
            passed = set()
        failing = [name for name in CHECKS if name not in passed]
        notes = [f"exit {exit_code}, {len(CHECKS) - len(failing)}/{len(CHECKS)} checks pass"]
        if failing:
            notes.append("FAILED: " + ", ".join(failing))
        return len(CHECKS), len(failing), notes


class SweepPeriodic(Workload):
    """An alpha sweep on a periodic box with b = 0, from an empty kernel cache."""

    command = "sweep"
    warm_cache = False
    TAU = 3
    RADIUS = 7  # side 15, a multiple of tau

    def values(self, quick):
        return (1.0, 2.0) if quick else (0.5, 1.0, 1.5, 2.0, 2.5)

    def sections(self, seed, quick):
        # the seed alone places the potential's minimum, so that no choice of
        # table hides the known periodic recentering defect
        rng = random.Random(seed)
        table = " ".join(repr(rng.uniform(1.0, 2.0)) for _ in range(self.TAU ** 3))
        return {
            "problem": {"a": "1.0", "b": "0.0", "alpha": "1.0",
                        "radius": str(self.RADIUS), "mode": "periodic"},
            "potential": {"kind": "periodic", "tau": str(self.TAU), "table": table},
            "nonlinearity": {"coefficient": "1.0", "exponent": "3.0"},
            "sweep": {"parameter": "alpha",
                      "values": " ".join(repr(v) for v in self.values(quick))},
        }

    def gate(self, run_dir, exit_code, quick):
        rows = [row for row in _csv_rows(run_dir / "sweep.csv") if row.get("param") == "alpha"]
        attempted = len(self.values(quick))
        notes = [f"exit {exit_code}, {len(rows)}/{attempted} points written"]
        if exit_code not in (0, 3):
            return attempted, attempted, notes + ["FAILED: the sweep did not finish"]
        observations = _read(run_dir / "sweep.csv")
        failed = attempted - len(rows)
        for row in rows:
            try:
                value, residual = float(row["value"]), float(row["residual"])
            except (KeyError, ValueError):
                value = residual = math.nan
            if residual <= RESIDUAL_MAX:
                continue
            failed += 1
            point = f"alpha={value!r}"
            cause = (KNOWN_DEFECT if f"point {point} did not converge: ok" in observations
                     else "cause not known")
            notes.append(f"FAILED point {point}: residual {residual:.3e} > "
                         f"{RESIDUAL_MAX:g}; {cause}")
        return attempted, failed, notes


WORKLOADS = {
    "solve-ref": SolveRef(),
    "verify-suite": VerifySuite(),
    "sweep-periodic": SweepPeriodic(),
}


def _read(path):
    try:
        return path.read_text(encoding="ascii")
    except OSError:
        return ""


def _key_values(path):
    out = {}
    for line in _read(path).splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _csv_rows(path):
    lines = [line for line in _read(path).splitlines() if line and not line.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# children


def _child_env():
    env = dict(os.environ)
    env.update(THREAD_PINS)
    # kclattice comes from this checkout's src/, which child.py puts on the path
    env.pop("PYTHONPATH", None)
    return env


def _spawn(argv, cwd, log_path):
    """Run one child to completion; (wall seconds, spawn time, exit code, peak RSS MB)."""
    with open(log_path, "wb") as log:
        start = clock()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    end = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return end - start, start, proc.returncode, usage.ru_maxrss / 1024.0


def _cli(where, sections, traced, *cli_args):
    """Run the CLI once in ``where``, with its cache and outputs there too."""
    sections["kernel"] = {**sections.get("kernel", {}), "cache_dir": str(where / "cache")}
    sections["output"] = {"directory": str(where / "out")}
    config = where / "run.cfg"
    config.write_text(_ini(sections), encoding="ascii")
    argv = [sys.executable, str(HERE / "child.py"), str(ROOT), str(where / "marks.json"),
            "1" if traced else "0", "--", "--config", str(config), *cli_args]
    measured = _spawn(argv, where, where / "child.log")
    if measured[2] == EXIT_NO_PROGRAM:
        raise BenchmarkError((where / "child.log").read_text(errors="replace").strip())
    return measured


def _run_child(workload, seed, quick, traced, child_dir, cache_seed=None):
    """One CLI run in a fresh directory; returns its measurements and marks."""
    child_dir.mkdir(parents=True)
    if cache_seed is not None:
        shutil.copytree(cache_seed, child_dir / "cache")
    wall, start, code, rss = _cli(child_dir, workload.sections(seed, quick), traced,
                                  "--seed", str(seed), workload.command)
    try:
        marks = json.loads((child_dir / "marks.json").read_text(encoding="ascii"))
    except (OSError, ValueError):
        marks = {}
    out_dir = child_dir / "out"
    run_dirs = sorted(d for d in out_dir.iterdir() if d.is_dir()) if out_dir.is_dir() else []
    run_dir = run_dirs[0] if run_dirs else child_dir
    attempted, failed, notes = workload.gate(run_dir, code, quick)
    setup = marks["first_kernel"] - start if "first_kernel" in marks else None
    return {"traced": traced, "wall_s": wall, "setup_s": setup, "peak_rss_mb": rss,
            "exit_code": code, "attempted": attempted, "failed": failed, "notes": notes,
            "marks": marks, "report_energy": _key_values(run_dir / "report.txt").get("energy")}


def _calibrate(work, at_least_s=0.0):
    """Mean wall seconds of calibrate.py, run at least once and for at least ``at_least_s``."""
    walls = []
    while not walls or sum(walls) < at_least_s:
        wall, _, code, _ = _spawn([sys.executable, str(HERE / "calibrate.py")], work,
                                  work / "calibrate.log")
        if code != 0:
            log = (work / "calibrate.log").read_text(errors="replace").strip()
            raise BenchmarkError(f"calibrate.py exited with {code}: {log}")
        walls.append(wall)
    return statistics.mean(walls)


def _prebuild(workload, seed, quick, work):
    """Fill a kernel cache with the workload's table, untimed."""
    where = work / "prebuild"
    where.mkdir()
    _, _, code, _ = _cli(where, workload.prebuild_sections(seed, quick), False, "green")
    if code != 0:
        log = (where / "child.log").read_text(errors="replace").strip()
        raise BenchmarkError(f"kernel prebuild exited with {code}: {log}")
    return where / "cache"


# ---------------------------------------------------------------------------
# measurement


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else math.nan


def measure(name, seed, seconds, trace, quick, work):
    """Run one workload; returns the children and the reported metrics."""
    workload = WORKLOADS[name]
    cache_seed = _prebuild(workload, seed, quick, work) if workload.warm_cache else None
    children = []
    start = clock()
    calibrations = [_calibrate(work)]
    while True:
        traced = trace and len(children) % 2 == 1
        child_dir = work / f"child-{len(children):03d}"
        children.append(_run_child(workload, seed, quick, traced, child_dir, cache_seed))
        shutil.rmtree(child_dir)
        calibrations.append(_calibrate(work, CALIBRATION_SHARE * children[-1]["wall_s"]))
        if quick and len(children) == (2 if trace else 1):
            break
        if len(children) >= MIN_CHILDREN and clock() - start >= seconds:
            break
    for child, before, after in zip(children, calibrations, calibrations[1:]):
        child["calibration_s"] = (before + after) / 2
        scale = CALIBRATION_REFERENCE_S / child["calibration_s"]
        for key in ("wall_s", "setup_s"):
            child["raw_" + key] = child[key]
            if child[key] is not None:
                child[key] *= scale
    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    end_to_end = {key: _median(c[key] for c in plain) for key, _ in END_TO_END}
    per_layer = {}
    if traced:
        layers = [c["marks"].get("layers", {}).get("metrics", {}) for c in traced]
        for key, _ in PER_LAYER:
            per_layer[key] = _median(layer.get(key) for layer in layers)
        # children alternate untraced, traced: pairing neighbours in time keeps
        # the machine's drift in speed out of the difference
        per_layer["trace.overhead_s"] = _median(
            t["wall_s"] - u["wall_s"] for u, t in zip(children[0::2], children[1::2]))
    return children, end_to_end, per_layer


def self_check(name, children):
    """Checks of the tracer itself; (ok, lines)."""
    traced = [c for c in children if c["traced"]]
    if not traced:
        return True, []
    lines, ok = [], True
    for c in traced:
        patch, layers = c["marks"].get("patch", {}), c["marks"].get("layers")
        if layers is None:
            ok = False
            lines.append("self-check FAILED: a traced child wrote no spans")
            continue
        if patch.get("stale") != 0:
            ok = False
            lines.append(f"self-check FAILED: {patch.get('stale')} references to "
                         "unwrapped kclattice functions remain")
        applied = layers["fingerprints"]["plan_apply"]
        convs = layers["metrics"]["kernel.conv_calls"]
        if applied is not None and applied != convs:
            ok = False
            lines.append(f"self-check FAILED: {convs} traced convolve calls but "
                         f"{applied} convolution-plan applications")
    if not ok:
        return ok, lines
    patch, layers = traced[0]["marks"]["patch"], traced[0]["marks"]["layers"]
    lines.append(f"self-check: {patch['functions']} public functions wrapped through "
                 f"{patch['rebound']} references")
    if name != "solve-ref":
        return ok, lines
    plain = {str(c["report_energy"]) for c in children if not c["traced"]}
    levels = {e for c in traced for e in c["marks"]["layers"]["fingerprints"]["solve_energies"]}
    if len(plain) == 1 and plain == levels:
        lines.append(f"self-check: traced level equals untraced level bit for bit ({levels.pop()})")
    else:
        ok = False
        lines.append(f"self-check FAILED: untraced levels {sorted(plain)} differ from "
                     f"traced levels {sorted(levels)}")
    counts = layers["metrics"]
    same = all(counts[key] == value for key, value in SEED_COMMIT_COUNTS.items())
    lines.append("counts vs the commit that introduced this benchmark: " + ", ".join(
        f"{key} {counts[key]} (was {value})" for key, value in SEED_COMMIT_COUNTS.items())
        + ("; unchanged" if same else "; CHANGED"))
    return ok, lines


# ---------------------------------------------------------------------------
# reporting


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record():
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _describe(values, unit):
    values = [v for v in values if v is not None]
    if not values:
        return "n=0"
    return (f"median {statistics.median(values):.6g} {unit}, min {min(values):.6g}, "
            f"max {max(values):.6g}, n={len(values)}")


def report(name, children, end_to_end, per_layer, check_lines):
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    plain = [c for c in children if not c["traced"]]
    print(f"== {name}: {len(plain)} untraced and {len(children) - len(plain)} traced runs")
    for key, unit in END_TO_END:
        print(f"  {key:<12} {end_to_end[key]:.6f} {unit}   "
              f"({_describe([c[key] for c in plain], unit)})")
    for key in ("raw_wall_s", "raw_setup_s", "calibration_s"):
        print(f"  {key:<14} {_describe([c[key] for c in plain], 's')}")
    print(f"  {'fail_ratio':<12} {failed / attempted:.6f} ratio   ({failed} of {attempted} "
          "operations failed)")
    notes = []
    for c in children:
        for note in c["notes"]:
            if note not in notes:
                notes.append(note)
    verdict = "PASS" if failed == 0 else "FAIL"
    print(f"  correctness: {verdict}")
    for note in notes:
        print(f"    {note}")
    for line in check_lines:
        print(f"  {line}")
    if per_layer:
        units = dict(PER_LAYER)
        for key, value in per_layer.items():
            print(f"  {key:<40} {value:.6g} {units[key]}")
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure for at least this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one child per workload on cut-down inputs")
    args = parser.parse_args(argv)
    # unwind through the finally blocks, which stop the child and clean up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "kclattice" / "cli.py").is_file():
        print(f"error: no kclattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("machine: " + json.dumps(machine_record()))
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(dir=base))
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            work = work_root / name
            work.mkdir()
            children, end_to_end, per_layer = measure(
                name, args.seed, args.seconds, bool(args.trace), args.quick, work)
            ok, check_lines = self_check(name, children)
            a, f = report(name, children, end_to_end, per_layer, check_lines)
            correct = correct and ok and f == 0
            attempted, failed = attempted + a, failed + f
            values, units = (per_layer, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
            prefix = f"{name}." if len(names) > 1 else ""
            for key, unit in units:
                if math.isnan(values[key]):
                    raise BenchmarkError(f"{name}: no child produced {key}")
                metrics[prefix + key] = {"value": values[key], "unit": unit}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
