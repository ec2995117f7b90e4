"""The benchmark's timing hook still reaches the program.

``perfbench/child.py`` runs ``kclattice.cli.main`` after rebinding
``build_kernel`` (untraced) or every public function (traced) in each
module that holds it; ``setup_s`` is read off the first ``build_kernel``
return it marks.  A refactor that routes a call past those module
attributes would leave the mark or the spans missing without failing any
run, so this runs the child on a small warm Dirichlet solve both ways.
The run writes nothing under ``perfbench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kclattice as kc

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"


def _perfbench_files():
    return {p: p.stat().st_mtime_ns for p in (ROOT / "perfbench").rglob("*")}


@pytest.fixture(scope="module")
def warm_config(tmp_path_factory):
    where = tmp_path_factory.mktemp("hook")
    text = f"[problem]\nradius = 3\n\n[kernel]\ncache_dir = {where / 'cache'}\n"
    kc.build_kernel(1.0, kc.RunConfig.from_text(text).solve_table_radius(),
                    cache_dir=where / "cache")
    (where / "run.cfg").write_text(text)
    return where / "run.cfg"


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_child_marks_the_first_kernel(tmp_path, warm_config, trace):
    before = _perfbench_files()
    marks = tmp_path / "marks.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(ROOT), str(marks), str(trace), "--",
         "--config", str(warm_config), "--output", str(tmp_path / "out"), "solve"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(marks.read_text(encoding="ascii"))
    assert found["exit_code"] == 0
    assert "first_kernel" in found  # what setup_s is measured to
    assert found["patch"]["rebound"] > 0
    if trace:
        assert found["patch"]["stale"] == 0
        metrics = found["layers"]["metrics"]
        assert metrics["nehari.solves"] == 1
        assert metrics["kernel.conv_calls"] > 0
        assert metrics["kernel.conv_calls"] == found["layers"]["fingerprints"]["plan_apply"]
    assert _perfbench_files() == before
