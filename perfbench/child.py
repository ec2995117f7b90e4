"""Child-process entry of the benchmark: the kclattice CLI with timing hooks.

    python3 perfbench/child.py ROOT MARKS_JSON TRACE -- <kclattice arguments>

Imports kclattice from ``ROOT/src`` and calls ``kclattice.cli.main`` with the
arguments after ``--``, exactly as the ``kclattice`` console script does.

* ``TRACE`` = 0: only the return of the first ``build_kernel`` call is
  marked, so the parent can time set-up without timing anything else.
* ``TRACE`` = 1: every public function of every ``kclattice.*`` module is
  wrapped in a span (name, start, end, parent span), in every module that
  holds a reference to it, plus ``RunConfig.from_file`` and
  ``GreenKernel.load``; ``Field.__post_init__`` and the convolution plan's
  ``apply`` get call counters.  At exit the spans are folded into the
  per-layer metrics of ``layers.py``.

The results go to ``MARKS_JSON``.  Clocks are ``time.monotonic``, which is
system-wide on Linux, so the parent can subtract its own spawn time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

# exit code for "kclattice cannot be imported": the parent aborts the run
EXIT_NO_PROGRAM = 70

clock = time.monotonic


class Tracer:
    """Spans kept in memory; each is [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}

    def span(self, name, fn, annotate=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if annotate is not None:
                record[4] = annotate(args, kwargs, result)
            return result

        return traced

    def count(self, name, fn):
        counters = self.counters
        counters[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted


def _box_key(args, kwargs, result):
    w = args[1] if len(args) > 1 else kwargs["w"]
    return {"box": f"{w.box.mode}.r{w.box.radius}"}


def _cached(args, kwargs, result):
    return {"cached": bool(result.meta.get("cached"))}


def _solve_counts(args, kwargs, result):
    return {"descent": result.iterations, "newton": result.newton_iterations,
            "energy": repr(result.energy)}


def _check_name(args, kwargs, result):
    return {"check": result.name}


_ANNOTATE = {
    "kernel.convolve": _box_key,
    "kernel.build_kernel": _cached,
    "nehari.solve_ground_state": _solve_counts,
}


def _package_modules():
    """The package and its submodules, taken from sys.modules.

    ``kclattice.energy`` as an attribute of the package is the function
    ``energy``, not the module, so attribute access cannot be used here.
    """
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "kclattice" or name.startswith("kclattice."))}


def _public_functions(modules):
    """{original function: span name} for every public module-level function."""
    found = {}
    for modname, mod in modules.items():
        if modname == "kclattice":
            continue
        short = modname.split(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == modname):
                found[obj] = f"{short}.{attr}"
    return found


def _replace_everywhere(modules, replacements):
    """Rebind every module attribute that refers to a replaced function."""
    rebound = 0
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            new = replacements.get(obj) if inspect.isfunction(obj) else None
            if new is not None:
                setattr(mod, attr, new)
                rebound += 1
    return rebound


def _stale_references(modules, originals):
    return sum(1 for mod in modules.values() for obj in vars(mod).values()
               if inspect.isfunction(obj) and obj in originals)


def _wrap_classmethod(cls, attr, wrap):
    setattr(cls, attr, classmethod(wrap(vars(cls)[attr].__func__)))


def install(marks, tracer=None):
    """Hook the imported package; returns a summary of what was patched."""
    modules = _package_modules()
    kernel_mod = modules["kclattice.kernel"]
    original_build = kernel_mod.build_kernel

    def mark_first_return(fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            result = fn(*args, **kwargs)
            marks.setdefault("first_kernel", clock())
            return result
        return marked

    if tracer is None:
        replacements = {original_build: mark_first_return(original_build)}
        return {"rebound": _replace_everywhere(modules, replacements)}

    originals = _public_functions(modules)
    replacements = {}
    for fn, name in originals.items():
        annotate = _ANNOTATE.get(name)
        if annotate is None and name.startswith("verify.check_"):
            annotate = _check_name
        replacements[fn] = tracer.span(name, fn, annotate)
    replacements[original_build] = mark_first_return(replacements[original_build])
    rebound = _replace_everywhere(modules, replacements)

    config_mod, lattice_mod = modules["kclattice.config"], modules["kclattice.lattice"]
    _wrap_classmethod(config_mod.RunConfig, "from_file",
                      lambda fn: tracer.span("config.RunConfig.from_file", fn))
    _wrap_classmethod(kernel_mod.GreenKernel, "load",
                      lambda fn: tracer.span("kernel.GreenKernel.load", fn))
    field_cls = lattice_mod.Field
    field_cls.__post_init__ = tracer.count("field_checks", field_cls.__post_init__)
    # an independent convolution count below the traced layer, to show that
    # no by-name import of convolve escaped the patching
    plan = getattr(kernel_mod, "_ConvolutionPlan", None)
    if plan is not None and hasattr(plan, "apply"):
        plan.apply = tracer.count("plan_apply", plan.apply)
    return {
        "functions": len(originals),
        "rebound": rebound,
        "stale": _stale_references(modules, originals),
    }


def main(argv) -> int:
    root, marks_path, trace = argv[0], argv[1], argv[2] == "1"
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, str(Path(root) / "src"))
    marks = {}
    try:
        import kclattice.cli
    except ImportError as exc:
        print(f"benchmark child: cannot import kclattice from {root}/src: {exc}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    tracer = Tracer() if trace else None
    marks["patch"] = install(marks, tracer)
    code = None
    try:
        code = kclattice.cli.main(cli_args)
    finally:
        marks["exit_code"] = code
        if tracer is not None:
            from layers import fold_spans  # this script's directory leads sys.path

            marks["layers"] = fold_spans(tracer.spans, tracer.counters)
        Path(marks_path).write_text(json.dumps(marks), encoding="ascii")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
