"""Per-layer metrics folded from the spans of one traced kclattice run.

A span is ``[name, start, end, parent index, attrs]`` as recorded by
``child.py``; names are ``<module>.<function>``.  Self time is a span's
duration minus the durations of its direct children, which are sequential
and nested inside it because the program is single-threaded.

Each metric below names the end-to-end metric and workload it should move:

* ``kernel.conv_*`` move ``wall_s`` of solve-ref and verify-suite; grid
  sizing for Dirichlet boxes should leave ``conv_ms.periodic.*`` alone.
* ``kernel.k_alpha_s``, ``build_s``, ``builds``, ``load_s`` and
  ``cache_hits`` move ``setup_s``: builds on sweep-periodic, loads on the
  two warm-cache workloads.
* ``energy.*`` move ``wall_s`` of solve-ref (line-search trials) and of
  verify-suite (the fiber check).
* ``nehari.*`` move ``wall_s`` of solve-ref.
* ``verify.<check>.*`` move ``wall_s`` of verify-suite only.
* ``lattice.*`` move ``wall_s``, most on sweep-periodic; ``field_io_s`` on
  solve-ref.
* ``config.parse_s`` and ``cli.self_s`` move ``setup_s`` and ``wall_s``.
"""

from __future__ import annotations

import statistics

# box keys "<mode>.r<radius>" convolved on by the three workloads
CONV_BOXES = ("dirichlet.r4", "dirichlet.r6", "dirichlet.r8", "dirichlet.r10", "periodic.r7")

# suite.csv names of the property checks
CHECKS = (
    "kernel-integrity",
    "mountain-pass-geometry",
    "hls-ratio",
    "fiber-monotonicity",
    "level-identity",
    "box-convergence",
    "symmetry-translation",
)

_LATTICE_OPERATORS = ("lattice.laplacian", "lattice.gradient_energy",
                      "lattice.gradient_inner", "lattice.h_inner")
_FIELD_IO = ("lattice.save_field_text", "lattice.save_field_binary",
             "lattice.load_field_text", "lattice.load_field_binary")

PER_LAYER = (
    [
        ("kernel.conv_calls", "count"),
        ("kernel.conv_s", "s"),
    ]
    + [(f"kernel.conv_ms.{box}", "ms") for box in CONV_BOXES]
    + [
        ("kernel.k_alpha_s", "s"),
        ("kernel.build_s", "s"),
        ("kernel.builds", "count"),
        ("kernel.load_s", "s"),
        ("kernel.cache_hits", "count"),
        ("energy.energy_calls", "count"),
        ("energy.gradient_calls", "count"),
        ("energy.interaction_calls", "count"),
        ("energy.self_s", "s"),
        ("nehari.solves", "count"),
        ("nehari.solve_s", "s"),
        ("nehari.self_s", "s"),
        ("nehari.fiber_calls", "count"),
        ("nehari.scale_calls", "count"),
        ("nehari.conv_per_solve", "count"),
        ("nehari.descent_steps", "count"),
        ("nehari.newton_steps", "count"),
    ]
    + [(f"verify.{check}.{what}", unit) for check in CHECKS
       for what, unit in (("s", "s"), ("conv", "count"))]
    + [
        ("lattice.field_checks", "count"),
        ("lattice.self_s", "s"),
        ("lattice.field_io_s", "s"),
        ("config.parse_s", "s"),
        ("cli.self_s", "s"),
        # traced minus untraced wall_s, filled in by run.py
        ("trace.overhead_s", "s"),
    ]
)


def _enclosing(spans, index, prefix):
    """Index of the nearest enclosing span whose name starts with prefix."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return parent
        parent = spans[parent][3]
    return -1


def fold_spans(spans, counters):
    """Per-layer metrics of one run, plus the fingerprints the self-check reads."""
    duration = [end - start for _, start, end, _, _ in spans]
    own = list(duration)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            own[span[3]] -= duration[i]

    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def named(name):
        return by_name.get(name, [])

    def attr(i, key):
        # spans left by an exception carry no attributes
        return (spans[i][4] or {}).get(key)

    def total(indices, values=duration):
        return float(sum(values[i] for i in indices))

    def module_self(module):
        return total([i for name, indices in by_name.items()
                      if name.startswith(module + ".") for i in indices], own)

    out = {}
    convs = named("kernel.convolve")
    out["kernel.conv_calls"] = len(convs)
    out["kernel.conv_s"] = total(convs)
    for box in CONV_BOXES:
        ms = [duration[i] * 1e3 for i in convs if attr(i, "box") == box]
        out[f"kernel.conv_ms.{box}"] = statistics.median(ms) if ms else 0.0
    builds = named("kernel.build_kernel")
    cold = [i for i in builds if attr(i, "cached") is False]
    out["kernel.k_alpha_s"] = total([i for i in named("kernel.fractional_degree_refined")
                                     if _enclosing(spans, i, "kernel.build_kernel") >= 0])
    out["kernel.build_s"] = total(cold)
    out["kernel.builds"] = len(cold)
    out["kernel.load_s"] = total(named("kernel.GreenKernel.load"))
    out["kernel.cache_hits"] = sum(1 for i in builds if attr(i, "cached"))

    out["energy.energy_calls"] = len(named("energy.energy"))
    out["energy.gradient_calls"] = len(named("energy.energy_gradient"))
    out["energy.interaction_calls"] = (len(named("energy.interaction_energy"))
                                       + len(named("energy.interaction_pairing")))
    out["energy.self_s"] = module_self("energy")

    solves = named("nehari.solve_ground_state")
    in_solve = sum(1 for i in convs if _enclosing(spans, i, "nehari.solve_ground_state") >= 0)
    out["nehari.solves"] = len(solves)
    out["nehari.solve_s"] = total(solves)
    out["nehari.self_s"] = module_self("nehari")
    out["nehari.fiber_calls"] = len(named("nehari.fiber_coefficients"))
    out["nehari.scale_calls"] = len(named("nehari.nehari_scale"))
    out["nehari.conv_per_solve"] = in_solve / len(solves) if solves else 0.0
    out["nehari.descent_steps"] = sum(attr(i, "descent") or 0 for i in solves)
    out["nehari.newton_steps"] = sum(attr(i, "newton") or 0 for i in solves)

    check_index = {i: attr(i, "check") for name, indices in by_name.items()
                   if name.startswith("verify.check_") for i in indices}
    for check in CHECKS:
        out[f"verify.{check}.s"] = total([i for i, c in check_index.items() if c == check])
        out[f"verify.{check}.conv"] = 0
    for i in convs:
        check = check_index.get(_enclosing(spans, i, "verify.check_"))
        if check in CHECKS:
            out[f"verify.{check}.conv"] += 1

    out["lattice.field_checks"] = counters.get("field_checks", 0)
    out["lattice.self_s"] = total([i for name in _LATTICE_OPERATORS for i in named(name)], own)
    out["lattice.field_io_s"] = total([i for name in _FIELD_IO for i in named(name)])
    out["config.parse_s"] = total(named("config.RunConfig.from_file"))
    out["cli.self_s"] = module_self("cli")

    fingerprints = {
        "plan_apply": counters.get("plan_apply"),
        "solve_energies": [attr(i, "energy") for i in solves],
    }
    return {"metrics": out, "fingerprints": fingerprints}
