"""Run the full property suite against one problem and print the evidence.

Every check tests a statement the variational framework guarantees:
kernel symmetry and positivity, the mountain-pass landscape (whose sphere
floor is also proven, in closed form), stability of the convolution bound
(computed by a power iteration, not sampled), monotonicity of the fiber
quotient, the level identity, truncation convergence, and lattice symmetry
of the solution.
A strongly confined problem keeps the box-convergence ladder cheap.
"""

import kclattice as kc

spec = kc.ProblemSpec(
    box=kc.LatticeBox(4),
    potential=kc.PotentialSpec.coercive(1.0, 3.0, 2.0),
    nonlinearity=kc.PowerNonlinearity(1.0, 3.0),
    alpha=1.0,
    a=1.0,
    b=0.0,
)

# the convolution bound check probes boxes up to radius 8, so the table
# must cover displacements up to 16 regardless of the problem box
kernel = kc.build_kernel(spec.alpha, 16)

# the suite certifies a computed ground state: solve first, then check it
solve = kc.solve_ground_state(spec, kernel)

reports = kc.run_suite(
    spec,
    kernel,
    solve,
    trials=60,
    mp_trials=40,
    fiber_fields=10,
    level_samples=10,
    radii=(2, 3, 4, 5),
)

print(kc.suite_summary(reports), end="")
print()
print("csv form:")
print(kc.suite_csv(reports), end="")
