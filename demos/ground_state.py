"""Solve one ground state end to end and inspect the certificate.

The problem: a Kirchhoff-weighted lattice operator with a coercive
confining potential and a cubic Choquard nonlinearity,

    -(1 + grad-energy(u)) lap(u) + (1 + |x|^2) u = (R_1 * F(u)) f(u)

on the radius-6 box with zero exterior.  The solver minimizes the reduced
energy on the unit sphere of the energy norm, then polishes the
Euler-Lagrange residual with a Newton step.
"""

import numpy as np

import kclattice as kc

spec = kc.ProblemSpec(
    box=kc.LatticeBox(6),
    potential=kc.PotentialSpec.coercive(1.0, 1.0, 2.0),
    nonlinearity=kc.PowerNonlinearity(1.0, 3.0),
    alpha=1.0,
    a=1.0,
    b=1.0,
)
kernel = kc.build_kernel(spec.alpha, 2 * spec.box.radius)

report = kc.solve_ground_state(spec, kernel)
u = report.solution

print(f"converged            : {report.converged} ({report.message})")
print(f"energy level c       : {report.energy:.12f}")
print(f"l2 residual          : {report.residual:.3e}")
print(f"H-dual residual      : {report.h_residual:.3e}")
print(f"Nehari defect        : {report.nehari_defect:.3e}")
print(f"iterations           : {report.iterations} descent + {report.newton_iterations} newton")
# eta is proven from one interaction constant K (B <= K ||u||^(2p) on the box);
# K grows with the box, so both floors are loose and weaken with the radius
print(f"proven norm floor eta: {report.eta_estimate:.6f} <= ||u|| = {spec.h_norm(u):.6f}")
p = spec.nonlinearity.exponent
print(f"proven level floor   : c >= (1/2)(1 - 1/p) eta^2 = "
      f"{0.5 * (1 - 1 / p) * report.eta_estimate**2:.6f}")
print()

# the state is positive, peaked at the potential minimum, and decays fast
n = spec.box.radius
axis = u.values[n:, n, n]
print("profile along the positive axis from the center:")
for j, val in enumerate(axis):
    print(f"  u({j},0,0) = {val: .6e}")
print()
print(f"min/max over the box: {u.values.min():.3e} / {u.values.max():.3e}")

# descent history: the reduced energy is monotone until the Newton phase
rows = list(enumerate(report.history))
print()
print("first and last history rows (iteration, energy, residual, fiber scale):")
for i, (energy, residual, s) in rows[:3] + rows[-2:]:
    print(f"  {i:4d}  {energy:.9e}  {residual:.3e}  {s:.6f}")

# round-trip the artifact formats
kc.save_field_text(u, "ground_state.field")
back = kc.load_field_text("ground_state.field")
print()
print(f"saved ground_state.field, reload exact: {np.array_equal(back.values, u.values)}")
