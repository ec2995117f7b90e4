"""Tour of the lattice Green's function machinery.

Checks the normalizing constant against its exact anchors, evaluates the
fractional kernel R_alpha by heat-kernel quadrature, tabulates it, fits the
far-field decay law, and shows the on-disk cache round trip.
"""

import tempfile
import time

import numpy as np

import kclattice as kc

# --- the normalizing constant ---------------------------------------------
# K_alpha is the torus mean of the symbol power mu^(alpha/2).  Two values
# are known exactly: K_0 = 1 (the integrand degenerates to 1) and K_2 = 6
# (the cosines average out).
print("normalizing constant K_alpha")
print(f"  alpha -> 0: {kc.fractional_degree_refined(1e-12):.15f}   (exact 1)")
print(f"  alpha  = 2: {kc.fractional_degree(2.0, 64):.15f}   (exact 6)")
print(f"  alpha  = 1: {kc.fractional_degree_refined(1.0):.15f}")
print()

# --- R_alpha and its table -------------------------------------------------
# green_values integrates t^(alpha/2-1) e^(-6t) prod I_z(2t) over (0, inf);
# a table quadratures one octant of displacements the same way and fills the
# cube by reflection.
zs = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 2, 1), (4, 3, 0)]
heat = kc.green_values(1.0, zs)
t0 = time.perf_counter()
kernel = kc.build_kernel(1.0, 24)
print(f"tabulated |z_i| <= 24 in {time.perf_counter() - t0:.2f} s "
      f"({kernel.table.size} entries from {len(kernel.octant_triples())} quadratured orbits)")
for z, h in zip(zs, heat):
    t = kernel.value((-z[2], z[0], -z[1]))  # a reflected, permuted image of z
    print(f"  z={z}: R_1={h:.12e}  table={t:.12e}  rel dev={abs(t / h - 1):.1e}")

# --- the decay law -----------------------------------------------------------
slope = kc.fit_decay_exponent(kernel, lo=10, hi=24)
print(f"  log-log decay slope on the axis, |z| in [10, 24]: {slope:.4f} "
      f"(the law says alpha - 3 = -2)")
ratio = kernel.value((12, 0, 0)) / kernel.value((24, 0, 0))
print(f"  R(12e1)/R(24e1) = {ratio:.4f}  (pure |z|^-2 would give 4)")
print()

# --- cache round trip -------------------------------------------------------
with tempfile.TemporaryDirectory() as cache:
    first = kc.build_kernel(1.0, 8, cache_dir=cache)
    second = kc.build_kernel(1.0, 8, cache_dir=cache)
    same = np.array_equal(first.table, second.table)
    print(f"cache: first build cached={first.meta['cached']}, "
          f"second cached={second.meta['cached']}, tables identical={same}")
