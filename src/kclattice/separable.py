"""The exact inverse of P = -c lap + V where P separates by axis.

On a Dirichlet box with an additive potential table, as a constant V or
a coercive V of power 2 is, P is a sum of three 1-D operators, and its
inverse is a fast diagonalization (Lynch, Rice & Thomas 1964) from their
eigenbases.  The Newton polish of ``nehari.solve_ground_state`` builds it
once per step and applies it at every minres iteration of that step.  It
runs on numpy's elementwise kernels and 2-D ``einsum`` alone: no LAPACK
decomposition and no BLAS-3 product, whose first calls map pages that
would raise a solve's peak resident set.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import ProblemSpec
from .lattice import DIRICHLET

_EPS = np.finfo(float).eps
# per-entry rounding, relative, allowed between a potential table and its additive split
_SEPARABLE_RTOL = 64.0 * _EPS


def tridiagonal_eigen(d: list, e: list):
    """Eigenvalues and orthonormal eigenvectors (the rows) of a symmetric tridiagonal matrix.

    ``d`` is its diagonal and ``e`` its n - 1 off-diagonal entries.  The
    implicit QL method with accumulated Givens rotations (EISPACK tql2,
    Numerical Recipes' tqli), in plain Python: rotations keep the vectors
    orthogonal to rounding even for eigenvalues equal to the last bit, as
    the edge states of a centred |x|^2 are.  More than 30 steps on one
    eigenvalue is a RuntimeError.
    """
    n, d, e = len(d), list(d), list(e) + [0.0]
    z = [[float(i == j) for j in range(n)] for i in range(n)]
    for l in range(n):
        for step in range(31):
            m = l
            while m < n - 1 and abs(e[m]) > _EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if step == 30:
                raise RuntimeError("tridiagonal eigensolver did not converge")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                e[i + 1] = r = math.hypot(f, g)
                if r == 0.0:  # deflated: restart on the shorter block
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                zi, zj = z[i], z[i + 1]
                z[i] = [c * x - s * y for x, y in zip(zi, zj)]
                z[i + 1] = [s * x + c * y for x, y in zip(zi, zj)]
            else:
                d[l] -= p
                e[l], e[m] = g, 0.0
    return d, np.array(z)


def _axis_eigen(c: float, w: np.ndarray):
    """Eigenvalues and eigenvectors (the rows) of T = c tridiag(-1, 2, -1) + diag(w).

    T is scaled to entries of at most 1 for the eigensolver.
    """
    scale = 2.0 * c + float(w.max())
    mu, qt = tridiagonal_eigen(((2.0 * c + w) / scale).tolist(), [-c / scale] * (len(w) - 1))
    return scale * np.array(mu), qt


@np.errstate(over="ignore", invalid="ignore")  # overflow is tested for below, not warned of
def separable_inverse(spec: ProblemSpec, c: float):
    """x -> P^-1 x for P = -c lap + V, exactly, on flat arrays; None where P does not separate.

    P separates on a Dirichlet box whose potential table is additive to
    rounding, V[i,j,k] = w1[i] + w2[j] + w3[k] + V_min, with the w's read
    along the axes through V's smallest entry, so that they are >= 0 and no
    eigenvalue sum cancels.  Then P = T1 (+) T2 (+) T3 + V_min with
    T = c tridiag(-1, 2, -1) + diag(w) per axis, and with T = Q diag(mu) Q^T
    (``_axis_eigen``, once per distinct axis) P^-1 applies Q^T along
    each axis, divides by mu_i + mu_j + mu_k + V_min and applies Q along
    each axis.  Each axis product is one 2-D einsum on the (n, n^2) view,
    which leaves the contracted axis last.  A c or table whose eigenvalues
    leave the double range is a RuntimeError.
    """
    table = spec.potential_table
    if spec.box.mode != DIRICHLET:
        return None
    n = table.shape[0]
    at = np.unravel_index(np.argmin(table), table.shape)
    low = float(table[at])
    w = (table[:, at[1], at[2]] - low, table[at[0], :, at[2]] - low, table[at[0], at[1]] - low)
    if not (abs(w[0][:, None, None] + w[1][:, None] + w[2] + low - table)
            <= _SEPARABLE_RTOL * table).all():
        return None
    factors = {}
    for axis in w:
        key = axis.tobytes()
        if key not in factors:
            mu, qt = _axis_eigen(c, axis)
            factors[key] = mu, qt, np.ascontiguousarray(qt.T)
    mu, forward, back = zip(*(factors[axis.tobytes()] for axis in w))
    denominator = mu[0][:, None, None] + mu[1][:, None] + mu[2] + low
    if not (np.isfinite(denominator).all() and (denominator > 0.0).all()):
        raise RuntimeError(f"separable preconditioner at weight {c!r} is not finite and positive")

    def along_axes(x, bases):
        for basis in bases:
            x = np.einsum("ai,ib->ab", basis, x.reshape(n, n * n))
            x = x.reshape(n, n, n).transpose(1, 2, 0)
        return x

    return lambda r: along_axes(along_axes(r, forward) / denominator, back).reshape(r.shape)
