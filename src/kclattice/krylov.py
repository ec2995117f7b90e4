"""Every solve with P = -c lap + V, the Kirchhoff-weighted metric of the energy space.

The descent's direction solves P d = g roughly, at c = a + bA, and a
report's dual-norm residual at c = a, by ``_h_representer``: CG
preconditioned by P's diagonal 6c + V.  ``preconditioner`` gives the
Newton polish's minres (Paige & Saunders 1975) its P^-1: exact where P
separates by axis, by fast diagonalization (Lynch, Rice & Thomas 1964),
else CG.  The descent keeps CG even so: the exact inverse there took the
reference solve from 26 convolutions to 51.  No LAPACK decomposition and
no BLAS-3 product runs here; their first calls map pages that raise a
solve's peak memory.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import ProblemSpec
from .lattice import DIRICHLET, _laplacian_values

_EPS = np.finfo(float).eps
# per-entry rounding, relative, allowed between a potential table and its additive split
_SEPARABLE_RTOL = 64.0 * _EPS
# relative residual of the inner CG solve that applies minres's preconditioner
# where P does not separate by axis
_PRECONDITIONER_RTOL = 1.0e-6


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


def _cg(matvec, b: np.ndarray, psolve, rtol: float, maxiter: int):
    """Preconditioned conjugate gradients from x = 0 on flat arrays.

    A port of scipy.sparse.linalg.cg with atol = 0 and M = psolve: the same
    iteration and stopping test ||r|| < rtol ||b||, and info = maxiter when
    the budget runs out.
    """
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b, 0
    atol = rtol * bnrm2
    x = np.zeros_like(b)
    r = b.copy()
    rho_prev = p = None
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = psolve(r)
        rho_cur = np.dot(r, z)
        if iteration > 0:
            p *= rho_cur / rho_prev
            p += z
        else:
            p = z.copy()
        q = matvec(p)
        alpha = rho_cur / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho_cur
    return x, maxiter


def _minres(matvec, b: np.ndarray, psolve, rtol: float, maxiter: int):
    """Preconditioned MINRES from x = 0 on flat arrays, for symmetric indefinite operators.

    A port of scipy.sparse.linalg.minres with M = psolve and no shift: the
    same Lanczos recurrences in the M^-1 inner product, the same stopping
    tests (istop), and info = maxiter when the budget runs out.  psolve
    must be symmetric positive definite; r.M^-1 r < 0 raises RuntimeError
    (scipy raises ValueError).  matvec must return a new array, which is
    updated in place: fewer vectors alive at once lower a solve's peak memory.
    """
    eps = np.finfo(float).eps
    r1 = b  # never written in place, like every vector here but x and y
    y = psolve(r1)
    beta1 = np.dot(r1, y)
    if beta1 < 0:
        raise RuntimeError(f"minres preconditioner is indefinite (r.M^-1 r = {beta1:.3e})")
    if beta1 == 0:
        return np.zeros_like(b), 0
    beta1 = math.sqrt(beta1)
    x = np.zeros_like(b)
    istop = itn = 0
    oldb = dbar = epsln = 0.0
    beta = phibar = rhs1 = beta1
    rhs2 = tnorm2 = gmax = 0.0
    gmin = np.finfo(float).max
    cs, sn = -1.0, 0.0
    w = np.zeros_like(b)
    w2 = np.zeros_like(b)  # the w before w; the one before that is dropped once used
    r2 = r1
    while itn < maxiter:
        itn += 1
        v = (1.0 / beta) * y
        y = matvec(v)
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = np.dot(v, y)
        y -= (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = psolve(r2)
        oldb = beta
        beta = np.dot(r2, y)
        if beta < 0:
            raise RuntimeError(f"minres preconditioner is indefinite (r.M^-1 r = {beta:.3e})")
        beta = math.sqrt(beta)
        tnorm2 += alfa ** 2 + oldb ** 2 + beta ** 2
        if itn == 1 and beta / beta1 <= 10 * eps:
            istop = -1  # b is an eigenvector; terminate below
        # apply the previous rotation, then compute the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.sqrt(gbar ** 2 + dbar ** 2)
        gamma = max(math.sqrt(gbar ** 2 + beta ** 2), eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        denom = 1.0 / gamma
        w2, w = w, (v - oldeps * w2 - delta * w) * denom
        x += phi * w
        gmax = max(gmax, gamma)
        gmin = min(gmin, gamma)
        z = rhs1 / gamma
        rhs1 = rhs2 - delta * z
        rhs2 = -epsln * z
        # norm estimates and the stopping tests
        anorm = math.sqrt(tnorm2)
        ynorm = np.linalg.norm(x)
        epsx = anorm * ynorm * eps
        rnorm = phibar
        test1 = math.inf if ynorm == 0 or anorm == 0 else rnorm / (anorm * ynorm)
        test2 = math.inf if anorm == 0 else root / anorm
        acond = gmax / gmin
        if istop == 0:
            if 1 + test2 <= 1:
                istop = 2
            if 1 + test1 <= 1:
                istop = 1
            if itn >= maxiter:
                istop = 6
            if acond >= 0.1 / eps:
                istop = 4
            if epsx >= beta1:
                istop = 3
            if test2 <= rtol:
                istop = 2
            if test1 <= rtol:
                istop = 1
        if istop != 0:
            break
    return x, maxiter if istop == 6 else 0


def _h_representer(spec: ProblemSpec, g: np.ndarray, rtol: float, weight: float) -> np.ndarray:
    """Solve (-c lap + V) r = g, c = weight, to relative residual rtol by Jacobi CG.

    So c (grad r, grad z) + sum V r z = sum g z; at c = a, r represents g in
    (r, z)_H.  r takes g's shape.  Over 40 steps per box side is a RuntimeError.
    """
    box = spec.box
    table_shape = spec.potential_table.shape
    table = spec.potential_table.ravel()
    diag = 6.0 * weight + table

    def matvec(x):
        return -weight * _laplacian_values(x.reshape(table_shape), box.mode).ravel() + table * x

    sol, info = _cg(matvec, g.ravel(), lambda r: r / diag, rtol, 40 * box.side)
    if info != 0:
        raise RuntimeError(f"energy-norm representer solve did not converge (cg info={info})")
    return sol.reshape(g.shape)


def preconditioner(spec: ProblemSpec, c: float):
    """r -> P^-1 r for P = -c lap + V on flat arrays: exact where it separates, else CG."""
    return (separable_inverse(spec, c)
            or (lambda r: _h_representer(spec, r, _PRECONDITIONER_RTOL, c)))
