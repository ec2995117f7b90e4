"""The Newton preconditioner: the exact inverse of -c lap + V where it
separates by axis, the tridiagonal eigensolver it rests on, and the CG
route elsewhere."""

import random

import numpy as np
import pytest

import kclattice as kc
import kclattice.krylov as krylov_module
import kclattice.nehari as nehari_module
from kclattice import LatticeBox, PotentialSpec, PowerNonlinearity, ProblemSpec
from kclattice.lattice import _laplacian_values
from kclattice.krylov import _axis_eigen, preconditioner, separable_inverse, tridiagonal_eigen

_SEPARABLE = {
    "constant": PotentialSpec.constant(1.0),
    "centred": PotentialSpec.coercive(1.0, 1.0, 2.0),
    "off-centre": PotentialSpec.coercive(0.5, 3.0, 2.0, center=(2, -1, 3)),
}


def _spec(box, potential):
    return ProblemSpec(box, potential, PowerNonlinearity(1.0, 3.0), alpha=1.0)


def _tridiagonal(c, w):
    n = len(w)
    return c * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) + np.diag(w)


def _assert_eigenpairs(t, mu, qt):
    """mu and the rows of qt are t's eigenpairs to rounding, against LAPACK."""
    mu, top = np.asarray(mu), np.abs(t).max()
    assert np.abs(np.sort(mu) - np.linalg.eigvalsh(t)).max() <= 1e-14 * top
    assert np.abs(qt @ qt.T - np.eye(len(t))).max() <= 1e-14
    assert np.abs(qt @ t - mu[:, None] * qt).max() <= 1e-14 * top


def _apply_p(spec, c, x):
    x = x.reshape(spec.potential_table.shape)
    return (-c * _laplacian_values(x, spec.box.mode) + spec.potential_table * x).ravel()


@pytest.mark.parametrize("kind", sorted(_SEPARABLE))
@pytest.mark.parametrize("radius", range(11))
def test_separable_inverse_is_exact(radius, kind):
    spec = _spec(LatticeBox(radius), _SEPARABLE[kind])
    rng = np.random.default_rng(radius)
    for c in (1e-3, 1.0, 1e3):
        g = rng.standard_normal(spec.box.site_count)
        x = separable_inverse(spec, c)(g)
        assert np.linalg.norm(_apply_p(spec, c, x) - g) <= 1e-13 * np.linalg.norm(g)


@pytest.mark.parametrize("radius", [8, 10])
def test_ql_eigenpairs_match_lapack_where_eigenvalues_coincide(radius):
    # at c = 1 the edge states of a centred |x|^2 pair up with eigenvalues equal
    # to the last bit; rotations keep even those vectors orthogonal
    x = np.arange(-radius, radius + 1.0)
    t = _tridiagonal(1.0, x * x)
    want = np.linalg.eigh(t)[0]
    assert np.diff(want).min() <= 2.0 * np.spacing(want.max())
    _assert_eigenpairs(t, *tridiagonal_eigen(np.diag(t).tolist(), np.diag(t, 1).tolist()))
    _assert_eigenpairs(t, *_axis_eigen(1.0, x * x))


@pytest.mark.parametrize("w", [[0.0], [0.0, 3.0], [4.0, 1.0, 0.0, 1.0, 4.0], [0.0] * 6])
@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
def test_axis_eigenpairs_on_small_and_even_sides(w, c):
    w = np.array(w)
    _assert_eigenpairs(_tridiagonal(c, w), *_axis_eigen(c, w))


def _random_table(tau):
    rng = random.Random(tau)
    return PotentialSpec.periodic(tau, [rng.uniform(1.0, 2.0) for _ in range(tau ** 3)])


@pytest.mark.parametrize("box, potential", [
    (LatticeBox(3, kc.PERIODIC), PotentialSpec.coercive(1.0, 1.0, 2.0)),
    (LatticeBox(3), _random_table(2)),
    (LatticeBox(3), PotentialSpec.coercive(1.0, 1.0, 1.0)),
    (LatticeBox(3), PotentialSpec.coercive(1.0, 1.0, 3.0)),
], ids=["periodic-box", "periodic-table", "power-1", "power-3"])
def test_what_does_not_separate_keeps_the_cg_preconditioner(box, potential):
    assert separable_inverse(_spec(box, potential), 1.0) is None


@pytest.mark.parametrize("c", [0.5, 20.0])
@pytest.mark.parametrize("box, potential, exact", [
    (LatticeBox(4), PotentialSpec.coercive(1.0, 1.0, 2.0), True),
    (LatticeBox(4, kc.PERIODIC), PotentialSpec.coercive(1.0, 1.0, 2.0), False),
    (LatticeBox(4), PotentialSpec.coercive(1.0, 1.0, 3.0), False),
], ids=["additive", "periodic-box", "power-3"])
def test_preconditioner_inverts_p_by_one_route(box, potential, exact, c):
    # the exact inverse where P separates, and CG to _PRECONDITIONER_RTOL elsewhere
    spec = _spec(box, potential)
    r = np.random.default_rng(5).standard_normal(box.site_count)
    x = preconditioner(spec, c)(r)
    if exact:
        want, rtol = separable_inverse(spec, c)(r), 1e-13
    else:
        rtol = krylov_module._PRECONDITIONER_RTOL
        want = krylov_module._h_representer(spec, r, rtol, c)
    assert np.array_equal(x, want)
    assert np.linalg.norm(_apply_p(spec, c, x) - r) <= rtol * np.linalg.norm(r)


def test_an_additive_periodic_table_separates():
    # the table decides: a one-value periodic potential is a constant one
    assert separable_inverse(_spec(LatticeBox(3), _random_table(1)), 1.0) is not None


@pytest.mark.parametrize("c", [1e308, 5e307])
def test_an_overflowing_factorization_is_a_runtime_error(c):
    # T's scale overflows at c = 1e308, which leaves nan eigenvalues; at 5e307
    # the eigenvalue sums overflow
    with pytest.raises(RuntimeError, match="is not finite and positive"):
        separable_inverse(_spec(LatticeBox(1), PotentialSpec.constant(1.0)), c)


def _preconditioner_solves(monkeypatch):
    # the descent and the h_residual call it from nehari, the preconditioner from krylov
    rtols = []
    representer = krylov_module._h_representer

    def counted(spec, g, rtol, weight):
        rtols.append(rtol)
        return representer(spec, g, rtol, weight)

    monkeypatch.setattr(krylov_module, "_h_representer", counted)
    monkeypatch.setattr(nehari_module, "_h_representer", counted)
    return rtols


def test_reference_polish_runs_no_inner_cg(reference_spec, kernel_m16, monkeypatch):
    # Dirichlet box, V = 1 + |x|^2: minres applies the exact inverse, and CG
    # is left to the descent's rough representer and the final h_residual
    rtols = _preconditioner_solves(monkeypatch)
    rep = kc.solve_ground_state(reference_spec, kernel_m16)
    assert rep.converged and rep.newton_iterations == 1
    assert krylov_module._PRECONDITIONER_RTOL not in rtols
    assert rtols == [nehari_module._DESCENT_RTOL] * rep.iterations + [1.0e-12]


def test_periodic_polish_keeps_the_inner_cg(kernel_m8, monkeypatch):
    spec = ProblemSpec(LatticeBox(3, kc.PERIODIC), _random_table(3), PowerNonlinearity(1.0, 3.0),
                       alpha=1.0)
    rtols = _preconditioner_solves(monkeypatch)
    rep = kc.solve_ground_state(spec, kernel_m8)
    assert rep.converged and rep.newton_iterations >= 1
    assert krylov_module._PRECONDITIONER_RTOL in rtols
