"""Shared fixtures: kernels and solves are expensive, so build them once."""

import os

import numpy as np
import pytest

import kclattice as kc
from kclattice import kernel as kernel_module
from kclattice import lattice as lattice_module
from kclattice.splitmix import stream

# one line per acceptance criterion, echoed after the run so the gate is
# visible even though pytest captures test stdout
acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance gate")
        for line in acceptance_lines:
            terminalreporter.line(line)


def interaction_constant(spec, kernel):
    """K = (c/p)^2 ||R_block||_1 V_min^-p, summed over the table slice the box convolves with.

    A Dirichlet box of radius n sees displacements |z_i| <= 2n, a periodic
    one its minimal images |z_i| <= n.
    """
    n, m = spec.box.radius, kernel.table_radius
    r = n if spec.box.mode == kc.PERIODIC else 2 * n
    block = kernel.table[m - r:m + r + 1, m - r:m + r + 1, m - r:m + r + 1]
    c, p = spec.nonlinearity.coefficient, spec.nonlinearity.exponent
    return (c / p) ** 2 * float(block.sum()) * float(spec.potential_table.min()) ** -p


def proven_floor(spec, kernel):
    """(eta, sigma*) = ((pK)^(-1/(2p-2)), (1/2)(1 - 1/p) eta^2) for interaction_constant's K."""
    p = spec.nonlinearity.exponent
    eta = (p * interaction_constant(spec, kernel)) ** (-1.0 / (2.0 * p - 2.0))
    return eta, 0.5 * (1.0 - 1.0 / p) * eta ** 2


def random_start(spec, seed):
    """The seeded random start a run with initial_guess = random solves from."""
    return kc.random_start_field(spec.box, stream(seed), spec.minimum_site)


@pytest.fixture(scope="session")
def kernel_m8():
    """Order-1 kernel covering radius-4 boxes."""
    return kc.build_kernel(1.0, 8)


@pytest.fixture(scope="session")
def kernel_m12():
    """Order-1 kernel covering radius-6 boxes (and radius-5 with margin)."""
    return kc.build_kernel(1.0, 12)


@pytest.fixture(scope="session")
def kernel_m16():
    """Order-1 kernel covering the radius-8 reference problem."""
    return kc.build_kernel(1.0, 16)


@pytest.fixture(scope="session")
def kernel_m20():
    """Order-1 kernel covering boxes up to radius 10."""
    return kc.build_kernel(1.0, 20)


@pytest.fixture(scope="session")
def reference_spec():
    """The coercive reference problem used across the solver tests."""
    return kc.ProblemSpec(
        kc.LatticeBox(8),
        kc.PotentialSpec.coercive(1.0, 1.0, 2.0),
        kc.PowerNonlinearity(1.0, 3.0),
        alpha=1.0,
        a=1.0,
        b=1.0,
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


class ForkCount:
    """A count that sees every process forked after it is made, read and reset as
    ``count[0]``: each increment appends one byte to an O_APPEND file, which no
    concurrent append overwrites, and the count is the file's size."""

    def __init__(self, path):
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND | os.O_TRUNC)

    def increment(self):
        os.write(self._fd, b".")

    def __getitem__(self, index):
        assert index == 0
        return os.fstat(self._fd).st_size

    def __setitem__(self, index, value):
        assert index == 0
        os.ftruncate(self._fd, value)

    def close(self):
        os.close(self._fd)


@pytest.fixture()
def convolution_count(monkeypatch, tmp_path):
    """A count of convolution-plan applications from now on, in this process
    and in every process it forks."""
    count = ForkCount(tmp_path / "convolutions")
    apply = kernel_module._ConvolutionPlan.apply

    def counted(plan, values):
        count.increment()
        return apply(plan, values)

    monkeypatch.setattr(kernel_module._ConvolutionPlan, "apply", counted)
    yield count
    count.close()


@pytest.fixture()
def field_count(monkeypatch, tmp_path):
    """A count of validated Field constructions from now on, in this process
    and in every process it forks."""
    count = ForkCount(tmp_path / "fields")
    check = lattice_module.Field.__post_init__

    def counted(field):
        count.increment()
        check(field)

    monkeypatch.setattr(lattice_module.Field, "__post_init__", counted)
    yield count
    count.close()
