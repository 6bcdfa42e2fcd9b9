import numpy as np
import pytest

from robustpulse.model import attach_uncertainties, build_spin_chain, random_grid


@pytest.fixture
def one_qubit():
    """Single qubit with decay and one sigma_x uncertainty."""
    return attach_uncertainties(build_spin_chain(1), "edges")


@pytest.fixture
def two_qubit():
    """Coupled pair with decay and sigma_x uncertainties on both ends."""
    return attach_uncertainties(build_spin_chain(2), "edges")


@pytest.fixture
def over_cap_chain():
    """Six-qubit chain at order 2: N d^2 = 6 * 64^2 = 24576 exceeds the
    fixed supermatrix cap of 20000."""
    return attach_uncertainties(build_spin_chain(6), "edges")


def small_grid(model, n_steps=8, dt=0.5, seed=3, max_amp=0.3):
    return random_grid(len(model.controls), n_steps, dt, -max_amp, max_amp, seed=seed)


def random_density(d, rng):
    """Random full-rank density matrix."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0
