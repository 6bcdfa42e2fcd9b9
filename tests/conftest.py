import numpy as np
import pytest

from robustpulse.augment import mat_commutator, state_to_vec, vec_to_state
from robustpulse.linalg import expm, kron
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
    """Six-qubit chain at order 2: N d^4 = 6 * 64^4 = 100663296 exceeds the
    fixed cap of 2^22 on the numbers in one block-algebra element."""
    return attach_uncertainties(build_spin_chain(6), "edges")


def small_grid(model, n_steps=8, dt=0.5, seed=3, max_amp=0.3):
    return random_grid(len(model.controls), n_steps, dt, -max_amp, max_amp, seed=seed)


def hermitian_basis_matrix(d):
    """The unitary T of linalg.HermitianBasis(d), built column by column from
    the basis definition: vec(B_k) for E_ii, then (E_ij + E_ji)/sqrt(2) for
    i < j, then i(E_ij - E_ji)/sqrt(2) for i < j, column-stacking."""

    def unit(i, j):
        e = np.zeros((d, d), dtype=complex)
        e[i, j] = 1.0
        return e

    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    mats = [unit(i, i) for i in range(d)]
    mats += [(unit(i, j) + unit(j, i)) * np.sqrt(0.5) for i, j in pairs]
    mats += [1j * (unit(i, j) - unit(j, i)) * np.sqrt(0.5) for i, j in pairs]
    return np.stack([m.reshape(d * d, order="F") for m in mats], axis=1)


def scipy_steps(model, grid, eps):
    """Each step's channel, built from the model operators with np.kron and
    scipy's expm, column-stacking convention: shares no code with the
    package's generator terms, Hermitian basis or exponential."""
    import scipy.linalg

    d = model.dim
    ident = np.eye(d)
    for amps in grid.amplitudes.T:
        h = model.drift + sum(u * hc for u, hc in zip(amps, model.controls))
        h = h + sum(e * op for e, op in zip(eps, model.uncertainties))
        gen = -1j * (np.kron(ident, h) - np.kron(h.T, ident))
        for c, gamma in model.lindblads:
            cdc = c.conj().T @ c
            gen = gen + gamma * (np.kron(c.conj(), c) - 0.5 * np.kron(ident, cdc)
                                 - 0.5 * np.kron(cdc.T, ident))
        yield scipy.linalg.expm(grid.dt * gen)


def random_density(d, rng):
    """Random full-rank density matrix."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


def dense_step_matrix(model, mset, plan, amplitudes):
    """The splitting step rebuilt as one dense (N d^2) x (N d^2) matrix on
    :func:`state_to_vec` vectors.

    Every factor is an explicit matrix: true exponentials for the
    uncertainty drives and unitary flows, the same second-order
    truncation for the collapse half-steps, and each control group's own
    flow.  Shares no code with the block-level step.
    """
    d = model.dim
    n_aug = mset.size
    ident_aug = np.eye(n_aug)
    half = 0.5 * plan.dt

    drives = [
        expm(half * kron(mset.routing_matrix(j), mat_commutator(model.uncertainties[j])))
        for j in range(mset.m)
    ]
    collapse = None
    if model.rates.size:
        k_jump = np.zeros((d * d, d * d), dtype=complex)
        for c, gamma in model.lindblads:
            k_jump += gamma * kron(np.conj(c), c)
        kc = kron(ident_aug, k_jump)
        collapse = np.eye(n_aug * d * d, dtype=complex) + half * kc + 0.5 * half**2 * (kc @ kc)
    group_flows = []
    for g in plan.groups:
        h_sum = sum(amplitudes[c] * model.controls[c] for c in g.channels)
        ug = expm(-1j * half * h_sum)
        group_flows.append(kron(ident_aug, kron(np.conj(ug), ug)))
    h_eff = model.drift.astype(complex).copy()
    for c, gamma in model.lindblads:
        h_eff = h_eff - 0.5j * gamma * (c.conj().T @ c)
    ue = expm(-1j * plan.dt * h_eff)
    eff_flow = kron(ident_aug, kron(np.conj(ue), ue))

    factors = list(drives)
    if collapse is not None:
        factors.append(collapse)
    factors += group_flows
    factors.append(eff_flow)
    factors += group_flows[::-1]
    if collapse is not None:
        factors.append(collapse)
    factors += drives[::-1]

    step = np.eye(n_aug * d * d, dtype=complex)
    for f in factors:  # factors listed in application order
        step = f @ step
    return step


def dense_step_reference(model, mset, plan, amplitudes, blocks, adjoint=False):
    """:func:`dense_step_matrix` applied to a state (N, d, d) or a batch
    (S, N, d, d); with ``adjoint``, its conjugate transpose, the step's
    Hilbert-Schmidt adjoint."""
    step = dense_step_matrix(model, mset, plan, amplitudes)
    if adjoint:
        step = step.conj().T
    return vec_to_state(state_to_vec(blocks) @ step.T, mset.size, model.dim)
