"""Each numpy kernel against an explicit per-block Python loop, on random
complex blocks, for one augmented state (N, d, d) and for a batch of
states (S, N, d, d)."""

import numpy as np
import pytest

from robustpulse import kernels

from conftest import random_hermitian

SHAPES = [(5,), (4, 5)]  # one state of 5 blocks, or a batch of 4 such states
D = 3


def _random(rng, *shape):
    return np.ascontiguousarray(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _per_block(fn, *stacks):
    """fn applied to every d x d block of equally shaped stacks."""
    lead = stacks[0].shape[:-2]
    out = np.empty(stacks[0].shape, dtype=complex)
    for idx in np.ndindex(*lead):
        out[idx] = fn(*(s[idx] for s in stacks))
    return out


def _collapse_ops(rng, k=3):
    ops = _random(rng, k, D, D)
    return ops, np.ascontiguousarray(np.conj(ops.swapaxes(1, 2))), rng.uniform(0.1, 1.0, k)


def test_kernel_mode_is_numpy():
    assert kernels.kernel_mode() == "numpy"


@pytest.mark.parametrize("lead", SHAPES)
def test_conjugate_blocks(lead):
    rng = np.random.default_rng(1)
    blocks = _random(rng, *lead, D, D)
    u = _random(rng, D, D)
    udag = np.ascontiguousarray(u.conj().T)
    got = kernels.conjugate_blocks(u, udag, blocks)
    want = _per_block(lambda b: u @ b @ udag, blocks)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("lead", SHAPES)
def test_routed_commutator_routes_on_block_axis(lead):
    rng = np.random.default_rng(2)
    blocks = _random(rng, *lead, D, D)
    e = _random(rng, D, D)
    dst = np.array([0, 2, 3], dtype=np.int64)
    src = np.array([1, 4, 0], dtype=np.int64)
    got = kernels.routed_commutator(blocks, e, dst, src, -1.0j)
    want = np.zeros_like(blocks)
    for state in np.ndindex(*lead[:-1]):
        for k_dst, k_src in zip(dst, src):
            b = blocks[state][k_src]
            want[state][k_dst] = -1.0j * (e @ b - b @ e)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.all(got[..., [1, 4], :, :] == 0)


def test_routed_commutator_without_routes_is_zero():
    rng = np.random.default_rng(3)
    blocks = _random(rng, 2, 3, D, D)
    empty = np.zeros(0, dtype=np.int64)
    out = kernels.routed_commutator(blocks, _random(rng, D, D), empty, empty, 1.0j)
    assert out.shape == blocks.shape and not np.any(out)


@pytest.mark.parametrize("lead", SHAPES)
def test_collapse_blocks(lead):
    rng = np.random.default_rng(4)
    blocks = _random(rng, *lead, D, D)
    ops, ops_dag, gammas = _collapse_ops(rng)
    got = kernels.collapse_blocks(ops, ops_dag, gammas, blocks)
    want = _per_block(
        lambda b: sum(g * c @ b @ cd for g, c, cd in zip(gammas, ops, ops_dag)), blocks
    )
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("lead", SHAPES)
@pytest.mark.parametrize("adjoint", [False, True])
def test_lindblad_rhs_blocks(lead, adjoint):
    rng = np.random.default_rng(5)
    blocks = _random(rng, *lead, D, D)
    ops, ops_dag, gammas = _collapse_ops(rng)
    cdc = np.ascontiguousarray(ops_dag @ ops)
    h = random_hermitian(D, rng)

    def longhand(b):
        sign = -1.0 if adjoint else 1.0
        acc = sign * (-1j) * (h @ b - b @ h)
        for g, c, cd, k in zip(gammas, ops, ops_dag, cdc):
            jump = cd @ b @ c if adjoint else c @ b @ cd
            acc = acc + g * (jump - 0.5 * (k @ b + b @ k))
        return acc

    half_decay = 0.5 * np.tensordot(gammas, cdc, axes=1)
    got = kernels.lindblad_rhs_blocks(h, ops, ops_dag, half_decay, gammas, blocks, adjoint=adjoint)
    assert np.max(np.abs(got - _per_block(longhand, blocks))) < 1e-12


def test_lindblad_rhs_without_collapse_is_commutator():
    rng = np.random.default_rng(6)
    blocks = _random(rng, 2, 3, D, D)
    h = random_hermitian(D, rng)
    none = np.zeros((0, D, D), dtype=complex)
    got = kernels.lindblad_rhs_blocks(h, none, none, np.zeros((D, D)), np.zeros(0), blocks)
    want = _per_block(lambda b: -1j * (h @ b - b @ h), blocks)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("lead", SHAPES)
def test_control_pairing_sums_over_batch(lead):
    rng = np.random.default_rng(8)
    o = _random(rng, *lead, D, D)
    s = _random(rng, *lead, D, D)
    hc = random_hermitian(D, rng)
    want = sum(
        np.trace(o[idx].conj().T @ (hc @ s[idx] - s[idx] @ hc)) for idx in np.ndindex(*lead)
    )
    assert abs(kernels.control_pairing(o, s, hc) - want) < 1e-12
