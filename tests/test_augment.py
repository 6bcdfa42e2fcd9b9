import math

import numpy as np
import pytest

from robustpulse.augment import (
    MultiIndexSet,
    apply_Ej,
    apply_Ej_adjoint,
    apply_L,
    apply_L_adjoint,
    assemble_supermatrix,
    enumerate_orders,
    initial_state,
    mat_commutator,
    mat_lindblad,
    quadrature_norm,
    state_to_vec,
    vec_to_state,
)
from robustpulse.linalg import vec
from robustpulse.model import build_spin_chain, attach_uncertainties

from conftest import random_density, random_hermitian, small_grid


def test_order_enumeration_m2_n2():
    """Two uncertainties at second order, highest first, zero order last."""
    assert enumerate_orders(2, 2) == [
        (2, 0), (1, 1), (1, 0), (0, 2), (0, 1), (0, 0),
    ]


def test_order_enumeration_edge_cases():
    assert enumerate_orders(0, 3) == [()]
    assert enumerate_orders(1, 0) == [(0,)]
    assert enumerate_orders(3, 1) == [
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0),
    ]
    with pytest.raises(ValueError):
        enumerate_orders(-1, 0)


def test_block_count_formula():
    for m in range(7):
        for n in range(5):
            mset = MultiIndexSet(m, n)
            assert mset.size == math.comb(m + n, n)
            assert mset.orders[mset.zero_index] == tuple([0] * m)


def test_routing_matrix_structure():
    mset = MultiIndexSet(2, 2)
    r0 = mset.routing_matrix(0)
    # entries are 0/1 and land exactly where the order drops by e_j
    for k, p in enumerate(mset.orders):
        for l, q in enumerate(mset.orders):
            want = 1.0 if tuple(np.subtract(p, (1, 0))) == q else 0.0
            assert r0[k, l] == want


def test_drive_indexes_the_routing_pairs():
    """mset.drive(j) routes the same block pairs as routing(j), each side a
    slice where its blocks are consecutive (both at order 1), and the
    adjoint swaps the sides and the sign of the prefactor."""
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 2), (2, 4)]:
        mset = MultiIndexSet(m, n)
        blocks = np.arange(mset.size)
        for j in range(m):
            dst, src, prefactor = mset.drive(j)
            want_dst, want_src = mset.routing(j)
            assert np.array_equal(blocks[dst], want_dst)
            assert np.array_equal(blocks[src], want_src)
            assert prefactor == -1.0j
            if n == 1:
                assert isinstance(dst, slice) and isinstance(src, slice)
            assert mset.drive(j, adjoint=True) == (src, dst, 1.0j)


def test_routing_nilpotency():
    """Each routing matrix (and their sum) vanishes at power n+1."""
    for m, n in [(1, 1), (2, 2), (3, 2), (2, 4)]:
        mset = MultiIndexSet(m, n)
        total = np.zeros((mset.size, mset.size))
        for j in range(m):
            r = mset.routing_matrix(j)
            assert np.count_nonzero(np.linalg.matrix_power(r, n + 1)) == 0
            total += r
        assert np.count_nonzero(np.linalg.matrix_power(total, n + 1)) == 0


def test_driven_block_count():
    """Exactly n/(m+n) of all blocks carry each uncertainty drive."""
    for m in range(1, 7):
        for n in range(5):
            mset = MultiIndexSet(m, n)
            for j in range(m):
                dst, src = mset.routing(j)
                assert dst.size == src.size
                assert dst.size * (m + n) == n * mset.size


def test_lower_index_lookup():
    """Routing for E_j maps each block with p_j >= 1 to the block p - e_j."""
    mset = MultiIndexSet(2, 2)
    lower = [dict(zip(*mset.routing(j))) for j in range(2)]
    k = mset.index[(1, 1)]
    assert mset.orders[lower[0][k]] == (0, 1)
    assert mset.orders[lower[1][k]] == (1, 0)
    assert mset.index[(0, 2)] not in lower[0]


def test_initial_state_layout():
    mset = MultiIndexSet(2, 1)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    s = initial_state(mset, rho0)
    assert s.shape == (3, 2, 2)
    assert np.all(s[:-1] == 0)
    assert np.array_equal(s[-1], rho0)


def test_inner_product_and_norm():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    b = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    want = sum(np.trace(a[k].conj().T @ a[k]) for k in range(3))
    assert quadrature_norm(a) == pytest.approx(np.sqrt(want.real))
    assert quadrature_norm(np.stack([a, b])) == pytest.approx(
        np.hypot(quadrature_norm(a), quadrature_norm(b))
    )


def _dense_lindblad_action(model, amplitudes, rho):
    """Straightforward single-matrix Lindblad action, written out longhand."""
    h = model.hamiltonian(amplitudes)
    out = -1j * (h @ rho - rho @ h)
    for c, gamma in model.lindblads:
        cdc = c.conj().T @ c
        out += gamma * (c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc))
    return out


def test_apply_L_matches_longhand(one_qubit):
    rng = np.random.default_rng(8)
    amps = rng.standard_normal(2) * 0.2
    blocks = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    got = apply_L(one_qubit, amps, blocks)
    for k in range(2):
        want = _dense_lindblad_action(one_qubit, amps, blocks[k])
        assert np.max(np.abs(got[k] - want)) < 1e-13


def test_apply_Ej_routes_downward(two_qubit):
    mset = MultiIndexSet(2, 1)  # orders (1,0), (0,1), (0,0)
    rng = np.random.default_rng(9)
    blocks = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    out = apply_Ej(two_qubit, mset, 0, blocks)
    e0 = two_qubit.uncertainties[0]
    want_top = -1j * (e0 @ blocks[2] - blocks[2] @ e0)
    assert np.max(np.abs(out[0] - want_top)) < 1e-13
    assert np.all(out[1] == 0)
    assert np.all(out[2] == 0)


def test_apply_Ej_nilpotent(two_qubit):
    mset = MultiIndexSet(2, 2)
    rng = np.random.default_rng(10)
    blocks = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    for j in range(2):
        out = blocks
        for _ in range(mset.n + 1):
            out = apply_Ej(two_qubit, mset, j, out)
        assert np.max(np.abs(out)) == 0.0


def test_adjoint_pairing_identities(one_qubit):
    """<A, G B> = <G^dag A, B> for the generator pieces, on random blocks."""
    mset = MultiIndexSet(1, 2)
    rng = np.random.default_rng(11)
    amps = np.array([0.15, -0.1])
    for trial in range(5):
        a = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        b = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        lhs = np.vdot(a, apply_L(one_qubit, amps, b))
        rhs = np.vdot(apply_L_adjoint(one_qubit, amps, a), b)
        assert abs(lhs - rhs) < 1e-12, f"L pairing, trial {trial}"
        lhs = np.vdot(a, apply_Ej(one_qubit, mset, 0, b))
        rhs = np.vdot(apply_Ej_adjoint(one_qubit, mset, 0, a), b)
        assert abs(lhs - rhs) < 1e-12, f"E pairing, trial {trial}"


def test_mat_lindblad_matches_action(one_qubit):
    rng = np.random.default_rng(12)
    amps = np.array([0.2, 0.05])
    h = one_qubit.hamiltonian(amps)
    mat = mat_lindblad(h, one_qubit.lindblads)
    rho = random_density(2, rng)
    assert np.max(np.abs(mat @ vec(rho) - vec(_dense_lindblad_action(one_qubit, amps, rho)))) < 1e-13


def test_mat_commutator_matches_action():
    rng = np.random.default_rng(13)
    e = random_hermitian(3, rng)
    rho = random_density(3, rng)
    want = -1j * (e @ rho - rho @ e)
    assert np.max(np.abs(mat_commutator(e) @ vec(rho) - vec(want))) < 1e-13


def test_supermatrix_equals_block_action(two_qubit):
    """Dense assembled generator acts identically to the block cascade."""
    mset = MultiIndexSet(2, 2)
    rng = np.random.default_rng(14)
    amps = rng.standard_normal(4) * 0.2
    blocks = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    big = assemble_supermatrix(two_qubit, mset, amps)
    want = apply_L(two_qubit, amps, blocks)
    for j in range(2):
        want += apply_Ej(two_qubit, mset, j, blocks)
    got = vec_to_state(big @ state_to_vec(blocks), 6, 4)
    assert np.max(np.abs(got - want)) < 1e-12


def test_state_vec_roundtrip():
    rng = np.random.default_rng(15)
    blocks = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    assert np.array_equal(vec_to_state(state_to_vec(blocks), 5, 3), blocks)
    # per-block segments are column-stacked
    assert np.array_equal(state_to_vec(blocks)[:9], vec(blocks[0]))


def test_supermatrix_cap(over_cap_chain):
    mset = MultiIndexSet(2, 2)
    with pytest.raises(ValueError, match="N\\*d\\^4 = 100663296 exceeds cap 4194304"):
        assemble_supermatrix(over_cap_chain, mset, np.zeros(12))


def test_supermatrix_rejects_mismatched_index_set(one_qubit):
    with pytest.raises(ValueError, match="uncertainties"):
        assemble_supermatrix(one_qubit, MultiIndexSet(2, 1), np.zeros(2))
