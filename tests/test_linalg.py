import numpy as np
import pytest
import scipy.linalg

from robustpulse.linalg import (
    HermitianBasis,
    expm,
    is_hermitian,
    kron,
    kron_all,
    mat_commutator,
    mat_lindblad,
    vec,
)

from conftest import hermitian_basis_matrix


def test_expm_identity_and_zero():
    assert np.allclose(expm(np.zeros((4, 4), dtype=complex)), np.eye(4))
    a = np.diag([1.0 + 0j, 2.0, -3.0])
    assert np.allclose(expm(a), np.diag(np.exp([1.0, 2.0, -3.0])))


def test_expm_pauli_rotation():
    # exp(-i theta sx) = cos(theta) I - i sin(theta) sx
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    for theta in (0.1, 0.7, np.pi / 2, 2.0):
        got = expm(-1j * theta * sx)
        want = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * sx
        assert np.max(np.abs(got - want)) < 1e-14


def test_expm_matches_scipy_across_scales():
    rng = np.random.default_rng(42)
    for trial in range(20):
        d = int(rng.integers(2, 24))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        scale = 10.0 ** rng.uniform(-2, 2)
        a *= scale / max(np.linalg.norm(a, 1), 1e-30)
        got = expm(a)
        want = scipy.linalg.expm(a)
        denom = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got - want)) / denom < 1e-12, f"trial {trial}"


def test_expm_multiplicative_for_commuting_args():
    rng = np.random.default_rng(7)
    d = 5
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    e1 = expm(0.3 * a) @ expm(0.7 * a)
    assert np.max(np.abs(e1 - expm(a))) < 1e-12 * np.max(np.abs(e1))


def test_expm_rejects_bad_input():
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        expm(np.array([[np.nan, 0], [0, 1.0]]))


def _stack_straddling_theta13(rng, n, count, real=False):
    """Random stack, complex unless ``real``, whose 1-norms run from well
    below to well above the Pade(13) threshold, so the scaling exponent
    differs by member."""
    a = rng.standard_normal((count, n, n))
    if not real:
        a = a + 1j * rng.standard_normal((count, n, n))
    norms = 5.371920351148152 * 2.0 ** np.linspace(-3.0, 6.5, count)
    return a * (norms / np.linalg.norm(a, 1, axis=(-2, -1)))[:, None, None]


@pytest.mark.parametrize("n", [2, 5, 16, 40])
def test_stacked_expm_members_equal_2d_expm_bit_for_bit(n):
    a = _stack_straddling_theta13(np.random.default_rng(n), n, 9)
    stack = expm(a)
    assert stack.shape == a.shape
    for j in range(a.shape[0]):
        assert np.array_equal(stack[j], expm(a[j])), j
    # more than one leading axis keeps its shape and its members
    nested = expm(a[:8].reshape(2, 4, n, n))
    assert np.array_equal(nested.reshape(8, n, n), stack[:8])


def test_stacked_expm_matches_scipy():
    a = _stack_straddling_theta13(np.random.default_rng(5), 12, 10)
    got = expm(a)
    for j in range(a.shape[0]):
        want = scipy.linalg.expm(a[j])
        denom = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got[j] - want)) / denom < 1e-13, j


@pytest.mark.parametrize("n", [2, 5, 16])
def test_real_expm_stays_real_and_matches_scipy(n):
    """Real input gives a float64 exponential, equal to scipy's to 1e-12
    relative (the bound of the complex scales test), including members whose norm forces squarings; each member
    equals its lone run bit for bit."""
    a = _stack_straddling_theta13(np.random.default_rng(20 + n), n, 9, real=True)
    got = expm(a)
    assert got.dtype == np.float64
    for j in range(a.shape[0]):
        lone = expm(a[j])
        assert lone.dtype == np.float64
        assert np.array_equal(got[j], lone), j
        want = scipy.linalg.expm(a[j])
        denom = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got[j] - want)) / denom < 1e-12, j


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stacked_expm_rejects_a_non_finite_member(bad):
    a = _stack_straddling_theta13(np.random.default_rng(3), 4, 5)
    a[3, 1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        expm(a)
    with pytest.raises(ValueError):
        expm(np.zeros((3, 2, 3)))


def test_vec_is_column_stacking():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    # columns are stacked: first column (1, 3), then (2, 4)
    assert np.array_equal(vec(a), np.array([1, 3, 2, 4], dtype=complex))


def test_vec_kron_identity():
    """vec(A X B) = (B^T kron A) vec(X) under column stacking."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        a, x, b = (
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(3)
        )
        lhs = vec(a @ x @ b)
        rhs = kron(b.T, a) @ vec(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_kron_all_matches_chained_kron():
    rng = np.random.default_rng(5)
    mats = [rng.standard_normal((2, 2)) for _ in range(4)]
    want = np.kron(np.kron(np.kron(mats[0], mats[1]), mats[2]), mats[3])
    assert np.allclose(kron_all(mats), want)


def test_is_hermitian():
    assert is_hermitian(np.array([[1.0, 1j], [-1j, 2.0]]))
    assert not is_hermitian(np.array([[1.0, 1j], [1j, 2.0]]))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_hermitian_basis_is_unitary_and_sparse(d):
    """T is the basis definition's matrix exactly, is unitary, has at most
    two nonzeros per row and per column, and maps real coordinates to
    Hermitian matrices."""
    t = hermitian_basis_matrix(d)
    assert np.array_equal(HermitianBasis(d).t, t)
    assert np.array_equal(HermitianBasis(d).t_dag, t.conj().T)
    assert np.max(np.abs(t.conj().T @ t - np.eye(d * d))) < 1e-15
    assert np.count_nonzero(t, axis=0).max() <= 2
    assert np.count_nonzero(t, axis=1).max() <= 2
    for col in t.T:
        assert is_hermitian(col.reshape(d, d, order="F"), tol=0.0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_basis_round_trips(d):
    """A Lindblad generator becomes the real T^dag M T and maps back; a
    real matrix maps to T R T^dag and back."""
    rng = np.random.default_rng(d)
    basis = HermitianBasis(d)
    t = hermitian_basis_matrix(d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h, c = a + a.conj().T, rng.standard_normal((d, d)) + 0j
    gen = mat_lindblad(h, [(c, 0.3)])
    real = basis.real_map(gen, "generator", max(np.max(np.abs(h)), 0.3 * np.max(np.abs(c.T @ c))))
    assert real.dtype == np.float64
    assert np.max(np.abs(real - t.conj().T @ gen @ t)) < 1e-14
    assert np.max(np.abs(basis.complex_map(real) - gen)) < 1e-14
    r = rng.standard_normal((3, d * d, d * d))
    back = basis.complex_map(r)
    assert np.max(np.abs(back - t @ r @ t.conj().T)) < 1e-14
    assert np.max(np.abs(basis.real_map(back, "stack", np.max(np.abs(r))) - r)) < 1e-14


def test_hermitian_basis_rejects_a_map_that_breaks_hermiticity():
    """-i[e, .] with e not Hermitian, and rho -> A rho, have no real form;
    the error names the term."""
    rng = np.random.default_rng(9)
    basis = HermitianBasis(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    with pytest.raises(ValueError, match="control 2 does not preserve Hermiticity"):
        basis.real_map(mat_commutator(a), "control 2", np.max(np.abs(a)))
    with pytest.raises(ValueError, match="left product"):
        basis.real_map(kron(np.eye(3), a + a.conj().T), "left product",
                       np.max(np.abs(a + a.conj().T)))
