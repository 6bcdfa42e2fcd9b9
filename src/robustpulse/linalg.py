"""Dense complex linear algebra used by every layer of the package.

Everything here works on plain ``numpy.ndarray`` with dtype complex128,
except where a map is real: :class:`HermitianBasis` writes a
Hermiticity-preserving superoperator as a real matrix, and :func:`expm`
keeps real input real.  The matrix exponential is a fixed Pade(13)
scaling-and-squaring implementation; it is the accuracy reference for
the propagation backends, so it deliberately avoids shortcuts.  Its
scaling rule and its Pade polynomials take the algebra's product and
identity, so the exponential of the augmented generator runs the same
algorithm on its coefficient blocks (``augment.BlockAlgebra.expm``).  The d^2 x d^2
superoperator matrices of the Lindblad generator follow the
column-stacking convention of :func:`vec`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "kron",
    "kron_all",
    "vec",
    "mat_commutator",
    "mat_dissipator",
    "mat_lindblad",
    "HermitianBasis",
    "one_and_inf_norms",
    "expm",
    "scaling_exponent",
    "pade13",
    "is_hermitian",
]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, equal to ``np.kron`` entry for
    entry without its n-dimensional bookkeeping."""
    a, b = np.asarray(a), np.asarray(b)
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    mats = list(mats)
    if not mats:
        raise ValueError("kron_all needs at least one matrix")
    out = np.asarray(mats[0])
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorisation: columns of ``a`` stacked top to bottom.

    With this convention vec(A X B) = (B^T kron A) vec(X).
    """
    return np.asarray(a).reshape(a.shape[0] * a.shape[1], order="F")


def mat_commutator(e: np.ndarray) -> np.ndarray:
    """d^2 x d^2 matrix of rho -> -i[e, rho], column-stacking convention."""
    ident = np.eye(e.shape[0], dtype=complex)
    return -1.0j * (kron(ident, e) - kron(e.T, ident))


def mat_dissipator(lindblads, d: int) -> np.ndarray:
    """d^2 x d^2 matrix of the collapse part of the Lindblad generator,
    rho -> sum_i gamma_i (c rho c^dag - (c^dag c rho + rho c^dag c) / 2)
    over the (c, gamma) pairs, column-stacking convention."""
    ident = np.eye(d, dtype=complex)
    out = np.zeros((d * d, d * d), dtype=complex)
    for c, gamma in lindblads:
        cdc = c.conj().T @ c
        out += gamma * (
            kron(np.conj(c), c)
            - 0.5 * kron(ident, cdc)
            - 0.5 * kron(cdc.T, ident)
        )
    return out


def mat_lindblad(h: np.ndarray, lindblads) -> np.ndarray:
    """d^2 x d^2 matrix of the Lindblad generator, column-stacking convention."""
    return mat_commutator(h) + mat_dissipator(lindblads, h.shape[0])


class HermitianBasis:
    """Orthonormal basis of the Hermitian d x d matrices under column-stacking
    :func:`vec`: the diagonal units E_ii, then (E_ij + E_ji)/sqrt(2) for
    i < j, then i(E_ij - E_ji)/sqrt(2) for i < j.

    Its D x D unitary T (D = d^2) has vec(B_k) as column k.  A map that
    preserves Hermiticity, such as rho -> -i[H, rho] or a dissipator, is
    the real matrix T^dag M T in this basis (the Pauli-transfer form).  T
    has at most two nonzeros in each row and each column, so each change of
    basis is four gathers and scalings, O(D^2) per matrix.
    """

    def __init__(self, d: int):
        iu, ju = np.triu_indices(d, 1)
        diag = np.arange(d) * (d + 1)  # vec position of (i, i)
        upper, lower = iu + ju * d, ju + iu * d  # of (i, j) and (j, i), i < j
        n_pairs, s = iu.size, np.sqrt(0.5)
        # T^dag and T as (columns, values) of the two nonzeros in each row; a
        # row with one nonzero is padded with a zero.  Row k of T^dag holds
        # the conjugated entries of B_k at their vec positions.
        pairs = np.stack([upper, lower], axis=1)
        self._tdag = (
            np.concatenate([np.stack([diag, diag], axis=1), pairs, pairs]),
            np.concatenate([
                np.tile([1.0, 0.0], (d, 1)),
                np.tile([s, s], (n_pairs, 1)),
                np.tile([-1.0j * s, 1.0j * s], (n_pairs, 1)),
            ]).astype(complex),
        )
        # row (i, j) of T draws on the pair's two basis elements, as does (j, i)
        cols = np.empty((d * d, 2), dtype=np.int64)
        vals = np.empty((d * d, 2), dtype=complex)
        sym = d + np.arange(n_pairs)
        cols[diag] = np.arange(d)[:, None]
        vals[diag] = [1.0, 0.0]
        cols[upper] = cols[lower] = np.stack([sym, sym + n_pairs], axis=1)
        vals[upper] = [s, 1.0j * s]
        vals[lower] = [s, -1.0j * s]
        self._t = (cols, vals)

    @staticmethod
    def _apply(rows, v):
        """A v for A given as two (column, value) nonzeros per row."""
        cols, vals = rows
        return vals[:, 0] * v[cols[:, 0]] + vals[:, 1] * v[cols[:, 1]]

    @staticmethod
    def _sandwich(rows, m):
        """A M A^dag over the last two axes, A as in :meth:`_apply`."""
        cols, vals = rows
        return np.ascontiguousarray(sum(
            (vals[:, a][:, None] * np.conj(vals[:, b])) * m[..., cols[:, a][:, None], cols[:, b]]
            for a in range(2) for b in range(2)
        ))

    def real_map(self, m: np.ndarray, name: str, scale: float | None = None) -> np.ndarray:
        """T^dag M T of a superoperator (or a stack of them) as a real
        array.  Raises if its imaginary part exceeds roundoff, 1e-12
        relative to ``scale`` (the size of what built M, by default M's
        largest entry), which means ``name`` does not preserve Hermiticity."""
        m = np.asarray(m)
        out = self._sandwich(self._tdag, m)
        if scale is None:
            scale = np.max(np.abs(m), initial=0.0)
        if np.max(np.abs(out.imag), initial=0.0) > 1e-12 * scale:
            raise ValueError(f"{name} does not preserve Hermiticity: it is not real "
                             "in the Hermitian basis")
        return np.ascontiguousarray(out.real)

    def complex_map(self, r: np.ndarray) -> np.ndarray:
        """T R T^dag: a basis-form superoperator (or a stack of them) back
        in the column-stacking convention."""
        return self._sandwich(self._t, r)

    def coords(self, v: np.ndarray) -> np.ndarray:
        """T^dag v: coordinates of vec(rho) in the basis; real when rho is
        Hermitian, complex in general."""
        return self._apply(self._tdag, v)

    def vec(self, x: np.ndarray) -> np.ndarray:
        """T x: the column-stacking vector with basis coordinates x."""
        return self._apply(self._t, x)


def one_and_inf_norms(ops: np.ndarray) -> tuple:
    """Induced 1-norms (largest column sum) and inf-norms (largest row sum)
    of one matrix or of a stack of them."""
    a = np.abs(ops)
    return a.sum(axis=-2).max(axis=-1), a.sum(axis=-1).max(axis=-1)


def is_hermitian(a: np.ndarray, tol: float = 1e-12) -> bool:
    """Entrywise check |a - a^dag| <= tol."""
    a = np.asarray(a)
    if a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


# Pade(13) numerator coefficients (Higham, "Functions of Matrices", alg 10.20).
_PADE13 = np.array(
    [
        64764752532480000.0,
        32382376266240000.0,
        7771770303897600.0,
        1187353796428800.0,
        129060195264000.0,
        10559470521600.0,
        670442572800.0,
        33522128640.0,
        1323241920.0,
        40840800.0,
        960960.0,
        16380.0,
        182.0,
        1.0,
    ]
)

# 1-norm threshold below which the unscaled Pade(13) approximant is
# accurate to double precision.
_THETA13 = 5.371920351148152


def scaling_exponent(norm):
    """Halvings s that bring a 1-norm (or an array of them) within
    theta_13, where the unscaled Pade(13) approximant is accurate."""
    return np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(np.int64)


def pade13(a, mul, ident):
    """The odd and even parts (U, V) of the Pade(13) numerator of exp(a),
    so that exp(a) ~ (V - U)^-1 (V + U).

    ``mul`` is the algebra's product and ``ident`` its identity; sums and
    scalar multiples are taken elementwise.  Six products in all.
    """
    b = _PADE13
    a2 = mul(a, a)
    a4 = mul(a2, a2)
    a6 = mul(a2, a4)
    u = mul(
        a,
        mul(a6, b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * ident,
    )
    v = (
        mul(a6, b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * ident
    )
    return u, v


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Pade(13) core.

    Parameters
    ----------
    a : ndarray
        Square matrix, or a stack of them with shape (..., n, n).

    Returns
    -------
    ndarray
        exp(a) with the shape of ``a``: float64 for real input, complex128
        otherwise.  Each member of a stack keeps its own scaling exponent
        and equals the exponential of that matrix on its own bit for bit.
    """
    a = np.asarray(a)
    a = a.astype(np.float64 if np.isrealobj(a) else np.complex128, copy=False)
    shape = a.shape
    if a.ndim < 2 or shape[-1] != shape[-2]:
        raise ValueError("expm expects a square matrix or a stack of them")
    n = shape[-1]
    a = a.reshape(-1, n, n)
    norm = np.abs(a).sum(axis=-2).max(axis=-1)  # 1-norm of each member
    if not np.isfinite(norm).all():
        raise ValueError("expm input contains non-finite entries")

    s = scaling_exponent(norm)
    if s.any():
        a = a / (2.0**s)[:, None, None]

    u, v = pade13(a, np.matmul, np.eye(n, dtype=a.dtype))
    r = np.linalg.solve(v - u, v + u)
    # round i squares only the members scaled down by more than i halvings;
    # when that is all of them, without the copies that masking makes
    for i in range(int(s.max(initial=0))):
        sq = s > i
        if sq.all():
            r = r @ r
        else:
            r[sq] = r[sq] @ r[sq]
    return r.reshape(shape)
