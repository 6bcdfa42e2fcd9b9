"""Dense complex linear algebra used by every layer of the package.

Everything here works on plain ``numpy.ndarray`` with dtype complex128.
The matrix exponential is a fixed Pade(13) scaling-and-squaring
implementation; it is the accuracy reference for the propagation
backends, so it deliberately avoids shortcuts.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "kron",
    "kron_all",
    "vec",
    "expm",
    "is_hermitian",
]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the row-major convention of numpy."""
    return np.kron(np.asarray(a), np.asarray(b))


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


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Pade(13) core.

    Parameters
    ----------
    a : ndarray
        Square complex matrix, or a stack of them with shape (..., n, n).

    Returns
    -------
    ndarray
        exp(a), complex128, with the shape of ``a``.  Each member of a
        stack keeps its own scaling exponent and equals the exponential
        of that matrix on its own bit for bit.
    """
    a = np.asarray(a, dtype=np.complex128)
    shape = a.shape
    if a.ndim < 2 or shape[-1] != shape[-2]:
        raise ValueError("expm expects a square matrix or a stack of them")
    n = shape[-1]
    a = a.reshape(-1, n, n)
    norm = np.abs(a).sum(axis=-2).max(axis=-1)  # 1-norm of each member
    if not np.isfinite(norm).all():
        raise ValueError("expm input contains non-finite entries")

    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(np.int64)
    if s.any():
        a = a / (2.0**s)[:, None, None]

    b = _PADE13
    ident = np.eye(n, dtype=np.complex128)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * ident
    )
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
