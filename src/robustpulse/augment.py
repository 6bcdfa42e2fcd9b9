"""Taylor augmentation of the Lindblad equation in uncertainty strengths.

The density matrix is expanded as a truncated multivariate Taylor series
in the m uncertainty strengths; the coefficient blocks obey a linear
cascade: each block evolves under the nominal Lindblad generator and is
additionally driven by the blocks one order below through -i[E_j, .].
This module owns the multi-index bookkeeping (ordering, routing maps,
nilpotent routing matrices) and the block-level generator actions.

Block layout: an augmented state is a (N, d, d) complex array whose k-th
slice is the coefficient block of the k-th multi-index.  A batch of
independent states carries a leading axis, (S, N, d, d); every generator
action here routes on axis -3 and accepts either shape.  Multi-indices
are sorted by decreasing base-(n+1) value with the first uncertainty as
the most significant digit, so the zero order (the physical density
matrix) is always the last block.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import kernels
from .linalg import kron
from .model import OpenSystemModel

__all__ = [
    "DEFAULT_SUPERMATRIX_CAP",
    "CapExceeded",
    "enumerate_orders",
    "MultiIndexSet",
    "initial_state",
    "quadrature_norm",
    "apply_L",
    "apply_L_adjoint",
    "apply_Ej",
    "apply_Ej_adjoint",
    "mat_lindblad",
    "mat_commutator",
    "assemble_supermatrix",
    "state_to_vec",
    "vec_to_state",
]

DEFAULT_SUPERMATRIX_CAP = 20000


class CapExceeded(ValueError):
    """Supermatrix dimension N*d^2 exceeds DEFAULT_SUPERMATRIX_CAP."""


def enumerate_orders(m: int, n: int) -> list:
    """All multi-indices p in N^m with |p| <= n, sorted by decreasing
    base-(n+1) value (p_1 most significant).

    The zero index comes last; with m = 0 the single empty index is
    returned (no augmentation).
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    if m == 0:
        return [()]
    orders = [
        p for p in itertools.product(range(n + 1), repeat=m) if sum(p) <= n
    ]
    base = n + 1

    def value(p):
        v = 0
        for digit in p:
            v = v * base + digit
        return v

    orders.sort(key=value, reverse=True)
    return orders


class MultiIndexSet:
    """Multi-index ordering plus the block-routing structure for each E_j."""

    def __init__(self, m: int, n: int):
        self.m = int(m)
        self.n = int(n)
        self.orders = enumerate_orders(m, n)
        self.size = len(self.orders)
        self.index = {p: k for k, p in enumerate(self.orders)}
        # routing arrays per uncertainty: dst[k] has p_j >= 1 and receives
        # -i[E_j, .] of src[k] = index of (p - e_j)
        self._dst = []
        self._src = []
        for j in range(self.m):
            dst = []
            src = []
            for k, p in enumerate(self.orders):
                if p[j] >= 1:
                    q = list(p)
                    q[j] -= 1
                    dst.append(k)
                    src.append(self.index[tuple(q)])
            self._dst.append(np.array(dst, dtype=np.int64))
            self._src.append(np.array(src, dtype=np.int64))

    def routing(self, j: int):
        """(dst, src) index arrays for uncertainty j."""
        return self._dst[j], self._src[j]

    def routing_matrix(self, j: int) -> np.ndarray:
        """N x N matrix with 1 at (k, l) iff orders[l] = orders[k] - e_j."""
        r = np.zeros((self.size, self.size))
        dst, src = self.routing(j)
        r[dst, src] = 1.0
        return r

    @property
    def zero_index(self) -> int:
        return self.size - 1


def initial_state(mset: MultiIndexSet, rho0: np.ndarray) -> np.ndarray:
    """Augmented initial state: zero everywhere, rho0 in the zero-order block.

    A stack of densities (S, d, d) gives a batch of states (S, N, d, d).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[-1]
    blocks = np.zeros(rho0.shape[:-2] + (mset.size, d, d), dtype=complex)
    blocks[..., mset.zero_index, :, :] = rho0
    return blocks


def quadrature_norm(blocks: np.ndarray) -> float:
    """sqrt of the summed squared Frobenius norms of all blocks."""
    return float(np.sqrt(np.sum(np.abs(blocks) ** 2)))


def _lindblad_terms(model: OpenSystemModel, amplitudes: np.ndarray) -> tuple:
    """The leading arguments of :func:`kernels.lindblad_rhs_blocks`."""
    return (
        model.hamiltonian(amplitudes),
        model.collapse_stack,
        model.collapse_dag_stack,
        model.collapse_cdc_stack,
        model.rates,
    )


def apply_L(
    model: OpenSystemModel, amplitudes: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """Nominal Lindblad generator applied to every block."""
    return kernels.lindblad_rhs_blocks(*_lindblad_terms(model, amplitudes), blocks)


def apply_L_adjoint(
    model: OpenSystemModel, amplitudes: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """Hilbert-Schmidt adjoint of the nominal Lindblad generator."""
    return kernels.lindblad_rhs_blocks(
        *_lindblad_terms(model, amplitudes), blocks, adjoint=True
    )


def apply_Ej(
    model: OpenSystemModel, mset: MultiIndexSet, j: int, blocks: np.ndarray
) -> np.ndarray:
    """Uncertainty drive j: block k receives -i[E_j, block(k - e_j)].

    Nilpotent: applying it n+1 times annihilates any state.
    """
    dst, src = mset.routing(j)
    return kernels.routed_commutator(
        blocks, model.uncertainties[j], dst, src, -1.0j
    )


def apply_Ej_adjoint(
    model: OpenSystemModel, mset: MultiIndexSet, j: int, blocks: np.ndarray
) -> np.ndarray:
    """Adjoint drive: block (k - e_j) receives +i[E_j, block k]."""
    dst, src = mset.routing(j)
    return kernels.routed_commutator(
        blocks, model.uncertainties[j], src, dst, 1.0j
    )


# ------------------------------------------------------- supermatrix assembly


def mat_lindblad(h: np.ndarray, lindblads) -> np.ndarray:
    """d^2 x d^2 matrix of the Lindblad generator, column-stacking convention."""
    d = h.shape[0]
    ident = np.eye(d, dtype=complex)
    m = -1.0j * (kron(ident, h) - kron(h.T, ident))
    for c, gamma in lindblads:
        cdc = c.conj().T @ c
        m += gamma * (
            kron(np.conj(c), c)
            - 0.5 * kron(ident, cdc)
            - 0.5 * kron(cdc.T, ident)
        )
    return m


def mat_commutator(e: np.ndarray) -> np.ndarray:
    """d^2 x d^2 matrix of rho -> -i[e, rho]."""
    d = e.shape[0]
    ident = np.eye(d, dtype=complex)
    return -1.0j * (kron(ident, e) - kron(e.T, ident))


def assemble_supermatrix(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    amplitudes: np.ndarray,
) -> np.ndarray:
    """Full augmented generator as a dense (N d^2) x (N d^2) matrix.

    Raises :class:`CapExceeded` when N*d^2 > DEFAULT_SUPERMATRIX_CAP,
    signalling callers to switch to the block backends.
    """
    if mset.m not in (0, model.n_uncertainties):
        raise ValueError(
            f"index set has {mset.m} uncertainties, model has {model.n_uncertainties}"
        )
    d = model.dim
    dim = mset.size * d * d
    if dim > DEFAULT_SUPERMATRIX_CAP:
        raise CapExceeded(
            f"supermatrix dimension {dim} exceeds cap {DEFAULT_SUPERMATRIX_CAP}"
        )
    big = kron(np.eye(mset.size), mat_lindblad(model.hamiltonian(amplitudes), model.lindblads))
    for j in range(mset.m):
        big += kron(mset.routing_matrix(j), mat_commutator(model.uncertainties[j]))
    return big


def state_to_vec(blocks: np.ndarray) -> np.ndarray:
    """Stack per-block column-vectorisations into one long vector (one
    per state of a batch)."""
    return blocks.swapaxes(-1, -2).reshape(blocks.shape[:-3] + (-1,))


def vec_to_state(v: np.ndarray, n_blocks: int, d: int) -> np.ndarray:
    """Inverse of :func:`state_to_vec`."""
    return np.ascontiguousarray(
        v.reshape(v.shape[:-1] + (n_blocks, d, d)).swapaxes(-1, -2)
    )
