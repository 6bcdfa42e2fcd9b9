"""Taylor augmentation of the Lindblad equation in uncertainty strengths.

The density matrix is expanded as a truncated multivariate Taylor series
in the m uncertainty strengths; the coefficient blocks obey a linear
cascade: each block evolves under the nominal Lindblad generator and is
additionally driven by the blocks one order below through -i[E_j, .].
This module owns the multi-index bookkeeping (ordering, routing maps,
nilpotent routing matrices), the block-level generator actions, and the
dense augmented generator: assembled as one matrix for reference, and
exponentiated per step in its block algebra, where a product needs one
d^2 x d^2 product per pair of multi-indices instead of per pair of
blocks.

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
from functools import cached_property

import numpy as np

from . import kernels
from .linalg import kron, mat_commutator, mat_lindblad, pade13, scaling_exponent
from .model import OpenSystemModel

__all__ = [
    "DEFAULT_SUPERMATRIX_CAP",
    "CapExceeded",
    "enumerate_orders",
    "MultiIndexSet",
    "initial_state",
    "quadrature_norm",
    "lindblad_terms",
    "apply_L",
    "apply_L_adjoint",
    "apply_Ej",
    "apply_Ej_adjoint",
    "mat_lindblad",
    "mat_commutator",
    "assemble_supermatrix",
    "BlockAlgebra",
    "generator_blocks",
    "step_propagator_expm",
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

    @cached_property
    def algebra(self) -> BlockAlgebra:
        """Product tables of the block algebra over this set."""
        return BlockAlgebra(self)


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


def lindblad_terms(model: OpenSystemModel, amplitudes: np.ndarray) -> tuple:
    """The leading arguments of :func:`kernels.lindblad_rhs_blocks` for one
    step's amplitudes."""
    return (
        model.hamiltonian(amplitudes),
        model.collapse_stack,
        model.collapse_dag_stack,
        model.half_decay,
        model.rates,
    )


def apply_L(
    model: OpenSystemModel, amplitudes: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """Nominal Lindblad generator applied to every block."""
    return kernels.lindblad_rhs_blocks(*lindblad_terms(model, amplitudes), blocks)


def apply_L_adjoint(
    model: OpenSystemModel, amplitudes: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """Hilbert-Schmidt adjoint of the nominal Lindblad generator."""
    return kernels.lindblad_rhs_blocks(
        *lindblad_terms(model, amplitudes), blocks, adjoint=True
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


def _check_dense_size(model: OpenSystemModel, mset: MultiIndexSet) -> None:
    """Reject a set whose uncertainty count differs from the model's, and,
    with :class:`CapExceeded`, a dense generator over the cap."""
    if mset.m not in (0, model.n_uncertainties):
        raise ValueError(
            f"index set has {mset.m} uncertainties, model has {model.n_uncertainties}"
        )
    dim = mset.size * model.dim * model.dim
    if dim > DEFAULT_SUPERMATRIX_CAP:
        raise CapExceeded(
            f"supermatrix dimension {dim} exceeds cap {DEFAULT_SUPERMATRIX_CAP}"
        )


def assemble_supermatrix(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    amplitudes: np.ndarray,
) -> np.ndarray:
    """Full augmented generator as a dense (N d^2) x (N d^2) matrix.

    Raises :class:`CapExceeded` when N*d^2 > DEFAULT_SUPERMATRIX_CAP,
    signalling callers to switch to the block backends.
    """
    _check_dense_size(model, mset)
    big = kron(np.eye(mset.size), mat_lindblad(model.hamiltonian(amplitudes), model.lindblads))
    for j in range(mset.m):
        big += kron(mset.routing_matrix(j), mat_commutator(model.uncertainties[j]))
    return big


class BlockAlgebra:
    """The matrices sum_g S_g (x) A_g over one multi-index set, held as
    their N coefficient blocks A_g in an (N, D, D) array.

    S_g is the N x N shift with 1 at (k, l) iff orders[k] - orders[l] = g,
    so dense block (k, l) is A_{orders[k] - orders[l]}.  The augmented
    generator I (x) L + sum_j R_j (x) C_j is one (R_j = S_{e_j}), and so is
    every sum, product and inverse of such matrices: the product is
    (AB)_g = sum over b + b' = g of A_b B_b', one D x D product per pair
    of the set's pair table instead of the N^2 block pairs of the dense
    product.
    """

    def __init__(self, mset: MultiIndexSet):
        n_blocks = mset.size
        self.size = n_blocks
        self.zero = mset.zero_index
        # the pair table: (b, b', g) for every g in the set and b <= g,
        # b' = g - b, as block indices
        pairs = []
        for k, g in enumerate(mset.orders):
            for b in itertools.product(*(range(x + 1) for x in g)):
                rest = tuple(x - y for x, y in zip(g, b))
                pairs.append((mset.index[b], mset.index[rest], k))
        self.left, self.right, self.target = (np.array(c, dtype=np.int64) for c in zip(*pairs))
        self._scatter = self._scatter_matrix(self.target, np.arange(n_blocks))
        # dense block column l holds A_b wherever orders[l] + b is in the set
        self._support = np.zeros((n_blocks, n_blocks))
        self._support[self.right, self.left] = 1.0
        # forward substitution: per total degree, the targets and their
        # pairs b + b' with b of degree >= 1, so that b' is solved already
        degrees = np.array([sum(p) for p in mset.orders])
        self._stages = []
        for deg in range(1, mset.n + 1):
            targets = np.flatnonzero(degrees == deg)
            if targets.size == 0:
                continue
            sel = (degrees[self.target] == deg) & (self.left != self.zero)
            self._stages.append((
                targets, self.left[sel], self.right[sel],
                self._scatter_matrix(self.target[sel], targets),
            ))

    @staticmethod
    def _scatter_matrix(target: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """0/1 matrix summing per-pair products into the rows' blocks."""
        out = np.zeros((rows.size, target.size))
        out[np.searchsorted(rows, target), np.arange(target.size)] = 1.0
        return out

    @staticmethod
    def _pair_products(scatter, a, left, b, right) -> np.ndarray:
        """scatter @ (a[left] @ b[right]), one row block per scatter row; the
        real 0/1 matrix acts on the real and imaginary parts together."""
        prods = np.matmul(a.take(left, axis=0), b.take(right, axis=0))
        summed = scatter @ prods.reshape(left.size, -1).view(np.float64)
        return summed.view(np.complex128).reshape((-1,) + a.shape[1:])

    def identity(self, dim: int) -> np.ndarray:
        out = np.zeros((self.size, dim, dim), dtype=complex)
        out[self.zero] = np.eye(dim)
        return out

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._pair_products(self._scatter, a, self.left, b, self.right)

    def solve(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """X with p X = q, by forward substitution over total degree: one
        solve against p's zero-order block per degree."""
        dim = p.shape[-1]
        p0 = p[self.zero]
        x = np.zeros_like(q)
        x[self.zero] = np.linalg.solve(p0, q[self.zero])
        for targets, left, right, scatter in self._stages:
            rhs = q[targets] - self._pair_products(scatter, p, left, x, right)
            sol = np.linalg.solve(p0, rhs.transpose(1, 0, 2).reshape(dim, -1))
            x[targets] = sol.reshape(dim, targets.size, dim).transpose(1, 0, 2)
        return x

    def one_norm(self, a: np.ndarray) -> float:
        """1-norm of the dense matrix, from the blocks' column sums."""
        return float((self._support @ np.abs(a).sum(axis=-2)).max())

    def expm(self, a: np.ndarray) -> np.ndarray:
        """exp(a) by the scaling and squaring of :func:`linalg.expm`: the
        same scaling exponent, Pade(13) polynomials and solve, here in the
        algebra."""
        norm = self.one_norm(a)
        if not np.isfinite(norm):
            raise ValueError("expm input contains non-finite entries")
        s = int(scaling_exponent(norm))
        if s:
            a = a / 2.0**s
        u, v = pade13(a, self.product, self.identity(a.shape[-1]))
        r = self.solve(v - u, v + u)
        for _ in range(s):
            r = self.product(r, r)
        return r

    def dense(self, a: np.ndarray) -> np.ndarray:
        """The (N D) x (N D) matrix, in the layout of assemble_supermatrix."""
        n_blocks, dim = self.size, a.shape[-1]
        out = np.zeros((n_blocks, dim, n_blocks, dim), dtype=complex)
        out[self.target, :, self.right, :] = a[self.left]
        return out.reshape(n_blocks * dim, n_blocks * dim)


def generator_blocks(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    amplitudes: np.ndarray,
) -> np.ndarray:
    """The augmented generator as a :class:`BlockAlgebra` element: the
    step's Lindblad matrix at the zero order, -i[E_j, .] at e_j."""
    d2 = model.dim * model.dim
    gen = np.zeros((mset.size, d2, d2), dtype=complex)
    gen[mset.zero_index] = mat_commutator(model.hamiltonian(amplitudes)) + model.dissipator_super
    for j in range(mset.m):
        unit = tuple(int(i == j) for i in range(mset.m))
        if unit in mset.index:
            gen[mset.index[unit]] = model.uncertainty_supers[j]
    return gen


def step_propagator_expm(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    amplitudes: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Dense one-step propagator exp(dt * augmented generator).

    The exponential is taken in the generator's :class:`BlockAlgebra`, so
    the result is linalg.expm(dt * assemble_supermatrix(...)) up to
    roundoff without forming or exponentiating that matrix.  Raises as
    :func:`assemble_supermatrix` does.
    """
    _check_dense_size(model, mset)
    algebra = mset.algebra
    return algebra.dense(algebra.expm(dt * generator_blocks(model, mset, amplitudes)))


def state_to_vec(blocks: np.ndarray) -> np.ndarray:
    """Stack per-block column-vectorisations into one long vector (one
    per state of a batch)."""
    return blocks.swapaxes(-1, -2).reshape(blocks.shape[:-3] + (-1,))


def vec_to_state(v: np.ndarray, n_blocks: int, d: int) -> np.ndarray:
    """Inverse of :func:`state_to_vec`."""
    return np.ascontiguousarray(
        v.reshape(v.shape[:-1] + (n_blocks, d, d)).swapaxes(-1, -2)
    )
