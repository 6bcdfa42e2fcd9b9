"""Taylor augmentation of the Lindblad equation in uncertainty strengths.

The density matrix is expanded as a truncated multivariate Taylor series
in the m uncertainty strengths; the coefficient blocks obey a linear
cascade: each block evolves under the nominal Lindblad generator and is
additionally driven by the blocks one order below through -i[E_j, .].
This module owns the multi-index bookkeeping (ordering, routing maps,
nilpotent routing matrices), the block-level generator actions, and the
augmented generator: assembled as one dense matrix for reference only,
and otherwise held in its block algebra, where it is exponentiated per
step and the step propagator is applied to states with one d^2 x d^2
product per pair of multi-indices instead of per pair of blocks.  Every
block of the generator preserves Hermiticity, so the step builds it real,
in the Hermitian basis of ``linalg.HermitianBasis``, from the model's
real ``generator_terms``, and exponentiates and applies it in float64.

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
from .linalg import hermitian_basis, kron, mat_commutator, mat_lindblad, pade13, scaling_exponent
from .model import OpenSystemModel

__all__ = [
    "DEFAULT_SUPERMATRIX_CAP",
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

DEFAULT_SUPERMATRIX_CAP = 2**22  # on N*d^4, the numbers in one block-algebra element


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
        # the same routes as block indices for the kernels: a slice where
        # the blocks are consecutive, which numpy reads and writes as a view
        self._drives = [(_as_index(d), _as_index(s)) for d, s in zip(self._dst, self._src)]

    def routing(self, j: int):
        """(dst, src) index arrays for uncertainty j."""
        return self._dst[j], self._src[j]

    def drive(self, j: int, adjoint: bool = False) -> tuple:
        """(dst, src, prefactor) of uncertainty drive j for
        :func:`kernels.routed_commutator`: block k receives
        -i[E_j, block(k - e_j)]; for the adjoint, block (k - e_j) receives
        +i[E_j, block k].  Each side is a slice where its blocks are
        consecutive."""
        dst, src = self._drives[j]
        return (src, dst, 1.0j) if adjoint else (dst, src, -1.0j)

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


def _as_index(idx: np.ndarray):
    """``idx`` as a slice when it is a run of consecutive indices."""
    if idx.size and np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


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
    return -1j * model.hamiltonian(amplitudes) - model.half_decay, model.jump_factors


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
    return kernels.routed_commutator(blocks, model.uncertainties[j], *mset.drive(j))


def apply_Ej_adjoint(
    model: OpenSystemModel, mset: MultiIndexSet, j: int, blocks: np.ndarray
) -> np.ndarray:
    """Adjoint drive: block (k - e_j) receives +i[E_j, block k]."""
    return kernels.routed_commutator(
        blocks, model.uncertainties[j], *mset.drive(j, adjoint=True)
    )


# ------------------------------------------------------- supermatrix assembly


def _check_dense_size(model: OpenSystemModel, mset: MultiIndexSet) -> None:
    """Reject a set whose uncertainty count differs from the model's, and
    a generator whose block-algebra element, N*d^4 numbers (64 MiB at the
    cap, with about a dozen alive in the Pade-13), is over the cap."""
    if mset.m not in (0, model.n_uncertainties):
        raise ValueError(
            f"index set has {mset.m} uncertainties, model has {model.n_uncertainties}"
        )
    size = mset.size * model.dim**4
    if size > DEFAULT_SUPERMATRIX_CAP:
        raise ValueError(
            f"block exponential size N*d^4 = {size} exceeds cap {DEFAULT_SUPERMATRIX_CAP}"
        )


def assemble_supermatrix(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    amplitudes: np.ndarray,
) -> np.ndarray:
    """Full augmented generator as a dense (N d^2) x (N d^2) matrix.

    Raises ValueError when N*d^4 > DEFAULT_SUPERMATRIX_CAP;
    the dense matrix holds N times as many numbers (reference use only).
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
    product.  The pairs with b = 0 or b' = 0 run as two stacked products
    on slices (the zero order is the last block); only the mixed pairs
    are looped over, none at order 1.
    """

    def __init__(self, mset: MultiIndexSet):
        n_blocks = mset.size
        self.size = n_blocks
        self.zero = mset.zero_index
        # the pair table: (b, b', g) for every g in the set and b <= g,
        # b' = g - b, as block indices
        self.pairs = []
        for k, g in enumerate(mset.orders):
            for b in itertools.product(*(range(x + 1) for x in g)):
                rest = tuple(x - y for x, y in zip(g, b))
                self.pairs.append((mset.index[b], mset.index[rest], k))
        left, right, _ = np.array(self.pairs, dtype=np.int64).T
        # dense block column l holds A_b wherever orders[l] + b is in the set
        self._support = np.zeros((n_blocks, n_blocks))
        self._support[right, left] = 1.0
        self._mixed = [p for p in self.pairs if self.zero not in p[:2]]
        # forward substitution: per total degree, the targets and their
        # mixed pairs, whose b' has a lower degree and is solved already
        degrees = [sum(p) for p in mset.orders]
        self._stages = [
            ([k for k in range(n_blocks) if degrees[k] == deg],
             [p for p in self._mixed if degrees[p[2]] == deg])
            for deg in sorted(set(degrees) - {0})
        ]

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """ab, for two elements (N, D, D) or, member by member, two stacks
        (N, K, D, D)."""
        z = self.zero
        out = a[z] @ b
        out[:z] += a[:z] @ b[z]
        for left, right, k in self._mixed:
            out[k] += a[left] @ b[right]
        return out

    def solve(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """X with p X = q for two stacks (N, K, D, D), member by member, by
        forward substitution over total degree: one solve against p's
        zero-order block per degree."""
        dim, z = p.shape[-1], self.zero
        p0 = p[z]
        x = np.empty_like(q)
        x[z] = np.linalg.solve(p0, q[z])
        x[:z] = q[:z] - p[:z] @ x[z]
        for targets, mixed in self._stages:
            for left, right, k in mixed:
                x[k] -= p[left] @ x[right]
            # each member's targets side by side as one right-hand side
            rhs = x[targets].transpose(1, 2, 0, 3).reshape(-1, dim, len(targets) * dim)
            sol = np.linalg.solve(p0, rhs)
            x[targets] = sol.reshape(-1, dim, len(targets), dim).transpose(2, 0, 1, 3)
        return x

    def one_norm(self, a: np.ndarray) -> np.ndarray:
        """1-norm of the dense matrix of an element (N, D, D), or of each
        member of a stack (N, K, D, D), from the blocks' column sums."""
        sums = np.abs(a).sum(axis=-2)
        dense = self._support @ sums.reshape(self.size, -1)
        return dense.reshape(sums.shape).max(axis=(0, -1))

    def expm(self, a: np.ndarray) -> np.ndarray:
        """exp(a) of an element (N, D, D), or of each member of a stack
        (N, K, D, D), by the scaling and squaring of :func:`linalg.expm`:
        the same scaling exponent, Pade(13) polynomials and solve, here in
        the algebra.  An element is a stack of one.  Each member has its
        own scaling exponent and only its own squarings, so it equals its
        lone exponential bit for bit."""
        lone = a.ndim == 3
        if lone:
            a = a[:, None]
        norm = self.one_norm(a)
        if not np.isfinite(norm).all():
            raise ValueError("expm input contains non-finite entries")
        s = scaling_exponent(norm)
        if s.any():
            a = a / (2.0**s)[:, None, None]
        ident = np.zeros_like(a)
        ident[self.zero] = np.eye(a.shape[-1])
        u, v = pade13(a, self.product, ident)
        r = self.solve(v - u, v + u)
        # round i squares only the members scaled down by more than i halvings
        for i in range(int(s.max(initial=0))):
            sq = s > i
            if sq.all():
                r = self.product(r, r)
            else:
                r[:, sq] = self.product(r[:, sq], r[:, sq])
        return r[:, 0] if lone else r

    def apply(
        self,
        p: np.ndarray,
        blocks: np.ndarray,
        adjoint: bool = False,
        p_conj: np.ndarray | None = None,
    ) -> np.ndarray:
        """p on an augmented state (N, d, d) or a batch (S, N, d, d): block
        k receives P_b x_r for each pair (b, r, k).  With ``adjoint``, p's
        Hermitian adjoint: block r receives P_b^dag y_k, by conj(p), which
        a caller that applies the same complex p's adjoint at every step
        passes once built as ``p_conj``.

        A complex p acts on column-vectorised blocks (D = d^2).  A real p
        acts on their coordinates in the Hermitian basis, T^dag vec(x) with
        T of ``linalg.hermitian_basis(d)``, as the ``expm`` step's
        propagator does: the blocks move into the basis and back with one
        product by T each, and the pairs run as real products on the real
        and imaginary parts of the coordinates, stacked as rows, so the
        blocks need not be Hermitian.

        The pairs run on the rows layout R[k, s] = vec(x_{s,k})^T, an
        (N, S, D) array.  The result is returned as a view of its rows
        array, so an input that is a result of ``apply`` is read without a
        copy; any other layout is copied into rows once.  Like the
        ``kernels``' wide arrays, the view is a fresh array that the
        caller may keep."""
        n_blocks, d, z = self.size, blocks.shape[-1], self.zero
        # block axis first, each block as the row vec(x)^T: (N, S, D), so
        # that P x is the row x^T P^T and P^dag y the row y^T conj(P)
        vecs = blocks.reshape(-1, n_blocks, d, d).transpose(1, 0, 3, 2)
        vecs = vecs.reshape(n_blocks, -1, d * d)
        real = p.dtype == np.float64
        if real:
            basis = hermitian_basis(d)
            n_rows = vecs.shape[1]
            # coordinate rows (T^dag x)^T = x^T conj(T)
            coords = (vecs.reshape(-1, d * d) @ basis.t_dag.T).reshape(vecs.shape)
            vecs = np.concatenate((coords.real, coords.imag), axis=1)
        if not adjoint:
            mats = p.swapaxes(-1, -2)
        else:
            mats = p.conj() if p_conj is None else p_conj
        out = vecs @ mats[z]
        if adjoint:
            out[z] += (vecs[:z] @ mats[:z]).sum(axis=0)
        else:
            out[:z] += vecs[z] @ mats[:z]
        for left, right, k in self._mixed:
            src, dst = (k, right) if adjoint else (right, k)
            out[dst] += vecs[src] @ mats[left]
        if real:
            # back from coordinate rows c^T to rows (T c)^T = c^T T^T
            out = (out[:, :n_rows] + 1j * out[:, n_rows:]).reshape(-1, d * d) @ basis.t.T
        return out.reshape(n_blocks, -1, d, d).transpose(1, 0, 3, 2).reshape(blocks.shape)


def generator_blocks(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    amplitudes: np.ndarray,
) -> np.ndarray:
    """The augmented generator as a real :class:`BlockAlgebra` element in
    the Hermitian basis: the step's Lindblad matrix at the zero order,
    -i[E_j, .] at e_j, summed from the model's ``generator_terms``.  Block
    b maps back to the column-stacking form as T G_b T^dag
    (``linalg.HermitianBasis.complex_map``).

    Amplitudes (C, K) of K steps give a stack (N, K, D, D), one member per
    step, each member's zero-order block summed as a lone step's is."""
    fixed, controls, uncertainties = model.generator_terms
    amps = np.asarray(amplitudes, dtype=float)
    steps = amps.reshape(amps.shape[0], -1).T
    gen = np.zeros((mset.size, len(steps)) + fixed.shape)
    # one tensordot per step: one product over all steps may sum in
    # another order and move the generator at roundoff
    for k, u in enumerate(steps):
        gen[mset.zero_index, k] = fixed + np.tensordot(u, controls, 1)
    for j in range(mset.m):
        unit = tuple(int(i == j) for i in range(mset.m))
        if unit in mset.index:
            gen[mset.index[unit]] = uncertainties[j]
    return gen[:, 0] if amps.ndim == 1 else gen


def step_propagator_expm(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    amplitudes: np.ndarray,
    dt: float,
) -> np.ndarray:
    """One-step propagator exp(dt * augmented generator) as a real
    :class:`BlockAlgebra` element in the Hermitian basis, an (N, d^2, d^2)
    float64 array; apply it with ``mset.algebra.apply``.  Amplitudes
    (C, K) of K steps give their K propagators as one stacked exponential,
    a (K, N, d^2, d^2) array whose member k is contiguous and equals step
    k's lone propagator bit for bit.

    Mapped back by T block by block and laid out densely, it is
    linalg.expm(dt * assemble_supermatrix(...)) up to roundoff, but
    neither matrix is formed.  Raises as :func:`assemble_supermatrix`
    does.
    """
    _check_dense_size(model, mset)
    props = mset.algebra.expm(dt * generator_blocks(model, mset, amplitudes))
    return props if props.ndim == 3 else np.ascontiguousarray(props.swapaxes(0, 1))


def state_to_vec(blocks: np.ndarray) -> np.ndarray:
    """Stack per-block column-vectorisations into one long vector (one
    per state of a batch)."""
    return blocks.swapaxes(-1, -2).reshape(blocks.shape[:-3] + (-1,))


def vec_to_state(v: np.ndarray, n_blocks: int, d: int) -> np.ndarray:
    """Inverse of :func:`state_to_vec`."""
    return np.ascontiguousarray(
        v.reshape(v.shape[:-1] + (n_blocks, d, d)).swapaxes(-1, -2)
    )
