"""Hot per-block kernels, written as 2-D matrix products.

Every propagation backend works on stacks of d x d complex blocks: one
augmented state has shape (N, d, d), and a batch of independent states
(the input states of a gate objective) adds a leading axis, (S, N, d, d).
Each kernel is a per-block linear map or a pairing summed over all
blocks, so it accepts either shape: the d x d blocks are the last two
axes, and the block index, which routing indexes, is axis -3.

In memory the kernels work on the wide layout W[i, s, k, j] = X[s, k, i, j]:
the contiguous (d, S, N, d) array, or (d, N, d) for one state, with the
row index first, the column index last and the block axes in between,
so that the block index is axis -2 of W.  There a left product u @ X of
every block is the one GEMM u @ W.reshape(d, -1), and a right product
X @ v is W.reshape(-1, d) @ v, both without a copy.  :func:`to_wide` and
:func:`from_wide` convert between W and the (..., N, d, d) stack, and
:func:`wide` gives a stack backed by W, copying only when the stack is
not laid out so already.  Every kernel returns
its result as a (..., N, d, d) view of a fresh wide array, so that a
chain of kernel calls converts its input once and never copies to change
layout again.  Only the memory order differs: the values, and the shapes
the callers see, are those of the (..., N, d, d) stacks.  Elementwise
arithmetic between states is fastest on the contiguous W itself.
``augment.BlockAlgebra.apply`` keeps the same convention for its own
rows layout, (N, S, d^2) with one row vec(x)^T per block, so a fused
Trotter step changes layout once each way: the sandwich's
:func:`to_wide` copies the algebra's rows into W, and the next ``apply``
copies W back into rows.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "kernel_mode",
    "to_wide",
    "from_wide",
    "wide",
    "jump_factors",
    "conjugate_blocks",
    "routed_commutator",
    "collapse_blocks",
    "lindblad_rhs_blocks",
    "control_pairing",
]


def kernel_mode() -> str:
    """The kernel implementation in use; there is one, plain numpy."""
    return "numpy"


# axis orders from a block stack of ndim k to its wide array and back
_TO_WIDE = {k: (k - 2, *range(k - 2), k - 1) for k in range(2, 8)}
_FROM_WIDE = {k: (*range(1, k - 1), 0, k - 1) for k in range(2, 8)}


def to_wide(blocks: np.ndarray) -> np.ndarray:
    """The contiguous wide array (d, ..., N, d) of a block stack
    (..., N, d, d); a view when ``blocks`` is laid out wide already."""
    return np.ascontiguousarray(blocks.transpose(_TO_WIDE[blocks.ndim]), dtype=complex)


def from_wide(w: np.ndarray) -> np.ndarray:
    """The block stack (..., N, d, d) of a wide array, as a view."""
    return w.transpose(_FROM_WIDE[w.ndim])


def wide(blocks: np.ndarray) -> np.ndarray:
    """``blocks`` (..., N, d, d) backed by its wide array: a view of the
    same memory when it is laid out so already, else a copy."""
    return from_wide(to_wide(blocks))


def _left(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u @ X for every block X of the wide array ``w``: one GEMM."""
    return (u @ w.reshape(w.shape[0], -1)).reshape(w.shape)


def _right(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X @ v for every block X of the wide array ``w``: one GEMM."""
    return (w.reshape(-1, w.shape[-1]) @ v).reshape(w.shape)


def conjugate_blocks(u: np.ndarray, udag: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """u @ block @ udag for every block."""
    return from_wide(_right(_left(u, to_wide(blocks)), udag))


def routed_commutator(
    blocks: np.ndarray,
    e: np.ndarray,
    dst: np.ndarray,
    src: np.ndarray,
    prefactor: complex,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """out[..., dst[i], :, :] = base[..., dst[i], :, :]
    + prefactor * [e, blocks[..., src[i], :, :]]; base elsewhere.  ``base``
    is not changed, and None stands for zeros.  ``dst`` and ``src`` index
    the block axis: index arrays of equal length, or slices."""
    w = to_wide(blocks)
    out = np.zeros(w.shape, dtype=complex) if base is None else np.array(to_wide(base))
    s = w[..., src, :]
    comm = _left(e, s)
    comm -= _right(s, e)
    comm *= prefactor
    if base is not None:
        comm += out[..., dst, :]
    out[..., dst, :] = comm
    return from_wide(out)


def jump_factors(ops: np.ndarray, ops_other: np.ndarray, gammas: np.ndarray) -> tuple:
    """The map sum_i gamma_i * ops_i @ block @ ops_other_i, for K operator
    pairs, as the two d x Kd factors of :func:`collapse_blocks`: the
    left factors side by side, [o_1 | ... | o_K], and the weighted right
    ones, [g_1 o'_1 | ... | g_K o'_K]."""
    k, d, _ = ops.shape
    left = ops.transpose(1, 0, 2).reshape(d, k * d)
    right = (gammas[:, None, None] * ops_other).transpose(1, 0, 2).reshape(d, k * d)
    return np.ascontiguousarray(left), np.ascontiguousarray(right)


def collapse_blocks(
    left: np.ndarray,
    right: np.ndarray,
    blocks: np.ndarray,
    scale: float = 1.0,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """base + scale * sum_i gamma_i * ops_i @ block @ ops_other_i for every
    block, from the map's :func:`jump_factors` (``left``, ``right``).
    ``base`` is not changed, and None stands for zeros.

    Two GEMMs for all i at once: ``right`` gives every
    block @ g_i o'_i in one product; one transpose brings i next to the
    row index, and ``left`` then sums over i in its contraction.
    """
    d = left.shape[0]
    k = left.shape[1] // d
    w = to_wide(blocks)
    n = w.size // (d * d)
    stacked = (w.reshape(d * n, d) @ right).reshape(d, n, k, d)
    stacked = stacked.transpose(2, 0, 1, 3).reshape(k * d, n * d)
    out = (left @ stacked).reshape(w.shape)
    if scale != 1.0:
        out *= scale
    if base is not None:
        out += to_wide(base)
    return from_wide(out)


def lindblad_rhs_blocks(
    gen: np.ndarray,
    jumps: tuple,
    blocks: np.ndarray,
    adjoint: bool = False,
) -> np.ndarray:
    """Lindblad generator (or its Hilbert-Schmidt adjoint) on each block.

    Forward: -i[h, b] + sum_i gamma_i (c b c^dag - (cdc b + b cdc)/2).
    Adjoint: +i[h, b] + sum_i gamma_i (c^dag b c - (cdc b + b cdc)/2).

    With ``gen`` = -i h - K/2, K = sum_i gamma_i cdc_i, the non-jump part
    is gen b + b gen^dag (gen^dag b + b gen for the adjoint), and
    :func:`collapse_blocks` adds the jump term, from ``jumps``, the
    :func:`jump_factors` of the forward and of the adjoint jump term: four
    GEMMs in all.
    """
    w = to_wide(blocks)
    left, right = gen, gen.conj().T
    if adjoint:
        left, right = right, left
    out = _left(left, w)
    out += _right(w, right)
    return collapse_blocks(*jumps[int(adjoint)], from_wide(w), base=from_wide(out))


def control_pairing(o_blocks: np.ndarray, rho_blocks: np.ndarray) -> np.ndarray:
    """The d x d pairing matrix M = sum_k (rho_k o_k^dag - o_k^dag rho_k)
    over every block of every state, so that for any operator hc

        sum_k tr(o_k^dag [hc, rho_k]) = tr(hc M);

    one M serves every control channel, whose gradient is the Im part.
    Each sum is one GEMM on the wide arrays.
    """
    rho, oc = to_wide(rho_blocks), np.conj(to_wide(o_blocks))
    d = rho.shape[0]
    rows = rho.reshape(d, -1) @ oc.reshape(d, -1).T
    cols = oc.reshape(-1, d).T @ rho.reshape(-1, d)
    return rows - cols
