"""Hot per-block kernels, written as numpy broadcasts.

Every propagation backend works on stacks of d x d complex blocks: one
augmented state has shape (N, d, d), and a batch of independent states
(the input states of a gate objective) adds a leading axis, (S, N, d, d).
Each kernel is a per-block linear map or a pairing summed over all
blocks, so it accepts either shape: the d x d blocks are the last two
axes, and the block index, which routing indexes, is axis -3.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "kernel_mode",
    "conjugate_blocks",
    "routed_commutator",
    "collapse_blocks",
    "lindblad_rhs_blocks",
    "control_pairing",
]


def kernel_mode() -> str:
    """The kernel implementation in use; there is one, plain numpy."""
    return "numpy"


def conjugate_blocks(u: np.ndarray, udag: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """u @ block @ udag for every block."""
    return np.matmul(u, np.matmul(blocks, udag))


def routed_commutator(
    blocks: np.ndarray,
    e: np.ndarray,
    dst: np.ndarray,
    src: np.ndarray,
    prefactor: complex,
) -> np.ndarray:
    """out[..., dst[i], :, :] = prefactor * [e, blocks[..., src[i], :, :]];
    zero elsewhere."""
    out = np.zeros_like(blocks)
    if dst.shape[0]:
        s = blocks[..., src, :, :]
        out[..., dst, :, :] = complex(prefactor) * (np.matmul(e, s) - np.matmul(s, e))
    return out


def collapse_blocks(
    ops: np.ndarray,
    ops_other: np.ndarray,
    gammas: np.ndarray,
    blocks: np.ndarray,
) -> np.ndarray:
    """sum_i gamma_i * ops_i @ block @ ops_other_i for every block.

    Two products for all i at once: the K operators laid side by side give
    block @ [g_1 o'_1 | ... | g_K o'_K] (d x Kd), and [o_1 | ... | o_K]
    (d x Kd) against those K results stacked vertically sums over i in its
    contraction.
    """
    k, d, _ = ops.shape
    lead = blocks.shape[:-2]
    right = (gammas[:, None, None] * ops_other).transpose(1, 0, 2).reshape(d, k * d)
    left = ops.transpose(1, 0, 2).reshape(d, k * d)
    stacked = np.matmul(blocks, right).reshape(*lead, d, k, d).swapaxes(-3, -2)
    return np.matmul(left, stacked.reshape(*lead, k * d, d))


def lindblad_rhs_blocks(
    h: np.ndarray,
    cs: np.ndarray,
    csd: np.ndarray,
    half_decay: np.ndarray,
    gammas: np.ndarray,
    blocks: np.ndarray,
    adjoint: bool = False,
) -> np.ndarray:
    """Lindblad generator (or its Hilbert-Schmidt adjoint) on each block.

    Forward: -i[h, b] + sum_i gamma_i (c b c^dag - (cdc b + b cdc)/2).
    Adjoint: +i[h, b] + sum_i gamma_i (c^dag b c - (cdc b + b cdc)/2).

    With ``half_decay`` = K/2 = sum_i gamma_i cdc_i / 2 the non-jump part
    is g b + b g' for g = -i h - K/2, g' = i h - K/2 (swapped for the
    adjoint), and :func:`collapse_blocks` adds the jump term: four
    products in all.
    """
    left, right = -1j * h - half_decay, 1j * h - half_decay
    if adjoint:
        left, right = right, left
        jump = collapse_blocks(csd, cs, gammas, blocks)
    else:
        jump = collapse_blocks(cs, csd, gammas, blocks)
    return np.matmul(left, blocks) + np.matmul(blocks, right) + jump


def control_pairing(
    o_blocks: np.ndarray, rho_blocks: np.ndarray, hc: np.ndarray
) -> complex:
    """sum_k tr(o_k^dag [hc, rho_k]) over every block of every state; the
    control gradient is its Im part."""
    m = np.matmul(hc, rho_blocks) - np.matmul(rho_blocks, hc)
    return complex(np.vdot(o_blocks, m))
