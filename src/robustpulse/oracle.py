"""Independent verification oracles.

Everything in this module deliberately bypasses the augmented-block
machinery and the splitting factors: the uncertain system is propagated
as a plain density matrix under the full generator with the uncertainty
strengths inserted numerically, one supermatrix exponential per step.
The vectorised generator is rebuilt here from first principles so a bug
in the production assembly cannot hide in its own verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import expm
from .model import ControlGrid, NoiseDistribution, OpenSystemModel
from .objective import avg_gate_fidelity

__all__ = [
    "noisy_liouvillian",
    "propagate_noisy_exact",
    "noisy_channel_super",
    "fd_taylor_block",
    "haar_mc_agf",
    "NoiseSweepResult",
    "noise_sweep",
]


def _collapse_terms(model: OpenSystemModel) -> list:
    """One d^2 x d^2 generator term per collapse operator; they depend on
    neither the time step nor the uncertainty strengths."""
    ident = np.eye(model.dim, dtype=complex)
    cdcs = [c.conj().T @ c for c, _ in model.lindblads]
    return [
        gamma * (np.kron(np.conj(c), c) - 0.5 * np.kron(ident, cdc) - 0.5 * np.kron(cdc.T, ident))
        for (c, gamma), cdc in zip(model.lindblads, cdcs)
    ]


def noisy_liouvillian(
    model: OpenSystemModel, amplitudes: np.ndarray, eps: np.ndarray, *, _collapse=None
) -> np.ndarray:
    """d^2 x d^2 generator of the plain master equation at strengths eps.

    ``eps`` is one sample of shape (m,) or a batch of shape (count, m);
    a batch gives a (count, d^2, d^2) stack.  Column-stacking convention:
    rho A B -> vec as (B^T kron A) applied to vec(rho); assembled directly
    from the Hamiltonian and collapse terms, each collapse term once for
    the whole batch.  A propagation loop passes ``_collapse_terms(model)``
    as ``_collapse``, so that it builds them once.
    """
    d = model.dim
    eps = np.asarray(eps, dtype=float)
    single = eps.ndim <= 1
    batch = eps.reshape(1, -1) if single else eps
    if batch.ndim != 2 or batch.shape[1] != model.n_uncertainties:
        raise ValueError("need one strength per uncertainty operator")
    h = np.broadcast_to(model.hamiltonian(amplitudes), (batch.shape[0], d, d))
    for e_j, op in zip(batch.T, model.uncertainties):
        h = h + e_j[:, None, None] * op
    ident = np.eye(d, dtype=complex)
    gen = -1.0j * (np.kron(ident, h) - np.kron(h.swapaxes(-1, -2), ident))
    for term in _collapse_terms(model) if _collapse is None else _collapse:
        gen += term
    return gen[0] if single else gen


def noisy_channel_super(
    model: OpenSystemModel, grid: ControlGrid, eps: np.ndarray
) -> np.ndarray:
    """Full-evolution channel matrix: ordered product of per-step
    supermatrix exponentials at fixed strengths eps.

    ``eps`` of shape (count, m) gives the (count, d^2, d^2) channels of
    all samples, advanced together one step at a time: per step one
    stacked generator and one stacked exponential.
    """
    d = model.dim
    collapse = _collapse_terms(model)
    chan = np.eye(d * d, dtype=complex)
    for k in range(grid.n_steps):
        gen = noisy_liouvillian(model, grid.amplitudes[:, k], eps, _collapse=collapse)
        # linalg.expm: perfbench's tracer wraps oracle.expm with a 2-D-only hook
        chan = linalg.expm(grid.dt * gen) @ chan
    return chan


def propagate_noisy_exact(
    model: OpenSystemModel, grid: ControlGrid, rho0: np.ndarray, eps: np.ndarray
) -> np.ndarray:
    """Terminal density matrix of the plain (non-augmented) master
    equation with uncertainty strengths eps."""
    d = model.dim
    v = np.asarray(rho0, dtype=complex).reshape(d * d, order="F")
    collapse = _collapse_terms(model)
    for k in range(grid.n_steps):
        gen = noisy_liouvillian(model, grid.amplitudes[:, k], eps, _collapse=collapse)
        v = expm(grid.dt * gen) @ v
    return v.reshape(d, d, order="F")


def fd_taylor_block(
    model: OpenSystemModel,
    grid: ControlGrid,
    rho0: np.ndarray,
    p,
    h: float = 1e-4,
) -> np.ndarray:
    """Central-difference estimate of the Taylor coefficient block for
    multi-index ``p`` (total order <= 2) at eps = 0.

    First order: [rho(+h) - rho(-h)] / 2h.  Diagonal second order:
    [rho(+h) - 2 rho(0) + rho(-h)] / h^2 / 2!.  Mixed second order: the
    four-point cross stencil / 4h^2.  ``h`` is in rad/ns.
    """
    p = tuple(int(x) for x in p)
    m = model.n_uncertainties
    if len(p) != m:
        raise ValueError("multi-index length must match the uncertainty count")
    order = sum(p)

    def run(eps):
        return propagate_noisy_exact(model, grid, rho0, np.asarray(eps, dtype=float))

    zero = np.zeros(m)
    if order == 0:
        return run(zero)
    if order == 1:
        j = p.index(1)
        ep = zero.copy()
        ep[j] = h
        em = zero.copy()
        em[j] = -h
        return (run(ep) - run(em)) / (2.0 * h)
    if order == 2 and 2 in p:
        j = p.index(2)
        ep = zero.copy()
        ep[j] = h
        em = zero.copy()
        em[j] = -h
        return (run(ep) - 2.0 * run(zero) + run(em)) / (h * h) / 2.0
    if order == 2:
        i, j = [idx for idx, val in enumerate(p) if val == 1]
        out = np.zeros((model.dim, model.dim), dtype=complex)
        for si in (1.0, -1.0):
            for sj in (1.0, -1.0):
                eps = zero.copy()
                eps[i] = si * h
                eps[j] = sj * h
                out += si * sj * run(eps)
        return out / (4.0 * h * h)
    raise ValueError(f"finite-difference stencils cover total order <= 2, got {order}")


def haar_mc_agf(
    channel_super: np.ndarray,
    u_target: np.ndarray,
    samples: int = 100000,
    seed: int = 0,
) -> tuple:
    """Monte-Carlo average gate fidelity over Haar-random pure states.

    States are drawn as normalised complex Gaussians.  Returns
    (mean, standard error).
    """
    d = u_target.shape[0]
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((samples, d)) + 1.0j * rng.standard_normal((samples, d))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    # vec(|psi><psi|) columns, column-stacking: entry (r + c*d) = psi_r conj(psi_c)
    outer = psi[:, :, None] * np.conj(psi[:, None, :])  # (samples, d, d) row r col c
    vecs = outer.swapaxes(1, 2).reshape(samples, d * d)
    mapped = vecs @ channel_super.T
    rho_out = mapped.reshape(samples, d, d).swapaxes(1, 2)
    # fidelity <psi_t| Lambda(|psi><psi|) |psi_t> with |psi_t> = U|psi>
    psi_t = psi @ u_target.T
    vals = np.real(np.einsum("si,sij,sj->s", np.conj(psi_t), rho_out, psi_t))
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(samples))
    return mean, stderr


# Bytes of one (chunk, d^2, d^2) complex channel stack in noise_sweep.  The
# stacked Pade keeps about a dozen stacks of that size alive, so this bounds
# a sweep's memory at any sample count; a 2-qubit sweep of up to 4096
# samples is still a single chunk.
_SWEEP_STACK_BYTES = 2**24


@dataclass
class NoiseSweepResult:
    """Sampled uncertainty strengths with the resulting gate fidelities."""

    eps: np.ndarray  # (count, m) rad/ns
    fidelities: np.ndarray  # (count,)

    @property
    def gate_errors(self) -> np.ndarray:
        return 1.0 - self.fidelities

    @property
    def mean_error(self) -> float:
        return float(np.mean(self.gate_errors))

    def cdf(self, thresholds) -> np.ndarray:
        """Fraction of samples with gate error <= each threshold."""
        thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
        errors = self.gate_errors
        return np.array([float(np.mean(errors <= t)) for t in thresholds])


def noise_sweep(
    model: OpenSystemModel,
    grid: ControlGrid,
    u_target: np.ndarray,
    dist: NoiseDistribution,
    count: int,
) -> NoiseSweepResult:
    """Average-gate-fidelity statistics of a control under sampled
    uncertainty strengths; one exact channel construction per chunk of
    samples (each chunk's channel stack within _SWEEP_STACK_BYTES), then
    each sample's fidelity."""
    if dist.sigmas.size != model.n_uncertainties:
        raise ValueError("distribution dimension must match the uncertainty count")
    eps = dist.sample(count)
    chunk = max(1, _SWEEP_STACK_BYTES // (16 * model.dim**4))
    fids = np.array([
        avg_gate_fidelity(c, u_target)
        for lo in range(0, count, chunk)
        for c in noisy_channel_super(model, grid, eps[lo:lo + chunk])
    ])
    return NoiseSweepResult(eps=eps, fidelities=fids)
