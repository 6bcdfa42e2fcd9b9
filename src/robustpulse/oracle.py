"""Independent verification oracles.

Everything in this module deliberately bypasses the augmented-block
machinery and the splitting factors: the uncertain system is propagated
as a plain density matrix under the full generator with the uncertainty
strengths inserted numerically, one supermatrix exponential per step.
The generator sums the model's ``generator_terms``, the one construction
that the ``expm`` step's augmented generator sums too; the tests check
the channel against one rebuilt with ``np.kron`` and scipy's ``expm``
from the model's operators, so a fault in that construction cannot hide
in its own verification.

The propagation runs in real arithmetic.  A Lindblad generator, and each
of its -i[H, .] terms, preserves Hermiticity, so in an orthonormal basis
of Hermitian matrices (``linalg.HermitianBasis``, the Pauli-transfer
form) it is a real matrix.  Each term is moved into that basis once per
model, and the channel is moved back once at the end; the steps
multiply float64 exponentials, a quarter of the complex flops.  A state
is propagated by applying its channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
# expm is not called here: perfbench/tracer.py wraps it at oracle.expm
from .linalg import expm, hermitian_basis
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


def noisy_liouvillian(
    model: OpenSystemModel, amplitudes: np.ndarray, eps: np.ndarray
) -> np.ndarray:
    """Real d^2 x d^2 generator of the plain master equation at strengths
    eps, in the Hermitian basis ``linalg.HermitianBasis(d)``.

    ``eps`` is one sample of shape (m,) or a batch of shape (count, m);
    a batch gives a (count, d^2, d^2) stack.  The generator is the fixed
    term plus sum_c u_c R_c plus sum_j eps_j R_j, each sum taken
    elementwise, so a batch member equals its lone run bit for bit.  The
    terms are the model's ``generator_terms``, built once per model.
    """
    eps = np.asarray(eps, dtype=float)
    single = eps.ndim <= 1
    batch = eps.reshape(1, -1) if single else eps
    if batch.ndim != 2 or batch.shape[1] != model.n_uncertainties:
        raise ValueError("need one strength per uncertainty operator")
    fixed, controls, uncertainties = model.generator_terms
    gen = fixed
    for u, r in zip(np.asarray(amplitudes, dtype=float), controls):
        gen = gen + u * r
    gen = np.broadcast_to(gen, (batch.shape[0],) + gen.shape)
    for e_j, r in zip(batch.T, uncertainties):
        gen = gen + e_j[:, None, None] * r
    return gen[0] if single else gen


def noisy_channel_super(
    model: OpenSystemModel, grid: ControlGrid, eps: np.ndarray
) -> np.ndarray:
    """Full-evolution channel matrix (column-stacking, complex): ordered
    product of per-step supermatrix exponentials at fixed strengths eps.

    ``eps`` of shape (count, m) gives the (count, d^2, d^2) channels of
    all samples, advanced together one step at a time.  The real
    generators of a run of steps, count d^4 numbers per step up to
    ``linalg.EXPM_STACK_NUMBERS`` in all (``linalg.expm_run``), are
    exponentiated as one stack, each member as it would be on its own;
    the steps then multiply into the channel one by one.  The product
    leaves the Hermitian basis once, at the end.
    """
    eps = np.asarray(eps, dtype=float)
    count = 1 if eps.ndim <= 1 else eps.shape[0]
    run = linalg.expm_run(count * model.dim**4)
    chan = np.eye(model.dim**2)
    for first in range(0, grid.n_steps, run):
        steps = range(first, min(first + run, grid.n_steps))
        gens = np.stack([noisy_liouvillian(model, grid.amplitudes[:, k], eps) for k in steps])
        # linalg.expm: perfbench's tracer wraps oracle.expm with a 2-D-only hook
        for step in linalg.expm(grid.dt * gens):
            chan = step @ chan
    return hermitian_basis(model.dim).complex_map(chan)


def propagate_noisy_exact(
    model: OpenSystemModel, grid: ControlGrid, rho0: np.ndarray, eps: np.ndarray
) -> np.ndarray:
    """Terminal density matrix of the plain (non-augmented) master
    equation with uncertainty strengths eps (shape (m,)): the channel of
    :func:`noisy_channel_super` applied to vec(rho0)."""
    chan = noisy_channel_super(model, grid, eps)
    return (chan @ linalg.vec(np.asarray(rho0))).reshape(model.dim, model.dim, order="F")


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
# stacked Pade keeps about a dozen stacks of that count alive, real ones of
# half that size, so this bounds a sweep's memory at any sample count; a
# 2-qubit sweep of up to 4096 samples is still a single chunk.
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
    uncertainty strengths; per chunk of samples (each chunk's channel
    stack within _SWEEP_STACK_BYTES) one exact channel construction and
    one stacked fidelity."""
    if dist.sigmas.size != model.n_uncertainties:
        raise ValueError("distribution dimension must match the uncertainty count")
    eps = dist.sample(count)
    chunk = max(1, _SWEEP_STACK_BYTES // (16 * model.dim**4))
    fids = np.empty(count)
    for lo in range(0, count, chunk):
        chans = noisy_channel_super(model, grid, eps[lo:lo + chunk])
        fids[lo:lo + chunk] = avg_gate_fidelity(chans, u_target)
    return NoiseSweepResult(eps=eps, fidelities=fids)
