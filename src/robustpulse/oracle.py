"""Independent verification oracles.

Everything in this module deliberately bypasses the augmented-block
machinery and the splitting factors: the uncertain system is propagated
as a plain density matrix under the full generator with the uncertainty
strengths inserted numerically, one supermatrix exponential per step.
The generator is rebuilt here from first principles, with ``np.kron`` on
the model's operators, so a bug in the production assembly of
``augment`` cannot hide in its own verification.

The propagation runs in real arithmetic.  A Lindblad generator, and each
of its -i[H, .] terms, preserves Hermiticity, so in an orthonormal basis
of Hermitian matrices (``linalg.HermitianBasis``, the Pauli-transfer
form) it is a real matrix.  Each term is moved into that basis once per
propagation, and the result is moved back once at the end; the steps
multiply float64 exponentials, a quarter of the complex flops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import HermitianBasis, expm
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


def _generator_terms(model: OpenSystemModel, basis: HermitianBasis) -> tuple:
    """The real d^2 x d^2 terms of the generator in the Hermitian basis:
    drift plus dissipator as one matrix, then a (n_controls, d^2, d^2) and
    a (n_uncertainties, d^2, d^2) stack of the -i[H, .] terms.  They depend
    on neither the time step nor the uncertainty strengths."""
    d = model.dim
    ident = np.eye(d, dtype=complex)
    ops = np.array([model.drift, *model.controls, *model.uncertainties])
    # column-stacking: rho A B -> (B^T kron A) vec(rho); all -i[H, .] at once
    comm = -1.0j * (np.kron(ident[None], ops) - np.kron(ops.swapaxes(-1, -2), ident[None]))
    # realness is judged against the operators that build a term, which can
    # cancel to roundoff; max |cdc| bounds every entry of a collapse term
    scales = np.max(np.abs(ops), axis=(1, 2))
    fixed, fixed_scale = comm[0], scales[0]
    for c, gamma in model.lindblads:
        cdc = c.conj().T @ c
        fixed = fixed + gamma * (
            np.kron(np.conj(c), c) - 0.5 * np.kron(ident, cdc) - 0.5 * np.kron(cdc.T, ident)
        )
        fixed_scale = max(fixed_scale, gamma * np.max(np.abs(cdc)))
    n_c = len(model.controls)
    names = [f"control {i}" for i in range(n_c)]
    names += [f"uncertainty {j}" for j in range(model.n_uncertainties)]
    real = [basis.real_map(t, name, s) for t, name, s in zip(comm[1:], names, scales[1:])]
    real = np.array(real).reshape(-1, d * d, d * d)
    return basis.real_map(fixed, "drift plus dissipator", fixed_scale), real[:n_c], real[n_c:]


def noisy_liouvillian(
    model: OpenSystemModel, amplitudes: np.ndarray, eps: np.ndarray, *, _terms=None
) -> np.ndarray:
    """Real d^2 x d^2 generator of the plain master equation at strengths
    eps, in the Hermitian basis ``linalg.HermitianBasis(d)``.

    ``eps`` is one sample of shape (m,) or a batch of shape (count, m);
    a batch gives a (count, d^2, d^2) stack.  The generator is the fixed
    term plus sum_c u_c R_c plus sum_j eps_j R_j, each sum taken
    elementwise, so a batch member equals its lone run bit for bit.  A
    propagation loop passes ``_generator_terms(model, basis)`` as
    ``_terms``, so that it builds the terms once.
    """
    eps = np.asarray(eps, dtype=float)
    single = eps.ndim <= 1
    batch = eps.reshape(1, -1) if single else eps
    if batch.ndim != 2 or batch.shape[1] != model.n_uncertainties:
        raise ValueError("need one strength per uncertainty operator")
    if _terms is None:
        _terms = _generator_terms(model, HermitianBasis(model.dim))
    fixed, controls, uncertainties = _terms
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
    all samples, advanced together one step at a time: per step one
    stacked real generator and one stacked real exponential.  The product
    leaves the Hermitian basis once, at the end.
    """
    basis = HermitianBasis(model.dim)
    terms = _generator_terms(model, basis)
    chan = np.eye(model.dim**2)
    for k in range(grid.n_steps):
        gen = noisy_liouvillian(model, grid.amplitudes[:, k], eps, _terms=terms)
        # linalg.expm: perfbench's tracer wraps oracle.expm with a 2-D-only hook
        chan = linalg.expm(grid.dt * gen) @ chan
    return basis.complex_map(chan)


def propagate_noisy_exact(
    model: OpenSystemModel, grid: ControlGrid, rho0: np.ndarray, eps: np.ndarray
) -> np.ndarray:
    """Terminal density matrix of the plain (non-augmented) master
    equation with uncertainty strengths eps."""
    d = model.dim
    basis = HermitianBasis(d)
    terms = _generator_terms(model, basis)
    coords = basis.coords(np.asarray(rho0, dtype=complex).reshape(d * d, order="F"))
    # real and imaginary parts as two real columns: rho0 need not be Hermitian
    x = np.stack([coords.real, coords.imag], axis=1)
    for k in range(grid.n_steps):
        gen = noisy_liouvillian(model, grid.amplitudes[:, k], eps, _terms=terms)
        x = expm(grid.dt * gen) @ x
    return basis.vec(x[:, 0] + 1.0j * x[:, 1]).reshape(d, d, order="F")


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
