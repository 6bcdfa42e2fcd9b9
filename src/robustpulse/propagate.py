"""Step propagators for the augmented Lindblad cascade.

Three interchangeable backends advance an augmented block state over one
piecewise-constant control step:

* ``expm``   - the step propagator exp(dt * G), exponentiated in the
  block algebra of the generator (``augment.step_propagator_expm``) and
  applied to the blocks pair by pair in that algebra; the forward sweep
  keeps each step's propagator as it builds it, for the adjoint sweep.
* ``ode``    - the action of the step exponential on the blocks by a
  truncated Taylor series whose degree and stage count are sized for
  each step from a generator-norm bound; exact to roundoff without the
  supermatrix.
* ``trotter``- second-order symmetric splitting: half-step nilpotent
  uncertainty drives and truncated collapse channel wrap a unitary
  control sandwich around the non-Hermitian effective-Hamiltonian flow;
  the sandwich is one conjugation by its d x d product, whose factors
  :func:`control_factors` builds for all steps of a grid at once.  The
  drives and collapse halves on either side do not depend on the step:
  up to N d^4 = ``_FUSED_UP_TO`` the plan composes each side once per
  index set and model into one block-algebra element, applied like an
  ``expm`` step propagator; above it each factor runs as its own kernel.

``expm`` and ``ode`` agree to roundoff; :func:`exact_backend` picks the
faster from the problem size and the sweeps per step exponential.

All backends expose exact Hilbert-Schmidt adjoints.  The one adjoint
sweep, :func:`propagate_backward`, given a forward cache also pairs each
step for the control gradient: by the product rule over the Trotter
step's two control factors, or to first order after an exact step.

Every step and propagation loop takes one augmented state (N, d, d) or a
batch of independent states (S, N, d, d) with the same controls; the
batch shares each step's factors (and, for ``expm``, each step's
exponential) across its states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .augment import (
    BlockAlgebra,
    MultiIndexSet,
    apply_Ej,  # not called here: perfbench/tracer.py wraps it here
    apply_Ej_adjoint,  # not called here: perfbench/tracer.py wraps it here
    apply_L,  # not called here: perfbench/tracer.py wraps it here
    apply_L_adjoint,  # not called here: perfbench/tracer.py wraps it here
    assemble_supermatrix,  # not called here: perfbench/tracer.py wraps it here
    lindblad_terms,
    quadrature_norm,
    step_propagator_expm,
)
from .linalg import expm, kron, one_and_inf_norms
from .model import ControlGrid, OpenSystemModel

__all__ = [
    "BACKENDS",
    "exact_backend",
    "StepCache",
    "GroupPlan",
    "TrotterPlan",
    "make_trotter_plan",
    "SandwichFactors",
    "control_factors",
    "exp_nilpotent",
    "step_ode",
    "step_trotter",
    "step_trotter_adjoint",
    "propagate_forward",
    "propagate_backward",
    "trotter_backward_with_gradient",
    "delta_st",
    "splitting_deviation",
    "generator_norm_bound",
    "default_substeps",
]

BACKENDS = ("expm", "ode", "trotter")

# Al-Mohy & Higham's theta_m for a backward error of 2^-53, at every
# fifth degree up to 55: the degree-m Taylor polynomial of exp(A) equals
# exp(A + dA) with ||dA|| <= 2^-53 ||A|| whenever ||A||_1 <= theta_m
_TAYLOR_THETA = {
    5: 2.40e-3, 10: 1.44e-1, 15: 6.41e-1, 20: 1.44, 25: 2.43, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0**-53

# Per-step cost (ms) of the exact backends on d+1 input states, 2 CPUs and
# one BLAS thread, median of 5 rounds interleaved in one process; "grad" is
# a forward and an adjoint sweep:
#   size    N d^2   expm fwd   ode fwd   expm grad   ode grad
#   1q o1       8       0.31      1.00        0.35       2.01
#   2q o1      48       0.50      1.91        0.61       4.09
#   2q o2      96       0.91      2.70        1.08       5.47
#   3q o1     192       4.31      4.62        4.84       8.76
#   3q o2     384       11.6      7.97        11.5       15.6
#   4q o1     768        191      36.5         186       72.3
# At 3 qubits the forward pass is near parity: 3q o1 reads 4.9 / 4.7 in a
# second run and 6.5-7.0 / 3.5-5.2 in fresh processes, where 3q o2 is at
# parity both ways (15-16 / 11-17 forward, 11-16 / 14-19 grad): ode pays
# there for glibc malloc's unraised mmap threshold.  expm pays its
# exponential (~ N d^6) once per step however many sweeps apply it.
# Largest N d^2 that runs expm, by sweeps per step:
_EXPM_UP_TO = {1: 128, 2: 512}

# Per-step cost (ms) of a whole Trotter step with its outer halves fused
# into two block-algebra elements or run factor by factor, on one state
# and on d+1 states, 2 CPUs and one BLAS thread, median of 5 rounds
# interleaved in one process; "build" is the one-off cost of the two
# elements (d+1 states' run):
#   size     N d^4    fused / factored, S=1    S=d+1              build
#   1q o1        32       0.051 / 0.153        0.059 / 0.158        0.2
#   2q o1       768       0.055 / 0.230        0.094 / 0.270        0.3
#   2q o2     1,536       0.108 / 0.411        0.181 / 0.507        0.4
#   2q o4     3,840       0.521 / 0.793        0.786 / 1.289        0.7
#   3q o1    12,288       0.084 / 0.246        0.264 / 0.600        1.9
#   3q o2    24,576       0.185 / 0.488        0.770 / 2.838        3.2
#   3q o3    40,960       0.468 / 0.827        1.620 / 2.936        6.2
#   3q o4    61,440       1.021 / 1.177        3.077 / 5.300        8.6
#   4q o1   196,608       0.654 / 0.591        4.404 / 6.369         53
#   4q o2   393,216       2.260 / 1.265        12.53 / 16.16        102
#   5q o0 1,048,576       2.841 / 0.966        19.14 / 29.70        613
#   5q o1 3,145,728       12.89 / 2.340        86.92 / 93.15      1,387
# A fused block is a d^2 x d^2 product where the factors make d x d
# ones, so from 4 qubits on the fused step wins only on many states and
# loses on one.  Up to 3 qubits it wins on both.  No rule on S N d^4 is
# drawn until workloads at 4 qubits run both one and d+1 states.
# Largest N d^4 whose Trotter step applies its outer halves fused:
_FUSED_UP_TO = 2**16


def exact_backend(model: OpenSystemModel, mset: MultiIndexSet, passes: int) -> str:
    """``expm`` or ``ode``, whichever is faster for ``passes`` sweeps per step
    exponential: 1 for a forward pass, 2 for a gradient (forward and adjoint)."""
    return "expm" if mset.size * model.dim**2 <= _EXPM_UP_TO[passes] else "ode"


@dataclass
class StepCache:
    """A sweep's block (or co-state) ``states[k]`` at t_k for k = 0..N_T,
    shaped (N, d, d) or, for a batch, (S, N, d, d).  ``records[k]`` is
    what forward step k leaves its adjoint, built as the step runs: the
    ``expm`` step's block propagator, or the Trotter states (pre, mid)
    just before its two control factors; ``ode`` leaves none.  ``grad`` is
    the control gradient of an adjoint sweep given a forward cache."""

    states: np.ndarray
    backend: str
    records: list = field(default_factory=list)
    grad: np.ndarray | None = None

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class GroupPlan:
    """One commuting control group: channel indices, shared diagonalizer,
    and the real diagonals of each channel operator in that basis."""

    channels: np.ndarray
    r: np.ndarray
    r_dag: np.ndarray
    diags: np.ndarray  # (n_channels_in_group, d) real


@dataclass
class TrotterPlan:
    """Precomputed step-independent factors of the symmetric splitting.

    ``readout`` (n_channels, G d) puts each channel's diagonal in its
    group's d columns, so that readout @ diag(r_q^dag M r_q), stacked
    over the groups q, is tr(H_c M) for every channel c.  ``halves``
    holds, per index set (m, n), the model they were built from and the
    step's two outer halves as :func:`_build_halves` builds them on first
    use; a step with another model (say, other uncertainty operators)
    builds them again.
    """

    dt: float
    u_eff: np.ndarray
    groups: list
    readout: np.ndarray
    halves: dict = field(default_factory=dict, repr=False, compare=False)


def _commutes(a: np.ndarray, b: np.ndarray) -> bool:
    scale = max(np.max(np.abs(a)) * np.max(np.abs(b)), 1.0)
    return np.max(np.abs(a @ b - b @ a)) <= 1e-12 * scale


def _group_diagonalizer(ops, rng: np.random.Generator) -> np.ndarray:
    """Unitary that simultaneously diagonalises a commuting Hermitian family."""
    d = ops[0].shape[0]
    for _ in range(16):
        weights = rng.standard_normal(len(ops))
        combo = sum(w * h for w, h in zip(weights, ops))
        _, r = np.linalg.eigh(combo)
        ok = True
        for h in ops:
            t = r.conj().T @ h @ r
            if np.max(np.abs(t - np.diag(np.diag(t)))) > 1e-10 * max(1.0, np.max(np.abs(h))):
                ok = False
                break
        if ok:
            return r
    raise RuntimeError("failed to find a simultaneous diagonalizer")


def make_trotter_plan(model: OpenSystemModel, dt: float) -> TrotterPlan:
    """Build the step-independent Trotter factors for ``model`` at ``dt``.

    Control operators are partitioned into mutually commuting groups.
    When the model carries builder-provided groups and diagonalizers
    (the spin chain does), those are used directly; otherwise groups are
    discovered greedily and diagonalizers come from the eigenbasis of a
    random linear combination.
    """
    d = model.dim
    rng = np.random.default_rng(1234)  # fixed, so plans are reproducible

    if model.commuting_groups is not None and model.group_diagonalizers is not None:
        raw_groups = [list(g) for g in model.commuting_groups]
        diagonalizers = list(model.group_diagonalizers)
    else:
        raw_groups: list = []
        for c, h in enumerate(model.controls):
            placed = False
            for g in raw_groups:
                if all(_commutes(h, model.controls[c2]) for c2 in g):
                    g.append(c)
                    placed = True
                    break
            if not placed:
                raw_groups.append([c])
        diagonalizers = [
            _group_diagonalizer([model.controls[c] for c in g], rng) for g in raw_groups
        ]

    groups = []
    for g, r in zip(raw_groups, diagonalizers):
        r = np.asarray(r, dtype=complex)
        diags = np.empty((len(g), d))
        for i, c in enumerate(g):
            t = r.conj().T @ model.controls[c] @ r
            off = np.max(np.abs(t - np.diag(np.diag(t))))
            if off > 1e-10 * max(1.0, np.max(np.abs(t))):
                raise ValueError(f"diagonalizer for group {g} leaves channel {c} non-diagonal")
            diags[i] = np.diag(t).real
        groups.append(
            GroupPlan(
                channels=np.array(g, dtype=np.int64),
                r=np.ascontiguousarray(r),
                r_dag=np.ascontiguousarray(r.conj().T),
                diags=diags,
            )
        )

    readout = np.zeros((len(model.controls), len(groups) * d))
    for q, g in enumerate(groups):
        readout[g.channels, q * d:(q + 1) * d] = g.diags

    h_eff = model.drift.astype(complex).copy()
    for cdc, gamma in zip(model.collapse_cdc_stack, model.rates):
        h_eff -= 0.5j * gamma * cdc
    u_eff = expm(-1.0j * dt * h_eff)

    return TrotterPlan(
        dt=float(dt), u_eff=np.ascontiguousarray(u_eff), groups=groups, readout=readout
    )


# ------------------------------------------------------------ factor actions


def exp_nilpotent(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    j: int,
    blocks: np.ndarray,
    tau: float,
    adjoint: bool = False,
) -> np.ndarray:
    """exp(tau * E_j-drive) on an augmented state, exact in n+1 terms.

    The drive routes commutators strictly downward in total order, so its
    matrix power n+1 vanishes and Horner-style nesting with coefficients
    1/(n-l) sums the series exactly.
    """
    n = mset.n
    if n == 0 or mset.m == 0:
        return np.copy(blocks)
    dst, src, prefactor = mset.drive(j, adjoint)
    blocks = kernels.wide(blocks)
    acc = blocks
    for level in range(n):
        acc = kernels.routed_commutator(
            acc, model.uncertainties[j], dst, src, prefactor * tau / (n - level), base=blocks
        )
    return acc


def _collapse_half(
    plan: TrotterPlan, model: OpenSystemModel, blocks: np.ndarray, adjoint: bool
) -> np.ndarray:
    """Truncated half-step collapse channel: 1 + (dt/2) C + (dt/2)^2 C^2 / 2,
    as 1 + (dt/2) C (1 + (dt/4) C)."""
    if model.rates.size == 0:
        return blocks
    half = 0.5 * plan.dt
    jump = model.jump_factors[int(adjoint)]
    inner = kernels.collapse_blocks(*jump, blocks, scale=0.5 * half, base=blocks)
    return kernels.collapse_blocks(*jump, inner, scale=half, base=blocks)


def _fuses(model: OpenSystemModel, mset: MultiIndexSet) -> bool:
    """Whether the step applies its outer halves as block-algebra elements
    (else factor by factor): N d^4 at most ``_FUSED_UP_TO``."""
    return mset.size * model.dim**4 <= _FUSED_UP_TO


def _build_halves(plan: TrotterPlan, model: OpenSystemModel, mset: MultiIndexSet) -> tuple:
    """The step's outer halves (P, Q) as :class:`BlockAlgebra` elements:
    P = C D_m ... D_1, the drives in ascending order and then the collapse
    half, and its mirror Q = D_1 ... D_m C.

    With tau = dt/2, the drive D_j = exp(tau U_j (x) S_{e_j}) has the
    block (tau U_j)^k / k! at k e_j, so P_p = C prod_j (tau U_j)^{p_j} /
    p_j! with the factors in descending j, and Q_p has them ascending,
    then C; C = 1 + (dt/2) J (1 + (dt/4) J), J = sum_i gamma_i conj(c_i)
    (x) c_i.  Each block is one product by tau U_j / p_j onto the block
    of p - e_j, for the largest j with p_j > 0, and one by C."""
    d2, tau = model.dim**2, 0.5 * plan.dt
    collapse = None
    if model.rates.size:
        jump = sum(g * kron(np.conj(c), c) for c, g in model.lindblads)
        collapse = np.eye(d2) + tau * jump @ (np.eye(d2) + 0.5 * tau * jump)
    drives = tau * model.uncertainty_supers
    z = mset.zero_index
    down = np.empty((mset.size, d2, d2), dtype=complex)  # prod_j descending
    up = np.empty_like(down)  # prod_j ascending
    down[z] = up[z] = np.eye(d2)
    # the zero order is last and every p - e_j comes after p
    for k in range(z - 1, -1, -1):
        p = mset.orders[k]
        j = max(i for i, x in enumerate(p) if x)
        prev = mset.index[p[:j] + (p[j] - 1,) + p[j + 1:]]
        factor = drives[j] / p[j]
        down[k] = factor if prev == z else factor @ down[prev]
        up[k] = factor if prev == z else up[prev] @ factor
    if collapse is not None:
        down[:z], down[z] = collapse @ down[:z], collapse
        up[:z], up[z] = up[:z] @ collapse, collapse
    return down, up


def _halves(plan: TrotterPlan, model: OpenSystemModel, mset: MultiIndexSet) -> tuple | None:
    """``mset``'s (P, Q) of :func:`_build_halves`, built once per plan,
    index set and model; None when the step applies its halves factor by
    factor."""
    if not _fuses(model, mset):
        return None
    key = (mset.m, mset.n)
    built = plan.halves.get(key)
    if built is None or built[0] is not model:
        built = plan.halves[key] = (model, *_build_halves(plan, model, mset))
    return built[1:]


def _outer_half(
    plan: TrotterPlan,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    blocks: np.ndarray,
    second: bool,
    adjoint: bool,
) -> np.ndarray:
    """The first half of the step outside its control sandwich (drives
    ascending, then collapse) or the ``second`` (collapse, then drives
    descending), of the step or, with ``adjoint``, of its adjoint: P, Q,
    Q^dag or P^dag in the block algebra, or at N d^4 above
    ``_FUSED_UP_TO`` the factors' own kernels."""
    halves = _halves(plan, model, mset)
    if halves is not None:
        return mset.algebra.apply(halves[second != adjoint], blocks, adjoint=adjoint)
    half = 0.5 * plan.dt
    blocks = kernels.wide(blocks)
    if second:
        blocks = _collapse_half(plan, model, blocks, adjoint)
    for j in reversed(range(mset.m)) if second else range(mset.m):
        blocks = exp_nilpotent(model, mset, j, blocks, half, adjoint=adjoint)
    if not second:
        blocks = _collapse_half(plan, model, blocks, adjoint)
    return blocks


class SandwichFactors(NamedTuple):
    """The control sandwich of a grid's steps as d x d conjugations, every
    field stacked over the steps; :meth:`at` gives one step's.

    With U_q the half-step unitary of group q, F1 = U_G ... U_1 the first
    control factor (group 1 acts first), F2 = U_1 ... U_G the second and
    u_eff the flow between them: ``pre_mid`` = u_eff F1 carries a state
    from before the first control factor to before the second,
    ``mid_post`` = F2 carries it on past the second, and ``whole`` = F2
    u_eff F1 is the sandwich; each comes with its adjoint.  ``readers``
    (2, G d, d), which only the gradient sweep asks for (None otherwise),
    holds for each control factor f and group q the rows r_q^dag V_fq,
    with V_fq the groups that factor f applies before q: a pairing matrix
    M taken at the factor's start reaches q's insertion point as
    V_fq M V_fq^dag, and q's channels read its diagonal in q's basis.
    """

    whole: np.ndarray
    whole_dag: np.ndarray
    pre_mid: np.ndarray
    pre_mid_dag: np.ndarray
    mid_post: np.ndarray
    mid_post_dag: np.ndarray
    readers: np.ndarray | None

    def at(self, k: int) -> SandwichFactors:
        return SandwichFactors._make(None if f is None else f[k] for f in self)


def _lmul(a: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """a @ x for every x of a stack (n, d, d), as one GEMM."""
    n, d, _ = stack.shape
    return (a @ stack.transpose(1, 0, 2).reshape(d, n * d)).reshape(d, n, d).transpose(1, 0, 2)


def control_factors(
    plan: TrotterPlan, amplitudes: np.ndarray, readers: bool = False
) -> SandwichFactors:
    """The control sandwich of every step, one per column of
    ``amplitudes`` (n_channels, n_steps), built by products batched over
    the steps; the gradient readers only with ``readers``."""
    half = 0.5 * plan.dt
    amplitudes = np.asarray(amplitudes, dtype=float)
    n_t, d = amplitudes.shape[1], plan.u_eff.shape[0]
    us = []
    for g in plan.groups:
        phases = np.exp(-1.0j * half * (amplitudes[g.channels].T @ g.diags))
        us.append(((g.r * phases[:, None, :]).reshape(-1, d) @ g.r_dag).reshape(n_t, d, d))
    # before[q] = U_q-1 ... U_1, so before[G] = F1; after[q] = U_q ... U_G,
    # so after[0] = F2 and after[q + 1] precedes group q in the second factor
    eye = np.broadcast_to(np.eye(d, dtype=complex), (n_t, d, d))
    before, after = [eye], [eye]
    for u in us:
        before.append(u if before[-1] is eye else u @ before[-1])
    for u in reversed(us):
        after.insert(0, u if after[0] is eye else u @ after[0])
    reader_rows = None
    if readers:
        reader_rows = np.empty((n_t, 2, len(plan.groups) * d, d), dtype=complex)
        for q, g in enumerate(plan.groups):
            span = slice(q * d, (q + 1) * d)
            reader_rows[:, 0, span] = g.r_dag if before[q] is eye else _lmul(g.r_dag, before[q])
            reader_rows[:, 1, span] = (
                g.r_dag if after[q + 1] is eye else _lmul(g.r_dag, after[q + 1])
            )
    pre_mid = _lmul(plan.u_eff, before[-1])
    mid_post = after[0]
    whole = mid_post @ pre_mid
    return SandwichFactors(
        *(x for a in (whole, pre_mid, mid_post) for x in (a, np.conj(a).swapaxes(-1, -2))),
        reader_rows,
    )


def step_trotter(
    plan: TrotterPlan,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    blocks: np.ndarray,
    amplitudes: np.ndarray,
    record: tuple | None = None,
    factors: SandwichFactors | None = None,
) -> np.ndarray:
    """One symmetric-splitting step.

    Application order: uncertainty drives (ascending), collapse half,
    control groups (ascending), effective-Hamiltonian flow, control
    groups (descending), collapse half, uncertainty drives (descending).
    The palindromic order keeps the one-step error at third order in dt.
    The control sandwich is one conjugation by its d x d product.  The
    drives and collapse half before it are one block-algebra element P,
    those after it its mirror Q, which the plan builds once per index set
    (:func:`_build_halves`); above ``_FUSED_UP_TO`` they run factor by
    factor.

    With ``record`` a pair of arrays (pre, mid) shaped like ``blocks``,
    the states just before the first and the second control factor are
    written into them; mid takes a second conjugation, so that the step's
    result is the unrecorded step's to the last bit.
    ``factors``, this step's :func:`control_factors` (``.at(k)``), saves
    building them from ``amplitudes``.
    """
    if factors is None:
        factors = control_factors(plan, np.asarray(amplitudes)[:, None]).at(0)
    blocks = _outer_half(plan, model, mset, blocks, second=False, adjoint=False)
    if record is not None:
        record[0][...] = blocks
        record[1][...] = kernels.conjugate_blocks(factors.pre_mid, factors.pre_mid_dag, blocks)
    blocks = kernels.conjugate_blocks(factors.whole, factors.whole_dag, blocks)
    return _outer_half(plan, model, mset, blocks, second=True, adjoint=False)


def step_trotter_adjoint(
    plan: TrotterPlan,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    blocks: np.ndarray,
    amplitudes: np.ndarray,
    pre: np.ndarray | None = None,
    mid: np.ndarray | None = None,
    grad_col: np.ndarray | None = None,
    factors: SandwichFactors | None = None,
) -> np.ndarray:
    """Hilbert-Schmidt adjoint of :func:`step_trotter` (same amplitudes).

    With ``grad_col`` given, the step's exact control gradient is added
    into it, from the states ``pre`` and ``mid`` that
    :func:`step_trotter` recorded on the forward pass.  By the product
    rule, channel c of group q contributes (dt/2) Im tr(o^dag [H_c, x])
    per control factor, with x the state and o the co-state at q's
    insertion point.  Conjugating both by the groups before q leaves this
    as tr(H_c V M V^dag), where M = :func:`kernels.control_pairing` pairs
    the factor's starting state with the co-state pulled back through the
    whole factor: one d x d matrix per factor, which the
    ``factors.readers`` carry to every group.  ``factors`` as in
    :func:`step_trotter`.
    """
    half = 0.5 * plan.dt
    if factors is None:
        amps = np.asarray(amplitudes)[:, None]
        factors = control_factors(plan, amps, readers=grad_col is not None).at(0)
    blocks = _outer_half(plan, model, mset, blocks, second=False, adjoint=True)
    if grad_col is None:
        blocks = kernels.conjugate_blocks(factors.whole_dag, factors.whole, blocks)
    else:
        blocks = kernels.conjugate_blocks(factors.mid_post_dag, factors.mid_post, blocks)
        at_mid = kernels.control_pairing(blocks, mid)
        blocks = kernels.conjugate_blocks(factors.pre_mid_dag, factors.pre_mid, blocks)
        at_pre = kernels.control_pairing(blocks, pre)
        # diagonal of readers_f M_f readers_f^dag, summed over both factors
        carried = factors.readers @ np.stack((at_pre, at_mid))
        diag = np.sum(carried * factors.readers.conj(), axis=(0, 2))
        grad_col += half * (plan.readout @ diag.imag)
    return _outer_half(plan, model, mset, blocks, second=True, adjoint=True)


# ------------------------------------------------------------- expm backend


# the block apply, under the name perfbench/tracer.py times it by:
# apply_supermatrix(mset.algebra, prop, blocks, adjoint=False)
apply_supermatrix = BlockAlgebra.apply


# -------------------------------------------------------------- ode backend


def generator_norm_bound(model: OpenSystemModel, amplitudes: np.ndarray) -> float:
    """Cheap upper bound on both the 1-norm and the inf-norm of the
    vectorised augmented generator, hence also on its spectral norm.

    The generator is I (x) L + sum_j R_j (x) C_j, where each routing
    matrix R_j has at most one unit entry per row and per column, and both
    induced norms are multiplicative under Kronecker products.  With
    a = ||X||_1 and b = ||X||_inf of a Hilbert-space operator X, the
    commutator -i[X, .] is bounded by a + b in either norm, and a collapse
    term of rate gamma by gamma * (max(a, b)^2 + a * b).
    """
    h1, hinf = one_and_inf_norms(model.hamiltonian(amplitudes))
    collapse, drives = model.fixed_norm_bounds
    return float(h1 + hinf + collapse + drives)


def _taylor_degree(x: float) -> int:
    """Least tabulated degree m with x <= theta_m."""
    return next(m for m, theta in _TAYLOR_THETA.items() if x <= theta)


def default_substeps(model: OpenSystemModel, amplitudes: np.ndarray, dt: float) -> int:
    """Number s of scaling stages of one ``ode`` step: of the pairs (m, s)
    with dt * generator_norm_bound <= s * theta_m, the one of least cost
    m * s (fewer stages on a tie)."""
    x = dt * generator_norm_bound(model, amplitudes)
    pairs = [(m, max(1, int(np.ceil(x / theta)))) for m, theta in _TAYLOR_THETA.items()]
    return min(pairs, key=lambda ms: (ms[0] * ms[1], ms[1]))[1]


def _augmented_rhs(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    terms: tuple,
    blocks: np.ndarray,
    adjoint: bool,
) -> np.ndarray:
    """G (or G^dag) on the blocks; ``terms`` are the step's
    :func:`augment.lindblad_terms`."""
    out = kernels.lindblad_rhs_blocks(*terms, blocks, adjoint=adjoint)
    for j in range(mset.m):
        out = kernels.routed_commutator(
            blocks, model.uncertainties[j], *mset.drive(j, adjoint), base=out
        )
    return out


def step_ode(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    blocks: np.ndarray,
    amplitudes: np.ndarray,
    dt: float,
    adjoint: bool = False,
) -> np.ndarray:
    """One exact step: the action of exp(dt * G) (of exp(dt * G^dag) for
    the adjoint) on the block state, without forming G.

    Truncated Taylor series of Al-Mohy & Higham (SIAM J. Sci. Comput. 33,
    488, 2011) in s = ``default_substeps`` stages of h = dt / s.  A stage
    adds at most m terms, term_k = (h / k) * G term_{k-1}, and stops once
    its last two terms are below roundoff relative to the running sum.
    """
    stages = default_substeps(model, amplitudes, dt)
    h = dt / stages
    degree = _taylor_degree(h * generator_norm_bound(model, amplitudes))
    terms = lindblad_terms(model, amplitudes)
    out = np.array(kernels.to_wide(blocks))
    for _ in range(stages):
        term = out
        prev = np.max(np.abs(term))
        for k in range(1, degree + 1):
            rhs = _augmented_rhs(model, mset, terms, kernels.from_wide(term), adjoint)
            term = kernels.to_wide(rhs)
            term *= h / k
            out += term
            size = np.max(np.abs(term))
            if prev + size <= _UNIT_ROUNDOFF * np.max(np.abs(out)):
                break
            prev = size
    return kernels.from_wide(out)


# ------------------------------------------------------------- driver loops


def _stepper(
    backend: str,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid: ControlGrid,
    plan: TrotterPlan | None,
    fwd: StepCache | None = None,
):
    """The backend's map ``step(k, blocks, adjoint=False, record=None)``
    over step k of ``grid``, and ``gradient()``, the control gradient
    (n_channels, n_steps) that its adjoint steps gather given ``fwd``.

    A forward step appends to the list ``record`` what its adjoint
    reuses.  Given ``fwd``, the same backend's forward cache, adjoint
    step k reuses ``fwd.records[k]`` and pairs for the gradient: by the
    product rule over the Trotter step's two control factors, or for
    ``expm`` and ``ode`` to first order, dt Im tr(O_{k+1}^dag [H_c,
    rho_{k+1}]) summed over all blocks, which is tr(H_c M_k) with M_k the
    step's one d x d pairing matrix.  A Trotter plan is built when none
    is given, and the control factors of every step once, here."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    amps, dt, n_t = grid.amplitudes, grid.dt, grid.n_steps
    if fwd is not None and fwd.backend != backend:
        raise ValueError(f"forward cache comes from the {fwd.backend!r} backend, not {backend!r}")
    if fwd is not None and len(fwd.states) != n_t + 1:
        raise ValueError(
            f"forward cache has {len(fwd.states) - 1} steps where the grid has {n_t}"
        )
    if backend == "trotter":
        if plan is None:
            plan = make_trotter_plan(model, dt)
        factors = control_factors(plan, amps, readers=fwd is not None)
        grad = np.zeros((grid.n_channels, n_t))

        def step(k, blocks, adjoint=False, record=None):
            if adjoint:
                pre, mid = (None, None) if fwd is None else fwd.records[k]
                return step_trotter_adjoint(
                    plan, model, mset, blocks, amps[:, k], pre=pre, mid=mid,
                    grad_col=None if fwd is None else grad[:, k], factors=factors.at(k),
                )
            slots = None
            if record is not None:
                slots = (np.empty_like(blocks), np.empty_like(blocks))
                record.append(slots)
            return step_trotter(
                plan, model, mset, blocks, amps[:, k], record=slots, factors=factors.at(k)
            )
        return step, lambda: grad

    pairings = None if fwd is None else np.empty((n_t, model.dim, model.dim), dtype=complex)

    def step(k, blocks, adjoint=False, record=None):
        reuse = adjoint and fwd is not None
        if reuse:
            pairings[k] = kernels.control_pairing(blocks, fwd.states[k + 1])
        if backend == "ode":
            return step_ode(model, mset, blocks, amps[:, k], dt, adjoint=adjoint)
        prop = fwd.records[k] if reuse else step_propagator_expm(model, mset, amps[:, k], dt)
        if record is not None:
            record.append(prop)
        return apply_supermatrix(mset.algebra, prop, blocks, adjoint=adjoint)

    def gradient():
        # tr(H M) = sum_ij H[i, j] M[j, i]
        return dt * np.einsum("cij,kji->ck", np.stack(model.controls), pairings).imag
    return step, gradient


def propagate_forward(
    backend: str,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid: ControlGrid,
    state0: np.ndarray,
    plan: TrotterPlan | None = None,
) -> StepCache:
    """Propagate an augmented state over the whole grid, caching every
    intermediate state and what each step's adjoint reuses, as the steps
    build it (:class:`StepCache`): by the end, for ``expm``, n_t block
    elements of N d^4 numbers each; a forward-only caller that needs just
    the final state uses :func:`propagate_final`, which holds one at a time."""
    step, _ = _stepper(backend, model, mset, grid, plan)
    cache = StepCache(np.empty((grid.n_steps + 1,) + state0.shape, dtype=complex), backend)
    cache.states[0] = state0
    blocks = np.ascontiguousarray(state0, dtype=complex)
    for k in range(grid.n_steps):
        blocks = step(k, blocks, record=cache.records)
        cache.states[k + 1] = blocks
    return cache


def propagate_final(
    backend: str,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid: ControlGrid,
    state0: np.ndarray,
    plan: TrotterPlan | None = None,
) -> np.ndarray:
    """Final augmented state only; no caching (line-search fast path)."""
    step, _ = _stepper(backend, model, mset, grid, plan)
    blocks = np.ascontiguousarray(state0, dtype=complex)
    for k in range(grid.n_steps):
        blocks = step(k, blocks)
    return np.ascontiguousarray(blocks)


def propagate_backward(
    backend: str,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid: ControlGrid,
    costate_T: np.ndarray,
    plan: TrotterPlan | None = None,
    fwd: StepCache | None = None,
) -> StepCache:
    """Pull a terminal co-state back through the adjoint steps.

    Returns a cache whose ``states[k]`` is the co-state at t_k; the
    pairing <costate(t_k), state(t_k)> is step-invariant for the exact
    backends and exactly matches the Trotter map's true adjoint for the
    trotter backend.  Given ``fwd``, the same backend's forward cache on
    the same grid, ``grad`` is the control gradient of the objective
    whose terminal derivative is ``costate_T``: exact for the Trotter map,
    first order in dt for the exact backends.  The pairings sum over a
    batch, so weights folded into the co-states give the weighted
    gradient in one sweep.
    """
    step, gradient = _stepper(backend, model, mset, grid, plan, fwd)
    n_t = grid.n_steps
    cache = StepCache(np.empty((n_t + 1,) + costate_T.shape, dtype=complex), backend)
    cache.states[n_t] = costate_T
    blocks = np.ascontiguousarray(costate_T, dtype=complex)
    for k in range(n_t - 1, -1, -1):
        blocks = step(k, blocks, adjoint=True)
        cache.states[k] = blocks
    if fwd is not None:
        cache.grad = gradient()
    return cache


def trotter_backward_with_gradient(
    plan: TrotterPlan,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid: ControlGrid,
    fwd: StepCache,
    costate_T: np.ndarray,
) -> np.ndarray:
    """The Trotter :func:`propagate_backward` sweep's gradient; only the
    benchmark's tracer still looks this name up."""
    return propagate_backward("trotter", model, mset, grid, costate_T, plan=plan, fwd=fwd).grad


def delta_st(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid: ControlGrid,
    state0: np.ndarray,
    plan: TrotterPlan | None = None,
) -> float:
    """Relative terminal deviation of the Trotter backend from the exact
    supermatrix propagation (see ``splitting_deviation``)."""
    exact = propagate_final("expm", model, mset, grid, state0)
    approx = propagate_final("trotter", model, mset, grid, state0, plan=plan)
    return splitting_deviation(exact, approx)


def splitting_deviation(exact: np.ndarray, approx: np.ndarray) -> float:
    """Relative distance of ``approx`` from ``exact`` in the stacked
    Frobenius norm; for a batch of states the norm stacks every state's
    blocks."""
    ref = quadrature_norm(exact)
    if ref == 0.0:
        raise ValueError("exact propagation returned a zero state")
    return quadrature_norm(exact - approx) / ref
