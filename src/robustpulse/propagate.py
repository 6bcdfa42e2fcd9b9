"""Step propagators for the augmented Lindblad cascade.

Three interchangeable backends advance an augmented block state over one
piecewise-constant control step:

* ``expm``   - the step propagator exp(dt * G), exponentiated in the
  block algebra of the generator (``augment.step_propagator_expm``), in
  float64: every block of G preserves Hermiticity, so in the Hermitian
  basis (``linalg.HermitianBasis``) the generator and its exponential are
  real.  The step moves the blocks into that basis and back, one product
  by T each way, and applies the propagator pair by pair in the algebra;
  the forward sweep keeps each step's propagator as it builds it, for
  the adjoint sweep.
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
  A fused step changes layout once each way around its sandwich, and
  hands the next step its result as a view of the algebra's rows.

``expm`` and ``ode`` agree to roundoff; :func:`exact_backend` picks the
faster from the problem size and the sweeps per step exponential.

All backends expose exact Hilbert-Schmidt adjoints.  The one adjoint
sweep, :func:`propagate_backward`, runs on a forward sweep's cache and
pairs each step for the control gradient as it pulls the co-state back:
by the product rule over the Trotter step's two control factors, or to
first order after an exact step.  Each step stores its d x d pairing
matrices, and the sweep turns them into the gradient once, at its end.

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

# Per-step cost (ms) of the exact backends on d+1 input states, 10 steps (4
# at 4 qubits), controls uniform in +-0.6 rad/ns, 2 CPUs and one BLAS
# thread; each figure is the mean of two processes' medians of 5 rounds,
# the backends interleaved within a round; "grad" is a forward and an
# adjoint sweep:
#   size    N d^2   expm fwd   ode fwd   expm grad   ode grad
#   1q o1       8      0.122     0.435       0.140      0.896
#   2q o1      48      0.186     0.921       0.199       1.96
#   2q o2      96      0.313      1.32       0.399       2.61
#   3q o1     192       1.26      2.40        1.28       4.75
#   3q o2     384       2.83      4.49        2.50       8.84
#   4q o1     768       42.9      40.8        42.9       79.7
#   4q o2   1,536        106      50.7         105       99.0
# 4q o1 is near parity forward (ode ahead in both processes); in fresh
# processes ode also pays for glibc malloc's unraised mmap threshold
# (measured earlier: 4q o1 46-60 ms forward against expm's 52-82).  expm
# pays its exponential (~ N d^6) once per step however many sweeps apply
# it.
# Largest N d^2 that runs expm, by sweeps per step:
_EXPM_UP_TO = {1: 512, 2: 1024}

# Per-step cost (ms) of a whole forward Trotter step with its outer halves
# fused into two block-algebra elements or run factor by factor, on one
# state and on d+1 states, from sweeps of 10 steps (4 at 4-5 qubits), 2
# CPUs and one BLAS thread; the mean of two processes' medians of 5 rounds
# (one process of 3 rounds at 5q o1), fused and factored interleaved
# within a round; "build" is the one-off cost of the two elements
# (measured earlier, d+1 states' run):
#   size     N d^4    fused / factored, S=1    S=d+1              build
#   1q o1        32       0.031 / 0.076        0.032 / 0.077        0.2
#   2q o1       768       0.033 / 0.100        0.042 / 0.125        0.3
#   2q o2     1,536       0.056 / 0.186        0.079 / 0.250        0.4
#   2q o4     3,840       0.200 / 0.340        0.330 / 0.660        0.7
#   3q o1    12,288       0.053 / 0.131        0.133 / 0.331        1.9
#   3q o2    24,576       0.102 / 0.246        0.334 / 1.420        3.2
#   3q o3    40,960       0.225 / 0.387        0.770 / 2.766        6.2
#   3q o4    61,440       0.446 / 0.576        1.650 / 3.715        8.6
#   4q o1   196,608       0.499 / 0.328        2.594 / 3.621         53
#   4q o2   393,216       1.336 / 0.688        6.897 / 8.363        102
#   5q o0 1,048,576       2.251 / 0.719        13.08 / 17.41        613
#   5q o1 3,145,728       9.840 / 1.926        66.33 / 56.94      1,387
# A fused block is a d^2 x d^2 product where the factors make d x d
# ones, so from 4 qubits on the fused step wins only on many states and
# loses on one (at 5q o1 on both).  Up to 3 qubits it wins on both.  The
# plan also holds the halves' conjugates for the adjoint, so fused halves
# take 4 N d^4 complex numbers, 4 MiB at the constant.  No rule on S N d^4
# is drawn until workloads at 4 qubits run both one and d+1 states.
# Largest N d^4 whose Trotter step applies its outer halves fused:
_FUSED_UP_TO = 2**16


def exact_backend(model: OpenSystemModel, mset: MultiIndexSet, passes: int) -> str:
    """``expm`` or ``ode``, whichever is faster for ``passes`` sweeps per step
    exponential: 1 for a forward pass, 2 for a gradient (forward and adjoint)."""
    return "expm" if mset.size * model.dim**2 <= _EXPM_UP_TO[passes] else "ode"


@dataclass
class StepCache:
    """A sweep's block (or co-state) ``states[k]`` at t_k for k = 0..N_T,
    shaped (N, d, d) or, for a batch, (S, N, d, d), and the ``backend``
    that swept it.  ``records[k]`` is what forward step k leaves its
    adjoint, built as the step runs: the ``expm`` step's block
    propagator, or the Trotter state just before its control sandwich;
    ``ode`` leaves none.  A Trotter sweep also keeps its ``plan`` and its
    steps' control ``factors`` for its adjoint.  ``grad`` is the control
    gradient of an adjoint sweep."""

    states: np.ndarray
    backend: str
    records: list = field(default_factory=list)
    plan: TrotterPlan | None = None
    factors: SandwichFactors | None = None
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
    holds, per index set (m, n), the model they were built from, the
    step's two outer halves as :func:`_build_halves` builds them on first
    use, and their conjugates for the adjoint step; a step with another
    model (say, other uncertainty operators) builds them again.
    """

    dt: float
    u_eff: np.ndarray
    groups: list
    readout: np.ndarray
    halves: dict = field(default_factory=dict, repr=False, compare=False)


def _commutes(h: np.ndarray, group: np.ndarray) -> bool:
    """Whether Hermitian ``h`` commutes with every operator of ``group``
    (n, d, d): [h, g] = h g - (h g)^dag, so one product per operator."""
    prod = h @ group
    scale = np.maximum(np.max(np.abs(h)) * np.max(np.abs(group), axis=(1, 2)), 1.0)
    comm = np.abs(prod - np.conj(prod).swapaxes(1, 2))
    return bool(np.all(comm <= 1e-12 * scale[:, None, None]))


def _group_diagonalizer(ops: np.ndarray, rng: np.random.Generator) -> tuple:
    """A unitary r that simultaneously diagonalises the commuting Hermitian
    family ``ops`` (n, d, d), and the real diagonals (n, d) of r^dag h r:
    the eigenbasis of a random combination, accepted once it leaves every
    operator diagonal."""
    n, d, _ = ops.shape
    scale = 1e-10 * np.maximum(1.0, np.max(np.abs(ops), axis=(1, 2)))
    for _ in range(16):
        _, r = np.linalg.eigh((rng.standard_normal(n) @ ops.reshape(n, d * d)).reshape(d, d))
        t = r.conj().T @ ops @ r
        diags = np.diagonal(t, axis1=1, axis2=2)
        off = np.abs(t - diags[:, :, None] * np.eye(d))
        if np.all(off <= scale[:, None, None]):
            return r, diags.real
    raise RuntimeError("failed to find a simultaneous diagonalizer")


def make_trotter_plan(model: OpenSystemModel, dt: float) -> TrotterPlan:
    """Build the step-independent Trotter factors for ``model`` at ``dt``.

    The control operators are split greedily, in channel order, into
    mutually commuting groups; each group's shared eigenbasis is that of
    a random combination of its operators, from a fixed seed so that
    plans are reproducible.
    """
    d, ops = model.dim, np.asarray(model.controls)
    members: list = []
    for c in range(len(ops)):
        g = next((g for g in members if _commutes(ops[c], ops[g])), None)
        if g is None:
            members.append([c])
        else:
            g.append(c)
    rng = np.random.default_rng(1234)
    groups = []
    for g in members:
        r, diags = _group_diagonalizer(ops[g], rng)
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

    u_eff = expm(-1.0j * dt * model.drift - dt * model.half_decay)
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
    """``mset``'s (P, Q) of :func:`_build_halves` and their conjugates,
    which the adjoint step multiplies by, (P, Q, conj(P), conj(Q)), built
    once per plan, index set and model; None when the step applies its
    halves factor by factor."""
    if not _fuses(model, mset):
        return None
    key = (mset.m, mset.n)
    built = plan.halves.get(key)
    if built is None or built[0] is not model:
        halves = _build_halves(plan, model, mset)
        built = plan.halves[key] = (model, *halves, *(np.conj(h) for h in halves))
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
        which = int(second != adjoint)
        return mset.algebra.apply(
            halves[which], blocks, adjoint=adjoint, p_conj=halves[2 + which]
        )
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
    field stacked over the steps; step k reads row k of each.

    With U_q the half-step unitary of group q, F1 = U_G ... U_1 the first
    control factor (group 1 acts first), F2 = U_1 ... U_G the second and
    u_eff the flow between them: ``pre_mid`` = u_eff F1 carries a state
    from before the first control factor to before the second,
    ``mid_post`` = F2 carries it on past the second, and ``whole`` = F2
    u_eff F1 is the sandwich; each comes with its adjoint.  ``readers``
    (2, G d, d), for the gradient sweep, holds for each control factor f
    and group q the rows r_q^dag V_fq, with V_fq the groups that factor f
    applies before q: a pairing matrix M taken at the factor's start
    reaches q's insertion point as V_fq M V_fq^dag, and q's channels read
    its diagonal in q's basis.
    """

    whole: np.ndarray
    whole_dag: np.ndarray
    pre_mid: np.ndarray
    pre_mid_dag: np.ndarray
    mid_post: np.ndarray
    mid_post_dag: np.ndarray
    readers: np.ndarray


def _lmul(a: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """a @ x for every x of a stack (n, d, d), as one GEMM."""
    n, d, _ = stack.shape
    return (a @ stack.transpose(1, 0, 2).reshape(d, n * d)).reshape(d, n, d).transpose(1, 0, 2)


def control_factors(plan: TrotterPlan, amplitudes: np.ndarray) -> SandwichFactors:
    """The control sandwich of every step and its gradient readers, one
    per column of ``amplitudes`` (n_channels, n_steps), built by products
    batched over the steps."""
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
    readers = np.empty((n_t, 2, len(plan.groups) * d, d), dtype=complex)
    for q, g in enumerate(plan.groups):
        span = slice(q * d, (q + 1) * d)
        readers[:, 0, span] = g.r_dag if before[q] is eye else _lmul(g.r_dag, before[q])
        readers[:, 1, span] = g.r_dag if after[q + 1] is eye else _lmul(g.r_dag, after[q + 1])
    pre_mid = _lmul(plan.u_eff, before[-1])
    mid_post = after[0]
    whole = mid_post @ pre_mid
    return SandwichFactors(
        *(x for a in (whole, pre_mid, mid_post) for x in (a, np.conj(a).swapaxes(-1, -2))),
        readers,
    )


def step_trotter(
    plan: TrotterPlan,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    blocks: np.ndarray,
    factors: SandwichFactors,
    k: int,
    record: list | None = None,
) -> np.ndarray:
    """Step k of a symmetric-splitting sweep.

    Application order: uncertainty drives (ascending), collapse half,
    control groups (ascending), effective-Hamiltonian flow, control
    groups (descending), collapse half, uncertainty drives (descending).
    The palindromic order keeps the one-step error at third order in dt.
    The control sandwich is one conjugation by its d x d product.  The
    drives and collapse half before it are one block-algebra element P,
    those after it its mirror Q, which the plan builds once per index set
    (:func:`_build_halves`); above ``_FUSED_UP_TO`` they run factor by
    factor.  ``factors`` is the sweep's :func:`control_factors`, read at row k.

    With ``record`` a list, the state just before the control sandwich,
    for :func:`step_trotter_adjoint`'s gradient, is appended to it, as
    the wide array that the sandwich reads; it may share memory with
    ``blocks``, which the caller then keeps unwritten.

    A fused step changes layout once each way: P's result is a view of
    the algebra's rows, which the sandwich copies into the kernels' wide
    layout, and Q copies the sandwich's wide result back into rows.  The
    result is a view of Q's rows, which the next step's P reads as they
    are (``BlockAlgebra.apply``).
    """
    blocks = _outer_half(plan, model, mset, blocks, second=False, adjoint=False)
    if record is not None:
        blocks = kernels.wide(blocks)
        record.append(blocks)
    blocks = kernels.conjugate_blocks(factors.whole[k], factors.whole_dag[k], blocks)
    return _outer_half(plan, model, mset, blocks, second=True, adjoint=False)


def step_trotter_adjoint(
    plan: TrotterPlan,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    blocks: np.ndarray,
    factors: SandwichFactors,
    k: int,
    pre: np.ndarray,
    pairing: np.ndarray,
) -> np.ndarray:
    """Hilbert-Schmidt adjoint of :func:`step_trotter` (same ``factors``
    and ``k``), which writes the step's two control pairing matrices into
    ``pairing`` (2, d, d), one per control factor in application order;
    :func:`_trotter_gradient` turns a sweep's pairings into the exact
    control gradient.

    ``pre`` is the state that :func:`step_trotter` recorded before its
    control sandwich; the state before the second control factor is pre
    carried by u_eff F1, one conjugation.  By the product rule, channel c
    of group q contributes (dt/2) Im tr(o^dag [H_c, x]) per control
    factor, with x the state and o the co-state at q's insertion point.
    Conjugating both by the groups before q leaves this as tr(H_c V M
    V^dag), where M = :func:`kernels.control_pairing` pairs the factor's
    starting state with the co-state pulled back through the whole
    factor: one d x d matrix per factor.

    Like the forward step, a fused adjoint step changes layout once each
    way around its sandwich, whose conjugations and pairings all read
    the wide arrays.
    """
    blocks = _outer_half(plan, model, mset, blocks, second=False, adjoint=True)
    blocks = kernels.conjugate_blocks(factors.mid_post_dag[k], factors.mid_post[k], blocks)
    mid = kernels.conjugate_blocks(factors.pre_mid[k], factors.pre_mid_dag[k], pre)
    pairing[1] = kernels.control_pairing(blocks, mid)
    blocks = kernels.conjugate_blocks(factors.pre_mid_dag[k], factors.pre_mid[k], blocks)
    pairing[0] = kernels.control_pairing(blocks, pre)
    return _outer_half(plan, model, mset, blocks, second=True, adjoint=True)


def _trotter_gradient(
    plan: TrotterPlan, factors: SandwichFactors, pairings: np.ndarray
) -> np.ndarray:
    """The exact control gradient (n_channels, n_steps) of a Trotter
    sweep from the (n_steps, 2, d, d) pairing matrices that its
    :func:`step_trotter_adjoint` steps wrote, and the readers of the
    sweep's ``factors``: (dt/2) Im tr(H_c V M V^dag), summed over
    both control factors, for every group's channels at once."""
    # diagonal of readers_f M_f readers_f^dag, summed over both factors
    carried = factors.readers @ pairings
    diag = np.sum(carried * factors.readers.conj(), axis=(1, 3))
    # one matrix-vector product per step: a single GEMM would sum in
    # another order and move the gradient at roundoff
    return 0.5 * plan.dt * (plan.readout @ diag.imag[..., None])[..., 0].T


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
    over step k of ``grid``, ``gradient()``, the control gradient
    (n_channels, n_steps) that its adjoint steps gather, and, for
    ``trotter``, the sweep's plan and control factors (else None, None).

    A forward step appends to the list ``record`` what its adjoint
    reuses.  The adjoint steps run on ``fwd``, the same backend's forward
    cache: adjoint step k reuses ``fwd.records[k]`` and pairs for the
    gradient, by the product rule over the Trotter step's two control
    factors, or for ``expm`` and ``ode`` to first order, dt Im
    tr(O_{k+1}^dag [H_c, rho_{k+1}]) summed over all blocks, which is
    tr(H_c M_k) with M_k the step's one d x d pairing matrix.  A forward
    Trotter sweep builds a plan when none is given, and the control
    factors of every step once, here; its adjoint takes both from
    ``fwd``."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    amps, dt, n_t = grid.amplitudes, grid.dt, grid.n_steps
    if backend == "trotter":
        if fwd is None:
            plan = plan if plan is not None else make_trotter_plan(model, dt)
            factors = control_factors(plan, amps)
        else:
            plan, factors = fwd.plan, fwd.factors
        pairings = None if fwd is None else np.empty((n_t, 2, model.dim, model.dim), complex)

        def step(k, blocks, adjoint=False, record=None):
            if adjoint:
                return step_trotter_adjoint(
                    plan, model, mset, blocks, factors, k, fwd.records[k], pairings[k]
                )
            return step_trotter(plan, model, mset, blocks, factors, k, record=record)
        return step, lambda: _trotter_gradient(plan, factors, pairings), plan, factors

    pairings = None if fwd is None else np.empty((n_t, model.dim, model.dim), dtype=complex)

    def step(k, blocks, adjoint=False, record=None):
        if adjoint:
            pairings[k] = kernels.control_pairing(blocks, fwd.states[k + 1])
        if backend == "ode":
            return step_ode(model, mset, blocks, amps[:, k], dt, adjoint=adjoint)
        prop = fwd.records[k] if adjoint else step_propagator_expm(model, mset, amps[:, k], dt)
        if record is not None:
            record.append(prop)
        return apply_supermatrix(mset.algebra, prop, blocks, adjoint=adjoint)

    def gradient():
        # tr(H M) = sum_ij H[i, j] M[j, i]
        return dt * np.einsum("cij,kji->ck", np.stack(model.controls), pairings).imag
    return step, gradient, None, None


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
    the final state uses :func:`propagate_final`, which holds one at a time.
    A Trotter sweep's cache also holds its plan and control factors.
    The sweep starts from the cache's own copy of ``state0``, so no record
    shares memory with the caller's array."""
    step, _, plan, factors = _stepper(backend, model, mset, grid, plan)
    shape = (grid.n_steps + 1,) + state0.shape
    cache = StepCache(np.empty(shape, dtype=complex), backend, plan=plan, factors=factors)
    cache.states[0] = state0
    blocks = cache.states[0]
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
    step, *_ = _stepper(backend, model, mset, grid, plan)
    blocks = np.ascontiguousarray(state0, dtype=complex)
    for k in range(grid.n_steps):
        blocks = step(k, blocks)
    return np.ascontiguousarray(blocks)


def propagate_backward(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid: ControlGrid,
    costate_T: np.ndarray,
    fwd: StepCache,
) -> StepCache:
    """Pull a terminal co-state back through the adjoint steps of ``fwd``,
    a forward cache on the same grid, and pair each step for the gradient.

    Runs ``fwd.backend`` (with a Trotter cache's plan and control factors)
    and returns a cache whose ``states[k]`` is the co-state at t_k; the
    pairing <costate(t_k), state(t_k)> is step-invariant for the exact
    backends and exactly matches the Trotter map's true adjoint for the
    trotter backend.  ``grad`` is the control gradient of the objective
    whose terminal derivative is ``costate_T``: exact for the Trotter map,
    first order in dt for the exact backends.  The pairings sum over a
    batch, so weights folded into the co-states give the weighted gradient
    in one sweep.  A cache of another step count, or a co-state shaped
    unlike its states, raises ValueError.
    """
    n_t = grid.n_steps
    if len(fwd.states) != n_t + 1:
        raise ValueError(
            f"forward cache has {len(fwd.states) - 1} steps where the grid has {n_t}"
        )
    if np.shape(costate_T) != fwd.states.shape[1:]:
        raise ValueError(
            f"terminal co-state has shape {np.shape(costate_T)} where the forward "
            f"states have {fwd.states.shape[1:]}"
        )
    step, gradient, *_ = _stepper(fwd.backend, model, mset, grid, None, fwd)
    cache = StepCache(np.empty(fwd.states.shape, dtype=complex), fwd.backend)
    cache.states[n_t] = costate_T
    blocks = np.ascontiguousarray(costate_T, dtype=complex)
    for k in range(n_t - 1, -1, -1):
        blocks = step(k, blocks, adjoint=True)
        cache.states[k] = blocks
    cache.grad = gradient()
    return cache


def trotter_backward_with_gradient(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid: ControlGrid,
    fwd: StepCache,
    costate_T: np.ndarray,
) -> np.ndarray:
    """The Trotter :func:`propagate_backward` sweep's gradient; only the
    benchmark's tracer still looks this name up."""
    return propagate_backward(model, mset, grid, costate_T, fwd).grad


def delta_st(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid: ControlGrid,
    state0: np.ndarray,
    plan: TrotterPlan | None = None,
) -> float:
    """Relative terminal deviation of the Trotter backend from the exact
    propagation, by the backend :func:`exact_backend` picks for one
    forward pass (see ``splitting_deviation``)."""
    exact = propagate_final(exact_backend(model, mset, 1), model, mset, grid, state0)
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
