"""Step propagators for the augmented Lindblad cascade.

Three interchangeable backends advance an augmented block state over one
piecewise-constant control step:

* ``expm``   - the dense step propagator exp(dt * G), exponentiated in
  the block algebra of the generator (``augment.step_propagator_expm``)
  and applied as one matrix (reference).
* ``ode``    - the action of the step exponential on the blocks by a
  truncated Taylor series whose degree and stage count are sized for
  each step from a generator-norm bound; exact to roundoff without the
  supermatrix.
* ``trotter``- second-order symmetric splitting: half-step nilpotent
  uncertainty drives and truncated collapse channel wrap a unitary
  control sandwich around the non-Hermitian effective-Hamiltonian flow.

All backends expose exact Hilbert-Schmidt adjoints so co-states can be
propagated backwards, and the Trotter backend additionally supports an
exact control-gradient sweep based on two cached intra-step states.

Every step and propagation loop takes one augmented state (N, d, d) or a
batch of independent states (S, N, d, d) with the same controls; the
batch shares each step's factors (and, for ``expm``, each step's
exponential) across its states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .augment import (
    MultiIndexSet,
    apply_Ej,
    apply_Ej_adjoint,
    apply_L,  # not called here: perfbench/tracer.py wraps it here
    apply_L_adjoint,  # not called here: perfbench/tracer.py wraps it here
    assemble_supermatrix,  # not called here: perfbench/tracer.py wraps it here
    lindblad_terms,
    quadrature_norm,
    state_to_vec,
    step_propagator_expm,
    vec_to_state,
)
from .linalg import expm, one_and_inf_norms
from .model import ControlGrid, OpenSystemModel

__all__ = [
    "BACKENDS",
    "StepCache",
    "GroupPlan",
    "TrotterPlan",
    "make_trotter_plan",
    "exp_nilpotent",
    "step_expm",
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


@dataclass
class StepCache:
    """Recorded states at every grid time, plus Trotter intra-step states.

    ``states[k]`` is the block state at t_k for k = 0..N_T, shaped
    (N, d, d) or, for a batch, (S, N, d, d).
    For the Trotter forward pass, ``pre_ctl[k]`` and ``mid_ctl[k]`` hold
    the state immediately before the first and the second control factor
    of step k.
    """

    states: np.ndarray
    pre_ctl: np.ndarray | None = None
    mid_ctl: np.ndarray | None = None

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
    """Precomputed step-independent factors of the symmetric splitting."""

    dt: float
    u_eff: np.ndarray
    u_eff_dag: np.ndarray
    groups: list


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

    h_eff = model.drift.astype(complex).copy()
    for cdc, gamma in zip(model.collapse_cdc_stack, model.rates):
        h_eff -= 0.5j * gamma * cdc
    u_eff = expm(-1.0j * dt * h_eff)

    return TrotterPlan(
        dt=float(dt),
        u_eff=np.ascontiguousarray(u_eff),
        u_eff_dag=np.ascontiguousarray(u_eff.conj().T),
        groups=groups,
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
        return blocks.copy()
    action = apply_Ej_adjoint if adjoint else apply_Ej
    acc = blocks
    for level in range(n):
        acc = blocks + (tau / (n - level)) * action(model, mset, j, acc)
    return acc


def _collapse_half(
    plan: TrotterPlan, model: OpenSystemModel, blocks: np.ndarray, adjoint: bool
) -> np.ndarray:
    """Truncated half-step collapse channel: 1 + (dt/2) C + (dt/2)^2 C^2 / 2."""
    if model.rates.size == 0:
        return blocks
    half = 0.5 * plan.dt
    if adjoint:
        ops, other = model.collapse_dag_stack, model.collapse_stack
    else:
        ops, other = model.collapse_stack, model.collapse_dag_stack
    c1 = kernels.collapse_blocks(ops, other, model.rates, blocks)
    c2 = kernels.collapse_blocks(ops, other, model.rates, c1)
    return blocks + half * c1 + 0.5 * half**2 * c2


def _group_unitary(group: GroupPlan, amplitudes: np.ndarray, half_dt: float) -> np.ndarray:
    """exp(-i * half_dt * sum_c u_c H_c) for one commuting group."""
    phase = np.zeros(group.diags.shape[1])
    for i, c in enumerate(group.channels):
        phase += amplitudes[c] * group.diags[i]
    return (group.r * np.exp(-1.0j * half_dt * phase)[None, :]) @ group.r_dag


def _ctl_unitaries(plan: TrotterPlan, amplitudes: np.ndarray) -> list:
    """Per-group half-step control unitaries as (u, u_dagger) pairs."""
    half = 0.5 * plan.dt
    out = []
    for g in plan.groups:
        u = _group_unitary(g, amplitudes, half)
        out.append((np.ascontiguousarray(u), np.ascontiguousarray(u.conj().T)))
    return out


def step_trotter(
    plan: TrotterPlan,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    blocks: np.ndarray,
    amplitudes: np.ndarray,
    record: tuple | None = None,
) -> np.ndarray:
    """One symmetric-splitting step.

    Application order: uncertainty drives (ascending), collapse half,
    control groups (ascending), effective-Hamiltonian flow, control
    groups (descending), collapse half, uncertainty drives (descending).
    The palindromic order keeps the one-step error at third order in dt.

    With ``record`` a pair of arrays (pre, mid) shaped like ``blocks``,
    the states just before the first and the second control factor are
    written into them.
    """
    half = 0.5 * plan.dt
    for j in range(mset.m):
        blocks = exp_nilpotent(model, mset, j, blocks, half)
    blocks = _collapse_half(plan, model, blocks, adjoint=False)
    if record is not None:
        record[0][...] = blocks
    us = _ctl_unitaries(plan, amplitudes)
    for u, udag in us:
        blocks = kernels.conjugate_blocks(u, udag, blocks)
    blocks = kernels.conjugate_blocks(plan.u_eff, plan.u_eff_dag, blocks)
    if record is not None:
        record[1][...] = blocks
    for u, udag in reversed(us):
        blocks = kernels.conjugate_blocks(u, udag, blocks)
    blocks = _collapse_half(plan, model, blocks, adjoint=False)
    for j in reversed(range(mset.m)):
        blocks = exp_nilpotent(model, mset, j, blocks, half)
    return blocks


def step_trotter_adjoint(
    plan: TrotterPlan,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    blocks: np.ndarray,
    amplitudes: np.ndarray,
    pre: np.ndarray | None = None,
    mid: np.ndarray | None = None,
    grad_col: np.ndarray | None = None,
) -> np.ndarray:
    """Hilbert-Schmidt adjoint of :func:`step_trotter` (same amplitudes).

    With ``grad_col`` given, the step's exact control gradient is added
    into it, from the states ``pre`` and ``mid`` that
    :func:`step_trotter` recorded on the forward pass.
    """
    half = 0.5 * plan.dt
    us = _ctl_unitaries(plan, amplitudes)
    asc = list(range(len(plan.groups)))
    for j in range(mset.m):
        blocks = exp_nilpotent(model, mset, j, blocks, half, adjoint=True)
    blocks = _collapse_half(plan, model, blocks, adjoint=True)
    blocks = _ctl_factor_gradient(plan, model, blocks, us, asc[::-1], mid, grad_col)
    blocks = kernels.conjugate_blocks(plan.u_eff_dag, plan.u_eff, blocks)
    blocks = _ctl_factor_gradient(plan, model, blocks, us, asc, pre, grad_col)
    blocks = _collapse_half(plan, model, blocks, adjoint=True)
    for j in reversed(range(mset.m)):
        blocks = exp_nilpotent(model, mset, j, blocks, half, adjoint=True)
    return blocks


def _ctl_factor_gradient(
    plan: TrotterPlan,
    model: OpenSystemModel,
    costate: np.ndarray,
    us: list,
    order: list,
    state_before: np.ndarray | None = None,
    grad_col: np.ndarray | None = None,
) -> np.ndarray:
    """Adjoint of one control factor, optionally with its exact gradient.

    ``order`` lists group indices in application order; the co-state is
    pulled back through the group unitaries in reverse.  With
    ``grad_col`` given, the cached pre-factor state is also walked forward
    through the groups and each channel's commutator is paired with the
    co-state at its insertion point.  Returns the pulled-back co-state.
    """
    half = 0.5 * plan.dt
    inter = []
    if grad_col is not None:
        t = state_before
        for q in order:
            u, udag = us[q]
            t = kernels.conjugate_blocks(u, udag, t)
            inter.append(t)
    chi = costate
    for pos in range(len(order) - 1, -1, -1):
        q = order[pos]
        if grad_col is not None:
            for c in plan.groups[q].channels:
                grad_col[c] += half * kernels.control_pairing(
                    chi, inter[pos], model.controls[c]
                ).imag
        u, udag = us[q]
        chi = kernels.conjugate_blocks(udag, u, chi)
    return chi


# ------------------------------------------------------------- expm backend


def apply_supermatrix(s: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """s @ vec(state): one matrix-vector product for a single state, one
    matrix product for a batch."""
    n_b, d, _ = blocks.shape[-3:]
    return vec_to_state((s @ state_to_vec(blocks).T).T, n_b, d)


def step_expm(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    blocks: np.ndarray,
    amplitudes: np.ndarray,
    dt: float,
    adjoint: bool = False,
) -> np.ndarray:
    """One exact step via the supermatrix exponential."""
    s = step_propagator_expm(model, mset, amplitudes, dt)
    if adjoint:
        s = s.conj().T
    return apply_supermatrix(s, blocks)


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
        out += (apply_Ej_adjoint if adjoint else apply_Ej)(model, mset, j, blocks)
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
    out = np.array(blocks, dtype=complex)
    for _ in range(stages):
        term = out
        prev = np.max(np.abs(term))
        for k in range(1, degree + 1):
            term = _augmented_rhs(model, mset, terms, term, adjoint)
            term *= h / k
            out += term
            size = np.max(np.abs(term))
            if prev + size <= _UNIT_ROUNDOFF * np.max(np.abs(out)):
                break
            prev = size
    return out


# ------------------------------------------------------------- driver loops


def _stepper(
    backend: str,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    dt: float,
    plan: TrotterPlan | None,
):
    """The backend's one-step map ``step(blocks, amplitudes, adjoint=False,
    record=None)``; ``record`` is a (pre, mid) pair of slots that only the
    Trotter forward step fills.
    A Trotter plan is built when none is given."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend == "expm":
        def step(blocks, amplitudes, adjoint=False, record=None):
            return step_expm(model, mset, blocks, amplitudes, dt, adjoint=adjoint)
    elif backend == "ode":
        def step(blocks, amplitudes, adjoint=False, record=None):
            return step_ode(model, mset, blocks, amplitudes, dt, adjoint=adjoint)
    else:
        if plan is None:
            plan = make_trotter_plan(model, dt)

        def step(blocks, amplitudes, adjoint=False, record=None):
            if adjoint:
                return step_trotter_adjoint(plan, model, mset, blocks, amplitudes)
            return step_trotter(plan, model, mset, blocks, amplitudes, record=record)
    return step


def propagate_forward(
    backend: str,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid: ControlGrid,
    state0: np.ndarray,
    plan: TrotterPlan | None = None,
) -> StepCache:
    """Propagate an augmented state over the whole grid, caching every
    intermediate state (and, for the Trotter backend, the two intra-step
    states used by the exact control gradient)."""
    step = _stepper(backend, model, mset, grid.dt, plan)
    n_t = grid.n_steps
    states = np.empty((n_t + 1,) + state0.shape, dtype=complex)
    states[0] = state0
    pre = mid = None
    if backend == "trotter":
        pre = np.empty((n_t,) + state0.shape, dtype=complex)
        mid = np.empty((n_t,) + state0.shape, dtype=complex)
    blocks = np.ascontiguousarray(state0, dtype=complex)
    for k in range(n_t):
        record = (pre[k], mid[k]) if pre is not None else None
        blocks = step(blocks, grid.amplitudes[:, k], record=record)
        states[k + 1] = blocks
    return StepCache(states=states, pre_ctl=pre, mid_ctl=mid)


def propagate_final(
    backend: str,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid: ControlGrid,
    state0: np.ndarray,
    plan: TrotterPlan | None = None,
) -> np.ndarray:
    """Final augmented state only; no caching (line-search fast path)."""
    step = _stepper(backend, model, mset, grid.dt, plan)
    blocks = np.ascontiguousarray(state0, dtype=complex)
    for k in range(grid.n_steps):
        blocks = step(blocks, grid.amplitudes[:, k])
    return blocks


def propagate_backward(
    backend: str,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid: ControlGrid,
    costate_T: np.ndarray,
    plan: TrotterPlan | None = None,
) -> StepCache:
    """Pull a terminal co-state back through the adjoint steps.

    Returns a cache whose ``states[k]`` is the co-state at t_k; the
    pairing <costate(t_k), state(t_k)> is step-invariant for the exact
    backends and exactly matches the Trotter map's true adjoint for the
    trotter backend.
    """
    step = _stepper(backend, model, mset, grid.dt, plan)
    n_t = grid.n_steps
    states = np.empty((n_t + 1,) + costate_T.shape, dtype=complex)
    states[n_t] = costate_T
    blocks = np.ascontiguousarray(costate_T, dtype=complex)
    for k in range(n_t - 1, -1, -1):
        blocks = step(blocks, grid.amplitudes[:, k], adjoint=True)
        states[k] = blocks
    return StepCache(states=states)


def trotter_backward_with_gradient(
    plan: TrotterPlan,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid: ControlGrid,
    fwd: StepCache,
    costate_T: np.ndarray,
) -> np.ndarray:
    """Exact gradient of the Trotter-propagated objective.

    Uses the product rule over the two control factors of every step;
    the forward cache must come from the Trotter backend.
    Returns gradient array of shape (n_channels, n_steps) for the
    objective whose terminal derivative is ``costate_T``.  For a batch,
    ``costate_T`` holds one co-state per state and the pairings sum over
    the batch, so weights folded into the co-states give the weighted
    gradient in one sweep.
    """
    if fwd.pre_ctl is None or fwd.mid_ctl is None:
        raise ValueError("forward cache lacks intra-step control states")
    grad = np.zeros((grid.n_channels, grid.n_steps))
    blocks = np.ascontiguousarray(costate_T, dtype=complex)
    for k in range(grid.n_steps - 1, -1, -1):
        blocks = step_trotter_adjoint(
            plan, model, mset, blocks, grid.amplitudes[:, k],
            pre=fwd.pre_ctl[k], mid=fwd.mid_ctl[k], grad_col=grad[:, k],
        )
    return grad


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
