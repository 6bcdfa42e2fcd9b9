import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg._expm_multiply import _theta

from robustpulse.augment import (
    MultiIndexSet,
    assemble_supermatrix,
    initial_state,
    mat_commutator,
    quadrature_norm,
    state_to_vec,
    vec_to_state,
)
from robustpulse.linalg import expm, kron
from robustpulse import augment, linalg, oracle
from robustpulse.model import (
    ControlGrid,
    OpenSystemModel,
    SIGMA_X,
    SIGMA_Z,
    build_spin_chain,
    attach_uncertainties,
)
from robustpulse import propagate
from robustpulse.config import build_grid, build_mset, build_model, load_config
from robustpulse.propagate import (
    BACKENDS,
    _TAYLOR_THETA,
    _taylor_degree,
    default_substeps,
    delta_st,
    exact_backend,
    exp_nilpotent,
    generator_norm_bound,
    make_trotter_plan,
    propagate_backward,
    propagate_final,
    propagate_forward,
    step_ode,
    step_trotter,
    step_trotter_adjoint,
)

from conftest import dense_step_reference, random_density, small_grid


def _random_blocks(rng, n, d):
    return np.ascontiguousarray(
        rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    )


def _expm_step(model, mset, blocks, amps, dt, adjoint=False):
    """One ``expm`` step: the step propagator applied in its block algebra."""
    prop = propagate.step_propagator_expm(model, mset, amps, dt)
    return propagate.apply_supermatrix(mset.algebra, prop, blocks, adjoint=adjoint)


def _factors(plan, amps):
    """The control factors of a one-step grid at amplitudes ``amps``."""
    return propagate.control_factors(plan, np.asarray(amps)[:, None])


def _steps(plan, model, mset, blocks, amps):
    """One Trotter step of ``blocks``, and one adjoint step of ``blocks``
    as the gradient sweep runs it, with ``blocks`` as the recorded
    state, together with the two pairing matrices that it writes."""
    factors = _factors(plan, amps)
    d = model.dim
    pairing = np.zeros((2, d, d), dtype=complex)
    back = step_trotter_adjoint(plan, model, mset, blocks, factors, 0, blocks, pairing)
    return step_trotter(plan, model, mset, blocks, factors, 0), back, pairing


# ----------------------------------------------------------------- analytics


def test_rabi_pi_pulse_all_backends():
    """Constant x drive with u*T = pi/2 takes |0> to |1> exactly."""
    model = build_spin_chain(1, t1_us=0.0, t2_us=0.0)
    mset = MultiIndexSet(0, 0)
    n_steps, dt = 20, 0.5
    u = np.pi / 2.0 / (n_steps * dt)
    amps = np.zeros((2, n_steps))
    amps[0, :] = u
    grid = ControlGrid(dt, amps, -1.0, 1.0)
    s0 = initial_state(mset, np.diag([1.0, 0.0]).astype(complex))
    excited = np.diag([0.0, 1.0]).astype(complex)
    # every backend is exact for a constant closed-system drive
    for backend, tol in (("expm", 1e-12), ("ode", 1e-12), ("trotter", 1e-12)):
        final = propagate_final(backend, model, mset, grid, s0)
        assert np.max(np.abs(final[-1] - excited)) < tol, backend


def test_backend_cross_agreement(one_qubit):
    mset = MultiIndexSet(1, 2)
    grid = small_grid(one_qubit, n_steps=8, dt=0.5, seed=3)
    s0 = initial_state(mset, np.diag([1.0, 0.0]).astype(complex))
    f_expm = propagate_final("expm", one_qubit, mset, grid, s0)
    f_ode = propagate_final("ode", one_qubit, mset, grid, s0)
    f_trot = propagate_final("trotter", one_qubit, mset, grid, s0)
    ref = quadrature_norm(f_expm)
    assert quadrature_norm(f_ode - f_expm) / ref < 1e-12
    assert quadrature_norm(f_trot - f_expm) / ref < 0.05


# ------------------------------------------------------------ splitting step


def test_trotter_step_matches_dense_factors(two_qubit):
    """Block-level splitting step == dense factor product, to roundoff."""
    mset = MultiIndexSet(2, 1)
    plan = make_trotter_plan(two_qubit, 0.5)
    rng = np.random.default_rng(21)
    amps = rng.standard_normal(4) * 0.3
    blocks = _random_blocks(rng, mset.size, 4)
    got = step_trotter(plan, two_qubit, mset, blocks.copy(), _factors(plan, amps), 0)
    want = dense_step_reference(two_qubit, mset, plan, amps, blocks)
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_trotter_step_matches_dense_factors_no_decay():
    model = attach_uncertainties(build_spin_chain(2, t1_us=0.0, t2_us=0.0), "edges")
    mset = MultiIndexSet(2, 2)
    plan = make_trotter_plan(model, 0.4)
    rng = np.random.default_rng(22)
    amps = rng.standard_normal(4) * 0.3
    blocks = _random_blocks(rng, mset.size, 4)
    got = step_trotter(plan, model, mset, blocks.copy(), _factors(plan, amps), 0)
    want = dense_step_reference(model, mset, plan, amps, blocks)
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def _count_calls(monkeypatch, sites) -> Counter:
    """Wrap each (owner, name) of ``sites`` to count its calls by name."""
    calls = Counter()
    for owner, name in sites:
        real = getattr(owner, name)

        def wrapped(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)
    return calls


# the kernels of the factored drives and collapse halves, and the build
# of the fused halves that replaces them
_HALF_SITES = [
    (propagate.kernels, "collapse_blocks"),
    (propagate.kernels, "routed_commutator"),
    (propagate, "exp_nilpotent"),
    (propagate, "_build_halves"),
]


def test_trotter_sweeps_apply_halves_built_once(monkeypatch):
    """At the cnot_2q size (2 qubits, first order, d+1 = 5 states) a
    40-step forward sweep and its gradient sweep run no drive or collapse
    kernel: every step applies the two outer halves that the plan builds
    once."""
    model = attach_uncertainties(build_spin_chain(2), "edges")
    mset = MultiIndexSet(2, 1)
    grid = small_grid(model, n_steps=40, dt=0.5, seed=36)
    plan = make_trotter_plan(model, grid.dt)
    rng = np.random.default_rng(37)
    s0 = initial_state(mset, np.stack([random_density(4, rng) for _ in range(5)]))
    calls = _count_calls(monkeypatch, _HALF_SITES)
    fwd = propagate_forward("trotter", model, mset, grid, s0, plan=plan)
    propagate_backward(fwd.final, fwd)
    assert calls == Counter(_build_halves=1)


def _count_layout_changes(monkeypatch) -> Counter:
    """Count the copies that change a state's memory layout: into the
    block algebra's rows (N, S, d^2) on entering ``BlockAlgebra.apply``,
    out of them on leaving it, and into the kernels' wide array in
    ``kernels.to_wide``.  A layout already in place is read as a view."""
    changes = Counter()

    def rows(blocks, n_blocks):
        d = blocks.shape[-1]
        return blocks.reshape(-1, n_blocks, d, d).transpose(1, 0, 3, 2).reshape(n_blocks, -1, d * d)

    real_apply = augment.BlockAlgebra.apply

    def apply(algebra, p, blocks, *args, **kwargs):
        changes["into rows"] += not np.shares_memory(rows(blocks, algebra.size), blocks)
        out = real_apply(algebra, p, blocks, *args, **kwargs)
        changes["out of rows"] += not np.shares_memory(rows(out, algebra.size), out)
        return out

    real_to_wide = propagate.kernels.to_wide

    def to_wide(blocks):
        out = real_to_wide(blocks)
        changes["into wide"] += not np.shares_memory(out, blocks)
        return out

    monkeypatch.setattr(augment.BlockAlgebra, "apply", apply)
    monkeypatch.setattr(propagate, "apply_supermatrix", apply)
    monkeypatch.setattr(propagate.kernels, "to_wide", to_wide)
    return changes


def test_fused_steps_change_layout_once_each_way(monkeypatch):
    """At the cnot_2q size (2 qubits, first order, d+1 = 5 states) a fused
    Trotter step copies its state into the kernels' wide layout once, for
    its control sandwich, and back into the algebra's rows once, for Q;
    P reads the rows that the step before left, and no result is copied
    out of rows.  That holds for the forward sweep, recorded or not, and
    for the adjoint sweep, whose sandwich conjugations and pairings all
    read wide arrays; only each sweep's first step copies its input into
    rows.  The ``expm`` steps of a forward sweep hand each other their
    rows without a copy."""
    model = attach_uncertainties(build_spin_chain(2), "edges")
    mset = MultiIndexSet(2, 1)
    grid = small_grid(model, n_steps=40, dt=0.5, seed=36)
    n = grid.n_steps
    plan = make_trotter_plan(model, grid.dt)
    rng = np.random.default_rng(37)
    s0 = initial_state(mset, np.stack([random_density(4, rng) for _ in range(5)]))
    propagate_final("trotter", model, mset, grid, s0, plan=plan)  # builds the halves
    changes = _count_layout_changes(monkeypatch)
    once_each_way = Counter({"into rows": n + 1, "into wide": n})
    propagate_final("trotter", model, mset, grid, s0, plan=plan)
    assert +changes == once_each_way
    changes.clear()
    fwd = propagate_forward("trotter", model, mset, grid, s0, plan=plan)
    assert +changes == once_each_way
    changes.clear()
    propagate_backward(fwd.final, fwd)
    assert +changes == once_each_way
    changes.clear()
    propagate_final("expm", model, mset, grid, s0)
    propagate_forward("expm", model, mset, grid, s0)
    assert +changes == Counter({"into rows": 2})


def test_trotter_step_above_the_rule_runs_the_factor_kernels(monkeypatch, two_qubit):
    """With N d^4 above _FUSED_UP_TO (lowered here to one below 2 qubits
    at order 2) a step applies every factor by its kernels, forward and
    adjoint with the gradient: 2 m n drive commutators in 2 m
    exp_nilpotent calls, and 4 collapse kernels; at the constant itself
    it applies the halves, built once."""
    mset = MultiIndexSet(2, 2)
    plan = make_trotter_plan(two_qubit, 0.5)
    rng = np.random.default_rng(38)
    factors = _factors(plan, rng.standard_normal(4) * 0.3)
    s0 = _random_blocks(rng, mset.size, 4)
    size = mset.size * 4**4
    factored = Counter(routed_commutator=8, exp_nilpotent=4, collapse_blocks=4)
    for limit, per_step, built in ((size - 1, factored, 0), (size, Counter(), 1)):
        monkeypatch.setattr(propagate, "_FUSED_UP_TO", limit)
        calls = _count_calls(monkeypatch, _HALF_SITES)
        record = []
        step_trotter(plan, two_qubit, mset, s0, factors, 0, record=record)
        step_trotter_adjoint(
            plan, two_qubit, mset, s0, factors, 0, record[0], np.zeros((2, 4, 4), dtype=complex)
        )
        want = Counter({k: 2 * v for k, v in per_step.items()})
        want["_build_halves"] = built
        assert +calls == +want, limit
        monkeypatch.undo()


def test_fused_halves_rule_picks_the_measured_winner():
    """Every row of the per-step cost table beside _FUSED_UP_TO: the step
    fuses its outer halves exactly where that measured faster on one
    state and on d+1 states."""
    rows = [  # qubits, order, N d^4, fused faster on one and on d+1 states
        (1, 1, 32, True), (2, 1, 768, True), (2, 2, 1536, True), (2, 4, 3840, True),
        (3, 1, 12288, True), (3, 2, 24576, True), (3, 3, 40960, True), (3, 4, 61440, True),
        (4, 1, 196608, False), (4, 2, 393216, False),
        (5, 0, 1048576, False), (5, 1, 3145728, False),
    ]
    for n_qubits, order, size, fused in rows:
        model = attach_uncertainties(build_spin_chain(n_qubits), "edges")
        mset = MultiIndexSet(len(model.uncertainties), order)
        assert mset.size * model.dim**4 == size
        assert propagate._fuses(model, mset) == fused, (n_qubits, order)


def test_one_plan_keeps_each_index_sets_halves(two_qubit):
    """One plan stepping two index sets in turn hands each set its own
    halves, and their conjugates for the adjoint: every step, its adjoint
    and its pairing matrices equal those with a fresh plan for that set."""
    plan = make_trotter_plan(two_qubit, 0.5)
    rng = np.random.default_rng(39)
    amps = rng.standard_normal(4) * 0.3
    sets = [MultiIndexSet(2, 1), MultiIndexSet(2, 2)]
    for mset in sets + sets[::-1]:
        s0 = _random_blocks(rng, mset.size, 4)
        p, q, p_conj, q_conj = propagate._halves(plan, two_qubit, mset)
        assert p.shape == q.shape == (mset.size, 16, 16)
        assert np.array_equal(p_conj, np.conj(p)) and np.array_equal(q_conj, np.conj(q))
        fresh = make_trotter_plan(two_qubit, 0.5)
        got = _steps(plan, two_qubit, mset, s0, amps)
        want = _steps(fresh, two_qubit, mset, s0, amps)
        for name, g, w in zip(("step", "adjoint", "pairing"), got, want):
            assert np.array_equal(g, w), (mset.n, name)


def test_one_plan_rebuilds_halves_for_another_model():
    """A plan holds the drift, controls and collapse operators; the
    uncertainty operators come with the model each step is called with.
    One plan stepped with models that differ only in those (two preset
    kinds, and the edge set doubled, whose index set is the same) gives
    every step, adjoint step and pairing the fresh plan's result."""
    chain = build_spin_chain(3)
    edges = attach_uncertainties(chain, "edges")
    models = [
        edges,
        attach_uncertainties(chain, "couplings"),
        replace(edges, uncertainties=[2.0 * u for u in edges.uncertainties]),
    ]
    plan = make_trotter_plan(chain, 0.5)
    rng = np.random.default_rng(40)
    amps = rng.standard_normal(len(chain.controls)) * 0.3
    for model in models + models[:1]:
        mset = MultiIndexSet(model.n_uncertainties, 1)
        assert propagate._fuses(model, mset)
        s0 = _random_blocks(rng, mset.size, 8)
        fresh = make_trotter_plan(model, 0.5)
        got = _steps(plan, model, mset, s0, amps)
        want = _steps(fresh, model, mset, s0, amps)
        for name, g, w in zip(("step", "adjoint", "pairing"), got, want):
            assert np.array_equal(g, w), (model.n_uncertainties, name)


def test_trotter_step_fuses_its_control_sandwich(monkeypatch, two_qubit):
    """The control sandwich is one d x d conjugation of the blocks per
    forward step, recorded or not.  The gradient sweep's adjoint step
    makes three: the co-state through each control factor, and the
    recorded state on to the second factor; it pairs through one d x d
    matrix per control factor.  A forward propagation builds the control
    factors of all its steps once, readers included, and the gradient
    sweep reuses them from the forward cache."""
    mset = MultiIndexSet(2, 1)
    grid = small_grid(two_qubit, n_steps=3, dt=0.5, seed=34)
    n = grid.n_steps
    plan = make_trotter_plan(two_qubit, grid.dt)
    rng = np.random.default_rng(35)
    s0 = initial_state(mset, np.stack([random_density(4, rng) for _ in range(2)]))
    calls = _count_calls(monkeypatch, [
        (propagate.kernels, "conjugate_blocks"),
        (propagate.kernels, "control_pairing"),
        (propagate, "control_factors"),
    ])

    factors = _factors(plan, grid.amplitudes[:, 0])
    calls.clear()
    step_trotter(plan, two_qubit, mset, s0, factors, 0)
    assert calls == Counter(conjugate_blocks=1)
    calls.clear()
    propagate_final("trotter", two_qubit, mset, grid, s0, plan=plan)
    assert calls == Counter(control_factors=1, conjugate_blocks=n)
    calls.clear()
    fwd = propagate_forward("trotter", two_qubit, mset, grid, s0, plan=plan)
    assert calls == Counter(control_factors=1, conjugate_blocks=n)
    calls.clear()
    propagate_backward(fwd.final, fwd)
    assert calls == Counter(conjugate_blocks=3 * n, control_pairing=2 * n)


def test_exp_nilpotent_matches_dense_expm(two_qubit):
    mset = MultiIndexSet(2, 2)
    rng = np.random.default_rng(23)
    blocks = _random_blocks(rng, mset.size, 4)
    for j in range(2):
        for tau in (0.05, 0.25, 1.0):
            got = exp_nilpotent(two_qubit, mset, j, blocks, tau)
            dense = expm(
                tau * kron(mset.routing_matrix(j), mat_commutator(two_qubit.uncertainties[j]))
            )
            want = vec_to_state(dense @ state_to_vec(blocks), mset.size, 4)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) / scale < 1e-11, (j, tau)


def test_exp_nilpotent_zero_order_is_identity(two_qubit):
    mset = MultiIndexSet(2, 0)
    rng = np.random.default_rng(24)
    blocks = _random_blocks(rng, 1, 4)
    assert np.array_equal(exp_nilpotent(two_qubit, mset, 0, blocks, 0.7), blocks)


def test_greedy_grouping_without_hints():
    """A model whose commuting controls are not in channel order gets valid
    groups, discovered greedily."""
    controls = [
        kron(SIGMA_X, np.eye(2)),
        kron(np.eye(2), SIGMA_X),
        kron(SIGMA_Z, SIGMA_Z),
    ]
    model = OpenSystemModel(
        dim=4,
        drift=0.1 * kron(SIGMA_Z, np.eye(2)),
        controls=controls,
        lindblads=[(kron(SIGMA_X, np.eye(2)) * 0.3, 1e-3)],
    )
    plan = make_trotter_plan(model, 0.5)
    seen = sorted(c for g in plan.groups for c in g.channels)
    assert seen == [0, 1, 2]
    # commuting x drives share a group; the zz control cannot join them
    sizes = sorted(len(g.channels) for g in plan.groups)
    assert sizes == [1, 2]
    mset = MultiIndexSet(0, 0)
    rng = np.random.default_rng(25)
    amps = rng.standard_normal(3) * 0.2
    blocks = _random_blocks(rng, 1, 4)
    got = step_trotter(plan, model, mset, blocks.copy(), _factors(plan, amps), 0)
    want = dense_step_reference(model, mset, plan, amps, blocks)
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


# ------------------------------------------------------------------ adjoints


def test_step_adjoint_pairing_all_backends(one_qubit):
    """<a, S b> = <S^dag a, b> exactly, for every backend's one step, the
    adjoint step run by the gradient sweep on the forward cache."""
    mset = MultiIndexSet(1, 2)
    rng = np.random.default_rng(26)
    grid = ControlGrid(0.5, np.array([[0.2], [-0.15]]), -1.0, 1.0)
    a = _random_blocks(rng, mset.size, 2)
    b = _random_blocks(rng, mset.size, 2)
    plan = make_trotter_plan(one_qubit, 0.5)
    for backend in BACKENDS:
        fwd = propagate_forward(backend, one_qubit, mset, grid, b, plan=plan)
        bwd = propagate_backward(a, fwd)
        lhs, rhs = np.vdot(a, fwd.final), np.vdot(bwd.states[0], b)
        assert abs(lhs - rhs) < 1e-12 * abs(lhs), backend


def test_pairing_invariant_along_trajectory(one_qubit):
    """Co-state/state pairing is conserved step by step for each backend,
    along the gradient sweep."""
    mset = MultiIndexSet(1, 1)
    grid = small_grid(one_qubit, n_steps=6, dt=0.5, seed=5)
    rng = np.random.default_rng(27)
    s0 = initial_state(mset, random_density(2, rng))
    costate_T = _random_blocks(rng, mset.size, 2)
    plan = make_trotter_plan(one_qubit, grid.dt)
    for backend in BACKENDS:
        fwd = propagate_forward(backend, one_qubit, mset, grid, s0, plan=plan)
        bwd = propagate_backward(costate_T, fwd)
        pairings = [
            np.vdot(bwd.states[k], fwd.states[k]) for k in range(grid.n_steps + 1)
        ]
        spread = np.max(np.abs(np.diff(pairings)))
        assert spread < 1e-10 * max(1.0, abs(pairings[-1])), backend


# ------------------------------------------------------- error scaling, caps


def test_ode_step_matches_expm(one_qubit, two_qubit):
    """One Taylor-action step equals the dense exponential step to 1e-13,
    forward and adjoint; at dt = 4 the step takes several stages."""
    rng = np.random.default_rng(28)
    for model in (one_qubit, two_qubit):
        d = model.dim
        amps = rng.uniform(-1.0, 1.0, len(model.controls))
        for order in (1, 2):
            mset = MultiIndexSet(len(model.uncertainties), order)
            blocks = _random_blocks(rng, mset.size, d)
            for dt in (0.5, 4.0):
                stages = default_substeps(model, amps, dt)
                assert (stages > 1) == (dt == 4.0), (d, order, dt, stages)
                for adjoint in (False, True):
                    want = _expm_step(model, mset, blocks, amps, dt, adjoint=adjoint)
                    got = step_ode(model, mset, blocks, amps, dt, adjoint=adjoint)
                    err = quadrature_norm(got - want) / quadrature_norm(want)
                    assert err < 1e-13, (d, order, dt, adjoint, err)


def test_default_substeps_scale_with_dt(one_qubit):
    """The stage count s and degree m keep dt * bound <= s * theta_m at
    the least cost m * s, and s grows with dt once dt * bound > theta_55."""
    assert _TAYLOR_THETA == {m: _theta[m] for m in range(5, 56, 5)}
    amps = np.array([0.3, 0.1])
    bound = generator_norm_bound(one_qubit, amps)
    stages = []
    for dt in np.array([1e-3, 0.1, 1.0, 5.0, 9.8, 10.0, 25.0, 99.0, 400.0]) / bound:
        x = dt * bound
        s = default_substeps(one_qubit, amps, dt)
        m = _taylor_degree(x / s)
        assert x <= s * _TAYLOR_THETA[m], (x, m, s)
        best = min(mm * max(1, int(np.ceil(x / t))) for mm, t in _TAYLOR_THETA.items())
        assert m * s == best, (x, m, s)
        stages.append(s)
    assert stages[:5] == [1] * 5  # dt * bound <= theta_55
    assert stages[4:] == sorted(stages[4:])
    assert stages[5] == 2 and stages[-1] >= 400 / _TAYLOR_THETA[55]


def test_ode_rhs_calls_per_step_stay_bounded(monkeypatch):
    """The Taylor action makes at most 25 block-RHS calls per step, on
    average, over a 3-qubit, order-2 propagation of the CLI's seeded
    control; the count does not depend on the host."""
    cfg = load_config({
        "system": {"n_qubits": 3, "uncertainty": "edges"},
        "control": {"n_steps": 10, "dt_ns": 0.5, "max_mhz": 100.0, "seed": 1},
        "robustness": {"order": 2},
        "task": {"kind": "state", "initial": "ground", "target": "uniform"},
    })
    model = build_model(cfg)
    mset = build_mset(cfg, model)
    grid = build_grid(cfg, model)
    s0 = initial_state(mset, np.diag(np.eye(model.dim)[0]).astype(complex))
    calls = []
    rhs = propagate._augmented_rhs
    monkeypatch.setattr(propagate, "_augmented_rhs", lambda *a: calls.append(1) or rhs(*a))
    final = propagate_final("ode", model, mset, grid, s0)
    assert len(calls) <= 25 * grid.n_steps, len(calls) / grid.n_steps
    assert abs(np.trace(final[-1]).real - 1.0) < 1e-12


def test_expm_stacks_follow_the_run_length_rule(monkeypatch):
    """A run of steps is one exponential call while N d^4 per step (count
    d^4 for the oracle's samples) fits EXPM_STACK_NUMBERS = 2^13 numbers:
    a 40-step 2q order-1 sweep (N d^4 = 768) makes ceil(40 / 10) calls; a
    3q order-2 sweep (24,576) one per step; the oracle's single sample at
    d = 4 stacks 32 steps, and a 50-sample sweep chunk (12,800) one step
    per call."""
    calls, exps = [], []
    real_prop, real_expm = propagate.step_propagator_expm, linalg.expm

    def prop_spy(model, mset, amplitudes, dt):
        calls.append(np.shape(amplitudes)[1:])
        return real_prop(model, mset, amplitudes, dt)

    def expm_spy(a):
        exps.append(np.shape(a))
        return real_expm(a)

    monkeypatch.setattr(propagate, "step_propagator_expm", prop_spy)
    monkeypatch.setattr(linalg, "expm", expm_spy)
    assert linalg.EXPM_STACK_NUMBERS == 2**13
    for n_qubits, order, n_steps, want in ((2, 1, 40, [(10,)] * 4), (3, 2, 3, [(1,)] * 3)):
        cfg = load_config({
            "system": {"n_qubits": n_qubits, "uncertainty": "edges"},
            "control": {"n_steps": n_steps, "dt_ns": 0.5, "max_mhz": 100.0, "seed": 1},
            "robustness": {"order": order},
            "task": {"kind": "state", "initial": "ground", "target": "uniform"},
        })
        model = build_model(cfg)
        mset, grid = build_mset(cfg, model), build_grid(cfg, model)
        calls.clear()
        propagate_final("expm", model, mset, grid, initial_state(mset, np.eye(model.dim) / model.dim))
        assert calls == want, (n_qubits, order)
        if n_qubits == 2:
            eps = np.zeros((50, model.n_uncertainties))
            exps.clear()
            oracle.noisy_channel_super(model, grid, eps[0])
            assert exps == [(32, 16, 16), (8, 16, 16)]
            exps.clear()
            oracle.noisy_channel_super(model, grid, eps)
            assert exps == [(1, 50, 16, 16)] * 40


def test_ode_step_builds_its_hamiltonian_a_fixed_number_of_times(monkeypatch, two_qubit):
    """An ode step builds H(u) three times, twice for the norm bound and
    once for its Lindblad terms, however many RHS calls it makes; each
    RHS call is one Lindblad kernel call."""
    mset = MultiIndexSet(2, 2)
    amps = np.random.default_rng(33).uniform(-0.3, 0.3, len(two_qubit.controls))
    blocks = _random_blocks(np.random.default_rng(34), mset.size, 4)
    counts = {"hamiltonian": 0, "rhs": 0, "kernel": 0}

    def counted(key, real):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(OpenSystemModel, "hamiltonian", counted("hamiltonian", OpenSystemModel.hamiltonian))
    monkeypatch.setattr(propagate, "_augmented_rhs", counted("rhs", propagate._augmented_rhs))
    monkeypatch.setattr(
        propagate.kernels, "lindblad_rhs_blocks", counted("kernel", propagate.kernels.lindblad_rhs_blocks)
    )
    for adjoint in (False, True):
        step_ode(two_qubit, mset, blocks, amps, 0.5, adjoint=adjoint)
    assert counts["hamiltonian"] == 6
    assert counts["kernel"] == counts["rhs"] > 6


def test_generator_norm_bound_dominates(one_qubit, two_qubit):
    for model, m in ((one_qubit, 1), (two_qubit, 2)):
        mset = MultiIndexSet(m, 1)
        rng = np.random.default_rng(29)
        amps = rng.standard_normal(len(model.controls)) * 0.3
        big = assemble_supermatrix(model, mset, amps)
        assert np.linalg.norm(big, 2) <= generator_norm_bound(model, amps) + 1e-12


def test_trace_behaviour_exact_backends(one_qubit):
    """Physical block keeps unit trace; derivative blocks stay traceless."""
    mset = MultiIndexSet(1, 2)
    grid = small_grid(one_qubit, n_steps=6, dt=0.5, seed=6)
    s0 = initial_state(mset, np.diag([0.7, 0.3]).astype(complex))
    for backend in ("expm", "ode"):
        fwd = propagate_forward(backend, one_qubit, mset, grid, s0)
        for k in range(grid.n_steps + 1):
            traces = np.trace(fwd.states[k], axis1=1, axis2=2)
            assert abs(traces[-1] - 1.0) < 1e-12, backend
            assert np.max(np.abs(traces[:-1])) < 1e-12, backend


def test_trotter_trace_defect_is_small(one_qubit):
    mset = MultiIndexSet(1, 1)
    grid = small_grid(one_qubit, n_steps=16, dt=0.25, seed=7)
    s0 = initial_state(mset, np.diag([1.0, 0.0]).astype(complex))
    final = propagate_final("trotter", one_qubit, mset, grid, s0)
    assert abs(np.trace(final[-1]).real - 1.0) < 1e-5


def test_delta_st_shrinks_with_dt(one_qubit):
    mset = MultiIndexSet(1, 1)
    base = small_grid(one_qubit, n_steps=8, dt=0.5, seed=8)
    fine = ControlGrid(0.25, np.repeat(base.amplitudes, 2, axis=1), base.lo, base.hi)
    s0 = initial_state(mset, np.diag([1.0, 0.0]).astype(complex))
    d_coarse = delta_st(one_qubit, mset, base, s0)
    d_fine = delta_st(one_qubit, mset, fine, s0)
    assert d_fine < d_coarse / 2.0


def test_delta_st_measures_against_the_rules_pick(monkeypatch, one_qubit):
    """delta_st propagates its exact side by the backend that
    exact_backend picks for one forward pass: expm with the rule's
    one-pass limit at this N d^2 = 8, ode with it one below."""
    mset = MultiIndexSet(1, 1)
    grid = small_grid(one_qubit, n_steps=3, dt=0.5, seed=44)
    s0 = initial_state(mset, random_density(2, np.random.default_rng(45)))
    assert mset.size * one_qubit.dim**2 == 8
    real = propagate.propagate_final
    used = []

    def spy(backend, *args, **kwargs):
        used.append(backend)
        return real(backend, *args, **kwargs)

    monkeypatch.setattr(propagate, "propagate_final", spy)
    for limit, pick in ((8, "expm"), (7, "ode")):
        monkeypatch.setitem(propagate._EXPM_UP_TO, 1, limit)
        used.clear()
        dev = delta_st(one_qubit, mset, grid, s0)
        assert used == [pick, "trotter"], limit
        want = propagate.splitting_deviation(
            real(pick, one_qubit, mset, grid, s0), real("trotter", one_qubit, mset, grid, s0)
        )
        assert dev == want, limit


def test_forward_cache_layout(one_qubit):
    mset = MultiIndexSet(1, 1)
    grid = small_grid(one_qubit, n_steps=5, dt=0.5, seed=9)
    s0 = initial_state(mset, np.diag([1.0, 0.0]).astype(complex))
    fwd = propagate_forward("trotter", one_qubit, mset, grid, s0)
    assert fwd.states.shape == (6, 2, 2, 2)
    assert np.array_equal(fwd.states[0], s0)
    assert fwd.sweep.backend == "trotter" and fwd.grad is None
    assert [pre.shape for pre in fwd.records] == [(2, 2, 2)] * 5
    factors = fwd.sweep.factors
    assert factors.whole.shape == (5, 2, 2) and factors.readers.shape[:2] == (5, 2)
    assert fwd.sweep.plan.dt == grid.dt
    expm_fwd = propagate_forward("expm", one_qubit, mset, grid, s0)
    assert [p.shape for p in expm_fwd.records] == [(2, 4, 4)] * 5
    assert propagate_forward("ode", one_qubit, mset, grid, s0).records == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_backward_sweep_rejects_a_costate_of_another_shape(backend, one_qubit):
    """A terminal co-state shaped unlike the forward cache's states (fewer
    states, one state against a batch, fewer blocks) raises a ValueError
    that names both shapes, on every backend."""
    mset = MultiIndexSet(1, 2)
    grid = small_grid(one_qubit, n_steps=2, dt=0.5, seed=9)
    rng = np.random.default_rng(43)
    s0 = initial_state(mset, np.stack([random_density(2, rng) for _ in range(5)]))
    fwd = propagate_forward(backend, one_qubit, mset, grid, s0)
    for shape in ((4, 3, 2, 2), (3, 2, 2), (5, 2, 2, 2)):
        want = f"co-state has shape {shape} where the forward states have (5, 3, 2, 2)"
        with pytest.raises(ValueError, match=re.escape(want)):
            propagate_backward(np.zeros(shape, dtype=complex), fwd)


@pytest.mark.parametrize("backend", BACKENDS)
def test_adjoint_sweeps_on_one_forward_cache_are_independent(backend, two_qubit):
    """Two adjoint sweeps on one forward cache, of a batch of two states,
    give bit-identical co-states and gradients on every backend, with a
    forward-only sweep and a forward step of the cache's own sweep (which
    exponentiates a new ``expm`` stack for it to hold) run in between:
    no sweep leaves state behind for the next."""
    mset = MultiIndexSet(2, 1)
    grid = small_grid(two_qubit, n_steps=12, dt=0.5, seed=44)
    rng = np.random.default_rng(45)
    s0 = initial_state(mset, np.stack([random_density(4, rng) for _ in range(2)]))
    costate = np.stack([_random_blocks(rng, mset.size, 4) for _ in range(2)])
    fwd = propagate_forward(backend, two_qubit, mset, grid, s0)
    first = propagate_backward(costate, fwd)
    propagate_final(backend, two_qubit, mset, grid, s0)
    fwd.sweep.step(0, s0)
    second = propagate_backward(costate, fwd)
    assert np.array_equal(first.states, second.states)
    assert np.array_equal(first.grad, second.grad)


def test_trotter_record_shares_no_memory_with_later_writes(monkeypatch):
    """With no uncertainties and no collapse operators, and the halves run
    factor by factor, the outer halves pass their input through, so the
    state a forward step records is its input itself.  Overwriting the
    caller's state0 after the sweep must not reach the cache: the
    gradient then equals a fresh sweep's."""
    model = build_spin_chain(1, t1_us=0.0, t2_us=0.0)
    assert model.rates.size == 0 and model.n_uncertainties == 0
    monkeypatch.setattr(propagate, "_FUSED_UP_TO", -1)
    mset = MultiIndexSet(0, 0)
    grid = small_grid(model, n_steps=4, dt=0.5, seed=41)
    rng = np.random.default_rng(42)
    s0 = initial_state(mset, random_density(2, rng))
    costate = _random_blocks(rng, mset.size, 2)
    fresh = propagate_forward("trotter", model, mset, grid, s0.copy())
    want = propagate_backward(costate, fresh).grad
    fwd = propagate_forward("trotter", model, mset, grid, s0)
    s0[...] = _random_blocks(rng, mset.size, 2)
    assert np.array_equal(propagate_backward(costate, fwd).grad, want)


def test_exact_backend_picks_the_measured_winner():
    """Every row of the per-step cost table in propagate.py: the faster
    backend of a forward pass and of a gradient at each size."""
    rows = [  # qubits, order, N d^2, forward winner, gradient winner
        (1, 1, 8, "expm", "expm"), (2, 1, 48, "expm", "expm"), (2, 2, 96, "expm", "expm"),
        (3, 1, 192, "expm", "expm"), (3, 2, 384, "expm", "expm"), (4, 1, 768, "ode", "expm"),
        (4, 2, 1536, "ode", "ode"),
    ]
    for n_qubits, order, size, fwd, grad in rows:
        model = attach_uncertainties(build_spin_chain(n_qubits), "edges")
        mset = MultiIndexSet(len(model.uncertainties), order)
        assert mset.size * model.dim**2 == size
        assert exact_backend(model, mset, 1) == fwd, (n_qubits, order)
        assert exact_backend(model, mset, 2) == grad, (n_qubits, order)


def test_cap_counts_the_numbers_of_one_block_element():
    """The cap bounds N d^4: 3 qubits at order 2 (24,576) and 5 qubits at
    order 1 (3 * 2^20) pass; 6 qubits at order 1 (3 * 2^24, 805 MB per
    element) is rejected although its N d^2 is only 12,288."""
    for n_qubits, order, ok in ((3, 2, True), (5, 1, True), (6, 1, False)):
        model = attach_uncertainties(build_spin_chain(n_qubits), "edges")
        mset = MultiIndexSet(len(model.uncertainties), order)
        if ok:
            augment._check_dense_size(model, mset)
        else:
            with pytest.raises(ValueError, match="N\\*d\\^4 = 50331648 exceeds"):
                propagate.step_propagator_expm(model, mset, np.zeros(len(model.controls)), 0.5)


def test_expm_backend_respects_cap(over_cap_chain):
    mset = MultiIndexSet(2, 2)
    grid = small_grid(over_cap_chain, n_steps=2, dt=0.5, seed=10)
    s0 = initial_state(mset, np.eye(64, dtype=complex) / 64.0)
    with pytest.raises(ValueError, match="N\\*d\\^4 = 100663296 exceeds cap 4194304"):
        propagate_final("expm", over_cap_chain, mset, grid, s0)


def test_expm_step_stays_in_the_block_algebra(monkeypatch):
    """At 3 qubits, order 2, the expm step propagator neither assembles
    the 384 x 384 generator nor exponentiates anything larger than one
    64 x 64 block, and it is returned as its six 64 x 64 blocks; over a
    lowered cap it raises ValueError."""
    model = attach_uncertainties(build_spin_chain(3), "edges")
    mset = MultiIndexSet(2, 2)
    amps = np.random.default_rng(32).uniform(-0.1, 0.1, len(model.controls))
    calls = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append((name, np.shape(args[0])))
            return real(*args, **kwargs)
        return wrapped

    for module in (propagate, augment):
        monkeypatch.setattr(module, "assemble_supermatrix", spy("assemble", augment.assemble_supermatrix))
    for module in (propagate, linalg):
        monkeypatch.setattr(module, "expm", spy("expm", linalg.expm))
    s = propagate.step_propagator_expm(model, mset, amps, 0.5)
    assert s.shape == (6, 64, 64)
    assert [c for c in calls if c[0] == "assemble"] == []
    assert all(shape[-1] <= 64 for _, shape in calls), calls
    monkeypatch.setattr(augment, "DEFAULT_SUPERMATRIX_CAP", 6 * 64**2 - 1)
    with pytest.raises(ValueError, match="N\\*d\\^4 = 24576 exceeds cap 24575"):
        propagate.step_propagator_expm(model, mset, amps, 0.5)


def test_expm_route_runs_in_real_arithmetic(two_qubit, monkeypatch):
    """The expm step exponentiates in the Hermitian basis: along
    propagate_final, and along propagate_forward and then
    propagate_backward, every operand of the block algebra's product and
    solve is float64, and each forward record is a float64 element of
    N d^4 numbers, 8 bytes each; the states stay complex d x d blocks."""
    mset = MultiIndexSet(2, 2)
    grid = small_grid(two_qubit, n_steps=3, seed=21)
    rng = np.random.default_rng(22)
    s0 = initial_state(mset, np.stack([random_density(4, rng) for _ in range(2)]))
    dtypes = []

    def spy(real):
        def wrapped(self, *args):
            dtypes.extend(np.asarray(a).dtype for a in args)
            return real(self, *args)
        return wrapped

    for name in ("product", "solve"):
        monkeypatch.setattr(augment.BlockAlgebra, name, spy(getattr(augment.BlockAlgebra, name)))
    final = propagate_final("expm", two_qubit, mset, grid, s0)
    fwd = propagate_forward("expm", two_qubit, mset, grid, s0)
    bwd = propagate_backward(final, fwd)
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}
    record = (np.dtype(np.float64), mset.size * two_qubit.dim**4 * 8)
    assert [(r.dtype, r.nbytes) for r in fwd.records] == [record] * grid.n_steps
    for states in (final, fwd.states, bwd.states):
        assert states.dtype == np.complex128 and states.shape[-3:] == (mset.size, 4, 4)


def test_unknown_backend_rejected(one_qubit):
    grid = small_grid(one_qubit, n_steps=2)
    s0 = initial_state(MultiIndexSet(1, 0), np.eye(2, dtype=complex) / 2)
    with pytest.raises(ValueError, match="backend"):
        propagate_final("magic", one_qubit, MultiIndexSet(1, 0), grid, s0)


def test_batch_axis_matches_single_states(two_qubit):
    """A leading state axis gives each state's own step, for every backend
    and direction, and the propagation loops keep it."""
    mset = MultiIndexSet(2, 1)
    rng = np.random.default_rng(30)
    amps = rng.standard_normal(4) * 0.3
    batch = _random_blocks(rng, 3 * mset.size, 4).reshape(3, mset.size, 4, 4)
    plan = make_trotter_plan(two_qubit, 0.5)
    steps = {
        "trotter": lambda b: _steps(plan, two_qubit, mset, b, amps)[0],
        "trotter adjoint": lambda b: _steps(plan, two_qubit, mset, b, amps)[1],
        "expm": lambda b: _expm_step(two_qubit, mset, b, amps, 0.5),
        "expm adjoint": lambda b: _expm_step(two_qubit, mset, b, amps, 0.5, adjoint=True),
        "ode": lambda b: step_ode(two_qubit, mset, b, amps, 0.5),
        "ode adjoint": lambda b: step_ode(two_qubit, mset, b, amps, 0.5, adjoint=True),
    }
    for name, step in steps.items():
        got = step(batch)
        want = np.stack([step(b) for b in batch])
        assert got.shape == batch.shape, name
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want))), name

    grid = small_grid(two_qubit, n_steps=3, dt=0.5, seed=31)
    fwd = propagate_forward("trotter", two_qubit, mset, grid, batch, plan=plan)
    assert fwd.states.shape == (4,) + batch.shape
    assert [pre.shape for pre in fwd.records] == [batch.shape] * 3
    for s in range(3):
        alone = propagate_final("trotter", two_qubit, mset, grid, batch[s], plan=plan)
        assert np.max(np.abs(fwd.final[s] - alone)) < 1e-12 * max(1.0, np.max(np.abs(alone)))
