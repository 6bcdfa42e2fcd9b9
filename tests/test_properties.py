"""Property tests of the propagation backends on random non-chain models.

Each model is a random d-level system (d = 2 or 3) with m <= 3
uncertainty operators, Taylor order n <= 3, collapse channels, and two
or three controls; the first two do not commute, and a third, when
present, commutes with the first, so the Trotter plan's greedy grouping
forms a group of two channels that share one eigenbasis.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustpulse.augment import (
    MultiIndexSet,
    apply_Ej,
    apply_Ej_adjoint,
    assemble_supermatrix,
    generator_blocks,
    initial_state,
    mat_commutator,
    quadrature_norm,
    state_to_vec,
    step_propagator_expm,
    vec_to_state,
)
from robustpulse.linalg import expm, mat_lindblad, scaling_exponent
from robustpulse.model import ControlGrid, NoiseDistribution, OpenSystemModel
from robustpulse.objective import avg_gate_fidelity
from robustpulse.oracle import noise_sweep, noisy_liouvillian
from robustpulse import propagate
from robustpulse.propagate import (
    BACKENDS,
    exp_nilpotent,
    generator_norm_bound,
    make_trotter_plan,
    propagate_backward,
    propagate_final,
    propagate_forward,
    step_trotter,
    step_trotter_adjoint,
)

from conftest import (
    dense_step_reference,
    hermitian_basis_matrix,
    random_density,
    random_hermitian,
    scipy_steps,
)

PROPERTY_SETTINGS = settings(max_examples=25, derandomize=True, deadline=None)


@st.composite
def problems(draw):
    """(model, mset, grid, rng) for a random non-chain model."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(0, 3))
    n = draw(st.integers(1, 3))
    n_controls = draw(st.sampled_from([2, 3]))
    n_steps = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    h0 = random_hermitian(d, rng)
    controls = [h0, random_hermitian(d, rng)]
    if n_controls == 3:
        controls.append(0.5 * h0 @ h0)  # commutes with h0 only
    model = OpenSystemModel(
        dim=d,
        drift=0.3 * random_hermitian(d, rng),
        controls=controls,
        lindblads=[(0.4 * rng.standard_normal((d, d)), 0.05), (np.diag(np.arange(d)), 0.02)],
        uncertainties=[0.2 * random_hermitian(d, rng) for _ in range(m)],
    )
    amps = rng.uniform(-0.4, 0.4, (n_controls, n_steps))
    grid = ControlGrid(0.4, amps, np.full(n_controls, -1.0), np.full(n_controls, 1.0))
    return model, MultiIndexSet(m, n), grid, rng


@PROPERTY_SETTINGS
@given(problems())
def test_plan_groups_commute_and_share_a_basis(problem):
    """Every channel sits in exactly one of the plan's groups, the
    channels of a group commute pairwise, and each group's basis gives
    back every channel from its diagonal: r diag(diags_c) r^dag = H_c to
    1e-12."""
    model, _, grid, _ = problem
    plan = make_trotter_plan(model, grid.dt)
    channels = np.concatenate([g.channels for g in plan.groups])
    assert sorted(channels.tolist()) == list(range(len(model.controls)))
    for g in plan.groups:
        ops = [model.controls[c] for c in g.channels]
        for a in ops:
            for b in ops:
                assert np.max(np.abs(a @ b - b @ a)) <= 1e-12
        for h, diag in zip(ops, g.diags):
            assert np.max(np.abs((g.r * diag) @ g.r_dag - h)) <= 1e-12


def _random_blocks(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from([None, 2]))
def test_forward_backward_pairing(problem, batch):
    """<a, F b> = <F^dag a, b> through the propagation loops, every backend,
    for one state or a batch, with the adjoint sweep reusing the forward
    cache as the gradient does."""
    model, mset, grid, rng = problem
    d = model.dim
    if batch is None:
        rho0 = random_density(d, rng)
    else:
        rho0 = np.stack([random_density(d, rng) for _ in range(batch)])
    b = initial_state(mset, rho0)
    a = _random_blocks(rng, b.shape)
    plan = make_trotter_plan(model, grid.dt)
    for backend in BACKENDS:
        fwd = propagate_forward(backend, model, mset, grid, b, plan=plan)
        bwd = propagate_backward(model, mset, grid, a, fwd)
        assert bwd.grad.shape == grid.amplitudes.shape, backend
        lhs = np.vdot(a, fwd.final)
        rhs = np.vdot(bwd.states[0], b)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), backend


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from([None, 2]))
def test_trotter_step_equals_dense_factors(problem, batch):
    """The splitting step, its control sandwich fused into d x d
    conjugations, equals the product of its dense factors, and its
    adjoint, as the gradient sweep runs it, that product's conjugate
    transpose, to 1e-12 relative: with a group of two channels and a
    discovered diagonalizer, non-monomial collapse operators, for one
    state or a batch; also with the intra-step state recorded."""
    model, mset, grid, rng = problem
    d = model.dim
    plan = make_trotter_plan(model, grid.dt)
    amps = grid.amplitudes[:, 0]
    factors = propagate.control_factors(plan, amps[:, None])
    shape = (mset.size, d, d) if batch is None else (batch, mset.size, d, d)
    b = _random_blocks(rng, shape)
    for adjoint in (False, True):
        want = dense_step_reference(model, mset, plan, amps, b, adjoint=adjoint)
        if adjoint:
            pairing = np.zeros((2, d, d), dtype=complex)
            got = [step_trotter_adjoint(plan, model, mset, b, factors, 0, b, pairing)]
        else:
            got = [step_trotter(plan, model, mset, b, factors, 0),
                   step_trotter(plan, model, mset, b, factors, 0, record=[])]
        for g in got:
            assert g.shape == shape
            assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want)), adjoint


def _relative_gap(got, want) -> float:
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), np.finfo(float).tiny)


@PROPERTY_SETTINGS
@given(
    problems(),
    st.integers(0, 2),
    st.sampled_from([(), ("lindblads",), ("uncertainties",), ("lindblads", "uncertainties")]),
)
def test_fused_halves_equal_their_factors(problem, order, dropped):
    """The step's outer halves P = C D_m ... D_1 and Q = D_1 ... D_m C,
    applied by the block algebra, equal the factored half-steps
    (exp_nilpotent and the truncated collapse half) to 1e-12 relative,
    forward and adjoint, at orders 0-2, with and without collapse
    operators and uncertainties.  A whole step equals the factored step
    in its result, its recorded state, its adjoint and its pairing
    matrices."""
    model, _, grid, rng = problem
    model = dataclasses.replace(model, **{field: [] for field in dropped})
    mset = MultiIndexSet(model.n_uncertainties, order)
    plan = make_trotter_plan(model, grid.dt)
    b = _random_blocks(rng, (2, mset.size, model.dim, model.dim))

    def drives(x, js, adjoint):
        for j in js:
            x = exp_nilpotent(model, mset, j, x, 0.5 * grid.dt, adjoint=adjoint)
        return x

    p, q, *_ = propagate._halves(plan, model, mset)
    for adjoint in (False, True):
        collapse = lambda x: propagate._collapse_half(plan, model, x, adjoint)  # noqa: E731
        first = collapse(drives(b, range(mset.m), adjoint))  # P, or Q^dag
        second = drives(collapse(b), reversed(range(mset.m)), adjoint)  # Q, or P^dag
        for elem, want in zip((q, p) if adjoint else (p, q), (first, second)):
            got = mset.algebra.apply(elem, b, adjoint=adjoint)
            assert _relative_gap(got, want) <= 1e-12, adjoint

    amps = grid.amplitudes[:, 0]
    factors = propagate.control_factors(plan, amps[:, None])
    costate = _random_blocks(rng, b.shape)

    def whole_step():
        record = []
        out = step_trotter(plan, model, mset, b, factors, 0, record=record)
        pairing = np.zeros((2, model.dim, model.dim), dtype=complex)
        back = step_trotter_adjoint(plan, model, mset, costate, factors, 0, record[0], pairing)
        return out, record[0], back, pairing

    fused = whole_step()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "_FUSED_UP_TO", -1)
        factored = whole_step()
    for name, got, want in zip(("step", "pre", "adjoint", "pairing"), fused, factored):
        assert _relative_gap(got, want) <= 1e-12, name


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from([None, 2]))
def test_fused_sweeps_equal_factored_sweeps(problem, batch):
    """Whole Trotter sweeps with the outer halves fused equal the sweeps
    run factor by factor to 1e-12 relative, for one state or a batch:
    the final state of the forward-only sweep, every state of the
    recorded forward sweep, and every co-state and the gradient of the
    adjoint sweep on it.  The fused steps hand each other their results
    as views, and the recorded states are the sandwich's own arrays, so a
    state that a later write aliased would show here."""
    model, mset, grid, rng = problem
    d = model.dim
    rho0 = random_density(d, rng) if batch is None else np.stack(
        [random_density(d, rng) for _ in range(batch)]
    )
    s0 = initial_state(mset, rho0)
    costate = _random_blocks(rng, s0.shape)

    def sweeps():
        plan = make_trotter_plan(model, grid.dt)
        final = propagate_final("trotter", model, mset, grid, s0, plan=plan)
        fwd = propagate_forward("trotter", model, mset, grid, s0, plan=plan)
        bwd = propagate_backward(model, mset, grid, costate, fwd)
        return final, fwd.states, bwd.states, bwd.grad

    assert propagate._fuses(model, mset)
    fused = sweeps()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "_FUSED_UP_TO", -1)
        factored = sweeps()
    for name, got, want in zip(("final", "forward", "backward", "grad"), fused, factored):
        assert got.shape == want.shape, name
        if name in ("forward", "backward"):
            for k, (g, w) in enumerate(zip(got, want)):
                assert _relative_gap(g, w) <= 1e-12, (name, k)
        else:
            assert _relative_gap(got, want) <= 1e-12, name


@PROPERTY_SETTINGS
@given(problems())
def test_trotter_gradient_matches_central_differences(problem):
    """The exact splitting gradient of J(u) = Re<C, F_u(s0)> agrees with
    central differences in every amplitude."""
    model, mset, grid, rng = problem
    plan = make_trotter_plan(model, grid.dt)
    s0 = initial_state(mset, random_density(model.dim, rng))
    costate = _random_blocks(rng, s0.shape)
    fwd = propagate_forward("trotter", model, mset, grid, s0, plan=plan)
    grad = propagate_backward(model, mset, grid, costate, fwd).grad

    def objective(amps):
        final = propagate_final("trotter", model, mset, grid.with_amplitudes(amps), s0, plan=plan)
        return np.vdot(costate, final).real

    h = 1e-6
    fd = np.zeros_like(grad)
    for idx in np.ndindex(*grad.shape):
        up, down = grid.amplitudes.copy(), grid.amplitudes.copy()
        up[idx] += h
        down[idx] -= h
        fd[idx] = (objective(up) - objective(down)) / (2 * h)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))


@PROPERTY_SETTINGS
@given(problems())
def test_exact_backends_agree(problem):
    """expm and the Taylor action give the same terminal augmented state."""
    model, mset, grid, rng = problem
    s0 = initial_state(mset, random_density(model.dim, rng))
    exact = propagate_final("expm", model, mset, grid, s0)
    action = propagate_final("ode", model, mset, grid, s0)
    assert quadrature_norm(action - exact) <= 1e-12 * quadrature_norm(exact)


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from([None, 2]))
def test_exact_backend_gradients_agree(problem, batch):
    """The first-order gradients of the expm and ode adjoint sweeps, each
    reusing its own forward cache, are dt Im tr(O_{k+1}^dag [H_c,
    rho_{k+1}]) summed over every block of the sweeps' own states, and
    agree to 1e-10 relative."""
    model, mset, grid, rng = problem
    d = model.dim
    rho0 = random_density(d, rng) if batch is None else np.stack(
        [random_density(d, rng) for _ in range(batch)]
    )
    s0 = initial_state(mset, rho0)
    costate = _random_blocks(rng, s0.shape)
    grads = []
    for backend in ("expm", "ode"):
        fwd = propagate_forward(backend, model, mset, grid, s0)
        bwd = propagate_backward(model, mset, grid, costate, fwd)
        rho, o = fwd.states[1:], bwd.states[1:]
        want = grid.dt * np.array([
            [np.vdot(o[k], h @ rho[k] - rho[k] @ h).imag for k in range(grid.n_steps)]
            for h in model.controls
        ])
        assert _relative_gap(bwd.grad, want) <= 1e-12, backend
        grads.append(bwd.grad)
    assert _relative_gap(grads[1], grads[0]) <= 1e-10


@PROPERTY_SETTINGS
@given(problems())
def test_generator_norm_bound_dominates_one_and_inf_norms(problem):
    """generator_norm_bound is at least the 1-norm and the inf-norm of the
    assembled augmented generator, at every step's amplitudes."""
    model, mset, grid, _ = problem
    for amps in grid.amplitudes.T:
        big = assemble_supermatrix(model, mset, amps)
        bound = generator_norm_bound(model, amps)
        for p in (1, np.inf):
            assert np.linalg.norm(big, p) <= bound * (1 + 1e-12), p


def _dense_layout(mset, a):
    """A block-algebra element as the (N D) x (N D) matrix in the layout of
    assemble_supermatrix: dense block (k, r) is A_b for each pair (b, r, k)
    of the pair table, and zero elsewhere."""
    n_blocks, dim = mset.size, a.shape[-1]
    out = np.zeros((n_blocks, dim, n_blocks, dim), dtype=complex)
    for b, r, k in mset.algebra.pairs:
        out[k, :, r, :] = a[b]
    return out.reshape(n_blocks * dim, n_blocks * dim)


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from([0.4, 40.0]))
def test_block_exponential_equals_dense_reference(problem, dt):
    """The step propagator, exponentiated in the block algebra, is a real
    (N, d^2, d^2) element in the Hermitian basis; mapped back by T block
    by block, its dense layout equals linalg.expm of the assembled
    generator to 1e-12 relative.  The real generator's blocks map back
    and lay out to that generator to roundoff, and their column sums give
    the 1-norm of their own dense layout, hence its scaling exponent;
    dt = 40 forces squarings."""
    model, mset, grid, _ = problem
    d2 = model.dim**2
    t = hermitian_basis_matrix(model.dim)

    def back(a):
        return _dense_layout(mset, t @ a @ t.conj().T)

    for amps in grid.amplitudes.T:
        big = dt * assemble_supermatrix(model, mset, amps)
        gen = dt * generator_blocks(model, mset, amps)
        assert gen.dtype == np.float64
        assert np.max(np.abs(back(gen) - big)) <= 1e-14 * np.max(np.abs(big))
        norm = mset.algebra.one_norm(gen)
        dense = np.linalg.norm(_dense_layout(mset, gen), 1)
        assert abs(norm - dense) <= 1e-14 * norm
        assert scaling_exponent(norm) == scaling_exponent(dense)
        want = expm(big)
        got = step_propagator_expm(model, mset, amps, dt)
        assert got.dtype == np.float64 and got.shape == (mset.size, d2, d2)
        assert np.max(np.abs(back(got) - want)) <= 1e-12 * np.max(np.abs(want))


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from([0.4, 40.0]))
def test_block_apply_equals_dense_reference(problem, dt):
    """The algebra's apply of a step propagator, and of its adjoint, equals
    the dense reference exponential (its conjugate transpose) applied
    through state_to_vec, for one state and for a batch, to 1e-12
    relative."""
    model, mset, grid, rng = problem
    d = model.dim
    amps = grid.amplitudes[:, 0]
    prop = step_propagator_expm(model, mset, amps, dt)
    dense = expm(dt * assemble_supermatrix(model, mset, amps))
    batch = _random_blocks(rng, (3, mset.size, d, d))
    for adjoint, s in ((False, dense), (True, dense.conj().T)):
        want = vec_to_state(state_to_vec(batch) @ s.T, mset.size, d)
        got = mset.algebra.apply(prop, batch, adjoint=adjoint)
        assert got.shape == batch.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), adjoint
        one = mset.algebra.apply(prop, batch[0], adjoint=adjoint)
        assert one.shape == batch[0].shape
        assert np.max(np.abs(one - want[0])) <= 1e-12 * np.max(np.abs(want[0])), adjoint


@PROPERTY_SETTINGS
@given(problems())
def test_uncertainty_drives_are_nilpotent(problem):
    """Each E_j drive applied n+1 times annihilates any state, forward and
    adjoint, and exp_nilpotent equals the dense exponential of the drive's
    supermatrix kron(routing_matrix(j), mat_commutator(E_j)) (its conjugate
    transpose for the adjoint)."""
    model, mset, grid, rng = problem
    d, tau = model.dim, 0.5 * grid.dt
    b = _random_blocks(rng, (mset.size, d, d))
    for j in range(mset.m):
        for drive in (apply_Ej, apply_Ej_adjoint):
            acc = b
            for _ in range(mset.n + 1):
                acc = drive(model, mset, j, acc)
            assert not np.any(acc), (j, drive.__name__)
        dense = expm(tau * np.kron(mset.routing_matrix(j), mat_commutator(model.uncertainties[j])))
        for adjoint, s in ((False, dense), (True, dense.conj().T)):
            want = vec_to_state(s @ state_to_vec(b), mset.size, d)
            got = exp_nilpotent(model, mset, j, b, tau, adjoint=adjoint)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), (j, adjoint)


@PROPERTY_SETTINGS
@given(problems())
def test_exact_backends_keep_block_traces(problem):
    """Under expm and the Taylor action the zero-order block keeps trace 1
    and every higher-order block stays traceless."""
    model, mset, grid, rng = problem
    s0 = initial_state(mset, random_density(model.dim, rng))
    for backend in ("expm", "ode"):
        traces = np.trace(propagate_final(backend, model, mset, grid, s0), axis1=-2, axis2=-1)
        assert abs(traces[mset.zero_index] - 1.0) <= 1e-12, backend
        assert np.max(np.abs(np.delete(traces, mset.zero_index)), initial=0.0) <= 1e-12, backend


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from(["normal", "uniform"]))
def test_noise_sweep_matches_per_sample_state_propagation(problem, kind):
    """The batched sweep's fidelities equal those of each sample's channel
    built independently: the d^2 unit states carried through scipy's
    exponential of the np.kron Liouvillian, step by step
    (conftest.scipy_steps), which shares no code with the oracle."""
    model, _mset, grid, rng = problem
    d, m = model.dim, model.n_uncertainties
    u_target = expm(-1j * random_hermitian(d, rng))
    dist = NoiseDistribution(kind, rng.uniform(0.0, 0.3, m), seed=int(rng.integers(2**31)))
    result = noise_sweep(model, grid, u_target, dist, 4)
    assert result.fidelities.shape == (4,)
    for eps, fid in zip(result.eps, result.fidelities):
        chan = np.eye(d * d, dtype=complex)  # column j: the unit state vec(E_j)
        for step in scipy_steps(model, grid, eps):
            chan = step @ chan
        assert abs(fid - avg_gate_fidelity(chan, u_target)) <= 1e-12


@PROPERTY_SETTINGS
@given(problems())
def test_oracle_generator_terms_are_real(problem):
    """Every term of the model's generator_terms, which the oracle's
    generator and the expm step's sum, passes the Hermitian basis's
    realness check, and the generator they sum to is the Lindblad matrix
    in that basis."""
    model, _mset, grid, rng = problem
    d, m = model.dim, model.n_uncertainties
    fixed, controls, uncertainties = model.generator_terms
    for terms, count in ((fixed[None], 1), (controls, len(model.controls)), (uncertainties, m)):
        assert terms.dtype == np.float64
        assert terms.shape == (count, d * d, d * d)
    amps, eps = grid.amplitudes[:, 0], rng.uniform(-0.3, 0.3, m)
    h = model.hamiltonian(amps) + sum(e * op for e, op in zip(eps, model.uncertainties))
    t = hermitian_basis_matrix(d)
    want = t.conj().T @ mat_lindblad(h, model.lindblads) @ t
    assert np.max(np.abs(noisy_liouvillian(model, amps, eps) - want)) <= 1e-13
