import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_hermitian, small_grid
from robustpulse import kernels, optimize, propagate
from robustpulse.augment import MultiIndexSet, initial_state
from robustpulse.gates import preset_unitary
from robustpulse.model import (
    ControlGrid, OpenSystemModel, attach_uncertainties, build_spin_chain, random_grid,
)
from robustpulse.objective import (
    RobustStateObjective,
    as_gate_objective,
    ground_state,
    make_gate_objective,
    robust_J,
    uniform_state,
)
from robustpulse.optimize import (
    LbfgsHistory,
    OptimizerConfig,
    _GateTask,
    _optimize_loop,
    _Timers,
    grape_gradient,
    lbfgs_bounded_step,
    run_gate_synthesis,
    run_grape,
    run_stgrape,
    stgrape_gradient,
)
from robustpulse.propagate import exact_backend, make_trotter_plan, propagate_final


class TestLbfgsHistory:
    def test_empty_history_gives_steepest_descent(self):
        h = LbfgsHistory()
        g = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(h.direction(g), -g)

    def test_curvature_filter_rejects_nonpositive_pairs(self):
        h = LbfgsHistory()
        s = np.array([1.0, 0.0])
        assert not h.push(s, -s)
        assert not h.push(s, np.zeros(2))
        assert len(h.s) == 0
        assert h.push(s, s)
        assert len(h.s) == 1

    def test_memory_evicts_oldest(self):
        h = LbfgsHistory(memory=3)
        rng = np.random.default_rng(5)
        kept = []
        for _ in range(6):
            s = rng.standard_normal(4)
            h.push(s, s)  # s.s > 0 always passes the filter
            kept.append(s)
        assert len(h.s) == 3
        assert np.array_equal(h.s[0], kept[3])

    def test_two_loop_secant_property_and_descent(self):
        # The implicit inverse Hessian maps the newest y exactly onto the
        # newest s (secant equation); on a quadratic with pairs y = A s
        # the produced direction is also a descent direction close in
        # angle to the Newton step.
        rng = np.random.default_rng(8)
        m = rng.standard_normal((5, 5))
        a = m @ m.T + 5.0 * np.eye(5)
        h = LbfgsHistory(memory=10)
        for _ in range(12):
            s = rng.standard_normal(5)
            h.push(s, a @ s)
        assert np.allclose(h.direction(h.y[-1]), -h.s[-1], atol=1e-12)
        g = rng.standard_normal(5)
        d = h.direction(g)
        newton = -np.linalg.solve(a, g)
        assert np.dot(g, d) < 0
        cos = np.dot(d, newton) / (np.linalg.norm(d) * np.linalg.norm(newton))
        assert cos > 0.9


class TestBoundedStep:
    @staticmethod
    def _minimize(x0, lo, hi, f, df, iters=30):
        h = LbfgsHistory()
        x, fx = x0.copy(), f(x0)
        for _ in range(iters):
            g = df(x)
            x_new, f_new = lbfgs_bounded_step(h, g, x, lo, hi, f, fx)
            if x_new is None:
                break
            h.push(x_new - x, df(x_new) - g)
            x, fx = x_new, f_new
        return x

    def test_quadratic_bowl_converges_inside_box(self):
        a = np.array([3.0, 1.0, 0.5])
        target = np.array([0.4, -0.2, 0.1])
        f = lambda x: float(np.sum(a * (x - target) ** 2))
        df = lambda x: 2.0 * a * (x - target)
        lo, hi = -np.ones(3), np.ones(3)
        x = self._minimize(np.zeros(3), lo, hi, f, df)
        assert np.allclose(x, target, atol=1e-6)

    def test_optimum_outside_box_lands_on_boundary(self):
        target = np.array([2.5, -3.0])
        f = lambda x: float(np.sum((x - target) ** 2))
        df = lambda x: 2.0 * (x - target)
        lo, hi = -np.ones(2), np.ones(2)
        x = self._minimize(np.zeros(2), lo, hi, f, df)
        assert np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12)
        assert np.allclose(x, [1.0, -1.0], atol=1e-8)

    def test_uphill_direction_falls_back_to_steepest_descent(self, monkeypatch):
        # A quasi-Newton direction along +grad never passes the Armijo test,
        # so the step comes from the projected steepest-descent search,
        # whose first trial step is _FALLBACK_STEP / max|grad|.
        h = LbfgsHistory()
        monkeypatch.setattr(h, "direction", lambda g: g.copy())
        target = np.array([0.5, -0.25])
        f = lambda z: float(np.sum((z - target) ** 2))
        x = np.zeros(2)
        g = 2.0 * (x - target)
        x_new, f_new = lbfgs_bounded_step(h, g, x, -np.ones(2), np.ones(2), f, f(x))
        alpha = optimize._FALLBACK_STEP / np.max(np.abs(g))
        assert np.array_equal(x_new, x - alpha * g)
        assert f_new == f(x_new) < f(x)

    def test_projection_pinned_at_corner_reports_failure(self):
        # Gradient pushes out of the box at an already-active corner, so
        # every projected trial collapses back onto x and is rejected.
        h = LbfgsHistory()
        x = np.ones(2)
        g = np.array([-1.0, -1.0])
        f = lambda z: float(np.sum(z))
        x_new, f_new = lbfgs_bounded_step(h, g, x, -np.ones(2), np.ones(2), f, f(x))
        assert x_new is None and f_new is None


def _state_problem(n_steps=8, dt=0.5, seed=3):
    model = build_spin_chain(1)
    from robustpulse.model import attach_uncertainties

    model = attach_uncertainties(model, "edges")
    mset = MultiIndexSet(len(model.uncertainties), 1)
    grid = small_grid(model, n_steps=n_steps, dt=dt, seed=seed)
    obj = RobustStateObjective.make(
        mset, uniform_state(2), rho0=ground_state(2), lam=0.05
    )
    return model, mset, grid, obj


class TestGradients:
    def test_stgrape_gradient_matches_fd_of_splitting_objective(self):
        model, mset, grid, obj = _state_problem()
        plan = make_trotter_plan(model, grid.dt)
        j0, grad = stgrape_gradient(plan, model, mset, grid, obj)

        def j_hat(amps):
            g = grid.with_amplitudes(amps)
            final = propagate_final(
                "trotter", model, mset, g, initial_state(mset, obj.rho0), plan=plan
            )
            return robust_J(final, obj)

        assert j0 == pytest.approx(j_hat(grid.amplitudes), abs=1e-13)
        rng = np.random.default_rng(11)
        v = rng.standard_normal(grid.amplitudes.shape)
        v /= np.linalg.norm(v)
        h = 1e-6
        fd = (j_hat(grid.amplitudes + h * v) - j_hat(grid.amplitudes - h * v)) / (2 * h)
        dd = float(np.sum(grad * v))
        assert abs(dd - fd) <= 5e-6 * max(abs(fd), 1e-3)

    def test_grape_gradient_error_shrinks_linearly_with_dt(self):
        # The first-order pairing gradient misses O(dt) terms; halving dt
        # on the same smooth control halves its relative error vs FD.
        model, mset, _, obj = _state_problem()

        def rel_err(n_steps, dt):
            t = (np.arange(n_steps) + 0.5) * dt
            amps = np.vstack(
                [0.15 * np.sin(2 * np.pi * t / (n_steps * dt)),
                 0.12 * np.cos(2 * np.pi * t / (n_steps * dt))]
            )
            grid = ControlGrid(dt, amps, -0.3, 0.3)
            _, grad = grape_gradient(model, mset, grid, obj)

            def j(amps2):
                final = propagate_final(
                    "expm", model, mset, grid.with_amplitudes(amps2),
                    initial_state(mset, obj.rho0),
                )
                return robust_J(final, obj)

            h = 1e-6
            fd = np.zeros_like(grad)
            for c in range(grad.shape[0]):
                for k in range(grad.shape[1]):
                    e = np.zeros_like(amps)
                    e[c, k] = h
                    fd[c, k] = (j(amps + e) - j(amps - e)) / (2 * h)
            return np.max(np.abs(grad - fd)) / np.max(np.abs(fd))

        ratio = rel_err(6, 0.5) / rel_err(12, 0.25)
        assert 1.6 < ratio < 2.4, ratio

    def test_grape_gradient_takes_one_pairing_matrix_per_step(self, monkeypatch):
        """Every channel reads its first-order gradient from the step's one
        d x d pairing matrix: one pairing per step, not per channel."""
        model, mset, grid, obj = _state_problem()
        calls = []
        real = kernels.control_pairing

        def spy(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(kernels, "control_pairing", spy)
        grape_gradient(model, mset, grid, obj)
        assert len(calls) == grid.n_steps

    def test_expm_gradient_exponentiates_each_step_once(self, monkeypatch):
        """The adjoint sweep reuses the forward sweep's step propagators:
        an n-step expm gradient makes n exponentials, not 2n.  A call may
        exponentiate a stack of steps, so the members count."""
        model, mset, grid, obj = _state_problem()
        members = []
        real = propagate.step_propagator_expm

        def spy(model, mset, amplitudes, dt):
            members.append(1 if np.ndim(amplitudes) == 1 else np.shape(amplitudes)[1])
            return real(model, mset, amplitudes, dt)
        monkeypatch.setattr(propagate, "step_propagator_expm", spy)
        grape_gradient(model, mset, grid, obj, backend="expm")
        assert sum(members) == grid.n_steps

    def test_grape_gradient_defaults_to_the_rules_pick(self, monkeypatch):
        """Without ``backend=`` the gradient runs the backend that
        exact_backend picks for a gradient: expm with the rule's gradient
        limit at this N d^2 = 8, ode with it one below; an explicit
        ``backend=`` wins over the rule."""
        model, mset, grid, obj = _state_problem(n_steps=3)
        assert mset.size * model.dim**2 == 8
        real = optimize.propagate_forward
        used = []

        def spy(backend, *args, **kwargs):
            used.append(backend)
            return real(backend, *args, **kwargs)

        monkeypatch.setattr(optimize, "propagate_forward", spy)
        for limit, pick in ((8, "expm"), (7, "ode")):
            monkeypatch.setitem(propagate._EXPM_UP_TO, 2, limit)
            used.clear()
            _, grad = grape_gradient(model, mset, grid, obj)
            assert used == [pick], limit
            _, want = grape_gradient(model, mset, grid, obj, backend=pick)
            assert np.array_equal(grad, want), limit
        used.clear()
        grape_gradient(model, mset, grid, obj, backend="expm")
        assert used == ["expm"]

    def test_grape_gradient_rejects_splitting_backend(self):
        model, mset, grid, obj = _state_problem()
        with pytest.raises(ValueError):
            grape_gradient(model, mset, grid, obj, backend="trotter")


def _random_gate_problem(seed=41):
    """Random 3-level model with m = 2 uncertainties at order n = 2: of its
    three controls only the first two commute, so the splitting plan
    groups them greedily into a pair and a single.  The target is a random
    unitary."""
    rng = np.random.default_rng(seed)
    d = 3
    h = random_hermitian(d, rng)
    controls = [h, 0.3 * h @ h, random_hermitian(d, rng)]
    model = OpenSystemModel(
        dim=d,
        drift=0.2 * random_hermitian(d, rng),
        controls=controls,
        lindblads=[(rng.standard_normal((d, d)) * 0.3, 0.02), (np.diag([0.0, 1.0, 0.5]), 0.01)],
        uncertainties=[0.1 * random_hermitian(d, rng) for _ in range(2)],
    )
    mset = MultiIndexSet(2, 2)
    grid = random_grid(3, 6, 0.3, -0.4, 0.4, seed=seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    gobj = replace(make_gate_objective(mset, u, lam=0.3), weights=rng.uniform(0.5, 1.5, d + 1))
    return model, mset, grid, gobj


def _single_state_objectives(gobj):
    """One state objective per input state of the gate objective."""
    return [
        RobustStateObjective(target=o.target, lam=o.lam, rho0=rho)
        for rho, o in zip(gobj.state0s, gobj.per_state)
    ]


class TestBatchedGate:
    @pytest.mark.parametrize("method,backend", [
        ("stgrape", "trotter"), ("grape", "expm"), ("grape", "ode"),
    ])
    def test_batch_equals_weighted_sum_of_single_states(self, method, backend, monkeypatch):
        if backend == "ode":  # the rule picks expm at this size; make the task run ode
            monkeypatch.setitem(propagate._EXPM_UP_TO, 2, 0)
        model, mset, grid, gobj = _random_gate_problem()
        plan = make_trotter_plan(model, grid.dt)
        assert sorted(len(g.channels) for g in plan.groups) == [1, 2]

        def run(obj):
            if method == "stgrape":
                return stgrape_gradient(plan, model, mset, grid, obj)
            return grape_gradient(model, mset, grid, obj, backend=backend)

        j_batch, g_batch = run(gobj)
        j_sum, g_sum = 0.0, np.zeros_like(g_batch)
        for w, obj in zip(gobj.weights, _single_state_objectives(gobj)):
            j, g = run(obj)
            j_sum += w * j
            g_sum += w * g
        assert abs(j_batch - j_sum) < 1e-12
        assert np.max(np.abs(g_batch - g_sum)) < 1e-12 * max(1.0, np.max(np.abs(g_sum)))

        # the task's evaluations agree with the one-state tasks too
        x = grid.amplitudes.ravel()
        gate = _GateTask(model, mset, grid, gobj, method)
        assert gate.backend == backend
        singles = [
            _GateTask(model, mset, grid, as_gate_objective(obj), method)
            for obj in _single_state_objectives(gobj)
        ]
        for name in ("evaluate", "true_objective"):
            want = sum(w * getattr(t, name)(x) for w, t in zip(gobj.weights, singles))
            assert abs(getattr(gate, name)(x) - want) < 1e-12, name
        j_task, g_task = gate.eval_grad(x)
        assert abs(j_task - j_batch) < 1e-12
        assert np.max(np.abs(g_task - g_batch.ravel())) < 1e-12 * max(1.0, np.max(np.abs(g_sum)))


def test_expm_gradient_keeps_its_step_propagators_as_blocks():
    """The expm gradient holds each step's propagator as its block-algebra
    element and applies it pair by pair: a 4-step, 3-qubit, order-2
    Toffoli gradient (9 input states) peaks under 8 MiB of traced
    allocations, where one dense 384 x 384 step propagator alone takes
    2.25 MiB."""
    model = attach_uncertainties(build_spin_chain(3), "edges")
    mset = MultiIndexSet(2, 2)
    gobj = make_gate_objective(mset, preset_unitary("toffoli", model.dim))
    grid = small_grid(model, n_steps=4)
    assert len(gobj.state0s) == 9
    tracemalloc.start()
    try:
        grape_gradient(model, mset, grid, gobj, backend="expm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak / 2**20


@pytest.mark.parametrize("method", ["grape", "stgrape"])
def test_eval_grad_runs_one_forward_and_one_backward_sweep(method, monkeypatch):
    """Both methods take the gradient the same way: one forward sweep and
    one adjoint sweep that reuses it, whatever the backend."""
    model, mset, grid, obj = _state_problem()
    task = _GateTask(model, mset, grid, as_gate_objective(obj), method)
    calls = []

    def spy(name):
        real = getattr(optimize, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    for name in ("propagate_forward", "propagate_backward", "trotter_backward_with_gradient"):
        monkeypatch.setattr(optimize, name, spy(name))
    _, grad = task.eval_grad(grid.amplitudes.ravel())
    assert calls == ["propagate_forward", "propagate_backward"]
    assert grad.shape == (grid.amplitudes.size,)


@pytest.mark.parametrize("method", ["grape", "stgrape"])
def test_eval_grad_reuses_the_forward_sweep_just_evaluated(method, monkeypatch):
    """At the point that evaluate has just swept, the one the line search
    accepts, eval_grad makes no forward sweep, and its J and gradient
    equal a fresh task's bit for bit; at any other point it sweeps once.
    The task holds at most one forward sweep: every sweep starts after
    the last one is released, and eval_grad releases it, matched or not,
    so a rejected line-search point leaves none behind."""
    model, mset, grid, obj = _state_problem()
    gobj = as_gate_objective(obj)
    x = grid.amplitudes.ravel().copy()
    y = 0.5 * x
    fresh = _GateTask(model, mset, grid, gobj, method).eval_grad(x)
    task = _GateTask(model, mset, grid, gobj, method)
    sweeps = []
    real = optimize.propagate_forward

    def spy(*args, **kwargs):
        assert all(ref() is None for ref in sweeps), "a forward sweep is still held"
        out = real(*args, **kwargs)
        sweeps.append(weakref.ref(out))
        return out
    monkeypatch.setattr(optimize, "propagate_forward", spy)

    def grad_at_x(n_sweeps):
        j_val, grad = task.eval_grad(x)
        assert len(sweeps) == n_sweeps
        assert j_val == fresh[0] and np.array_equal(grad, fresh[1])
        assert all(ref() is None for ref in sweeps)

    assert task.evaluate(x) == fresh[0]
    grad_at_x(1)
    task.evaluate(y)  # rejected
    task.evaluate(x)  # accepted
    grad_at_x(3)
    task.evaluate(y)  # rejected, and the search gives up
    grad_at_x(5)
    assert task.evaluations == {"objective": 4, "gradient": 3, "reused_forward": 2, "monitor": 0}


def test_monitor_runs_the_rule_backend(monkeypatch):
    """At 4 qubits, order 1 (N d^2 = 768) the monitor's forward pass runs
    ``ode``, and its true J agrees with the ``expm`` propagation's."""
    model = attach_uncertainties(build_spin_chain(4), "edges")
    mset = MultiIndexSet(len(model.uncertainties), 1)
    grid = small_grid(model, n_steps=4)
    obj = as_gate_objective(RobustStateObjective.make(
        mset, uniform_state(model.dim), rho0=ground_state(model.dim), lam=0.05
    ))
    task = _GateTask(model, mset, grid, obj, "stgrape")
    backends = []
    real = optimize.propagate_final

    def spy(backend, *args, **kwargs):
        backends.append(backend)
        return real(backend, *args, **kwargs)

    monkeypatch.setattr(optimize, "propagate_final", spy)
    got = task.true_objective(grid.amplitudes.ravel())
    assert backends == ["ode"]
    want = optimize.gate_objective(real("expm", model, mset, grid, task.state0), obj)
    assert abs(got - want) <= 1e-12 * abs(want)


class TestRunDrivers:
    def test_run_grape_improves_monotonically(self):
        model, mset, grid, obj = _state_problem()
        cfg = OptimizerConfig(max_iters=25)
        report = run_grape(model, mset, grid, obj, cfg)
        assert report.method == "grape" and report.backend == "expm"
        assert np.all(np.diff(report.iterations) > 0)
        assert report.best_J > report.iterations[0] + 0.05
        assert report.stop_reason in ("converged", "max_iters")
        assert np.isfinite(report.grad_norm)
        assert set(report.wall_time) >= {"forward", "backward", "linesearch"}
        assert report.checkpoints == []

    def test_run_stgrape_monitor_and_best(self):
        model, mset, grid, obj = _state_problem()
        cfg = OptimizerConfig(max_iters=30, monitor_interval=10)
        report = run_stgrape(model, mset, grid, obj, cfg)
        assert report.method == "stgrape" and report.backend == "trotter"
        iters = [c[0] for c in report.checkpoints]
        assert iters[0] == 0
        assert iters[-1] == len(report.iterations) - 1
        assert report.best_J == pytest.approx(max(c[1] for c in report.checkpoints))
        assert report.best_control.shape == grid.amplitudes.shape
        assert np.all(report.best_control >= grid.lo[:, None] - 1e-12)
        assert np.all(report.best_control <= grid.hi[:, None] + 1e-12)

    def test_run_grape_is_deterministic(self):
        model, mset, grid, obj = _state_problem()
        cfg = OptimizerConfig(max_iters=12)
        r1 = run_grape(model, mset, grid, obj, cfg)
        r2 = run_grape(model, mset, grid, obj, cfg)
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.best_control, r2.best_control)

    def test_ceiling_exit_on_already_perfect_control(self):
        # No decay, no drift, zero control: the state never moves, so a
        # stay-put objective starts at J = 1 and exits immediately.
        model = build_spin_chain(1, t1_us=0.0, t2_us=0.0)
        mset = MultiIndexSet(0, 0)
        grid = ControlGrid(0.5, np.zeros((2, 6)), -0.3, 0.3)
        obj = RobustStateObjective.make(mset, ground_state(2), rho0=ground_state(2))
        report = run_stgrape(model, mset, grid, obj, OptimizerConfig(max_iters=50))
        assert report.stop_reason == "converged"
        assert len(report.iterations) == 1
        assert report.checkpoints == [(0, pytest.approx(1.0))]
        assert report.best_J == pytest.approx(1.0, abs=1e-12)

    def test_max_iters_zero_reports_initial_point(self):
        model, mset, grid, obj = _state_problem()
        report = run_stgrape(model, mset, grid, obj, OptimizerConfig(max_iters=0))
        assert report.stop_reason == "max_iters"
        assert len(report.iterations) == 1
        assert [c[0] for c in report.checkpoints] == [0]
        assert np.array_equal(report.best_control, grid.amplitudes)

    def test_gate_synthesis_smoke_and_method_check(self):
        model = build_spin_chain(1, t1_us=0.0, t2_us=0.0)
        mset = MultiIndexSet(0, 0)
        grid = small_grid(model, n_steps=10, dt=0.5, seed=9)
        u = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        gobj = make_gate_objective(mset, u)
        cfg = OptimizerConfig(max_iters=40, monitor_interval=20)
        report = run_gate_synthesis(model, mset, grid, gobj, cfg, method="stgrape")
        assert report.best_J > report.iterations[0]
        assert report.backend == "trotter"
        with pytest.raises(ValueError):
            run_gate_synthesis(model, mset, grid, gobj, cfg, method="bfgs")

    @pytest.mark.parametrize("backend", ["expm", "ode"])
    def test_gate_synthesis_grape_smoke(self, backend, monkeypatch):
        """The grape route runs the backend the rule picks: ``expm`` at this
        size, ``ode`` once the rule's gradient threshold sits below it."""
        if backend == "ode":
            monkeypatch.setitem(propagate._EXPM_UP_TO, 2, 0)
        model = build_spin_chain(1)
        mset = MultiIndexSet(0, 0)
        grid = small_grid(model, n_steps=6, dt=0.5, seed=9)
        u = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        gobj = make_gate_objective(mset, u)
        cfg = OptimizerConfig(max_iters=8)
        report = run_gate_synthesis(model, mset, grid, gobj, cfg, method="grape")
        assert report.method == "grape"
        assert report.backend == exact_backend(model, mset, 2) == backend
        assert report.checkpoints == []
        assert np.all(np.diff(report.iterations) > 0)
        assert report.best_J == report.iterations[-1] > report.iterations[0]
        assert report.stop_reason in ("converged", "max_iters")
        assert report.best_control.shape == grid.amplitudes.shape


class TestPhaseTimers:
    def test_nested_phase_is_booked_once(self, monkeypatch):
        ticks = iter([0.0, 1.0, 3.0, 6.0, 10.0, 15.0])
        monkeypatch.setattr(optimize, "perf_counter", lambda: next(ticks))
        timers = _Timers()  # t = 0
        with timers.phase("linesearch"):  # 0-1 other
            with timers.phase("forward"):  # 1-3 linesearch
                pass  # 3-6 forward
        # 6-10 linesearch, 10-15 other
        phases = timers.stop()
        assert phases == {
            "forward": 3.0, "backward": 0.0, "linesearch": 6.0, "monitor": 0.0, "other": 6.0,
        }


class _ScriptedTask:
    """Quadratic surrogate on a flat one-channel grid with a scripted
    true-objective sequence."""

    method, backend = "scripted", "none"

    def __init__(self, anchor, true_values, use_monitor=False):
        self.anchor = np.asarray(anchor, dtype=float)
        self.true_values = list(true_values)
        self.use_monitor = use_monitor
        self.grid0 = ControlGrid(0.5, np.zeros((1, self.anchor.size)), -2.0, 2.0)
        self.timers = _Timers()
        self.evaluations = {}

    def _j(self, x):
        return -float(np.sum((x - self.anchor) ** 2))

    def evaluate(self, x):
        return self._j(x)

    def eval_grad(self, x):
        return self._j(x), -2.0 * (x - self.anchor)

    def true_objective(self, x):
        return self.true_values.pop(0)


class TestLoopGuards:
    def test_monitor_decrease_stops_and_returns_argmax_checkpoint(self):
        task = _ScriptedTask(1.5 * np.ones(4), [0.9, 0.5], use_monitor=True)
        cfg = OptimizerConfig(max_iters=10, monitor_interval=1)
        report = _optimize_loop(task, cfg)
        assert report.stop_reason == "monitor_decrease"
        assert report.checkpoints == [(0, 0.9), (1, 0.5)]
        assert report.best_J == 0.9
        assert np.array_equal(report.best_control, task.grid0.amplitudes)
        assert (report.method, report.backend) == ("scripted", "none")

    def test_monitor_stops_only_on_a_fall_above_roundoff(self):
        """A checkpoint below the one before it by roundoff (1e-15) does
        not stop the run; a fall of 1e-6 does."""
        for fall, stops in ((1e-15, False), (1e-6, True)):
            true_values = [0.9, 0.95, 0.95 - fall, 0.95]
            task = _ScriptedTask(1.5 * np.ones(4), true_values, use_monitor=True)
            report = _optimize_loop(task, OptimizerConfig(max_iters=3, monitor_interval=1))
            assert (report.stop_reason == "monitor_decrease") == stops, fall
            assert report.checkpoints[:3] == [(0, 0.9), (1, 0.95), (2, 0.95 - fall)]

    def test_failed_line_search_keeps_the_last_checkpoint_label(self):
        """A run whose first line search finds no step stops after zero
        iterations: its one checkpoint is labelled 0, and the true
        objective is not evaluated again on the same control."""
        class _Flat(_ScriptedTask):
            def evaluate(self, x):
                return -1e9

        task = _Flat(1.5 * np.ones(4), [0.9, 0.8], use_monitor=True)
        report = _optimize_loop(task, OptimizerConfig(max_iters=10, monitor_interval=5))
        assert report.stop_reason == "converged"
        assert len(report.iterations) == 1
        assert report.checkpoints == [(0, 0.9)]
        assert task.true_values == [0.8]  # one monitor call

    def test_nonfinite_start_raises(self):
        class _Bad(_ScriptedTask):
            def eval_grad(self, x):
                return np.nan, np.zeros_like(x)

        with pytest.raises(FloatingPointError):
            _optimize_loop(_Bad(np.zeros(4), []), OptimizerConfig(max_iters=5))

    def test_nonfinite_after_step_raises(self):
        class _Bad(_ScriptedTask):
            def __init__(self, *a):
                super().__init__(*a)
                self.calls = 0

            def eval_grad(self, x):
                self.calls += 1
                if self.calls > 1:
                    return np.inf, np.zeros_like(x)
                return super().eval_grad(x)

        with pytest.raises(FloatingPointError):
            _optimize_loop(_Bad(1.5 * np.ones(4), []), OptimizerConfig(max_iters=5))

    def test_grad_tol_convergence(self):
        task = _ScriptedTask(np.zeros(4), [])  # already at the optimum
        cfg = OptimizerConfig(max_iters=10, grad_tol=1e-8)
        report = _optimize_loop(task, cfg)
        assert report.stop_reason == "converged"
        assert len(report.iterations) == 1
