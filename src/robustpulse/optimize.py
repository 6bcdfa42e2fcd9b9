"""Gradient-based pulse optimisation.

One gradient sweep with two pairings: GRAPE runs the exact backend,
``expm`` or ``ode`` as :func:`propagate.exact_backend` picks it for a
gradient, and ST-GRAPE the splitting backend; both take a forward sweep
and then :func:`propagate.propagate_backward` on its cache.  The exact
backends pair co-state and state after each step, a gradient first
order in dt; the splitting backend differentiates the Trotter step's
two control factors by the product rule, making the gradient of the
splitting objective exact to machine precision.  Both optimise a gate
objective (a state task is the gate objective with one input state):
its input states, built once per task, are propagated as one batch,
with the weights folded into the terminal co-states so that one
backward sweep gives the weighted gradient.

The splitting route optimises a surrogate objective, so every
``monitor_interval`` iterations the true objective is evaluated with the
exact backend that :func:`propagate.exact_backend` picks for one forward
pass; if it decreased since the previous checkpoint the run
stops and returns the best checkpointed control.

The update rule is a hand-rolled memory-limited quasi-Newton step with
projection onto the amplitude box and Armijo backtracking along the
projected path, falling back to projected steepest descent.  Progress
lines go to this module's logger at INFO level.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .augment import MultiIndexSet, initial_state
from .model import ControlGrid, OpenSystemModel
from .objective import (
    GateObjective,
    RobustStateObjective,
    as_gate_objective,
    costate_J,
    gate_objective,
    robust_J,  # not called here: perfbench/tracer.py wraps it at optimize.robust_J
)
from .propagate import (
    StepCache,
    TrotterPlan,
    apply_supermatrix,  # not called here: perfbench/tracer.py wraps it here
    exact_backend,
    make_trotter_plan,
    propagate_backward,
    propagate_final,
    propagate_forward,
    step_propagator_expm,  # not called here: perfbench/tracer.py wraps it here
    trotter_backward_with_gradient,  # not called here: perfbench/tracer.py wraps it here
)

__all__ = [
    "OptimizerConfig",
    "OptimizationReport",
    "LbfgsHistory",
    "lbfgs_bounded_step",
    "grape_gradient",
    "stgrape_gradient",
    "run_grape",
    "run_stgrape",
    "run_gate_synthesis",
]

_log = logging.getLogger(__name__)

# Armijo line search: sufficient-decrease constant, backtracking factor,
# backtrack budget, and the projected-gradient fallback's first step
# (as a fraction of the largest gradient entry's inverse).
_ARMIJO_C1 = 1e-4
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 25
_FALLBACK_STEP = 0.05

_CEILING_TOL = 1e-9  # converged once the objective is this close to 1


@dataclass
class OptimizerConfig:
    max_iters: int = 500
    grad_tol: float = 1e-8
    lbfgs_memory: int = 10
    monitor_interval: int = 50


@dataclass
class OptimizationReport:
    method: str
    backend: str
    iterations: list
    checkpoints: list  # (iteration, true J)
    best_control: np.ndarray
    best_J: float
    stop_reason: str  # converged | monitor_decrease | max_iters
    grad_norm: float
    wall_time: dict = field(default_factory=dict)
    evaluations: dict = field(default_factory=dict)  # counts, see _GateTask


class LbfgsHistory:
    """Curvature pairs for the two-loop recursion.

    Pairs failing the curvature condition s.y > tol*|s||y| are discarded
    so the implicit Hessian approximation stays positive definite.
    """

    def __init__(self, memory: int = 10):
        self.memory = int(memory)
        self.s: list = []
        self.y: list = []

    def push(self, s: np.ndarray, y: np.ndarray) -> bool:
        sy = float(np.dot(s, y))
        if sy <= 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            return False
        self.s.append(s)
        self.y.append(y)
        if len(self.s) > self.memory:
            self.s.pop(0)
            self.y.pop(0)
        return True

    def direction(self, grad: np.ndarray) -> np.ndarray:
        """Two-loop recursion: approximately -H_inv @ grad (a descent
        direction for the minimised function)."""
        if not self.s:
            return -grad
        q = grad.copy()
        alphas = []
        rhos = [1.0 / np.dot(y, s) for s, y in zip(self.s, self.y)]
        for i in range(len(self.s) - 1, -1, -1):
            a = rhos[i] * np.dot(self.s[i], q)
            alphas.append(a)
            q -= a * self.y[i]
        alphas.reverse()
        gamma = np.dot(self.s[-1], self.y[-1]) / np.dot(self.y[-1], self.y[-1])
        r = gamma * q
        for i in range(len(self.s)):
            beta = rhos[i] * np.dot(self.y[i], r)
            r += self.s[i] * (alphas[i] - beta)
        return -r


def lbfgs_bounded_step(
    history: LbfgsHistory,
    grad: np.ndarray,
    current: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    f,
    f0: float,
):
    """One projected quasi-Newton step for minimising f, with f(current) = f0.

    Backtracks along the projected path x(a) = clip(x + a*d) until the
    Armijo condition f(x(a)) <= f0 + c1 * grad.(x(a) - x) holds, with
    c1 = ``_ARMIJO_C1``: first along the quasi-Newton direction d from
    a = 1, then along d = -grad from a = ``_FALLBACK_STEP`` / max|grad|.
    Returns (new_x, f_new), or (None, None) when both searches fail.
    """
    fallback = _FALLBACK_STEP / max(np.max(np.abs(grad)), 1e-30)
    for d, alpha in ((history.direction(grad), 1.0), (-grad, fallback)):
        for _ in range(_MAX_BACKTRACKS):
            x_new = np.clip(current + alpha * d, lo, hi)
            pred = float(np.dot(grad, x_new - current))
            if pred < 0.0:
                f_new = f(x_new)
                if f_new <= f0 + _ARMIJO_C1 * pred:
                    return x_new, f_new
            alpha *= _BACKTRACK_FACTOR
    return None, None


# ------------------------------------------------------------------ gradient


class _Timers:
    """Exclusive phase clock: every interval is booked to exactly one phase.

    Entering a phase pauses the enclosing one, so an evaluation inside the
    line search counts as ``forward`` and not also as ``linesearch``.
    Time outside every phase (plan building, L-BFGS bookkeeping) is
    ``other``, so the phases sum to the time since the clock started.
    """

    PHASES = ("forward", "backward", "linesearch", "monitor", "other")

    def __init__(self):
        self.data = dict.fromkeys(self.PHASES, 0.0)
        self._stack = ["other"]
        self._mark = perf_counter()

    def _book(self) -> None:
        now = perf_counter()
        self.data[self._stack[-1]] += now - self._mark
        self._mark = now

    @contextmanager
    def phase(self, name: str):
        self._book()
        self._stack.append(name)
        try:
            yield
        finally:
            self._book()
            self._stack.pop()

    def stop(self) -> dict:
        """Book the running interval and return the phase totals."""
        self._book()
        return dict(self.data)


def _terminal_costates(finals: np.ndarray, obj: GateObjective) -> np.ndarray:
    """Terminal co-states of the batch, each scaled by its state's weight,
    so one backward sweep yields the weighted gradient."""
    return np.stack([w * costate_J(f, o) for w, f, o in zip(obj.weights, finals, obj.per_state)])


def _gradient(
    backend: str,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid: ControlGrid,
    obj: GateObjective,
    state0: np.ndarray,
    plan: TrotterPlan | None = None,
    timers: _Timers | None = None,
    fwd: StepCache | None = None,
):
    """(J, gradient) of ``obj`` under ``backend``: ``state0``, the
    augmented batch of ``obj``'s input states, forward, then one adjoint
    sweep from the weighted terminal co-states, whose gradient pairing
    the backend picks (see :func:`propagate.propagate_backward`).
    ``fwd``, the forward sweep of ``state0`` on ``grid`` if one was
    recorded already, replaces the forward sweep.  ``timers`` books the
    forward and backward sweeps."""
    clock = timers or _Timers()
    with clock.phase("forward"):
        if fwd is None:
            fwd = propagate_forward(backend, model, mset, grid, state0, plan=plan)
        j_val = gate_objective(fwd.final, obj)
    with clock.phase("backward"):
        costate_T = _terminal_costates(fwd.final, obj)
        bwd = propagate_backward(model, mset, grid, costate_T, fwd)
    return j_val, bwd.grad


def grape_gradient(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid: ControlGrid,
    obj: RobustStateObjective | GateObjective,
    backend: str | None = None,
):
    """First-order objective gradient under the exact ``backend``, by
    default the one :func:`propagate.exact_backend` picks for a gradient.

    ``obj``'s input states are propagated as one batch; a state objective
    is taken as its one-state gate objective.  Returns (J, gradient) with
    gradient shaped (n_channels, n_steps).  The gradient's error relative
    to finite differences of J shrinks linearly with dt.
    """
    if backend is None:
        backend = exact_backend(model, mset, 2)
    if backend not in ("expm", "ode"):
        raise ValueError("first-order gradient route needs an exact backend (expm|ode)")
    gobj = as_gate_objective(obj)
    state0 = initial_state(mset, np.stack(gobj.state0s))
    return _gradient(backend, model, mset, grid, gobj, state0)


def stgrape_gradient(
    plan: TrotterPlan,
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid: ControlGrid,
    obj: RobustStateObjective | GateObjective,
):
    """Exact gradient of the splitting-propagated objective.

    ``obj``'s input states are propagated as one batch; a state objective
    is taken as its one-state gate objective.  Returns (J_hat, gradient);
    the gradient matches central finite differences of the splitting
    objective to roundoff.
    """
    gobj = as_gate_objective(obj)
    state0 = initial_state(mset, np.stack(gobj.state0s))
    return _gradient("trotter", model, mset, grid, gobj, state0, plan=plan)


# --------------------------------------------------------------- run drivers


class _GateTask:
    """Evaluation plumbing for the optimisation loop.

    Every input state of the gate objective (d+1 or three for a gate, one
    for a state task) is propagated in one batched pass.  ``stgrape`` runs
    the splitting backend under a true-objective monitor; ``grape`` runs
    the exact backend that :func:`exact_backend` picks for a gradient, the
    monitor the one it picks for a forward pass.

    :meth:`evaluate` records its forward sweep, and :meth:`eval_grad` at
    the same point, the one the line search has just accepted, takes that
    record instead of sweeping again, so no forward sweep runs twice.  The
    task holds at most one record: every sweep releases the last one
    first, and :meth:`eval_grad` releases it whether or not it matched.
    ``evaluations`` counts the objective evaluations, the gradient
    evaluations, the reused forward sweeps among those, and the monitor
    evaluations.
    """

    def __init__(self, model, mset, grid0, obj, method):
        self.timers = _Timers()
        self.evaluations = dict.fromkeys(("objective", "gradient", "reused_forward", "monitor"), 0)
        self.model, self.mset, self.grid0 = model, mset, grid0
        self.obj = as_gate_objective(obj)
        self.method = method
        self.use_monitor = method == "stgrape"
        self.backend = "trotter" if self.use_monitor else exact_backend(model, mset, 2)
        self.plan = make_trotter_plan(model, grid0.dt) if self.use_monitor else None
        self.state0 = initial_state(mset, np.stack(self.obj.state0s))
        self._swept = None  # (x, forward cache) of the last evaluate

    def _grid(self, x):
        return self.grid0.with_amplitudes(x.reshape(self.grid0.amplitudes.shape))

    def evaluate(self, x) -> float:
        self.evaluations["objective"] += 1
        with self.timers.phase("forward"):
            self._swept = None
            fwd = propagate_forward(
                self.backend, self.model, self.mset, self._grid(x), self.state0, plan=self.plan
            )
            self._swept = (np.array(x, dtype=float), fwd)
            return gate_objective(fwd.final, self.obj)

    def eval_grad(self, x):
        self.evaluations["gradient"] += 1
        swept, self._swept = self._swept, None
        fwd = swept[1] if swept is not None and np.array_equal(swept[0], x) else None
        del swept  # an unmatched record goes before the new sweep runs
        self.evaluations["reused_forward"] += fwd is not None
        j_val, grad = _gradient(
            self.backend, self.model, self.mset, self._grid(x), self.obj, self.state0,
            self.plan, self.timers, fwd,
        )
        return j_val, grad.ravel()

    def true_objective(self, x) -> float:
        """Exact-backend evaluation (monitor and final reporting)."""
        self.evaluations["monitor"] += 1
        with self.timers.phase("monitor"):
            final = propagate_final(
                exact_backend(self.model, self.mset, 1), self.model, self.mset, self._grid(x),
                self.state0,
            )
            return gate_objective(final, self.obj)


class _StateTask(_GateTask):
    """Not used here: perfbench/tracer.py patches these three methods in
    this class's own namespace, so the class and its bindings stay."""

    evaluate = _GateTask.evaluate
    eval_grad = _GateTask.eval_grad
    true_objective = _GateTask.true_objective


def _optimize_loop(task, cfg: OptimizerConfig) -> OptimizationReport:
    """Maximise the task's objective from ``task.grid0`` inside its box;
    with ``task.use_monitor`` the best true-objective checkpoint is kept."""
    grid0, use_monitor = task.grid0, task.use_monitor
    lo = np.repeat(grid0.lo[:, None], grid0.n_steps, axis=1).ravel()
    hi = np.repeat(grid0.hi[:, None], grid0.n_steps, axis=1).ravel()
    x = np.clip(grid0.amplitudes.ravel().astype(float), lo, hi)

    j_val, grad = task.eval_grad(x)
    if not np.isfinite(j_val) or not np.all(np.isfinite(grad)):
        raise FloatingPointError("objective or gradient is not finite at the start")
    history = LbfgsHistory(cfg.lbfgs_memory)
    iterations = [j_val]
    checkpoints: list = []
    ck_controls: list = []
    stop_reason = "max_iters"

    def checkpoint(it, x_now):
        t_val = task.true_objective(x_now)
        checkpoints.append((it, t_val))
        ck_controls.append(x_now.copy())
        _log.info("  checkpoint iter=%d trueJ=%.10f", it, t_val)
        return t_val

    if use_monitor:
        checkpoint(0, x)

    f = lambda xn: -task.evaluate(xn)
    it = 0
    while it < cfg.max_iters:
        if j_val >= 1.0 - _CEILING_TOL or np.max(np.abs(grad)) <= cfg.grad_tol:
            stop_reason = "converged"
            break
        with task.timers.phase("linesearch"):
            x_new, _ = lbfgs_bounded_step(history, -grad, x, lo, hi, f, -j_val)
        if x_new is None or np.allclose(x_new, x):
            stop_reason = "converged"
            break
        j_new, grad_new = task.eval_grad(x_new)
        if not np.isfinite(j_new) or not np.all(np.isfinite(grad_new)):
            raise FloatingPointError("objective or gradient became non-finite")
        history.push(x_new - x, -(grad_new - grad))
        x, j_val, grad = x_new, j_new, grad_new
        it += 1  # counts accepted steps only: iterations[it] is this J
        iterations.append(j_val)
        _log.info("iter %d: J=%.10f", it, j_val)
        if use_monitor and it % cfg.monitor_interval == 0 and it < cfg.max_iters:
            t_val = checkpoint(it, x)
            if len(checkpoints) >= 2 and t_val < checkpoints[-2][1]:
                stop_reason = "monitor_decrease"
                break

    grad_norm = float(np.max(np.abs(grad)))
    if use_monitor:
        if not checkpoints or checkpoints[-1][0] != it:
            checkpoint(it, x)
        best = int(np.argmax([c[1] for c in checkpoints]))
        best_x = ck_controls[best]
        best_j = checkpoints[best][1]
    else:
        best_x, best_j = x, j_val
    return OptimizationReport(
        method=task.method,
        backend=task.backend,
        iterations=iterations,
        checkpoints=checkpoints,
        best_control=best_x.reshape(grid0.amplitudes.shape),
        best_J=float(best_j),
        stop_reason=stop_reason,
        grad_norm=grad_norm,
        wall_time=task.timers.stop(),
        evaluations=dict(task.evaluations),
    )


def run_grape(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid0: ControlGrid,
    obj: RobustStateObjective,
    cfg: OptimizerConfig | None = None,
) -> OptimizationReport:
    """First-order-gradient optimisation under an exact backend."""
    return run_gate_synthesis(model, mset, grid0, obj, cfg, method="grape")


def run_stgrape(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid0: ControlGrid,
    obj: RobustStateObjective,
    cfg: OptimizerConfig | None = None,
) -> OptimizationReport:
    """Exact-gradient optimisation of the splitting objective with a
    true-objective monitor every ``monitor_interval`` iterations."""
    return run_gate_synthesis(model, mset, grid0, obj, cfg, method="stgrape")


def run_gate_synthesis(
    model: OpenSystemModel,
    mset: MultiIndexSet,
    grid0: ControlGrid,
    gobj: RobustStateObjective | GateObjective,
    cfg: OptimizerConfig | None = None,
    method: str = "stgrape",
) -> OptimizationReport:
    """Optimise a gate objective, or a state objective as its one-state one."""
    if method not in ("grape", "stgrape"):
        raise ValueError("method must be grape|stgrape")
    task = _GateTask(model, mset, grid0, gobj, method)
    return _optimize_loop(task, cfg or OptimizerConfig())
