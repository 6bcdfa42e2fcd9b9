"""Span tracer for the traced benchmark run.

The tracer wraps robustpulse's functions at the names their callers look
up (``robustpulse.optimize.propagate_final``, ``robustpulse.kernels.
collapse_blocks``, ...), so nothing in ``src/`` changes.  Every wrapped
call is a span named ``<layer>.<function>``; a span's self time is its
duration minus the time its child spans cover.  Spans are aggregated in
memory while the command runs and turned into per-layer metrics after it
returns.

Because every span nests inside the ``cli.<command>`` span, the layers'
self times add up to that span's duration, and the traced wall time is
that duration plus the unattributed time outside it (click's dispatch).
"""

from __future__ import annotations

import contextlib
import importlib
import math
import statistics
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "config", "model", "augment", "kernels", "linalg",
    "propagate", "objective", "optimize", "oracle", "cli",
)

# Matrix sizes the four workloads exponentiate: plan factors (2, 4, 8),
# AGF channels (16), monitor and simulate supermatrices (8, 48, 384).
EXPM_DIMS = (2, 4, 8, 16, 48, 384)

KERNELS = {
    "collapse": "collapse_blocks",
    "conjugate": "conjugate_blocks",
    "routed_commutator": "routed_commutator",
    "control_pairing": "control_pairing",
    "lindblad_rhs": "lindblad_rhs_blocks",
}

_THETA13 = 5.371920351148152  # linalg.expm's Pade(13) 1-norm threshold


class Tracer:
    """Nested span timing plus counters for one traced command call."""

    def __init__(self):
        self.stack: list = []  # open spans as [name, seconds covered by children]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(lambda: array("d"))
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, hook=None):
        """``fn`` timed as span ``name``; ``hook(tracer, seconds, args, out)``
        runs after the span closes and may add counts or keyed samples."""
        stack = self.stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                self.durations[name].append(dur)
            if hook is not None:
                hook(self, dur, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def layer_self_seconds(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return out


# ------------------------------------------------------------------- hooks


def _nbytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _kernel_hook(key):
    def hook(tr, dur, args, out):
        # bytes computed from array sizes: operands read plus result written
        tr.counts["kernels.bytes"] += _nbytes(args) + _nbytes([out])
        if key == "conjugate":
            tr.counts["kernels.conjugate.blocks"] += args[2].shape[0]
    return hook


def _expm_hook(tr, dur, args, out):
    a = np.asarray(args[0])
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 1))
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    tr.counts[f"linalg.expm.d{n}.calls"] += 1
    tr.durations[f"linalg.expm.d{n}"].append(dur)
    tr.counts["linalg.expm.squarings"] += squarings
    # flops computed: 6 Pade products, the LU solve with n right-hand sides
    # (4/3 n^3 complex multiply-adds) and the squarings; 8 real flops per
    # complex multiply-add
    tr.counts["linalg.expm.flop"] += 8 * n**3 * (6 + squarings + 4 / 3)
    if tr.parent() == "propagate.step_propagator_expm":
        tr.durations["propagate.expm_exp"].append(dur)


def _final_hook(tr, dur, args, out):
    if args[0] == "trotter":
        tr.durations["propagate.final_trotter"].append(dur)


def _substeps_hook(tr, dur, args, out):
    tr.counts["propagate.ode_substeps"] += int(out)


def _push_hook(tr, dur, args, out):
    if out is False:
        tr.counts["optimize.curvature_rejects"] += 1


# Wrapped call sites: (module, attribute at the name callers look up, span, hook)
SITES = [
    # config builders, looked up by the CLI
    *[("robustpulse.cli", f, f"config.{f}", None) for f in (
        "load_config", "build_model", "build_mset", "build_grid",
        "build_gate_objective", "build_state_objective",
        "build_noise_distribution", "optimizer_config", "resolved_dict",
    )],
    # model
    *[("robustpulse.config", f, f"model.{f}", None)
      for f in ("build_spin_chain", "attach_uncertainties", "random_grid")],
    ("robustpulse.model", "OpenSystemModel.hamiltonian", "model.hamiltonian", None),
    ("robustpulse.model", "NoiseDistribution.sample", "model.noise_sample", None),
    # augment
    *[("robustpulse.propagate", f, f"augment.{f}", None)
      for f in ("assemble_supermatrix", "apply_Ej", "apply_Ej_adjoint",
                "apply_L", "apply_L_adjoint")],
    ("robustpulse.cli", "initial_state", "augment.initial_state", None),
    ("robustpulse.optimize", "initial_state", "augment.initial_state", None),
    # kernels, looked up as attributes of the kernels module
    *[("robustpulse.kernels", fn, f"kernels.{key}", _kernel_hook(key))
      for key, fn in KERNELS.items()],
    # linalg
    ("robustpulse.propagate", "expm", "linalg.expm", _expm_hook),
    ("robustpulse.oracle", "expm", "linalg.expm", _expm_hook),
    ("robustpulse.augment", "kron", "linalg.kron", None),
    # propagate
    ("robustpulse.cli", "make_trotter_plan", "propagate.make_trotter_plan", None),
    ("robustpulse.optimize", "make_trotter_plan", "propagate.make_trotter_plan", None),
    ("robustpulse.propagate", "make_trotter_plan", "propagate.make_trotter_plan", None),
    ("robustpulse.optimize", "propagate_forward", "propagate.propagate_forward", None),
    ("robustpulse.optimize", "propagate_backward", "propagate.propagate_backward", None),
    ("robustpulse.optimize", "propagate_final", "propagate.propagate_final", _final_hook),
    ("robustpulse.cli", "propagate_final", "propagate.propagate_final", _final_hook),
    ("robustpulse.propagate", "propagate_final", "propagate.propagate_final", _final_hook),
    ("robustpulse.optimize", "trotter_backward_with_gradient",
     "propagate.trotter_backward_with_gradient", None),
    ("robustpulse.cli", "delta_st", "propagate.delta_st", None),
    ("robustpulse.propagate", "step_trotter", "propagate.step_trotter", None),
    ("robustpulse.propagate", "step_trotter_adjoint", "propagate.step_trotter_adjoint", None),
    ("robustpulse.propagate", "exp_nilpotent", "propagate.exp_nilpotent", None),
    ("robustpulse.propagate", "step_ode", "propagate.step_ode", None),
    ("robustpulse.propagate", "default_substeps", "propagate.default_substeps", _substeps_hook),
    ("robustpulse.propagate", "step_propagator_expm", "propagate.step_propagator_expm", None),
    ("robustpulse.optimize", "step_propagator_expm", "propagate.step_propagator_expm", None),
    ("robustpulse.propagate", "apply_supermatrix", "propagate.apply_supermatrix", None),
    ("robustpulse.optimize", "apply_supermatrix", "propagate.apply_supermatrix", None),
    # objective
    *[("robustpulse.optimize", f, f"objective.{f}", None)
      for f in ("gate_objective", "robust_J", "costate_J")],
    *[("robustpulse.cli", f, f"objective.{f}", None)
      for f in ("gate_objective", "robust_J", "avg_gate_fidelity")],
    ("robustpulse.objective", "robust_J", "objective.robust_J", None),
    ("robustpulse.oracle", "avg_gate_fidelity", "objective.avg_gate_fidelity", None),
    # optimize
    *[("robustpulse.cli", f, f"optimize.{f}", None)
      for f in ("run_gate_synthesis", "run_stgrape", "run_grape")],
    ("robustpulse.optimize", "lbfgs_bounded_step", "optimize.lbfgs_bounded_step", None),
    ("robustpulse.optimize", "LbfgsHistory.push", "optimize.lbfgs_push", _push_hook),
    *[("robustpulse.optimize", f"{task}.{m}", f"optimize.{m}", None)
      for task in ("_GateTask", "_StateTask")
      for m in ("evaluate", "eval_grad", "true_objective")],
    # oracle
    ("robustpulse.cli", "noise_sweep", "oracle.noise_sweep", None),
    ("robustpulse.cli", "noisy_channel_super", "oracle.noisy_channel_super", None),
    ("robustpulse.oracle", "noisy_channel_super", "oracle.noisy_channel_super", None),
    ("robustpulse.oracle", "noisy_liouvillian", "oracle.noisy_liouvillian", None),
]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every call site and the CLI command callbacks; restore on exit."""
    patched = []
    try:
        for module_name, path, span, hook in SITES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(span, original, hook))
            patched.append((owner, attr, original))
        cli = importlib.import_module("robustpulse.cli")
        for name, command in cli.main.commands.items():
            original = command.callback
            command.callback = tracer.wrap(f"cli.{name}", original)
            patched.append((command, "callback", original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# ----------------------------------------------------------------- metrics

# Per-layer metrics: name -> (unit, better, kind).  "count" metrics repeat
# exactly for a given input and are taken from the first traced call;
# "time" metrics are the median over all traced calls of a run.
PER_LAYER = {
    "import_ms": ("ms", "lower", "time"),
    "config.build_ms": ("ms", "lower", "time"),
    "propagate.plan_ms": ("ms", "lower", "time"),
    "optimize.iterations": ("count", "higher", "count"),
    "optimize.evals": ("count", "lower", "count"),
    "optimize.accept_ratio": ("ratio", "higher", "count"),
    "optimize.curvature_rejects": ("count", "lower", "count"),
    "optimize.lbfgs_self_ms": ("ms", "lower", "time"),
    "optimize.monitor_ms": ("ms", "lower", "time"),
    "propagate.forward_ms": ("ms", "lower", "time"),
    "propagate.final_ms": ("ms", "lower", "time"),
    "propagate.gradient_ms": ("ms", "lower", "time"),
    "propagate.trotter_step_us": ("us", "lower", "time"),
    "propagate.nilpotent_us": ("us", "lower", "time"),
    "propagate.expm_assemble_ms": ("ms", "lower", "time"),
    "propagate.expm_exp_ms": ("ms", "lower", "time"),
    "propagate.expm_apply_us": ("us", "lower", "time"),
    "propagate.ode_substeps": ("count", "lower", "count"),
    "propagate.ode_substep_us": ("us", "lower", "time"),
    "propagate.delta_st_ms": ("ms", "lower", "time"),
    **{m: spec for key in KERNELS for m, spec in (
        (f"kernels.{key}.calls", ("count", "lower", "count")),
        (f"kernels.{key}.us", ("us", "lower", "time")),
    )},
    "kernels.conjugate.blocks_per_call": ("count", "higher", "count"),
    "kernels.bytes_computed": ("bytes", "lower", "count"),
    **{m: spec for d in EXPM_DIMS for m, spec in (
        (f"linalg.expm.d{d}.calls", ("count", "lower", "count")),
        (f"linalg.expm.d{d}.us", ("us", "lower", "time")),
    )},
    "linalg.expm.squarings": ("count", "lower", "count"),
    "linalg.expm.gflop_computed": ("GFLOP", "lower", "count"),
    "objective.gate_objective_us": ("us", "lower", "time"),
    "objective.costate_us": ("us", "lower", "time"),
    "objective.agf_us": ("us", "lower", "time"),
    "oracle.channel_ms": ("ms", "lower", "time"),
    "oracle.liouvillian_us": ("us", "lower", "time"),
    "trace.overhead_pct": ("%", "lower", "time"),
    "trace.unattributed_pct": ("%", "lower", "time"),
    **{f"{layer}.self_ms": ("ms", "lower", "time") for layer in LAYERS},
}


def _p50(values) -> float:
    return statistics.median(values) if len(values) else 0.0


def call_metrics(tr: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced command call (times in the metric's
    unit).  Layers the command never entered report zero."""
    durs, cnt = tr.durations, tr.counts
    ms, us = 1e3, 1e6
    builders = [n for n in tr.total if n.startswith("config.build_")]
    evals = tr.calls["optimize.evaluate"]
    iterations = max(tr.calls["optimize.eval_grad"] - 1, 0)
    step_ode = tr.total["propagate.step_ode"]
    cli_s = sum(t for n, t in tr.total.items() if n.startswith("cli."))
    m = {
        "config.build_ms": sum(tr.total[n] for n in builders) * ms,
        "propagate.plan_ms": _p50(durs["propagate.make_trotter_plan"]) * ms,
        "optimize.iterations": iterations,
        "optimize.evals": evals,
        "optimize.accept_ratio": iterations / evals if evals else 0.0,
        "optimize.curvature_rejects": cnt["optimize.curvature_rejects"],
        "optimize.lbfgs_self_ms": tr.self_time["optimize.lbfgs_bounded_step"] * ms,
        "optimize.monitor_ms": tr.total["optimize.true_objective"] * ms,
        "propagate.forward_ms": _p50(durs["propagate.propagate_forward"]) * ms,
        "propagate.final_ms": _p50(durs["propagate.final_trotter"]) * ms,
        "propagate.gradient_ms": _p50(durs["propagate.trotter_backward_with_gradient"]) * ms,
        "propagate.trotter_step_us": _p50(durs["propagate.step_trotter"]) * us,
        "propagate.nilpotent_us": _p50(durs["propagate.exp_nilpotent"]) * us,
        "propagate.expm_assemble_ms": _p50(durs["augment.assemble_supermatrix"]) * ms,
        "propagate.expm_exp_ms": _p50(durs["propagate.expm_exp"]) * ms,
        "propagate.expm_apply_us": _p50(durs["propagate.apply_supermatrix"]) * us,
        "propagate.ode_substeps": cnt["propagate.ode_substeps"],
        "propagate.ode_substep_us": (
            step_ode / cnt["propagate.ode_substeps"] * us if cnt["propagate.ode_substeps"] else 0.0
        ),
        "propagate.delta_st_ms": tr.total["propagate.delta_st"] * ms,
        "kernels.conjugate.blocks_per_call": (
            cnt["kernels.conjugate.blocks"] / tr.calls["kernels.conjugate"]
            if tr.calls["kernels.conjugate"] else 0.0
        ),
        "kernels.bytes_computed": cnt["kernels.bytes"],
        "linalg.expm.squarings": cnt["linalg.expm.squarings"],
        "linalg.expm.gflop_computed": cnt["linalg.expm.flop"] / 1e9,
        "objective.gate_objective_us": _p50(durs["objective.gate_objective"]) * us,
        "objective.costate_us": _p50(durs["objective.costate_J"]) * us,
        "objective.agf_us": _p50(durs["objective.avg_gate_fidelity"]) * us,
        "oracle.channel_ms": _p50(durs["oracle.noisy_channel_super"]) * ms,
        "oracle.liouvillian_us": _p50(durs["oracle.noisy_liouvillian"]) * us,
        "trace.unattributed_pct": (wall_s - cli_s) / wall_s * 100.0,
    }
    for key in KERNELS:
        m[f"kernels.{key}.calls"] = tr.calls[f"kernels.{key}"]
        m[f"kernels.{key}.us"] = _p50(durs[f"kernels.{key}"]) * us
    for d in EXPM_DIMS:
        m[f"linalg.expm.d{d}.calls"] = cnt[f"linalg.expm.d{d}.calls"]
        m[f"linalg.expm.d{d}.us"] = _p50(durs[f"linalg.expm.d{d}"]) * us
    for layer, t in tr.layer_self_seconds().items():
        m[f"{layer}.self_ms"] = t * ms
    return m


def expm_breakdown(tr: Tracer) -> dict:
    """Calls and p50 time of every exponentiated matrix size, including
    sizes outside EXPM_DIMS, for the report line."""
    out = {}
    for key, durs in tr.durations.items():
        if key.startswith("linalg.expm.d"):
            dim = key[len("linalg.expm.d"):]
            out[dim] = {"calls": len(durs), "p50_us": _p50(durs) * 1e6}
    return dict(sorted(out.items(), key=lambda kv: int(kv[0])))
