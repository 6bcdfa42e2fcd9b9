"""Command-line entry points: simulate, optimize, sweep.

Reports are written as YAML with sorted keys and contain no wall-clock
data, so rerunning a command with the same config and seed reproduces
them byte for byte; timings go to a separate sidecar file.

Exit codes: 2 for configuration problems (the message names the field),
3 when an objective or gradient turns non-finite.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import logging
import time
from pathlib import Path

import click
import numpy as np
import yaml

from . import __version__
from .augment import initial_state
from .config import (
    ConfigError,
    RunConfig,
    build_gate_objective,
    build_grid,
    build_model,
    build_mset,
    build_noise_distribution,
    build_state_objective,
    load_config,
    optimizer_config,
    resolved_dict,
)
from .gates import preset_unitary
from .model import ControlGrid, mhz_to_radns, radns_to_mhz
# robust_J is not called here: perfbench/tracer.py wraps it at cli.robust_J
from .objective import avg_gate_fidelity, gate_objective, robust_J
# run_grape and run_stgrape are not called here: perfbench/tracer.py wraps them at cli
from .optimize import run_gate_synthesis, run_grape, run_stgrape
from .oracle import noise_sweep, noisy_channel_super
# delta_st is not called here: perfbench/tracer.py wraps it at cli.delta_st
from .propagate import (
    BACKENDS, delta_st, exact_backend, make_trotter_plan, propagate_final, splitting_deviation,
)

__all__ = ["main"]

# Numbers that optimize's forward cache may hold, n_steps + 1 augmented
# states per input state: 2 GiB of complex128.  Like config's cap on one
# augmented state, it bounds the input; it is not a setting.
_FORWARD_CACHE_CAP = 2**27


def _plain(obj):
    """Recursively convert numpy scalars/arrays so YAML stays readable."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# PyYAML's safe dumper, on libyaml's emitter where PyYAML is built with it
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _write_yaml(path: Path, data: dict) -> None:
    path.write_text(yaml.dump(_plain(data), Dumper=_Dumper, sort_keys=True,
                              default_flow_style=False))


def _write_pulse_csv(path: Path, grid: ControlGrid) -> None:
    """Control amplitudes in MHz, one row per step, first column t_ns."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_ns"] + [f"u_{c + 1}" for c in range(grid.n_channels)])
        amps_mhz = radns_to_mhz(grid.amplitudes)
        for k in range(grid.n_steps):
            writer.writerow(
                [f"{k * grid.dt:.12g}"] + [f"{amps_mhz[c, k]:.12g}" for c in range(grid.n_channels)]
            )


def _read_pulse_csv(path: Path, template: ControlGrid) -> ControlGrid:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["t_ns"]:
        raise ConfigError("<pulse>", f"{path} is not a pulse file (missing t_ns header)")
    n_channels = len(rows[0]) - 1
    if n_channels != template.n_channels:
        raise ConfigError(
            "<pulse>",
            f"{path} has {n_channels} channels, model needs {template.n_channels}",
        )
    wrong = next((i for i, row in enumerate(rows[1:], 1) if len(row) != n_channels + 1), None)
    if wrong is not None:
        raise ConfigError(
            "<pulse>",
            f"{path} has a malformed row: pulse row {wrong} has {len(rows[wrong])} columns, "
            f"the header {n_channels + 1}",
        )
    try:
        body = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise ConfigError("<pulse>", f"{path} has a malformed row ({exc})")
    if body.shape[0] < 1:
        raise ConfigError("<pulse>", f"{path} has no pulse rows")
    bad = np.flatnonzero(~np.all(np.isfinite(body), axis=1))
    if bad.size:
        raise ConfigError("<pulse>", f"{path} has a non-finite value in pulse row {bad[0] + 1}")
    steps = np.diff(body[:, 0])
    if steps.size and np.max(np.abs(steps - template.dt)) > 1e-9:
        raise ConfigError(
            "<pulse>", f"{path} time steps must all equal control.dt_ns = {template.dt:g}"
        )
    # 1e-9 MHz of slack keeps box-edge pulses written with %.12g valid
    lo, hi = radns_to_mhz(template.lo), radns_to_mhz(template.hi)
    outside = np.argwhere((body[:, 1:] < lo - 1e-9) | (body[:, 1:] > hi + 1e-9))
    if outside.size:
        row, c = outside[0]
        raise ConfigError(
            "<pulse>",
            f"{path} pulse row {row + 1} channel u_{c + 1} amplitude {body[row, c + 1]:g} MHz "
            f"is outside the control.max_mhz box [{lo[c]:g}, {hi[c]:g}]",
        )
    if body.shape[0] != template.n_steps:
        raise ConfigError(
            "<pulse>", f"{path} has {body.shape[0]} pulse rows, control.n_steps = {template.n_steps}"
        )
    amps = mhz_to_radns(body[:, 1:].T)
    return ControlGrid(template.dt, amps, template.lo, template.hi)


def _out_dir(cfg: RunConfig, out: str | None) -> Path:
    path = Path(out if out is not None else cfg.output.directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error - {exc}", err=True)
            raise SystemExit(2)
        except FloatingPointError as exc:
            click.echo(f"numerical failure - {exc}", err=True)
            raise SystemExit(3)

    return wrapper


_config_opt = click.option(
    "--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False),
    help="YAML run configuration.",
)
_out_opt = click.option("--out", default=None, help="Output directory (default from config).")
_seed_opt = click.option("--seed", type=click.IntRange(min=0), help="Override the run seed.")


@click.group()
@click.version_option(__version__, prog_name="robustpulse")
def main():
    """Robust pulse design for open quantum systems."""


def _objective(cfg: RunConfig, mset, model):
    """The run's gate objective; a state task's has one input state."""
    build = build_gate_objective if cfg.task.kind == "gate" else build_state_objective
    return build(cfg, mset, model.dim)


@main.command()
@_config_opt
@_out_opt
@_seed_opt
@_guard
def simulate(config_path, out, seed):
    """Propagate the configured task under trotter, ode and, where the
    exact-backend rule picks it, expm (else null); report the objectives,
    the splitting deviation from the rule's pick, and trace defects."""
    cfg = load_config(config_path)
    model = build_model(cfg)
    mset = build_mset(cfg, model)
    grid = build_grid(cfg, model, seed=seed)
    obj = _objective(cfg, mset, model)
    plan = make_trotter_plan(model, grid.dt)
    exact = exact_backend(model, mset, 1)

    objective_by_backend, trace_defect = dict.fromkeys(BACKENDS), dict.fromkeys(BACKENDS)
    timings: dict = {}
    finals_by_backend: dict = {}
    batch0 = initial_state(mset, np.stack(obj.state0s))
    for backend in BACKENDS:
        if backend == "expm" and exact != "expm":
            continue
        t0 = time.perf_counter()
        finals = propagate_final(backend, model, mset, grid, batch0, plan=plan)
        timings[backend] = time.perf_counter() - t0
        finals_by_backend[backend] = finals
        objective_by_backend[backend] = gate_objective(finals, obj)
        trace_defect[backend] = max(
            abs(float(np.trace(f[-1]).real) - 1.0) for f in finals
        )

    dev = splitting_deviation(finals_by_backend[exact], finals_by_backend["trotter"])
    for backend, value in objective_by_backend.items():
        if value is not None and not np.isfinite([value, trace_defect[backend]]).all():
            raise FloatingPointError(f"{backend} backend gave a non-finite objective or trace defect")
    if not np.isfinite(dev):
        raise FloatingPointError("splitting deviation is not finite")

    out_path = _out_dir(cfg, out)
    report = {
        "task": cfg.task.kind,
        "objective": objective_by_backend,
        "splitting_deviation": dev,
        "trace_defect": trace_defect,
        "n_blocks": mset.size,
        "config": resolved_dict(cfg),
        "seed": seed if seed is not None else cfg.control.seed,
    }
    _write_yaml(out_path / cfg.output.report, report)
    _write_yaml(out_path / cfg.output.timings, {"simulate_s": timings})
    click.echo(f"report written to {out_path / cfg.output.report}")


@contextlib.contextmanager
def _progress_on_stderr(enabled: bool):
    """With ``enabled``, the optimizer's INFO progress lines go to this
    call's stderr while the block runs; handler and level are undone
    afterwards, so repeated in-process calls leave nothing behind."""
    logger = logging.getLogger("robustpulse.optimize")
    handler, level = logging.StreamHandler(), logger.level
    handler.setFormatter(logging.Formatter("%(message)s"))
    if enabled:
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


@main.command()
@_config_opt
@_out_opt
@_seed_opt
@click.option("--verbose", is_flag=True, help="Progress lines on stderr.")
@_guard
def optimize(config_path, out, seed, verbose):
    """Optimise the configured control task and write the pulse + report."""
    cfg = load_config(config_path)
    model = build_model(cfg)
    mset = build_mset(cfg, model)
    obj = _objective(cfg, mset, model)
    cache = (cfg.control.n_steps + 1) * obj.n_states * mset.size * model.dim**2
    if cache > _FORWARD_CACHE_CAP:
        raise ConfigError("robustness.order", f"the forward cache holds {cache} numbers, "
                          f"over the cap {_FORWARD_CACHE_CAP}")
    grid0 = build_grid(cfg, model, seed=seed)
    ocfg = optimizer_config(cfg)

    # the optimizer's exclusive phase timers cover this interval
    t_start = time.perf_counter()
    with _progress_on_stderr(verbose):
        report_opt = run_gate_synthesis(
            model, mset, grid0, obj, ocfg,
            method=cfg.optimizer.method,
        )
    total = time.perf_counter() - t_start

    best_grid = grid0.with_amplitudes(report_opt.best_control)
    out_path = _out_dir(cfg, out)
    _write_pulse_csv(out_path / cfg.output.pulse_csv, best_grid)

    report = {
        "task": cfg.task.kind,
        "method": report_opt.method,
        "backend": report_opt.backend,
        "best_J": report_opt.best_J,
        "stop_reason": report_opt.stop_reason,
        "n_iterations": len(report_opt.iterations) - 1,
        "grad_inf_norm": report_opt.grad_norm,
        "evaluations": report_opt.evaluations,
        "iterations": report_opt.iterations,
        "checkpoints": [{"iteration": i, "true_J": j, "splitting_J": report_opt.iterations[i]}
                        for i, j in report_opt.checkpoints],
        "config": resolved_dict(cfg),
        "seed": seed if seed is not None else cfg.control.seed,
    }
    if cfg.task.kind == "gate":
        u_target = preset_unitary(cfg.task.gate, model.dim)
        chan = noisy_channel_super(model, best_grid, np.zeros(len(model.uncertainties)))
        report["agf_nominal"] = avg_gate_fidelity(chan, u_target)
    _write_yaml(out_path / cfg.output.report, report)
    _write_yaml(
        out_path / cfg.output.timings,
        {"phases_s": report_opt.wall_time, "total_s": total},
    )
    click.echo(
        f"{report_opt.method}: J={report_opt.best_J:.6f} ({report_opt.stop_reason}); "
        f"pulse written to {out_path / cfg.output.pulse_csv}"
    )


@main.command()
@_config_opt
@_out_opt
@_seed_opt
@click.option("--pulse", "pulse_path", default=None, type=click.Path(exists=True, dir_okay=False),
              help="Pulse CSV to evaluate (default: the seeded initial control).")
@_guard
def sweep(config_path, out, seed, pulse_path):
    """Sample uncertainty strengths and tabulate gate fidelities.

    Writes sweep.csv, sweep_<output.report> and sweep_<output.timings>, so
    an optimize run's report in the same directory is kept."""
    cfg = load_config(config_path)
    if cfg.task.kind != "gate":
        raise ConfigError("task.kind", "sweep needs a gate task")
    model = build_model(cfg)
    template = build_grid(cfg, model)
    grid = _read_pulse_csv(Path(pulse_path), template) if pulse_path else template
    u_target = preset_unitary(cfg.task.gate, model.dim)
    dist = build_noise_distribution(cfg, model, seed=seed)

    t0 = time.perf_counter()
    result = noise_sweep(model, grid, u_target, dist, cfg.robustness.sample_count)
    elapsed = time.perf_counter() - t0
    bad = np.flatnonzero(~np.isfinite(result.fidelities))
    if bad.size:
        raise FloatingPointError(f"fidelity of noise sample {bad[0]} is not finite")

    out_path = _out_dir(cfg, out)
    sweep_csv = out_path / "sweep.csv"
    m = result.eps.shape[1]
    with sweep_csv.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sample"] + [f"eps_{j + 1}_mhz" for j in range(m)] + ["f_agf", "gate_error"]
        )
        eps_mhz = radns_to_mhz(result.eps)
        for i in range(result.eps.shape[0]):
            writer.writerow(
                [i]
                + [f"{eps_mhz[i, j]:.12g}" for j in range(m)]
                + [f"{result.fidelities[i]:.12g}", f"{result.gate_errors[i]:.12g}"]
            )

    thresholds = cfg.robustness.thresholds
    report = {
        "samples": int(result.eps.shape[0]),
        "distribution": cfg.robustness.distribution,
        "sigma_mhz": cfg.robustness.sigma_mhz,
        "mean_gate_error": result.mean_error,
        "max_gate_error": float(np.max(result.gate_errors)),
        "error_cdf": {
            f"{t:g}": v for t, v in zip(thresholds, result.cdf(thresholds))
        },
        "pulse": str(pulse_path) if pulse_path else "initial",
        "config": resolved_dict(cfg),
        "seed": seed if seed is not None else cfg.robustness.sweep_seed,
    }
    _write_yaml(out_path / f"sweep_{cfg.output.report}", report)
    _write_yaml(out_path / f"sweep_{cfg.output.timings}", {"sweep_s": elapsed})
    click.echo(
        f"swept {result.eps.shape[0]} samples: mean gate error {result.mean_error:.6g}; "
        f"table written to {sweep_csv}"
    )


def time_backend_step(model, mset, grid, backend, repeats: int = 5, plan=None) -> list:
    """Per-step wall times (seconds) of repeated full propagations."""
    state0 = initial_state(mset, np.eye(model.dim, dtype=complex) / model.dim)
    propagate_final(backend, model, mset, grid, state0, plan=plan)  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        propagate_final(backend, model, mset, grid, state0, plan=plan)
        times.append((time.perf_counter() - t0) / grid.n_steps)
    return times


if __name__ == "__main__":
    main()
