"""YAML run configuration: parsing, validation, and object builders.

A run file has six sections — system, control, robustness, task,
optimizer, output — all optional, each with defaults.  Validation
errors carry the dotted field name so the CLI can report exactly which
key is wrong.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field, fields
from math import comb
from pathlib import Path

import numpy as np
import yaml

from .augment import DEFAULT_SUPERMATRIX_CAP, MultiIndexSet
from .gates import PRESET_QUBITS, preset_unitary
from .model import (
    ControlGrid,
    NoiseDistribution,
    OpenSystemModel,
    attach_uncertainties,
    build_spin_chain,
    mhz_to_radns,
    random_grid,
)
from .objective import (
    GateObjective,
    RobustStateObjective,
    as_gate_objective,
    ground_state,
    make_gate_objective,
    uniform_state,
)
from .optimize import OptimizerConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "resolved_dict",
    "build_model",
    "build_mset",
    "build_grid",
    "build_state_objective",
    "build_gate_objective",
    "build_noise_distribution",
    "optimizer_config",
]


class ConfigError(ValueError):
    """Invalid run configuration; ``field`` is the dotted key path."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


@dataclass
class SystemSection:
    n_qubits: int = 1
    jxy_mhz: float = 30.0
    t1_us: float = 30.0
    t2_us: float = 30.0
    uncertainty: str = "edges"  # edges | couplings | none


@dataclass
class ControlSection:
    n_steps: int = 40
    dt_ns: float = 0.5
    max_mhz: float = 50.0
    seed: int = 7


@dataclass
class RobustnessSection:
    order: int = 1
    sigma_mhz: float = 2.0
    lam: float = 1.0
    sample_count: int = 200
    distribution: str = "normal"  # normal | uniform
    sweep_seed: int = 2026
    thresholds: list = field(default_factory=lambda: [0.01, 0.02, 0.05, 0.1])


@dataclass
class TaskSection:
    kind: str = "gate"  # gate | state
    gate: str = "cnot"
    basis: str = "d_plus_one"  # d_plus_one | three
    initial: str = "ground"  # ground | uniform
    target: str = "uniform"


@dataclass
class OptimizerSection:
    method: str = "stgrape"  # stgrape | grape
    max_iters: int = 200
    grad_tol: float = 1e-8
    monitor_interval: int = 50
    memory: int = 10


@dataclass
class OutputSection:
    directory: str = "out"
    pulse_csv: str = "pulse.csv"
    report: str = "report.yaml"
    timings: str = "timings.yaml"


@dataclass
class RunConfig:
    system: SystemSection = field(default_factory=SystemSection)
    control: ControlSection = field(default_factory=ControlSection)
    robustness: RobustnessSection = field(default_factory=RobustnessSection)
    task: TaskSection = field(default_factory=TaskSection)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)
    output: OutputSection = field(default_factory=OutputSection)


_SECTIONS = tuple(f.name for f in fields(RunConfig))

_CHOICES = {
    "system.uncertainty": ("edges", "couplings", "none"),
    "robustness.distribution": ("normal", "uniform"),
    "task.kind": ("gate", "state"),
    "task.gate": tuple(PRESET_QUBITS),
    "task.basis": ("d_plus_one", "three"),
    "task.initial": ("ground", "uniform"),
    "task.target": ("ground", "uniform"),
    "optimizer.method": ("stgrape", "grape"),
}

# The model's operators are dense 2^n x 2^n matrices, built before any size
# check: each takes 64 KiB at 6 qubits, and 4x as much per added qubit.
_MAX_QUBITS = 6

# Tuples, not sets: with several bad fields the first one in this order is
# reported, whatever the string hash seed.
_POSITIVE = (
    "system.n_qubits", "system.t1_us", "system.t2_us",
    "control.n_steps", "control.dt_ns", "control.max_mhz",
    "robustness.sigma_mhz", "robustness.sample_count",
    "optimizer.max_iters", "optimizer.monitor_interval", "optimizer.memory",
)

_NON_NEGATIVE = ("control.seed", "robustness.order", "robustness.lam",
                 "robustness.sweep_seed", "optimizer.grad_tol")


def _coerce(path: str, value, target_type):
    if target_type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        return value
    if target_type is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected a number, got {value!r}")
        return float(value)
    if target_type is str:
        if not isinstance(value, str):
            raise ConfigError(path, f"expected a string, got {value!r}")
        return value
    if target_type is list:
        if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(path, f"expected a list of numbers, got {value!r}")
        return [float(v) for v in value]
    raise ConfigError(path, f"unsupported config field type {target_type}")


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """PyYAML's safe loader, on libyaml's parser where PyYAML is built with
    it, reading as numbers what YAML 1.2 reads as numbers: its YAML 1.1
    resolver leaves an exponent without a dot or without a sign, as in
    ``1e-8``, a string."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def load_config(source) -> RunConfig:
    """Parse and validate a YAML run file (path, or an already-loaded dict)."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
        try:
            raw = yaml.load(text, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError("<file>", f"not valid YAML ({exc})") from exc
    else:
        raw = source
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "top level must be a mapping of sections")

    cfg = RunConfig()
    for section_name, payload in raw.items():
        if section_name not in _SECTIONS:
            raise ConfigError(section_name, "unknown section")
        if payload is None:
            continue
        if not isinstance(payload, dict):
            raise ConfigError(section_name, "section must be a mapping")
        section = getattr(cfg, section_name)
        fields = {f: type(v) for f, v in asdict(section).items()}
        for key, value in payload.items():
            path = f"{section_name}.{key}"
            if key not in fields:
                raise ConfigError(path, "unknown field")
            setattr(section, key, _coerce(path, value, fields[key]))

    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    for path, choices in _CHOICES.items():
        section, key = path.split(".")
        value = getattr(getattr(cfg, section), key)
        if value not in choices:
            raise ConfigError(path, f"must be one of {', '.join(choices)}; got {value!r}")
    for path in _POSITIVE:
        section, key = path.split(".")
        value = getattr(getattr(cfg, section), key)
        if not value > 0:
            raise ConfigError(path, f"must be positive, got {value!r}")
    for path in _NON_NEGATIVE:
        section, key = path.split(".")
        value = getattr(getattr(cfg, section), key)
        if value < 0:
            raise ConfigError(path, f"must be non-negative, got {value!r}")
    if cfg.system.n_qubits > _MAX_QUBITS:
        raise ConfigError(
            "system.n_qubits", f"must be at most {_MAX_QUBITS}, got {cfg.system.n_qubits}"
        )
    if cfg.task.kind == "gate":
        dim = 2 ** cfg.system.n_qubits
        need = PRESET_QUBITS[cfg.task.gate]
        if need is not None and cfg.system.n_qubits != need:
            raise ConfigError(
                "task.gate",
                f"{cfg.task.gate!r} needs system.n_qubits = {need}, "
                f"got {cfg.system.n_qubits} (dim {dim})",
            )
    if cfg.system.uncertainty == "none" and cfg.robustness.order > 0:
        raise ConfigError(
            "robustness.order",
            "positive order needs uncertainty operators (system.uncertainty != none)",
        )
    if not all(0.0 < t < 1.0 for t in cfg.robustness.thresholds):
        raise ConfigError("robustness.thresholds", "entries must lie in (0, 1)")


def resolved_dict(cfg: RunConfig) -> dict:
    """Plain nested dict of every resolved setting (for the run report)."""
    return asdict(cfg)


# ------------------------------------------------------------------ builders


def build_model(cfg: RunConfig) -> OpenSystemModel:
    model = build_spin_chain(
        cfg.system.n_qubits,
        jxy_mhz=cfg.system.jxy_mhz,
        t1_us=cfg.system.t1_us,
        t2_us=cfg.system.t2_us,
    )
    if cfg.system.uncertainty != "none":
        try:
            model = attach_uncertainties(model, cfg.system.uncertainty)
        except ValueError as exc:  # a set the chain is too short for
            raise ConfigError("system.uncertainty", str(exc)) from exc
    return model


def build_mset(cfg: RunConfig, model: OpenSystemModel) -> MultiIndexSet:
    """The index set of ``robustness.order``, rejected unbuilt when one
    augmented state, N = C(m + n, n) blocks of d^2, is over the cap."""
    m, n = len(model.uncertainties), cfg.robustness.order
    size = comb(m + n, n) * model.dim**2
    if size > DEFAULT_SUPERMATRIX_CAP:
        msg = f"one augmented state holds N*d^2 = {size} numbers, over the cap"
        raise ConfigError("robustness.order", f"{msg} {DEFAULT_SUPERMATRIX_CAP}")
    return MultiIndexSet(m, n)


def build_grid(cfg: RunConfig, model: OpenSystemModel, seed: int | None = None) -> ControlGrid:
    bound = mhz_to_radns(cfg.control.max_mhz)
    return random_grid(
        len(model.controls),
        cfg.control.n_steps,
        cfg.control.dt_ns,
        -bound,
        bound,
        seed=cfg.control.seed if seed is None else seed,
    )


def _named_state(name: str, dim: int) -> np.ndarray:
    return ground_state(dim) if name == "ground" else uniform_state(dim)


def build_state_objective(cfg: RunConfig, mset: MultiIndexSet, dim: int) -> GateObjective:
    """A gate objective with one input state, ``task.initial``, of weight 1."""
    return as_gate_objective(RobustStateObjective.make(
        mset,
        _named_state(cfg.task.target, dim),
        rho0=_named_state(cfg.task.initial, dim),
        lam=cfg.robustness.lam,
    ))


def build_gate_objective(cfg: RunConfig, mset: MultiIndexSet, dim: int) -> GateObjective:
    return make_gate_objective(
        mset,
        preset_unitary(cfg.task.gate, dim),
        kind=cfg.task.basis,
        lam=cfg.robustness.lam,
    )


def build_noise_distribution(cfg: RunConfig, model: OpenSystemModel, seed: int | None = None):
    m = len(model.uncertainties)
    if m == 0:
        raise ConfigError("system.uncertainty", "noise sweep needs uncertainty operators")
    sigma = mhz_to_radns(cfg.robustness.sigma_mhz)
    return NoiseDistribution(
        kind=cfg.robustness.distribution,
        sigmas=np.full(m, sigma),
        seed=cfg.robustness.sweep_seed if seed is None else seed,
    )


def optimizer_config(cfg: RunConfig) -> OptimizerConfig:
    return OptimizerConfig(
        max_iters=cfg.optimizer.max_iters,
        grad_tol=cfg.optimizer.grad_tol,
        lbfgs_memory=cfg.optimizer.memory,
        monitor_interval=cfg.optimizer.monitor_interval,
    )
