"""Robust piecewise-constant pulse design for open quantum systems.

The package propagates a Taylor-augmented master equation whose blocks
carry the state's derivatives with respect to uncertain Hamiltonian
parameters, and optimises controls against objectives that trade target
fidelity against sensitivity.  Three propagation backends share one
interface: a dense supermatrix exponential, a fixed-substep RK4
integrator, and a symmetric operator splitting whose control gradient
is exact.
"""

from .augment import (
    CapExceeded,
    MultiIndexSet,
    assemble_supermatrix,
    enumerate_orders,
    initial_state,
    quadrature_norm,
)
from .gates import PRESETS, preset_unitary
from .model import (
    ControlGrid,
    NoiseDistribution,
    OpenSystemModel,
    attach_uncertainties,
    build_spin_chain,
    mhz_to_radns,
    radns_to_mhz,
    random_grid,
)
from .objective import (
    GateObjective,
    RobustStateObjective,
    avg_gate_fidelity,
    gate_objective,
    ground_state,
    make_gate_objective,
    process_fidelity,
    robust_J,
    uniform_state,
)
from .optimize import (
    OptimizationReport,
    OptimizerConfig,
    grape_gradient,
    run_gate_synthesis,
    run_grape,
    run_stgrape,
    stgrape_gradient,
)
from .propagate import (
    BACKENDS,
    TrotterPlan,
    delta_st,
    make_trotter_plan,
    propagate_backward,
    propagate_final,
    propagate_forward,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BACKENDS",
    "CapExceeded",
    "ControlGrid",
    "GateObjective",
    "MultiIndexSet",
    "NoiseDistribution",
    "OpenSystemModel",
    "OptimizationReport",
    "OptimizerConfig",
    "PRESETS",
    "RobustStateObjective",
    "TrotterPlan",
    "assemble_supermatrix",
    "attach_uncertainties",
    "avg_gate_fidelity",
    "build_spin_chain",
    "delta_st",
    "enumerate_orders",
    "gate_objective",
    "grape_gradient",
    "ground_state",
    "initial_state",
    "make_gate_objective",
    "make_trotter_plan",
    "mhz_to_radns",
    "preset_unitary",
    "process_fidelity",
    "propagate_backward",
    "propagate_final",
    "propagate_forward",
    "quadrature_norm",
    "radns_to_mhz",
    "random_grid",
    "robust_J",
    "run_gate_synthesis",
    "run_grape",
    "run_stgrape",
    "stgrape_gradient",
    "uniform_state",
]
