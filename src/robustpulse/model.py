"""System definitions: open-system models, control grids, noise laws.

Unit conventions
----------------
Time is in nanoseconds everywhere.  Hamiltonians, control amplitudes and
uncertainty strengths are angular frequencies in rad/ns.  Decay rates are
1/ns.  User-facing values (config files, CSV) are ordinary frequencies in
MHz and are converted at the boundary: ``rad/ns = 2*pi*1e-3 * MHz``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import kernels
from .linalg import (
    is_hermitian,
    kron_all,
    mat_commutator,
    mat_dissipator,
    one_and_inf_norms,
)

__all__ = [
    "MHZ_TO_RADNS",
    "mhz_to_radns",
    "radns_to_mhz",
    "ControlGrid",
    "OpenSystemModel",
    "NoiseDistribution",
    "build_spin_chain",
    "attach_uncertainties",
    "random_grid",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_MINUS",
]

MHZ_TO_RADNS = 2.0 * np.pi * 1e-3


def mhz_to_radns(f_mhz):
    """Ordinary frequency in MHz -> angular frequency in rad/ns."""
    return np.asarray(f_mhz, dtype=float) * MHZ_TO_RADNS


def radns_to_mhz(w_radns):
    """Angular frequency in rad/ns -> ordinary frequency in MHz."""
    return np.asarray(w_radns, dtype=float) / MHZ_TO_RADNS


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# lowering operator |0><1|: maps the excited state to the ground state
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_IDENT2 = np.eye(2, dtype=complex)


def _op_at(op: np.ndarray, site: int, n_qubits: int) -> np.ndarray:
    """Embed a single-qubit operator at ``site`` (0-based) in an n-qubit chain."""
    factors = [_IDENT2] * n_qubits
    factors[site] = op
    return kron_all(factors)


@dataclass
class ControlGrid:
    """Piecewise-constant control amplitudes on a uniform time grid.

    Attributes
    ----------
    dt : float
        Step length in ns.
    amplitudes : ndarray, shape (n_channels, n_steps)
        Amplitudes in rad/ns, constant on each step.
    lo, hi : ndarray, shape (n_channels,)
        Box bounds in rad/ns.
    """

    dt: float
    amplitudes: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.atleast_2d(np.asarray(self.amplitudes, dtype=float))
        n_c = self.amplitudes.shape[0]
        self.lo = np.broadcast_to(np.asarray(self.lo, dtype=float), (n_c,)).copy()
        self.hi = np.broadcast_to(np.asarray(self.hi, dtype=float), (n_c,)).copy()
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if np.any(self.lo > self.hi):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def n_channels(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_steps(self) -> int:
        return self.amplitudes.shape[1]

    def with_amplitudes(self, amplitudes: np.ndarray) -> "ControlGrid":
        """Copy of the grid with new amplitudes (same dt and bounds)."""
        return ControlGrid(self.dt, np.array(amplitudes, dtype=float), self.lo, self.hi)


@dataclass
class OpenSystemModel:
    """Drift + controls + dissipation + parametric uncertainty operators.

    All operators are d x d complex Hermitian except the collapse
    operators, which are arbitrary d x d.
    """

    dim: int
    drift: np.ndarray
    controls: list = field(default_factory=list)
    lindblads: list = field(default_factory=list)  # (collapse op, rate 1/ns)
    uncertainties: list = field(default_factory=list)
    # optional hints set by builders: channel index groups whose operators
    # mutually commute, plus a shared diagonalizer per group
    commuting_groups: list | None = None
    group_diagonalizers: list | None = None

    def __post_init__(self):
        d = self.dim
        self.drift = np.asarray(self.drift, dtype=complex)
        if self.drift.shape != (d, d):
            raise ValueError(f"drift must be {d}x{d}")
        if not is_hermitian(self.drift, tol=1e-12):
            raise ValueError("drift Hamiltonian is not Hermitian")
        self.controls = [np.asarray(h, dtype=complex) for h in self.controls]
        for i, h in enumerate(self.controls):
            if h.shape != (d, d):
                raise ValueError(f"control {i} must be {d}x{d}")
            if not is_hermitian(h, tol=1e-12):
                raise ValueError(f"control operator {i} is not Hermitian")
        checked = []
        for i, (c, gamma) in enumerate(self.lindblads):
            c = np.asarray(c, dtype=complex)
            if c.shape != (d, d):
                raise ValueError(f"collapse operator {i} must be {d}x{d}")
            if gamma < 0:
                raise ValueError(f"rate {i} is negative")
            checked.append((c, float(gamma)))
        self.lindblads = checked
        self.uncertainties = [np.asarray(e, dtype=complex) for e in self.uncertainties]
        for j, e in enumerate(self.uncertainties):
            if e.shape != (d, d):
                raise ValueError(f"uncertainty operator {j} must be {d}x{d}")
            if not is_hermitian(e, tol=1e-12):
                raise ValueError(f"uncertainty operator {j} is not Hermitian")

    @property
    def n_uncertainties(self) -> int:
        return len(self.uncertainties)

    def hamiltonian(self, amplitudes: np.ndarray) -> np.ndarray:
        """H(u) = drift + sum_c u_c * control_c for one step's amplitudes."""
        h = self.drift.copy()
        for u, hc in zip(np.asarray(amplitudes, dtype=float), self.controls):
            h += u * hc
        return h

    # stacked collapse arrays, precomputed once for the hot kernels
    @cached_property
    def collapse_stack(self) -> np.ndarray:
        if not self.lindblads:
            return np.zeros((0, self.dim, self.dim), dtype=complex)
        return np.ascontiguousarray([c for c, _ in self.lindblads])

    @cached_property
    def collapse_dag_stack(self) -> np.ndarray:
        return np.ascontiguousarray(np.conj(np.swapaxes(self.collapse_stack, 1, 2)))

    @cached_property
    def jump_factors(self) -> tuple:
        """The jump term sum_i gamma_i c_i b c_i^dag and its adjoint
        sum_i gamma_i c_i^dag b c_i, as their :func:`kernels.jump_factors`."""
        cs, csd = self.collapse_stack, self.collapse_dag_stack
        return kernels.jump_factors(cs, csd, self.rates), kernels.jump_factors(csd, cs, self.rates)

    @cached_property
    def collapse_cdc_stack(self) -> np.ndarray:
        """Stacked c_i^dag c_i."""
        if not self.lindblads:
            return np.zeros((0, self.dim, self.dim), dtype=complex)
        return np.ascontiguousarray(
            [np.conj(c.T) @ c for c, _ in self.lindblads]
        )

    @cached_property
    def rates(self) -> np.ndarray:
        return np.array([g for _, g in self.lindblads], dtype=float)

    # step-independent parts of the generator, built once per model
    @cached_property
    def half_decay(self) -> np.ndarray:
        """K / 2 = sum_i gamma_i c_i^dag c_i / 2."""
        return 0.5 * np.tensordot(self.rates, self.collapse_cdc_stack, axes=1)

    @cached_property
    def dissipator_super(self) -> np.ndarray:
        """Collapse part of the Lindblad generator as a d^2 x d^2 matrix."""
        return mat_dissipator(self.lindblads, self.dim)

    @cached_property
    def uncertainty_supers(self) -> np.ndarray:
        """-i[E_j, .] as d^2 x d^2 matrices, stacked over j."""
        d2 = self.dim * self.dim
        return np.array([mat_commutator(e) for e in self.uncertainties]).reshape(-1, d2, d2)

    @cached_property
    def fixed_norm_bounds(self) -> tuple:
        """Bounds on the 1- and inf-norms of the vectorised collapse part
        and of the uncertainty commutators, summed over each: with a, b
        the 1- and inf-norms of an operator X, gamma * (max(a, b)^2 + a b)
        for a collapse term and a + b for -i[X, .]."""
        c1, cinf = one_and_inf_norms(self.collapse_stack)
        e1, einf = one_and_inf_norms(np.reshape(self.uncertainties, (-1, self.dim, self.dim)))
        collapse = self.rates * (np.maximum(c1, cinf) ** 2 + c1 * cinf)
        return collapse.sum(), (e1 + einf).sum()


@dataclass
class NoiseDistribution:
    """Sampling law for the uncertainty strengths epsilon_j.

    kind "normal" draws each epsilon_j from N(0, sigma_j^2); kind
    "uniform" draws from [-sqrt(3)*sigma_j, sqrt(3)*sigma_j], which has
    the same variance sigma_j^2.  Scales are in rad/ns.
    """

    kind: str
    sigmas: np.ndarray
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("normal", "uniform"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        self.sigmas = np.atleast_1d(np.asarray(self.sigmas, dtype=float))
        if np.any(self.sigmas < 0):
            raise ValueError("sigma must be non-negative")

    def sample(self, count: int) -> np.ndarray:
        """Draw (count, m) samples of epsilon in rad/ns from the law's seed."""
        rng = np.random.default_rng(self.seed)
        m = self.sigmas.size
        if self.kind == "normal":
            return rng.standard_normal((count, m)) * self.sigmas
        half = np.sqrt(3.0) * self.sigmas
        return rng.uniform(-1.0, 1.0, size=(count, m)) * half


def build_spin_chain(
    n_qubits: int,
    jxy_mhz: float = 30.0,
    t1_us: float = 30.0,
    t2_us: float = 30.0,
) -> OpenSystemModel:
    """Nearest-neighbour XY chain with local x/y drives and T1/T2 decay.

    Drift: J_xy * sum_i (sx_i sx_{i+1} + sy_i sy_{i+1}) with
    J_xy = 2*pi*1e-3*jxy_mhz rad/ns.  Controls: sx_i, sy_i per qubit,
    channel order (x_1, y_1, x_2, y_2, ...).  Each qubit carries the
    collapse pair (sigma_minus, 1/T1) and (sigma_plus sigma_minus, 1/T2).
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    d = 2**n_qubits
    jxy = mhz_to_radns(jxy_mhz)
    drift = np.zeros((d, d), dtype=complex)
    for i in range(n_qubits - 1):
        drift += jxy * (
            _op_at(SIGMA_X, i, n_qubits) @ _op_at(SIGMA_X, i + 1, n_qubits)
            + _op_at(SIGMA_Y, i, n_qubits) @ _op_at(SIGMA_Y, i + 1, n_qubits)
        )

    controls = []
    for i in range(n_qubits):
        controls.append(_op_at(SIGMA_X, i, n_qubits))
        controls.append(_op_at(SIGMA_Y, i, n_qubits))

    gamma1 = 0.0 if t1_us <= 0 else 1e-3 / t1_us
    gamma2 = 0.0 if t2_us <= 0 else 1e-3 / t2_us
    excited = SIGMA_MINUS.conj().T @ SIGMA_MINUS  # |1><1|
    lindblads = []
    for i in range(n_qubits):
        if gamma1 > 0:
            lindblads.append((_op_at(SIGMA_MINUS, i, n_qubits), gamma1))
        if gamma2 > 0:
            lindblads.append((_op_at(excited, i, n_qubits), gamma2))

    # x channels (even indices) mutually commute, as do y channels;
    # H kron ... kron H maps every sx_i to sz_i, and the y analogue below
    # maps every sy_i to sz_i.
    r_x = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    r_y = np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) / np.sqrt(2.0)
    groups = [list(range(0, 2 * n_qubits, 2)), list(range(1, 2 * n_qubits, 2))]
    diagonalizers = [kron_all([r_x] * n_qubits), kron_all([r_y] * n_qubits)]

    return OpenSystemModel(
        dim=d,
        drift=drift,
        controls=controls,
        lindblads=lindblads,
        commuting_groups=groups,
        group_diagonalizers=diagonalizers,
    )


def attach_uncertainties(model: OpenSystemModel, kind: str) -> OpenSystemModel:
    """Return a copy of ``model`` with a named uncertainty-operator set.

    kind "edges": local sx on the first and last qubit.  kind
    "couplings": the edge set plus XY coupling drifts on the first two
    bonds (needs at least 3 qubits).
    """
    n_qubits = int(round(np.log2(model.dim)))
    if 2**n_qubits != model.dim:
        raise ValueError("uncertainty presets need a qubit-chain model")
    if kind not in ("edges", "couplings"):
        raise ValueError(f"unknown uncertainty kind {kind!r}")
    ops = [_op_at(SIGMA_X, 0, n_qubits)]
    if n_qubits > 1:
        ops.append(_op_at(SIGMA_X, n_qubits - 1, n_qubits))
    if kind == "couplings":
        if n_qubits < 3:
            raise ValueError("coupling uncertainties need at least 3 qubits")
        for i in (0, 1):
            ops.append(
                _op_at(SIGMA_X, i, n_qubits) @ _op_at(SIGMA_X, i + 1, n_qubits)
                + _op_at(SIGMA_Y, i, n_qubits) @ _op_at(SIGMA_Y, i + 1, n_qubits)
            )
    return replace(model, uncertainties=ops)


def random_grid(
    n_channels: int,
    n_steps: int,
    dt: float,
    lo,
    hi,
    seed: int = 0,
) -> ControlGrid:
    """Seeded random initial control: i.i.d. uniform on [0.2*lo, 0.2*hi]."""
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n_channels,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n_channels,))
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.2 * lo[:, None], 0.2 * hi[:, None], size=(n_channels, n_steps))
    return ControlGrid(dt, u, lo, hi)
