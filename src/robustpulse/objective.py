"""Objectives on terminal augmented states.

The primary figure of merit is the target overlap of the physical
(zero-order) block minus a weighted quadratic penalty on the Taylor
coefficient blocks; driving those blocks to zero flattens the response
to the uncertain parameters.  A gate objective weights one such term per
input state (a state task has one); state sets and fidelities live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import MultiIndexSet
from .linalg import is_hermitian, kron

__all__ = [
    "overlap",
    "RobustStateObjective",
    "robust_J",
    "costate_J",
    "gate_basis_states",
    "GateObjective",
    "make_gate_objective",
    "as_gate_objective",
    "gate_objective",
    "process_fidelity",
    "avg_gate_fidelity",
    "ground_state",
    "uniform_state",
]


def ground_state(d: int) -> np.ndarray:
    """|0...0><0...0|."""
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def uniform_state(d: int) -> np.ndarray:
    """Pure uniform-superposition projector: every entry 1/d."""
    return np.full((d, d), 1.0 / d, dtype=complex)


def overlap(state_T: np.ndarray, target: np.ndarray) -> float:
    """Re tr(rho_0(T) target) on the physical block of an augmented state."""
    rho = state_T[-1] if state_T.ndim == 3 else state_T
    return float(np.real(np.sum(rho.T * target)))


@dataclass
class RobustStateObjective:
    """Target overlap plus quadratic penalties on the coefficient blocks.

    ``lam[k]`` weights the squared Frobenius norm of block k; the
    zero-order entry is zero.
    """

    target: np.ndarray
    lam: np.ndarray
    rho0: np.ndarray | None = None  # initial physical state, when the task has one

    @classmethod
    def make(
        cls, mset: MultiIndexSet, target: np.ndarray, rho0=None, lam: float = 1.0
    ) -> "RobustStateObjective":
        target = np.asarray(target, dtype=complex)
        if not is_hermitian(target, tol=1e-10):
            raise ValueError("target state must be Hermitian")
        if rho0 is not None:
            rho0 = np.asarray(rho0, dtype=complex)
            if not is_hermitian(rho0, tol=1e-10):
                raise ValueError("initial state must be Hermitian")
            if abs(np.trace(rho0).real - 1.0) > 1e-8:
                raise ValueError("initial state must have unit trace")
        lam_blocks = np.full(mset.size, float(lam))
        lam_blocks[mset.zero_index] = 0.0
        return cls(target=target, lam=lam_blocks, rho0=rho0)


def robust_J(state_T: np.ndarray, obj: RobustStateObjective) -> float:
    """J = Re tr(rho_0(T) target) - 1/2 sum_p lam_p ||rho_p(T)||_F^2."""
    j = overlap(state_T, obj.target)
    norms2 = np.sum(np.abs(state_T) ** 2, axis=(1, 2))
    return float(j - 0.5 * np.dot(obj.lam, norms2))


def costate_J(state_T: np.ndarray, obj: RobustStateObjective) -> np.ndarray:
    """Terminal co-state of :func:`robust_J`: the gradient of J with
    respect to each block under the Hilbert-Schmidt pairing."""
    out = -obj.lam[:, None, None] * state_T
    out[-1] = obj.target
    return out


# --------------------------------------------------------------- gate tasks


def gate_basis_states(d: int, kind: str = "d_plus_one") -> list:
    """Input-state sets whose transport pins down a unitary channel.

    "d_plus_one": the d computational projectors plus the uniform
    pure state (all entries 1/d); all pure, so a perfect gate scores
    overlap 1 on each.  "three": the classic three-state set; its third
    member (the identity) is returned trace-normalized to I/d.
    """
    if kind == "d_plus_one":
        states = []
        for i in range(d):
            rho = np.zeros((d, d), dtype=complex)
            rho[i, i] = 1.0
            states.append(rho)
        states.append(uniform_state(d))
        return states
    if kind == "three":
        diag = 2.0 * (d - np.arange(1, d + 1) + 1) / (d * (d + 1))
        return [
            np.diag(diag).astype(complex),
            uniform_state(d),
            np.eye(d, dtype=complex) / d,
        ]
    raise ValueError(f"unknown basis kind {kind!r}")


@dataclass
class GateObjective:
    """Weighted multi-state robust objective for synthesising a unitary."""

    weights: np.ndarray
    state0s: list
    per_state: list  # RobustStateObjective per input state

    @property
    def n_states(self) -> int:
        return len(self.state0s)


def make_gate_objective(
    mset: MultiIndexSet,
    u_target: np.ndarray,
    kind: str = "d_plus_one",
    lam: float = 1.0,
) -> GateObjective:
    """Build the d+1 (or three) state-transport objectives for a target
    unitary, term i of n weighted by 1/(n tr(rho_i^2)) so that a perfect
    gate scores 1 (uniform weights for the pure d+1 states)."""
    u_target = np.asarray(u_target, dtype=complex)
    d = u_target.shape[0]
    if np.max(np.abs(u_target.conj().T @ u_target - np.eye(d))) > 1e-10:
        raise ValueError("gate target must be unitary")
    states = gate_basis_states(d, kind)
    per_state = [
        RobustStateObjective.make(mset, u_target @ rho @ u_target.conj().T, lam=lam)
        for rho in states
    ]
    purities = np.array([np.vdot(rho, rho).real for rho in states])
    weights = 1.0 / (len(states) * purities)
    return GateObjective(weights=weights, state0s=states, per_state=per_state)


def as_gate_objective(obj: RobustStateObjective | GateObjective) -> GateObjective:
    """A state objective as the gate objective with its one input state
    (default |0...0><0...0|) at weight 1; a gate objective unchanged."""
    if isinstance(obj, GateObjective):
        return obj
    rho0 = obj.rho0 if obj.rho0 is not None else ground_state(obj.target.shape[0])
    return GateObjective(weights=np.ones(1), state0s=[rho0], per_state=[obj])


def gate_objective(states_T: list, gobj: GateObjective) -> float:
    """Weighted sum of the per-state robust objectives."""
    if len(states_T) != gobj.n_states:
        raise ValueError("one terminal state per basis state required")
    return float(
        sum(w * robust_J(s, o) for w, s, o in zip(gobj.weights, states_T, gobj.per_state))
    )


def process_fidelity(channel_super: np.ndarray, u_target: np.ndarray):
    """tr(S_U^dag S_Lambda) / d^2 for a column-stacking channel matrix, or
    for each member of a (..., d^2, d^2) stack of them (then an array)."""
    d = u_target.shape[0]
    if channel_super.shape[-2:] != (d * d, d * d):
        raise ValueError("channel matrix dimension does not match the target")
    s_u = kron(np.conj(u_target), u_target)
    # one sum over the d^4 contiguous entries of each member, in the same
    # order whatever the stack's size or layout: a member's fidelity is bit
    # for bit that of its lone call
    prods = np.ascontiguousarray(np.conj(s_u) * channel_super)
    prods = prods.reshape(channel_super.shape[:-2] + (d**4,))
    f_pro = np.real(np.sum(prods, axis=-1)) / d**2
    return float(f_pro) if channel_super.ndim == 2 else f_pro


def avg_gate_fidelity(channel_super: np.ndarray, u_target: np.ndarray):
    """Average gate fidelity (d F_pro + 1) / (d + 1), of one channel or of
    each member of a stack."""
    d = u_target.shape[0]
    return (d * process_fidelity(channel_super, u_target) + 1.0) / (d + 1.0)
