"""Named target unitaries for state-preparation and gate-synthesis tasks."""

from __future__ import annotations

import numpy as np

from .linalg import kron_all

__all__ = ["PRESET_QUBITS", "preset_unitary"]

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

# Qubit count each preset acts on; None: any count (a Hadamard on every
# qubit).  The others are X on the last qubit controlled by all the rest.
PRESET_QUBITS = {"hadamard_transform": None, "cnot": 2, "toffoli": 3, "cccnot": 4}


def preset_unitary(name: str, dim: int) -> np.ndarray:
    """Look up a named target unitary, checking the dimension."""
    if name not in PRESET_QUBITS:
        raise ValueError(f"unknown target preset {name!r}; known: {tuple(PRESET_QUBITS)}")
    n_qubits, want = int(round(np.log2(dim))), PRESET_QUBITS[name]
    if 2**n_qubits != dim or want not in (None, n_qubits):
        need = "a power-of-two-dimensional" if want is None else f"a {2**want}-dimensional"
        raise ValueError(f"preset {name} needs {need} model, model is {dim}-dimensional")
    if name == "hadamard_transform":
        return kron_all([_H] * n_qubits)
    u = np.eye(dim, dtype=complex)
    u[dim - 2 :, dim - 2 :] = np.array([[0.0, 1.0], [1.0, 0.0]])
    return u
