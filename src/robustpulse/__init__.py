"""Robust piecewise-constant pulse design for open quantum systems.

The package propagates a Taylor-augmented master equation whose blocks
carry the state's derivatives with respect to uncertain Hamiltonian
parameters, and optimises controls against objectives that trade target
fidelity against sensitivity.  Three propagation backends share one
interface: a dense supermatrix exponential, an RK4 integrator whose
substeps are sized for each step, and a symmetric operator splitting
whose control gradient is exact.
"""

__version__ = "0.1.0"
