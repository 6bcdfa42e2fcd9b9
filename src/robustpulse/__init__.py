"""Robust piecewise-constant pulse design for open quantum systems.

The package propagates a Taylor-augmented master equation whose blocks
carry the state's derivatives with respect to uncertain Hamiltonian
parameters, and optimises controls against objectives that trade target
fidelity against sensitivity.  Three propagation backends share one
interface: the step exponential in the block algebra of the augmented
generator, the action of each step's exponential on the blocks by a
truncated Taylor series (both exact to roundoff; the code picks the
faster from the problem size), and a symmetric operator splitting whose
control gradient is exact.
"""

__version__ = "0.1.0"
