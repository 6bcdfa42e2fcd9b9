"""Checks for the independent reference implementations.

The oracle propagates the plain d x d master equation at fixed
uncertainty strengths; everything here cross-validates it against
analytic facts and against the augmented propagation it is meant to
certify.
"""

import numpy as np
import pytest

from robustpulse import model as model_module, oracle
from robustpulse.augment import MultiIndexSet, initial_state, mat_lindblad
from robustpulse.linalg import HermitianBasis, kron, vec
from robustpulse.gates import preset_unitary
from robustpulse.model import (
    ControlGrid,
    NoiseDistribution,
    OpenSystemModel,
    attach_uncertainties,
    build_spin_chain,
    mhz_to_radns,
)
from robustpulse.objective import avg_gate_fidelity
from robustpulse.oracle import (
    fd_taylor_block,
    haar_mc_agf,
    noise_sweep,
    noisy_channel_super,
    noisy_liouvillian,
    propagate_noisy_exact,
)
from robustpulse.propagate import propagate_backward, propagate_final, propagate_forward

from conftest import hermitian_basis_matrix, random_density, scipy_steps, small_grid


def _in_basis(m, d):
    """T^dag M T with the dense unitary T of the Hermitian basis."""
    t = hermitian_basis_matrix(d)
    return t.conj().T @ m @ t


def test_noisy_liouvillian_nominal_matches_block_generator(one_qubit):
    """At eps = 0 the oracle generator is the package's Lindblad matrix in
    the Hermitian basis, and it is real."""
    amps = np.array([0.2, -0.1])
    got = noisy_liouvillian(one_qubit, amps, np.zeros(1))
    want = _in_basis(mat_lindblad(one_qubit.hamiltonian(amps), one_qubit.lindblads), 2)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - want)) < 1e-13


def test_noisy_liouvillian_adds_uncertainty(one_qubit):
    amps = np.zeros(2)
    eps = np.array([0.3])
    got = noisy_liouvillian(one_qubit, amps, eps)
    base = noisy_liouvillian(one_qubit, amps, np.zeros(1))
    e = one_qubit.uncertainties[0]
    ident = np.eye(2, dtype=complex)
    drive = _in_basis(-1j * (kron(ident, e) - kron(e.T, ident)) * 0.3, 2)
    assert np.max(np.abs(got - base - drive)) < 1e-13


def test_nominal_channel_matches_augmented_zero_block(one_qubit):
    """eps = 0 oracle and the augmented zero-order block agree."""
    mset = MultiIndexSet(1, 2)
    grid = small_grid(one_qubit, n_steps=6, dt=0.5, seed=13)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    direct = propagate_noisy_exact(one_qubit, grid, rho0, np.zeros(1))
    final = propagate_final("expm", one_qubit, mset, grid, initial_state(mset, rho0))
    assert np.max(np.abs(final[-1] - direct)) < 1e-11


class TestTaylorStencils:
    def _setup(self, model):
        grid = small_grid(model, n_steps=5, dt=0.5, seed=14)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        return grid, rho0

    def test_order_zero_passthrough(self, one_qubit):
        grid, rho0 = self._setup(one_qubit)
        got = fd_taylor_block(one_qubit, grid, rho0, (0,))
        want = propagate_noisy_exact(one_qubit, grid, rho0, np.zeros(1))
        assert np.max(np.abs(got - want)) < 1e-13

    def test_first_order_matches_augmented(self, one_qubit):
        grid, rho0 = self._setup(one_qubit)
        mset = MultiIndexSet(1, 1)
        final = propagate_final("expm", one_qubit, mset, grid, initial_state(mset, rho0))
        fd = fd_taylor_block(one_qubit, grid, rho0, (1,))
        scale = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(final[mset.index[(1,)]] - fd)) / scale < 1e-6

    def test_diagonal_second_order_matches_augmented(self, one_qubit):
        grid, rho0 = self._setup(one_qubit)
        mset = MultiIndexSet(1, 2)
        final = propagate_final("expm", one_qubit, mset, grid, initial_state(mset, rho0))
        fd = fd_taylor_block(one_qubit, grid, rho0, (2,))
        scale = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(final[mset.index[(2,)]] - fd)) / scale < 1e-4

    def test_mixed_second_order_matches_augmented(self, two_qubit):
        grid = small_grid(two_qubit, n_steps=4, dt=0.5, seed=15)
        rho0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        mset = MultiIndexSet(2, 2)
        final = propagate_final("expm", two_qubit, mset, grid, initial_state(mset, rho0))
        fd = fd_taylor_block(two_qubit, grid, rho0, (1, 1))
        scale = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(final[mset.index[(1, 1)]] - fd)) / scale < 1e-4

    def test_order_above_two_rejected(self, one_qubit):
        grid, rho0 = self._setup(one_qubit)
        with pytest.raises(ValueError):
            fd_taylor_block(one_qubit, grid, rho0, (3,))

    def test_step_stability(self, one_qubit):
        """The stencil estimate barely moves when its step h is halved."""
        grid, rho0 = self._setup(one_qubit)
        a = fd_taylor_block(one_qubit, grid, rho0, (1,), h=1e-4)
        b = fd_taylor_block(one_qubit, grid, rho0, (1,), h=0.5e-4)
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-6


def test_taylor_remainder_shrinks_by_parity(one_qubit):
    """Augmented blocks are true Taylor coefficients.  Splitting the
    remainder by parity in eps isolates the leading neglected term of
    each sector: the odd part is O(eps^3) (error ratio ~8 when eps
    halves) and the even part is O(eps^4) (ratio ~16), with no
    cross-order interference."""
    mset = MultiIndexSet(1, 2)
    grid = small_grid(one_qubit, n_steps=6, dt=0.5, seed=16)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    targ = np.full((2, 2), 0.5, dtype=complex)
    final = propagate_final("expm", one_qubit, mset, grid, initial_state(mset, rho0))
    coeff = {p[0]: np.trace(targ @ final[k]).real for k, p in enumerate(mset.orders)}

    def true_value(eps):
        rho = propagate_noisy_exact(one_qubit, grid, rho0, np.array([eps]))
        return np.trace(targ @ rho).real

    def odd_remainder(eps):
        return 0.5 * (true_value(eps) - true_value(-eps)) - eps * coeff[1]

    def even_remainder(eps):
        half_sum = 0.5 * (true_value(eps) + true_value(-eps))
        return half_sum - coeff[0] - eps ** 2 * coeff[2]

    odd = [abs(odd_remainder(e)) for e in (0.1, 0.05)]
    even = [abs(even_remainder(e)) for e in (0.1, 0.05)]
    assert 6.5 < odd[0] / odd[1] < 9.5, odd
    assert 13.0 < even[0] / even[1] < 19.0, even


def test_haar_mc_identity_channel():
    d = 4
    u = preset_unitary("cnot", d)
    s_u = kron(np.conj(u), u)
    mean, stderr = haar_mc_agf(s_u, u, samples=2000, seed=3)
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert stderr < 1e-12


def test_haar_mc_depolarizing_channel():
    d = 2
    ident = np.eye(d, dtype=complex)
    s_dep = np.outer(vec(ident), vec(ident)) / d
    u = preset_unitary("hadamard_transform", d)
    mean, stderr = haar_mc_agf(s_dep, u, samples=50000, seed=4)
    # every pure state scores exactly 1/2 under full depolarization at
    # d = 2, so the sample variance collapses; keep an absolute floor.
    assert abs(mean - 0.5) < max(4 * stderr, 1e-12)
    assert stderr < 0.01


class TestNoiseSweep:
    def _run(self, model):
        grid = small_grid(model, n_steps=4, dt=0.5, seed=17)
        dist = NoiseDistribution("normal", [0.05], seed=21)
        u = preset_unitary("hadamard_transform", 2)
        return noise_sweep(model, grid, u, dist, 40)

    def test_shapes_and_determinism(self, one_qubit):
        r1 = self._run(one_qubit)
        r2 = self._run(one_qubit)
        assert r1.eps.shape == (40, 1)
        assert r1.fidelities.shape == (40,)
        assert np.array_equal(r1.eps, r2.eps)
        assert np.array_equal(r1.fidelities, r2.fidelities)

    def test_statistics(self, one_qubit):
        r = self._run(one_qubit)
        assert np.all(r.gate_errors == 1.0 - r.fidelities)
        assert r.mean_error == pytest.approx(float(np.mean(r.gate_errors)))
        cdf = r.cdf([0.01, 0.1, 1.0])
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(1.0)

    def test_fidelity_matches_single_channel(self, one_qubit):
        r = self._run(one_qubit)
        grid = small_grid(one_qubit, n_steps=4, dt=0.5, seed=17)
        u = preset_unitary("hadamard_transform", 2)
        chan = noisy_channel_super(one_qubit, grid, r.eps[7])
        assert r.fidelities[7] == pytest.approx(avg_gate_fidelity(chan, u))

    @pytest.mark.parametrize("per_chunk,sizes", [(1, [1] * 40), (3, [3] * 13 + [1])])
    def test_chunks_give_the_one_stack_fidelities(self, one_qubit, monkeypatch, chunk_sizes,
                                                  per_chunk, sizes):
        """With the stack bound lowered so that a chunk holds ``per_chunk``
        samples, the sweep runs in chunks and its fidelities are bit for bit
        those of the single 40-sample stack."""
        whole = self._run(one_qubit)
        monkeypatch.setattr(oracle, "_SWEEP_STACK_BYTES", per_chunk * 16 * one_qubit.dim**4)
        chunked = self._run(one_qubit)
        assert chunk_sizes == [40] + sizes
        assert np.array_equal(chunked.eps, whole.eps)
        assert chunked.fidelities.tobytes() == whole.fidelities.tobytes()

    def test_two_qubit_sweep_of_fifty_samples_is_one_chunk(self, two_qubit, chunk_sizes):
        """Under the default bound a 2-qubit sweep of 50 samples, the size
        perfbench sweeps, stays one stack."""
        grid = small_grid(two_qubit, n_steps=2, dt=0.5, seed=17)
        dist = NoiseDistribution("normal", [0.05, 0.05], seed=21)
        noise_sweep(two_qubit, grid, preset_unitary("cnot", 4), dist, 50)
        assert chunk_sizes == [50]


@pytest.fixture
def chunk_sizes(monkeypatch):
    """Sample count of each channel stack that noise_sweep builds."""
    sizes = []
    real = oracle.noisy_channel_super

    def recorded(model, grid, eps):
        sizes.append(len(eps))
        return real(model, grid, eps)

    monkeypatch.setattr(oracle, "noisy_channel_super", recorded)
    return sizes


def test_one_sample_channel_is_the_first_of_its_batch(two_qubit):
    """eps of shape (m,) gives bit for bit the channel that eps[None] gives
    as the only member of a batch, and a batch member equals its lone run."""
    grid = small_grid(two_qubit, n_steps=3, dt=0.5, seed=8)
    eps = np.array([[0.07, -0.02], [0.3, 0.11], [-0.5, 0.0]])
    single = noisy_channel_super(two_qubit, grid, eps[0])
    assert single.shape == (16, 16)
    assert np.array_equal(single, noisy_channel_super(two_qubit, grid, eps[:1])[0])
    batch = noisy_channel_super(two_qubit, grid, eps)
    assert batch.shape == (3, 16, 16)
    for j in range(3):
        assert np.array_equal(batch[j], noisy_channel_super(two_qubit, grid, eps[j]))


@pytest.mark.parametrize("eps", [np.zeros(3), np.zeros((4, 3)), np.zeros((4, 1)), np.zeros((2, 2, 2))])
def test_wrong_strength_width_is_rejected(two_qubit, eps):
    grid = small_grid(two_qubit, n_steps=2)
    with pytest.raises(ValueError, match="one strength per uncertainty"):
        noisy_liouvillian(two_qubit, grid.amplitudes[:, 0], eps)
    with pytest.raises(ValueError, match="one strength per uncertainty"):
        noisy_channel_super(two_qubit, grid, eps)


def test_collapse_terms_are_built_once_per_propagation(two_qubit, monkeypatch):
    """The generator terms depend on neither the step, the sample nor the
    amplitudes: the model builds them on first use (one mat_commutator
    per -i[H, .] term and one mat_dissipator for all collapse operators)
    and keeps them, so no later step builds one: not an oracle channel or
    state propagation, nor an expm sweep, forward or adjoint."""
    grid = small_grid(two_qubit, n_steps=5)
    eps = np.array([[0.07, -0.02], [0.3, 0.11]])
    terms = 1 + len(two_qubit.controls) + two_qubit.n_uncertainties
    calls = []

    def counted(name):
        real = getattr(model_module, name)

        def wrapped(*args):
            calls.append(name)
            return real(*args)
        return wrapped

    for name in ("mat_commutator", "mat_dissipator"):
        monkeypatch.setattr(model_module, name, counted(name))
    noisy_channel_super(two_qubit, grid, eps)
    assert sorted(calls) == ["mat_commutator"] * terms + ["mat_dissipator"]
    built = two_qubit.generator_terms
    calls.clear()
    noisy_channel_super(two_qubit, grid, eps)
    propagate_noisy_exact(two_qubit, grid, np.eye(4, dtype=complex) / 4, eps[0])
    mset = MultiIndexSet(2, 1)
    s0 = initial_state(mset, np.eye(4, dtype=complex) / 4)
    propagate_final("expm", two_qubit, mset, grid, s0)
    fwd = propagate_forward("expm", two_qubit, mset, grid, s0)
    propagate_backward(two_qubit, mset, grid, fwd.final, fwd)
    assert calls == []
    assert two_qubit.generator_terms is built


def test_channel_steps_equal_the_direct_generator(two_qubit):
    """Reusing the generator terms changes no bit: the channel equals the
    product of step exponentials of noisy_liouvillian's direct result,
    mapped back from the Hermitian basis."""
    grid = small_grid(two_qubit, n_steps=4, seed=5)
    eps = np.array([[0.07, -0.02], [0.3, 0.11]])
    want = np.eye(16)
    for step in range(grid.n_steps):
        gen = noisy_liouvillian(two_qubit, grid.amplitudes[:, step], eps)
        want = oracle.linalg.expm(grid.dt * gen) @ want
    assert want.dtype == np.float64
    want = HermitianBasis(4).complex_map(want)
    assert np.array_equal(noisy_channel_super(two_qubit, grid, eps), want)


def test_a_generator_that_cancels_to_roundoff_is_real():
    """On one level, a complex collapse operator's dissipator cancels to
    roundoff; judged against the collapse operator and not against its
    own entries, it passes the realness check, and the channel is the
    identity."""
    model = OpenSystemModel(
        dim=1, drift=np.zeros((1, 1)), lindblads=[(np.array([[0.3 + 0.7j]]), 0.1)]
    )
    grid = ControlGrid(0.5, np.zeros((0, 3)), np.zeros(0), np.zeros(0))
    assert np.array_equal(noisy_channel_super(model, grid, np.zeros(0)), np.eye(1))


def _agf_scipy(model, grid, eps, u_target):
    """Average gate fidelity of the noisy channel of :func:`scipy_steps`."""
    d = model.dim
    s = np.eye(d * d, dtype=complex)
    for step in scipy_steps(model, grid, eps):
        s = step @ s
    s_u = np.kron(u_target.conj(), u_target)
    f_pro = float(np.real(np.vdot(s_u, s))) / d**2
    return (d * f_pro + 1.0) / (d + 1.0)


@pytest.mark.parametrize(
    "name, eps", [("one_qubit", [0.12]), ("two_qubit", [0.07, -0.05])], ids=["1q", "2q"]
)
def test_state_propagation_agrees_with_an_independent_scipy_reference(name, eps, request):
    """A noisy state propagation agrees to 1e-12 with vec(rho0) carried
    through scipy's expm of the complex np.kron Liouvillian, step by step."""
    model = request.getfixturevalue(name)
    d = model.dim
    grid = small_grid(model, n_steps=5, dt=0.5, seed=12)
    rho0 = random_density(d, np.random.default_rng(30))
    want = rho0.reshape(d * d, order="F")
    for step in scipy_steps(model, grid, eps):
        want = step @ want
    got = propagate_noisy_exact(model, grid, rho0, np.array(eps))
    assert np.max(np.abs(got - want.reshape(d, d, order="F"))) < 1e-12


def test_sweep_agrees_with_an_independent_scipy_reference():
    """Three samples of a 2-qubit CNOT sweep of a pulse spanning the full
    +-100 MHz box agree to 1e-10 with channels that use neither the
    Hermitian basis nor the package's expm."""
    model = attach_uncertainties(build_spin_chain(2), "edges")
    bound = mhz_to_radns(100.0)
    amps = np.random.default_rng(901).uniform(-bound, bound, (len(model.controls), 40))
    grid = ControlGrid(0.5, amps, -bound, bound)
    u = preset_unitary("cnot", 4)
    dist = NoiseDistribution("normal", [mhz_to_radns(2.0)] * 2, seed=902)
    result = noise_sweep(model, grid, u, dist, 9)
    for i in (0, 4, 8):
        assert abs(result.fidelities[i] - _agf_scipy(model, grid, result.eps[i], u)) <= 1e-10, i
