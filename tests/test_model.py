import numpy as np
import pytest

from robustpulse.model import (
    MHZ_TO_RADNS,
    ControlGrid,
    NoiseDistribution,
    OpenSystemModel,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    attach_uncertainties,
    build_spin_chain,
    mhz_to_radns,
    radns_to_mhz,
    random_grid,
)
from robustpulse.propagate import make_trotter_plan


def test_unit_conversion_roundtrip():
    assert MHZ_TO_RADNS == pytest.approx(2e-3 * np.pi)
    x = np.array([0.0, 1.0, -30.0, 50.0])
    assert np.allclose(radns_to_mhz(mhz_to_radns(x)), x)
    # 1 MHz is 2*pi*1e-3 rad/ns
    assert mhz_to_radns(1.0) == pytest.approx(2e-3 * np.pi)


class TestControlGrid:
    def test_shapes_and_properties(self):
        g = ControlGrid(0.5, np.zeros((3, 10)), -1.0, 1.0)
        assert g.n_channels == 3
        assert g.n_steps == 10
        assert g.lo.shape == (3,)

    def test_rejects_bad_dt_and_bounds(self):
        with pytest.raises(ValueError):
            ControlGrid(0.0, np.zeros((1, 4)), -1.0, 1.0)
        with pytest.raises(ValueError):
            ControlGrid(1.0, np.zeros((1, 4)), 1.0, -1.0)

    def test_with_amplitudes_keeps_metadata(self):
        g = ControlGrid(0.5, np.zeros((2, 4)), -1.0, 2.0)
        g2 = g.with_amplitudes(np.ones((2, 4)))
        assert g2.dt == g.dt
        assert np.array_equal(g2.hi, g.hi)
        assert np.all(g2.amplitudes == 1.0)


class TestOpenSystemModel:
    def test_validation(self):
        sx = SIGMA_X
        with pytest.raises(ValueError, match="Hermitian"):
            OpenSystemModel(dim=2, drift=np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError, match="negative"):
            OpenSystemModel(dim=2, drift=np.zeros((2, 2)), lindblads=[(sx, -1.0)])
        with pytest.raises(ValueError, match="2x2"):
            OpenSystemModel(dim=2, drift=np.zeros((2, 2)), controls=[np.zeros((3, 3))])

    def test_hamiltonian_assembly(self):
        m = OpenSystemModel(dim=2, drift=0.5 * SIGMA_X, controls=[SIGMA_X, SIGMA_Y])
        h = m.hamiltonian([0.25, -1.0])
        assert np.allclose(h, 0.75 * SIGMA_X - SIGMA_Y)

    def test_collapse_stacks(self):
        m = build_spin_chain(1, t1_us=30.0, t2_us=15.0)
        assert m.collapse_stack.shape == (2, 2, 2)
        assert np.allclose(m.rates, [1e-3 / 30.0, 1e-3 / 15.0])
        cdc = m.collapse_cdc_stack
        for i in range(2):
            c = m.collapse_stack[i]
            assert np.allclose(cdc[i], c.conj().T @ c)


class TestSpinChain:
    def test_single_qubit(self):
        m = build_spin_chain(1)
        assert m.dim == 2
        assert np.allclose(m.drift, 0.0)
        assert len(m.controls) == 2
        assert np.allclose(m.controls[0], SIGMA_X)
        assert np.allclose(m.controls[1], SIGMA_Y)
        # sigma_minus decay and pure dephasing on the excited population
        assert np.allclose(m.collapse_stack[0], SIGMA_MINUS)
        assert np.allclose(m.collapse_stack[1], np.diag([0.0, 1.0]))

    def test_chain_drift_is_xy_coupling(self):
        m = build_spin_chain(2, jxy_mhz=30.0)
        jxy = mhz_to_radns(30.0)
        want = jxy * (
            np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y)
        )
        assert np.allclose(m.drift, want)
        # channel order x1, y1, x2, y2
        assert len(m.controls) == 4
        assert np.allclose(m.controls[2], np.kron(np.eye(2), SIGMA_X))

    def test_no_decay_when_times_are_zero(self):
        m = build_spin_chain(1, t1_us=0.0, t2_us=0.0)
        assert len(m.lindblads) == 0

    def test_trotter_plan_groups_x_then_y_channels(self):
        """The plan's greedy grouping of the chain's controls forms two
        groups, the x channels and then the y channels."""
        for n_qubits in range(1, 6):
            plan = make_trotter_plan(build_spin_chain(n_qubits), 0.5)
            groups = [g.channels.tolist() for g in plan.groups]
            assert groups == [list(range(0, 2 * n_qubits, 2)), list(range(1, 2 * n_qubits, 2))]


class TestUncertainties:
    def test_edges(self):
        m = attach_uncertainties(build_spin_chain(2), "edges")
        assert len(m.uncertainties) == 2
        assert np.allclose(m.uncertainties[0], np.kron(SIGMA_X, np.eye(2)))
        assert np.allclose(m.uncertainties[1], np.kron(np.eye(2), SIGMA_X))

    def test_single_qubit_has_one_edge(self):
        m = attach_uncertainties(build_spin_chain(1), "edges")
        assert len(m.uncertainties) == 1

    def test_couplings_need_three_qubits(self):
        with pytest.raises(ValueError):
            attach_uncertainties(build_spin_chain(2), "couplings")
        m = attach_uncertainties(build_spin_chain(3), "couplings")
        assert len(m.uncertainties) == 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            attach_uncertainties(build_spin_chain(2), "nonsense")


class TestNoiseDistribution:
    def test_normal_moments(self):
        dist = NoiseDistribution("normal", [0.2, 0.05], seed=1)
        eps = dist.sample(20000)
        assert eps.shape == (20000, 2)
        assert np.allclose(eps.std(axis=0), [0.2, 0.05], rtol=0.05)
        assert np.allclose(eps.mean(axis=0), 0.0, atol=0.01)

    def test_uniform_bounds_and_variance(self):
        dist = NoiseDistribution("uniform", [0.3], seed=2)
        eps = dist.sample(20000)
        half = np.sqrt(3.0) * 0.3
        assert np.max(np.abs(eps)) <= half
        assert eps.std() == pytest.approx(0.3, rel=0.05)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseDistribution("triangular", [0.1])


def test_random_grid_is_seeded_and_windowed():
    g1 = random_grid(2, 16, 0.5, -1.0, 1.0, seed=9)
    g2 = random_grid(2, 16, 0.5, -1.0, 1.0, seed=9)
    g3 = random_grid(2, 16, 0.5, -1.0, 1.0, seed=10)
    assert np.array_equal(g1.amplitudes, g2.amplitudes)
    assert not np.array_equal(g1.amplitudes, g3.amplitudes)
    # initial guesses start well inside the box
    assert np.max(np.abs(g1.amplitudes)) <= 0.2
