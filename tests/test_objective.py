import numpy as np
import pytest

from robustpulse.augment import MultiIndexSet
from robustpulse.linalg import kron
from robustpulse.gates import preset_unitary
from robustpulse.objective import (
    GateObjective,
    RobustStateObjective,
    as_gate_objective,
    avg_gate_fidelity,
    costate_J,
    gate_basis_states,
    gate_objective,
    ground_state,
    make_gate_objective,
    overlap,
    process_fidelity,
    robust_J,
    uniform_state,
)
from robustpulse.optimize import _terminal_costates
from robustpulse.oracle import haar_mc_agf

from conftest import random_density, random_hermitian


def _random_blocks(rng, n, d):
    return rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))


def test_named_states():
    g = ground_state(4)
    assert g[0, 0] == 1.0 and np.trace(g) == 1.0
    u = uniform_state(4)
    assert np.trace(u) == pytest.approx(1.0)
    # pure: projector squares to itself
    assert np.max(np.abs(u @ u - u)) < 1e-14


def test_overlap_is_re_trace():
    rng = np.random.default_rng(1)
    rho = random_density(3, rng)
    targ = random_density(3, rng)
    assert overlap(rho, targ) == pytest.approx(np.trace(rho @ targ).real)
    # also accepts an augmented stack, reading the last block
    stack = np.stack([np.zeros((3, 3), dtype=complex), rho])
    assert overlap(stack, targ) == pytest.approx(np.trace(rho @ targ).real)


def test_robust_J_hand_value():
    mset = MultiIndexSet(1, 1)  # orders (1,), (0,)
    targ = np.diag([1.0, 0.0]).astype(complex)
    obj = RobustStateObjective.make(mset, targ, lam=2.0)
    state = np.zeros((2, 2, 2), dtype=complex)
    state[1] = np.diag([0.75, 0.25])
    state[0] = np.array([[0.0, 0.5], [0.5, 0.0]])
    # J = 0.75 - 0.5 * 2 * (0.25 + 0.25)
    assert robust_J(state, obj) == pytest.approx(0.75 - 0.5)


def test_zero_order_block_never_penalised():
    mset = MultiIndexSet(1, 1)
    obj = RobustStateObjective.make(mset, uniform_state(2), lam=5.0)
    assert obj.lam[mset.zero_index] == 0.0


def test_make_validates_inputs():
    mset = MultiIndexSet(1, 1)
    with pytest.raises(ValueError, match="Hermitian"):
        RobustStateObjective.make(mset, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="unit trace"):
        RobustStateObjective.make(
            mset, uniform_state(2), rho0=np.eye(2, dtype=complex)
        )


def test_costate_is_objective_gradient():
    """Directional finite differences of J match Re<costate, direction>."""
    mset = MultiIndexSet(2, 2)
    rng = np.random.default_rng(2)
    targ = random_density(2, rng)
    obj = RobustStateObjective.make(mset, targ, lam=0.7)
    h = 1e-6
    for trial in range(5):
        state = _random_blocks(rng, mset.size, 2)
        direction = _random_blocks(rng, mset.size, 2)
        fd = (robust_J(state + h * direction, obj) - robust_J(state - h * direction, obj)) / (2 * h)
        analytic = np.real(np.vdot(costate_J(state, obj), direction))
        assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-9), trial


class TestGateBasis:
    def test_d_plus_one(self):
        states = gate_basis_states(4, "d_plus_one")
        assert len(states) == 5
        for rho in states:
            assert np.trace(rho).real == pytest.approx(1.0)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
            # all members are pure
            assert np.max(np.abs(rho @ rho - rho)) < 1e-14

    def test_three(self):
        states = gate_basis_states(4, "three")
        assert len(states) == 3
        assert np.allclose(np.diag(states[0]).real, [0.4, 0.3, 0.2, 0.1])
        assert np.allclose(states[2], np.eye(4) / 4)
        for rho in states:
            assert np.trace(rho).real == pytest.approx(1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gate_basis_states(2, "four")


def test_make_gate_objective_structure():
    mset = MultiIndexSet(2, 1)
    u = preset_unitary("cnot", 4)
    gobj = make_gate_objective(mset, u, lam=0.5)
    assert gobj.n_states == 5
    assert np.array_equal(gobj.weights, np.full(5, 1 / 5))
    for rho0, obj in zip(gobj.state0s, gobj.per_state):
        assert np.max(np.abs(obj.target - u @ rho0 @ u.conj().T)) < 1e-13
    with pytest.raises(ValueError, match="unitary"):
        make_gate_objective(mset, np.ones((4, 4), dtype=complex))


def test_state_objective_is_a_one_state_gate_objective():
    """The one-state gate objective scores exactly as its
    state objective; without an initial state it starts from |0..0>."""
    mset = MultiIndexSet(1, 1)
    obj = RobustStateObjective.make(mset, uniform_state(4), lam=0.3)
    gobj = as_gate_objective(obj)
    assert gobj.weights.tolist() == [1.0] and gobj.per_state == [obj]
    assert np.array_equal(gobj.state0s[0], ground_state(4))
    assert as_gate_objective(gobj) is gobj
    rng = np.random.default_rng(4)
    final = rng.standard_normal((mset.size, 4, 4)) + 1j * rng.standard_normal((mset.size, 4, 4))
    assert gate_objective(final[None], gobj) == robust_J(final, obj)


def test_gate_objective_perfect_transport_scores_one():
    """With pure basis states, landing exactly on the targets gives J = 1."""
    mset = MultiIndexSet(1, 0)
    u = preset_unitary("hadamard_transform", 2)
    gobj = make_gate_objective(mset, u)
    finals = [obj.target[None, :, :].copy() for obj in gobj.per_state]
    assert gate_objective(finals, gobj) == pytest.approx(1.0, abs=1e-13)
    costates = _terminal_costates(np.stack(finals), gobj)
    assert len(costates) == 3
    assert np.max(np.abs(costates[0][-1] - gobj.weights[0] * gobj.per_state[0].target)) < 1e-13


def test_process_fidelity_identity_and_depolarizing():
    for d, name in ((2, "hadamard_transform"), (4, "cnot")):
        u = preset_unitary(name, d)
        s_u = kron(np.conj(u), u)
        assert process_fidelity(s_u, u) == pytest.approx(1.0)
        assert avg_gate_fidelity(s_u, u) == pytest.approx(1.0)
        # fully depolarizing channel: rho -> tr(rho) I/d
        ident = np.eye(d, dtype=complex)
        s_dep = np.outer(ident.reshape(d * d, order="F"), ident.reshape(d * d, order="F")) / d
        assert process_fidelity(s_dep, u) == pytest.approx(1.0 / d**2)
        assert avg_gate_fidelity(s_dep, u) == pytest.approx(1.0 / d)


def test_stacked_fidelities_equal_their_lone_calls_bit_for_bit():
    """A (..., d^2, d^2) stack gives one fidelity per member, each equal to
    the 2-D call on that member, whatever the stack's memory layout."""
    rng = np.random.default_rng(6)
    d = 4
    u = preset_unitary("cnot", d)
    chans = rng.standard_normal((6, d * d, d * d)) + 1j * rng.standard_normal((6, d * d, d * d))
    for stack in (chans, np.asfortranarray(chans), chans.reshape(2, 3, d * d, d * d)):
        got = avg_gate_fidelity(stack, u)
        assert got.shape == stack.shape[:-2]
        flat = got.reshape(-1)
        for j in range(6):
            assert flat[j] == avg_gate_fidelity(chans[j], u), j
            assert isinstance(avg_gate_fidelity(chans[j], u), float)
    with pytest.raises(ValueError, match="dimension"):
        process_fidelity(chans[:, :4], u)


def test_avg_gate_fidelity_matches_haar_average():
    """The closed-form fidelity equals the Haar integral (Monte Carlo)."""
    rng = np.random.default_rng(5)
    d = 2
    # random CPTP channel from two normalized Kraus operators
    a = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
    gram = sum(k.conj().T @ k for k in a)
    w, v = np.linalg.eigh(gram)
    inv_sqrt = v @ np.diag(w**-0.5) @ v.conj().T
    kraus = [k @ inv_sqrt for k in a]
    s_chan = sum(kron(np.conj(k), k) for k in kraus)
    u = preset_unitary("hadamard_transform", 2)
    f_closed = avg_gate_fidelity(s_chan, u)
    f_mc, stderr = haar_mc_agf(s_chan, u, samples=20000, seed=11)
    assert abs(f_closed - f_mc) < 3.0 * stderr


@pytest.mark.parametrize("kind", ["d_plus_one", "three"])
@pytest.mark.parametrize("d", [2, 4, 8])
def test_gate_objective_scores_one_at_the_targets(kind, d):
    """Each term is weighted by 1/(n tr(rho_i^2)), so that at order 0 the
    target's terminal states score J = 1 for every basis kind, although
    two of the three-state set are mixed; the pure d + 1 states keep the
    uniform weights exactly."""
    rng = np.random.default_rng(d)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    mset = MultiIndexSet(1, 0)
    gobj = make_gate_objective(mset, u, kind)
    finals = [o.target[None] for o in gobj.per_state]
    assert gate_objective(finals, gobj) == pytest.approx(1.0, abs=1e-12)
    if kind == "d_plus_one":
        assert np.array_equal(gobj.weights, np.full(d + 1, 1 / (d + 1)))
