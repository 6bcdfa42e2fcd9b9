import logging
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from robustpulse import augment, cli, config, linalg, optimize, propagate
from robustpulse.cli import _read_pulse_csv, _write_pulse_csv, main
from robustpulse.augment import initial_state
from robustpulse.config import (
    ConfigError, build_gate_objective, build_grid, build_model, build_mset,
    build_state_objective, load_config,
)
from robustpulse.model import ControlGrid, OpenSystemModel
from robustpulse.objective import GateObjective, RobustStateObjective, gate_objective, uniform_state
from robustpulse.propagate import delta_st, propagate_final, splitting_deviation


STATE_CFG = """
system:
  n_qubits: 1
  t1_us: 30
  t2_us: 30
control:
  n_steps: 6
  dt_ns: 0.5
  max_mhz: 40
  seed: 7
robustness:
  order: 1
  sigma_mhz: 2
  lam: 0.05
task:
  kind: state
  initial: ground
  target: uniform
optimizer:
  method: stgrape
  max_iters: 3
  monitor_interval: 50
"""

GATE_CFG = """
system:
  n_qubits: 1
  t1_us: 30
  t2_us: 30
control:
  n_steps: 8
  dt_ns: 0.5
  max_mhz: 40
  seed: 7
robustness:
  order: 1
  sigma_mhz: 2
  lam: 0.01
  sample_count: 12
  sweep_seed: 5
task:
  kind: gate
  gate: hadamard_transform
  basis: d_plus_one
optimizer:
  method: stgrape
  max_iters: 2
  monitor_interval: 50
"""


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigErrors:
    def test_unknown_section_exits_2(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.yaml", "physics:\n  n_qubits: 1\n")
        res = runner.invoke(main, ["simulate", "--config", cfg])
        assert res.exit_code == 2
        assert "physics" in res.stderr

    def test_unknown_field_exits_2(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.yaml", "control:\n  dt: 0.5\n")
        res = runner.invoke(main, ["simulate", "--config", cfg])
        assert res.exit_code == 2
        assert "control.dt" in res.stderr

    def test_bad_value_names_dotted_field(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.yaml", "control:\n  dt_ns: -0.5\n")
        res = runner.invoke(main, ["simulate", "--config", cfg])
        assert res.exit_code == 2
        assert "control.dt_ns" in res.stderr

    def test_several_bad_fields_name_the_same_one_under_any_hash_seed(self, tmp_path):
        cfg = _write(tmp_path, "c.yaml", "control:\n  n_steps: 0\n  dt_ns: -1\n  max_mhz: 0\n")
        code = (
            "import sys\n"
            "from robustpulse.config import ConfigError, load_config\n"
            "try:\n    load_config(sys.argv[1])\n"
            "except ConfigError as exc:\n    print(exc.field)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        named = set()
        for seed in ("1", "2", "3", "4"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            proc = subprocess.run([sys.executable, "-c", code, cfg], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            named.add(proc.stdout.strip())
        assert named == {"control.n_steps"}

    def test_exponent_without_a_dot_is_a_number(self, tmp_path):
        """Numbers read as YAML 1.2 reads them, so 1e-8, grad_tol's own
        default, and 4E+1 are numbers."""
        text = STATE_CFG.replace("max_mhz: 40", "max_mhz: 4E+1") + "  grad_tol: 1e-8\n"
        cfg = load_config(_write(tmp_path, "c.yaml", text))
        assert cfg.optimizer.grad_tol == 1e-8
        assert cfg.control.max_mhz == 40.0

    def test_malformed_yaml_exits_2_naming_the_file(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.yaml", "control:\n  n_steps: [6, 7\n  dt_ns: 0.5\n")
        res = runner.invoke(main, ["simulate", "--config", cfg])
        assert res.exit_code == 2
        assert "<file>" in res.stderr
        assert "not valid YAML" in res.stderr

    def test_quoted_exponent_is_a_string(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.yaml", STATE_CFG + '  grad_tol: "1e-8"\n')
        res = runner.invoke(main, ["optimize", "--config", cfg])
        assert res.exit_code == 2
        assert "optimizer.grad_tol" in res.stderr
        assert "expected a number" in res.stderr

    def test_bad_choice_names_dotted_field(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.yaml", "optimizer:\n  method: adam\n")
        res = runner.invoke(main, ["optimize", "--config", cfg])
        assert res.exit_code == 2
        assert "optimizer.method" in res.stderr

    def test_optimizer_backend_is_not_an_option(self, tmp_path, runner):
        """The exact backend follows from the problem size, so a config
        that still chooses one is rejected, naming the field."""
        cfg = _write(tmp_path, "c.yaml", STATE_CFG.replace(
            "method: stgrape", "method: grape\n  backend: ode"))
        res = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert "optimizer.backend" in res.stderr
        assert not (tmp_path / "o").exists()

    def test_qubit_count_is_bounded(self, tmp_path, runner):
        """Too many qubits is a config error, raised before any operator
        is built; every size up to 6 qubits is accepted."""
        state = {"kind": "state"}
        assert load_config({"system": {"n_qubits": 6}, "task": state}).system.n_qubits == 6
        for n_qubits in (7, 16):
            with pytest.raises(ConfigError, match="at most 6") as info:
                load_config({"system": {"n_qubits": n_qubits}, "task": state})
            assert info.value.field == "system.n_qubits"
        cfg = _write(tmp_path, "c.yaml", STATE_CFG.replace("n_qubits: 1", "n_qubits: 16"))
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert "system.n_qubits" in res.stderr

    def test_order_is_bounded_by_the_augmented_state_size(self, tmp_path, runner, monkeypatch):
        """An order whose augmented state, N = C(m + n, n) blocks of d^2
        numbers, is over the cap is a config error raised before the index
        set is built: 3 qubits with the coupling set (m = 4) at order 40
        has 135,751 blocks, 8.7 M numbers per state, and exits 2 at once.
        The bound is N d^2 itself: 320 at order 1, accepted up to a cap
        of 320."""
        text = STATE_CFG.replace("n_qubits: 1", "n_qubits: 3\n  uncertainty: couplings")
        cfg = _write(tmp_path, "c.yaml", text.replace("order: 1", "order: 40"))
        start = time.perf_counter()
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 2, res.output
        assert "robustness.order" in res.stderr and "N*d^2 = 8688064" in res.stderr
        small = load_config(_write(tmp_path, "s.yaml", text))
        model = build_model(small)
        for cap, ok in ((320, True), (319, False)):
            monkeypatch.setattr(config, "DEFAULT_SUPERMATRIX_CAP", cap)
            if ok:
                assert build_mset(small, model).size == 5
            else:
                with pytest.raises(ConfigError, match="N\\*d\\^2 = 320"):
                    build_mset(small, model)

    def test_order_is_bounded_by_the_forward_cache(self, tmp_path, runner, monkeypatch):
        """optimize's forward cache, (n_steps + 1) * states * N d^2 numbers,
        with the objective's state count, is bounded before anything but
        the objective is built: a 3-qubit coupling-set Toffoli
        at order 32 passes the one-state cap (N d^2 = 3,769,920) but would
        cache 1.4e9 numbers over 40 steps, and exits 2 at once.  A 6-step
        state task at order 1 caches 7 * 1 * 8 = 56, accepted up to a cap
        of 56."""
        text = GATE_CFG.replace("n_qubits: 1", "n_qubits: 3\n  uncertainty: couplings")
        text = text.replace("gate: hadamard_transform", "gate: toffoli")
        cfg = _write(tmp_path, "c.yaml", text.replace("n_steps: 8", "n_steps: 40").replace(
            "order: 1", "order: 32"))
        start = time.perf_counter()
        res = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(tmp_path / "o")])
        assert time.perf_counter() - start < 2.0
        assert res.exit_code == 2, res.output
        assert "robustness.order" in res.stderr and "1391100480 numbers" in res.stderr
        assert not (tmp_path / "o" / "pulse.csv").exists()
        small = _write(tmp_path, "s.yaml", STATE_CFG.replace("max_iters: 3", "max_iters: 1"))
        for cap, code in ((56, 0), (55, 2)):
            monkeypatch.setattr(cli, "_FORWARD_CACHE_CAP", cap)
            out = tmp_path / f"cap{cap}"
            res = runner.invoke(main, ["optimize", "--config", small, "--out", str(out)])
            assert res.exit_code == code, res.output
            assert (out / "pulse.csv").exists() == (code == 0)
        assert "the forward cache holds 56 numbers, over the cap 55" in res.stderr

    def test_couplings_on_two_qubits_names_the_uncertainty(self, tmp_path, runner):
        """The coupling set needs a third qubit; a shorter chain is a
        config error, not a traceback."""
        cfg = _write(tmp_path, "c.yaml", STATE_CFG.replace(
            "n_qubits: 1", "n_qubits: 2\n  uncertainty: couplings"))
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert "system.uncertainty" in res.stderr and "at least 3 qubits" in res.stderr

    def test_cnot_on_three_qubits_names_the_qubit_count(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.yaml", GATE_CFG.replace("n_qubits: 1", "n_qubits: 3").replace(
            "gate: hadamard_transform", "gate: cnot"))
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert "task.gate" in res.stderr and "system.n_qubits = 2" in res.stderr

    def test_sweep_rejects_state_task(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.yaml", STATE_CFG)
        res = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "task.kind" in res.stderr

    def test_negative_control_seed_names_the_field(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.yaml", STATE_CFG.replace("seed: 7", "seed: -3"))
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert "control.seed" in res.stderr and "non-negative" in res.stderr

    def test_negative_sweep_seed_names_the_field(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.yaml", GATE_CFG.replace("sweep_seed: 5", "sweep_seed: -1"))
        res = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert "robustness.sweep_seed" in res.stderr and "non-negative" in res.stderr

    def test_negative_seed_option_is_a_usage_error(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.yaml", STATE_CFG)
        out = tmp_path / "o"
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out), "--seed", "-1"])
        assert res.exit_code == 2, res.output
        assert "--seed" in res.stderr
        assert not out.exists()

    def test_state_task_builds_a_one_state_gate_objective(self, tmp_path):
        cfg = load_config(_write(tmp_path, "c.yaml", STATE_CFG.replace(
            "initial: ground", "initial: uniform").replace("target: uniform", "target: ground")))
        model = build_model(cfg)
        obj = build_state_objective(cfg, build_mset(cfg, model), model.dim)
        assert isinstance(obj, GateObjective)
        assert obj.weights.tolist() == [1.0]
        assert len(obj.state0s) == 1 and np.array_equal(obj.state0s[0], uniform_state(2))
        (term,) = obj.per_state
        assert isinstance(term, RobustStateObjective)
        assert term.rho0 is obj.state0s[0]
        assert term.target[0, 0] == 1.0 and np.count_nonzero(term.target) == 1


def test_version_flag(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert "robustpulse" in res.output


def test_commands_are_simulate_optimize_and_sweep(runner):
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0
    assert set(main.commands) == {"simulate", "optimize", "sweep"}
    assert "benchmark" not in res.output
    res = runner.invoke(main, ["benchmark"])
    assert res.exit_code == 2
    assert "No such command" in res.output


def test_simulate_reports_every_backend(tmp_path, runner):
    cfg = _write(tmp_path, "c.yaml", STATE_CFG)
    out = tmp_path / "out"
    res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert set(report["objective"]) == {"expm", "ode", "trotter"}
    vals = list(report["objective"].values())
    assert max(vals) - min(vals) < 1e-3
    assert report["splitting_deviation"] < 0.02
    assert all(v < 1e-6 for v in report["trace_defect"].values())
    assert report["n_blocks"] == 2
    assert (out / "timings.yaml").exists()


def test_simulate_gate_deviation_covers_every_input_state(tmp_path, runner):
    """A gate task's splitting deviation stacks all d + 1 input states,
    not only the first."""
    cfg_path = _write(tmp_path, "c.yaml", GATE_CFG)
    out = tmp_path / "out"
    res = runner.invoke(main, ["simulate", "--config", cfg_path, "--out", str(out)])
    assert res.exit_code == 0, res.output
    reported = yaml.safe_load((out / "report.yaml").read_text())["splitting_deviation"]
    cfg = load_config(cfg_path)
    model = build_model(cfg)
    mset = build_mset(cfg, model)
    grid = build_grid(cfg, model)
    batch = initial_state(mset, np.stack(build_gate_objective(cfg, mset, model.dim).state0s))
    assert len(batch) == 3
    assert reported == delta_st(model, mset, grid, batch)
    assert reported != delta_st(model, mset, grid, batch[0])


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"), reason="PyYAML is built without libyaml")
def test_report_is_the_same_through_either_dumper(tmp_path, runner, monkeypatch):
    """libyaml's emitter, which the reports use where PyYAML has it, writes
    a real optimize report byte for byte as PyYAML's own emitter does."""
    cfg = _write(tmp_path, "c.yaml", GATE_CFG)
    written = []
    for dumper in (yaml.SafeDumper, yaml.CSafeDumper):
        monkeypatch.setattr(cli, "_Dumper", dumper)
        out = tmp_path / dumper.__name__
        res = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        written.append((out / "report.yaml").read_bytes())
    assert written[0] == written[1]
    assert b"agf_nominal" in written[0]


def test_simulate_propagates_the_exact_chain_once(tmp_path, runner, monkeypatch):
    """The splitting deviation reuses the expm finals: one step
    exponential per control step, not one more chain for the deviation.
    A call may exponentiate a stack of steps, so the members count."""
    members = []
    real = propagate.step_propagator_expm

    def counted(model, mset, amplitudes, dt):
        members.append(1 if np.ndim(amplitudes) == 1 else np.shape(amplitudes)[1])
        return real(model, mset, amplitudes, dt)

    monkeypatch.setattr(propagate, "step_propagator_expm", counted)
    cfg = _write(tmp_path, "c.yaml", STATE_CFG)  # control.n_steps: 6
    res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    assert sum(members) == 6


def _chain_cfg(tmp_path, n_qubits, order, n_steps):
    """STATE_CFG on an ``n_qubits`` chain at ``order``, ``n_steps`` steps."""
    return _write(tmp_path, "c.yaml", STATE_CFG.replace("n_qubits: 1", f"n_qubits: {n_qubits}")
                  .replace("order: 1", f"order: {order}").replace("n_steps: 6", f"n_steps: {n_steps}"))


def test_no_expm_path_lays_out_the_dense_step(tmp_path, runner, monkeypatch):
    """At 3 qubits, order 2, no array with a side of N d^2 = 384 passes
    through the expm step propagator, its application, the block algebra
    or an exponential, on the paths of one expm step, grape_gradient,
    true_objective and simulate."""
    shapes = []

    def spy(real):
        def wrapped(*args, **kwargs):
            out = real(*args, **kwargs)
            for v in (*args, *kwargs.values(), out):
                if isinstance(v, np.ndarray):
                    shapes.append(v.shape)
            return out
        return wrapped

    for module, name in [
        (propagate, "step_propagator_expm"), (optimize, "step_propagator_expm"),
        (propagate, "apply_supermatrix"), (optimize, "apply_supermatrix"),
        (propagate, "assemble_supermatrix"), (augment, "assemble_supermatrix"),
        (propagate, "expm"), (linalg, "expm"),
        *[(augment.BlockAlgebra, m) for m in ("product", "solve", "expm", "apply")],
    ]:
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    cfg_path = _chain_cfg(tmp_path, 3, 2, 2)
    cfg = load_config(cfg_path)
    model = build_model(cfg)
    mset = build_mset(cfg, model)
    grid = build_grid(cfg, model)
    obj = build_state_objective(cfg, mset, model.dim)
    assert mset.size * model.dim**2 == 384
    blocks = initial_state(mset, np.stack(obj.state0s))
    prop = propagate.step_propagator_expm(model, mset, grid.amplitudes[:, 0], grid.dt)
    for adjoint in (False, True):
        propagate.apply_supermatrix(mset.algebra, prop, blocks, adjoint=adjoint)
    optimize.grape_gradient(model, mset, grid, obj, backend="expm")
    optimize._GateTask(model, mset, grid, obj, "stgrape").true_objective(grid.amplitudes.ravel())
    res = runner.invoke(main, ["simulate", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    assert (6, 64, 64) in shapes
    assert [s for s in shapes if 384 in s] == []


def _forbid_expm(monkeypatch):
    """Make the expm step propagator and the model's generator terms, which
    only the expm step and the oracle build, raise when reached."""

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr(propagate, "step_propagator_expm", forbidden("step_propagator_expm"))
    monkeypatch.setattr(OpenSystemModel, "generator_terms", property(forbidden("generator_terms")))


def test_simulate_above_the_rule_reports_null_for_expm(tmp_path, runner, monkeypatch):
    """At 3 qubits, order 3 (N d^2 = 640, above the 512 up to which the
    rule picks expm for one forward pass) simulate runs ode and trotter
    only: no expm step propagator and no generator terms.  expm's
    objective and trace defect are null, and the deviation is that of
    the trotter finals from the ode finals."""
    cfg_path = _chain_cfg(tmp_path, 3, 3, 2)
    cfg = load_config(cfg_path)
    model = build_model(cfg)
    mset = build_mset(cfg, model)
    grid = build_grid(cfg, model)
    assert mset.size * model.dim**2 == 640
    batch = initial_state(mset, np.stack(build_state_objective(cfg, mset, model.dim).state0s))
    finals = {b: propagate_final(b, model, mset, grid, batch) for b in ("ode", "trotter")}
    _forbid_expm(monkeypatch)
    out = tmp_path / "out"
    res = runner.invoke(main, ["simulate", "--config", cfg_path, "--out", str(out)])
    assert res.exit_code == 0, repr(res.exception)
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["objective"]["expm"] is None
    assert report["trace_defect"]["expm"] is None
    assert report["splitting_deviation"] == splitting_deviation(finals["ode"], finals["trotter"])
    for backend in ("ode", "trotter"):
        assert np.isfinite([report["objective"][backend], report["trace_defect"][backend]]).all()
    assert set(yaml.safe_load((out / "timings.yaml").read_text())["simulate_s"]) == {
        "ode", "trotter"
    }


def test_simulate_at_five_qubits_runs_no_expm_step(tmp_path, runner, monkeypatch):
    """A 5-qubit, order-1 simulate (N d^2 = 5,120) builds no expm step
    propagator and no generator terms; its deviation is finite."""
    _forbid_expm(monkeypatch)
    out = tmp_path / "out"
    res = runner.invoke(main, ["simulate", "--config", _chain_cfg(tmp_path, 5, 1, 2),
                               "--out", str(out)])
    assert res.exit_code == 0, repr(res.exception)
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["objective"]["expm"] is None
    assert np.isfinite(report["splitting_deviation"])


def test_simulate_rejects_non_finite_result(tmp_path, runner, monkeypatch):
    real = cli.propagate_final

    def broken(backend, *args, **kwargs):
        final = real(backend, *args, **kwargs)
        return final * np.nan if backend == "ode" else final

    monkeypatch.setattr(cli, "propagate_final", broken)
    cfg = _write(tmp_path, "c.yaml", STATE_CFG)
    out = tmp_path / "out"
    res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert "ode backend" in res.stderr
    assert not (out / "report.yaml").exists()


def test_optimize_verbose_logs_progress_on_stderr(tmp_path, runner):
    """--verbose prints the optimizer's progress lines on stderr; a later
    run without it in the same process prints nothing there."""
    cfg = _write(tmp_path, "c.yaml", STATE_CFG)
    res = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(tmp_path / "a"), "--verbose"])
    assert res.exit_code == 0, res.output
    assert "iter 1: J=" in res.stderr
    assert "checkpoint iter=0 trueJ=" in res.stderr
    logger = logging.getLogger("robustpulse.optimize")
    assert logger.handlers == [] and logger.level == logging.NOTSET
    res = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(tmp_path / "b")])
    assert res.exit_code == 0, res.output
    assert res.stderr == ""


def test_optimize_outputs_are_reproducible(tmp_path, runner):
    cfg = _write(tmp_path, "c.yaml", STATE_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        res = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
    assert (out1 / "report.yaml").read_bytes() == (out2 / "report.yaml").read_bytes()
    assert (out1 / "pulse.csv").read_bytes() == (out2 / "pulse.csv").read_bytes()
    report = yaml.safe_load((out1 / "report.yaml").read_text())
    assert report["method"] == "stgrape"
    assert report["stop_reason"] in ("converged", "monitor_decrease", "max_iters")
    assert len(report["iterations"]) == report["n_iterations"] + 1
    assert report["checkpoints"][0]["iteration"] == 0


def test_optimize_outputs_are_reproducible_across_processes(tmp_path):
    """Two fresh interpreters with different string hash seeds write the
    same report and pulse, byte for byte."""
    cfg = _write(tmp_path, "c.yaml", STATE_CFG)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        subprocess.run([sys.executable, "-m", "robustpulse.cli", "optimize", "--config", cfg,
                        "--out", str(out)], env=env, capture_output=True, timeout=300, check=True)
        outs.append(out)
    for name in ("report.yaml", "pulse.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_optimize_checkpoints_carry_the_splitting_objective(tmp_path, runner):
    """Each checkpoint reports the splitting (surrogate) J recorded at its
    iteration next to the true J; at iteration 0 it is the Trotter
    objective of the initial control."""
    cfg_path = _write(tmp_path, "c.yaml", STATE_CFG.replace("monitor_interval: 50", "monitor_interval: 1"))
    out = tmp_path / "out"
    res = runner.invoke(main, ["optimize", "--config", cfg_path, "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = yaml.safe_load((out / "report.yaml").read_text())
    checkpoints = report["checkpoints"]
    assert [c["iteration"] for c in checkpoints] == list(range(report["n_iterations"] + 1))
    for c in checkpoints:
        assert c["splitting_J"] == report["iterations"][c["iteration"]]
    cfg = load_config(cfg_path)
    model = build_model(cfg)
    mset = build_mset(cfg, model)
    obj = build_state_objective(cfg, mset, model.dim)
    final = propagate_final("trotter", model, mset, build_grid(cfg, model), initial_state(mset, np.stack(obj.state0s)))
    assert checkpoints[0]["splitting_J"] == gate_objective(final, obj)


def test_optimize_phases_sum_to_total(tmp_path, runner):
    cfg = _write(tmp_path, "c.yaml", GATE_CFG)
    out = tmp_path / "out"
    res = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    timings = yaml.safe_load((out / "timings.yaml").read_text())
    phases = timings["phases_s"]
    assert set(phases) == {"forward", "backward", "linesearch", "monitor", "other"}
    # each interval booked once: the phases fill the run without overlap
    total = timings["total_s"]
    assert total - 5e-3 <= sum(phases.values()) <= total + 1e-9


def test_optimize_has_no_workers_option(tmp_path, runner):
    cfg = _write(tmp_path, "c.yaml", STATE_CFG)
    res = runner.invoke(main, ["optimize", "--config", cfg, "--workers", "2"])
    assert res.exit_code == 2
    assert "--workers" in res.output


def test_optimize_seed_override_changes_start(tmp_path, runner):
    cfg = _write(tmp_path, "c.yaml", STATE_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out1), "--seed", "1"])
    r2 = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out2), "--seed", "2"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert (out1 / "pulse.csv").read_bytes() != (out2 / "pulse.csv").read_bytes()
    assert yaml.safe_load((out1 / "report.yaml").read_text())["seed"] == 1


def test_optimize_gate_task_reports_nominal_fidelity(tmp_path, runner):
    cfg = _write(tmp_path, "c.yaml", GATE_CFG)
    out = tmp_path / "out"
    res = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert 0.0 <= report["agf_nominal"] <= 1.0
    header = (out / "pulse.csv").read_text().splitlines()[0]
    assert header == "t_ns,u_1,u_2"


def test_optimize_reports_its_evaluation_counts(tmp_path, runner, monkeypatch):
    """report.yaml counts the line search's objective evaluations, the
    gradient evaluations, the gradients that reused the accepted point's
    forward sweep (those that made no forward sweep of their own), and
    the monitor's evaluations, as a spy on the task counts them, on a
    3-iteration run of the shipped state_1q config."""
    text = (Path(__file__).resolve().parents[1] / "configs" / "state_1q.yaml").read_text()
    cfg = _write(tmp_path, "c.yaml", text.replace("max_iters: 150", "max_iters: 3"))
    seen = dict.fromkeys(("objective", "gradient", "reused_forward", "monitor"), 0)
    sweeps = []
    real_forward = optimize.propagate_forward
    monkeypatch.setattr(
        optimize, "propagate_forward", lambda *a, **k: sweeps.append(1) or real_forward(*a, **k)
    )

    def spy(name, key):
        real = getattr(optimize._GateTask, name)

        def wrapped(task, x):
            seen[key] += 1
            before = len(sweeps)
            out = real(task, x)
            if name == "eval_grad":
                seen["reused_forward"] += len(sweeps) == before
            return out
        monkeypatch.setattr(optimize._GateTask, name, wrapped)

    for name, key in (("evaluate", "objective"), ("eval_grad", "gradient"),
                      ("true_objective", "monitor")):
        spy(name, key)
    out = tmp_path / "out"
    res = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["n_iterations"] == 3 and report["stop_reason"] == "max_iters"
    assert report["evaluations"] == seen
    assert seen["gradient"] == 4 and seen["reused_forward"] == 3 and seen["monitor"] == 2


def test_optimize_state_task_makes_one_gate_driver_call(tmp_path, runner, monkeypatch):
    """A state task runs through the gate driver, for either method."""
    calls = []
    real = cli.run_gate_synthesis

    def spy(*args, **kwargs):
        calls.append(kwargs["method"])
        return real(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("state tasks go through run_gate_synthesis")

    monkeypatch.setattr(cli, "run_gate_synthesis", spy)
    monkeypatch.setattr(cli, "run_stgrape", forbidden)
    monkeypatch.setattr(cli, "run_grape", forbidden)
    for method in ("stgrape", "grape"):
        cfg = _write(tmp_path, f"{method}.yaml", STATE_CFG.replace("method: stgrape", f"method: {method}"))
        res = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(tmp_path / method)])
        assert res.exit_code == 0, res.output
    assert calls == ["stgrape", "grape"]


def test_sweep_smoke_with_pulse_file(tmp_path, runner):
    cfg = _write(tmp_path, "c.yaml", GATE_CFG)
    out = tmp_path / "out"
    res = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(
        main,
        ["sweep", "--config", cfg, "--out", str(out), "--pulse", str(out / "pulse.csv")],
    )
    assert res.exit_code == 0, res.output
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "sample,eps_1_mhz,f_agf,gate_error"
    assert len(rows) == 1 + 12
    report = yaml.safe_load((out / "sweep_report.yaml").read_text())
    cdf = [report["error_cdf"][k] for k in ("0.01", "0.02", "0.05", "0.1")]
    assert all(a <= b + 1e-12 for a, b in zip(cdf, cdf[1:]))
    assert report["mean_gate_error"] >= 0.0
    assert report["pulse"].endswith("pulse.csv")


def test_sweep_keeps_optimize_outputs(tmp_path, runner):
    """optimize then sweep into one directory: the optimize report and
    timings survive, and the sweep writes its own sweep_ files."""
    cfg = _write(tmp_path, "c.yaml", GATE_CFG)
    out = tmp_path / "out"
    res = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    before = {n: (out / n).read_bytes() for n in ("report.yaml", "timings.yaml")}
    res = runner.invoke(
        main,
        ["sweep", "--config", cfg, "--out", str(out), "--pulse", str(out / "pulse.csv")],
    )
    assert res.exit_code == 0, res.output
    assert {n: (out / n).read_bytes() for n in before} == before
    assert "sweep_s" in yaml.safe_load((out / "sweep_timings.yaml").read_text())
    assert "mean_gate_error" in yaml.safe_load((out / "sweep_report.yaml").read_text())


def test_sweep_rejects_non_finite_pulse(tmp_path, runner):
    cfg = _write(tmp_path, "c.yaml", GATE_CFG)
    pulse = tmp_path / "p.csv"
    pulse.write_text("t_ns,u_1,u_2\n0,1,2\n0.5,nan,2\n1,1,2\n")
    res = runner.invoke(
        main, ["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--pulse", str(pulse)]
    )
    assert res.exit_code == 2, res.output
    assert "non-finite" in res.output


def test_sweep_rejects_out_of_box_pulse(tmp_path, runner):
    cfg = _write(tmp_path, "c.yaml", GATE_CFG.replace("max_mhz: 40", "max_mhz: 100"))
    pulse = tmp_path / "p.csv"
    pulse.write_text("t_ns,u_1,u_2\n0,1,2\n0.5,150,2\n1,1,2\n")
    res = runner.invoke(
        main, ["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--pulse", str(pulse)]
    )
    assert res.exit_code == 2, res.output
    assert "row 2 channel u_1" in res.output and "control.max_mhz" in res.output


def test_sweep_rejects_non_finite_fidelity(tmp_path, runner, monkeypatch):
    real = cli.noise_sweep

    def broken(*args, **kwargs):
        result = real(*args, **kwargs)
        result.fidelities[3] = np.nan
        return result

    monkeypatch.setattr(cli, "noise_sweep", broken)
    cfg = _write(tmp_path, "c.yaml", GATE_CFG)
    out = tmp_path / "out"
    res = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert "noise sample 3" in res.stderr
    assert not (out / "sweep.csv").exists()


def test_sweep_rejects_pulse_with_other_dt(tmp_path, runner):
    cfg = _write(tmp_path, "c.yaml", GATE_CFG)  # control.dt_ns: 0.5
    pulse = tmp_path / "p.csv"
    pulse.write_text("t_ns,u_1,u_2\n0,1,2\n2,1,2\n4,1,2\n")
    res = runner.invoke(
        main, ["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--pulse", str(pulse)]
    )
    assert res.exit_code == 2, res.output
    assert "dt_ns" in res.output


def test_sweep_rejects_pulse_with_other_row_count(tmp_path, runner):
    cfg = _write(tmp_path, "c.yaml", GATE_CFG)  # control.n_steps: 8
    pulse = tmp_path / "p.csv"
    pulse.write_text("t_ns,u_1,u_2\n0,1,2\n")
    out = tmp_path / "out"
    res = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out), "--pulse", str(pulse)])
    assert res.exit_code == 2, res.output
    assert "1 pulse rows" in res.output and "control.n_steps = 8" in res.output
    assert not (out / "sweep.csv").exists()


class TestPulseCsv:
    def _template(self, n_channels=2, n_steps=5):
        return ControlGrid(0.5, np.zeros((n_channels, n_steps)), -0.5, 0.5)

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = ControlGrid(0.5, rng.uniform(-0.4, 0.4, (2, 5)), -0.5, 0.5)
        path = tmp_path / "p.csv"
        _write_pulse_csv(path, grid)
        back = _read_pulse_csv(path, self._template())
        assert back.dt == pytest.approx(grid.dt)
        assert np.allclose(back.amplitudes, grid.amplitudes, atol=1e-12)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("time,u_1\n0,1\n")
        with pytest.raises(ConfigError):
            _read_pulse_csv(path, self._template(1))

    def test_channel_mismatch_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        _write_pulse_csv(path, ControlGrid(0.5, np.zeros((1, 4)), -1, 1))
        with pytest.raises(ConfigError):
            _read_pulse_csv(path, self._template(2))

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        for body in ("0,1\n0.5,one\n", "0,1\n0.5\n"):
            path.write_text("t_ns,u_1\n" + body)
            with pytest.raises(ConfigError, match="malformed"):
                _read_pulse_csv(path, self._template(1))

    @pytest.mark.parametrize("row", ["0.0,1.0", "0.0,1,1,1,1,1"])
    def test_rows_of_the_wrong_width_rejected(self, tmp_path, row):
        """Rows that all disagree with the header's width, too short or too
        long, name the first such row and its width."""
        path = tmp_path / "p.csv"
        path.write_text("t_ns,u_1,u_2,u_3,u_4\n" + f"{row}\n" * 5)
        width = len(row.split(","))
        with pytest.raises(ConfigError, match=f"pulse row 1 has {width} columns, the header 5"):
            _read_pulse_csv(path, self._template(4))

    def test_nonuniform_grid_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("t_ns,u_1\n0,1\n0.5,1\n1.7,1\n")
        with pytest.raises(ConfigError):
            _read_pulse_csv(path, self._template(1))
