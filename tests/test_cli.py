import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from robustpulse import augment, cli, propagate
from robustpulse.cli import _read_pulse_csv, _write_pulse_csv, main
from robustpulse.augment import initial_state
from robustpulse.config import (
    ConfigError, build_gate_objective, build_grid, build_model, build_mset, load_config,
)
from robustpulse.model import ControlGrid
from robustpulse.propagate import delta_st


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

    def test_bad_choice_names_dotted_field(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.yaml", "optimizer:\n  method: adam\n")
        res = runner.invoke(main, ["optimize", "--config", cfg])
        assert res.exit_code == 2
        assert "optimizer.method" in res.stderr

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


def test_simulate_propagates_the_exact_chain_once(tmp_path, runner, monkeypatch):
    """The splitting deviation reuses the expm finals: one step
    propagator per control step, not one more chain for the deviation."""
    calls = []
    real = propagate.step_propagator_expm

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(propagate, "step_propagator_expm", counted)
    cfg = _write(tmp_path, "c.yaml", STATE_CFG)  # control.n_steps: 6
    res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    assert len(calls) == 6


def test_simulate_over_the_cap_reports_null_for_expm(tmp_path, runner, monkeypatch):
    monkeypatch.setattr(augment, "DEFAULT_SUPERMATRIX_CAP", 2)
    cfg = _write(tmp_path, "c.yaml", STATE_CFG)
    out = tmp_path / "out"
    res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["objective"]["expm"] is None
    assert report["trace_defect"]["expm"] is None
    assert report["splitting_deviation"] is None
    for backend in ("ode", "trotter"):
        assert np.isfinite([report["objective"][backend], report["trace_defect"][backend]]).all()


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

    def test_nonuniform_grid_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("t_ns,u_1\n0,1\n0.5,1\n1.7,1\n")
        with pytest.raises(ConfigError):
            _read_pulse_csv(path, self._template(1))
