"""The four benchmark workloads.

Each workload writes a run config derived from a seed, runs one
robustpulse CLI command on it in-process, and checks the files the
command wrote.  An operation is one command call (design), one sweep
sample (sweep) or one simulate backend (simulate); every failed check
counts its operation as failed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml


@dataclass
class Outcome:
    attempted: int
    failed: int
    quality: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _load_yaml(path: Path) -> dict:
    return yaml.safe_load(path.read_text())


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


class Design:
    """``optimize`` with a fixed iteration budget, ended before the monitor's
    first possible ``monitor_decrease`` stop.  A run may also stop early on
    ``converged`` (no ascent step left): 1 in 150 seeded state_1q controls
    reaches J = 0.99983 within 20 iterations."""

    command = "optimize"

    def __init__(self, name: str, config_file: str, max_iters: int):
        self.name, self.config_file, self.max_iters = name, config_file, max_iters

    def write_inputs(self, root: Path, work: Path, seed: int) -> list:
        cfg = _load_yaml(root / "configs" / self.config_file)
        cfg["control"]["seed"] = seed
        cfg["optimizer"]["max_iters"] = self.max_iters
        path = work / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return ["--config", str(path), "--out", str(work / "out")]

    def check(self, work: Path) -> Outcome:
        report = _load_yaml(work / "out" / "report.yaml")
        problems = []
        stop, n_iter = report["stop_reason"], report["n_iterations"]
        if not (stop == "max_iters" and n_iter == self.max_iters
                or stop == "converged" and n_iter <= self.max_iters):
            problems.append(f"stop_reason {stop} after {n_iter} iterations")
        if not (_finite(report["best_J"]) and report["best_J"] <= 1.0):
            problems.append(f"best_J {report['best_J']}")
        quality = {"best_J": report["best_J"]}
        if "agf_nominal" in report:
            agf = report["agf_nominal"]
            if not (_finite(agf) and 0.0 <= agf <= 1.0):
                problems.append(f"agf_nominal {agf}")
            quality["agf_nominal"] = agf
        return Outcome(1, int(bool(problems)), quality, problems)


class Sweep:
    """``sweep`` of a seeded pulse spanning the full amplitude box."""

    command = "sweep"
    recomputed = 3  # samples re-evaluated with scipy's expm

    def __init__(self, name: str, config_file: str, samples: int):
        self.name, self.config_file, self.samples = name, config_file, samples

    def write_inputs(self, root: Path, work: Path, seed: int) -> list:
        cfg = _load_yaml(root / "configs" / self.config_file)
        cfg["robustness"]["sample_count"] = self.samples
        cfg["robustness"]["sweep_seed"] = seed
        path = work / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        # the CLI's seeded control spans a fifth of the box; designed
        # pulses reach its edges, so the pulse file is drawn across it all
        n_channels = 2 * cfg["system"]["n_qubits"]
        amp = cfg["control"]["max_mhz"]
        dt = cfg["control"]["dt_ns"]
        rng = np.random.default_rng(seed)
        u = rng.uniform(-amp, amp, size=(cfg["control"]["n_steps"], n_channels))
        pulse = work / "pulse.csv"
        with pulse.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_ns"] + [f"u_{c + 1}" for c in range(n_channels)])
            for k, row in enumerate(u):
                writer.writerow([repr(k * dt)] + [repr(float(v)) for v in row])
        return ["--config", str(path), "--out", str(work / "out"), "--pulse", str(pulse)]

    def check(self, work: Path) -> Outcome:
        from robustpulse.config import build_model, build_noise_distribution, load_config
        from robustpulse.gates import preset_unitary

        with (work / "out" / "sweep.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        bad = set()
        fids = []
        for i, row in enumerate(rows):
            f = float(row["f_agf"])
            fids.append(f)
            if not (math.isfinite(f) and 0.0 <= f <= 1.0):
                bad.add(i)
                problems.append(f"sample {i}: fidelity {f}")
        cfg = load_config(work / "config.yaml")
        model = build_model(cfg)
        with (work / "pulse.csv").open(newline="") as fh:
            pulse = np.array([row[1:] for row in csv.reader(fh)][1:], dtype=float)
        amps = pulse.T * (2e-3 * math.pi)  # MHz -> rad/ns
        eps = build_noise_distribution(cfg, model).sample(self.samples)
        u_target = preset_unitary(cfg.task.gate, model.dim)
        picks = sorted({0, len(rows) // 2, len(rows) - 1})[: self.recomputed]
        for i in picks:
            ref = _agf_scipy(model, amps, cfg.control.dt_ns, eps[i], u_target)
            if not abs(ref - fids[i]) <= 1e-10:
                bad.add(i)
                problems.append(f"sample {i}: fidelity {fids[i]} vs scipy {ref}")
        if len(rows) != self.samples:
            problems.append(f"{len(rows)} rows for {self.samples} samples")
        failed = len(bad) + abs(self.samples - len(rows))
        quality = {"mean_fidelity": float(np.mean(fids)) if fids else None}
        return Outcome(self.samples, failed, quality, problems[:10])


def _agf_scipy(model, amps, dt, eps, u_target) -> float:
    """Average gate fidelity of the noisy channel, built here from the model
    operators and scipy's expm (column-stacking vectorisation)."""
    import scipy.linalg

    d = model.dim
    ident = np.eye(d)
    s = np.eye(d * d, dtype=complex)
    for k in range(amps.shape[1]):
        h = model.drift + sum(u * hc for u, hc in zip(amps[:, k], model.controls))
        h = h + sum(e * op for e, op in zip(eps, model.uncertainties))
        gen = -1j * (np.kron(ident, h) - np.kron(h.T, ident))
        for c, gamma in model.lindblads:
            cdc = c.conj().T @ c
            gen = gen + gamma * (np.kron(c.conj(), c) - 0.5 * np.kron(ident, cdc)
                                 - 0.5 * np.kron(cdc.T, ident))
        s = scipy.linalg.expm(dt * gen) @ s
    s_u = np.kron(u_target.conj(), u_target)
    f_pro = float(np.real(np.vdot(s_u, s))) / d**2
    return (d * f_pro + 1.0) / (d + 1.0)


class Simulate:
    """``simulate`` under every backend on a seeded state task."""

    command = "simulate"
    backends = ("expm", "ode", "trotter")

    def __init__(self, name: str, n_qubits: int, order: int, n_steps: int):
        self.name, self.n_qubits, self.order, self.n_steps = name, n_qubits, order, n_steps

    def write_inputs(self, root: Path, work: Path, seed: int) -> list:
        # the CLI's seeded control, |u| <= 20 MHz in a 100 MHz box: across
        # the full box the splitting deviation exceeds criterion 3's 2 %
        cfg = {
            "system": {"n_qubits": self.n_qubits, "uncertainty": "edges"},
            "control": {"n_steps": self.n_steps, "dt_ns": 0.5, "max_mhz": 100.0, "seed": seed},
            "robustness": {"order": self.order},
            "task": {"kind": "state", "initial": "ground", "target": "uniform"},
        }
        path = work / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return ["--config", str(path), "--out", str(work / "out")]

    def check(self, work: Path) -> Outcome:
        report = _load_yaml(work / "out" / "report.yaml")
        obj, defect = report["objective"], report["trace_defect"]
        dev = report["splitting_deviation"]
        problems = []
        for b in self.backends:
            if not _finite(obj.get(b)):
                problems.append(f"{b}: objective {obj.get(b)}")
        for b in ("expm", "ode"):
            if not (_finite(defect.get(b)) and defect[b] <= 1e-12):
                problems.append(f"{b}: trace defect {defect.get(b)}")
        if _finite(obj.get("expm")) and _finite(obj.get("ode")):
            rel = abs(obj["ode"] - obj["expm"]) / max(abs(obj["expm"]), 1e-300)
            if not rel <= 1e-8:
                problems.append(f"ode: objective differs from expm by {rel:.3g} relative")
        if not (_finite(dev) and dev < 0.02):
            problems.append(f"trotter: splitting deviation {dev}")
        failed = sum(any(p.startswith(b + ":") for p in problems) for b in self.backends)
        quality = {"splitting_deviation": dev, "objective_expm": obj.get("expm")}
        return Outcome(len(self.backends), failed, quality, problems)


def make(name: str, smoke: bool = False):
    """The named workload; ``smoke`` shrinks it to a seconds-long size."""
    if name == "cnot_2q_design":
        return Design(name, "cnot_2q.yaml", 2)
    if name == "state_1q_design":
        return Design(name, "state_1q.yaml", 2 if smoke else 10)
    if name == "cnot_2q_sweep":
        return Sweep(name, "cnot_2q.yaml", 4 if smoke else 50)
    if name == "chain_3q_simulate":
        return Simulate(name, 3, 2, 2 if smoke else 10)
    raise KeyError(name)


NAMES = ("cnot_2q_design", "cnot_2q_sweep", "chain_3q_simulate", "state_1q_design")
