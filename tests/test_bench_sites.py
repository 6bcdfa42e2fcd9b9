"""The benchmark's tracer (perfbench/tracer.py) wraps robustpulse functions
at the names their callers look up.  A renamed or removed function breaks
the traced benchmark run, so every name it looks up is checked here."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import yaml
from click.testing import CliRunner

from robustpulse import cli, propagate

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# Names that robustpulse keeps only because SITES wraps them: nothing in
# src/ calls them.  Once the tracer stops wrapping one, it can be deleted.
TRACER_ONLY = [
    "cli.delta_st",
    "cli.run_grape",
    "cli.run_stgrape",
    "cli.robust_J",
    "optimize.robust_J",
    "optimize._StateTask",
    "optimize.apply_supermatrix",
    "optimize.step_propagator_expm",
    "optimize.trotter_backward_with_gradient",
    "propagate.apply_Ej",
    "propagate.apply_Ej_adjoint",
    "propagate.apply_L",
    "propagate.apply_L_adjoint",
    "propagate.assemble_supermatrix",
]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves_to_a_callable():
    """Each SITES entry resolves the way ``installed()`` resolves it: the
    module, then attributes down the dotted path, the last one looked up
    in its owner's own namespace."""
    missing = []
    for module_name, path, _span, _hook in _load_tracer().SITES:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        if not callable(owner.__dict__.get(attr)):
            missing.append(f"{module_name}:{path}")
    assert missing == []
    assert all(callable(c.callback) for c in cli.main.commands.values())


def test_tracer_only_names_are_still_traced():
    """Each name in TRACER_ONLY is still wrapped by some SITES entry (its
    module, then the first part of the dotted path); a failure names code
    that no caller needs any more."""
    traced = {(m, path.split(".")[0]) for m, path, _span, _hook in _load_tracer().SITES}
    untraced = [
        name for name in TRACER_ONLY
        if ("robustpulse." + name.split(".")[0], name.split(".")[1]) not in traced
    ]
    assert untraced == [], f"no longer traced, so deletable: {untraced}"


def test_untraced_imports_are_listed_as_tracer_only():
    """The reverse check: every name that SITES wraps where a module
    imports it, and that the module never uses beyond that import, is
    listed in TRACER_ONLY, so a new tracer-only import cannot go unlisted."""
    sites = _load_tracer().SITES
    unlisted = []
    for module_name in sorted({m for m, _path, _span, _hook in sites}):
        tree = ast.parse(Path(importlib.import_module(module_name).__file__).read_text())
        imported = {
            alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        short = module_name.split(".")[-1]
        for name in {path.split(".")[0] for m, path, _s, _h in sites if m == module_name}:
            if name in imported and name not in used and f"{short}.{name}" not in TRACER_ONLY:
                unlisted.append(f"{short}.{name}")
    assert unlisted == [], f"traced imports unused in their module: {unlisted}"


def test_propagate_final_takes_the_backend_first():
    """The tracer's hook on propagate_final reads the backend from args[0]."""
    first = next(iter(inspect.signature(propagate.propagate_final).parameters))
    assert first == "backend"


def _config(tmp_path, name, **sections):
    cfg = yaml.safe_load((ROOT / "configs" / name).read_text())
    for section, values in sections.items():
        cfg[section].update(values)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def test_traced_sweep_and_optimize_run():
    """A short sweep and optimize run with every site wrapped, the way the
    traced benchmark runs them: the hooks must accept what the wrapped
    functions are called with (a stacked array reaching the 2-D expm hook
    would raise), and the spans the per-layer metrics read are recorded."""
    tracer_mod = _load_tracer()
    runner = CliRunner()
    with runner.isolated_filesystem() as tmp:
        tmp = Path(tmp)
        sweep_cfg = _config(tmp, "cnot_2q.yaml", robustness={"sample_count": 2})
        opt_cfg = _config(tmp, "state_1q.yaml", optimizer={"max_iters": 1})
        with tracer_mod.installed(tracer_mod.Tracer()) as tracer:
            swept = runner.invoke(cli.main, ["sweep", "--config", sweep_cfg, "--out", str(tmp / "s")])
            optimized = runner.invoke(cli.main, ["optimize", "--config", opt_cfg, "--out", str(tmp / "o")])
    assert swept.exit_code == 0, swept.output
    assert optimized.exit_code == 0, optimized.output
    assert tracer.calls["oracle.noise_sweep"] == 1
    assert tracer.calls["oracle.noisy_channel_super"] >= 1
    assert tracer.calls["optimize.eval_grad"] >= 1


def test_traced_simulate_run():
    """A 2-step simulate of a small state task with every site wrapped: the
    exact-backend spans are recorded, and the default_substeps hook
    accepts the count that function returns."""
    tracer_mod = _load_tracer()
    runner = CliRunner()
    with runner.isolated_filesystem() as tmp:
        tmp = Path(tmp)
        cfg = _config(tmp, "state_1q.yaml", control={"n_steps": 2})
        with tracer_mod.installed(tracer_mod.Tracer()) as tracer:
            res = runner.invoke(cli.main, ["simulate", "--config", cfg, "--out", str(tmp / "s")])
    assert res.exit_code == 0, res.output
    for span in ("propagate.step_ode", "propagate.default_substeps",
                 "propagate.step_propagator_expm"):
        assert tracer.calls[span] >= 1, span
    assert tracer.counts["propagate.ode_substeps"] >= 1
