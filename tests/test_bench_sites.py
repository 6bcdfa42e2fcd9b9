"""The benchmark's tracer (perfbench/tracer.py) wraps robustpulse functions
at the names their callers look up.  A renamed or removed function breaks
the traced benchmark run, so every name it looks up is checked here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from robustpulse import cli, propagate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def test_propagate_final_takes_the_backend_first():
    """The tracer's hook on propagate_final reads the backend from args[0]."""
    first = next(iter(inspect.signature(propagate.propagate_final).parameters))
    assert first == "backend"
