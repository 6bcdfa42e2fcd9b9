"""robustpulse benchmark: one workload, one seed, one JSON result line.

Run from the root of a robustpulse checkout:

    python3 perfbench/run.py --workload cnot_2q_design --seed 1 --seconds 28 --trace 0

The workload's CLI command runs in this process, closed-loop, one call
after another on inputs derived from the seed, until the next call would
end past ``--seconds``.  Call i uses sub-seed (seed, i), so a run samples
several inputs and the same seed gives the same inputs; call 0 warms up
and is not timed into the metrics.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced calls on the same inputs and prints the per-layer
metrics (see tracer.py).  The line before the result is a report with the
environment, every call's time and quality figures, and failed checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads OpenBLAS and inherited by the
# set-up interpreters.  On a 2-CPU shared host a threaded product waits
# for the slower CPU: a 384x384 simulate call spread 0.14 (IQR/median)
# over repeats with two threads and 0.03 with one, for an 11 % slower
# median.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9

# End-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "command_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _quartiles(values: list) -> dict:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else ref


def environment(root: Path) -> dict:
    import importlib.util

    from robustpulse import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_mode": kernels.kernel_mode(),
        "git_commit": _git_commit(root),
    }


def setup_seconds(root: Path) -> list:
    """Wall times of fresh interpreters that import the robustpulse CLI;
    one untimed import first writes the bytecode caches.  No timeout: with
    one, ``Popen.wait`` polls in sleeps of up to 50 ms, which quantizes
    the measured times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import robustpulse.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=root, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(perf_counter() - t0)
    return times


def sub_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class Runner:
    """Runs the workload's command in-process in scratch directories."""

    def __init__(self, root: Path, workload, scratch: Path):
        from robustpulse.cli import main

        self.root, self.workload, self.scratch, self.main = root, workload, scratch, main
        self.attempted = self.failed = 0
        self.problems: list = []
        self.quality: list = []

    def call(self, seed: int, tracer=None) -> float:
        """One command call on the inputs of ``seed``; returns its wall time
        and books the checked operations."""
        work = Path(tempfile.mkdtemp(dir=self.scratch))
        args = [self.workload.command] + self.workload.write_inputs(self.root, work, seed)
        out = io.StringIO()
        ctx = contextlib.nullcontext() if tracer is None else tracing.installed(tracer)
        error = None
        with ctx, contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            t0 = perf_counter()
            try:
                self.main.main(args, prog_name="robustpulse", standalone_mode=False)
            except SystemExit as exc:
                if exc.code:
                    error = f"exit {exc.code}: {out.getvalue()[-300:]}"
            except Exception as exc:  # a crash fails this call, not the run
                error = f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - t0
        if error is None:
            try:
                outcome = self.workload.check(work)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                outcome = workloads.Outcome(1, 1, problems=[f"unreadable output: {exc!r}"])
        else:
            outcome = workloads.Outcome(1, 1, problems=[error])
        shutil.rmtree(work)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += [f"seed {seed}: {p}" for p in outcome.problems]
        self.quality.append(outcome.quality)
        return wall


def closed_loop(seconds: float, one_call) -> list:
    """Call ``one_call(i)`` (which returns its wall time) for i = 0, 1, ...
    while the next call, at the median length so far, ends within
    ``seconds``, with at least one timed call.  Call 0 warms up (lazy
    imports, caches) and is checked but left out of the returned times."""
    t_start = perf_counter()
    one_call(0)
    times: list = []
    while not times or perf_counter() - t_start + statistics.median(times) <= seconds:
        times.append(one_call(len(times) + 1))
    return times


def untraced_run(runner, seed, seconds, setup) -> tuple:
    walls = closed_loop(seconds, lambda i: runner.call(sub_seed(seed, i)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup),
        "command_s": statistics.median(walls),
        "peak_rss_mb": rss_mb,
    }
    detail = {"setup_s": _quartiles(setup), "command_s": _quartiles(walls), "calls_s": walls}
    return metrics, detail


def traced_run(runner, seed, seconds, import_ms) -> tuple:
    per_call: list = []
    pairs: list = []
    expm_dims: dict = {}

    def pair(i):
        s = sub_seed(seed, i)
        plain = runner.call(s)
        tr = tracing.Tracer()
        traced = runner.call(s, tracer=tr)
        if i == 0:  # warm-up
            return plain + traced
        per_call.append(tracing.call_metrics(tr, traced))
        pairs.append((plain, traced, tr.layer_self_seconds()))
        if i == 1:
            expm_dims.update(tracing.expm_breakdown(tr))
        return plain + traced

    closed_loop(seconds, pair)
    metrics = {}
    for name, (_, _, kind) in tracing.PER_LAYER.items():
        if name in ("import_ms", "trace.overhead_pct"):
            continue
        values = [m[name] for m in per_call]
        metrics[name] = values[0] if kind == "count" else statistics.median(values)
    metrics["import_ms"] = import_ms
    metrics["trace.overhead_pct"] = statistics.median(
        (t - p) / p * 100.0 for p, t, _ in pairs
    )
    _, traced0, self0 = pairs[0]
    detail = {
        "pairs_s": [[p, t] for p, t, _ in pairs],
        "expm_by_dim": expm_dims,
        # layer self times plus unattributed time against the traced wall time
        "reconcile_first_call_s": {
            "traced_wall": traced0,
            "layer_self_sum": sum(self0.values()),
            "unattributed": per_call[0]["trace.unattributed_pct"] / 100.0 * traced0,
        },
    }
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="shrink the workload to a seconds-long size (self-test)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    root = Path.cwd()
    missing = [p for p in ("src/robustpulse/cli.py", "configs/cnot_2q.yaml", "configs/state_1q.yaml")
               if not (root / p).is_file()]
    if missing:
        print(f"not a robustpulse checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    load_start = _loadavg()
    setup = [] if args.trace else setup_seconds(root)
    t0 = perf_counter()
    sys.path.insert(0, str(root / "src"))
    import robustpulse.cli  # noqa: F401

    import_ms = (perf_counter() - t0) * 1e3
    workload = workloads.make(args.workload, smoke=args.smoke)
    scratch_root = root / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        runner = Runner(root, workload, scratch)
        if args.trace:
            metrics, detail = traced_run(runner, args.seed, args.seconds, import_ms)
        else:
            metrics, detail = untraced_run(runner, args.seed, args.seconds, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()

    units = tracing.PER_LAYER if args.trace else END_TO_END
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {**environment(root), "loadavg_start": load_start, "loadavg_end": _loadavg()},
        "detail": detail,
        "quality": runner.quality,
        "problems": runner.problems[:20],
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
