"""Layered benchmark of the fairexposure pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload offline-policy --seed 0 --seconds 22 --trace 0

Runs one seeded closed-loop workload against the package under ``src/``,
checks every output, prints a report and, as the last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, from spans recorded around every layer call.
Reports and spans are written to ``.bench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fairexposure"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
SETUP_CODE = (
    "import fairexposure as f; print(len(f.load_jobseeker()), len(f.load_synthetic_news()))"
)
INTERPRETER_PROBES = 3
IMPORT_PROBES = 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_threads() -> None:
    """One BLAS/OpenMP thread, set before numpy loads; children inherit it.

    Every workload has a single caller and the package's BLAS calls are
    matrix-vector sized, while numpy and scipy each load an OpenBLAS pool
    that would otherwise start nproc threads: pinning keeps the worker
    threads of every process within nproc.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "process_threads": threads,
    }


def _failure(exc: BaseException) -> tuple[str, str]:
    """(layer, message): the layer is the deepest package module in the traceback."""
    layer = "bench"
    frames = traceback.extract_tb(exc.__traceback__)
    for frame in frames:
        path = Path(frame.filename)
        if PACKAGE in path.parents:
            layer = path.stem
    where = f" at {Path(frames[-1].filename).name}:{frames[-1].lineno}" if frames else ""
    return layer, f"{type(exc).__name__}: {exc}{where}"


def _guarded(fn, *args):
    """Run ``fn``; an exception becomes a recorded problem, never an abort."""
    try:
        return fn(*args), []
    except Exception as exc:  # noqa: BLE001 - the run must go on and report it
        return None, [_failure(exc)]


def _run_op(wl, tr, x):
    """Time one operation, then check it outside the timed span."""
    start = time.perf_counter()
    result, problems = _guarded(tr.call, "op", wl.op, x)
    latency = time.perf_counter() - start
    if not problems:
        more, crashed = _guarded(wl.check, x, result)
        problems = crashed or more
    return latency, problems


def _setup(ctx, workloads, ledger) -> float:
    """Median wall time of a fresh worker importing the package and loading the fixtures."""
    walls, problems = [], []
    for _ in range(SETUP_REPS):
        child, crashed = _guarded(workloads.run_child, ctx, [sys.executable, "-c", SETUP_CODE])
        problems += crashed
        if child is None:
            continue
        walls.append(child.wall_s)
        if child.returncode != 0 or child.stdout.split() != [b"6", b"25"]:
            problems.append(("datasets", f"setup worker exited {child.returncode}: {child.stderr[-300:]!r}"))
    ledger.record("setup", problems)
    return statistics.median(walls) if walls else float("nan")


def _probes(ctx, workloads, ledger) -> None:
    """Interpreter start-up and package import, each in a fresh child."""
    tr = ctx.tracer
    tr.op = "probe"
    problems = []
    for name, code, reps in (
        ("cli.interpreter", "pass", INTERPRETER_PROBES),
        ("cli.import", "import fairexposure", IMPORT_PROBES),
    ):
        for _ in range(reps):
            child, crashed = _guarded(tr.call, name, workloads.run_child, ctx, [sys.executable, "-c", code])
            problems += crashed
            if child is not None and child.returncode != 0:
                problems.append(("cli", f"{code!r} exited {child.returncode}"))
    ledger.record("probe", problems)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE.relative_to(ROOT)}; run from a checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    _pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import fairexposure

    if PACKAGE not in Path(fairexposure.__file__).resolve().parents:
        print(f"error: imported fairexposure from {fairexposure.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    from perfbench import inputs, report, workloads
    from perfbench.tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tr = Tracer(bool(args.trace))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ctx = workloads.Context(ROOT, args.seed, tr, out_dir, env)
    ledger = report.Ledger()
    wl = workloads.WORKLOADS[args.workload](ctx)

    setup_s = _setup(ctx, workloads, ledger)

    gen_start = time.perf_counter()
    fingerprints = wl.prepare()
    gen_s = time.perf_counter() - gen_start

    for label, step in workloads.canary_steps(ctx):
        tr.op = label
        found, crashed = _guarded(step)
        ledger.record(label, crashed or found)
    if tr.enabled:
        _probes(ctx, workloads, ledger)
        if not isinstance(wl, workloads.CliPipeline):
            cli = workloads.CliPipeline(ctx)
            cli.prepare()
            tr.op = "canary-cli"
            for index in range(cli.cycle):
                ledger.record(f"canary-cli {index}", _run_op(cli, tr, cli.inputs(index))[1])

    latencies = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    # a run ends at the first cycle boundary after the deadline, so every run
    # measures whole cycles of the input pattern
    while index % wl.cycle or index == 0 or time.perf_counter() < deadline:
        gen_start = time.perf_counter()
        x = wl.inputs(index)
        gen_s += time.perf_counter() - gen_start
        if index < wl.cycle:
            fingerprints.append(wl.fingerprint(x))
        tr.op = index
        latency, problems = _run_op(wl, tr, x)
        latencies.append(latency)
        ledger.record(f"op {index}", problems)
        index += 1

    e2e = report.end_to_end(latencies, setup_s, wl.peak_rss_kb())
    metrics = report.per_layer(tr, wl.cycle, ledger) if tr.enabled else e2e
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(nproc),
        "input_digest": inputs.digest(fingerprints),
        "gen_s": gen_s,
        "operations": len(latencies),
        "op_s_tail": report.tail(latencies),
        "error_rate": ledger.failed / ledger.attempted,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures_by_layer": dict(ledger.by_layer),
        "failures": ledger.messages,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "end_to_end_named": {wl.aliases.get(k, k): v for k, (v, _) in e2e.items()},
        "workload_metrics": wl.details(),
    }
    stem = f"{wl.name}-seed{args.seed}"
    if tr.enabled:
        record["per_layer"] = {k: v for k, (v, _) in metrics.items()}
        record["self_time"] = report.self_time_by_layer(tr)
        untraced = out_dir / f"{stem}-trace0.json"
        if untraced.is_file():
            before = json.loads(untraced.read_text())["end_to_end"]
            record["tracing_overhead"] = {k: v - before[k] for k, v in record["end_to_end"].items()}
        tr.write(out_dir / f"{stem}.spans.csv")
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))

    print(json.dumps({k: v for k, v in record.items() if k not in ("failures",)}, indent=1))
    for message in ledger.messages[:50]:
        print(f"FAILED {message}")
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            },
            allow_nan=False,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
