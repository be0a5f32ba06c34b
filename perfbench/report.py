"""Turning latencies, spans and counters into the reported metrics."""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from .inputs import CLI_COMMANDS
from .tracing import Tracer

# per-layer time metrics: (metric, span name, unit, nanoseconds per unit)
LAYER_TIMES = [
    ("lp.solve_s", "lp.solve", "s", 1e9),
    ("lp.build_s", "lp.build", "s", 1e9),
    ("feasibility.check_s", "feasibility.check", "s", 1e9),
    ("bvn.decompose_s", "bvn.decompose", "s", 1e9),
    ("sampler.hash_us", "sampler.hash", "us", 1e3),
    ("sampler.sample_for_user_us.few", "sampler.sample_for_user.few", "us", 1e3),
    ("sampler.sample_for_user_us.many", "sampler.sample_for_user.many", "us", 1e3),
    ("sampler.sample_indices_s", "sampler.sample_indices", "s", 1e9),
    ("simulator.simulate_s.few", "simulator.simulate.few", "s", 1e9),
    ("simulator.simulate_s.many", "simulator.simulate.many", "s", 1e9),
    ("datasets.read_items_csv_s", "datasets.read_items_csv", "s", 1e9),
    ("constraints.build_s", "constraints.build", "s", 1e9),
    ("metrics.evaluate_s", "metrics.evaluate", "s", 1e9),
    ("cli.interpreter_s", "cli.interpreter", "s", 1e9),
    ("cli.import_s", "cli.import", "s", 1e9),
] + [(f"cli.{c}_s", f"cli.{c}", "s", 1e9) for c, _, _ in CLI_COMMANDS]

# counts summed over the first cycle of operations (see _fixed_set)
FIXED_SET_COUNTS = [
    ("lp.iterations", "count"),
    ("lp.infeasible", "count"),
    ("feasibility.lp_probes", "count"),
    ("bvn.terms", "count"),
    ("cli.stdout_bytes", "bytes"),
]


class Ledger:
    """Operations attempted and failed; every failure message is kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.by_layer: Counter = Counter()
        self.messages: list[str] = []

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
        for layer, message in problems:
            self.by_layer[layer] += 1
            self.messages.append(f"{label}: [{layer}] {message}")


def tail(values: list) -> dict:
    """The highest percentile with at least ten samples beyond it.

    That is the 11th-largest sample, at percentile 100 * (n - 10) / n.  With
    ten samples or fewer no percentile qualifies; the maximum is reported
    with ``beyond`` 0.
    """
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return {"value": s[-1], "percentile": 100.0, "n": n, "beyond": 0}
    return {"value": s[n - 11], "percentile": round(100.0 * (n - 10) / n, 2), "n": n, "beyond": 10}


def end_to_end(latencies: list, setup_s: float, peak_rss_kb: int) -> dict:
    t = tail(latencies)
    return {
        "op_s_p50": (statistics.median(latencies), "s"),
        "op_s_tail": (t["value"], "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def _fixed_set(values: list, cycle: int) -> list:
    """Counter values from the first cycle of operations, else from the canaries.

    Either set is fixed by the seed, so the sums repeat exactly across
    same-seed runs.
    """
    first = [v for op, v in values if not isinstance(op, str) and op < cycle]
    return first or [v for op, v in values if isinstance(op, str)]


def per_layer(tr: Tracer, cycle: int, ledger: Ledger) -> dict:
    """Per-layer metrics of a traced run.

    A time is the mean duration per call over the measured operations; a
    layer the workload never calls reports its canary or probe calls, so
    every metric is measured on every workload.
    """
    loop, other = defaultdict(list), defaultdict(list)
    for name, start, end, _, op in tr.spans:
        (other if isinstance(op, str) else loop)[name].append(end - start)
    out = {}
    for metric, span, unit, ns in LAYER_TIMES:
        durations = loop.get(span) or other.get(span)
        out[metric] = (statistics.fmean(durations) / ns if durations else 0.0, unit)
    fixed = {name: _fixed_set(tr.counters.get(name, []), cycle) for name, _ in FIXED_SET_COUNTS}
    fixed["bvn.bound"] = _fixed_set(tr.counters.get("bvn.bound", []), cycle)
    for name, unit in FIXED_SET_COUNTS:
        out[name] = (sum(fixed[name]), unit)
    bound = sum(fixed["bvn.bound"])
    out["bvn.terms_over_bound"] = (sum(fixed["bvn.terms"]) / bound if bound else 0.0, "ratio")
    out["lp.build_peak_mb"] = (max((v for _, v in tr.counters.get("lp.build_peak_mb", [])), default=0.0), "MB")
    out["lp.failures"] = (ledger.by_layer["lp"], "count")
    out["bvn.failures"] = (ledger.by_layer["bvn"], "count")
    out["cli.nonzero_exits"] = (sum(v for _, v in tr.counters.get("cli.nonzero_exits", [])), "count")
    return out


def self_time_by_layer(tr: Tracer) -> dict:
    """Self time per layer over the measured operations, and its share of op wall time."""
    self_ns = tr.self_times_ns()
    layers: Counter = Counter()
    op_wall = 0
    for (name, start, end, _, op), own in zip(tr.spans, self_ns):
        if isinstance(op, str):
            continue
        if name == "op":
            op_wall += end - start
        else:
            layers[name.split(".", 1)[0]] += own
    covered = sum(layers.values())
    return {
        "op_wall_s": op_wall / 1e9,
        "coverage": covered / op_wall if op_wall else 0.0,
        "layers": {
            layer: {"self_s": ns / 1e9, "share": ns / op_wall if op_wall else 0.0}
            for layer, ns in layers.most_common()
        },
    }
