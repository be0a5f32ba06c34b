"""The four closed-loop workloads, the fixture canaries and child processes.

A workload exposes three steps per operation ``index``: ``inputs`` makes
the seeded input (timed apart, as input generation), ``op`` is the timed
operation, calling each layer through the tracer, and ``check`` verifies
the outputs.  One caller runs them in turn, so the next operation starts
when the previous one has been checked.
"""

from __future__ import annotations

import io
import os
import resource
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fairexposure import (
    NOTIONS,
    PositionBias,
    RankingProblem,
    BvnDecomposition,
    BvnTerm,
    build_lp,
    check_feasibility,
    decompose,
    evaluate,
    hash_user_key,
    multi_group_constraints,
    permutation_matrix,
    prp_ranking,
    read_items_csv,
    reconstruct,
    sample_for_user,
    sample_indices,
    solve,
    term_bound,
)
from fairexposure.simulator import simulate

from . import checks, inputs
from .report import tail
from .tracing import Tracer

CHILD_TIMEOUT_S = 60.0


@dataclass
class Context:
    root: Path
    seed: int
    tracer: Tracer
    out_dir: Path
    env: dict


# ---------------------------------------------------------------------------
# child processes


@dataclass(frozen=True)
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int


def run_child(ctx: Context, argv: list[str], stdin: bytes = b"") -> Child:
    """Run one child to completion and return its output and peak RSS.

    stdin, stdout and stderr are files in the output directory, so no pipe
    can fill up; ``os.wait4`` reaps the child and yields its own rusage.
    """
    with tempfile.TemporaryFile(dir=ctx.out_dir) as fin, tempfile.TemporaryFile(
        dir=ctx.out_dir
    ) as fout, tempfile.TemporaryFile(dir=ctx.out_dir) as ferr:
        fin.write(stdin)
        fin.seek(0)
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=fin, stdout=fout, stderr=ferr, env=ctx.env, cwd=ctx.root
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        fout.seek(0)
        ferr.seek(0)
        return Child(proc.returncode, fout.read(), ferr.read(), wall, usage.ru_maxrss)


# ---------------------------------------------------------------------------
# helpers shared by canaries and workloads


def build_lp_traced(tr: Tracer, problem, constraints):
    """``build_lp`` under a span; the traced run also records its tracemalloc peak."""
    if not tr.enabled:
        return build_lp(problem, constraints)
    tracemalloc.start()
    try:
        return tr.call("lp.build", build_lp, problem, constraints)
    finally:
        tr.count("lp.build_peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
        tracemalloc.stop()


def log_problem(items) -> RankingProblem:
    return RankingProblem(items=items, position_bias=PositionBias.log_discount(len(items)))


def simulated_groups(report) -> dict:
    return {g.label: (g.exposure, g.exposure_se) for g in report.groups}


def count_lottery(tr: Tracer, lottery) -> None:
    tr.count("bvn.terms", len(lottery.terms))
    tr.count("bvn.bound", term_bound(lottery.n))


# ---------------------------------------------------------------------------
# fixture canaries, run before every measured loop


CANARY_POLICIES = {
    "jobseeker": (("unconstrained", ()), ("demographic-parity", ("M", "F"))),
    "news": (
        ("demographic-parity", ("A", "B")),
        ("disparate-impact", ("A", "B")),
        ("disparate-treatment", ("A", "B")),
        ("unconstrained", ()),
    ),
}
CANARY_FILES = {"jobseeker": "jobseeker.csv", "news": "synthetic_news.csv"}
CANARY_HASH_KEYS = 1000
CANARY_USERS = 200
CANARY_SIM_USERS = 20000
CANARY_DENSE_USERS = 5000


def canary_steps(ctx: Context):
    """Named canary steps; each runs its calls and returns its problems.

    They touch every library layer on the bundled fixtures, so every
    per-layer metric has a value on every workload, and they pin the
    scorecard numbers and the frozen hash vectors.
    """
    tr = ctx.tracer
    data = ctx.root / "src" / "fairexposure" / "data"
    news = {}  # the news parity policy, reused by the sampler and dense steps

    def policies(fixture: str):
        def step():
            text = (data / CANARY_FILES[fixture]).read_text("utf-8")
            pipeline = OfflinePolicy(ctx)
            problems = []
            for policy, groups in CANARY_POLICIES[fixture]:
                case = inputs.PolicyCase(text, policy, groups, skewed=False)
                result = pipeline.op(case)
                problems += pipeline.check(case, result)
                problems += checks.canary_problems(fixture, policy, result.report.objective)
                if fixture == "news" and policy == "demographic-parity":
                    news["problem"], news["lottery"] = result.problem, result.lottery
                    news["matrix"] = result.report.matrix.entries
            return problems

        return step

    def sampler_step():
        problems = checks.hash_problems(lambda key: tr.call("sampler.hash", hash_user_key, key))
        for k in range(CANARY_HASH_KEYS):
            tr.call("sampler.hash", hash_user_key, f"user-{k:06d}")
        lottery = news["lottery"]
        for k in range(CANARY_USERS):
            key = f"user-{k:06d}"
            ranking = tr.call("sampler.sample_for_user.few", sample_for_user, lottery, key)
            if k < 3:
                problems += checks.same_key_problems(lottery, key, ranking)
        draws = tr.call("sampler.sample_indices", sample_indices, lottery, 1000, rng=0)
        problems += checks.draws_problems(draws, lottery, 1000)
        report = tr.call(
            "simulator.simulate.few", simulate, lottery, news["problem"], CANARY_SIM_USERS, 0
        )
        problems += checks.exposure_problems(
            simulated_groups(report), report.scale, news["matrix"], news["problem"]
        )
        return problems

    def dense_step():
        matrix = inputs.dense_matrix(0, 0)
        lottery = tr.call("bvn.decompose", decompose, matrix)
        count_lottery(tr, lottery)
        problems = checks.lottery_problems(matrix, lottery)
        for k in range(CANARY_USERS):
            key = f"user-{k:06d}"
            ranking = tr.call("sampler.sample_for_user.many", sample_for_user, lottery, key)
            if k < 3:
                problems += checks.same_key_problems(lottery, key, ranking)
        # five items of each news group, so the audit compares two groups
        problem = log_problem(news["problem"].items[15 - lottery.n // 2 : 15 + lottery.n // 2])
        report = tr.call("simulator.simulate.many", simulate, lottery, problem, CANARY_DENSE_USERS, 0)
        problems += checks.exposure_problems(simulated_groups(report), report.scale, matrix, problem)
        return problems

    return [
        ("canary-jobseeker", policies("jobseeker")),
        ("canary-news", policies("news")),
        ("canary-sampler", sampler_step),
        ("canary-dense", dense_step),
    ]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base: one operation per index, in a closed loop with one caller."""

    name = ""
    cycle = 1  # operations in one full pass over the input pattern
    aliases: dict = {}  # end-to-end metric -> its name for this workload

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.tr = ctx.tracer

    def prepare(self) -> list:
        """Make fixed inputs; returns the texts or arrays to digest."""
        return []

    def inputs(self, index: int):
        raise NotImplementedError

    def fingerprint(self, x):
        """Text or array identifying input ``x``, for the input digest."""
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def check(self, x, result) -> list:
        raise NotImplementedError

    def details(self) -> dict:
        """Workload-specific figures for the report."""
        return {}

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class PolicyResult:
    problem: RankingProblem
    constraints: list
    verdicts: list
    report: object
    lottery: object
    metrics: object


class OfflinePolicy(Workload):
    """CSV text -> items -> constraints -> feasibility -> LP -> BvN -> metrics.

    The fixture canaries run the same operation and check, with no groups
    for the unconstrained policy.
    """

    name = "offline-policy"
    cycle = inputs.POLICY_CYCLE
    aliases = {"op_s_p50": "policy_s_p50", "op_s_tail": "policy_s_tail", "ops_per_s": "policies_per_s"}

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.infeasible = 0

    def inputs(self, index):
        return inputs.policy_case(self.ctx.seed, index)

    def fingerprint(self, case):
        return case.csv

    def op(self, case):
        tr = self.tr
        items = tr.call("datasets.read_items_csv", read_items_csv, io.StringIO(case.csv))
        problem = log_problem(items)
        notion = case.kind.removesuffix("-3")
        if not case.groups:
            constraints = []
        elif len(case.groups) > 2:
            constraints = tr.call(
                "constraints.build", multi_group_constraints, problem, notion, list(case.groups)
            )
        else:
            constraints = [tr.call("constraints.build", NOTIONS[notion], problem, *case.groups)]
        verdicts = [
            tr.call("feasibility.check", check_feasibility, problem, notion, g0, g1)
            for g0, g1 in zip(case.groups, case.groups[1:])
        ]
        tr.count("feasibility.lp_probes", sum(v.method == "lp-probe" for v in verdicts))
        lp = build_lp_traced(tr, problem, constraints)
        report = tr.call("lp.solve", solve, lp)
        tr.count("lp.iterations", report.iterations)
        tr.count("lp.infeasible", int(report.status == "infeasible"))
        lottery = metrics = None
        if report.optimal:
            lottery = tr.call("bvn.decompose", decompose, report.matrix)
            count_lottery(tr, lottery)
            prp = permutation_matrix(prp_ranking(problem))
            metrics = tr.call("metrics.evaluate", evaluate, report.matrix, problem, reference=prp)
        return PolicyResult(problem, constraints, verdicts, report, lottery, metrics)

    def check(self, case, r: PolicyResult):
        out = []
        judged = all(v.feasible for v in r.verdicts)
        solved = r.report.optimal
        # Two groups: the verdict is exact and must match the LP.  A chain of
        # pairwise checks is only necessary, so then only "infeasible" binds.
        if (judged != solved) if len(case.groups) == 2 else (not judged and solved):
            out.append(("feasibility", f"verdict feasible={judged} but LP status {r.report.status}"))
        if not solved:
            if r.report.status != "infeasible":
                out.append(("lp", f"LP status {r.report.status}"))
            self.infeasible += 1
            return out
        out += checks.solve_problems(
            r.report.objective, r.report.max_violation, r.report.matrix, r.constraints, r.problem
        )
        out += checks.lottery_problems(r.report.matrix.entries, r.lottery)
        out += checks.cof_problems(r.metrics.cof)
        return out

    def details(self):
        return {"infeasible_instances": self.infeasible}


class DenseLottery(Workload):
    """decompose a dense doubly stochastic matrix, then draw from the lottery."""

    name = "dense-lottery"
    cycle = len(inputs.DENSE_SIZES)
    aliases = {"op_s_p50": "lottery_s_p50", "op_s_tail": "lottery_s_tail", "ops_per_s": "lotteries_per_s"}
    draws = 10000

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.terms: dict[int, int] = {}

    def inputs(self, index):
        return index, inputs.dense_matrix(self.ctx.seed, index)

    def fingerprint(self, x):
        return x[1]

    def op(self, x):
        index, matrix = x
        lottery = self.tr.call("bvn.decompose", decompose, matrix)
        count_lottery(self.tr, lottery)
        draws = self.tr.call("sampler.sample_indices", sample_indices, lottery, self.draws, rng=index)
        return lottery, draws

    def check(self, x, result):
        lottery, draws = result
        self.terms[lottery.n] = len(lottery.terms)
        return checks.lottery_problems(x[1], lottery) + checks.draws_problems(
            draws, lottery, self.draws
        )

    def details(self):
        return {"terms_by_n": {str(n): t for n, t in sorted(self.terms.items())}}


@dataclass
class Round:
    rankings: list  # (lottery, key, ranking) kept for the same-key check
    few_ns: list
    many_ns: list
    draws: list  # (lottery, draws, seconds)
    sims: list  # (lottery, report, seconds)


class ServeAndAudit(Workload):
    """Per-user assignment on two lottery shapes, a batch draw and an audit.

    One operation is a round: ``requests`` ``sample_for_user`` calls alternating
    few-term and many-term lotteries, one ``sample_indices`` batch per shape
    and one ``simulate`` per shape.
    """

    name = "serve-and-audit"
    aliases = {"op_s_p50": "round_s_p50", "op_s_tail": "round_s_tail", "ops_per_s": "rounds_per_s"}
    requests = 2000
    batch = 100000
    users = {"few": 50000, "many": 10000}
    same_key_checks = 8

    def prepare(self):
        self.data = inputs.serve_inputs(self.ctx.seed)
        self.matrix = {id(L): reconstruct(L) for L in self.data.few + self.data.many}
        self.few_ns: list[int] = []
        self.many_ns: list[int] = []
        self.draw_count = 0
        self.draw_s = 0.0
        self.sim_users = 0
        self.sim_s = 0.0
        lotteries = self.data.few + self.data.many
        return [self.data.problem.utilities] + [
            np.concatenate([L.thetas, np.stack([t.ranking for t in L.terms]).ravel()]) for L in lotteries
        ]

    def inputs(self, index):
        return index, inputs.user_keys(self.ctx.seed, index, self.requests)

    def fingerprint(self, x):
        return "\n".join(x[1])

    def op(self, x):
        index, keys = x
        tr, few, many = self.tr, self.data.few, self.data.many
        clock = time.perf_counter_ns
        r = Round([], [], [], [], [])
        for k, key in enumerate(keys):
            if k % 2 == 0:
                lottery, name, sink = few[(k // 2) % len(few)], "sampler.sample_for_user.few", r.few_ns
            else:
                lottery, name, sink = many[(k // 2) % len(many)], "sampler.sample_for_user.many", r.many_ns
            start = clock()
            ranking = tr.call(name, sample_for_user, lottery, key)
            sink.append(clock() - start)
            if k < 2 * self.same_key_checks:
                r.rankings.append((lottery, key, ranking))
        for lottery in (few[index % len(few)], many[index % len(many)]):
            start = time.perf_counter()
            draws = tr.call("sampler.sample_indices", sample_indices, lottery, self.batch, rng=index)
            r.draws.append((lottery, draws, time.perf_counter() - start))
        for shape, lottery in (("few", few[index % len(few)]), ("many", many[index % len(many)])):
            start = time.perf_counter()
            report = tr.call(
                f"simulator.simulate.{shape}", simulate, lottery, self.data.problem, self.users[shape], index
            )
            r.sims.append((lottery, report, time.perf_counter() - start))
        return r

    def check(self, x, r: Round):
        self.few_ns += r.few_ns
        self.many_ns += r.many_ns
        out = []
        for lottery, key, ranking in r.rankings:
            out += checks.same_key_problems(lottery, key, ranking)
        for lottery, draws, seconds in r.draws:
            out += checks.draws_problems(draws, lottery, self.batch)
            self.draw_count += self.batch
            self.draw_s += seconds
        for lottery, report, seconds in r.sims:
            out += checks.exposure_problems(
                simulated_groups(report), report.scale, self.matrix[id(lottery)], self.data.problem
            )
            self.sim_users += report.n_users
            self.sim_s += seconds
        return out

    def details(self):
        few_us = np.array(self.few_ns) / 1e3
        many_us = np.array(self.many_ns) / 1e3
        assign_tail = tail(few_us.tolist())
        return {
            "assign_us_p50": float(np.median(few_us)),
            "assign_us_tail": assign_tail,
            "assign_dense_us_p50": float(np.median(many_us)),
            "draws_per_s": self.draw_count / self.draw_s,
            "sim_users_per_s": self.sim_users / self.sim_s,
        }


class CliPipeline(Workload):
    """The seven-command CLI pipeline on the news fixture, one child at a time.

    One operation is one pipeline.  Each command runs as
    ``python -m fairexposure.cli`` and the stdout bytes of one command are
    the stdin bytes of the next, which replaces a shell pipe so that
    interpreters never compete for the cores.
    """

    name = "cli-pipeline"
    aliases = {"op_s_p50": "cli_pipeline_s", "op_s_tail": "cli_pipeline_s_tail", "ops_per_s": "pipelines_per_s"}

    def prepare(self):
        self.csv = inputs.news_csv(self.ctx.root)
        problem = log_problem(read_items_csv(io.StringIO(self.csv)))
        self.constraints = [NOTIONS["demographic-parity"](problem, "A", "B")]
        report = solve(build_lp(problem, self.constraints))
        self.ref_problem = problem
        self.ref_objective = report.objective
        self.ref_lottery = decompose(report.matrix)
        self.ref_feasible = check_feasibility(problem, "disparate-treatment", "A", "B").feasible
        self.ids = [item.id for item in problem.items]
        self.max_child_kb = 0
        return [self.csv]

    def inputs(self, index):
        fields = {"pipeline": str(1000 * self.ctx.seed + index), "key": f"user-{self.ctx.seed}-{index}"}
        commands = [(name, [a.format(**fields) for a in args], source) for name, args, source in inputs.CLI_COMMANDS]
        return fields, commands

    def fingerprint(self, x):
        return "\n".join(" ".join(args) for _, args, _ in x[1])

    def op(self, x):
        outputs = {"csv": self.csv.encode("utf-8")}
        children = {}
        for name, args, source in x[1]:
            argv = [sys.executable, "-m", "fairexposure.cli", *args]
            children[name] = self.tr.call(f"cli.{name}", run_child, self.ctx, argv, outputs[source])
            outputs[name] = children[name].stdout
        return children

    def check(self, x, children: dict):
        out = []
        for name, child in children.items():
            self.tr.count("cli.stdout_bytes", len(child.stdout))
            self.tr.count("cli.nonzero_exits", int(child.returncode != 0))
            self.max_child_kb = max(self.max_child_kb, child.maxrss_kb)
            if child.returncode != 0:
                message = child.stderr.decode("utf-8", "replace").strip()[-300:]
                out.append(("cli", f"{name} exited {child.returncode}: {message}"))
                continue
            try:
                out += self._check_output(name, x[0], child.stdout.decode("utf-8"), children)
            except (ValueError, KeyError, TypeError) as exc:
                out.append(("cli", f"{name} output rejected: {type(exc).__name__}: {exc}"))
        return out

    def _check_output(self, name, fields, text, children):
        if name in ("sample_count", "sample_user"):
            lottery = self.ref_lottery
            if name == "sample_user":
                want = [sample_for_user(lottery, fields["key"])]
            else:
                picks = sample_indices(lottery, 10, rng=int(fields["pipeline"]))
                want = [lottery.terms[k].ranking for k in picks]
            lines = [",".join(self.ids[i] for i in ranking) for ranking in want]
            if text.splitlines() != lines:
                return [("cli", f"{name} rankings differ from the library's")]
            return []
        payload = checks.strict_json(text)
        if name == "solve":
            n = payload["n"]
            matrix = np.asarray(payload["matrix"], dtype=float).reshape(n, n)
            out = checks.solve_problems(
                payload["objective"], payload["max_violation"], matrix, self.constraints, self.ref_problem, "cli"
            )
            if not checks.close(payload["objective"], self.ref_objective):
                out.append(("cli", f"solve objective {payload['objective']!r} != library {self.ref_objective!r}"))
            return out
        if name == "decompose":
            solved = checks.strict_json(children["solve"].stdout)
            n = solved["n"]
            matrix = np.asarray(solved["matrix"], dtype=float).reshape(n, n)
            return checks.lottery_problems(matrix, _lottery_from_payload(payload), "cli")
        if name == "evaluate":
            out = checks.cof_problems(payload.get("cof"), "cli")
            if not checks.close(payload["dcg"], self.ref_objective):
                out.append(("cli", f"evaluate dcg {payload['dcg']!r} != library {self.ref_objective!r}"))
            return out
        if name == "feasibility":
            if payload["feasible"] != self.ref_feasible:
                return [("cli", f"feasibility {payload['feasible']} != library {self.ref_feasible}")]
            return []
        # simulate
        lottery = _lottery_from_payload(checks.strict_json(children["decompose"].stdout))
        groups = {label: (g["exposure"], g["exposure_se"]) for label, g in payload["groups"].items()}
        return checks.exposure_problems(groups, payload["scale"], reconstruct(lottery), self.ref_problem, "cli")

    def peak_rss_kb(self) -> int:
        return self.max_child_kb


def _lottery_from_payload(payload) -> BvnDecomposition:
    return BvnDecomposition(
        terms=tuple(
            BvnTerm(float(t["theta"]), np.asarray(t["ranking"], dtype=int)) for t in payload["terms"]
        )
    )


WORKLOADS = {w.name: w for w in (OfflinePolicy, DenseLottery, ServeAndAudit, CliPipeline)}
