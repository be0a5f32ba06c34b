"""Self-tests of the benchmark: deterministic inputs, checks that bite, smoke runs.

Run from the root of a checkout with ``python3 perfbench/selftest.py`` (or
``python3 -m pytest perfbench/selftest.py``).  The smoke runs take about a
minute, so the file is not named for collection by the package's test suite.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from fairexposure import (  # noqa: E402
    check_feasibility,
    decompose,
    demographic_parity,
    load_synthetic_news,
    read_items_csv,
    sample_for_user,
    solve_problem,
    stochastic_violation,
)
from perfbench import checks, inputs, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _news():
    problem = workloads.log_problem(load_synthetic_news())
    constraints = [demographic_parity(problem, "A", "B")]
    report = solve_problem(problem, constraints)
    return problem, constraints, report, decompose(report.matrix)


class GeneratorTest(unittest.TestCase):
    def _all_inputs(self, seed):
        parts = [inputs.policy_case(seed, i).csv for i in range(inputs.POLICY_CYCLE)]
        parts += [inputs.dense_matrix(seed, i) for i in range(len(inputs.DENSE_SIZES))]
        serve = inputs.serve_inputs(seed)
        for lottery in serve.few + serve.many:
            parts += [lottery.thetas, np.stack([t.ranking for t in lottery.terms])]
        parts.append("\n".join(inputs.user_keys(seed, 0, 10)))
        return parts

    def test_same_seed_gives_identical_inputs(self):
        for seed in (0, 1):
            self.assertEqual(inputs.digest(self._all_inputs(seed)), inputs.digest(self._all_inputs(seed)))
        self.assertNotEqual(inputs.digest(self._all_inputs(0)), inputs.digest(self._all_inputs(1)))

    def test_inputs_are_what_the_workloads_claim(self):
        for i in range(len(inputs.DENSE_SIZES)):
            self.assertLess(stochastic_violation(inputs.dense_matrix(3, i)), 1e-12)
        for i in range(inputs.POLICY_CYCLE):
            case = inputs.policy_case(3, i)
            problem = workloads.log_problem(read_items_csv(io.StringIO(case.csv)))
            if case.skewed:
                verdict = check_feasibility(problem, "disparate-treatment", *case.groups[-2:])
                self.assertFalse(verdict.feasible, case.kind)


class ChecksRejectCorruptionTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.problem, cls.constraints, cls.report, cls.lottery = _news()
        cls.matrix = cls.report.matrix.entries

    def test_lottery_check_rejects_perturbed_matrix(self):
        self.assertEqual(checks.lottery_problems(self.matrix, self.lottery), [])
        bad = self.matrix.copy()
        bad[0, 0] += 1e-4
        self.assertTrue(checks.lottery_problems(bad, self.lottery))

    def test_solve_check_rejects_wrong_objective_and_residuals(self):
        args = (self.report.max_violation, self.matrix, self.constraints, self.problem)
        self.assertEqual(checks.solve_problems(self.report.objective, *args), [])
        self.assertTrue(checks.solve_problems(self.report.objective * (1 + 1e-6), *args))
        bad = self.matrix.copy()
        bad[:, [0, 1]] = bad[:, [1, 0]]  # still doubly stochastic, no longer fair
        self.assertTrue(checks.solve_problems(self.report.objective, 1e-9, bad, self.constraints, self.problem))
        self.assertTrue(checks.solve_problems(self.report.objective, 1e-3, *args[1:]))

    def test_scalar_checks_reject_bad_values(self):
        self.assertEqual(checks.cof_problems(0.0), [])
        self.assertTrue(checks.cof_problems(-1e-6))
        self.assertEqual(checks.canary_problems("news", "unconstrained", 7.919871), [])
        self.assertTrue(checks.canary_problems("news", "unconstrained", 7.9199))
        self.assertEqual(checks.hash_problems(), [])
        self.assertTrue(checks.hash_problems(lambda key: 0))

    def test_same_key_check_rejects_swapped_ranking(self):
        ranking = sample_for_user(self.lottery, "alice")
        self.assertEqual(checks.same_key_problems(self.lottery, "alice", ranking), [])
        swapped = ranking.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        self.assertTrue(checks.same_key_problems(self.lottery, "alice", swapped))

    def test_draws_and_exposure_checks_reject_bad_outputs(self):
        self.assertEqual(checks.draws_problems(np.array([0, 1]), self.lottery, 2), [])
        self.assertTrue(checks.draws_problems(np.array([0, len(self.lottery.terms)]), self.lottery, 2))
        exposure = self.matrix @ self.problem.bias
        groups = {g: (float(exposure[self.problem.group_indices(g)].mean()), 1e-3) for g in "AB"}
        self.assertEqual(checks.exposure_problems(groups, 1.0, self.matrix, self.problem), [])
        shifted = {g: (value + 0.01, se) for g, (value, se) in groups.items()}
        self.assertTrue(checks.exposure_problems(shifted, 1.0, self.matrix, self.problem))

    def test_strict_json_rejects_non_finite_constants(self):
        self.assertEqual(checks.strict_json('{"a": [1.5, null]}'), {"a": [1.5, None]})
        for text in ('{"a": Infinity}', '{"a": -Infinity}', '{"a": NaN}'):
            with self.assertRaises(ValueError):
                checks.strict_json(text)

    def test_cli_checks_reject_infinity_and_swapped_ranking(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
            ctx = workloads.Context(ROOT, 0, Tracer(False), Path(tmp), {})
            cli = workloads.CliPipeline(ctx)
            cli.prepare()
            fields, _ = cli.inputs(0)

            def child(text):
                return workloads.Child(0, text.encode("utf-8"), b"", 0.0, 0)

            problems = cli.check((fields, []), {"solve": child('{"status": "optimal", "objective": Infinity}')})
            self.assertTrue(problems)
            ids = [cli.ids[i] for i in sample_for_user(cli.ref_lottery, fields["key"])]
            self.assertEqual(cli.check((fields, []), {"sample_user": child(",".join(ids) + "\n")}), [])
            ids[0], ids[1] = ids[1], ids[0]
            self.assertTrue(cli.check((fields, []), {"sample_user": child(",".join(ids) + "\n")}))


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


class SmokeTest(unittest.TestCase):
    """One shortest run (a single cycle) per workload, plus one traced run."""

    def _result(self, workload, trace):
        done = _run(["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)])
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_every_workload_passes_its_checks(self):
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            with self.subTest(workload=workload):
                result = self._result(workload, 0)
                self.assertTrue(result["correct"], result)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(sorted(result["metrics"]), sorted(names))
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()), result)

    def test_traced_run_reports_every_per_layer_metric(self):
        result = self._result("dense-lottery", 1)
        self.assertTrue(result["correct"], result)
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in BENCHMARK["per_layer"]))
        times = [m for m in BENCHMARK["per_layer"] if m["unit"] in ("s", "us")]
        self.assertTrue(all(result["metrics"][m["name"]]["value"] > 0 for m in times))

    def test_run_without_package_source_fails_without_result(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in BENCHMARK["paths"]:
                shutil.copytree(ROOT / path, Path(bare) / path, ignore=shutil.ignore_patterns("__pycache__"))
            done = _run(["--workload", "dense-lottery", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
