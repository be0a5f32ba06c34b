"""Tests for LP assembly, solving, certification, and the text dump."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

from fairexposure.constraints import (
    NOTIONS,
    FairnessConstraint,
    demographic_parity,
    disparate_impact,
    disparate_treatment,
    multi_group_constraints,
)
from fairexposure.core import (
    TOLERANCE,
    PositionBias,
    RankingProblem,
    permutation_matrix,
    prp_ranking,
    stochastic_violation,
    utility,
)
from fairexposure.datasets import load_jobseeker, load_synthetic_news
from fairexposure.lp import (
    NumericalFailure,
    build_lp,
    dump_lp,
    solve,
    solve_problem,
)
from fairexposure.metrics import evaluate

from .test_core import make_problem

PRP_UTILITY = 3.8192643340890475
PARITY_ROW_COEFF = 0.4808983469629878  # (1/3) * v_1 under natural log

# sha256 prefix of dump_lp(build_lp(...)) on the bundled fixtures
DUMP_SHA256 = {
    ("jobseeker", "parity"): "cd83b285ea758e36",
    ("jobseeker", "impact"): "96eea25f85493753",
    ("news", "parity"): "50b4b910fcfdef39",
    ("news", "impact"): "a3d77b7c119b741b",
}


def dump_rows(lp):
    """Rows of ``dump_lp(lp)`` by name: ({variable: coefficient}, op, rhs)."""
    text = dump_lp(lp)
    body = text[text.index("Subject To\n") : text.index("Bounds\n")].splitlines()[1:]
    rows = {}
    for line in body:
        if line.startswith("\\"):
            continue
        name, expr = line.strip().split(": ")
        *terms, op, rhs = expr.split()
        coeffs, sign = {}, 1.0
        for token in terms:
            if token in "+-":
                sign = -1.0 if token == "-" else 1.0
            elif token.startswith("p_"):
                coeffs[token] = sign * value
            else:
                value = float(token)
        rows[name] = (coeffs, op, float(rhs))
    return rows


def dump_variables(lp):
    """Variable names in the order the Bounds section of ``dump_lp`` lists them."""
    text = dump_lp(lp)
    bounds = text[text.index("Bounds\n") : text.index("End\n")].splitlines()[1:]
    return [line.split()[2] for line in bounds]


class TestIndexing:
    def test_flatten_unflatten_bijection(self):
        # variables are row-major: variable k is entry divmod(k, n)
        n = 5
        problem = make_problem(
            utilities=(0.9, 0.7, 0.5, 0.3, 0.1), groups=("M", "F", "M", "F", "M")
        )
        lp = build_lp(problem)
        names = dump_variables(lp)
        assert names == [f"p_{k // n}_{k % n}" for k in range(n * n)]
        assert len(set(names)) == n * n
        u, v = problem.utilities, problem.bias
        for k in range(n * n):
            i, j = divmod(k, n)
            assert lp.objective[k] == u[i] * v[j]


class TestBuildLp:
    def test_sizes_with_one_constraint(self):
        problem = make_problem()
        lp = build_lp(problem, [demographic_parity(problem, "M", "F")])
        assert lp.objective.shape == (36,)
        assert len(dump_variables(lp)) == 36
        rows = dump_rows(lp)
        assert len(rows) == 13
        assert sum(1 for name in rows if "_sum_" in name) == 12

    def test_sizes_without_constraints(self):
        problem = make_problem(utilities=(0.9, 0.1), groups=("A", "B"))
        lp = build_lp(problem)
        assert lp.objective.shape == (4,)
        assert len(dump_variables(lp)) == 4
        assert len(dump_rows(lp)) == 4

    def test_objective_is_u_outer_v(self):
        problem = make_problem()
        lp = build_lp(problem)
        u, v = problem.utilities, problem.bias
        np.testing.assert_allclose(
            lp.objective.reshape(6, 6), np.outer(u, v), atol=1e-15
        )

    def test_parity_row_coefficient(self):
        problem = make_problem()
        lp = build_lp(problem, [demographic_parity(problem, "M", "F")])
        # p_0_0 is the probability that the first item takes the top rank
        coeffs, op, rhs = dump_rows(lp)["fair_0"]
        assert coeffs["p_0_0"] == pytest.approx(PARITY_ROW_COEFF, abs=1e-9)
        assert (op, rhs) == ("=", 0.0)

    def test_stochasticity_rows_sum_matrix_entries(self):
        problem = make_problem()
        rows = dump_rows(build_lp(problem))
        P = np.arange(36, dtype=float).reshape(6, 6)

        def applied(name):
            coeffs, op, rhs = rows[name]
            assert (op, rhs) == ("=", 1.0)
            return sum(c * P[tuple(map(int, var.split("_")[1:]))] for var, c in coeffs.items())

        np.testing.assert_allclose([applied(f"row_sum_{i}") for i in range(6)], P.sum(axis=1))
        np.testing.assert_allclose([applied(f"col_sum_{j}") for j in range(6)], P.sum(axis=0))

    def test_length_mismatch_rejected(self):
        problem = make_problem()
        other = make_problem(utilities=(0.5, 0.4), groups=("M", "F"))
        with pytest.raises(ValueError, match="length"):
            build_lp(problem, [demographic_parity(other, "M", "F")])


class TestSolve:
    def test_unconstrained_recovers_prp_permutation(self):
        problem = make_problem()
        report = solve_problem(problem)
        assert report.status == "optimal"
        P = report.matrix.entries
        expected = permutation_matrix(prp_ranking(problem))
        # vertex solution: every entry is essentially 0 or 1
        np.testing.assert_allclose(P, expected, atol=1e-6)
        assert report.objective == pytest.approx(3.8193, abs=5e-4)
        assert report.objective == pytest.approx(PRP_UTILITY, abs=1e-6)

    def test_parity_objective_and_exposure_gap(self):
        problem = make_problem()
        report = solve_problem(problem, [demographic_parity(problem, "M", "F")])
        assert report.status == "optimal"
        assert report.objective == pytest.approx(3.8031, abs=5e-4)
        metrics = evaluate(report.matrix, problem)
        gap = metrics.group("M").exposure - metrics.group("F").exposure
        assert abs(gap) <= 1e-6

    def test_single_item(self):
        problem = make_problem(utilities=(0.4,), groups=("A",))
        report = solve_problem(problem)
        np.testing.assert_allclose(report.matrix.entries, [[1.0]])
        assert report.objective == pytest.approx(0.4 * problem.bias[0], abs=1e-12)

    def test_constraint_never_raises_objective(self):
        problem = make_problem()
        base = solve_problem(problem).objective
        constrained = solve_problem(
            problem, [demographic_parity(problem, "M", "F")]
        ).objective
        assert constrained <= base + 1e-7

    def test_degenerate_equal_utilities(self):
        problem = make_problem(utilities=(0.5,) * 6)
        report = solve_problem(problem, [demographic_parity(problem, "M", "F")])
        assert report.status == "optimal"
        assert stochastic_violation(report.matrix.entries) <= 1e-6

    def test_residuals_certified(self):
        problem = make_problem()
        constraint = disparate_treatment(problem, "M", "F")
        report = solve_problem(problem, [constraint])
        assert report.status == "optimal"
        assert report.max_violation <= 1e-6
        assert constraint.residual(report.matrix) <= 1e-6

    def test_infeasible_reported_with_labels(self):
        # mean-utility ratio 2.0 exceeds the attainable exposure range at N=6
        problem = make_problem(utilities=(0.9, 0.9, 0.9, 0.45, 0.45, 0.45))
        report = solve_problem(problem, [disparate_treatment(problem, "M", "F")])
        assert report.status == "infeasible"
        assert report.matrix is None

    def test_other_solver_status_raises(self, monkeypatch):
        # HiGHS status 3 (unbounded) cannot occur with every variable in [0, 1]
        unbounded = OptimizeResult(status=3, message="The problem is unbounded.", nit=0)
        monkeypatch.setattr("scipy.optimize.linprog", lambda *args, **kwargs: unbounded)
        with pytest.raises(NumericalFailure, match="status 3"):
            solve_problem(make_problem())

    def test_uncertified_optimum_raises(self, monkeypatch):
        # status 0 with a point off the polytope: every row and column sums to 0
        off = OptimizeResult(
            status=0, message="Optimization terminated successfully.", nit=0, x=np.zeros(36)
        )
        monkeypatch.setattr("scipy.optimize.linprog", lambda *args, **kwargs: off)
        with pytest.raises(NumericalFailure, match="claimed optimum violates constraints by 1"):
            solve_problem(make_problem())

    def test_constraint_labels_in_given_order(self):
        problem = make_problem()
        eq = demographic_parity(problem, "M", "F")
        constraints = [
            FairnessConstraint(eq.f, eq.g, label="first"),
            eq,
            FairnessConstraint(eq.f, eq.g, label="last"),
        ]
        report = solve_problem(problem, constraints)
        assert report.status == "optimal"
        assert all(c.residual(report.matrix) <= TOLERANCE for c in constraints)

    def test_solve_memory_grows_with_fairness_rows_only(self):
        # a dense 2N x N² block of stochasticity rows alone would take 3.3 MB
        n = 60
        problem = make_problem(
            utilities=tuple(np.linspace(0.95, 0.05, n)), groups=("M", "F") * (n // 2)
        )
        constraint = demographic_parity(problem, "M", "F")
        tracemalloc.start()
        try:
            report = solve(build_lp(problem, [constraint]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.status == "optimal"
        assert peak < 4 * 2**20

    def test_singleton_group_chain_equalizes_every_item(self):
        # one group per item: exposure proportional to utility item-wise;
        # ratios kept below v_1/v_3 so the target exposures are attainable
        problem = make_problem(
            utilities=(0.8, 0.7, 0.6), groups=("a", "b", "c"), bias=None
        )
        chain = multi_group_constraints(problem, "disparate-treatment", ["a", "b", "c"])
        report = solve_problem(problem, chain)
        assert report.status == "optimal"
        P, v, u = report.matrix.entries, problem.bias, problem.utilities
        ratios = (P @ v) / u
        np.testing.assert_allclose(ratios, ratios[0], atol=1e-6)

    def test_solution_utility_matches_objective(self):
        problem = make_problem()
        report = solve_problem(problem, [demographic_parity(problem, "M", "F")])
        assert utility(report.matrix, problem) == pytest.approx(
            report.objective, abs=1e-9
        )


class TestDump:
    def test_dump_structure(self):
        problem = make_problem(utilities=(0.9, 0.1), groups=("A", "B"))
        lp = build_lp(problem, [demographic_parity(problem, "A", "B")])
        text = dump_lp(lp)
        assert text.startswith("Maximize\n obj:")
        assert "Subject To" in text and "Bounds" in text and text.endswith("End\n")
        assert " row_sum_0:" in text and " col_sum_1:" in text
        assert " fair_0:" in text and "\\ demographic-parity:A,B" in text
        # all four variables appear with the p_i_j naming
        for i in range(2):
            for j in range(2):
                assert f"p_{i}_{j}" in text

    def test_dump_row_count(self):
        problem = make_problem()
        lp = build_lp(problem, [demographic_parity(problem, "M", "F")])
        lines = dump_lp(lp).splitlines()
        assert sum(1 for line in lines if line.lstrip().startswith("row_sum")) == 6
        assert sum(1 for line in lines if line.lstrip().startswith("col_sum")) == 6
        assert sum(1 for line in lines if line.lstrip().startswith("fair_")) == 1

    @pytest.mark.parametrize("fixture, notion", sorted(DUMP_SHA256))
    def test_dump_bytes_pinned(self, fixture, notion):
        loader, groups = {
            "jobseeker": (load_jobseeker, ("M", "F")),
            "news": (load_synthetic_news, ("A", "B")),
        }[fixture]
        build = {"parity": demographic_parity, "impact": disparate_impact}[notion]
        items = loader()
        problem = RankingProblem(
            items=items, position_bias=PositionBias.log_discount(len(items))
        )
        text = dump_lp(build_lp(problem, [build(problem, *groups)]))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest[:16] == DUMP_SHA256[fixture, notion]


@st.composite
def reordered_instances(draw):
    """2-3 groups over at most 30 items with pairwise-distinct utilities, a
    notion chained over the groups, log-discount or dcg@k bias, and an item
    permutation."""
    labels = ["A", "B", "C"][: draw(st.integers(2, 3))]
    n = draw(st.integers(len(labels), 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = rng.permutation(labels + list(rng.choice(labels, size=n - len(labels))))
    utilities = rng.choice(np.arange(1, 1000), size=n, replace=False) / 1000.0
    if draw(st.booleans()):
        bias = PositionBias.dcg_at_k(n, k=draw(st.integers(1, n)))
    else:
        bias = PositionBias.log_discount(n)
    notion = draw(st.sampled_from(sorted(NOTIONS)))
    return utilities, groups, labels, bias, notion, rng.permutation(n)


class TestItemOrderInvariance:
    """Reordering the items moves P's rows but not the optimum's value.

    P itself is not compared: the optimum need not be unique.
    """

    @settings(max_examples=40)
    @given(reordered_instances())
    def test_status_objective_and_exposures_unchanged(self, instance):
        utilities, groups, labels, bias, notion, order = instance
        outcomes = []
        for index in (np.arange(len(order)), order):
            problem = make_problem(
                utilities=tuple(utilities[index]), groups=tuple(groups[index]), bias=bias
            )
            constraints = multi_group_constraints(problem, notion, labels)
            report = solve_problem(problem, constraints)
            exposures = None
            if report.optimal:
                metrics = evaluate(report.matrix, problem)
                exposures = [metrics.group(label).exposure for label in labels]
            outcomes.append((report.status, report.objective, exposures))
        (status, objective, exposures), (status_p, objective_p, exposures_p) = outcomes
        assert status == status_p
        if status == "optimal":
            assert objective_p == pytest.approx(objective, rel=1e-9)
            assert exposures_p == pytest.approx(exposures, rel=1e-9)
