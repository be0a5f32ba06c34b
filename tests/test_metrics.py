"""Tests for the utility and fairness diagnostics."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fairexposure.bvn import BvnDecomposition, BvnTerm
from fairexposure.cli import _problem_to_json
from fairexposure.constraints import (
    demographic_parity,
    disparate_impact,
    disparate_treatment,
)
from fairexposure.core import (
    DoublyStochasticMatrix,
    Item,
    PositionBias,
    permutation_matrix,
    prp_ranking,
)
from fairexposure.feasibility import check_feasibility
from fairexposure.lp import solve_problem
from fairexposure.metrics import MetricsReport, evaluate
from fairexposure.simulator import simulate

from .test_core import make_problem

# Frozen oracle values for the six-candidate fixture, identity matrix,
# natural-log bias.
PRP_DTR = 1.7482683189352557
PRP_DIR = 1.8192887059060985
CTR_M = 0.8324605744840912
CTR_F = 0.44062753687892475
PRP_UTILITY = 3.8192643340890475


def ratios(P, problem, g0="M", g1="F") -> tuple:
    report = evaluate(P, problem, group_pair=(g0, g1))
    return report.dtr, report.dir


def cof(best, P, problem) -> float:
    return evaluate(P, problem, reference=best).cof


class TestGroupCtr:
    def test_prp_values(self):
        report = evaluate(np.eye(6), make_problem())
        assert report.group("M").ctr == pytest.approx(CTR_M, abs=1e-9)
        assert report.group("F").ctr == pytest.approx(CTR_F, abs=1e-9)

    def test_pinned_item_contributes_v1(self):
        problem = make_problem(utilities=(1.0, 0.5, 0.5), groups=("A", "B", "B"))
        P = permutation_matrix([0, 1, 2])
        assert evaluate(P, problem).group("A").ctr == pytest.approx(float(problem.bias[0]))

    def test_zero_utility_group_has_zero_ctr(self):
        problem = make_problem(utilities=(0.4, 0.4, 0.0, 0.0), groups=("A", "A", "B", "B"))
        assert evaluate(np.eye(4), problem).group("B").ctr == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            evaluate(np.eye(3), make_problem())


class TestDisparateTreatmentRatio:
    def test_prp_oracle(self):
        value, _ = ratios(np.eye(6), make_problem())
        assert value == pytest.approx(1.7483, abs=1e-3)
        assert value == pytest.approx(PRP_DTR, abs=1e-9)

    def test_constrained_solution_is_fair(self):
        problem = make_problem()
        report = solve_problem(problem, [disparate_treatment(problem, "M", "F")])
        value, _ = ratios(report.matrix, problem)
        assert value == pytest.approx(1.0, abs=1e-5)

    def test_uniform_matrix_gives_inverse_utility_ratio(self):
        value, _ = ratios(DoublyStochasticMatrix.uniform(6), make_problem())
        assert value == pytest.approx(0.78 / 0.81, abs=1e-12)

    def test_reciprocal_identity(self):
        problem = make_problem()
        P = np.eye(6)
        forward, _ = ratios(P, problem, "M", "F")
        backward, _ = ratios(P, problem, "F", "M")
        assert forward * backward == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_utility_scaling(self):
        base = make_problem()
        scaled = make_problem(utilities=tuple(0.5 * u for u in base.utilities))
        P = permutation_matrix([2, 0, 5, 1, 4, 3])
        assert ratios(P, base)[0] == pytest.approx(ratios(P, scaled)[0], abs=1e-12)

    def test_zero_denominators_give_none(self):
        zero_util = make_problem(utilities=(0.5, 0.5, 0.5, 0.0, 0.0, 0.0))
        assert ratios(np.eye(6), zero_util) == (None, None)
        # zero exposure: dcg@k bias with the tail cut, group F stuck in it
        from fairexposure.core import PositionBias

        bias = PositionBias.dcg_at_k(6, k=3, base=2)
        problem = make_problem(bias=bias)
        assert ratios(np.eye(6), problem, "M", "F") == (None, None)
        assert ratios(np.eye(6), problem, "F", "M") == (None, None)


class TestDisparateImpactRatio:
    def test_constrained_solution_is_fair(self):
        problem = make_problem()
        report = solve_problem(problem, [disparate_impact(problem, "M", "F")])
        _, value = ratios(report.matrix, problem)
        assert value == pytest.approx(1.0, abs=1e-5)

    def test_symmetric_groups_give_unity(self):
        problem = make_problem(utilities=(0.6, 0.6, 0.6, 0.6), groups=("A", "A", "B", "B"))
        _, value = ratios(DoublyStochasticMatrix.uniform(4), problem, "A", "B")
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_prp_favors_top_group(self):
        _, value = ratios(np.eye(6), make_problem())
        assert value > 1.0
        assert value == pytest.approx(PRP_DIR, abs=1e-9)

    def test_reciprocal_identity(self):
        problem = make_problem()
        P = np.eye(6)
        _, forward = ratios(P, problem, "M", "F")
        _, backward = ratios(P, problem, "F", "M")
        assert forward * backward == pytest.approx(1.0, abs=1e-12)


class TestCostOfFairness:
    def test_zero_against_itself(self):
        problem = make_problem()
        P = permutation_matrix(prp_ranking(problem))
        assert cof(P, P, problem) == 0.0

    def test_parity_cost(self):
        problem = make_problem()
        best = solve_problem(problem).matrix
        fair = solve_problem(problem, [demographic_parity(problem, "M", "F")]).matrix
        assert cof(best, fair, problem) == pytest.approx(0.0162, abs=1e-3)

    def test_never_negative_against_optimum(self):
        problem = make_problem()
        best = solve_problem(problem).matrix
        rng = np.random.default_rng(2)
        for _ in range(10):
            P = permutation_matrix(rng.permutation(6))
            assert cof(best, P, problem) >= -1e-6

    def test_certified_matrix_may_beat_reference_within_floor(self):
        # row and column sums 1 + 1e-6 certify; the floor is -(n+1)·1e-6·OPT
        problem = make_problem()
        best = permutation_matrix(prp_ranking(problem))
        assert cof(best, np.eye(6) * (1 + 1e-6), problem) == pytest.approx(-3.819e-6, rel=1e-3)

    def test_reversed_reference_still_rejected_for_certified_matrix(self):
        problem = make_problem()
        worst = permutation_matrix(prp_ranking(problem)[::-1])
        with pytest.raises(ValueError, match="not the unconstrained optimum"):
            evaluate(np.eye(6) * (1 + 1e-6), problem, reference=worst)

    def test_monotone_in_constraints(self):
        problem = make_problem()
        best = solve_problem(problem).matrix
        one = solve_problem(problem, [demographic_parity(problem, "M", "F")]).matrix
        both = solve_problem(
            problem,
            [
                demographic_parity(problem, "M", "F"),
                disparate_impact(problem, "M", "F"),
            ],
        ).matrix
        assert cof(best, one, problem) <= cof(best, both, problem) + 1e-9


class TestEvaluate:
    def test_report_contents(self):
        problem = make_problem()
        best = solve_problem(problem).matrix
        report = evaluate(np.eye(6), problem, reference=best)
        assert report.dcg == pytest.approx(PRP_UTILITY, abs=1e-9)
        assert report.group_pair == ("M", "F")
        assert report.dtr == pytest.approx(PRP_DTR, abs=1e-9)
        assert report.dir == pytest.approx(PRP_DIR, abs=1e-9)
        assert report.cof == pytest.approx(0.0, abs=1e-6)
        assert report.group("M").exposure == pytest.approx(1.024760595986761, abs=1e-9)
        assert report.group("M").size == 3

    def test_multi_group_pair_omitted(self):
        problem = make_problem(groups=("A", "B", "C", "A", "B", "C"))
        report = evaluate(np.eye(6), problem)
        assert report.group_pair is None
        assert report.dtr is None and report.dir is None
        assert len(report.groups) == 3

    def test_explicit_pair(self):
        problem = make_problem(groups=("A", "B", "C", "A", "B", "C"))
        report = evaluate(np.eye(6), problem, group_pair=("C", "A"))
        c, a = report.group("C"), report.group("A")
        expected = (c.exposure / c.mean_utility) / (a.exposure / a.mean_utility)
        assert report.dtr == expected

    def test_unknown_group_in_pair_rejected(self):
        with pytest.raises(ValueError, match="has no items"):
            evaluate(np.eye(6), make_problem(), group_pair=("M", "X"))

    def test_same_group_twice_rejected(self):
        with pytest.raises(ValueError, match="the two groups must differ, both are 'M'"):
            evaluate(np.eye(6), make_problem(), group_pair=("M", "M"))

    def test_to_dict_round_trips_through_json(self):
        import json

        problem = make_problem()
        report = evaluate(np.eye(6), problem)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["dtr"] == pytest.approx(PRP_DTR, abs=1e-12)
        assert payload["groups"]["F"]["ctr"] == pytest.approx(CTR_F, abs=1e-12)

    def test_bad_reference_rejected(self):
        problem = make_problem()
        worst = permutation_matrix(prp_ranking(problem)[::-1])
        with pytest.raises(ValueError, match="not the unconstrained optimum"):
            evaluate(np.eye(6), problem, reference=worst)

    def test_negative_exposure_gives_undefined_ratios(self):
        problem = make_problem(
            utilities=(0.5, 0.5),
            groups=("A", "B"),
            bias=PositionBias("dcg@k", [1.4427, 0.0]),
        )
        P = DoublyStochasticMatrix([[1 + 5e-7, -5e-7], [-5e-7, 1 + 5e-7]])
        report = evaluate(P, problem)
        assert report.group("B").exposure < 0 and report.group("B").ctr < 0
        assert report.dtr is None and report.dir is None

    def test_unknown_group_in_report_lookup(self):
        report = evaluate(np.eye(6), make_problem())
        with pytest.raises(ValueError, match="no metrics"):
            report.group("X")


class TestMetricsReportValidation:
    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError, match="dtr"):
            MetricsReport(
                dcg=1.0, groups=(), group_pair=("A", "B"), dtr=0.0, dir=1.0, cof=None
            )


def field_names(record, omitted=()) -> list:
    return [f.name for f in dataclasses.fields(record) if f.name not in omitted]


PAIR_FIELDS = {"group_pair", "dtr", "dir", "dtr_se", "dir_se"}


class TestReportFields:
    """Each report's JSON keys are its field names in declaration order, less
    the documented omissions: the pair's fields without a pair, any other
    field left None (or a verdict's field left at its default), and each
    group record's label, which keys the record."""

    def assert_groups(self, payload, report):
        assert list(payload["groups"]) == [g.label for g in report.groups]
        for record in report.groups:
            assert list(payload["groups"][record.label]) == field_names(record, {"label"})

    def test_metrics_report(self):
        two, three = make_problem(), make_problem(groups=("A", "B", "C", "A", "B", "C"))
        best = permutation_matrix(prp_ranking(two))
        for report, omitted in (
            (evaluate(np.eye(6), two, reference=best), set()),
            (evaluate(np.eye(6), two), {"cof"}),
            (evaluate(np.eye(6), three), PAIR_FIELDS | {"cof"}),
        ):
            payload = report.to_dict()
            assert list(payload) == field_names(report, omitted)
            self.assert_groups(payload, report)

    def test_simulation_report(self):
        lottery = BvnDecomposition((BvnTerm(1.0, np.arange(6)),))
        for problem, omitted in (
            (make_problem(), set()),
            (make_problem(groups=("A", "B", "C", "A", "B", "C")), PAIR_FIELDS),
        ):
            report = simulate(lottery, problem, n_users=10, seed=0)
            payload = report.to_dict()
            assert list(payload) == field_names(report, omitted)
            assert payload["item_ctr"] == report.item_ctr.tolist()
            self.assert_groups(payload, report)

    def test_feasibility_verdict(self):
        problem = make_problem(utilities=(0.9, 0.9, 0.9, 0.45, 0.45, 0.45))
        for verdict, omitted in (
            (check_feasibility(problem, "disparate-treatment", "M", "F"), set()),
            (check_feasibility(make_problem(), "disparate-treatment", "M", "F"), {"note"}),
            (
                check_feasibility(problem, "disparate-impact", "M", "F"),
                {"required_ratio", "attainable_range"},
            ),
        ):
            assert list(verdict.to_dict()) == field_names(verdict, omitted)

    def test_problem_items_and_bias(self):
        problem = make_problem()
        payload = _problem_to_json(problem)
        assert [list(item) for item in payload["items"]] == [field_names(Item)] * 6
        assert list(payload["bias"]) == field_names(PositionBias)
        assert payload["bias"]["values"] == problem.bias.tolist()
