"""Tests for the Monte-Carlo click simulator."""

from __future__ import annotations

import numpy as np
import pytest

from fairexposure.bvn import BvnDecomposition, BvnTerm, decompose
from fairexposure.constraints import demographic_parity, disparate_treatment
from fairexposure.core import PositionBias
from fairexposure.lp import solve_problem
from fairexposure.metrics import evaluate
from fairexposure.simulator import simulate

from .test_core import make_problem


def single_term(ranking) -> BvnDecomposition:
    return BvnDecomposition(terms=(BvnTerm(1.0, np.array(ranking)),))


def dt_solution():
    problem = make_problem()
    report = solve_problem(problem, [disparate_treatment(problem, "M", "F")])
    return problem, decompose(report.matrix)


class TestSimulateBasics:
    def test_certain_examination_when_bias_is_one(self):
        bias = PositionBias.explicit(np.ones(4))
        problem = make_problem(
            utilities=(0.9, 0.8, 0.7, 0.6), groups=("A", "A", "B", "B"), bias=bias
        )
        report = simulate(single_term([0, 1, 2, 3]), problem, n_users=500, seed=1)
        np.testing.assert_allclose(report.item_exposure, 1.0)
        assert report.scale == 1.0

    def test_zero_utilities_never_click(self):
        problem = make_problem(utilities=(0.0,) * 4, groups=("A", "A", "B", "B"))
        report = simulate(single_term([3, 1, 0, 2]), problem, n_users=2000, seed=5)
        assert report.total_clicks == 0
        np.testing.assert_allclose(report.item_ctr, 0.0)
        assert report.dtr is None and report.dir is None

    def test_scale_recorded_for_log_bias(self):
        problem = make_problem()
        report = simulate(single_term(range(6)), problem, n_users=10, seed=0)
        assert report.scale == pytest.approx(1.0 / float(problem.bias[0]))

    def test_input_validation(self):
        problem = make_problem()
        with pytest.raises(ValueError, match="n_users"):
            simulate(single_term(range(6)), problem, n_users=0, seed=1)
        with pytest.raises(ValueError, match="n_users"):
            simulate(single_term(range(6)), problem, n_users=10.5, seed=1)
        for seed in (-1, 1.5, True, 2**64):
            with pytest.raises(ValueError, match="seed"):
                simulate(single_term(range(6)), problem, n_users=1, seed=seed)
        top = simulate(single_term(range(6)), problem, n_users=1, seed=2**64 - 1)
        assert top.seed == 2**64 - 1
        with pytest.raises(ValueError, match="decomposition is over"):
            simulate(single_term(range(4)), problem, n_users=1, seed=1)

    def test_same_group_twice_rejected(self):
        with pytest.raises(ValueError, match="the two groups must differ, both are 'M'"):
            simulate(
                single_term(range(6)), make_problem(), n_users=1, seed=1, group_pair=("M", "M")
            )


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        problem, dec = dt_solution()
        a = simulate(dec, problem, n_users=5000, seed=99)
        b = simulate(dec, problem, n_users=5000, seed=99)
        assert np.array_equal(a.item_exposure, b.item_exposure)
        assert np.array_equal(a.item_ctr, b.item_ctr)
        assert a.dtr == b.dtr and a.dtr_se == b.dtr_se
        assert a.total_clicks == b.total_clicks
        for ga, gb in zip(a.groups, b.groups):
            assert ga == gb

    def test_different_seeds_differ(self):
        problem, dec = dt_solution()
        a = simulate(dec, problem, n_users=5000, seed=1)
        b = simulate(dec, problem, n_users=5000, seed=2)
        assert not np.array_equal(a.item_exposure, b.item_exposure)

    def test_multiple_chunks_execute(self):
        # crosses the internal chunk boundary
        problem, dec = dt_solution()
        report = simulate(dec, problem, n_users=16384 + 7, seed=3)
        assert report.n_users == 16384 + 7


class TestConvergence:
    def test_item_exposure_within_three_standard_errors(self):
        problem = make_problem()
        solution = solve_problem(problem, [demographic_parity(problem, "M", "F")])
        dec = decompose(solution.matrix)
        report = simulate(dec, problem, n_users=100_000, seed=17)
        analytic = report.scale * (solution.matrix.entries @ problem.bias)
        for i in range(6):
            margin = 3.0 * max(report.item_exposure_se[i], 1e-6)
            assert abs(report.item_exposure[i] - analytic[i]) <= margin

    def test_group_ctr_within_three_standard_errors(self):
        problem, dec = dt_solution()
        from fairexposure.bvn import reconstruct

        P = reconstruct(dec)
        report = simulate(dec, problem, n_users=100_000, seed=23)
        metrics = evaluate(P, problem)
        for label in ("M", "F"):
            analytic = report.scale * metrics.group(label).ctr
            gs = report.group(label)
            assert abs(gs.ctr - analytic) <= 3.0 * max(gs.ctr_se, 1e-6)

    def test_group_exposure_matches_analytic(self):
        problem, dec = dt_solution()
        from fairexposure.bvn import reconstruct

        P = reconstruct(dec)
        report = simulate(dec, problem, n_users=100_000, seed=29)
        metrics = evaluate(P, problem)
        for label in ("M", "F"):
            analytic = report.scale * metrics.group(label).exposure
            gs = report.group(label)
            assert abs(gs.exposure - analytic) <= 3.0 * max(gs.exposure_se, 1e-6)

    def test_empirical_dtr_near_one_for_fair_solution(self):
        problem, dec = dt_solution()
        report = simulate(dec, problem, n_users=100_000, seed=31)
        assert report.dtr_se is not None
        assert abs(report.dtr - 1.0) <= 3.0 * report.dtr_se
        # standard errors shrink roughly as 1/sqrt(users)
        small = simulate(dec, problem, n_users=10_000, seed=31)
        assert report.dtr_se < small.dtr_se


class TestReportShape:
    def test_to_dict_round_trips_through_json(self):
        import json

        problem, dec = dt_solution()
        report = simulate(dec, problem, n_users=1000, seed=7)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_users"] == 1000
        assert len(payload["item_exposure"]) == 6
        assert payload["groups"]["M"]["exposure"] > 0
        assert "dtr" in payload and "dir" in payload

    def test_unknown_group_lookup_rejected(self):
        problem, dec = dt_solution()
        report = simulate(dec, problem, n_users=10, seed=1)
        with pytest.raises(ValueError, match="no simulation results"):
            report.group("X")
