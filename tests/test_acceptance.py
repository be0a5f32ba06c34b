"""Acceptance suite: one test per release criterion, each scoring a line.

Every criterion prints ``criterion N: PASS/FAIL — detail`` to the scorecard
section that :mod:`tests.conftest` appends to the terminal summary.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from fairexposure.bvn import decompose, reconstruct, term_bound
from fairexposure.constraints import (
    demographic_parity,
    disparate_impact,
    disparate_treatment,
)
from fairexposure.core import (
    Item,
    PositionBias,
    RankingProblem,
    permutation_matrix,
    prp_ranking,
    stochastic_violation,
)
from fairexposure.datasets import load_jobseeker, load_synthetic_news
from fairexposure.feasibility import check_feasibility
from fairexposure.lp import solve_problem
from fairexposure.metrics import evaluate
from fairexposure.simulator import simulate

from .test_core import random_doubly_stochastic

RESULTS: list[str] = []


def criterion(number: int):
    """Record a PASS/FAIL scorecard line for one acceptance criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                RESULTS.append(f"criterion {number}: FAIL — {exc}")
                raise
            RESULTS.append(f"criterion {number}: PASS — {detail}")

        return wrapper

    return decorate


def jobseeker_problem() -> RankingProblem:
    return RankingProblem(
        items=load_jobseeker(), position_bias=PositionBias.log_discount(6)
    )


@criterion(1)
def test_criterion_1_unconstrained_objective():
    # solve_problem imports scipy.optimize on first use, which alone can take
    # about half a second; import it first so the bound times the solve
    import scipy.optimize  # noqa: F401

    problem = jobseeker_problem()
    start = time.perf_counter()
    report = solve_problem(problem, [])
    elapsed = time.perf_counter() - start
    assert report.optimal
    assert abs(report.objective - 3.8193) <= 5e-4
    assert elapsed < 1.0
    return (
        f"unconstrained objective {report.objective:.6f} "
        f"(target 3.8193 ± 5e-4) in {elapsed * 1e3:.0f} ms"
    )


@criterion(2)
def test_criterion_2_parity_objective_and_decomposition():
    problem = jobseeker_problem()
    report = solve_problem(problem, [demographic_parity(problem, "M", "F")])
    assert report.optimal
    assert abs(report.objective - 3.8031) <= 5e-4
    P = report.matrix.entries
    metrics = evaluate(P, problem)
    gap = abs(metrics.group("M").exposure - metrics.group("F").exposure)
    assert gap <= 1e-6
    decomposition = decompose(P)
    assert abs(sum(decomposition.thetas) - 1.0) <= 1e-6
    assert len(decomposition.terms) <= term_bound(6)
    round_trip = float(np.max(np.abs(reconstruct(decomposition) - P)))
    assert round_trip <= 1e-6
    return (
        f"parity objective {report.objective:.6f} (target 3.8031 ± 5e-4), "
        f"exposure gap {gap:.2e}, {len(decomposition.terms)} terms ≤ 26, "
        f"round-trip {round_trip:.2e}"
    )


@criterion(3)
def test_criterion_3_treatment_ratio_and_objective_ordering():
    problem = jobseeker_problem()
    prp = permutation_matrix(prp_ranking(problem))
    prp_dtr = evaluate(prp, problem).dtr
    assert abs(prp_dtr - 1.7483) <= 1e-3

    unconstrained = solve_problem(problem, [])
    parity = solve_problem(problem, [demographic_parity(problem, "M", "F")])
    treatment = solve_problem(problem, [disparate_treatment(problem, "M", "F")])
    assert treatment.optimal
    dtr = evaluate(treatment.matrix, problem).dtr
    assert abs(dtr - 1.0) <= 1e-5
    assert parity.objective < treatment.objective < unconstrained.objective
    return (
        f"PRP DTR {prp_dtr:.6f} (target 1.7483 ± 1e-3); constrained DTR {dtr:.8f}; "
        f"objective {treatment.objective:.6f} strictly between "
        f"{parity.objective:.6f} and {unconstrained.objective:.6f}"
    )


@criterion(4)
def test_criterion_4_impact_ratio_and_cost():
    problem = jobseeker_problem()
    unconstrained = solve_problem(problem, [])
    impact = solve_problem(problem, [disparate_impact(problem, "M", "F")])
    assert impact.optimal
    metrics = evaluate(impact.matrix, problem, reference=unconstrained.matrix)
    dir_value = metrics.dir
    assert abs(dir_value - 1.0) <= 1e-5
    cof = metrics.cof
    assert cof >= 0.0
    return f"DIR {dir_value:.8f} (target 1 ± 1e-5), CoF {cof:.6f} ≥ 0"


@criterion(5)
def test_criterion_5_property_suite_on_random_instances():
    rng = np.random.default_rng(20260819)
    infeasible_count = 0
    max_ds_violation = 0.0
    max_residual = 0.0
    max_round_trip = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 11))
        split = int(rng.integers(1, n))
        utilities = rng.uniform(0.05, 1.0, size=n)
        items = tuple(
            Item(
                id=f"t{trial}i{i}",
                group="G0" if i < split else "G1",
                utility=float(utilities[i]),
            )
            for i in range(n)
        )
        problem = RankingProblem(
            items=items, position_bias=PositionBias.log_discount(n)
        )

        # (a) + (d): unconstrained solve is doubly stochastic and matches PRP
        unconstrained = solve_problem(problem, [])
        assert unconstrained.optimal
        violation = stochastic_violation(unconstrained.matrix.entries)
        max_ds_violation = max(max_ds_violation, violation)
        assert violation <= 1e-6
        prp = permutation_matrix(prp_ranking(problem))
        np.testing.assert_allclose(
            unconstrained.matrix.entries, prp, atol=1e-6, rtol=0
        )

        # (b) + (e): constrained solve satisfies the constraint or is
        # correctly infeasible, and the closed-form verdict matches
        constraint = disparate_treatment(problem, "G0", "G1")
        constrained = solve_problem(problem, [constraint])
        verdict = check_feasibility(problem, "disparate-treatment", "G0", "G1")
        assert verdict.feasible == constrained.optimal
        if constrained.optimal:
            residual = constraint.residual(constrained.matrix.entries)
            max_residual = max(max_residual, residual)
            assert residual <= 1e-6
            max_ds_violation = max(
                max_ds_violation, stochastic_violation(constrained.matrix.entries)
            )
        else:
            infeasible_count += 1

        # (c) BvN round-trip within tolerance and term count within bound
        targets = [unconstrained.matrix.entries, random_doubly_stochastic(n, rng)]
        if constrained.optimal:
            targets.append(constrained.matrix.entries)
        for P in targets:
            decomposition = decompose(P)
            assert len(decomposition.terms) <= term_bound(n)
            round_trip = float(np.max(np.abs(reconstruct(decomposition) - P)))
            max_round_trip = max(max_round_trip, round_trip)
            assert round_trip <= 1e-6
    return (
        f"200 instances (N ∈ 2..10, {infeasible_count} correctly infeasible): "
        f"max stochasticity violation {max_ds_violation:.2e}, "
        f"max constraint residual {max_residual:.2e}, "
        f"max BvN round-trip {max_round_trip:.2e}, "
        f"unconstrained = PRP throughout, verdicts match LP status"
    )


@criterion(6)
def test_criterion_6_monte_carlo_in_expectation():
    problem = jobseeker_problem()
    report = solve_problem(problem, [disparate_treatment(problem, "M", "F")])
    decomposition = decompose(report.matrix)
    start = time.perf_counter()
    first = simulate(decomposition, problem, n_users=100_000, seed=2026)
    second = simulate(decomposition, problem, n_users=100_000, seed=2026)
    elapsed = time.perf_counter() - start
    assert first.dtr is not None and first.dtr_se is not None
    assert abs(first.dtr - 1.0) <= 3.0 * first.dtr_se
    assert np.array_equal(first.item_exposure, second.item_exposure)
    assert np.array_equal(first.item_ctr, second.item_ctr)
    assert first.dtr == second.dtr and first.total_clicks == second.total_clicks
    assert elapsed < 30.0
    return (
        f"empirical DTR {first.dtr:.4f} ± {first.dtr_se:.4f} "
        f"(within 3 SE of 1), bit-identical reruns, {elapsed:.2f} s < 30 s"
    )


@criterion(7)
def test_criterion_7_news_objective_ordering():
    items = load_synthetic_news()
    problem = RankingProblem(
        items=items, position_bias=PositionBias.log_discount(len(items))
    )
    unconstrained = solve_problem(problem, [])
    parity = solve_problem(problem, [demographic_parity(problem, "A", "B")])
    treatment = solve_problem(problem, [disparate_treatment(problem, "A", "B")])
    impact = solve_problem(problem, [disparate_impact(problem, "A", "B")])
    for report in (unconstrained, parity, treatment, impact):
        assert report.optimal
    assert parity.objective <= impact.objective
    assert treatment.objective <= unconstrained.objective
    return (
        f"news objectives: parity {parity.objective:.6f} ≤ impact "
        f"{impact.objective:.6f}; treatment {treatment.objective:.6f} ≤ "
        f"unconstrained {unconstrained.objective:.6f}"
    )


@criterion(8)
def test_criterion_8_adversarial_infeasibility_and_remedy():
    def build(fillers: int) -> RankingProblem:
        items = [
            Item(id=f"a{i}", group="A", utility=0.9) for i in range(3)
        ] + [Item(id=f"b{i}", group="B", utility=0.45) for i in range(3)]
        items += [
            Item(id=f"pad{i}", group="other", utility=0.5) for i in range(fillers)
        ]
        return RankingProblem(
            items=tuple(items),
            position_bias=PositionBias.log_discount(len(items)),
        )

    bare = build(0)
    constraint = disparate_treatment(bare, "A", "B")
    verdict = check_feasibility(bare, "disparate-treatment", "A", "B")
    report = solve_problem(bare, [constraint])
    assert not verdict.feasible
    assert report.status == "infeasible"

    padded = build(6)
    padded_verdict = check_feasibility(padded, "disparate-treatment", "A", "B")
    padded_report = solve_problem(
        padded, [disparate_treatment(padded, "A", "B")]
    )
    assert padded_verdict.feasible
    assert padded_report.optimal
    residual = disparate_treatment(padded, "A", "B").residual(
        padded_report.matrix.entries
    )
    assert residual <= 1e-6
    return (
        f"ratio-2 instance infeasible by checker (range "
        f"[{verdict.attainable_range[0]:.4f}, {verdict.attainable_range[1]:.4f}]) "
        f"and by LP; feasible with 6 filler items "
        f"(objective {padded_report.objective:.6f})"
    )
