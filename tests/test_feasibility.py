"""Tests for the constraint feasibility checkers."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairexposure.constraints import NOTIONS, disparate_treatment, multi_group_constraints
from fairexposure.core import (
    TOLERANCE,
    DoublyStochasticMatrix,
    Item,
    PositionBias,
    RankingProblem,
)
from fairexposure.feasibility import _REMEDY, _SLACK, check_feasibility
from fairexposure.lp import solve_problem

from .test_core import make_problem

# Frozen oracle values under the natural-log bias.
RANGE_3V3_N6 = (0.5508095940041025, 1.8155094081250733)
MAX_2V3_N6 = 2.0842791555921623
MIN_2V3_N6 = 0.5230533712553324
JOBSEEKER_REQUIRED = 1.0384615384615385

# 3 vs 3 with mean utilities 0.9 and 0.45: required ratio 2.0 sits outside
# the N=6 range above but inside the N=12 range (max 2.5421).
ADVERSARIAL_UTILITIES = (0.9, 0.9, 0.9, 0.45, 0.45, 0.45)


def log_discount(n: int) -> np.ndarray:
    return PositionBias.log_discount(n).values


def check_treatment(problem: RankingProblem, g0: str, g1: str):
    return check_feasibility(problem, "disparate-treatment", g0, g1)


def padded_adversarial_problem(fillers: int) -> RankingProblem:
    items = [
        Item(id=f"item{i}", group=g, utility=u)
        for i, (u, g) in enumerate(zip(ADVERSARIAL_UTILITIES, ("M",) * 3 + ("F",) * 3))
    ]
    items += [
        Item(id=f"pad{k}", group="other", utility=0.5) for k in range(fillers)
    ]
    bias = PositionBias.log_discount(len(items))
    return RankingProblem(items=tuple(items), position_bias=bias)


def attainable_range(size0: int, size1: int, v) -> tuple[float, float]:
    """The treatment verdict's range for group A of ``size0`` items on top,
    group B of ``size1`` next and filler items below, under bias ``v``."""
    n = len(v)
    groups = ("A",) * size0 + ("B",) * size1 + ("C",) * (n - size0 - size1)
    problem = make_problem(
        utilities=(0.5,) * len(groups), groups=groups, bias=PositionBias.explicit(v)
    )
    return check_treatment(problem, "A", "B").attainable_range


class TestExposureRatioRange:
    def test_three_vs_three_oracle(self):
        v = log_discount(6)
        lo, hi = attainable_range(3, 3, v)
        assert hi == pytest.approx(1.81552, abs=1e-4)
        assert (lo, hi) == pytest.approx(RANGE_3V3_N6, abs=1e-9)

    def test_flat_bias_pins_ratio_to_one(self):
        assert attainable_range(1, 1, np.array([1.0, 1.0])) == (1.0, 1.0)

    def test_equal_sizes_are_reciprocal(self):
        v = log_discount(9)
        for size in (1, 2, 4):
            lo, hi = attainable_range(size, size, v)
            assert lo == pytest.approx(1.0 / hi, abs=1e-12)

    def test_unequal_sizes(self):
        v = log_discount(6)
        lo, hi = attainable_range(2, 3, v)
        assert hi == pytest.approx(MAX_2V3_N6, abs=1e-9)
        assert lo == pytest.approx(MIN_2V3_N6, abs=1e-9)

    def test_zero_tail_gives_unbounded_maximum(self):
        v = np.array([1.0, 0.6, 0.0, 0.0])
        lo, hi = attainable_range(2, 2, v)
        assert hi == np.inf
        assert lo == 0.0

    def test_range_always_brackets_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            s0 = int(rng.integers(1, n))
            s1 = int(rng.integers(1, n - s0 + 1))
            lo, hi = attainable_range(s0, s1, log_discount(n))
            assert lo <= 1.0 + 1e-12 and hi >= 1.0 - 1e-12

    def test_widening_tail_never_shrinks_range(self):
        previous = RANGE_3V3_N6
        for n in (8, 10, 12):
            lo, hi = attainable_range(3, 3, log_discount(n))
            assert hi >= previous[1] - 1e-12
            assert lo <= previous[0] + 1e-12
            previous = (lo, hi)

    def test_rejects_bad_inputs(self):
        # sizes and bias shapes are settled where the problem is built
        v = log_discount(4)
        with pytest.raises(ValueError, match="5 items but position bias of length 4"):
            attainable_range(3, 2, v)
        with pytest.raises(ValueError, match="group 'A' has no items"):
            attainable_range(0, 2, v)
        with pytest.raises(ValueError, match="non-increasing"):
            attainable_range(1, 1, np.array([0.2, 0.8]))
        with pytest.raises(ValueError, match="entirely zero"):
            attainable_range(1, 1, np.zeros(3))
        with pytest.raises(ValueError, match="non-empty vector"):
            PositionBias.explicit([])


class TestCheckDtFeasibility:
    def test_jobseeker_feasible(self):
        verdict = check_treatment(make_problem(), "M", "F")
        assert verdict.feasible
        assert verdict.method == "closed-form"
        assert verdict.required_ratio == pytest.approx(JOBSEEKER_REQUIRED, abs=1e-12)
        assert verdict.attainable_range == pytest.approx(RANGE_3V3_N6, abs=1e-9)
        assert verdict.note == ""

    def test_adversarial_infeasible_with_remedy_note(self):
        problem = make_problem(utilities=ADVERSARIAL_UTILITIES)
        verdict = check_treatment(problem, "M", "F")
        assert not verdict.feasible
        assert verdict.required_ratio == pytest.approx(2.0, abs=1e-12)
        assert "neither group" in verdict.note

    def test_extreme_ratio_infeasible(self):
        problem = make_problem(utilities=(0.99, 0.99, 0.99, 0.01, 0.01, 0.01))
        verdict = check_treatment(problem, "M", "F")
        assert not verdict.feasible
        assert verdict.required_ratio == pytest.approx(99.0, abs=1e-9)

    def test_fillers_restore_feasibility(self):
        assert not check_treatment(padded_adversarial_problem(0), "M", "F").feasible
        verdict = check_treatment(padded_adversarial_problem(6), "M", "F")
        assert verdict.feasible
        assert verdict.attainable_range[1] == pytest.approx(2.5421295665968042, abs=1e-9)

    def test_equal_means_always_feasible(self):
        problem = make_problem(utilities=(0.3, 0.5, 0.7, 0.7, 0.5, 0.3))
        assert check_treatment(problem, "M", "F").feasible

    def test_zero_mean_utility_rejected(self):
        problem = make_problem(utilities=(0.5, 0.5, 0.5, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="zero mean utility"):
            check_treatment(problem, "M", "F")

    def test_identical_groups_rejected(self):
        with pytest.raises(ValueError, match="the two groups must differ"):
            check_treatment(make_problem(), "M", "M")

    def test_verdict_serializes(self):
        verdict = check_treatment(make_problem(), "M", "F")
        payload = verdict.to_dict()
        assert payload["feasible"] is True
        assert payload["attainable_range"] == pytest.approx(list(RANGE_3V3_N6))


class TestCheckFeasibility:
    def test_parity_is_witnessed(self):
        verdict = check_feasibility(make_problem(), "demographic-parity", "M", "F")
        assert verdict.feasible and verdict.method == "witness"

    def test_impact_is_witnessed(self):
        verdict = check_feasibility(make_problem(), "disparate-impact", "M", "F")
        assert verdict.feasible and verdict.method == "witness"

    def test_treatment_dispatches_to_closed_form(self):
        verdict = check_feasibility(make_problem(), "disparate-treatment", "M", "F")
        assert verdict.method == "closed-form"

    def test_unknown_notion_rejected(self):
        with pytest.raises(ValueError, match="notion"):
            check_feasibility(make_problem(), "equal-opportunity", "M", "F")

    @pytest.mark.parametrize("notion", sorted(NOTIONS))
    def test_identical_groups_rejected(self, notion):
        with pytest.raises(ValueError, match="the two groups must differ"):
            check_feasibility(make_problem(), notion, "M", "M")

    def test_impact_zero_mean_utility_rejected(self):
        problem = make_problem(utilities=(0.5, 0.5, 0.5, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="zero mean utility"):
            check_feasibility(problem, "disparate-impact", "M", "F")


# every pair of this A,B,C treatment chain is feasible, the chain is not
CHAIN_ITEMS = (("C", 0.523), ("B", 0.867), ("B", 0.128), ("B", 0.69), ("C", 0.342),
               ("C", 0.725), ("A", 0.307))


def chain_problem() -> RankingProblem:
    groups, utilities = zip(*CHAIN_ITEMS)
    return make_problem(utilities=utilities, groups=groups)


class TestChainRule:
    def test_infeasible_chain_of_feasible_pairs(self):
        problem = chain_problem()
        assert check_treatment(problem, "A", "B").feasible
        assert check_treatment(problem, "B", "C").feasible
        verdict = check_feasibility(problem, "disparate-treatment", "A", "B", "C")
        assert not verdict.feasible
        assert verdict.groups == ("A", "B", "C")
        constraints = multi_group_constraints(problem, "disparate-treatment", ["A", "B", "C"])
        assert solve_problem(problem, constraints).status == "infeasible"

    def test_chain_verdict_names_the_crossing_bounds(self):
        verdict = check_feasibility(chain_problem(), "disparate-treatment", "A", "B", "C")
        payload = verdict.to_dict()
        assert "required_ratio" not in payload and "attainable_range" not in payload
        # A alone at the bottom gets more per unit utility than B and C on top
        assert "at least 1.56644, the least A can get" in verdict.note
        assert "at most 1.45576, the most B,C can get" in verdict.note
        assert "none of the groups" in verdict.note

    def test_fillers_restore_chain_feasibility(self):
        problem = chain_problem()
        padded = make_problem(
            utilities=tuple(problem.utilities) + (0.5,) * 4,
            groups=tuple(it.group for it in problem.items) + ("Z",) * 4,
        )
        verdict = check_feasibility(padded, "disparate-treatment", "A", "B", "C")
        assert verdict.feasible and verdict.note == ""

    @pytest.mark.parametrize("notion", sorted(NOTIONS))
    def test_chain_checked_as_the_constraint_builder_checks_it(self, notion):
        problem = chain_problem()
        with pytest.raises(ValueError, match="overlap"):
            check_feasibility(problem, notion, "A", "B", "A")
        with pytest.raises(ValueError, match="at least two"):
            check_feasibility(problem, notion, "A")
        with pytest.raises(ValueError, match="group 'X' has no items"):
            check_feasibility(problem, notion, "A", "B", "X")

    def test_witness_covers_chains(self):
        verdict = check_feasibility(chain_problem(), "demographic-parity", "C", "A", "B")
        assert verdict.feasible and verdict.method == "witness"
        assert verdict.groups == ("C", "A", "B")

    def test_all_zero_bias_rejected(self):
        problem = make_problem(
            utilities=(0.5,) * 3, groups=("A", "B", "C"), bias=PositionBias.explicit([0.0] * 3)
        )
        with pytest.raises(ValueError, match="entirely zero"):
            check_feasibility(problem, "disparate-treatment", "A", "B", "C")


@st.composite
def witness_instances(draw) -> RankingProblem:
    """Groups A and B of 1-25 items, an optional filler group C of up to 10,
    zero utilities anywhere except one item each of A and B (so both means
    are nonzero), and log-discount or dcg@k bias with a zero tail."""
    sizes = (draw(st.integers(1, 25)), draw(st.integers(1, 25)), draw(st.integers(0, 10)))
    n = sum(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = rng.permutation(np.repeat(["A", "B", "C"], sizes))
    utilities = rng.uniform(0.0, 1.0, size=n).round(3)
    utilities[rng.random(n) < draw(st.floats(0.0, 0.9))] = 0.0
    for label in ("A", "B"):
        utilities[np.flatnonzero(groups == label)[0]] = draw(st.floats(0.01, 1.0))
    if draw(st.booleans()):
        bias = PositionBias.dcg_at_k(n, k=draw(st.integers(1, n)))
    else:
        bias = PositionBias.log_discount(n)
    return make_problem(utilities=tuple(utilities), groups=tuple(groups), bias=bias)


class TestWitnessIdentity:
    """The uniform matrix satisfies parity and impact: both rows sum to zero."""

    @settings(max_examples=40)
    @given(witness_instances(), st.sampled_from(["demographic-parity", "disparate-impact"]))
    def test_uniform_matrix_satisfies_constraint(self, problem, notion):
        constraint = NOTIONS[notion](problem, "A", "B")
        assert constraint.residual(DoublyStochasticMatrix.uniform(problem.n)) <= TOLERANCE
        assert check_feasibility(problem, notion, "A", "B").method == "witness"
        assert solve_problem(problem, [constraint]).status == "optimal"


class TestOracleEquivalence:
    def test_verdict_matches_lp_status(self):
        rng = np.random.default_rng(12)
        checked = solved_feasible = 0
        for _ in range(30):
            n = int(rng.integers(4, 11))
            split = int(rng.integers(1, n))
            groups = ("M",) * split + ("F",) * (n - split)
            utilities = tuple(rng.uniform(0.05, 1.0, size=n).round(4))
            problem = make_problem(utilities=utilities, groups=groups)
            verdict = check_treatment(problem, "M", "F")
            report = solve_problem(problem, [disparate_treatment(problem, "M", "F")])
            assert verdict.feasible == (report.status == "optimal")
            checked += 1
            solved_feasible += report.status == "optimal"
        assert checked == 30
        # the instance mix must exercise both outcomes to mean anything
        assert 0 < solved_feasible < 30


def subset_rule(problem: RankingProblem, groups: tuple[str, ...]) -> dict:
    """The treatment verdict over all 2^K − 1 nonempty sets of the chain's
    groups, written as ``check_feasibility(...).to_dict()`` writes it: the
    reference the utility-ordered prefixes must reproduce."""
    v, n, utilities = problem.bias, problem.n, problem.utilities
    indices = [problem.group_indices(g) for g in groups]
    sizes, sums = [idx.size for idx in indices], [float(utilities[idx].sum()) for idx in indices]
    bounds = []  # (bottom(m_S), top(m_S), U_S, S) for every nonempty S, singletons first
    for k in range(1, len(groups) + 1):
        for s in combinations(range(len(groups)), k):
            m, total = sum(sizes[i] for i in s), sum(sums[i] for i in s)
            bounds.append((float(v[n - m :].sum()), float(v[:m].sum()), total, s))
    lo, lo_set = max((bottom / total, s) for bottom, _, total, s in bounds)
    hi, hi_set = min((top / total, s) for _, top, total, s in bounds)
    out = {
        "feasible": lo <= hi * (1.0 + _SLACK),
        "notion": "disparate-treatment",
        "groups": list(groups),
        "method": "closed-form",
    }
    if len(groups) == 2:
        (m0, m1), ((bottom0, top0, *_), (bottom1, top1, *_)) = sizes, bounds[:2]
        out["required_ratio"] = required = (sums[0] / m0) / (sums[1] / m1)
        low = (bottom0 / m0) / (top1 / m1)
        high = np.inf if bottom1 == 0.0 else (top0 / m0) / (bottom1 / m1)
        out["attainable_range"] = [low, high if np.isfinite(high) else None]
        note = (
            f"required exposure ratio {required:.6g} lies outside "
            f"[{low:.6g}, {high:.6g}]; {_REMEDY.format('neither group')}"
        )
    else:
        lo_groups, hi_groups = (",".join(groups[i] for i in s) for s in (lo_set, hi_set))
        note = (
            f"exposure per unit utility cannot be both at least {lo:.6g}, the least "
            f"{lo_groups} can get (placed at the bottom), and at most {hi:.6g}, the most "
            f"{hi_groups} can get (placed at the top); {_REMEDY.format('none of the groups')}"
        )
    if not out["feasible"]:
        out["note"] = note
    return out


@st.composite
def treatment_chains(draw) -> tuple[RankingProblem, tuple[str, ...]]:
    """A chain of 2-6 groups of 1-4 items each, in random order, among 0-5
    filler items, with continuous, tied or extreme utilities and log or
    dcg@k bias."""
    labels = [f"g{k}" for k in range(draw(st.integers(2, 6)))]
    groups = [g for g in labels for _ in range(draw(st.integers(1, 4)))]
    groups = draw(st.permutations(groups + ["filler"] * draw(st.integers(0, 5))))
    utility = draw(st.sampled_from([
        st.floats(0.01, 1.0),
        st.sampled_from([0.25, 0.5, 0.75]),
        st.sampled_from([1e-6, 1.0]),
    ]))
    utilities = tuple(draw(utility) for _ in groups)
    n = len(groups)
    if draw(st.booleans()):
        bias = PositionBias.dcg_at_k(n, k=draw(st.integers(1, n)))
    else:
        bias = PositionBias.log_discount(n)
    problem = make_problem(utilities=utilities, groups=tuple(groups), bias=bias)
    return problem, tuple(draw(st.permutations(labels)))


class TestPrefixRule:
    """The K utility-ordered prefixes per side decide what all sets decide."""

    @settings(max_examples=120, derandomize=True)
    @given(treatment_chains())
    def test_matches_subset_rule(self, case):
        problem, chain = case
        verdict = check_feasibility(problem, "disparate-treatment", *chain)
        assert verdict.to_dict() == subset_rule(problem, chain)

    @settings(max_examples=200, derandomize=True)
    @given(witness_instances())
    def test_two_group_verdict_agrees_with_its_ratio_fields(self, problem):
        verdict = check_treatment(problem, "A", "B")
        required, (low, high) = verdict.required_ratio, verdict.attainable_range
        if low * (1 + 1e-6) < required < high * (1 - 1e-6):
            assert verdict.feasible
        elif required > high * (1 + 1e-6) or required < low * (1 - 1e-6):
            assert not verdict.feasible
