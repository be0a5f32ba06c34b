"""An independent oracle for small N: the program as an LP over all N! rankings.

By Birkhoff–von Neumann every doubly stochastic matrix is a lottery over
permutation matrices, so maximising ``u·P·v`` over P subject to
``f·P·g = h`` equals maximising ``Σ θ_k u·v[inv_k]`` over ranking weights
``θ >= 0`` with ``Σ θ_k = 1`` and ``Σ θ_k f·g[inv_k] = h`` per constraint,
where ``inv_k[i]`` is the position ranking k gives item i.  That program
shares no code with ``build_lp``, ``solve`` or ``check_feasibility``, so it
checks all three.  Past the oracle's reach, at N = 20..80, the layers are
checked against each other instead, and two-group programs at N = 20..100
are checked against a second oracle, the Lagrangian dual of their one
fairness row (see :func:`dual_search`), whose reach test also checks
``check_feasibility``'s treatment verdicts near the boundary.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from fairexposure.bvn import _residual_bound, decompose, reconstruct
from fairexposure.constraints import NOTIONS, FairnessConstraint, multi_group_constraints
from fairexposure.core import PositionBias, RankingProblem, utility
from fairexposure.feasibility import check_feasibility
from fairexposure.lp import solve_problem
from fairexposure.metrics import evaluate

from .test_core import make_problem

CHAIN = ("A", "B", "C", "D")


@lru_cache(maxsize=None)
def positions(n: int) -> np.ndarray:
    """``(n!, n)``: row k gives the position of each item in ranking k."""
    return np.array(list(permutations(range(n))))


def ranking_lp(problem: RankingProblem, constraints) -> tuple[str, float]:
    """Status and optimum of the program over the weights of all rankings."""
    inv = positions(problem.n)
    gain = problem.bias[inv] @ problem.utilities
    rows = [c.g[inv] @ c.f for c in constraints] + [np.ones(len(inv))]
    rhs = [c.h for c in constraints] + [1.0]
    result = linprog(-gain, A_eq=np.array(rows), b_eq=rhs, bounds=(0.0, None), method="highs")
    assert result.status in (0, 2), result.message
    return ("optimal", -result.fun) if result.status == 0 else ("infeasible", None)


@st.composite
def chain_instances(draw):
    """A notion, a chain of 2-4 groups in random order, and a problem of
    N <= 7 items: each chain group has an item of positive utility, the
    other items belong to the chain or to filler groups Y and Z, utilities
    are 3-decimal and sometimes 0, and the bias is log or dcg@k."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 7))
    labels = list(CHAIN[:k]) + draw(
        st.lists(st.sampled_from(CHAIN[:k] + ("Y", "Z")), min_size=n - k, max_size=n - k)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    utilities = rng.uniform(0.0, 1.0, size=n).round(3)
    utilities[rng.random(n) < draw(st.floats(0.0, 0.6))] = 0.0
    utilities[:k] = rng.uniform(0.01, 1.0, size=k).round(3)
    order = rng.permutation(n)
    if draw(st.booleans()):
        bias = PositionBias.dcg_at_k(n, k=draw(st.integers(1, n)))
    else:
        bias = PositionBias.log_discount(n, base=draw(st.sampled_from(["e", "2"])))
    problem = make_problem(
        utilities=tuple(utilities[order]), groups=tuple(labels[i] for i in order), bias=bias
    )
    chain = draw(st.permutations(CHAIN[:k]))
    return draw(st.sampled_from(sorted(NOTIONS))), chain, problem


@st.composite
def scaled_chain_instances(draw):
    """A notion, a chain of 3 or 4 groups in random order, and a problem of
    20 to 80 items: the first items seed each chain group, the rest belong
    to the chain or to a filler group Y, each group scales its uniform
    utilities by its own factor in [0.2, 1] so that treatment is sometimes
    out of reach, and the bias is log or dcg@k."""
    k = draw(st.integers(3, 4))
    n = draw(st.integers(20, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = list(CHAIN[:k]) + rng.choice(CHAIN[:k] + ("Y",), size=n - k).tolist()
    scale = dict(zip(CHAIN + ("Y",), rng.uniform(0.2, 1.0, size=5)))
    utilities = np.array([scale[g] for g in labels]) * rng.uniform(0.01, 1.0, size=n)
    order = rng.permutation(n)
    if draw(st.booleans()):
        bias = PositionBias.dcg_at_k(n, k=draw(st.integers(1, n)))
    else:
        bias = PositionBias.log_discount(n)
    problem = make_problem(
        utilities=tuple(utilities.round(3)[order]),
        groups=tuple(labels[i] for i in order),
        bias=bias,
    )
    chain = draw(st.permutations(CHAIN[:k]))
    return draw(st.sampled_from(sorted(NOTIONS))), chain, problem


def extreme_sets(v: np.ndarray, sizes: list, sums: list) -> tuple:
    """``max_S bottom(m_S) / U_S`` and ``min_S top(m_S) / U_S`` over every
    nonempty set S of the groups, each with its S as a tuple of indices:
    the treatment rule of ``feasibility.py``'s docstring, over all 2^K − 1 sets."""
    n, bounds = v.size, []
    top = np.concatenate(([0.0], np.cumsum(v))).tolist()  # top[m]: the m largest entries' sum
    for k in range(1, len(sizes) + 1):
        for s in combinations(range(len(sizes)), k):
            m, total = sum(sizes[i] for i in s), sum(sums[i] for i in s)
            bounds.append(((top[n] - top[n - m]) / total, top[m] / total, s))
    lo, hi = max(bounds, key=lambda b: b[0]), min(bounds, key=lambda b: b[1])
    return lo[0], lo[2], hi[1], hi[2]


@st.composite
def middle_set_instances(draw):
    """A treatment chain of 3 or 4 groups among 20 to 80 items, decided by a
    set B of 2..K−1 groups: the least exposure per unit utility B can get at
    the bottom, or the most it can get at the top, binds, and the two sides'
    bounds differ by a factor 1 ± δ, δ drawn on a log scale in [1e-6, 0.5].

    One factor t scales the utilities of B when B binds at the bottom, and
    of the other chain groups when it binds at the top.  Lowering t raises
    the scaled groups' bottom bounds, so below the t of least ``lo / hi``
    on a log grid, t is bisected to ``lo / hi = 1 ± δ``; the instance is
    kept when B then binds.  The first (side, B) that works is taken.
    Returns the chain, the problem and whether it is infeasible.
    """
    k = draw(st.integers(3, 4))
    n = draw(st.integers(20, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dcg = draw(st.booleans())
    infeasible = draw(st.booleans())
    target = 1.0 + (1 if infeasible else -1) * 10 ** draw(st.floats(-6.0, np.log10(0.5)))
    labels = np.array(list(CHAIN[:k]) + rng.choice(CHAIN[:k] + ("Y",), size=n - k).tolist())
    scale = dict(zip(CHAIN + ("Y",), rng.uniform(0.2, 1.0, size=5)))
    utilities = np.array([scale[g] for g in labels]) * rng.uniform(0.01, 1.0, size=n)
    members = [labels == g for g in CHAIN[:k]]
    sizes = [int(m.sum()) for m in members]
    sums = [float(utilities[m].sum()) for m in members]
    candidates = [
        (side, b) for size in range(2, k) for b in combinations(range(k), size)
        for side in ("bottom", "top")
    ]
    for pick in rng.permutation(len(candidates)):
        side, b = candidates[pick]
        scaled = b if side == "bottom" else tuple(i for i in range(k) if i not in b)
        m = sum(sizes[i] for i in scaled)
        # with a dcg@k cutoff, the scaled groups' m items reach the nonzero tail
        bias = (
            PositionBias.dcg_at_k(n, k=int(rng.integers(n - m + 1, n + 1)))
            if dcg else PositionBias.log_discount(n)
        )

        def extremes(x: float) -> tuple:  # at t = e^x
            t = np.exp(x)
            return extreme_sets(bias.values, sizes, [
                total * t if i in scaled else total for i, total in enumerate(sums)
            ])

        def ratio(x: float) -> float:
            lo, _, hi, _ = extremes(x)
            return lo / hi

        grid = np.linspace(np.log(1e-4), np.log(1e4), 33)
        low, high = grid[0], grid[int(np.argmin([ratio(x) for x in grid]))]
        if not ratio(low) > target > ratio(high):
            continue
        for _ in range(70):
            mid = 0.5 * (low + high)
            low, high = (mid, high) if ratio(mid) > target else (low, mid)
        _, lo_set, _, hi_set = extremes(high)
        if (lo_set if side == "bottom" else hi_set) != b:
            continue
        t = np.exp(high)
        chain_groups = [CHAIN[i] for i in scaled]
        scaled_utilities = np.where(np.isin(labels, chain_groups), utilities * t, utilities)
        # one common factor keeps every utility in [0, 1] and leaves the verdict
        scaled_utilities /= max(1.0, scaled_utilities.max())
        order = rng.permutation(n)
        problem = make_problem(
            utilities=tuple(scaled_utilities[order]),
            groups=tuple(labels[order].tolist()),
            bias=bias,
        )
        return tuple(draw(st.permutations(CHAIN[:k]))), problem, infeasible
    assume(False)


class TestChainsAtScale:
    # 50 examples, 6 of them infeasible, take about 1.5 s: one HiGHS solve of
    # up to 6400 entries and one decomposition each
    @settings(max_examples=50, derandomize=True)
    @given(scaled_chain_instances())
    def test_verdict_solve_and_lottery_agree(self, instance):
        notion, chain, problem = instance
        verdict = check_feasibility(problem, notion, *chain)
        report = solve_problem(problem, multi_group_constraints(problem, notion, chain))
        assert verdict.feasible == report.optimal
        if report.optimal:
            best = report.objective
            lottery = reconstruct(decompose(report.matrix))
            assert np.abs(lottery - report.matrix.entries).max() <= _residual_bound(problem.n)
            assert abs(utility(lottery, problem) - best) <= 1e-9 * abs(best)
            assert abs(evaluate(report.matrix, problem).dcg - best) <= 1e-9 * abs(best)


    # 30 examples, half of them infeasible, take 1.3-2.7 s: one HiGHS solve each
    @settings(max_examples=30, derandomize=True)
    @given(middle_set_instances())
    def test_verdict_and_solve_agree_near_a_middle_set_bound(self, instance):
        chain, problem, infeasible = instance
        verdict = check_feasibility(problem, "disparate-treatment", *chain)
        constraints = multi_group_constraints(problem, "disparate-treatment", chain)
        report = solve_problem(problem, constraints)
        assert verdict.feasible == report.optimal == (not infeasible)


class TestRankingLotteryOracle:
    @settings(max_examples=100)
    @given(chain_instances())
    def test_verdict_solve_and_oracle_agree(self, instance):
        notion, chain, problem = instance
        constraints = multi_group_constraints(problem, notion, chain)
        verdict = check_feasibility(problem, notion, *chain)
        report = solve_problem(problem, constraints)
        status, best = ranking_lp(problem, constraints)
        assert report.status == status
        assert verdict.feasible == (status == "optimal")
        if status == "optimal":
            assert abs(report.objective - best) <= 1e-9 * abs(best)
            lottery = utility(reconstruct(decompose(report.matrix)), problem)
            assert abs(lottery - best) <= 1e-9 * abs(best)

    @settings(max_examples=40)
    @given(st.integers(2, 7), st.integers(0, 2**32 - 1), st.integers(1, 2), st.booleans())
    def test_custom_rows_agree(self, n, seed, rows, reachable):
        """Random rows ``f·P·g = h`` with ``g != v``: each h is met by some
        two-ranking lottery, or lies past every ranking's value."""
        rng = np.random.default_rng(seed)
        problem = make_problem(
            utilities=tuple(rng.uniform(0.0, 1.0, n).round(3)), groups=("A",) * n
        )
        inv = positions(n)
        constraints = []
        for _ in range(rows):
            f, g = rng.normal(size=n), rng.uniform(0.0, 2.0, n)
            values = g[inv] @ f
            h = values[rng.choice(len(inv), 2)].mean() if reachable else values.max() + 0.1
            constraints.append(FairnessConstraint(f, g, h))
        report = solve_problem(problem, constraints)
        status, best = ranking_lp(problem, constraints)
        assert report.status == status
        if status == "optimal":
            assert abs(report.objective - best) <= 1e-9 * max(abs(best), 1.0)


def row_range(row: FairnessConstraint) -> tuple[float, float]:
    """The least and the greatest value of ``f·P·g`` over doubly stochastic P
    for a non-increasing g: ``sort(f)↑·g`` and ``sort(f)↓·g``, by the
    rearrangement inequality, since P ranges over the lotteries of rankings."""
    ascending = np.sort(row.f)
    return float(ascending @ row.g), float(ascending[::-1] @ row.g)


def dual_search(problem: RankingProblem, row: FairnessConstraint) -> tuple[float, float]:
    """A lower and an upper bound on the optimum under the one row ``f·P·v = h``.

    For a multiplier λ the best ranking sorts items by ``u + λf``, by the
    rearrangement inequality, so the dual ``D(λ) = max_π (u + λf)·v[π] − λh``
    is convex and bounds the optimum from above, and the row value
    ``f·v[π(λ)]`` never falls as λ grows (ties in ``u + λf`` go to the larger
    f).  Bisect λ to the sign change of that value minus h, then mix the
    rankings either side of λ* so that the row holds exactly: that lottery
    is feasible and bounds the optimum from below.
    """
    u, f, v, h = problem.utilities, row.f, row.g, row.h
    assert np.array_equal(v, problem.bias)
    least, most = row_range(row)
    assert least < h < most, "the row is out of reach"

    def best_ranking(lam: float) -> tuple[float, float]:
        """The row's excess over h and the gain of the ranking that λ sorts."""
        order = np.lexsort((f, u + lam * f))[::-1]
        return f[order] @ v - h, u[order] @ v

    lo, hi = -1.0, 1.0
    while best_ranking(hi)[0] < 0.0:
        hi *= 2.0
    while best_ranking(lo)[0] > 0.0:
        lo *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if best_ranking(mid)[0] < 0.0:
            lo = mid
        else:
            hi = mid
    (excess_lo, gain_lo), (excess_hi, gain_hi) = best_ranking(lo), best_ranking(hi)
    # weight on the ranking at lo that makes the mixture's row value h
    theta = 1.0 if excess_hi == excess_lo else excess_hi / (excess_hi - excess_lo)
    lower = theta * gain_lo + (1.0 - theta) * gain_hi
    upper = min(gain_lo + lo * excess_lo, gain_hi + hi * excess_hi)
    return lower, upper


def two_group_instance(n: int, dcg: bool) -> RankingProblem:
    """Groups A and B and about 20% filler items Y, with utilities scaled per
    group so that no group is a copy of another, under log or dcg@(n/3) bias."""
    rng = np.random.default_rng(n)
    labels = rng.choice(["A", "B", "Y"], size=n, p=[0.45, 0.35, 0.2])
    labels[:2] = ["A", "B"]
    scale = {"A": 1.0, "B": 0.8, "Y": 0.6}
    utilities = np.array([scale[g] for g in labels]) * rng.uniform(0.05, 1.0, size=n)
    bias = PositionBias.dcg_at_k(n, k=n // 3) if dcg else PositionBias.log_discount(n)
    return make_problem(utilities=tuple(utilities.round(3)), groups=tuple(labels), bias=bias)


class TestTwoGroupDualOracle:
    # 18 programs take about 1.5 s, nearly all of it the HiGHS solves at N = 100
    @pytest.mark.parametrize("dcg", [False, True], ids=["log", "dcg@k"])
    @pytest.mark.parametrize("notion", sorted(NOTIONS))
    @pytest.mark.parametrize("n", [20, 50, 100])
    def test_solve_reaches_the_dual_optimum(self, n, notion, dcg):
        problem = two_group_instance(n, dcg)
        row = NOTIONS[notion](problem, "A", "B")
        lower, upper = dual_search(problem, row)
        assert upper - lower <= 1e-12 * abs(upper)
        report = solve_problem(problem, [row])
        assert report.optimal
        assert abs(report.objective - lower) <= 1e-9 * abs(lower)


def treatment_boundary_instance(seed: int) -> tuple[RankingProblem, bool, float]:
    """Groups A and B and about 20% filler items Y under log or dcg@k bias,
    with A's utilities scaled to ``1 ± δ`` times one end of the scale range in
    which treatment is attainable, for a log-uniform δ in [1e-6, 0.5].

    Scaling A's utilities by s scales A's exposure per unit utility by 1/s,
    so treatment needs ``bottom(m_A)·U_B / (U_A·top(m_B)) <= s`` (A at the
    bottom, B at the top) and ``s <= top(m_A)·U_B / (U_A·bottom(m_B))``.
    Returns the problem, whether s was put inside that end, and δ.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 41))
    labels = rng.choice(["A", "B", "Y"], size=n, p=[0.4, 0.4, 0.2])
    labels[:2] = ["A", "B"]
    utilities = rng.uniform(0.05, 1.0, size=n)
    a, b = labels == "A", labels == "B"
    m_a, m_b = int(a.sum()), int(b.sum())
    if rng.random() < 0.5:
        # past rank k the bias is zero; keep the larger group's bottom exposure positive
        bias = PositionBias.dcg_at_k(n, k=int(rng.integers(n - max(m_a, m_b) + 1, n + 1)))
    else:
        bias = PositionBias.log_discount(n)
    v = bias.values
    top, bottom = (lambda m: v[:m].sum()), (lambda m: v[n - m :].sum())
    ratio = utilities[b].sum() / utilities[a].sum()
    ends = []  # (end of the range, the direction that stays inside)
    if bottom(m_b) > 0.0:
        ends.append((top(m_a) * ratio / bottom(m_b), -1))
    if bottom(m_a) > 0.0:
        ends.append((bottom(m_a) * ratio / top(m_b), +1))
    end, inward = ends[rng.integers(len(ends))]
    delta = 10.0 ** rng.uniform(-6.0, np.log10(0.5))
    inside = bool(rng.random() < 0.5)
    utilities[a] *= end * (1.0 + delta) ** (inward if inside else -inward)
    utilities /= max(1.0, utilities.max())
    problem = make_problem(utilities=utilities.tolist(), groups=labels.tolist(), bias=bias)
    return problem, inside, delta


class TestTreatmentReach:
    # 400 instances take about 0.15 s (--durations); no HiGHS
    def test_reach_matches_check_feasibility(self):
        """The row's reach, ``h`` inside ``[sort(f)↑·v, sort(f)↓·v]``, and the
        chain rule give the same verdict 1e-6 to 0.5 from the boundary."""
        near = []  # the verdicts within 1e-4 of the boundary
        for seed in range(400):
            problem, inside, delta = treatment_boundary_instance(seed)
            row = NOTIONS["disparate-treatment"](problem, "A", "B")
            least, most = row_range(row)
            assert (least <= row.h <= most) == inside
            assert check_feasibility(problem, "disparate-treatment", "A", "B").feasible == inside
            if delta < 1e-4:
                near.append(inside)
        assert 20 <= sum(near) <= len(near) - 20
