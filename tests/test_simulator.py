"""Tests for the Monte-Carlo click simulator."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from fairexposure.bvn import BvnDecomposition, BvnTerm, decompose, term_bound
from fairexposure.constraints import demographic_parity, disparate_treatment
from fairexposure.core import PositionBias
from fairexposure.lp import solve_problem
from fairexposure.metrics import evaluate
from fairexposure.simulator import _coin_threshold, simulate

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


def report_digest(report) -> str:
    """sha256 over ``to_dict()`` with every float written by ``float.hex``."""

    def exact(x):
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, dict):
            return {k: exact(v) for k, v in x.items()}
        if isinstance(x, list):
            return [exact(v) for v in x]
        return x

    text = json.dumps(exact(report.to_dict()), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def random_lottery(rng, n: int, count: int) -> BvnDecomposition:
    """``count`` distinct random permutations of n items with random weights."""
    rankings: dict[tuple, np.ndarray] = {}
    while len(rankings) < count:
        r = rng.permutation(n)
        rankings[tuple(r.tolist())] = r
    w = rng.random(count) + 0.01
    return BvnDecomposition(
        terms=tuple(BvnTerm(t, r) for t, r in zip(w / w.sum(), rankings.values()))
    )


def random_problem(rng, groups, bias=None):
    utilities = tuple(float(u) for u in rng.random(len(groups)))
    return make_problem(utilities=utilities, groups=tuple(groups), bias=bias)


def pin_case(name: str):
    """One pinned (decomposition, problem, n_users, seed, group_pair) case."""
    rng = np.random.default_rng([2024, sum(map(ord, name))])
    if name == "many-terms":
        problem = random_problem(rng, ["A"] * 12 + ["B"] * 13)
        return random_lottery(rng, 25, 500), problem, 20_000, 11, None
    if name == "three-groups-pair":
        problem = random_problem(rng, rng.choice(["A", "B", "C"], 12).tolist())
        return random_lottery(rng, 12, 40), problem, 9_000, 12, ("C", "A")
    if name == "one-group":
        problem = random_problem(rng, ["A"] * 7)
        return random_lottery(rng, 7, 5), problem, 5_000, 13, None
    if name == "dcg-tail":
        problem = random_problem(rng, ["A", "B"] * 5, PositionBias.dcg_at_k(10, k=3))
        return random_lottery(rng, 10, 30), problem, 8_000, 14, None
    if name == "one-user":
        problem = random_problem(rng, ["A", "B", "A", "B", "B"])
        return single_term(rng.permutation(5)), problem, 1, 15, None
    if name == "two-chunks":
        problem = random_problem(rng, ["A", "B", "B", "A", "B", "A", "A", "B"])
        return random_lottery(rng, 8, 40), problem, 16_391, 16, None
    raise KeyError(name)


class TestBitPin:
    """``simulate`` reports stay bit-identical, float for float."""

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("many-terms", "a43317b8a70400dc10321458408b8ff3bd9e367a31b9ee494a3afd642d5c1a03"),
            ("three-groups-pair", "cdd310f230491e97b9c149f6dbc7d3c0b450b5b8be18978e4e989fee5addff5c"),
            ("one-group", "3018ed1193bf198503aaa122e74e53abb1d530f7d479262c3a3379a5cd464de5"),
            ("dcg-tail", "113a38ba227c39501313ae669ade9c10776df3b46ce0b5f9d92ae919479861ee"),
            ("one-user", "9f55e2447cb9c2d61d50fb38ad11649ac1ab2c9bd9004dc311eb9e7b1872fc93"),
            ("two-chunks", "9030ee0566081b26e2d3eaf54d084935cbebe7fa9779bd1bb0c4adbe63a19bef"),
        ],
    )
    def test_report_digest(self, name, digest):
        dec, problem, n_users, seed, pair = pin_case(name)
        report = simulate(dec, problem, n_users=n_users, seed=seed, group_pair=pair)
        assert report_digest(report) == digest


@st.composite
def audited_lotteries(draw):
    """A random lottery over 1-4 groups, N <= 30, up to 200 terms, and a simulation size."""
    n = draw(st.integers(1, 30))
    n_groups = draw(st.integers(1, min(4, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = [f"g{g}" for g in range(n_groups)]
    groups += [f"g{g}" for g in rng.integers(0, n_groups, n - n_groups)]
    groups = [groups[i] for i in rng.permutation(n)]
    bias = None
    if n >= 2 and draw(st.booleans()):
        bias = PositionBias.dcg_at_k(n, k=draw(st.integers(1, n)))
    problem = random_problem(rng, groups, bias)
    dec = random_lottery(rng, n, draw(st.integers(1, min(200, term_bound(n)))))
    return dec, problem, draw(st.integers(1, 3000)), draw(st.integers(0, 2**64 - 1))


class TestCrossLayer:
    """Group statistics, item statistics and click totals describe the same users."""

    @settings(max_examples=60, deadline=None)
    @given(audited_lotteries())
    def test_group_means_are_item_means(self, case):
        dec, problem, n_users, seed = case
        report = simulate(dec, problem, n_users=n_users, seed=seed)
        for label in problem.group_labels:
            idx = problem.group_indices(label)
            gs = report.group(label)
            assert gs.exposure == pytest.approx(report.item_exposure[idx].mean(), rel=1e-12, abs=0)
            assert gs.ctr == pytest.approx(report.item_ctr[idx].mean(), rel=1e-12, abs=0)
        assert report.total_clicks == round(report.item_ctr.sum() * n_users)


class TestIntegerCoins:
    """The numpy facts that let ``simulate`` flip its coins on raw Philox words."""

    @pytest.mark.parametrize(
        "key, shape",
        [
            ((0, 0), (3, 7)),
            ((17, 1), (1000, 51)),
            ((2**64 - 1, 2**63), (16384, 3)),
            ((5, 9), (0, 4)),
        ],
    )
    def test_shifted_word_is_generator_random(self, key, shape):
        words = Philox(key=np.array(key, dtype=np.uint64)).random_raw(shape)
        floats = Generator(Philox(key=np.array(key, dtype=np.uint64))).random(shape)
        assert words.dtype == np.uint64
        shifted = (words >> 11) * 2.0**-53
        np.testing.assert_array_equal(shifted.view(np.uint64), floats.view(np.uint64))

    @pytest.mark.parametrize(
        "p",
        # zero, the smallest subnormal and normal, multiples of 2**-53 and
        # a half of one, ordinary values, and the top of the range
        [0.0, 5e-324, 2.2250738585072014e-308, 2.0**-54, 2.0**-53, 3 * 2.0**-53]
        + [0.1, 0.5, 1 - 2.0**-53, 1.0],
    )
    def test_threshold_flips_the_float_coin(self, p):
        self.check(p)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.floats(0.0, 1.0), st.integers(0, 2**53).map(lambda m: m * 2.0**-53)))
    def test_threshold_flips_the_float_coin_anywhere(self, p):
        self.check(p)

    @staticmethod
    def check(p: float) -> None:
        """``k * 2**-53 < q`` iff ``k < threshold(q)``, for q = p and its neighbours."""
        for q in {p, float(np.nextafter(p, 0.0)), min(float(np.nextafter(p, 2.0)), 1.0)}:
            threshold = _coin_threshold(np.array([q]))
            assert threshold.dtype == np.uint64
            bound = int(threshold[0])
            ks = {0, 2**53 - 1} | {k for k in range(bound - 2, bound + 2) if 0 <= k < 2**53}
            for k in sorted(ks):
                assert (k * 2.0**-53 < q) == (k < bound), (q, k)
