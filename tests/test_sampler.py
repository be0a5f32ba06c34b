"""Tests for mixture sampling and the pinned user hash."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fairexposure.bvn import BvnDecomposition, BvnTerm, decompose
from fairexposure.constraints import demographic_parity
from fairexposure.core import permutation_matrix
from fairexposure.lp import solve_problem
from fairexposure.metrics import evaluate
from fairexposure.sampler import _term_index, hash_user_key, sample_for_user, sample_indices

from .test_core import make_problem

# Frozen outputs of the pinned hash (FNV-1a 64 + splitmix64 finalizer),
# guarding against accidental algorithm drift.
HASH_ALICE = 0xC5D1556D66774A5C
HASH_BOB = 0x6E8572D08B268DEC
HASH_EMPTY = 0xF52A15E9A9B5E89B


def two_term_decomposition(theta: float) -> BvnDecomposition:
    return BvnDecomposition(
        terms=(
            BvnTerm(theta, np.array([0, 1, 2])),
            BvnTerm(1.0 - theta, np.array([2, 1, 0])),
        )
    )


class TestUserHash:
    def test_frozen_values(self):
        assert hash_user_key("alice") == HASH_ALICE
        assert hash_user_key("bob") == HASH_BOB
        assert hash_user_key(b"") == HASH_EMPTY

    def test_str_and_bytes_agree(self):
        assert hash_user_key("alice") == hash_user_key(b"alice")

    def test_bytearray_agrees_with_bytes(self):
        assert hash_user_key(bytearray(b"alice")) == HASH_ALICE

    @pytest.mark.parametrize("key", [3, 0, 10**9, True, 1.5, None, [97], memoryview(b"alice")])
    def test_other_key_types_rejected(self, key):
        # bytes(3) would hash an int as three zero bytes
        with pytest.raises(TypeError, match="user key must be str, bytes or bytearray"):
            hash_user_key(key)
        with pytest.raises(TypeError, match="user key"):
            sample_for_user(two_term_decomposition(0.4), key)

    def test_fraction_in_unit_interval(self):
        for key in ("alice", "bob", "", "user-123456"):
            assert 0.0 <= hash_user_key(key) / 2.0**64 < 1.0


class TestTermIndexForFraction:
    def test_boundary_resolves_to_lower_index(self):
        dec = two_term_decomposition(0.3)
        # cumulative boundaries at 0.3 and 1.0
        assert _term_index(dec, 0.3) == 0
        assert _term_index(dec, 0.3 + 1e-12) == 1
        assert _term_index(dec, 0.0) == 0
        np.testing.assert_array_equal(_term_index(dec, np.array([0.0, 0.3, 0.5])), [0, 0, 1])

    def test_cumulative_weights_computed_once(self):
        dec = two_term_decomposition(0.3)
        cum = dec.cumulative_weights
        assert dec.cumulative_weights is cum
        np.testing.assert_array_equal(cum, [0.3, 1.0])
        assert not cum.flags.writeable


@st.composite
def lookup_cases(draw):
    """A lottery of 1-2000 terms, some of them too light to move the running sum."""
    count = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.dirichlet(np.full(count, draw(st.sampled_from([0.05, 1.0, 50.0]))))
    tiny = rng.random(count) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    weights[tiny] = draw(st.sampled_from([1e-18, 1e-200, 5e-324]))
    if tiny.all():
        weights[0] = 1.0
    weights /= weights.sum()
    n = next(k for k in range(2, 50) if (k - 1) ** 2 + 1 >= count)
    seen: set = set()
    terms = []
    for theta in weights.tolist():
        ranking = rng.permutation(n)
        while tuple(ranking) in seen:
            ranking = rng.permutation(n)
        seen.add(tuple(ranking))
        terms.append(BvnTerm(max(theta, 5e-324), ranking))
    return BvnDecomposition(tuple(terms)), rng.random(draw(st.integers(0, 500)))


class TestTermLookupIsSearchsorted:
    """The guide-table and bisect lookups are ``searchsorted(side="left")`` exactly."""

    @settings(max_examples=60, deadline=None)
    @given(lookup_cases())
    def test_matches_searchsorted(self, case):
        dec, uniform = case
        cum = dec.cumulative_weights
        # every boundary, both its neighbours, both ends and random fractions
        neighbours = [np.nextafter(cum, 0.0), np.nextafter(cum, 2.0)]
        t = np.concatenate([cum, *neighbours, [0.0, 1.0], uniform])
        t = t[t <= 1.0]
        expected = np.searchsorted(cum, t, side="left")
        got = _term_index(dec, t)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
        scalars = [_term_index(dec, x) for x in t.tolist()]
        np.testing.assert_array_equal(scalars, expected)
        assert _term_index(dec, 1.0) == np.searchsorted(cum, 1.0, side="left")
        empty = np.empty(0)
        assert _term_index(dec, empty).dtype == np.searchsorted(cum, empty).dtype
        assert sample_indices(dec, 0, 1).dtype == expected.dtype

    def test_fraction_one_is_last_term(self):
        # hash / 2**64 rounds up to 1.0 for hashes within 2**10 of 2**64
        assert (2**64 - 1) / 2.0**64 == 1.0
        dec = two_term_decomposition(0.3)
        assert _term_index(dec, 1.0) == 1
        assert _term_index(dec, np.array([1.0])).tolist() == [1]


class TestSample:
    def test_single_term_always_returned(self):
        ranking = np.array([1, 0, 2])
        dec = BvnDecomposition(terms=(BvnTerm(1.0, ranking),))
        for seed in range(5):
            (index,) = sample_indices(dec, 1, seed)
            np.testing.assert_array_equal(dec.terms[index].ranking, ranking)

    def test_half_half_frequency(self):
        dec = two_term_decomposition(0.5)
        idx = sample_indices(dec, 100_000, np.random.default_rng(7))
        freq = float(np.mean(idx == 0))
        assert freq == pytest.approx(0.5, abs=0.01)

    def test_chi_square_goodness_of_fit(self):
        dec = BvnDecomposition(
            terms=(
                BvnTerm(0.6, np.array([0, 1, 2])),
                BvnTerm(0.3, np.array([1, 0, 2])),
                BvnTerm(0.1, np.array([2, 1, 0])),
            )
        )
        n = 100_000
        idx = sample_indices(dec, n, np.random.default_rng(11))
        observed = np.bincount(idx, minlength=3)
        expected = np.array([0.6, 0.3, 0.1]) * n
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        # fail-to-reject threshold at alpha = 0.01, dof = 2
        assert chi2 < stats.chi2.ppf(0.99, df=2)

    def test_empirical_exposure_matches_matrix(self):
        problem = make_problem()
        report = solve_problem(problem, [demographic_parity(problem, "M", "F")])
        dec = decompose(report.matrix)
        v = problem.bias
        idx = sample_indices(dec, 100_000, np.random.default_rng(3))
        counts = np.bincount(idx, minlength=len(dec.terms))
        empirical = np.zeros(6)
        for k, term in enumerate(dec.terms):
            empirical[term.ranking] += counts[k] * v
        empirical /= idx.size
        metrics = evaluate(report.matrix, problem)
        g0, g1 = metrics.group("M").exposure, metrics.group("F").exposure
        emp0 = float(empirical[problem.group_indices("M")].mean())
        emp1 = float(empirical[problem.group_indices("F")].mean())
        assert emp0 == pytest.approx(g0, rel=0.01)
        assert emp1 == pytest.approx(g1, rel=0.01)
        # the parity constraint holds empirically as well
        assert emp0 == pytest.approx(emp1, rel=0.01)

    def test_count_zero_gives_empty(self):
        dec = two_term_decomposition(0.4)
        assert sample_indices(dec, 0, 1).size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            sample_indices(two_term_decomposition(0.4), -1)

    @pytest.mark.parametrize("count", [True, False, 2.0, 0.5, "3", None])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(ValueError, match="count must be a non-negative integer"):
            sample_indices(two_term_decomposition(0.4), count, 1)

    def test_numpy_integer_count_accepted(self):
        assert sample_indices(two_term_decomposition(0.4), np.int64(3), 1).size == 3


class TestSampleForUser:
    def test_same_key_same_ranking(self):
        dec = two_term_decomposition(0.5)
        for key in ("alice", "bob", "carol"):
            np.testing.assert_array_equal(
                sample_for_user(dec, key), sample_for_user(dec, key)
            )

    def test_single_term_any_key(self):
        ranking = np.array([2, 0, 1])
        dec = BvnDecomposition(terms=(BvnTerm(1.0, ranking),))
        np.testing.assert_array_equal(sample_for_user(dec, "anyone"), ranking)

    def test_key_population_realizes_weights(self):
        dec = two_term_decomposition(0.3)
        hits = sum(
            1
            for k in range(100_000)
            if tuple(sample_for_user(dec, f"user-{k}")) == (0, 1, 2)
        )
        assert hits / 100_000 == pytest.approx(0.3, abs=0.01)

    def test_hash_uniformity_chi_square(self):
        # bucket the hash fractions of sequential keys into deciles
        fractions = np.array([hash_user_key(f"id:{k}") / 2.0**64 for k in range(20_000)])
        observed = np.histogram(fractions, bins=10, range=(0.0, 1.0))[0]
        expected = 2_000.0
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.99, df=9)


def test_permutation_matrix_round_trip_through_sampling():
    # sampled rankings are genuine permutations usable downstream
    dec = two_term_decomposition(0.7)
    ranking = sample_for_user(dec, "user-123")
    M = permutation_matrix(ranking)
    assert M.sum() == 3
