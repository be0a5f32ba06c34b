"""Tests for the permutation-mixture decomposition."""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairexposure import bvn
from fairexposure.bvn import (
    BvnDecomposition,
    BvnTerm,
    decompose,
    reconstruct,
    term_bound,
)
from fairexposure.constraints import NOTIONS, demographic_parity
from fairexposure.core import TOLERANCE, DoublyStochasticMatrix, as_ranking, permutation_matrix
from fairexposure.lp import solve_problem
from fairexposure.metrics import evaluate
from fairexposure.simulator import simulate

from .test_core import make_problem
from .test_feasibility import witness_instances


def ipf_doubly_stochastic(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random doubly stochastic matrix via iterative proportional fitting."""
    m = rng.uniform(0.1, 1.0, size=(n, n))
    for _ in range(300):
        m /= m.sum(axis=1, keepdims=True)
        m /= m.sum(axis=0, keepdims=True)
    return m


def replay_orders(P: np.ndarray, decomposition: BvnDecomposition) -> bool:
    """True when some extraction order is greedy-consistent.

    Greedy extraction takes each theta as the minimum remaining entry
    along its term's matching; with few terms every candidate order can
    be checked directly.
    """
    n = decomposition.n
    cols = np.arange(n)
    for order in itertools.permutations(decomposition.terms):
        remainder = P.astype(float).copy()
        ok = True
        for term in order:
            along = remainder[term.ranking, cols]
            if abs(float(along.min()) - term.theta) > 1e-9:
                ok = False
                break
            remainder[term.ranking, cols] -= term.theta
        if ok:
            return True
    return False


class TestBvnTerm:
    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError, match="theta"):
            BvnTerm(theta=0.0, ranking=np.array([0, 1]))
        with pytest.raises(ValueError, match="theta"):
            BvnTerm(theta=1.5, ranking=np.array([0, 1]))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            BvnTerm(theta=0.5, ranking=np.array([0, 0]))

    @pytest.mark.parametrize("theta", ["1", True, None, np.bool_(True), [1.0]])
    def test_rejects_non_number_theta(self, theta):
        with pytest.raises(ValueError, match="theta must be a number"):
            BvnTerm(theta=theta, ranking=[0, 1])

    @pytest.mark.parametrize("theta", [1, np.int64(1), np.float64(1.0)])
    def test_accepts_int_and_numpy_theta(self, theta):
        term = BvnTerm(theta=theta, ranking=[0, 1])
        assert type(term.theta) is float and term.theta == 1.0

    @pytest.mark.parametrize(
        "ranking", [[0.7, 1.2], [1.0, 0.0], [True, False], [0, True], [True, 0], [0, [1]]]
    )
    def test_rejects_non_integer_ranking(self, ranking):
        with pytest.raises(ValueError, match="must be integers"):
            BvnTerm(theta=0.5, ranking=ranking)

    @pytest.mark.parametrize(
        "ranking, shown",
        [
            ([0, 2**70], "[0, 1180591620717411303424]"),  # numpy holds it as an object
            ([0, 2**63], "[0, 9223372036854775808]"),  # numpy holds it as a float
            (np.array([0, 2**63], dtype=np.uint64), "[0, 9223372036854775808]"),
        ],
        ids=["beyond-uint64", "beyond-int64", "uint64-array"],
    )
    def test_out_of_range_ranking_is_not_a_permutation(self, ranking, shown):
        with pytest.raises(ValueError) as excinfo:
            BvnTerm(theta=0.5, ranking=ranking)
        assert str(excinfo.value) == f"not a permutation of 0..1: {shown}"

    def test_accepts_unsigned_ranking(self):
        term = BvnTerm(theta=1.0, ranking=np.array([1, 0], dtype=np.uint8))
        np.testing.assert_array_equal(term.ranking, [1, 0])


class TestBvnDecomposition:
    def test_rejects_weights_not_summing_to_one(self):
        terms = (BvnTerm(0.5, np.array([0, 1])),)
        with pytest.raises(ValueError, match="sum"):
            BvnDecomposition(terms=terms)

    def test_rejects_duplicate_permutations(self):
        terms = (
            BvnTerm(0.5, np.array([0, 1])),
            BvnTerm(0.5, np.array([0, 1])),
        )
        with pytest.raises(ValueError, match="more than one term"):
            BvnDecomposition(terms=terms)

    def test_rejects_term_count_above_bound(self):
        # n=2 admits only two permutations, so the bound of 2 also caps
        # what is constructible; check the guard with n=3 instead
        perms = list(itertools.permutations(range(3)))
        terms = tuple(BvnTerm(1.0 / 6, np.array(p)) for p in perms)
        assert len(terms) == 6 > term_bound(3)
        with pytest.raises(ValueError, match="exceed the bound"):
            BvnDecomposition(terms=terms)

    def test_rejects_no_terms(self):
        with pytest.raises(ValueError, match="at least one term"):
            BvnDecomposition(terms=())

    def test_rejects_rankings_of_different_lengths(self):
        terms = (BvnTerm(0.5, np.array([0, 1])), BvnTerm(0.5, np.array([0, 1, 2])))
        with pytest.raises(ValueError, match="inconsistent ranking lengths"):
            BvnDecomposition(terms=terms)

    def test_int_residual_is_stored_as_float(self):
        decomposition = BvnDecomposition(terms=(BvnTerm(1, np.array([0])),), residual=0)
        assert type(decomposition.residual) is float

    def test_rejects_negative_residual(self):
        with pytest.raises(ValueError, match="residual"):
            BvnDecomposition(terms=(BvnTerm(1.0, np.array([0])),), residual=-1e-3)

    @pytest.mark.parametrize(
        "residual",
        [
            float("nan"),
            float("inf"),
            0.4,
            pytest.param("0.4", id="string"),
            pytest.param(True, id="boolean"),
            pytest.param(None, id="none"),
        ],
    )
    def test_rejects_residual_decompose_cannot_leave(self, residual):
        terms = (BvnTerm(0.6, np.array([0, 1])),)
        with pytest.raises(ValueError, match="residual"):
            BvnDecomposition(terms=terms, residual=residual)


class TestDecompose:
    def test_permutation_is_fixed_point(self):
        ranking = np.array([3, 0, 4, 1, 2])
        result = decompose(permutation_matrix(ranking))
        assert len(result.terms) == 1
        assert result.terms[0].theta == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(result.terms[0].ranking, ranking)

    def test_two_by_two_uniform(self):
        result = decompose(np.full((2, 2), 0.5))
        assert len(result.terms) == 2
        thetas = sorted(t.theta for t in result.terms)
        np.testing.assert_allclose(thetas, [0.5, 0.5], atol=1e-12)
        rankings = {tuple(t.ranking.tolist()) for t in result.terms}
        assert rankings == {(0, 1), (1, 0)}
        # equal weights: ties broken lexicographically by ranking
        assert tuple(result.terms[0].ranking.tolist()) == (0, 1)

    def test_three_by_three_uniform(self):
        result = decompose(np.full((3, 3), 1.0 / 3))
        assert len(result.terms) == 3
        np.testing.assert_allclose([t.theta for t in result.terms], 1.0 / 3, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_round_trip_random_matrices(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            P = ipf_doubly_stochastic(n, rng)
            result = decompose(P)
            assert len(result.terms) <= term_bound(n)
            assert sum(t.theta for t in result.terms) == pytest.approx(1.0, abs=1e-6)
            assert all(t.theta > 0 for t in result.terms)
            np.testing.assert_allclose(reconstruct(result), P, atol=1e-6)

    def test_matrix_type_entries_and_list_decompose_alike(self):
        entries = ipf_doubly_stochastic(6, np.random.default_rng(5))
        P = DoublyStochasticMatrix(entries)
        expected = decompose(np.array(P))
        for form in (P, P.entries, P.entries.tolist()):
            result = decompose(form)
            assert [t.theta for t in result.terms] == [t.theta for t in expected.terms]
            assert all(
                np.array_equal(a.ranking, b.ranking) for a, b in zip(result.terms, expected.terms)
            )
            assert result.residual == expected.residual
        # decompose works on a copy, never on the read-only entries
        assert np.array_equal(P.entries, entries)

    def test_deterministic(self):
        rng = np.random.default_rng(42)
        P = ipf_doubly_stochastic(7, rng)
        a = decompose(P)
        b = decompose(P)
        assert len(a.terms) == len(b.terms)
        for ta, tb in zip(a.terms, b.terms):
            assert ta.theta == tb.theta
            np.testing.assert_array_equal(ta.ranking, tb.ranking)

    def test_terms_sorted_by_weight(self):
        rng = np.random.default_rng(5)
        P = ipf_doubly_stochastic(6, rng)
        result = decompose(P)
        thetas = [t.theta for t in result.terms]
        assert thetas == sorted(thetas, reverse=True)

    def test_near_zero_entries_are_structural_zeros(self):
        eps = 5e-8  # below the 1e-7 matching tolerance
        P = (1 - eps) * np.eye(2) + eps * np.array([[0.0, 1.0], [1.0, 0.0]])
        result = decompose(P)
        assert len(result.terms) == 1
        assert result.terms[0].theta == pytest.approx(1 - eps, abs=1e-12)
        assert result.residual <= 1e-7

    def test_sub_tolerance_remainder_still_decomposes(self):
        # after the identity term, 2e-7 per row remains spread over entries
        # of 6.7e-8 each, all below the 1e-7 tolerance
        eye = np.eye(6)
        spread = np.mean([np.roll(eye, j, axis=1) for j in (1, 2, 3)], axis=0)
        P = (1 - 2e-7) * eye + 2e-7 * spread
        result = decompose(P)
        assert len(result.terms) == 3
        assert result.residual == pytest.approx(2e-7 / 3, rel=1e-6)
        np.testing.assert_allclose(reconstruct(result), P, atol=1e-7)

    def test_large_n_has_no_recursion_limit(self):
        n = 1100
        shift = np.roll(np.eye(n), 1, axis=0)
        result = decompose(0.5 * np.eye(n) + 0.5 * shift)
        assert len(result.terms) == 2
        np.testing.assert_allclose(result.thetas, 0.5, atol=1e-12)

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="non-empty square matrix"):
            decompose(np.zeros((0, 0)))

    def test_rejects_non_stochastic_input(self):
        bad = np.full((3, 3), 1.0 / 3)
        bad[0] *= 0.9  # row sum 0.9
        with pytest.raises(ValueError, match="not doubly stochastic"):
            decompose(bad)

    def test_parity_solution_replays_greedily(self):
        problem = make_problem()
        report = solve_problem(problem, [demographic_parity(problem, "M", "F")])
        result = decompose(report.matrix)
        # the parity-constrained optimum mixes exactly two rankings
        assert len(result.terms) == 2
        np.testing.assert_allclose(
            reconstruct(result), report.matrix.entries, atol=1e-6
        )
        assert replay_orders(report.matrix.entries, result)

    def test_uniform_replay(self):
        P = np.full((3, 3), 1.0 / 3)
        assert replay_orders(P, decompose(P))


@st.composite
def nearly_doubly_stochastic(draw) -> np.ndarray:
    """A dense IPF matrix or a sparse mixture of permutations, off by at
    most TOLERANCE: one entry moved, every entry moved by up to
    TOLERANCE / n, or every entry moved by up to TOLERANCE with the line
    sums kept, zeros pushed negative; zeros may turn negative in all three."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        P = ipf_doubly_stochastic(n, rng)
    else:
        weights = rng.dirichlet(np.ones(draw(st.integers(1, n))))
        P = sum(w * permutation_matrix(rng.permutation(n)) for w in weights)
    size = draw(st.floats(-0.99, 0.99)) * TOLERANCE
    kind = draw(st.sampled_from(["entry", "all", "balanced"]))
    if kind == "entry":
        i, j = rng.integers(n, size=2)
        P[i, j] += size
    elif kind == "all":
        P += rng.uniform(-1.0, 1.0, size=(n, n)) * size / n
    else:
        x = np.abs(rng.standard_normal((n, n))) * np.where(P > 0, 1.0, -1.0)
        x -= x.mean(axis=0) + x.mean(axis=1)[:, None] - x.mean()
        P += x * abs(size) / max(float(np.abs(x).max()), 1e-300)
    return P


def assert_decomposes(P: np.ndarray) -> None:
    DoublyStochasticMatrix(P)
    result = decompose(P)
    assert abs(float(result.thetas.sum()) + result.residual - 1.0) <= TOLERANCE
    # an extracted entry can exceed the input only where negative entries
    # elsewhere in its row leave it more than the row's mass
    negative_mass = float(np.clip(-P, 0.0, None).sum(axis=1).max())
    gap = float(np.abs(reconstruct(result) - P).max())
    assert gap <= result.residual + max(TOLERANCE, negative_mass) + 1e-12  # rounding


class TestToleranceContract:
    """Every matrix the shared tolerance certifies decomposes."""

    def test_entry_bump_within_tolerance(self):
        P = np.full((4, 4), 0.25)
        P[0, 0] += 5e-7
        assert_decomposes(P)

    def test_negative_entries_within_tolerance(self):
        # each row holds two entries of 0.5 + 1.98e-6 and four of -0.99e-6,
        # so the matched entries hold more than their lines
        eye = np.eye(6)
        support = eye + np.roll(eye, 1, axis=1)
        P = 0.5 * support + 0.99 * TOLERANCE * np.where(support > 0, 2.0, -1.0)
        assert_decomposes(P)

    def test_nan_is_not_certified(self):
        P = np.full((3, 3), np.nan)
        with pytest.raises(ValueError, match="not doubly stochastic"):
            DoublyStochasticMatrix(P)
        with pytest.raises(ValueError, match="not doubly stochastic"):
            decompose(P)

    @settings(max_examples=60)
    @given(nearly_doubly_stochastic())
    def test_perturbed_matrices_decompose(self, P):
        assert_decomposes(P)


class TestReconstruct:
    def test_single_term(self):
        ranking = np.array([1, 0, 2])
        dec = BvnDecomposition(terms=(BvnTerm(1.0, ranking),))
        np.testing.assert_array_equal(reconstruct(dec), permutation_matrix(ranking))

    def test_two_by_two_uniform_round_trip(self):
        dec = decompose(np.full((2, 2), 0.5))
        np.testing.assert_allclose(reconstruct(dec), np.full((2, 2), 0.5), atol=1e-12)


class TestTermBound:
    """Greedy extraction alone stays within term_bound(n)."""

    @pytest.mark.parametrize("n", [6, 8, 10])
    @pytest.mark.parametrize("seed", range(3))
    def test_dense_mixture_meets_bound_exactly(self, n, seed):
        rng = np.random.default_rng([n, seed])
        weights = rng.dirichlet(np.ones(n * n))
        P = sum(w * permutation_matrix(rng.permutation(n)) for w in weights)
        result = decompose(P)
        assert len(result.terms) == term_bound(n)
        np.testing.assert_allclose(reconstruct(result), P, rtol=0.0, atol=1e-9)

    def test_step_capped_at_one_is_the_last(self):
        # every line holds 1 + 4.8e-7, so the identity's entries of
        # 1 + 3e-7 cap its weight at 1; nothing is zeroed and the rest,
        # below TOLERANCE, is residual rather than a second term
        P = (1 + 3e-7) * np.eye(3) + 0.9e-7 * (np.ones((3, 3)) - np.eye(3))
        result = decompose(P)
        assert len(result.terms) == 1
        assert result.terms[0].theta == 1.0
        np.testing.assert_array_equal(result.terms[0].ranking, [0, 1, 2])
        assert result.residual == pytest.approx(4.8e-7, rel=1e-6)

    @settings(max_examples=40)
    @given(witness_instances(), st.sampled_from(["demographic-parity", "disparate-impact"]))
    def test_every_solved_matrix_decomposes(self, problem, notion):
        report = solve_problem(problem, [NOTIONS[notion](problem, "A", "B")])
        assert report.status == "optimal"
        result = decompose(report.matrix.entries)
        assert len(result.terms) <= term_bound(problem.n)
        gap = float(np.abs(reconstruct(result) - report.matrix.entries).max())
        assert gap <= result.residual + TOLERANCE


def dense_mixture(n: int, seed: int) -> np.ndarray:
    """Dirichlet mixture of n^2 random permutations, as the dense benchmark builds."""
    rng = np.random.default_rng([n, seed])
    k = n * n
    rankings = rng.permuted(np.tile(np.arange(n), (k, 1)), axis=1)
    weights = rng.dirichlet(np.ones(k))
    matrix = np.zeros((n, n))
    np.add.at(matrix, (rankings, np.arange(n)[None, :]), weights[:, None])
    return matrix


def lottery_digest(result: BvnDecomposition) -> str:
    """sha256 over every term's exact weight and ranking, then the residual."""
    h = hashlib.sha256()
    for term in result.terms:
        h.update(term.theta.hex().encode())
        h.update(term.ranking.astype("<i8").tobytes())
    h.update(result.residual.hex().encode())
    return h.hexdigest()


class TestDenseLotteryPin:
    """Dense decompositions stay bit-identical: same terms, order and residual."""

    @pytest.mark.parametrize(
        "n, seed, terms, digest",
        [
            (10, 0, 82, "0d6d915eaffbc6ed4c4e32ef003e388a1f873a96eb70f4622b6a41fc250e6664"),
            (10, 1, 82, "c2e4f7bcda98c02d64c970b7d465c9f808995c43bdcaaecad1c8929eb19b587a"),
            (20, 0, 362, "c81285b28a6ddcb08bf098ea3e697d1fc80a187480a672bc846f4dad01c052b9"),
            (20, 1, 362, "db333b14fe3012b119bf5817eb9429eea1a4b56becc8ccb154b2201dfee6391a"),
            (30, 0, 842, "431bd83b21318325e3c5d2c0999ea6ee96baef97647a598ef83a0bec7f0338f4"),
            (30, 1, 842, "c3de4b1eeddc41fa64b54fbb984714c2cfb7c17b37ed58131f3412cd3d7e7a25"),
        ],
    )
    def test_dense_mixture_digest(self, n, seed, terms, digest):
        result = decompose(dense_mixture(n, seed))
        assert len(result.terms) == terms
        assert lottery_digest(result) == digest

    def test_every_term_takes_the_public_checks(self, monkeypatch):
        calls = []

        def counted(ranking):
            calls.append(ranking)
            return as_ranking(ranking)

        monkeypatch.setattr(bvn, "as_ranking", counted)
        result = decompose(dense_mixture(10, 0))
        assert len(calls) == len(result.terms) == 82

    def test_terms_hold_read_only_int_rankings(self):
        result = decompose(dense_mixture(10, 0))
        for term in result.terms:
            assert type(term.theta) is float
            assert term.ranking.dtype == np.dtype(int)
            assert not term.ranking.flags.writeable
            assert sorted(term.ranking.tolist()) == list(range(10))
        with pytest.raises(ValueError, match="read-only"):
            result.terms[0].ranking[0] = 1

    @pytest.mark.parametrize(
        "layout",
        [np.asfortranarray, lambda m: np.repeat(m, 2, axis=1)[:, ::2]],
        ids=["fortran", "strided"],
    )
    def test_memory_layout_does_not_change_result(self, layout):
        P = dense_mixture(10, 0).T  # a Fortran-ordered view of a non-symmetric matrix
        assert not np.allclose(P, P.T)
        expected = decompose(np.ascontiguousarray(P))
        for given in (P, layout(np.ascontiguousarray(P))):
            result = decompose(given)
            assert len(result.terms) == len(expected.terms)
            assert lottery_digest(result) == lottery_digest(expected)
            np.testing.assert_allclose(reconstruct(result), P, atol=1e-9)


class TestSolvedPipeline:
    """solve -> decompose -> evaluate -> simulate on degenerate instances."""

    @settings(max_examples=40)
    @given(witness_instances(), st.sampled_from(["demographic-parity", "disparate-impact"]))
    def test_certified_matrix_evaluates_and_simulates(self, problem, notion):
        report = solve_problem(problem, [NOTIONS[notion](problem, "A", "B")])
        assert report.status == "optimal"
        metrics = evaluate(report.matrix, problem, group_pair=("A", "B"))
        a, b = metrics.group("A"), metrics.group("B")
        if notion == "demographic-parity":
            assert abs(a.exposure - b.exposure) <= 1e-6
        else:
            assert metrics.dir is None or abs(metrics.dir - 1.0) <= 1e-6
        lottery = decompose(report.matrix)
        simulated = simulate(lottery, problem, n_users=200, seed=0, group_pair=("A", "B"))
        assert simulated.n_users == 200
        for ratio in (simulated.dtr, simulated.dir):
            assert ratio is None or np.isfinite(ratio)
