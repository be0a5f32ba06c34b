"""Tests for problem containers, position bias, and exposure arithmetic."""

from __future__ import annotations

import re
import time

import numpy as np
import pytest

from fairexposure.core import (
    DoublyStochasticMatrix,
    Item,
    PositionBias,
    RankingProblem,
    permutation_matrix,
    prp_ranking,
    stochastic_violation,
    utility,
)
from fairexposure.metrics import evaluate

# Six candidates, two groups of three, utilities 0.02 apart.  Identity
# ranking is the utility-sorted one, so the PRP matrix is the identity.
JOBSEEKER_UTILITIES = (0.82, 0.81, 0.80, 0.79, 0.78, 0.77)
JOBSEEKER_GROUPS = ("M", "M", "M", "F", "F", "F")

# Frozen oracle values for the fixture above under natural-log bias.
V_NATURAL_6 = np.array(
    [1.4426950409, 0.9102392266, 0.7213475204, 0.6213349346, 0.5581106266, 0.5138983424]
)
PRP_UTILITY = 3.8192643340890475
EXPOSURE_M = 1.024760595986761
EXPOSURE_F = 0.5644479678268699


def make_problem(
    utilities=JOBSEEKER_UTILITIES, groups=JOBSEEKER_GROUPS, bias=None
) -> RankingProblem:
    items = tuple(
        Item(id=f"item{i}", group=g, utility=u)
        for i, (u, g) in enumerate(zip(utilities, groups))
    )
    if bias is None:
        bias = PositionBias.log_discount(len(items))
    return RankingProblem(items=items, position_bias=bias)


class TestPositionBiasVector:
    def test_natural_log_values(self):
        v = PositionBias.log_discount(6).values
        np.testing.assert_allclose(v, V_NATURAL_6, atol=1e-9)

    def test_log2_values(self):
        v = PositionBias.log_discount(3, base=2).values
        np.testing.assert_allclose(v, [1.0, 0.630929754, 0.5], atol=1e-8)
        # base 2 rescales the natural-log vector by ln 2
        natural = PositionBias.log_discount(3).values
        np.testing.assert_allclose(v, natural * np.log(2), atol=1e-12)

    def test_dcg_cutoff_zeroes_tail(self):
        bias = PositionBias.dcg_at_k(4, k=2, base=2)
        assert bias.kind == "dcg@k"
        np.testing.assert_allclose(bias.values, [1.0, 0.630929754, 0.0, 0.0], atol=1e-8)

    def test_single_position(self):
        np.testing.assert_allclose(PositionBias.log_discount(1, base=2).values, [1.0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="length must be positive"):
            PositionBias.log_discount(0)
        with pytest.raises(ValueError, match="log base"):
            PositionBias.log_discount(3, base=10)
        with pytest.raises(ValueError, match="cutoff k"):
            PositionBias.dcg_at_k(3, k=0)
        with pytest.raises(ValueError, match="cutoff k"):
            PositionBias.dcg_at_k(3, k=4)
        with pytest.raises(ValueError, match="non-empty vector"):
            PositionBias.explicit([])

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: PositionBias.log_discount(2.5), "length n must be an integer, got 2.5"),
            (lambda: PositionBias.log_discount(True), "length n must be an integer, got True"),
            (lambda: PositionBias.dcg_at_k(3.0, k=1), "length n must be an integer, got 3.0"),
            (lambda: PositionBias.dcg_at_k(5, k=True), "cutoff k must be an integer, got True"),
            (lambda: PositionBias.dcg_at_k(4, k=2.0), "cutoff k must be an integer, got 2.0"),
        ],
        ids=["float-n", "bool-n", "dcg-float-n", "bool-k", "float-k"],
    )
    def test_rejects_non_integer_sizes(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_accepts_numpy_integer_sizes(self):
        assert len(PositionBias.log_discount(np.int64(3))) == 3
        bias = PositionBias.dcg_at_k(np.int32(4), k=np.uint8(2))
        np.testing.assert_array_equal(bias.values, PositionBias.dcg_at_k(4, k=2).values)


class TestPositionBias:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="non-increasing"):
            PositionBias(kind="explicit", values=np.array([0.5, 1.0]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            PositionBias(kind="explicit", values=np.array([1.0, -0.1]))

    @pytest.mark.parametrize("kind", [None, 5, ["a"]])
    def test_rejects_non_string_kind(self, kind):
        with pytest.raises(ValueError, match="position bias kind must be a string"):
            PositionBias(kind, [1.0, 0.5])

    def test_log_discount_rejects_zero_entry(self):
        with pytest.raises(ValueError, match="strictly positive"):
            PositionBias("log-discount", [1.0, 0.0])

    @pytest.mark.parametrize("values", [[1.0, "0.5"], [1.0, True], ["1", "0.5"], [None]])
    def test_rejects_non_number_values(self, values):
        with pytest.raises(ValueError, match="position bias entries must be numbers"):
            PositionBias.explicit(values)

    @pytest.mark.parametrize(
        "values",
        [[1.0, float("nan")], [float("inf"), 1.0], [float("nan")], np.array([2.0, np.inf, 0.0])],
    )
    def test_rejects_non_finite_values(self, values):
        # NaN and inf pass the order and sign checks, and no coin has their probability
        with pytest.raises(ValueError, match="position bias entries must be finite numbers"):
            PositionBias.explicit(values)

    @pytest.mark.parametrize(
        "values", [[1, 0], [np.float64(1.0), np.int64(0)], np.array([1, 0], dtype=np.uint8)]
    )
    def test_accepts_int_and_numpy_numbers(self, values):
        assert PositionBias.explicit(values).values.tolist() == [1.0, 0.0]

    def test_values_read_only(self):
        bias = PositionBias.log_discount(4)
        with pytest.raises(ValueError):
            bias.values[0] = 2.0


class TestItem:
    def test_rejects_out_of_range_utility(self):
        with pytest.raises(ValueError, match="utility"):
            Item(id="a", group="G", utility=1.5)
        with pytest.raises(ValueError, match="utility"):
            Item(id="a", group="G", utility=-0.1)
        with pytest.raises(ValueError, match="utility"):
            Item(id="a", group="G", utility=float("nan"))

    @pytest.mark.parametrize(
        "utility",
        [True, "0.5", None, np.bool_(True), pytest.param(10**400, id="huge-int")],
    )
    def test_rejects_non_number_utility(self, utility):
        with pytest.raises(ValueError, match="must be a number in \\[0, 1\\]"):
            Item(id="a", group="G", utility=utility)

    @pytest.mark.parametrize("utility", [1, 0, np.float64(0.5), np.int64(1), np.float32(0.25)])
    def test_accepts_int_and_numpy_utility(self, utility):
        assert Item(id="a", group="G", utility=utility).utility == utility

    @pytest.mark.parametrize("item_id, group", [([1], "G"), ("a", ["G"]), (1, "G")])
    def test_rejects_non_string_id_or_group(self, item_id, group):
        with pytest.raises(ValueError, match="must be strings"):
            Item(id=item_id, group=group, utility=0.5)

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError, match="^empty item id$"):
            Item(id="", group="G", utility=0.5)


class TestRankingProblem:
    def test_group_labels_first_appearance_order(self):
        problem = make_problem(groups=("Z", "A", "Z", "B", "A", "B"))
        assert problem.group_labels == ("Z", "A", "B")

    def test_group_indices(self):
        problem = make_problem()
        np.testing.assert_array_equal(problem.group_indices("F"), [3, 4, 5])

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError, match="has no items"):
            make_problem().group_indices("X")

    def test_group_indices_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            make_problem().group_indices("M")[0] = 5

    def test_group_pair(self):
        problem = make_problem()
        assert problem.group_pair() == ("M", "F")
        assert problem.group_pair(("F", "M")) == ("F", "M")
        assert make_problem(groups=("A", "B", "C") * 2).group_pair() is None
        with pytest.raises(ValueError, match="the two groups must differ, both are 'M'"):
            problem.group_pair(("M", "M"))
        with pytest.raises(ValueError, match="group 'X' has no items"):
            problem.group_pair(("M", "X"))

    def test_duplicate_ids_rejected(self):
        items = (
            Item(id="a", group="G", utility=0.5),
            Item(id="a", group="G", utility=0.6),
        )
        with pytest.raises(ValueError, match="duplicate"):
            RankingProblem(items=items, position_bias=PositionBias.log_discount(2))

    def test_duplicate_ids_reported_in_linear_time(self):
        items = [Item(id=f"i{k}", group="G", utility=0.5) for k in range(49_999)]
        items.append(Item(id="i0", group="G", utility=0.5))
        bias = PositionBias.log_discount(len(items))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape("duplicate item ids: ['i0']")):
            RankingProblem(items=tuple(items), position_bias=bias)
        assert time.perf_counter() - start < 2.0

    def test_item_arrays_built_once_and_read_only(self):
        problem = make_problem(groups=("Z", "A", "Z", "B", "A", "B"))
        assert problem.utilities is problem.utilities
        np.testing.assert_array_equal(problem.utilities, JOBSEEKER_UTILITIES)
        np.testing.assert_array_equal(problem.item_group, [0, 1, 0, 2, 1, 2])
        for array in (problem.utilities, problem.item_group):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_singleton_groups_built_in_n_log_n(self):
        # one index array per label from one sort; on a 2-core Linux host a
        # pass over the items per label takes about 0.26 s, the sort 0.04 s
        n = 20_000
        items = tuple(Item(id=f"i{k}", group=f"g{k}", utility=0.5) for k in range(n))
        bias = PositionBias.log_discount(n)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            problem = RankingProblem(items=items, position_bias=bias)
            times.append(time.perf_counter() - start)
        np.testing.assert_array_equal(problem.item_group, np.arange(n))
        assert problem.group_indices("g7").tolist() == [7]
        assert min(times) < 0.15

    def test_no_items_rejected(self):
        with pytest.raises(ValueError, match="at least one item"):
            RankingProblem(items=(), position_bias=PositionBias.log_discount(1))

    def test_length_mismatch_rejected(self):
        items = (Item(id="a", group="G", utility=0.5),)
        with pytest.raises(ValueError, match="length"):
            RankingProblem(items=items, position_bias=PositionBias.log_discount(2))


class TestDoublyStochasticMatrix:
    def test_uniform_is_valid(self):
        P = DoublyStochasticMatrix.uniform(5)
        assert stochastic_violation(P.entries) == 0.0

    def test_from_ranking_round_trip(self):
        P = DoublyStochasticMatrix(permutation_matrix([2, 0, 1]))
        np.testing.assert_array_equal(
            P.entries, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        )

    def test_rejects_row_deficit(self):
        bad = np.full((3, 3), 1.0 / 3)
        bad[0, 0] += 1e-3
        with pytest.raises(ValueError, match="doubly stochastic"):
            DoublyStochasticMatrix(entries=bad)

    def test_violation_measures_worst_deviation(self):
        bad = np.full((2, 2), 0.5)
        bad[0, 0] = 0.5 + 2e-3
        assert stochastic_violation(bad) == pytest.approx(2e-3)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["inf-and-nan", "inf"])
    def test_overflowing_line_sums_rejected(self, sign):
        # row 0 sums in pairs to inf + -inf = NaN, column 0 to inf
        m = np.eye(16)
        m[[0, 2], 0] = m[0, 8] = 1e308
        m[0, [1, 9]] = sign * 1e308
        assert stochastic_violation(m) == float("inf")
        with pytest.raises(ValueError, match="not doubly stochastic"):
            DoublyStochasticMatrix(m)

    def test_violation_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="non-empty square matrix"):
            stochastic_violation(np.zeros((0, 0)))

    @pytest.mark.parametrize(
        "entries",
        [
            [[1, 0], [0, "1"]],
            [[1.0, 0.0], [False, 1.0]],
            [[1.0, 0.0], [0.0, None]],
            np.eye(2, dtype=bool),
            np.array([["1", "0"], ["0", "1"]]),
            [[10**400, 0], [0, 1]],
        ],
        ids=["str", "bool", "none", "bool-array", "str-array", "huge-int"],
    )
    def test_rejects_non_number_entries(self, entries):
        with pytest.raises(ValueError, match="matrix entries must be"):
            DoublyStochasticMatrix(entries)

    @pytest.mark.parametrize(
        "entries",
        [[[1, 0], [0, 1]], [[np.int64(1), 0.0], [0.0, np.float64(1.0)]], np.eye(2, dtype=int)],
    )
    def test_accepts_int_and_numpy_entries(self, entries):
        assert DoublyStochasticMatrix(entries).entries.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_entries_read_only(self):
        P = DoublyStochasticMatrix.uniform(3)
        with pytest.raises(ValueError):
            P.entries[0, 0] = 1.0

    def test_reads_as_its_read_only_entries(self):
        P = DoublyStochasticMatrix.uniform(3)
        for view in (np.asarray(P), np.asarray(P, dtype=float)):
            assert np.shares_memory(view, P.entries) and not view.flags.writeable

    def test_array_copy_is_writable(self):
        P = DoublyStochasticMatrix.uniform(3)
        copy = np.array(P)
        copy[0, 0] = 1.0
        assert not np.shares_memory(copy, P.entries)
        assert P.entries[0, 0] == 1.0 / 3


class TestPermutationMatrix:
    def test_places_item_at_rank(self):
        # ranking[j] = item shown at rank j
        M = permutation_matrix([1, 2, 0])
        assert M[1, 0] == 1 and M[2, 1] == 1 and M[0, 2] == 1

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            permutation_matrix([0, 0, 1])

    def test_rejects_non_integer_entries(self):
        with pytest.raises(ValueError, match="must be integers"):
            permutation_matrix([1.9, 0.2])


class TestUtilityAndExposure:
    def test_prp_utility_matches_oracle(self):
        problem = make_problem()
        P = permutation_matrix(prp_ranking(problem))
        assert utility(P, problem) == pytest.approx(PRP_UTILITY, abs=1e-9)

    def test_prp_sorts_by_utility_with_stable_ties(self):
        problem = make_problem(utilities=(0.5, 0.9, 0.5, 0.7), groups=("A",) * 4)
        np.testing.assert_array_equal(prp_ranking(problem), [1, 3, 0, 2])

    def test_group_exposures_match_oracle(self):
        problem = make_problem()
        metrics = evaluate(np.eye(6), problem)
        assert metrics.group("M").exposure == pytest.approx(EXPOSURE_M, abs=1e-9)
        assert metrics.group("F").exposure == pytest.approx(EXPOSURE_F, abs=1e-9)

    def test_exposure_conservation(self):
        # total exposure equals sum(v) for every doubly stochastic matrix
        rng = np.random.default_rng(7)
        problem = make_problem()
        v = problem.bias
        for _ in range(20):
            P = random_doubly_stochastic(6, rng)
            total = float((P @ v).sum())
            assert total == pytest.approx(float(v.sum()), abs=1e-9)

    def test_prp_is_utility_optimal(self):
        # no doubly stochastic matrix beats the PRP permutation
        rng = np.random.default_rng(11)
        problem = make_problem()
        best = utility(permutation_matrix(prp_ranking(problem)), problem)
        for _ in range(50):
            P = random_doubly_stochastic(6, rng)
            assert utility(P, problem) <= best + 1e-9

    def test_utility_linear_in_matrix(self):
        rng = np.random.default_rng(13)
        problem = make_problem()
        A = random_doubly_stochastic(6, rng)
        B = random_doubly_stochastic(6, rng)
        mix = 0.3 * A + 0.7 * B
        assert utility(mix, problem) == pytest.approx(
            0.3 * utility(A, problem) + 0.7 * utility(B, problem), abs=1e-12
        )

    def test_prp_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(17)
        u = rng.uniform(0.01, 0.99, size=8)
        problem_raw = make_problem(utilities=tuple(u), groups=("A",) * 8)
        problem_sq = make_problem(utilities=tuple(u**2), groups=("A",) * 8)
        np.testing.assert_array_equal(prp_ranking(problem_raw), prp_ranking(problem_sq))

    def test_dimension_mismatch_rejected(self):
        problem = make_problem()
        with pytest.raises(ValueError, match="does not match problem size"):
            utility(np.eye(4), problem)


def random_doubly_stochastic(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random convex combination of permutation matrices (Birkhoff sampling)."""
    weights = rng.dirichlet(np.ones(2 * n))
    P = np.zeros((n, n))
    for w in weights:
        P += w * permutation_matrix(rng.permutation(n))
    return P
