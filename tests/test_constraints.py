"""Tests for the linear fairness constraint builders."""

from __future__ import annotations

import re

import numpy as np
import pytest

from fairexposure.constraints import (
    FairnessConstraint,
    demographic_parity,
    disparate_impact,
    disparate_treatment,
    multi_group_constraints,
)
from fairexposure.core import DoublyStochasticMatrix, permutation_matrix

from .test_core import make_problem

# Frozen coefficients for the six-candidate fixture (groups of three,
# mean utilities 0.81 and 0.78).
DT_F_FIRST = 0.41152263374485604  # 1 / (3 * 0.81)
DT_F_LAST = -0.4273504273504274  # -1 / (3 * 0.78)
DI_F_FIRST = 0.3374485596707819  # 0.82 / (3 * 0.81)


class TestFairnessConstraint:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            FairnessConstraint(f=np.ones(3), g=np.ones(4))

    def test_residual_is_distance_from_h(self):
        P = np.eye(2)
        f = np.array([1.0, -1.0])
        g = np.array([1.0, 0.25])
        # value = 1*1 - 1*0.25 = 0.75
        assert FairnessConstraint(f, g, 0.0).residual(P) == pytest.approx(0.75)
        assert FairnessConstraint(f, g, 1.0).residual(P) == pytest.approx(0.25)
        assert FairnessConstraint(f, g, 0.75).residual(P) == 0.0

    def test_label_is_keyword_only(self):
        # a positional fourth argument was the removed inequality relation
        with pytest.raises(TypeError):
            FairnessConstraint(np.ones(2), np.ones(2), 0.0, "less-equal")
        assert FairnessConstraint(np.ones(2), np.ones(2), label="x").label == "x"

    @pytest.mark.parametrize(
        "f, g, h",
        [
            ([1.0, np.inf], [1.0, 1.0], 0.0),
            ([1.0, 1.0], [np.nan, 1.0], 0.0),
            ([1.0, 1.0], [1.0, 1.0], -np.inf),
        ],
    )
    def test_rejects_non_finite(self, f, g, h):
        with pytest.raises(ValueError, match="non-finite"):
            FairnessConstraint(np.array(f), np.array(g), h, label="c")

    @pytest.mark.parametrize(
        "f, g, h, message",
        [
            (["1", "-1"], np.ones(2), 0.0, "constraint f entries must be numbers"),
            ([True, False], [1, 1], 0.0, "constraint f entries must be numbers"),
            ([1, [2]], [1, 1], 0.0, "constraint f entries must be numbers"),
            ([1, 1], np.array([True, False]), 0.0, "constraint g entries must be numbers"),
            (np.ones(2), np.ones(2), "0", "constraint h must be a number, got '0'"),
            ([1, 1], [1, 1], True, "constraint h must be a number, got True"),
        ],
        ids=["string-f", "boolean-f", "ragged-f", "boolean-g", "string-h", "boolean-h"],
    )
    def test_number_rule(self, f, g, h, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FairnessConstraint(f, g, h)

    def test_vectors_read_only(self):
        c = demographic_parity(make_problem(), "M", "F")
        with pytest.raises(ValueError):
            c.f[0] = 5.0


class TestGroupStats:
    def test_jobseeker_means(self):
        # the treatment row weights a member by 1 / (group size * mean utility)
        c = disparate_treatment(make_problem(), "M", "F")
        expected = [1 / (3 * 0.81)] * 3 + [-1 / (3 * 0.78)] * 3
        np.testing.assert_allclose(c.f, expected, rtol=1e-12)


class TestDemographicParity:
    def test_coefficients(self):
        c = demographic_parity(make_problem(), "M", "F")
        np.testing.assert_allclose(c.f, [1 / 3, 1 / 3, 1 / 3, -1 / 3, -1 / 3, -1 / 3])
        assert c.h == 0.0

    def test_g_is_position_bias(self):
        problem = make_problem()
        c = demographic_parity(problem, "M", "F")
        np.testing.assert_allclose(c.g, problem.bias)

    def test_uniform_matrix_satisfies(self):
        problem = make_problem()
        c = demographic_parity(problem, "M", "F")
        assert c.residual(DoublyStochasticMatrix.uniform(6)) == pytest.approx(0.0, abs=1e-12)

    def test_prp_violates(self):
        problem = make_problem()
        c = demographic_parity(problem, "M", "F")
        # identity ranking gives all the best positions to group M
        assert c.value(np.eye(6)) == pytest.approx(
            1.024760595986761 - 0.5644479678268699, abs=1e-9
        )

    def test_swapping_groups_negates_value(self):
        problem = make_problem()
        P = permutation_matrix([3, 1, 4, 0, 2, 5])
        ab = demographic_parity(problem, "M", "F")
        ba = demographic_parity(problem, "F", "M")
        assert ab.value(P) == pytest.approx(-ba.value(P), abs=1e-12)

    def test_same_group_twice_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            demographic_parity(make_problem(), "M", "M")

    def test_nonmembers_have_zero_coefficient(self):
        problem = make_problem(groups=("A", "B", "C", "A", "B", "C"))
        c = demographic_parity(problem, "A", "C")
        np.testing.assert_allclose(c.f[[1, 4]], 0.0)


class TestDisparateTreatment:
    def test_coefficients(self):
        c = disparate_treatment(make_problem(), "M", "F")
        assert c.f[0] == pytest.approx(DT_F_FIRST, abs=1e-12)
        assert c.f[3] == pytest.approx(DT_F_LAST, abs=1e-12)

    def test_zero_mean_utility_rejected(self):
        problem = make_problem(utilities=(0.0, 0.0, 0.0, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="zero mean utility"):
            disparate_treatment(problem, "M", "F")

    def test_satisfied_iff_exposure_proportional_to_utility(self):
        # equal per-group mean utility reduces the constraint to parity
        problem = make_problem(utilities=(0.6, 0.5, 0.4, 0.4, 0.5, 0.6))
        c = disparate_treatment(problem, "M", "F")
        assert c.residual(DoublyStochasticMatrix.uniform(6)) == pytest.approx(0.0, abs=1e-12)


class TestDisparateImpact:
    def test_f_is_treatment_f_scaled_by_utility(self):
        problem = make_problem()
        impact = disparate_impact(problem, "M", "F")
        treatment = disparate_treatment(problem, "M", "F")
        np.testing.assert_allclose(impact.f, treatment.f * problem.utilities, atol=1e-15)
        assert impact.f[0] == pytest.approx(DI_F_FIRST, abs=1e-12)

    def test_labels_name_the_notion(self):
        problem = make_problem()
        assert disparate_impact(problem, "M", "F").label.startswith("disparate-impact")
        assert demographic_parity(problem, "M", "F").label.startswith("demographic-parity")


class TestMultiGroup:
    def test_chain_has_k_minus_one_rows(self):
        problem = make_problem(groups=("A", "B", "C", "A", "B", "C"))
        chain = multi_group_constraints(problem, "demographic-parity", ["A", "B", "C"])
        assert len(chain) == 2
        assert chain[0].label.endswith("A,B")
        assert chain[1].label.endswith("B,C")

    def test_chain_implies_all_pairs(self):
        problem = make_problem(groups=("A", "B", "C", "A", "B", "C"))
        chain = multi_group_constraints(problem, "demographic-parity", ["A", "B", "C"])
        P = DoublyStochasticMatrix.uniform(6).entries
        direct = demographic_parity(problem, "A", "C")
        # chain residuals zero at P implies the skipped pair holds too
        assert all(c.residual(P) < 1e-12 for c in chain)
        assert direct.residual(P) < 1e-12

    def test_rejects_duplicates_and_unknown_notion(self):
        problem = make_problem(groups=("A", "B", "C", "A", "B", "C"))
        # an adjacent pair is the pair builders' to reject, a later repeat the chain's
        with pytest.raises(ValueError, match="the two groups must differ, both are 'A'"):
            multi_group_constraints(problem, "demographic-parity", ["A", "A"])
        with pytest.raises(ValueError, match="overlap"):
            multi_group_constraints(problem, "demographic-parity", ["A", "B", "A"])
        with pytest.raises(ValueError, match="notion"):
            multi_group_constraints(problem, "equalized-odds", ["A", "B"])
        with pytest.raises(ValueError, match="at least two"):
            multi_group_constraints(problem, "demographic-parity", ["A"])
