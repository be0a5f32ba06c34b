"""Builders reducing fairness notions to linear constraints ``f @ P @ g = h``.

Every builder returns a :class:`FairnessConstraint` whose per-item
coefficient vector ``f`` encodes group membership (and, for impact
constraints, relevance), whose per-position vector ``g`` is the position
bias, and whose right-hand side is 0.  Three notions are provided:

* demographic parity — equal average group exposure;
* disparate treatment — group exposure proportional to mean group utility;
* disparate impact — group clickthrough proportional to mean group utility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import MatrixLike, RankingProblem, as_matrix

__all__ = [
    "FairnessConstraint",
    "GroupStats",
    "group_stats",
    "demographic_parity",
    "disparate_treatment",
    "disparate_impact",
    "multi_group_constraints",
    "NOTIONS",
]

_RELATIONS = ("equal", "less-equal", "greater-equal")


@dataclass(frozen=True, eq=False)
class FairnessConstraint:
    """One linear constraint ``f @ P @ g  <relation>  h`` on the matrix P."""

    f: np.ndarray
    g: np.ndarray
    h: float = 0.0
    relation: str = "equal"
    label: str = ""

    def __post_init__(self) -> None:
        f = np.asarray(self.f, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if f.ndim != 1 or g.ndim != 1 or f.size != g.size:
            raise ValueError(
                f"f and g must be vectors of equal length, got {f.shape} and {g.shape}"
            )
        if self.relation not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}, got {self.relation!r}")
        f = f.copy()
        g = g.copy()
        f.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

    @property
    def n(self) -> int:
        return self.f.size

    def value(self, P: MatrixLike) -> float:
        """Evaluate ``f @ P @ g``."""
        return float(self.f @ as_matrix(P) @ self.g)

    def residual(self, P: MatrixLike) -> float:
        """Violation of the constraint at ``P`` (0 when satisfied)."""
        gap = self.value(P) - self.h
        if self.relation == "equal":
            return abs(gap)
        if self.relation == "less-equal":
            return max(0.0, gap)
        return max(0.0, -gap)


@dataclass(frozen=True)
class GroupStats:
    """Size and mean utility of one group."""

    label: str
    size: int
    mean_utility: float


def group_stats(problem: RankingProblem, group: str) -> GroupStats:
    idx = problem.group_indices(group)
    return GroupStats(group, int(idx.size), float(problem.utilities[idx].mean()))


def _membership(problem: RankingProblem, group_a: str, group_b: str):
    if group_a == group_b:
        raise ValueError(f"the two groups must differ, both are {group_a!r}")
    return problem.group_indices(group_a), problem.group_indices(group_b)


def demographic_parity(
    problem: RankingProblem, group_a: str, group_b: str
) -> FairnessConstraint:
    """Constraint holding iff the two groups receive equal average exposure.

    ``f[i]`` is ``1/|A|`` for members of ``group_a``, ``-1/|B|`` for members
    of ``group_b``, and 0 elsewhere; ``g`` is the position bias.
    """
    idx_a, idx_b = _membership(problem, group_a, group_b)
    f = np.zeros(problem.n)
    f[idx_a] = 1.0 / idx_a.size
    f[idx_b] = -1.0 / idx_b.size
    return FairnessConstraint(
        f, problem.bias, 0.0, "equal", f"demographic-parity:{group_a},{group_b}"
    )


def disparate_treatment(
    problem: RankingProblem, group_a: str, group_b: str
) -> FairnessConstraint:
    """Constraint holding iff group exposure is proportional to mean utility.

    Rejects groups with zero mean utility, for which the proportionality
    target is undefined.
    """
    idx_a, idx_b = _membership(problem, group_a, group_b)
    mean_a = problem.positive_mean_utility(group_a, "exposure proportional to utility")
    mean_b = problem.positive_mean_utility(group_b, "exposure proportional to utility")
    f = np.zeros(problem.n)
    f[idx_a] = 1.0 / (idx_a.size * mean_a)
    f[idx_b] = -1.0 / (idx_b.size * mean_b)
    return FairnessConstraint(
        f, problem.bias, 0.0, "equal", f"disparate-treatment:{group_a},{group_b}"
    )


def disparate_impact(
    problem: RankingProblem, group_a: str, group_b: str
) -> FairnessConstraint:
    """Constraint holding iff group clickthrough is proportional to mean utility.

    Identical to the disparate-treatment coefficients scaled element-wise by
    the item utilities (clicks = exposure times relevance).
    """
    treatment = disparate_treatment(problem, group_a, group_b)
    f = treatment.f * problem.utilities
    return FairnessConstraint(
        f, problem.bias, 0.0, "equal", f"disparate-impact:{group_a},{group_b}"
    )


NOTIONS = {
    "demographic-parity": demographic_parity,
    "disparate-treatment": disparate_treatment,
    "disparate-impact": disparate_impact,
}


def multi_group_constraints(
    problem: RankingProblem, notion: str, groups: Sequence[str]
) -> list[FairnessConstraint]:
    """Chain constraints (G1,G2), (G2,G3), ... equalizing K groups.

    K-1 pairwise constraints imply all pairwise equalities by transitivity,
    with fewer redundant rows than the all-pairs formulation.
    """
    if notion not in NOTIONS:
        raise ValueError(f"unknown fairness notion {notion!r}; expected one of {sorted(NOTIONS)}")
    labels = list(groups)
    if len(labels) < 2:
        raise ValueError("need at least two groups to constrain")
    if len(set(labels)) != len(labels):
        raise ValueError(f"groups overlap: {labels}")
    build = NOTIONS[notion]
    return [build(problem, labels[k], labels[k + 1]) for k in range(len(labels) - 1)]
