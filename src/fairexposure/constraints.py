"""Builders reducing fairness notions to linear constraints ``f @ P @ g = h``.

Every fairness notion is one or more equalities ``f @ P @ g = h``; the LP
has no inequality rows.  Every builder returns a :class:`FairnessConstraint`
whose per-item coefficient vector ``f`` encodes group membership (and, for
impact constraints, relevance), whose per-position vector ``g`` is the
position bias, and whose right-hand side is 0.  Three notions are provided:

* demographic parity — equal average group exposure;
* disparate treatment — group exposure proportional to mean group utility;
* disparate impact — group clickthrough proportional to mean group utility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import RankingProblem, _as_reals, _is_number

__all__ = [
    "FairnessConstraint",
    "demographic_parity",
    "disparate_treatment",
    "disparate_impact",
    "multi_group_constraints",
    "NOTIONS",
]


@dataclass(frozen=True, eq=False)
class FairnessConstraint:
    """One linear equality ``f @ P @ g = h`` on the matrix P."""

    f: np.ndarray
    g: np.ndarray
    h: float = 0.0
    label: str = field(default="", kw_only=True)

    def __post_init__(self) -> None:
        f = _as_reals(self.f, "constraint f")
        g = _as_reals(self.g, "constraint g")
        if f.ndim != 1 or g.ndim != 1 or f.size != g.size:
            raise ValueError(
                f"f and g must be vectors of equal length, got {f.shape} and {g.shape}"
            )
        if not _is_number(self.h):
            raise ValueError(f"constraint h must be a number, got {self.h!r}")
        h = float(self.h)
        if not (np.isfinite(f).all() and np.isfinite(g).all() and np.isfinite(h)):
            raise ValueError(f"constraint {self.label!r} has a non-finite f, g or h")
        f.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)

    @property
    def n(self) -> int:
        return self.f.size

    def value(self, P) -> float:
        """Evaluate ``f @ P @ g``."""
        return float(self.f @ np.asarray(P, dtype=float) @ self.g)

    def residual(self, P) -> float:
        """Violation ``|f @ P @ g - h|`` of the constraint at ``P``."""
        return abs(self.value(P) - self.h)


def _membership(problem: RankingProblem, group_a: str, group_b: str):
    problem.group_pair((group_a, group_b))
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
    return FairnessConstraint(f, problem.bias, label=f"demographic-parity:{group_a},{group_b}")


def _per_unit_utility(problem: RankingProblem, group_a: str, group_b: str) -> np.ndarray:
    """The treatment coefficients ``±1 / (|G|·mean_u(G))``, + on ``group_a``'s items."""
    indices = _membership(problem, group_a, group_b)
    utilities = problem.utilities
    f = np.zeros(problem.n)
    for group, idx, sign in zip((group_a, group_b), indices, (1.0, -1.0)):
        mean = float(utilities[idx].mean())
        if mean <= 0.0:
            raise ValueError(
                "exposure proportional to utility is undefined: "
                f"group {group!r} has zero mean utility"
            )
        f[idx] = sign / (idx.size * mean)
    return f


def disparate_treatment(
    problem: RankingProblem, group_a: str, group_b: str
) -> FairnessConstraint:
    """Constraint holding iff group exposure is proportional to mean utility.

    Rejects groups with zero mean utility, for which the proportionality
    target is undefined.
    """
    f = _per_unit_utility(problem, group_a, group_b)
    return FairnessConstraint(f, problem.bias, label=f"disparate-treatment:{group_a},{group_b}")


def disparate_impact(
    problem: RankingProblem, group_a: str, group_b: str
) -> FairnessConstraint:
    """Constraint holding iff group clickthrough is proportional to mean utility.

    Identical to the disparate-treatment coefficients scaled element-wise by
    the item utilities (clicks = exposure times relevance).
    """
    f = _per_unit_utility(problem, group_a, group_b) * problem.utilities
    return FairnessConstraint(f, problem.bias, label=f"disparate-impact:{group_a},{group_b}")


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
    with fewer redundant rows than the all-pairs formulation.  Each
    adjacent pair is checked by its builder, with the builder's messages,
    before the chain is checked for a group that recurs further on.
    """
    if notion not in NOTIONS:
        raise ValueError(f"unknown fairness notion {notion!r}; expected one of {sorted(NOTIONS)}")
    labels = list(groups)
    if len(labels) < 2:
        raise ValueError(
            f"need at least two groups to constrain, a group pair or a chain; got {labels}"
        )
    build = NOTIONS[notion]
    chain = [build(problem, labels[k], labels[k + 1]) for k in range(len(labels) - 1)]
    if len(set(labels)) != len(labels):
        raise ValueError(f"groups overlap: {labels}")
    return chain
