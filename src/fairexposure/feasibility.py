"""Feasibility analysis for fairness constraints before solving.

Exposure-proportionality (disparate treatment) has an exact closed form
for any chain of K >= 2 groups.  Every built-in notion reads exposures
``e = P v``, and as P ranges over the doubly stochastic matrices, e ranges
over the permutahedron of v (Kletti et al., "Introducing the Expohedron",
WSDM 2022).  A set S of groups holding ``m_S`` items in all therefore
receives a total exposure between ``bottom(m_S)``, the sum of the m_S
smallest entries of v, and ``top(m_S)``, the sum of the m_S largest; these
bounds describe a generalised polymatroid, so every total vector inside
them is attained.  Treatment asks each group's total to be ``c·U_k`` for
one c, where ``U_k`` is the group's utility sum, so the chain is feasible
exactly when some c meets every set's bounds::

    max_S bottom(m_S) / U_S  <=  min_S top(m_S) / U_S

Only 2K of the sets can bind.  Give each item of group k the value
``c·U_k / m_k``: a set S then gets ``c·U_S``, which lies between the sums
of the m_S smallest and the m_S largest of these values.  Both sums are
linear inside each group's block while bottom is convex and top concave,
so the bounds hold for every S once they hold at the block ends.  With the
groups ordered by utility per item ``U_k / m_k`` (ties by chain position),
those are the K ascending prefixes for the maximum and the K descending
ones for the minimum.  For two groups the singleton bounds, divided by
the group sizes, give the attainable exposure-ratio range.

Demographic parity and clickthrough-proportionality (disparate impact) are
always satisfiable: the uniform matrix gives every item exposure
``mean(v)``, so it satisfies any row whose coefficients sum to zero,
``f·(J/n)·v = mean(v)·Σf = 0``, and both rows do (``Σf = 1 − 1``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .constraints import multi_group_constraints
from .core import RankingProblem

__all__ = ["FeasibilityVerdict", "check_feasibility"]

# Relative slack on the exposure-per-unit-utility bounds: it absorbs the
# rounding of the bound sums, so that an exact tie is feasible.
_SLACK = 1e-9

_REMEDY = (
    "adding items that belong to {} lengthens the ranking "
    "and widens the attainable exposure-ratio range"
)

# notions the uniform matrix always satisfies, with the reason
_WITNESS_NOTES = {
    "demographic-parity": "the uniform matrix equalizes exposure for any two groups",
    "disparate-impact": (
        "the uniform matrix gives every item equal exposure and the impact "
        "coefficients sum to zero, so it equalizes clickthrough per unit utility"
    ),
}


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of a feasibility check on one chain of groups.

    ``method`` records how the verdict was reached: "closed-form" for the
    exposure bounds, "witness" for constraints the uniform matrix always
    satisfies.  A two-group treatment verdict also carries the required
    and the attainable exposure ratio.
    """

    feasible: bool
    notion: str
    groups: tuple[str, ...]
    method: str
    required_ratio: Optional[float] = None
    attainable_range: Optional[tuple[float, float]] = None
    note: str = ""

    def to_dict(self) -> dict:
        """The fields in declaration order, less those left at their default;
        JSON has no infinity, so an unbounded end of the range is null."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value == f.default:
                continue
            if isinstance(value, tuple):
                value = [x if isinstance(x, str) or np.isfinite(x) else None for x in value]
            out[f.name] = value
        return out


def _check_dt_feasibility(problem: RankingProblem, groups: tuple[str, ...]) -> FeasibilityVerdict:
    """The exposure-bound rule of the module docstring for one chain."""
    v, n, utilities = problem.bias, problem.n, problem.utilities
    if v[0] == 0.0:
        raise ValueError("position bias is entirely zero; exposure ratios are undefined")
    indices = [problem.group_indices(g) for g in groups]
    sizes, sums = [idx.size for idx in indices], [float(utilities[idx].sum()) for idx in indices]
    top, bottom = (lambda m: float(v[:m].sum())), (lambda m: float(v[n - m :].sum()))
    order = sorted(range(len(groups)), key=lambda i: (sums[i] / sizes[i], i))

    def per_utility(bound, s: list) -> tuple:  # (bound(m_S) / U_S, S), S in chain order
        return bound(sum(sizes[i] for i in s)) / sum(sums[i] for i in s), s
    lo, lo_set = max(per_utility(bottom, sorted(order[:k])) for k in range(1, len(order) + 1))
    hi, hi_set = min(per_utility(top, sorted(order[k:])) for k in range(len(order)))
    feasible = lo <= hi * (1.0 + _SLACK)
    required = ratios = None
    if len(groups) == 2:
        # ratios of per-item block means: one group on top, the other at the bottom
        (m0, m1), (u0, u1) = sizes, sums
        required = (u0 / m0) / (u1 / m1)
        ratios = (
            (bottom(m0) / m0) / (top(m1) / m1),
            np.inf if bottom(m1) == 0.0 else (top(m0) / m0) / (bottom(m1) / m1),
        )
        note = (
            f"required exposure ratio {required:.6g} lies outside "
            f"[{ratios[0]:.6g}, {ratios[1]:.6g}]; {_REMEDY.format('neither group')}"
        )
    else:
        lo_groups, hi_groups = (",".join(groups[i] for i in s) for s in (lo_set, hi_set))
        note = (
            f"exposure per unit utility cannot be both at least {lo:.6g}, the least "
            f"{lo_groups} can get (placed at the bottom), and at most {hi:.6g}, the most "
            f"{hi_groups} can get (placed at the top); {_REMEDY.format('none of the groups')}"
        )
    return FeasibilityVerdict(
        feasible, "disparate-treatment", groups, "closed-form",
        required_ratio=required, attainable_range=ratios, note="" if feasible else note,
    )


def check_feasibility(problem: RankingProblem, notion: str, *groups: str) -> FeasibilityVerdict:
    """Decide whether ``notion`` over the chain ``groups`` is attainable.

    The groups are checked by :func:`multi_group_constraints`, with the
    messages its builders give: two or more distinct groups that have
    items, and for the utility-proportional notions, of nonzero mean
    utility.
    """
    multi_group_constraints(problem, notion, groups)
    if notion == "disparate-treatment":
        return _check_dt_feasibility(problem, groups)
    return FeasibilityVerdict(True, notion, groups, "witness", note=_WITNESS_NOTES[notion])
