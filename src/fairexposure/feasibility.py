"""Feasibility analysis for fairness constraints before solving.

Exposure-proportionality (disparate treatment) has a closed form: the
group-exposure ratio is extremized by block placements, putting one group
wholly on top and the other wholly at the bottom, so the constraint is
satisfiable exactly when the mean-utility ratio falls inside that
attainable range.  Demographic parity and clickthrough-proportionality
(disparate impact) are always satisfiable: the uniform matrix gives every
item exposure ``mean(v)``, so it satisfies any row whose coefficients sum
to zero, ``f·(J/n)·v = mean(v)·Σf = 0``, and both rows do (``Σf = 1 − 1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constraints import NOTIONS, _utility_groups
from .core import RankingProblem

__all__ = [
    "FeasibilityVerdict",
    "dt_exposure_ratio_range",
    "check_feasibility",
]

_REMEDY = (
    "adding items that belong to neither group lengthens the ranking "
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
    """Outcome of a feasibility check.

    ``method`` records how the verdict was reached: "closed-form" for the
    exposure-ratio range, "witness" for constraints the uniform matrix
    always satisfies.
    """

    feasible: bool
    notion: str
    groups: tuple[str, str]
    method: str
    required_ratio: Optional[float] = None
    attainable_range: Optional[tuple[float, float]] = None
    note: str = ""

    def to_dict(self) -> dict:
        out: dict = {
            "feasible": self.feasible,
            "notion": self.notion,
            "groups": list(self.groups),
            "method": self.method,
        }
        if self.required_ratio is not None:
            out["required_ratio"] = self.required_ratio
        if self.attainable_range is not None:
            # JSON has no infinity: an unbounded end is written as null
            out["attainable_range"] = [
                x if np.isfinite(x) else None for x in self.attainable_range
            ]
        if self.note:
            out["note"] = self.note
        return out


def dt_exposure_ratio_range(
    size_g0: int, size_g1: int, v: np.ndarray
) -> tuple[float, float]:
    """Attainable range of the average-exposure ratio of two groups.

    The maximum puts the first group in the top ``size_g0`` positions and
    the second in the bottom ``size_g1``; the minimum is the mirror
    placement.  Ratios compare per-item averages, so unequal group sizes
    are handled by dividing each block sum by its group size.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("position bias must be a non-empty vector")
    if np.any(np.diff(v) > 0):
        raise ValueError("position bias must be non-increasing in rank")
    if size_g0 < 1 or size_g1 < 1:
        raise ValueError(f"group sizes must be at least 1, got {size_g0} and {size_g1}")
    n = v.size
    if size_g0 + size_g1 > n:
        raise ValueError(
            f"groups of {size_g0} and {size_g1} items do not fit in {n} positions"
        )
    top_g0 = float(v[:size_g0].mean())
    bottom_g0 = float(v[n - size_g0 :].mean())
    top_g1 = float(v[:size_g1].mean())
    bottom_g1 = float(v[n - size_g1 :].mean())
    if top_g1 == 0.0:
        raise ValueError("position bias is entirely zero; exposure ratios are undefined")
    max_ratio = np.inf if bottom_g1 == 0.0 else top_g0 / bottom_g1
    min_ratio = bottom_g0 / top_g1
    return min_ratio, max_ratio


def _check_dt_feasibility(
    problem: RankingProblem, g0: str, g1: str
) -> FeasibilityVerdict:
    """Closed-form feasibility of exposure proportional to mean utility."""
    (idx0, idx1), (mean0, mean1) = _utility_groups(problem, g0, g1)
    required = mean0 / mean1
    lo, hi = dt_exposure_ratio_range(int(idx0.size), int(idx1.size), problem.bias)
    feasible = lo - 1e-9 <= required <= hi + 1e-9
    note = "" if feasible else (
        f"required exposure ratio {required:.6g} lies outside "
        f"[{lo:.6g}, {hi:.6g}]; {_REMEDY}"
    )
    return FeasibilityVerdict(
        feasible=feasible,
        notion="disparate-treatment",
        groups=(g0, g1),
        method="closed-form",
        required_ratio=required,
        attainable_range=(lo, hi),
        note=note,
    )


def check_feasibility(
    problem: RankingProblem, notion: str, g0: str, g1: str
) -> FeasibilityVerdict:
    """Decide whether ``notion`` between groups ``g0`` and ``g1`` is attainable.

    The groups are checked by the rules the notion's constraint builder
    applies (distinct, present, and for the utility-proportional notions,
    of nonzero mean utility), with the same error messages.
    """
    if notion not in NOTIONS:
        raise ValueError(f"unknown fairness notion {notion!r}")
    if notion == "disparate-treatment":
        return _check_dt_feasibility(problem, g0, g1)
    NOTIONS[notion](problem, g0, g1)
    return FeasibilityVerdict(
        feasible=True,
        notion=notion,
        groups=(g0, g1),
        method="witness",
        note=_WITNESS_NOTES[notion],
    )
