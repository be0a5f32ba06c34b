"""Feasibility analysis for fairness constraints before solving.

Exposure-proportionality (disparate treatment) has a closed form: the
group-exposure ratio is extremized by block placements, putting one group
wholly on top and the other wholly at the bottom, so the constraint is
satisfiable exactly when the mean-utility ratio falls inside that
attainable range.  Demographic parity is always satisfiable (the uniform
matrix equalizes exposure).  Clickthrough-proportionality (disparate
impact) has no closed form here; it is checked by probing the linear
program directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .constraints import FairnessConstraint, disparate_impact
from .core import RankingProblem
from . import lp as _lp

__all__ = [
    "FeasibilityVerdict",
    "dt_exposure_ratio_range",
    "check_dt_feasibility",
    "probe_feasibility",
    "check_feasibility",
]

_REMEDY = (
    "adding items that belong to neither group lengthens the ranking "
    "and widens the attainable exposure-ratio range"
)


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of a feasibility check.

    ``method`` records how the verdict was reached: "closed-form" for the
    exposure-ratio range, "witness" for constraints a known matrix always
    satisfies, "lp-probe" when the linear program itself was consulted.
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


def check_dt_feasibility(
    problem: RankingProblem, g0: str, g1: str
) -> FeasibilityVerdict:
    """Closed-form feasibility of exposure proportional to mean utility."""
    idx0 = problem.group_indices(g0)
    idx1 = problem.group_indices(g1)
    mean0 = float(problem.utilities[idx0].mean())
    mean1 = float(problem.utilities[idx1].mean())
    for label, mean in ((g0, mean0), (g1, mean1)):
        if mean <= 0.0:
            raise ValueError(
                f"group {label!r} has zero mean utility; "
                "exposure proportional to utility is undefined"
            )
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


def probe_feasibility(
    problem: RankingProblem,
    constraints: Sequence[FairnessConstraint],
    notion: str,
    groups: tuple[str, str],
) -> FeasibilityVerdict:
    """Decide feasibility by solving the program itself."""
    report = _lp.solve_problem(problem, constraints)
    feasible = report.status == "optimal"
    note = "decided by solving the linear program with the constraint in place"
    if not feasible:
        note += f"; {_REMEDY}"
    return FeasibilityVerdict(
        feasible=feasible,
        notion=notion,
        groups=groups,
        method="lp-probe",
        note=note,
    )


def check_feasibility(
    problem: RankingProblem, notion: str, g0: str, g1: str
) -> FeasibilityVerdict:
    """Dispatch to the strongest available check for ``notion``."""
    if notion == "demographic-parity":
        problem.group_indices(g0)
        problem.group_indices(g1)
        return FeasibilityVerdict(
            feasible=True,
            notion=notion,
            groups=(g0, g1),
            method="witness",
            note="the uniform matrix equalizes exposure for any two groups",
        )
    if notion == "disparate-treatment":
        return check_dt_feasibility(problem, g0, g1)
    if notion == "disparate-impact":
        constraint = disparate_impact(problem, g0, g1)
        return probe_feasibility(problem, [constraint], notion, (g0, g1))
    raise ValueError(f"unknown fairness notion {notion!r}")
