"""Utility and fairness diagnostics for a probabilistic ranking.

Exposure is attention allocated by rank; clickthrough couples that
attention with relevance (a click requires examining the position and
finding the item relevant).  The two disparity ratios compare groups
after normalizing by mean utility:

* disparate treatment ratio: (Exposure(G0)/mean_u(G0)) / (Exposure(G1)/mean_u(G1))
* disparate impact ratio:    (CTR(G0)/mean_u(G0)) / (CTR(G1)/mean_u(G1))

Both equal 1 exactly when the corresponding constraint holds.  The cost
of fairness is the utility given up relative to the unconstrained
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import TOLERANCE, MatrixLike, RankingProblem, as_matrix, group_exposure, utility

__all__ = [
    "GroupMetrics",
    "MetricsReport",
    "group_ctr",
    "disparate_treatment_ratio",
    "disparate_impact_ratio",
    "cost_of_fairness",
    "evaluate",
]


@dataclass(frozen=True)
class GroupMetrics:
    """Per-group view of one ranking matrix."""

    label: str
    size: int
    mean_utility: float
    exposure: float
    ctr: float


@dataclass(frozen=True)
class MetricsReport:
    """Full diagnostic bundle for one matrix.

    ``dtr``/``dir`` compare ``group_pair`` and are None when no pair was
    requested.  ``cof`` is present only when a reference optimum was
    supplied, and may not be meaningfully negative (the reference must
    dominate every feasible matrix).
    """

    dcg: float
    groups: tuple[GroupMetrics, ...]
    group_pair: Optional[tuple[str, str]]
    dtr: Optional[float]
    dir: Optional[float]
    cof: Optional[float]

    def __post_init__(self) -> None:
        for name in ("dtr", "dir"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ValueError(f"{name} must be positive when defined, got {value}")
        if self.cof is not None and self.cof < -TOLERANCE:
            raise ValueError(
                f"cost of fairness {self.cof} is negative beyond tolerance; "
                "the reference matrix is not the unconstrained optimum"
            )

    def group(self, label: str) -> GroupMetrics:
        for gm in self.groups:
            if gm.label == label:
                return gm
        raise ValueError(f"no metrics for group {label!r}")

    def to_dict(self) -> dict:
        out: dict = {
            "dcg": self.dcg,
            "groups": {
                gm.label: {
                    "size": gm.size,
                    "mean_utility": gm.mean_utility,
                    "exposure": gm.exposure,
                    "ctr": gm.ctr,
                }
                for gm in self.groups
            },
        }
        if self.group_pair is not None:
            out["group_pair"] = list(self.group_pair)
            out["dtr"] = self.dtr
            out["dir"] = self.dir
        if self.cof is not None:
            out["cof"] = self.cof
        return out


def group_ctr(P: MatrixLike, problem: RankingProblem, group: str) -> float:
    """Mean expected clickthrough over the group's items.

    An item's expected clickthrough is its utility times its exposure
    (examine, then click if relevant).
    """
    idx = problem.group_indices(group)
    m = as_matrix(P)
    if m.shape[0] != problem.n:
        raise ValueError(f"matrix shape {m.shape} does not match problem size {problem.n}")
    exposures = m[idx] @ problem.bias
    return float(np.mean(problem.utilities[idx] * exposures))


def disparate_treatment_ratio(
    P: MatrixLike, problem: RankingProblem, g0: str, g1: str
) -> float:
    """Exposure-per-utility ratio of ``g0`` relative to ``g1``; 1 is fair."""
    mean0 = problem.positive_mean_utility(g0, "disparate treatment ratio")
    mean1 = problem.positive_mean_utility(g1, "disparate treatment ratio")
    m = as_matrix(P)
    v = problem.bias
    e0 = group_exposure(m, v, problem.group_indices(g0))
    e1 = group_exposure(m, v, problem.group_indices(g1))
    if e1 == 0.0:
        raise ValueError(
            f"disparate treatment ratio is undefined: group {g1!r} has zero exposure"
        )
    return (e0 / mean0) / (e1 / mean1)


def disparate_impact_ratio(
    P: MatrixLike, problem: RankingProblem, g0: str, g1: str
) -> float:
    """Clickthrough-per-utility ratio of ``g0`` relative to ``g1``; 1 is fair."""
    mean0 = problem.positive_mean_utility(g0, "disparate impact ratio")
    mean1 = problem.positive_mean_utility(g1, "disparate impact ratio")
    ctr0 = group_ctr(P, problem, g0)
    ctr1 = group_ctr(P, problem, g1)
    if ctr1 == 0.0:
        raise ValueError(
            f"disparate impact ratio is undefined: group {g1!r} has zero clickthrough"
        )
    return (ctr0 / mean0) / (ctr1 / mean1)


def cost_of_fairness(
    P_star: MatrixLike, P: MatrixLike, problem: RankingProblem
) -> float:
    """Utility surrendered by ``P`` relative to the optimum ``P_star``."""
    return utility(P_star, problem) - utility(P, problem)


def evaluate(
    P: MatrixLike,
    problem: RankingProblem,
    group_pair: Optional[tuple[str, str]] = None,
    reference: Optional[MatrixLike] = None,
) -> MetricsReport:
    """Compute the full metrics bundle for ``P``.

    When ``group_pair`` is omitted and the problem has exactly two groups,
    they are compared in first-appearance order; with any other group
    count the pair (and dtr/dir) is omitted.  ``reference`` enables the
    cost-of-fairness entry and must be the unconstrained optimum.
    """
    m = as_matrix(P)
    group_pair = problem.group_pair_or_default(group_pair)
    groups = []
    for label in problem.group_labels:
        idx = problem.group_indices(label)
        groups.append(
            GroupMetrics(
                label=label,
                size=int(idx.size),
                mean_utility=float(problem.utilities[idx].mean()),
                exposure=group_exposure(m, problem.bias, idx),
                ctr=group_ctr(m, problem, label),
            )
        )
    dtr_value = dir_value = None
    if group_pair is not None:
        g0, g1 = group_pair
        dtr_value = disparate_treatment_ratio(m, problem, g0, g1)
        dir_value = disparate_impact_ratio(m, problem, g0, g1)
    cof_value = None
    if reference is not None:
        cof_value = cost_of_fairness(reference, m, problem)
    return MetricsReport(
        dcg=utility(m, problem),
        groups=tuple(groups),
        group_pair=group_pair,
        dtr=dtr_value,
        dir=dir_value,
        cof=cof_value,
    )
