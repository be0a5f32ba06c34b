"""Utility and fairness diagnostics for a probabilistic ranking.

:func:`evaluate` is the one path to every metric of a matrix.  It reads
each group's exposure and clickthrough once: exposure is attention
allocated by rank, and clickthrough couples that attention with relevance
(a click requires examining the position and finding the item relevant).
The two disparity ratios compare a group pair after normalizing by mean
utility:

* disparate treatment ratio: (Exposure(G0)/mean_u(G0)) / (Exposure(G1)/mean_u(G1))
* disparate impact ratio:    (CTR(G0)/mean_u(G0)) / (CTR(G1)/mean_u(G1))

Both equal 1 exactly when the corresponding constraint holds, and both
are None where undefined: a group of zero mean utility, or of zero
exposure or clickthrough.  The simulator estimates them under the same
rule.  The cost of fairness is the utility given up relative to the
unconstrained optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import TOLERANCE, RankingProblem, utility

__all__ = ["GroupMetrics", "MetricsReport", "evaluate"]


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
    """Full diagnostic bundle for one matrix, as :func:`evaluate` builds it.

    ``dtr``/``dir`` compare ``group_pair``.  They are None when no pair
    was requested, and when the ratio is undefined: either group has zero
    mean utility, or exposure (``dtr``) or clickthrough (``dir``) <= 0.
    ``cof`` is present only when a reference optimum was supplied.
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


def _utility_ratio(
    value0: float, mean0: float, value1: float, mean1: float
) -> Optional[float]:
    """``(value0/mean0) / (value1/mean1)``, or None where it is undefined.

    Undefined means any of the four is <= 0 (a certified matrix may give a
    value just below 0) or the ratio is beyond the float range; the analytic
    metrics and the simulator share this rule.
    """
    if mean0 <= 0.0 or mean1 <= 0.0 or value0 <= 0.0 or value1 <= 0.0:
        return None
    ratio = (value0 / mean0) / (value1 / mean1)
    return ratio if math.isfinite(ratio) else None


def evaluate(
    P,
    problem: RankingProblem,
    group_pair: Optional[tuple[str, str]] = None,
    reference=None,
) -> MetricsReport:
    """Compute the full metrics bundle for ``P``.

    ``group_pair`` is settled by :meth:`RankingProblem.group_pair`; with
    no pair, dtr/dir are omitted.  ``reference`` enables the
    cost-of-fairness entry and must be the unconstrained optimum.

    A certified P may beat the optimum: ``P + δJ`` (δ = TOLERANCE) is
    non-negative with line sums at most ``1 + (n+1)δ``, so scaled down it is
    substochastic and ``u·P·v <= (1 + (n+1)δ)·OPT``.  A cost of fairness
    below ``-(n+1)δ·OPT`` therefore means the reference is not the optimum.
    """
    m = np.asarray(P, dtype=float)
    dcg = utility(m, problem)
    group_pair = problem.group_pair(group_pair)
    u, v = problem.utilities, problem.bias
    groups = {}
    for label in problem.group_labels:
        idx = problem.group_indices(label)
        exposures = m[idx] @ v
        groups[label] = GroupMetrics(
            label=label,
            size=int(idx.size),
            mean_utility=float(u[idx].mean()),
            exposure=float(np.mean(exposures)),
            # an item is clicked when examined and found relevant
            ctr=float(np.mean(u[idx] * exposures)),
        )
    dtr_value = dir_value = None
    if group_pair is not None:
        g0, g1 = groups[group_pair[0]], groups[group_pair[1]]
        dtr_value = _utility_ratio(g0.exposure, g0.mean_utility, g1.exposure, g1.mean_utility)
        dir_value = _utility_ratio(g0.ctr, g0.mean_utility, g1.ctr, g1.mean_utility)
    cof_value = None
    if reference is not None:
        best = utility(reference, problem)
        cof_value = best - dcg
        if cof_value < -(problem.n + 1) * TOLERANCE * best:
            raise ValueError(
                f"cost of fairness {cof_value} is negative beyond tolerance; "
                "the reference matrix is not the unconstrained optimum"
            )
    return MetricsReport(
        dcg=dcg,
        groups=tuple(groups.values()),
        group_pair=group_pair,
        dtr=dtr_value,
        dir=dir_value,
        cof=cof_value,
    )
