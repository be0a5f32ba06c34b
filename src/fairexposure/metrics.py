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
from dataclasses import dataclass, fields, is_dataclass
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
        return _json_fields(self)


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


# a report's fields for its group pair: written, None as null, only when a pair was compared
_PAIR_FIELDS = frozenset({"group_pair", "dtr", "dir", "dtr_se", "dir_se"})


def _json_fields(record) -> dict:
    """``record``'s fields as JSON values, in declaration order.

    An array or tuple becomes a list, and a tuple of group records a dict
    keyed by each record's label, the label left out of the record.  The
    pair's fields appear only when a pair was compared; any other field
    left None is omitted.  The analytic and the simulated reports, and the
    items and bias of the CLI's problem, are written by this one rule.
    """
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if f.name in _PAIR_FIELDS:
            if record.group_pair is None:
                continue
        elif value is None or f.name == "label":
            continue
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            records = all(map(is_dataclass, value))
            value = {g.label: _json_fields(g) for g in value} if records else list(value)
        out[f.name] = value
    return out


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
