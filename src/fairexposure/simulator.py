"""Monte-Carlo validation of the in-expectation fairness guarantees.

Each simulated user receives a ranking sampled from the decomposition,
examines each position independently with the position-bias probability,
and clicks an examined item with probability equal to its utility.  The
empirical exposure and clickthrough statistics converge to the analytic
values implied by the underlying matrix, which is exactly the guarantee
the probabilistic ranking makes.

Position biases above 1 (the top log-discount weights) are rescaled by
1/max(v) so they are valid coin probabilities; the scale is recorded in
the report.  Ratios (DTR/DIR) are unaffected by the common scale.

Randomness is counter-based: users are processed in fixed-size chunks
and chunk c draws from an independent stream keyed by (seed, c), so
results are reproducible for a given seed no matter how chunks would be
scheduled, and two same-seed runs are bit-identical.  Within a chunk
each user consumes one fixed block of draws: the term pick, then one
examination coin per position, then one click coin per position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox

from .bvn import BvnDecomposition
from .core import RankingProblem
from .sampler import cumulative_weights

__all__ = ["GroupSimulation", "SimulationReport", "simulate"]

_CHUNK = 16384


@dataclass(frozen=True)
class GroupSimulation:
    """Per-group empirical means with standard errors."""

    label: str
    exposure: float
    exposure_se: float
    ctr: float
    ctr_se: float


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Empirical counterpart of the analytic metrics.

    ``item_exposure[i]`` is the fraction of users who examined item i;
    ``item_ctr[i]`` the fraction who clicked it.  ``dtr``/``dir`` compare
    ``group_pair`` and are None when a denominator vanished (no utility
    or no exposure/clicks to normalize by).
    """

    n_users: int
    seed: int
    scale: float
    item_exposure: np.ndarray
    item_exposure_se: np.ndarray
    item_ctr: np.ndarray
    groups: tuple[GroupSimulation, ...]
    group_pair: Optional[tuple[str, str]]
    dtr: Optional[float]
    dtr_se: Optional[float]
    dir: Optional[float]
    dir_se: Optional[float]
    total_clicks: int

    def group(self, label: str) -> GroupSimulation:
        for gs in self.groups:
            if gs.label == label:
                return gs
        raise ValueError(f"no simulation results for group {label!r}")

    def to_dict(self) -> dict:
        out: dict = {
            "n_users": self.n_users,
            "seed": self.seed,
            "scale": self.scale,
            "item_exposure": self.item_exposure.tolist(),
            "item_exposure_se": self.item_exposure_se.tolist(),
            "item_ctr": self.item_ctr.tolist(),
            "groups": {
                gs.label: {
                    "exposure": gs.exposure,
                    "exposure_se": gs.exposure_se,
                    "ctr": gs.ctr,
                    "ctr_se": gs.ctr_se,
                }
                for gs in self.groups
            },
            "total_clicks": self.total_clicks,
        }
        if self.group_pair is not None:
            out["group_pair"] = list(self.group_pair)
            out["dtr"] = self.dtr
            out["dtr_se"] = self.dtr_se
            out["dir"] = self.dir
            out["dir_se"] = self.dir_se
        return out


class _Moments:
    """Running sums of a per-user value and of its square."""

    def __init__(self) -> None:
        self.s = self.ss = 0.0

    def add(self, x: np.ndarray) -> None:
        self.s += float(x.sum())
        self.ss += float((x * x).sum())

    def mean_and_se(self, n: int) -> tuple[float, float]:
        mean = self.s / n
        var = max(self.ss / n - mean**2, 0.0)
        return mean, float(np.sqrt(var / n))


def _ratio_with_se(
    a: _Moments, b: _Moments, cross: float, n: int, norm0: float, norm1: float
) -> tuple[Optional[float], Optional[float]]:
    """Delta-method estimate of (mean_a/norm0)/(mean_b/norm1).

    ``cross`` is the running sum of the per-user products of a and b.
    """
    if norm0 <= 0.0 or norm1 <= 0.0:
        return None, None
    m0 = a.s / n
    m1 = b.s / n
    if m1 == 0.0 or m0 == 0.0:
        return None, None
    ratio = (m0 / norm0) / (m1 / norm1)
    if n < 2:
        return ratio, None
    var0 = max(a.ss / n - m0 * m0, 0.0) / n
    var1 = max(b.ss / n - m1 * m1, 0.0) / n
    cov = (cross / n - m0 * m1) / n
    rel_var = var0 / m0**2 + var1 / m1**2 - 2.0 * cov / (m0 * m1)
    se = abs(ratio) * float(np.sqrt(max(rel_var, 0.0)))
    return ratio, se


def simulate(
    decomposition: BvnDecomposition,
    problem: RankingProblem,
    n_users: int,
    seed: int,
    group_pair: Optional[tuple[str, str]] = None,
) -> SimulationReport:
    """Simulate ``n_users`` examine-then-click sessions.

    When ``group_pair`` is omitted and the problem has exactly two groups
    they are compared in first-appearance order.
    """
    n = problem.n
    if decomposition.n != n:
        raise ValueError(
            f"decomposition is over {decomposition.n} items, problem has {n}"
        )
    if n_users < 1:
        raise ValueError(f"n_users must be at least 1, got {n_users}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")

    labels = problem.group_labels
    group_pair = problem.group_pair_or_default(group_pair)
    if group_pair is not None:
        for label in group_pair:
            problem.group_indices(label)

    u = problem.utilities
    v = problem.bias.astype(float)
    vmax = float(v.max())
    scale = 1.0 / vmax if vmax > 1.0 else 1.0
    v_prob = v * scale

    cum = cumulative_weights(decomposition)
    rankings = [t.ranking for t in decomposition.terms]
    inverses = []
    for ranking in rankings:
        inv = np.empty(n, dtype=int)
        inv[ranking] = np.arange(n)
        inverses.append(inv)

    group_idx = {label: problem.group_indices(label) for label in labels}
    exam_counts = np.zeros(n)
    click_counts = np.zeros(n)
    exposure_moments = {label: _Moments() for label in labels}
    click_moments = {label: _Moments() for label in labels}
    exposure_cross = click_cross = 0.0

    draws_per_user = 2 * n + 1
    n_chunks = (n_users + _CHUNK - 1) // _CHUNK
    for chunk in range(n_chunks):
        count = min(_CHUNK, n_users - chunk * _CHUNK)
        rng = Generator(Philox(key=np.array([seed, chunk], dtype=np.uint64)))
        block = rng.random((count, draws_per_user))
        term_of_user = np.searchsorted(cum, block[:, 0], side="left")
        exam_draw = block[:, 1 : n + 1]
        click_draw = block[:, n + 1 :]

        for k in range(len(rankings)):
            users = np.flatnonzero(term_of_user == k)
            if users.size == 0:
                continue
            ranking, inv = rankings[k], inverses[k]
            examined = exam_draw[users] < v_prob  # (users, position)
            clicked = examined & (click_draw[users] < u[ranking])
            exam_counts[ranking] += examined.sum(axis=0)
            click_counts[ranking] += clicked.sum(axis=0)

            per_group_x = {}
            per_group_y = {}
            for label, idx in group_idx.items():
                x = examined[:, inv[idx]].mean(axis=1)
                y = clicked[:, inv[idx]].mean(axis=1)
                per_group_x[label] = x
                per_group_y[label] = y
                exposure_moments[label].add(x)
                click_moments[label].add(y)
            if group_pair is not None:
                g0, g1 = group_pair
                exposure_cross += float((per_group_x[g0] * per_group_x[g1]).sum())
                click_cross += float((per_group_y[g0] * per_group_y[g1]).sum())

    item_exposure = exam_counts / n_users
    item_ctr = click_counts / n_users
    item_exposure_se = np.sqrt(item_exposure * (1.0 - item_exposure) / n_users)

    groups = []
    for label in labels:
        exposure, exposure_se = exposure_moments[label].mean_and_se(n_users)
        ctr, ctr_se = click_moments[label].mean_and_se(n_users)
        groups.append(GroupSimulation(label, exposure, exposure_se, ctr, ctr_se))

    dtr_value = dtr_se = dir_value = dir_se = None
    if group_pair is not None:
        g0, g1 = group_pair
        norm0 = float(u[group_idx[g0]].mean())
        norm1 = float(u[group_idx[g1]].mean())
        dtr_value, dtr_se = _ratio_with_se(
            exposure_moments[g0], exposure_moments[g1], exposure_cross, n_users, norm0, norm1
        )
        dir_value, dir_se = _ratio_with_se(
            click_moments[g0], click_moments[g1], click_cross, n_users, norm0, norm1
        )

    return SimulationReport(
        n_users=n_users,
        seed=seed,
        scale=scale,
        item_exposure=item_exposure,
        item_exposure_se=item_exposure_se,
        item_ctr=item_ctr,
        groups=tuple(groups),
        group_pair=group_pair,
        dtr=dtr_value,
        dtr_se=dtr_se,
        dir=dir_value,
        dir_se=dir_se,
        total_clicks=int(click_counts.sum()),
    )
