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

Randomness is counter-based: users are processed in chunks of a fixed
16384 users, and chunk c draws from an independent Philox stream keyed
by (seed, c).  The fixed chunk size defines the streams, so a seed gives
the same bits on every run and platform.  Within a chunk each user
consumes one fixed block of draws: the term pick, then one examination
coin per position, then one click coin per position.

The draws are the stream's raw 64-bit words shifted right by 11: the
53-bit integer k that ``Generator.random`` would turn into the float
``k * 2**-53``.  A coin of probability p lands when that float is below
p, which holds exactly when ``k < ceil(p * 2**53)`` (scaling by a power
of two is exact), so the coins compare integers with integer thresholds
and flip exactly as the float comparison would.  Only the term pick
becomes the float ``k * 2**-53``.

Each chunk is simulated in one pass over all of its users.  Every user's
examination and click events are computed at once, the click threshold
taken from the per-term table ``u[rankings]``.  A stable sort by term
makes each term's users one contiguous span, in ascending user order.
Per span, the 0/1 events times the term's position -> group one-hot give
each user's exact integer group counts, and the span's column sums give
the per-position counts, scattered to items with the rankings.

Summation order is part of the contract, since it decides the last bits
of every report.  Counts are integers, so their order is free.  The
per-user statistics (each group's exposure x and clickthrough y, their
squares and the pair's cross products) are the rows of one
(statistic, user) array.  Each term's span is summed with one
``np.add.reduce`` along the rows' contiguous axis, which rounds every row
as a 1-D reduce over that row's span would, and the sums are added to
the running totals in term order.  ``count / |G|`` rounds exactly like a
mean over the group's positions.  So the reports are bit-identical to a
per-term loop over users; a reduce across rows, over several spans at
once, or by ``reduceat`` would change them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import Philox

from .bvn import BvnDecomposition
from .core import RankingProblem, _is_int
from .metrics import _utility_ratio
from .sampler import _term_index

__all__ = ["GroupSimulation", "SimulationReport", "simulate"]

_CHUNK = 16384
# multiply-adds in one events x one-hot product: small enough that BLAS
# keeps it on the calling thread, where waking worker threads for every
# product of a large span would cost more than the product
_PRODUCT_SIZE = 1 << 16


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


def _mean_and_se(s: float, ss: float, n: int) -> tuple[float, float]:
    """Mean and standard error from the sums of a per-user value and its square."""
    mean = s / n
    var = max(ss / n - mean**2, 0.0)
    return mean, float(np.sqrt(var / n))


def _ratio_with_se(
    a: tuple[float, float],
    b: tuple[float, float],
    cross: float,
    n: int,
    norm0: float,
    norm1: float,
) -> tuple[Optional[float], Optional[float]]:
    """Delta-method estimate of (mean_a/norm0)/(mean_b/norm1).

    ``a`` and ``b`` are the sums of the per-user values and of their
    squares; ``cross`` is the sum of the per-user products of a and b.
    The ratio is None where ``evaluate``'s would be undefined.
    """
    m0 = a[0] / n
    m1 = b[0] / n
    ratio = _utility_ratio(m0, norm0, m1, norm1)
    if ratio is None:
        return None, None
    if n < 2:
        return ratio, None
    var0 = max(a[1] / n - m0 * m0, 0.0) / n
    var1 = max(b[1] / n - m1 * m1, 0.0) / n
    cov = (cross / n - m0 * m1) / n
    rel_var = var0 / m0**2 + var1 / m1**2 - 2.0 * cov / (m0 * m1)
    se = abs(ratio) * float(np.sqrt(max(rel_var, 0.0)))
    return ratio, se


def _coin_threshold(p: np.ndarray) -> np.ndarray:
    """The bound under which a 53-bit draw k lands a coin of probability p.

    The float draw is ``k * 2**-53``, and ``k * 2**-53 < p`` holds exactly
    when ``k < ceil(p * 2**53)``: scaling by a power of two is exact.
    """
    return np.ceil(p * 2.0**53).astype(np.uint64)


def simulate(
    decomposition: BvnDecomposition,
    problem: RankingProblem,
    n_users: int,
    seed: int,
    group_pair: Optional[tuple[str, str]] = None,
) -> SimulationReport:
    """Simulate ``n_users`` examine-then-click sessions.

    ``group_pair`` is settled by :meth:`RankingProblem.group_pair`.
    """
    n = problem.n
    if decomposition.n != n:
        raise ValueError(
            f"decomposition is over {decomposition.n} items, problem has {n}"
        )
    if not _is_int(n_users) or n_users < 1:
        raise ValueError(f"n_users must be an integer of at least 1, got {n_users!r}")
    if not _is_int(seed) or not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")

    labels = problem.group_labels
    group_pair = problem.group_pair(group_pair)

    u = problem.utilities
    v = problem.bias.astype(float)
    vmax = float(v.max())
    scale = 1.0 / vmax if vmax > 1.0 else 1.0
    v_prob = v * scale

    rankings = np.stack([t.ranking for t in decomposition.terms])
    n_terms = len(rankings)
    exam_threshold = _coin_threshold(v_prob)
    click_threshold = _coin_threshold(u[rankings])  # (term, position)
    group_idx = {label: problem.group_indices(label) for label in labels}
    n_groups = len(labels)
    # |G| per row of group means: exposure rows, then clickthrough rows
    sizes = np.tile([float(group_idx[label].size) for label in labels], 2)
    item_group = np.empty(n, dtype=np.intp)
    for g, label in enumerate(labels):
        item_group[group_idx[label]] = g
    position_group = item_group[rankings]  # (term, position)
    group_one_hot = np.eye(n_groups, dtype=np.float32)
    pair = None if group_pair is None else [labels.index(g) for g in group_pair]
    block_rows = max(1, _PRODUCT_SIZE // (n * n_groups))
    term_key = np.min_scalar_type(n_terms - 1)

    exam_counts = np.zeros(n)
    click_counts = np.zeros(n)
    # rows of the per-user statistics: the group means x (exposure) and
    # y (clickthrough), then their squares, then the pair's two products
    n_stats = 4 * n_groups + (0 if pair is None else 2)
    totals = np.zeros(n_stats)

    draws_per_user = 2 * n + 1
    n_chunks = (n_users + _CHUNK - 1) // _CHUNK
    for chunk in range(n_chunks):
        count = min(_CHUNK, n_users - chunk * _CHUNK)
        stream = Philox(key=np.array([seed, chunk], dtype=np.uint64))
        words = stream.random_raw((count, draws_per_user))
        np.right_shift(words, 11, out=words)  # the 53 bits Generator.random keeps
        term_of_user = _term_index(decomposition, words[:, 0] * 2.0**-53)
        events = np.empty((count, 2, n), dtype=bool)  # (user, exam/click, position)
        np.less(words[:, 1 : n + 1], exam_threshold, out=events[:, 0])
        thresholds = np.take(click_threshold, term_of_user, axis=0)
        np.less(words[:, n + 1 :], thresholds, out=events[:, 1])
        events[:, 1] &= events[:, 0]
        del words, thresholds

        # each term's users become one contiguous span, in ascending order;
        # a narrow key lets the stable sort run as a radix sort
        order = np.argsort(term_of_user.astype(term_key), kind="stable")
        flags = np.take(events, order, axis=0).astype(np.float32)
        del events
        edges = np.searchsorted(term_of_user[order], np.arange(n_terms + 1))
        present = np.flatnonzero(edges[1:] > edges[:-1])
        spans = list(zip(edges[present].tolist(), edges[present + 1].tolist()))
        # exact 0/1 counts per (term, position), scattered to the items
        position_counts = np.add.reduceat(flags.reshape(count, 2 * n), edges[present], axis=0)
        shown = rankings[present].ravel()
        exam_counts += np.bincount(shown, position_counts[:, :n].ravel(), minlength=n)
        click_counts += np.bincount(shown, position_counts[:, n:].ravel(), minlength=n)

        # exact group counts of every user: its 0/1 events times the term's
        # one-hot, the span cut into products of at most _PRODUCT_SIZE
        rows = flags.reshape(2 * count, n)  # exam row, then click row, per user
        counts = np.empty((2 * count, n_groups), dtype=np.float32)
        for k, (lo, hi) in zip(present.tolist(), spans):
            one_hot = group_one_hot[position_group[k]]  # (position, group)
            for start in range(2 * lo, 2 * hi, block_rows):
                stop = min(start + block_rows, 2 * hi)
                np.matmul(rows[start:stop], one_hot, out=counts[start:stop])

        # x_g = count / |G| rounds like a mean over the group's positions
        stats = np.empty((n_stats, count))
        means, squares = stats[: 2 * n_groups], stats[2 * n_groups : 4 * n_groups]
        np.true_divide(counts.reshape(count, 2 * n_groups).T, sizes[:, None], out=means)
        np.multiply(means, means, out=squares)
        if pair is not None:
            np.multiply(means[pair[0] :: n_groups], means[pair[1] :: n_groups], out=stats[-2:])
        # row by row, a reduce along the contiguous axis rounds like a 1-D one
        for lo, hi in spans:
            totals += np.add.reduce(stats[:, lo:hi], axis=1)
        # free the chunk before the next one draws, so its arrays reuse
        # these pages instead of faulting in new ones
        del term_of_user, order, flags, rows, position_counts, counts, stats, means, squares

    item_exposure = exam_counts / n_users
    item_ctr = click_counts / n_users
    item_exposure_se = np.sqrt(item_exposure * (1.0 - item_exposure) / n_users)

    sums = totals.tolist()
    exposure_sums = {label: (sums[g], sums[2 * n_groups + g]) for g, label in enumerate(labels)}
    click_sums = {
        label: (sums[n_groups + g], sums[3 * n_groups + g]) for g, label in enumerate(labels)
    }
    groups = []
    for label in labels:
        exposure, exposure_se = _mean_and_se(*exposure_sums[label], n_users)
        ctr, ctr_se = _mean_and_se(*click_sums[label], n_users)
        groups.append(GroupSimulation(label, exposure, exposure_se, ctr, ctr_se))

    dtr_value = dtr_se = dir_value = dir_se = None
    if group_pair is not None:
        g0, g1 = group_pair
        norm0 = float(u[group_idx[g0]].mean())
        norm1 = float(u[group_idx[g1]].mean())
        dtr_value, dtr_se = _ratio_with_se(
            exposure_sums[g0], exposure_sums[g1], sums[-2], n_users, norm0, norm1
        )
        dir_value, dir_se = _ratio_with_se(
            click_sums[g0], click_sums[g1], sums[-1], n_users, norm0, norm1
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
