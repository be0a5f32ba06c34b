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
consumes a fixed run of 2N + 1 draws: the term pick, then one
examination coin per position, then one click coin per position.

The draws are the stream's raw 64-bit words shifted right by 11: the
53-bit integer k that ``Generator.random`` would turn into the float
``k * 2**-53``.  A coin of probability p lands when that float is below
p, which holds exactly when ``k < ceil(p * 2**53)`` (scaling by a power
of two is exact), so the coins compare integers with integer thresholds
and flip exactly as the float comparison would.  Only the term pick
becomes the float ``k * 2**-53``.

Each chunk is simulated in blocks of users whose raw words fit
``_BLOCK_WORDS`` (2**19 words, 4 MB).  Every block draws its words from
the chunk's one Philox object, which continues the stream word for word,
so the block size never enters the bits.  Within a block every user's
examination and click events are computed at once, the click threshold
taken from the per-term table ``u[rankings]``.  A stable sort by term
makes each term's users one contiguous span, in ascending user order.
Per span, one product of the 0/1 events and the term's position -> group
one-hot gives each user's exact integer group counts, and the span's
column sums give the per-position counts, scattered to items with the
rankings.  A chunk keeps only each user's term and group counts, so the
working set is one block's plus O(groups) per user of the chunk: it
grows with the number of groups, not with the number of items.  A whole chunk's words, coins
and events would take about 25 bytes per user per item (122 MB at
N=300); with blocks, 20 000 users on 3 groups peak at about 7 MB
(``tracemalloc``) at N=300 and at N=1000 alike.

Summation order is part of the contract, since it decides the last bits
of every report.  Counts are integers, exact in float32 and float64 under
any grouping, so their order, and the blocks, are free.  The per-user
statistics are the rows of one (statistic, user) array, built after the
chunk's last block from all of its users stable-sorted by term, so each
term's span holds the chunk's users of that term in ascending order
whatever the block size.  Each span is
summed with one ``np.add.reduce`` along the rows' contiguous axis, which
rounds every row as a 1-D reduce over that row's span would, and the
sums are added to the running totals in term order.  ``count / |G|``
rounds exactly like a mean over the group's positions.  So the reports
are bit-identical to a per-term loop over users; a reduce across rows,
over several spans at once, or by ``reduceat`` would change them.

The statistics and the running ``totals`` share one row layout, which the
report reads: each group's exposure x, then each group's clickthrough y,
then x², then y², in group order, and with a group pair its products
x0·x1 and y0·y1, so 4G or 4G + 2 rows for G groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bvn import BvnDecomposition
from .core import RankingProblem, _is_int
from .metrics import _json_fields, _utility_ratio

__all__ = ["GroupSimulation", "SimulationReport", "simulate"]

_CHUNK = 16384
# raw words drawn at once (4 MB): a chunk is simulated in blocks of users
# whose words fit this budget, so memory does not grow with the item count
_BLOCK_WORDS = 2**19
# raw words one call may draw, n_users * (2N + 1): at the 44-117 M words/s
# measured across N = 6..300 this is a few minutes, so no call runs unbounded
_MAX_WORDS = 2**34


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
    or no exposure/clicks to normalize by) or the ratio is beyond the
    float range; ``dtr_se``/``dir_se`` are None beyond it too.
    """

    n_users: int
    seed: int
    scale: float
    item_exposure: np.ndarray
    item_exposure_se: np.ndarray
    item_ctr: np.ndarray
    groups: tuple[GroupSimulation, ...]
    total_clicks: int
    group_pair: Optional[tuple[str, str]]
    dtr: Optional[float]
    dtr_se: Optional[float]
    dir: Optional[float]
    dir_se: Optional[float]

    def group(self, label: str) -> GroupSimulation:
        for gs in self.groups:
            if gs.label == label:
                return gs
        raise ValueError(f"no simulation results for group {label!r}")

    def to_dict(self) -> dict:
        return _json_fields(self)


def _ratio_with_se(
    means: list[float],
    variances: list[float],
    cross: float,
    n: int,
    norm0: float,
    norm1: float,
) -> tuple[Optional[float], Optional[float]]:
    """Delta-method estimate of (means[0]/norm0)/(means[1]/norm1).

    ``means`` and ``variances`` are the two groups' means and the variances
    of those means; ``cross`` is the sum of the per-user products of the
    two.  The ratio is None where ``evaluate``'s would be undefined, the
    standard error None where it is beyond the float range.
    """
    m0, m1 = means
    ratio = _utility_ratio(m0, norm0, m1, norm1)
    if ratio is None:
        return None, None
    if n < 2:
        return ratio, None
    var0, var1 = variances
    cov = (cross / n - m0 * m1) / n
    rel_var = var0 / m0**2 + var1 / m1**2 - 2.0 * cov / (m0 * m1)
    se = abs(ratio) * float(np.sqrt(max(rel_var, 0.0)))
    return ratio, se if math.isfinite(se) else None


def _coin_threshold(p: np.ndarray) -> np.ndarray:
    """The bound under which a 53-bit draw k lands a coin of probability p.

    The float draw is ``k * 2**-53``, and ``k * 2**-53 < p`` holds exactly
    when ``k < ceil(p * 2**53)``: scaling by a power of two is exact.
    """
    return np.ceil(p * 2.0**53).astype(np.uint64)


def _term_spans(terms: np.ndarray, n_terms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms present in the sorted ``terms``, and where each one's span starts and stops."""
    edges = np.searchsorted(terms, np.arange(n_terms + 1))
    present = np.flatnonzero(edges[1:] > edges[:-1])
    return present, edges[present], edges[present + 1]


def simulate(
    decomposition: BvnDecomposition,
    problem: RankingProblem,
    n_users: int,
    seed: int,
    group_pair: Optional[tuple[str, str]] = None,
) -> SimulationReport:
    """Simulate ``n_users`` examine-then-click sessions.

    ``group_pair`` is settled by :meth:`RankingProblem.group_pair`.  A call
    may draw at most ``_MAX_WORDS`` (2**34) random words, 2N + 1 per user.
    """
    n = problem.n
    if decomposition.n != n:
        raise ValueError(
            f"decomposition is over {decomposition.n} items, problem has {n}"
        )
    if not _is_int(n_users) or n_users < 1:
        raise ValueError(f"n_users must be an integer of at least 1, got {n_users!r}")
    draws_per_user = 2 * n + 1
    if n_users > _MAX_WORDS // draws_per_user:
        raise ValueError(
            f"n_users may be at most {_MAX_WORDS // draws_per_user} for {n} items, "
            f"so that a call draws at most {_MAX_WORDS} random words; got {n_users}"
        )
    if not _is_int(seed) or not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")

    labels = problem.group_labels
    group_pair = problem.group_pair(group_pair)
    from numpy.random import Philox

    u = problem.utilities
    vmax = float(problem.bias.max())
    scale = 1.0 / vmax if vmax > 1.0 else 1.0

    rankings = np.stack([t.ranking for t in decomposition.terms])
    n_terms = len(rankings)
    exam_threshold = _coin_threshold(problem.bias * scale)
    click_threshold = _coin_threshold(u[rankings])  # (term, position)
    n_groups = len(labels)
    # |G| per row of group means: exposure rows, then clickthrough rows
    sizes = np.tile(np.bincount(problem.item_group).astype(float), 2)
    position_group = problem.item_group[rankings]  # (term, position)
    group_one_hot = np.eye(n_groups, dtype=np.float32)
    pair = None if group_pair is None else [labels.index(g) for g in group_pair]
    term_key = np.min_scalar_type(n_terms - 1)

    exam_counts = np.zeros(n)
    click_counts = np.zeros(n)
    # the rows of the module docstring: x, y, x², y², the pair's products
    n_stats = 4 * n_groups + (0 if pair is None else 2)
    totals = np.zeros(n_stats)

    block = max(1, _BLOCK_WORDS // draws_per_user)
    n_chunks = (n_users + _CHUNK - 1) // _CHUNK
    for chunk in range(n_chunks):
        count = min(_CHUNK, n_users - chunk * _CHUNK)
        stream = Philox(key=np.array([seed, chunk], dtype=np.uint64))
        # each block's users in term order: their terms and exact group
        # counts (exam counts, then click counts, one column per group)
        block_terms = np.empty(count, dtype=term_key)
        counts = np.empty((count, 2 * n_groups), dtype=np.float32)
        for lo in range(0, count, block):
            m = min(block, count - lo)
            # the chunk's stream continues word for word across blocks
            words = stream.random_raw((m, draws_per_user))
            np.right_shift(words, 11, out=words)  # the 53 bits Generator.random keeps
            term_of_user = decomposition.term_index(words[:, 0] * 2.0**-53)
            events = np.empty((m, 2, n), dtype=bool)  # (user, exam/click, position)
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
            block_terms[lo : lo + m] = term_of_user[order]
            present, starts, stops = _term_spans(block_terms[lo : lo + m], n_terms)
            # exact 0/1 counts per (term, position), scattered to the items
            position_counts = np.add.reduceat(flags.reshape(m, 2 * n), starts, axis=0)
            shown = rankings[present].ravel()
            exam_counts += np.bincount(shown, position_counts[:, :n].ravel(), minlength=n)
            click_counts += np.bincount(shown, position_counts[:, n:].ravel(), minlength=n)

            # exact group counts of every user: one product per term span, its
            # users' 0/1 events times the term's position -> group one-hot
            rows = flags.reshape(2 * m, n)  # exam row, then click row, per user
            out = counts[lo : lo + m].reshape(2 * m, n_groups)
            one_hots = group_one_hot[position_group[present]]  # (term, position, group)
            for one_hot, start, stop in zip(one_hots, starts.tolist(), stops.tolist()):
                span = slice(2 * start, 2 * stop)
                np.dot(rows[span], one_hot, out=out[span])
            # free the block before the next one draws, so its arrays reuse
            # these pages instead of faulting in new ones
            del flags, rows, position_counts, one_hots

        # the blocks are in user order and each is in term order, so a stable
        # sort by term puts the chunk in term order, each span in user order
        order = np.argsort(block_terms, kind="stable")
        _, starts, stops = _term_spans(block_terms[order], n_terms)

        # x_g = count / |G| rounds like a mean over the group's positions
        stats = np.empty((n_stats, count))
        means, squares = stats[: 2 * n_groups], stats[2 * n_groups : 4 * n_groups]
        np.true_divide(np.take(counts, order, axis=0).T, sizes[:, None], out=means)
        np.multiply(means, means, out=squares)
        if pair is not None:
            np.multiply(means[pair[0] :: n_groups], means[pair[1] :: n_groups], out=stats[-2:])
        # row by row, a reduce along the contiguous axis rounds like a 1-D one
        for start, stop in zip(starts.tolist(), stops.tolist()):
            totals += np.add.reduce(stats[:, start:stop], axis=1)
        # likewise free the chunk before the next one draws
        del block_terms, counts, order, stats, means, squares

    item_exposure = exam_counts / n_users
    item_ctr = click_counts / n_users
    item_exposure_se = np.sqrt(item_exposure * (1.0 - item_exposure) / n_users)

    # each group's mean and the variance of that mean, exposure rows then clickthrough rows
    means = totals[: 2 * n_groups] / n_users
    squares = totals[2 * n_groups : 4 * n_groups] / n_users
    variances = np.maximum(squares - means * means, 0.0) / n_users
    exposure, ctr = means.reshape(2, n_groups).tolist()
    exposure_se, ctr_se = np.sqrt(variances).reshape(2, n_groups).tolist()
    groups = tuple(map(GroupSimulation, labels, exposure, exposure_se, ctr, ctr_se))

    dtr_value = dtr_se = dir_value = dir_se = None
    if pair is not None:
        norm0, norm1 = (float(u[problem.group_indices(g)].mean()) for g in group_pair)
        # the exposure rows, then the clickthrough rows, each with the pair's product
        (dtr_value, dtr_se), (dir_value, dir_se) = (
            _ratio_with_se(
                means[rows].tolist(), variances[rows].tolist(), cross, n_users, norm0, norm1
            )
            for rows, cross in zip((pair, [g + n_groups for g in pair]), totals[-2:].tolist())
        )

    return SimulationReport(
        n_users=int(n_users),
        seed=int(seed),
        scale=scale,
        item_exposure=item_exposure,
        item_exposure_se=item_exposure_se,
        item_ctr=item_ctr,
        groups=tuple(groups),
        total_clicks=int(click_counts.sum()),
        group_pair=group_pair,
        dtr=dtr_value,
        dtr_se=dtr_se,
        dir=dir_value,
        dir_se=dir_se,
    )
