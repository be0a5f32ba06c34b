"""Domain types and the utility/exposure algebra for probabilistic rankings.

A ranking problem is a set of items, each with a utility in [0, 1] and a
group label, together with a position-bias vector ``v`` whose j-th entry is
the attention (examination probability) received at rank j.  A probabilistic
ranking is summarized by its marginal rank-probability matrix ``P``, which is
doubly stochastic: ``P[i, j]`` is the probability that item ``i`` is shown at
rank ``j``.  Expected utility is the bilinear form ``u @ P @ v`` and the
exposure of item ``i`` is ``P[i, :] @ v``.

Rankings are represented throughout as arrays of item indices ordered by
rank: ``ranking[j]`` is the item shown at rank ``j`` (0-indexed storage;
formulas use 1-indexed ranks, converted only inside
:func:`position_bias_vector`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Item",
    "PositionBias",
    "RankingProblem",
    "DoublyStochasticMatrix",
    "position_bias_vector",
    "permutation_matrix",
    "prp_ranking",
    "utility",
    "exposure",
    "group_exposure",
    "stochastic_violation",
]

#: How close to doubly stochastic is close enough, for every layer: the
#: matrix type, the LP certificate, decomposition input and weights, the
#: cost-of-fairness floor and the CLI's ``satisfied`` flag.
TOLERANCE = 1e-6

_LOG_BASES = {"natural": math.e, "e": math.e, "2": 2.0, 2: 2.0, 2.0: 2.0}


def _resolve_base(base: Union[str, float]) -> float:
    try:
        return _LOG_BASES[base]
    except (KeyError, TypeError):
        raise ValueError(
            f"unsupported log base {base!r}: expected 'natural'/'e' or 2"
        ) from None


@dataclass(frozen=True)
class Item:
    """One rankable item: an identifier, a group label, and a utility."""

    id: str
    group: str
    utility: float

    def __post_init__(self) -> None:
        if not (isinstance(self.utility, (int, float)) and math.isfinite(self.utility)):
            raise ValueError(f"utility of item {self.id!r} must be a finite number")
        if not 0.0 <= self.utility <= 1.0:
            raise ValueError(
                f"utility of item {self.id!r} must lie in [0, 1], got {self.utility}"
            )


def position_bias_vector(
    n: int,
    kind: str = "log-discount",
    base: Union[str, float] = "natural",
    k: int | None = None,
) -> np.ndarray:
    """Return the position-bias vector ``v`` of length ``n``.

    ``kind="log-discount"`` gives ``v[j] = 1 / log_base(1 + j)`` with ranks
    1-indexed; ``kind="dcg@k"`` additionally zeroes all entries beyond rank
    ``k``.  The default base is the natural logarithm (base 2 selectable).
    """
    if n < 1:
        raise ValueError(f"ranking length must be positive, got {n}")
    b = _resolve_base(base)
    ranks = np.arange(1, n + 1, dtype=float)
    v = 1.0 / (np.log(1.0 + ranks) / math.log(b))
    if kind == "log-discount":
        return v
    if kind == "dcg@k":
        if k is None or not 1 <= k <= n:
            raise ValueError(f"cutoff k must satisfy 1 <= k <= {n}, got {k}")
        v[k:] = 0.0
        return v
    raise ValueError(f"unknown position-bias kind {kind!r}")


@dataclass(frozen=True, eq=False)
class PositionBias:
    """A validated attention-per-rank vector, non-increasing in rank."""

    kind: str
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("position bias must be a non-empty vector")
        if np.any(np.diff(v) > 0):
            raise ValueError("position bias must be non-increasing in rank")
        if np.any(v < 0):
            raise ValueError("position bias entries must be non-negative")
        if self.kind == "log-discount" and np.any(v <= 0):
            raise ValueError("log-discount bias entries must be strictly positive")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    @classmethod
    def log_discount(cls, n: int, base: Union[str, float] = "natural") -> "PositionBias":
        return cls("log-discount", position_bias_vector(n, "log-discount", base))

    @classmethod
    def dcg_at_k(cls, n: int, k: int, base: Union[str, float] = "natural") -> "PositionBias":
        return cls("dcg@k", position_bias_vector(n, "dcg@k", base, k=k))

    @classmethod
    def explicit(cls, values: Sequence[float]) -> "PositionBias":
        return cls("explicit", np.asarray(values, dtype=float))


@dataclass(frozen=True, eq=False)
class RankingProblem:
    """Items plus a position-bias vector of matching length."""

    items: tuple[Item, ...]
    position_bias: PositionBias

    def __post_init__(self) -> None:
        items = tuple(self.items)
        if not items:
            raise ValueError("a ranking problem needs at least one item")
        if len(items) != len(self.position_bias):
            raise ValueError(
                f"{len(items)} items but position bias of length "
                f"{len(self.position_bias)}"
            )
        ids = [item.id for item in items]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate item ids: {dupes}")
        object.__setattr__(self, "items", items)

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def utilities(self) -> np.ndarray:
        return np.array([item.utility for item in self.items])

    @property
    def bias(self) -> np.ndarray:
        return self.position_bias.values

    @property
    def group_labels(self) -> tuple[str, ...]:
        """Distinct group labels in order of first appearance."""
        seen: dict[str, None] = {}
        for item in self.items:
            seen.setdefault(item.group, None)
        return tuple(seen)

    def group_indices(self, group: str) -> np.ndarray:
        """Indices of the items carrying ``group`` as their label."""
        idx = np.array(
            [i for i, item in enumerate(self.items) if item.group == group], dtype=int
        )
        if idx.size == 0:
            raise ValueError(f"group {group!r} has no items")
        return idx

    def positive_mean_utility(self, group: str, quantity: str) -> float:
        """Mean utility of ``group``, for a ``quantity`` that divides by it.

        Raises when the mean is zero, since ``quantity`` is then undefined.
        """
        mean = float(self.utilities[self.group_indices(group)].mean())
        if mean <= 0.0:
            raise ValueError(f"{quantity} is undefined: group {group!r} has zero mean utility")
        return mean

    def group_pair_or_default(
        self, group_pair: Optional[tuple[str, str]]
    ) -> Optional[tuple[str, str]]:
        """``group_pair``, else the two groups when there are exactly two."""
        labels = self.group_labels
        if group_pair is None and len(labels) == 2:
            return labels[0], labels[1]
        return group_pair


def stochastic_violation(matrix: np.ndarray) -> float:
    """Largest deviation of ``matrix`` from the doubly stochastic conditions.

    Covers row sums, column sums, negativity, and entries above one; a true
    doubly stochastic matrix scores exactly 0, one with a NaN entry infinity.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        return math.inf
    return max(
        float(np.abs(m.sum(axis=1) - 1.0).max()),
        float(np.abs(m.sum(axis=0) - 1.0).max()),
        float(max(0.0, -m.min())),
        float(max(0.0, m.max() - 1.0)),
    )


@dataclass(frozen=True, eq=False)
class DoublyStochasticMatrix:
    """An N x N marginal rank-probability matrix, certified within TOLERANCE."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=float)
        violation = stochastic_violation(m)
        if violation > TOLERANCE:
            raise ValueError(
                f"matrix is not doubly stochastic within {TOLERANCE:g} "
                f"(max violation {violation:.3e})"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def max_violation(self) -> float:
        return stochastic_violation(self.entries)

    @classmethod
    def from_ranking(cls, ranking: Sequence[int]) -> "DoublyStochasticMatrix":
        """The deterministic matrix placing ``ranking[j]`` at rank ``j``."""
        return cls(permutation_matrix(ranking))

    @classmethod
    def uniform(cls, n: int) -> "DoublyStochasticMatrix":
        return cls(np.full((n, n), 1.0 / n))


MatrixLike = Union[np.ndarray, DoublyStochasticMatrix]


def as_matrix(P: MatrixLike) -> np.ndarray:
    """Coerce a matrix argument to a plain ndarray."""
    if isinstance(P, DoublyStochasticMatrix):
        return P.entries
    return np.asarray(P, dtype=float)


def permutation_matrix(ranking: Sequence[int]) -> np.ndarray:
    """Matrix form of a ranking: entry (ranking[j], j) is 1."""
    r = np.asarray(ranking, dtype=int)
    n = r.size
    if not np.array_equal(np.sort(r), np.arange(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {list(r)}")
    m = np.zeros((n, n))
    m[r, np.arange(n)] = 1.0
    return m


def prp_ranking(problem: RankingProblem) -> np.ndarray:
    """Utility-descending ranking (ties broken by input order).

    This is the deterministic utility-maximizing ranking for any position
    bias that decreases with rank.
    """
    return np.argsort(-problem.utilities, kind="stable")


def _check_dimensions(P: np.ndarray, n: int) -> None:
    if P.shape != (n, n):
        raise ValueError(f"matrix shape {P.shape} does not match problem size {n}")


def utility(P: MatrixLike, problem: RankingProblem) -> float:
    """Expected utility ``u @ P @ v`` of the probabilistic ranking ``P``."""
    m = as_matrix(P)
    _check_dimensions(m, problem.n)
    return float(problem.utilities @ m @ problem.bias)


def exposure(P: MatrixLike, v: np.ndarray, item_index: int) -> float:
    """Expected attention received by one item: ``P[i, :] @ v``."""
    m = as_matrix(P)
    v = np.asarray(v, dtype=float)
    if m.shape[1] != v.size:
        raise ValueError(f"matrix shape {m.shape} does not match bias length {v.size}")
    return float(m[item_index] @ v)


def group_exposure(P: MatrixLike, v: np.ndarray, indices: Iterable[int]) -> float:
    """Average exposure over a non-empty set of item indices."""
    idx = np.asarray(list(indices), dtype=int)
    if idx.size == 0:
        raise ValueError("group exposure of an empty group is undefined")
    m = as_matrix(P)
    v = np.asarray(v, dtype=float)
    if m.shape[1] != v.size:
        raise ValueError(f"matrix shape {m.shape} does not match bias length {v.size}")
    return float(np.mean(m[idx] @ v))
