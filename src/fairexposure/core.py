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
:class:`PositionBias`'s factories).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "Item",
    "PositionBias",
    "RankingProblem",
    "DoublyStochasticMatrix",
    "permutation_matrix",
    "prp_ranking",
    "utility",
    "stochastic_violation",
]

#: How close to doubly stochastic is close enough, for every layer: the
#: matrix type, the LP certificate, decomposition input and weights, the
#: cost-of-fairness floor and the CLI's ``satisfied`` flag.
TOLERANCE = 1e-6

_LOG_BASES = {"natural": math.e, "e": math.e, 2.0: 2.0}


def _resolve_base(base: Union[str, float]) -> float:
    """The log base ``base`` names: 'natural' or 'e', or 2 in any numeric spelling."""
    if isinstance(base, str) and base not in _LOG_BASES:
        try:
            base = float(base)
        except ValueError:
            pass
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
        if not (isinstance(self.id, str) and isinstance(self.group, str)):
            raise ValueError(f"item id and group must be strings, got {self.id!r}, {self.group!r}")
        if not (_is_number(self.utility) and 0.0 <= self.utility <= 1.0):
            raise ValueError(
                f"utility of item {self.id!r} must be a number in [0, 1], got {self.utility!r}"
            )


def _log_discount(n: int, base: Union[str, float]) -> np.ndarray:
    """``v[j] = 1 / log_base(1 + j)`` over the 1-indexed ranks of ``n`` positions."""
    if n < 1:
        raise ValueError(f"ranking length must be positive, got {n}")
    b = _resolve_base(base)
    ranks = np.arange(1, n + 1, dtype=float)
    return 1.0 / (np.log(1.0 + ranks) / math.log(b))


@dataclass(frozen=True, eq=False)
class PositionBias:
    """A validated attention-per-rank vector, non-increasing in rank."""

    kind: str
    values: np.ndarray

    def __post_init__(self) -> None:
        v = _as_reals(self.values, "position bias")
        if v.ndim != 1 or v.size < 1:
            raise ValueError("position bias must be a non-empty vector")
        # NaN fails every comparison below, and inf - inf is NaN
        if not np.isfinite(v).all():
            raise ValueError("position bias entries must be finite numbers")
        if np.any(np.diff(v) > 0):
            raise ValueError("position bias must be non-increasing in rank")
        if np.any(v < 0):
            raise ValueError("position bias entries must be non-negative")
        if self.kind == "log-discount" and np.any(v <= 0):
            raise ValueError("log-discount bias entries must be strictly positive")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    @classmethod
    def log_discount(cls, n: int, base: Union[str, float] = "natural") -> "PositionBias":
        """``v[j] = 1 / log_base(1 + j)`` with ranks 1-indexed (natural log by default)."""
        return cls("log-discount", _log_discount(n, base))

    @classmethod
    def dcg_at_k(cls, n: int, k: int, base: Union[str, float] = "natural") -> "PositionBias":
        """The log discount with every entry beyond rank ``k`` zeroed."""
        v = _log_discount(n, base)
        if not 1 <= k <= n:
            raise ValueError(f"cutoff k must satisfy 1 <= k <= {n}, got {k}")
        v[k:] = 0.0
        return cls("dcg@k", v)

    @classmethod
    def explicit(cls, values: Sequence[float]) -> "PositionBias":
        return cls("explicit", values)


@dataclass(frozen=True, eq=False)
class RankingProblem:
    """Items plus a position-bias vector of matching length.

    The groups are fixed at construction: each label maps to the read-only
    indices of its items, labels in order of first appearance.
    """

    items: tuple[Item, ...]
    position_bias: PositionBias
    _groups: dict = field(init=False, repr=False)

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
        groups: dict = {}
        for i, item in enumerate(items):
            groups.setdefault(item.group, []).append(i)
        for label, members in groups.items():
            groups[label] = np.array(members, dtype=int)
            groups[label].flags.writeable = False
        object.__setattr__(self, "_groups", groups)

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
        return tuple(self._groups)

    def group_indices(self, group: str) -> np.ndarray:
        """Indices of the items carrying ``group`` as their label (read-only)."""
        try:
            return self._groups[group]
        except (KeyError, TypeError):
            raise ValueError(f"group {group!r} has no items") from None

    def group_pair(
        self, pair: Optional[tuple[str, str]] = None
    ) -> Optional[tuple[str, str]]:
        """The group pair every layer compares: ``pair``, checked, or the default.

        The default is the two groups of a two-group problem, in order of
        first appearance, and None for any other group count.  A given pair
        must name two different groups that both have items.
        """
        if pair is None:
            labels = self.group_labels
            return (labels[0], labels[1]) if len(labels) == 2 else None
        a, b = pair
        if a == b:
            raise ValueError(f"the two groups must differ, both are {a!r}")
        self.group_indices(a)
        self.group_indices(b)
        return a, b


def stochastic_violation(matrix: np.ndarray) -> float:
    """Largest deviation of ``matrix`` from the doubly stochastic conditions.

    Covers row sums, column sums, negativity, and entries above one; a true
    doubly stochastic matrix scores exactly 0, one with a NaN entry infinity.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        return math.inf
    return max(
        float(np.abs(m.sum(axis=1) - 1.0).max()),
        float(np.abs(m.sum(axis=0) - 1.0).max()),
        float(max(0.0, -m.min())),
        float(max(0.0, m.max() - 1.0)),
    )


def _certify(matrix: np.ndarray) -> None:
    """Raise unless ``matrix`` is doubly stochastic within TOLERANCE."""
    violation = stochastic_violation(matrix)
    if violation > TOLERANCE:
        raise ValueError(
            f"matrix is not doubly stochastic within {TOLERANCE:g} "
            f"(max violation {violation:.3e})"
        )


@dataclass(frozen=True, eq=False)
class DoublyStochasticMatrix:
    """An N x N marginal rank-probability matrix, certified within TOLERANCE."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = _as_reals(self.entries, "matrix")
        _certify(m)
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def uniform(cls, n: int) -> "DoublyStochasticMatrix":
        return cls(np.full((n, n), 1.0 / n))


MatrixLike = Union[np.ndarray, DoublyStochasticMatrix]


def as_matrix(P: MatrixLike) -> np.ndarray:
    """Coerce a matrix argument to a plain ndarray."""
    if isinstance(P, DoublyStochasticMatrix):
        return P.entries
    return np.asarray(P, dtype=float)


def _is_int(x) -> bool:
    """The one integer rule for counts and seeds: an int or numpy integer, never a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """The one number rule for real values: an int or float (numpy's too), never a bool or str."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _as_reals(values, what: str) -> np.ndarray:
    """``values`` as a new float array whose every entry obeys the number rule."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values.astype(float)
    entries = np.array(values, dtype=object)  # each entry keeps its own type
    if not all(map(_is_number, entries.reshape(-1))):
        raise ValueError(f"{what} entries must be numbers")
    try:
        return entries.astype(float)
    except OverflowError:
        raise ValueError(f"{what} entries must be finite numbers") from None


def as_ranking(ranking: Sequence[int]) -> np.ndarray:
    """``ranking`` as a new int array, checked to permute 0..n-1.

    Entries must already be integers: a float or bool is an error, never
    truncated to an index.
    """
    r = np.asarray(ranking)
    if r.dtype.kind not in "iu":
        raise ValueError(f"ranking entries must be integers, got {r.tolist()}")
    r = r.astype(int)
    if r.ndim != 1 or not (np.sort(r) == np.arange(r.size)).all():
        raise ValueError(f"not a permutation of 0..{r.size - 1}: {r.tolist()}")
    return r


def permutation_matrix(ranking: Sequence[int]) -> np.ndarray:
    """Matrix form of a ranking: entry (ranking[j], j) is 1."""
    r = as_ranking(ranking)
    n = r.size
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
