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
from collections import Counter
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
        if not self.id:
            raise ValueError("empty item id")
        for name, value in (("id", self.id), ("group", self.group)):
            if value != value.strip():  # the items CSV strips every field
                raise ValueError(f"item {name} {value!r} has leading or trailing whitespace")
        if not (_is_number(self.utility) and 0.0 <= self.utility <= 1.0):
            raise ValueError(
                f"utility of item {self.id!r} must be a number in [0, 1], got {self.utility!r}"
            )
        # a Python float, whose repr the items CSV reads back and which json writes
        object.__setattr__(self, "utility", float(self.utility))


def _log_discount(n: int, base: Union[str, float]) -> np.ndarray:
    """``v[j] = 1 / log_base(1 + j)`` over the 1-indexed ranks of ``n`` positions."""
    if not _is_int(n):
        raise ValueError(f"ranking length n must be an integer, got {n!r}")
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
        if not isinstance(self.kind, str):
            raise ValueError(f"position bias kind must be a string, got {self.kind!r}")
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
        if not _is_int(k):
            raise ValueError(f"cutoff k must be an integer, got {k!r}")
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

    The item arrays are fixed at construction and read-only: ``utilities``,
    ``item_group`` (each item's group code, labels coded 0, 1, ... in order
    of first appearance) and each label's item indices.
    """

    items: tuple[Item, ...]
    position_bias: PositionBias
    utilities: np.ndarray = field(init=False, repr=False)
    item_group: np.ndarray = field(init=False, repr=False)
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
            dupes = sorted(i for i, count in Counter(ids).items() if count > 1)
            raise ValueError(f"duplicate item ids: {dupes}")
        codes: dict = {}  # label -> code, in order of first appearance
        item_group = np.array([codes.setdefault(it.group, len(codes)) for it in items], np.intp)
        utilities = np.array([item.utility for item in items])
        # one stable sort lists each group's indices in item order, read-only views
        members = np.argsort(item_group, kind="stable")
        for array in (item_group, utilities, members):
            array.flags.writeable = False
        bounds = np.cumsum(np.bincount(item_group))[:-1]
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "utilities", utilities)
        object.__setattr__(self, "item_group", item_group)
        object.__setattr__(self, "_groups", dict(zip(codes, np.split(members, bounds))))

    @property
    def n(self) -> int:
        return len(self.items)

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
    doubly stochastic matrix scores exactly 0, one with a NaN entry or a
    line sum beyond the float range infinity.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    # NaN, inf or ±1e308 entries make a line sum non-finite, and NaN > TOLERANCE is false
    with np.errstate(over="ignore", invalid="ignore"):
        rows, cols = m.sum(axis=1), m.sum(axis=0)
    if not (np.isfinite(rows).all() and np.isfinite(cols).all()):
        return math.inf
    return max(
        float(np.abs(rows - 1.0).max()),
        float(np.abs(cols - 1.0).max()),
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

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The entries, so numpy reads the matrix like any array; a copy is writable."""
        return np.array(self.entries, dtype=dtype, copy=copy)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def uniform(cls, n: int) -> "DoublyStochasticMatrix":
        return cls(np.full((n, n), 1.0 / n))


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

    Entries must already be integers: a float, a bool or a list among the
    entries is an error, never truncated or read as an index.
    """
    try:
        r = np.asarray(ranking)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ValueError(f"ranking entries must be integers, got {ranking!r}") from None
    if r.dtype.kind not in "iu":
        # integers that numpy holds as objects or floats lie beyond 64 bits
        if r.ndim == 1 and r.size and all(_is_int(x) for x in ranking):
            raise ValueError(f"not a permutation of 0..{r.size - 1}: {list(ranking)}")
        raise ValueError(f"ranking entries must be integers, got {r.tolist()}")
    # numpy reads a sequence's bools as integers, [0, True] as [0, 1]
    if r.ndim == 1 and not isinstance(ranking, np.ndarray) and not all(map(_is_int, ranking)):
        raise ValueError(f"ranking entries must be integers, got {list(ranking)}")
    # checked before the cast, which would wrap a uint64 entry past 2**63
    if r.ndim != 1 or sorted(r.tolist()) != list(range(r.size)):
        raise ValueError(f"not a permutation of 0..{r.size - 1}: {r.tolist()}")
    return r.astype(int)


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


def utility(P, problem: RankingProblem) -> float:
    """Expected utility ``u @ P @ v`` of the probabilistic ranking ``P``."""
    m = np.asarray(P, dtype=float)
    if m.shape != (problem.n, problem.n):
        raise ValueError(f"matrix shape {m.shape} does not match problem size {problem.n}")
    return float(problem.utilities @ m @ problem.bias)
