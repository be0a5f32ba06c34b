"""Decomposition of doubly stochastic matrices into permutation mixtures.

Birkhoff's theorem says every doubly stochastic matrix is a convex
combination of permutation matrices, and at most (N-1)^2 + 1 of them are
needed.  ``decompose`` extracts terms greedily: find a perfect matching
(scipy's compiled Hopcroft-Karp) on the entries still above tolerance,
peel off the minimum matched entry as the term weight, and repeat.  One
sparse graph serves every step; each step refills its index arrays from
the flat positions of the entries above the cut, and reads and updates
the matched entries through their flat positions too.
Every matrix within ``core.TOLERANCE`` of doubly stochastic decomposes;
what extraction leaves behind is reported as the residual.

The loop stays within the term bound by itself.  Entries only decrease,
so the support S (the entries > 0) only shrinks, and every matching lies
inside S.  A step whose weight is its smallest matched entry sets that
entry to exactly 0: an edge of a perfect matching leaves S, so the face
of the Birkhoff polytope that S spans becomes a proper subface.  That
face starts at dimension <= (N-1)^2, so the loop finds at most
(N-1)^2 + 1 matchings, and no matching repeats.  A step whose weight is
capped below its smallest matched entry (by the lightest line, or by 1
on an input whose lines all exceed 1) zeroes nothing, so it is the last
step, and what it leaves is the residual.

A decomposition is the sampleable form of a probabilistic ranking: draw
term i with probability theta_i and show its ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import TOLERANCE, MatrixLike, _certify, _is_number, as_matrix, as_ranking

__all__ = ["BvnTerm", "BvnDecomposition", "decompose", "reconstruct", "term_bound"]

# extraction stops once some row or column keeps less than this mass
_MATCHING_TOLERANCE = 1e-7


def term_bound(n: int) -> int:
    """Maximum number of terms any decomposition may need."""
    return (n - 1) ** 2 + 1


def _residual_bound(n: int) -> float:
    """Largest residual ``decompose`` leaves on a certified n x n input.

    Terms take their weight from every line, so line masses keep their
    initial spread of at most 2 * TOLERANCE.  With no perfect matching
    left, at most n - 1 lines cover every entry above the cut (König); the
    n + 1 others meet only below it, and every entry is >= -TOLERANCE.
    """
    return _MATCHING_TOLERANCE + 2 * (n + 1) ** 2 * TOLERANCE


@dataclass(frozen=True, eq=False)
class BvnTerm:
    """One mixture component: weight ``theta`` and the ranking it shows.

    ``ranking[j]`` is the item placed at rank j.
    """

    theta: float
    ranking: np.ndarray

    def __post_init__(self) -> None:
        if not (_is_number(self.theta) and 0.0 < self.theta <= 1.0):
            raise ValueError(f"theta must be a number in (0, 1], got {self.theta!r}")
        r = as_ranking(self.ranking)
        r.flags.writeable = False
        object.__setattr__(self, "ranking", r)
        object.__setattr__(self, "theta", float(self.theta))

    @classmethod
    def _trusted(cls, theta: float, ranking: np.ndarray) -> "BvnTerm":
        """A term from a read-only int permutation ``decompose`` found, unchecked."""
        term = object.__new__(cls)
        object.__setattr__(term, "theta", theta)
        object.__setattr__(term, "ranking", ranking)
        return term


@dataclass(frozen=True, eq=False)
class BvnDecomposition:
    """Convex combination of permutation matrices.

    ``residual`` is the largest row or column mass the extraction left
    behind.  The weights plus the residual make up that line's original
    mass, so they must sum to 1 within ``TOLERANCE``, and the residual may
    not exceed what ``decompose`` can leave on a certified input.
    """

    terms: tuple[BvnTerm, ...]
    residual: float = 0.0

    def __post_init__(self) -> None:
        if self.terms:
            n = self.terms[0].ranking.size
            if any(t.ranking.size != n for t in self.terms):
                raise ValueError("terms have inconsistent ranking lengths")
            keys = {tuple(t.ranking.tolist()) for t in self.terms}
            if len(keys) != len(self.terms):
                raise ValueError("the same permutation appears in more than one term")
        object.__setattr__(self, "terms", tuple(self.terms))
        self._check_totals()
        object.__setattr__(self, "residual", float(self.residual))

    @classmethod
    def _trusted(cls, terms: tuple[BvnTerm, ...], residual: float) -> "BvnDecomposition":
        """A decomposition of distinct, same-length terms, as ``decompose`` builds them.

        Only the term count, the residual and the total weight are checked.
        """
        decomposition = object.__new__(cls)
        object.__setattr__(decomposition, "terms", terms)
        object.__setattr__(decomposition, "residual", residual)
        decomposition._check_totals()
        return decomposition

    def _check_totals(self) -> None:
        if not self.terms:
            raise ValueError("a decomposition needs at least one term")
        n = self.n
        if len(self.terms) > term_bound(n):
            raise ValueError(
                f"{len(self.terms)} terms exceed the bound {term_bound(n)} for n={n}"
            )
        bound = _residual_bound(n)
        if not (_is_number(self.residual) and 0.0 <= self.residual <= bound):
            raise ValueError(
                f"residual must be a number in [0, {bound:.3g}], got {self.residual!r}"
            )
        total = float(sum(t.theta for t in self.terms))
        if abs(total + self.residual - 1.0) > TOLERANCE:
            raise ValueError(
                f"term weights sum to {total} with residual {self.residual}; "
                f"expected 1 within {TOLERANCE:g}"
            )

    @property
    def n(self) -> int:
        return self.terms[0].ranking.size

    @property
    def thetas(self) -> np.ndarray:
        return np.array([t.theta for t in self.terms])

    @cached_property
    def cumulative_weights(self) -> np.ndarray:
        """Normalized running sum of the term weights, ending at exactly 1."""
        thetas = self.thetas
        cum = np.cumsum(thetas / thetas.sum())
        cum[-1] = 1.0  # guard against accumulated rounding at the top end
        cum.flags.writeable = False
        return cum

    @cached_property
    def _cumulative_tuple(self) -> tuple[float, ...]:
        """``cumulative_weights`` as Python floats, for a scalar ``bisect``."""
        return tuple(self.cumulative_weights.tolist())

    @cached_property
    def _term_guide(self) -> np.ndarray:
        """Guide table (Chen & Asau, 1974) over ``cumulative_weights``.

        With ``size = len(guide) - 1``, a power of two at least four times
        the term count, ``guide[b]`` is the first term whose cumulative
        weight reaches ``b / size``.  A fraction t in [0, 1] starts its
        search at ``guide[floor(t * size)]`` (``t * size`` is exact, size
        being a power of two); for a uniform t, the expected number of
        boundaries left to step past is at most terms / size <= 1/4.
        """
        size = 1 << (4 * len(self.terms) - 1).bit_length()
        guide = np.searchsorted(self.cumulative_weights, np.arange(size + 1) / size, side="left")
        guide.flags.writeable = False
        return guide


def decompose(P: MatrixLike) -> BvnDecomposition:
    """Decompose ``P`` into a convex combination of permutation matrices.

    Every matrix doubly stochastic within ``TOLERANCE`` decomposes into
    at most ``term_bound(n)`` distinct permutations; what extraction
    leaves (under 1e-7 on an exact input) is the residual.  Each step
    takes its smallest matched entry as the weight, capped by the
    lightest line and by 1; a capped step ends the extraction.  Terms
    come back sorted by weight descending (ties broken by ranking,
    lexicographically).
    """
    m = np.array(as_matrix(P), dtype=float, order="C")  # a fresh copy
    n = m.shape[0]
    _certify(m)

    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    flat = m.ravel()  # a view, since m is C-ordered whatever the input
    lines = np.empty(2 * n)  # row sums, then column sums
    cols = np.arange(n)
    row_starts = np.arange(0, n * n + 1, n)
    # one graph for every step: only its index arrays change
    graph = csr_array((n, n), dtype=bool)
    thetas: list[float] = []
    rankings: list[np.ndarray] = []
    # n^2 * cut <= 1/2: the entries below the cut hold under half a line
    cut = min(_MATCHING_TOLERANCE, 0.5 / n**2)
    capped = False
    while True:
        m.sum(axis=1, out=lines[:n])
        m.sum(axis=0, out=lines[n:])
        smallest, largest = float(lines.min()), float(lines.max())
        # a capped step zeroes no entry, so the support argument in the
        # module docstring no longer bounds the steps after it
        if capped or smallest < _MATCHING_TOLERANCE:
            break
        # Hall's condition survives the cut on an exact input; an input off
        # by up to TOLERANCE may run out of matchings (see _residual_bound)
        keep = (flat > cut * largest).nonzero()[0]  # row-major flat indices
        # int32, the index type the compiled matcher takes
        graph.indices = (keep % n).astype(np.int32)
        graph.indptr = np.searchsorted(keep, row_starts).astype(np.int32)
        graph.data = np.ones(keep.size, dtype=bool)
        # scipy's compiled Hopcroft-Karp: no recursion, so any n works;
        # which perfect matching it returns is up to the matcher
        row_of_col = maximum_bipartite_matching(graph, perm_type="row")
        if row_of_col.min() < 0:
            break
        at = row_of_col * n + cols
        low = float(flat[at].min())
        # with negative entries, matched entries can outweigh their lines
        theta = min(low, smallest, 1.0)
        flat[at] -= theta
        thetas.append(theta)
        rankings.append(row_of_col)
        capped = theta < low
    residual = max(largest, 0.0)

    # every matching is a permutation and none repeats (module docstring),
    # so the terms skip the public per-term checks
    table = np.array(rankings, dtype=int)
    table.flags.writeable = False
    # weight descending, then ranking ascending, lexicographically
    order = np.lexsort(tuple(table.T[::-1]) + (-np.array(thetas),))
    terms = tuple(BvnTerm._trusted(thetas[k], table[k]) for k in order.tolist())
    return BvnDecomposition._trusted(terms, residual)


def reconstruct(decomposition: BvnDecomposition) -> np.ndarray:
    """Dense matrix ``sum(theta_i * Pi_i)`` of a decomposition."""
    size = decomposition.n
    out = np.zeros((size, size))
    cols = np.arange(size)
    for term in decomposition.terms:
        out[term.ranking, cols] += term.theta
    return out
