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
term i with probability theta_i and show its ranking.  ``decompose``
builds its terms and result with the public constructors, so they pass
the checks a lottery read from JSON passes.
``BvnDecomposition.term_index`` is the one inverse-CDF lookup from a
fraction in [0, 1] to a term, used by the sampler and the simulator; its
caches (the cumulative weights as Python floats, and a guide table) live
on the decomposition and are read nowhere else.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .core import TOLERANCE, _certify, _is_number, as_ranking

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
        r.setflags(write=False)  # half the cost of flags.writeable, once per term
        object.__setattr__(self, "ranking", r)
        object.__setattr__(self, "theta", float(self.theta))


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
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a decomposition needs at least one term")
        n = terms[0].ranking.size
        if any(t.ranking.size != n for t in terms):
            raise ValueError("terms have inconsistent ranking lengths")
        if len({tuple(t.ranking.tolist()) for t in terms}) != len(terms):
            raise ValueError("the same permutation appears in more than one term")
        if len(terms) > term_bound(n):
            raise ValueError(f"{len(terms)} terms exceed the bound {term_bound(n)} for n={n}")
        bound = _residual_bound(n)
        if not (_is_number(self.residual) and 0.0 <= self.residual <= bound):
            raise ValueError(
                f"residual must be a number in [0, {bound:.3g}], got {self.residual!r}"
            )
        total = float(sum(t.theta for t in terms))
        if abs(total + self.residual - 1.0) > TOLERANCE:
            raise ValueError(
                f"term weights sum to {total} with residual {self.residual}; "
                f"expected 1 within {TOLERANCE:g}"
            )
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "residual", float(self.residual))

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

    def term_index(self, t: Union[float, np.ndarray]):
        """Inverse-CDF lookup of the term owning each fraction in ``t``, in [0, 1].

        A fraction landing exactly on a cumulative boundary resolves to the
        lower index, and 1.0 to the last term: the result is exactly
        ``np.searchsorted(self.cumulative_weights, t, side="left")``.
        A float bisects the cumulative weights as Python floats; an array
        starts each fraction at its guide-table entry and steps forward while
        the term's cumulative weight is still below the fraction.
        """
        if isinstance(t, float):
            return bisect_left(self._cumulative_tuple, t)
        cum = self.cumulative_weights
        guide = self._term_guide
        index = guide[(t * (guide.size - 1)).astype(np.intp)]
        behind = np.flatnonzero(cum[index] < t)
        while behind.size:
            index[behind] += 1
            behind = behind[cum[index[behind]] < t[behind]]
        return index


def decompose(P) -> BvnDecomposition:
    """Decompose ``P`` into a convex combination of permutation matrices.

    Every matrix doubly stochastic within ``TOLERANCE`` decomposes into
    at most ``term_bound(n)`` distinct permutations; what extraction
    leaves (under 1e-7 on an exact input) is the residual.  Each step
    takes its smallest matched entry as the weight, capped by the
    lightest line and by 1; a capped step ends the extraction.  Terms
    come back sorted by weight descending (ties broken by ranking,
    lexicographically).
    """
    m = np.array(P, dtype=float, order="C")  # a fresh copy
    n = m.shape[0]
    _certify(m)

    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    flat = m.ravel()  # a view, since m is C-ordered whatever the input
    lines = np.empty(2 * n)  # row sums, then column sums
    cols = np.arange(n)  # intp: an int32 index would cost a cast per gather
    row_starts = np.arange(0, n * n + 1, n)
    # int32, the index type the compiled matcher takes
    col_of = np.tile(np.arange(n, dtype=np.int32), n)  # column of each flat index
    edges = np.ones(n * n, dtype=bool)  # each step's edge data is a prefix
    # one graph for every step: only its index arrays change
    graph = csr_array((n, n), dtype=bool)
    thetas: list[float] = []
    rankings: list[np.ndarray] = []
    # n^2 * cut <= 1/2: the entries below the cut hold under half a line
    cut = min(_MATCHING_TOLERANCE, 0.5 / n**2)
    capped = False
    # the ufuncs' own reduce skips the ndarray.sum/min/max wrappers
    while True:
        np.add.reduce(m, axis=1, out=lines[:n])
        np.add.reduce(m, axis=0, out=lines[n:])
        smallest, largest = float(np.minimum.reduce(lines)), float(np.maximum.reduce(lines))
        # a capped step zeroes no entry, so the support argument in the
        # module docstring no longer bounds the steps after it
        if capped or smallest < _MATCHING_TOLERANCE:
            break
        # Hall's condition survives the cut on an exact input; an input off
        # by up to TOLERANCE may run out of matchings (see _residual_bound)
        keep = (flat > cut * largest).nonzero()[0]  # row-major flat indices
        graph.indices = col_of[keep]
        graph.indptr = keep.searchsorted(row_starts).astype(np.int32)
        graph.data = edges[: keep.size]
        # scipy's compiled Hopcroft-Karp: no recursion, so any n works;
        # which perfect matching it returns is up to the matcher
        row_of_col = maximum_bipartite_matching(graph, perm_type="row")
        if np.minimum.reduce(row_of_col) < 0:
            break
        at = row_of_col * n + cols
        matched = flat[at]
        low = float(np.minimum.reduce(matched))
        # with negative entries, matched entries can outweigh their lines
        theta = min(low, smallest, 1.0)
        flat[at] = matched - theta
        thetas.append(theta)
        rankings.append(row_of_col)
        capped = theta < low

    # weight descending, then ranking ascending, lexicographically
    order = np.lexsort(tuple(np.array(rankings).T[::-1]) + (-np.array(thetas),))
    # the public checks, and the copy of each int32 matching to an int ranking
    terms = tuple(BvnTerm(thetas[k], rankings[k]) for k in order.tolist())
    return BvnDecomposition(terms, max(largest, 0.0))  # the residual


def reconstruct(decomposition: BvnDecomposition) -> np.ndarray:
    """Dense matrix ``sum(theta_i * Pi_i)`` of a decomposition."""
    size = decomposition.n
    out = np.zeros((size, size))
    cols = np.arange(size)
    for term in decomposition.terms:
        out[term.ranking, cols] += term.theta
    return out
