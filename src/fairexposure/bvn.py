"""Decomposition of doubly stochastic matrices into permutation mixtures.

Birkhoff's theorem says every doubly stochastic matrix is a convex
combination of permutation matrices, and at most (N-1)^2 + 1 of them are
needed.  ``decompose`` extracts terms greedily: find a perfect matching
(scipy's compiled Hopcroft-Karp) on the entries still above tolerance,
peel off the minimum matched entry as the term weight, and repeat.
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

from .core import TOLERANCE, MatrixLike, as_matrix, permutation_matrix, stochastic_violation

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
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        r = np.asarray(self.ranking, dtype=int).copy()
        if r.ndim != 1 or not np.array_equal(np.sort(r), np.arange(r.size)):
            raise ValueError(f"not a permutation of 0..{r.size - 1}: {self.ranking}")
        r.flags.writeable = False
        object.__setattr__(self, "ranking", r)
        object.__setattr__(self, "theta", float(self.theta))

    def matrix(self) -> np.ndarray:
        return permutation_matrix(self.ranking)


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
        if not self.terms:
            raise ValueError("a decomposition needs at least one term")
        n = self.terms[0].ranking.size
        if any(t.ranking.size != n for t in self.terms):
            raise ValueError("terms have inconsistent ranking lengths")
        if len(self.terms) > term_bound(n):
            raise ValueError(
                f"{len(self.terms)} terms exceed the bound {term_bound(n)} for n={n}"
            )
        keys = {tuple(t.ranking.tolist()) for t in self.terms}
        if len(keys) != len(self.terms):
            raise ValueError("the same permutation appears in more than one term")
        bound = _residual_bound(n)
        if not 0.0 <= self.residual <= bound:
            raise ValueError(f"residual must lie in [0, {bound:.3g}], got {self.residual}")
        total = float(sum(t.theta for t in self.terms))
        if abs(total + self.residual - 1.0) > TOLERANCE:
            raise ValueError(
                f"term weights sum to {total} with residual {self.residual}; "
                f"expected 1 within {TOLERANCE:g}"
            )
        object.__setattr__(self, "terms", tuple(self.terms))

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


def _perfect_matching(mask: np.ndarray) -> np.ndarray | None:
    """Maximum matching of the bipartite graph ``mask`` (rows x columns).

    Uses scipy's compiled Hopcroft-Karp matcher, so it needs no recursion
    and scales to large ``n``.  Which perfect matching comes back is up to
    that matcher; any one gives a valid extraction step.  Returns
    row_of_col, or None when no perfect matching exists.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    n = mask.shape[0]
    rows, cols = np.nonzero(mask)
    indptr = np.zeros(n + 1, dtype=rows.dtype)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    graph = csr_array((np.ones(cols.size, dtype=bool), cols, indptr), shape=(n, n))
    row_of_col = maximum_bipartite_matching(graph, perm_type="row")
    if np.any(row_of_col < 0):
        return None
    return row_of_col


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
    m = as_matrix(P).astype(float, copy=True)
    n = m.shape[0]
    violation = stochastic_violation(m)
    if violation > TOLERANCE:
        raise ValueError(
            f"matrix is not doubly stochastic within {TOLERANCE:g} "
            f"(worst deviation {violation:.3e})"
        )

    cols = np.arange(n)
    thetas: list[float] = []
    rankings: list[np.ndarray] = []
    # n^2 * cut <= 1/2: the entries below the cut hold under half a line
    cut = min(_MATCHING_TOLERANCE, 0.5 / n**2)
    capped = False
    while True:
        lines = np.concatenate((m.sum(axis=1), m.sum(axis=0)))
        smallest, largest = float(lines.min()), float(lines.max())
        # a capped step zeroes no entry, so the support argument in the
        # module docstring no longer bounds the steps after it
        if capped or smallest < _MATCHING_TOLERANCE:
            break
        # Hall's condition survives the cut on an exact input; an input off
        # by up to TOLERANCE may run out of matchings (see _residual_bound)
        row_of_col = _perfect_matching(m > cut * largest)
        if row_of_col is None:
            break
        low = float(m[row_of_col, cols].min())
        # with negative entries, matched entries can outweigh their lines
        theta = min(low, smallest, 1.0)
        m[row_of_col, cols] -= theta
        thetas.append(theta)
        rankings.append(row_of_col)
        capped = theta < low
    residual = max(largest, 0.0)

    order = sorted(range(len(thetas)), key=lambda k: (-thetas[k], rankings[k].tolist()))
    terms = tuple(BvnTerm(theta=thetas[k], ranking=rankings[k]) for k in order)
    return BvnDecomposition(terms=terms, residual=residual)


def reconstruct(decomposition: BvnDecomposition, n: int | None = None) -> np.ndarray:
    """Dense matrix ``sum(theta_i * Pi_i)`` of a decomposition."""
    size = decomposition.n
    if n is not None and n != size:
        raise ValueError(f"decomposition is over {size} items, not {n}")
    out = np.zeros((size, size))
    cols = np.arange(size)
    for term in decomposition.terms:
        out[term.ranking, cols] += term.theta
    return out
