"""Sampling concrete rankings from a permutation mixture.

``sample_indices`` draws terms at random with probability proportional to
their weights.  ``sample_for_user`` replaces the random draw with a hash
of the user's identity, so the same user always sees the same ranking
while the population as a whole still realizes the mixture weights.
Both, and the simulator, map a fraction in [0, 1] to a term by the same
inverse-CDF lookup, exactly ``np.searchsorted(cumulative_weights, t,
side="left")``.  A batch of fractions starts at a guide table (Chen &
Asau, 1974) cached on the decomposition and steps past the few
boundaries left; one fraction bisects the cumulative weights as Python
floats.

The user hash is pinned for cross-platform reproducibility: FNV-1a
(64-bit, offset basis 0xcbf29ce484222325, prime 0x100000001b3) over the
key bytes, finalized by the splitmix64 mixing function
(z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27; z *= 0x94D049BB133111EB;
z ^= z>>31), divided by 2^64 to land in [0, 1]: the top 2^10 hashes
round to 1.0, the top of the lookup's range.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Union

import numpy as np

from .bvn import BvnDecomposition
from .core import _is_int

__all__ = ["hash_user_key", "sample_indices", "sample_for_user"]

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

RngLike = Union[np.random.Generator, int, None]


def hash_user_key(key: Union[str, bytes, bytearray]) -> int:
    """64-bit hash of a user key under the pinned algorithm above.

    A str key hashes as its UTF-8 bytes; any other type is a TypeError
    (``bytes(n)`` would read an int as n zero bytes).
    """
    if isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, (bytes, bytearray)):
        data = key
    else:
        raise TypeError(f"a user key must be str, bytes or bytearray, got {type(key).__name__}")
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _MASK64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


def _term_index(decomposition: BvnDecomposition, t: Union[float, np.ndarray]):
    """Inverse-CDF lookup of the term owning each fraction in ``t``, in [0, 1].

    A fraction landing exactly on a cumulative boundary resolves to the
    lower index, and 1.0 to the last term: the result is exactly
    ``np.searchsorted(decomposition.cumulative_weights, t, side="left")``.
    A float bisects the cumulative weights as Python floats; an array
    starts each fraction at its guide-table entry and steps forward while
    the term's cumulative weight is still below the fraction.
    """
    if isinstance(t, float):
        return bisect_left(decomposition._cumulative_tuple, t)
    cum = decomposition.cumulative_weights
    guide = decomposition._term_guide
    index = guide[(t * (guide.size - 1)).astype(np.intp)]
    behind = np.flatnonzero(cum[index] < t)
    while behind.size:
        index[behind] += 1
        behind = behind[cum[index[behind]] < t[behind]]
    return index


def sample_indices(
    decomposition: BvnDecomposition, count: int, rng: RngLike = None
) -> np.ndarray:
    """Draw ``count`` term indices from one stream (vectorized)."""
    if not _is_int(count) or count < 0:
        raise ValueError(f"count must be a non-negative integer, got {count!r}")
    return _term_index(decomposition, np.random.default_rng(rng).random(count))


def sample_for_user(
    decomposition: BvnDecomposition, user_key: Union[str, bytes, bytearray]
) -> np.ndarray:
    """Deterministic ranking for one user: same key, same ranking, always."""
    index = _term_index(decomposition, hash_user_key(user_key) / 2.0**64)
    return decomposition.terms[index].ranking
