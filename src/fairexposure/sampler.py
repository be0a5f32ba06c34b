"""Sampling concrete rankings from a permutation mixture.

``sample`` draws a term at random with probability proportional to its
weight.  ``sample_for_user`` replaces the random draw with a hash of the
user's identity, so the same user always sees the same ranking while the
population as a whole still realizes the mixture weights.

The user hash is pinned for cross-platform reproducibility: FNV-1a
(64-bit, offset basis 0xcbf29ce484222325, prime 0x100000001b3) over the
key bytes, finalized by the splitmix64 mixing function
(z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27; z *= 0x94D049BB133111EB;
z ^= z>>31), divided by 2^64 to land in [0, 1).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .bvn import BvnDecomposition

__all__ = [
    "hash_user_key",
    "user_fraction",
    "term_index_for_fraction",
    "sample_index",
    "sample",
    "sample_indices",
    "sample_for_user",
]

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

RngLike = Union[np.random.Generator, int, None]


def hash_user_key(key: Union[str, bytes]) -> int:
    """64-bit hash of a user key under the pinned algorithm above."""
    data = key.encode("utf-8") if isinstance(key, str) else bytes(key)
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _MASK64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


def user_fraction(key: Union[str, bytes]) -> float:
    """Map a user key to a deterministic fraction in [0, 1)."""
    return hash_user_key(key) / 2.0**64


def cumulative_weights(decomposition: BvnDecomposition) -> np.ndarray:
    """Normalized running sum of the term weights, ending at exactly 1."""
    thetas = decomposition.thetas
    cum = np.cumsum(thetas / thetas.sum())
    cum[-1] = 1.0  # guard against accumulated rounding at the top end
    return cum


def term_index_for_fraction(decomposition: BvnDecomposition, t: float) -> int:
    """Inverse-CDF lookup of the term owning fraction ``t``.

    A fraction landing exactly on a cumulative boundary resolves to the
    lower index.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError(f"fraction must lie in [0, 1), got {t}")
    return int(np.searchsorted(cumulative_weights(decomposition), t, side="left"))


def sample_index(decomposition: BvnDecomposition, rng: RngLike = None) -> int:
    """Draw one term index with probability proportional to its weight."""
    t = float(np.random.default_rng(rng).random())
    return term_index_for_fraction(decomposition, t)


def sample_indices(
    decomposition: BvnDecomposition, count: int, rng: RngLike = None
) -> np.ndarray:
    """Draw ``count`` term indices from one stream (vectorized)."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    draws = np.random.default_rng(rng).random(count)
    return np.searchsorted(cumulative_weights(decomposition), draws, side="left")


def sample(decomposition: BvnDecomposition, rng: RngLike = None) -> np.ndarray:
    """Sample one ranking; ``ranking[j]`` is the item at rank j."""
    return decomposition.terms[sample_index(decomposition, rng)].ranking


def sample_for_user(decomposition: BvnDecomposition, user_key: Union[str, bytes]) -> np.ndarray:
    """Deterministic ranking for one user: same key, same ranking, always."""
    index = term_index_for_fraction(decomposition, user_fraction(user_key))
    return decomposition.terms[index].ranking
