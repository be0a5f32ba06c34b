"""Seeded inputs for the benchmark workloads.

Only numpy and the package's public constructors are used.  Every input is
a pure function of ``(seed, index)``, so the same seed always yields
byte-identical inputs and the program under test receives nothing else.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fairexposure import BvnDecomposition, BvnTerm, Item, PositionBias, RankingProblem

# offline-policy: sizes and notions interleave (index % 3, index % 4), so
# every run of twelve consecutive instances covers each pair once and a
# partial cycle stays balanced across sizes.
POLICY_SIZES = (50, 100, 150)
POLICY_KINDS = (
    "demographic-parity",
    "disparate-treatment",
    "disparate-impact",
    "disparate-treatment-3",
)
POLICY_CYCLE = math.lcm(len(POLICY_SIZES), len(POLICY_KINDS))
# One instance in six is skewed: the last group's utilities are scaled by
# SKEW_FACTOR, which puts its mean-utility ratio (about 5) far outside the
# attainable exposure-ratio range (about [0.5, 2]), so disparate treatment
# is infeasible.  Disparate impact and parity stay feasible under any
# scaling (the uniform matrix satisfies both), so only treatment is skewed.
# Skewing only N=50 keeps the N=100 and N=150 instances of each notion
# alike, so the median and the tail fall inside clusters of similar
# instances rather than in a gap between them.
SKEWED = frozenset({(50, "disparate-treatment"), (50, "disparate-treatment-3")})
SKEW_FACTOR = 0.2

# dense-lottery: a Dirichlet mixture of N^2 random permutations is dense,
# so greedy extraction yields about term_bound(N) terms.
DENSE_SIZES = (10, 20, 30)

# serve-and-audit lottery shapes, both over the same 25-item problem.
SERVE_N = 25
SERVE_GROUP_SIZES = (15, 10)
FEW_LOTTERIES = 6
FEW_TERMS = (2, 3, 4)
MANY_LOTTERIES = 2
MANY_TERMS = 500

# cli-pipeline: (name, arguments, which earlier output feeds stdin); the
# "{pipeline}" and "{key}" fields are filled per operation from the seed
CLI_COMMANDS = (
    ("solve", ["solve", "-", "--constraint", "demographic-parity:A,B"], "csv"),
    ("decompose", ["decompose"], "solve"),
    ("sample_count", ["sample", "--count", "10", "--seed", "{pipeline}"], "decompose"),
    ("sample_user", ["sample", "--user", "{key}"], "decompose"),
    ("evaluate", ["evaluate", "--against-optimal"], "solve"),
    ("feasibility", ["feasibility", "-", "--notion", "disparate-treatment", "--groups", "A,B"], "csv"),
    ("simulate", ["simulate", "--users", "10000", "--seed", "{pipeline}"], "decompose"),
)

# distinct generator streams per workload
_POLICY, _DENSE, _SERVE = 1, 2, 3


@dataclass(frozen=True)
class PolicyCase:
    """One offline-policy instance: items CSV text plus the notion to impose."""

    csv: str
    kind: str
    groups: tuple[str, ...]
    skewed: bool


def _items_csv(ids, labels, utilities) -> str:
    rows = ["id,group,utility"]
    rows += [f"{i},{g},{float(u)!r}" for i, g, u in zip(ids, labels, utilities)]
    return "\n".join(rows) + "\n"


def _beta_utilities(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.clip(rng.beta(2.0, 2.0, size=n), 0.01, 1.0)


def policy_case(seed: int, index: int) -> PolicyCase:
    n = POLICY_SIZES[index % len(POLICY_SIZES)]
    kind = POLICY_KINDS[index % len(POLICY_KINDS)]
    groups = ("A", "B", "C") if kind.endswith("-3") else ("A", "B")
    rng = np.random.default_rng([_POLICY, seed, index])
    sizes = [n // len(groups)] * len(groups)
    sizes[0] += n - sum(sizes)
    labels = rng.permutation(np.repeat(groups, sizes))
    utilities = _beta_utilities(rng, n)
    skewed = (n, kind) in SKEWED
    if skewed:
        last = labels == groups[-1]
        utilities[last] = np.clip(utilities[last] * SKEW_FACTOR, 0.01, 1.0)
    ids = [f"i{k:03d}" for k in range(n)]
    return PolicyCase(_items_csv(ids, labels, utilities), kind, groups, skewed)


def dense_matrix(seed: int, index: int) -> np.ndarray:
    """Doubly stochastic matrix mixing N^2 random permutations (Dirichlet weights)."""
    n = DENSE_SIZES[index % len(DENSE_SIZES)]
    rng = np.random.default_rng([_DENSE, seed, index])
    k = n * n
    rankings = rng.permuted(np.tile(np.arange(n), (k, 1)), axis=1)
    weights = rng.dirichlet(np.ones(k))
    matrix = np.zeros((n, n))
    np.add.at(matrix, (rankings, np.arange(n)[None, :]), weights[:, None])
    return matrix


@dataclass(frozen=True, eq=False)
class ServeInputs:
    problem: RankingProblem
    few: tuple[BvnDecomposition, ...]
    many: tuple[BvnDecomposition, ...]


def _lottery(rng: np.random.Generator, rankings: list[np.ndarray]) -> BvnDecomposition:
    weights = rng.dirichlet(np.ones(len(rankings)))
    return BvnDecomposition(
        terms=tuple(BvnTerm(float(w), r) for w, r in zip(weights, rankings))
    )


def _distinct_rankings(rng, count: int, propose) -> list[np.ndarray]:
    seen: set[tuple[int, ...]] = set()
    out: list[np.ndarray] = []
    while len(out) < count:
        ranking = propose()
        key = tuple(ranking.tolist())
        if key not in seen:
            seen.add(key)
            out.append(ranking)
    return out


def serve_inputs(seed: int) -> ServeInputs:
    """A 25-item problem with few-term and many-term lotteries over it.

    Few-term lotteries look like LP optima: the utility-descending ranking
    plus a few variants that swap neighbouring items.  Many-term lotteries
    mix MANY_TERMS uniformly random permutations.
    """
    rng = np.random.default_rng([_SERVE, seed])
    utilities = _beta_utilities(rng, SERVE_N)
    labels = np.repeat(("A", "B"), SERVE_GROUP_SIZES)
    items = tuple(
        Item(id=f"s{k:02d}", group=str(g), utility=float(u))
        for k, (g, u) in enumerate(zip(labels, utilities))
    )
    problem = RankingProblem(items=items, position_bias=PositionBias.log_discount(SERVE_N))
    prp = np.argsort(-utilities, kind="stable")

    def near_prp() -> np.ndarray:
        ranking = prp.copy()
        for j in rng.choice(SERVE_N - 1, size=2, replace=False):
            ranking[[j, j + 1]] = ranking[[j + 1, j]]
        return ranking

    few = []
    for k in range(FEW_LOTTERIES):
        count = FEW_TERMS[k % len(FEW_TERMS)]
        few.append(_lottery(rng, [prp] + _distinct_rankings(rng, count - 1, near_prp)))
    many = [
        _lottery(rng, _distinct_rankings(rng, MANY_TERMS, lambda: rng.permutation(SERVE_N)))
        for _ in range(MANY_LOTTERIES)
    ]
    return ServeInputs(problem, tuple(few), tuple(many))


def user_keys(seed: int, round_index: int, count: int) -> list[str]:
    """Distinct user keys for one serve-and-audit round."""
    return [f"user-{seed}-{round_index}-{k}" for k in range(count)]


def news_csv(root: Path) -> str:
    """The bundled 25-item news fixture, read as the CLI reads it."""
    return (root / "src" / "fairexposure" / "data" / "synthetic_news.csv").read_text("utf-8")


def digest(texts) -> str:
    """SHA-256 over a sequence of input texts or arrays, in order."""
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8") if isinstance(t, str) else np.ascontiguousarray(t).tobytes())
    return h.hexdigest()
