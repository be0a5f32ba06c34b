"""Golden lotteries: the exact terms and per-user rankings of fixture policies.

A different matching order in ``decompose`` can pick different
permutations for the same matrix, which changes the ranking each user key
is shown.  These values pin the lotteries of the LP optima on the bundled
fixtures, so such a change cannot land unnoticed.
"""

from __future__ import annotations

import numpy as np
import pytest

from fairexposure.bvn import decompose
from fairexposure.constraints import (
    demographic_parity,
    disparate_impact,
    disparate_treatment,
)
from fairexposure.core import PositionBias, RankingProblem
from fairexposure.datasets import load_jobseeker, load_synthetic_news
from fairexposure.lp import solve_problem
from fairexposure.sampler import sample_for_user

KEYS = ("user-000", "user-003", "user-006", "user-014", "user-020")

NEWS_TAIL = [4, 10, 12, 24, 14, 23, 8, 21, 9, 0, 1, 13, 7, 22, 15]

# name -> (loader, notion, groups, [(theta, ranking)], term index per key)
GOLDEN = {
    "jobseeker-parity": (
        load_jobseeker,
        demographic_parity,
        ("M", "F"),
        [
            (0.5523989974461081, [0, 3, 4, 1, 2, 5]),
            (0.44760100255389185, [3, 0, 4, 1, 2, 5]),
        ],
        (0, 1, 1, 1, 1),
    ),
    "news-parity": (
        load_synthetic_news,
        demographic_parity,
        ("A", "B"),
        [
            (
                0.8979490919635782,
                [11, 20, 17, 6, 18, 2, 5, 3, 16, 19, 4, 10, 12]
                + [14, 8, 24, 23, 21, 9, 0, 1, 13, 7, 22, 15],
            ),
            (
                0.10205090803642176,
                [11, 20, 17, 6, 2, 18, 5, 3, 16, 19, 4, 10, 12]
                + [14, 8, 24, 23, 21, 9, 0, 1, 13, 7, 22, 15],
            ),
        ],
        (0, 0, 1, 1, 1),
    ),
    "news-impact": (
        load_synthetic_news,
        disparate_impact,
        ("A", "B"),
        [
            (0.6558957104960441, [11, 20, 17, 6, 18, 2, 5, 16, 19, 3] + NEWS_TAIL),
            (0.3441042895039559, [11, 20, 17, 18, 6, 2, 5, 16, 19, 3] + NEWS_TAIL),
        ],
        (0, 1, 1, 1, 1),
    ),
    "news-treatment": (
        load_synthetic_news,
        disparate_treatment,
        ("A", "B"),
        [
            (0.8074919650412081, [17, 20, 11, 18, 6, 2, 5, 16, 19, 3] + NEWS_TAIL),
            (0.19250803495879187, [11, 20, 17, 18, 6, 2, 5, 16, 19, 3] + NEWS_TAIL),
        ],
        (0, 1, 1, 1, 1),
    ),
}


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def golden(request):
    loader, notion, (g0, g1), terms, picks = GOLDEN[request.param]
    items = loader()
    problem = RankingProblem(
        items=items, position_bias=PositionBias.log_discount(len(items))
    )
    report = solve_problem(problem, [notion(problem, g0, g1)])
    assert report.optimal
    return decompose(report.matrix), terms, picks


def test_terms_match_golden(golden):
    decomposition, terms, _ = golden
    assert len(decomposition.terms) == len(terms)
    for term, (theta, ranking) in zip(decomposition.terms, terms):
        assert term.theta == pytest.approx(theta, abs=1e-9)
        assert term.ranking.tolist() == ranking


def test_user_rankings_match_golden(golden):
    decomposition, terms, picks = golden
    for key, index in zip(KEYS, picks):
        np.testing.assert_array_equal(
            sample_for_user(decomposition, key), terms[index][1], err_msg=key
        )
