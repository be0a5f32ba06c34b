"""Utility-maximizing probabilistic rankings under fairness-of-exposure constraints.

The package solves ranking as a linear program over doubly stochastic
matrices: maximize expected utility subject to linear constraints that
equalize exposure (or clickthrough per unit relevance) across groups.  The
optimal matrix is decomposed into a lottery over deterministic rankings,
which can then be sampled per user or per request and audited with exposure
and clickthrough metrics, a closed-form feasibility checker, and a
position-bias click simulator.

Typical flow::

    from fairexposure import (
        PositionBias, RankingProblem, demographic_parity,
        solve_problem, decompose, sample_for_user, evaluate,
    )

    problem = RankingProblem(items=items, position_bias=PositionBias.log_discount(len(items)))
    report = solve_problem(problem, [demographic_parity(problem, "A", "B")])
    lottery = decompose(report.matrix)
    ranking = sample_for_user(lottery, "user-123")
    metrics = evaluate(report.matrix, problem)

Import rule: scipy and ``numpy.random`` are imported inside the functions
that solve, match or draw, never at module level, so ``import fairexposure``
loads neither and only the commands that need them pay for loading them.
"""

from __future__ import annotations

from . import bvn, constraints, core, datasets, feasibility, lp, metrics, sampler, simulator
from .bvn import *
from .constraints import *
from .core import *
from .datasets import *
from .feasibility import *
from .lp import *
from .metrics import *
from .sampler import *
from .simulator import *

__version__ = "0.1.0"

# each module's __all__ is the one declaration of its public names
__all__ = ["__version__"]
__all__ += bvn.__all__
__all__ += constraints.__all__
__all__ += core.__all__
__all__ += datasets.__all__
__all__ += feasibility.__all__
__all__ += lp.__all__
__all__ += metrics.__all__
__all__ += sampler.__all__
__all__ += simulator.__all__
