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
"""

from __future__ import annotations

from .bvn import BvnDecomposition, BvnTerm, decompose, reconstruct, term_bound
from .constraints import (
    NOTIONS,
    FairnessConstraint,
    demographic_parity,
    disparate_impact,
    disparate_treatment,
    multi_group_constraints,
)
from .core import (
    DoublyStochasticMatrix,
    Item,
    PositionBias,
    RankingProblem,
    permutation_matrix,
    prp_ranking,
    stochastic_violation,
    utility,
)
from .datasets import (
    jobseeker_items,
    load_jobseeker,
    load_synthetic_news,
    read_items_csv,
    synthetic_news_items,
    write_items_csv,
)
from .feasibility import FeasibilityVerdict, check_feasibility, dt_exposure_ratio_range
from .lp import (
    LinearProgram,
    NumericalFailure,
    SolveReport,
    build_lp,
    dump_lp,
    solve,
    solve_problem,
)
from .metrics import GroupMetrics, MetricsReport, evaluate
from .sampler import hash_user_key, sample_for_user, sample_indices
from .simulator import GroupSimulation, SimulationReport, simulate

__version__ = "0.1.0"

__all__ = [
    "BvnDecomposition",
    "BvnTerm",
    "DoublyStochasticMatrix",
    "FairnessConstraint",
    "FeasibilityVerdict",
    "GroupMetrics",
    "GroupSimulation",
    "Item",
    "LinearProgram",
    "MetricsReport",
    "NOTIONS",
    "NumericalFailure",
    "PositionBias",
    "RankingProblem",
    "SimulationReport",
    "SolveReport",
    "build_lp",
    "check_feasibility",
    "decompose",
    "demographic_parity",
    "disparate_impact",
    "disparate_treatment",
    "dt_exposure_ratio_range",
    "dump_lp",
    "evaluate",
    "hash_user_key",
    "jobseeker_items",
    "load_jobseeker",
    "load_synthetic_news",
    "multi_group_constraints",
    "permutation_matrix",
    "prp_ranking",
    "read_items_csv",
    "reconstruct",
    "sample_for_user",
    "sample_indices",
    "simulate",
    "solve",
    "solve_problem",
    "stochastic_violation",
    "synthetic_news_items",
    "term_bound",
    "utility",
    "write_items_csv",
    "__version__",
]
