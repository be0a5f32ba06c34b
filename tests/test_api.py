"""The package's public surface, pinned name by name.

A name enters or leaves ``fairexposure.__all__`` only by editing
``PUBLIC`` below, no module may list a name it does not define, and the
package re-exports every module's public names except the few below.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import fairexposure

PUBLIC = [
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
    "__version__",
    "build_lp",
    "check_feasibility",
    "decompose",
    "demographic_parity",
    "disparate_impact",
    "disparate_treatment",
    "dump_lp",
    "evaluate",
    "hash_user_key",
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
    "term_bound",
    "utility",
    "write_items_csv",
]

MODULES = ["fairexposure"] + [
    f"fairexposure.{info.name}" for info in pkgutil.iter_modules(fairexposure.__path__)
]


def test_package_exports_exactly_the_pinned_names():
    assert len(PUBLIC) == 42
    assert sorted(fairexposure.__all__) == PUBLIC


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_is_defined(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


# module-level names the package deliberately keeps out of its own __all__
NOT_REEXPORTED = {"main", "entry_point"}


def test_package_reexports_every_module_name():
    listed = set()
    for name in MODULES[1:]:
        listed.update(importlib.import_module(name).__all__)
    assert listed - NOT_REEXPORTED == set(fairexposure.__all__) - {"__version__"}
