"""Assembly and solution of the ranking linear program.

The probabilistic ranking that maximizes expected utility subject to
fairness constraints is the solution of a linear program over the N²
entries of the doubly stochastic matrix P:

    maximize    u' P v
    subject to  row sums of P = 1,  column sums of P = 1,
                f' P g = h   for each fairness constraint,
                0 <= P[i, j] <= 1.

Variables are flattened row-major: variable k is entry ``divmod(k, n)``.
Only the objective and the fairness constraints vary; the 2N row- and
column-sum rows are implied by N, so ``solve`` builds them as one sparse
block and stacks the dense rank-1 fairness rows below it.  Those 2N rows
have rank 2N - 1; all are passed and HiGHS tolerates the redundancy.
Solutions are certified after the fact: entries are clamped to [0, 1]
only within 1e-9 of the bounds, never renormalized, and the solve fails
if ``stochastic_violation`` or any constraint's ``residual`` exceeds the
shared tolerance ``core.TOLERANCE``, the same one every layer accepts.

Memory grows as N² per fairness row; HiGHS solve time, not assembly,
limits practical problems to a few hundred items.

Import rule: scipy is imported inside the functions that call it
(``solve``, ``_stochastic_rows`` and ``bvn.decompose``), never at
module level, so that only the ``solve`` and ``decompose`` commands pay
for loading it (README, "Scale").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import TOLERANCE, DoublyStochasticMatrix, RankingProblem, stochastic_violation
from .constraints import FairnessConstraint

__all__ = [
    "LinearProgram",
    "SolveReport",
    "NumericalFailure",
    "build_lp",
    "solve",
    "solve_problem",
    "dump_lp",
]

# entries this close to the [0, 1] bounds are snapped onto them
CLAMP_SLACK = 1e-9


class NumericalFailure(RuntimeError):
    """The solver stopped without a certified optimum."""


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """The varying part of the program over the n² row-major entries.

    ``objective`` holds the n² coefficients ``u[i] * v[j]``; ``constraints``
    are the fairness rows in the order given.  The doubly stochastic rows
    are implied by ``n``.
    """

    n: int
    objective: np.ndarray
    constraints: tuple[FairnessConstraint, ...]


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one LP solve.

    ``status`` is "optimal" or "infeasible"; ``solve`` raises on any
    other solver outcome.  ``matrix`` and ``objective`` are set only when
    optimal.  ``max_violation`` is the certified residual
    ``max(stochastic_violation(P), c.residual(P) for c in constraints)``.
    ``constraint_labels`` lists the fairness constraints in the order they
    were passed, which is the violated set when status is "infeasible".
    """

    status: str
    matrix: Optional[DoublyStochasticMatrix]
    objective: Optional[float]
    max_violation: Optional[float]
    iterations: int
    constraint_labels: tuple[str, ...] = ()

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def build_lp(
    problem: RankingProblem, constraints: Sequence[FairnessConstraint] = ()
) -> LinearProgram:
    """Assemble the utility-maximization LP for ``problem``.

    The objective coefficient of variable (i, j) is ``u[i] * v[j]``; the
    fairness row for a constraint (f, g, h) has coefficient ``f[i] * g[j]``
    there and right-hand side h.
    """
    n = problem.n
    for c in constraints:
        if c.n != n:
            raise ValueError(
                f"constraint {c.label!r} has length {c.n}, problem has {n} items"
            )
    objective = np.outer(problem.utilities, problem.bias).ravel()
    objective.flags.writeable = False
    return LinearProgram(n=n, objective=objective, constraints=tuple(constraints))


def _stochastic_rows(n: int):
    """The n row-sum rows, then the n column-sum rows, as one sparse CSR block."""
    from scipy import sparse

    ones, eye = np.ones((1, n)), sparse.eye_array(n)
    return sparse.vstack([sparse.kron(eye, ones), sparse.kron(ones, eye)], format="csr")


def _fairness_rows(
    constraints: Sequence[FairnessConstraint], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense rows ``outer(f, g)`` and right-hand sides, ``>=`` flipped to ``<=``."""
    signs = [-1.0 if c.relation == "greater-equal" else 1.0 for c in constraints]
    rows = [s * np.outer(c.f, c.g).ravel() for s, c in zip(signs, constraints)]
    rhs = [s * c.h for s, c in zip(signs, constraints)]
    return np.array(rows).reshape(len(rows), n * n), np.array(rhs, dtype=float)


def _split(lp: LinearProgram) -> tuple[list[FairnessConstraint], list[FairnessConstraint]]:
    """Equality constraints and inequality constraints, each in given order."""
    equal = [c for c in lp.constraints if c.relation == "equal"]
    return equal, [c for c in lp.constraints if c.relation != "equal"]


def _clamp(x: np.ndarray) -> np.ndarray:
    """Snap entries within CLAMP_SLACK of the bounds onto [0, 1]."""
    x = x.copy()
    x[(x < 0.0) & (x >= -CLAMP_SLACK)] = 0.0
    x[(x > 1.0) & (x <= 1.0 + CLAMP_SLACK)] = 1.0
    return x


def solve(lp: LinearProgram) -> SolveReport:
    """Solve ``lp`` to optimality and certify the solution.

    Raises :class:`NumericalFailure` when the solver reports neither an
    optimum nor infeasibility, or when a claimed optimum violates some constraint by more than ``TOLERANCE``
    after clamping.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    n = lp.n
    equal, other = _split(lp)
    eq_rows, eq_rhs = _fairness_rows(equal, n)
    ub_rows, ub_rhs = _fairness_rows(other, n)
    result = linprog(
        -lp.objective,
        A_eq=sparse.vstack([_stochastic_rows(n), sparse.csr_array(eq_rows)], format="csr"),
        b_eq=np.concatenate([np.ones(2 * n), eq_rhs]),
        A_ub=ub_rows if other else None,
        b_ub=ub_rhs if other else None,
        bounds=(0.0, 1.0),
        method="highs",
    )
    iterations = int(getattr(result, "nit", 0) or 0)
    labels = tuple(c.label for c in lp.constraints)

    if result.status == 2:
        return SolveReport("infeasible", None, None, None, iterations, labels)
    if result.status != 0:
        raise NumericalFailure(
            f"solver stopped without an optimum (status {result.status}): {result.message}"
        )

    x = _clamp(np.asarray(result.x, dtype=float))
    entries = x.reshape(n, n)
    worst = max([stochastic_violation(entries)] + [c.residual(entries) for c in lp.constraints])
    if worst > TOLERANCE:
        raise NumericalFailure(
            f"claimed optimum violates constraints by {worst:.3e} "
            f"(tolerance {TOLERANCE:.0e})"
        )

    matrix = DoublyStochasticMatrix(entries=entries)
    objective = float(lp.objective @ x)
    return SolveReport("optimal", matrix, objective, worst, iterations, labels)


def solve_problem(
    problem: RankingProblem, constraints: Sequence[FairnessConstraint] = ()
) -> SolveReport:
    """Build and solve the LP for ``problem`` in one call."""
    return solve(build_lp(problem, constraints))


def _coef(value: float) -> str:
    return repr(float(value))


def _row_text(
    name: str, coeffs: np.ndarray, n: int, op: str | None = None, rhs: float = 0.0
) -> str:
    terms = []
    for k in np.flatnonzero(coeffs):
        i, j = divmod(int(k), n)
        c = float(coeffs[k])
        sign = "-" if c < 0 else "+"
        prefix = sign if terms or sign == "-" else ""
        terms.append(f"{prefix} {_coef(abs(c))} p_{i}_{j}".lstrip())
    body = " ".join(terms) if terms else "0 p_0_0"
    if op is None:
        return f" {name}: {body}"
    return f" {name}: {body} {op} {_coef(rhs)}"


def _sum_text(name: str, variables: list[str]) -> str:
    return f" {name}: " + " + ".join(f"1.0 {p}" for p in variables) + " = 1.0"


def dump_lp(lp: LinearProgram) -> str:
    """Render the program as solver-interchange text.

    Variables are named ``p_i_j``, one constraint per row, so the dump can
    be fed to an external LP solver for cross-checking.
    """
    n = lp.n
    lines = ["Maximize", _row_text("obj", lp.objective, n), "Subject To"]
    for i in range(n):
        lines.append(_sum_text(f"row_sum_{i}", [f"p_{i}_{j}" for j in range(n)]))
    for j in range(n):
        lines.append(_sum_text(f"col_sum_{j}", [f"p_{i}_{j}" for i in range(n)]))
    for prefix, op, group in zip(("fair_", "fair_ub_"), ("=", "<="), _split(lp)):
        rows, rhs = _fairness_rows(group, n)
        for k, c in enumerate(group):
            lines.append(f"\\ {c.label}")
            lines.append(_row_text(f"{prefix}{k}", rows[k], n, op, float(rhs[k])))
    lines.append("Bounds")
    lines.extend(f" 0 <= p_{i}_{j} <= 1" for i in range(n) for j in range(n))
    lines.append("End")
    return "\n".join(lines) + "\n"
