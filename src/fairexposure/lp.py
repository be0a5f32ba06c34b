"""Assembly and solution of the ranking linear program.

The probabilistic ranking that maximizes expected utility subject to
fairness constraints is the solution of a linear program over the N²
entries of the doubly stochastic matrix P:

    maximize    u' P v
    subject to  row sums of P = 1,  column sums of P = 1,
                f' P g = h   for each fairness constraint,
                0 <= P[i, j] <= 1.

Variables are flattened row-major: variable k is entry ``divmod(k, n)``.
Every row is an equality.  ``_rows`` is the one row builder, used by both
``solve`` (as HiGHS's ``A_eq``/``b_eq``) and ``dump_lp``: the n row sums,
then the n column sums, as one sparse block, then one dense rank-1 row
``outer(f, g)`` with right-hand side h per fairness constraint
``f @ P @ g = h``, in the order given.  The 2N sum rows have rank 2N - 1;
all are passed and HiGHS tolerates the redundancy.
Solutions are certified after the fact, exactly as HiGHS returns them
(never clamped or renormalized): the solve fails if
``stochastic_violation`` or any constraint's ``residual`` exceeds the
shared tolerance ``core.TOLERANCE``, the same one every layer accepts.

Memory grows as N² per fairness row; HiGHS solve time, not assembly,
limits practical problems to a few hundred items.

scipy loads inside ``solve`` and ``_rows`` (import rule: package docstring).
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
    """

    status: str
    matrix: Optional[DoublyStochasticMatrix]
    objective: Optional[float]
    max_violation: Optional[float]
    iterations: int

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


def _rows(lp: LinearProgram):
    """The program's equality rows as (CSR matrix, right-hand sides).

    The n row-sum rows, then the n column-sum rows, then one row
    ``outer(f, g)`` per fairness constraint in the order given.
    """
    from scipy import sparse

    n = lp.n
    ones, eye = np.ones((1, n)), sparse.eye_array(n)
    fair = np.array([np.outer(c.f, c.g).ravel() for c in lp.constraints]).reshape(-1, n * n)
    rows = sparse.vstack(
        [sparse.kron(eye, ones), sparse.kron(ones, eye), sparse.csr_array(fair)], format="csr"
    )
    return rows, np.concatenate([np.ones(2 * n), [c.h for c in lp.constraints]])


def solve(lp: LinearProgram) -> SolveReport:
    """Solve ``lp`` to optimality and certify the solution.

    Raises :class:`NumericalFailure` when the solver reports neither an
    optimum nor infeasibility, or when a claimed optimum violates some
    constraint by more than ``TOLERANCE``.
    """
    from scipy.optimize import linprog

    n = lp.n
    rows, rhs = _rows(lp)
    result = linprog(-lp.objective, A_eq=rows, b_eq=rhs, bounds=(0.0, 1.0), method="highs")
    iterations = int(getattr(result, "nit", 0) or 0)

    if result.status == 2:
        return SolveReport("infeasible", None, None, None, iterations)
    if result.status != 0:
        raise NumericalFailure(
            f"solver stopped without an optimum (status {result.status}): {result.message}"
        )

    x = np.asarray(result.x, dtype=float)
    entries = x.reshape(n, n)
    worst = max([stochastic_violation(entries)] + [c.residual(entries) for c in lp.constraints])
    if worst > TOLERANCE:
        raise NumericalFailure(
            f"claimed optimum violates constraints by {worst:.3e} "
            f"(tolerance {TOLERANCE:.0e})"
        )

    matrix = DoublyStochasticMatrix(entries=entries)
    objective = float(lp.objective @ x)
    return SolveReport("optimal", matrix, objective, worst, iterations)


def solve_problem(
    problem: RankingProblem, constraints: Sequence[FairnessConstraint] = ()
) -> SolveReport:
    """Build and solve the LP for ``problem`` in one call."""
    return solve(build_lp(problem, constraints))


def _coef(value: float) -> str:
    return repr(float(value))


def _row_text(name: str, cols: np.ndarray, values: np.ndarray, variables: list[str]) -> str:
    """One row as `` name: c p_i_j ...``, from its column indices and values."""
    terms = []
    for k, c in zip(cols.tolist(), values.tolist()):
        sign = "-" if c < 0 else "+"
        prefix = sign if terms or sign == "-" else ""
        terms.append(f"{prefix} {_coef(abs(c))} {variables[k]}".lstrip())
    return f" {name}: " + (" ".join(terms) if terms else "0 p_0_0")


def dump_lp(lp: LinearProgram) -> str:
    """Render the program as solver-interchange text.

    Variables are named ``p_i_j``, one constraint per row, so the dump can
    be fed to an external LP solver for cross-checking.
    """
    n = lp.n
    variables = [f"p_{i}_{j}" for i in range(n) for j in range(n)]
    cols = np.flatnonzero(lp.objective)
    lines = ["Maximize", _row_text("obj", cols, lp.objective[cols], variables), "Subject To"]
    rows, rhs = _rows(lp)
    names = [f"row_sum_{i}" for i in range(n)] + [f"col_sum_{j}" for j in range(n)]
    names += [f"fair_{k}" for k in range(len(lp.constraints))]
    for r, name in enumerate(names):
        if r >= 2 * n:
            lines.append(f"\\ {lp.constraints[r - 2 * n].label}")
        span = slice(rows.indptr[r], rows.indptr[r + 1])
        row = _row_text(name, rows.indices[span], rows.data[span], variables)
        lines.append(f"{row} = {_coef(rhs[r])}")
    lines.append("Bounds")
    lines.extend(f" 0 <= {v} <= 1" for v in variables)
    lines.append("End")
    return "\n".join(lines) + "\n"
