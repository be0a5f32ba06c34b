"""Assembly and solution of the ranking linear program.

The probabilistic ranking that maximizes expected utility subject to
fairness constraints is the solution of a linear program over the N²
entries of the doubly stochastic matrix P:

    maximize    u' P v
    subject to  row sums of P = 1,  column sums of P = 1,
                f' P g = h   for each fairness constraint,
                0 <= P[i, j] <= 1.

Variables are flattened row-major (``variable k = i * n + j``).  The 2N
stochasticity rows have rank 2N - 1; all 2N are kept and the solver is
expected to tolerate the redundancy.  Solutions are certified after the
fact: entries are clamped to [0, 1] only within 1e-9 of the bounds,
never renormalized, and the solve fails if any residual exceeds the
shared tolerance ``core.TOLERANCE``, the same one every layer accepts.

Matrices are dense, so problems are practical up to roughly N = 300.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from .core import TOLERANCE, DoublyStochasticMatrix, RankingProblem, stochastic_violation
from .constraints import FairnessConstraint

__all__ = [
    "LinearProgram",
    "SolveReport",
    "NumericalFailure",
    "flatten_index",
    "unflatten_index",
    "build_lp",
    "solve",
    "solve_problem",
    "dump_lp",
]

# entries this close to the [0, 1] bounds are snapped onto them
CLAMP_SLACK = 1e-9


class NumericalFailure(RuntimeError):
    """The solver stopped without a certified optimum."""


def flatten_index(i: int, j: int, n: int) -> int:
    """Variable index of matrix entry (i, j) in the flattened LP."""
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"entry ({i}, {j}) outside a {n}x{n} matrix")
    return i * n + j


def unflatten_index(k: int, n: int) -> tuple[int, int]:
    """Matrix entry (i, j) of flattened variable ``k``."""
    if not 0 <= k < n * n:
        raise ValueError(f"variable {k} outside 0..{n * n - 1}")
    return divmod(k, n)


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Standard-form program over the flattened matrix entries.

    ``eq_matrix`` stacks the 2n stochasticity rows (n row sums, then n
    column sums) followed by one row per equality fairness constraint;
    ``ub_matrix`` holds inequality fairness rows oriented as <=.
    """

    n: int
    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    ub_matrix: np.ndarray
    ub_rhs: np.ndarray
    eq_labels: tuple[str, ...]
    ub_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        n = self.n
        if self.objective.shape != (n * n,):
            raise ValueError(f"objective must have {n * n} coefficients")
        if self.eq_matrix.shape != (2 * n + len(self.eq_labels), n * n):
            raise ValueError("equality system shape does not match labels")
        if self.eq_rhs.shape != (self.eq_matrix.shape[0],):
            raise ValueError("equality right-hand side length mismatch")
        if self.ub_matrix.shape != (len(self.ub_labels), n * n):
            raise ValueError("inequality system shape does not match labels")
        if self.ub_rhs.shape != (self.ub_matrix.shape[0],):
            raise ValueError("inequality right-hand side length mismatch")
        for name in ("objective", "eq_matrix", "eq_rhs", "ub_matrix", "ub_rhs"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def n_variables(self) -> int:
        return self.n * self.n

    @property
    def n_stochasticity_rows(self) -> int:
        return 2 * self.n

    @property
    def n_equality_rows(self) -> int:
        return self.eq_matrix.shape[0]


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one LP solve.

    ``status`` is "optimal", "infeasible", or "unbounded-guard" (the last
    cannot occur for well-formed inputs since all variables are bounded;
    it is kept as a guard against solver misreports).  ``matrix`` and
    ``objective`` are set only when optimal.  ``max_violation`` is the
    largest certified residual across stochasticity and fairness rows.
    ``constraint_labels`` lists the fairness constraints that were in
    force, which is the violated set when status is "infeasible".
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
    u = problem.utilities
    v = problem.bias
    for c in constraints:
        if c.n != n:
            raise ValueError(
                f"constraint {c.label!r} has length {c.n}, problem has {n} items"
            )

    objective = np.outer(u, v).ravel()

    stoch = np.zeros((2 * n, n * n))
    for i in range(n):
        stoch[i, i * n : (i + 1) * n] = 1.0  # row sum
        stoch[n + i, i :: n] = 1.0  # column sum

    eq_rows = [stoch]
    eq_rhs = [np.ones(2 * n)]
    eq_labels: list[str] = []
    ub_rows: list[np.ndarray] = []
    ub_rhs: list[float] = []
    ub_labels: list[str] = []
    for c in constraints:
        row = np.outer(c.f, c.g).ravel()
        if c.relation == "equal":
            eq_rows.append(row[None, :])
            eq_rhs.append(np.array([c.h]))
            eq_labels.append(c.label)
        elif c.relation == "less-equal":
            ub_rows.append(row)
            ub_rhs.append(c.h)
            ub_labels.append(c.label)
        else:  # greater-equal, flipped to <=
            ub_rows.append(-row)
            ub_rhs.append(-c.h)
            ub_labels.append(c.label)

    return LinearProgram(
        n=n,
        objective=objective,
        eq_matrix=np.vstack(eq_rows),
        eq_rhs=np.concatenate(eq_rhs),
        ub_matrix=np.array(ub_rows).reshape(len(ub_rows), n * n),
        ub_rhs=np.array(ub_rhs, dtype=float),
        eq_labels=tuple(eq_labels),
        ub_labels=tuple(ub_labels),
    )


def _clamp(x: np.ndarray) -> np.ndarray:
    """Snap entries within CLAMP_SLACK of the bounds onto [0, 1]."""
    x = x.copy()
    x[(x < 0.0) & (x >= -CLAMP_SLACK)] = 0.0
    x[(x > 1.0) & (x <= 1.0 + CLAMP_SLACK)] = 1.0
    return x


def solve(lp: LinearProgram) -> SolveReport:
    """Solve ``lp`` to optimality and certify the solution.

    Raises :class:`NumericalFailure` when the solver gives up or when a
    claimed optimum violates some constraint by more than ``TOLERANCE``
    after clamping.
    """
    n = lp.n
    has_ub = lp.ub_matrix.shape[0] > 0
    result = linprog(
        -lp.objective,
        A_eq=lp.eq_matrix,
        b_eq=lp.eq_rhs,
        A_ub=lp.ub_matrix if has_ub else None,
        b_ub=lp.ub_rhs if has_ub else None,
        bounds=(0.0, 1.0),
        method="highs",
    )
    iterations = int(getattr(result, "nit", 0) or 0)
    labels = lp.eq_labels + lp.ub_labels

    if result.status == 2:
        return SolveReport("infeasible", None, None, None, iterations, labels)
    if result.status == 3:
        return SolveReport("unbounded-guard", None, None, None, iterations, labels)
    if result.status != 0:
        raise NumericalFailure(
            f"solver stopped without an optimum (status {result.status}): {result.message}"
        )

    x = _clamp(np.asarray(result.x, dtype=float))
    entries = x.reshape(n, n)
    residuals = [stochastic_violation(entries)]
    fairness_rows = lp.eq_matrix[2 * n :]
    if fairness_rows.shape[0] > 0:
        residuals.append(float(np.max(np.abs(fairness_rows @ x - lp.eq_rhs[2 * n :]))))
    if has_ub:
        residuals.append(float(np.max(np.maximum(lp.ub_matrix @ x - lp.ub_rhs, 0.0))))
    worst = max(residuals)
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
        i, j = unflatten_index(int(k), n)
        c = float(coeffs[k])
        sign = "-" if c < 0 else "+"
        prefix = sign if terms or sign == "-" else ""
        terms.append(f"{prefix} {_coef(abs(c))} p_{i}_{j}".lstrip())
    body = " ".join(terms) if terms else "0 p_0_0"
    if op is None:
        return f" {name}: {body}"
    return f" {name}: {body} {op} {_coef(rhs)}"


def dump_lp(lp: LinearProgram) -> str:
    """Render the program as solver-interchange text.

    Variables are named ``p_i_j``, one constraint per row, so the dump can
    be fed to an external LP solver for cross-checking.
    """
    n = lp.n
    lines = ["Maximize", _row_text("obj", lp.objective, n)]
    lines.append("Subject To")
    for i in range(n):
        lines.append(_row_text(f"row_sum_{i}", lp.eq_matrix[i], n, "=", 1.0))
    for j in range(n):
        lines.append(_row_text(f"col_sum_{j}", lp.eq_matrix[n + j], n, "=", 1.0))
    for k, label in enumerate(lp.eq_labels):
        lines.append(f"\\ {label}")
        lines.append(
            _row_text(f"fair_{k}", lp.eq_matrix[2 * n + k], n, "=", float(lp.eq_rhs[2 * n + k]))
        )
    for k, label in enumerate(lp.ub_labels):
        lines.append(f"\\ {label}")
        lines.append(_row_text(f"fair_ub_{k}", lp.ub_matrix[k], n, "<=", float(lp.ub_rhs[k])))
    lines.append("Bounds")
    for k in range(lp.n_variables):
        i, j = unflatten_index(k, n)
        lines.append(f" 0 <= p_{i}_{j} <= 1")
    lines.append("End")
    return "\n".join(lines) + "\n"
