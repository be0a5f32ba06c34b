"""Command-line front end for the fair-exposure ranking pipeline.

Subcommands cover the full workflow: ``solve`` an items CSV into a marginal
rank-probability matrix, ``decompose`` it into a lottery over deterministic
rankings, ``sample`` rankings for users or seeds, ``evaluate`` fairness and
utility metrics, ``feasibility``-check a constraint before solving, and
``simulate`` a position-biased click model over the lottery.

Commands read ``-`` (the default) as stdin so they compose into pipelines::

    fairexposure solve items.csv --constraint demographic-parity:A,B \
        | fairexposure decompose \
        | fairexposure sample --count 10 --seed 7

Exit codes: 0 success, 1 usage or input error, 2 infeasible, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bvn import BvnDecomposition, BvnTerm, decompose
from .constraints import NOTIONS, FairnessConstraint, multi_group_constraints
from .core import (
    TOLERANCE,
    Item,
    PositionBias,
    RankingProblem,
    permutation_matrix,
    prp_ranking,
)
from .datasets import read_items_csv
from .feasibility import check_feasibility
from .lp import NumericalFailure, build_lp, dump_lp, solve
from .metrics import evaluate
from .sampler import sample_for_user, sample_indices
from .simulator import simulate

__all__ = ["main", "entry_point"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# input parsing helpers


def _read_problem(args: argparse.Namespace) -> RankingProblem:
    """The items CSV ``args.items`` ('-' = stdin) under the ``args.bias`` form."""
    items = read_items_csv(sys.stdin if args.items == "-" else args.items)
    return RankingProblem(items=items, position_bias=_parse_bias(args.bias, len(items)))


def _load_json(path: str, what: str) -> dict:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object")
    return payload


def _parse_bias(flag: str, n: int) -> PositionBias:
    """Parse ``log:BASE`` or ``dcg:BASE:K`` into a position-bias vector."""
    parts = flag.split(":")
    if parts[0] == "log" and len(parts) == 2:
        return PositionBias.log_discount(n, base=parts[1])
    if parts[0] == "dcg" and len(parts) == 3:
        try:
            k = int(parts[2])
        except ValueError:
            raise ValueError(f"bias cutoff must be an integer, got {parts[2]!r}") from None
        return PositionBias.dcg_at_k(n, k=k, base=parts[1])
    raise ValueError(f"bias must look like 'log:BASE' or 'dcg:BASE:K', got {flag!r}")


def _parse_constraint_flag(
    problem: RankingProblem, flag: str
) -> tuple[str, list[str], list[FairnessConstraint]]:
    """Parse ``NOTION:G1,G2[,G3...]`` into chained constraints."""
    notion, sep, tail = flag.partition(":")
    if not sep or not tail:
        raise ValueError(
            f"constraint must look like 'NOTION:G1,G2', got {flag!r}; "
            f"known notions: {', '.join(sorted(NOTIONS))}"
        )
    groups = [g.strip() for g in tail.split(",")]
    return notion, groups, multi_group_constraints(problem, notion, groups)


def _parse_group_pair(flag: Optional[str]) -> Optional[tuple[str, str]]:
    if flag is None:
        return None
    parts = [g.strip() for g in flag.split(",")]
    if len(parts) != 2 or not all(parts):
        raise ValueError(f"group pair must look like 'G0,G1', got {flag!r}")
    return parts[0], parts[1]


# ---------------------------------------------------------------------------
# JSON schema helpers


def _problem_to_json(problem: RankingProblem) -> dict:
    return {
        "items": [
            {"id": it.id, "group": it.group, "utility": it.utility}
            for it in problem.items
        ],
        "bias": {
            "kind": problem.position_bias.kind,
            "values": problem.bias.tolist(),
        },
    }


def _problem_from_json(payload: dict, what: str) -> RankingProblem:
    try:
        problem_payload = payload["problem"]
        items = tuple(
            Item(id=row["id"], group=row["group"], utility=row["utility"])
            for row in problem_payload["items"]
        )
        bias = PositionBias(
            problem_payload["bias"]["kind"],
            np.asarray(problem_payload["bias"]["values"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{what} is missing problem data ({exc})") from None
    return RankingProblem(items=items, position_bias=bias)


def _solution_matrix(payload: dict, command: str) -> np.ndarray:
    """The matrix of an optimal solution; ``command`` names what needed it."""
    status = payload.get("status", "optimal")
    if status != "optimal":
        raise ValueError(f"solution status is {status!r}; nothing to {command}")
    try:
        n = payload["n"]
        flat = np.asarray(payload["matrix"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"solution is missing matrix data ({exc})") from None
    if type(n) is not int or n < 0:
        raise ValueError(f"solution n must be a non-negative integer, got {n!r}")
    if flat.shape != (n * n,):
        raise ValueError(f"solution matrix has {flat.size} entries, expected {n * n}")
    return flat.reshape(n, n)


def _decomposition_from_json(payload: dict, what: str) -> BvnDecomposition:
    try:
        terms = tuple(
            BvnTerm(float(term["theta"]), term["ranking"]) for term in payload["terms"]
        )
        residual = float(payload.get("residual", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{what} is missing decomposition terms ({exc})") from None
    return BvnDecomposition(terms=terms, residual=residual)


def _print_json(payload: dict) -> None:
    # serialize first, so a value JSON cannot hold leaves no partial output
    sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _symmetric(ratio: Optional[float]) -> Optional[float]:
    """min(r, 1/r): 1 means parity, smaller means further from it."""
    if ratio is None:
        return None
    return min(ratio, 1.0 / ratio)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = _read_problem(args)
    parsed = [_parse_constraint_flag(problem, flag) for flag in args.constraint]
    constraints = [c for _, _, chain in parsed for c in chain]

    lp = build_lp(problem, constraints)
    if args.dump_lp:
        with open(args.dump_lp, "w", encoding="utf-8") as handle:
            handle.write(dump_lp(lp))

    report = solve(lp)
    if report.status == "infeasible":
        diagnosis = [
            check_feasibility(problem, notion, g0, g1).to_dict()
            for notion, groups, _ in parsed
            for g0, g1 in zip(groups, groups[1:])
        ]
        _print_json(
            {
                "status": "infeasible",
                "n": problem.n,
                "constraints": [{"label": c.label} for c in constraints],
                "diagnosis": diagnosis,
            }
        )
        return EXIT_INFEASIBLE

    entries = report.matrix.entries
    if args.emit_plot_data:
        with open(args.emit_plot_data, "w", encoding="utf-8") as handle:
            handle.write("item,rank,probability\n")
            for i, item in enumerate(problem.items):
                for j in range(problem.n):
                    handle.write(f"{item.id},{j + 1},{float(entries[i, j])!r}\n")

    _print_json(
        {
            "status": report.status,
            "n": problem.n,
            "objective": report.objective,
            "matrix": entries.ravel().tolist(),
            "max_violation": report.max_violation,
            "constraints": [
                {
                    "label": c.label,
                    "value": c.value(entries),
                    "residual": c.residual(entries),
                    "satisfied": bool(c.residual(entries) <= TOLERANCE),
                }
                for c in constraints
            ],
            "problem": _problem_to_json(problem),
        }
    )
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    payload = _load_json(args.solution, "solution")
    matrix = _solution_matrix(payload, "decompose")
    try:
        decomposition = decompose(matrix)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _print_json(
        {
            "n": decomposition.n,
            "terms": [
                {"theta": term.theta, "ranking": term.ranking.tolist()}
                for term in decomposition.terms
            ],
            "residual": decomposition.residual,
            "problem": payload.get("problem"),
        }
    )
    return EXIT_OK


def _item_ids(payload: dict, n: int) -> list[str]:
    """Ids of the embedded problem's items; positions when none is embedded."""
    if payload.get("problem") is None:
        return [str(i) for i in range(n)]
    try:
        ids = [row["id"] for row in payload["problem"]["items"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"decomposition is missing item ids ({exc})") from None
    if len(ids) != n:
        raise ValueError(f"decomposition ranks {n} items, its problem lists {len(ids)}")
    if not all(isinstance(i, str) for i in ids):
        raise ValueError("decomposition item ids must be strings")
    return ids


def _cmd_sample(args: argparse.Namespace) -> int:
    payload = _load_json(args.decomposition, "decomposition")
    decomposition = _decomposition_from_json(payload, "decomposition")
    ids = _item_ids(payload, decomposition.n)

    if args.user is not None:
        if args.seed is not None:
            raise ValueError("--seed applies to --count sampling, not --user")
        rankings = [sample_for_user(decomposition, args.user)]
    else:
        picks = sample_indices(
            decomposition, args.count, rng=0 if args.seed is None else args.seed
        )
        rankings = [decomposition.terms[k].ranking for k in picks]
    for ranking in rankings:
        print(",".join(ids[i] for i in ranking))
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    payload = _load_json(args.solution, "solution")
    matrix = _solution_matrix(payload, "evaluate")
    problem = _problem_from_json(payload, "solution")
    reference = permutation_matrix(prp_ranking(problem)) if args.against_optimal else None
    report = evaluate(
        matrix, problem, group_pair=_parse_group_pair(args.group_pair), reference=reference
    )
    result = report.to_dict()
    result["dtr_symmetric"] = _symmetric(report.dtr)
    result["dir_symmetric"] = _symmetric(report.dir)
    _print_json(result)
    return EXIT_OK


def _cmd_feasibility(args: argparse.Namespace) -> int:
    problem = _read_problem(args)
    pair = _parse_group_pair(args.groups)
    if pair is None:
        raise ValueError("--groups is required, e.g. --groups M,F")
    verdict = check_feasibility(problem, args.notion, pair[0], pair[1])
    _print_json(verdict.to_dict())
    return EXIT_OK if verdict.feasible else EXIT_INFEASIBLE


def _cmd_simulate(args: argparse.Namespace) -> int:
    payload = _load_json(args.decomposition, "decomposition")
    problem = _problem_from_json(payload, "decomposition")
    decomposition = _decomposition_from_json(payload, "decomposition")
    report = simulate(
        decomposition,
        problem,
        n_users=args.users,
        seed=args.seed,
        group_pair=_parse_group_pair(args.group_pair),
    )
    _print_json(report.to_dict())
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="fairexposure",
        description="Utility-maximizing rankings under exposure-fairness constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve_p = sub.add_parser("solve", help="solve an items CSV into a ranking matrix")
    solve_p.add_argument("items", nargs="?", default="-", help="items CSV ('-' = stdin)")
    solve_p.add_argument(
        "--bias",
        default="log:e",
        help="position-bias form: log:BASE or dcg:BASE:K (default log:e)",
    )
    solve_p.add_argument(
        "--constraint",
        action="append",
        default=[],
        metavar="NOTION:G1,G2[,G3...]",
        help=f"fairness constraint; repeatable; notions: {', '.join(sorted(NOTIONS))}",
    )
    solve_p.add_argument("--dump-lp", metavar="FILE", help="write the LP in text form")
    solve_p.add_argument(
        "--emit-plot-data",
        metavar="FILE",
        help="write item,rank,probability triples for heatmap tools",
    )
    solve_p.set_defaults(handler=_cmd_solve)

    dec_p = sub.add_parser("decompose", help="decompose a solution into rankings")
    dec_p.add_argument("solution", nargs="?", default="-", help="solution JSON ('-' = stdin)")
    dec_p.set_defaults(handler=_cmd_decompose)

    sample_p = sub.add_parser("sample", help="sample rankings from a decomposition")
    sample_p.add_argument(
        "decomposition", nargs="?", default="-", help="decomposition JSON ('-' = stdin)"
    )
    pick = sample_p.add_mutually_exclusive_group(required=True)
    pick.add_argument("--user", help="deterministic per-user draw from a stable key")
    pick.add_argument("--count", type=int, help="number of seeded random draws")
    sample_p.add_argument("--seed", type=int, help="seed for --count draws (default 0)")
    sample_p.set_defaults(handler=_cmd_sample)

    eval_p = sub.add_parser("evaluate", help="report utility and fairness metrics")
    eval_p.add_argument("solution", nargs="?", default="-", help="solution JSON ('-' = stdin)")
    eval_p.add_argument("--group-pair", metavar="G0,G1", help="groups for DTR/DIR")
    eval_p.add_argument(
        "--against-optimal",
        action="store_true",
        help="also report the utility cost versus the unconstrained optimum, "
        "which is the PRP ranking (items sorted by utility)",
    )
    eval_p.set_defaults(handler=_cmd_evaluate)

    feas_p = sub.add_parser("feasibility", help="check a constraint before solving")
    feas_p.add_argument("items", nargs="?", default="-", help="items CSV ('-' = stdin)")
    feas_p.add_argument(
        "--notion", required=True, choices=sorted(NOTIONS), help="fairness notion"
    )
    feas_p.add_argument("--groups", required=True, metavar="G0,G1", help="group pair")
    feas_p.add_argument("--bias", default="log:e", help="position-bias form (default log:e)")
    feas_p.set_defaults(handler=_cmd_feasibility)

    sim_p = sub.add_parser("simulate", help="Monte-Carlo click simulation")
    sim_p.add_argument(
        "decomposition", nargs="?", default="-", help="decomposition JSON ('-' = stdin)"
    )
    sim_p.add_argument("--users", type=int, default=10000, help="number of simulated users")
    sim_p.add_argument("--seed", type=int, default=0, help="simulation seed")
    sim_p.add_argument("--group-pair", metavar="G0,G1", help="groups for empirical DTR/DIR")
    sim_p.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BrokenPipeError:
        return EXIT_OK
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
