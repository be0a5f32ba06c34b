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
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bvn import BvnDecomposition, BvnTerm, decompose
from .constraints import NOTIONS, multi_group_constraints
from .core import (
    TOLERANCE,
    DoublyStochasticMatrix,
    Item,
    PositionBias,
    RankingProblem,
    _is_int,
    permutation_matrix,
    prp_ranking,
)
from .datasets import _csv_writer, read_items_csv
from .feasibility import check_feasibility
from .lp import NumericalFailure, build_lp, dump_lp, solve
from .metrics import _json_fields, evaluate
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
    """The items CSV ``args.input`` ('-' = stdin) under the ``args.bias`` form."""
    items = read_items_csv(sys.stdin if args.input == "-" else args.input)
    return RankingProblem(items=items, position_bias=_parse_bias(args.bias, len(items)))


def _load_json(path: str, what: str) -> dict:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    try:
        return _object(json.loads(text), what)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None


def _object(value, what: str) -> dict:
    """``value``, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _objects(value, what: str) -> list:
    """``value``, which must be a JSON list of JSON objects."""
    if not (isinstance(value, list) and all(isinstance(v, dict) for v in value)):
        raise ValueError(f"{what} must be a JSON list of objects")
    return value


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


def _group_list(text: str) -> list[str]:
    """The labels of ``G1,G2[,G3...]``, stripped of surrounding blanks."""
    return [g.strip() for g in text.split(",")]


def _group_pair(flag: str) -> tuple[str, str]:
    """``G0,G1``: exactly two non-empty labels."""
    pair = _group_list(flag)
    if len(pair) != 2 or not all(pair):
        raise argparse.ArgumentTypeError(f"group pair must look like 'G0,G1', got {flag!r}")
    return pair[0], pair[1]


def _constraint(flag: str) -> tuple[str, list[str]]:
    """``NOTION:G1,G2[,G3...]`` as the notion and its chain of groups."""
    notion, sep, tail = flag.partition(":")
    if not sep or not tail:
        raise argparse.ArgumentTypeError(
            f"constraint must look like 'NOTION:G1,G2', got {flag!r}; "
            f"known notions: {', '.join(sorted(NOTIONS))}"
        )
    return notion, _group_list(tail)


# ---------------------------------------------------------------------------
# JSON schema helpers: structure here, every value rule in the library types


def _problem_to_json(problem: RankingProblem) -> dict:
    return {
        "items": [_json_fields(item) for item in problem.items],
        "bias": _json_fields(problem.position_bias),
    }


def _problem_from_json(payload: dict, what: str, n: int) -> Optional[RankingProblem]:
    """The problem ``payload`` embeds, listing the ``n`` items it ranks; None if none."""
    if payload.get("problem") is None:
        return None
    try:
        problem = _object(payload["problem"], f"{what} problem")
        rows = _objects(problem["items"], f"{what} problem items")
        bias = _object(problem["bias"], f"{what} problem bias")
        # the count first, so that a short list is not blamed on the bias
        if len(rows) != n:
            raise ValueError(f"{what} ranks {n} items, its problem lists {len(rows)}")
        items = tuple(Item(row["id"], row["group"], row["utility"]) for row in rows)
        position_bias = PositionBias(bias["kind"], bias["values"])
    except KeyError as exc:
        raise ValueError(f"{what} is missing problem data ({exc})") from None
    return RankingProblem(items=items, position_bias=position_bias)


def _read_solution(path: str, command: str) -> tuple[DoublyStochasticMatrix, dict]:
    """The certified matrix of an optimal solution, and the solution itself."""
    payload = _load_json(path, "solution")
    status = payload.get("status", "optimal")
    if status != "optimal":
        raise ValueError(f"solution status is {status!r}; nothing to {command}")
    try:
        n, flat = payload["n"], np.array(payload["matrix"], dtype=object)
    except KeyError as exc:
        raise ValueError(f"solution is missing matrix data ({exc})") from None
    if not _is_int(n) or n < 0:
        raise ValueError(f"solution n must be a non-negative integer, got {n!r}")
    if flat.shape != (n * n,):
        raise ValueError(f"solution matrix must be a flat list of {n * n} entries")
    return DoublyStochasticMatrix(flat.reshape(n, n)), payload


def _read_lottery(path: str) -> tuple[BvnDecomposition, Optional[RankingProblem]]:
    """A decomposition and the problem it embeds, None when it embeds none."""
    payload = _load_json(path, "decomposition")
    try:
        rows = _objects(payload["terms"], "decomposition terms")
        terms = tuple(BvnTerm(term["theta"], term["ranking"]) for term in rows)
    except KeyError as exc:
        raise ValueError(f"decomposition is missing decomposition terms ({exc})") from None
    decomposition = BvnDecomposition(terms, payload.get("residual", 0.0))
    return decomposition, _problem_from_json(payload, "decomposition", decomposition.n)


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
    constraints = [
        c for notion, groups in args.constraint
        for c in multi_group_constraints(problem, notion, groups)
    ]

    # each flag's closed-form verdict decides; HiGHS only finds flags that conflict
    verdicts = [check_feasibility(problem, notion, *groups) for notion, groups in args.constraint]
    lp = build_lp(problem, constraints)
    if args.dump_lp:
        with open(args.dump_lp, "w", encoding="utf-8") as handle:
            handle.write(dump_lp(lp))

    report = solve(lp) if all(v.feasible for v in verdicts) else None
    if report is None or report.status == "infeasible":
        _print_json(
            {
                "status": "infeasible",
                "n": problem.n,
                "constraints": [{"label": c.label} for c in constraints],
                "diagnosis": [v.to_dict() for v in verdicts],
            }
        )
        return EXIT_INFEASIBLE

    entries = report.matrix.entries
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
    matrix, payload = _read_solution(args.input, "decompose")
    # checked as the later commands will read it, then echoed as given
    _problem_from_json(payload, "solution", matrix.n)
    decomposition = decompose(matrix)
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


def _cmd_sample(args: argparse.Namespace) -> int:
    decomposition, problem = _read_lottery(args.input)
    n = decomposition.n
    ids = [str(i) for i in range(n)] if problem is None else [it.id for it in problem.items]
    if args.user is not None:
        if args.seed is not None:
            raise ValueError("--seed applies to --count sampling, not --user")
        rankings = [sample_for_user(decomposition, os.fsencode(args.user))]
    else:
        picks = sample_indices(
            decomposition, args.count, rng=0 if args.seed is None else args.seed
        )
        rankings = [decomposition.terms[k].ranking for k in picks]
    # quoted as CSV, so an id holding a comma, quote or line break reads back whole
    _csv_writer(sys.stdout).writerows([ids[i] for i in ranking] for ranking in rankings)
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    matrix, payload = _read_solution(args.input, "evaluate")
    problem = _problem_from_json(payload, "solution", matrix.n)
    if problem is None:
        raise ValueError("solution embeds no problem; evaluate needs its items and bias")
    reference = permutation_matrix(prp_ranking(problem)) if args.against_optimal else None
    report = evaluate(matrix, problem, group_pair=args.group_pair, reference=reference)
    result = report.to_dict()
    result["dtr_symmetric"] = _symmetric(report.dtr)
    result["dir_symmetric"] = _symmetric(report.dir)
    _print_json(result)
    return EXIT_OK


def _cmd_feasibility(args: argparse.Namespace) -> int:
    problem = _read_problem(args)
    verdict = check_feasibility(problem, args.notion, *args.groups)
    _print_json(verdict.to_dict())
    return EXIT_OK if verdict.feasible else EXIT_INFEASIBLE


def _cmd_simulate(args: argparse.Namespace) -> int:
    decomposition, problem = _read_lottery(args.input)
    if problem is None:
        raise ValueError("decomposition embeds no problem; simulate needs its items and bias")
    report = simulate(
        decomposition, problem, n_users=args.users, seed=args.seed, group_pair=args.group_pair
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

    cmd = {}
    for name, source, handler, summary in (
        ("solve", "items CSV", _cmd_solve, "solve an items CSV into a ranking matrix"),
        ("decompose", "solution JSON", _cmd_decompose, "decompose a solution into rankings"),
        ("sample", "decomposition JSON", _cmd_sample, "sample rankings from a decomposition"),
        ("evaluate", "solution JSON", _cmd_evaluate, "report utility and fairness metrics"),
        ("feasibility", "items CSV", _cmd_feasibility, "check a constraint before solving"),
        ("simulate", "decomposition JSON", _cmd_simulate, "Monte-Carlo click simulation"),
    ):
        cmd[name] = sub.add_parser(name, help=summary)
        cmd[name].add_argument(
            "input", nargs="?", default="-", metavar=source.split()[0],
            help=f"{source} ('-' = stdin)",
        )
        cmd[name].set_defaults(handler=handler)
    # the flags that more than one command takes
    bias = {
        "default": "log:e",
        "help": "position-bias form: log:BASE or dcg:BASE:K (default log:e)",
    }
    pair = {"type": _group_pair, "metavar": "G0,G1"}

    cmd["solve"].add_argument("--bias", **bias)
    cmd["solve"].add_argument(
        "--constraint",
        action="append",
        default=[],
        type=_constraint,
        metavar="NOTION:G1,G2[,G3...]",
        help=f"fairness constraint; repeatable; notions: {', '.join(sorted(NOTIONS))}",
    )
    cmd["solve"].add_argument("--dump-lp", metavar="FILE", help="write the LP in text form")

    pick = cmd["sample"].add_mutually_exclusive_group(required=True)
    pick.add_argument("--user", help="deterministic per-user draw from a stable key")
    pick.add_argument("--count", type=int, help="number of seeded random draws")
    cmd["sample"].add_argument("--seed", type=int, help="seed for --count draws (default 0)")

    cmd["evaluate"].add_argument("--group-pair", help="groups for DTR/DIR", **pair)
    cmd["evaluate"].add_argument(
        "--against-optimal",
        action="store_true",
        help="also report the utility cost versus the unconstrained optimum, "
        "which is the PRP ranking (items sorted by utility)",
    )

    cmd["feasibility"].add_argument(
        "--notion", required=True, choices=sorted(NOTIONS), help="fairness notion"
    )
    cmd["feasibility"].add_argument(
        "--groups", required=True, type=_group_list, metavar="G1,G2[,G3...]",
        help="chain of groups, as in solve --constraint",
    )
    cmd["feasibility"].add_argument("--bias", **bias)

    cmd["simulate"].add_argument(
        "--users", type=int, default=10000, help="number of simulated users"
    )
    cmd["simulate"].add_argument("--seed", type=int, default=0, help="simulation seed")
    cmd["simulate"].add_argument("--group-pair", help="groups for empirical DTR/DIR", **pair)

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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    # items CSVs are UTF-8 whatever the locale, on stdin as from a path
    for stream in (sys.stdin, sys.stdout):
        if stream is not None:  # None when the descriptor is closed
            stream.reconfigure(encoding="utf-8")
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
