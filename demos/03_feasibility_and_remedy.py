"""Show when exposure fairness is impossible — and the standard remedy.

Disparate treatment demands exposure proportional to mean utility.  But a
ranking can only stretch exposure so far: the most any group can get is the
top block of positions, the least is the bottom block.  When one group's
utility is double the other's, a six-position ranking physically cannot
deliver a 2:1 exposure ratio.  Adding items that belong to neither group
lengthens the ranking and widens the attainable range until it can.
"""

from __future__ import annotations

from fairexposure import (
    Item,
    PositionBias,
    RankingProblem,
    check_feasibility,
    disparate_treatment,
    solve_problem,
)


def build_problem(fillers: int) -> RankingProblem:
    items = [Item(id=f"a{i}", group="A", utility=0.9) for i in range(3)]
    items += [Item(id=f"b{i}", group="B", utility=0.45) for i in range(3)]
    items += [Item(id=f"pad{i}", group="other", utility=0.5) for i in range(fillers)]
    return RankingProblem(
        items=tuple(items), position_bias=PositionBias.log_discount(len(items))
    )


def describe(problem: RankingProblem) -> None:
    verdict = check_feasibility(problem, "disparate-treatment", "A", "B")
    low, high = verdict.attainable_range
    print(f"  ranking length          : {problem.n}")
    print(f"  required exposure ratio : {verdict.required_ratio:.4f}")
    print(f"  attainable ratio range  : [{low:.4f}, {high:.4f}]")
    print(f"  feasible                : {verdict.feasible}")
    if verdict.note:
        print(f"  note                    : {verdict.note}")

    report = solve_problem(problem, [disparate_treatment(problem, "A", "B")])
    print(f"  LP status               : {report.status}")
    if report.optimal:
        print(f"  objective               : {report.objective:.6f}")


def main() -> None:
    print("A-group utility 0.9, B-group utility 0.45 — ratio 2.0\n")
    print("bare six-item instance:")
    describe(build_problem(fillers=0))

    for fillers in (3, 6):
        print(f"\nwith {fillers} neutral filler items (utility 0.5):")
        describe(build_problem(fillers=fillers))


if __name__ == "__main__":
    main()
