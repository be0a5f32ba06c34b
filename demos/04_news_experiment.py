"""Compare fairness notions on the 25-article synthetic news collection.

Fifteen articles from source group A and ten from group B, with utilities
derived from 1-5 star ratings plus noise.  The four policies trade utility
for fairness in a consistent order: demographic parity is the bluntest
instrument (it ignores relevance entirely), disparate impact and disparate
treatment scale exposure by merit, and the unconstrained solve is the
utility ceiling.
"""

from __future__ import annotations

from fairexposure import (
    PositionBias,
    RankingProblem,
    demographic_parity,
    disparate_impact,
    disparate_treatment,
    evaluate,
    load_synthetic_news,
    solve_problem,
)


def main() -> None:
    items = load_synthetic_news()
    problem = RankingProblem(
        items=items, position_bias=PositionBias.log_discount(len(items))
    )
    unconstrained = solve_problem(problem, [])
    baseline = evaluate(unconstrained.matrix, problem)
    for label in ("A", "B"):
        stats = baseline.group(label)
        print(
            f"group {label}: {stats.size} articles, "
            f"mean utility {stats.mean_utility:.4f}"
        )
    print()

    policies = [
        ("demographic parity", [demographic_parity(problem, "A", "B")]),
        ("disparate impact", [disparate_impact(problem, "A", "B")]),
        ("disparate treatment", [disparate_treatment(problem, "A", "B")]),
        ("unconstrained", []),
    ]

    print(
        f"{'policy':<22} {'utility':>9} {'DTR':>8} {'DIR':>8} "
        f"{'exp(A)':>8} {'exp(B)':>8}"
    )
    for name, constraints in policies:
        report = solve_problem(problem, constraints)
        metrics = evaluate(
            report.matrix, problem, reference=unconstrained.matrix.entries
        )
        exp_a = metrics.group("A").exposure
        exp_b = metrics.group("B").exposure
        print(
            f"{name:<22} {metrics.dcg:>9.4f} {metrics.dtr:>8.4f} "
            f"{metrics.dir:>8.4f} {exp_a:>8.4f} {exp_b:>8.4f}"
        )

    print()
    print("utility ordering: parity <= impact and treatment <= unconstrained,")
    print("because parity is the tightest constraint and the unconstrained")
    print("solve is the ceiling; impact and treatment sit in between.")


if __name__ == "__main__":
    main()
