"""Output checks applied to every operation, outside the timed span.

Each check returns a list of ``(layer, message)`` problems; an empty list
means the output passed.  Checks never raise on a bad output, so a failure
is counted and kept rather than aborting the run.
"""

from __future__ import annotations

import json
import math

import numpy as np

from fairexposure import (
    hash_user_key,
    reconstruct,
    sample_for_user,
    term_bound,
    utility,
)

RESIDUAL_TOL = 1e-6
OBJECTIVE_RTOL = 1e-9
COF_FLOOR = -1e-9
SIM_SE = 6.0

#: Frozen per-user hash vectors (FNV-1a + splitmix64).
HASH_VECTORS = {"alice": 0xC5D1556D66774A5C, "bob": 0x6E8572D08B268DEC}

#: Scorecard objectives: (fixture, policy) -> (target, tolerance).
CANARY_OBJECTIVES = {
    ("jobseeker", "unconstrained"): (3.8193, 5e-4),
    ("jobseeker", "demographic-parity"): (3.8031, 5e-4),
    ("news", "demographic-parity"): (7.818139, 1e-6),
    ("news", "disparate-impact"): (7.830346, 1e-6),
    ("news", "disparate-treatment"): (7.892663, 1e-6),
    ("news", "unconstrained"): (7.919871, 1e-6),
}


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text) -> dict:
    """Parse JSON, rejecting NaN and Infinity (raises ValueError)."""
    return json.loads(text, parse_constant=_reject_constant)


def close(a: float, b: float, rtol: float = OBJECTIVE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def solve_problems(objective, max_violation, matrix, constraints, problem, layer="lp"):
    """Certified residual, objective == u'Pv, and every constraint residual."""
    out = []
    if not (max_violation is not None and max_violation <= RESIDUAL_TOL):
        out.append((layer, f"certified residual {max_violation} exceeds {RESIDUAL_TOL}"))
    recomputed = utility(matrix, problem)
    if objective is None or not close(objective, recomputed):
        out.append((layer, f"objective {objective!r} != utility(P) {recomputed!r}"))
    for c in constraints:
        residual = c.residual(matrix)
        if not residual <= RESIDUAL_TOL:
            out.append((layer, f"constraint {c.label} residual {residual:.3e}"))
    return out


def lottery_problems(matrix, lottery, layer="bvn"):
    """reconstruct(decompose(P)) within 1e-6 of P, with terms <= term_bound."""
    m = np.asarray(matrix, dtype=float)
    out = []
    if lottery.n != m.shape[0]:
        return [(layer, f"lottery over {lottery.n} items, matrix is {m.shape}")]
    error = float(np.abs(reconstruct(lottery) - m).max())
    if not error <= RESIDUAL_TOL:
        out.append((layer, f"reconstruction error {error:.3e}"))
    if len(lottery.terms) > term_bound(lottery.n):
        out.append((layer, f"{len(lottery.terms)} terms exceed bound {term_bound(lottery.n)}"))
    return out


def cof_problems(cof, layer="metrics"):
    if cof is None or not cof >= COF_FLOOR:
        return [(layer, f"cost of fairness {cof!r} below {COF_FLOOR}")]
    return []


def canary_problems(fixture, policy, objective, layer="lp"):
    target, tol = CANARY_OBJECTIVES[(fixture, policy)]
    if objective is None or not abs(objective - target) <= tol:
        return [(layer, f"{fixture}/{policy} objective {objective!r}, scorecard {target} ± {tol}")]
    return []


def hash_problems(hash_fn=hash_user_key, layer="sampler"):
    return [
        (layer, f"hash of {key!r} is {hash_fn(key):#018x}, frozen {want:#018x}")
        for key, want in HASH_VECTORS.items()
        if hash_fn(key) != want
    ]


def same_key_problems(lottery, key, ranking, layer="sampler"):
    """The same key must give the same ranking on a second call."""
    again = sample_for_user(lottery, key)
    if not np.array_equal(again, ranking):
        return [(layer, f"key {key!r} gave two different rankings")]
    return []


def draws_problems(draws, lottery, count, layer="sampler"):
    d = np.asarray(draws)
    if d.shape != (count,) or (count and (d.min() < 0 or d.max() >= len(lottery.terms))):
        return [(layer, f"draws shape {d.shape} or range outside 0..{len(lottery.terms) - 1}")]
    return []


def exposure_problems(groups, scale, matrix, problem, layer="simulator"):
    """Simulated group exposure within SIM_SE standard errors of the analytic value.

    ``groups`` maps a label to ``(exposure, exposure_se)``; the analytic value
    is the group's mean of ``P v`` times the simulator's probability scale.
    """
    item_exposure = np.asarray(matrix, dtype=float) @ problem.bias
    out = []
    for label in problem.group_labels:
        if label not in groups:
            out.append((layer, f"no simulated exposure for group {label!r}"))
            continue
        observed, se = groups[label]
        expected = scale * float(item_exposure[problem.group_indices(label)].mean())
        if not (math.isfinite(observed) and abs(observed - expected) <= SIM_SE * se + 1e-12):
            out.append(
                (layer, f"group {label} exposure {observed:.6f}, analytic {expected:.6f}, se {se:.2e}")
            )
    return out
