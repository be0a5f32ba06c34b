"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

import fairexposure
from fairexposure import simulator
from fairexposure.bvn import BvnDecomposition, BvnTerm
from fairexposure.cli import main
from fairexposure.core import (
    PositionBias,
    RankingProblem,
    permutation_matrix,
    prp_ranking,
    stochastic_violation,
    utility,
)
from fairexposure.datasets import read_items_csv
from fairexposure.sampler import sample_for_user, sample_indices

JOBSEEKER_CSV = (
    "id,group,utility\n"
    "m1,M,0.82\nm2,M,0.81\nm3,M,0.8\nf1,F,0.79\nf2,F,0.78\nf3,F,0.77\n"
)
NEWS_CSV = resources.files("fairexposure").joinpath("data", "synthetic_news.csv")

# The news-fixture pipeline: (name, arguments, whose stdout feeds stdin),
# and the sha256 prefix of each command's stdout.
NEWS_PIPELINE = (
    ("solve", ["solve", "-", "--constraint", "demographic-parity:A,B"], "csv"),
    ("decompose", ["decompose"], "solve"),
    ("sample_count", ["sample", "--count", "10", "--seed", "7"], "decompose"),
    ("sample_user", ["sample", "--user", "user-7"], "decompose"),
    ("evaluate", ["evaluate", "--against-optimal"], "solve"),
    ("feasibility", ["feasibility", "-", "--notion", "disparate-treatment", "--groups", "A,B"], "csv"),
    ("simulate", ["simulate", "--users", "10000", "--seed", "7"], "decompose"),
)
NEWS_PIPELINE_SHA256 = {
    "solve": "51286a5548b5d0bb",
    "decompose": "7bf2481c86a629ef",
    "sample_count": "2bbe77230919bf48",
    "sample_user": "e7aee8a806c47b6d",
    "evaluate": "1c861a8e862d2e02",
    "feasibility": "3880778de550971c",
    "simulate": "567a9c1a37e8adaa",
}
# Malformed problem data for every command that reads an embedded problem:
# (change to the payload, expected error).
PROBLEM_CHANGES = {
    "boolean-utility": (
        lambda p: p["problem"]["items"][0].update(utility=True),
        "must be a number in [0, 1], got True",
    ),
    "string-utility": (
        lambda p: p["problem"]["items"][0].update(utility="0.5"),
        "must be a number in [0, 1], got '0.5'",
    ),
    "utility-above-one": (
        lambda p: p["problem"]["items"][0].update(utility=2.0),
        "must be a number in [0, 1], got 2.0",
    ),
    "string-bias-value": (
        lambda p: p["problem"]["bias"]["values"].__setitem__(0, "1.4"),
        "position bias entries must be numbers",
    ),
    "nan-bias-value": (
        lambda p: p["problem"]["bias"]["values"].__setitem__(2, float("nan")),
        "position bias entries must be finite numbers",
    ),
    "infinite-bias-value": (
        lambda p: p["problem"]["bias"]["values"].__setitem__(0, float("inf")),
        "position bias entries must be finite numbers",
    ),
    "increasing-bias": (
        lambda p: p["problem"]["bias"]["values"].reverse(),
        "position bias must be non-increasing",
    ),
    "missing-group": (
        lambda p: [row.pop("group") for row in p["problem"]["items"]],
        "is missing problem data ('group')",
    ),
    "empty-id": (lambda p: p["problem"]["items"][0].update(id=""), "empty item id"),
    "null-bias-kind": (
        lambda p: p["problem"]["bias"].update(kind=None),
        "position bias kind must be a string, got None",
    ),
    "number-problem": (lambda p: p.update(problem=0), "problem must be a JSON object"),
    "string-problem": (lambda p: p.update(problem="x"), "problem must be a JSON object"),
    "number-items": (
        lambda p: p["problem"].update(items=5),
        "problem items must be a JSON list of objects",
    ),
    "string-bias": (lambda p: p["problem"].update(bias="x"), "problem bias must be a JSON object"),
}
# Malformed lottery terms: (change to the payload, expected error).
TERM_CHANGES = {
    "string-theta": (
        lambda p: p["terms"][0].update(theta=str(p["terms"][0]["theta"])),
        "theta must be a number",
    ),
    "boolean-theta": (lambda p: p["terms"][0].update(theta=True), "theta must be a number"),
    "string-residual": (lambda p: p.update(residual="0"), "residual must be a number"),
    "boolean-residual": (lambda p: p.update(residual=False), "residual must be a number"),
    "number-term": (
        lambda p: p.update(terms=[5]),
        "decomposition terms must be a JSON list of objects",
    ),
    # numpy would read the list as integers, True as item 1
    "boolean-ranking": (
        lambda p: p["terms"][0].update(
            ranking=[True if i == 1 else i for i in p["terms"][0]["ranking"]]
        ),
        "ranking entries must be integers, got [",
    ),
    "ragged-ranking": (
        lambda p: p["terms"][0].update(ranking=[0, 1, [], 3, 4, 5]),
        "ranking entries must be integers, got [0, 1, [], 3, 4, 5]",
    ),
    # numpy holds 2**63 as a float and 2**70 as an object, never as an integer
    "beyond-int64-ranking": (
        lambda p: p["terms"][0].update(ranking=[0, 1, 2, 3, 4, 2**63]),
        "not a permutation of 0..5: [0, 1, 2, 3, 4, 9223372036854775808]",
    ),
    "beyond-uint64-ranking": (
        lambda p: p["terms"][0].update(ranking=[0, 1, 2, 3, 4, 2**70]),
        "not a permutation of 0..5: [0, 1, 2, 3, 4, 1180591620717411303424]",
    ),
}
# Python's and numpy's own wording, which no error message may pass on
FOREIGN_TEXT = ("not subscriptable", "has no len()", "inhomogeneous shape")
LOTTERY_COMMANDS = {
    "sample-count": ["sample", "--count", "2"],
    "sample-user": ["sample", "--user", "alice"],
    "simulate": ["simulate", "--users", "10"],
}
ADVERSARIAL_CSV = (
    "id,group,utility\n"
    "a1,A,0.9\na2,A,0.9\na3,A,0.9\nb1,B,0.45\nb2,B,0.45\nb3,B,0.45\n"
)
# a treatment chain A,B,C that is infeasible although A,B and B,C are not
CHAIN_CSV = (
    "id,group,utility\n"
    "0,C,0.523\n1,B,0.867\n2,B,0.128\n3,B,0.69\n4,C,0.342\n5,C,0.725\n6,A,0.307\n"
)


@pytest.fixture
def run(capsys, monkeypatch):
    def _run(args, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def jobseeker_file(tmp_path):
    path = tmp_path / "jobseeker.csv"
    path.write_text(JOBSEEKER_CSV, encoding="utf-8")
    return str(path)


def strict_json(text):
    """``json.loads`` that rejects NaN and Infinity."""

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def solve_json(run, jobseeker_file, *extra):
    code, out, err = run(["solve", jobseeker_file, *extra])
    assert code == 0, err
    return json.loads(out)


class TestSolve:
    def test_unconstrained_objective_and_schema(self, run, jobseeker_file):
        payload = solve_json(run, jobseeker_file)
        assert payload["status"] == "optimal"
        assert payload["n"] == 6
        assert payload["objective"] == pytest.approx(3.8193, abs=5e-4)
        matrix = np.array(payload["matrix"]).reshape(6, 6)
        # unconstrained optimum is a deterministic ranking
        np.testing.assert_allclose(np.sort(matrix.ravel())[-6:], 1.0, atol=1e-6)
        ids = [row["id"] for row in payload["problem"]["items"]]
        assert ids == ["m1", "m2", "m3", "f1", "f2", "f3"]
        assert len(payload["problem"]["bias"]["values"]) == 6

    def test_parity_constraint_satisfied(self, run, jobseeker_file):
        payload = solve_json(
            run, jobseeker_file, "--constraint", "demographic-parity:M,F"
        )
        assert payload["objective"] == pytest.approx(3.8031, abs=5e-4)
        (entry,) = payload["constraints"]
        assert entry["label"] == "demographic-parity:M,F"
        assert entry["satisfied"] is True
        assert abs(entry["residual"]) <= 1e-6

    def test_reads_stdin_by_default(self, run):
        code, out, _ = run(["solve"], stdin_text=JOBSEEKER_CSV)
        assert code == 0
        assert json.loads(out)["n"] == 6

    def test_dcg_bias_flag(self, run, jobseeker_file):
        payload = solve_json(run, jobseeker_file, "--bias", "dcg:2:3")
        expected = PositionBias.dcg_at_k(6, k=3, base=2)
        assert payload["problem"]["bias"]["kind"] == expected.kind
        np.testing.assert_allclose(payload["problem"]["bias"]["values"], expected.values)

    def test_three_group_chain(self, run, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text(
            "id,group,utility\na,A,0.9\nb,B,0.8\nc,C,0.7\nd,A,0.6\ne,B,0.5\nf,C,0.4\n",
            encoding="utf-8",
        )
        payload = solve_json(run, str(path), "--constraint", "demographic-parity:A,B,C")
        labels = [c["label"] for c in payload["constraints"]]
        assert len(labels) == 2
        assert all(c["satisfied"] for c in payload["constraints"])

    @pytest.mark.parametrize(
        "flag",
        ["demographic-parity:A,B", "disparate-impact:A,B", "disparate-treatment:A,B"],
    )
    def test_max_violation_is_largest_printed_residual(self, run, flag):
        code, out, err = run(
            ["solve", "-", "--constraint", flag], stdin_text=NEWS_CSV.read_text("utf-8")
        )
        assert code == 0, err
        payload = json.loads(out)
        n = payload["n"]
        matrix = np.array(payload["matrix"]).reshape(n, n)
        residuals = [c["residual"] for c in payload["constraints"]]
        assert payload["max_violation"] == max([stochastic_violation(matrix)] + residuals)

    def test_infeasible_exits_2_with_diagnosis(self, run, tmp_path):
        path = tmp_path / "adv.csv"
        path.write_text(ADVERSARIAL_CSV, encoding="utf-8")
        code, out, _ = run(
            ["solve", str(path), "--constraint", "disparate-treatment:A,B"]
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["status"] == "infeasible"
        (diagnosis,) = payload["diagnosis"]
        assert diagnosis["feasible"] is False
        assert diagnosis["attainable_range"][0] > 0
        assert "lengthen" in diagnosis["note"] or "ranking" in diagnosis["note"]

    def test_conflicting_flags_are_found_by_the_solver(self, run, jobseeker_file):
        # each flag alone is feasible, but no matrix meets both rows
        code, out, _ = run(
            [
                "solve",
                jobseeker_file,
                "--constraint",
                "demographic-parity:M,F",
                "--constraint",
                "disparate-treatment:M,F",
            ]
        )
        assert code == 2
        payload = strict_json(out)
        assert payload["status"] == "infeasible"
        assert [d["feasible"] for d in payload["diagnosis"]] == [True, True]
        assert [d["method"] for d in payload["diagnosis"]] == ["witness", "closed-form"]

    def test_infeasible_chain_gives_one_chain_verdict(self, run):
        code, out, _ = run(
            ["solve", "--constraint", "disparate-treatment:A,B,C"], stdin_text=CHAIN_CSV
        )
        assert code == 2
        payload = strict_json(out)
        assert len(payload["constraints"]) == 2
        (diagnosis,) = payload["diagnosis"]
        assert diagnosis["feasible"] is False
        assert diagnosis["groups"] == ["A", "B", "C"]
        assert "attainable_range" not in diagnosis and "required_ratio" not in diagnosis

    def test_empty_items_file_is_usage_error(self, run, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        code, _, err = run(["solve", str(path)])
        assert code == 1
        assert "empty input" in err

    def test_parse_error_carries_line_number(self, run):
        code, _, err = run(["solve"], stdin_text="id,group,utility\nx,G,oops\n")
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("flag", ["log:e", "log:natural", "log:2", "log:2.0", "dcg:2.0:3"])
    def test_log_base_spellings(self, run, jobseeker_file, flag):
        solve_json(run, jobseeker_file, "--bias", flag)

    def test_unsupported_log_base(self, run, jobseeker_file):
        code, out, err = run(["solve", jobseeker_file, "--bias", "log:10"])
        assert code == 1 and out == ""
        assert "unsupported log base" in err

    def test_other_solver_status_exits_3(self, run, jobseeker_file, monkeypatch):
        unbounded = OptimizeResult(status=3, message="The problem is unbounded.", nit=0)
        monkeypatch.setattr("scipy.optimize.linprog", lambda *args, **kwargs: unbounded)
        code, out, err = run(["solve", jobseeker_file])
        assert code == 3 and out == ""
        assert "status 3" in err and "Traceback" not in err

    def test_uncertified_optimum_exits_3(self, run, jobseeker_file, monkeypatch):
        # a status-0 point off the polytope: every row and column sums to 0
        off = OptimizeResult(
            status=0, message="Optimization terminated successfully.", nit=0, x=np.zeros(36)
        )
        monkeypatch.setattr("scipy.optimize.linprog", lambda *args, **kwargs: off)
        code, out, err = run(["solve", jobseeker_file])
        assert code == 3 and out == ""
        assert "claimed optimum violates constraints" in err and "Traceback" not in err

    def test_bad_bias_flag(self, run, jobseeker_file):
        code, _, err = run(["solve", jobseeker_file, "--bias", "linear:3"])
        assert code == 1
        assert "bias" in err

    def test_unknown_group_label(self, run, jobseeker_file):
        code, _, err = run(
            ["solve", jobseeker_file, "--constraint", "demographic-parity:M,X"]
        )
        assert code == 1
        assert "X" in err

    def test_missing_file(self, run):
        code, _, err = run(["solve", "/nonexistent/items.csv"])
        assert code == 1
        assert "error" in err

    def test_dump_lp(self, run, jobseeker_file, tmp_path):
        lp_path = tmp_path / "model.lp"
        code, _, _ = run(["solve", jobseeker_file, "--dump-lp", str(lp_path)])
        assert code == 0
        text = lp_path.read_text(encoding="utf-8")
        assert text.startswith("Maximize")
        assert "row_sum_0" in text and "col_sum_5" in text

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--bias", "dcg:e:x"], "bias cutoff must be an integer, got 'x'"),
            (["--bias", "log:x"], "unsupported log base 'x'"),
            (["--constraint", "demographic-parity"], "constraint must look like 'NOTION:G1,G2'"),
        ],
        ids=["dcg-cutoff", "log-base", "constraint-without-groups"],
    )
    def test_malformed_flag_rejected(self, run, jobseeker_file, flags, message):
        code, out, err = run(["solve", jobseeker_file, *flags])
        assert (code, out) == (1, "")
        assert message in err and "Traceback" not in err


class TestDecompose:
    def test_parity_solution_two_terms(self, run, jobseeker_file):
        solution = solve_json(
            run, jobseeker_file, "--constraint", "demographic-parity:M,F"
        )
        code, out, _ = run(["decompose"], stdin_text=json.dumps(solution))
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 6
        assert len(payload["terms"]) == 2
        thetas = [term["theta"] for term in payload["terms"]]
        assert sum(thetas) == pytest.approx(1.0, abs=1e-9)
        for term in payload["terms"]:
            assert sorted(term["ranking"]) == list(range(6))
        assert payload["problem"]["items"][0]["id"] == "m1"

    def test_permutation_solution_single_term(self, run, jobseeker_file):
        solution = solve_json(run, jobseeker_file)
        code, out, _ = run(["decompose"], stdin_text=json.dumps(solution))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["terms"]) == 1
        assert payload["terms"][0]["theta"] == pytest.approx(1.0)

    def test_tampered_matrix_rejected(self, run, jobseeker_file):
        solution = solve_json(run, jobseeker_file)
        solution["matrix"][0] = 0.5
        code, _, err = run(["decompose"], stdin_text=json.dumps(solution))
        assert code == 1
        assert "doubly stochastic" in err

    @pytest.mark.parametrize("n", ["1.5", "true", "-1", "1e400"])
    @pytest.mark.parametrize("command", ["decompose", "evaluate"])
    def test_non_integer_n_rejected(self, run, command, n):
        code, out, err = run([command], stdin_text=f'{{"n": {n}, "matrix": [1.0]}}')
        assert code == 1 and out == ""
        assert "solution n must be a non-negative integer" in err

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda m: m.pop(), "solution matrix must be a flat list of 36 entries"),
            (lambda m: m.__setitem__(0, "1.0"), "matrix entries must be numbers"),
            (lambda m: m.__setitem__(1, False), "matrix entries must be numbers"),
            (lambda m: m.__setitem__(0, 0.9), "matrix is not doubly stochastic within 1e-06"),
        ],
        ids=["short", "string-entry", "boolean-entry", "not-doubly-stochastic"],
    )
    @pytest.mark.parametrize("command", ["decompose", "evaluate"])
    def test_malformed_matrix_rejected(self, run, jobseeker_file, command, change, message):
        solution = solve_json(run, jobseeker_file)
        change(solution["matrix"])
        code, out, err = run([command], stdin_text=json.dumps(solution))
        assert (code, out) == (1, "")
        assert message in err and "Traceback" not in err

    def test_empty_matrix_rejected(self, run):
        code, out, err = run(["decompose"], stdin_text=json.dumps({"n": 0, "matrix": []}))
        assert code == 1
        assert out == ""
        assert "non-empty square matrix" in err and "Traceback" not in err

    def test_infeasible_solution_rejected(self, run):
        payload = {"status": "infeasible", "n": 6}
        code, _, err = run(["decompose"], stdin_text=json.dumps(payload))
        assert code == 1
        assert "nothing to decompose" in err

    def test_garbage_input_rejected(self, run):
        code, _, err = run(["decompose"], stdin_text="not json")
        assert code == 1
        assert "not valid JSON" in err


@pytest.fixture
def parity_decomposition(run, jobseeker_file):
    solution = solve_json(
        run, jobseeker_file, "--constraint", "demographic-parity:M,F"
    )
    code, out, _ = run(["decompose"], stdin_text=json.dumps(solution))
    assert code == 0
    return out


class TestSample:
    def test_user_draws_are_deterministic(self, run, parity_decomposition):
        first = run(["sample", "--user", "alice"], stdin_text=parity_decomposition)
        second = run(["sample", "--user", "alice"], stdin_text=parity_decomposition)
        assert first[0] == 0 and first[1] == second[1]
        assert len(first[1].splitlines()) == 1

    def test_lines_are_item_id_permutations(self, run, parity_decomposition):
        code, out, _ = run(
            ["sample", "--count", "5", "--seed", "1"], stdin_text=parity_decomposition
        )
        assert code == 0
        for line in out.splitlines():
            assert sorted(line.split(",")) == ["f1", "f2", "f3", "m1", "m2", "m3"]

    def test_seeded_frequencies_match_weights(self, run, parity_decomposition):
        payload = json.loads(parity_decomposition)
        thetas = {
            ",".join(
                str(payload["problem"]["items"][i]["id"]) for i in term["ranking"]
            ): term["theta"]
            for term in payload["terms"]
        }
        code, out, _ = run(
            ["sample", "--count", "100000", "--seed", "7"],
            stdin_text=parity_decomposition,
        )
        assert code == 0
        counts = Counter(out.splitlines())
        assert sum(counts.values()) == 100000
        for line, count in counts.items():
            assert count / 100000 == pytest.approx(thetas[line], abs=0.01)

    def test_count_zero_empty_output(self, run, parity_decomposition):
        code, out, _ = run(
            ["sample", "--count", "0", "--seed", "1"], stdin_text=parity_decomposition
        )
        assert code == 0 and out == ""

    def test_same_seed_same_lines(self, run, parity_decomposition):
        first = run(
            ["sample", "--count", "50", "--seed", "9"], stdin_text=parity_decomposition
        )
        second = run(
            ["sample", "--count", "50", "--seed", "9"], stdin_text=parity_decomposition
        )
        assert first[1] == second[1]

    def test_user_key_hashes_its_command_line_bytes(self, run, parity_decomposition):
        # "\udcff" is how Python reads the non-UTF-8 argument byte 0xff
        code, out, err = run(["sample", "--user", "\udcff"], stdin_text=parity_decomposition)
        assert code == 0, err
        payload = json.loads(parity_decomposition)
        dec = BvnDecomposition(
            tuple(BvnTerm(t["theta"], t["ranking"]) for t in payload["terms"]),
            payload["residual"],
        )
        ids = [it["id"] for it in payload["problem"]["items"]]
        assert out == ",".join(ids[i] for i in sample_for_user(dec, b"\xff")) + "\n"

    def test_lines_read_back_as_csv(self, run, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text(
            'id,group,utility\n"x,1",A,0.9\n"y""2",B,0.8\n"z\n3",A,0.7\nw4,B,0.6\n',
            encoding="utf-8",
        )
        code, solution, err = run(["solve", str(path), "--constraint", "demographic-parity:A,B"])
        assert code == 0, err
        code, lottery, err = run(["decompose"], stdin_text=solution)
        assert code == 0, err
        payload = json.loads(lottery)
        dec = BvnDecomposition(
            tuple(BvnTerm(t["theta"], t["ranking"]) for t in payload["terms"]),
            payload["residual"],
        )
        ids = [it["id"] for it in payload["problem"]["items"]]
        assert ids == ["x,1", 'y"2', "z\n3", "w4"]
        expected = {
            "--user": [sample_for_user(dec, b"alice")],
            "--count": [dec.terms[k].ranking for k in sample_indices(dec, 5, rng=1)],
        }
        for flag, args in (("--user", ["alice"]), ("--count", ["5", "--seed", "1"])):
            code, out, err = run(["sample", flag, *args], stdin_text=lottery)
            assert code == 0, err
            rows = list(csv.reader(io.StringIO(out, newline="")))
            assert rows == [[ids[i] for i in ranking] for ranking in expected[flag]]

    def test_carriage_return_id_reads_back(self, run, tmp_path):
        path = tmp_path / "cr.csv"
        path.write_text('id,group,utility\n"a\rb",A,0.9\nc,A,0.5\nd,B,0.7\ne,B,0.3\n', "utf-8")
        code, solution, err = run(["solve", str(path), "--constraint", "demographic-parity:A,B"])
        assert code == 0, err
        code, lottery, err = run(["decompose"], stdin_text=solution)
        assert code == 0, err
        code, out, err = run(["sample", "--count", "3", "--seed", "1"], stdin_text=lottery)
        assert code == 0, err
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert len(rows) == 3
        assert all(sorted(row) == ["a\rb", "c", "d", "e"] for row in rows)

    def test_closed_stdout_exits_0(self, run, parity_decomposition, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code, _, err = run(["sample", "--count", "5"], stdin_text=parity_decomposition)
        assert code == 0 and err == ""

    def test_unallocatable_count_is_input_error(self, run, parity_decomposition):
        # 10**17 float64 draws exceed any address space, so numpy refuses at once
        code, out, err = run(
            ["sample", "--count", str(10**17)], stdin_text=parity_decomposition
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_user_and_seed_conflict(self, run, parity_decomposition):
        code, _, err = run(
            ["sample", "--user", "alice", "--seed", "3"],
            stdin_text=parity_decomposition,
        )
        assert code == 1
        assert "--seed" in err

    def test_missing_selector_is_usage_error(self, run, parity_decomposition):
        code, _, _ = run(["sample"], stdin_text=parity_decomposition)
        assert code == 1

    @pytest.mark.parametrize("residual", [float("nan"), 0.4])
    def test_partial_lottery_rejected(self, run, parity_decomposition, residual):
        payload = json.loads(parity_decomposition)
        payload["terms"] = [{"theta": 0.6, "ranking": payload["terms"][0]["ranking"]}]
        payload["residual"] = residual
        code, out, err = run(["sample", "--count", "1"], stdin_text=json.dumps(payload))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_fractional_ranking_rejected(self, run, parity_decomposition):
        # truncation would turn each ranking back into the valid one
        payload = json.loads(parity_decomposition)
        for term in payload["terms"]:
            term["ranking"] = [i + 0.5 for i in term["ranking"]]
        code, out, err = run(["sample", "--count", "1"], stdin_text=json.dumps(payload))
        assert code == 1
        assert out == ""
        assert "ranking entries must be integers" in err and "Traceback" not in err

    def test_boolean_ranking_rejected(self, run):
        payload = {"n": 2, "terms": [{"theta": 1.0, "ranking": [True, False]}]}
        code, out, err = run(["sample", "--count", "1"], stdin_text=json.dumps(payload))
        assert code == 1
        assert out == ""
        assert "ranking entries must be integers" in err

    def test_negative_seed_rejected(self, run, parity_decomposition):
        code, out, err = run(
            ["sample", "--count", "10", "--seed", "-1"], stdin_text=parity_decomposition
        )
        assert code == 1
        assert out == ""
        assert "seed must be a non-negative integer, got -1" in err

    @pytest.mark.parametrize("row", [{"group": "M", "utility": 0.5}, "m1"])
    def test_items_without_ids_is_usage_error(self, run, parity_decomposition, row):
        payload = json.loads(parity_decomposition)
        payload["problem"]["items"] = [row] * 6
        code, out, err = run(["sample", "--count", "1"], stdin_text=json.dumps(payload))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_item_count_mismatch_rejected(self, run, parity_decomposition):
        payload = json.loads(parity_decomposition)
        payload["problem"]["items"].pop()
        code, out, err = run(["sample", "--count", "2"], stdin_text=json.dumps(payload))
        assert (code, out) == (1, "")
        assert err == "error: decomposition ranks 6 items, its problem lists 5\n"

    def test_positional_ids_without_problem(self, run, parity_decomposition):
        payload = json.loads(parity_decomposition)
        payload["problem"] = None
        code, out, _ = run(["sample", "--count", "3"], stdin_text=json.dumps(payload))
        assert code == 0
        for line in out.splitlines():
            assert sorted(line.split(",")) == [str(i) for i in range(6)]


class TestEvaluate:
    def test_prp_metrics(self, run, jobseeker_file):
        solution = solve_json(run, jobseeker_file)
        code, out, _ = run(["evaluate"], stdin_text=json.dumps(solution))
        assert code == 0
        payload = json.loads(out)
        assert payload["dcg"] == pytest.approx(3.8193, abs=5e-4)
        assert payload["dtr"] == pytest.approx(1.7483, abs=1e-3)
        assert payload["dtr_symmetric"] == pytest.approx(1 / 1.7483, abs=1e-3)

    def test_parity_solution_exposure_gap(self, run, jobseeker_file):
        solution = solve_json(
            run, jobseeker_file, "--constraint", "demographic-parity:M,F"
        )
        code, out, _ = run(["evaluate"], stdin_text=json.dumps(solution))
        assert code == 0
        payload = json.loads(out)
        gap = payload["groups"]["M"]["exposure"] - payload["groups"]["F"]["exposure"]
        assert abs(gap) <= 1e-6

    def test_against_optimal_adds_cost(self, run, jobseeker_file):
        solution = solve_json(
            run, jobseeker_file, "--constraint", "demographic-parity:M,F"
        )
        code, out, _ = run(
            ["evaluate", "--against-optimal"], stdin_text=json.dumps(solution)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cof"] == pytest.approx(0.0162, abs=1e-3)

    @pytest.mark.parametrize(
        "csv_text, groups",
        [(JOBSEEKER_CSV, "M,F"), (NEWS_CSV.read_text("utf-8"), "A,B")],
        ids=["jobseeker", "news"],
    )
    def test_against_optimal_reference_is_prp(self, run, csv_text, groups):
        code, out, err = run(
            ["solve", "--constraint", f"demographic-parity:{groups}"], stdin_text=csv_text
        )
        assert code == 0, err
        code, out, err = run(["evaluate", "--against-optimal"], stdin_text=out)
        assert code == 0, err
        payload = json.loads(out)
        items = read_items_csv(io.StringIO(csv_text))
        problem = RankingProblem(
            items=items, position_bias=PositionBias.log_discount(len(items))
        )
        best = utility(permutation_matrix(prp_ranking(problem)), problem)
        assert payload["cof"] == best - payload["dcg"]

    @pytest.mark.parametrize(
        "change", [lambda p: p.pop("problem"), lambda p: p.update(problem=None)],
        ids=["missing", "null"],
    )
    def test_solution_without_problem_rejected(self, run, jobseeker_file, change):
        solution = solve_json(run, jobseeker_file)
        change(solution)
        code, out, err = run(["evaluate"], stdin_text=json.dumps(solution))
        assert (code, out) == (1, "")
        assert err == "error: solution embeds no problem; evaluate needs its items and bias\n"

    def test_group_pair_flip_inverts_ratio(self, run, jobseeker_file):
        solution = solve_json(run, jobseeker_file)
        _, out_mf, _ = run(
            ["evaluate", "--group-pair", "M,F"], stdin_text=json.dumps(solution)
        )
        _, out_fm, _ = run(
            ["evaluate", "--group-pair", "F,M"], stdin_text=json.dumps(solution)
        )
        dtr_mf = json.loads(out_mf)["dtr"]
        dtr_fm = json.loads(out_fm)["dtr"]
        assert dtr_mf * dtr_fm == pytest.approx(1.0, abs=1e-9)

    def test_undefined_ratio_is_null_as_in_simulate(self, run, jobseeker_file):
        # dcg@3 leaves all of F in the zero tail: F has no exposure or clicks
        solution = json.dumps(solve_json(run, jobseeker_file, "--bias", "dcg:e:3"))
        code, out, err = run(["evaluate"], stdin_text=solution)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["groups"]["F"]["exposure"] == 0.0
        for key in ("dtr", "dir", "dtr_symmetric", "dir_symmetric"):
            assert payload[key] is None
        code, out, err = run(["decompose"], stdin_text=solution)
        assert code == 0, err
        code, out, err = run(["simulate", "--users", "1000"], stdin_text=out)
        assert code == 0, err
        simulated = json.loads(out)
        assert simulated["dtr"] is None and simulated["dir"] is None

    def test_negative_exposure_of_certified_matrix_gives_null_ratio(self, run):
        # entries -5e-7 certify, and leave B with exposure -7.2e-7 in the
        # dcg@1 tail: the ratio is undefined, not an error
        solution = json.dumps(
            {
                "status": "optimal",
                "n": 2,
                "matrix": [1 + 5e-7, -5e-7, -5e-7, 1 + 5e-7],
                "problem": {
                    "items": [
                        {"id": "a", "group": "A", "utility": 0.5},
                        {"id": "b", "group": "B", "utility": 0.5},
                    ],
                    "bias": {"kind": "dcg@k", "values": [1.4427, 0.0]},
                },
            }
        )
        code, _, err = run(["decompose"], stdin_text=solution)
        assert code == 0, err
        code, out, err = run(["evaluate"], stdin_text=solution)
        assert code == 0, err
        payload = strict_json(out)
        assert payload["groups"]["B"]["exposure"] < 0
        assert payload["dtr"] is None and payload["dir"] is None

    def test_against_optimal_accepts_certified_matrix_above_optimum(self, run, jobseeker_file):
        # every row and column sums to 1 + 1e-6, so the identity, the PRP
        # ranking here, is certified and beats the reference by 3.8e-6
        solution = solve_json(run, jobseeker_file)
        solution["matrix"] = (np.eye(6) * (1 + 1e-6)).ravel().tolist()
        code, out, err = run(["evaluate", "--against-optimal"], stdin_text=json.dumps(solution))
        assert code == 0, err
        assert -3.9e-6 < json.loads(out)["cof"] < -3.8e-6

    def test_infeasible_solution_rejected(self, run):
        code, _, err = run(
            ["evaluate"], stdin_text=json.dumps({"status": "infeasible"})
        )
        assert code == 1
        assert "nothing to evaluate" in err

    def test_same_group_twice_rejected(self, run, jobseeker_file):
        solution = json.dumps(solve_json(run, jobseeker_file))
        code, out, err = run(["evaluate", "--group-pair", "M,M"], stdin_text=solution)
        assert code == 1 and out == ""
        assert "the two groups must differ, both are 'M'" in err

    @pytest.mark.parametrize("flag", ["M", "M,F,M", "M,"])
    def test_group_pair_needs_two_labels(self, run, flag):
        code, out, err = run(["evaluate", "--group-pair", flag], stdin_text="{}")
        assert code == 1 and out == ""
        assert f"group pair must look like 'G0,G1', got {flag!r}" in err


class TestFeasibility:
    def test_feasible_verdict(self, run, jobseeker_file):
        code, out, _ = run(
            [
                "feasibility",
                jobseeker_file,
                "--notion",
                "disparate-treatment",
                "--groups",
                "M,F",
            ]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert payload["required_ratio"] == pytest.approx(0.81 / 0.78)

    def test_infeasible_verdict_exits_2(self, run, tmp_path):
        path = tmp_path / "adv.csv"
        path.write_text(ADVERSARIAL_CSV, encoding="utf-8")
        code, out, _ = run(
            [
                "feasibility",
                str(path),
                "--notion",
                "disparate-treatment",
                "--groups",
                "A,B",
            ]
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["feasible"] is False
        assert len(payload["attainable_range"]) == 2
        assert payload["note"]

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--constraint", "disparate-impact:A,B"],
            ["feasibility", "--notion", "disparate-impact", "--groups", "A,B"],
        ],
        ids=["solve", "feasibility"],
    )
    def test_impact_error_names_the_impact_row(self, run, args):
        # B's coefficient -1 / (1 · 5e-324) overflows to -inf
        code, out, err = run(args, stdin_text="id,group,utility\na,A,0.5\nb,B,5e-324\n")
        assert (code, out) == (1, "")
        assert "constraint 'disparate-impact:A,B' has a non-finite f, g or h" in err

    def test_chain_exits_2(self, run):
        code, out, _ = run(
            ["feasibility", "--notion", "disparate-treatment", "--groups", "A, B,C"],
            stdin_text=CHAIN_CSV,
        )
        assert code == 2
        payload = strict_json(out)
        assert payload["feasible"] is False
        assert payload["groups"] == ["A", "B", "C"]
        assert "the least A can get" in payload["note"]

    def test_thirty_group_chain_is_diagnosed(self, run):
        # every 2^30 - 1 group set would never finish; the prefixes take milliseconds
        labels = [f"g{k}" for k in range(30)]
        csv = "id,group,utility\n" + "".join(
            f"{g}_{j},{g},{0.99 if k == 0 else 0.01 + 0.001 * k}\n"
            for k, g in enumerate(labels)
            for j in range(2)
        )
        code, out, _ = run(
            ["feasibility", "--notion", "disparate-treatment", "--groups", ",".join(labels)],
            stdin_text=csv,
        )
        assert code == 2
        verdict = strict_json(out)
        assert verdict["feasible"] is False and verdict["groups"] == labels
        code, out, _ = run(
            ["solve", "--constraint", "disparate-treatment:" + ",".join(labels)], stdin_text=csv
        )
        assert code == 2
        payload = strict_json(out)
        assert payload["status"] == "infeasible" and payload["diagnosis"] == [verdict]

    def test_parity_uses_witness(self, run, jobseeker_file):
        code, out, _ = run(
            [
                "feasibility",
                jobseeker_file,
                "--notion",
                "demographic-parity",
                "--groups",
                "M,F",
            ]
        )
        assert code == 0
        assert json.loads(out)["method"] == "witness"

    @pytest.mark.parametrize(
        "notion", ["demographic-parity", "disparate-impact", "disparate-treatment"]
    )
    def test_identical_groups_rejected(self, run, notion):
        code, out, err = run(
            ["feasibility", "-", "--notion", notion, "--groups", "A,A"],
            stdin_text=NEWS_CSV.read_text("utf-8"),
        )
        assert code == 1
        assert out == ""
        assert "the two groups must differ, both are 'A'" in err

    def test_notion_flag_required(self, run, jobseeker_file):
        code, _, _ = run(["feasibility", jobseeker_file, "--groups", "M,F"])
        assert code == 1

    def test_malformed_group_pair(self, run, jobseeker_file):
        code, _, err = run(
            ["feasibility", jobseeker_file, "--notion", "demographic-parity", "--groups", "M"]
        )
        assert code == 1
        assert "group pair" in err

    def test_unbounded_range_is_strict_json(self, run, tmp_path):
        # dcg@2 over four items gives the bottom two ranks no exposure, so
        # the exposure ratio of two 2-item groups has no upper bound
        path = tmp_path / "four.csv"
        path.write_text(
            "id,group,utility\na1,A,0.9\na2,A,0.8\nb1,B,0.5\nb2,B,0.4\n",
            encoding="utf-8",
        )
        code, out, _ = run(
            [
                "feasibility",
                str(path),
                "--notion",
                "disparate-treatment",
                "--groups",
                "A,B",
                "--bias",
                "dcg:e:2",
            ]
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["attainable_range"] == [0.0, None]


# Two-group treatment programs around the boundary, by group sizes (A, B,
# fillers in a third group C at 0.5).  B's items have utility 0.3 and A's
# 0.3·r_max·(1 + eps), where r_max is the largest attainable exposure
# ratio of A to B under log bias, so eps is the relative excess past it.
BOUNDARY_FAMILIES = {
    "3+3": (3, 3, 0),
    "10+10": (10, 10, 0),
    "5+8": (5, 8, 0),
    "20+20": (20, 20, 0),
    "30+30": (30, 30, 0),
    "4+4+4": (4, 4, 4),
}


def boundary_csv(m_a: int, m_b: int, fillers: int, eps: float) -> str:
    n = m_a + m_b + fillers
    v = PositionBias.log_discount(n).values
    r_max = (v[:m_a].sum() / m_a) / (v[n - m_b :].sum() / m_b)
    rows = (
        [f"a{i},A,{float(0.3 * r_max * (1 + eps))!r}" for i in range(m_a)]
        + [f"b{i},B,0.3" for i in range(m_b)]
        + [f"c{i},C,0.5" for i in range(fillers)]
    )
    return "id,group,utility\n" + "".join(row + "\n" for row in rows)


class TestTreatmentBoundary:
    @pytest.mark.parametrize("sizes", BOUNDARY_FAMILIES.values(), ids=list(BOUNDARY_FAMILIES))
    def test_feasibility_and_solve_agree(self, run, sizes):
        """HiGHS certifies some programs just past the boundary within TOLERANCE;
        ``solve`` takes the closed-form verdict, as ``feasibility`` does."""
        codes = {"feasibility": [], "solve": []}
        for eps in (-1e-8, 5e-10, 3e-9, 1e-8, 1e-7):
            text = boundary_csv(*sizes, eps)
            for command, args in (
                ("feasibility", ["--notion", "disparate-treatment", "--groups", "A,B"]),
                ("solve", ["--constraint", "disparate-treatment:A,B"]),
            ):
                code, _, err = run([command, "-", *args], stdin_text=text)
                codes[command].append(code)
                assert code in (0, 2), err
        assert codes["solve"] == codes["feasibility"]
        assert codes["feasibility"][0] == 0 and codes["feasibility"][-1] == 2


class TestSimulate:
    def test_report_schema_and_determinism(self, run, parity_decomposition):
        args = ["simulate", "--users", "3000", "--seed", "5"]
        first = run(args, stdin_text=parity_decomposition)
        second = run(args, stdin_text=parity_decomposition)
        assert first[0] == 0
        assert first[1] == second[1]
        payload = json.loads(first[1])
        assert payload["n_users"] == 3000
        assert set(payload["groups"]) == {"M", "F"}
        assert payload["dtr"] is not None and payload["dtr_se"] > 0

    def test_same_group_twice_rejected(self, run, parity_decomposition):
        code, out, err = run(
            ["simulate", "--group-pair", "F,F"], stdin_text=parity_decomposition
        )
        assert code == 1 and out == ""
        assert "the two groups must differ, both are 'F'" in err

    def test_seed_out_of_range_rejected(self, run, parity_decomposition):
        code, out, err = run(
            ["simulate", "--seed", str(2**64)], stdin_text=parity_decomposition
        )
        assert code == 1 and out == ""
        assert "Traceback" not in err
        assert "seed must be an integer in [0, 2**64)" in err

    def test_draw_ceiling_rejected(self, run, parity_decomposition, monkeypatch):
        monkeypatch.setattr(np.random, "Philox", None)  # a rejected call draws nothing
        code, out, err = run(
            ["simulate", "--users", str(10**17)], stdin_text=parity_decomposition
        )
        assert (code, out) == (1, "")
        assert f"n_users may be at most {simulator._MAX_WORDS // 13} for 6 items" in err

    def test_ratio_beyond_float_range_is_null(self, run, tmp_path):
        # A's mean utility is subnormal, so its exposure per unit utility overflows
        path = tmp_path / "tiny.csv"
        path.write_text("id,group,utility\na,A,1e-310\nb,B,1.0\n", encoding="utf-8")
        solution = json.dumps(solve_json(run, str(path)))
        code, out, err = run(["evaluate"], stdin_text=solution)
        assert code == 0, err
        assert strict_json(out)["dtr"] is None
        code, lottery, err = run(["decompose"], stdin_text=solution)
        assert code == 0, err
        code, out, err = run(["simulate", "--users", "1000"], stdin_text=lottery)
        assert code == 0, err
        payload = strict_json(out)
        assert payload["dtr"] is None and payload["dtr_se"] is None

    def test_problem_required(self, run, parity_decomposition):
        payload = json.loads(parity_decomposition)
        payload["problem"] = None
        code, out, err = run(["simulate"], stdin_text=json.dumps(payload))
        assert (code, out) == (1, "")
        assert "decomposition embeds no problem" in err

    def test_bad_input_rejected(self, run):
        code, _, err = run(["simulate"], stdin_text=json.dumps({"terms": []}))
        assert code == 1
        assert "decomposition" in err


class TestEmbeddedValues:
    """Every JSON value goes to the library type that owns its rule."""

    @pytest.mark.parametrize("change, message", PROBLEM_CHANGES.values(), ids=PROBLEM_CHANGES)
    @pytest.mark.parametrize("command", ["evaluate", "decompose", "lottery"])
    def test_malformed_problem_rejected(
        self, run, jobseeker_file, parity_decomposition, command, change, message
    ):
        if command != "lottery":
            payload, commands = solve_json(run, jobseeker_file), [[command]]
        else:
            payload, commands = json.loads(parity_decomposition), LOTTERY_COMMANDS.values()
        change(payload)
        for args in commands:
            code, out, err = run(args, stdin_text=json.dumps(payload))
            assert (code, out) == (1, ""), args
            assert message in err and "Traceback" not in err
            assert not any(text in err for text in FOREIGN_TEXT)

    @pytest.mark.parametrize("change, message", TERM_CHANGES.values(), ids=TERM_CHANGES)
    @pytest.mark.parametrize("args", LOTTERY_COMMANDS.values(), ids=LOTTERY_COMMANDS)
    def test_malformed_terms_rejected(self, run, parity_decomposition, args, change, message):
        payload = json.loads(parity_decomposition)
        change(payload)
        code, out, err = run(args, stdin_text=json.dumps(payload))
        assert (code, out) == (1, "")
        assert message in err and "Traceback" not in err
        assert not any(text in err for text in FOREIGN_TEXT)


class TestPipelineComposition:
    def test_sampled_exposure_matches_matrix(self, run, jobseeker_file):
        solution = solve_json(
            run, jobseeker_file, "--constraint", "demographic-parity:M,F"
        )
        code, dec_out, _ = run(["decompose"], stdin_text=json.dumps(solution))
        assert code == 0
        count = 40000
        code, sample_out, _ = run(
            ["sample", "--count", str(count), "--seed", "11"], stdin_text=dec_out
        )
        assert code == 0

        ids = [row["id"] for row in solution["problem"]["items"]]
        v = np.asarray(solution["problem"]["bias"]["values"])
        empirical = np.zeros(len(ids))
        for line in sample_out.splitlines():
            for rank, item_id in enumerate(line.split(",")):
                empirical[ids.index(item_id)] += v[rank]
        empirical /= count
        analytic = np.array(solution["matrix"]).reshape(6, 6) @ v
        np.testing.assert_allclose(empirical, analytic, atol=0.02)


class TestNewsPipelinePinned:
    def test_stdout_bytes_pinned(self, run):
        outputs = {"csv": NEWS_CSV.read_text("utf-8")}
        digests = {}
        for name, args, source in NEWS_PIPELINE:
            code, out, err = run(args, stdin_text=outputs[source])
            assert code == 0, (name, err)
            outputs[name] = out
            digests[name] = hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]
        assert digests == NEWS_PIPELINE_SHA256


# Runs in a fresh interpreter: prints the numpy.random modules that
# importing the package and the commands that neither solve, decompose nor
# draw loaded, then every scipy module that all commands but those two loaded,
# and a `solve` whose chain verdict is infeasible.
IMPORT_GUARD = """
import contextlib, io, json, sys
import numpy
numpy_own = set(sys.modules)  # numpy < 2 loads numpy.random itself


def loaded(package):
    return sorted(
        m for m in set(sys.modules) - numpy_own if m == package or m.startswith(package + ".")
    )


def run(commands, expected=0):
    for args in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
        if code != expected:
            sys.exit(f"{args[0]} exited {code}")


import fairexposure
from fairexposure import cli
solution, decomposition, items, adversarial = sys.argv[1:]
found = {"import": loaded("numpy.random")}
run(
    [
        ["sample", decomposition, "--user", "user-1"],
        ["evaluate", solution, "--against-optimal"],
    ]
    + [["feasibility", items, "--notion", n, "--groups", "A,B"] for n in sorted(cli.NOTIONS)]
)
found["commands"] = loaded("numpy.random")
run(
    [
        ["sample", decomposition, "--count", "3", "--seed", "1"],
        ["simulate", decomposition, "--users", "100"],
    ]
)
run([["solve", adversarial, "--constraint", "disparate-treatment:A,B"]], expected=2)
found["scipy"] = loaded("scipy")
print(json.dumps(found))
"""


class TestImportGuard:
    def test_only_solve_and_decompose_load_scipy(self, run, tmp_path):
        """Only ``solve`` and ``decompose`` load scipy, and only the commands that draw
        load ``numpy.random``, beyond what ``import numpy`` loads by itself.  A
        ``solve`` that its chain verdict proves infeasible loads no scipy."""
        names = ("solution", "decomposition", "items", "adversarial")
        paths = {name: tmp_path / name for name in names}
        paths["items"].write_text(NEWS_CSV.read_text("utf-8"), encoding="utf-8")
        paths["adversarial"].write_text(ADVERSARIAL_CSV, encoding="utf-8")
        code, out, err = run(
            ["solve", str(paths["items"]), "--constraint", "demographic-parity:A,B"]
        )
        assert code == 0, err
        paths["solution"].write_text(out, encoding="utf-8")
        code, out, err = run(["decompose", str(paths["solution"])])
        assert code == 0, err
        paths["decomposition"].write_text(out, encoding="utf-8")

        src = str(Path(fairexposure.__file__).parents[1])
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_GUARD, *(str(paths[k]) for k in paths)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == {"import": [], "commands": [], "scipy": []}


class TestStreamEncoding:
    def test_stdin_and_stdout_are_utf8_under_any_locale(self, run, tmp_path):
        """The console script reads and writes UTF-8 whatever ``PYTHONIOENCODING`` says."""
        items = 'id,group,utility\nd\u00e9j\u00e0,A,0.9\n"a\rb",A,0.5\nd,B,0.7\ne,B,0.3\n'
        src = str(Path(fairexposure.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "latin-1"}

        def child(args, stdin_bytes):
            done = subprocess.run(
                [sys.executable, "-m", "fairexposure.cli", *args],
                input=stdin_bytes,
                capture_output=True,
                env=env,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            return done.stdout

        solution = child(["solve", "-", "--constraint", "demographic-parity:A,B"], items.encode())
        ids = [it["id"] for it in json.loads(solution)["problem"]["items"]]
        assert ids == ["d\u00e9j\u00e0", "a\rb", "d", "e"]
        code, lottery, err = run(["decompose"], stdin_text=solution.decode())
        assert code == 0, err
        out = child(["sample", "--count", "2", "--seed", "1"], lottery.encode())
        rows = list(csv.reader(io.StringIO(out.decode("utf-8"), newline="")))
        assert len(rows) == 2 and all(sorted(row) == sorted(ids) for row in rows)


def _lottery_payload(items):
    """A two-item identity solution and lottery, embedding ``items`` as its problem."""
    bias = PositionBias.log_discount(len(items))
    return json.dumps(
        {
            "status": "optimal",
            "n": 2,
            "matrix": [1.0, 0.0, 0.0, 1.0],
            "terms": [{"theta": 1.0, "ranking": [0, 1]}],
            "residual": 0.0,
            "problem": {
                "items": items,
                "bias": {"kind": bias.kind, "values": bias.values.tolist()},
            },
        }
    )


CONTRACT_COMMANDS = {
    "solve": ["solve"],
    "decompose": ["decompose"],
    "sample": ["sample", "--count", "2"],
    "evaluate": ["evaluate"],
    "feasibility": ["feasibility", "--notion", "demographic-parity", "--groups", "A,B"],
    "simulate": ["simulate", "--users", "10"],
}
CONTRACT_INPUTS = {
    "empty": "",
    "non-object": "[1, 2]",
    "truncated": '{"n": 2, "matrix": [1.0, 0.0',
    "no-matrix": '{"n": 2}',
    "bad-csv-header": "name,team,score\nx,A,0.5\n",
    "deep-nesting": "[" * 100000 + "]" * 100000,
    "non-string-id": _lottery_payload(
        [{"id": [1], "group": "A", "utility": 0.9}, {"id": "b", "group": "B", "utility": 0.4}]
    ),
    "item-count-mismatch": _lottery_payload([{"id": "a", "group": "A", "utility": 0.9}]),
    "infinite-n": '{"n": 1e400, "matrix": [1.0]}',
    # an integer no float holds, in every number field
    "huge-integer": (
        '{"n": 1, "matrix": [%s], "terms": [{"theta": %s, "ranking": [0]}], "problem": '
        '{"items": [{"id": "a", "group": "A", "utility": %s}], '
        '"bias": {"kind": "explicit", "values": [%s]}}}'
    )
    % ((("1" + "0" * 400),) * 4),
    "deeply-nested-bias": (
        '{"n": 1, "matrix": [1], "terms": [{"theta": 1, "ranking": [0]}], "problem": '
        '{"items": [{"id": "a", "group": "A", "utility": 0.5}], '
        '"bias": {"kind": "explicit", "values": %s}}}'
    )
    % ("[" * 300 + "1" + "]" * 300),
}


class TestContract:
    """Malformed input ends in a documented exit code, never a traceback."""

    @pytest.mark.parametrize("stdin_text", CONTRACT_INPUTS.values(), ids=CONTRACT_INPUTS)
    @pytest.mark.parametrize("args", CONTRACT_COMMANDS.values(), ids=CONTRACT_COMMANDS)
    def test_exit_code_and_strict_json(self, run, args, stdin_text):
        code, out, err = run(args, stdin_text=stdin_text)
        assert code in {0, 1, 2, 3}
        assert "Traceback" not in err
        if out:
            strict_json(out)


def _invoke(args, stdin_text):
    """``main(args)`` reading ``stdin_text``: the exit code, stdout and stderr.

    The ``run`` fixture does this through function-scoped fixtures, which a
    ``@given`` test cannot take.
    """
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


# The values a fuzz edit writes, and the commands that read each document.
FUZZ_VALUES = (None, True, 0, -1, 0.5, 1e308, "", "a", [], {}, 2**70)
FUZZ_COMMANDS = {
    "solution": (["evaluate"], ["decompose"]),
    "decomposition": (
        ["sample", "--count", "2"],
        ["sample", "--user", "alice"],
        ["simulate", "--users", "10"],
    ),
}


def _json_paths(node, path=()):
    """The path of every value inside a JSON document, parents first."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from _json_paths(node[key], path + (key,))


@st.composite
def mutated(draw, document):
    """``document`` after 1-3 edits: drop a key or list element, or overwrite a value."""
    document = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(list(_json_paths(document))))
        parent = document
        for step in parents:
            parent = parent[step]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(st.sampled_from(FUZZ_VALUES))
    return document


@pytest.fixture(scope="module")
def parity_documents():
    """The jobseeker parity solution and its decomposition, as parsed JSON."""
    documents, text = {}, JOBSEEKER_CSV
    for name, args in (
        ("solution", ["solve", "--constraint", "demographic-parity:M,F"]),
        ("decomposition", ["decompose"]),
    ):
        code, text, err = _invoke(args, text)
        assert code == 0, err
        documents[name] = json.loads(text)
    return documents


class TestContractFuzz:
    """Randomly edited pipeline documents keep the contract of TestContract."""

    @settings(max_examples=100, derandomize=True)
    @given(data=st.data())
    def test_edited_documents(self, parity_documents, data):
        for source, commands in FUZZ_COMMANDS.items():
            text = json.dumps(data.draw(mutated(parity_documents[source]), label=source))
            for args in commands:
                code, out, err = _invoke(args, text)
                assert code in {0, 1, 2, 3}, (args, err)
                assert "Traceback" not in err
                if code != 0:
                    assert out == "", args
                elif args[0] != "sample":
                    strict_json(out)
