"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import io
import json
import sys
from collections import Counter

import numpy as np
import pytest

from fairexposure.cli import main
from fairexposure.core import position_bias_vector

JOBSEEKER_CSV = (
    "id,group,utility\n"
    "m1,M,0.82\nm2,M,0.81\nm3,M,0.8\nf1,F,0.79\nf2,F,0.78\nf3,F,0.77\n"
)
ADVERSARIAL_CSV = (
    "id,group,utility\n"
    "a1,A,0.9\na2,A,0.9\na3,A,0.9\nb1,B,0.45\nb2,B,0.45\nb3,B,0.45\n"
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
        expected = position_bias_vector(6, "dcg@k", base=2, k=3)
        np.testing.assert_allclose(payload["problem"]["bias"]["values"], expected)

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

    def test_dump_lp_and_plot_data(self, run, jobseeker_file, tmp_path):
        lp_path = tmp_path / "model.lp"
        plot_path = tmp_path / "plot.csv"
        code, _, _ = run(
            [
                "solve",
                jobseeker_file,
                "--dump-lp",
                str(lp_path),
                "--emit-plot-data",
                str(plot_path),
            ]
        )
        assert code == 0
        text = lp_path.read_text(encoding="utf-8")
        assert text.startswith("Maximize")
        assert "row_sum_0" in text and "col_sum_5" in text
        lines = plot_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "item,rank,probability"
        assert len(lines) == 1 + 36
        item, rank, probability = lines[1].split(",")
        assert item == "m1" and rank == "1"
        float(probability)


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

    def test_infeasible_solution_rejected(self, run):
        payload = {"status": "infeasible", "n": 6}
        code, _, err = run(["decompose"], stdin_text=json.dumps(payload))
        assert code == 1
        assert "nothing to decompose" in err

    def test_garbage_input_rejected(self, run):
        code, _, err = run(["decompose"], stdin_text="not json")
        assert code == 1
        assert "not valid JSON" in err

    def test_decomposition_failure_exits_3(self, run, jobseeker_file, monkeypatch):
        solution = solve_json(run, jobseeker_file)

        def fail(*args, **kwargs):
            raise RuntimeError("no perfect matching on entries above 1e-07")

        monkeypatch.setattr("fairexposure.cli.decompose", fail)
        code, out, err = run(["decompose"], stdin_text=json.dumps(solution))
        assert code == 3
        assert out == ""
        assert err.startswith("error: no perfect matching")
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("row", [{"group": "M", "utility": 0.5}, "m1"])
    def test_items_without_ids_is_usage_error(self, run, parity_decomposition, row):
        payload = json.loads(parity_decomposition)
        payload["problem"]["items"] = [row] * 6
        code, out, err = run(["sample", "--count", "1"], stdin_text=json.dumps(payload))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


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

    def test_infeasible_solution_rejected(self, run):
        code, _, err = run(
            ["evaluate"], stdin_text=json.dumps({"status": "infeasible"})
        )
        assert code == 1
        assert "nothing to evaluate" in err


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

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        payload = json.loads(out, parse_constant=reject)
        assert payload["attainable_range"] == [0.0, None]


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

    def test_bad_input_rejected(self, run):
        code, _, err = run(["simulate"], stdin_text=json.dumps({"terms": []}))
        assert code == 1
        assert "decomposition" in err


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
