"""The command line: what ``run``, ``report``, ``validate`` and ``oracle`` print, and what
``run`` and ``report`` refuse."""

import json
import re
import sys
from pathlib import Path

import pytest

from sizerforge.agents import rule_plan, rule_understand
from sizerforge.cli import main
from sizerforge.config import load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_run_prints_the_design_that_meets_the_spec(capsys):
    # sota_easy: "gain_db > 25 AND power_uw < 60"; the run's best FoM
    # alone (gain_db 16.97) fails the gain clause
    assert main(["run", str(CONFIGS / "sota_easy.yaml"), "--budget", "40"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "outcome: feasible"
    assert lines[1] == "reported design: FoM 1.442917 at a=1.68, b=1.26"
    metrics = dict(item.split("=") for item in lines[2].removeprefix("metrics: ").split(", "))
    assert float(metrics["gain_db"]) > 25 and float(metrics["power_uw"]) < 60
    assert lines[3].startswith("feasible: yes | evals: 11/40")


def test_run_rejects_no_cu_under_the_rule_backend(capsys, tmp_path):
    argv = ["run", str(CONFIGS / "sota_hard.yaml"), "--method", "autosizer+no_cu",
            "--results-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no_cu ")
    assert not (tmp_path / "out").exists()


def test_run_records_one_transcript_per_model_call_and_they_replay(capsys, tmp_path):
    config_path = str(CONFIGS / "sota_hard.yaml")
    config = load_config(config_path)
    understanding = rule_understand(config)
    replies = [
        json.dumps(understanding),
        json.dumps(rule_plan(config, understanding, 4)[0]),
        json.dumps({"action": "search", "method": "lhs", "n_samples": 12, "parameters": {},
                    "reasoning": "r", "confidence": "medium",
                    "expected_improvement": "some", "convergence_assessment": "early"}),
    ]
    recorded = tmp_path / "replies"
    recorded.mkdir()
    for i, reply in enumerate(replies, start=1):
        (recorded / f"{i:04d}.json").write_text(
            json.dumps({"prompt": "", "params": {}, "response": reply}))
    # the replies run out after the first inner decision; the rule policy
    # answers the rest, and an exhausted replay is no model call
    argv = ["run", config_path, "--budget", "40", "--method", f"autosizer:replay:{recorded}",
            "--transcripts", str(tmp_path / "written")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    written = sorted((tmp_path / "written").iterdir())
    assert [p.name for p in written] == ["0001_understanding.json", "0002_plan.json",
                                         "0003_inner.json"]
    records = [json.loads(p.read_text()) for p in written]
    assert [r["response"] for r in records] == replies
    assert all(r["prompt"] and r["params"] for r in records)

    argv = ["run", config_path, "--budget", "40",
            "--method", f"autosizer:replay:{tmp_path / 'written'}"]
    assert main(argv) == 0
    again = capsys.readouterr().out

    def without_wall(out):
        return [line.split(" | wall:")[0] for line in out.splitlines()]

    assert without_wall(again) == without_wall(first)


def test_run_refuses_a_transcript_directory_a_run_has_written(capsys, tmp_path):
    config_path = str(CONFIGS / "sota_hard.yaml")
    recorded = tmp_path / "replies"
    recorded.mkdir()
    understanding = json.dumps(rule_understand(load_config(config_path)))
    (recorded / "0001.json").write_text(
        json.dumps({"prompt": "", "params": {}, "response": understanding}))
    argv = ["run", config_path, "--budget", "20", "--method", f"autosizer:replay:{recorded}",
            "--transcripts", str(tmp_path / "written")]
    assert main(argv) == 0
    capsys.readouterr()
    written = {p.name: p.read_text() for p in (tmp_path / "written").iterdir()}
    assert list(written) == ["0001_understanding.json"]

    assert main(argv + ["--results-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: transcript directory ")
    assert {p.name: p.read_text() for p in (tmp_path / "written").iterdir()} == written
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", ["lhs", "autosizer", "autosizer:rule+no_oe"])
def test_run_refuses_transcripts_for_a_method_that_makes_no_model_call(capsys, tmp_path, method):
    argv = ["run", str(CONFIGS / "sota_easy.yaml"), "--budget", "10", "--method", method,
            "--transcripts", str(tmp_path / "written"), "--results-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: transcripts record model calls, and {method!r} ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag, value, field", [
    ("--budget", "-5", "total_evals"), ("--inner-cap", "0", "per_inner_loop"),
    ("--outer-cap", "0", "max_outer_loops"), ("--workers", "0", "workers"),
    ("--workers", "-3", "workers"),
])
def test_run_refuses_a_run_setting_below_one(capsys, tmp_path, flag, value, field):
    argv = ["run", str(CONFIGS / "sota_easy.yaml"), flag, value,
            "--results-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field!r} must be at least 1, got {value}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag", [
    ("run", "--budget"), ("run", "--inner-cap"), ("run", "--outer-cap"), ("run", "--seed"),
    ("run", "--workers"), ("bench", "--workers"),
])
def test_an_integer_flag_past_the_digit_limit_is_refused_in_a_short_message(
        capsys, tmp_path, command, flag):
    target = str(CONFIGS / "sota_easy.yaml")
    limit = sys.get_int_max_str_digits()
    for value, shown in [("1" * (limit + 700), f"an integer of more than {limit} digits"),
                         ("-" + "9" * (limit + 1), f"an integer of more than {limit} digits"),
                         ("ten", "'ten'")]:
        with pytest.raises(SystemExit) as refused:
            main([command, target, flag, value, "--results-dir" if command == "run" else "--out",
                  str(tmp_path / "out")])
        assert refused.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {flag}: invalid int value: {shown}\n")
        assert len(captured.err) < 1000
    assert not any(tmp_path.iterdir())


def test_bench_refuses_fewer_than_one_worker(capsys, tmp_path):
    matrix = tmp_path / "matrix.yaml"
    matrix.write_text(f"circuits: ['{CONFIGS / 'sota_easy.yaml'}']\nmethods: [lhs]\n")
    assert main(["bench", str(matrix), "--workers", "0", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 'workers' must be at least 1, got 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, reason", [
    ([], "writes each simulator log under the results directory, and none is named"),
    (["--results-dir", "out"], "keeps simulator logs, and the surrogate evaluator runs no simulator"),
])
def test_run_refuses_to_keep_logs_it_could_not_write(capsys, tmp_path, monkeypatch, extra, reason):
    # sota_easy runs on its surrogate, which writes no simulator log
    monkeypatch.chdir(tmp_path)
    argv = ["run", str(CONFIGS / "sota_easy.yaml"), "--budget", "5", "--method", "lhs",
            "--keep-logs", *extra]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: keep_logs {reason}\n"
    assert not any(tmp_path.iterdir())


def test_report_renders_a_bench_directory_and_its_reports_subdirectory(capsys, tmp_path):
    matrix = tmp_path / "matrix.yaml"
    matrix.write_text(f"circuits: [{CONFIGS / 'sota_easy.yaml'}]\nmethods: [lhs, ga_baseline]\n"
                      "trials_per_cell: 2\nbudget: {total_evals: 10}\n")
    out = tmp_path / "out"
    assert main(["bench", str(matrix), "--out", str(out)]) == 0
    table, reports = capsys.readouterr().out.rsplit("reports: ", 1)
    assert reports == f"{out / 'reports'}\n"
    # each row's cells but the wall time, then the paired differences
    rows = [re.split(r"  +", line) for line in table.splitlines()]
    assert rows[0] == ["circuit", "method", "FoM", "Evals", "Time (s)", "Success",
                       "First feasible", "Never", "Outcomes", "Proposers", "Paired e/t/l"]
    assert [row[:4] + row[5:] for row in rows[2:4]] == [
        ["sota_easy", "lhs", "1.4859 ± 0.0000", "10.0 ± 0.0", "2/2 [0.3424, 1.0000]", "2", "0",
         "budget_exhausted 2", "lhs 2", "-"],
        ["sota_easy", "ga_baseline", "1.4038 ± 0.0489", "9.5 ± 0.5", "2/2 [0.3424, 1.0000]", "1",
         "0", "budget_exhausted 1, stalled 1", "ga_baseline 2", "2/0/0"],
    ]
    assert table.splitlines()[4:] == ["", "first feasible minus lhs's, per seed:",
                                      "sota_easy ga_baseline  0:-1 1:-1"]
    for directory in (out, out / "reports"):
        assert main(["report", str(directory)]) == 0
        assert capsys.readouterr().out == table


def test_report_refuses_a_matrix_document_without_a_score(capsys, tmp_path):
    matrix = tmp_path / "matrix.yaml"
    matrix.write_text(f"circuits: [{CONFIGS / 'sota_easy.yaml'}]\nmethods: [lhs]\n"
                      "trials_per_cell: 1\nbudget: {total_evals: 5}\n")
    assert main(["bench", str(matrix), "--out", str(tmp_path)]) == 0
    saved = tmp_path / "reports" / "matrix_results.json"
    document = json.loads(saved.read_text())
    del document["cells"][0]["summary"]["success_interval"]
    saved.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["report", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"error: {saved} lacks 'success_interval'; "
                                       "run the matrix again\n")


def test_report_prints_the_result_of_a_run_directory(capsys, tmp_path):
    out = tmp_path / "out"
    argv = ["run", str(CONFIGS / "sota_easy.yaml"), "--budget", "10", "--method", "lhs",
            "--results-dir", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed) == json.loads((out / "result.json").read_text())
    assert json.loads(printed)["evals_used"] == 10


def test_report_refuses_a_directory_without_results(capsys, tmp_path):
    (tmp_path / "reports").mkdir()
    assert main(["report", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no matrix_results.json or result.json under {tmp_path}\n"


def test_validate_reports_the_config_and_its_grid(capsys):
    assert main(["validate", str(CONFIGS / "sota_hard.yaml")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "config: sota_hard",
        "variables: W_tail_base, W_diff_base, W_casc_base, W_load_base",
        "grid: 9 values per variable, 6561 combinations",
        "metrics: dc_gain_db, ugbw, power_dc, fom",
        "spec clauses: 4",
        "templates render cleanly",
        "OK",
    ]


# the best feasible point of each grid; sota_easy's best FoM, 1.6163 at
# a=b=0.84, fails its gain_db clause
ORACLES = {
    "sota_easy": (81, 45, 1.4859345111979358, {"a": 1.26, "b": 1.47}),
    "sota_med": (6561, 2410, 14.79109194302325, {"W_tail_base": 0.84, "W_diff_base": 2.52,
                                                 "W_casc_base": 2.52, "W_load_base": 0.84}),
    "sota_hard": (6561, 3, 11.377763033094807, {"W_tail_base": 1.26, "W_diff_base": 2.52,
                                                "W_casc_base": 2.52, "W_load_base": 0.84}),
}


def test_oracle_prints_the_enumerated_grid_as_json(capsys):
    for model, (total, feasible, fom, assignment) in ORACLES.items():
        assert main(["oracle", model]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["model"] == model
        assert (record["total_count"], record["feasible_count"]) == (total, feasible)
        assert (record["best_fom"], record["best_assignment"]) == (fom, assignment)


def test_unknown_surrogate_is_an_error_not_a_traceback(capsys):
    assert main(["oracle", "no_such_model"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
