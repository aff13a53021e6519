"""The command line: what ``run``, ``report``, ``validate`` and ``oracle`` print, what
``run``, ``bench`` and ``report`` refuse, and a file no command can read."""

import json
import os
import re
import sys
from pathlib import Path

import pytest

from sizerforge.agents import rule_plan, rule_understand
from sizerforge.cli import main
from sizerforge.config import load_config
from sizerforge.controller import run_method

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
    assert [p.name for p in written] == ["0001_understand.json", "0002_plan.json",
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
    assert list(written) == ["0001_understand.json"]

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


UNREADABLE = {
    "missing": "cannot read {what} {path}: No such file or directory",
    "directory": "cannot read {what} {path}: Is a directory",
    "not_utf8": ("{what} {path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                 "in position 0: invalid start byte"),
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
@pytest.mark.parametrize("command", ["run", "validate", "bench", "bench_circuit"])
def test_a_file_the_cli_cannot_read_is_an_error_not_a_traceback(capsys, tmp_path, command, kind):
    path = tmp_path / "input.yaml"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"\xff\xfe")
    what = "matrix file" if command == "bench" else "config"
    argv = [command, str(path)]
    if command == "bench_circuit":
        matrix = tmp_path / "matrix.yaml"
        matrix.write_text(f"circuits: ['{path}']\nmethods: [lhs]\n")
        argv = ["bench", str(matrix)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: " + UNREADABLE[kind].format(what=what, path=path) + "\n")


@pytest.mark.parametrize("under", ["", "run"], ids=["the_file", "under_the_file"])
def test_run_refuses_a_results_directory_at_a_file_before_simulating(capsys, tmp_path,
                                                                     monkeypatch, under):
    simulated = []
    monkeypatch.setattr("sizerforge.controller.evaluate_batch",
                        lambda *args, **kwargs: simulated.append(args) or [])
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    results_dir = taken / under if under else taken
    argv = ["run", str(CONFIGS / "sota_easy.yaml"), "--budget", "10", "--method", "lhs",
            "--results-dir", str(results_dir)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: results directory {results_dir}: {taken} is a file\n")
    assert simulated == [] and taken.read_text() == "kept\n"


@pytest.mark.parametrize("under", ["", "bench"], ids=["the_file", "under_the_file"])
def test_bench_refuses_an_output_directory_at_a_file_before_any_trial(capsys, tmp_path,
                                                                      monkeypatch, under):
    simulated = []
    monkeypatch.setattr("sizerforge.controller.evaluate_batch",
                        lambda *args, **kwargs: simulated.append(args) or [])
    matrix = tmp_path / "matrix.yaml"
    matrix.write_text(f"circuits: ['{CONFIGS / 'sota_easy.yaml'}']\nmethods: [lhs]\n"
                      "trials_per_cell: 1\nbudget: {total_evals: 5}\n")
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / under if under else taken
    assert main(["bench", str(matrix), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: results directory {out}: {taken} is a file\n")
    assert simulated == [] and taken.read_text() == "kept\n"


@pytest.mark.parametrize("circuits, methods, seeds, repeated", [
    # both configs are named sota_med
    (["configs/sota_med.yaml", "perfbench/configs/sota_med_spice.yaml"], ["autosizer"], [0],
     ["sota_med__autosizer__s0"]),
    (["configs/sota_easy.yaml"], ["lhs", "autosizer", "lhs"], [0, 1],
     ["sota_easy__lhs__s0", "sota_easy__lhs__s1"]),
    (["configs/sota_easy.yaml"], ["lhs"], [3, 4, 3], ["sota_easy__lhs__s3"]),
], ids=["a_config_name_twice", "a_method_twice", "a_seed_twice"])
def test_bench_refuses_two_trials_of_one_name_before_any_trial(capsys, tmp_path, monkeypatch,
                                                              circuits, methods, seeds, repeated):
    started = []
    monkeypatch.setattr("sizerforge.harness.run_method",
                        lambda *args, **kwargs: started.append(args))
    root = CONFIGS.parent
    matrix = tmp_path / "matrix.yaml"
    matrix.write_text(f"circuits: {[str(root / c) for c in circuits]}\nmethods: {methods}\n"
                      f"seeds: {seeds}\n")
    out = tmp_path / "out"
    assert main(["bench", str(matrix), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        f"error: matrix runs trials {repeated} more than once; give each circuit its own "
        "config name and list each method and seed once\n"))
    assert started == [] and not out.exists()


# configs no deck renders from, each as (config, text replaced, its
# replacement, the refusal): a subcircuit template naming a testbench slot,
# on the SPICE path and the surrogate one, and a grid without a value
UNRENDERABLE = {
    "spice_inst_pins": (
        "perfbench/configs/sota_med_spice.yaml",
        ".subckt TELESCOPIC_OTA VBIASN VBIASNC VBIASP1 VBIASP2 VINN VINP VOUTN VOUTP VDD 0",
        ".subckt TELESCOPIC_OTA {inst_pins}", "template placeholder {inst_pins} cannot be resolved"),
    "surrogate_ota_subckt": (
        "configs/sota_easy.yaml", ".subckt TOY_AMP VIN VOUT VDD 0", ".subckt TOY_AMP {ota_subckt}",
        "template placeholder {ota_subckt} cannot be resolved"),
    "empty_grid": ("configs/sota_easy.yaml", "W_values: [0.84, 1.05, 1.26, 1.47, 1.68, 1.89, "
                   "2.10, 2.31, 2.52]", "W_values: []", "W_values must be non-empty"),
}


@pytest.mark.parametrize("case", sorted(UNRENDERABLE))
def test_validate_run_and_bench_refuse_a_config_no_deck_renders_from(capsys, tmp_path,
                                                                     monkeypatch, case):
    path, old, new, message = UNRENDERABLE[case]
    source = (CONFIGS.parent / path).read_text()
    assert source.count(old) == 1
    config = tmp_path / "config.yaml"
    config.write_text(source.replace(old, new))
    matrix = tmp_path / "matrix.yaml"
    matrix.write_text(f"circuits: ['{config}']\nmethods: [autosizer]\ntrials_per_cell: 1\n")
    # a SPICE run simulates through the benchmark's stand-in
    monkeypatch.setenv("PATH", f"{CONFIGS.parent / 'perfbench' / 'bin'}{os.pathsep}"
                               f"{os.environ['PATH']}")
    started = []
    for where in ("sizerforge.cli.run_method", "sizerforge.harness.run_method"):
        monkeypatch.setattr(where, lambda *args, run=run_method, **kwargs:
                            started.append(args) or run(*args, **kwargs))
    out = tmp_path / "out"
    for argv in (["validate", str(config)],
                 ["run", str(config), "--budget", "10", "--results-dir", str(out)],
                 ["bench", str(matrix), "--out", str(out)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
    # refused when the config is parsed: no run started, nothing written
    assert started == [] and not out.exists()


@pytest.mark.parametrize("document", [
    "[]", '{"cells": 3}', '{"cells": [3]}', '{"cells": [{"summary": {"success_interval": [0]}}]}',
], ids=["a_list", "cells_a_number", "a_cell_a_number", "an_interval_of_one_bound"])
def test_report_refuses_a_matrix_document_of_another_shape(capsys, tmp_path, document):
    saved = tmp_path / "matrix_results.json"
    saved.write_text(document)
    assert main(["report", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: {saved} is not a matrix results document\n")


@pytest.mark.parametrize("name", ["result.json", "matrix_results.json"])
def test_report_refuses_a_malformed_results_document(capsys, tmp_path, name):
    saved = tmp_path / name
    saved.write_text('{"evals_used": ')
    assert main(["report", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: cannot read {saved}: Expecting value: line 1 column 16 (char 15)\n")


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
