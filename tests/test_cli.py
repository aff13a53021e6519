"""The command line: what ``run``, ``validate`` and ``oracle`` print, and what ``run`` refuses."""

import json
from pathlib import Path

from sizerforge.cli import main

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
    argv = ["run", str(CONFIGS / "sota_hard.yaml"), "--backend", "rule", "--no-cu",
            "--results-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no_cu ")
    assert not (tmp_path / "out").exists()


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


def test_oracle_prints_the_enumerated_grid_as_json(capsys):
    assert main(["oracle", "sota_easy"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["model"] == "sota_easy"
    assert (record["total_count"], record["feasible_count"]) == (81, 45)
    assert sorted(record["best_assignment"]) == ["a", "b"]
    assert isinstance(record["best_fom"], float)


def test_unknown_surrogate_is_an_error_not_a_traceback(capsys):
    assert main(["oracle", "no_such_model"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
