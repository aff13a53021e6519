"""The command line: what ``sizerforge run`` prints."""

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
