"""Trial matrix: spec verdicts on configs whose simulators report no fom."""

from pathlib import Path

from sizerforge.config import load_config
from sizerforge.controller import RunBudget, run_baseline
from sizerforge.harness import TrialMatrix, run_matrix

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_run_matrix_substitutes_engine_fom_for_the_fom_clause():
    # the surrogate metrics of sota_med and sota_hard carry no fom, while
    # both specs have a fom clause
    paths = [str(CONFIGS / "sota_med.yaml"), str(CONFIGS / "sota_hard.yaml")]
    budget = RunBudget(total_evals=20)
    matrix = TrialMatrix(circuits=paths, methods=["lhs"], trials_per_cell=2, budget=budget)
    report = run_matrix(matrix)
    trials = [t for cell in report["cells"] for t in cell["trials"]]
    assert len(trials) == 4
    for trial in trials:
        assert trial["ok"], trial["error"]
        assert trial["fom"] is not None
        result = run_baseline(load_config(trial["config"]), "lhs", budget, trial["seed"])
        assert trial["feasible"] == result.feasible_found
    # sota_med meets its spec within 20 lhs evaluations on both seeds
    assert [c["summary"]["sr_pct"] for c in report["cells"]] == [100.0, 0.0]
