"""Trial matrix: spec verdicts on configs whose simulators report no fom,
trajectories that end at the reported design, the method spellings and
budget keys a matrix file may set, and one directory per trial."""

from pathlib import Path

import pytest

from sizerforge.config import load_config
from sizerforge.controller import RunBudget, parse_method, run_baseline
from sizerforge.errors import ConfigError
from sizerforge.harness import TrialMatrix, parse_matrix, run_matrix

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


def test_trajectory_ends_at_the_reported_design():
    # sota_easy's best FoM points fail the spec, so a trajectory over every
    # record ends above the feasible design the run reports
    matrix = TrialMatrix(circuits=[str(CONFIGS / "sota_easy.yaml")], methods=["autosizer"],
                         seeds=[0, 1], trials_per_cell=2, budget=RunBudget(total_evals=60))
    trials = run_matrix(matrix)["cells"][0]["trials"]
    assert [t["feasible"] for t in trials] == [True, True]
    for trial in trials:
        assert trial["trajectory"][-1][1] == trial["fom"]


def test_parse_matrix_rejects_unknown_budget_keys():
    source = "circuits: [c.yaml]\nmethods: [lhs]\nbudget: {total_evals: 60, wall_clock_limit_s: 5}\n"
    with pytest.raises(ConfigError, match="wall_clock_limit_s"):
        parse_matrix(source)
    assert parse_matrix(source.replace(", wall_clock_limit_s: 5", "")).budget == RunBudget(60)


@pytest.mark.parametrize("field", ["total_evals", "per_inner_loop", "max_outer_loops"])
@pytest.mark.parametrize("value", [0, -2])
def test_a_budget_allowance_below_one_is_a_config_error_naming_it(field, value):
    message = f"'{field}' must be at least 1, got {value}"
    with pytest.raises(ConfigError, match=message):
        RunBudget(**{field: value})
    with pytest.raises(ConfigError, match=message):
        parse_matrix(f"circuits: [c.yaml]\nmethods: [lhs]\nbudget: {{{field}: {value}}}\n")


# each spelling a matrix accepts, and what run_method makes of it:
# (backend spelling, None for a baseline; ablation flags for run)
SPELLINGS = {
    "lhs": (None, {}),
    "ga_baseline": (None, {}),
    "bo_baseline": (None, {}),
    "turbo_baseline": (None, {}),
    "autosizer": ("rule", {}),
    "autosizer:llm": ("llm", {}),
    "autosizer:replay:DIR+no_cu": ("replay:DIR", {"no_cu": True}),
    "autosizer+no_oe+no_ssd": ("rule", {"no_oe": True, "no_ssd": True}),
}


@pytest.mark.parametrize("method", list(SPELLINGS))
def test_parse_matrix_accepts_each_method_spelling(method):
    assert parse_matrix(f"circuits: [c.yaml]\nmethods: ['{method}']\n").methods == [method]
    assert parse_method(method) == SPELLINGS[method]


@pytest.mark.parametrize("method", ["autosizer:", "autosizer+", "autosizer+no_srl", "lhs+no_oe",
                                    "bogus", "autosizer:replay:", "autosizer+no_oe+no_oe"])
def test_parse_matrix_rejects_other_method_spellings(method):
    with pytest.raises(ConfigError, match="unknown method"):
        parse_matrix(f"circuits: [c.yaml]\nmethods: ['{method}']\n")


def test_run_matrix_writes_one_directory_per_trial_for_a_replay_method(tmp_path):
    # an empty transcript directory: every decision falls back to the rule
    # policy; the method spells an absolute path, slashes and all
    replies = tmp_path / "replies"
    replies.mkdir()
    matrix = TrialMatrix(circuits=[str(CONFIGS / "sota_easy.yaml")],
                         methods=[f"autosizer:replay:{replies}"], seeds=[0, 1],
                         trials_per_cell=2, budget=RunBudget(total_evals=20))
    report = run_matrix(matrix, out_dir=str(tmp_path / "out"))
    assert all(t["ok"] for t in report["cells"][0]["trials"])
    trials = sorted((tmp_path / "out" / "trials").iterdir())
    assert [p.name[-4:] for p in trials] == ["__s0", "__s1"]
    for trial in trials:
        assert trial.name.startswith("sota_easy__autosizer-replay-")
        assert (trial / "result.json").is_file()


def test_run_matrix_gives_each_method_spelling_its_own_directory(tmp_path):
    # the two replay DIRs differ only by "/" against "-"
    for replies in (tmp_path / "X" / "a" / "b", tmp_path / "X" / "a-b"):
        replies.mkdir(parents=True)
    methods = [f"autosizer:replay:{tmp_path}/X/a/b", f"autosizer:replay:{tmp_path}/X/a-b", "lhs"]
    matrix = TrialMatrix(circuits=[str(CONFIGS / "sota_easy.yaml")], methods=methods,
                         seeds=[0], trials_per_cell=1, budget=RunBudget(total_evals=10))
    report = run_matrix(matrix, out_dir=str(tmp_path / "out"))
    assert all(t["ok"] for cell in report["cells"] for t in cell["trials"])
    trials = sorted((tmp_path / "out" / "trials").iterdir())
    assert len(trials) == 3
    assert all((trial / "result.json").is_file() for trial in trials)
    # a spelling the sanitiser leaves as it is keeps its plain slug
    assert (tmp_path / "out" / "trials" / "sota_easy__lhs__s0").is_dir()
