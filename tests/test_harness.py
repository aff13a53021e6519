"""Trial matrix: spec verdicts on configs whose simulators report no fom,
trajectories that end at the reported design, the paper's scores of a
cell, the method spellings and keys a matrix file may set, and one
directory per trial."""

import json
import math
import sys
from pathlib import Path

import pytest

from sizerforge import harness
from sizerforge.config import load_config
from sizerforge.controller import RunBudget, RunResult, parse_method, run_baseline, run_method
from sizerforge.core import SIM_OK, EvaluatedDesign, History, design_from
from sizerforge.errors import ConfigError
from sizerforge.harness import (TrialMatrix, emit_reports, parse_matrix, render_table,
                                run_matrix, wilson)

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
    assert [c["summary"]["successes"] for c in report["cells"]] == [2, 0]


def test_trajectory_ends_at_the_reported_design():
    # sota_easy's best FoM points fail the spec, so a trajectory over every
    # record ends above the feasible design the run reports
    matrix = TrialMatrix(circuits=[str(CONFIGS / "sota_easy.yaml")], methods=["autosizer"],
                         seeds=[0, 1], trials_per_cell=2, budget=RunBudget(total_evals=60))
    trials = run_matrix(matrix)["cells"][0]["trials"]
    assert [t["feasible"] for t in trials] == [True, True]
    for trial in trials:
        assert trial["trajectory"][-1][1] == trial["fom"]


def test_wilson_intervals():
    rounded = {k: tuple(round(x, 4) for x in wilson(k, 20)) for k in (19, 20, 0)}
    assert rounded == {19: (0.7639, 0.9911), 20: (0.8389, 1.0), 0: (0.0, 0.1611)}


def _result(first):
    """A run of a cache hit and four fresh evaluations whose first feasible
    record, proposed by ``bayesian``, is fresh evaluation ``first`` (None:
    it finds none)."""
    history = History()
    for k in range(5):
        feasible = k == first
        history.append(EvaluatedDesign(
            design=design_from({"a": float(k)}), raw_metrics={}, normalized={}, fom=float(k),
            feasible=feasible, sim_status=SIM_OK, iteration=k + 1,
            method="bayesian" if feasible else "lhs", eval_index=k + 1, wall_time=0.0,
            cached=k == 0))
    outcome = "budget_exhausted" if first is None else "feasible"
    return RunResult(best=history.reported(), feasible_found=history.feasible_found(),
                     evals_used=4, evals_to_best=None, wall_time=0.0, outer_loops_used=1,
                     space_generations=[], decisions=[], history=history, outcome=outcome)


def test_a_cell_is_scored_in_fresh_evaluations_and_paired_by_seed(monkeypatch, tmp_path):
    # lhs is the reference; ga_baseline's every trial crashes
    firsts = {"lhs": [1, 3, None], "bo_baseline": [2, None, None]}

    def stand_in(config, method, budget, seed, **kwargs):
        if method == "ga_baseline":
            raise RuntimeError("simulator gone")
        return _result(firsts[method][seed])

    monkeypatch.setattr(harness, "run_method", stand_in)
    matrix = TrialMatrix(circuits=[str(CONFIGS / "sota_easy.yaml")],
                         methods=["lhs", "bo_baseline", "ga_baseline"], trials_per_cell=3)
    report = run_matrix(matrix)
    reference, cell, crashed = (c["summary"] for c in report["cells"])
    # the cache hit is free: the first feasible record is evaluation first + 1
    assert [t["first_feasible"] for t in report["cells"][0]["trials"]] == [1, 3, None]
    assert (reference["first_feasible"], reference["never"], reference["paired"]) == (3, 1, None)
    assert (cell["first_feasible"], cell["never"], cell["successes"]) == (None, 2, 1)
    assert cell["outcomes"] == {"feasible": 1, "budget_exhausted": 2}
    assert cell["proposers"] == {"lhs": 3, "bayesian": 1}
    assert cell["paired"][:2] == [1, math.inf] and math.isnan(cell["paired"][2])
    assert cell["paired_split"] == (0, 0, 2)
    # a crashed trial never finds a feasible design
    assert (crashed["never"], crashed["outcomes"], crashed["proposers"]) == (3, {"error": 3}, {})
    assert crashed["paired"][:2] == [math.inf, math.inf] and crashed["paired_split"] == (0, 0, 2)
    table = render_table(report)
    assert table.splitlines()[3].split("  ")[6] == "never"
    assert table.splitlines()[-2:] == ["sota_easy bo_baseline  0:1 1:inf 2:nan",
                                       "sota_easy ga_baseline  0:inf 1:inf 2:nan"]
    # the saved document renders the same table
    emit_reports(report, str(tmp_path))
    saved = json.loads((tmp_path / "reports" / "matrix_results.json").read_text())
    assert render_table(saved) == table


def test_a_two_seed_cell_pairs_each_seed_with_the_first_method():
    budget = RunBudget(total_evals=20)
    path = str(CONFIGS / "sota_med.yaml")
    matrix = TrialMatrix(circuits=[path], methods=["lhs", "bo_baseline"], seeds=[0, 1],
                         trials_per_cell=2, budget=budget)
    lhs, bo = (cell["summary"] for cell in run_matrix(matrix)["cells"])
    firsts = {}
    for method in ("lhs", "bo_baseline"):
        for seed in (0, 1):
            records = run_method(load_config(path), method, budget, seed).history.records
            k = next(i for i, r in enumerate(records) if r.feasible)
            firsts[method, seed] = sum(not r.cached for r in records[: k + 1])
    assert [round(x, 4) for x in lhs["success_interval"]] == [0.3424, 1.0]
    assert (lhs["successes"], lhs["proposers"], lhs["paired"]) == (2, {"lhs": 2}, None)
    assert bo["first_feasible"] == (firsts["bo_baseline", 0] + firsts["bo_baseline", 1]) / 2
    assert bo["paired"] == [firsts["bo_baseline", s] - firsts["lhs", s] for s in (0, 1)]


def test_parse_matrix_rejects_unknown_top_level_keys():
    source = "circuits: [c.yaml]\nmethods: [lhs]\ntrails_per_cell: 20\n"
    with pytest.raises(ConfigError, match=r"unknown matrix keys \['trails_per_cell'\]"):
        parse_matrix(source)
    matrix = parse_matrix(source.replace("trails_per_cell: 20", "trials_per_cell: 2\n"
                                         "seeds: [4, 5]\nbase_seed: 1\nbudget: {}"))
    assert matrix.seed_list() == [4, 5]


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


@pytest.mark.parametrize("field", ["total_evals", "per_inner_loop", "max_outer_loops"])
def test_a_budget_allowance_past_the_digit_limit_is_a_config_error_naming_the_limit(field):
    # an integer past Python's int-to-string digit limit has no repr
    with pytest.raises(ConfigError) as caught:
        RunBudget(**{field: -10**5000})
    assert str(caught.value) == (f"'{field}' must be at least 1, got an integer of more than "
                                 f"{sys.get_int_max_str_digits()} digits")


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
