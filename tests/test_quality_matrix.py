"""tools/quality_matrix.py: the Wilson arithmetic, and one small cell end to end."""

import importlib.util
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def quality(monkeypatch):
    # the tool pins BLAS to one thread on import and puts SRC on the path;
    # keep the test run's setting and path
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("quality_matrix",
                                                  ROOT / "tools" / "quality_matrix.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wilson_intervals_and_a_two_seed_cell(quality, capsys):
    rounded = {k: tuple(round(x, 4) for x in quality.wilson(k, 20)) for k in (19, 20, 0)}
    assert rounded == {19: (0.7639, 0.9911), 20: (0.8389, 1.0), 0: (0.0, 0.1611)}

    from sizerforge import RunBudget, load_config
    from sizerforge.controller import run_method

    assert quality.main(["quality_matrix.py", str(ROOT / "src"), "--methods", "lhs",
                         "bo_baseline", "--configs", "sota_med", "--budgets", "20",
                         "--seeds", "0-1"]) == 0
    printed = capsys.readouterr().out.splitlines()
    config = load_config(str(ROOT / "configs" / "sota_med.yaml"))
    firsts = {}
    for method in ("lhs", "bo_baseline"):
        for seed in (0, 1):
            records = run_method(config, method, RunBudget(total_evals=20), seed).history.records
            k = next(i for i, r in enumerate(records) if r.feasible)
            firsts[method, seed] = sum(not r.cached for r in records[: k + 1])
    assert printed[0] == "sota_med 20 lhs"
    assert printed[1].split() == ["success", "2/2", "[0.3424,", "1.0000]"]
    assert printed[5] == "  methods         lhs 2"
    assert printed[6] == "  paired          0:0 1:0  (earlier 0, tied 2, later 0)"
    assert printed[7] == "sota_med 20 bo_baseline"
    assert printed[9].split() == ["first", "feasible",
                                  f"{(firsts['bo_baseline', 0] + firsts['bo_baseline', 1]) / 2:g}"]
    diffs = [firsts["bo_baseline", s] - firsts["lhs", s] for s in (0, 1)]
    assert printed[13].split()[1:3] == [f"0:{diffs[0]}", f"1:{diffs[1]}"]


def _run(first, fom=1.0):
    """A RunResult stand-in whose first feasible record is fresh evaluation
    ``first`` (None: never), after a cache hit."""
    records = [SimpleNamespace(cached=True, feasible=False, method="lhs")]
    records += [SimpleNamespace(cached=False, feasible=False, method="lhs") for _ in range(4)]
    if first is not None:
        records.insert(first + 1, SimpleNamespace(cached=False, feasible=True, method="bayesian"))
    return SimpleNamespace(history=SimpleNamespace(records=records),
                           feasible_found=first is not None, best=SimpleNamespace(fom=fom),
                           outcome="feasible" if first is not None else "budget_exhausted")


def test_first_feasible_counts_fresh_evaluations_and_the_median_may_be_never(quality):
    assert [quality.first_feasible(_run(k)) for k in (0, 3, None)] == [1, 4, math.inf]
    runs = {0: _run(2), 1: _run(None), 2: _run(None)}
    scores = quality.cell(runs, {0: _run(1), 1: _run(0), 2: _run(None)})
    assert scores["first_feasible"] == math.inf
    assert scores["methods"] == {"lhs": 3, "bayesian": 1}
    assert scores["paired"][0] == 1 and scores["paired"][1] == math.inf
    assert math.isnan(scores["paired"][2])
    assert "first feasible  never" in quality.render("cell", scores)
