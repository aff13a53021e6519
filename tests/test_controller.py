"""Run loops: the budget check and a golden Bayesian baseline run."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from sizerforge import controller
from sizerforge.agents import RuleBackend
from sizerforge.config import load_config
from sizerforge.controller import RunBudget, run, run_baseline
from sizerforge.errors import BudgetOverrun

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# bo_baseline on sota_med, 40 evaluations, seed 0, as recorded with the
# per-pick reference proposer of test_bayesian: a faster proposer must
# not move a single pick
GOLDEN_DECISION_LOG = "a8dd495ec987c78943c8b8d39f33260c1e92d32fdaf0938cb796b88a5321f45f"
GOLDEN_DESIGN_FOMS = "a21e8eccc6e9ca09cb2cbeba5a21315ba14fb63ff25a82c871575d30babb97bc"


def _sha256(lines):
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def test_bo_baseline_run_matches_golden_digests():
    config = load_config(str(CONFIGS / "sota_med.yaml"))
    result = run_baseline(config, "bo_baseline", RunBudget(total_evals=40), 0)
    log = [json.dumps(e, sort_keys=True, default=float) + "\n" for e in result.decisions]
    picks = [f"{r.design.id} {r.fom!r}\n" for r in result.history.records]
    assert len(picks) == 40
    assert _sha256(log) == GOLDEN_DECISION_LOG
    assert _sha256(picks) == GOLDEN_DESIGN_FOMS


@pytest.fixture
def overcharging_evaluator(monkeypatch):
    """evaluate_batch that returns one fresh record more than it was given."""
    real = controller.evaluate_batch

    def evaluate_batch(*args, **kwargs):
        records = real(*args, **kwargs)
        last = records[-1]
        return records + [dataclasses.replace(last, eval_index=last.eval_index + 1, cached=False)]

    monkeypatch.setattr(controller, "evaluate_batch", evaluate_batch)


@pytest.mark.parametrize("algorithm", ["lhs", "autosizer"])
def test_budget_overrun_raises(overcharging_evaluator, algorithm):
    config = load_config(str(CONFIGS / "sota_hard.yaml"))
    budget = RunBudget(total_evals=12)
    with pytest.raises(BudgetOverrun, match="budget of 12"):
        if algorithm == "autosizer":
            run(config, budget, RuleBackend(), 0)
        else:
            run_baseline(config, algorithm, budget, 0)
