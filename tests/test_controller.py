"""Run loops: the budget check and a golden Bayesian baseline run."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from sizerforge import controller
from sizerforge.agents import RuleBackend, rule
from sizerforge.config import load_config, parse_config
from sizerforge.controller import RunBudget, run, run_baseline
from sizerforge.errors import SingularKernel, SizerForgeError
from sizerforge.optim.gp import GaussianProcess

from conftest import raises_exactly

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
    with raises_exactly(SizerForgeError) as caught:
        if algorithm == "autosizer":
            run(config, budget, RuleBackend(), 0)
        else:
            run_baseline(config, algorithm, budget, 0)
    assert str(caught.value) == "13 fresh evaluations charged against a budget of 12"


def test_baseline_stall_reports_stalled():
    # ga elitism re-proposes cached designs until STALL_LIMIT batches charge nothing
    config = load_config(str(CONFIGS / "sota_med.yaml"))
    result = run_baseline(config, "ga_baseline", RunBudget(total_evals=60), 0)
    stalls = [e for e in result.decisions if e.get("event") == "method_stalled"]
    assert result.outcome == "stalled"
    assert len(stalls) == 1


def test_baseline_grid_exhaustion_reports_space_exhausted():
    # sota_easy is an 81-point grid, far below a 300-eval budget
    config = load_config(str(CONFIGS / "sota_easy.yaml"))
    result = run_baseline(config, "lhs", RunBudget(total_evals=300), 0)
    assert result.outcome == "space_exhausted"
    assert result.evals_used == 81


def test_a_singular_kernel_falls_back_to_lhs_and_is_logged(monkeypatch):
    def singular(gp, x, y):
        raise SingularKernel("kernel matrix not positive definite at jitter 1e-01")

    monkeypatch.setattr(GaussianProcess, "fit", singular)
    config = load_config(str(CONFIGS / "sota_med.yaml"))
    result = run_baseline(config, "bo_baseline", RunBudget(total_evals=30), 0)
    events = [e for e in result.decisions if e["kind"] == "event"]
    batches = [e for e in result.decisions if e["kind"] == "batch"]
    # the first batch is the lhs initialization; every later one falls back
    assert [e["event"] for e in events] == ["singular_kernel_fallback"] * (len(batches) - 1)
    assert [e["iteration"] for e in events] == [b["iteration"] for b in batches[1:]]
    assert events[0]["detail"] == "kernel matrix not positive definite at jitter 1e-01"
    assert [r.method for r in result.history.records] == ["bo_baseline"] * 30
    assert result.evals_used == 30
    assert result.outcome == "budget_exhausted"


def _count_calls(monkeypatch, *names):
    """Count the calls of each named controller global from here on."""
    calls = {name: 0 for name in names}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(controller, name, counted(name, getattr(controller, name)))
    return calls


@pytest.mark.parametrize("algorithm", ["bo_baseline", "autosizer"])
def test_each_batch_calls_the_controllers_evaluate_batch(monkeypatch, algorithm):
    # perfbench times the layers by rebinding these controller globals
    calls = _count_calls(monkeypatch, "propose", "evaluate_batch")
    config = load_config(str(CONFIGS / "sota_hard.yaml"))
    budget = RunBudget(total_evals=40)
    if algorithm == "autosizer":
        result = run(config, budget, RuleBackend(), 0)
    else:
        result = run_baseline(config, algorithm, budget, 0)
    batches = [e for e in result.decisions if e["kind"] == "batch"]
    assert batches
    assert calls["evaluate_batch"] == len(batches)
    assert calls["propose"] >= len(batches)


class _StopsEveryThirdDecision(RuleBackend):
    """The rule policy, except that every third inner decision stops its loop."""

    decisions = 0

    def decide_inner(self, report, remaining, space, config):
        self.decisions += 1
        if self.decisions % 3 == 0:
            return {"action": "stop", "reasoning": "third decision",
                    "confidence": "high", "expected_improvement": "none expected",
                    "convergence_assessment": "stopped on schedule"}
        return super().decide_inner(report, remaining, space, config)


@pytest.mark.parametrize("algorithm,flags", [
    ("autosizer", {}), ("autosizer", {"no_oe": True}), ("bo_baseline", {}),
    ("autosizer_stopping", {}),
])
def test_one_analysis_per_inner_decision_and_per_loop_report(
        monkeypatch, tmp_path, algorithm, flags):
    # each inner search decision with a batch behind it reads one fresh
    # report; the loop-end report is rendered once and feeds the outer
    # decision, and a loop that ends on a stop decision renders that
    # decision's report
    calls = _count_calls(monkeypatch, "analyze")
    config = load_config(str(CONFIGS / "sota_hard.yaml"))
    if algorithm.startswith("autosizer"):
        backend = (_StopsEveryThirdDecision() if algorithm == "autosizer_stopping"
                   else RuleBackend())
        result = run(config, RunBudget(), backend, 0, results_dir=str(tmp_path), **flags)
    else:
        result = run_baseline(config, algorithm, RunBudget(total_evals=40), 0,
                              results_dir=str(tmp_path))
    searches, stops, batch_seen = 0, 0, False
    for entry in result.decisions:
        batch_seen = batch_seen or entry["kind"] == "batch"
        if batch_seen and entry["kind"] == "inner":
            searches += entry["payload"]["action"] == "search"
            stops += entry["payload"]["action"] == "stop"
    reports = list(tmp_path.glob("loop*_report.txt"))
    assert reports
    assert (stops > 0) == (algorithm == "autosizer_stopping")
    assert calls["analyze"] == searches + len(reports)


@pytest.mark.parametrize("config_name,method", [
    ("sota_med", "autosizer"), ("sota_hard", "autosizer"), ("sota_hard", "lhs"),
    ("sota_hard", "ga_baseline"), ("sota_hard", "bo_baseline"), ("sota_hard", "turbo_baseline"),
])
@pytest.mark.parametrize("written", [False, True], ids=["no_results_dir", "results_dir"])
def test_a_report_is_built_only_where_it_is_read(monkeypatch, tmp_path, config_name, method,
                                                  written):
    # each inner search decision after the first batch reads one analysis;
    # a loop-end report is analyzed for an outer decision, or for its
    # report file, and rendered only for that file
    calls = _count_calls(monkeypatch, "analyze", "render_text")
    config = load_config(str(CONFIGS / f"{config_name}.yaml"))
    results_dir = str(tmp_path) if written else None
    if method == "autosizer":
        result = run(config, RunBudget(), RuleBackend(), 0, results_dir=results_dir)
    else:
        result = run_baseline(config, method, RunBudget(total_evals=40), 0,
                              results_dir=results_dir)
    searches, outers, batch_seen = 0, 0, False
    for entry in result.decisions:
        batch_seen = batch_seen or entry["kind"] == "batch"
        if batch_seen and entry["kind"] == "inner":
            assert entry["payload"]["action"] == "search"
            searches += 1
        outers += entry["kind"] == "outer"
    reports = sorted(p.name for p in tmp_path.glob("loop*_report.txt"))
    if written:
        assert len(reports) == result.outer_loops_used
        assert calls == {"analyze": searches + len(reports), "render_text": len(reports)}
    else:
        assert reports == []
        assert calls == {"analyze": searches + outers, "render_text": 0}
    if config_name == "sota_med":
        # feasible in loop 0: no outer decision, so without a results
        # directory only the inner decisions analyze
        assert (result.outcome, result.outer_loops_used, outers) == ("feasible", 1, 0)
    if method != "autosizer" and not written:
        assert calls == {"analyze": 0, "render_text": 0}


def test_result_json_reports_the_design_the_run_hands_back(tmp_path):
    # sota_easy: "gain_db > 25 AND power_uw < 60"; the best FoM alone
    # (gain_db 16.97) fails the gain clause, so result.json must name the
    # feasible design that `sizerforge run` prints
    config = load_config(str(CONFIGS / "sota_easy.yaml"))
    result = run(config, RunBudget(total_evals=40), seed=0, results_dir=str(tmp_path))
    record = json.loads((tmp_path / "result.json").read_text())
    best = record["best"]
    assert record["feasible_found"] and best["feasible"]
    assert round(best["raw_metrics"]["gain_db"], 2) == 26.51
    assert best["assignment"] == {"a": 1.68, "b": 1.26}
    assert record["evals_to_best"] == 2
    assert best["eval_index"] == result.best.eval_index == result.history.reported().eval_index


def test_a_two_value_grid_is_planned_and_run():
    # rule_plan keeps every value of a grid shorter than its five even
    # picks; a first-round space takes such a grid whole
    text = (CONFIGS / "sota_easy.yaml").read_text()
    full = "W_values: [0.84, 1.05, 1.26, 1.47, 1.68, 1.89, 2.10, 2.31, 2.52]"
    assert full in text
    config = parse_config(text.replace(full, "W_values: [0.84, 1.05]"))
    result = run(config, RunBudget(total_evals=40), RuleBackend(), 0)
    plan = next(e for e in result.decisions if e["kind"] == "plan")["payload"]
    optimized = plan["optimization_configuration"]["variables_to_optimize"]
    assert {v: e["search_space"] for v, e in optimized.items()} == {
        "a": [0.84, 1.05], "b": [0.84, 1.05]}
    assert result.outcome in ("feasible", "budget_exhausted", "outer_cap", "converged",
                              "space_exhausted")
    assert result.best is not None
    assert result.evals_used <= 4  # the whole grid


_STOP = {"action": "stop", "reasoning": "nothing to search", "confidence": "high",
         "expected_improvement": "none expected", "convergence_assessment": "not assessed"}


class _StopsAtOnce(RuleBackend):
    """The rule policy, except that every inner decision stops its loop."""

    def decide_inner(self, report, remaining, space, config):
        return dict(_STOP)


def test_a_run_that_stops_before_any_batch_names_the_stop(tmp_path):
    # a stop is a valid first reply; the run searched nothing, so it did not
    # exhaust its space, and it hands back no design
    config = load_config(str(CONFIGS / "sota_med.yaml"))
    result = run(config, RunBudget(), _StopsAtOnce(), 0, results_dir=str(tmp_path))
    assert result.history.records == [] and result.evals_used == 0
    assert result.outcome == "no_valid_design" and result.best is None
    events = [e["event"] for e in result.decisions if e["kind"] == "event"]
    assert events == ["run_stopped_before_search", "no_valid_design"]
    inner = [e["payload"] for e in result.decisions if e["kind"] == "inner"]
    assert inner == [_STOP]
    assert not list(tmp_path.glob("loop*_report.txt"))


class _PinsTwoAndUnfixes(RuleBackend):
    """The rule policy, except that its plan pins two of the four variables,
    each inner loop runs one small lhs batch and then stops, and each outer
    decision unfixes one pinned variable as the rule policy would on
    stagnation. Records the ``prior_unfixes`` each outer decision gets."""

    def __init__(self):
        super().__init__()
        self.prior_unfixes = []
        self.searched = set()

    def plan(self, config, understanding, n_to_optimize):
        return super().plan(config, understanding, 2)

    def decide_inner(self, report, remaining, space, config):
        if space.generation in self.searched:
            return dict(_STOP)
        self.searched.add(space.generation)
        return {"action": "search", "method": "lhs", "n_samples": 4, "parameters": {},
                "reasoning": "one small batch per loop", "confidence": "medium",
                "expected_improvement": "incremental", "convergence_assessment": "not assessed"}

    def decide_outer(self, report, space, prior_unfixes, sensitivity, config):
        self.prior_unfixes.append(prior_unfixes)
        return rule._unfix_best(space, sensitivity, prior_unfixes, "unfixing {var} with {n} values")


def test_each_unfix_is_counted_and_widens_the_next_window():
    # an unreachable fom clause keeps every loop from ending the run on a
    # feasible design, so the run reaches both outer decisions
    config = load_config(str(CONFIGS / "sota_med.yaml"))
    config = dataclasses.replace(config, user_specs_metric=config.user_specs_metric.replace(
        "fom > 0.100", "fom > 1000"))
    assert config.spec.clauses[0].threshold == 1000
    backend = _PinsTwoAndUnfixes()
    result = run(config, RunBudget(), backend, 0)
    assert not result.feasible_found and result.outcome == "outer_cap"
    assert backend.prior_unfixes == [0, 1]
    outer = [e["payload"] for e in result.decisions if e["kind"] == "outer"]
    assert [o["action_taken"] for o in outer] == ["unfix_variables"] * 2
    first, second, third = result.space_generations
    assert len(first.fixed) == 2 and len(second.fixed) == 1 and third.fixed == {}
    grown = [v for v in first.fixed if v in second.active] + [v for v in second.fixed]
    assert [len(space.active[v]) for space, v in zip((second, third), grown)] == [5, 7]
