"""The model-backed backend offline: recorded replies through ReplayTransport.

Each test writes a transcript directory of crafted replies and checks
what the backend makes of them: repairs of fenced or prose-wrapped JSON,
one echo-retry after a rejection, the rule fallback after a second
rejection or an exhausted transcript, and grid snapping of plans. The
run-level test pins the whole decision log and every backend message.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sizerforge.agents import (
    BudgetState,
    LlmBackend,
    ReplayTransport,
    TranscriptWriter,
    rule_decide_inner,
    rule_plan,
    rule_understand,
)
from sizerforge.config import load_config
from sizerforge.controller import RunBudget, run
from sizerforge.space import first_round_from_plan

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def config():
    return load_config(str(CONFIGS / "sota_hard.yaml"))


def _replay(directory: Path, replies):
    directory.mkdir(parents=True, exist_ok=True)
    for i, reply in enumerate(replies, start=1):
        record = {"prompt": "", "params": {}, "response": reply}
        (directory / f"{i:04d}.json").write_text(json.dumps(record))
    return ReplayTransport(directory)


def _backend(tmp_path, replies, **kwargs):
    messages = []
    backend = LlmBackend(_replay(tmp_path / "replies", replies), log=messages.append, **kwargs)
    return backend, messages


def _wire_plan(config, off_grid=None):
    """The rule plan on the wire, optionally with one value moved off the grid."""
    wire = rule_plan(config, rule_understand(config), 4).to_wire()
    if off_grid is not None:
        var, index, value = off_grid
        wire["optimization_configuration"]["variables_to_optimize"][var]["search_space"][index] = value
    return wire


def _inner(method, n_samples, **extra):
    reply = {
        "action": "search",
        "method": method,
        "n_samples": n_samples,
        "parameters": {},
        "reasoning": "crafted",
        "confidence": "medium",
        "expected_improvement": "some",
        "convergence_assessment": "early",
    }
    reply.update(extra)
    return json.dumps(reply)


def _budget():
    return BudgetState(total_remaining=40, inner_remaining=40, prior_unfixes=0)


def test_fenced_and_prose_wrapped_replies_are_repaired(tmp_path, config):
    understanding = rule_understand(config).to_wire()
    replies = [
        "```json\n" + json.dumps(understanding, indent=2) + "\n```",
        "Here is the plan you asked for:\n" + json.dumps(_wire_plan(config)) + "\nGood luck.",
    ]
    backend, messages = _backend(tmp_path, replies)
    got = backend.understand(config)
    plan = backend.plan(config, got, 4)
    assert got.to_wire() == understanding
    assert plan.to_wire() == _wire_plan(config)
    assert messages == ["understanding: stripped code fences", "plan: trimmed surrounding prose"]
    assert backend.fallbacks == []


def test_reply_rejected_once_then_accepted_echoes_the_reason(tmp_path, config):
    space = first_round_from_plan(config, rule_plan(config, rule_understand(config), 4))
    backend, messages = _backend(
        tmp_path,
        [_inner("nelder_mead", 10), _inner("lhs", 12)],
        transcripts=TranscriptWriter(tmp_path / "written"),
    )
    decision = backend.decide_inner(None, _budget(), space, config=config)
    assert (decision.action, decision.method, decision.n_samples) == ("search", "lhs", 12)
    assert messages == ["inner: response rejected (unknown method 'nelder_mead')"]
    assert backend.fallbacks == []
    prompts = [json.loads(p.read_text())["prompt"]
               for p in sorted((tmp_path / "written").iterdir())]
    assert len(prompts) == 2
    assert "PREVIOUS ATTEMPT REJECTED" not in prompts[0]
    assert prompts[1].startswith(prompts[0])
    assert "rejected: unknown method 'nelder_mead'" in prompts[1]


def test_reply_rejected_twice_falls_back_to_the_rule_policy(tmp_path, config):
    space = first_round_from_plan(config, rule_plan(config, rule_understand(config), 4))
    backend, messages = _backend(tmp_path, ["no json here", _inner("lhs", 0)])
    decision = backend.decide_inner(None, _budget(), space, config=config)
    assert decision.to_wire() == rule_decide_inner(None, _budget(), space).to_wire()
    reason = "inner: retry also rejected: schema violation at 'n_samples': expected positive integer"
    assert backend.fallbacks == [{"op": "inner", "reason": reason}]
    assert messages == [
        "inner: response rejected (no JSON object found in response)",
        "inner: response rejected (schema violation at 'n_samples': expected positive integer)",
        f"inner: falling back to the rule policy ({reason})",
    ]


def test_off_grid_plan_values_are_snapped(tmp_path, config):
    backend, messages = _backend(
        tmp_path, [json.dumps(_wire_plan(config, off_grid=("W_diff_base", 1, 1.27)))]
    )
    plan = backend.plan(config, rule_understand(config), 4)
    assert plan.optimize["W_diff_base"]["values"] == [0.84, 1.26, 1.68, 2.1, 2.52]
    assert plan.to_wire() == _wire_plan(config)
    assert messages == ["plan repair: W_diff_base value 1.27 snapped to 1.26"]


def test_exhausted_transcript_falls_back_to_the_rule_policy(tmp_path, config):
    backend, messages = _backend(tmp_path, [])
    understanding = backend.understand(config)
    assert understanding.to_wire() == rule_understand(config).to_wire()
    reason = "llm transport failure (status 0): replay transcript exhausted"
    assert backend.fallbacks == [{"op": "understanding", "reason": reason}]
    assert messages == [f"understanding: falling back to the rule policy ({reason})"]


# sota_hard, 40 evaluations, 20 per inner loop, two outer loops, seed 0
GOLDEN_REPLAY_LOG = "3533ed9797e26f7963a1307aa4efdb8d8868cc55f8cc521fa9b16d2e770d53bc"


def test_replayed_run_logs_every_repair_rejection_and_fallback(tmp_path, config):
    stop = {
        "action": "stop",
        "reasoning": "enough for this space",
        "confidence": "high",
        "expected_improvement": "none",
        "convergence_assessment": "plateau",
    }
    outer = {
        "optimization_target": "fom",
        "regeneration_reasoning": "keep searching the planned space",
        "action_taken": "continue_current",
        "changes_from_previous": "none",
        "expected_improvement": "some",
        "confidence": "low",
    }
    replies = [
        "```json\n" + json.dumps(rule_understand(config).to_wire()) + "\n```",
        "Plan:\n" + json.dumps(_wire_plan(config, off_grid=("W_tail_base", 0, 0.9))) + "\nDone.",
        "I would sample more.",
        _inner("lhs", 10),
        _inner("genetic", 50, parameters={"mutation_rate": 0.3}),
        _inner("nelder_mead", 5),
        _inner("annealing", 5, parameters={"cooling_rate": 1.5}),
        json.dumps(stop),
        json.dumps(outer),
    ]
    backend, messages = _backend(tmp_path, replies)
    budget = RunBudget(total_evals=40, per_inner_loop=20, max_outer_loops=2)
    result = run(config, budget, backend, 0, results_dir=str(tmp_path / "out"))

    entries = result.decisions
    assert [e["backend"] for e in entries if e["kind"] in ("understand", "plan")] == ["llm", "llm"]
    plan_space = entries[1]["payload"]["optimization_configuration"]["variables_to_optimize"]
    assert plan_space["W_tail_base"]["search_space"] == [0.84, 1.26, 1.68, 2.1, 2.52]
    inner = [e["payload"] for e in entries if e["kind"] == "inner"]
    assert [(p["action"], p.get("method"), p.get("n_samples")) for p in inner] == [
        ("search", "lhs", 10),
        ("search", "genetic", 10),
        ("search", "genetic", 2),  # the rule policy, after two rejections
        ("stop", None, None),
        ("stop", None, None),  # the rule policy, transcript exhausted
    ]
    assert [e["payload"]["action_taken"] for e in entries if e["kind"] == "outer"] == [
        "continue_current"
    ]
    assert result.outcome == "outer_cap"

    exhausted = "llm transport failure (status 0): replay transcript exhausted"
    rejected_twice = "inner: retry also rejected: cooling_rate must be <= 1.0, got 1.5"
    assert backend.fallbacks == [
        {"op": "inner", "reason": rejected_twice},
        {"op": "inner", "reason": exhausted},
    ]
    assert messages == [
        "understanding: stripped code fences",
        "plan repair: W_tail_base value 0.9 snapped to 0.84",
        "plan: trimmed surrounding prose",
        "inner: response rejected (no JSON object found in response)",
        "inner: n_samples 50 clamped to remaining budget 10",
        "inner: response rejected (unknown method 'nelder_mead')",
        "inner: response rejected (cooling_rate must be <= 1.0, got 1.5)",
        f"inner: falling back to the rule policy ({rejected_twice})",
        f"inner: falling back to the rule policy ({exhausted})",
    ]

    log = (tmp_path / "out" / "decision_log.jsonl").read_bytes()
    assert hashlib.sha256(log).hexdigest() == GOLDEN_REPLAY_LOG
