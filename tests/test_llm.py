"""The model-backed backend offline: recorded replies through ReplayTransport.

Each test writes a transcript directory of crafted replies and checks
what the backend makes of them: repairs of fenced or prose-wrapped JSON,
one echo-retry after a rejection, the rule fallback after a second
rejection or an exhausted transcript, and grid snapping of plans. The
run-level test pins the whole decision log and every backend message.
"""

import hashlib
import json
import logging
import re
from pathlib import Path

import pytest
import requests

from conftest import artefact_digest
from sizerforge.agents import (
    HttpTransport,
    LlmBackend,
    ReplayTransport,
    TranscriptWriter,
    rule_decide_inner,
    rule_plan,
    rule_understand,
)
from sizerforge.agents.llm import inner_context, load_prompt, outer_context, plan_context
from sizerforge.config import load_config, render_template
from sizerforge.controller import RunBudget, run, run_method
from sizerforge.diagnostics import analyze
from sizerforge.errors import ConfigError, LlmTransport, Timeout
from sizerforge.optim.base import ACQUISITIONS
from sizerforge.optim.pool import ORCHESTRATED
from sizerforge.space import ACTIONS

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
    wire, _ = rule_plan(config, rule_understand(config), 4)
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


REMAINING = 40


def test_fenced_and_prose_wrapped_replies_are_repaired(tmp_path, config):
    understanding = rule_understand(config)
    replies = [
        "```json\n" + json.dumps(understanding, indent=2) + "\n```",
        "Here is the plan you asked for:\n" + json.dumps(_wire_plan(config)) + "\nGood luck.",
    ]
    backend, messages = _backend(tmp_path, replies)
    got = backend.understand(config)
    plan, _ = backend.plan(config, got, 4)
    assert got == understanding
    assert plan == _wire_plan(config)
    assert messages == ["understanding: stripped code fences", "plan: trimmed surrounding prose"]
    assert backend.fallbacks == []


def test_reply_rejected_once_then_accepted_echoes_the_reason(tmp_path, config):
    _, space = rule_plan(config, rule_understand(config), 4)
    backend, messages = _backend(
        tmp_path,
        [_inner("nelder_mead", 10), _inner("lhs", 12)],
        transcripts=TranscriptWriter(tmp_path / "written"),
    )
    decision = backend.decide_inner(None, REMAINING, space, config=config)
    assert (decision["action"], decision["method"], decision["n_samples"]) == ("search", "lhs", 12)
    assert messages == ["inner: response rejected (unknown method 'nelder_mead')"]
    assert backend.fallbacks == []
    prompts = [json.loads(p.read_text())["prompt"]
               for p in sorted((tmp_path / "written").iterdir())]
    assert len(prompts) == 2
    assert "PREVIOUS ATTEMPT REJECTED" not in prompts[0]
    assert prompts[1].startswith(prompts[0])
    assert "rejected: unknown method 'nelder_mead'" in prompts[1]


@pytest.mark.parametrize("baseline", ["ga_baseline", "bo_baseline", "turbo_baseline"])
def test_inner_reply_naming_a_baseline_is_rejected_once_then_accepted(tmp_path, config, baseline):
    _, space = rule_plan(config, rule_understand(config), 4)
    backend, messages = _backend(
        tmp_path,
        [_inner(baseline, 10), _inner("lhs", 12)],
        transcripts=TranscriptWriter(tmp_path / "written"),
    )
    decision = backend.decide_inner(None, REMAINING, space, config=config)
    assert (decision["action"], decision["method"], decision["n_samples"]) == ("search", "lhs", 12)
    reason = (f"unknown method {baseline!r}: the inner loop orchestrates "
              "lhs, genetic, bayesian, adaptive, annealing, multistart")
    assert messages == [f"inner: response rejected ({reason})"]
    assert backend.fallbacks == []
    prompts = [json.loads(p.read_text())["prompt"]
               for p in sorted((tmp_path / "written").iterdir())]
    assert f"Your previous response was rejected: {reason}\n" in prompts[1]


def test_reply_rejected_twice_falls_back_to_the_rule_policy(tmp_path, config):
    _, space = rule_plan(config, rule_understand(config), 4)
    backend, messages = _backend(tmp_path, ["no json here", _inner("lhs", 0)])
    decision = backend.decide_inner(None, REMAINING, space, config=config)
    assert decision == rule_decide_inner(None, REMAINING, space)
    reason = "inner: retry also rejected: schema violation at 'n_samples': expected positive integer"
    assert backend.fallbacks == [{"op": "inner", "reason": reason}]
    assert messages == [
        "inner: response rejected (no JSON object found in response)",
        "inner: response rejected (schema violation at 'n_samples': expected positive integer)",
        f"inner: falling back to the rule policy ({reason})",
    ]


def test_replies_naming_optuna_or_lcb_are_rejected_and_the_rule_policy_decides(tmp_path, config):
    _, space = rule_plan(config, rule_understand(config), 4)
    lcb = _inner("bayesian", 5, parameters={"acquisition_function": "LCB"})
    backend, messages = _backend(tmp_path, [_inner("optuna", 5), lcb])
    decision = backend.decide_inner(None, REMAINING, space, config=config)
    assert decision == rule_decide_inner(None, REMAINING, space)
    lcb_reason = "acquisition_function must be one of ('EI', 'UCB', 'PI'), got 'LCB'"
    reason = f"inner: retry also rejected: {lcb_reason}"
    assert backend.fallbacks == [{"op": "inner", "reason": reason}]
    assert messages == [
        "inner: response rejected (unknown method 'optuna')",
        f"inner: response rejected ({lcb_reason})",
        f"inner: falling back to the rule policy ({reason})",
    ]


def test_off_grid_plan_values_are_snapped(tmp_path, config):
    backend, messages = _backend(
        tmp_path, [json.dumps(_wire_plan(config, off_grid=("W_diff_base", 1, 1.27)))]
    )
    plan, space = backend.plan(config, rule_understand(config), 4)
    optimized = plan["optimization_configuration"]["variables_to_optimize"]
    assert optimized["W_diff_base"]["search_space"] == [0.84, 1.26, 1.68, 2.1, 2.52]
    assert (plan, space) == rule_plan(config, rule_understand(config), 4)
    assert messages == ["plan repair: W_diff_base value 1.27 snapped to 1.26"]


def test_plan_naming_a_param_is_rejected_once_then_accepted(tmp_path, config):
    promoted = _wire_plan(config)
    promoted["optimization_configuration"]["variables_to_optimize"]["vcm"] = _optimize(
        5, [0.6, 0.7, 0.8], "low")
    backend, messages = _backend(
        tmp_path,
        [json.dumps(promoted), json.dumps(_wire_plan(config))],
        transcripts=TranscriptWriter(tmp_path / "written"),
    )
    plan, space = backend.plan(config, rule_understand(config), 4)
    assert (plan, space) == rule_plan(config, rule_understand(config), 4)
    reason = ("variables_to_optimize names 'vcm', which is not an optimization "
              "variable and cannot be optimized or unfixed")
    assert messages == [f"plan: response rejected ({reason})"]
    assert backend.fallbacks == []
    prompts = [json.loads(p.read_text())["prompt"]
               for p in sorted((tmp_path / "written").iterdir())]
    assert len(prompts) == 2
    assert f"Your previous response was rejected: {reason}\n" in prompts[1]


def test_exhausted_transcript_falls_back_to_the_rule_policy(tmp_path, config):
    backend, messages = _backend(tmp_path, [])
    understanding = backend.understand(config)
    assert understanding == rule_understand(config)
    reason = "llm transport failure (status 0): replay transcript exhausted"
    assert backend.fallbacks == [{"op": "understanding", "reason": reason}]
    assert messages == [f"understanding: falling back to the rule policy ({reason})"]


def test_replies_past_pythons_limits_fall_back_to_the_rule_plan_and_the_run_finishes(
        tmp_path, config):
    # a width past float range, then a reply nested past the recursion limit
    past_float_range = _wire_plan(config)
    entry = past_float_range["optimization_configuration"]["variables_to_optimize"]["W_tail_base"]
    entry["search_space"][0] = 10**400
    nested = '{"x": ' + "[" * 100000 + "]" * 100000 + "}"
    replies = [json.dumps(rule_understand(config)), json.dumps(past_float_range), nested]
    backend, messages = _backend(tmp_path, replies)
    result = run(config, RunBudget(total_evals=20), backend, 0)

    assert result.best is not None
    plan = next(e for e in result.decisions if e["kind"] == "plan")
    assert (plan["backend"], plan["payload"]) == ("llm", _wire_plan(config))
    too_deep = ("invalid JSON: maximum recursion depth exceeded while decoding "
                "a JSON array from a unicode string")
    reason = f"plan: retry also rejected: {too_deep}"
    assert backend.fallbacks[0] == {"op": "plan", "reason": reason}
    assert messages[:3] == [
        "plan: response rejected (schema violation at 'optimization_configuration"
        ".variables_to_optimize.W_tail_base.search_space': expected number)",
        f"plan: response rejected ({too_deep})",
        f"plan: falling back to the rule policy ({reason})",
    ]


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
        "```json\n" + json.dumps(rule_understand(config)) + "\n```",
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


def test_no_cu_under_a_model_backend_plans_from_the_rule_understanding(tmp_path, config):
    # the first reply is the plan's: no understanding call consumes it
    plan = _wire_plan(config)
    _replay(tmp_path / "replies", [json.dumps(plan), _inner("lhs", 10)])
    result = run_method(config, f"autosizer:replay:{tmp_path / 'replies'}+no_cu",
                        RunBudget(total_evals=20, per_inner_loop=10, max_outer_loops=1), 0,
                        transcripts=str(tmp_path / "written"))
    understand, planned = [e for e in result.decisions if e["kind"] in ("understand", "plan")]
    assert (understand["backend"], understand["payload"]) == ("rule", rule_understand(config))
    assert (planned["backend"], planned["payload"]) == ("llm", plan)
    written = sorted((tmp_path / "written").iterdir())
    assert [p.stem for p in written[:2]] == ["0001_plan", "0002_inner"]
    assert json.loads(written[0].read_text())["prompt"] == render_template(
        load_prompt("plan"), plan_context(config, rule_understand(config), 4))


# ------------------------------------------------- the outer loop via replay


def _ranking(names):
    return [{"rank": i, "variable": v, "impact_on_target": "high", "reasoning": "crafted"}
            for i, v in enumerate(names, start=1)]


def _optimize(rank, values, sensitivity, **extra):
    return {"rank": rank, "search_space": values, "num_choices": len(values),
            "range_reasoning": "crafted", "expected_behavior": "crafted",
            "sensitivity": sensitivity, **extra}


def _fixed(rank, value, **extra):
    return {"rank": rank, "fixed_value": value, "fixed_reasoning": "crafted",
            "why_this_value": "crafted", "risk_if_suboptimal": "medium", **extra}


RANKED = ["W_diff_base", "W_load_base", "W_tail_base", "W_casc_base"]
UNDERSTANDING_REPLY = {
    "circuit_topology_overview": "telescopic OTA: tail, input pair, cascodes, loads",
    "optimization_variables_mapping": "each base width scales one device group",
    "optimization_variables_impact": {"fom": "the pair and the loads dominate"},
    "variable_interactions": "cascode and load widths trade gain for headroom",
    "key_insights_for_optimization": ["pair first", "loads second", "cascodes last"],
}
PLAN_REPLY = {
    "optimization_target": "fom",
    "num_variables_to_optimize": 3,
    "variable_ranking": _ranking(RANKED),
    "optimization_configuration": {
        "variables_to_optimize": {
            "W_diff_base": _optimize(1, [0.84, 1.26, 1.68, 2.1, 2.52], "high"),
            "W_load_base": _optimize(2, [0.84, 1.26, 1.68, 2.1, 2.52], "medium"),
            "W_tail_base": _optimize(3, [0.84, 1.68, 2.52], "low"),
        },
        "variables_fixed": {"W_casc_base": _fixed(4, 1.68)},
    },
    "search_space_summary": {"original_full_space": 6561, "reduced_search_space": 75,
                             "reduction_factor": "87.48", "calculation": "5*5*3",
                             "explanation": "crafted"},
}
# numeric strings throughout, one off-grid value (1.27) and both outer-only fields
NARROW_REPLY = {
    "optimization_target": "fom",
    "regeneration_reasoning": "the top designs sit low on the pair and the loads",
    "action_taken": "narrow_ranges",
    "changes_from_previous": "pair and loads narrowed",
    "expected_improvement": 5,
    "confidence": "medium",
    "variable_ranking": _ranking(RANKED),
    "optimization_configuration": {
        "variables_to_optimize": {
            "W_diff_base": _optimize("1", ["0.84", "1.05", "1.27"], "high",
                                     change_from_previous="narrowed to the low end"),
            "W_load_base": _optimize(2, [0.84, 1.05, 1.26], "medium",
                                     change_from_previous="narrowed"),
            "W_tail_base": _optimize(3, [0.84, 1.68, 2.52], "low"),
        },
        "variables_fixed": {"W_casc_base": _fixed(4, "1.68", change_from_previous="unchanged")},
    },
    "search_space_summary": {"original_full_space": "6561", "reduced_search_space": 27,
                             "reduction_factor": "243", "calculation": "3*3*3",
                             "explanation": "crafted", "change_factor": "75 -> 27"},
}
CONVERGED_REPLY = {
    "optimization_target": "fom",
    "regeneration_reasoning": "nothing left to refine",
    "action_taken": "converged",
    "changes_from_previous": "none",
    "expected_improvement": "none",
    "confidence": "high",
    "variable_ranking": _ranking(RANKED[:1]),  # stray without a configuration
}
STOP_REPLY = {
    "action": "stop",
    "method": "lhs",  # stray on a stop
    "n_samples": 5,
    "parameters": {},
    "reasoning": "enough for this space",
    "confidence": "high",
    "expected_improvement": "none",
    "convergence_assessment": "plateau",
}

# sota_hard, 60 evaluations, 30 per inner loop, three outer loops, seed 0
GOLDEN_OUTER_REPLAY = "997c4c9114842ce983dc0d805d8d95b06d03d778bb0a26921c1b5e0700fc1774"


# sha256 of each prompt the replayed outer-loop run renders, in call order
OUTER_REPLAY_PROMPTS = {
    "0001_understanding": "733f5e03a0decba78c422da298a4a09a60a724863d127cdea7b9039cbc395afa",
    "0002_plan": "6ed069bd6bccb366a8317a64903b01d9badcd0832aa86241d9562428591a6eb8",
    "0003_inner": "2ee7f1852126457e3caea795e4657e54db9ece0b9ac6328a5a59b14245b7a04c",
    "0004_inner": "3d755513ec59017cc7dda88b52d60dd87e809c7049d2c65fbfa562844c0000b7",
    "0005_inner": "19c4de3eecb6e52c60aac6a610fbaa0f18658f003cc8d49e526fc4a402a68269",
    "0006_outer": "6e37934fa085ac6df7909ec705c3f1f392d8a79911b30ea40df66c57e0df6b5f",
    "0007_inner": "1fc7deb8bbb02d5eee7c8b500d9044299c0bd228e04c936d3d35764e7a908084",
    "0008_inner": "4dff38849b6dc13bffc7d8129c33580f1159b01a341030b7b5b593c790811b3d",
    "0009_outer": "d4a6480872046edb0d592a3a76aa6ddc0d556777534aca0893a945d43f01a6ab",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_replayed_outer_loop_regenerates_the_space_and_logs_the_wire_reply(tmp_path, config):
    replies = [
        json.dumps(UNDERSTANDING_REPLY),
        json.dumps(PLAN_REPLY),
        _inner("lhs", 12),
        _inner("bayesian", 4, parameters={"acquisition_function": "PI"}),
        json.dumps(STOP_REPLY),
        json.dumps(NARROW_REPLY),
        _inner("genetic", 6),
        json.dumps(STOP_REPLY),
        json.dumps(CONVERGED_REPLY),
    ]
    backend, messages = _backend(tmp_path, replies,
                                 transcripts=TranscriptWriter(tmp_path / "written"))
    budget = RunBudget(total_evals=60, per_inner_loop=30, max_outer_loops=3)
    result = run(config, budget, backend, 0, results_dir=str(tmp_path / "out"))

    assert result.outcome == "converged"
    assert backend.fallbacks == []
    assert messages == [
        "plan: model optimized 3 variables instead of the requested 4; accepted",
        "plan repair: W_diff_base value 1.27 snapped to 1.26",
    ]
    entries = result.decisions
    inner = [e["payload"] for e in entries if e["kind"] == "inner"]
    assert [(p["action"], p.get("method"), p.get("parameters")) for p in inner] == [
        ("search", "lhs", {}),
        ("search", "bayesian", {"acquisition_function": "PI"}),
        ("stop", None, None),
        ("search", "genetic", {}),
        ("stop", None, None),
    ]
    assert "n_samples" not in inner[2]
    narrow, converged = [e["payload"] for e in entries if e["kind"] == "outer"]
    regenerated = narrow["optimization_configuration"]
    assert regenerated["variables_to_optimize"]["W_diff_base"]["search_space"] == [0.84, 1.05, 1.26]
    assert regenerated["variables_to_optimize"]["W_diff_base"]["rank"] == 1
    assert regenerated["variables_fixed"]["W_casc_base"]["fixed_value"] == 1.68
    assert narrow["search_space_summary"]["original_full_space"] == 6561
    assert narrow["search_space_summary"]["change_factor"] == "75 -> 27"
    assert narrow["expected_improvement"] == "5"
    assert converged == {k: v for k, v in CONVERGED_REPLY.items() if k != "variable_ranking"}
    spaces = [e for e in entries if e["kind"] == "space"]
    assert [s["generation"] for s in spaces] == [0, 1]
    assert spaces[1]["active"]["W_diff_base"] == [0.84, 1.05, 1.26]
    assert spaces[1]["fixed"] == {"W_casc_base": 1.68}

    assert artefact_digest(tmp_path / "out") == GOLDEN_OUTER_REPLAY
    prompts = {p.stem: _sha256(json.loads(p.read_text())["prompt"])
               for p in sorted((tmp_path / "written").iterdir())}
    assert prompts == OUTER_REPLAY_PROMPTS


def test_converged_reply_is_accepted_whatever_configuration_it_carries(tmp_path, config):
    # the space a converged reply describes is never searched, so a
    # configuration that covers one of four variables is no reason to reject it
    converged = {
        **CONVERGED_REPLY,
        "variable_ranking": _ranking(RANKED),
        "optimization_configuration": {
            "variables_to_optimize": {"W_diff_base": _optimize(1, [0.84, 1.27, 1.68], "high")},
            "variables_fixed": {},
        },
        "search_space_summary": {"original_full_space": 6561, "reduced_search_space": 3,
                                 "reduction_factor": "2187", "calculation": "3",
                                 "explanation": "crafted"},
    }
    replies = [
        json.dumps(UNDERSTANDING_REPLY),
        json.dumps(PLAN_REPLY),
        _inner("lhs", 12),
        json.dumps(STOP_REPLY),
        json.dumps(converged),
    ]
    backend, messages = _backend(tmp_path, replies)
    budget = RunBudget(total_evals=60, per_inner_loop=20, max_outer_loops=3)
    result = run(config, budget, backend, 0)

    assert result.outcome == "converged"
    assert backend.fallbacks == []
    assert messages == ["plan: model optimized 3 variables instead of the requested 4; accepted"]
    [outer] = [e["payload"] for e in result.decisions if e["kind"] == "outer"]
    assert outer == converged  # logged as sent, off-grid 1.27 included
    assert [e["generation"] for e in result.decisions if e["kind"] == "space"] == [0]


def test_the_prompt_menus_are_the_code_tables():
    inner, outer = load_prompt("inner"), load_prompt("outer")
    headings = re.findall(r"^\*\*(\d+)\. '(\w+)'", inner, re.M)
    assert headings == [(str(k), m) for k, m in enumerate(ORCHESTRATED, start=1)]
    [menu] = re.findall(r"`acquisition_function`:(.*?)\n  - ", inner, re.S)
    assert tuple(re.findall(r'"(\w+)"', menu)) == ACQUISITIONS
    assert tuple(re.findall(r"^- `(\w+)`:", outer, re.M)) == ACTIONS


# the stagnating run of conftest in both decision prompts, inside sota_hard's
# netlist, grids and spec
STAGNATION_PROMPTS = {
    "inner": "f6c9277caac9241fe7843e4800a49575461068849fbbb2f559894bf71f393b68",
    "outer": "910163e57dbdb2517f0416647d79c6de99b7c36e4f082db8be1331ff6af1ac54",
}


def test_prompts_render_the_stagnating_run(stagnation_state, config):
    history, space = stagnation_state
    report = analyze(history, space)
    inner = render_template(load_prompt("inner"), inner_context(report, REMAINING, space, config))
    outer = render_template(load_prompt("outer"), outer_context(report, space, config))
    methods = "lhs (25 designs), bayesian (30 designs), annealing (17 designs)"
    assert f"- Methods tried so far: {methods}\n" in inner
    assert f"Methods used: {methods}." in inner
    issues = (
        "- W_diff: 10/10 top designs at lower boundary (0.84) -> high severity\n"
        "- W_load: 10/10 top designs at upper boundary (1.68) -> high severity\n"
        "- W_load: 10/10 top designs at lower boundary (1.68) -> high severity\n"
        "- stagnation: best FOM unchanged for 3 iterations (0.0990) -> medium severity\n"
    )
    assert issues in inner and f"### Issues Detected\n{issues}" in outer
    assert "Best-so-far FOM by iteration: [0.095, 0.099, 0.099, 0.099]\n" in outer
    assert ("### Top Designs\n"
            "1. FOM 0.0990 @ W_casc=1.68, W_diff=0.84, W_load=1.68, W_tail=1.26\n") in outer
    assert "10. FOM 0.0972 @ W_casc=2.1, W_diff=0.84, W_load=1.68, W_tail=0.84\n" in outer
    assert {"inner": _sha256(inner), "outer": _sha256(outer)} == STAGNATION_PROMPTS


def test_the_outer_context_of_a_history_without_a_valid_design(failed_state, config):
    history, space = failed_state
    context = outer_context(analyze(history, space), space, config)
    assert context["impact_section"] == "\n".join(
        f"- {var}: no valid top designs" for var in space.active)
    assert context["best_fom"] == "none"
    assert context["top_designs_section"] == "(no valid designs yet)"
    assert context["progression_section"] == "Best-so-far FOM by iteration: [None, None]"


def test_backend_messages_go_to_logging_by_default(tmp_path, config, caplog):
    fenced = "```json\n" + json.dumps(UNDERSTANDING_REPLY) + "\n```"
    backend = LlmBackend(_replay(tmp_path / "replies", [fenced]))
    with caplog.at_level(logging.INFO, logger="sizerforge.agents.llm"):
        backend.understand(config)
        backend.understand(config)  # the transcript is exhausted: rule fallback
    exhausted = "llm transport failure (status 0): replay transcript exhausted"
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("sizerforge.agents.llm", "INFO", "understanding: stripped code fences"),
        ("sizerforge.agents.llm", "INFO",
         f"understanding: falling back to the rule policy ({exhausted})"),
    ]


# ------------------------------------------------- the http transport, offline


class _Reply:
    def __init__(self, status_code, body):
        self.status_code = status_code
        self.text = body if isinstance(body, str) else json.dumps(body)

    def json(self):
        return json.loads(self.text)


def _completion(content):
    return {"choices": [{"message": {"content": content}}]}


@pytest.fixture
def http(monkeypatch):
    """An HttpTransport whose posts answer from ``replies`` in order;
    each reply is a ``_Reply`` or an exception to raise. Sleeps are
    recorded, not slept."""
    replies, posts, sleeps = [], [], []

    def post(url, json, headers, timeout):
        posts.append((url, json, headers, timeout))
        reply = replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    monkeypatch.setattr(requests, "post", post)
    transport = HttpTransport(url="http://localhost:9/v1", api_key="k", model="m",
                              sleep=sleeps.append)
    return transport, replies, posts, sleeps


def test_http_transport_returns_the_completion_content(http):
    transport, replies, posts, sleeps = http
    replies.append(_Reply(200, _completion("{}")))
    assert transport.complete("prompt", {"temperature": 0.4}) == "{}"
    url, payload, headers, timeout = posts[0]
    assert payload == {"model": "m", "messages": [{"role": "user", "content": "prompt"}],
                       "temperature": 0.4}
    assert headers["Authorization"] == "Bearer k"
    assert (url, timeout, sleeps) == ("http://localhost:9/v1", 120.0, [])


def test_http_transport_retries_a_server_error_once(http):
    transport, replies, posts, sleeps = http
    replies.extend([_Reply(503, "busy"), _Reply(200, _completion("ok"))])
    assert transport.complete("prompt", {}) == "ok"
    assert (len(posts), sleeps) == (2, [1.0])


@pytest.mark.parametrize("status", [400, 401, 404])
def test_http_transport_does_not_retry_a_client_error(http, status):
    transport, replies, posts, sleeps = http
    replies.extend([_Reply(status, "denied"), _Reply(200, _completion("ok"))])
    with pytest.raises(LlmTransport) as caught:
        transport.complete("prompt", {})
    assert str(caught.value) == f"llm transport failure (status {status}): denied"
    assert (len(posts), sleeps) == (1, [])


def test_http_transport_retries_rate_limiting(http):
    transport, replies, posts, sleeps = http
    replies.extend([_Reply(429, "slow down"), _Reply(500, "oops"),
                    _Reply(200, _completion("ok"))])
    assert transport.complete("prompt", {}) == "ok"
    assert (len(posts), sleeps) == (3, [1.0, 2.0])


def test_http_transport_gives_up_after_three_timeouts(http):
    transport, replies, posts, sleeps = http
    replies.extend([requests.Timeout()] * 3)
    with pytest.raises(Timeout, match="timed out after 120s"):
        transport.complete("prompt", {})
    assert (len(posts), sleeps) == (3, [1.0, 2.0])


def test_http_transport_rejects_a_malformed_body(http):
    transport, replies, posts, sleeps = http
    replies.extend([_Reply(200, "not json"), _Reply(200, {"choices": []}),
                    _Reply(200, {"id": 1})])
    with pytest.raises(LlmTransport, match="malformed completion body"):
        transport.complete("prompt", {})
    assert len(posts) == 3


def test_http_transport_names_the_missing_environment(monkeypatch):
    for env in ("SIZERFORGE_LLM_URL", "SIZERFORGE_LLM_KEY", "SIZERFORGE_LLM_MODEL"):
        monkeypatch.delenv(env, raising=False)
    monkeypatch.setenv("SIZERFORGE_LLM_URL", "http://localhost:9/v1")
    with pytest.raises(ConfigError) as caught:
        HttpTransport()
    assert str(caught.value) == (
        "llm transport is not configured; set SIZERFORGE_LLM_KEY, SIZERFORGE_LLM_MODEL"
    )


def test_transcript_writer_refuses_a_directory_holding_transcripts(tmp_path):
    directory = tmp_path / "written"
    directory.mkdir()
    (directory / "notes.txt").write_text("not a transcript")
    writer = TranscriptWriter(directory)
    writer.record("plan", "prompt", {"temperature": 0}, "reply")
    with pytest.raises(ConfigError, match="already holds transcripts"):
        TranscriptWriter(directory)
    assert sorted(p.name for p in directory.iterdir()) == ["0001_plan.json", "notes.txt"]
