"""Rule policies: each inner branch, the outer edits with their next
space, and which decisions have the shape of a validated model reply."""

import dataclasses
import itertools
import json
from pathlib import Path

import pytest

from sizerforge.agents import parse_agent_json
from sizerforge.agents.rule import rule_decide_inner, rule_decide_outer, rule_plan, rule_understand
from sizerforge.config import load_config
from sizerforge.core import SIM_FAILED, SIM_OK, EvaluatedDesign, History, design_from
from sizerforge.diagnostics import analyze
from sizerforge.errors import SchemaViolation
from sizerforge.space import SearchSpace, space_from_plan

from conftest import W_GRID, build_stagnation_state

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _history(*batches):
    """One iteration per ``(method, [(assignment, fom), ...])`` batch."""
    hist = History()
    for iteration, (method, points) in enumerate(batches, start=1):
        for assignment, fom in points:
            hist.append(EvaluatedDesign(design_from(assignment), {"fom": fom}, {}, fom, False,
                                        SIM_OK, iteration, method, hist.next_eval_index(), 0.0))
    return hist


def _space(active, fixed=None):
    names = list(active) + list(fixed or {})
    return SearchSpace(active=active, fixed=fixed or {}, full_grid={v: W_GRID for v in names})


# the 9 x 9 grid on a and b: 81 points, so lhs asks for 81 // 4 = 20
GRID = _space({"a": W_GRID, "b": W_GRID})


def _foms(method, foms):
    points = ({"a": a, "b": b} for a, b in itertools.product(W_GRID, W_GRID))
    return method, list(zip(points, foms))


def _spread(n, top=1.0, step=0.01):
    return [top - step * i for i in range(n)]


# (history batches or None, remaining, space) -> (action, method, n_samples,
# parameters, reasoning); the plateau row is conftest's stagnating run
INNER = {
    "no_history": (
        None, 50, GRID,
        ("search", "lhs", 20, {}, "no history; stratified space coverage")),
    "no_history_capped": (
        None, 12, GRID,
        ("search", "lhs", 12, {}, "no history; stratified space coverage")),
    "thin_history": (
        [_foms("lhs", _spread(9))], 50, GRID,
        ("search", "lhs", 20, {}, "thin history; keep stratifying")),
    "genetic": (
        [_foms("lhs", _spread(15))], 50, GRID,
        ("search", "genetic", 20,
         {"mutation_rate": 0.2, "crossover_rate": 0.8, "tournament_size": 3},
         "mid-depth history; recombine the leaders")),
    "genetic_slowing": (
        [_foms("lhs", _spread(10)), _foms("lhs", [1.01])], 50, GRID,
        ("search", "genetic", 20,
         {"mutation_rate": 0.4, "crossover_rate": 0.8, "tournament_size": 3},
         "mid-depth history; recombine the leaders")),
    "bayesian_ei": (
        [_foms("lhs", _spread(25))], 50, GRID,
        ("search", "bayesian", 8, {"acquisition_function": "EI", "exploration_weight": 0.2},
         "deep history; model-guided expected improvement")),
    "bayesian_ucb": (
        [_foms("lhs", _spread(25, step=0.001))], 50, GRID,
        ("search", "bayesian", 8, {"acquisition_function": "UCB", "exploration_weight": 2.5},
         "top designs nearly tied; widen via optimistic UCB")),
    "stagnant": (
        [_foms("lhs", _spread(10)), _foms("lhs", [0.5]), _foms("lhs", [0.5])], 50, GRID,
        ("search", "annealing", 8, {"initial_temperature": 3.0, "cooling_rate": 0.95},
         "stagnant; hot annealing chain to escape the basin")),
    "stagnant_after_annealing": (
        [_foms("annealing", _spread(10)), _foms("annealing", [0.5]),
         _foms("annealing", [0.5])], 50, GRID,
        ("search", "multistart", 8, {"n_starts": 5, "search_radius": 2},
         "stagnant after annealing; sweep the best neighborhoods")),
    "plateau": (
        "stagnation", 50, None,
        ("stop", None, None, None,
         "plateau: recent improvement 0.00% < 2% after 4 iterations and 3 methods")),
}


def _inner_decision(case):
    batches, remaining, space, _ = INNER[case]
    if batches == "stagnation":
        hist, space = build_stagnation_state()
        return rule_decide_inner(analyze(hist, space), remaining, space)
    report = None if batches is None else analyze(_history(*batches), space)
    return rule_decide_inner(report, remaining, space)


@pytest.mark.parametrize("case", sorted(INNER))
def test_each_inner_branch(case):
    decision = _inner_decision(case)
    got = tuple(decision.get(k) for k in ("action", "method", "n_samples", "parameters",
                                          "reasoning"))
    assert got == INNER[case][3]


def test_a_history_without_a_valid_design_is_no_plateau():
    # three batches of two methods whose every simulation failed: no trend
    # is set, so the policy keeps stratifying rather than stopping
    hist = History()
    for iteration, method in enumerate(("lhs", "genetic", "lhs"), start=1):
        for a in W_GRID[:3]:
            hist.append(EvaluatedDesign(design_from({"a": a, "b": W_GRID[iteration]}), {}, {}, None,
                                        False, SIM_FAILED, iteration, method,
                                        hist.next_eval_index(), 0.0))
    report = analyze(hist, GRID)
    assert report.convergence["recent_improvement_pct"] is None
    assert report.convergence["reason"] == "trend not yet established"
    assert report.recommendations["actions"] == []
    decision = rule_decide_inner(report, 50, GRID)
    assert (decision["action"], decision["method"], decision["reasoning"]) == (
        "search", "lhs", "thin history; keep stratifying")


def _pinned_load():
    """The stagnating run with W_load pinned instead of active."""
    hist, space = build_stagnation_state()
    active = {v: values for v, values in space.active.items() if v != "W_load"}
    return hist, _space(active, {"W_load": 1.68})


@pytest.fixture
def pinned_load():
    hist, space = _pinned_load()
    return hist, space, analyze(hist, space)


@pytest.mark.parametrize("prior_unfixes, window", [(0, W_GRID[2:7]), (1, W_GRID[1:8])])
def test_stagnation_unfixes_the_pinned_variable(pinned_load, prior_unfixes, window):
    hist, space, report = pinned_load
    decision, next_space = rule_decide_outer(report, space, prior_unfixes, {})
    assert decision["action_taken"] == "unfix_variables"
    assert decision["regeneration_reasoning"] == (
        f"stagnation detected; unfixing W_load with {len(window)} values"
    )
    assert decision["changes_from_previous"] == "W_load promoted from fixed to active"
    assert next_space.active["W_load"] == window
    assert next_space.fixed == {}


def test_boundary_at_the_grid_end_unfixes_instead(pinned_load):
    # W_diff's top designs sit at 0.84, the grid's lower end: no room to expand
    hist, space, report = pinned_load
    report = dataclasses.replace(
        report, issues=[i for i in report.issues if i.kind != "stagnation"]
    )
    decision, next_space = rule_decide_outer(report, space, 0, {})
    assert decision["action_taken"] == "unfix_variables"
    assert decision["regeneration_reasoning"] == (
        "flagged boundary sits at the grid end; unfixing W_load"
    )
    assert decision["changes_from_previous"] == "W_load promoted from fixed to active"
    assert next_space.active["W_load"] == W_GRID[2:7]


# interior values of a 5-value window W_GRID[2:7]: no top design at its ends
MIDDLE = (1.47, 1.68, 1.89)


def _outer_edit(action):
    """A rule outer decision of each regenerating action."""
    if action == "expand_ranges":
        # nothing is pinned, so the boundary clustering widens the ranges
        hist, space = build_stagnation_state()
    elif action == "unfix_variables":
        hist, space = _pinned_load()
    elif action == "change_focus":
        # a sits at 1.68 in 8 of the 10 designs
        a = [1.68] * 8 + [1.47, 1.89]
        points = [({"a": x, "b": MIDDLE[i % 3], "c": 1.68}, 1.0 - 0.01 * i)
                  for i, x in enumerate(a)]
        hist, space = _history(("lhs", points)), _space({"a": W_GRID[2:7], "b": W_GRID[2:7]}, {"c": 1.68})
    else:
        # every design in the middle three values; the best rose by 1%
        points = [({"a": a, "b": b}, 0.5) for a, b in itertools.product(MIDDLE, MIDDLE)]
        best = [({"a": 1.68, "b": 1.68}, 1.0)], [({"a": 1.47, "b": 1.89}, 1.01)]
        hist = _history(("lhs", points + best[0]), ("lhs", best[1]))
        space = _space({"a": W_GRID[2:7], "b": W_GRID[2:7]})
    decision, next_space = rule_decide_outer(analyze(hist, space), space, 0, {})
    assert decision["action_taken"] == action
    return decision, next_space


def test_a_converged_variable_swaps_focus():
    decision, next_space = _outer_edit("change_focus")
    assert decision["changes_from_previous"] == "a fixed at 1.68, c activated"
    assert next_space.fixed == {"a": 1.68}
    assert next_space.active == {"b": W_GRID[2:7], "c": W_GRID[2:7]}


def test_concentrated_top_designs_narrow_to_their_runs():
    # the top 10 are the two best and the first 8 of the 0.5 points: a's
    # 1.47 and 1.68 cover 8 of them, while b needs all three values
    decision, next_space = _outer_edit("narrow_ranges")
    assert next_space.active == {"a": (1.47, 1.68), "b": MIDDLE}


def test_the_understanding_plan_and_inner_decisions_validate_as_model_replies():
    config = load_config(str(CONFIGS / "sota_med.yaml"))
    understanding = rule_understand(config)
    plan, _ = rule_plan(config, understanding, 4)
    assert parse_agent_json(json.dumps(understanding), "understanding") == understanding
    assert parse_agent_json(json.dumps(plan), "plan") == plan
    for case in INNER:
        decision = _inner_decision(case)
        assert parse_agent_json(json.dumps(decision), "inner") == decision


def test_a_plan_over_five_variables_pins_the_fifth_at_the_grid_median():
    # every shipped config has 4 variables and a run plans min(4, variables),
    # so only a wider config has a variable the plan pins
    config = load_config(str(CONFIGS / "sota_med.yaml"))
    config = dataclasses.replace(config, variables=config.variables + ["W_out_base"])
    plan, space = rule_plan(config, rule_understand(config), min(4, len(config.variables)))
    configuration = plan["optimization_configuration"]
    assert list(configuration["variables_to_optimize"]) == config.variables[:4]
    assert list(configuration["variables_fixed"]) == ["W_out_base"]
    assert configuration["variables_fixed"]["W_out_base"]["fixed_value"] == W_GRID[len(W_GRID) // 2]
    assert parse_agent_json(json.dumps(plan), "plan") == plan
    assert space == space_from_plan(config, plan, 0)
    assert space.fixed == {"W_out_base": W_GRID[len(W_GRID) // 2]}
    assert space.active == {v: W_GRID[::2] for v in config.variables[:4]}
    assert plan["search_space_summary"]["reduced_search_space"] == 5**4


@pytest.mark.parametrize(
    "action", ["expand_ranges", "narrow_ranges", "unfix_variables", "change_focus"])
def test_an_outer_edit_carries_no_configuration_so_it_is_no_model_reply(action):
    # the rule applies its own edit; a model reply names the space it wants
    decision, _ = _outer_edit(action)
    assert "optimization_configuration" not in decision
    with pytest.raises(SchemaViolation, match="optimization_configuration"):
        parse_agent_json(json.dumps(decision), "outer")
