"""Rule outer policy: the two unfix escalations, decision and next space."""

import dataclasses

import pytest

from sizerforge.agents.rule import rule_decide_outer
from sizerforge.diagnostics import analyze
from sizerforge.space import SearchSpace

W = (0.84, 1.05, 1.26, 1.47, 1.68, 1.89, 2.10, 2.31, 2.52)


@pytest.fixture
def pinned_load(stagnation_state):
    """The stagnating run with W_load pinned instead of active."""
    hist, space = stagnation_state
    active = {v: values for v, values in space.active.items() if v != "W_load"}
    space = SearchSpace(active=active, fixed={"W_load": 1.68}, full_grid=space.full_grid,
                        generation=space.generation)
    return hist, space, analyze(hist, space)


@pytest.mark.parametrize("prior_unfixes, window", [(0, W[2:7]), (1, W[1:8])])
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
    assert next_space.active["W_load"] == W[2:7]
