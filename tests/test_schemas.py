"""Agent reply validation: one malformed reply per rejection branch.

Each row starts from a valid reply of one schema, breaks one field and
pins the exact message ``parse_agent_json`` rejects it with; the message
is what the LLM backend echoes into its re-prompt. Every field of every
valid reply, given a value of the wrong kind, is named by its full path
from the top of the reply. The fields an action does not use are
dropped unchecked. A reply past Python's own limits (a number past float
range, an integer past the digit limit, nesting past the recursion
limit) is refused like any other, never raised as Python's error.
"""

import copy
import json

import pytest

from sizerforge.agents import parse_agent_json
from sizerforge.errors import JsonUnparseable, SchemaViolation


def _ranking():
    return [{"rank": 1, "variable": "a", "impact_on_target": "high", "reasoning": "r"}]


def _configuration():
    return {
        "variables_to_optimize": {
            "a": {"rank": 1, "search_space": [0.84, 1.26, 1.68], "num_choices": 3,
                  "range_reasoning": "r", "expected_behavior": "e", "sensitivity": "high"},
        },
        "variables_fixed": {
            "b": {"rank": 2, "fixed_value": 1.26, "fixed_reasoning": "f",
                  "why_this_value": "w", "risk_if_suboptimal": "low"},
        },
    }


def _summary():
    return {"original_full_space": 81, "reduced_search_space": 3, "reduction_factor": "27",
            "calculation": "81 -> 3", "explanation": "x"}


VALID = {
    "understanding": {
        "circuit_topology_overview": "t",
        "optimization_variables_mapping": "m",
        "optimization_variables_impact": {"gain_db": "i"},
        "variable_interactions": "v",
        "key_insights_for_optimization": ["k1", "k2", "k3"],
    },
    "plan": {
        "optimization_target": "fom",
        "num_variables_to_optimize": 1,
        "variable_ranking": _ranking(),
        "optimization_configuration": _configuration(),
        "search_space_summary": _summary(),
    },
    "inner": {
        "action": "search",
        "method": "lhs",
        "n_samples": 4,
        "parameters": {},
        "reasoning": "r",
        "confidence": "medium",
        "expected_improvement": "some",
        "convergence_assessment": "early",
    },
    "outer": {
        "optimization_target": "fom",
        "regeneration_reasoning": "r",
        "action_taken": "narrow_ranges",
        "changes_from_previous": "c",
        "expected_improvement": "some",
        "confidence": "low",
        "variable_ranking": _ranking(),
        "optimization_configuration": _configuration(),
        "search_space_summary": _summary(),
    },
}

_DROP = object()
C = "optimization_configuration"
OPT = (C, "variables_to_optimize", "a")
FIX = (C, "variables_fixed", "b")


def _broken(schema, path, value):
    """The valid ``schema`` reply with the field at ``path`` set (or dropped)."""
    reply = copy.deepcopy(VALID[schema])
    *parents, leaf = path
    node = reply
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[leaf]
    else:
        node[leaf] = value
    return json.dumps(reply)


def _violation(field, expected):
    return f"schema violation at {field!r}: expected {expected}"


MALFORMED = [
    # understanding
    ("understanding", ("variable_interactions",), _DROP,
     _violation("variable_interactions", "required field")),
    ("understanding", ("sensitivity",), {"a": "high"}, _violation("sensitivity", "no such field")),
    ("understanding", ("optimization_variables_impact",), {"gain_db": 3},
     _violation("optimization_variables_impact", "object of strings")),
    ("understanding", ("key_insights_for_optimization",), ["only", "two"],
     _violation("key_insights_for_optimization", "list of 3-5 strings")),
    ("understanding", ("circuit_topology_overview",), 7,
     _violation("circuit_topology_overview", "string")),
    # plan
    ("plan", ("optimization_configuration", "variables_fixed"), _DROP,
     _violation("optimization_configuration.variables_fixed", "required field")),
    ("plan", ("optimization_configuration", "variables_to_optimize"), [],
     _violation(f"{C}.variables_to_optimize", "object")),
    ("plan", ("optimization_configuration", "variables_fixed"), "b",
     _violation(f"{C}.variables_fixed", "object")),
    ("plan", OPT + ("search_space",), [],
     _violation(f"{C}.variables_to_optimize.a.search_space", "non-empty list of numbers")),
    ("plan", OPT + ("search_space",), [0.84, "wide"],
     _violation(f"{C}.variables_to_optimize.a.search_space", "number")),
    ("plan", OPT + ("rank",), 1.5, _violation(f"{C}.variables_to_optimize.a.rank", "integer")),
    ("plan", OPT + ("num_choices",), True,
     _violation(f"{C}.variables_to_optimize.a.num_choices", "integer")),
    ("plan", OPT + ("sensitivity",), "extreme",
     _violation(f"{C}.variables_to_optimize.a.sensitivity", "one of high|medium|low")),
    ("plan", OPT + ("change_from_previous",), "new",
     _violation(f"{C}.variables_to_optimize.a.change_from_previous", "no such field")),
    ("plan", FIX + ("fixed_value",), "mid",
     _violation(f"{C}.variables_fixed.b.fixed_value", "number")),
    ("plan", FIX + ("risk_if_suboptimal",), "none",
     _violation(f"{C}.variables_fixed.b.risk_if_suboptimal", "one of low|medium|high")),
    ("plan", ("optimization_target",), ["fom"], _violation("optimization_target", "string")),
    ("plan", ("num_variables_to_optimize",), "one",
     _violation("num_variables_to_optimize", "integer")),
    ("plan", ("variable_ranking",), [], _violation("variable_ranking", "non-empty list")),
    ("plan", ("variable_ranking",), ["a"], _violation("variable_ranking[0]", "object")),
    ("plan", ("variable_ranking", 0, "impact_on_target"), "huge",
     _violation("variable_ranking[0].impact_on_target", "one of critical|high|medium|low")),
    ("plan", ("search_space_summary", "change_factor"), "2x",
     _violation("search_space_summary.change_factor", "no such field")),
    ("plan", ("search_space_summary", "reduced_search_space"), "few",
     _violation("search_space_summary.reduced_search_space", "integer")),
    # inner
    ("inner", ("action",), "pause", _violation("action", "one of search|stop")),
    ("inner", ("confidence",), "certain", _violation("confidence", "one of high|medium|low")),
    ("inner", ("reasoning",), None, _violation("reasoning", "string")),
    ("inner", ("method",), _DROP, _violation("method", "required when action is search")),
    ("inner", ("method",), 3, _violation("method", "string")),
    ("inner", ("n_samples",), "ten", _violation("n_samples", "integer")),
    ("inner", ("n_samples",), 0, _violation("n_samples", "positive integer")),
    ("inner", ("n_samples",), _DROP, _violation("n_samples", "required when action is search")),
    ("inner", ("parameters",), [], _violation("parameters", "object")),
    # outer
    ("outer", ("action_taken",), "restart", _violation(
        "action_taken",
        "one of continue_current|expand_ranges|narrow_ranges|unfix_variables|change_focus|converged",
    )),
    ("outer", ("optimization_configuration",), _DROP,
     _violation("optimization_configuration", "required for action narrow_ranges")),
    ("outer", ("search_space_summary",), _DROP,
     _violation("search_space_summary", "required alongside the regenerated plan")),
    ("outer", ("variable_ranking",), _DROP,
     _violation("variable_ranking", "required alongside the regenerated plan")),
    ("outer", OPT + ("num_choices",), "three",
     _violation(f"{C}.variables_to_optimize.a.num_choices", "integer")),
    ("outer", ("search_space_summary", "original_full_space"), 81.5,
     _violation("search_space_summary.original_full_space", "integer")),
    ("outer", ("changes_from_previous",), 0, _violation("changes_from_previous", "string")),
    # a number is finite: the spellings of NaN and the infinities, as
    # strings and as JSON's NaN, Infinity and -Infinity tokens
    *[("plan", OPT + ("search_space",), [0.84, value],
       _violation(f"{C}.variables_to_optimize.a.search_space", "number"))
      for value in ("nan", "inf", "-Infinity", "1e999",
                    float("nan"), float("inf"), float("-inf"))],
    ("outer", FIX + ("fixed_value",), float("inf"),
     _violation(f"{C}.variables_fixed.b.fixed_value", "number")),
]


@pytest.mark.parametrize("schema", sorted(VALID))
def test_the_unbroken_replies_are_accepted(schema):
    parse_agent_json(json.dumps(VALID[schema]), schema)


@pytest.mark.parametrize(
    "schema, path, value, message", MALFORMED,
    ids=[f"{s}:{'.'.join(map(str, p))}" for s, p, _, _ in MALFORMED],
)
def test_malformed_reply_is_rejected_with_its_message(schema, path, value, message):
    with pytest.raises(SchemaViolation) as caught:
        parse_agent_json(_broken(schema, path, value), schema)
    assert str(caught.value) == message


# any value passes these: the first is made a string, the others are kept as they are
FREE_FORM = ("expected_improvement", "reduction_factor", "calculation", "explanation")
SEARCH_FIELDS = ("method", "n_samples", "parameters")
REGENERATED = ("variable_ranking", "optimization_configuration", "search_space_summary")


def _field_paths(node, path=()):
    """The key path of every field below ``node``: each key of an object and
    each object row of a list, but not the names of the free-form impact map."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = [(i, row) for i, row in enumerate(node) if isinstance(row, dict)]
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)) and key != "optimization_variables_impact":
            yield from _field_paths(value, path + (key,))


def _named(path):
    """A key path as a violation names it: ``parent.key`` and ``parent[i]``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


WRONG_KIND = [(schema, path) for schema in sorted(VALID) for path in _field_paths(VALID[schema])
              if path[-1] not in FREE_FORM]


@pytest.mark.parametrize("schema, path", WRONG_KIND,
                         ids=[f"{s}:{_named(p)}" for s, p in WRONG_KIND])
@pytest.mark.parametrize("value", [None, []], ids=["null", "empty_list"])
def test_a_field_of_the_wrong_kind_is_named_by_its_full_path(schema, path, value):
    with pytest.raises(SchemaViolation) as caught:
        parse_agent_json(_broken(schema, path, value), schema)
    assert str(caught.value).startswith(f"schema violation at {_named(path)!r}: expected ")


def test_a_stop_drops_its_search_fields_unchecked():
    reply = {**VALID["inner"], "action": "stop", "method": 3, "n_samples": "ten",
             "parameters": []}
    expected = {k: v for k, v in reply.items() if k not in SEARCH_FIELDS}
    assert parse_agent_json(json.dumps(reply), "inner") == expected


@pytest.mark.parametrize("action", ["continue_current", "converged"])
@pytest.mark.parametrize("field, value", [
    ("variable_ranking", [{"rank": "first", "variable": 7}]),
    ("search_space_summary", {"original_full_space": "many"}),
])
def test_a_reply_that_regenerates_nothing_drops_the_ranking_and_summary_unchecked(
        action, field, value):
    kept = {k: v for k, v in VALID["outer"].items() if k not in REGENERATED}
    reply = {**kept, "action_taken": action, field: value}
    assert parse_agent_json(json.dumps(reply), "outer") == {**kept, "action_taken": action}


@pytest.mark.parametrize("raw, message", [
    ("", "empty response"),
    ("I would rather not answer.", "no JSON object found in response"),
    ('{"action": "stop"', "unbalanced braces in response"),
    ("{'action': 'stop'}", "invalid JSON: Expecting property name enclosed in double quotes: "
                           "line 1 column 2 (char 1)"),
])
def test_unparseable_reply_is_rejected_with_its_message(raw, message):
    with pytest.raises(JsonUnparseable) as caught:
        parse_agent_json(raw, "inner")
    assert str(caught.value) == message


@pytest.mark.parametrize("raw, error, message", [
    (_broken("plan", FIX + ("fixed_value",), 10**400), SchemaViolation,
     _violation(f"{C}.variables_fixed.b.fixed_value", "number")),
    (_broken("plan", FIX + ("fixed_value",), "@").replace('"@"', "1e999"), SchemaViolation,
     _violation(f"{C}.variables_fixed.b.fixed_value", "number")),
    (_broken("plan", FIX + ("fixed_value",), "@").replace('"@"', "1" * 4301), JsonUnparseable,
     "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
    ('{"x": ' + "[" * 100000 + "]" * 100000 + "}", JsonUnparseable,
     "invalid JSON: maximum recursion depth exceeded"),
], ids=["past_float_range", "a_float_literal_past_float_range", "past_the_digit_limit",
        "nested_past_the_recursion_limit"])
def test_a_reply_past_pythons_limits_is_refused_not_raised(raw, error, message):
    with pytest.raises(error) as caught:
        parse_agent_json(raw, "plan")
    assert str(caught.value).startswith(message)
