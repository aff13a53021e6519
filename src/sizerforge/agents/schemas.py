"""The JSON wire formats of the agent's decisions, and their validation.

Four schemas: circuit understanding, initial space plan, inner-loop
method decision, outer-loop regeneration. A model's decision is its
validated wire dict: the model backend returns it, the controller acts
on it and the decision log records it as it is. The rule policy's
decisions share these shapes, except its outer edits: they carry no
``optimization_configuration``, so the outer schema rejects them (see
``rule``). parse_agent_json applies a fixed repair ladder (strip
fences, trim to the outermost balanced object) before validation,
because model output often wraps the JSON in prose or markdown.

Validation is strict: unknown field names, missing required fields and
out-of-enum values all raise SchemaViolation. Numeric strings are
coerced in place and ``expected_improvement`` is made a string. The
only other rewrite drops the fields the action does not use: method,
n_samples and parameters on an inner ``stop``, the ranking and summary
on an outer reply that regenerates nothing. A ``search`` without
parameters gets an empty object.
"""

from __future__ import annotations

import json
from typing import List, Mapping, Optional, Sequence

from ..errors import JsonUnparseable, SchemaViolation
from ..space import ACTIONS

CONFIDENCE_LEVELS = ("high", "medium", "low")
IMPACT_LEVELS = ("critical", "high", "medium", "low")
SENSITIVITY_LEVELS = ("high", "medium", "low")
RISK_LEVELS = ("low", "medium", "high")
INNER_ACTIONS = ("search", "stop")


# ------------------------------------------------------------ raw repairs


def _strip_fences(raw: str) -> str:
    lines = [ln for ln in raw.splitlines() if not ln.lstrip().startswith("```")]
    return "\n".join(lines)


def _outermost_object(raw: str) -> str:
    """Slice from the first '{' to its balanced partner, string-aware."""
    start = raw.find("{")
    if start < 0:
        raise JsonUnparseable("no JSON object found in response")
    depth = 0
    in_string = False
    escaped = False
    for i in range(start, len(raw)):
        ch = raw[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return raw[start : i + 1]
    raise JsonUnparseable("unbalanced braces in response")


# ------------------------------------------------------------- coercions


def _as_str(data: Mapping, name: str) -> str:
    value = data[name]
    if not isinstance(value, str):
        raise SchemaViolation(name, "string")
    return value


def _as_int(value: object, name: str) -> int:
    if isinstance(value, bool):
        raise SchemaViolation(name, "integer")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            raise SchemaViolation(name, "integer")
    raise SchemaViolation(name, "integer")


def _as_number(value: object, name: str) -> float:
    if isinstance(value, bool):
        raise SchemaViolation(name, "number")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            raise SchemaViolation(name, "number")
    raise SchemaViolation(name, "number")


def _as_enum(value: object, name: str, allowed: Sequence[str]) -> str:
    if not isinstance(value, str) or value not in allowed:
        raise SchemaViolation(name, f"one of {'|'.join(allowed)}")
    return value


def _check_fields(data: Mapping, name: str, required: Sequence[str], optional: Sequence[str] = ()):
    if not isinstance(data, Mapping):
        raise SchemaViolation(name, "object")
    for key in required:
        if key not in data:
            raise SchemaViolation(f"{name}.{key}" if name else key, "required field")
    allowed = set(required) | set(optional)
    for key in data:
        if key not in allowed:
            raise SchemaViolation(f"{name}.{key}" if name else key, "no such field")


# ------------------------------------------------------------ validators
#
# Each validator checks one parsed reply in place, coercing numeric
# strings, and returns that same dict: the validated wire JSON is the
# decision. Fields the action does not use are dropped.


def _validate_understanding(data: dict) -> dict:
    _check_fields(
        data,
        "",
        required=(
            "circuit_topology_overview",
            "optimization_variables_mapping",
            "optimization_variables_impact",
            "variable_interactions",
            "key_insights_for_optimization",
        ),
    )
    impact = data["optimization_variables_impact"]
    if not isinstance(impact, Mapping) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in impact.items()
    ):
        raise SchemaViolation("optimization_variables_impact", "object of strings")
    insights = data["key_insights_for_optimization"]
    if (
        not isinstance(insights, list)
        or not (3 <= len(insights) <= 5)
        or not all(isinstance(s, str) for s in insights)
    ):
        raise SchemaViolation("key_insights_for_optimization", "list of 3-5 strings")
    for name in ("circuit_topology_overview", "optimization_variables_mapping",
                 "variable_interactions"):
        _as_str(data, name)
    return data


def _validate_ranking(rows: object) -> None:
    if not isinstance(rows, list) or not rows:
        raise SchemaViolation("variable_ranking", "non-empty list")
    for i, row in enumerate(rows):
        name = f"variable_ranking[{i}]"
        _check_fields(row, name, required=("rank", "variable", "impact_on_target", "reasoning"))
        row["rank"] = _as_int(row["rank"], f"{name}.rank")
        _as_str(row, "variable")
        _as_enum(row["impact_on_target"], f"{name}.impact_on_target", IMPACT_LEVELS)
        _as_str(row, "reasoning")


def _validate_optimize_entry(var: str, entry: dict, outer: bool) -> None:
    name = f"variables_to_optimize.{var}"
    required = ["rank", "search_space", "num_choices", "range_reasoning",
                "expected_behavior", "sensitivity"]
    optional = ["change_from_previous"] if outer else []
    _check_fields(entry, name, required=required, optional=optional)
    values = entry["search_space"]
    if not isinstance(values, list) or not values:
        raise SchemaViolation(f"{name}.search_space", "non-empty list of numbers")
    entry["search_space"] = [_as_number(v, f"{name}.search_space") for v in values]
    entry["rank"] = _as_int(entry["rank"], f"{name}.rank")
    entry["num_choices"] = _as_int(entry["num_choices"], f"{name}.num_choices")
    _as_str(entry, "range_reasoning")
    _as_str(entry, "expected_behavior")
    _as_enum(entry["sensitivity"], f"{name}.sensitivity", SENSITIVITY_LEVELS)
    if "change_from_previous" in entry:
        _as_str(entry, "change_from_previous")


def _validate_fixed_entry(var: str, entry: dict, outer: bool) -> None:
    name = f"variables_fixed.{var}"
    required = ["rank", "fixed_value", "fixed_reasoning", "why_this_value",
                "risk_if_suboptimal"]
    optional = ["change_from_previous"] if outer else []
    _check_fields(entry, name, required=required, optional=optional)
    entry["rank"] = _as_int(entry["rank"], f"{name}.rank")
    entry["fixed_value"] = _as_number(entry["fixed_value"], f"{name}.fixed_value")
    _as_str(entry, "fixed_reasoning")
    _as_str(entry, "why_this_value")
    _as_enum(entry["risk_if_suboptimal"], f"{name}.risk_if_suboptimal", RISK_LEVELS)
    if "change_from_previous" in entry:
        _as_str(entry, "change_from_previous")


def _validate_summary(summary: dict, outer: bool) -> None:
    name = "search_space_summary"
    required = ["original_full_space", "reduced_search_space", "reduction_factor",
                "calculation", "explanation"]
    optional = ["change_factor"] if outer else []
    _check_fields(summary, name, required=required, optional=optional)
    for key in ("original_full_space", "reduced_search_space"):
        summary[key] = _as_int(summary[key], f"{name}.{key}")


def _validate_configuration(configuration: dict, outer: bool) -> None:
    _check_fields(
        configuration, "optimization_configuration",
        required=("variables_to_optimize", "variables_fixed"),
    )
    optimize = configuration["variables_to_optimize"]
    fixed = configuration["variables_fixed"]
    if not isinstance(optimize, Mapping):
        raise SchemaViolation("variables_to_optimize", "object")
    if not isinstance(fixed, Mapping):
        raise SchemaViolation("variables_fixed", "object")
    for var, entry in optimize.items():
        _validate_optimize_entry(var, entry, outer)
    for var, entry in fixed.items():
        _validate_fixed_entry(var, entry, outer)


def _validate_plan(data: dict) -> dict:
    _check_fields(
        data,
        "",
        required=(
            "optimization_target",
            "num_variables_to_optimize",
            "variable_ranking",
            "optimization_configuration",
            "search_space_summary",
        ),
    )
    _validate_configuration(data["optimization_configuration"], outer=False)
    _as_str(data, "optimization_target")
    data["num_variables_to_optimize"] = _as_int(
        data["num_variables_to_optimize"], "num_variables_to_optimize"
    )
    _validate_ranking(data["variable_ranking"])
    _validate_summary(data["search_space_summary"], outer=False)
    return data


def _validate_inner(data: dict) -> dict:
    _check_fields(
        data,
        "",
        required=("action", "reasoning", "confidence", "expected_improvement",
                  "convergence_assessment"),
        optional=("method", "n_samples", "parameters"),
    )
    action = _as_enum(data["action"], "action", INNER_ACTIONS)
    _as_enum(data["confidence"], "confidence", CONFIDENCE_LEVELS)
    _as_str(data, "reasoning")
    data["expected_improvement"] = str(data["expected_improvement"])
    _as_str(data, "convergence_assessment")
    if action != "search":
        for key in ("method", "n_samples", "parameters"):
            data.pop(key, None)
        return data
    if "method" not in data or "n_samples" not in data:
        raise SchemaViolation("method", "required when action is search")
    _as_str(data, "method")
    data["n_samples"] = _as_int(data["n_samples"], "n_samples")
    if data["n_samples"] < 1:
        raise SchemaViolation("n_samples", "positive integer")
    if not isinstance(data.setdefault("parameters", {}), Mapping):
        raise SchemaViolation("parameters", "object")
    return data


def _validate_outer(data: dict) -> dict:
    _check_fields(
        data,
        "",
        required=(
            "optimization_target",
            "regeneration_reasoning",
            "action_taken",
            "changes_from_previous",
            "expected_improvement",
            "confidence",
        ),
        optional=("variable_ranking", "optimization_configuration", "search_space_summary"),
    )
    action = _as_enum(data["action_taken"], "action_taken", ACTIONS)
    _as_enum(data["confidence"], "confidence", CONFIDENCE_LEVELS)
    regenerates = "optimization_configuration" in data
    if action not in ("continue_current", "converged") and not regenerates:
        raise SchemaViolation("optimization_configuration", f"required for action {action}")
    if regenerates:
        if "variable_ranking" not in data or "search_space_summary" not in data:
            raise SchemaViolation("variable_ranking", "required alongside the regenerated plan")
        _validate_configuration(data["optimization_configuration"], outer=True)
    _as_str(data, "optimization_target")
    if regenerates:
        _validate_ranking(data["variable_ranking"])
        _validate_summary(data["search_space_summary"], outer=True)
    else:
        data.pop("variable_ranking", None)
        data.pop("search_space_summary", None)
    _as_str(data, "regeneration_reasoning")
    _as_str(data, "changes_from_previous")
    data["expected_improvement"] = str(data["expected_improvement"])
    return data


_VALIDATORS = {
    "understanding": _validate_understanding,
    "plan": _validate_plan,
    "inner": _validate_inner,
    "outer": _validate_outer,
}


def parse_agent_json(raw: str, schema: str, repairs: Optional[List[str]] = None) -> dict:
    """Parse one agent response into its validated wire dict.

    Repairs, in order: strip markdown fences, trim to the outermost
    balanced JSON object. Each applied repair is appended to ``repairs``
    when a list is supplied.
    """
    if schema not in _VALIDATORS:
        raise ValueError(f"unknown schema {schema!r}")
    if not isinstance(raw, str) or not raw.strip():
        raise JsonUnparseable("empty response")

    text = raw
    if "```" in text:
        text = _strip_fences(text)
        if repairs is not None:
            repairs.append("stripped code fences")
    candidate = _outermost_object(text)
    if candidate.strip() != text.strip() and repairs is not None:
        repairs.append("trimmed surrounding prose")
    try:
        data = json.loads(candidate)
    except json.JSONDecodeError as exc:
        raise JsonUnparseable(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise JsonUnparseable("top-level JSON value is not an object")
    return _VALIDATORS[schema](data)
