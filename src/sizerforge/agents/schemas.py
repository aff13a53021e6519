"""Decision objects and the JSON wire formats they parse from.

Four schemas: circuit understanding, initial space plan, inner-loop
method decision, outer-loop regeneration. parse_agent_json applies a
fixed repair ladder (strip fences, trim to the outermost balanced
object) before validation, because model output often wraps the JSON
in prose or markdown.

Validation is strict: unknown field names, missing required fields and
out-of-enum values all raise SchemaViolation. Numeric strings are
coerced; nothing else is rewritten.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..errors import JsonUnparseable, SchemaViolation
from ..space import ACTIONS

CONFIDENCE_LEVELS = ("high", "medium", "low")
IMPACT_LEVELS = ("critical", "high", "medium", "low")
SENSITIVITY_LEVELS = ("high", "medium", "low")
RISK_LEVELS = ("low", "medium", "high")
INNER_ACTIONS = ("search", "stop")


# ---------------------------------------------------------------- objects


@dataclass
class CircuitUnderstanding:
    topology_overview: str
    variable_mapping: str
    impact: Dict[str, str]  # metric -> prose
    interactions: str
    key_insights: List[str]
    sensitivity: Dict[str, str] = field(default_factory=dict)  # var -> level

    def to_wire(self) -> dict:
        return {
            "circuit_topology_overview": self.topology_overview,
            "optimization_variables_mapping": self.variable_mapping,
            "optimization_variables_impact": dict(self.impact),
            "variable_interactions": self.interactions,
            "key_insights_for_optimization": list(self.key_insights),
        }


@dataclass
class SpacePlan:
    target: str
    n_to_optimize: int
    ranking: List[Dict[str, object]]
    optimize: Dict[str, Dict[str, object]]  # var -> entry with "values" alias
    fixed: Dict[str, Dict[str, object]]  # var -> entry with "value" alias
    summary: Dict[str, object]

    def sensitivity_of(self, var: str) -> str:
        if var in self.optimize:
            return str(self.optimize[var].get("sensitivity", "medium"))
        return "medium"

    def cardinality(self) -> int:
        out = 1
        for entry in self.optimize.values():
            out *= len(entry["values"])
        return out

    def to_wire(self) -> dict:
        optimize = {}
        for var, entry in self.optimize.items():
            e = {k: v for k, v in entry.items() if k != "values"}
            e["search_space"] = list(entry["values"])
            optimize[var] = e
        fixed = {}
        for var, entry in self.fixed.items():
            e = {k: v for k, v in entry.items() if k != "value"}
            e["fixed_value"] = entry["value"]
            fixed[var] = e
        return {
            "optimization_target": self.target,
            "num_variables_to_optimize": self.n_to_optimize,
            "variable_ranking": [dict(r) for r in self.ranking],
            "optimization_configuration": {
                "variables_to_optimize": optimize,
                "variables_fixed": fixed,
            },
            "search_space_summary": dict(self.summary),
        }


@dataclass
class InnerDecision:
    action: str  # search | stop
    method: Optional[str] = None
    n_samples: Optional[int] = None
    parameters: Dict[str, object] = field(default_factory=dict)
    reasoning: str = ""
    confidence: str = "medium"
    expected_improvement: str = ""
    convergence_assessment: str = ""

    def to_wire(self) -> dict:
        out = {
            "action": self.action,
            "reasoning": self.reasoning,
            "confidence": self.confidence,
            "expected_improvement": self.expected_improvement,
            "convergence_assessment": self.convergence_assessment,
        }
        if self.action == "search":
            out["method"] = self.method
            out["n_samples"] = self.n_samples
            out["parameters"] = dict(self.parameters)
        return out


@dataclass
class OuterDecision:
    action: str  # one of space.ACTIONS
    target: str = ""
    reasoning: str = ""
    changes_from_previous: str = ""
    plan: Optional[SpacePlan] = None
    expected_improvement: str = ""
    confidence: str = "medium"
    # rule-path edits are applied directly instead of via a regenerated
    # plan; this never appears on the wire
    edit: Optional[object] = None

    def to_wire(self) -> dict:
        out = {
            "optimization_target": self.target,
            "regeneration_reasoning": self.reasoning,
            "action_taken": self.action,
            "changes_from_previous": self.changes_from_previous,
            "expected_improvement": self.expected_improvement,
            "confidence": self.confidence,
        }
        if self.plan is not None:
            wire_plan = self.plan.to_wire()
            out["variable_ranking"] = wire_plan["variable_ranking"]
            out["optimization_configuration"] = wire_plan["optimization_configuration"]
            out["search_space_summary"] = wire_plan["search_space_summary"]
        return out


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


def _validate_understanding(data: Mapping) -> CircuitUnderstanding:
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
    return CircuitUnderstanding(
        topology_overview=_as_str(data, "circuit_topology_overview"),
        variable_mapping=_as_str(data, "optimization_variables_mapping"),
        impact=dict(impact),
        interactions=_as_str(data, "variable_interactions"),
        key_insights=list(insights),
    )


def _validate_ranking(raw: object) -> List[Dict[str, object]]:
    if not isinstance(raw, list) or not raw:
        raise SchemaViolation("variable_ranking", "non-empty list")
    ranking = []
    for i, row in enumerate(raw):
        name = f"variable_ranking[{i}]"
        _check_fields(row, name, required=("rank", "variable", "impact_on_target", "reasoning"))
        ranking.append(
            {
                "rank": _as_int(row["rank"], f"{name}.rank"),
                "variable": _as_str(row, "variable"),
                "impact_on_target": _as_enum(
                    row["impact_on_target"], f"{name}.impact_on_target", IMPACT_LEVELS
                ),
                "reasoning": _as_str(row, "reasoning"),
            }
        )
    return ranking


def _validate_optimize_entry(var: str, entry: Mapping, outer: bool) -> Dict[str, object]:
    name = f"variables_to_optimize.{var}"
    required = ["rank", "search_space", "num_choices", "range_reasoning",
                "expected_behavior", "sensitivity"]
    optional = ["change_from_previous"] if outer else []
    _check_fields(entry, name, required=required, optional=optional)
    raw_values = entry["search_space"]
    if not isinstance(raw_values, list) or not raw_values:
        raise SchemaViolation(f"{name}.search_space", "non-empty list of numbers")
    values = [_as_number(v, f"{name}.search_space") for v in raw_values]
    out = {
        "rank": _as_int(entry["rank"], f"{name}.rank"),
        "values": values,
        "num_choices": _as_int(entry["num_choices"], f"{name}.num_choices"),
        "range_reasoning": _as_str(entry, "range_reasoning"),
        "expected_behavior": _as_str(entry, "expected_behavior"),
        "sensitivity": _as_enum(entry["sensitivity"], f"{name}.sensitivity", SENSITIVITY_LEVELS),
    }
    if "change_from_previous" in entry:
        out["change_from_previous"] = _as_str(entry, "change_from_previous")
    return out


def _validate_fixed_entry(var: str, entry: Mapping, outer: bool) -> Dict[str, object]:
    name = f"variables_fixed.{var}"
    required = ["rank", "fixed_value", "fixed_reasoning", "why_this_value",
                "risk_if_suboptimal"]
    optional = ["change_from_previous"] if outer else []
    _check_fields(entry, name, required=required, optional=optional)
    out = {
        "rank": _as_int(entry["rank"], f"{name}.rank"),
        "value": _as_number(entry["fixed_value"], f"{name}.fixed_value"),
        "fixed_reasoning": _as_str(entry, "fixed_reasoning"),
        "why_this_value": _as_str(entry, "why_this_value"),
        "risk_if_suboptimal": _as_enum(
            entry["risk_if_suboptimal"], f"{name}.risk_if_suboptimal", RISK_LEVELS
        ),
    }
    if "change_from_previous" in entry:
        out["change_from_previous"] = _as_str(entry, "change_from_previous")
    return out


def _validate_summary(raw: Mapping, outer: bool) -> Dict[str, object]:
    name = "search_space_summary"
    required = ["original_full_space", "reduced_search_space", "reduction_factor",
                "calculation", "explanation"]
    optional = ["change_factor"] if outer else []
    _check_fields(raw, name, required=required, optional=optional)
    out = dict(raw)
    out["original_full_space"] = _as_int(raw["original_full_space"], f"{name}.original_full_space")
    out["reduced_search_space"] = _as_int(
        raw["reduced_search_space"], f"{name}.reduced_search_space"
    )
    return out


def _validate_configuration(raw: Mapping, outer: bool):
    _check_fields(
        raw, "optimization_configuration", required=("variables_to_optimize", "variables_fixed")
    )
    opt_raw = raw["variables_to_optimize"]
    fix_raw = raw["variables_fixed"]
    if not isinstance(opt_raw, Mapping):
        raise SchemaViolation("variables_to_optimize", "object")
    if not isinstance(fix_raw, Mapping):
        raise SchemaViolation("variables_fixed", "object")
    optimize = {v: _validate_optimize_entry(v, e, outer) for v, e in opt_raw.items()}
    fixed = {v: _validate_fixed_entry(v, e, outer) for v, e in fix_raw.items()}
    return optimize, fixed


def _validate_plan(data: Mapping) -> SpacePlan:
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
    optimize, fixed = _validate_configuration(data["optimization_configuration"], outer=False)
    return SpacePlan(
        target=_as_str(data, "optimization_target"),
        n_to_optimize=_as_int(data["num_variables_to_optimize"], "num_variables_to_optimize"),
        ranking=_validate_ranking(data["variable_ranking"]),
        optimize=optimize,
        fixed=fixed,
        summary=_validate_summary(data["search_space_summary"], outer=False),
    )


def _validate_inner(data: Mapping) -> InnerDecision:
    _check_fields(
        data,
        "",
        required=("action", "reasoning", "confidence", "expected_improvement",
                  "convergence_assessment"),
        optional=("method", "n_samples", "parameters"),
    )
    action = _as_enum(data["action"], "action", INNER_ACTIONS)
    confidence = _as_enum(data["confidence"], "confidence", CONFIDENCE_LEVELS)
    decision = InnerDecision(
        action=action,
        reasoning=_as_str(data, "reasoning"),
        confidence=confidence,
        expected_improvement=str(data["expected_improvement"]),
        convergence_assessment=_as_str(data, "convergence_assessment"),
    )
    if action == "search":
        if "method" not in data or "n_samples" not in data:
            raise SchemaViolation("method", "required when action is search")
        decision.method = _as_str(data, "method")
        decision.n_samples = _as_int(data["n_samples"], "n_samples")
        if decision.n_samples < 1:
            raise SchemaViolation("n_samples", "positive integer")
        params = data.get("parameters", {})
        if not isinstance(params, Mapping):
            raise SchemaViolation("parameters", "object")
        decision.parameters = dict(params)
    return decision


def _validate_outer(data: Mapping) -> OuterDecision:
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
    confidence = _as_enum(data["confidence"], "confidence", CONFIDENCE_LEVELS)
    plan: Optional[SpacePlan] = None
    has_plan = "optimization_configuration" in data
    if action not in ("continue_current", "converged") and not has_plan:
        raise SchemaViolation("optimization_configuration", f"required for action {action}")
    if has_plan:
        if "variable_ranking" not in data or "search_space_summary" not in data:
            raise SchemaViolation("variable_ranking", "required alongside the regenerated plan")
        optimize, fixed = _validate_configuration(data["optimization_configuration"], outer=True)
        plan = SpacePlan(
            target=_as_str(data, "optimization_target"),
            n_to_optimize=len(optimize),
            ranking=_validate_ranking(data["variable_ranking"]),
            optimize=optimize,
            fixed=fixed,
            summary=_validate_summary(data["search_space_summary"], outer=True),
        )
    return OuterDecision(
        action=action,
        target=_as_str(data, "optimization_target"),
        reasoning=_as_str(data, "regeneration_reasoning"),
        changes_from_previous=_as_str(data, "changes_from_previous"),
        plan=plan,
        expected_improvement=str(data["expected_improvement"]),
        confidence=confidence,
    )


_VALIDATORS = {
    "understanding": _validate_understanding,
    "plan": _validate_plan,
    "inner": _validate_inner,
    "outer": _validate_outer,
}


def parse_agent_json(raw: str, schema: str, repairs: Optional[List[str]] = None):
    """Parse one agent response into its validated decision object.

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
