"""The JSON wire formats of the agent's decisions, and their validation.

Four schemas, named as the decisions they check: ``understand`` (the
circuit understanding), ``plan`` (the initial space plan), ``inner``
(the inner-loop method decision) and ``outer`` (the outer-loop
regeneration). A model's decision is its validated wire dict: the model
backend returns it, the controller acts on it and the decision log
records it as it is. The rule policy's decisions share these shapes,
except its outer edits: they carry no ``optimization_configuration``,
so the outer schema rejects them (see ``rule``). Model output often
wraps the JSON in prose or markdown, so parse_agent_json reads a reply
once: it drops every line that starts with a markdown fence, decodes
the first JSON object from its ``{`` with the standard library's
``JSONDecoder.raw_decode``, and notes any prose around that object.

Each wire section is a table that maps its fields, each named once, to
their kinds. A kind checks one value and returns it, coerced, or raises
SchemaViolation: string, text (any value, made a string), integer and
finite number (numeric strings are parsed), enum, non-empty number list,
unchecked, the understanding's object of strings and list of 3-5
strings, and three that nest: section (a table of its own), list rows
and by-name entries. A section refuses a missing required field and an
unknown one, then checks its fields in table order, in place. Every
violation names its field by its path from the top of the reply,
``parent.key`` or ``parent[i]``, as in ``variable_ranking[0].reasoning``
or ``optimization_configuration.variables_to_optimize.a.rank``.

The inner and outer replies add the rules of their action. A ``search``
needs ``method`` and ``n_samples``, and its ``parameters`` default to an
empty object; a ``stop`` drops those three unchecked. Which methods,
parameters and batch sizes a search may name is the optimizer pool's
rule (``validate_method_config``), checked by the model backend. An
outer reply other than ``continue_current`` or ``converged`` needs
``optimization_configuration``. A reply that carries one regenerates
the space and also needs the ranking and summary; one that does not
drops those two unchecked.
"""

from __future__ import annotations

import json
import math
from typing import Callable, List, Mapping, Optional, Sequence

from ..errors import JsonUnparseable, SchemaViolation
from ..space import ACTIONS

CONFIDENCE_LEVELS = ("high", "medium", "low")
IMPACT_LEVELS = ("critical", "high", "medium", "low")
SENSITIVITY_LEVELS = ("high", "medium", "low")
RISK_LEVELS = ("low", "medium", "high")
INNER_ACTIONS = ("search", "stop")

# a kind checks the value at a path and returns it, coerced
Kind = Callable[[object, str], object]


# ------------------------------------------------------------------ kinds


def _string(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaViolation(path, "string")
    return value


def _text(value: object, path: str) -> str:
    return str(value)


def _unchecked(value: object, path: str) -> object:
    return value


def _numeric(cast: type, expected: str) -> Kind:
    """Integer or number: a numeric string is parsed and an integral float
    made an int; a boolean is neither, and a number is finite (JSON's
    ``NaN`` and ``Infinity``, "nan", "inf" and "1e999" are none)."""
    def check(value: object, path: str):
        number = None
        try:
            if isinstance(value, str):
                number = cast(value.strip())
            elif isinstance(value, (int, float)) and not isinstance(value, bool) and (
                    cast is float or isinstance(value, int) or value.is_integer()):
                number = cast(value)
        except (ValueError, OverflowError):  # not a numeral, or an int past float range
            pass
        if number is None or (cast is float and not math.isfinite(number)):
            raise SchemaViolation(path, expected)
        return number
    return check


_integer = _numeric(int, "integer")
_number = _numeric(float, "number")


def _numbers(value: object, path: str) -> List[float]:
    if not isinstance(value, list) or not value:
        raise SchemaViolation(path, "non-empty list of numbers")
    return [_number(v, path) for v in value]


def _strings_by_name(value: object, path: str) -> object:
    if not isinstance(value, Mapping) or not all(isinstance(v, str) for v in value.values()):
        raise SchemaViolation(path, "object of strings")
    return value


def _insights(value: object, path: str) -> object:
    if (not isinstance(value, list) or not 3 <= len(value) <= 5
            or not all(isinstance(s, str) for s in value)):
        raise SchemaViolation(path, "list of 3-5 strings")
    return value


def _enum(allowed: Sequence[str]) -> Kind:
    def check(value: object, path: str) -> str:
        if not isinstance(value, str) or value not in allowed:
            raise SchemaViolation(path, f"one of {'|'.join(allowed)}")
        return value
    return check


def _section(required: Mapping[str, Kind], **optional: Kind) -> Kind:
    """An object with the table's fields, each checked and coerced in place."""
    fields = {**required, **optional}

    def check(data: object, path: str = "") -> object:
        if not isinstance(data, Mapping):
            raise SchemaViolation(path, "object")
        prefix = f"{path}." if path else ""
        for key in required:
            if key not in data:
                raise SchemaViolation(prefix + key, "required field")
        for key in data:
            if key not in fields:
                raise SchemaViolation(prefix + key, "no such field")
        for key, kind in fields.items():
            if key in data:
                data[key] = kind(data[key], prefix + key)
        return data
    return check


def _rows(kind: Kind) -> Kind:
    def check(rows: object, path: str) -> object:
        if not isinstance(rows, list) or not rows:
            raise SchemaViolation(path, "non-empty list")
        for i, row in enumerate(rows):
            rows[i] = kind(row, f"{path}[{i}]")
        return rows
    return check


def _by_name(kind: Kind) -> Kind:
    def check(entries: object, path: str) -> object:
        if not isinstance(entries, Mapping):
            raise SchemaViolation(path, "object")
        for name, entry in entries.items():
            entries[name] = kind(entry, f"{path}.{name}")
        return entries
    return check


# ----------------------------------------------------------------- tables

_OPTIMIZE_ENTRY = {
    "rank": _integer,
    "search_space": _numbers,
    "num_choices": _integer,
    "range_reasoning": _string,
    "expected_behavior": _string,
    "sensitivity": _enum(SENSITIVITY_LEVELS),
}
_FIXED_ENTRY = {
    "rank": _integer,
    "fixed_value": _number,
    "fixed_reasoning": _string,
    "why_this_value": _string,
    "risk_if_suboptimal": _enum(RISK_LEVELS),
}
_SUMMARY = {
    "original_full_space": _integer,
    "reduced_search_space": _integer,
    "reduction_factor": _unchecked,
    "calculation": _unchecked,
    "explanation": _unchecked,
}
_RANKING = _rows(_section({
    "rank": _integer,
    "variable": _string,
    "impact_on_target": _enum(IMPACT_LEVELS),
    "reasoning": _string,
}))


def _configuration(**revision: Kind) -> Kind:
    """The plan's configuration; an outer reply's entries may also carry
    the ``revision`` fields."""
    return _section({
        "variables_to_optimize": _by_name(_section(_OPTIMIZE_ENTRY, **revision)),
        "variables_fixed": _by_name(_section(_FIXED_ENTRY, **revision)),
    })


_UNDERSTAND = _section({
    "circuit_topology_overview": _string,
    "optimization_variables_mapping": _string,
    "optimization_variables_impact": _strings_by_name,
    "variable_interactions": _string,
    "key_insights_for_optimization": _insights,
})
_PLAN = _section({
    "optimization_target": _string,
    "num_variables_to_optimize": _integer,
    "variable_ranking": _RANKING,
    "optimization_configuration": _configuration(),
    "search_space_summary": _section(_SUMMARY),
})
_INNER = _section(
    {
        "action": _enum(INNER_ACTIONS),
        "reasoning": _string,
        "confidence": _enum(CONFIDENCE_LEVELS),
        "expected_improvement": _text,
        "convergence_assessment": _string,
    },
    method=_string,
    n_samples=_integer,
    parameters=_by_name(_unchecked),
)
_OUTER = _section(
    {
        "optimization_target": _string,
        "regeneration_reasoning": _string,
        "action_taken": _enum(ACTIONS),
        "changes_from_previous": _string,
        "expected_improvement": _text,
        "confidence": _enum(CONFIDENCE_LEVELS),
    },
    variable_ranking=_RANKING,
    optimization_configuration=_configuration(change_from_previous=_string),
    search_space_summary=_section(_SUMMARY, change_factor=_unchecked),
)


# ----------------------------------------------------------- action rules
#
# Each validator checks one parsed reply in place and returns that same
# dict: the validated wire JSON is the decision. An action that is not
# one of its enum is left for the table to name.


def _validate_inner(data: dict) -> dict:
    action = data.get("action")
    if action == "stop":
        for key in ("method", "n_samples", "parameters"):
            data.pop(key, None)
    elif action == "search":
        for key in ("method", "n_samples"):
            if key not in data:
                raise SchemaViolation(key, "required when action is search")
        data.setdefault("parameters", {})
    return _INNER(data)


def _validate_outer(data: dict) -> dict:
    action = data.get("action_taken")
    if action in ACTIONS:
        if "optimization_configuration" in data:
            for key in ("variable_ranking", "search_space_summary"):
                if key not in data:
                    raise SchemaViolation(key, "required alongside the regenerated plan")
        elif action not in ("continue_current", "converged"):
            raise SchemaViolation("optimization_configuration", f"required for action {action}")
        else:
            data.pop("variable_ranking", None)
            data.pop("search_space_summary", None)
    return _OUTER(data)


_VALIDATORS = {
    "understand": _UNDERSTAND,
    "plan": _PLAN,
    "inner": _validate_inner,
    "outer": _validate_outer,
}


_DECODER = json.JSONDecoder()


def parse_agent_json(raw: str, schema: str, repairs: Optional[List[str]] = None) -> dict:
    """Parse one agent response into its validated wire dict.

    Repairs, in order: drop every line that starts with a markdown
    fence, then decode the first JSON object where its ``{`` stands;
    text other than whitespace before or after that object is
    surrounding prose. Each applied repair is appended to ``repairs``
    when a list is supplied.
    """
    if schema not in _VALIDATORS:
        raise ValueError(f"unknown schema {schema!r}")
    if not isinstance(raw, str) or not raw.strip():
        raise JsonUnparseable("empty response")

    text = raw
    if "```" in text:
        # lines end at "\n" only: ``splitlines`` would also break at U+2028,
        # U+2029 and U+0085, which a JSON string may hold unescaped
        text = "\n".join(ln for ln in text.split("\n") if not ln.lstrip().startswith("```"))
        if repairs is not None:
            repairs.append("stripped code fences")
    start = text.find("{")
    if start < 0:
        raise JsonUnparseable("no JSON object found in response")
    try:
        data, end = _DECODER.raw_decode(text[start:])
    except (ValueError, RecursionError) as exc:
        # malformed JSON, an integer past Python's digit limit, or nesting
        # past the recursion limit
        raise JsonUnparseable(f"invalid JSON: {exc}") from None
    if (text[:start].strip() or text[start + end:].strip()) and repairs is not None:
        repairs.append("trimmed surrounding prose")
    return _VALIDATORS[schema](data)
