"""Benchmark configuration parsing and netlist/testbench rendering.

A benchmark config is a YAML document: fixed params, the optimization
variables (keys with null values), the shared discrete width grid,
scaling rules mapping derived widths onto base variables, pin lists,
metric names, the user specification expression, and two text templates
with ``{placeholder}`` slots (subcircuit and testbench). Unknown keys
are preserved verbatim in ``passthrough`` so benchmark extensions never
break parsing.

A ``BenchmarkConfig`` is frozen and parses its spec expression once, into
``spec``; a config made by ``dataclasses.replace`` parses its own.

A value of the wrong shape (a word or NaN for a number, a fraction for
a count, a scalar for a list) is a ConfigError naming its key: see
``read_number`` and ``read_list``.

Placeholder syntax is exactly single-brace ``{name}``; a doubled brace
``{{`` escapes a literal brace. The same engine renders the agent
prompt templates.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import yaml

from .core import SpecExpr, parse_spec
from .errors import (
    BadScaleRef,
    ConfigError,
    MissingAssignment,
    MissingKey,
    NonMonotonicGrid,
    TemplateUnresolvable,
    ValueOffGrid,
)

# libyaml's parser when PyYAML is built with it: the same documents in a
# fraction of the pure-Python parser's time
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_SLOT = re.compile(r"\{\{|\}\}|\{([A-Za-z_][A-Za-z0-9_]*)\}")


def render_template(template: str, mapping: Mapping[str, str]) -> str:
    """Substitute ``{name}`` slots from ``mapping``; ``{{``/``}}`` escape.

    An unknown slot raises TemplateUnresolvable rather than passing
    through.
    """

    def sub(m: re.Match) -> str:
        tok = m.group(0)
        if tok == "{{":
            return "{"
        if tok == "}}":
            return "}"
        name = m.group(1)
        if name not in mapping:
            raise TemplateUnresolvable(name)
        return mapping[name]

    return _SLOT.sub(sub, template)


def read_number(key: str, value, kind: type = float):
    """``value`` as a finite ``kind`` (float or int), else ConfigError
    naming ``key``; an int refuses a fraction rather than cut it off, and
    neither takes a YAML boolean for 0 or 1."""
    try:
        number = kind(value)
        if (math.isfinite(number) and not isinstance(value, bool)
                and not (isinstance(value, float) and number != value)):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    noun = "an integer" if kind is int else "a finite number"
    raise ConfigError(f"{key!r} must be {noun}, got {value!r}")


def read_list(key: str, value) -> list:
    """``value`` when it is a list, else ConfigError naming ``key``."""
    if not isinstance(value, list):
        raise ConfigError(f"{key!r} must be a list, got {value!r}")
    return value


def format_value(x: float) -> str:
    """Shortest round-trip decimal form, as SPICE decks expect."""
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


@dataclass(frozen=True)
class BenchmarkConfig:
    name: str
    pdk_lib_path: str
    user_specs_metric: str
    params: Dict[str, float]
    variables: List[str]
    w_values: List[float]
    width_scales: Dict[str, Tuple[str, float]]
    subckt_name: str
    subckt_pins: List[str]
    metrics: List[str]
    subckt_template: str
    testbench_template: str
    passthrough: Dict[str, object] = field(default_factory=dict)
    # ``user_specs_metric`` parsed when the config is made (or a SpecParseError)
    spec: SpecExpr = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "spec", parse_spec(self.user_specs_metric))

    def grid_for(self, var: str) -> List[float]:
        # one universal grid for every width variable
        return list(self.w_values)

    def full_grid_cardinality(self) -> int:
        return len(self.w_values) ** len(self.variables)


@dataclass(frozen=True)
class RenderedDeck:
    netlist_text: str
    testbench_text: str


_REQUIRED = (
    "user_specs_metric",
    "variable",
    "W_values",
    "subckt_name",
    "subckt_pins",
    "metrics",
    "ota_subckt_template",
    "testbench_template",
)

_KNOWN = set(_REQUIRED) | {"name", "pdk_lib_path", "params", "width_scales"}


def parse_yaml_mapping(source: str, what: str) -> dict:
    """The one YAML document of ``source``, which must be a mapping, else
    a ConfigError that calls the document ``what``."""
    try:
        doc = yaml.load(source, Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: a scalar its constructor refuses, such as an integer
        # literal past Python's int-to-string digit limit
        raise ConfigError(f"{what} is not well-formed: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} document must be a mapping")
    return doc


def parse_config(source: str) -> BenchmarkConfig:
    doc = parse_yaml_mapping(source, "config")

    for key in _REQUIRED:
        if key not in doc:
            raise MissingKey(key)

    variable_block = doc["variable"]
    if not isinstance(variable_block, dict) or not variable_block:
        raise ConfigError("'variable' must be a non-empty mapping")
    variables = []
    for name, value in variable_block.items():
        if value is not None:
            raise ConfigError(f"variable {name!r} must have a null value, got {value!r}")
        variables.append(str(name))

    w_values = [read_number("W_values", v) for v in read_list("W_values", doc["W_values"])]
    if any(v <= 0 for v in w_values):
        raise NonMonotonicGrid("W_values must be positive")
    if any(b <= a for a, b in zip(w_values, w_values[1:])):
        raise NonMonotonicGrid("W_values must be strictly increasing")

    width_scales: Dict[str, Tuple[str, float]] = {}
    for derived, entry in (doc.get("width_scales") or {}).items():
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ConfigError(f"width_scales entry {derived!r} must be [base, multiplier]")
        base, multiplier = str(entry[0]), read_number(f"width_scales.{derived}", entry[1])
        if base not in variables:
            raise BadScaleRef(derived, base)
        if multiplier <= 0:
            raise ConfigError(f"width_scales multiplier for {derived!r} must be positive")
        width_scales[str(derived)] = (base, multiplier)

    params = {str(k): read_number(f"params.{k}", v) for k, v in (doc.get("params") or {}).items()}

    metrics = [str(m) for m in read_list("metrics", doc["metrics"])]
    if not metrics:
        raise ConfigError("metrics list must be non-empty")

    subckt_name = str(doc["subckt_name"])
    subckt_pins = [str(p) for p in read_list("subckt_pins", doc["subckt_pins"])]

    passthrough = {k: v for k, v in doc.items() if k not in _KNOWN}

    config = BenchmarkConfig(
        name=str(doc.get("name", subckt_name.lower())),
        pdk_lib_path=str(doc.get("pdk_lib_path", "")),
        user_specs_metric=str(doc["user_specs_metric"]),
        params=params,
        variables=variables,
        w_values=w_values,
        width_scales=width_scales,
        subckt_name=subckt_name,
        subckt_pins=subckt_pins,
        metrics=metrics,
        subckt_template=str(doc["ota_subckt_template"]),
        testbench_template=str(doc["testbench_template"]),
        passthrough=passthrough,
    )
    _check_templates_resolvable(config)
    return config


def load_config(path: str) -> BenchmarkConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _resolvable_names(config: BenchmarkConfig) -> set:
    names = set(config.params)
    names.update(config.variables)
    names.update(config.width_scales)
    names.update(("pdk_lib_path", "subckt_name", "ota_subckt", "inst_pins"))
    return names


def _check_templates_resolvable(config: BenchmarkConfig) -> None:
    """Render each template once with every resolvable name blank: the
    first slot nothing fills raises TemplateUnresolvable."""
    blank = dict.fromkeys(_resolvable_names(config), "")
    for template in (config.subckt_template, config.testbench_template):
        render_template(template, blank)


def render_deck(config: BenchmarkConfig, assignment: Mapping[str, float]) -> RenderedDeck:
    """Render subcircuit and testbench text for one grid assignment.

    Derived widths are base value times multiplier, rounded to 9
    decimals so grid arithmetic like 0.84 * 2 renders as "1.68" and not
    a 17-digit float tail. Pure function of (config, assignment).
    """
    for var in config.variables:
        if var not in assignment:
            raise MissingAssignment(var)
    grid = set(config.w_values)
    for var in config.variables:
        if assignment[var] not in grid:
            raise ValueOffGrid(var, assignment[var])

    mapping: Dict[str, str] = {}
    for name, value in config.params.items():
        mapping[name] = format_value(value)
    for var in config.variables:
        mapping[var] = format_value(assignment[var])
    for derived, (base, multiplier) in config.width_scales.items():
        mapping[derived] = format_value(round(assignment[base] * multiplier, 9))
    mapping["pdk_lib_path"] = config.pdk_lib_path
    mapping["subckt_name"] = config.subckt_name

    netlist_text = render_template(config.subckt_template, mapping)
    mapping["ota_subckt"] = netlist_text
    mapping["inst_pins"] = " ".join(config.subckt_pins)
    testbench_text = render_template(config.testbench_template, mapping)
    return RenderedDeck(netlist_text, testbench_text)
