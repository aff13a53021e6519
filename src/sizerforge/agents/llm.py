"""Model-backed decision layer: transport, transcripts, prompt rendering.

Each decision is a single prompt/response exchange, run by one
``LlmBackend._decide`` step for all four operations: the prompt and the
schema share the operation's name (understanding, plan, inner, outer).
The search reaches the two loop prompts only through the diagnostics
report: the inner prompt embeds its ``render_text``, the outer prompt
lays out its sections and its top designs, with the issue lines and the
methods list formatted as the report formats them.
Responses go through parse_agent_json plus op-specific validation (grid
snapping, method and variable-name checks), which edits the wire dict
in place; that dict is the decision. An inner search must name one of
the orchestrated methods, never a baseline. A plan, and an outer reply
that regenerates the space, passes one check, snap and build step
(``planned_space``), and the space it builds is returned with the
decision, so no caller builds it again; a ``converged`` reply's
configuration is never searched, so it is neither checked nor built.
A rejected response earns exactly one retry with the rejection reason
echoed into the re-prompt, after which the rule policy takes over.
Transport failures take the same exit, and every fallback is kept on
``fallbacks``. Repairs, rejections and fallbacks go to the ``log``
callback, by default this module's ``logging`` logger at INFO. A run
never aborts because the model misbehaved.

Transports share one interface, ``complete(prompt, params) -> text``:
HttpTransport speaks the common chat-completion JSON shape, configured
entirely from environment variables; ReplayTransport serves recorded
responses in file order, which makes runs reproducible offline and is
what the test suite uses.
"""

from __future__ import annotations

import json
import logging
import os
import time
from importlib import resources
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..config import format_value, render_template
from ..diagnostics import DiagnosticsReport, methods_text, render_text
from ..errors import (
    BadParameter,
    ConfigError,
    IllegalPlan,
    JsonUnparseable,
    LlmTransport,
    PlanIncomplete,
    SchemaViolation,
    Timeout,
    UnknownMethod,
    ValueOffGrid,
)
from ..optim.pool import ORCHESTRATED, MethodConfig, validate_method_config
from ..space import SearchSpace, SpaceEdit, apply_edit, space_from_plan
from .rule import (
    rule_decide_inner,
    rule_decide_outer,
    rule_plan,
    rule_understand,
    target_metric,
)
from .schemas import parse_agent_json

ENV_URL = "SIZERFORGE_LLM_URL"
ENV_KEY = "SIZERFORGE_LLM_KEY"
ENV_MODEL = "SIZERFORGE_LLM_MODEL"

GENERATION_PARAMS: Dict[str, object] = {
    "temperature": 0.4,
    "top_p": 0.85,
    "top_k": 20,
    "max_tokens": 8192,
}

TRANSPORT_RETRIES = 2
BACKOFF_BASE_S = 1.0

_REJECTABLE = (
    JsonUnparseable,
    SchemaViolation,
    UnknownMethod,
    BadParameter,
    IllegalPlan,
    PlanIncomplete,
    ValueOffGrid,
)


def load_prompt(name: str) -> str:
    ref = resources.files("sizerforge.agents").joinpath(f"prompts/{name}.txt")
    return ref.read_text(encoding="utf-8")


# ------------------------------------------------------------- transports


class HttpTransport:
    """Chat-completion client configured from the environment.

    Missing configuration fails here, in the constructor, before any
    network activity. Transient failures (timeouts, connection errors,
    status 429 and 5xx, malformed bodies) are retried twice with
    exponential backoff; any other status fails at once. What cannot be
    retried away surfaces as LlmTransport or Timeout.
    """

    def __init__(
        self,
        url: Optional[str] = None,
        api_key: Optional[str] = None,
        model: Optional[str] = None,
        timeout_s: float = 120.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.url = url or os.environ.get(ENV_URL)
        self.api_key = api_key or os.environ.get(ENV_KEY)
        self.model = model or os.environ.get(ENV_MODEL)
        missing = [
            env
            for env, value in (
                (ENV_URL, self.url),
                (ENV_KEY, self.api_key),
                (ENV_MODEL, self.model),
            )
            if not value
        ]
        if missing:
            raise ConfigError(
                "llm transport is not configured; set " + ", ".join(missing)
            )
        self.timeout_s = timeout_s
        self._sleep = sleep

    def complete(self, prompt: str, params: Mapping[str, object]) -> str:
        # imported here: only live-model runs need it, and it is slow to load
        import requests

        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            **params,
        }
        headers = {
            "Authorization": f"Bearer {self.api_key}",
            "Content-Type": "application/json",
        }
        last: Optional[Exception] = None
        for attempt in range(TRANSPORT_RETRIES + 1):
            if attempt:
                self._sleep(BACKOFF_BASE_S * 2 ** (attempt - 1))
            try:
                resp = requests.post(
                    self.url, json=payload, headers=headers, timeout=self.timeout_s
                )
            except requests.Timeout:
                last = Timeout(f"llm request timed out after {self.timeout_s:g}s")
                continue
            except requests.RequestException as exc:
                last = LlmTransport(0, str(exc))
                continue
            if resp.status_code != 200:
                last = LlmTransport(resp.status_code, resp.text or "")
                if resp.status_code == 429 or resp.status_code >= 500:
                    continue
                raise last
            try:
                body = resp.json()
                return body["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError):
                last = LlmTransport(
                    resp.status_code, "malformed completion body: " + resp.text[:200]
                )
                continue
        raise last


class ReplayTransport:
    """Serves recorded responses in sorted file order; no network.

    Each file is one call's transcript: {"prompt", "params", "response"}.
    A retry consumes the next file, so recorded retry flows replay
    exactly. Running out of transcripts is a transport failure, which
    the backend turns into a rule fallback.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise ConfigError(f"replay directory not found: {directory}")
        self.files = sorted(
            p for p in self.directory.iterdir() if p.suffix == ".json"
        )
        self._cursor = 0

    def complete(self, prompt: str, params: Mapping[str, object]) -> str:
        if self._cursor >= len(self.files):
            raise LlmTransport(0, "replay transcript exhausted")
        path = self.files[self._cursor]
        self._cursor += 1
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise LlmTransport(0, f"unreadable transcript {path.name}: {exc}")
        response = record.get("response") if isinstance(record, dict) else None
        if not isinstance(response, str):
            raise LlmTransport(0, f"transcript {path.name} carries no response text")
        return response


class TranscriptWriter:
    """One JSON file per agent call: rendered prompt, params, raw response.

    File names sort in call order, so a transcript directory written
    here replays verbatim through ReplayTransport. A directory already
    holding ``.json`` transcripts is refused, so no two runs interleave.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if any(p.suffix == ".json" for p in self.directory.iterdir()):
            raise ConfigError(f"transcript directory {directory} already holds transcripts; "
                              "give each run its own")
        self._count = 0

    def record(self, kind: str, prompt: str, params: Mapping[str, object], response: str) -> Path:
        self._count += 1
        path = self.directory / f"{self._count:04d}_{kind}.json"
        path.write_text(
            json.dumps(
                {"prompt": prompt, "params": dict(params), "response": response},
                indent=2,
            ),
            encoding="utf-8",
        )
        return path


# -------------------------------------------------------- grid repairs


def snap_to_grid(value: float, grid) -> float:
    # ties break toward the smaller grid value
    return min(grid, key=lambda g: (abs(g - value), g))


def planned_space(plan: dict, config, generation: int,
                  log: Callable[[str], None]) -> SearchSpace:
    """The space a plan-carrying reply leads to: the one check, snap and
    build step of the plan and outer validators.

    A reply whose ``optimization_configuration`` names anything but an
    optimization variable (a permanently-fixed param, say) is rejected.
    Every off-grid value is then replaced in place by its nearest grid
    value, active lists sorted and deduplicated, and the space built,
    which raises on a plan that does not cover the variables."""
    configuration = plan["optimization_configuration"]
    allowed = set(config.variables)
    for section in ("variables_to_optimize", "variables_fixed"):
        for var in configuration[section]:
            if var not in allowed:
                raise IllegalPlan(
                    f"{section} names {var!r}, which is not an optimization "
                    "variable and cannot be optimized or unfixed"
                )
    for var, entry in configuration["variables_to_optimize"].items():
        grid = config.grid_for(var)
        values = set()
        for value in entry["search_space"]:
            snapped = snap_to_grid(value, grid)
            if snapped != value:
                log(f"plan repair: {var} value {value!r} snapped to {snapped!r}")
            values.add(snapped)
        entry["search_space"] = sorted(values)
        entry["num_choices"] = len(values)
    for var, entry in configuration["variables_fixed"].items():
        value = entry["fixed_value"]
        snapped = snap_to_grid(value, config.grid_for(var))
        if snapped != value:
            log(f"plan repair: {var} fixed value {value!r} snapped to {snapped!r}")
        entry["fixed_value"] = snapped
    return space_from_plan(config, plan, generation)


# ---------------------------------------------------- prompt contexts


def _grid_lines(config) -> str:
    return "\n".join(
        f"- {var}: [{', '.join(format_value(v) for v in config.grid_for(var))}]"
        for var in config.variables
    )


def _scale_lines(config) -> str:
    lines = [
        f"- {derived} = {format_value(mult)} * {base}"
        for derived, (base, mult) in config.width_scales.items()
    ]
    return "\n".join(lines) if lines else "(none)"


def _param_lines(config) -> str:
    lines = [f"- {k} = {format_value(v)}" for k, v in config.params.items()]
    return "\n".join(lines) if lines else "(none)"


def understanding_context(config) -> Dict[str, str]:
    variables = list(config.variables)
    metrics = list(config.metrics)
    var_block = _grid_lines(config)
    scales = _scale_lines(config)
    if scales != "(none)":
        var_block += "\n\nDerived widths (scale with the variables):\n" + scales
    impact_sections = "\n".join(
        f"Impact on {m}:\n"
        f"Explain how the optimization variables ({', '.join(variables)}) "
        f"affect {m}. Focus on which variables have the strongest impact "
        f"on {m} and why.\n"
        for m in metrics
    )
    impact_json = json.dumps(
        {m: f"3-5 sentences on how the optimization variables affect {m}" for m in metrics},
        indent=2,
    )
    return {
        "subckt_name": config.subckt_name,
        "ota_subckt_template": config.subckt_template.strip("\n"),
        "params": _param_lines(config),
        "variables": var_block,
        "testbench_template": config.testbench_template.strip("\n"),
        "metrics_list": "\n".join(f"- {m}" for m in metrics),
        "impact_sections": impact_sections,
        "impact_json_str": impact_json,
    }


def plan_context(config, understanding: dict, n_to_optimize: int) -> Dict[str, str]:
    impact = "\n".join(
        f"- {m}: {text}" for m, text in understanding["optimization_variables_impact"].items()
    )
    return {
        "subckt_name": config.subckt_name,
        "target_metric": target_metric(config),
        "num_variables_to_optimize": str(n_to_optimize),
        "total_num_variables": str(len(config.variables)),
        "variable_ranges": _grid_lines(config),
        "scaling_rules": _scale_lines(config),
        "variable_impact_summary": impact if impact else "(none)",
        "variable_interactions": understanding["variable_interactions"],
        "key_insights": "\n".join(
            f"- {s}" for s in understanding["key_insights_for_optimization"]
        ),
    }


def inner_context(
    report: Optional[DiagnosticsReport],
    remaining: int,
    space: SearchSpace,
    config,
) -> Dict[str, str]:
    methods = "none yet"
    best = "none yet"
    iters = "0"
    status_text = "No designs evaluated yet; this is the first iteration of the loop."
    if report is not None:
        s = report.status_summary
        methods = methods_text(s["methods"]) or methods
        if s["best_fom"] is not None:
            best = f"{s['best_fom']:.4f}"
        iters = str(s["iterations"])
        status_text = render_text(report).rstrip("\n")
    return {
        "user_specs": config.user_specs_metric,
        "search_space_cardinality": str(space.cardinality()),
        "budget_remaining": str(remaining),
        "inner_iterations_used": iters,
        "methods_tried": methods,
        "best_fom": best,
        "status_report": status_text,
    }


def outer_context(report: DiagnosticsReport, space: SearchSpace, config) -> Dict[str, str]:
    s = report.status_summary
    c = report.convergence

    original = config.full_grid_cardinality()
    current = space.cardinality()
    factor = original / current if current else float("inf")
    comparison = (
        f"Full factorial space: {original} combinations. Current generation "
        f"{space.generation} space: {current} combinations ({factor:g}x reduction)."
    )

    active_lines = "\n".join(
        f"- {var}: [{', '.join(format_value(v) for v in values)}]"
        for var, values in space.active.items()
    )
    fixed_lines = (
        "\n".join(f"- {var} = {format_value(v)}" for var, v in space.fixed.items())
        or "(none)"
    )

    prog = "[" + ", ".join("None" if x is None else f"{x:.6g}" for x in c["progression"]) + "]"

    issue_lines = "\n".join(issue.line() for issue in report.issues) or "(none detected)"

    impact_lines = []
    for var, stats in report.impact.items():
        if not stats["counts"]:
            impact_lines.append(f"- {var}: no valid top designs")
            continue
        shown = ", ".join(f"{format_value(v)}: {n}x" for v, n in stats["counts"][:3])
        tag = " (converged)" if stats["converged"] else ""
        impact_lines.append(
            f"- {var}: top-design range [{format_value(stats['min'])}, "
            f"{format_value(stats['max'])}], most common {shown}{tag}"
        )

    top_lines = []
    for rank, record in enumerate(report.top, start=1):
        assignment = ", ".join(
            f"{k}={format_value(v)}" for k, v in sorted(record.design.assignment.items())
        )
        top_lines.append(f"{rank}. FOM {record.fom:.4f} @ {assignment}")

    stagnant = any(i.kind == "stagnation" for i in report.issues)

    return {
        "iterations_completed": str(s["iterations"]),
        "total_designs": str(s["designs_evaluated"]),
        "netlist": config.subckt_template.strip("\n"),
        "available_variables": "\n".join(f"- {var}" for var in config.variables),
        "fixed_parameters": _param_lines(config),
        "value_ranges": _grid_lines(config),
        "original_search_space_size": str(original),
        "search_space_comparison": comparison,
        "optimized_vars_section": active_lines,
        "fixed_vars_section": fixed_lines,
        "current_search_space": str(current),
        "progression_section": f"Best-so-far FOM by iteration: {prog}",
        "convergence_status": str(c["status"]),
        "convergence_reason": str(c["reason"]),
        "best_fom": f"{s['best_fom']:.4f}" if s["best_fom"] is not None else "none",
        "stagnant": "yes" if stagnant else "no",
        "impact_section": "\n".join(impact_lines) or "(no impact data)",
        "issues_section": issue_lines,
        "top_designs_section": "\n".join(top_lines) or "(no valid designs yet)",
        "target_metric": target_metric(config),
    }


# ------------------------------------------------------------- backend


class LlmBackend:
    """Decisions rendered as prompts, answered by a transport, parsed
    and validated; any failure after one echo-retry falls back to the
    rule policy so the run always proceeds. Fallbacks are collected on
    ``self.fallbacks`` for the run report."""

    name = "llm"

    def __init__(
        self,
        transport,
        transcripts: Optional[TranscriptWriter] = None,
        log: Callable[[str], None] = logging.getLogger(__name__).info,
    ):
        self.transport = transport
        self.transcripts = transcripts
        self._log = log
        self.fallbacks: List[Dict[str, str]] = []

    # -- shared ask/parse/validate ladder ------------------------------

    def _decide(self, kind: str, context: Mapping[str, str], validate, fallback):
        """One decision: the ``kind`` prompt rendered with ``context``,
        the reply parsed by the ``kind`` schema and checked by
        ``validate``, one echo-retry after a rejection. A second
        rejection or a transport failure is logged as a fallback and the
        rule policy's ``fallback()`` answers instead."""
        prompt = render_template(load_prompt(kind), context)
        ask = prompt
        try:
            for _ in range(2):
                raw = self.transport.complete(ask, GENERATION_PARAMS)
                if self.transcripts is not None:
                    self.transcripts.record(kind, ask, GENERATION_PARAMS, raw)
                repairs: List[str] = []
                try:
                    decision = parse_agent_json(raw, kind, repairs)
                    decision = validate(decision) if validate is not None else decision
                except _REJECTABLE as exc:
                    last_error = str(exc)
                    self._log(f"{kind}: response rejected ({exc})")
                    ask = (
                        prompt
                        + "\n\n## PREVIOUS ATTEMPT REJECTED\n"
                        + f"Your previous response was rejected: {last_error}\n"
                        + "Respond again with ONLY the corrected JSON object."
                    )
                    continue
                for note in repairs:
                    self._log(f"{kind}: {note}")
                return decision
            reason = f"{kind}: retry also rejected: {last_error}"
        except (LlmTransport, Timeout) as exc:
            reason = str(exc)
        self.fallbacks.append({"op": kind, "reason": reason})
        self._log(f"{kind}: falling back to the rule policy ({reason})")
        return fallback()

    # -- operations -----------------------------------------------------

    def understand(self, config) -> dict:
        # impact prose keyed by unknown metrics is tolerated
        return self._decide("understanding", understanding_context(config), None,
                            lambda: rule_understand(config))

    def plan(self, config, understanding: dict, n_to_optimize: int) -> Tuple[dict, SearchSpace]:
        def validate(plan: dict) -> Tuple[dict, SearchSpace]:
            space = planned_space(plan, config, 0, self._log)
            n_optimized = len(space.active)
            if n_optimized != n_to_optimize:
                self._log(
                    f"plan: model optimized {n_optimized} variables "
                    f"instead of the requested {n_to_optimize}; accepted"
                )
            return plan, space

        return self._decide("plan", plan_context(config, understanding, n_to_optimize), validate,
                            lambda: rule_plan(config, understanding, n_to_optimize))

    def decide_inner(
        self,
        report: Optional[DiagnosticsReport],
        remaining: int,
        space: SearchSpace,
        config,
    ) -> dict:
        def validate(decision: dict) -> dict:
            if decision["action"] == "search":
                validate_method_config(
                    MethodConfig(
                        method=decision["method"],
                        n_samples=decision["n_samples"],
                        parameters=decision["parameters"],
                    )
                )
                if decision["method"] not in ORCHESTRATED:
                    raise UnknownMethod(f"unknown method {decision['method']!r}: the inner "
                                        f"loop orchestrates {', '.join(ORCHESTRATED)}")
                if decision["n_samples"] > remaining:
                    self._log(
                        f"inner: n_samples {decision['n_samples']} clamped to "
                        f"remaining budget {remaining}"
                    )
                    decision["n_samples"] = remaining
            return decision

        return self._decide("inner", inner_context(report, remaining, space, config), validate,
                            lambda: rule_decide_inner(report, remaining, space))

    def decide_outer(
        self,
        report: DiagnosticsReport,
        space: SearchSpace,
        prior_unfixes: int,
        sensitivity: Mapping[str, str],
        config,
    ) -> Tuple[dict, Optional[SearchSpace]]:
        """The outer decision and the next space: the regenerated plan's
        space, the current one a generation on for ``continue_current``
        without a plan, None on ``converged``."""
        def validate(decision: dict) -> Tuple[dict, Optional[SearchSpace]]:
            if decision["action_taken"] == "converged":  # its configuration is never searched
                return decision, None
            if "optimization_configuration" in decision:
                return decision, planned_space(decision, config, space.generation + 1, self._log)
            # continue_current arrives without a plan
            return decision, apply_edit(space, SpaceEdit(action="continue_current"))

        return self._decide(
            "outer", outer_context(report, space, config), validate,
            lambda: rule_decide_outer(report, space, prior_unfixes, sensitivity),
        )
