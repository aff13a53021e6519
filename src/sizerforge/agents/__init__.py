"""Decision backends: rule policy, model-backed, and recorded replay.

Both backends expose the same four operations with the same signatures:
``understand(config)``, ``plan(config, understanding, n_to_optimize)``,
``decide_inner(report, remaining, space, config)`` and
``decide_outer(report, space, prior_unfixes, sensitivity, config)``.
The search reaches them only through the diagnostics report, None before
the first batch; ``remaining`` is at least 1. Each returns the decision
as a dict, which the controller acts on and logs as it is; ``plan`` and
``decide_outer`` return it together with the space it leads to, built
once (``decide_outer``'s is None on ``converged``). A model backend's
decision is its validated wire dict (see ``schemas``). The rule
backend's have the same shapes, except for an outer edit: it carries no
regenerated ``optimization_configuration``, so it would not validate as
a model reply. The controller never knows which backend is driving.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigError
from ..space import SearchSpace
from .llm import (
    GENERATION_PARAMS,
    HttpTransport,
    LlmBackend,
    ReplayTransport,
    TranscriptWriter,
    load_prompt,
    snap_to_grid,
)
from .rule import (
    rule_decide_inner,
    rule_decide_outer,
    rule_plan,
    rule_understand,
    target_metric,
)
from .schemas import parse_agent_json

__all__ = [
    "GENERATION_PARAMS",
    "HttpTransport",
    "LlmBackend",
    "ReplayTransport",
    "RuleBackend",
    "TranscriptWriter",
    "load_prompt",
    "make_backend",
    "parse_agent_json",
    "rule_decide_inner",
    "rule_decide_outer",
    "rule_plan",
    "rule_understand",
    "snap_to_grid",
    "target_metric",
]


class RuleBackend:
    """The deterministic policy behind the same interface as LlmBackend."""

    name = "rule"

    def __init__(self):
        self.fallbacks: List[Dict[str, str]] = []

    def understand(self, config) -> dict:
        return rule_understand(config)

    def plan(self, config, understanding: dict, n_to_optimize: int) -> Tuple[dict, SearchSpace]:
        return rule_plan(config, understanding, n_to_optimize)

    def decide_inner(self, report, remaining: int, space, config) -> dict:
        return rule_decide_inner(report, remaining, space)

    def decide_outer(
        self, report, space, prior_unfixes: int, sensitivity: Mapping[str, str], config
    ) -> Tuple[dict, Optional[SearchSpace]]:
        return rule_decide_outer(report, space, prior_unfixes, sensitivity)


def make_backend(spec: str, transcript_dir: Optional[str] = None):
    """Build a backend from its CLI spelling: rule | llm | replay:<dir>."""
    if spec == "rule":
        return RuleBackend()
    if spec == "llm":
        transcripts = TranscriptWriter(transcript_dir) if transcript_dir else None
        return LlmBackend(HttpTransport(), transcripts=transcripts)
    if spec.startswith("replay:"):
        directory = spec.split(":", 1)[1]
        transcripts = TranscriptWriter(transcript_dir) if transcript_dir else None
        return LlmBackend(ReplayTransport(directory), transcripts=transcripts)
    raise ConfigError(f"unknown backend {spec!r}; expected rule, llm, or replay:<dir>")
