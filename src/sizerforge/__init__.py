"""sizerforge: two-loop analog sizing on discrete width grids.

An inner loop alternates optimizer methods against a circuit evaluator;
an outer loop diagnoses the run and regenerates the search space. Both
loops can be driven by a deterministic rule policy or an LLM backend.

Importing the package loads what every run uses. The matrix runner's
names (``run_matrix``, ``load_matrix``, ``TrialMatrix``, ``CellSummary``)
load ``harness`` on first use, and ``LlmBackend`` loads the model
backend (``agents.llm``) on first use; both stay in ``__all__``.
"""

from .agents import RuleBackend, make_backend
from .config import BenchmarkConfig, load_config, parse_config, render_deck
from .controller import RunBudget, RunResult, run, run_baseline
from .core import (
    Design,
    EvaluatedDesign,
    History,
    IterationSummary,
    SpecExpr,
    assess,
    design_from,
    parse_spec,
)
from .diagnostics import DiagnosticsReport, analyze, render_text
from .errors import SizerForgeError
from .evaluation import EvaluatorSpec, evaluate_batch, evaluator_from_config
from .space import SearchSpace, SpaceEdit, apply_edit, full_space, space_from_config
from .surrogates import enumerate_oracle, get_model

__version__ = "0.1.0"

# looked up by the module ``__getattr__`` below (PEP 562)
_HARNESS_NAMES = frozenset({"CellSummary", "TrialMatrix", "load_matrix", "run_matrix"})

__all__ = [
    "BenchmarkConfig",
    "CellSummary",
    "Design",
    "DiagnosticsReport",
    "EvaluatedDesign",
    "EvaluatorSpec",
    "History",
    "IterationSummary",
    "LlmBackend",
    "RuleBackend",
    "RunBudget",
    "RunResult",
    "SearchSpace",
    "SizerForgeError",
    "SpaceEdit",
    "SpecExpr",
    "TrialMatrix",
    "analyze",
    "apply_edit",
    "assess",
    "design_from",
    "enumerate_oracle",
    "evaluate_batch",
    "evaluator_from_config",
    "full_space",
    "get_model",
    "load_config",
    "load_matrix",
    "make_backend",
    "parse_config",
    "parse_spec",
    "render_deck",
    "render_text",
    "run",
    "run_baseline",
    "run_matrix",
    "space_from_config",
    "__version__",
]


def __getattr__(name: str):
    if name in _HARNESS_NAMES:
        from . import harness as home
    elif name == "LlmBackend":
        from .agents import llm as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)
