"""sizerforge: two-loop analog sizing on discrete width grids.

An inner loop alternates optimizer methods against a circuit evaluator;
an outer loop diagnoses the run and regenerates the search space. Both
loops can be driven by a deterministic rule policy or an LLM backend.
"""

from .agents import LlmBackend, RuleBackend, make_backend
from .config import BenchmarkConfig, load_config, parse_config, render_deck
from .controller import RunBudget, RunResult, run, run_baseline
from .core import (
    Design,
    EvaluatedDesign,
    History,
    IterationSummary,
    assess,
    compute_fom,
    design_from,
)
from .diagnostics import DiagnosticsReport, analyze, render_text
from .errors import SizerForgeError
from .evaluation import EvaluatorSpec, evaluate_batch, evaluator_from_config
from .harness import CellSummary, TrialMatrix, load_matrix, run_matrix
from .space import SearchSpace, SpaceEdit, apply_edit, full_space, space_from_config
from .specexpr import SpecExpr, evaluate_spec, parse_spec, split_directions
from .surrogates import enumerate_oracle, get_model

__version__ = "0.1.0"

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
    "compute_fom",
    "design_from",
    "enumerate_oracle",
    "evaluate_batch",
    "evaluate_spec",
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
    "split_directions",
    "__version__",
]
