"""Two-loop run controller.

``run`` drives the full sequence: understand the circuit, plan an
initial search space, then alternate inner search iterations with outer
space edits until a feasible design appears or a budget runs out. One
History carries every evaluation across all loops and is never reset;
it is the run's only record of the search. The iteration summaries, the
diagnostics and TuRBO's trust region are all read from it.

``run_baseline`` drives a single-loop search over the full grid with a
fixed preset per algorithm; baselines always spend the whole budget and
never stop early on feasibility, so their trajectories stay comparable.

``run`` and ``run_baseline`` share one ``_Run``: its set-up, its
``batch`` step (propose, lhs fallback on too little history or a
singular kernel, evaluate, charge, log, stall count) and its ``finish``
(reported design, budget check, result, artefacts). Each keeps only its own stop rules and its
own source of decisions. ``run`` passes the scope ``{"loop": i}`` to
every batch step and baselines pass ``{}``; the scope is merged into
each entry the step logs. A baseline that ends
on ``STALL_LIMIT`` all-cached batches reports the outcome ``stalled``;
one whose method has nothing left to propose reports ``space_exhausted``.

The agents see the search only through ``analyze``'s report, one
analysis per decision: a fresh one for each inner decision after the
first batch, and the loop-end one, rendered to ``loopNN_report.txt``,
for the outer decision. A loop that ends on an inner ``stop`` renders
that decision's report, as no batch ran after it. Of the budget they
get only what they read: the evaluations left (at least one) and the
count of earlier unfixes.

Both emit an ordered decision log with no timestamps, so two runs with
identical inputs (or a replayed transcript) compare byte for byte. Each
agent decision is logged as the dict the backend returned, and the
controller acts on that same dict; the log is serialized only when the
run ends, so no decision is changed after it is logged. The plan and
each outer decision come back with the space they lead to, which the
controller searches as it is and never builds again.

A run is named the same way on the command line and in a matrix file:
a baseline name, or ``autosizer[:BACKEND][+ABLATION]`` for the two-loop
run. ``parse_method`` reads the name; ``run_method`` makes the backend
and calls ``run`` or ``run_baseline``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .agents import RuleBackend, make_backend, rule_decide_inner, rule_understand
from .core import EvaluatedDesign, History, is_valid
from .diagnostics import DiagnosticsReport, analyze, render_text
from .errors import (BudgetOverrun, ConfigError, InsufficientHistory, SingularKernel,
                     UnknownMethod)
from .evaluation import EvaluatorSpec, ResultCache, evaluate_batch, evaluator_from_config
from .optim.pool import GA_BASELINE_PRESET, MethodConfig, propose
from .space import SearchSpace, space_from_config
from .specexpr import parse_spec

# each baseline's batch size; None spends the whole remainder in one batch
BASELINES = {
    "lhs": None,
    "ga_baseline": int(GA_BASELINE_PRESET["population"]),
    "bo_baseline": 5,
    "turbo_baseline": 20,
}
# bo: random init size is pinned; follow-up batch size is ours
BO_INIT_SAMPLES = 10

# the two-loop run: autosizer, its backend, then ablations; parse_method
# refuses a repeated one
AUTOSIZER_SPELLING = "autosizer[:rule|llm|replay:DIR][+no_cu][+no_ssd][+no_oe]"
_AUTOSIZER = re.compile(r"autosizer(?::(rule|llm|replay:[^+]+))?((?:\+no_cu|\+no_ssd|\+no_oe)*)")

# consecutive all-cached batches before a loop is declared stalled;
# elitism can re-propose the incumbent forever without charging budget
STALL_LIMIT = 3


def at_least_one(key: str, count: int) -> int:
    """``count`` when it is at least 1, else ConfigError naming ``key``."""
    if count < 1:
        raise ConfigError(f"{key!r} must be at least 1, got {count!r}")
    return count


@dataclass(frozen=True)
class RunBudget:
    """Evaluation allowances for one run.

    per_inner_loop bounds each loop separately and unused allowance does
    not roll over; total_evals governs the whole run. Only fresh
    simulations charge either pool, cache hits are free. Each is at least 1.
    """

    total_evals: int = 300
    per_inner_loop: int = 100
    max_outer_loops: int = 3

    def __post_init__(self):
        for f in dataclasses.fields(self):
            at_least_one(f.name, getattr(self, f.name))


@dataclass
class RunResult:
    """What a run hands back, and what ``result.json`` records.

    ``best`` is ``History.reported()``: the best design that meets the
    spec, else the best by figure of merit. ``evals_to_best`` counts the
    fresh evaluations up to and including it.
    """

    best: Optional[EvaluatedDesign]
    feasible_found: bool
    evals_used: int
    evals_to_best: Optional[int]
    wall_time: float
    outer_loops_used: int
    space_generations: List[SearchSpace]
    decisions: List[dict]
    history: History
    outcome: str

    def to_record(self) -> dict:
        return {
            "outcome": self.outcome,
            "feasible_found": self.feasible_found,
            "evals_used": self.evals_used,
            "evals_to_best": self.evals_to_best,
            "wall_time": self.wall_time,
            "outer_loops_used": self.outer_loops_used,
            "space_generations": len(self.space_generations),
            "best": self.best.to_record() if self.best is not None else None,
        }


def child_seed(seed: int, loop: int, iteration: int) -> int:
    """Deterministic per-batch seed split from the single run seed."""
    text = f"{seed}:loop:{loop}:iter:{iteration}"
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _check_budget(used: int, budget: RunBudget) -> None:
    # a real check, not an assert: python -O must not drop it
    if used > budget.total_evals:
        raise BudgetOverrun(
            f"{used} fresh evaluations charged against a budget of {budget.total_evals}"
        )


def _write_artifacts(results_dir: str, result: RunResult, loop_reports: List[Tuple[int, str]]) -> None:
    root = Path(results_dir)
    root.mkdir(parents=True, exist_ok=True)
    lines = "".join(json.dumps(e, sort_keys=True, default=float) + "\n" for e in result.decisions)
    (root / "decision_log.jsonl").write_text(lines)
    (root / "history.jsonl").write_text(result.history.to_jsonl())
    (root / "result.json").write_text(
        json.dumps(result.to_record(), indent=2, sort_keys=True, default=float) + "\n"
    )
    for space in result.space_generations:
        snap = json.dumps(space.describe(), indent=2, sort_keys=True) + "\n"
        (root / f"space_gen{space.generation:02d}.json").write_text(snap)
    for loop_idx, text in loop_reports:
        (root / f"loop{loop_idx:02d}_report.txt").write_text(text)


class _Run:
    """State and steps shared by ``run`` and ``run_baseline``: set-up, batch, finish."""

    def __init__(
        self,
        config,
        budget: Optional[RunBudget],
        evaluator: Optional[EvaluatorSpec],
        workers: int,
        keep_logs: bool,
        results_dir: Optional[str],
    ):
        self.t0 = time.monotonic()
        self.config = config
        self.budget = budget if budget is not None else RunBudget()
        self.evaluator = evaluator if evaluator is not None else evaluator_from_config(config)
        if keep_logs and results_dir is None:
            raise ConfigError("keep_logs writes each simulator log under the results "
                              "directory, and none is named")
        if keep_logs and self.evaluator.kind != "spice":
            raise ConfigError(f"keep_logs keeps simulator logs, and the {self.evaluator.kind} "
                              "evaluator runs no simulator")
        self.spec = parse_spec(config.user_specs_metric)
        self.cache = ResultCache()
        self.history = History()
        self.decisions: List[dict] = []
        self.loop_reports: List[Tuple[int, str]] = []
        self.used = 0  # fresh evaluations charged; cache hits are free
        self.stalled = 0  # consecutive all-cached batches
        self.best_fom: Optional[float] = None  # the highest valid FoM so far
        self.results_dir = results_dir
        self._eval_options = dict(workers=at_least_one("workers", workers), keep_logs=keep_logs,
                                  results_dir=results_dir)

    def log(self, kind: str, **payload) -> None:
        """Append one decision-log entry: a plain dict, free of timestamps."""
        self.decisions.append({"kind": kind, **payload})

    @property
    def iteration(self) -> int:
        """Iteration number of the next batch; each batch has its own."""
        records = self.history.records
        return records[-1].iteration + 1 if records else 1

    def batch(self, space: SearchSpace, mcfg: MethodConfig, label: str, limit: int,
              scope: dict, **extra) -> Optional[str]:
        """Propose, evaluate, charge and log one batch of at most ``limit`` designs.

        ``label`` names the batch in its records and log entry,
        whichever method proposed it; ``scope`` is merged into every
        entry logged here and ``extra`` into the batch entry. Returns the
        outcome that ends the loop (``space_exhausted`` or ``stalled``),
        else None.
        """
        iteration = self.iteration
        history = self.history
        try:
            proposal = propose(space, mcfg, history)
        except (InsufficientHistory, SingularKernel) as exc:
            # too few in-space observations for a model-based method, or a
            # kernel no jitter makes positive definite: degrade, not abort
            event = ("insufficient_history_fallback" if isinstance(exc, InsufficientHistory)
                     else "singular_kernel_fallback")
            self.log("event", event=event, **scope, iteration=iteration, detail=str(exc))
            fallback = dataclasses.replace(mcfg, method="lhs", parameters={})
            proposal = propose(space, fallback, history)
        designs = list(proposal.designs)[:limit]
        if not designs:
            self.log("event", event="space_exhausted", **scope, iteration=iteration)
            return "space_exhausted"
        if proposal.diagnostics.get("restarted"):
            self.log("event", event="turbo_restart", **scope, iteration=iteration,
                     fraction=proposal.diagnostics.get("fraction"))
        records = evaluate_batch(
            self.config,
            designs,
            self.evaluator,
            spec=self.spec,
            cache=self.cache,
            start_eval_index=history.next_eval_index(),
            iteration=iteration,
            method=label,
            **self._eval_options,
        )
        history.append_batch(records)
        fresh = sum(1 for r in records if not r.cached)
        self.used += fresh
        for r in records:
            # max() over the history's valid FoMs, without rescanning it
            if is_valid(r) and (self.best_fom is None or r.fom > self.best_fom):
                self.best_fom = r.fom
        self.log("batch", **scope, iteration=iteration, method=label, requested=mcfg.n_samples,
                 evaluated=len(records), fresh=fresh, best_fom=self.best_fom, **extra)
        self.stalled = self.stalled + 1 if fresh == 0 else 0
        if self.stalled >= STALL_LIMIT:
            self.log("event", event="method_stalled", **scope, iteration=iteration)
            return "stalled"
        return None

    def report(self, loop: int, space: SearchSpace,
               analyzed: Optional[DiagnosticsReport] = None) -> Optional[DiagnosticsReport]:
        """The loop's diagnostics, kept rendered; None before any batch has run.

        ``analyzed``, when given, already is the analysis of this history
        and space, and is rendered instead of a fresh one.
        """
        if not self.history.records:
            return None
        report = analyzed if analyzed is not None else analyze(self.history, space)
        self.loop_reports.append((loop, render_text(report)))
        return report

    def finish(self, outcome: str, outer_loops_used: int, spaces: List[SearchSpace]) -> RunResult:
        best = self.history.reported()
        evals_to_best = None
        if best is None:
            outcome = "no_valid_design"
            self.log("event", event="no_valid_design")
        else:
            # cache hits are free, so the charge can be below the eval index
            evals_to_best = sum(1 for r in self.history.records[: best.eval_index] if not r.cached)
        _check_budget(self.used, self.budget)
        result = RunResult(
            best=best,
            feasible_found=self.history.feasible_found(),
            evals_used=self.used,
            evals_to_best=evals_to_best,
            wall_time=time.monotonic() - self.t0,
            outer_loops_used=outer_loops_used,
            space_generations=spaces,
            decisions=self.decisions,
            history=self.history,
            outcome=outcome,
        )
        if self.results_dir:
            _write_artifacts(self.results_dir, result, self.loop_reports)
        return result


def run(
    config,
    budget: Optional[RunBudget] = None,
    backend=None,
    seed: int = 0,
    *,
    evaluator: Optional[EvaluatorSpec] = None,
    workers: int = 1,
    keep_logs: bool = False,
    results_dir: Optional[str] = None,
    no_cu: bool = False,
    no_ssd: bool = False,
    no_oe: bool = False,
) -> RunResult:
    """Full two-loop optimization of one benchmark config.

    The ablation flags strip one component each: no_cu swaps the
    understanding for the generic rule one, no_ssd searches the full
    grid without a planning round, and no_oe forces every search batch
    to plain lhs. A single outer loop, the space-refinement ablation, is
    ``RunBudget(max_outer_loops=1)``. The rule backend's understanding
    already is the generic one, so no_cu with it is a ConfigError.
    """
    backend = backend if backend is not None else RuleBackend()
    if no_cu and backend.name == "rule":
        raise ConfigError("no_cu ablates the model's circuit understanding; "
                          "the rule backend has none to ablate")
    job = _Run(config, budget, evaluator, workers, keep_logs, results_dir)
    budget, history = job.budget, job.history

    if no_cu:
        understanding = rule_understand(config)
        job.log("understand", backend="rule", payload=understanding)
    else:
        understanding = backend.understand(config)
        job.log("understand", backend=backend.name, payload=understanding)

    # the plan's sensitivity per optimized variable orders the rule
    # policy's unfixes; a variable missing here counts as medium
    sensitivity = {}
    if no_ssd:
        space = space_from_config(config)
        job.log("plan", backend="none", payload={"skipped": "full grid, no planning round"})
    else:
        plan, space = backend.plan(config, understanding, min(4, len(config.variables)))
        optimized = plan["optimization_configuration"]["variables_to_optimize"]
        sensitivity = {var: entry["sensitivity"] for var, entry in optimized.items()}
        job.log("plan", backend=backend.name, payload=plan)
    snapshots = [space]
    job.log("space", **space.describe())

    prior_unfixes = 0
    outer_loops_used = 0
    outcome = "outer_cap"

    for loop_idx in range(budget.max_outer_loops):
        outer_loops_used = loop_idx + 1
        scope = {"loop": loop_idx}
        loop_start_used, loop_start_iteration = job.used, job.iteration
        job.stalled = 0
        analyzed = None  # a stop decision's report; no batch ran after it

        while True:
            if history.feasible_found():
                job.log("event", event="feasible_found", **scope)
                break
            remaining = min(budget.total_evals - job.used,
                            budget.per_inner_loop - (job.used - loop_start_used))
            if remaining <= 0:
                which = "total_budget_reached" if job.used >= budget.total_evals else "inner_cap_reached"
                job.log("event", event=which, **scope)
                break
            report = analyze(history, space) if history.records else None
            if no_oe:
                decision = rule_decide_inner(report, remaining, space)
                if decision["action"] == "search":
                    decision["method"] = "lhs"
                    decision["parameters"] = {}
            else:
                decision = backend.decide_inner(report, remaining, space, config=config)
            iteration = job.iteration
            job.log("inner", **scope, iteration=iteration, payload=decision)
            if decision["action"] != "search":
                analyzed = report
                break
            mcfg = MethodConfig(
                method=decision["method"],
                n_samples=min(decision["n_samples"], remaining),
                parameters=dict(decision["parameters"]),
                seed=child_seed(seed, loop_idx, iteration - loop_start_iteration),
            )
            if job.batch(space, mcfg, decision["method"], remaining, scope) is not None:
                break

        report = job.report(loop_idx, space, analyzed)

        if history.feasible_found():
            outcome = "feasible"
            job.log("event", event="run_feasible", **scope)
            break
        if job.used >= budget.total_evals:
            outcome = "budget_exhausted"
            job.log("event", event="total_budget_exhausted", **scope)
            break
        if loop_idx == budget.max_outer_loops - 1:
            outcome = "outer_cap"
            job.log("event", event="outer_loop_cap", **scope)
            break
        if report is None:
            outcome = "space_exhausted"
            job.log("event", event="run_space_exhausted", **scope)
            break

        outer, next_space = backend.decide_outer(
            report, space, prior_unfixes, sensitivity=sensitivity, config=config
        )
        job.log("outer", **scope, payload=outer)
        if next_space is None:
            outcome = "converged"
            break
        if outer["action_taken"] == "unfix_variables":
            prior_unfixes += 1
        space = next_space
        snapshots.append(space)
        job.log("space", **space.describe())

    return job.finish(outcome, outer_loops_used, snapshots)


def run_baseline(
    config,
    algorithm: str,
    budget: Optional[RunBudget] = None,
    seed: int = 0,
    *,
    evaluator: Optional[EvaluatorSpec] = None,
    workers: int = 1,
    keep_logs: bool = False,
    results_dir: Optional[str] = None,
) -> RunResult:
    """Single-loop baseline over the full grid with preset hyperparameters.

    Baselines never stop early on feasibility; they spend the whole
    budget (or the whole grid, whichever runs out first).
    """
    if algorithm not in BASELINES:
        raise UnknownMethod(f"unknown baseline {algorithm!r}; choose from {tuple(BASELINES)}")
    job = _Run(config, budget, evaluator, workers, keep_logs, results_dir)
    budget = job.budget
    space = space_from_config(config)
    job.log("baseline", algorithm=algorithm, total_evals=budget.total_evals, seed=seed)
    job.log("space", **space.describe())

    outcome = "budget_exhausted"
    while job.used < budget.total_evals:
        remaining = budget.total_evals - job.used
        iteration = job.iteration
        extra = {}
        if algorithm == "bo_baseline" and iteration == 1:
            method, n, extra = "lhs", BO_INIT_SAMPLES, {"phase": "random_init"}
        else:
            method, n = algorithm, BASELINES[algorithm] or remaining
        mcfg = MethodConfig(
            method=method, n_samples=min(n, remaining), seed=child_seed(seed, 0, iteration - 1)
        )
        stop = job.batch(space, mcfg, algorithm, remaining, {}, **extra)
        if stop is not None:
            outcome = stop
            break

    job.report(0, space)
    return job.finish(outcome, 1, [space])


def parse_method(method: str) -> Tuple[Optional[str], Dict[str, bool]]:
    """Read a method spelling: a baseline name, or
    ``autosizer[:rule|llm|replay:DIR][+no_cu][+no_ssd][+no_oe]``.

    Returns the backend spelling, None for a baseline, and the ablation
    flags for ``run``. Anything else, a repeated ablation included, is a
    ConfigError. A replay DIR cannot hold a ``+``.
    """
    if method in BASELINES:
        return None, {}
    match = _AUTOSIZER.fullmatch(method)
    ablations = match.group(2).split("+")[1:] if match else []
    if match is None or len(set(ablations)) < len(ablations):
        raise ConfigError(
            f"unknown method {method!r}; use {AUTOSIZER_SPELLING} or one of {tuple(BASELINES)}")
    return match.group(1) or "rule", dict.fromkeys(ablations, True)


def run_method(config, method: str, budget: Optional[RunBudget], seed: int, *,
               transcripts: Optional[str] = None, **options) -> RunResult:
    """Run ``method``, spelled as ``parse_method`` reads it, with
    ``options`` passed on to ``run`` or ``run_baseline``.

    ``transcripts`` records a model backend's calls to that directory;
    naming one for a method that makes no model call (a baseline, or the
    rule backend) is a ConfigError. Each call makes a fresh backend, as
    replay cursors are stateful.
    """
    backend, ablations = parse_method(method)
    if transcripts is not None and backend in (None, "rule"):
        raise ConfigError(f"transcripts record model calls, and {method!r} makes none; "
                          "use autosizer:llm or autosizer:replay:DIR")
    if backend is None:
        return run_baseline(config, method, budget, seed, **options)
    return run(config, budget, make_backend(backend, transcripts), seed, **options, **ablations)
