"""Two-loop run controller.

``run`` drives the full sequence: understand the circuit, plan an
initial search space, then alternate inner search iterations with outer
space edits until a feasible design appears or a budget runs out. One
History carries every evaluation across all loops and is never reset.

``run_baseline`` drives a single-loop search over the full grid with a
fixed preset per algorithm; baselines always spend the whole budget and
never stop early on feasibility, so their trajectories stay comparable.

Both emit an ordered decision log with no timestamps, so two runs with
identical inputs (or a replayed transcript) compare byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from .agents import BudgetState, RuleBackend, rule_decide_inner, rule_understand
from .core import EvaluatedDesign, History, IterationSummary, best_so_far
from .diagnostics import analyze, render_text
from .errors import BudgetOverrun, EmptyHistory, InsufficientHistory, NoValidDesign, UnknownMethod
from .evaluation import EvaluatorSpec, ResultCache, evaluate_batch, evaluator_from_config
from .optim.pool import GA_BASELINE_PRESET, MethodConfig, propose
from .optim.turbo import TurboState
from .space import SearchSpace, SpaceEdit, apply_edit, first_round_from_plan, space_from_config, space_from_plan
from .specexpr import parse_spec

BASELINE_ALGORITHMS = ("lhs", "ga_baseline", "bo_baseline", "turbo_baseline")

# bo: random init size is pinned; follow-up batch size is ours
BO_INIT_SAMPLES = 10
BO_BATCH_SIZE = 5
TURBO_BATCH_SIZE = 20

# consecutive all-cached batches before a loop is declared stalled;
# elitism can re-propose the incumbent forever without charging budget
STALL_LIMIT = 3


@dataclass(frozen=True)
class RunBudget:
    """Evaluation allowances for one run.

    per_inner_loop bounds each loop separately and unused allowance does
    not roll over; total_evals governs the whole run. Only fresh
    simulations charge either pool, cache hits are free.
    """

    total_evals: int = 300
    per_inner_loop: int = 100
    max_outer_loops: int = 3
    wall_clock_limit_s: Optional[float] = None


@dataclass
class RunResult:
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


class _Recorder:
    """Ordered decision log. Entries are plain dicts, free of timestamps."""

    def __init__(self):
        self.entries: List[dict] = []

    def log(self, kind: str, **payload) -> None:
        self.entries.append({"kind": kind, **payload})


def _space_record(space: SearchSpace) -> dict:
    return {
        "generation": space.generation,
        "active": {v: list(vals) for v, vals in space.active.items()},
        "fixed": dict(space.fixed),
        "cardinality": space.cardinality(),
    }


def _improvement(prev: Optional[float], now: Optional[float]) -> float:
    # mirrors improvement_pct's degenerate cases
    if now is None:
        return 0.0
    if prev is None or prev == 0:
        return math.inf if now > 0 else 0.0
    return 100.0 * (now - prev) / abs(prev)


def _append_summary(history: History, iteration: int, method: str, n_records: int) -> Optional[float]:
    try:
        best = best_so_far(history)[0].fom
    except (EmptyHistory, NoValidDesign):
        best = None
    prior = history.iteration_summaries
    imp = _improvement(prior[-1].best_fom_so_far, best) if prior else None
    history.add_summary(
        IterationSummary(
            iteration=iteration,
            method=method,
            n_samples=n_records,
            best_fom_so_far=best,
            improvement_pct=imp,
        )
    )
    return best


def _feasible(history: History) -> bool:
    return any(r.feasible for r in history.records)


def _best_and_charge(history: History) -> Tuple[Optional[EvaluatedDesign], Optional[int]]:
    """Best record plus the fresh evaluations charged up to attaining it.

    Cache hits are free, so the charge can be below the raw eval index.
    """
    try:
        record, idx = best_so_far(history)
    except (EmptyHistory, NoValidDesign):
        return None, None
    fresh = sum(1 for r in history.records[:idx] if not r.cached)
    return record, fresh


def _check_budget(used: int, budget: RunBudget) -> None:
    # a real check, not an assert: python -O must not drop it
    if used > budget.total_evals:
        raise BudgetOverrun(
            f"{used} fresh evaluations charged against a budget of {budget.total_evals}"
        )


def _wall_exceeded(budget: RunBudget, t0: float) -> bool:
    limit = budget.wall_clock_limit_s
    return limit is not None and (time.monotonic() - t0) > limit


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
        snap = json.dumps(_space_record(space), indent=2, sort_keys=True) + "\n"
        (root / f"space_gen{space.generation:02d}.json").write_text(snap)
    for loop_idx, text in loop_reports:
        (root / f"loop{loop_idx:02d}_report.txt").write_text(text)


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
    n_to_optimize: Optional[int] = None,
    no_cu: bool = False,
    no_ssd: bool = False,
    no_oe: bool = False,
    no_srl: bool = False,
) -> RunResult:
    """Full two-loop optimization of one benchmark config.

    The ablation flags strip one component each: no_cu swaps the
    understanding for the generic rule one, no_ssd searches the full
    grid without a planning round, no_oe forces every search batch to
    plain lhs, and no_srl allows a single outer loop only.
    """
    t0 = time.monotonic()
    budget = budget if budget is not None else RunBudget()
    backend = backend if backend is not None else RuleBackend()
    evaluator = evaluator if evaluator is not None else evaluator_from_config(config)
    spec = parse_spec(config.user_specs_metric)
    cache = ResultCache(None)
    history = History()
    rec = _Recorder()
    loop_reports: List[Tuple[int, str]] = []

    if no_cu:
        understanding = rule_understand(config)
        rec.log("understand", backend="rule", payload=understanding.to_wire())
    else:
        understanding = backend.understand(config)
        rec.log("understand", backend=backend.name, payload=understanding.to_wire())

    if no_ssd:
        space = space_from_config(config)
        rec.log("plan", backend="none", payload={"skipped": "full grid, no planning round"})
    else:
        n_opt = n_to_optimize if n_to_optimize is not None else min(4, len(config.variables))
        plan = backend.plan(config, understanding, n_opt)
        space = first_round_from_plan(config, plan)
        for var in config.variables:
            understanding.sensitivity[var] = plan.sensitivity_of(var)
        rec.log("plan", backend=backend.name, payload=plan.to_wire())
    snapshots = [space]
    rec.log("space", **_space_record(space))

    used_total = 0
    prior_unfixes = 0
    outer_loops_used = 0
    outcome = "outer_cap"
    n_loops = 1 if no_srl else budget.max_outer_loops

    for loop_idx in range(n_loops):
        outer_loops_used = loop_idx + 1
        inner_used = 0
        inner_iter = 0
        stalled = 0
        stop_run: Optional[str] = None

        while True:
            if _wall_exceeded(budget, t0):
                rec.log("event", event="wall_clock_limit", loop=loop_idx)
                stop_run = "wall_clock"
                break
            if _feasible(history):
                rec.log("event", event="feasible_found", loop=loop_idx)
                break
            state = BudgetState(
                total_remaining=budget.total_evals - used_total,
                inner_remaining=budget.per_inner_loop - inner_used,
                outer_loops_used=loop_idx,
                prior_unfixes=prior_unfixes,
            )
            if state.remaining <= 0:
                which = "total_budget_reached" if state.total_remaining <= 0 else "inner_cap_reached"
                rec.log("event", event=which, loop=loop_idx)
                break
            report = analyze(history, space) if history.iteration_summaries else None
            if no_oe:
                decision = rule_decide_inner(report, state, space)
                if decision.action == "search":
                    decision.method = "lhs"
                    decision.parameters = {}
            else:
                decision = backend.decide_inner(report, state, space, config=config, history=history)
            iteration = len(history.iteration_summaries) + 1
            rec.log("inner", loop=loop_idx, iteration=iteration, payload=decision.to_wire())
            if decision.action != "search":
                break
            n = max(1, min(decision.n_samples, state.remaining))
            mcfg = MethodConfig(
                method=decision.method,
                n_samples=n,
                parameters=dict(decision.parameters),
                seed=child_seed(seed, loop_idx, inner_iter),
            )
            try:
                proposal = propose(space, mcfg, history=history, allow_resample=False)
            except InsufficientHistory as exc:
                # too few in-space observations for a model-based method
                rec.log(
                    "event",
                    event="insufficient_history_fallback",
                    loop=loop_idx,
                    iteration=iteration,
                    detail=str(exc),
                )
                mcfg = dataclasses.replace(mcfg, method="lhs", parameters={})
                proposal = propose(space, mcfg, history=history, allow_resample=False)
            designs = list(proposal.designs)[: state.remaining]
            if not designs:
                rec.log("event", event="space_exhausted", loop=loop_idx, iteration=iteration)
                break
            records = evaluate_batch(
                config,
                designs,
                evaluator,
                spec=spec,
                cache=cache,
                start_eval_index=history.next_eval_index(),
                iteration=iteration,
                method=decision.method,
                workers=workers,
                keep_logs=keep_logs,
                results_dir=results_dir,
            )
            history.append_batch(records)
            fresh = sum(1 for r in records if not r.cached)
            used_total += fresh
            inner_used += fresh
            best = _append_summary(history, iteration, decision.method, len(records))
            rec.log(
                "batch",
                loop=loop_idx,
                iteration=iteration,
                method=decision.method,
                requested=n,
                evaluated=len(records),
                fresh=fresh,
                best_fom=best,
            )
            inner_iter += 1
            stalled = stalled + 1 if fresh == 0 else 0
            if stalled >= STALL_LIMIT:
                rec.log("event", event="method_stalled", loop=loop_idx, iteration=iteration)
                break

        if history.iteration_summaries:
            loop_reports.append((loop_idx, render_text(analyze(history, space))))

        if stop_run is not None:
            outcome = stop_run
            break
        if _feasible(history):
            outcome = "feasible"
            rec.log("event", event="run_feasible", loop=loop_idx)
            break
        if used_total >= budget.total_evals:
            outcome = "budget_exhausted"
            rec.log("event", event="total_budget_exhausted", loop=loop_idx)
            break
        if loop_idx == n_loops - 1:
            outcome = "outer_cap"
            rec.log("event", event="outer_loop_cap", loop=loop_idx)
            break
        if not history.iteration_summaries:
            outcome = "space_exhausted"
            rec.log("event", event="run_space_exhausted", loop=loop_idx)
            break

        report = analyze(history, space)
        state = BudgetState(
            total_remaining=budget.total_evals - used_total,
            inner_remaining=budget.per_inner_loop,
            outer_loops_used=loop_idx + 1,
            prior_unfixes=prior_unfixes,
        )
        outer = backend.decide_outer(
            report, space, history, state, understanding=understanding, config=config
        )
        rec.log("outer", loop=loop_idx, payload=outer.to_wire())
        if outer.action == "converged":
            outcome = "converged"
            break
        if outer.action == "unfix_variables":
            prior_unfixes += 1
        if outer.plan is not None:
            space = space_from_plan(config, outer.plan, generation=space.generation + 1)
        elif outer.edit is not None:
            space = apply_edit(space, outer.edit)
        else:
            # llm continue_current arrives without a plan; bump the
            # generation so snapshots stay one-per-outer-decision
            space = apply_edit(
                space,
                SpaceEdit(action="continue_current", rationale=outer.reasoning or "keep space"),
            )
        snapshots.append(space)
        rec.log("space", **_space_record(space))

    best_record, evals_to_best = _best_and_charge(history)
    if best_record is None:
        outcome = "no_valid_design"
        rec.log("event", event="no_valid_design")
    _check_budget(used_total, budget)

    result = RunResult(
        best=best_record,
        feasible_found=_feasible(history),
        evals_used=used_total,
        evals_to_best=evals_to_best,
        wall_time=time.monotonic() - t0,
        outer_loops_used=outer_loops_used,
        space_generations=snapshots,
        decisions=rec.entries,
        history=history,
        outcome=outcome,
    )
    if results_dir:
        _write_artifacts(results_dir, result, loop_reports)
    return result


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
    if algorithm not in BASELINE_ALGORITHMS:
        raise UnknownMethod(
            f"unknown baseline {algorithm!r}; choose from {BASELINE_ALGORITHMS}"
        )
    t0 = time.monotonic()
    budget = budget if budget is not None else RunBudget()
    evaluator = evaluator if evaluator is not None else evaluator_from_config(config)
    spec = parse_spec(config.user_specs_metric)
    cache = ResultCache(None)
    history = History()
    rec = _Recorder()
    space = space_from_config(config)
    rec.log("baseline", algorithm=algorithm, total_evals=budget.total_evals, seed=seed)
    rec.log("space", **_space_record(space))

    turbo = TurboState() if algorithm == "turbo_baseline" else None
    ga_pop = int(GA_BASELINE_PRESET["population"])
    used = 0
    iteration = 0
    stalled = 0
    outcome = "budget_exhausted"

    while used < budget.total_evals:
        if _wall_exceeded(budget, t0):
            rec.log("event", event="wall_clock_limit")
            outcome = "wall_clock"
            break
        remaining = budget.total_evals - used
        iteration += 1
        if algorithm == "lhs":
            method, n = "lhs", remaining
        elif algorithm == "ga_baseline":
            method, n = "ga_baseline", min(ga_pop, remaining)
        elif algorithm == "turbo_baseline":
            method, n = "turbo_baseline", min(TURBO_BATCH_SIZE, remaining)
        elif iteration == 1:
            method, n = "lhs", min(BO_INIT_SAMPLES, remaining)
        else:
            method, n = "bo_baseline", min(BO_BATCH_SIZE, remaining)

        mcfg = MethodConfig(
            method=method, n_samples=n, parameters={}, seed=child_seed(seed, 0, iteration - 1)
        )
        try:
            proposal = propose(space, mcfg, history=history, allow_resample=False, turbo_state=turbo)
        except InsufficientHistory as exc:
            rec.log(
                "event",
                event="insufficient_history_fallback",
                iteration=iteration,
                detail=str(exc),
            )
            mcfg = dataclasses.replace(mcfg, method="lhs")
            proposal = propose(space, mcfg, history=history, allow_resample=False)
        designs = list(proposal.designs)[:remaining]
        if not designs:
            rec.log("event", event="space_exhausted", iteration=iteration)
            outcome = "space_exhausted"
            break
        if turbo is not None and proposal.diagnostics.get("restarted"):
            rec.log(
                "event",
                event="turbo_restart",
                iteration=iteration,
                fraction=proposal.diagnostics.get("fraction"),
            )
        records = evaluate_batch(
            config,
            designs,
            evaluator,
            spec=spec,
            cache=cache,
            start_eval_index=history.next_eval_index(),
            iteration=iteration,
            method=algorithm,
            workers=workers,
            keep_logs=keep_logs,
            results_dir=results_dir,
        )
        history.append_batch(records)
        fresh = sum(1 for r in records if not r.cached)
        used += fresh
        best = _append_summary(history, iteration, algorithm, len(records))
        entry = dict(
            iteration=iteration,
            method=algorithm,
            requested=n,
            evaluated=len(records),
            fresh=fresh,
            best_fom=best,
        )
        if algorithm == "bo_baseline" and iteration == 1:
            entry["phase"] = "random_init"
        rec.log("batch", **entry)
        if turbo is not None:
            batch_best = max((r.fom for r in records if r.fom is not None), default=None)
            turbo.update(batch_best)
        stalled = stalled + 1 if fresh == 0 else 0
        if stalled >= STALL_LIMIT:
            rec.log("event", event="method_stalled", iteration=iteration)
            outcome = "space_exhausted"
            break

    loop_reports: List[Tuple[int, str]] = []
    if history.iteration_summaries:
        loop_reports.append((0, render_text(analyze(history, space))))

    best_record, evals_to_best = _best_and_charge(history)
    if best_record is None:
        outcome = "no_valid_design"
        rec.log("event", event="no_valid_design")
    _check_budget(used, budget)

    result = RunResult(
        best=best_record,
        feasible_found=_feasible(history),
        evals_used=used,
        evals_to_best=evals_to_best,
        wall_time=time.monotonic() - t0,
        outer_loops_used=1,
        space_generations=[space],
        decisions=rec.entries,
        history=history,
        outcome=outcome,
    )
    if results_dir:
        _write_artifacts(results_dir, result, loop_reports)
    return result
