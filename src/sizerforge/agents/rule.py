"""Deterministic decision policies.

These encode the prose decision frameworks as code and double as the
fallback for every model misbehavior, so a run can always finish
without network access. Each policy sees the search only through the
diagnostics report, and none is asked once a design meets the spec: the
controller stops the run first. The understanding, the plan and every
inner decision have the shape of a wire dict a model reply validates to
(see ``schemas``). An outer edit does not: it names its action without
the regenerated ``optimization_configuration`` a model reply carries,
because the policy applies the edit itself. Inner policy, given the
evaluations left (at least one): stop on a diverse plateau, otherwise
pick a method by history depth. Outer policy, in priority order: unfix
on stagnation, expand on boundary clustering, change focus on converged
variables, continue on progress, narrow only on overwhelming
concentration, else converged. The plan and outer policies return the
decision together with the space it leads to: the plan's space, or the
outer policy's own edit applied; an unfix after an earlier one opens a
wider window.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..core import MAXIMIZE_OPS
from ..diagnostics import DiagnosticsReport
from ..space import SearchSpace, SpaceEdit, apply_edit, space_from_plan, unfix_window
from .schemas import SENSITIVITY_LEVELS

PLATEAU_PCT = 2.0
EXPLOIT_STD = 0.01


def _clamp_samples(share: int, floor: int, remaining: int) -> int:
    return min(max(floor, share), remaining)


def rule_understand(config) -> dict:
    """Generic, model-free understanding of the circuit."""
    variables = list(config.variables)
    scales = getattr(config, "width_scales", {})
    mapping_bits = []
    for var in variables:
        targets = [name for name, (base, _) in scales.items() if base == var]
        if targets:
            mapping_bits.append(f"{var} drives {', '.join(targets)}")
        else:
            mapping_bits.append(f"{var} is a standalone width")
    return {
        "circuit_topology_overview": (
            f"{config.subckt_name} sized by {len(variables)} width variables "
            "on a shared discrete grid."
        ),
        "optimization_variables_mapping": "; ".join(mapping_bits) + ".",
        "optimization_variables_impact": {
            m: "no model-based analysis available; treated as medium impact"
            for m in config.metrics
        },
        "variable_interactions": "not analyzed; assume weak coupling until data says otherwise",
        "key_insights_for_optimization": [
            "no model-based analysis available",
            "treat every width variable as medium sensitivity until evaluations arrive",
            "let boundary clustering and stagnation evidence drive later refinement",
        ],
    }


def _by_sensitivity(names: List[str], sensitivity: Mapping[str, str]) -> List[str]:
    """Sensitivity first (high > medium > low), then list order."""
    return sorted(names, key=lambda v: SENSITIVITY_LEVELS.index(sensitivity.get(v, "medium")))


def _even_indices(m: int, k: int = 5) -> List[int]:
    picked = sorted({round(i * (m - 1) / (k - 1)) for i in range(k)})
    return picked


def target_metric(config) -> str:
    """The metric the plan optimizes: fom when present, else the first
    maximize clause of the user spec, else the first listed metric."""
    if "fom" in config.metrics:
        return "fom"
    return next((c.metric for c in config.spec.clauses if c.op in MAXIMIZE_OPS),
                config.metrics[0])


def rule_plan(config, understanding: dict, n_to_optimize: int) -> Tuple[dict, SearchSpace]:
    """The plan and its first-round space: the first ``n_to_optimize``
    variables in declaration order active on 5 evenly spaced grid values
    (extremes included); the rest pinned at the grid median. Every
    variable ranks "medium": without a model there is no evidence to
    order them by, so ``understanding`` is not consulted."""
    variables = list(config.variables)
    if not 1 <= n_to_optimize <= len(variables):
        raise ValueError(f"n_to_optimize must be in 1..{len(variables)}")

    ranking = [
        {
            "rank": rank,
            "variable": var,
            "impact_on_target": "medium",
            "reasoning": "sensitivity-ordered; declaration order breaks ties",
        }
        for rank, var in enumerate(variables, start=1)
    ]

    optimize: Dict[str, Dict[str, object]] = {}
    fixed: Dict[str, Dict[str, object]] = {}
    for rank, var in enumerate(variables, start=1):
        grid = list(config.grid_for(var))
        if rank <= n_to_optimize:
            values = [grid[i] for i in _even_indices(len(grid))]
            optimize[var] = {
                "rank": rank,
                "search_space": values,
                "num_choices": len(values),
                "range_reasoning": "even grid coverage including both extremes",
                "expected_behavior": "unknown before evaluations; coverage first",
                "sensitivity": "medium",
            }
        else:
            fixed[var] = {
                "rank": rank,
                "fixed_value": grid[len(grid) // 2],
                "fixed_reasoning": "lowest ranked; frozen to shrink the first-round space",
                "why_this_value": "grid median is the least committal pin",
                "risk_if_suboptimal": "medium",
            }

    configuration = {"variables_to_optimize": optimize, "variables_fixed": fixed}
    space = space_from_plan(config, {"optimization_configuration": configuration}, 0)
    reduced = space.cardinality()
    original = config.full_grid_cardinality()
    factor = original / reduced
    per_var = " * ".join(str(e["num_choices"]) for e in optimize.values())
    plan = {
        "optimization_target": target_metric(config),
        "num_variables_to_optimize": n_to_optimize,
        "variable_ranking": ranking,
        "optimization_configuration": configuration,
        "search_space_summary": {
            "original_full_space": original,
            "reduced_search_space": reduced,
            "reduction_factor": f"{factor:g}",
            "calculation": f"{original} -> {per_var} = {reduced}",
            "explanation": "sparse even coverage of the top-ranked variables",
        },
    }
    return plan, space


def _stop(reason: str, assessment: str) -> dict:
    return {
        "action": "stop",
        "reasoning": reason,
        "confidence": "high",
        "expected_improvement": "none expected",
        "convergence_assessment": assessment,
    }


def _search(method, n_samples, parameters, reason, assessment) -> dict:
    return {
        "action": "search",
        "method": method,
        "n_samples": n_samples,
        "parameters": parameters,
        "reasoning": reason,
        "confidence": "medium",
        "expected_improvement": "incremental",
        "convergence_assessment": assessment,
    }


def rule_decide_inner(
    report: Optional[DiagnosticsReport],
    remaining: int,
    space: SearchSpace,
) -> dict:
    """The next inner move; ``remaining`` (at least 1) caps its batch."""
    cardinality = space.cardinality()
    if report is None:
        # first iteration of a run: nothing to analyze yet
        n = _clamp_samples(cardinality // 4, 15, remaining)
        return _search("lhs", n, {}, "no history; stratified space coverage", "not started")

    s = report.status_summary
    c = report.convergence
    recent = c["recent_improvement_pct"]
    distinct_methods = len(s["methods"])
    if (
        recent is not None
        and recent < PLATEAU_PCT
        and s["iterations"] >= 3
        and distinct_methods >= 2
    ):
        return _stop(
            f"plateau: recent improvement {recent:.2f}% < {PLATEAU_PCT:g}% after "
            f"{s['iterations']} iterations and {distinct_methods} methods",
            "improvement exhausted under the current space",
        )

    valid = s["valid_designs"]
    if valid < 10:
        n = _clamp_samples(cardinality // 4, 15, remaining)
        return _search("lhs", n, {}, "thin history; keep stratifying", "too early to call")

    if c["status"] == "stagnant":
        n = _clamp_samples(cardinality // 10, 8, remaining)
        if s["last_method"] == "annealing":
            return _search(
                "multistart",
                n,
                {"n_starts": 5, "search_radius": 2},
                "stagnant after annealing; sweep the best neighborhoods",
                "stagnating",
            )
        return _search(
            "annealing",
            n,
            {"initial_temperature": 3.0, "cooling_rate": 0.95},
            "stagnant; hot annealing chain to escape the basin",
            "stagnating",
        )

    if valid < 25:
        mutation = 0.4 if (recent is not None and recent < PLATEAU_PCT) else 0.2
        n = _clamp_samples(cardinality * 15 // 100, 20, remaining)
        return _search(
            "genetic",
            n,
            {"mutation_rate": mutation, "crossover_rate": 0.8, "tournament_size": 3},
            "mid-depth history; recombine the leaders",
            "developing",
        )

    n = _clamp_samples(cardinality // 10, 5, remaining)
    std = s.get("top_k_fom_std")
    if std is not None and std < EXPLOIT_STD:
        return _search(
            "bayesian",
            n,
            {"acquisition_function": "UCB", "exploration_weight": 2.5},
            "top designs nearly tied; widen via optimistic UCB",
            "exploitation phase",
        )
    return _search(
        "bayesian",
        n,
        {"acquisition_function": "EI", "exploration_weight": 0.2},
        "deep history; model-guided expected improvement",
        "improving",
    )


def _outer(action: str, reason: str, changes: str) -> dict:
    return {
        "optimization_target": "fom",
        "regeneration_reasoning": reason,
        "action_taken": action,
        "changes_from_previous": changes,
        "expected_improvement": "none" if action == "converged" else "unknown",
        "confidence": "medium",
    }


def _edited(space: SearchSpace, edit: SpaceEdit, reason: str,
            changes: str) -> Tuple[dict, SearchSpace]:
    return _outer(edit.action, reason, changes), apply_edit(space, edit)


def _best_fixed_var(space: SearchSpace, sensitivity: Mapping[str, str]) -> str:
    """The most sensitive fixed variable; the space must have one."""
    return _by_sensitivity([v for v in space.full_grid if v in space.fixed], sensitivity)[0]


def _unfix_best(space: SearchSpace, sensitivity: Mapping[str, str], prior_unfixes: int,
                reason: str) -> Tuple[dict, SearchSpace]:
    """Unfix the most sensitive fixed variable on a 5-value window (7 after
    an earlier unfix). ``reason`` is a format string over ``var`` and
    ``n``, the window length."""
    var = _best_fixed_var(space, sensitivity)
    n_values = 7 if prior_unfixes > 0 else 5
    window = unfix_window(space.full_grid[var], space.fixed[var], n_values)
    edit = SpaceEdit(action="unfix_variables", unfix={var: window})
    return _edited(space, edit, reason.format(var=var, n=len(window)),
                   f"{var} promoted from fixed to active")


def _expandable(space: SearchSpace, var: str, side: str) -> bool:
    grid = list(space.full_grid[var])
    values = space.active[var]
    if side == "lower":
        return grid.index(values[0]) > 0
    return grid.index(values[-1]) < len(grid) - 1


def rule_decide_outer(
    report: DiagnosticsReport,
    space: SearchSpace,
    prior_unfixes: int,
    sensitivity: Mapping[str, str],
) -> Tuple[dict, Optional[SearchSpace]]:
    """The outer decision and the space it leads to (None on converged).

    ``prior_unfixes`` counts the run's earlier unfix decisions.
    ``sensitivity`` maps variables to the plan's levels; it orders which
    fixed variable an unfix opens, and a missing variable counts as
    medium."""
    stagnant = any(i.kind == "stagnation" for i in report.issues)
    boundary_issues = [i for i in report.issues if i.kind != "stagnation"]

    if stagnant and space.fixed:
        return _unfix_best(space, sensitivity, prior_unfixes,
                           "stagnation detected; unfixing {var} with {n} values")

    if boundary_issues:
        # 2 adjacent grid values per flagged side; a side already at the
        # grid end escalates to an unfix when possible, else flips to the
        # opposite side so the variable still gets room
        dead_side = any(
            not _expandable(space, i.variable, "lower" if i.kind == "boundary_lower" else "upper")
            for i in boundary_issues
        )
        if dead_side and space.fixed:
            return _unfix_best(space, sensitivity, prior_unfixes,
                               "flagged boundary sits at the grid end; unfixing {var}")

        expand: Dict[str, Dict[str, int]] = {}
        for issue in boundary_issues:
            var = issue.variable
            side = "lower" if issue.kind == "boundary_lower" else "upper"
            if not _expandable(space, var, side):
                side = "upper" if side == "lower" else "lower"
                if not _expandable(space, var, side):
                    continue
            sides = expand.setdefault(var, {})
            sides[side] = 2
        if expand:
            touched = ", ".join(expand)
            return _edited(
                space,
                SpaceEdit(action="expand_ranges", expand=expand),
                f"boundary clustering on {touched}; widening by 2 grid steps per side",
                f"ranges expanded for {touched}",
            )

    converged_vars = [v for v, st in report.impact.items() if st.get("converged")]
    if converged_vars and space.fixed:
        var = converged_vars[0]
        modal = report.impact[var]["counts"][0][0]
        unfix_var = _best_fixed_var(space, sensitivity)
        window = unfix_window(space.full_grid[unfix_var], space.fixed[unfix_var], 5)
        return _edited(
            space,
            SpaceEdit(action="change_focus", fix={var: modal}, unfix={unfix_var: window}),
            f"{var} converged; swapping focus to {unfix_var}",
            f"{var} fixed at {modal}, {unfix_var} activated",
        )

    if report.convergence["status"] == "improving":
        return _edited(space, SpaceEdit(action="continue_current"),
                       "steady improvement; keep the current space", "none")

    narrow = _narrow_runs(report, space)
    if narrow is not None:
        return _edited(
            space,
            SpaceEdit(action="narrow_ranges", narrow=narrow),
            "overwhelming concentration of top designs; shrinking to the winning runs",
            "; ".join(f"{v} -> {list(r)}" for v, r in narrow.items()),
        )

    return _outer(
        "converged", "no escalation applies; search space options exhausted", "none"
    ), None


def _narrow_runs(
    report: DiagnosticsReport, space: SearchSpace
) -> Optional[Dict[str, Tuple[float, ...]]]:
    """Contiguous value runs covering 80% of the top designs, when that
    run is at most 3 values long for every active variable."""
    runs: Dict[str, Tuple[float, ...]] = {}
    changed = False
    for var, values in space.active.items():
        stats = report.impact.get(var)
        if not stats or not stats["counts"]:
            return None
        counts = dict(stats["counts"])
        total = sum(counts.values())
        need = 0.8 * total
        # shortest contiguous window of active values covering the quota
        best_run: Optional[Tuple[int, int]] = None
        for i in range(len(values)):
            covered = 0
            for j in range(i, len(values)):
                covered += counts.get(values[j], 0)
                if covered >= need:
                    if best_run is None or (j - i) < (best_run[1] - best_run[0]):
                        best_run = (i, j)
                    break
        if best_run is None:
            return None
        i, j = best_run
        if j - i + 1 > 3:
            return None
        lo, hi = i, j
        # hard floor of 2 kept values
        if hi - lo + 1 < 2:
            if hi + 1 < len(values):
                hi += 1
            elif lo > 0:
                lo -= 1
            else:
                return None
        run = tuple(values[lo : hi + 1])
        runs[var] = run
        if run != values:
            changed = True
    return runs if changed else None
