"""Run health analysis: convergence status, boundary clustering, stagnation.

``analyze`` makes one pass over a history snapshot: it takes the valid
records once and ranks the top designs once. Its report is the only view
of the search the decision policies get, inner and outer, rule and
model-backed alike; the top designs ride on it as ``top``. render_text
lays the same evidence out as a five-section human-readable block that
is golden-file tested, so its wording is append-only; the model prompts
reuse its issue line and methods list.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from .core import EvaluatedDesign, History, rank_key
from .errors import SizerForgeError
from .space import SearchSpace

TOP_K = 10
STAGNATION_ITERS = 3
IMPROVEMENT_THRESHOLD_PCT = 2.0
REL_TOL = 1e-9

SEV_HIGH = "high"
SEV_MEDIUM = "medium"
SEV_LOW = "low"

# boundary share of top-k that raises an issue / escalates it
BOUNDARY_MEDIUM_FRACTION = 0.60
BOUNDARY_HIGH_FRACTION = 0.90

CONVERGED_FRACTION = 0.70


@dataclass(frozen=True)
class Issue:
    kind: str  # boundary_lower | boundary_upper | stagnation
    evidence: str
    severity: str
    variable: Optional[str] = None

    def line(self) -> str:
        """The issue as one bullet line, as reports and prompts list it."""
        return f"- {self.variable or 'stagnation'}: {self.evidence} -> {self.severity} severity"


@dataclass
class DiagnosticsReport:
    status_summary: Dict[str, object]
    convergence: Dict[str, object]
    issues: List[Issue]
    impact: Dict[str, Dict[str, object]]
    recommendations: Dict[str, object]
    top: List[EvaluatedDesign]  # the TOP_K best valid records, best first; repeats stay


def methods_text(methods: Mapping[str, int]) -> str:
    """Designs per method, in first-use order: ``lhs (25 designs), ...``."""
    return ", ".join(f"{m} ({n} designs)" for m, n in methods.items())


def _fmt_value(x: float) -> str:
    return repr(float(x))


def _fmt_fom(x: Optional[float]) -> str:
    return "n/a" if x is None else f"{x:.4f}"


def _fmt_prog(x: Optional[float]) -> str:
    return "none" if x is None else f"{x:.6g}"


def _rel_equal(a: Optional[float], b: Optional[float]) -> bool:
    if a is None or b is None:
        return False
    scale = max(abs(a), abs(b))
    return abs(a - b) <= REL_TOL * scale if scale else True


def _impact(top: List[EvaluatedDesign], space: SearchSpace) -> Dict[str, Dict[str, object]]:
    """Per active variable: top-k value range, frequency counts, convergence.

    Counts are sorted by frequency descending, value ascending on ties.
    A variable counts as converged when one value covers more than 70%
    of the top designs.
    """
    impact: Dict[str, Dict[str, object]] = {}
    for var in space.active:
        values = [r.design.assignment[var] for r in top]
        counts: Dict[float, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        converged = bool(ordered) and ordered[0][1] > CONVERGED_FRACTION * len(top)
        impact[var] = {
            "min": min(values) if values else None,
            "max": max(values) if values else None,
            "counts": ordered,
            "converged": converged,
        }
    return impact


def _stagnation_streak(progression: List[Optional[float]]) -> int:
    """Trailing run of summaries whose best FoM equals the last one."""
    if not progression or progression[-1] is None:
        return 0
    streak = 1
    for prev in reversed(progression[:-1]):
        if _rel_equal(prev, progression[-1]):
            streak += 1
        else:
            break
    return streak


def _boundary_issues(
    impact: Mapping[str, Dict[str, object]],
    space: SearchSpace,
    k: int,
) -> List[Issue]:
    issues: List[Issue] = []
    if k == 0:
        return issues
    for var, values in space.active.items():
        stats = impact[var]
        counts = dict(stats["counts"])
        lo, hi = values[0], values[-1]
        at_upper = counts.get(hi, 0)
        at_lower = counts.get(lo, 0)
        # upper first, then lower; single-value lists hit both branches
        for kind, side, count, value in (
            ("boundary_upper", "upper", at_upper, hi),
            ("boundary_lower", "lower", at_lower, lo),
        ):
            fraction = count / k
            if fraction < BOUNDARY_MEDIUM_FRACTION:
                continue
            severity = SEV_HIGH if fraction >= BOUNDARY_HIGH_FRACTION else SEV_MEDIUM
            issues.append(
                Issue(
                    kind=kind,
                    variable=var,
                    evidence=f"{count}/{k} top designs at {side} boundary ({_fmt_value(value)})",
                    severity=severity,
                )
            )
    return issues


def analyze(history: History, space: SearchSpace) -> DiagnosticsReport:
    """Pure function of a history snapshot and the current space."""
    summaries = history.summaries()
    if not summaries:
        raise SizerForgeError("no iteration summaries to analyze")

    progression = [s.best_fom_so_far for s in summaries]
    best_fom = progression[-1]
    recent_pct = summaries[-1].improvement_pct

    valid = history.valid_records()
    top = sorted(valid, key=rank_key, reverse=True)[:TOP_K]
    impact = _impact(top, space)

    issues = _boundary_issues(impact, space, len(top))
    streak = _stagnation_streak(progression)
    stagnant = streak >= STAGNATION_ITERS
    if stagnant:
        issues.append(
            Issue(
                kind="stagnation",
                evidence=f"best FOM unchanged for {streak} iterations ({_fmt_fom(best_fom)})",
                severity=SEV_MEDIUM,
            )
        )

    if stagnant:
        status = "stagnant"
        reason = (
            f"recent improvements < {IMPROVEMENT_THRESHOLD_PCT:g}% "
            f"({(recent_pct or 0.0):.2f}%); best FOM unchanged for "
            f"{streak} consecutive iterations"
        )
    elif recent_pct is not None and recent_pct < IMPROVEMENT_THRESHOLD_PCT:
        status = "converging"
        reason = f"recent improvements < {IMPROVEMENT_THRESHOLD_PCT:g}% ({recent_pct:.2f}%)"
    else:
        status = "improving"
        reason = (
            f"recent improvement {recent_pct:.2f}% >= {IMPROVEMENT_THRESHOLD_PCT:g}%"
            if recent_pct is not None
            else "trend not yet established"
        )

    boundary_present = any(i.kind != "stagnation" for i in issues)
    should_regenerate = stagnant or any(
        i.severity == SEV_HIGH for i in issues
    )
    priority = SEV_HIGH if should_regenerate else (SEV_MEDIUM if issues else SEV_LOW)

    actions: List[str] = []
    flagged = []
    for var in space.active:
        kinds = {i.kind for i in issues if i.variable == var}
        if not kinds:
            continue
        flagged.append(var)
        if kinds == {"boundary_lower", "boundary_upper"}:
            actions.append(f"Expand both ranges for {var} due to dual boundary saturation")
        elif kinds == {"boundary_lower"}:
            actions.append(f"Expand lower range for {var} based on boundary clustering")
        else:
            actions.append(f"Expand upper range for {var} based on boundary clustering")
    unflagged = [v for v in space.active if v not in flagged]
    if actions and unflagged:
        actions.append(
            "Keep current ranges for " + " and ".join(unflagged) + " with adequate distribution"
        )
    if stagnant and not boundary_present:
        actions.append("Unfix a variable or change strategy to escape stagnation")
    if not issues and status == "converging":
        actions.append(
            f"Consider stopping due to recent improvements < "
            f"{IMPROVEMENT_THRESHOLD_PCT:g}% ({recent_pct:.2f}%)"
        )

    methods: Dict[str, int] = {}
    for record in history.records:
        methods[record.method] = methods.get(record.method, 0) + 1
    best_iteration = None
    if best_fom is not None:
        for record in valid:
            if _rel_equal(record.fom, best_fom):
                best_iteration = record.iteration
                break
    top_foms = [r.fom for r in top]
    status_summary = {
        "iterations": len(summaries),
        "designs_evaluated": len(history.records),
        "valid_designs": len(valid),
        "methods": methods,
        "last_method": summaries[-1].method,
        "best_fom": best_fom,
        "best_iteration": best_iteration,
        "top_k_fom_std": statistics.pstdev(top_foms) if top_foms else None,
    }
    convergence = {
        "progression": progression,
        "status": status,
        "reason": reason,
        "recent_improvement_pct": recent_pct,
    }
    recommendations = {
        "priority": priority,
        "should_regenerate": should_regenerate,
        "actions": actions,
    }
    return DiagnosticsReport(
        status_summary=status_summary,
        convergence=convergence,
        issues=issues,
        impact=impact,
        recommendations=recommendations,
        top=top,
    )


def render_text(report: DiagnosticsReport) -> str:
    """Five-section text block: status, convergence, issues, impact, advice."""
    s = report.status_summary
    status_lines = (
        f"{s['iterations']} iterations completed with {s['designs_evaluated']} designs "
        f"evaluated. Methods used: {methods_text(s['methods'])}."
    )
    if s["best_fom"] is not None:
        status_lines += (
            f" Best FOM of {_fmt_fom(s['best_fom'])} achieved in iteration {s['best_iteration']}."
        )
    else:
        status_lines += " No valid design found yet."

    c = report.convergence
    prog = "[" + ", ".join(_fmt_prog(x) for x in c["progression"]) + "]"
    convergence_lines = (
        f"FOM progression: {prog}. Status: {c['status']}. Reason: {c['reason']}."
    )

    issues_block = "\n".join(issue.line() for issue in report.issues) or "- none"

    impact_parts = []
    for var, stats in report.impact.items():
        if not stats["counts"]:
            impact_parts.append(f"{var}: no valid designs")
            continue
        lo, hi = _fmt_value(stats["min"]), _fmt_value(stats["max"])
        counts = stats["counts"]
        if len(counts) == 1:
            value, n = counts[0]
            impact_parts.append(
                f"{var} range [{lo}, {hi}] with only {_fmt_value(value)} appearing ({n}x)"
            )
        else:
            shown = ", ".join(f"{_fmt_value(v)}: {n}x" for v, n in counts[:3])
            impact_parts.append(f"{var} range [{lo}, {hi}] with most common values ({shown})")
    impact_lines = "Top design clustering: " + ". ".join(impact_parts) + "."

    r = report.recommendations
    if r["actions"]:
        numbered = ", ".join(f"({i + 1}) {a}" for i, a in enumerate(r["actions"]))
    else:
        numbered = "none"
    rec_lines = (
        f"Priority: {r['priority'].upper()}. "
        f"Should regenerate: {'YES' if r['should_regenerate'] else 'NO'}. "
        f"Actions: {numbered}."
    )

    sections = [
        ("Optimization Status:", status_lines),
        ("Convergence Analysis:", convergence_lines),
        (f"Search Space Issues ({len(report.issues)} detected):", issues_block),
        ("Variable Impact Analysis:", impact_lines),
        ("Recommendations:", rec_lines),
    ]
    return "\n\n".join(f"{header}\n{body}" for header, body in sections) + "\n"
