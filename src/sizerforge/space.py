"""The mutable optimization domain: active variables with ordered
discrete value lists, fixed variables with pinned values, and the edit
operations the outer loop applies.

Spaces are persistent: every edit returns a new snapshot with the
generation counter bumped, so each outer-loop generation stays
inspectable in the run report. The full grid is the universal value
universe; optimizers address values by per-variable index, which makes
every algorithm grid-respecting by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import prod
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .core import Design
from .errors import IllegalEdit, PlanIncomplete, ValueOffGrid

ACTIONS = (
    "continue_current",
    "expand_ranges",
    "narrow_ranges",
    "unfix_variables",
    "change_focus",
    "converged",
)


@dataclass(frozen=True)
class SearchSpace:
    active: Mapping[str, Tuple[float, ...]]  # ordered: declaration order
    fixed: Mapping[str, float]
    full_grid: Mapping[str, Tuple[float, ...]]
    generation: int = 0

    @property
    def variables(self) -> List[str]:
        return list(self.full_grid)

    def cardinality(self) -> int:
        return prod(len(v) for v in self.active.values()) if self.active else 1

    def describe(self) -> dict:
        return {
            "generation": self.generation,
            "active": {k: list(v) for k, v in self.active.items()},
            "fixed": dict(self.fixed),
            "cardinality": self.cardinality(),
        }


def validate_space(space: SearchSpace) -> None:
    all_vars = set(space.full_grid)
    if set(space.active) & set(space.fixed):
        raise IllegalEdit("active and fixed variable sets overlap")
    if set(space.active) | set(space.fixed) != all_vars:
        raise IllegalEdit("active plus fixed must cover every variable")
    for var, values in space.active.items():
        grid = space.full_grid[var]
        if len(values) < 2:
            raise IllegalEdit(f"active list for {var!r} needs at least 2 values")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise IllegalEdit(f"active list for {var!r} must be strictly increasing")
        if not set(values) <= set(grid):
            raise IllegalEdit(f"active list for {var!r} leaves the grid")
    for var, value in space.fixed.items():
        if value not in space.full_grid[var]:
            raise IllegalEdit(f"fixed value {value!r} for {var!r} is off the grid")


def full_space(full_grid: Mapping[str, Sequence[float]]) -> SearchSpace:
    """Fresh space: every variable active over its full grid."""
    return SearchSpace(
        active={v: tuple(g) for v, g in full_grid.items()},
        fixed={},
        full_grid={v: tuple(g) for v, g in full_grid.items()},
        generation=0,
    )


def space_from_config(config) -> SearchSpace:
    return full_space({v: config.grid_for(v) for v in config.variables})


def index_rows(space: SearchSpace, designs: Iterable[Design]) -> List[Optional[List[int]]]:
    """Each design's index vector over the active lists, or None where the
    design lies outside the space: its variables differ from the grid's,
    a pin is not matched or an active value is not in its list."""
    position = [(var, {v: i for i, v in enumerate(values)}) for var, values in space.active.items()]
    variables, pins = space.full_grid.keys(), space.fixed.items()
    rows: List[Optional[List[int]]] = []
    for design in designs:
        assignment = design.assignment
        row = None
        if assignment.keys() == variables and all(assignment[v] == pin for v, pin in pins):
            row = [index.get(assignment[var]) for var, index in position]
        rows.append(None if row is None or None in row else row)
    return rows


@dataclass(frozen=True)
class SpaceEdit:
    """One outer-loop decision, expressed as per-variable deltas.

    expand: variable -> {"lower": k, "upper": k} counts of adjacent grid
        values to add on each side.
    narrow: variable -> kept value list (contiguous run of the active list).
    unfix: variable -> chosen active value list.
    fix: variable -> pinned value (used by change_focus).
    ``continue_current`` and ``converged`` must carry empty deltas.
    """

    action: str
    expand: Mapping[str, Mapping[str, int]] = field(default_factory=dict)
    narrow: Mapping[str, Tuple[float, ...]] = field(default_factory=dict)
    unfix: Mapping[str, Tuple[float, ...]] = field(default_factory=dict)
    fix: Mapping[str, float] = field(default_factory=dict)


def unfix_window(grid: Sequence[float], pin: float, n_values: int) -> Tuple[float, ...]:
    """Window of ``n_values`` grid values centered on the pin, truncated
    at grid ends (a pin at the end yields a shorter one-sided window)."""
    if pin not in grid:
        raise ValueOffGrid("<unfix>", pin)
    i = list(grid).index(pin)
    half = (n_values - 1) // 2
    lo = max(0, i - half)
    hi = min(len(grid) - 1, i + (n_values - 1 - half))
    return tuple(grid[lo : hi + 1])


def apply_edit(space: SearchSpace, edit: SpaceEdit) -> SearchSpace:
    """Apply one edit, returning a new generation. The input is unchanged."""
    if edit.action not in ACTIONS:
        raise IllegalEdit(f"unknown action {edit.action!r}")

    if edit.action in ("continue_current", "converged"):
        if edit.expand or edit.narrow or edit.unfix or edit.fix:
            raise IllegalEdit(f"{edit.action} must carry empty deltas")
        return replace(space, generation=space.generation + 1)

    active: Dict[str, Tuple[float, ...]] = {k: tuple(v) for k, v in space.active.items()}
    fixed: Dict[str, float] = dict(space.fixed)

    if edit.action == "expand_ranges":
        if not edit.expand:
            raise IllegalEdit("expand_ranges carries no deltas")
        for var, sides in edit.expand.items():
            if var not in active:
                raise IllegalEdit(f"cannot expand inactive variable {var!r}")
            grid = list(space.full_grid[var])
            values = list(active[var])
            lo_idx = grid.index(values[0])
            hi_idx = grid.index(values[-1])
            want_lower = int(sides.get("lower", 0))
            want_upper = int(sides.get("upper", 0))
            if want_lower < 0 or want_upper < 0 or (want_lower == 0 and want_upper == 0):
                raise IllegalEdit(f"expand for {var!r} must add at least one value")
            if want_lower:
                if lo_idx == 0:
                    raise IllegalEdit(
                        f"{var!r} lower boundary at grid end: boundary unexpandable"
                    )
                take = min(want_lower, lo_idx)  # clip when fewer values remain
                values = grid[lo_idx - take : lo_idx] + values
            if want_upper:
                if hi_idx == len(grid) - 1:
                    raise IllegalEdit(
                        f"{var!r} upper boundary at grid end: boundary unexpandable"
                    )
                take = min(want_upper, len(grid) - 1 - hi_idx)
                values = values + grid[hi_idx + 1 : hi_idx + 1 + take]
            active[var] = tuple(values)

    elif edit.action == "narrow_ranges":
        if not edit.narrow:
            raise IllegalEdit("narrow_ranges carries no deltas")
        for var, kept in edit.narrow.items():
            if var not in active:
                raise IllegalEdit(f"cannot narrow inactive variable {var!r}")
            kept = tuple(kept)
            current = active[var]
            if len(kept) < 2:
                raise IllegalEdit(f"narrowing {var!r} below 2 values")
            if not set(kept) <= set(current):
                raise IllegalEdit(f"narrow for {var!r} keeps values outside the active list")
            # kept values must form a contiguous run of the current list
            start = current.index(kept[0])
            if current[start : start + len(kept)] != kept:
                raise IllegalEdit(f"narrow for {var!r} must keep a contiguous run")
            active[var] = kept

    elif edit.action == "unfix_variables":
        if not edit.unfix:
            raise IllegalEdit("unfix_variables carries no deltas")
        for var, values in edit.unfix.items():
            if var in active:
                raise IllegalEdit(f"{var!r} is already active")
            if var not in fixed:
                raise IllegalEdit(f"{var!r} is not a variable of this space")
            values = tuple(sorted(set(values)))
            if len(values) < 2:
                raise IllegalEdit(f"unfix of {var!r} needs at least 2 values")
            if not set(values) <= set(space.full_grid[var]):
                raise IllegalEdit(f"unfix of {var!r} uses off-grid values")
            del fixed[var]
            active[var] = values
        # keep declaration order stable
        active = {v: active[v] for v in space.full_grid if v in active}

    elif edit.action == "change_focus":
        if not edit.fix or not edit.unfix:
            raise IllegalEdit("change_focus needs one variable to fix and one to unfix")
        for var, value in edit.fix.items():
            if var not in active:
                raise IllegalEdit(f"cannot fix inactive variable {var!r}")
            if value not in space.full_grid[var]:
                raise IllegalEdit(f"fix value {value!r} for {var!r} is off the grid")
            del active[var]
            fixed[var] = value
        for var, values in edit.unfix.items():
            if var not in fixed or var in active:
                raise IllegalEdit(f"{var!r} cannot be unfixed")
            values = tuple(sorted(set(values)))
            if len(values) < 2 or not set(values) <= set(space.full_grid[var]):
                raise IllegalEdit(f"unfix of {var!r} has an illegal value list")
            del fixed[var]
            active[var] = values
        active = {v: active[v] for v in space.full_grid if v in active}

    out = SearchSpace(
        active=active,
        fixed=fixed,
        full_grid=space.full_grid,
        generation=space.generation + 1,
    )
    validate_space(out)
    return out


def first_round_from_plan(config, plan: Mapping) -> SearchSpace:
    """Build the initial space from a plan's wire dict.

    Every config variable must appear exactly once as optimize-or-fixed;
    active lists are sorted, deduplicated and must land on the grid with
    3 to 7 values each (sparse first-round coverage).
    """
    return _space_from_plan(config, plan, generation=0, min_values=3, max_values=7)


def space_from_plan(config, plan: Mapping, generation: int) -> SearchSpace:
    """Regenerated space from an outer reply that carries a plan (2-7
    values per variable). Like ``first_round_from_plan`` it reads only
    the reply's ``optimization_configuration``."""
    return _space_from_plan(config, plan, generation=generation, min_values=2, max_values=7)


def _space_from_plan(config, plan: Mapping, generation, min_values, max_values) -> SearchSpace:
    grid = {v: tuple(config.grid_for(v)) for v in config.variables}
    names = set(config.variables)
    optimize = plan["optimization_configuration"]["variables_to_optimize"]
    fixed_entries = plan["optimization_configuration"]["variables_fixed"]
    planned = set(optimize) | set(fixed_entries)
    missing = names - planned
    extra = planned - names
    if missing or extra:
        raise PlanIncomplete(
            f"plan must cover every variable exactly once; missing={sorted(missing)}, "
            f"unknown={sorted(extra)}"
        )
    if set(optimize) & set(fixed_entries):
        raise PlanIncomplete("plan names a variable as both optimized and fixed")

    active: Dict[str, Tuple[float, ...]] = {}
    fixed: Dict[str, float] = {}
    for var in config.variables:
        if var in optimize:
            raw = optimize[var]["search_space"]
            for value in raw:
                if value not in grid[var]:
                    raise ValueOffGrid(var, value)
            values = tuple(sorted(set(raw)))
            if not (min_values <= len(values) <= max_values):
                raise PlanIncomplete(
                    f"{var!r}: active list must have {min_values}-{max_values} values, "
                    f"got {len(values)}"
                )
            active[var] = values
        else:
            value = fixed_entries[var]["fixed_value"]
            if value not in grid[var]:
                raise ValueOffGrid(var, value)
            fixed[var] = value

    out = SearchSpace(active=active, fixed=fixed, full_grid=grid, generation=generation)
    validate_space(out)
    return out
