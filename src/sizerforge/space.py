"""The mutable optimization domain: active variables with ordered
discrete value lists, fixed variables with pinned values, and the edit
operations the outer loop applies.

A space is built here in one of two ways: ``space_from_plan`` from a
plan's wire dict (the first round, or an outer reply that regenerates
the space) and ``apply_edit`` from a ``SpaceEdit``. Every plan and outer
decision comes back from its backend together with the space it leads
to, built once by one of these. ``validate_space`` is the one judge of
a legal space; ``apply_edit`` checks only what is particular to each
action and leaves the rest to it.

Spaces are persistent: every edit returns a new snapshot with the
generation counter bumped, so each outer-loop generation stays
inspectable in the run report. The full grid is the universal value
universe; optimizers address values by per-variable index, which makes
every algorithm grid-respecting by construction. A space formats the id
fragments of its values (``SearchSpace.id_table``) and maps its values
to their indices (``SearchSpace.index_maps``) once, for every design
``optim.base.materialize`` builds in it or ``index_rows`` places in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from math import prod
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .core import Design
from .errors import PlanIncomplete, SizerForgeError, ValueOffGrid

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

    def sizes(self) -> List[int]:
        """The length of each active list, in declaration order."""
        return [len(values) for values in self.active.values()]

    def cardinality(self) -> int:
        return prod(self.sizes())

    @cached_property
    def id_table(self) -> Tuple[Tuple[int, Tuple[str, ...]], ...]:
        """The ``name=repr(value)`` fragments that ``core.design_id``
        hashes, one entry per variable in name order: its position in an
        index vector with one more slot, 0, appended, and its fragments.
        An active variable has one fragment per index; a pin has its one
        fragment in the appended slot. Computed on first use and kept for
        the life of the space."""
        pin = len(self.active)
        table = {var: (k, tuple(f"{var}={v!r}" for v in values))
                 for k, (var, values) in enumerate(self.active.items())}
        table.update((var, (pin, (f"{var}={value!r}",))) for var, value in self.fixed.items())
        return tuple(table[var] for var in sorted(table))

    @cached_property
    def index_maps(self) -> Tuple[Tuple[str, Dict[float, int]], ...]:
        """Each active variable with its value->index map, in declaration
        order, for ``index_rows``; kept, like ``id_table``."""
        return tuple((var, {v: i for i, v in enumerate(values)})
                     for var, values in self.active.items())

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
        raise SizerForgeError("active and fixed variable sets overlap")
    if set(space.active) | set(space.fixed) != all_vars:
        raise SizerForgeError("active plus fixed must cover every variable")
    for var, values in space.active.items():
        grid = space.full_grid[var]
        if len(values) < 2:
            raise SizerForgeError(f"active list for {var!r} needs at least 2 values")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise SizerForgeError(f"active list for {var!r} must be strictly increasing")
        if not set(values) <= set(grid):
            raise SizerForgeError(f"active list for {var!r} leaves the grid")
    for var, value in space.fixed.items():
        if value not in space.full_grid[var]:
            raise SizerForgeError(f"fixed value {value!r} for {var!r} is off the grid")


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
    variables, pins = space.full_grid.keys(), space.fixed.items()
    rows: List[Optional[List[int]]] = []
    for design in designs:
        assignment = design.assignment
        row = None
        if assignment.keys() == variables and all(assignment[v] == pin for v, pin in pins):
            row = [index.get(assignment[var]) for var, index in space.index_maps]
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


def _named(deltas: Mapping, variables: Mapping, action: str, verb: str) -> Iterable[tuple]:
    """The deltas' items, once the action carries some and each names
    one of ``variables``."""
    if not deltas:
        raise SizerForgeError(f"{action} carries no variables to {verb}")
    for var in deltas:
        if var not in variables:
            raise SizerForgeError(f"{action} cannot {verb} {var!r}")
    return deltas.items()


def apply_edit(space: SearchSpace, edit: SpaceEdit) -> SearchSpace:
    """Apply one edit, returning a new generation. The input is unchanged.

    Only each action's own rules are checked here: expand, narrow and
    fix name active variables and unfix names fixed ones, an expand adds
    at least one value and does not pass a closed grid end, and a narrow
    keeps a contiguous run. ``validate_space`` judges the rest of the
    result: value counts, order, grid membership and coverage.
    """
    if edit.action not in ACTIONS:
        raise SizerForgeError(f"unknown action {edit.action!r}")

    if edit.action in ("continue_current", "converged"):
        if edit.expand or edit.narrow or edit.unfix or edit.fix:
            raise SizerForgeError(f"{edit.action} must carry empty deltas")
        return replace(space, generation=space.generation + 1)

    active: Dict[str, Tuple[float, ...]] = {k: tuple(v) for k, v in space.active.items()}
    fixed: Dict[str, float] = dict(space.fixed)

    if edit.action == "expand_ranges":
        for var, sides in _named(edit.expand, space.active, edit.action, "expand"):
            grid, values = tuple(space.full_grid[var]), active[var]
            lo, hi = grid.index(values[0]), grid.index(values[-1])
            lower, upper = int(sides.get("lower", 0)), int(sides.get("upper", 0))
            if min(lower, upper) < 0 or lower + upper == 0:
                raise SizerForgeError(f"expand for {var!r} must add at least one value")
            if (lower and lo == 0) or (upper and hi == len(grid) - 1):
                raise SizerForgeError(f"{var!r} boundary at grid end: boundary unexpandable")
            # clip when fewer values remain
            active[var] = grid[max(0, lo - lower) : lo] + values + grid[hi + 1 : hi + 1 + upper]

    elif edit.action == "narrow_ranges":
        for var, kept in _named(edit.narrow, space.active, edit.action, "narrow"):
            kept, current = tuple(kept), active[var]
            if all(current[i : i + len(kept)] != kept for i in range(len(current))):
                raise SizerForgeError(f"narrow for {var!r} must keep a contiguous run")
            active[var] = kept

    else:  # unfix_variables, change_focus
        if edit.action == "change_focus":
            for var, value in _named(edit.fix, space.active, edit.action, "fix"):
                del active[var]
                fixed[var] = value
        for var, values in _named(edit.unfix, space.fixed, edit.action, "unfix"):
            del fixed[var]
            active[var] = tuple(sorted(set(values)))
        # keep declaration order stable
        active = {v: active[v] for v in space.full_grid if v in active}

    out = SearchSpace(
        active=active,
        fixed=fixed,
        full_grid=space.full_grid,
        generation=space.generation + 1,
    )
    validate_space(out)
    return out


def space_from_plan(config, plan: Mapping, generation: int) -> SearchSpace:
    """The space a plan's wire dict leads to; only its
    ``optimization_configuration`` is read.

    Every config variable must appear exactly once as optimize-or-fixed;
    active lists are sorted, deduplicated and must land on the grid with
    3 to 7 values each at generation 0 (sparse first-round coverage; a
    shorter grid is taken whole) and 2 to 7 in a regenerated space.
    """
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
            min_values = min(3, len(grid[var])) if generation == 0 else 2
            if not (min_values <= len(values) <= 7):
                raise PlanIncomplete(
                    f"{var!r}: active list must have {min_values}-7 values, got {len(values)}"
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
