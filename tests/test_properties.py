"""Properties: every proposer stays on the grid, inside the space, off the
history, and proposes what its seed and the records fix; every legal
space edit yields a valid space.

Spaces are random (two to four variables, some pinned, active lists of
two or more grid values) and so are histories: records inside and
outside the space, failed simulations and failed figures of merit,
feasible and infeasible records, and repeats of one design. Only GA
elitism (the incumbent leads the batch) and multistart at radius 0 (the
starts themselves) resubmit an evaluated design.

Edits are drawn legal for their space: expand only a side that is not
at its grid end, narrow to a contiguous run of two or more values, unfix
only pinned variables, and change focus between an active and a pinned
one. Each legal edit yields exactly what its action names and leaves
every other variable alone. Illegal edits break one rule each and must
raise ``SizerForgeError`` itself, never a subclass such as ``ValueOffGrid``
nor a lookup or value error.

``materialize`` builds, from a space's id fragments formatted once, the
design ``design_from`` builds from the assignment: for every point of
random spaces whose name order differs from their declaration order.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sizerforge.core import EvaluatedDesign, History, design_from, is_valid, rank_key
from sizerforge.errors import InsufficientHistory, SizerForgeError
from sizerforge.optim.base import materialize
from sizerforge.optim.pool import MethodConfig, propose
from sizerforge.space import SearchSpace, SpaceEdit, apply_edit, index_rows, validate_space

from conftest import raises_exactly

GRID = (0.84, 1.05, 1.26, 1.47, 1.68, 1.89)
NAMES = ("W_a", "W_b", "W_c", "W_d")

METHODS = {
    "lhs": st.just({}),
    "genetic": st.fixed_dictionaries({"mutation_rate": st.sampled_from([0.0, 0.2, 1.0])}),
    "ga_baseline": st.just({}),
    "bayesian": st.fixed_dictionaries(
        {"acquisition_function": st.sampled_from(["EI", "PI", "UCB"])}
    ),
    "bo_baseline": st.just({}),
    "adaptive": st.just({}),
    "annealing": st.just({}),
    "multistart": st.fixed_dictionaries(
        {"n_starts": st.integers(1, 4), "search_radius": st.integers(0, 2)}
    ),
    "turbo_baseline": st.just({}),
}


@st.composite
def spaces(draw):
    names = NAMES[: draw(st.integers(2, 4))]
    active_names = draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True)
    )
    active, fixed = {}, {}
    for var in names:
        if var in active_names:
            values = draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=4, unique=True))
            active[var] = tuple(sorted(values))
        else:
            fixed[var] = draw(st.sampled_from(GRID))
    space = SearchSpace(active=active, fixed=fixed, full_grid={v: GRID for v in names})
    validate_space(space)
    return space


@st.composite
def histories(draw, space):
    hist = History()
    designs = []
    iteration = 1
    for _ in range(draw(st.integers(0, 24))):
        if designs and draw(st.integers(0, 3)) == 0:
            iteration += 1  # a new batch
        if designs and draw(st.integers(0, 5)) == 0:
            design = draw(st.sampled_from(designs))  # a repeat
        elif draw(st.booleans()):
            assignment = dict(space.fixed)
            for var, values in space.active.items():
                assignment[var] = draw(st.sampled_from(values))
            design = design_from(assignment)
        else:
            # anywhere on the full grid, so often outside the space
            design = design_from({v: draw(st.sampled_from(GRID)) for v in space.full_grid})
        designs.append(design)
        status = draw(st.sampled_from(["ok", "ok", "ok", "sim_failed"]))
        fom = None
        if status == "ok" and draw(st.integers(0, 4)):
            fom = draw(st.floats(0.01, 10.0))
        hist.append(EvaluatedDesign(
            design=design,
            raw_metrics={},
            normalized={},
            fom=fom,
            feasible=fom is not None and draw(st.booleans()),
            sim_status=status,
            iteration=iteration,
            method="lhs",
            eval_index=hist.next_eval_index(),
            wall_time=0.0,
        ))
    return hist


@pytest.mark.parametrize("method", sorted(METHODS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_proposals_stay_on_the_grid_inside_the_space_and_off_the_history(method, data):
    space = data.draw(spaces())
    history = data.draw(histories(space))
    params = data.draw(METHODS[method])
    config = MethodConfig(
        method=method,
        n_samples=data.draw(st.integers(1, 8)),
        parameters=params,
        seed=data.draw(st.integers(0, 2**32 - 1)),
    )
    try:
        proposal = propose(space, config, history)
    except InsufficientHistory:
        return  # the controller falls back to lhs

    # the seed and the records alone fix the designs: a second call, and a
    # fresh history holding the same records (so no view carried over)
    twin = History()
    twin.append_batch(history.records)
    ids = [d.id for d in proposal.designs]
    assert [d.id for d in propose(space, config, history).designs] == ids
    assert [d.id for d in propose(space, config, twin).designs] == ids

    for design in proposal.designs:
        assert all(design.assignment[v] in GRID for v in space.full_grid)
    assert None not in index_rows(space, proposal.designs)

    evaluated = {r.design.id for r in history.records}
    resubmitted = [d for d in proposal.designs if d.id in evaluated]
    if method == "multistart" and params["search_radius"] == 0:
        return
    rows = index_rows(space, [r.design for r in history.records])
    parents = [r for r, row in zip(history.records, rows) if row is not None and is_valid(r)]
    if method in ("genetic", "ga_baseline") and len(parents) >= 2:
        # the elite, the first best valid record inside the space, leads
        elite = max(parents, key=rank_key).design
        assert resubmitted == [elite] and proposal.designs[0] == elite
        return
    assert resubmitted == []


# declared out of name order; values of several types, one whose repr is
# not its str
ID_NAMES = ("W_tail", "M1", "a", "Z_out", "w_load")
ID_VALUES = (0.84, 1.05, 2.1, 1, 3, 1e-07, 0.1 + 0.2, 2.5e300, -0.5, np.float64(1.47))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_materialize_builds_the_design_of_design_from(data):
    names = data.draw(st.permutations(ID_NAMES))[: data.draw(st.integers(1, len(ID_NAMES)))]
    active, fixed = {}, {}
    for var in names:
        if data.draw(st.booleans()):
            active[var] = tuple(data.draw(st.lists(st.sampled_from(ID_VALUES), min_size=1,
                                                   max_size=4, unique=True)))
        else:
            fixed[var] = data.draw(st.sampled_from(ID_VALUES))
    space = SearchSpace(active=active, fixed=fixed,
                        full_grid={var: ID_VALUES for var in names})
    for point in itertools.product(*map(range, space.sizes())):
        assignment = dict(fixed)
        assignment.update((var, values[i]) for (var, values), i in zip(active.items(), point))
        want = design_from(assignment)
        # a list, and a numpy row as the Bayesian proposer passes it
        for row in (list(point), np.array(point, dtype=np.intp)):
            got = materialize(space, row)
            assert got.id == want.id
            assert list(got.assignment.items()) == list(want.assignment.items())


def _subset(draw, names):
    return draw(st.lists(st.sampled_from(sorted(names)), min_size=1, unique=True))


def _values(draw):
    return tuple(draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=len(GRID),
                               unique=True)))


@st.composite
def legal_edits(draw, space):
    ends = {var: (GRID.index(values[0]) > 0, GRID.index(values[-1]) < len(GRID) - 1)
            for var, values in space.active.items()}
    actions = ["narrow_ranges"]
    if any(any(open_sides) for open_sides in ends.values()):
        actions.append("expand_ranges")
    if space.fixed:
        actions += ["unfix_variables", "change_focus"]
    action = draw(st.sampled_from(actions))
    if action == "expand_ranges":
        expand = {}
        for var in _subset(draw, [v for v, open_sides in ends.items() if any(open_sides)]):
            sides = {side: draw(st.integers(0, 6)) if is_open else 0
                     for side, is_open in zip(("lower", "upper"), ends[var])}
            if not any(sides.values()):
                sides["lower" if ends[var][0] else "upper"] = 1
            expand[var] = sides
        return SpaceEdit(action, expand=expand)
    if action == "narrow_ranges":
        narrow = {}
        for var in _subset(draw, space.active):
            values = space.active[var]
            start = draw(st.integers(0, len(values) - 2))
            narrow[var] = values[start : start + draw(st.integers(2, len(values) - start))]
        return SpaceEdit(action, narrow=narrow)
    unfix = {var: _values(draw) for var in _subset(draw, space.fixed)}
    if action == "unfix_variables":
        return SpaceEdit(action, unfix=unfix)
    fix = {var: draw(st.sampled_from(GRID)) for var in _subset(draw, space.active)}
    return SpaceEdit(action, fix=fix, unfix=unfix)


def _named(edit):
    return {**edit.expand, **edit.narrow, **edit.unfix, **edit.fix}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_legal_edit_yields_a_valid_space(data):
    space = data.draw(spaces())
    edit = data.draw(legal_edits(space))
    before = space.describe()
    out = apply_edit(space, edit)
    validate_space(out)
    assert out.generation == space.generation + 1
    assert out.full_grid == space.full_grid
    assert list(out.active) == [v for v in space.full_grid if v in out.active]
    assert space.describe() == before  # the input space is unchanged

    for var, kept in edit.narrow.items():
        assert out.active[var] == kept
    for var, sides in edit.expand.items():
        old, new = space.active[var], out.active[var]
        lo, hi = GRID.index(old[0]), GRID.index(old[-1])
        below = GRID[max(0, lo - sides["lower"]) : lo]
        above = GRID[hi + 1 : hi + 1 + sides["upper"]]
        assert new == below + old + above
        assert len(below) <= sides["lower"] and len(above) <= sides["upper"]
    for var, values in edit.unfix.items():
        assert out.active[var] == tuple(sorted(set(values)))
        assert var not in out.fixed
    for var, value in edit.fix.items():
        assert out.fixed[var] == value
        assert var not in out.active
    for var in space.full_grid:
        if var not in _named(edit):
            assert out.active.get(var) == space.active.get(var)
            assert out.fixed.get(var) == space.fixed.get(var)


OFF_GRID = (0.9, 3.0)


@st.composite
def illegal_edits(draw, space):
    """An edit that breaks one rule of its action, of a kind this space allows."""
    active, fixed = sorted(space.active), sorted(space.fixed)
    kinds = ["expand_no_positive_side", "narrow_not_contiguous", "narrow_short",
             "unfix_active", "focus_one_side", "deltas_on_no_op"]
    closed = [(var, side) for var, values in space.active.items()
              for side, at_end in (("lower", values[0] == GRID[0]), ("upper", values[-1] == GRID[-1]))
              if at_end]
    if closed:
        kinds.append("expand_closed_end")
    if any(len(v) < len(GRID) for v in space.active.values()):
        kinds.append("narrow_strays")
    if fixed:
        kinds += ["expand_fixed", "unfix_short", "unfix_off_grid"]
    kind = draw(st.sampled_from(kinds))
    var = draw(st.sampled_from(active))
    values = space.active[var]

    if kind == "expand_closed_end":
        var, side = draw(st.sampled_from(closed))
        return SpaceEdit("expand_ranges", expand={var: {side: draw(st.integers(1, 3))}})
    if kind == "expand_fixed":
        return SpaceEdit("expand_ranges", expand={draw(st.sampled_from(fixed)): {"upper": 1}})
    if kind == "expand_no_positive_side":
        sides = draw(st.fixed_dictionaries({}, optional={"lower": st.integers(-3, 0),
                                                         "upper": st.integers(-3, 0)}))
        return SpaceEdit("expand_ranges", expand={var: sides})
    if kind == "narrow_not_contiguous":
        kept = tuple(draw(st.lists(st.sampled_from(values), min_size=2, unique=True)))
        assume(all(values[i : i + len(kept)] != kept for i in range(len(values))))
        return SpaceEdit("narrow_ranges", narrow={var: kept})
    if kind == "narrow_short":
        kept = tuple(draw(st.lists(st.sampled_from(values), max_size=1)))
        return SpaceEdit("narrow_ranges", narrow={var: kept})
    if kind == "narrow_strays":
        var = draw(st.sampled_from([v for v in active if len(space.active[v]) < len(GRID)]))
        values = space.active[var]
        stray = draw(st.sampled_from([g for g in GRID + OFF_GRID if g not in values]))
        return SpaceEdit("narrow_ranges", narrow={var: tuple(sorted({values[0], stray}))})
    if kind == "unfix_active":
        return SpaceEdit("unfix_variables", unfix={var: values})
    if kind == "unfix_short":
        pin = draw(st.sampled_from(GRID))
        short = draw(st.sampled_from([(), (pin,), (pin, pin)]))
        return SpaceEdit("unfix_variables", unfix={draw(st.sampled_from(fixed)): short})
    if kind == "unfix_off_grid":
        off = (draw(st.sampled_from(GRID)), draw(st.sampled_from(OFF_GRID)))
        return SpaceEdit("unfix_variables", unfix={draw(st.sampled_from(fixed)): off})
    if kind == "focus_one_side":
        if fixed and draw(st.booleans()):
            return SpaceEdit("change_focus", unfix={fixed[0]: GRID[:2]})
        return SpaceEdit("change_focus", fix={var: values[0]})
    delta = draw(st.sampled_from([
        {"expand": {var: {"upper": 1}}},
        {"narrow": {var: values}},
        {"unfix": {var: values}},
        {"fix": {var: values[0]}},
    ]))
    return SpaceEdit(draw(st.sampled_from(["continue_current", "converged"])), **delta)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_illegal_edit_raises_illegal_edit(data):
    space = data.draw(spaces())
    edit = data.draw(illegal_edits(space))
    before = space.describe()
    with raises_exactly(SizerForgeError):
        apply_edit(space, edit)
    assert space.describe() == before
