"""Search space construction, validation, and outer-loop edits."""

import pytest

from sizerforge.config import load_config
from sizerforge.core import design_from
from sizerforge.errors import PlanIncomplete, SizerForgeError, ValueOffGrid
from sizerforge.space import (
    SearchSpace,
    SpaceEdit,
    apply_edit,
    full_space,
    index_rows,
    space_from_config,
    space_from_plan,
    unfix_window,
    validate_space,
)

from conftest import W_GRID, raises_exactly

GRID4 = {v: W_GRID for v in ("W_tail", "W_diff", "W_casc", "W_load")}


def _space(active, fixed=None, generation=0):
    return SearchSpace(
        active={k: tuple(v) for k, v in active.items()},
        fixed=dict(fixed or {}),
        full_grid=GRID4,
        generation=generation,
    )


# -------------------------------------------------------------- basics


def test_full_space_covers_grid():
    space = full_space(GRID4)
    assert space.cardinality() == 9**4
    assert space.generation == 0
    assert not space.fixed


def test_space_from_config_matches_declared_grid():
    config = load_config("configs/telescopic_ota.yaml")
    space = space_from_config(config)
    assert list(space.full_grid) == config.variables
    assert space.cardinality() == 6561
    for var in config.variables:
        assert list(space.active[var]) == config.grid_for(var)


def test_cardinality_counts_only_active():
    space = _space({"W_tail": (0.84, 1.05), "W_diff": (0.84, 1.05, 1.26)}, {"W_casc": 1.68, "W_load": 1.68})
    assert space.cardinality() == 6


def test_validate_space_rejects_off_grid_active():
    bad = _space({"W_tail": (0.84, 0.90), "W_diff": (0.84, 1.05)}, {"W_casc": 1.68, "W_load": 1.68})
    with raises_exactly(SizerForgeError, "active list for 'W_tail' leaves the grid"):
        validate_space(bad)


def test_validate_space_rejects_unsorted_active():
    bad = _space({"W_tail": (1.05, 0.84), "W_diff": (0.84, 1.05)}, {"W_casc": 1.68, "W_load": 1.68})
    with raises_exactly(SizerForgeError, "active list for 'W_tail' must be strictly increasing"):
        validate_space(bad)


def test_sample_validate():
    space = _space({"W_tail": (0.84, 1.05), "W_diff": (0.84, 1.05)}, {"W_casc": 1.68, "W_load": 1.68})
    ok = design_from({"W_tail": 0.84, "W_diff": 1.05, "W_casc": 1.68, "W_load": 1.68})
    wrong_pin = design_from({"W_tail": 0.84, "W_diff": 1.05, "W_casc": 1.89, "W_load": 1.68})
    outside = design_from({"W_tail": 2.52, "W_diff": 1.05, "W_casc": 1.68, "W_load": 1.68})
    missing_var = design_from({"W_tail": 0.84, "W_diff": 1.05, "W_casc": 1.68})
    rows = index_rows(space, [ok, wrong_pin, outside, missing_var])
    assert rows == [[0, 1], None, None, None]
    # the space builds its value->index maps once and keeps them
    assert space.index_maps is space.index_maps
    assert space.index_maps == (("W_tail", {0.84: 0, 1.05: 1}), ("W_diff", {0.84: 0, 1.05: 1}))


def test_unfix_window_centering_and_truncation():
    assert unfix_window(W_GRID, 1.68, 5) == (1.26, 1.47, 1.68, 1.89, 2.10)
    # pin at the grid edge yields a one-sided window
    assert unfix_window(W_GRID, 0.84, 5) == (0.84, 1.05, 1.26)
    assert unfix_window(W_GRID, 2.52, 5) == (2.10, 2.31, 2.52)
    with pytest.raises(ValueOffGrid):
        unfix_window(W_GRID, 0.9, 5)


# -------------------------------------------------------------- edits


def test_expand_adds_adjacent_grid_values():
    space = _space({"W_tail": (1.26, 1.47, 1.68)}, {"W_diff": 1.68, "W_casc": 1.68, "W_load": 1.68})
    out = apply_edit(space, SpaceEdit(action="expand_ranges", expand={"W_tail": {"lower": 1, "upper": 2}}))
    assert out.active["W_tail"] == (1.05, 1.26, 1.47, 1.68, 1.89, 2.10)
    assert out.generation == space.generation + 1
    # input untouched
    assert space.active["W_tail"] == (1.26, 1.47, 1.68)


def test_expand_clips_at_grid_end():
    space = _space({"W_tail": (1.05, 1.26)}, {"W_diff": 1.68, "W_casc": 1.68, "W_load": 1.68})
    out = apply_edit(space, SpaceEdit(action="expand_ranges", expand={"W_tail": {"lower": 3}}))
    assert out.active["W_tail"] == (0.84, 1.05, 1.26)


def test_expand_at_grid_end_is_illegal():
    space = _space({"W_tail": (0.84, 1.05)}, {"W_diff": 1.68, "W_casc": 1.68, "W_load": 1.68})
    with raises_exactly(SizerForgeError, "'W_tail' boundary at grid end: boundary unexpandable"):
        apply_edit(space, SpaceEdit(action="expand_ranges", expand={"W_tail": {"lower": 1}}))


def test_expand_needs_positive_delta():
    space = _space({"W_tail": (1.26, 1.47)}, {"W_diff": 1.68, "W_casc": 1.68, "W_load": 1.68})
    with raises_exactly(SizerForgeError, "expand for 'W_tail' must add at least one value"):
        apply_edit(space, SpaceEdit(action="expand_ranges", expand={"W_tail": {}}))
    with raises_exactly(SizerForgeError, "expand_ranges carries no variables to expand"):
        apply_edit(space, SpaceEdit(action="expand_ranges", expand={}))


def test_narrow_keeps_contiguous_run():
    space = _space({"W_tail": (1.05, 1.26, 1.47, 1.68)}, {"W_diff": 1.68, "W_casc": 1.68, "W_load": 1.68})
    out = apply_edit(space, SpaceEdit(action="narrow_ranges", narrow={"W_tail": (1.26, 1.47)}))
    assert out.active["W_tail"] == (1.26, 1.47)


def test_narrow_rejects_gaps_singletons_and_strays():
    space = _space({"W_tail": (1.05, 1.26, 1.47, 1.68)}, {"W_diff": 1.68, "W_casc": 1.68, "W_load": 1.68})
    with raises_exactly(SizerForgeError, "narrow for 'W_tail' must keep a contiguous run"):
        apply_edit(space, SpaceEdit(action="narrow_ranges", narrow={"W_tail": (1.05, 1.47)}))
    with raises_exactly(SizerForgeError, "active list for 'W_tail' needs at least 2 values"):
        apply_edit(space, SpaceEdit(action="narrow_ranges", narrow={"W_tail": (1.26,)}))
    with raises_exactly(SizerForgeError, "narrow for 'W_tail' must keep a contiguous run"):
        apply_edit(space, SpaceEdit(action="narrow_ranges", narrow={"W_tail": (1.89, 2.10)}))


def test_unfix_promotes_fixed_variable():
    space = _space({"W_tail": (1.26, 1.47)}, {"W_diff": 1.68, "W_casc": 1.89, "W_load": 1.68})
    out = apply_edit(
        space, SpaceEdit(action="unfix_variables", unfix={"W_casc": (1.68, 1.89, 2.10)})
    )
    assert out.active["W_casc"] == (1.68, 1.89, 2.10)
    assert "W_casc" not in out.fixed
    # declaration order of the grid is preserved in the active map
    assert list(out.active) == ["W_tail", "W_casc"]


def test_unfix_requires_two_on_grid_values():
    space = _space({"W_tail": (1.26, 1.47)}, {"W_diff": 1.68, "W_casc": 1.89, "W_load": 1.68})
    with raises_exactly(SizerForgeError, "active list for 'W_casc' needs at least 2 values"):
        apply_edit(space, SpaceEdit(action="unfix_variables", unfix={"W_casc": (1.89,)}))
    with raises_exactly(SizerForgeError, "active list for 'W_casc' leaves the grid"):
        apply_edit(space, SpaceEdit(action="unfix_variables", unfix={"W_casc": (1.9, 2.0)}))
    with raises_exactly(SizerForgeError, "unfix_variables cannot unfix 'W_tail'"):
        apply_edit(space, SpaceEdit(action="unfix_variables", unfix={"W_tail": (1.26, 1.47)}))


def test_change_focus_swaps_fix_and_unfix():
    space = _space({"W_tail": (1.26, 1.47), "W_diff": (0.84, 1.05)}, {"W_casc": 1.89, "W_load": 1.68})
    out = apply_edit(
        space,
        SpaceEdit(
            action="change_focus",
            fix={"W_diff": 0.84},
            unfix={"W_casc": (1.68, 1.89, 2.10)},
        ),
    )
    assert out.fixed["W_diff"] == 0.84
    assert out.active["W_casc"] == (1.68, 1.89, 2.10)
    assert list(out.active) == ["W_tail", "W_casc"]


def test_change_focus_needs_both_sides():
    space = _space({"W_tail": (1.26, 1.47)}, {"W_casc": 1.89, "W_diff": 1.68, "W_load": 1.68})
    with raises_exactly(SizerForgeError, "change_focus carries no variables to unfix"):
        apply_edit(space, SpaceEdit(action="change_focus", fix={"W_tail": 1.26}))


def test_continue_and_converged_bump_generation_only():
    space = _space({"W_tail": (1.26, 1.47)}, {"W_diff": 1.68, "W_casc": 1.68, "W_load": 1.68})
    for action in ("continue_current", "converged"):
        out = apply_edit(space, SpaceEdit(action=action))
        assert out.generation == space.generation + 1
        assert out.active == space.active
        assert out.fixed == space.fixed
        with raises_exactly(SizerForgeError, f"{action} must carry empty deltas"):
            apply_edit(space, SpaceEdit(action=action, expand={"W_tail": {"upper": 1}}))


def test_unknown_action_rejected():
    space = _space({"W_tail": (1.26, 1.47)}, {"W_diff": 1.68, "W_casc": 1.68, "W_load": 1.68})
    with raises_exactly(SizerForgeError, "unknown action 'shrink_everything'"):
        apply_edit(space, SpaceEdit(action="shrink_everything"))


# -------------------------------------------------------------- plans


def _fig_plan():
    # the first-round construction exercised throughout: three active
    # variables on sparse value lists, one variable pinned; only the
    # plan's optimization_configuration is read
    optimize = {
        "W_diff_base": {"rank": 1, "search_space": [0.84, 1.26, 1.68, 2.10, 2.52]},
        "W_tail_base": {"rank": 2, "search_space": [0.84, 1.47, 2.10, 2.52]},
        "W_load_base": {"rank": 3, "search_space": [0.84, 1.47, 2.10, 2.52]},
    }
    fixed = {"W_casc_base": {"rank": 4, "fixed_value": 1.89}}
    return {"optimization_configuration": {"variables_to_optimize": optimize,
                                           "variables_fixed": fixed}}


def _entries(plan, section):
    return plan["optimization_configuration"][section]


def test_first_round_plan_cardinality_and_reduction():
    config = load_config("configs/telescopic_ota.yaml")
    space = space_from_plan(config, _fig_plan(), 0)
    assert space.cardinality() == 80
    assert config.full_grid_cardinality() / space.cardinality() == 82.0125
    assert space.fixed == {"W_casc_base": 1.89}
    assert space.generation == 0


def test_plan_must_cover_every_variable():
    config = load_config("configs/telescopic_ota.yaml")
    plan = _fig_plan()
    del _entries(plan, "variables_fixed")["W_casc_base"]
    with pytest.raises(PlanIncomplete):
        space_from_plan(config, plan, 0)


def test_plan_rejects_unknown_variable():
    config = load_config("configs/telescopic_ota.yaml")
    plan = _fig_plan()
    _entries(plan, "variables_fixed")["W_ghost"] = {"fixed_value": 1.89}
    with pytest.raises(PlanIncomplete):
        space_from_plan(config, plan, 0)


def test_plan_rejects_off_grid_value():
    config = load_config("configs/telescopic_ota.yaml")
    plan = _fig_plan()
    _entries(plan, "variables_to_optimize")["W_diff_base"]["search_space"] = [0.84, 1.0, 1.68]
    with pytest.raises(ValueOffGrid):
        space_from_plan(config, plan, 0)


def test_first_round_value_count_limits():
    config = load_config("configs/telescopic_ota.yaml")
    plan = _fig_plan()
    # below the 3-value floor
    _entries(plan, "variables_to_optimize")["W_diff_base"]["search_space"] = [0.84, 1.26]
    with pytest.raises(PlanIncomplete):
        space_from_plan(config, plan, 0)
    # a regenerated space accepts 2-value lists
    space = space_from_plan(config, plan, generation=2)
    assert space.active["W_diff_base"] == (0.84, 1.26)
    assert space.generation == 2


def test_plan_values_are_sorted_and_deduped():
    config = load_config("configs/telescopic_ota.yaml")
    plan = _fig_plan()
    _entries(plan, "variables_to_optimize")["W_diff_base"]["search_space"] = [2.52, 0.84, 1.68, 0.84]
    space = space_from_plan(config, plan, 0)
    assert space.active["W_diff_base"] == (0.84, 1.68, 2.52)
