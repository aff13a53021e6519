"""Benchmark config parsing and deck rendering."""

import re
from pathlib import Path

import pytest

from sizerforge.cli import main
from sizerforge.config import (
    extract_placeholders,
    format_value,
    load_config,
    parse_config,
    render_deck,
    render_template,
)
from sizerforge.errors import (
    BadScaleRef,
    ConfigError,
    MissingAssignment,
    MissingKey,
    NonMonotonicGrid,
    SpecParseError,
    TemplateUnresolvable,
    ValueOffGrid,
)
from sizerforge.harness import parse_matrix
from sizerforge.surrogates import _MED_SCALES, _TELESCOPIC_VARS, get_model

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """
name: mini
user_specs_metric: "gain > 10 AND power < 5"
variable:
  W_a: null
  W_b: null
W_values: [1.0, 2.0, 3.0]
subckt_name: MINI
subckt_pins: [IN, OUT, VDD, "0"]
metrics: [gain, power]
params:
  L: 0.15
width_scales:
  W_wide: [W_a, 4]
ota_subckt_template: |
  .subckt MINI IN OUT VDD 0
  xm1 OUT IN VDD VDD pfet w={W_wide} l={L}
  xm2 OUT IN 0 0 nfet w={W_b} l={L}
  .ends MINI
testbench_template: |
  {ota_subckt}
  XDUT {inst_pins} {subckt_name}
  .end
"""


@pytest.fixture
def bench():
    return load_config(str(CONFIGS / "telescopic_ota.yaml"))


def test_bench_config_loads(bench):
    assert bench.name == "telescopic_ota"
    assert bench.variables == ["W_tail_base", "W_diff_base", "W_casc_base", "W_load_base"]
    assert bench.w_values == [0.84, 1.05, 1.26, 1.47, 1.68, 1.89, 2.10, 2.31, 2.52]
    assert bench.full_grid_cardinality() == 6561
    assert bench.subckt_name == "TELESCOPIC_OTA"
    assert len(bench.subckt_pins) == 10
    assert bench.params["vdd"] == 1.8
    assert bench.params["cload"] == 1e-12
    assert bench.width_scales["W_diff"] == ("W_diff_base", 4.0)
    assert bench.metrics == ["dc_gain_db", "ugbw", "power_dc", "fom"]


def test_grid_is_shared_across_variables(bench):
    for var in bench.variables:
        assert bench.grid_for(var) == bench.w_values


def test_render_deck_derived_widths(bench):
    assignment = {v: 0.84 for v in bench.variables}
    deck = render_deck(bench, assignment)
    # scale multipliers: tail x2, diff x4, casc x2, load x2
    assert "w=1.68" in deck.netlist_text  # tail
    assert "w=3.36" in deck.netlist_text  # diff


def test_render_deck_no_float_tails(bench):
    # 2.10 * 4 must render as 8.4, not 8.400000000000001
    deck = render_deck(bench, {v: 2.10 for v in bench.variables})
    assert "w=8.4 " in deck.netlist_text  # diff
    assert "8.400000000000001" not in deck.testbench_text


def test_render_deck_no_unresolved_placeholders(bench):
    import re

    deck = render_deck(bench, {v: 1.26 for v in bench.variables})
    assert not re.search(r"\{[A-Za-z_][A-Za-z0-9_]*\}", deck.testbench_text)
    assert deck.testbench_text.count(bench.subckt_name) >= 2  # definition + instance


def test_render_deck_embeds_subckt_and_pins(bench):
    deck = render_deck(bench, {v: 1.26 for v in bench.variables})
    assert ".subckt TELESCOPIC_OTA" in deck.testbench_text
    assert "XOTA " + " ".join(bench.subckt_pins) in deck.testbench_text


def test_render_deck_is_pure(bench):
    assignment = {v: 1.47 for v in bench.variables}
    a = render_deck(bench, assignment)
    b = render_deck(bench, assignment)
    assert a == b


def test_render_deck_keeps_an_escaped_slot_literal():
    # {{vdd}} is the escape for a literal "{vdd}" in the deck, not a slot
    source = (CONFIGS / "telescopic_ota.yaml").read_text()
    assert "VDD VDD 0 DC {vdd}\n" in source
    config = parse_config(source.replace("VDD VDD 0 DC {vdd}\n", "VDD VDD 0 DC {{vdd}}\n"))
    deck = render_deck(config, {v: 1.26 for v in config.variables})
    assert "VDD VDD 0 DC {vdd}\n" in deck.testbench_text
    assert "VDD VDD 0 DC 1.8\n" not in deck.testbench_text


def test_render_deck_missing_assignment(bench):
    with pytest.raises(MissingAssignment):
        render_deck(bench, {"W_tail_base": 0.84})


def test_render_deck_off_grid_value(bench):
    assignment = {v: 0.84 for v in bench.variables}
    assignment["W_diff_base"] = 0.9
    with pytest.raises(ValueOffGrid):
        render_deck(bench, assignment)


def test_missing_required_key():
    bad = MINIMAL.replace("subckt_name: MINI\n", "")
    with pytest.raises(MissingKey):
        parse_config(bad)


def test_bad_scale_reference():
    bad = MINIMAL.replace("[W_a, 4]", "[W_missing, 4]")
    with pytest.raises(BadScaleRef):
        parse_config(bad)


def test_non_monotonic_grid_rejected():
    bad = MINIMAL.replace("[1.0, 2.0, 3.0]", "[1.0, 3.0, 2.0]")
    with pytest.raises(NonMonotonicGrid):
        parse_config(bad)
    dupes = MINIMAL.replace("[1.0, 2.0, 3.0]", "[1.0, 2.0, 2.0]")
    with pytest.raises(NonMonotonicGrid):
        parse_config(dupes)


def test_bad_spec_text_rejected_at_parse_time():
    bad = MINIMAL.replace('"gain > 10 AND power < 5"', '"gain >> 10"')
    with pytest.raises(SpecParseError):
        parse_config(bad)


def test_unresolvable_template_placeholder():
    bad = MINIMAL.replace("w={W_b}", "w={W_typo}")
    with pytest.raises(TemplateUnresolvable):
        parse_config(bad)


def test_variable_block_must_be_null_valued():
    bad = MINIMAL.replace("W_a: null", "W_a: 1.0")
    with pytest.raises(ConfigError):
        parse_config(bad)


MATRIX = "circuits: [c.yaml]\nmethods: [lhs]\n"


@pytest.mark.parametrize(
    "command, source, key",
    [
        ("bench", MATRIX + "trials_per_cell: three\n", "trials_per_cell"),
        ("bench", MATRIX + "trials_per_cell: 2.9\n", "trials_per_cell"),
        ("bench", MATRIX + "budget: {total_evals: lots}\n", "budget.total_evals"),
        ("bench", MATRIX + "budget: {total_evals: 150.7}\n", "budget.total_evals"),
        ("bench", MATRIX + "budget: {total_evals: .inf}\n", "budget.total_evals"),
        ("bench", MATRIX + "seeds: 5\n", "seeds"),
        ("validate", MINIMAL.replace("[1.0, 2.0, 3.0]", "[1.0, wide]"), "W_values"),
        ("validate", MINIMAL.replace("[1.0, 2.0, 3.0]", "[1.0, .nan, 3.0]"), "W_values"),
        ("validate", MINIMAL.replace("[1.0, 2.0, 3.0]", "[1.0, 2.0, .inf]"), "W_values"),
        ("validate", MINIMAL.replace("L: 0.15", "L: -.inf"), "params.L"),
        ("validate", MINIMAL.replace("metrics: [gain, power]", "metrics: fom"), "metrics"),
    ],
    ids=["trials_per_cell", "fractional_trials_per_cell", "budget", "fractional_budget",
         "infinite_budget", "seeds", "W_values", "nan_W_value", "infinite_W_value",
         "infinite_param", "metrics"],
)
def test_malformed_values_are_config_errors_naming_the_key(command, source, key, tmp_path,
                                                           capsys):
    parse = parse_matrix if command == "bench" else parse_config
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        parse(source)
    path = tmp_path / "doc.yaml"
    path.write_text(source)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key!r} must be ")


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("sota_*.yaml")), ids=lambda p: p.stem)
def test_the_surrogate_registry_agrees_with_its_config(path):
    # the oracle reads the registry's copy of what runs read in the config
    config = load_config(str(path))
    model = get_model(config.passthrough["surrogate_model"])
    assert list(model.variables) == config.variables
    assert all(list(model.grids[v]) == config.grid_for(v) for v in config.variables)
    assert model.spec_text == config.user_specs_metric
    scales = dict(config.width_scales.values())
    assert scales == (_MED_SCALES if model.variables == _TELESCOPIC_VARS else {})


def test_unknown_keys_pass_through():
    config = parse_config(MINIMAL + "\nevaluator: surrogate\nsurrogate_model: sota_easy\n")
    assert config.passthrough["evaluator"] == "surrogate"
    assert config.passthrough["surrogate_model"] == "sota_easy"


def test_extract_placeholders_order_and_dedupe():
    names = extract_placeholders("{a} {b} {a} {c}")
    assert names == ["a", "b", "c"]


def test_render_template_substitutes_slots_and_escapes():
    text = render_template("w={W} l={L} {{W}}", {"W": "1.68", "L": "0.15"})
    assert text == "w=1.68 l=0.15 {W}"
    with pytest.raises(TemplateUnresolvable):
        render_template("w={W} l={L}", {"W": "1.68"})


def test_format_value_shortest_form():
    assert format_value(1.68) == "1.68"
    assert format_value(1e-12) == "1e-12"
    assert format_value(2) == "2"
