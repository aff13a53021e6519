"""Benchmark config parsing and deck rendering."""

import dataclasses
import re
import sys
from pathlib import Path

import pytest
import yaml

from sizerforge import config as config_module
from sizerforge.cli import main
from sizerforge.config import (
    format_value,
    load_config,
    parse_config,
    render_deck,
    render_template,
)
from sizerforge.core import assess
from sizerforge.errors import (
    BadScaleRef,
    ConfigError,
    GridTooLarge,
    MissingAssignment,
    MissingKey,
    NonMonotonicGrid,
    SpecParseError,
    TemplateUnresolvable,
    UnknownModel,
    ValueOffGrid,
)
from sizerforge.harness import parse_matrix
from sizerforge.core import parse_spec
from sizerforge.surrogates import (
    _MED_SCALES,
    _TELESCOPIC_VARS,
    ORACLE_GRID_LIMIT,
    SurrogateModel,
    enumerate_oracle,
    get_model,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
YAML_FILES = sorted(CONFIGS.glob("*.yaml")) + sorted(
    (CONFIGS.parent / "perfbench" / "configs").glob("*.yaml"))
# the pure-Python parser, and libyaml's when PyYAML is built with it
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML is built without libyaml")

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
    # the first unfilled slot is named, an escaped brace is no slot, and
    # the testbench's slots resolve to the rendered subcircuit and pins
    bad = MINIMAL.replace("l={L}\n  .ends", "l={{L}} {L_typo} {W_typo}\n  .ends")
    with pytest.raises(TemplateUnresolvable) as refused:
        parse_config(bad)
    assert refused.value.placeholder == "L_typo"
    bad = MINIMAL.replace("  .end\n", "  {W_a} {L} {W_wide} {pdk_lib_path} {sim}\n  .end\n")
    with pytest.raises(TemplateUnresolvable) as refused:
        parse_config(bad)
    assert refused.value.placeholder == "sim"


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
        ("bench", MATRIX + "trials_per_cell: true\n", "trials_per_cell"),
        ("bench", MATRIX + "trials_per_cell: 1\nseeds: [false]\n", "seeds"),
        ("bench", MATRIX + "base_seed: true\n", "base_seed"),
        ("validate", MINIMAL.replace("[1.0, 2.0, 3.0]", "[true, 2.0, 3.0]"), "W_values"),
        ("validate", MINIMAL.replace("[1.0, 2.0, 3.0]", "[1.0, wide]"), "W_values"),
        ("validate", MINIMAL.replace("[1.0, 2.0, 3.0]", "[1.0, .nan, 3.0]"), "W_values"),
        ("validate", MINIMAL.replace("[1.0, 2.0, 3.0]", "[1.0, 2.0, .inf]"), "W_values"),
        ("validate", MINIMAL.replace("L: 0.15", "L: -.inf"), "params.L"),
        ("validate", MINIMAL.replace("metrics: [gain, power]", "metrics: fom"), "metrics"),
    ],
    ids=["trials_per_cell", "fractional_trials_per_cell", "budget", "fractional_budget",
         "infinite_budget", "seeds", "boolean_trials_per_cell", "boolean_seed",
         "boolean_base_seed", "boolean_W_value", "W_values", "nan_W_value", "infinite_W_value",
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


def test_an_unregistered_surrogate_model_is_unknown():
    with pytest.raises(UnknownModel, match="no surrogate model registered as 'sota_huge'"):
        get_model("sota_huge")


def test_the_oracle_refuses_a_grid_past_its_limit_before_enumerating():
    def metrics(assignment):
        raise AssertionError("the grid was enumerated")

    # 4**10 = 1048576 points, just past the limit of 10**6
    variables = tuple(f"w{i}" for i in range(10))
    model = SurrogateModel(id="wide", variables=variables,
                           grids={v: (1.0, 2.0, 3.0, 4.0) for v in variables},
                           spec_text="fom > 1", metrics=metrics)
    assert 4**10 > ORACLE_GRID_LIMIT
    with pytest.raises(GridTooLarge, match="1048576 grid points exceeds the oracle limit"):
        enumerate_oracle(model)


def test_a_config_parses_its_spec_once_and_a_replaced_one_parses_its_own():
    config = parse_config(MINIMAL)
    assert config.spec == parse_spec("gain > 10 AND power < 5")
    metrics = {"gain": 20.0, "power": 2.0}
    assert assess(config.spec, metrics) == (5.0, True, {"gain": 2.0, "power": 0.4})
    tighter = dataclasses.replace(config, user_specs_metric="gain > 40 AND power < 5")
    assert tighter.spec is not config.spec and tighter.spec == parse_spec("gain > 40 AND power < 5")
    assert assess(tighter.spec, metrics) == (1.25, False, {"gain": 0.5, "power": 0.4})
    assert config.spec == parse_spec("gain > 10 AND power < 5")
    with pytest.raises(SpecParseError):
        dataclasses.replace(config, user_specs_metric="gain >> 10")


def test_a_config_is_frozen():
    config = parse_config(MINIMAL)
    for name, value in (("user_specs_metric", "gain > 40"), ("spec", None), ("variables", [])):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
    assert config.user_specs_metric == "gain > 10 AND power < 5"
    # the derived spec is neither an argument nor shown
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(config, spec=parse_spec("gain > 40"))
    assert "spec=" not in repr(config)


def test_unknown_keys_pass_through():
    config = parse_config(MINIMAL + "\nevaluator: surrogate\nsurrogate_model: sota_easy\n")
    assert config.passthrough["evaluator"] == "surrogate"
    assert config.passthrough["surrogate_model"] == "sota_easy"


def test_render_template_substitutes_slots_and_escapes():
    text = render_template("w={W} l={L} {{W}}", {"W": "1.68", "L": "0.15"})
    assert text == "w=1.68 l=0.15 {W}"
    with pytest.raises(TemplateUnresolvable):
        render_template("w={W} l={L}", {"W": "1.68"})


def test_format_value_shortest_form():
    assert format_value(1.68) == "1.68"
    assert format_value(1e-12) == "1e-12"
    assert format_value(2) == "2"


@needs_libyaml
def test_configs_parse_through_libyaml_when_pyyaml_has_it():
    assert config_module._YAML_LOADER is yaml.CSafeLoader


def _under_each_loader(monkeypatch, parse, source):
    """What ``parse`` makes of ``source`` under each YAML parser."""
    parsed = []
    for loader in LOADERS:
        monkeypatch.setattr(config_module, "_YAML_LOADER", loader)
        parsed.append(parse(source))
    return parsed


@needs_libyaml
@pytest.mark.parametrize("path", YAML_FILES,
                         ids=lambda p: p.relative_to(CONFIGS.parent).as_posix())
def test_both_yaml_parsers_read_every_config_alike(path, monkeypatch):
    source = path.read_text(encoding="utf-8")
    python, libyaml = (yaml.load(source, Loader=loader) for loader in LOADERS)
    assert python == libyaml
    assert repr(python) == repr(libyaml)
    python, libyaml = _under_each_loader(monkeypatch, parse_config, source)
    assert python == libyaml


@needs_libyaml
def test_both_yaml_parsers_read_a_matrix_file_alike(monkeypatch):
    source = (MATRIX + "trials_per_cell: 2\nseeds: [3, 5]\n"
              "budget: {total_evals: 60, per_inner_loop: 20}\n")
    python, libyaml = _under_each_loader(monkeypatch, parse_matrix, source)
    assert python == libyaml
    assert (python.seeds, python.budget.total_evals, python.budget.per_inner_loop) == ([3, 5], 60, 20)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("source, problem", [
    ("name: mini\nvariable:\n\tW_a: null\n", "is not well-formed: "),
    ("name: mini\nW_values: [1.0, 2.0\n", "is not well-formed: "),
    ("- a list\n- not a mapping\n", "document must be a mapping"),
], ids=["tab_indentation", "unclosed_bracket", "not_a_mapping"])
def test_malformed_yaml_is_a_config_error_under_either_parser(loader, source, problem,
                                                              monkeypatch):
    monkeypatch.setattr(config_module, "_YAML_LOADER", loader)
    for parse, what in ((parse_config, "config"), (parse_matrix, "matrix file")):
        with pytest.raises(ConfigError) as caught:
            parse(source)
        assert str(caught.value).startswith(f"{what} {problem}")


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_an_integer_literal_past_the_digit_limit_is_a_config_error(loader, monkeypatch, tmp_path,
                                                                   capsys):
    # Python refuses to read an integer of more digits than its limit; the
    # refusal names the limit and the command line reports it as an error
    monkeypatch.setattr(config_module, "_YAML_LOADER", loader)
    digits = "1" * 5000
    for command, parse, what, source in (
            ("validate", parse_config, "config", MINIMAL.replace("L: 0.15", f"L: {digits}")),
            ("bench", parse_matrix, "matrix file", MATRIX + f"trials_per_cell: {digits}\n")):
        with pytest.raises(ConfigError) as caught:
            parse(source)
        message = str(caught.value)
        assert message.startswith(f"{what} is not well-formed: ")
        assert f"({sys.get_int_max_str_digits()} digits)" in message and digits not in message
        path = tmp_path / f"{command}.yaml"
        path.write_text(source)
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
