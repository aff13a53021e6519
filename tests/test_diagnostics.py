"""Diagnostics on the synthetic stagnating run of conftest."""

from pathlib import Path

from sizerforge.core import History
from sizerforge.diagnostics import analyze, render_text
from sizerforge.errors import SizerForgeError

from conftest import raises_exactly

GOLDEN_REPORT = Path(__file__).resolve().parent / "data" / "stagnation_report.txt"


def test_render_text_matches_the_golden_report(stagnation_state):
    history, space = stagnation_state
    assert render_text(analyze(history, space)) == GOLDEN_REPORT.read_text()


def test_an_empty_history_has_nothing_to_analyze(stagnation_state):
    _, space = stagnation_state
    with raises_exactly(SizerForgeError, "no iteration summaries to analyze"):
        analyze(History(), space)


def test_a_history_without_a_valid_design_renders_as_such(failed_state):
    history, space = failed_state
    text = render_text(analyze(history, space))
    assert ("2 iterations completed with 3 designs evaluated. Methods used: lhs (3 designs). "
            "No valid design found yet.\n") in text
    assert ("Top design clustering: W_tail: no valid designs. W_diff: no valid designs. "
            "W_casc: no valid designs. W_load: no valid designs.\n") in text
