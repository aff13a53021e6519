"""Diagnostics on the synthetic stagnating run of conftest."""

from pathlib import Path

from sizerforge.diagnostics import analyze, render_text

GOLDEN_REPORT = Path(__file__).resolve().parent / "data" / "stagnation_report.txt"


def test_render_text_matches_the_golden_report(stagnation_state):
    history, space = stagnation_state
    assert render_text(analyze(history, space)) == GOLDEN_REPORT.read_text()
