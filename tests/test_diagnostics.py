"""Diagnostics on the synthetic stagnating run of conftest."""

from pathlib import Path

import pytest

from sizerforge.core import History
from sizerforge.diagnostics import analyze, render_text
from sizerforge.errors import EmptyHistory

GOLDEN_REPORT = Path(__file__).resolve().parent / "data" / "stagnation_report.txt"


def test_render_text_matches_the_golden_report(stagnation_state):
    history, space = stagnation_state
    assert render_text(analyze(history, space)) == GOLDEN_REPORT.read_text()


def test_an_empty_history_has_nothing_to_analyze(stagnation_state):
    _, space = stagnation_state
    with pytest.raises(EmptyHistory, match="no iteration summaries"):
        analyze(History(), space)
