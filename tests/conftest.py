import math

import numpy as np
import pytest

from jacksonsos.chebpoly import POINT_BUDGET, ChebPoly

_CRITERION_LINES = []


@pytest.fixture
def grid_budget_enforced(monkeypatch):
    """Make ChebPoly._eval_tables refuse, rather than allocate, an over-budget grid.

    Every grid evaluation, eval_grid's and the Lobatto scans', goes through
    _eval_tables, which reads one T_k table per axis array, and the budget is
    on the whole grid however it is blocked.  A caller that checks the budget
    first raises ValueError; one that does not reaches _eval_tables and fails
    the test with AssertionError.
    """
    original = ChebPoly._eval_tables

    def guarded(self, axes, cols):
        size = math.prod(a.size for a in axes)
        if size > POINT_BUDGET:
            raise AssertionError(f"_eval_tables asked for {size} points")
        return original(self, axes, cols)

    monkeypatch.setattr(ChebPoly, "_eval_tables", guarded)


@pytest.fixture
def criterion_record():
    """Recorder for acceptance criteria; lines echo in the terminal summary."""

    def record(number: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        _CRITERION_LINES.append(f"criterion {number}: {status} — {detail}")

    return record


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_CRITERION_LINES):
        terminalreporter.write_line(line)
