"""Line audit: the statements in src/rnqc that a test run never executes.

A pytest plugin, not a test module. Load it with -p; it traces every line
the package runs and, at the end of the run, prints each statement
that never ran (path:line and its source) and their count:

    PYTHONPATH=src:tests python -m pytest -q -p line_audit

Tracing roughly doubles the run's time, so it stays out of tier-1.
Docstrings and other constant expression statements compile to nothing
and are skipped.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rnqc"
_PREFIX = str(SRC)
_hit: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    if event == "line":
        _hit.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_PREFIX) else None


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args) -> None:
    # before conftest.py imports the package, so its module-level lines count
    threading.settrace(_call)
    sys.settrace(_call)


def unreached() -> list[tuple[Path, int]]:
    """(file, line) of every statement in SRC whose first line never ran."""
    missed = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.stmt) and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                if (str(path), node.lineno) not in _hit:
                    missed.append((path, node.lineno))
    return sorted(set(missed))


def pytest_terminal_summary(terminalreporter) -> None:
    sys.settrace(None)
    threading.settrace(None)
    missed = unreached()
    terminalreporter.section("line audit")
    for path, line in missed:
        text = path.read_text().splitlines()[line - 1].strip()
        terminalreporter.write_line(f"{path.relative_to(SRC.parents[1])}:{line}: {text}")
    terminalreporter.write_line(f"{len(missed)} statements in {SRC.name} never ran")
