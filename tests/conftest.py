"""Shared fixtures: the frozen DIMACS corpus shipped under tests/corpus,
and plain references the tests import from here."""
from __future__ import annotations

import pathlib

import numpy as np
import pytest

from rnqc import cnf, sim

CORPUS_DIR = pathlib.Path(__file__).resolve().parent / "corpus"


def load_corpus(max_vars: int | None = None) -> list[tuple[str, cnf.CnfFormula]]:
    """All corpus formulas as (name, formula) pairs, sorted by file name."""
    out = []
    for path in sorted(CORPUS_DIR.glob("*.cnf")):
        formula = cnf.parse_dimacs(path.read_text())
        if max_vars is None or formula.num_vars <= max_vars:
            out.append((path.stem, formula))
    return out


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def corpus_mid():
    """Instances with at most 6 variables (the fidelity/oracle sweeps)."""
    return load_corpus(max_vars=6)


@pytest.fixture(scope="session")
def corpus_small():
    """Instances with at most 5 variables (the sampling sweeps)."""
    return load_corpus(max_vars=5)


# ---------------------------------------------------------------------------
# references: assignments as bitmasks, bit v - 1 holding variable v
# ---------------------------------------------------------------------------


def eval_literal(lit: int, assignment: int) -> bool:
    return (lit > 0) == bool((assignment >> (abs(lit) - 1)) & 1)


def eval_clause(clause: tuple[int, ...], assignment: int) -> bool:
    return any(eval_literal(lit, assignment) for lit in clause)


def eval_formula(formula: cnf.CnfFormula, assignment: int) -> bool:
    return all(eval_clause(c, assignment) for c in formula.clauses)


def extend_assignment(f3: cnf.ThreeCnf, assignment: int) -> int:
    """Fill in the defined variables for an original-variable assignment."""
    full = assignment
    for y, la, lb in f3.mapping:
        if eval_literal(la, full) or eval_literal(lb, full):
            full |= 1 << (y - 1)
    return full


def qubit_state_fidelity(state: sim.StateVector, qubit: int, c0, c1) -> float:
    """Fidelity between one qubit's reduced state and a pure target:
    sim.pure_fidelity of the conjugate of the qubit's one-qubit gram."""
    return sim.pure_fidelity(np.conj(sim.gram(state, [qubit])[0]), c0, c1)
