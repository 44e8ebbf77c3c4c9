"""Every frozen amplified state and exact corpus report still comes out.

tests/amplified_digests.json holds the sha256 of 194 amplified states and
the exact reports of the corpus (tests/freeze_amplified.py says which and
writes them). The file is only read here; a digest that differs is a
fault in the program, not in the file.
"""
from __future__ import annotations

import json

from freeze_amplified import (
    CORPUS,
    FROZEN,
    ULP_BOUND,
    corpus_reports,
    corpus_states,
    moved_states,
    random_states,
    report_moves,
    state_digest,
)
from rnqc import cnf, sim

FROZEN_FILE = json.loads(FROZEN.read_text())
STATES, REPORTS = FROZEN_FILE["states"], FROZEN_FILE["reports"]


def _frozen(random: bool) -> dict:
    return {k: v for k, v in STATES.items() if k.startswith("random/") == random}


def test_corpus_states_match_frozen_digests():
    assert len(_frozen(random=False)) == 176
    assert moved_states(_frozen(random=False), corpus_states()) == []


def test_random_states_match_frozen_digests():
    assert moved_states(_frozen(random=True), random_states()) == []


def test_exact_corpus_reports_match_frozen_reports():
    assert len(REPORTS) == 88
    moved, worst = report_moves(REPORTS, corpus_reports())
    assert moved == []
    assert worst <= ULP_BOUND, f"a probability moved by {worst:g} ulp of one half"


def test_a_2_to_the_minus_40_change_to_h_moves_a_digest(monkeypatch):
    formula = cnf.parse_dimacs(CORPUS[0].read_text())
    key = f"{CORPUS[0].stem}/semantic/default"
    assert state_digest(formula, "semantic") == STATES[key]
    monkeypatch.setattr(sim, "_INV_SQRT2", sim._INV_SQRT2 * (1 + 2.0**-40))
    assert state_digest(formula, "semantic") != STATES[key]
