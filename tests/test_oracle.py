"""Oracle synthesis: exhaustive truth-table agreement and scratch hygiene."""
from __future__ import annotations

import dataclasses
import random

import pytest

from conftest import eval_clause, eval_formula, extend_assignment, table_oracle_report
from rnqc import cnf, oracle, sim
from rnqc.circuit import Circuit, Gate, gate_census, lower_to_primitive, propagate_basis
from rnqc.errors import CircuitError, ResourceError


def _artifact(num_vars, clauses, polarity_fix=True):
    formula = cnf.CnfFormula(num_vars=num_vars, clauses=tuple(tuple(c) for c in clauses))
    return formula, oracle.build_oracle(cnf.to_3cnf(formula), polarity_fix=polarity_fix)


def _oracle_bit(artifact, x):
    layout = artifact.circuit.layout
    start = layout.initial_one_bits()
    for v, q in enumerate(layout.work):
        if (x >> v) & 1:
            start |= 1 << q
    final = propagate_basis(artifact.circuit.gates, start)
    return (final >> layout.oracle) & 1


# ---------------------------------------------------------------------------
# construction shape
# ---------------------------------------------------------------------------


def test_oracle_structure_single_mixed_clause():
    # (-x1 v x2 v x3): positive literals get the X conjugation.
    _, art = _artifact(3, [[-1, 2, 3]])
    gates = art.circuit.gates
    flip = next(g for g in gates if g.kind == "NCNOT" and len(g.controls) == 3)
    assert flip.controls == (0, 1, 2)
    assert flip.target == art.circuit.layout.clause[0]
    pos = gates.index(flip)
    before = {g.qubits[0] for g in gates[:pos] if g.kind == "X"}
    assert before == {1, 2}, "conjugation hits the non-negated variables"
    assert gates[pos + 3] == Gate("X", (art.circuit.layout.clause[0],)), "polarity fix"


def test_oracle_register_roles():
    formula, art = _artifact(3, [[1, 2], [-2, 3]])
    lay = art.circuit.layout
    assert len(lay.work) == 3
    assert len(lay.clause) == 2
    assert lay.oracle == art.circuit.qubit_count - 1
    # work qubits are controls only, never targets
    for g in art.circuit.gates:
        if g.kind in ("CCNOT", "NCNOT", "CNOT"):
            assert g.target not in lay.work


def test_oracle_wide_clause_goes_through_conversion():
    formula, art = _artifact(4, [[1, 2, 3, 4]])
    assert len(art.circuit.layout.aux) == 1
    report = oracle.verify_oracle(art, formula)
    assert report.ok


# ---------------------------------------------------------------------------
# semantics
# ---------------------------------------------------------------------------


def test_oracle_exhaustive_n3():
    formula, art = _artifact(3, [[-1, 2, 3], [1, -3]])
    for x in range(8):
        assert _oracle_bit(art, x) == eval_formula(formula, x), f"input {x:03b}"


def test_oracle_conjunction_examples():
    _, art = _artifact(2, [[1], [2]])
    assert _oracle_bit(art, 0b11) == 1
    assert _oracle_bit(art, 0b01) == 0  # x1=1, x2=0


def test_oracle_zero_clauses_flips_every_input():
    formula, art = _artifact(2, [])
    for x in range(4):
        assert _oracle_bit(art, x) == 1


def test_oracle_simulated_agrees_with_propagation():
    # the same circuit through the dense simulator, as an independent route
    formula, art = _artifact(3, [[1, 2]])
    for x in range(8):
        state = sim.new_state(art.circuit.qubit_count, x)
        sim.apply_circuit(state, art.circuit)
        final = int(sim.amplitudes(state).argmax())
        assert (final >> art.circuit.layout.oracle) & 1 == eval_formula(formula, x)


# ---------------------------------------------------------------------------
# verify_oracle
# ---------------------------------------------------------------------------


def test_verify_oracle_passes_and_counts(corpus_mid):
    name, formula = corpus_mid[0]
    art = oracle.build_oracle(cnf.to_3cnf(formula))
    report = oracle.verify_oracle(art, formula)
    assert report.ok
    assert report.mismatches == ()
    assert report.scratch_violations == ()
    assert report.inputs_checked == 1 << formula.num_vars
    assert report.satisfying_inputs == cnf.count_models(formula)


def test_verify_oracle_flags_broken_polarity_conjunction():
    formula, art = _artifact(3, [[1], [2]], polarity_fix=False)
    report = oracle.verify_oracle(art, formula)
    assert not report.ok
    # without the fix the final stage fires on all-clauses-false
    assert len(report.mismatches) == 4


def test_verify_oracle_flags_broken_polarity_single_clause():
    formula, art = _artifact(3, [[1, 2]], polarity_fix=False)
    report = oracle.verify_oracle(art, formula)
    assert not report.ok
    assert len(report.mismatches) == 8, "single broken clause computes the negation"


def test_verify_oracle_accepts_lowered_artifact():
    formula, art = _artifact(3, [[1, 2], [-1, 3]])
    lowered = lower_to_primitive(art.circuit)
    assert gate_census(lowered).is_primitive
    relabeled = dataclasses.replace(art, circuit=lowered)
    report = oracle.verify_oracle(relabeled, formula)
    assert report.ok, f"mismatches {report.mismatches}, scratch {report.scratch_violations}"


def test_verify_oracle_report_json_shape():
    formula, art = _artifact(2, [[1]])
    payload = oracle.verify_oracle(art, formula).to_json_dict()
    assert set(payload) == {
        "ok",
        "inputs_checked",
        "mismatches",
        "scratch_violations",
        "satisfying_inputs",
    }


def test_verify_oracle_register_cap():
    # 50 qubits, past the dense simulator's cap: the truth-table check has
    # no register cap, only the variable cap it shares with count_models
    clauses = [[v, -(v % 20 + 1)] for v in range(1, 21)] + [[v] for v in range(1, 10)]
    formula = cnf.CnfFormula(num_vars=20, clauses=tuple(tuple(c) for c in clauses))
    art = oracle.build_oracle(cnf.to_3cnf(formula))
    assert art.circuit.qubit_count > sim.max_qubits()
    report = oracle.verify_oracle(art, formula)
    assert report.ok
    assert report.satisfying_inputs == cnf.count_models(formula)

    wide = cnf.CnfFormula(num_vars=cnf.COUNT_VAR_LIMIT + 1, clauses=((1,),))
    with pytest.raises(ResourceError):
        oracle.verify_oracle(oracle.build_oracle(cnf.to_3cnf(wide)), wide)


def test_verify_oracle_rejects_non_permutation_gate():
    formula, art = _artifact(2, [[1, 2]])
    c = art.circuit
    with_h = Circuit(c.qubit_count, (Gate("H", (0,)), *c.gates), layout=c.layout)
    with pytest.raises(CircuitError):
        oracle.verify_oracle(dataclasses.replace(art, circuit=with_h), formula)


def _reference_report(artifact, formula):
    """The per-input check verify_oracle replaced: one propagate_basis
    run and one evaluation of every clause per work input."""
    f3 = cnf.to_3cnf(formula)
    n = f3.original_vars
    layout = artifact.circuit.layout
    clauses = oracle.reduced_clauses(f3)
    ones = layout.initial_one_bits()
    oracle_mask = 1 << layout.oracle
    mismatches, scratch, satisfying = [], [], 0
    for x in range(1 << n):
        start = ones
        for v in range(n):
            if (x >> v) & 1:
                start |= 1 << layout.work[v]
        final = propagate_basis(artifact.circuit.gates, start)
        satisfying += (final >> layout.oracle) & 1

        expected = start
        full = extend_assignment(f3, x)
        for j in range(f3.aux_vars):
            if (full >> (n + j)) & 1:
                expected |= 1 << layout.aux[j]
        for m, clause in enumerate(clauses):
            if eval_clause(clause, full) == artifact.polarity_fix:
                expected |= 1 << layout.clause[m]
        if bool(final & oracle_mask) != eval_formula(formula, x):
            mismatches.append(x)
        if (final & ~oracle_mask) != (expected & ~oracle_mask):
            scratch.append(x)
    return oracle.OracleCheckReport(
        ok=not mismatches and not scratch,
        inputs_checked=1 << n,
        mismatches=tuple(mismatches),
        scratch_violations=tuple(scratch),
        satisfying_inputs=satisfying,
    )


def _random_formula(rnd):
    n = rnd.randint(1, 6)
    clauses = []
    for _ in range(rnd.randint(0, 5)):
        picked = rnd.sample(range(1, n + 1), rnd.randint(1, n))
        clauses.append(tuple(v if rnd.random() < 0.5 else -v for v in picked))
    return cnf.CnfFormula(num_vars=n, clauses=tuple(clauses))


def test_verify_oracle_matches_per_input_reference():
    rnd = random.Random(2026)
    failing = 0
    for _ in range(40):
        formula = _random_formula(rnd)
        for polarity_fix in (True, False):
            art = oracle.build_oracle(cnf.to_3cnf(formula), polarity_fix=polarity_fix)
            lowered = lower_to_primitive(art.circuit)
            variants = [art, dataclasses.replace(art, circuit=lowered)]
            # a stray permutation gate breaks scratch hygiene on some inputs
            gates = list(art.circuit.gates)
            qubits = rnd.sample(range(art.circuit.qubit_count), min(3, art.circuit.qubit_count))
            kind = {1: "X", 2: "CNOT", 3: "CCNOT"}[len(qubits)]
            gates.insert(rnd.randint(0, len(gates)), Gate(kind, tuple(qubits)))
            stray = Circuit(art.circuit.qubit_count, tuple(gates), layout=art.circuit.layout)
            variants.append(dataclasses.replace(art, circuit=stray))
            for variant in variants:
                report = oracle.verify_oracle(variant, formula)
                assert report == _reference_report(variant, formula), formula
                failing += not report.ok
    assert failing > 40


def test_verify_oracle_across_blocks_matches_table_reference():
    # n = 21 is two blocks of 2^20 inputs. The stray CCNOT runs while the
    # qubit of y23 = (x1 v x2) v x3 still holds NOT y23, so it flips x7 on
    # the 2^17 inputs with x1 = x2 = x3 = 0 and x6 = 1: each is a scratch
    # violation, and the oracle then reads (x7 v x21)(-x7 v x8) at the
    # flipped x7, wrong where x4 v x5 and x8 differs from x21.
    formula = cnf.CnfFormula(num_vars=21, clauses=((1, 2, 3, 4, 5), (7, 21), (-7, 8)))
    art = oracle.build_oracle(cnf.to_3cnf(formula))
    y = art.circuit.layout.aux[-1]
    gates = list(art.circuit.gates)
    gates.insert(gates.index(Gate("X", (y,))), Gate("CCNOT", (y, 5, 6)))
    stray = dataclasses.replace(art, circuit=dataclasses.replace(art.circuit, gates=tuple(gates)))
    for variant in (art, stray):
        assert oracle.verify_oracle(variant, formula) == table_oracle_report(variant, formula)
    report = oracle.verify_oracle(stray, formula)
    assert len(report.scratch_violations) == 1 << 17
    assert len(report.mismatches) == 3 << 14
    for found in (report.mismatches, report.scratch_violations):
        assert found[0] < 1 << 20 <= found[-1], "both blocks"
        assert list(found) == sorted(set(found))


# ---------------------------------------------------------------------------
# double application
# ---------------------------------------------------------------------------


def test_double_application_restores_scratch():
    # Clause toggles cancel: work unchanged, clause flags and ancillas back
    # at rest, the oracle bit left holding f(x) from the first pass.
    formula, art = _artifact(3, [[1, 2], [-2, 3]])
    lay = art.circuit.layout
    clause_mask = sum(1 << q for q in lay.clause)
    for x in range(8):
        start = 0
        for v, q in enumerate(lay.work):
            if (x >> v) & 1:
                start |= 1 << q
        once = propagate_basis(art.circuit.gates, start)
        twice = propagate_basis(art.circuit.gates, once)
        assert twice & clause_mask == 0, "clause double-toggle must cancel"
        work_mask = sum(1 << q for q in lay.work)
        assert twice & work_mask == start & work_mask
        assert (twice >> lay.oracle) & 1 == eval_formula(formula, x)


# ---------------------------------------------------------------------------
# corpus sweep (small slice; the full corpus is the acceptance gate)
# ---------------------------------------------------------------------------


def test_corpus_slice_exactness(corpus_small):
    for name, formula in corpus_small[:6]:
        art = oracle.build_oracle(cnf.to_3cnf(formula))
        report = oracle.verify_oracle(art, formula)
        assert report.ok, f"{name}: mismatches {report.mismatches}"
