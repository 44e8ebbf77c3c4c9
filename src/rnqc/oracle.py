"""Reversible oracle circuits for width-limited CNF formulas.

The oracle maps a work-register basis state |x> to the same |x> with
the oracle qubit flipped iff the formula holds at x. Construction per
clause: conjugate the positive literals' qubits with X so an all-ones
control pattern means "every literal false", flip the clause qubit
under that pattern, undo the conjugation, then flip the clause qubit
once more so it reads 1 = satisfied. A final NCNOT over all clause
qubits lands the conjunction on the oracle qubit.

Variable v sits on qubit v - 1, so the work register holds the input
variables in order and the defined variables follow; then come one
flag qubit per reduced clause and the oracle qubit. build_oracle is the
one place that lays this register out; majsat.plan extends it.

Variables introduced by the width reduction are computed, not free:
a compute stage per defined variable writes y = l_a OR l_b onto its
qubit before any clause stage runs. Clause and defined-variable qubits
are intentionally left holding their x-dependent values afterwards;
callers that need them clean must uncompute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

import numpy as np

from .circuit import PERMUTATION_KINDS, Circuit, Gate, RegisterLayout
from .cnf import CnfFormula, ThreeCnf, clause_table, to_3cnf, truth_tables
from .errors import CircuitError, InputError


@dataclass(frozen=True)
class OracleArtifact:
    circuit: Circuit  # its layout names the work, aux, clause and oracle qubits
    polarity_fix: bool = True


@dataclass(frozen=True)
class OracleCheckReport:
    ok: bool
    inputs_checked: int
    mismatches: tuple[int, ...]
    scratch_violations: tuple[int, ...]
    satisfying_inputs: int

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "inputs_checked": self.inputs_checked,
            "mismatches": list(self.mismatches),
            "scratch_violations": list(self.scratch_violations),
            "satisfying_inputs": self.satisfying_inputs,
        }


def reduced_clauses(f3: ThreeCnf) -> tuple[tuple[int, ...], ...]:
    """The input formula's clauses after width reduction, in input order.

    to_3cnf emits three defining clauses per mapping entry ahead of the
    reduced originals, so the originals are the tail of the clause list.
    """
    return f3.base.clauses[3 * len(f3.mapping):]


def _flip_if_all_false(lits: tuple[int, ...], target: int) -> list[Gate]:
    """Flip target when every literal is false: controls fire on 1, so
    the qubits of positive literals are conjugated with X."""
    controls = tuple(abs(lit) - 1 for lit in lits)
    flip = Gate("CCNOT" if len(controls) == 2 else "NCNOT", (*controls, target))
    conj = [Gate("X", (lit - 1,)) for lit in lits if lit > 0]
    return conj + [flip] + conj


def build_oracle(f3: ThreeCnf, polarity_fix: bool = True) -> OracleArtifact:
    """Lay out the oracle register and build its gates.

    Variable v sits on qubit v - 1: the original (work) variables, then
    the defined ones. One flag per reduced clause follows, then the
    oracle qubit. polarity_fix=False omits the per-clause X that flips
    the unsatisfied flag into a satisfied flag; the result computes the
    wrong function on purpose (negative-control testing).
    """
    clauses = reduced_clauses(f3)
    n, a, p = f3.original_vars, f3.aux_vars, len(clauses)
    layout = RegisterLayout(
        work=tuple(range(n)),
        aux=tuple(range(n, n + a)),
        clause=tuple(range(n + a, n + a + p)),
        oracle=n + a + p,
    )
    gates: list[Gate] = []
    # Compute stages: y = l_a OR l_b via De Morgan.
    for y, la, lb in f3.mapping:
        gates += _flip_if_all_false((la, lb), y - 1)
        gates.append(Gate("X", (y - 1,)))
    for cq, clause in zip(layout.clause, clauses):
        gates += _flip_if_all_false(clause, cq)
        if polarity_fix:
            gates.append(Gate("X", (cq,)))

    if clauses:
        gates.append(Gate("NCNOT", (*layout.clause, layout.oracle)))
    else:
        # Empty conjunction is true on every input.
        gates.append(Gate("X", (layout.oracle,)))
    circuit = Circuit(qubit_count=n + a + p + 1, gates=tuple(gates), layout=layout)
    return OracleArtifact(circuit=circuit, polarity_fix=polarity_fix)


def _set_bits(table: int, n: int) -> tuple[int, ...]:
    """Indices of the set bits of a 2^n-bit table, ascending."""
    if not table:
        return ()
    raw = np.frombuffer(table.to_bytes(((1 << n) + 7) // 8, "little"), dtype=np.uint8)
    return tuple(np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist())


def verify_oracle(artifact: OracleArtifact, formula: CnfFormula) -> OracleCheckReport:
    """Exhaustively check an oracle circuit against direct clause evaluation.

    The circuit is a basis-state permutation, so it runs once on bitset
    truth tables (cnf.truth_tables): bit x of a qubit's table is its value
    on work input x, and a gate XORs the AND of its controls' tables into
    its target's. The oracle qubit must end holding the formula's table,
    and the scratch registers their predicted ones: work bits preserved,
    defined variables and clause flags holding their values, chain
    ancillas back at 0, constant qubits still 1. Lowered artifacts stay
    within permutation gates; any other gate raises CircuitError. Memory
    is one table per qubit, 2 MiB at the cap of n = 24 variables; the
    register width has no cap.
    """
    f3 = to_3cnf(formula)
    n = f3.original_vars
    full, tables = truth_tables(n)
    layout = artifact.circuit.layout
    clauses = reduced_clauses(f3)
    if (
        layout is None
        or len(layout.work) != n
        or len(layout.aux) != f3.aux_vars
        or len(layout.clause) != len(clauses)
        or layout.oracle is None
    ):
        raise InputError("artifact layout does not match the formula's register needs")

    for _, la, lb in f3.mapping:  # y = la OR lb, in dependency order
        tables.append(clause_table((la, lb), full, tables))
    ones = layout.initial_one_bits()
    state = [full if (ones >> q) & 1 else 0 for q in range(artifact.circuit.qubit_count)]
    for q, t in zip(layout.work, tables):
        state[q] = t
    expected = list(state)
    for q, t in zip(layout.aux, tables[n:]):
        expected[q] = t
    for q, clause in zip(layout.clause, clauses):
        t = clause_table(clause, full, tables)
        expected[q] = t if artifact.polarity_fix else full & ~t
    o = layout.oracle
    expected[o] = reduce(and_, (clause_table(c, full, tables) for c in formula.clauses), full)

    for g in artifact.circuit.gates:
        if g.kind not in PERMUTATION_KINDS:
            raise CircuitError(f"{g.kind} is not a basis-permutation gate")
        state[g.target] ^= reduce(and_, (state[c] for c in g.controls), full)

    mismatches = _set_bits(state[o] ^ expected[o], n)
    scratch = reduce(or_, (a ^ b for q, (a, b) in enumerate(zip(state, expected)) if q != o), 0)
    violations = _set_bits(scratch, n)
    return OracleCheckReport(
        ok=not mismatches and not violations,
        inputs_checked=1 << n,
        mismatches=mismatches,
        scratch_violations=violations,
        satisfying_inputs=state[o].bit_count(),
    )
