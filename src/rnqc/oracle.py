"""Reversible oracle circuits for width-limited CNF formulas.

The oracle maps a work-register basis state |x> to the same |x> with
the oracle qubit flipped iff the formula holds at x. Construction per
clause: conjugate the positive literals' qubits with X so an all-ones
control pattern means "every literal false", flip the clause qubit
under that pattern, undo the conjugation, then flip the clause qubit
once more so it reads 1 = satisfied. A final NCNOT over all clause
qubits lands the conjunction on the oracle qubit.

build_oracle is the one place that lays out the register (variable v
on qubit v - 1, then the clause flags and the oracle qubit), and
majsat.plan extends it.

Variables introduced by the width reduction are computed, not free:
a compute stage per defined variable writes y = l_a OR l_b onto its
qubit before any clause stage runs. Clause and defined-variable qubits
are intentionally left holding their x-dependent values afterwards;
callers that need them clean must uncompute.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce
from operator import and_, or_

from .circuit import PERMUTATION_KINDS, Circuit, Gate, RegisterLayout
from .cnf import CnfFormula, ThreeCnf, clause_words, set_assignments, to_3cnf, truth_blocks
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
        return asdict(self)


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
    clauses = f3.reduced
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

    last = Gate("NCNOT", (*layout.clause, layout.oracle)) if clauses else Gate("X", (layout.oracle,))
    gates.append(last)  # with no clauses an X: the empty conjunction is true
    circuit = Circuit(qubit_count=n + a + p + 1, gates=tuple(gates), layout=layout)
    return OracleArtifact(circuit=circuit, polarity_fix=polarity_fix)


def verify_oracle(artifact: OracleArtifact, formula: CnfFormula) -> OracleCheckReport:
    """Exhaustively check an oracle circuit against direct clause evaluation.

    The circuit is a basis-state permutation, so it runs once per block of
    truth tables (cnf.truth_blocks): bit x of a qubit's table is its value
    on work input x, and a gate XORs the AND of its controls' tables into
    its target's. The oracle qubit must end holding the formula's table
    and the scratch qubits their predicted ones: work bits preserved,
    defined variables and clause flags holding their values, ancillas at
    rest. A gate outside the permutation kinds raises CircuitError.
    Memory is at most a 32 KiB table per qubit, for one block of 2^18
    inputs, up to the cap of 24 variables; the register width has no cap.
    A block's tables are dropped as the next block's are formed, so the
    allocator reuses their memory: dropped before, they went back to the
    system and were faulted in again, and a check at 24 variables took
    1.3-1.7 times as long.
    """
    f3 = to_3cnf(formula)
    n, clauses, layout = f3.original_vars, f3.reduced, artifact.circuit.layout
    if layout is None or layout.oracle is None or (
        (len(layout.work), len(layout.aux), len(layout.clause)) != (n, f3.aux_vars, len(clauses))
    ):
        raise InputError("artifact layout does not match the formula's register needs")

    ones, o = layout.initial_one_bits(), layout.oracle
    mismatches, violations, satisfying = [], [], 0
    for first, full, tables in truth_blocks(n, f3.mapping):
        expected = [full if (ones >> q) & 1 else 0 for q in range(artifact.circuit.qubit_count)]
        for v, q in enumerate(layout.work, 1):
            expected[q] = tables[v]
        state = list(expected)
        for v, q in enumerate(layout.aux, n + 1):
            expected[q] = tables[v]
        by_clause = {c: clause_words(c, tables) for c in (*clauses, *formula.clauses)}
        for q, clause in zip(layout.clause, clauses):
            expected[q] = by_clause[clause] if artifact.polarity_fix else full ^ by_clause[clause]
        expected[o] = reduce(and_, (by_clause[c] for c in formula.clauses), full)

        for g in artifact.circuit.gates:
            if g.kind not in PERMUTATION_KINDS:
                raise CircuitError(f"{g.kind} is not a basis-permutation gate")
            state[g.target] ^= reduce(and_, [state[c] for c in g.controls] or [full])
        satisfying += state[o].bit_count()
        mismatches += set_assignments(first, state[o] ^ expected[o])
        scratch = (a ^ b for q, (a, b) in enumerate(zip(state, expected)) if q != o and a != b)
        violations += set_assignments(first, reduce(or_, scratch, 0))
    return OracleCheckReport(
        ok=not mismatches and not violations,
        inputs_checked=1 << n,
        mismatches=tuple(mismatches),
        scratch_violations=tuple(violations),
        satisfying_inputs=satisfying,
    )
