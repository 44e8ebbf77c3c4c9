"""Shared fixtures: the frozen DIMACS corpus shipped under tests/corpus,
and plain references the tests import from here."""
from __future__ import annotations

import math
import pathlib
from functools import reduce
from itertools import groupby
from operator import and_, or_

import numpy as np
import pytest

from rnqc import cnf, oracle, pathsum, sim
from rnqc.circuit import DIAGONAL_KINDS, PARAM_LOG2_CAP, PERMUTATION_KINDS, Circuit, Gate, diagonal_factors
from rnqc.errors import InputError, PathBudgetError

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


# ---------------------------------------------------------------------------
# large-n references: one 2^n-bit Python integer per truth table, bit x
# standing for assignment x (the tables cnf used before its block engine)
# ---------------------------------------------------------------------------


def truth_tables(n: int) -> tuple[int, list[int]]:
    """(full, tables): full has all 2^n bits set, and bit x of tables[v]
    is variable v + 1 in assignment x."""
    total = 1 << n
    tables: list[int] = []
    for v in range(n):
        block = 1 << v
        m = ((1 << block) - 1) << block  # ones where bit v of the index is set
        span = block << 1
        while span < total:
            m |= m << span
            span <<= 1
        tables.append(m)
    return (1 << total) - 1, tables


def clause_table(clause: tuple[int, ...], full: int, tables: list[int]) -> int:
    """Truth table of a clause: the OR of its literals' tables."""
    t = 0
    for lit in clause:
        vt = tables[abs(lit) - 1]
        t |= vt if lit > 0 else full & ~vt
    return t


def table_count(formula: cnf.CnfFormula) -> int:
    """Model count: the popcount of the AND of the clause tables."""
    full, tables = truth_tables(formula.num_vars)
    return reduce(and_, (clause_table(c, full, tables) for c in formula.clauses), full).bit_count()


def _set_bits(table: int, n: int) -> tuple[int, ...]:
    """Indices of the set bits of a 2^n-bit table, ascending."""
    if not table:
        return ()
    raw = np.frombuffer(table.to_bytes(((1 << n) + 7) // 8, "little"), dtype=np.uint8)
    return tuple(np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist())


def table_oracle_report(artifact: oracle.OracleArtifact, formula: cnf.CnfFormula) -> oracle.OracleCheckReport:
    """oracle.verify_oracle over whole-table integers: one table per qubit,
    each gate XORing the AND of its controls' tables into its target's."""
    f3 = cnf.to_3cnf(formula)
    n = f3.original_vars
    full, tables = truth_tables(n)
    layout = artifact.circuit.layout
    clauses = oracle.reduced_clauses(f3)
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
        state[g.target] ^= reduce(and_, (state[c] for c in g.controls), full)

    mismatches = _set_bits(state[o] ^ expected[o], n)
    scratch = reduce(or_, (a ^ b for q, (a, b) in enumerate(zip(state, expected)) if q != o), 0)
    violations = _set_bits(scratch, n)
    return oracle.OracleCheckReport(
        ok=not mismatches and not violations,
        inputs_checked=1 << n,
        mismatches=mismatches,
        scratch_violations=violations,
        satisfying_inputs=state[o].bit_count(),
    )


# ---------------------------------------------------------------------------
# path-sum references: the Python DFS and pair loop that pathsum's frontier
# walk and batched counts replaced
# ---------------------------------------------------------------------------


def transitions(gate: Gate):
    """The gate as a function from basis state z to its nonzero
    matrix-element transitions, a list of (next_z, factor) pairs."""
    bit = 1 << gate.target
    on = sum(1 << c for c in gate.controls)
    if gate.kind == "H":
        root = 1.0 / math.sqrt(2.0)
        return lambda z: [(z & ~bit, root), (z | bit, -root if z & bit else root)]
    if gate.kind in PERMUTATION_KINDS:
        return lambda z: [(z ^ bit if z & on == on else z, 1.0)]
    d0, d1 = diagonal_factors(gate)
    return lambda z: [(z, (d1 if z & bit else d0) if z & on == on else 1.0)]


def forward_paths(circuit: Circuit, input_basis: int, budget: int) -> dict:
    """DFS over contributing forward paths: endpoint -> list of path values,
    endpoints ascending, each list in lexicographic order of the trails."""
    if budget < 1:
        raise InputError(f"path budget must be at least 1, got {budget}")
    fwd_cap = math.isqrt(budget)
    endpoints: dict = {}
    materialized = 0
    stack = [(0, input_basis, 1.0 + 0.0j)]
    steps = [transitions(g) for g in circuit.gates]
    while stack:
        depth, z, value = stack.pop()
        if depth == len(steps):
            materialized += 1
            if materialized > fwd_cap:
                raise PathBudgetError(f"forward path count exceeds budget {budget}")
            endpoints.setdefault(z, []).append(value)
            continue
        for nz, factor in reversed(steps[depth](z)):
            nv = value * factor
            if nv != 0:
                stack.append((depth + 1, nz, nv))
    return {z: endpoints[z] for z in sorted(endpoints)}


def frontier_paths(circuit: Circuit, input_basis: int, budget: int = 10**8) -> dict:
    """pathsum._forward_paths in forward_paths's form."""
    ends, groups = pathsum._forward_paths(circuit, input_basis, budget)
    ends, out = ends.tolist(), {}
    for rows, re, im in groups:
        for row, r, i in zip(rows.tolist(), re.tolist(), im.tolist()):
            out[ends[row]] = [complex(a, b) for a, b in zip(r, i)]
    return {z: out[z] for z in ends}


def grid_count(magnitude: float, nc: int) -> int:
    """floor(magnitude / 2^-nc) clamped to the grid's 2^(2nc) + 1 points,
    from the float's exact num / den."""
    num, den = magnitude.as_integer_ratio()
    return min((num << nc) // den, (1 << (2 * nc)) + 1)


def count_bucket(values, nc: int):
    """(positive_count, negative_count, imaginary_residue) over all path
    pairs of one endpoint, one pair at a time."""
    pos = neg = 0
    im = 0.0
    for a in values:
        for b in values:
            prod = a * b.conjugate()
            re = prod.real
            if re > 0:
                pos += grid_count(re, nc)
            elif re < 0:
                neg += grid_count(-re, nc)
            im += prod.imag
    return pos, neg, im


# ---------------------------------------------------------------------------
# fused-block references: the gate-at-a-time basis trace that sim's
# bit-plane trace replaced, and the blocks the caps cut
# ---------------------------------------------------------------------------


def trace_basis(gates, qubits):
    """Run every local basis state through the gates, one gate at a time;
    bit j of a local index is qubits[j].

    Yields (dest, w, e) after each gate: local basis state x has moved to
    dest[x] and picked up the factor w[x] * 2^e[x], multiplied in gate
    order. w is renormalized to a mantissa after every diagonal gate.
    """
    pos = {q: j for j, q in enumerate(qubits)}
    dest = np.arange(1 << len(pos))
    w = np.ones(1 << len(pos))
    e = np.zeros(1 << len(pos), dtype=np.int64)
    for g in gates:
        target = 1 << pos[g.target]
        on = sum(1 << pos[q] for q in g.controls)
        hot = dest & on == on
        if g.kind in PERMUTATION_KINDS:
            dest = np.where(hot, dest ^ target, dest)
        else:
            d0, d1 = diagonal_factors(g)
            w, de = np.frexp(w * np.where(hot, np.where(dest & target, d1, d0), 1.0))
            e = e + de
        yield dest, w, e


def rows_stay_whole(dest, kl: int) -> bool:
    """True when the row a local state lands in depends only on the row it left."""
    to_row = (dest >> kl).reshape(-1, 1 << kl)
    return bool(np.all(to_row == to_row[:, :1]))


def slice_rows(low, high, stored: int, fixed: int) -> slice:
    """The local states over low + high (bit j is the j-th qubit) where
    the qubits of high from stored up read their bits of fixed."""
    b = len(low) + sum(q < stored for q in high)  # the fixed qubits are the top local bits
    row = sum((fixed >> q & 1) << j for j, q in enumerate(q for q in high if q >= stored))
    return slice(row << b, row + 1 << b)


def on_slice(net, low, high, stored: int, fixed: int):
    """A block's map (dest, w, e) over low + high on the rows of slice_rows,
    as a map over the stored qubits; None when it moves amplitude off them."""
    dest, w, e = net
    rows = slice_rows(low, high, stored, fixed)
    b = len(low) + sum(q < stored for q in high)
    if np.any(dest[rows] >> b != rows.start >> b):
        return None
    return dest[rows] & (1 << b) - 1, w[rows], e[rows]


def fuse_run(run, n: int, stored: int | None = None, fixed: int = 0):
    """sim._fuse_run as one gate-at-a-time trace per stretch the caps
    admit, on a state that stores the low stored qubits (default all n),
    each qubit above them reading its bit of fixed: the block is the whole
    stretch, traced over the whole register and restricted to the rows
    where its qubits above the stored ones read their bits. A block that
    moves amplitude off them widens the state to store its qubits and is
    restricted again; a gate past the caps runs alone."""
    stored = n if stored is None else stored
    items = []
    for diagonal, stretch in groupby(run, key=lambda g: g.kind in DIAGONAL_KINDS):
        items += sim._merge_diagonal(list(stretch)) if diagonal else list(stretch)
    dense = sim._tail_width(n)
    i = 0
    while i < len(items):
        j, touched, budget = i, set(), 0.0
        while j < len(items):
            g = items[j]
            joined = touched | set(g.qubits)
            cost = abs(math.log2(g.param)) if g.param is not None else 0.0
            if (
                len(joined) > sim._BLOCK_QUBITS
                or sum(q >= dense for q in joined) > sim._ROW_QUBITS
                or budget + cost > PARAM_LOG2_CAP
            ):
                break
            touched, budget, j = joined, budget + cost, j + 1
        if j == i:
            yield items[i]
            i += 1
            continue
        low, high = sorted(q for q in touched if q < dense), sorted(q for q in touched if q >= dense)
        for whole in trace_basis(items[i:j], low + high):
            pass
        net = on_slice(whole, low, high, stored, fixed)
        if net is None:  # the state widens to store the block's qubits
            stored = max(high) + 1
            fixed = fixed >> stored << stored
            net = on_slice(whole, low, high, stored, fixed)
        yield items[i:j], net, low, [q for q in high if q < stored]
        i = j
