"""What each gate kind does, pinned against hand-written matrices.

circuit.py is the one definition the simulator and the path enumerator
read; the matrices here are written out independently of it, so a wrong
factor there fails against them and not only between the two routes.
"""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from conftest import frontier_paths
from rnqc import sim
from rnqc.circuit import COMPLEX_KINDS, DIAGONAL_KINDS, KINDS, PERMUTATION_KINDS, Circuit, Gate

S = 1.0 / math.sqrt(2.0)
W = (1.0 + 1.0j) / math.sqrt(2.0)  # e^{i pi/4}

# kind -> (operand count, parameter, matrix over the operands); bit j of a
# row or column index is operand j, so controls are the low bits
MATRICES = {
    "H": (1, None, [[S, S], [S, -S]]),
    "X": (1, None, [[0, 1], [1, 0]]),
    "Z": (1, None, [[1, 0], [0, -1]]),
    "T": (1, None, [[1, 0], [0, W]]),
    "G": (1, 4.0, [[0.25, 0], [0, 4.0]]),
    "CNOT": (2, None, [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ]),
    "CG": (2, 4.0, [
        [1, 0, 0, 0],
        [0, 0.25, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 4.0],
    ]),
    "CCNOT": (3, None, [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
    ]),
    "NCNOT": (3, None, [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
    ]),
}
N = 4  # register width for the dense matrices


def test_kind_classes_cover_kinds_once():
    classes = (PERMUTATION_KINDS, DIAGONAL_KINDS, frozenset({"H"}))
    assert sum(len(c) for c in classes) == len(KINDS)
    assert frozenset().union(*classes) == frozenset(KINDS)
    assert COMPLEX_KINDS <= DIAGONAL_KINDS
    assert set(MATRICES) == set(KINDS)


def _embed(local, operands):
    """The N-qubit matrix of a gate whose matrix over its operands is local."""
    local = np.asarray(local, dtype=complex)
    full = np.zeros((1 << N, 1 << N), dtype=complex)
    mask = sum(1 << q for q in operands)
    for col in range(1 << N):
        lc = sum(((col >> q) & 1) << j for j, q in enumerate(operands))
        for lr in range(len(local)):
            row = (col & ~mask) | sum(((lr >> j) & 1) << q for j, q in enumerate(operands))
            full[row, col] = local[lr, lc]
    return full


def _sim_matrix(gate):
    cols = []
    for col in range(1 << N):
        state = sim.apply_gate(sim.new_state(N, col, mode="complex"), gate)
        cols.append(sim.amplitudes(state) * math.ldexp(1.0, state.exponent))
    return np.array(cols).T


def _pathsum_matrix(gate):
    """Column col: the forward paths of the one-gate circuit from basis col."""
    out = np.zeros((1 << N, 1 << N), dtype=complex)
    for col in range(1 << N):
        for row, values in frontier_paths(Circuit(N, (gate,)), col).items():
            out[row, col] += sum(values)
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_kind_matches_hand_written_matrix(kind):
    arity, param, local = MATRICES[kind]
    rnd = random.Random(f"matrix-{kind}")
    for _ in range(6):
        operands = tuple(rnd.sample(range(N), arity))
        gate = Gate(kind, operands, param)
        want = _embed(local, operands)
        assert np.max(np.abs(_sim_matrix(gate) - want)) <= 1e-15
        assert np.max(np.abs(_pathsum_matrix(gate) - want)) <= 1e-15


def _random_circuit(rnd: random.Random, n: int, depth: int) -> Circuit:
    gates = []
    for _ in range(depth):
        kind = rnd.choice(KINDS)
        arity = {"CNOT": 2, "CG": 2, "CCNOT": 3, "NCNOT": rnd.randint(2, n)}.get(kind, 1)
        param = rnd.choice((0.5, 1.5, 2.0, 3.0)) if kind in ("G", "CG") else None
        gates.append(Gate(kind, tuple(rnd.sample(range(n), arity)), param))
    return Circuit(n, tuple(gates))


@pytest.mark.parametrize("seed", range(12))
def test_sim_amplitudes_match_forward_path_sums(seed):
    """Each final amplitude of the dense simulator equals the sum of the
    forward paths ending there, phases included."""
    rnd = random.Random(seed)
    n = 4
    circuit = _random_circuit(rnd, n, 14)
    start = rnd.randrange(1 << n)
    state = sim.apply_circuit(sim.new_state(n, start, mode="complex"), circuit)
    amps = sim.amplitudes(state) * math.ldexp(1.0, state.exponent)
    paths = np.zeros(1 << n, dtype=complex)
    for z, values in frontier_paths(circuit, start).items():
        paths[z] = sum(values)
    assert np.max(np.abs(amps - paths)) <= 1e-12 * max(1.0, np.max(np.abs(paths)))
