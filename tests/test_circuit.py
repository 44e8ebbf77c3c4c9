"""Circuit IR: validation, the lowering rules, census, JSON round-trips."""
from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np
import pytest

from rnqc import cnf, majsat, oracle, sim
from rnqc.circuit import (
    Circuit,
    Gate,
    RegisterLayout,
    circuit_from_json,
    circuit_to_json,
    gate_census,
    lower_cg,
    lower_to_primitive,
    parse_circuit,
    primitive_register,
    propagate_basis,
)
from rnqc.errors import CircuitError, InputError, RealModeError


# ---------------------------------------------------------------------------
# gate and layout validation
# ---------------------------------------------------------------------------


def test_gate_rejects_unknown_kind():
    with pytest.raises(CircuitError):
        Gate("Y", (0,))


def test_gate_rejects_wrong_arity():
    with pytest.raises(CircuitError):
        Gate("H", (0, 1))
    with pytest.raises(CircuitError):
        Gate("CCNOT", (0, 1))


def test_gate_rejects_duplicate_operands():
    with pytest.raises(CircuitError):
        Gate("CNOT", (1, 1))


def test_gate_rejects_negative_index():
    with pytest.raises(CircuitError):
        Gate("X", (-1,))


def test_ncnot_needs_control_and_target():
    with pytest.raises(CircuitError):
        Gate("NCNOT", (0,))
    g = Gate("NCNOT", (2, 1, 0))
    assert g.controls == (2, 1)
    assert g.target == 0


@pytest.mark.parametrize("bad", [0.0, 1.0, -2.0, float("inf"), float("nan"), 2.0**600])
def test_g_parameter_validation(bad):
    with pytest.raises(CircuitError):
        Gate("G", (0,), bad)


def test_parameter_only_on_scaling_gates():
    with pytest.raises(CircuitError):
        Gate("G", (0,))
    with pytest.raises(CircuitError):
        Gate("H", (0,), 2.0)


def test_circuit_rejects_gate_beyond_register():
    with pytest.raises(CircuitError):
        Circuit(2, (Gate("H", (2,)),))


def test_layout_rejects_overlapping_roles():
    with pytest.raises(CircuitError):
        RegisterLayout(work=(0, 1), clause=(1,))


def test_layout_must_cover_register():
    layout = RegisterLayout(work=(0, 2))
    with pytest.raises(CircuitError):
        Circuit(3, (), layout=layout)


def test_layout_initial_one_bits():
    layout = RegisterLayout(work=(0, 3), const_one=(1, 2))
    assert layout.initial_one_bits() == 0b0110
    assert layout.role_map()["const_one"] == (1, 2)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def test_census_primitive_set():
    circ = Circuit(3, (Gate("H", (0,)), Gate("CCNOT", (0, 1, 2)), Gate("G", (1,), 2.0)))
    census = gate_census(circ)
    assert census.is_primitive
    assert census.counts == {"H": 1, "CCNOT": 1, "G": 1}


def test_census_flags_nonprimitive():
    circ = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    assert not gate_census(circ).is_primitive


def test_census_counts_sum_to_length():
    gates = (Gate("H", (0,)), Gate("H", (1,)), Gate("X", (0,)))
    census = gate_census(Circuit(2, gates))
    assert sum(census.counts.values()) == len(gates)


# ---------------------------------------------------------------------------
# lowering: X
# ---------------------------------------------------------------------------


def test_lower_x_uses_const_one_pair():
    layout = RegisterLayout(work=tuple(range(7)), const_one=(7, 8))
    circ = Circuit(9, (Gate("X", (3,)),), layout=layout)
    lowered = lower_to_primitive(circ)
    assert lowered.gates == (Gate("CCNOT", (7, 8, 3)),)


def test_lower_x_exhaustive_equivalence():
    gates = (Gate("X", (0,)), Gate("X", (2,)), Gate("X", (3,)))
    original = Circuit(4, gates)
    lowered = lower_to_primitive(original)
    assert lowered.layout.const_one == (4, 5)
    ones = 0b11 << 4
    for x in range(16):
        ref = propagate_basis(original.gates, x)
        got = propagate_basis(lowered.gates, x | ones)
        assert got == ref | ones, f"input {x:04b}"


# ---------------------------------------------------------------------------
# lowering: Z
# ---------------------------------------------------------------------------


def test_lower_z_expands_to_hxh():
    lowered = lower_to_primitive(Circuit(1, (Gate("Z", (0,)),)))
    # X(0) between the Hs runs through the const_one qubits 1 and 2
    assert lowered.gates == (Gate("H", (0,)), Gate("CCNOT", (1, 2, 0)), Gate("H", (0,)))


def test_hxh_matrix_is_diag_1_minus1():
    cols = []
    for basis in (0, 1):
        state = sim.new_state(1, basis)
        sim.apply_circuit(state, [Gate("H", (0,)), Gate("X", (0,)), Gate("H", (0,))])
        cols.append(sim.amplitudes(state))
    matrix = np.column_stack(cols)
    assert np.allclose(matrix, np.diag([1.0, -1.0]), atol=1e-15)


def test_z_action_on_basis():
    state = sim.apply_gate(sim.new_state(1, 1), Gate("Z", (0,)))
    assert sim.amplitudes(state)[1] == -1.0
    state = sim.apply_gate(sim.new_state(1, 0), Gate("Z", (0,)))
    assert sim.amplitudes(state)[0] == 1.0


# ---------------------------------------------------------------------------
# lowering: NCNOT
# ---------------------------------------------------------------------------


def test_lower_ncnot_three_controls_gate_count():
    layout = RegisterLayout(work=tuple(range(4)), chain_ancilla=(4,))
    circ = Circuit(5, (Gate("NCNOT", (0, 1, 2, 3)),), layout=layout)
    lowered = lower_to_primitive(circ)
    assert lowered.qubit_count == 5
    assert len(lowered.gates) == 3
    assert all(g.kind == "CCNOT" for g in lowered.gates)


def test_lower_ncnot_two_controls_is_ccnot():
    lowered = lower_to_primitive(Circuit(3, (Gate("NCNOT", (0, 1, 2)),)))
    assert lowered.gates == (Gate("CCNOT", (0, 1, 2)),)
    assert lowered.qubit_count == 3


def test_lower_ncnot_single_control_uses_const_one():
    lowered = lower_to_primitive(Circuit(2, (Gate("NCNOT", (0, 1)),)))
    assert lowered.layout.const_one == (2, 3)
    assert lowered.gates == (Gate("CCNOT", (0, 2, 1)),)


def test_lower_ncnot_lowers_cnot_too():
    lowered = lower_to_primitive(Circuit(2, (Gate("CNOT", (0, 1)),)))
    assert lowered.layout.const_one == (2, 3)
    assert lowered.gates == (Gate("CCNOT", (0, 2, 1)),)


def test_lower_ncnot_all_ones_flips_target():
    layout = RegisterLayout(work=tuple(range(5)), chain_ancilla=(5, 6))
    circ = Circuit(7, (Gate("NCNOT", (0, 1, 2, 3, 4)),), layout=layout)
    lowered = lower_to_primitive(circ)
    out = propagate_basis(lowered.gates, 0b01111)
    assert out == 0b11111, "target must flip and ancillas return to 0"


def test_lower_ncnot_exhaustive_four_controls():
    k = 4
    controls = tuple(range(k))
    target = k
    pool = tuple(range(k + 1, k + 1 + (k - 2)))
    layout = RegisterLayout(work=tuple(range(k + 1)), chain_ancilla=pool)
    lowered = lower_to_primitive(
        Circuit(k + 1 + len(pool), (Gate("NCNOT", (*controls, target)),), layout=layout)
    )
    assert lowered.qubit_count == k + 1 + len(pool)
    for pattern in range(1 << k):
        for tbit in (0, 1):
            start = pattern | (tbit << target)
            out = propagate_basis(lowered.gates, start)
            flip = 1 if pattern == (1 << k) - 1 else 0
            expect = pattern | ((tbit ^ flip) << target)
            assert out == expect, f"controls {pattern:04b} target {tbit}"


# ---------------------------------------------------------------------------
# lowering: CG
# ---------------------------------------------------------------------------


def _cg_matrix(gates, qubit_count=2):
    cols = []
    for basis in range(1 << qubit_count):
        state = sim.new_state(qubit_count, basis)
        sim.apply_circuit(state, gates)
        cols.append(sim.amplitudes(state) * math.ldexp(1.0, state.exponent))
    return np.column_stack(cols)


def test_lower_cg_matrix_g4():
    lowered = lower_cg(Circuit(2, (Gate("CG", (1, 0), 4.0),)))
    kinds = [g.kind for g in lowered.gates]
    assert kinds == ["X", "CNOT", "G", "CNOT", "X", "G"]
    matrix = _cg_matrix(lowered.gates)
    assert np.allclose(matrix, np.diag([1.0, 1.0, 0.25, 4.0]), atol=1e-12)


@pytest.mark.parametrize("g", [0.5, 2.0, 3.0])
def test_lower_cg_matrix_matches_direct(g):
    lowered = lower_cg(Circuit(2, (Gate("CG", (1, 0), g),)))
    matrix = _cg_matrix(lowered.gates)
    assert np.allclose(matrix, np.diag([1.0, 1.0, 1.0 / g, g]), atol=1e-12)


def test_lower_cg_control_off_is_identity():
    lowered = lower_cg(Circuit(2, (Gate("CG", (1, 0), 2.0),)))
    for basis in (0, 1):  # control qubit 1 stays |0>
        state = sim.new_state(2, basis)
        sim.apply_circuit(state, lowered.gates)
        expect = np.zeros(4)
        expect[basis] = 1.0
        assert np.allclose(sim.amplitudes(state), expect, atol=1e-12)


@pytest.mark.parametrize("g", [0.5, 2.0, 3.0])
def test_lower_cg_random_states(g):
    rng = np.random.default_rng(808)
    direct_gate = Gate("CG", (0, 1), g)
    lowered = lower_cg(Circuit(2, (direct_gate,)))
    for _ in range(200):
        vals = rng.standard_normal(4)
        a = sim.state_from_amplitudes(vals)
        b = sim.state_from_amplitudes(vals)
        sim.apply_gate(a, direct_gate)
        sim.apply_circuit(b, lowered.gates)
        av = sim.amplitudes(a) * math.ldexp(1.0, a.exponent)
        bv = sim.amplitudes(b) * math.ldexp(1.0, b.exponent)
        assert np.max(np.abs(av - bv)) <= 1e-12


# ---------------------------------------------------------------------------
# lowering: full pipeline
# ---------------------------------------------------------------------------


def test_lower_to_primitive_z_only():
    lowered = lower_to_primitive(Circuit(1, (Gate("Z", (0,)),)))
    kinds = set(gate_census(lowered).counts)
    assert kinds <= {"H", "CCNOT"}
    assert gate_census(lowered).is_primitive


def test_lower_to_primitive_rejects_t():
    with pytest.raises(RealModeError):
        lower_to_primitive(Circuit(1, (Gate("T", (0,)),)))


def test_lower_to_primitive_idempotent():
    circ = Circuit(3, (Gate("H", (0,)), Gate("CCNOT", (0, 1, 2)), Gate("G", (2,), 2.0)))
    assert lower_to_primitive(circ) is circ
    once = lower_to_primitive(Circuit(2, (Gate("CNOT", (0, 1)),)))
    assert lower_to_primitive(once).gates == once.gates


def _random_circuit(rnd: random.Random, n: int, max_gates: int) -> Circuit:
    kinds = ["H", "X", "Z", "G", "CNOT", "CG", "NCNOT"]
    if n >= 3:
        kinds.append("CCNOT")
    gates = []
    for _ in range(rnd.randint(1, max_gates)):
        kind = rnd.choice(kinds)
        arity = {"H": 1, "X": 1, "Z": 1, "G": 1, "CNOT": 2, "CG": 2, "CCNOT": 3}.get(kind)
        if arity is None:
            arity = rnd.randint(2, min(5, n))
        qubits = tuple(rnd.sample(range(n), arity))
        param = rnd.choice((0.5, 1.5, 2.0, 3.0)) if kind in ("G", "CG") else None
        gates.append(Gate(kind, qubits, param))
    return Circuit(n, tuple(gates))


def _assert_lowering_equivalent(original: Circuit, lowered: Circuit):
    n = original.qubit_count
    ones = lowered.layout.initial_one_bits() if lowered.layout else 0
    low_mask = (1 << n) - 1
    for x in range(1 << n):
        ref = sim.apply_circuit(sim.new_state(n, x), original)
        got = sim.apply_circuit(sim.new_state(lowered.qubit_count, x | ones), lowered)
        rv = sim.amplitudes(ref) * math.ldexp(1.0, ref.exponent)
        gv = sim.amplitudes(got) * math.ldexp(1.0, got.exponent)
        for e in range(1 << lowered.qubit_count):
            expect = rv[e & low_mask] if (e & ~low_mask) == ones else 0.0
            assert abs(gv[e] - expect) <= 1e-12, f"input {x}, endpoint {e}"


def test_lowering_soundness_random_circuits():
    rnd = random.Random(11)
    for _ in range(8):
        original = _random_circuit(rnd, rnd.randint(2, 6), 20)
        lowered = lower_to_primitive(original)
        assert gate_census(lowered).is_primitive
        _assert_lowering_equivalent(original, lowered)


# sha256 of every corpus formula's lowered oracle and primitive plan stages.
# It pins the gate order that `rnqc lower` reports and that primitive-mode
# rounding depends on, so a new value changes primitive solve reports.
LOWERED_CORPUS_SHA256 = "2f30551ca5b883ad3433c4f109157e31eeabf701f00fd78b44c127e0c458e341"


def test_lowering_identity_on_corpus(corpus):
    digest = hashlib.sha256()
    for _, formula in corpus:
        circuits = [lower_to_primitive(oracle.build_oracle(cnf.to_3cnf(formula)).circuit)]
        config = majsat.default_config(formula.num_vars, r=2, r_prime=2, lowering="primitive")
        p = majsat.plan(formula, config)
        circuits += [p.superposition_circuit, p.oracle.circuit, p.amplification_circuit, p.readout_circuit]
        for c in circuits:
            digest.update(json.dumps(circuit_to_json(c), sort_keys=True).encode())
    assert digest.hexdigest() == LOWERED_CORPUS_SHA256


def test_primitive_register_appends_chain_then_const_once():
    layout = RegisterLayout(work=tuple(range(5)))
    circ = Circuit(5, (Gate("NCNOT", (0, 1, 2, 3, 4)), Gate("X", (0,))), layout=layout)
    grown = primitive_register(circ)
    assert grown.qubit_count == 9  # 4 controls: k - 2 = 2 chain ancillas
    assert grown.gates == circ.gates
    assert grown.layout.chain_ancilla == (5, 6)
    assert grown.layout.const_one == (7, 8)
    assert primitive_register(grown) == grown
    assert lower_to_primitive(circ).qubit_count == grown.qubit_count


def test_lowering_grows_register_for_ancillas():
    lowered = lower_to_primitive(Circuit(1, (Gate("X", (0,)),)))
    assert lowered.qubit_count == 3  # two const-one qubits appended
    assert lowered.layout.const_one == (1, 2)


# ---------------------------------------------------------------------------
# basis propagation
# ---------------------------------------------------------------------------


def test_propagate_basis_permutation_gates():
    gates = [Gate("X", (0,)), Gate("CNOT", (0, 1)), Gate("CCNOT", (0, 1, 2))]
    assert propagate_basis(gates, 0b000) == 0b111


def test_propagate_basis_rejects_branching_gate():
    with pytest.raises(CircuitError):
        propagate_basis([Gate("H", (0,))], 0)


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------


def test_circuit_to_json_shape():
    circ = Circuit(
        3,
        (Gate("H", (0,)), Gate("CG", (1, 2), 0.5)),
        layout=RegisterLayout(work=(0, 1, 2)),
    )
    assert circuit_to_json(circ) == {
        "qubits": 3,
        "layout": {"work": [0, 1, 2]},
        "gates": [
            {"g": "H", "q": [0]},
            {"g": "CG", "q": [1, 2], "param": 0.5},
        ],
    }


def test_json_round_trip_is_bit_exact():
    circ = Circuit(
        4,
        (
            Gate("G", (0,), 1.0 / 3.0),
            Gate("NCNOT", (0, 1, 2, 3)),
            Gate("CG", (2, 3), 0.1),
        ),
        layout=RegisterLayout(work=(0, 1), clause=(2,), oracle=3),
    )
    wire = json.dumps(circuit_to_json(circ))
    back = circuit_from_json(json.loads(wire))
    assert back == circ
    assert back.gates[0].param == 1.0 / 3.0
    assert back.gates[2].param == 0.1


def test_load_circuit(tmp_path):
    path = tmp_path / "c.json"
    circ = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    path.write_text(json.dumps(circuit_to_json(circ)))
    assert parse_circuit(path.read_bytes(), str(path)) == circ


def test_circuit_from_json_rejects_garbage():
    with pytest.raises(InputError):
        circuit_from_json(["not", "a", "circuit"])
    with pytest.raises(InputError):
        circuit_from_json({"qubits": 1})
    with pytest.raises(CircuitError):
        circuit_from_json({"qubits": 1, "gates": [{"g": "Q", "q": [0]}]})
    with pytest.raises(CircuitError, match="unknown layout role 'helper_one'"):
        circuit_from_json({"qubits": 2, "layout": {"work": [0], "helper_one": [1]}, "gates": []})
