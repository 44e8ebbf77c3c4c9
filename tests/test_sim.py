"""Dense simulator: frozen gate examples plus norm/measurement invariants."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rnqc import majsat, sim
from rnqc.circuit import Circuit, Gate
from rnqc.errors import (
    CircuitError,
    InputError,
    NormOverflowError,
    PostselectError,
    RealModeError,
    RegisterCapError,
    ZeroStateError,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _amps(state):
    return np.asarray(state.amps)


def _random_state(rng, num_qubits, mode="real"):
    shape = 1 << num_qubits
    vals = rng.standard_normal(shape)
    if mode == "complex":
        vals = vals + 1j * rng.standard_normal(shape)
    return sim.state_from_amplitudes(vals, mode=mode)


# ---------------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------------


def test_new_state_single_qubit():
    state = sim.new_state(1, 0)
    assert _amps(state).tolist() == [1.0, 0.0]
    assert state.mode == "real"
    assert state.exponent == 0


def test_new_state_places_amplitude_at_index():
    state = sim.new_state(3, 5)
    expect = np.zeros(8)
    expect[5] = 1.0
    assert np.array_equal(_amps(state), expect)


def test_new_state_rejects_out_of_range_index():
    with pytest.raises(InputError):
        sim.new_state(2, 4)
    with pytest.raises(InputError):
        sim.new_state(2, -1)


def test_register_cap_default():
    with pytest.raises(RegisterCapError):
        sim.new_state(sim.max_qubits() + 1, 0)


def test_register_cap_env_override(monkeypatch):
    monkeypatch.setenv("RNQC_MAX_QUBITS", "4")
    assert sim.max_qubits() == 4
    sim.new_state(4, 0)
    with pytest.raises(RegisterCapError):
        sim.new_state(5, 0)
    monkeypatch.setenv("RNQC_MAX_QUBITS", "zero")
    with pytest.raises(InputError):
        sim.max_qubits()


def test_state_from_amplitudes_validates():
    with pytest.raises(InputError):
        sim.state_from_amplitudes([1.0, 0.0, 0.0])  # not a power of two
    with pytest.raises(ZeroStateError):
        sim.state_from_amplitudes([0.0, 0.0])
    for bad in ([math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0], [2**2000, 1]):
        with pytest.raises(InputError):
            sim.state_from_amplitudes(bad)
    with pytest.raises(InputError):
        sim.state_from_amplitudes([1.0, complex(0.0, math.nan)], mode="complex")


def test_state_from_amplitudes_runs_rescale_guard():
    state = sim.state_from_amplitudes([2**600] * 4, exponent=3)
    assert _amps(state).tolist() == [1.0] * 4
    assert state.exponent == 603
    assert sim.probabilities_z(state, 0) == (0.5, 0.5)
    with pytest.raises(NormOverflowError):
        sim.norm_sq(state)


def test_prepare_superposed_equal_weights():
    state = sim.prepare_superposed_qubit(sim.new_state(1), 0, 1, 1)
    assert np.allclose(_amps(state), [INV_SQRT2, INV_SQRT2], atol=1e-15)


def test_prepare_superposed_one_two():
    state = sim.prepare_superposed_qubit(sim.new_state(1), 0, 1, 2)
    root5 = math.sqrt(5.0)
    assert np.allclose(_amps(state), [1 / root5, 2 / root5], atol=1e-15)


def test_prepare_superposed_rejects_nonpositive():
    with pytest.raises(InputError):
        sim.prepare_superposed_qubit(sim.new_state(1), 0, 1, 0)


def test_prepare_superposed_needs_zero_qubit():
    state = sim.new_state(1, 1)
    with pytest.raises(InputError):
        sim.prepare_superposed_qubit(state, 0, 1, 1)


# ---------------------------------------------------------------------------
# gate kernels
# ---------------------------------------------------------------------------


def test_hadamard_on_zero():
    state = sim.apply_gate(sim.new_state(1), Gate("H", (0,)))
    assert np.allclose(_amps(state), [INV_SQRT2, INV_SQRT2], atol=1e-15)


def test_g_scales_branches():
    state = sim.state_from_amplitudes([0.3, 0.4])
    sim.apply_gate(state, Gate("G", (0,), 2.0))
    assert np.allclose(_amps(state), [0.15, 0.8], atol=1e-15)


def test_cg_diagonal_action():
    # |c t> ordering with c = qubit 1: only the control-on half is scaled.
    state = sim.state_from_amplitudes([0.5, 0.5, 0.5, 0.5])
    sim.apply_gate(state, Gate("CG", (1, 0), 2.0))
    assert np.allclose(_amps(state), [0.5, 0.5, 0.25, 1.0], atol=1e-15)


def test_ccnot_flips_on_both_controls():
    state = sim.new_state(3, 0b110)
    sim.apply_gate(state, Gate("CCNOT", (2, 1, 0)))
    expect = np.zeros(8)
    expect[0b111] = 1.0
    assert np.array_equal(_amps(state), expect)


def test_ccnot_idle_when_control_off():
    state = sim.new_state(3, 0b010)
    sim.apply_gate(state, Gate("CCNOT", (2, 1, 0)))
    assert _amps(state)[0b010] == 1.0


def test_t_phase_in_complex_mode():
    state = sim.new_state(1, 1, mode="complex")
    sim.apply_gate(state, Gate("T", (0,)))
    expect = complex(math.cos(math.pi / 4), -math.sin(math.pi / 4))
    assert abs(_amps(state)[1] - expect) < 1e-15


def test_t_rejected_in_real_mode():
    with pytest.raises(RealModeError):
        sim.apply_gate(sim.new_state(1), Gate("T", (0,)))


def test_gate_beyond_register_rejected():
    with pytest.raises(CircuitError):
        sim.apply_gate(sim.new_state(2), Gate("H", (2,)))


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------


def test_double_hadamard_is_identity():
    state = sim.apply_circuit(sim.new_state(1), [Gate("H", (0,)), Gate("H", (0,))])
    assert np.allclose(_amps(state), [1.0, 0.0], atol=1e-15)


def test_hgh_amplitudes():
    gates = [Gate("H", (0,)), Gate("G", (0,), 2.0), Gate("H", (0,))]
    state = sim.apply_circuit(sim.new_state(1), gates)
    assert np.allclose(_amps(state), [1.25, -0.75], atol=1e-15)


def test_empty_circuit_is_identity():
    state = sim.new_state(2, 3)
    before = _amps(state).copy()
    sim.apply_circuit(state, [])
    assert np.array_equal(_amps(state), before)


_POW2_PARAMS = st.one_of(
    st.integers(-6, 6).filter(bool), st.integers(390, 400), st.integers(-400, -390)
).map(lambda e: math.ldexp(1.0, e))
_ANY_PARAMS = st.one_of(
    st.floats(0.05, 20.0).filter(lambda p: p != 1.0),
    st.floats(2.0**390, 2.0**400),
    st.floats(2.0**-400, 2.0**-390),
)


@st.composite
def _random_circuit(draw, params):
    """A state of up to 8 qubits, up to 40 gates of every kind, and the
    fusion's tail and block widths to compile them with."""
    n = draw(st.integers(1, 8))
    mode = draw(st.sampled_from(("real", "complex")))
    kinds = ["H", "X", "Z", "G", "CG", "CNOT", "CCNOT", "NCNOT"] + (["T"] if mode == "complex" else [])
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        if kind == "NCNOT":
            arity = draw(st.integers(2, 8))
        else:
            arity = {"CG": 2, "CNOT": 2, "CCNOT": 3}.get(kind, 1)
        if arity > n:
            continue
        qubits = draw(st.permutations(range(n)))[:arity]
        gates.append(Gate(kind, qubits, draw(params) if kind in ("G", "CG") else None))
    seed = draw(st.integers(0, 2**32 - 1))
    widths = (draw(st.integers(1, 10)), draw(st.integers(2, 10)))
    return _random_state(np.random.default_rng(seed), n, mode), gates, widths


def _scaled(state, e):
    """The true amplitudes times 2^-e, exact unless they underflow."""
    shift = state.exponent - e
    if state.mode == "real":
        return np.ldexp(state.amps, shift)
    return np.ldexp(state.amps.real, shift) + 1j * np.ldexp(state.amps.imag, shift)


def _fused_and_reference(state, gates, widths):
    """Both paths' amplitudes on the reference's scale.

    The fused path compiles with the drawn tail and block widths, so that
    registers of at most 8 qubits still get blocks of many rows that are
    cut by every cap. Discards the case (hypothesis.assume) when the gate
    loop lost an amplitude to underflow: a factor of 2^-400 and later
    2^+400 on one branch leaves the loop with a zero where the fused
    factor of 1 keeps the value, so the loop is no reference there.
    """
    ref = state.copy()
    for gate in gates:
        live = ref.amps != 0
        sim.apply_gate(ref, gate)
        tiny = np.abs(ref.amps) < np.finfo(np.float64).tiny
        assume(not np.any(tiny & (live | (ref.amps != 0))))
    sim._compile.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_DENSE_QUBITS", widths[0])
            patch.setattr(sim, "_BLOCK_QUBITS", widths[1])
            fused = sim.apply_circuit(state.copy(), gates)
    finally:
        sim._compile.cache_clear()
    top = int(np.frexp(np.max(np.abs(ref.amps)))[1])
    return _scaled(fused, ref.exponent + top), _scaled(ref, ref.exponent + top)


@settings(max_examples=150, deadline=None)
@given(case=_random_circuit(_POW2_PARAMS))
def test_fused_circuit_matches_gate_loop_bit_for_bit(case):
    # Power-of-two factors multiply exactly, so fusing them changes no bit.
    # Amplitudes 2^300 below the largest may still have lost bits to
    # underflow inside a fused block.
    got, want = _fused_and_reference(*case)
    big = np.abs(want) >= 2.0**-300
    assert np.array_equal(got[big], want[big])
    assert np.all(np.abs(got[~big] - want[~big]) <= 2.0**-300)


@settings(max_examples=150, deadline=None)
@given(case=_random_circuit(_ANY_PARAMS))
def test_fused_circuit_matches_gate_loop(case):
    got, want = _fused_and_reference(*case)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_fused_run_folds_rounds_and_cuts_at_factor_range():
    # Two rounds of CG fold into one CG(q, 3, 2^200) per control. Three of
    # them would scale the all-ones branch by 2^600, past one block's
    # range, so the block takes two and the third runs on its own.
    gates = [Gate("H", (q,)) for q in range(3)]
    gates += [Gate("CG", (q, 3), 2.0**100) for _ in range(2) for q in range(3)]
    steps = sim._compile(tuple(gates), 4)
    assert steps[:3] == tuple(gates[:3])
    assert not isinstance(steps[3], Gate)
    assert steps[4:] == (Gate("CG", (2, 3), 2.0**200),)
    state = sim.apply_circuit(sim.new_state(4, 1 << 3), gates)
    assert state.exponent > 0, "the guard must have rescaled"
    assert 2.0**-500 <= np.max(np.abs(state.amps)) <= 2.0**500
    assert sim.probabilities_z(state, 0)[1] == 1.0


def _gate_loop(state, circuit):
    for gate in getattr(circuit, "gates", circuit):
        sim.apply_gate(state, gate)
    return state


@pytest.mark.parametrize("lowering", majsat.LOWERINGS)
@pytest.mark.parametrize("rounds", ["default", "2n"])
def test_fused_exact_runs_match_gate_loop_on_corpus(corpus, monkeypatch, lowering, rounds):
    # Semantic circuits at g = 2 scale by powers of two only: identical.
    # Primitive ones fold G(sqrt 2) twice into one factor 2(1 + 2^-52)
    # per CG, which moves probabilities by up to 26 eps on this corpus.
    tol = 0.0 if lowering == "semantic" else 64 * np.finfo(np.float64).eps
    for name, formula in corpus:
        n = formula.num_vars
        r = None if rounds == "default" else 2 * n
        plan = majsat.plan(formula, majsat.default_config(n, r=r, r_prime=r, lowering=lowering))
        fused = majsat.run_exact(plan)
        with monkeypatch.context() as patch:
            patch.setattr(sim, "apply_circuit", _gate_loop)
            ref = majsat.run_exact(plan)
        assert fused.verdict == ref.verdict, name
        for got, want in zip(fused.per_i, ref.per_i):
            assert got["all_sets_success"] == want["all_sets_success"], name
            for key in ("exact_p_minus", "exact_p_plus", "discarded_mass"):
                assert abs(got[key] - want[key]) <= tol, (name, got["i"], key)


def test_apply_circuit_register_mismatch():
    circuit = Circuit(2, (Gate("H", (0,)),))
    with pytest.raises(CircuitError):
        sim.apply_circuit(sim.new_state(3), circuit)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_norm_sq_examples():
    assert abs(sim.norm_sq(sim.state_from_amplitudes([INV_SQRT2, INV_SQRT2])) - 1.0) < 1e-15
    assert sim.norm_sq(sim.state_from_amplitudes([1.25, -0.75])) == 2.125


def test_norm_sq_includes_exponent():
    state = sim.state_from_amplitudes([1.0, 0.0], exponent=3)
    assert sim.norm_sq(state) == 64.0


def test_renormalize_zero_state_rejected():
    state = sim.new_state(1)
    state.amps[:] = 0.0
    with pytest.raises(ZeroStateError):
        sim.renormalize(state)


def test_renormalize_resets_exponent():
    state = sim.state_from_amplitudes([3.0, 4.0], exponent=5)
    sim.renormalize(state)
    assert state.exponent == 0
    assert abs(sim.norm_sq(state) - 1.0) < 1e-15


def test_norm_overflow_raises_not_inf():
    state = sim.new_state(1, 1)
    boost = Gate("G", (0,), 2.0)
    for _ in range(700):
        sim.apply_gate(state, boost)
    assert np.all(np.isfinite(state.amps)), "mantissa must stay finite"
    with pytest.raises(NormOverflowError):
        sim.norm_sq(state)


# ---------------------------------------------------------------------------
# z measurements and postselection
# ---------------------------------------------------------------------------


def _g_tilted_state():
    state = sim.state_from_amplitudes([INV_SQRT2, INV_SQRT2])
    return sim.apply_gate(state, Gate("G", (0,), 2.0))


def test_probabilities_z_after_g():
    p0, p1 = sim.probabilities_z(_g_tilted_state(), 0)
    assert abs(p1 - 2.0 / 2.125) < 1e-12
    assert abs(p1 - 0.94118) < 1e-5
    assert abs(p0 + p1 - 1.0) < 1e-12


def test_probabilities_z_basis_and_uniform():
    assert sim.probabilities_z(sim.new_state(1, 1), 0) == (0.0, 1.0)
    p0, p1 = sim.probabilities_z(sim.state_from_amplitudes([INV_SQRT2, INV_SQRT2]), 0)
    assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 0.5) < 1e-12


def test_postselect_uniform_state():
    state = sim.state_from_amplitudes([INV_SQRT2, INV_SQRT2])
    prob, conditioned = sim.postselect(state, 0, 1)
    assert abs(prob - 0.5) < 1e-12
    assert np.allclose(_amps(conditioned), [0.0, 1.0], atol=1e-15)


def test_postselect_empty_branch_rejected():
    with pytest.raises(PostselectError):
        sim.postselect(sim.new_state(1, 0), 0, 1)


def test_measure_z_statistics_seeded():
    rng = np.random.default_rng(1905)
    hits = 0
    trials = 10_000
    for _ in range(trials):
        out, _ = sim.measure_z(_g_tilted_state(), 0, rng)
        hits += out.value
    assert abs(hits / trials - 0.94118) < 0.01


def test_measure_z_collapses_and_reports_probability():
    rng = np.random.default_rng(7)
    out, state = sim.measure_z(_g_tilted_state(), 0, rng)
    assert out.value in (0, 1)
    assert out.collapsed
    assert abs(sim.norm_sq(state) - 1.0) < 1e-12
    p = sim.probabilities_z(state, 0)[out.value]
    assert abs(p - 1.0) < 1e-12, "surviving branch must be pure"


# ---------------------------------------------------------------------------
# x measurements
# ---------------------------------------------------------------------------


def test_probabilities_x_on_zero():
    p_plus, p_minus = sim.probabilities_x(sim.new_state(1), 0)
    assert abs(p_plus - 0.5) < 1e-12 and abs(p_minus - 0.5) < 1e-12


def test_probabilities_x_on_plus():
    state = sim.state_from_amplitudes([INV_SQRT2, INV_SQRT2])
    p_plus, p_minus = sim.probabilities_x(state, 0)
    assert abs(p_plus - 1.0) < 1e-12
    assert p_minus < 1e-12


def test_probabilities_x_unbalanced():
    # (2|0> + 4|1>)/sqrt(20): P(-1) = (2-4)^2 / 40.
    state = sim.state_from_amplitudes([2.0 / math.sqrt(20), 4.0 / math.sqrt(20)])
    p_plus, p_minus = sim.probabilities_x(state, 0)
    assert abs(p_minus - 0.1) < 1e-12
    assert abs(p_plus - 0.9) < 1e-12


def test_measure_x_on_plus_is_deterministic():
    rng = np.random.default_rng(3)
    state = sim.state_from_amplitudes([INV_SQRT2, INV_SQRT2])
    out, collapsed = sim.measure_x(state, 0, rng)
    assert out.value == 1
    assert abs(out.probability - 1.0) < 1e-12
    # collapsed state is left in the rotated frame
    assert abs(sim.probabilities_z(collapsed, 0)[0] - 1.0) < 1e-12


def test_measure_x_statistics_seeded():
    rng = np.random.default_rng(99)
    minus = 0
    trials = 10_000
    for _ in range(trials):
        state = sim.state_from_amplitudes([2.0 / math.sqrt(20), 4.0 / math.sqrt(20)])
        out, _ = sim.measure_x(state, 0, rng)
        minus += out.value == -1
    assert abs(minus / trials - 0.1) < 4 * math.sqrt(0.1 * 0.9 / trials) + 0.005


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def test_fidelity_examples():
    rng = np.random.default_rng(0)
    state = _random_state(rng, 3)
    assert abs(sim.fidelity(state, state) - 1.0) < 1e-12
    assert sim.fidelity(sim.new_state(1, 0), sim.new_state(1, 1)) == 0.0
    half = sim.fidelity(
        sim.new_state(1, 0), sim.state_from_amplitudes([INV_SQRT2, INV_SQRT2])
    )
    assert abs(half - 0.5) < 1e-12


def test_fidelity_ignores_normalization_and_exponent():
    a = sim.state_from_amplitudes([1.0, 1.0])
    b = sim.state_from_amplitudes([5.0, 5.0], exponent=12)
    assert abs(sim.fidelity(a, b) - 1.0) < 1e-12


def test_fidelity_register_mismatch():
    with pytest.raises(InputError):
        sim.fidelity(sim.new_state(1), sim.new_state(2))


def test_qubit_state_fidelity_product_state():
    state = sim.new_state(2)
    sim.prepare_superposed_qubit(state, 1, 1.0, 2.0)
    assert abs(sim.qubit_state_fidelity(state, 1, 1.0, 2.0) - 1.0) < 1e-12
    # orthogonal target on the same qubit
    assert sim.qubit_state_fidelity(state, 1, 2.0, -1.0) < 1e-12


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

_UNITARY_1Q = [Gate("H", (0,)), Gate("X", (0,)), Gate("Z", (0,))]


def test_unitary_gates_preserve_norm():
    rng = np.random.default_rng(42)
    for gate in _UNITARY_1Q + [
        Gate("CNOT", (1, 0)),
        Gate("CCNOT", (2, 1, 0)),
        Gate("NCNOT", (3, 2, 1, 0)),
    ]:
        state = _random_state(rng, 4)
        before = sim.norm_sq(state)
        sim.apply_gate(state, gate)
        assert abs(sim.norm_sq(state) - before) <= 1e-12 * before


def test_t_preserves_norm_in_complex_mode():
    rng = np.random.default_rng(43)
    state = _random_state(rng, 3, mode="complex")
    before = sim.norm_sq(state)
    sim.apply_gate(state, Gate("T", (1,)))
    assert abs(sim.norm_sq(state) - before) <= 1e-12 * before


def test_long_random_unitary_circuit_stays_normalized():
    rng = np.random.default_rng(2026)
    n = 10
    state = sim.new_state(n)
    kinds = ("H", "X", "Z", "CNOT", "CCNOT")
    for _ in range(100):
        kind = kinds[rng.integers(len(kinds))]
        arity = {"H": 1, "X": 1, "Z": 1, "CNOT": 2, "CCNOT": 3}[kind]
        qubits = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
        sim.apply_gate(state, Gate(kind, qubits))
    assert abs(sim.norm_sq(state) - 1.0) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    g=st.floats(min_value=0.01, max_value=100.0).filter(lambda v: abs(v - 1.0) > 1e-6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_g_inverse_restores_state(g, seed):
    rng = np.random.default_rng(seed)
    state = _random_state(rng, 3)
    before = _amps(state).copy()
    sim.apply_gate(state, Gate("G", (1,), g))
    sim.apply_gate(state, Gate("G", (1,), 1.0 / g))
    scale = math.ldexp(1.0, state.exponent)
    assert np.allclose(_amps(state) * scale, before, rtol=1e-12, atol=1e-300)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_single_qubit_gate_leaves_other_marginals(seed):
    rng = np.random.default_rng(seed)
    state = _random_state(rng, 4)
    before = sim.probabilities_z(state, 3)
    for gate in _UNITARY_1Q:
        sim.apply_gate(state, gate)
    after = sim.probabilities_z(state, 3)
    assert abs(before[0] - after[0]) < 1e-12


def test_real_mode_structurally_real():
    rng = np.random.default_rng(5)
    state = _random_state(rng, 4)
    gates = [
        Gate("H", (0,)),
        Gate("CG", (1, 2), 3.0),
        Gate("G", (3,), 0.5),
        Gate("CCNOT", (0, 1, 3)),
        Gate("Z", (2,)),
    ]
    for gate in gates:
        sim.apply_gate(state, gate)
        assert state.amps.dtype == np.float64
        assert state.mode == "real"


def test_complex_mode_dtype():
    state = sim.new_state(2, 0, mode="complex")
    assert state.amps.dtype == np.complex128


def test_measurement_determinism_bit_identical():
    def run(seed):
        rng = np.random.default_rng(seed)
        state = sim.new_state(3)
        sim.apply_circuit(state, [Gate("H", (q,)) for q in range(3)])
        sim.apply_gate(state, Gate("G", (1,), 2.0))
        trace = []
        for q in range(3):
            out, _ = sim.measure_z(state, q, rng)
            trace.append((out.value, out.probability))
        return trace, _amps(state).tobytes()

    assert run(123) == run(123)


def test_sampling_tracks_probabilities():
    rng = np.random.default_rng(77)
    state = sim.new_state(2)
    sim.apply_circuit(state, [Gate("H", (0,)), Gate("CG", (0, 1), 3.0)])
    p1 = sim.probabilities_z(state, 0)[1]
    k = 4000
    hits = sum(sim.measure_z(state.copy(), 0, rng)[0].value for _ in range(k))
    assert abs(hits / k - p1) <= 4 * math.sqrt(p1 * (1 - p1) / k)


def test_copy_is_independent():
    state = sim.new_state(2)
    clone = state.copy()
    sim.apply_gate(clone, Gate("X", (0,)))
    assert _amps(state)[0] == 1.0
    assert _amps(clone)[1] == 1.0
