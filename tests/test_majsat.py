"""Majority-decision pipeline: exact and sampled sweeps over beta/alpha."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings

import pytest

from rnqc import cnf, majsat, sim
from rnqc.circuit import Gate, circuit_to_json, gate_census
from rnqc.errors import InputError, PostselectError, RegisterCapError


def _formula(num_vars, clauses):
    return cnf.CnfFormula(num_vars=num_vars, clauses=tuple(tuple(c) for c in clauses))


AND_UNITS = _formula(2, [[1], [2]])       # s = 1 of 4
OR_PAIR = _formula(3, [[1, 2]])           # s = 6 of 8
TIE_UNIT = _formula(3, [[1]])             # s = 4 of 8, exact tie


def _plan(formula, **overrides):
    overrides.setdefault("r", 2 * formula.num_vars)
    overrides.setdefault("r_prime", 2 * formula.num_vars)
    config = majsat.default_config(formula.num_vars, **overrides)
    return majsat.plan(formula, config)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_default_r_values():
    assert majsat.default_r(4, 2.0) == 4
    assert majsat.default_r(3, 2.0) == 3
    assert majsat.default_r(4, 1.5) == 7
    assert majsat.default_r(4, 2.0, scale=2.0) == 8


def test_default_config_defaults():
    cfg = majsat.default_config(4)
    assert (cfg.g, cfg.r, cfg.r_prime) == (2.0, 4, 4)
    assert (cfg.i_min, cfg.i_max) == (-4, 4)
    assert (cfg.sets, cfg.runs_per_set) == (4, 32)
    assert cfg.mode == "exact" and cfg.lowering == "semantic"


@pytest.mark.parametrize(
    "bad",
    [
        {"g": 1.0},
        {"g": 0.5},
        {"r": 0},
        {"r_prime": 0},
        {"sets": 0},
        {"runs_per_set": 0},
        {"i_min": 2, "i_max": 1},
        {"mode": "guess"},
        {"lowering": "none"},
        {"g_orientation": "sideways"},
        {"g": math.nan},
        {"g": math.inf},
        {"r_scale": math.nan},
        {"r_scale": math.inf},
        {"r_scale": 0.0},
        {"r_scale": -3.0},
    ],
)
def test_config_validation(bad):
    with pytest.raises(InputError):
        majsat.default_config(3, **bad)


@pytest.mark.parametrize("g", [1.0, 0.5, math.nan, math.inf])
def test_config_checks_g_itself(g):
    # default_config rejects these g in default_r first; the class keeps
    # its own contract for a config made by hand
    with pytest.raises(InputError, match="g must be a finite real > 1"):
        dataclasses.replace(majsat.default_config(3), g=g)


def test_plan_needs_a_variable():
    # default_config refuses n < 1 first; plan checks the formula it is given
    with pytest.raises(InputError, match="majority decision needs at least one variable"):
        majsat.plan(_formula(0, []), majsat.default_config(1))


def test_config_json_keys():
    keys = set(majsat.default_config(3).to_json_dict())
    assert keys == {
        "g",
        "r",
        "r_prime",
        "i_min",
        "i_max",
        "sets",
        "runs_per_set",
        "seed",
        "mode",
        "lowering",
        "g_orientation",
    }


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


def test_plan_register_arithmetic():
    formula = _formula(3, [[1, 2], [-1, 3], [2, 3]])
    p = _plan(formula)
    assert p.qubit_count == 9  # 3 work + 3 clause + oracle + scaling + readout
    assert p.qubit_count <= 12
    lay = p.layout
    assert len(lay.work) == 3 and len(lay.clause) == 3
    assert (p.initial_bits >> lay.non_hermitian) & 1 == 1, "boost orientation"


def test_plan_literal_orientation_parks_scaling_qubit():
    p = _plan(OR_PAIR, g_orientation="literal")
    assert (p.initial_bits >> p.layout.non_hermitian) & 1 == 0


def test_plan_primitive_census():
    p = _plan(_formula(3, [[1, 2], [-1, 3]]), lowering="primitive")
    for circuit in (
        p.oracle.circuit,
        p.amplification_circuit,
        p.readout_circuit,
    ):
        census = gate_census(circuit)
        assert census.is_primitive, census.counts
    assert set(gate_census(p.superposition_circuit).counts) == {"H"}


@pytest.mark.parametrize(
    "clauses, qubits, chain",
    [([[1, 2], [-1, 3]], 11, ()), ([[1, 2, 3, 4]], 12, (9,))],
    ids=["two-clauses", "one-wide-clause"],
)
@pytest.mark.parametrize("orientation", majsat.ORIENTATIONS)
def test_plan_primitive_register(clauses, qubits, chain, orientation):
    # work, aux, clause, oracle, non-Hermitian, BHR, then the ancillas that
    # circuit.primitive_register appends: chain pool first, then two const-ones
    p = _plan(_formula(4, clauses), lowering="primitive", g_orientation=orientation)
    lay = p.layout
    assert p.qubit_count == qubits
    assert lay.bhr == qubits - 3 - len(chain)
    assert lay.chain_ancilla == chain
    assert lay.const_one == (qubits - 2, qubits - 1)
    const = (1 << lay.const_one[0]) | (1 << lay.const_one[1])
    boost = 1 << lay.non_hermitian if orientation == "boost" else 0
    assert p.initial_bits == const | boost
    for circuit in (p.superposition_circuit, p.oracle.circuit, p.amplification_circuit, p.readout_circuit):
        assert circuit.qubit_count == qubits and circuit.layout == lay


# sha256 of every corpus plan in both lowerings at the default r: the four
# stage circuits, the layout, initial_bits and qubit_count. A new value
# changes the circuits that solve runs.
PLAN_CORPUS_SHA256 = "5fac8bd8b96e09d86f2065c27ebd14a55205f14c7b16c6edcb33f6c4134853a6"


def test_plan_identity_on_corpus(corpus):
    digest = hashlib.sha256()
    for _, formula in corpus:
        for lowering in majsat.LOWERINGS:
            p = majsat.plan(formula, majsat.default_config(formula.num_vars, lowering=lowering))
            for c in (p.superposition_circuit, p.oracle.circuit, p.amplification_circuit, p.readout_circuit):
                digest.update(json.dumps(circuit_to_json(c), sort_keys=True).encode())
            facts = {"layout": p.layout.role_map(), "initial_bits": p.initial_bits, "qubit_count": p.qubit_count}
            digest.update(json.dumps(facts, sort_keys=True).encode())
    assert digest.hexdigest() == PLAN_CORPUS_SHA256


def test_plan_primitive_register_cap(monkeypatch):
    formula = _formula(4, [[1, 2], [-1, 3]])
    monkeypatch.setenv("RNQC_MAX_QUBITS", "10")
    with pytest.raises(RegisterCapError, match="plan needs 11 qubits"):
        _plan(formula, lowering="primitive")
    monkeypatch.setenv("RNQC_MAX_QUBITS", "11")
    assert _plan(formula, lowering="primitive").qubit_count == 11


def test_plan_register_cap():
    formula = _formula(25, [[1]])
    with pytest.raises(RegisterCapError):
        _plan(formula)


def test_fidelity_checks_need_the_count_and_run_nothing(monkeypatch):
    # 25 variables plan in 28 qubits under the default cap, past the
    # brute-force count's 24; neither check may start a simulation
    p = majsat.plan(_formula(25, []), majsat.default_config(25))
    assert p.qubit_count == 28
    monkeypatch.setattr(sim, "apply_circuit", lambda *args: pytest.fail("simulated"))
    with pytest.raises(InputError, match=r"^fidelity profile needs the brute-force count$"):
        majsat.amplification_fidelity_profile(p)
    with pytest.raises(InputError, match=r"^fidelity grid needs the brute-force count$"):
        majsat.readout_fidelity_grid(p)


# ---------------------------------------------------------------------------
# exact mode
# ---------------------------------------------------------------------------


def test_exact_minority_conjunction():
    report = majsat.run_exact(_plan(AND_UNITS))
    assert report.verdict == "NO"
    assert report.reference_s == 1
    entry = next(e for e in report.per_i if e["i"] == 0)
    # closed form: BHR collapses toward 2|0> + 4|1>, so P(-1) = 0.1
    assert abs(entry["exact_p_minus"] - 0.1) < 2e-3
    assert abs(entry["exact_p_plus"] - 0.9) < 2e-3
    assert not entry["all_sets_success"]
    assert all(not e["all_sets_success"] for e in report.per_i)


def test_exact_majority_disjunction():
    report = majsat.run_exact(_plan(OR_PAIR))
    assert report.verdict == "YES"
    assert report.reference_s == 6
    assert any(e["all_sets_success"] for e in report.per_i)
    assert 0.0 <= report.discarded_mass < 0.1


def test_exact_tie_is_no():
    report = majsat.run_exact(_plan(TIE_UNIT))
    assert report.verdict == "NO"
    for e in report.per_i:
        assert abs(e["exact_p_minus"] - e["exact_p_plus"]) <= 1e-12
        assert not e["all_sets_success"]


def test_exact_postselection_starves_under_literal_orientation():
    config = majsat.default_config(2, r=6, r_prime=600, g_orientation="literal")
    p = majsat.plan(AND_UNITS, config)
    with pytest.raises(PostselectError):
        majsat.run_exact(p)


def test_report_json_shape():
    payload = majsat.run_exact(_plan(AND_UNITS)).to_json_dict()
    assert set(payload) == {
        "formula",
        "n",
        "config",
        "per_i",
        "verdict",
        "reference_s",
        "checkpoints",
        "discarded_mass",
        "low_confidence",
    }
    assert payload["formula"] == {"num_vars": 2, "clauses": [[1], [2]]}
    entry = payload["per_i"][0]
    assert set(entry) == {
        "i",
        "beta_over_alpha",
        "exact_p_minus",
        "exact_p_plus",
        "discarded_mass",
        "all_sets_success",
    }


# ---------------------------------------------------------------------------
# sampled mode
# ---------------------------------------------------------------------------


def test_sampled_matches_exact_on_majority():
    p = _plan(OR_PAIR, mode="sampled", seed=0, sets=3, runs_per_set=24)
    report = majsat.run_sampled(p)
    assert report.verdict == "YES"
    entry = report.per_i[0]
    assert set(entry) == {
        "i",
        "beta_over_alpha",
        "set_results",
        "discarded_shots",
        "all_sets_success",
    }
    assert len(entry["set_results"]) == 3
    for sr in entry["set_results"]:
        assert sr["minus_count"] + sr["plus_count"] <= 24


def test_sampled_deterministic_reports():
    p = _plan(OR_PAIR, mode="sampled", seed=424242)
    a = majsat.run_sampled(p).to_json_dict()
    b = majsat.run_sampled(p).to_json_dict()
    assert a == b


def test_sampled_single_run_flags_low_confidence():
    p = _plan(TIE_UNIT, mode="sampled", seed=5, runs_per_set=1)
    report = majsat.run_sampled(p)
    assert report.low_confidence


def test_sampled_seed_override_argument():
    # an explicit seed argument draws the exact streams the config seed would
    override = majsat.run_sampled(_plan(OR_PAIR, mode="sampled", seed=1), seed=77)
    configured = majsat.run_sampled(_plan(OR_PAIR, mode="sampled", seed=77))
    assert override.per_i == configured.per_i
    assert override.verdict == configured.verdict
    assert override.discarded_mass == configured.discarded_mass
    assert override.low_confidence == configured.low_confidence


@pytest.mark.parametrize("seed", [2**64, -1])
def test_sampled_rejects_seed_outside_64_bits(seed):
    with pytest.raises(InputError):
        majsat.run_sampled(_plan(OR_PAIR, mode="sampled"), seed=seed)


def test_sampled_memory_is_bounded_by_the_draw_block():
    # 2^18 shots at one i in one set: the uniforms are drawn
    # majsat.SAMPLE_BLOCK jobs at a time, not all at once.
    p = _plan(OR_PAIR, mode="sampled", i_min=0, i_max=0, sets=1, runs_per_set=2**18)
    tracemalloc.start()
    try:
        report = majsat.run_sampled(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (entry,) = report.per_i
    (counts,) = entry["set_results"]
    assert counts["minus_count"] + counts["plus_count"] + entry["discarded_shots"] == 2**18
    assert peak < 16 << 20, f"peak {peak / (1 << 20):.1f} MiB"


def test_sampled_postselection_starves_under_literal_orientation():
    config = majsat.default_config(
        2, r=6, r_prime=60, seed=0, mode="sampled", g_orientation="literal"
    )
    p = majsat.plan(AND_UNITS, config)
    with pytest.raises(PostselectError):
        majsat.run_sampled(p)


# ---------------------------------------------------------------------------
# decision rule
# ---------------------------------------------------------------------------


def test_decide_rules():
    # both runners form the verdict with the same step rule
    for mode in ("exact", "sampled"):
        assert majsat.run(_plan(OR_PAIR, mode=mode, seed=3)).verdict == "YES"
        assert majsat.run(_plan(AND_UNITS, mode=mode, seed=3)).verdict == "NO"


def test_decide_rejects_empty_sweep():
    # an empty i range never reaches a runner, so per_i is never empty
    with pytest.raises(InputError):
        majsat.default_config(2, i_min=1, i_max=0)


def test_run_dispatches_on_mode():
    exact = majsat.run(_plan(OR_PAIR))
    assert exact.to_json_dict() == majsat.run_exact(_plan(OR_PAIR)).to_json_dict()
    sampled_plan = _plan(OR_PAIR, mode="sampled", seed=3)
    assert (
        majsat.run(sampled_plan).to_json_dict()
        == majsat.run_sampled(sampled_plan).to_json_dict()
    )


# ---------------------------------------------------------------------------
# fidelity instrumentation
# ---------------------------------------------------------------------------


def test_amplification_profile_shape():
    p = _plan(OR_PAIR)
    profile = majsat.amplification_fidelity_profile(p)
    assert [r for r, _ in profile] == list(range(1, 7))
    values = [f for _, f in profile]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), "nondecreasing"
    assert values[-1] >= 0.999


def test_readout_grid_spans_configured_range():
    p = _plan(OR_PAIR)
    grid = majsat.readout_fidelity_grid(p)
    assert sorted(grid) == list(range(-3, 4))
    assert min(grid.values()) >= 0.999


@pytest.mark.parametrize("name", ["n3_or2", "n4_w4_pair", "n5_or2_or3"])
@pytest.mark.parametrize("i_min, i_max", [(505, 512), (1018, 1023), (-1100, -1090)])
def test_readout_grid_at_extreme_weights(corpus, name, i_min, i_max):
    # the closed-form target alpha(N-2s)|0> + beta N|1> is scaled so that
    # beta N cannot overflow a double: no NaN, no warning, no OverflowError
    formula = dict(corpus)[name]
    p = _plan(formula, i_min=i_min, i_max=i_max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = majsat.readout_fidelity_grid(p)
    assert sorted(grid) == list(range(i_min, i_max + 1))
    assert all(f == 1.0 for f in grid.values()), grid


def test_amplification_profile_runs_the_plan_gates(monkeypatch):
    # a primitive plan's profile runs its lowered amplification circuit:
    # the superposition, the oracle and the mixing layer in one call, then
    # one gain round per call
    p = _plan(OR_PAIR, lowering="primitive")
    calls = []
    apply_circuit = sim.apply_circuit

    def record(state, gates):
        calls.append(tuple(gates))
        return apply_circuit(state, gates)

    monkeypatch.setattr(sim, "apply_circuit", record)
    profile = majsat.amplification_fidelity_profile(p)
    assert len(profile) == p.config.r
    first, *rounds = calls
    prefix = p.superposition_circuit.gates + p.oracle.circuit.gates
    assert first[: len(prefix)] == prefix
    mixing = first[len(prefix) :]
    assert len(mixing) == 2 * len(p.mixed_qubits)
    assert len(rounds) == p.config.r and len({len(r) for r in rounds}) == 1
    assert mixing + sum(rounds, ()) == p.amplification_circuit.gates


def test_exact_run_needs_the_bhr_at_zero():
    # a superposition that also flips the BHR leaves it at |1> for the readout
    p = _plan(OR_PAIR)
    flip = Gate("X", (p.layout.bhr,))
    sup = dataclasses.replace(p.superposition_circuit, gates=p.superposition_circuit.gates + (flip,))
    with pytest.raises(InputError, match=rf"^qubit {p.layout.bhr} is not in a definite \|0> state$"):
        majsat.run_exact(dataclasses.replace(p, superposition_circuit=sup))


# ---------------------------------------------------------------------------
# lowering equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("formula", [AND_UNITS, OR_PAIR], ids=["and", "or"])
def test_primitive_mode_matches_semantic(formula):
    semantic = majsat.run_exact(_plan(formula))
    primitive = majsat.run_exact(_plan(formula, lowering="primitive"))
    assert semantic.verdict == primitive.verdict
    for a, b in zip(semantic.per_i, primitive.per_i):
        assert a["i"] == b["i"]
        assert abs(a["exact_p_minus"] - b["exact_p_minus"]) <= 1e-10
        assert abs(a["exact_p_plus"] - b["exact_p_plus"]) <= 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="the finite-r residue tips this tie's P(-1) above P(+1), so it reads YES",
)
def test_exact_tie_at_default_rounds_is_no():
    xor = _formula(7, [[1, 2], [-1, -2]])  # s = 64 = 2^(7-1)
    assert cnf.count_models(xor) == 64
    report = majsat.run_exact(majsat.plan(xor, majsat.default_config(7)))
    assert report.verdict == "NO"


def test_literal_orientation_still_decides_correctly():
    # with r' kept at its default scale the literal layout also works
    config = majsat.default_config(3, r=6, r_prime=6, g_orientation="literal")
    report = majsat.run_exact(majsat.plan(OR_PAIR, config))
    assert report.verdict == "YES"
    config = majsat.default_config(2, r=4, r_prime=4, g_orientation="literal")
    report = majsat.run_exact(majsat.plan(AND_UNITS, config))
    assert report.verdict == "NO"
