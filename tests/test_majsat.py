"""Majority-decision pipeline: exact and sampled sweeps over beta/alpha."""
from __future__ import annotations

import math

import pytest

from rnqc import cnf, majsat
from rnqc.circuit import gate_census
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
    ],
)
def test_config_validation(bad):
    with pytest.raises(InputError):
        majsat.default_config(3, **bad)


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


def test_plan_register_cap():
    formula = _formula(25, [[1]])
    with pytest.raises(RegisterCapError):
        _plan(formula)


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


def test_exact_checkpoints():
    report = majsat.run_exact(_plan(OR_PAIR), checkpoints=True)
    assert set(report.checkpoints) == {
        "amplification",
        "readout_min_over_i",
        "readout_at_alpha_eq_beta",
    }
    for value in report.checkpoints.values():
        assert value >= 0.999


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
