"""Acceptance quantities three ways: direct, path enumeration, counting."""
from __future__ import annotations

import math

import numpy as np
import pytest

from rnqc import cnf, majsat, pathsum, sim
from rnqc.circuit import Circuit, Gate
from rnqc.errors import CircuitError, GridSpacingError, PathBudgetError
from rnqc.pathsum import Projector

H0 = Gate("H", (0,))
HGH = Circuit(1, (H0, Gate("G", (0,), 2.0), H0))
YES0 = Projector("yes", 0)
YN = Projector("yn")


# ---------------------------------------------------------------------------
# projector plumbing
# ---------------------------------------------------------------------------


def test_projector_validation():
    with pytest.raises(CircuitError):
        Projector("maybe")
    with pytest.raises(CircuitError):
        Projector("yes", -1)


def test_input_validation():
    with pytest.raises(CircuitError):
        pathsum.direct_amplitude(HGH, 2, YES0)
    with pytest.raises(CircuitError):
        pathsum.direct_amplitude(HGH, 0, Projector("yes", 1))


# ---------------------------------------------------------------------------
# direct evaluation
# ---------------------------------------------------------------------------


def test_direct_hadamard_split():
    res = pathsum.direct_amplitude(Circuit(1, (H0,)), 0, YES0)
    assert res.method == "direct"
    assert abs(res.c_yes_sq - 0.5) < 1e-15
    assert abs(res.c_no_sq - 0.5) < 1e-15
    assert res.path_count == 0


def test_direct_hgh_masses():
    res = pathsum.direct_amplitude(HGH, 0, YES0)
    assert abs(res.c_yes_sq - 0.5625) < 1e-12
    assert abs(res.acceptance - 0.5625 / 2.125) < 1e-6
    total = pathsum.direct_amplitude(HGH, 0, YN)
    assert abs(total.c_yes_sq - 2.125) < 1e-12
    assert total.c_no_sq == 0.0
    assert total.acceptance == 1.0


def _direct_yes_by_loop(circuit, input_basis, yes_qubit):
    """Reference yes-mass: a per-index loop over the dense final state."""
    mode = "complex" if any(g.kind == "T" for g in circuit.gates) else "real"
    state = sim.new_state(circuit.qubit_count, basis_index=input_basis, mode=mode)
    state = sim.apply_circuit(state, circuit)
    amps = state.amps.reshape(-1)
    yes = 0.0
    for z in range(amps.shape[0]):
        if z & (1 << yes_qubit):
            a = amps[z]
            yes += (a * a.conjugate()).real
    return yes * math.ldexp(1.0, 2 * state.exponent)


@pytest.mark.parametrize("yes_qubit", [0, 2, 4])
@pytest.mark.parametrize("with_t", [False, True], ids=["real", "complex"])
def test_direct_yes_mass_matches_loop(yes_qubit, with_t):
    gates = [Gate("H", (q,)) for q in range(5)]
    gates += [Gate("CG", (0, 2), 3.0), Gate("CCNOT", (1, 3, 4)), Gate("G", (4,), 1.5)]
    gates += [Gate("H", (2,)), Gate("CNOT", (2, 0))]
    if with_t:
        gates += [Gate("T", (3,)), Gate("H", (3,))]
    circ = Circuit(5, tuple(gates))
    res = pathsum.direct_amplitude(circ, 0, Projector("yes", yes_qubit))
    ref = _direct_yes_by_loop(circ, 0, yes_qubit)
    # 32 float64 terms summed in a different order
    assert abs(res.c_yes_sq - ref) <= 32 * np.finfo(np.float64).eps * (res.c_yes_sq + res.c_no_sq)


def test_direct_empty_circuit():
    res = pathsum.direct_amplitude(Circuit(1, ()), 0, YES0)
    assert res.c_yes_sq == 0.0
    assert res.acceptance == 0.0


# ---------------------------------------------------------------------------
# path enumeration
# ---------------------------------------------------------------------------


def test_pathsum_hadamard():
    res = pathsum.path_sum_amplitude(Circuit(1, (H0,)), 0, YES0)
    assert abs(res.c_yes_sq - 0.5) < 1e-12
    # two forward trails, so two pairs per endpoint summed over both buckets
    assert res.path_count == 2


def test_pathsum_hgh_matches_direct():
    res = pathsum.path_sum_amplitude(HGH, 0, YES0)
    direct = pathsum.direct_amplitude(HGH, 0, YES0)
    assert abs(res.c_yes_sq - direct.c_yes_sq) <= 1e-12
    assert abs(res.c_yes_sq - 0.5625) <= 1e-12
    assert res.path_count == 8
    assert res.method == "pathsum"


def test_pathsum_diagonal_circuit_single_path():
    circ = Circuit(1, (Gate("G", (0,), 2.0), Gate("G", (0,), 3.0)))
    res = pathsum.path_sum_amplitude(circ, 1, YN)
    assert res.path_count == 1
    assert abs(res.c_yes_sq - 36.0) < 1e-12


def test_pathsum_budget_guard():
    circ = Circuit(1, (H0,) * 20)
    with pytest.raises(PathBudgetError):
        pathsum.path_sum_amplitude(circ, 0, YES0, budget=16)


def test_pathsum_unitary_total_is_one():
    circ = Circuit(2, (H0, Gate("CNOT", (0, 1)), Gate("Z", (1,))))
    res = pathsum.path_sum_amplitude(circ, 0, YN)
    assert abs(res.c_yes_sq - 1.0) <= 1e-9


def test_pathsum_complex_circuit_with_t():
    circ = Circuit(2, (H0, Gate("T", (0,)), Gate("CNOT", (0, 1)), Gate("H", (1,))))
    res = pathsum.path_sum_amplitude(circ, 0, Projector("yes", 1))
    direct = pathsum.direct_amplitude(circ, 0, Projector("yes", 1))
    assert abs(res.c_yes_sq - direct.c_yes_sq) <= 1e-12
    assert abs(res.c_no_sq - direct.c_no_sq) <= 1e-12


# ---------------------------------------------------------------------------
# threshold counts
# ---------------------------------------------------------------------------


def test_count_bucket_all_positive_has_empty_negative_side():
    endpoints = pathsum._forward_paths(Circuit(1, (H0,)), 0, 10**6)
    pos, neg, im = pathsum._count_bucket(endpoints.values(), 20)
    assert neg == 0
    assert pos > 0
    assert abs(im) < 1e-15


# ---------------------------------------------------------------------------
# counting oracle simulation
# ---------------------------------------------------------------------------


def test_counting_hgh_fixed_precision():
    res = pathsum.counting_estimate(HGH, 0, YES0, precision_c=20)
    assert res.method == "counting"
    assert res.precision_c == 20
    assert res.path_count == 8
    assert res.error_bound == 8 * 2.0**-20
    assert abs(res.c_yes_sq - 0.5625) < 1e-4


def test_counting_adaptive_precision_bound():
    res = pathsum.counting_estimate(HGH, 0, YES0)
    assert res.error_bound < 1e-6
    assert abs(res.c_yes_sq - 0.5625) <= res.error_bound


def test_counting_doubling_precision_halves_bound():
    coarse = pathsum.counting_estimate(HGH, 0, YES0, precision_c=8)
    fine = pathsum.counting_estimate(HGH, 0, YES0, precision_c=16)
    assert fine.error_bound <= coarse.error_bound / 2


def test_counting_yn_total():
    res = pathsum.counting_estimate(HGH, 0, YN, precision_c=24)
    assert abs(res.c_yes_sq - 2.125) <= res.error_bound
    assert res.c_no_sq == 0.0


def test_counting_grid_underflow():
    with pytest.raises(GridSpacingError):
        pathsum.counting_estimate(HGH, 0, YES0, precision_c=1100)


def _counting_two_pass(circuit, input_basis, projector, precision_c):
    """Reference tally: the yes groups in one pass, then every group again."""
    groups = list(pathsum._forward_paths(circuit, input_basis, pathsum.DEFAULT_PATH_BUDGET).items())
    nc = circuit.qubit_count * precision_c
    spacing = math.ldexp(1.0, -nc)
    bit = 1 << projector.yes_qubit

    def tally(group_list):
        parts = [pathsum._count_bucket([p], nc) for p in group_list]
        return sum(p for p, _, _ in parts), sum(q for _, q, _ in parts)

    yes_pos, yes_neg = tally([p for z, p in groups if projector.kind == "yn" or z & bit])
    tot_pos, tot_neg = tally([p for _, p in groups])
    yes_est = (yes_pos - yes_neg) * spacing
    total_est = (tot_pos - tot_neg) * spacing
    if projector.kind == "yn":
        yes_sq, no_sq = total_est, 0.0
    else:
        yes_sq, no_sq = yes_est, max(total_est - yes_est, 0.0)
    path_count = sum(len(p) ** 2 for _, p in groups)
    return pathsum.PathSumResult(
        "counting",
        yes_sq,
        no_sq,
        pathsum._acceptance(yes_sq, no_sq),
        path_count,
        precision_c=precision_c,
        error_bound=path_count * spacing,
    )


@pytest.mark.parametrize("projector", [Projector("yes", 2), Projector("yn")], ids=["yes", "yn"])
def test_counting_single_pass_matches_two_pass(projector):
    circ = Circuit(
        3,
        (H0, Gate("H", (1,)), Gate("CCNOT", (0, 1, 2)), Gate("G", (2,), 2.0), Gate("H", (2,)), H0),
    )
    fixed = pathsum.counting_estimate(circ, 0, projector, precision_c=12)
    assert fixed == _counting_two_pass(circ, 0, projector, 12)
    adaptive = pathsum.counting_estimate(circ, 0, projector)
    assert adaptive == _counting_two_pass(circ, 0, projector, adaptive.precision_c)


# ---------------------------------------------------------------------------
# result serialization
# ---------------------------------------------------------------------------


def test_result_json_omits_counting_fields_when_absent():
    direct = pathsum.direct_amplitude(HGH, 0, YES0).to_json_dict()
    assert set(direct) == {"method", "c_yes_sq", "c_no_sq", "acceptance", "path_count"}
    counting = pathsum.counting_estimate(HGH, 0, YES0).to_json_dict()
    assert {"precision_c", "error_bound"} <= set(counting)


# ---------------------------------------------------------------------------
# cross-module check against the decision pipeline
# ---------------------------------------------------------------------------


def test_acceptance_matches_majsat_postselection():
    formula = cnf.CnfFormula(num_vars=2, clauses=((1,), (2,)))
    config = majsat.default_config(2, r=4, r_prime=4)
    plan = majsat.plan(formula, config)
    report = majsat.run_exact(plan)
    discarded = next(e for e in report.per_i if e["i"] == 0)["discarded_mass"]

    gates = (
        plan.superposition_circuit.gates
        + plan.oracle.circuit.gates
        + plan.amplification_circuit.gates
        + (Gate("H", (plan.layout.bhr,)),)  # alpha = beta preparation
        + plan.readout_circuit.gates
    )
    circ = Circuit(plan.qubit_count, gates)
    proj = Projector("yes", plan.layout.oracle)

    direct = pathsum.direct_amplitude(circ, plan.initial_bits, proj)
    assert abs(direct.acceptance - (1.0 - discarded)) <= 1e-9

    summed = pathsum.path_sum_amplitude(circ, plan.initial_bits, proj)
    assert abs(summed.acceptance - direct.acceptance) <= 1e-9
    assert summed.path_count > 0
