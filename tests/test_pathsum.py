"""Acceptance quantities three ways: direct, path enumeration, counting."""
from __future__ import annotations

import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_bucket, forward_paths, frontier_paths
from rnqc import cli, cnf, majsat, pathsum, sim
from rnqc.circuit import KINDS, Circuit, Gate, circuit_to_json
from rnqc.errors import (
    CircuitError,
    GridSpacingError,
    InputError,
    InvariantError,
    NormOverflowError,
    PathBudgetError,
)
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
    amps = sim.amplitudes(state)
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


def test_forward_paths_come_in_trail_order():
    # the walk lists each endpoint's path values in the sorted order of the
    # paths' basis-state trails; one step of a trail is the one-gate walk
    circ = Circuit(
        2, (H0, Gate("H", (1,)), Gate("CNOT", (0, 1)), H0, Gate("G", (1,), 3.0), Gate("H", (1,)))
    )
    trails = [((0,), 1.0 + 0.0j)]
    for g in circ.gates:
        trails = [
            (t + (nz,), v * f)
            for t, v in trails
            for nz, factors in frontier_paths(Circuit(2, (g,)), t[-1]).items()
            for f in factors
            if v * f != 0
        ]
    expected: dict = {}
    for t, v in sorted(trails, key=lambda tv: tv[0]):
        expected.setdefault(t[-1], []).append(v)
    got = frontier_paths(circ, 0, 10**6)
    assert list(got) == sorted(expected)
    assert got == expected


def test_pathsum_budget_guard():
    circ = Circuit(1, (H0,) * 20)
    with pytest.raises(PathBudgetError):
        pathsum.path_sum_amplitude(circ, 0, YES0, budget=16)


@pytest.mark.parametrize("k", [3, 17])
def test_budget_boundary_is_the_forward_count(k):
    # 2^k forward paths fit a budget of 4^k pairs and not one pair fewer;
    # at k = 17 the walk splits its frontier into chunks
    circ = Circuit(k, tuple(Gate("H", (q,)) for q in range(k)))
    res = pathsum.path_sum_amplitude(circ, 0, YN, budget=4**k)
    assert res.path_count == 2**k
    assert abs(res.c_yes_sq - 1.0) <= 1e-12
    with pytest.raises(PathBudgetError):
        pathsum.path_sum_amplitude(circ, 0, YN, budget=4**k - 1)
    with pytest.raises(PathBudgetError):
        pathsum.counting_estimate(circ, 0, YN, budget=4**k - 1)


@pytest.mark.parametrize("budget", [-1, 0])
def test_pathsum_budget_below_one_is_input_error(budget):
    with pytest.raises(InputError):
        pathsum.path_sum_amplitude(Circuit(1, (H0,)), 0, YES0, budget=budget)


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
# the frontier walk and batched counts against the Python DFS and pair loop
# (tests/conftest.py): bit for bit, compared as hex
# ---------------------------------------------------------------------------

PARAMS = (0.5, 1.5, 3.0, 2.0**500, 2.0**-500, 1.7 * 2.0**499)  # the extremes over- and underflow


def _hexed(paths: dict) -> dict:
    return {z: [(v.real.hex(), v.imag.hex()) for v in values] for z, values in paths.items()}


@st.composite
def _circuits(draw):
    n = draw(st.integers(1, 4))
    least = {"CNOT": 2, "CG": 2, "NCNOT": 2, "CCNOT": 3}
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from([k for k in KINDS if least.get(k, 1) <= n]))
        arity = draw(st.integers(2, n)) if kind == "NCNOT" else least.get(kind, 1)
        qubits = tuple(draw(st.permutations(range(n)))[:arity])
        gates.append(Gate(kind, qubits, draw(st.sampled_from(PARAMS)) if kind in ("G", "CG") else None))
    return Circuit(n, tuple(gates)), draw(st.integers(0, (1 << n) - 1)), draw(st.integers(0, n - 1))


def _pathsum_by_loop(circuit, start, bit):
    """path_sum_amplitude's (yes, no) bucket sums, endpoint by endpoint."""
    yes = no = 0.0 + 0.0j
    for z, paths in forward_paths(circuit, start, 10**8).items():
        amp = 0.0 + 0.0j
        for v in paths:
            amp += v
        if z & bit:
            yes += amp * amp.conjugate()
        else:
            no += amp * amp.conjugate()
    return yes, no


@settings(max_examples=100, deadline=None)
@given(
    case=_circuits(),
    chunk=st.sampled_from([1 << 16, 4]),
    ncs=st.tuples(st.integers(1, 52), st.integers(990, 1074)),
)
def test_frontier_matches_python_dfs(case, chunk, ncs):
    circuit, start, yes_qubit = case
    want = forward_paths(circuit, start, 10**8)
    with mock.patch.object(pathsum, "_CHUNK", chunk), np.errstate(all="ignore"):
        assert _hexed(frontier_paths(circuit, start)) == _hexed(want)
        ends, groups = pathsum._forward_paths(circuit, start, 10**8)
        for nc in ncs:
            for z, values in want.items():
                try:
                    ref = count_bucket(values, nc)
                except OverflowError:  # an infinite product has no integer floor
                    with pytest.raises(NormOverflowError):
                        pathsum._count_pairs(groups, ends == z, nc)
                    continue
                pos, neg, residue, scale = pathsum._count_pairs(groups, ends == z, nc)
                assert (pos, neg) == ref[:2]
                if math.isfinite(ref[2]):  # within counting_estimate's bound for one endpoint
                    m = len(values) ** 2 + 3
                    assert abs(residue) <= 2 * m * 2.0**-53 * scale + m * 2.0**-1074
                else:  # inf and NaN terms sum alike in any order
                    assert repr(residue) == repr(ref[2])
        yes, no = _pathsum_by_loop(circuit, start, 1 << yes_qubit)
        if not (math.isfinite(yes.real) and math.isfinite(no.real)):
            with pytest.raises(NormOverflowError):
                pathsum.path_sum_amplitude(circuit, start, Projector("yes", yes_qubit))
            return
        res = pathsum.path_sum_amplitude(circuit, start, Projector("yes", yes_qubit))
    assert (res.c_yes_sq.hex(), res.c_no_sq.hex()) == (yes.real.hex(), no.real.hex())
    assert res.path_count == sum(len(p) ** 2 for p in want.values())


def test_underflowed_path_is_pruned():
    # after H, three G(2^500) take the 0-branch to 2^-1500 / sqrt(2), which
    # is zero in float64, so that path drops out; the 1-branch overflows
    # to inf and stays
    circ = Circuit(1, (H0,) + (Gate("G", (0,), 2.0**500),) * 3)
    got = frontier_paths(circ, 0)
    assert list(got) == [1]
    assert got[1][0].real == math.inf
    assert _hexed(got) == _hexed(forward_paths(circ, 0, 10**8))


def test_seventy_qubit_register_runs(tmp_path):
    # basis states past 2^63 are walked as Python integers
    gates = (Gate("H", (69,)), Gate("G", (69,), 2.0), Gate("CNOT", (69, 65)), Gate("T", (3,)), Gate("H", (64,)))
    circ = Circuit(70, gates)
    start = 1 << 68
    assert _hexed(frontier_paths(circ, start)) == _hexed(forward_paths(circ, start, 10**8))
    path, out = tmp_path / "wide.json", tmp_path / "wide.report.json"
    path.write_text(json.dumps(circuit_to_json(circ)))
    argv = ["pathsum", str(path), "--input", str(start), "--yes-qubit", "65"]
    assert cli.main(argv + ["--methods", "pathsum,counting", "--json", str(out)]) == 0
    res = {r["method"]: r for r in json.loads(out.read_text())["results"]}
    # qubit 69 ends at 2 / sqrt(2) when set (and flips 65), 1 / (2 sqrt(2)) when clear
    assert abs(res["pathsum"]["c_yes_sq"] - 2.0) <= 1e-12
    assert abs(res["pathsum"]["c_no_sq"] - 0.125) <= 1e-12
    assert res["pathsum"]["path_count"] == res["counting"]["path_count"] == 4
    assert abs(res["counting"]["c_yes_sq"] - res["pathsum"]["c_yes_sq"]) <= 1e-12


# ---------------------------------------------------------------------------
# threshold counts
# ---------------------------------------------------------------------------


def test_count_bucket_all_positive_has_empty_negative_side():
    ends, groups = pathsum._forward_paths(Circuit(1, (H0,)), 0, 10**6)
    for z in ends.tolist():
        pos, neg, im, _ = pathsum._count_pairs(groups, ends == z, 20)
        assert neg == 0
        assert pos > 0
        assert abs(im) < 1e-15


def _grid_count_reference(magnitude, nc):
    return min(math.floor(Fraction(magnitude) * (1 << nc)), (1 << (2 * nc)) + 1)


def test_grid_count_matches_rational_floor():
    rng = np.random.default_rng(17)
    tiny = 5e-324  # smallest subnormal
    values = [1.0, 0.5, 2.0**-20, 2.0**-1074, tiny * 3, 2.2250738585072014e-308, 1.0 - 2.0**-53]
    values += [float(v) for v in rng.random(200)]
    values += [float(math.ldexp(m, int(e))) for m, e in zip(rng.random(200), rng.integers(-1080, 4, 200))]
    for nc in (1, 2, 20, 31, 32, 52, 53, 64, 200, 1024, 1074):
        edges = [2.0**-nc, 3 * 2.0**-nc, (1 - 2.0**-53) * 2.0**-nc]
        if 2 * nc < 1000:  # at and past the clamp
            edges += [2.0**nc, 4.0**nc, 4.0**nc + 2.0**-nc, 4.0**nc * 3]
        terms = [v for v in values + edges if v > 0]
        for v in terms:
            assert pathsum._grid_total(np.array([v]), nc) == _grid_count_reference(v, nc), (v, nc)
        want = sum(_grid_count_reference(v, nc) for v in terms)
        assert pathsum._grid_total(np.array(terms), nc) == want, nc
    assert pathsum._grid_total(np.array([8.0]), 1) == 5, "clamped to the grid's point count"
    assert pathsum._grid_total(np.array([2.0**-1074]), 1024) == 0
    assert pathsum._grid_total(np.array([2.0**-1074]), 1074) == 1
    assert pathsum._grid_total(np.zeros(0), 1074) == 0


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


def test_counting_precision_below_one_is_refused():
    with pytest.raises(CircuitError, match=r"^precision_c must be at least 1$"):
        pathsum.counting_estimate(HGH, 0, YES0, precision_c=0)


def test_counting_mass_past_the_double_range_raises():
    # the two paths ending at |01> each carry 2^513 / (2 sqrt 2): every pair
    # product, 2^1023, is a double, their sum of 2^1025 is not
    g = (H0, Gate("G", (0,), 2.0**500), Gate("G", (0,), 2.0**13), Gate("CNOT", (0, 1)))
    circ = Circuit(2, g + (Gate("H", (1,)),) * 2)
    with pytest.raises(NormOverflowError, match=r"^squared counting mass overflows double precision$"):
        pathsum.counting_estimate(circ, 0, YES0)


def test_counting_finest_grid_is_2_to_minus_1074(tmp_path):
    # one path of value 2^-40, so 2^-80 counts 2^994 thresholds at nc = 1074
    tiny = Circuit(1, (Gate("G", (0,), 2.0**-40),))
    res = pathsum.counting_estimate(tiny, 1, YES0, precision_c=1074)
    assert res.c_yes_sq == 2.0**-80, "the term is exact on the finest grid"
    with pytest.raises(GridSpacingError):
        pathsum.counting_estimate(tiny, 1, YES0, precision_c=1075)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(circuit_to_json(tiny)))
    argv = ["pathsum", str(path), "--input", "1", "--methods", "counting"]
    assert cli.main(argv + ["--precision-c", "1074"]) == 0
    assert cli.main(argv + ["--precision-c", "1075"]) == 2


def _t_gain_circuit(p):
    # H0, H1, T0, CNOT(1,0), T1, H0, G0(2^p), H1, T0, H0: T gives the paths
    # imaginary parts, and G grows the masses, about 2^(2p), and with them
    # the rounding of the pair terms' imaginary parts
    kinds = [("H", (0,)), ("H", (1,)), ("T", (0,)), ("CNOT", (1, 0)), ("T", (1,)), ("H", (0,))]
    kinds += [("G", (0,)), ("H", (1,)), ("T", (0,)), ("H", (0,))]
    return Circuit(2, tuple(Gate(k, q, 2.0**p if k == "G" else None) for k, q in kinds))


@pytest.mark.parametrize("p", [10, 20, 30, 40])
def test_counting_residue_bound_grows_with_the_masses(p):
    # An absolute tolerance of 1e-9 read the residue 7.6e-6 at 2^20, 8.0 at
    # 2^30 and 8.4e6 at 2^40 as an invariant failure.
    circ = _t_gain_circuit(p)
    direct = pathsum.direct_amplitude(circ, 0, YES0)
    paths = pathsum.path_sum_amplitude(circ, 0, YES0)
    res = pathsum.counting_estimate(circ, 0, YES0)
    assert paths.c_yes_sq == pytest.approx(direct.c_yes_sq, rel=1e-14)
    # error_bound covers the grid, not the rounding of the pair products: at
    # 2^40 it is 3.4e-21, and counting sits one ulp (1.7e7) from direct
    for got, want in ((res.c_yes_sq, direct.c_yes_sq), (res.c_no_sq, direct.c_no_sq)):
        assert abs(got - want) <= res.error_bound + 2 * math.ulp(want)


def test_counting_residue_past_its_bound_raises(monkeypatch):
    circ = _t_gain_circuit(20)
    mass = pathsum.path_sum_amplitude(circ, 0, YN).c_yes_sq
    count_pairs = pathsum._count_pairs

    def pushed(groups, keep, nc):
        pos, neg, residue, scale = count_pairs(groups, keep, nc)
        return pos, neg, residue + 1e-9 * mass * int(keep.sum()), scale  # 161 per endpoint; the bound is below 0.19

    monkeypatch.setattr(pathsum, "_count_pairs", pushed)
    with pytest.raises(InvariantError, match="imaginary residue 3.220e[+]02 exceeds its rounding bound"):
        pathsum.counting_estimate(circ, 0, YES0)


def test_cli_pathsum_routes_agree_on_large_masses(tmp_path, capsys):
    path = tmp_path / "t_gain.json"
    path.write_text(json.dumps(circuit_to_json(_t_gain_circuit(20))))
    report = tmp_path / "report.json"
    assert cli.main(["pathsum", str(path), "--json", str(report)]) == 0
    assert capsys.readouterr().err == ""
    results = {r["method"]: r for r in json.loads(report.read_text())["results"]}
    assert results["direct"]["c_yes_sq"] == results["pathsum"]["c_yes_sq"] == 80509874945.53275
    assert abs(results["counting"]["c_yes_sq"] - 80509874945.53275) <= results["counting"]["error_bound"]


def _counting_two_pass(circuit, input_basis, projector, precision_c):
    """Reference tally: the yes groups in one pass, then every group again."""
    groups = list(forward_paths(circuit, input_basis, pathsum.DEFAULT_PATH_BUDGET).items())
    nc = circuit.qubit_count * precision_c
    spacing = math.ldexp(1.0, -nc)
    bit = 1 << projector.yes_qubit

    def tally(group_list):
        parts = [count_bucket(p, nc) for p in group_list]
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
