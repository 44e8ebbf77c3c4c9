"""Release gate: ten end-to-end checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""
from __future__ import annotations

import json
import random
import time

import numpy as np
import pytest

from rnqc import cli, cnf, majsat, oracle, pathsum, sim
from rnqc.circuit import (
    Circuit,
    Gate,
    gate_census,
    lower_cg,
    lower_to_primitive,
    propagate_basis,
)
from rnqc.errors import RealModeError
from rnqc.pathsum import Projector

PRIMITIVE_KINDS = {"H", "CCNOT", "G"}


def _line(num: int, label: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"[{status}] criterion {num}: {label}", flush=True)
    assert not problems, f"criterion {num}: " + "; ".join(problems[:8])


def _brute_count(formula: cnf.CnfFormula) -> int:
    # independent reference evaluator, deliberately not cnf.count_models
    def sat(assignment: int) -> bool:
        return all(
            any(((assignment >> (abs(lit) - 1)) & 1) == (1 if lit > 0 else 0) for lit in cl)
            for cl in formula.clauses
        )

    return sum(1 for m in range(1 << formula.num_vars) if sat(m))


def _tuned_plan(formula: cnf.CnfFormula, **overrides) -> majsat.MajsatPlan:
    n = formula.num_vars
    overrides.setdefault("r", 2 * n)
    overrides.setdefault("r_prime", 2 * n)
    return majsat.plan(formula, majsat.default_config(n, **overrides))


# ---------------------------------------------------------------------------


def test_criterion_01_oracle_exactness(corpus_mid):
    t0 = time.monotonic()
    problems = []
    if len(corpus_mid) != 40:
        problems.append(f"expected 40 corpus formulas with n <= 6, found {len(corpus_mid)}")
    for name, formula in corpus_mid:
        artifact = oracle.build_oracle(cnf.to_3cnf(formula))
        report = oracle.verify_oracle(artifact, formula)
        if not report.ok:
            problems.append(
                f"{name}: {len(report.mismatches)} mismatches, "
                f"{len(report.scratch_violations)} scratch violations"
            )
    elapsed = time.monotonic() - t0
    if elapsed > 60:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _line(1, "oracles agree with direct evaluation on every corpus formula", problems)


def test_criterion_02_width_conversion_preserves_counts():
    t0 = time.monotonic()
    problems = []
    rnd = random.Random(20260819)
    for trial in range(200):
        n = rnd.randint(1, 10)
        clauses = []
        for _ in range(rnd.randint(1, 6)):
            width = rnd.randint(1, min(5, n))
            chosen = rnd.sample(range(1, n + 1), width)
            clauses.append(tuple(v if rnd.random() < 0.5 else -v for v in chosen))
        formula = cnf.CnfFormula(n, tuple(clauses))
        before = cnf.count_models(formula)
        after = cnf.count_models(cnf.to_3cnf(formula).base)
        if before != after:
            problems.append(f"trial {trial}: count {before} became {after}")
    elapsed = time.monotonic() - t0
    if elapsed > 60:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _line(2, "clause-width conversion preserves model counts exactly", problems)


def test_criterion_03_lowering_equivalence(corpus_small):
    problems = []

    # X via doubly-controlled NOT on two held-one qubits
    lowered = lower_to_primitive(Circuit(1, (Gate("X", (0,)),)))
    ones = lowered.layout.initial_one_bits()
    for b in (0, 1):
        got = propagate_basis(lowered.gates, b | ones)
        if got != (b ^ 1) | ones:
            problems.append(f"X lowering wrong on input {b}")

    # Z as a Hadamard-conjugated X: diagonal (1, -1) on the original qubit
    zlow = lower_to_primitive(Circuit(1, (Gate("Z", (0,)),)))
    zones = zlow.layout.initial_one_bits()
    for b in (0, 1):
        state = sim.new_state(zlow.qubit_count, b | zones)
        state = sim.apply_circuit(state, zlow)
        amps = sim.amplitudes(state) * 2.0**state.exponent
        want = np.zeros_like(amps)
        want[b | zones] = -1.0 if b else 1.0
        if np.max(np.abs(amps - want)) > 1e-12:
            problems.append(f"Z lowering wrong on input {b}")

    # multi-controlled NOT, exhaustive over control patterns, ancillas restored
    for k in range(2, 7):
        circ = Circuit(k + 1, (Gate("NCNOT", tuple(range(k)) + (k,)),))
        low = lower_to_primitive(circ)
        kones = low.layout.initial_one_bits()
        bad = 0
        for pattern in range(1 << k):
            for t in (0, 1):
                start = pattern | (t << k) | kones
                want = start ^ (1 << k) if pattern == (1 << k) - 1 else start
                if propagate_basis(low.gates, start) != want:
                    bad += 1
        if bad:
            problems.append(f"{k}-control NOT wrong on {bad} inputs")
        if not gate_census(low).is_primitive:
            problems.append(f"{k}-control NOT lowering not primitive")

    # controlled gain: matrix equality against diag(1, 1, 1/g, g)
    for g in (0.5, 2.0, 3.0):
        low = lower_cg(Circuit(2, (Gate("CG", (1, 0), g),)))
        matrix = np.zeros((4, 4))
        for col in range(4):
            state = sim.apply_circuit(sim.new_state(2, col), low)
            matrix[:, col] = sim.amplitudes(state) * 2.0**state.exponent
        if np.max(np.abs(matrix - np.diag([1.0, 1.0, 1.0 / g, g]))) > 1e-12:
            problems.append(f"controlled-gain lowering wrong for g={g}")

    # a fully lowered decision pipeline uses only the primitive set
    for name, formula in corpus_small[:2]:
        plan = _tuned_plan(formula, lowering="primitive")
        for stage_name, stage in (
            ("superposition", plan.superposition_circuit),
            ("oracle", plan.oracle.circuit),
            ("amplification", plan.amplification_circuit),
            ("readout", plan.readout_circuit),
        ):
            census = gate_census(stage)
            if not set(census.counts) <= PRIMITIVE_KINDS:
                problems.append(f"{name} {stage_name} stage uses {sorted(census.counts)}")

    _line(3, "gate lowerings are exact and land in the primitive set", problems)


def test_criterion_04_amplification_fidelity(corpus_mid):
    problems = []
    for name, formula in corpus_mid:
        plan = _tuned_plan(formula)
        profile = majsat.amplification_fidelity_profile(plan)
        rounds = [r for r, _ in profile]
        fids = [f for _, f in profile]
        if rounds != list(range(1, 2 * formula.num_vars + 1)):
            problems.append(f"{name}: profile rounds {rounds[:3]}...{rounds[-1:]}")
            continue
        if fids[-1] < 0.999:
            problems.append(f"{name}: fidelity {fids[-1]:.6f} at r=2n")
        if any(fids[j + 1] < fids[j] - 1e-12 for j in range(len(fids) - 1)):
            problems.append(f"{name}: fidelity profile not nondecreasing")
    _line(4, "amplified states reach 0.999 fidelity, nondecreasing in rounds", problems)


def test_criterion_05_readout_fidelity(corpus_mid):
    problems = []
    for name, formula in corpus_mid:
        n = formula.num_vars
        grid = majsat.readout_fidelity_grid(_tuned_plan(formula))
        if sorted(grid) != list(range(-n, n + 1)):
            problems.append(f"{name}: grid keys {sorted(grid)}")
            continue
        worst = min(grid.values())
        if worst < 0.999:
            problems.append(f"{name}: readout fidelity {worst:.6f}")
    _line(5, "readout qubit matches its closed form across the weight grid", problems)


def test_criterion_06_exact_verdicts(corpus):
    t0 = time.monotonic()
    problems = []
    ties = 0
    for name, formula in corpus:
        n = formula.num_vars
        s = _brute_count(formula)
        truth = "YES" if s > (1 << n) // 2 else "NO"
        if s == (1 << n) // 2:
            ties += 1
        report = majsat.run_exact(_tuned_plan(formula))
        if report.verdict != truth:
            problems.append(f"{name}: verdict {report.verdict}, truth {truth} (s={s})")
    if ties == 0:
        problems.append("corpus contains no tie instance")
    elapsed = time.monotonic() - t0
    if elapsed > 600:
        problems.append(f"took {elapsed:.1f}s, budget 600s")
    _line(6, "exact verdicts match brute force on all corpus instances", problems)


def test_criterion_07_sampled_robustness(corpus_small):
    problems = []
    total = matches = 0
    mismatches = []
    for name, formula in corpus_small:
        plan = _tuned_plan(formula)
        exact = majsat.run_exact(plan).verdict
        for seed in range(20):
            total += 1
            if majsat.run_sampled(plan, seed=seed).verdict == exact:
                matches += 1
            else:
                mismatches.append((name, formula, exact, seed))
    if total == 0 or matches / total < 0.95:
        problems.append(f"only {matches}/{total} sampled runs matched")
    for name, formula, exact, seed in mismatches:
        n = formula.num_vars
        boosted = _tuned_plan(formula, runs_per_set=4 * 8 * n)
        if majsat.run_sampled(boosted, seed=seed).verdict != exact:
            problems.append(f"{name} seed {seed} still wrong at 4x runs")
    _line(7, "sampled verdicts track exact in 95 percent of runs, all converge at 4x", problems)


def test_criterion_08_three_route_agreement():
    t0 = time.monotonic()
    problems = []
    rng = np.random.default_rng(4242)
    names = ["H", "X", "Z", "T", "CNOT", "CCNOT", "G", "CG"]
    for trial in range(100):
        nq = int(rng.integers(1, 5))
        gates = []
        for _ in range(int(rng.integers(1, 7))):
            nm = names[int(rng.integers(len(names)))]
            if nm in ("H", "X", "Z", "T", "G"):
                qs = (int(rng.integers(nq)),)
            elif nm in ("CNOT", "CG"):
                if nq < 2:
                    nm, qs = "H", (int(rng.integers(nq)),)
                else:
                    qs = tuple(int(q) for q in rng.choice(nq, 2, replace=False))
            else:
                if nq < 3:
                    nm, qs = "X", (int(rng.integers(nq)),)
                else:
                    qs = tuple(int(q) for q in rng.choice(nq, 3, replace=False))
            param = float(rng.choice([0.5, 2.0, 3.0])) if nm in ("G", "CG") else None
            gates.append(Gate(nm, qs, param))
        circ = Circuit(nq, tuple(gates))
        basis = int(rng.integers(1 << nq))
        yes_qubit = int(rng.integers(nq))
        proj = Projector("yes", yes_qubit)

        direct = pathsum.direct_amplitude(circ, basis, proj)
        summed = pathsum.path_sum_amplitude(circ, basis, proj)
        counted = pathsum.counting_estimate(circ, basis, proj)

        if (
            abs(summed.c_yes_sq - direct.c_yes_sq) > 1e-9
            or abs(summed.c_no_sq - direct.c_no_sq) > 1e-9
        ):
            problems.append(f"trial {trial}: path sum disagrees with direct")
        if abs(counted.c_yes_sq - direct.c_yes_sq) > counted.error_bound:
            problems.append(f"trial {trial}: counting estimate outside its bound")
        if counted.error_bound >= 1e-6:
            problems.append(f"trial {trial}: adaptive bound {counted.error_bound:.2e}")
        if not any(g.kind in ("G", "CG") for g in gates):
            total = pathsum.path_sum_amplitude(circ, basis, Projector("yn"))
            if abs(total.c_yes_sq - 1.0) > 1e-9:
                problems.append(f"trial {trial}: unitary total mass {total.c_yes_sq}")

        state = sim.apply_circuit(sim.new_state(nq, basis, mode="complex"), circ)
        p_one = sim.probabilities_z(state, yes_qubit)[1]
        if abs(summed.acceptance - p_one) > 1e-9:
            problems.append(f"trial {trial}: acceptance differs from postselection")
    elapsed = time.monotonic() - t0
    if elapsed > 300:
        problems.append(f"took {elapsed:.1f}s, budget 300s")
    _line(8, "direct, path-sum, and counting routes agree on random circuits", problems)


def test_criterion_09_structural_realness():
    problems = []
    formula = cnf.CnfFormula(3, ((1, 2), (-3,)))
    for lowering in ("semantic", "primitive"):
        plan = _tuned_plan(formula, lowering=lowering)
        state = sim.new_state(plan.qubit_count, plan.initial_bits, mode="real")
        stages = (
            plan.superposition_circuit.gates
            + plan.oracle.circuit.gates
            + plan.amplification_circuit.gates
        )
        for g in stages:
            state = sim.apply_gate(state, g)
            if state.amps.dtype != np.float64 or np.iscomplexobj(state.amps):
                problems.append(f"{lowering}: complex storage after {g.kind}")
                break
        state = sim.prepare_superposed_qubit(state, plan.layout.bhr, 1.0, 2.0)
        for g in plan.readout_circuit.gates:
            state = sim.apply_gate(state, g)
        if state.amps.dtype != np.float64:
            problems.append(f"{lowering}: readout left dtype {state.amps.dtype}")
        _, kept = sim.postselect(state, plan.layout.oracle, 1)
        if kept.amps.dtype != np.float64:
            problems.append(f"{lowering}: postselection left dtype {kept.amps.dtype}")

    try:
        sim.apply_gate(sim.new_state(1, 0, mode="real"), Gate("T", (0,)))
        problems.append("T gate accepted in real mode")
    except RealModeError:
        pass
    try:
        lower_to_primitive(Circuit(1, (Gate("T", (0,)),)))
        problems.append("T gate accepted by the primitive lowering")
    except RealModeError:
        pass

    _line(9, "real mode never allocates imaginary parts and rejects T", problems)


def test_criterion_10_jobs_determinism(tmp_path):
    problems = []
    source = tmp_path / "instance.cnf"
    source.write_text("p cnf 3 1\n1 2 0\n")
    stamp = "2026-01-01T00:00:00Z"

    argv = ["solve", str(source), "--mode", "sampled", "--seed", "11", "--timestamp", stamp]
    one = tmp_path / "jobs1.json"
    eight = tmp_path / "jobs8.json"
    code1 = cli.main(argv + ["--jobs", "1", "--json", str(one)])
    code8 = cli.main(argv + ["--jobs", "8", "--json", str(eight)])
    if code1 not in (0, 1) or code8 not in (0, 1):
        problems.append(f"solver exit codes {code1}/{code8}")
    elif one.read_bytes() != eight.read_bytes():
        problems.append("sampled reports differ between --jobs 1 and --jobs 8")
    else:
        manifests = [json.loads(p.read_text())["manifest"] for p in (one, eight)]
        if manifests[0] != manifests[1]:
            problems.append("manifests differ despite pinned seed and timestamp")

    exact_argv = ["solve", str(source), "--timestamp", stamp]
    first = tmp_path / "exact1.json"
    second = tmp_path / "exact2.json"
    cli.main(exact_argv + ["--json", str(first)])
    cli.main(exact_argv + ["--json", str(second)])
    if first.read_bytes() != second.read_bytes():
        problems.append("exact reports differ between identical invocations")

    _line(10, "identical manifests give byte-identical reports across jobs", problems)
