"""Majority-SAT decision pipeline over the non-Hermitian gate set.

Given a CNF formula over n variables, determine whether more than half of
the 2^n assignments satisfy it. The circuit: superpose the work
register, run the oracle, mix every x-dependent qubit (work, defined
variables, clause flags) with H then X, and apply r rounds of
controlled scaling onto a non-Hermitian qubit so the all-ones component
dominates with the oracle qubit carrying (N-s)|0> + s|1>. A biased
helper qubit (BHR) prepared as (|0> + 2^i |1>)/sqrt(1+4^i) is then
CNOT-ed onto the Hadamard-rotated oracle qubit, the oracle branch is
boosted r' more times and kept only when it reads 1, and the sign of
the BHR x-basis bias decides: strictly more -1 than +1 probability at
some i in [i_min, i_max] means s > 2^(n-1).

Both modes share one readout sweep over i. Exact mode computes the
+-1 probabilities from the state vector. Sampled mode draws per-shot
outcomes with one RNG stream per (i, set, run) job, keyed by absolute
job index, so a seed fixes the report bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    RegisterLayout,
    _ancilla_requirements,
    lower_to_primitive,
)
from .cnf import COUNT_VAR_LIMIT, CnfFormula, ThreeCnf, count_models, to_3cnf
from .errors import InputError, PostselectError, RegisterCapError
from .oracle import OracleArtifact, build_oracle_gates, reduced_clauses
from .rng import make_stream
from . import sim

MODES = ("exact", "sampled")
LOWERINGS = ("semantic", "primitive")
ORIENTATIONS = ("boost", "literal")


def default_r(n: int, g: float, scale: float = 1.0) -> int:
    """Rounds of controlled scaling so g^r covers the 2^n work branches."""
    if g <= 1.0:
        raise InputError(f"scaling base must exceed 1, got {g}")
    return max(1, math.ceil(scale * n * math.log(2.0) / math.log(g)))


@dataclass(frozen=True)
class MajsatConfig:
    g: float
    r: int
    r_prime: int
    i_min: int
    i_max: int
    sets: int
    runs_per_set: int
    seed: int
    mode: str = "exact"
    lowering: str = "semantic"
    g_orientation: str = "boost"

    def __post_init__(self) -> None:
        if not (float(self.g) > 1.0 and math.isfinite(self.g)):
            raise InputError(f"g must be a finite real > 1, got {self.g}")
        if self.r < 1 or self.r_prime < 1:
            raise InputError("r and r_prime must be >= 1")
        if self.i_min > self.i_max:
            raise InputError(f"empty i range [{self.i_min}, {self.i_max}]")
        if self.sets < 1 or self.runs_per_set < 1:
            raise InputError("sets and runs_per_set must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise InputError("seed must fit in 64 bits")
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.lowering not in LOWERINGS:
            raise InputError(f"lowering must be one of {LOWERINGS}, got {self.lowering!r}")
        if self.g_orientation not in ORIENTATIONS:
            raise InputError(
                f"g_orientation must be one of {ORIENTATIONS}, got {self.g_orientation!r}"
            )

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "r": self.r,
            "r_prime": self.r_prime,
            "i_min": self.i_min,
            "i_max": self.i_max,
            "sets": self.sets,
            "runs_per_set": self.runs_per_set,
            "seed": self.seed,
            "mode": self.mode,
            "lowering": self.lowering,
            "g_orientation": self.g_orientation,
        }


def default_config(
    n: int,
    *,
    g: float = 2.0,
    r: int | None = None,
    r_prime: int | None = None,
    r_scale: float = 1.0,
    i_min: int | None = None,
    i_max: int | None = None,
    sets: int | None = None,
    runs_per_set: int | None = None,
    runs_factor: int = 8,
    seed: int = 0,
    mode: str = "exact",
    lowering: str = "semantic",
    g_orientation: str = "boost",
) -> MajsatConfig:
    """Config with the size-dependent defaults resolved for n variables."""
    if n < 1:
        raise InputError("majority decision needs at least one variable")
    r_default = default_r(n, g, r_scale)
    return MajsatConfig(
        g=float(g),
        r=r_default if r is None else int(r),
        r_prime=r_default if r_prime is None else int(r_prime),
        i_min=-n if i_min is None else int(i_min),
        i_max=n if i_max is None else int(i_max),
        sets=n if sets is None else int(sets),
        runs_per_set=runs_factor * n if runs_per_set is None else int(runs_per_set),
        seed=int(seed),
        mode=mode,
        lowering=lowering,
        g_orientation=g_orientation,
    )


@dataclass(frozen=True)
class MajsatPlan:
    formula: ThreeCnf
    source: CnfFormula
    layout: RegisterLayout
    oracle: OracleArtifact
    superposition_circuit: Circuit
    amplification_circuit: Circuit
    readout_circuit: Circuit
    config: MajsatConfig
    initial_bits: int
    # every x-dependent qubit: work, defined variables, clause flags
    mixed_qubits: tuple[int, ...]

    @property
    def qubit_count(self) -> int:
        return self.oracle.circuit.qubit_count


@dataclass(frozen=True)
class MajsatReport:
    source: CnfFormula
    n: int
    config: MajsatConfig
    per_i: tuple[dict, ...]
    verdict: str
    reference_s: int | None
    checkpoints: dict[str, float] | None
    discarded_mass: float
    low_confidence: bool = False

    def to_json_dict(self) -> dict:
        return {
            "formula": {
                "num_vars": self.source.num_vars,
                "clauses": [list(c) for c in self.source.clauses],
            },
            "n": self.n,
            "config": self.config.to_json_dict(),
            "per_i": list(self.per_i),
            "verdict": self.verdict,
            "reference_s": self.reference_s,
            "checkpoints": self.checkpoints,
            "discarded_mass": self.discarded_mass,
            "low_confidence": self.low_confidence,
        }


def _gain_rounds(controls: tuple[int, ...], nh: int, g: float, r: int) -> list[Gate]:
    """r rounds of controlled scaling: one CG per control onto qubit nh."""
    return [Gate("CG", (q, nh), g) for _ in range(r) for q in controls]


def _amplification_gates(
    mixed: tuple[int, ...], nh: int, g: float, r: int
) -> tuple[Gate, ...]:
    """H then X on every mixed qubit, then r gain rounds over them:
    len(mixed) * (r + 2) gates."""
    gates = [Gate("H", (q,)) for q in mixed]
    gates += [Gate("X", (q,)) for q in mixed]
    return tuple(gates + _gain_rounds(mixed, nh, g, r))


def _readout_gates(
    layout: RegisterLayout, g: float, r_prime: int, primitive: bool
) -> tuple[Gate, ...]:
    o, nh, bhr = layout.oracle, layout.non_hermitian, layout.bhr
    gates = [Gate("H", (o,))]
    if primitive:
        # CNOT realized as CCNOT against the dedicated always-one qubit.
        gates.append(Gate("CCNOT", (bhr, layout.helper_one, o)))
    else:
        gates.append(Gate("CNOT", (bhr, o)))
    gates += _gain_rounds((o,), nh, g, r_prime)
    return tuple(gates)


def plan(formula: CnfFormula, config: MajsatConfig) -> MajsatPlan:
    """Lay out the full register and assemble the stage circuits.

    Register order: work, defined variables, clause flags, oracle,
    non-Hermitian, BHR, then (primitive mode only) chain ancillas, two
    const-one qubits and the helper-one qubit. The non-Hermitian qubit
    starts in |1> under the default boost orientation so an active
    controlled scaling multiplies by g rather than 1/g; the literal
    orientation keeps it at |0> for comparison experiments.
    """
    f3 = to_3cnf(formula)
    n, a = f3.original_vars, f3.aux_vars
    p = len(reduced_clauses(f3))
    if n < 1:
        raise InputError("majority decision needs at least one variable")

    work = tuple(range(n))
    aux = tuple(range(n, n + a))
    clause = tuple(range(n + a, n + a + p))
    mixed = work + aux + clause
    oracle_q = n + a + p
    nh = oracle_q + 1
    bhr = oracle_q + 2
    base_count = bhr + 1

    sem_layout = RegisterLayout(
        work=work, aux=aux, clause=clause, oracle=oracle_q, non_hermitian=nh, bhr=bhr
    )
    oracle_gates = build_oracle_gates(f3, sem_layout)
    sup_gates = tuple(Gate("H", (q,)) for q in work)
    amp_gates = _amplification_gates(mixed, nh, config.g, config.r)

    if config.lowering == "semantic":
        layout = sem_layout
        qubit_count = base_count
        if qubit_count > sim.max_qubits():
            raise RegisterCapError(
                f"plan needs {qubit_count} qubits, cap is {sim.max_qubits()}"
            )
        read_gates = _readout_gates(layout, config.g, config.r_prime, primitive=False)
        oracle_circuit = Circuit(qubit_count, oracle_gates, layout)
        sup_circuit = Circuit(qubit_count, sup_gates, layout)
        amp_circuit = Circuit(qubit_count, amp_gates, layout)
        read_circuit = Circuit(qubit_count, read_gates, layout)
    else:
        chain_need, _ = _ancilla_requirements(oracle_gates + amp_gates)
        nq = base_count
        chain = tuple(range(nq, nq + chain_need))
        nq += chain_need
        const = (nq, nq + 1)
        nq += 2
        helper = nq
        nq += 1
        layout = RegisterLayout(
            work=work,
            aux=aux,
            clause=clause,
            chain_ancilla=chain,
            const_one=const,
            helper_one=helper,
            oracle=oracle_q,
            non_hermitian=nh,
            bhr=bhr,
        )
        qubit_count = nq
        if qubit_count > sim.max_qubits():
            raise RegisterCapError(
                f"lowered plan needs {qubit_count} qubits, cap is {sim.max_qubits()}"
            )
        read_gates = _readout_gates(layout, config.g, config.r_prime, primitive=True)
        oracle_circuit = lower_to_primitive(Circuit(qubit_count, oracle_gates, layout))
        sup_circuit = Circuit(qubit_count, sup_gates, layout)
        amp_circuit = lower_to_primitive(Circuit(qubit_count, amp_gates, layout))
        read_circuit = lower_to_primitive(Circuit(qubit_count, read_gates, layout))

    initial_bits = layout.initial_one_bits()
    if config.g_orientation == "boost":
        initial_bits |= 1 << nh

    artifact = OracleArtifact(circuit=oracle_circuit, layout=layout, clause_count=p)
    return MajsatPlan(
        formula=f3,
        source=formula,
        layout=layout,
        oracle=artifact,
        superposition_circuit=sup_circuit,
        amplification_circuit=amp_circuit,
        readout_circuit=read_circuit,
        config=config,
        initial_bits=initial_bits,
        mixed_qubits=mixed,
    )


def _amplified_state(p: MajsatPlan) -> sim.StateVector:
    st = sim.new_state(p.qubit_count, basis_index=p.initial_bits, mode="real")
    sim.apply_circuit(st, p.superposition_circuit.gates)
    sim.apply_circuit(st, p.oracle.circuit.gates)
    sim.apply_circuit(st, p.amplification_circuit.gates)
    return st


def _readout_split(p: MajsatPlan) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
    """Split the readout at the first gate touching the BHR qubit.

    The prefix is BHR-independent, so one shared state can absorb it
    before the per-i BHR preparation; the suffix is replayed per i.
    """
    gates = p.readout_circuit.gates
    for idx, g in enumerate(gates):
        if p.layout.bhr in g.qubits:
            return gates[:idx], gates[idx:]
    return gates, ()


def _readout_sweep(p: MajsatPlan, st: sim.StateVector, visit, zero_mass_ok: bool = False) -> list:
    """Run the readout for each i in the sweep; returns visit's results in i order.

    The BHR-independent readout prefix is applied once to the amplified
    state ``st``. Each i then gets its own copy, prepared with
    beta/alpha = 2^i, run through the suffix and postselected on the
    oracle qubit reading 1, and ``visit(i, kept probability, state)``
    reads it. A kept branch of zero mass raises PostselectError, or
    visits (i, 0.0, None) when zero_mass_ok is set.
    """
    cfg = p.config
    prefix, suffix = _readout_split(p)
    sim.apply_circuit(st, prefix)
    out = []
    for i in range(cfg.i_min, cfg.i_max + 1):
        branch = st.copy()
        sim.prepare_superposed_qubit(branch, p.layout.bhr, 1.0, math.ldexp(1.0, i))
        sim.apply_circuit(branch, suffix)
        try:
            prob1, post = sim.postselect(branch, p.layout.oracle, 1)
        except PostselectError:
            if not zero_mass_ok:
                raise
            prob1, post = 0.0, None
        out.append(visit(i, prob1, post))
        del branch, post  # free this copy before the next one is made
    return out


def _verdict(per_i) -> str:
    """Step rule: YES iff some i has every set successful."""
    return "YES" if any(e["all_sets_success"] for e in per_i) else "NO"


def _reference_count(p: MajsatPlan) -> int | None:
    if p.source.num_vars <= COUNT_VAR_LIMIT:
        return count_models(p.source)
    return None


def _amplified_target(p: MajsatPlan, s: int) -> sim.StateVector:
    """Predicted post-amplification state: mixed register saturated at
    all-ones, oracle carrying (N-s)|0> + s|1>, everything else parked."""
    n = p.formula.original_vars
    big_n = 1 << n
    base = p.initial_bits
    for q in p.mixed_qubits:
        base |= 1 << q
    amps = np.zeros(1 << p.qubit_count, dtype=np.float64)
    amps[base] = float(big_n - s)
    amps[base | (1 << p.layout.oracle)] = float(s)
    return sim.state_from_amplitudes(amps, mode="real")


def _readout_bhr_fidelity(p: MajsatPlan, post: sim.StateVector, s: int, i: int) -> float:
    """Fidelity of the postselected BHR qubit's reduced state against the
    closed form alpha(N-2s)|0> + beta N|1> with beta/alpha = 2^i."""
    big_n = 1 << p.formula.original_vars
    return sim.qubit_state_fidelity(
        post, p.layout.bhr, float(big_n - 2 * s), math.ldexp(float(big_n), i)
    )


def run_exact(p: MajsatPlan, checkpoints: bool = False) -> MajsatReport:
    """Sweep i over [i_min, i_max] with exactly computed probabilities.

    The oracle qubit is postselected on |1> (the discarded mass is
    reported) and success at a given i means strictly more -1 than +1
    probability for the BHR x-basis readout. The state through the
    amplification stage and the BHR-independent readout prefix is
    simulated once and reused across the sweep.
    """
    cfg = p.config
    s_ref = _reference_count(p)
    checks: dict[str, float] | None = None
    st = _amplified_state(p)
    if checkpoints:
        if s_ref is None:
            raise InputError("checkpoints need the brute-force count; formula too large")
        checks = {"amplification": sim.fidelity(st, _amplified_target(p, s_ref))}

    fid_grid: dict[int, float] = {}

    def visit(i: int, prob1: float, post: sim.StateVector) -> dict:
        p_plus, p_minus = sim.probabilities_x(post, p.layout.bhr)
        if checks is not None:
            fid_grid[i] = _readout_bhr_fidelity(p, post, s_ref, i)
        return {
            "i": i,
            "beta_over_alpha": math.ldexp(1.0, i),
            "exact_p_minus": p_minus,
            "exact_p_plus": p_plus,
            "discarded_mass": 1.0 - prob1,
            "all_sets_success": p_minus > p_plus,
        }

    per_i = _readout_sweep(p, st, visit)
    if checks is not None:
        checks["readout_min_over_i"] = min(fid_grid.values())
        if cfg.i_min <= 0 <= cfg.i_max:
            checks["readout_at_alpha_eq_beta"] = fid_grid[0]

    return MajsatReport(
        source=p.source,
        n=p.formula.original_vars,
        config=cfg,
        per_i=tuple(per_i),
        verdict=_verdict(per_i),
        reference_s=s_ref,
        checkpoints=checks,
        discarded_mass=max(e["discarded_mass"] for e in per_i),
    )


def run_sampled(p: MajsatPlan, seed: int | None = None) -> MajsatReport:
    """Shot-sampled sweep; one Philox stream per (i, set, run) job.

    Each shot draws a uniform for the oracle measurement (discarding on
    |0>, tallied) and, when kept, a second uniform for the BHR x-basis
    sign, reproducing the draw sequence of measuring a fresh state per
    run. Job streams are keyed by absolute job index, so the report is
    bit-identical across repeat invocations with the same seed.
    """
    cfg = p.config
    if seed is None:
        seed = cfg.seed

    def visit(i: int, prob1: float, post: sim.StateVector | None) -> dict:
        prob_minus_cond = sim.probabilities_x(post, p.layout.bhr)[1] if prob1 > 0.0 else 0.0
        i_idx = i - cfg.i_min
        set_results: list[dict] = []
        discarded = 0
        for set_idx in range(cfg.sets):
            minus = plus = 0
            for run in range(cfg.runs_per_set):
                job = (i_idx * cfg.sets + set_idx) * cfg.runs_per_set + run
                stream = make_stream(seed, job)
                u1 = stream.random()
                if u1 < prob1:
                    if stream.random() < prob_minus_cond:
                        minus += 1
                    else:
                        plus += 1
                else:
                    discarded += 1
            set_results.append(
                {"minus_count": minus, "plus_count": plus, "success": minus > plus}
            )
        return {
            "i": i,
            "beta_over_alpha": math.ldexp(1.0, i),
            "set_results": set_results,
            "discarded_shots": discarded,
            "all_sets_success": all(s["success"] for s in set_results),
        }

    records = _readout_sweep(p, _amplified_state(p), visit, zero_mass_ok=True)
    total_shots = len(records) * cfg.sets * cfg.runs_per_set
    total_discarded = sum(rec["discarded_shots"] for rec in records)
    if total_discarded == total_shots:
        raise PostselectError(
            "every shot was discarded at the oracle measurement; the kept "
            "branch carries negligible weight under this configuration"
        )

    margins = []
    for rec in records:
        margins.append(
            min(abs(s["minus_count"] - s["plus_count"]) for s in rec["set_results"])
        )
    low_confidence = max(margins) <= 1

    return MajsatReport(
        source=p.source,
        n=p.formula.original_vars,
        config=cfg,
        per_i=tuple(records),
        verdict=_verdict(records),
        reference_s=_reference_count(p),
        checkpoints=None,
        discarded_mass=total_discarded / total_shots,
        low_confidence=low_confidence,
    )


def run(p: MajsatPlan, checkpoints: bool = False) -> MajsatReport:
    if p.config.mode == "exact":
        return run_exact(p, checkpoints=checkpoints)
    return run_sampled(p)


def amplification_fidelity_profile(
    p: MajsatPlan, max_r: int | None = None
) -> list[tuple[int, float]]:
    """Fidelity of the amplified state against its prediction, per round.

    Applies the controlled-scaling blocks one round at a time on top of
    the mixed register, recording the fidelity after each, so the whole
    profile costs one simulation. Uses the semantic block structure
    regardless of the plan's lowering mode (the lowered blocks produce
    identical amplitudes).
    """
    s_ref = _reference_count(p)
    if s_ref is None:
        raise InputError("fidelity profile needs the brute-force count")
    rounds = p.config.r if max_r is None else int(max_r)
    target = _amplified_target(p, s_ref)

    st = sim.new_state(p.qubit_count, basis_index=p.initial_bits, mode="real")
    sim.apply_circuit(st, p.superposition_circuit.gates)
    sim.apply_circuit(st, p.oracle.circuit.gates)
    gates = _amplification_gates(p.mixed_qubits, p.layout.non_hermitian, p.config.g, rounds)
    width = len(p.mixed_qubits)
    sim.apply_circuit(st, gates[: 2 * width])
    out: list[tuple[int, float]] = []
    for r in range(1, rounds + 1):
        sim.apply_circuit(st, gates[(r + 1) * width : (r + 2) * width])
        out.append((r, sim.fidelity(st, target)))
    return out


def readout_fidelity_grid(p: MajsatPlan) -> dict[int, float]:
    """Fidelity of the postselected state against its closed-form
    prediction, for every i in the configured range."""
    s_ref = _reference_count(p)
    if s_ref is None:
        raise InputError("fidelity grid needs the brute-force count")
    pairs = _readout_sweep(
        p, _amplified_state(p), lambda i, _, post: (i, _readout_bhr_fidelity(p, post, s_ref, i))
    )
    return dict(pairs)
