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

Both modes read one readout sweep over i as one per-i table, through
one stacked sim.x_probabilities call, and _report alone forms the
verdict and the report. The readout is H on the
oracle qubit and then a monomial suffix on a few qubits (oracle,
non-Hermitian, BHR, and the constant-one qubits in primitive lowering).
The plan is simulated in one sim.apply_circuit call through that H, so
the H runs on the state's stored qubits. The suffix is a matrix A that
sends each local source to its output with its weight, so the sweep
reads one Gram matrix M of the state over those qubits and gets every i
from the one product A M A^T, without copying the state: it returns the
kept probability and the BHR's reduced matrix as arrays with one row per
i. Exact mode reports the +-1 probabilities. Sampled mode draws per-shot
outcomes with one RNG stream per (i, set, run) job, keyed by absolute
job index, so a seed fixes the report bit for bit. A shot needs only
the first Philox block of its stream, so the whole sweep's shots are
drawn in batches by rng.first_uniforms; rng.make_stream, which draws
the same numbers one job at a time, is the tests' reference.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .circuit import Circuit, Gate, RegisterLayout, lower_to_primitive, primitive_register
from .cnf import COUNT_VAR_LIMIT, CnfFormula, ThreeCnf, count_models, to_3cnf
from .errors import InputError, PostselectError, RegisterCapError, ResourceError
from .oracle import OracleArtifact, build_oracle
from .rng import first_uniforms
from . import sim

MODES = ("exact", "sampled")
LOWERINGS = ("semantic", "primitive")
ORIENTATIONS = ("boost", "literal")
SAMPLE_BLOCK = 1 << 16  # jobs whose uniforms run_sampled draws at once


def default_r(n: int, g: float, scale: float = 1.0) -> int:
    """Rounds of controlled scaling so g^r covers the 2^n work branches."""
    if not (math.isfinite(g) and g > 1.0):
        raise InputError(f"scaling base must be finite and exceed 1, got {g}")
    if not (math.isfinite(scale) and scale > 0.0):
        raise InputError(f"r scale must be finite and positive, got {scale}")
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
        if self.i_max > 1023:
            raise InputError(f"i_max must be at most 1023 (2^1024 overflows a double), got {self.i_max}")
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
        return asdict(self)


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
        runs_per_set=8 * n if runs_per_set is None else int(runs_per_set),
        seed=int(seed),
        mode=mode,
        lowering=lowering,
        g_orientation=g_orientation,
    )


@dataclass(frozen=True)
class MajsatPlan:
    """The four stage circuits on one register; the oracle circuit's
    layout is the plan's only record of that register."""

    formula: ThreeCnf
    source: CnfFormula
    oracle: OracleArtifact
    superposition_circuit: Circuit
    amplification_circuit: Circuit
    readout_circuit: Circuit
    config: MajsatConfig

    @property
    def layout(self) -> RegisterLayout:
        return self.oracle.circuit.layout

    @property
    def qubit_count(self) -> int:
        return self.oracle.circuit.qubit_count

    @property
    def mixed_qubits(self) -> tuple[int, ...]:
        """Every x-dependent qubit: work, defined variables, clause flags."""
        return tuple(range(self.layout.oracle))

    @property
    def initial_bits(self) -> int:
        """The basis state every stage starts from: const-one qubits at |1>,
        and the non-Hermitian qubit too under the boost orientation."""
        bits = self.layout.initial_one_bits()
        if self.config.g_orientation == "boost":
            bits |= 1 << self.layout.non_hermitian
        return bits


@dataclass(frozen=True)
class MajsatReport:
    source: CnfFormula
    n: int
    config: MajsatConfig
    per_i: tuple[dict, ...]
    verdict: str
    reference_s: int | None
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
            "checkpoints": None,  # solve_report.schema.json requires the key
            "discarded_mass": self.discarded_mass,
            "low_confidence": self.low_confidence,
        }


def _gain_rounds(controls: tuple[int, ...], nh: int, g: float, r: int) -> list[Gate]:
    """r rounds of controlled scaling: one CG per control onto qubit nh."""
    return [Gate("CG", (q, nh), g) for q in controls] * r


def _amplification_gates(
    mixed: tuple[int, ...], nh: int, g: float, r: int
) -> tuple[Gate, ...]:
    """H then X on every mixed qubit, then r gain rounds over them:
    len(mixed) * (r + 2) gates."""
    gates = [Gate("H", (q,)) for q in mixed]
    gates += [Gate("X", (q,)) for q in mixed]
    return tuple(gates + _gain_rounds(mixed, nh, g, r))


def _readout_gates(layout: RegisterLayout, g: float, r_prime: int) -> tuple[Gate, ...]:
    o, nh, bhr = layout.oracle, layout.non_hermitian, layout.bhr
    return (Gate("H", (o,)), Gate("CNOT", (bhr, o))) + tuple(_gain_rounds((o,), nh, g, r_prime))


def check_register(n: int) -> None:
    """Raise RegisterCapError when no plan over n variables fits the
    register cap: a plan holds the n work qubits and the oracle,
    non-Hermitian and BHR qubits, so at least n + 3. plan checks its exact
    count; this runs before anything is built or configured."""
    if n + 3 > sim.max_qubits():
        raise RegisterCapError(f"a plan over {n} variables needs at least {n + 3} qubits, cap is {sim.max_qubits()}")


def plan(formula: CnfFormula, config: MajsatConfig) -> MajsatPlan:
    """Extend the oracle's register and assemble the stage circuits.

    oracle.build_oracle lays out work, defined variables, clause flags
    and the oracle qubit; the non-Hermitian qubit and the BHR follow it,
    then (primitive mode only) the chain ancillas and two const-one
    qubits that circuit.primitive_register appends for all four stages
    at once. Each stage is built over that register and, in primitive
    mode, lowered. The non-Hermitian qubit starts in |1> under the
    default boost orientation so an active controlled scaling multiplies
    by g rather than 1/g; the literal orientation keeps it at |0> for
    comparison experiments (MajsatPlan.initial_bits).
    """
    f3 = to_3cnf(formula)
    if f3.original_vars < 1:
        raise InputError("majority decision needs at least one variable")
    oracle_circuit = build_oracle(f3).circuit
    o = oracle_circuit.layout.oracle
    layout = replace(oracle_circuit.layout, non_hermitian=o + 1, bhr=o + 2)
    # The stages' semantic gates; lowering only adds gates, and listing
    # one takes at least a reference, 8 bytes.
    gates = len(layout.work) + len(oracle_circuit.gates) + o * (config.r + 2) + 2 + config.r_prime
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * gates > memory:
        raise ResourceError(f"plan needs at least {gates} gates; at 8 bytes each they pass this machine's {memory} bytes of memory")
    stages = (
        tuple(Gate("H", (q,)) for q in layout.work),
        oracle_circuit.gates,
        _amplification_gates(tuple(range(o)), layout.non_hermitian, config.g, config.r),
        _readout_gates(layout, config.g, config.r_prime),
    )
    qubit_count = o + 3
    if config.lowering == "primitive":
        grown = primitive_register(Circuit(qubit_count, sum(stages, ()), layout))
        qubit_count, layout = grown.qubit_count, grown.layout
    if qubit_count > sim.max_qubits():
        raise RegisterCapError(f"plan needs {qubit_count} qubits, cap is {sim.max_qubits()}")
    circuits = [Circuit(qubit_count, gates, layout) for gates in stages]
    if config.lowering == "primitive":
        circuits = [lower_to_primitive(c) for c in circuits]
    sup_circuit, oracle_circuit, amp_circuit, read_circuit = circuits
    return MajsatPlan(
        formula=f3,
        source=formula,
        oracle=OracleArtifact(circuit=oracle_circuit),
        superposition_circuit=sup_circuit,
        amplification_circuit=amp_circuit,
        readout_circuit=read_circuit,
        config=config,
    )


def _amplified_state(p: MajsatPlan, more: tuple[Gate, ...] = (), upto: int | None = None) -> sim.StateVector:
    """The plan's start state through the superposition and oracle stages,
    the amplification stage's first upto gates (all by default) and then
    the gates of more, in one simulation call, so the sparse prefix scans
    the support once and every dense step after it runs on the qubits the
    state stores."""
    st = sim.new_state(p.qubit_count, basis_index=p.initial_bits, mode="real")
    gates = p.superposition_circuit.gates + p.oracle.circuit.gates + p.amplification_circuit.gates[:upto]
    return sim.apply_circuit(st, gates + more)


def _readout_sweep(p: MajsatPlan) -> tuple[np.ndarray, np.ndarray]:
    """The readout at every i of the sweep: (prob1, rho), one row per i.

    prob1[i] is the probability that the oracle qubit reads 1, and rho[i]
    the BHR's unnormalized 2x2 reduced matrix on that kept branch. The
    plan is simulated once, in one call, through the readout's first gate,
    H on the oracle qubit, to a state ``st``. The H stays on the state:
    moved onto the Gram matrix (H M H) it cancels, and put n6_near_no 44
    ulp from the frozen probabilities, where H on the state is 1.13 ulp
    from an exact readout. The rest is monomial on its qubits L, the BHR
    among them: local basis state x goes to dest[x] with weight w[x] 2^e[x].
    So one Gram matrix M of ``st`` over L (M[x, y] = sum over the other
    qubits of psi(., x) psi(., y)) fixes every i, and ``st`` is never
    copied. The BHR starts in |0>, so source x draws on M's row x with the
    BHR bit cleared: A[dest[x], x & ~bhr] = w[x] 2^(e[x] - h) sends the
    sources to the outputs, and output y carries c[y], the one of
    (c0, c1) = (1, 2^i) normalized that its source's BHR bit picks. The
    outputs' Gram matrix is diag(c) A M A^T diag(c), and rho is its
    partial trace over the kept outputs, whose oracle bit is 1.

    4^h bounds the largest live term w^2 4^e M[x, x], so no entry of
    A M A^T passes 1 and weights like g^r' cannot overflow. A dead source
    (zero mass) keeps a zero column: its e may overflow ldexp, and
    inf * 0 is NaN. A kept branch below sim.ZERO_MASS on that scale
    counts as zero mass, the rule sim.postselect applies to a state
    vector: its prob1 and rho are zero.
    """
    cfg, lay = p.config, p.layout
    suffix = p.readout_circuit.gates[1:]
    st = _amplified_state(p, p.readout_circuit.gates[:1])
    local = sorted({q for g in suffix for q in g.qubits} | {lay.bhr})
    gram, _ = sim.gram(st, local)
    dest, w, e = sim.monomial_map(suffix, local)

    x = np.arange(len(dest))
    bhr, oracle = 1 << local.index(lay.bhr), 1 << local.index(lay.oracle)
    if np.any(np.diag(gram)[(x & bhr) != 0]):
        raise InputError(f"qubit {lay.bhr} is not in a definite |0> state")
    src = x & ~bhr
    mass = np.diag(gram)[src]
    live = mass > 0.0
    h = -(-int(np.max(2 * e[live] + np.frexp(mass[live])[1])) // 2)
    a = np.zeros_like(gram)
    a[dest[live], src[live]] = np.ldexp(w[live], e[live] - h)
    ama = a @ gram @ a.T
    weighed = np.diag(ama)  # each output's mass, before its BHR coefficient
    c_bit = np.empty_like(dest)
    c_bit[dest] = (x & bhr) != 0  # which of (c0, c1) output y carries

    betas = [math.ldexp(1.0, i) for i in range(cfg.i_min, cfg.i_max + 1)]
    c = (np.array([(1.0, b) for b in betas]) / np.array([[math.hypot(1.0, b)] for b in betas]))[:, c_bit]
    y = x[((x & oracle) != 0) & ((x & bhr) == 0)]  # the kept outputs with BHR bit 0
    rho = np.empty((len(betas), 2, 2))
    rho[:, 0, 0] = c[:, y] ** 2 @ weighed[y]
    rho[:, 1, 1] = c[:, y | bhr] ** 2 @ weighed[y | bhr]
    rho[:, 0, 1] = rho[:, 1, 0] = (c[:, y] * c[:, y | bhr]) @ ama[y, y | bhr]
    kept = rho[:, 0, 0] + rho[:, 1, 1]
    zero = kept < sim.ZERO_MASS
    rho[zero] = 0.0
    return np.divide(kept, c**2 @ weighed, out=np.zeros_like(kept), where=~zero), rho


def _kept_readout(p: MajsatPlan) -> tuple[np.ndarray, np.ndarray]:
    """The sweep's (prob1, rho), for the readouts that need a kept branch at every i."""
    prob1, rho = _readout_sweep(p)
    if not np.all(prob1 > 0.0):
        raise PostselectError(f"postselected branch qubit{p.layout.oracle}=1 has zero mass")
    return prob1, rho


def _reference_count(p: MajsatPlan) -> int | None:
    if p.source.num_vars <= COUNT_VAR_LIMIT:
        return count_models(p.source)
    return None


def _report(p: MajsatPlan, per_i: list[dict], discarded_mass: float, low_confidence: bool = False) -> MajsatReport:
    """The report on per_i, with the step rule's verdict: YES iff some i
    has every set successful."""
    return MajsatReport(
        source=p.source,
        n=p.formula.original_vars,
        config=p.config,
        per_i=tuple(per_i),
        verdict="YES" if any(e["all_sets_success"] for e in per_i) else "NO",
        reference_s=_reference_count(p),
        discarded_mass=discarded_mass,
        low_confidence=low_confidence,
    )


def _amplification_fidelity(p: MajsatPlan, st: sim.StateVector, s: int) -> float:
    """Fidelity of st against the predicted post-amplification state:
    mixed register saturated at all-ones, oracle carrying
    (N-s)|0> + s|1>, everything else parked. Those are the prediction's
    only two nonzero amplitudes."""
    big_n = 1 << p.formula.original_vars
    base = p.initial_bits
    for q in p.mixed_qubits:
        base |= 1 << q
    target = {base: float(big_n - s), base | (1 << p.layout.oracle): float(s)}
    return sim.sparse_fidelity(st, target)


def _readout_bhr_fidelity(p: MajsatPlan, rho: np.ndarray, s: int, i: int) -> float:
    """Fidelity of the postselected BHR qubit's reduced matrix rho against
    the closed form alpha(N-2s)|0> + beta N|1> with beta/alpha = 2^i.

    The target is scaled by 2^-max(i, 0), so neither component
    overflows at large i; powers of two scale exactly."""
    big_n = 1 << p.formula.original_vars
    return sim.pure_fidelity(
        rho, math.ldexp(big_n - 2 * s, -max(i, 0)), math.ldexp(big_n, min(i, 0))
    )


def run_exact(p: MajsatPlan) -> MajsatReport:
    """Sweep i over [i_min, i_max] with exactly computed probabilities.

    The oracle qubit is postselected on |1> (the discarded mass is
    reported) and success at a given i means strictly more -1 than +1
    probability for the BHR x-basis readout. The state through the
    readout's H is simulated once, in one call, and read for every i.
    """
    prob1, rho = _kept_readout(p)
    p_plus, p_minus = sim.x_probabilities(rho)
    per_i = [
        {
            "i": i,
            "beta_over_alpha": math.ldexp(1.0, i),
            "exact_p_minus": minus,
            "exact_p_plus": plus,
            "discarded_mass": 1.0 - kept,
            "all_sets_success": minus > plus,
        }
        for i, kept, plus, minus in zip(
            range(p.config.i_min, p.config.i_max + 1), prob1.tolist(), p_plus.tolist(), p_minus.tolist()
        )
    ]
    return _report(p, per_i, max(e["discarded_mass"] for e in per_i))


def _tally(
    seed: int, prob1: np.ndarray, prob_minus: np.ndarray, sets: int, runs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Kept and -1 shot counts per (i, set), each of shape (len(prob1), sets).

    Job (i_idx * sets + set) * runs + run keeps its shot when its first
    uniform is below prob1[i_idx], and a kept shot reads -1 when its
    second uniform is below prob_minus[i_idx]. The uniforms are drawn
    SAMPLE_BLOCK jobs at a time, so memory stays bounded whatever the
    sweep's size.
    """
    groups = len(prob1) * sets
    kept = np.zeros(groups, dtype=np.int64)
    minus = np.zeros(groups, dtype=np.int64)
    total = groups * runs
    for start in range(0, total, SAMPLE_BLOCK):
        stop = min(start + SAMPLE_BLOCK, total)
        u1, u2 = first_uniforms(seed, start, stop)
        first, last = start // runs, (stop - 1) // runs + 1  # the (i, set) groups hit
        group = np.arange(start, stop) // runs - first
        i_idx = (group + first) // sets
        keep = u1 < prob1[i_idx]
        kept[first:last] += np.bincount(group[keep], minlength=last - first)
        keep &= u2 < prob_minus[i_idx]
        minus[first:last] += np.bincount(group[keep], minlength=last - first)
    return kept.reshape(-1, sets), minus.reshape(-1, sets)


def run_sampled(p: MajsatPlan, seed: int | None = None) -> MajsatReport:
    """Shot-sampled sweep; one Philox stream per (i, set, run) job.

    Each shot draws a uniform for the oracle measurement (discarding on
    |0>, tallied) and, when kept, a second uniform for the BHR x-basis
    sign, reproducing the draw sequence of measuring a fresh state per
    run. Both come from the first Philox block of the job's stream, so
    the whole sweep's shots are drawn in batches by rng.first_uniforms,
    which returns what rng.make_stream(seed, job) would draw. Job
    streams are keyed by absolute job index, so the report is
    bit-identical across repeat invocations with the same seed.
    """
    cfg = p.config
    if seed is None:
        seed = cfg.seed

    prob1, rho = _readout_sweep(p)
    prob_minus = np.zeros_like(prob1)
    live = prob1 > 0.0
    prob_minus[live] = sim.x_probabilities(rho[live])[1]
    kept, minus = _tally(seed, prob1, prob_minus, cfg.sets, cfg.runs_per_set)
    if not kept.any():
        raise PostselectError(
            "every shot was discarded at the oracle measurement; the kept "
            "branch carries negligible weight under this configuration"
        )
    plus = kept - minus
    success = minus > plus
    discarded = cfg.sets * cfg.runs_per_set - kept.sum(axis=1)
    records = [
        {
            "i": i,
            "beta_over_alpha": math.ldexp(1.0, i),
            "set_results": [
                {"minus_count": m, "plus_count": n, "success": ok} for m, n, ok in zip(minus_i, plus_i, success_i)
            ],
            "discarded_shots": discarded_i,
            "all_sets_success": every,
        }
        for i, minus_i, plus_i, success_i, discarded_i, every in zip(
            range(cfg.i_min, cfg.i_max + 1),
            minus.tolist(),
            plus.tolist(),
            success.tolist(),
            discarded.tolist(),
            success.all(axis=1).tolist(),
        )
    ]
    low_confidence = int(np.abs(minus - plus).min(axis=1).max()) <= 1
    return _report(p, records, int(discarded.sum()) / (kept.size * cfg.runs_per_set), low_confidence)


def run(p: MajsatPlan) -> MajsatReport:
    if p.config.mode == "exact":
        return run_exact(p)
    return run_sampled(p)


def amplification_fidelity_profile(p: MajsatPlan) -> list[tuple[int, float]]:
    """Fidelity of the amplified state against its prediction, per round.

    Runs the plan's own amplification circuit one round at a time,
    recording the fidelity after each, so the whole profile costs one
    simulation. The circuit is the mixing layer, 2 gates per mixed qubit
    in either lowering, then r gain rounds of equal length.
    """
    s_ref = _reference_count(p)
    if s_ref is None:
        raise InputError("fidelity profile needs the brute-force count")
    gates = p.amplification_circuit.gates
    head = 2 * len(p.mixed_qubits)
    width = (len(gates) - head) // p.config.r
    st = _amplified_state(p, upto=head)
    out: list[tuple[int, float]] = []
    for r in range(1, p.config.r + 1):
        sim.apply_circuit(st, gates[head + (r - 1) * width : head + r * width])
        out.append((r, _amplification_fidelity(p, st, s_ref)))
    return out


def readout_fidelity_grid(p: MajsatPlan) -> dict[int, float]:
    """Fidelity of the postselected state against its closed-form
    prediction, for every i in the configured range."""
    s_ref = _reference_count(p)
    if s_ref is None:
        raise InputError("fidelity grid needs the brute-force count")
    i_range = range(p.config.i_min, p.config.i_max + 1)
    return {i: _readout_bhr_fidelity(p, rho, s_ref, i) for i, rho in zip(i_range, _kept_readout(p)[1])}
