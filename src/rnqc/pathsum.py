"""Acceptance quantities of small circuits computed three independent ways.

``direct`` runs the dense simulator and measures the projector mass.
``pathsum`` enumerates contributing forward paths of the circuit, pairs
them with their reversed counterparts at matching endpoints, and sums the
resulting products.  ``counting`` replays the same pair enumeration but
recovers each product's real part from two exhaustive threshold counts on
a dyadic grid, which is how a counting oracle would see the sum.

All three agree on well-formed circuits; the point of keeping them
separate is that they fail independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import sim
from .circuit import Circuit, Gate
from .errors import CircuitError, GridSpacingError, InvariantError, PathBudgetError

DEFAULT_PATH_BUDGET = 10**8

# maximum float64 bound on the imaginary residue of a pair-sum bucket
IM_TOLERANCE = 1e-9

_SUPPORTED = frozenset({"H", "X", "Z", "T", "CNOT", "CCNOT", "NCNOT", "G", "CG"})


@dataclass(frozen=True)
class Projector:
    """Measurement projector applied after the circuit.

    kind "yes" keeps the branch where ``yes_qubit`` reads 1 and reports the
    complementary branch as the no-mass.  kind "yn" keeps everything, so the
    yes-mass is the total squared norm; it exists to make norm bookkeeping
    of non-unitary circuits explicit.
    """

    kind: str
    yes_qubit: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("yes", "yn"):
            raise CircuitError(f"unknown projector kind {self.kind!r}")
        if self.yes_qubit < 0:
            raise CircuitError("projector qubit must be nonnegative")


@dataclass(frozen=True)
class PathSumResult:
    method: str
    c_yes_sq: float
    c_no_sq: float
    acceptance: float
    path_count: int
    precision_c: Optional[int] = None
    error_bound: Optional[float] = None

    def to_json_dict(self) -> dict:
        out = {
            "method": self.method,
            "c_yes_sq": self.c_yes_sq,
            "c_no_sq": self.c_no_sq,
            "acceptance": self.acceptance,
            "path_count": self.path_count,
        }
        if self.precision_c is not None:
            out["precision_c"] = self.precision_c
        if self.error_bound is not None:
            out["error_bound"] = self.error_bound
        return out


def _acceptance(yes_sq: float, no_sq: float) -> float:
    total = yes_sq + no_sq
    if total <= 0.0:
        return 0.0
    return yes_sq / total


def _check_inputs(circuit: Circuit, input_basis: int, projector: Projector) -> None:
    if not isinstance(input_basis, int) or not 0 <= input_basis < (1 << circuit.qubit_count):
        raise CircuitError(
            f"input basis index {input_basis} out of range for {circuit.qubit_count} qubits"
        )
    if projector.yes_qubit >= circuit.qubit_count:
        raise CircuitError(
            f"projector qubit {projector.yes_qubit} outside register of width {circuit.qubit_count}"
        )


def direct_amplitude(circuit: Circuit, input_basis: int, projector: Projector) -> PathSumResult:
    """Projector masses by dense forward simulation.

    Masses are raw squared magnitudes, not normalized probabilities, so a
    norm-changing circuit reports its true final norm under kind "yn".
    """
    _check_inputs(circuit, input_basis, projector)
    mode = "complex" if any(g.kind == "T" for g in circuit.gates) else "real"
    state = sim.new_state(circuit.qubit_count, basis_index=input_basis, mode=mode)
    state = sim.apply_circuit(state, circuit)
    scale = math.ldexp(1.0, 2 * state.exponent)
    total = sim.norm_sq_mantissa(state) * scale
    if projector.kind == "yn":
        return PathSumResult("direct", total, 0.0, _acceptance(total, 0.0), 0)
    yes = sim._branch_masses(state, projector.yes_qubit)[1] * scale
    no = max(total - yes, 0.0)
    return PathSumResult("direct", yes, no, _acceptance(yes, no), 0)


def _successors(gate: Gate, z: int):
    """Nonzero matrix-element transitions of one gate from basis state z.

    Yields (next_z, factor) pairs.  Only H branches; every other supported
    gate is a permutation or diagonal, so it has exactly one successor.
    """
    kind = gate.kind
    if kind == "H":
        bit = 1 << gate.qubits[0]
        root = 1.0 / math.sqrt(2.0)
        yield z & ~bit, root
        yield z | bit, -root if z & bit else root
    elif kind == "X":
        yield z ^ (1 << gate.qubits[0]), 1.0
    elif kind == "Z":
        yield z, -1.0 if z & (1 << gate.qubits[0]) else 1.0
    elif kind == "T":
        if z & (1 << gate.qubits[0]):
            yield z, complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        else:
            yield z, 1.0
    elif kind == "CNOT":
        c, t = gate.qubits
        yield z ^ (1 << t) if z & (1 << c) else z, 1.0
    elif kind == "CCNOT":
        a, b, t = gate.qubits
        hot = z & (1 << a) and z & (1 << b)
        yield z ^ (1 << t) if hot else z, 1.0
    elif kind == "NCNOT":
        controls, t = gate.qubits[:-1], gate.qubits[-1]
        hot = all(z & (1 << c) for c in controls)
        yield z ^ (1 << t) if hot else z, 1.0
    elif kind == "G":
        g = gate.param
        yield z, g if z & (1 << gate.qubits[0]) else 1.0 / g
    elif kind == "CG":
        c, t = gate.qubits
        if z & (1 << c):
            yield z, gate.param if z & (1 << t) else 1.0 / gate.param
        else:
            yield z, 1.0
    else:
        raise CircuitError(f"gate {kind} is not supported by the path enumerator")


def _forward_paths(circuit: Circuit, input_basis: int, budget: int):
    """DFS over contributing forward paths.

    Returns an ordered mapping endpoint -> list of (path, value).  The
    worst case pairs up every forward path with every other at a single
    endpoint, so enumeration aborts once the forward count could make the
    pair count exceed the budget.
    """
    for g in circuit.gates:
        if g.kind not in _SUPPORTED:
            raise CircuitError(f"gate {g.kind} is not supported by the path enumerator")
    fwd_cap = max(1, math.isqrt(budget))
    endpoints: dict = {}
    materialized = 0
    stack = [(0, input_basis, 1.0 + 0.0j, (input_basis,))]
    gates = circuit.gates
    while stack:
        depth, z, value, trail = stack.pop()
        if depth == len(gates):
            materialized += 1
            if materialized > fwd_cap:
                raise PathBudgetError(
                    f"forward path count exceeds budget {budget} "
                    f"(more than {fwd_cap} contributing forward paths)"
                )
            endpoints.setdefault(z, []).append((trail, value))
            continue
        for nz, factor in _successors(gates[depth], z):
            nv = value * factor
            if nv != 0:
                stack.append((depth + 1, nz, nv, trail + (nz,)))
    # DFS with a stack visits the 1-branch first; re-sort path lists so the
    # reported order is independent of that traversal detail
    ordered = {}
    for z in sorted(endpoints):
        ordered[z] = sorted(endpoints[z], key=lambda pv: pv[0])
    return ordered


def path_sum_amplitude(
    circuit: Circuit,
    input_basis: int,
    projector: Projector,
    budget: int = DEFAULT_PATH_BUDGET,
) -> PathSumResult:
    """Projector masses from explicit path-pair sums.

    A forward path ending at z pairs with the conjugate of every forward
    path ending at the same z (the reversed chain contributes conjugated
    matrix elements), so each endpoint's pair total collapses to the
    squared magnitude of its summed forward amplitude.  path_count is the
    number of contributing pairs over both projector buckets.
    """
    _check_inputs(circuit, input_basis, projector)
    endpoints = _forward_paths(circuit, input_basis, budget)
    bit = 1 << projector.yes_qubit
    yes = no = 0.0 + 0.0j
    path_count = 0
    for z, paths in endpoints.items():
        amp = sum(v for _, v in paths)
        mass = amp * amp.conjugate()
        path_count += len(paths) ** 2
        if projector.kind == "yn" or z & bit:
            yes += mass
        else:
            no += mass
    if abs(yes.imag) > IM_TOLERANCE or abs(no.imag) > IM_TOLERANCE:
        raise InvariantError(
            f"pair-sum imaginary residue {max(abs(yes.imag), abs(no.imag)):.3e} "
            "exceeds tolerance; squared masses must be real"
        )
    return PathSumResult(
        "pathsum", yes.real, no.real, _acceptance(yes.real, no.real), path_count
    )


def _grid_count(magnitude: float, nc: int) -> int:
    """Number of grid thresholds a term of this |Re| accepts, exactly.

    Equals floor(|Re| / spacing), clamped to the grid's point count.  The
    float is converted to an exact rational first so boundary values land
    on the mathematically correct side.
    """
    count = math.floor(Fraction(magnitude) * (1 << nc))
    return min(count, (1 << (2 * nc)) + 1)


def _count_bucket(path_lists, nc: int):
    """Accumulate threshold counts over all path pairs of one endpoint group.

    Returns (positive_count, negative_count, imaginary_residue).
    """
    pos = neg = 0
    im = 0.0
    for paths in path_lists:
        values = [v for _, v in paths]
        for a in values:
            for b in values:
                prod = a * b.conjugate()
                re = prod.real
                if re > 0:
                    pos += _grid_count(re, nc)
                elif re < 0:
                    neg += _grid_count(-re, nc)
                im += prod.imag
    return pos, neg, im


def counting_estimate(
    circuit: Circuit,
    input_basis: int,
    projector: Projector,
    precision_c: Optional[int] = None,
    budget: int = DEFAULT_PATH_BUDGET,
) -> PathSumResult:
    """Projector masses recovered from exhaustive threshold counting.

    Each pair product contributes floor(|Re|/spacing) accepted thresholds
    to the machine matching its sign; spacing times the count difference
    estimates the pair sum with worst-case error path_count * spacing.
    When precision_c is omitted it is chosen adaptively: small enough that
    the error bound drops below 1e-6 and the grid range covers the largest
    term.
    """
    _check_inputs(circuit, input_basis, projector)
    endpoints = _forward_paths(circuit, input_basis, budget)
    groups = list(endpoints.items())
    path_count = sum(len(p) ** 2 for _, p in groups)
    n = circuit.qubit_count

    if precision_c is None:
        largest = 0.0
        for _, paths in groups:
            peak = max(abs(v) for _, v in paths)
            largest = max(largest, peak * peak)
        c = 1
        while True:
            nc = n * c
            if nc > 1024:
                raise GridSpacingError(
                    "no representable grid spacing achieves the requested bound"
                )
            if path_count * math.ldexp(1.0, -nc) < 1e-6 and math.ldexp(1.0, nc) > largest:
                break
            c += 1
        precision_c = c
    elif precision_c < 1:
        raise CircuitError("precision_c must be at least 1")

    nc = n * precision_c
    spacing = math.ldexp(1.0, -nc)
    if spacing == 0.0:
        raise GridSpacingError(f"grid spacing 2**-{nc} underflows to zero")

    # one tally per endpoint group, summed into the yes side and the total
    bit = 1 << projector.yes_qubit
    yes_pos = yes_neg = tot_pos = tot_neg = 0
    yes_im = tot_im = 0.0
    for z, paths in groups:
        pos, neg, im = _count_bucket([paths], nc)
        tot_pos += pos
        tot_neg += neg
        tot_im += im
        if projector.kind == "yn" or z & bit:
            yes_pos += pos
            yes_neg += neg
            yes_im += im
    if abs(yes_im) > IM_TOLERANCE or abs(tot_im) > IM_TOLERANCE:
        raise InvariantError(
            f"pair-product imaginary residue {max(abs(yes_im), abs(tot_im)):.3e} "
            "exceeds tolerance; squared masses must be real"
        )
    yes_est = (yes_pos - yes_neg) * spacing
    total_est = (tot_pos - tot_neg) * spacing
    if projector.kind == "yn":
        yes_sq, no_sq = total_est, 0.0
    else:
        yes_sq, no_sq = yes_est, max(total_est - yes_est, 0.0)
    return PathSumResult(
        "counting",
        yes_sq,
        no_sq,
        _acceptance(yes_sq, no_sq),
        path_count,
        precision_c=precision_c,
        error_bound=path_count * spacing,
    )
