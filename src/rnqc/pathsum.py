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
from typing import Optional

from . import sim
from .circuit import PERMUTATION_KINDS, Circuit, Gate, diagonal_factors, needs_complex
from .errors import CircuitError, GridSpacingError, InputError, InvariantError, PathBudgetError

DEFAULT_PATH_BUDGET = 10**8

# maximum float64 bound on the imaginary residue of a pair-sum bucket
IM_TOLERANCE = 1e-9


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
    mode = "complex" if needs_complex(circuit.gates) else "real"
    state = sim.new_state(circuit.qubit_count, basis_index=input_basis, mode=mode)
    state = sim.apply_circuit(state, circuit)
    total = sim.norm_sq(state)
    if projector.kind == "yn":
        return PathSumResult("direct", total, 0.0, _acceptance(total, 0.0), 0)
    _, yes, e = sim._branch_masses(state, projector.yes_qubit)
    yes = math.ldexp(yes, 2 * e)
    no = max(total - yes, 0.0)
    return PathSumResult("direct", yes, no, _acceptance(yes, no), 0)


def _transitions(gate: Gate):
    """The gate as a function from basis state z to its nonzero
    matrix-element transitions, a list of (next_z, factor) pairs.

    Only H branches; every other kind is a permutation or a diagonal (see
    circuit.py), so it has exactly one successor.
    """
    bit = 1 << gate.target
    on = sum(1 << c for c in gate.controls)
    if gate.kind == "H":
        root = 1.0 / math.sqrt(2.0)
        return lambda z: [(z & ~bit, root), (z | bit, -root if z & bit else root)]
    if gate.kind in PERMUTATION_KINDS:
        return lambda z: [(z ^ bit if z & on == on else z, 1.0)]
    d0, d1 = diagonal_factors(gate)
    return lambda z: [(z, (d1 if z & bit else d0) if z & on == on else 1.0)]


def _forward_paths(circuit: Circuit, input_basis: int, budget: int):
    """DFS over contributing forward paths.

    Returns a mapping endpoint -> list of path values, endpoints
    ascending. Successors are pushed in reverse, so each H's 0-branch is
    visited first and every list is in lexicographic order of the paths'
    basis-state trails. The worst case pairs up every forward path with
    every other at a single endpoint, so enumeration aborts once the
    forward count could make the pair count exceed the budget.
    """
    if budget < 1:
        raise InputError(f"path budget must be at least 1, got {budget}")
    fwd_cap = math.isqrt(budget)
    endpoints: dict = {}
    materialized = 0
    stack = [(0, input_basis, 1.0 + 0.0j)]
    steps = [_transitions(g) for g in circuit.gates]
    while stack:
        depth, z, value = stack.pop()
        if depth == len(steps):
            materialized += 1
            if materialized > fwd_cap:
                raise PathBudgetError(
                    f"forward path count exceeds budget {budget} "
                    f"(more than {fwd_cap} contributing forward paths)"
                )
            endpoints.setdefault(z, []).append(value)
            continue
        for nz, factor in reversed(steps[depth](z)):
            nv = value * factor
            if nv != 0:
                stack.append((depth + 1, nz, nv))
    return {z: endpoints[z] for z in sorted(endpoints)}


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
        amp = sum(paths)
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

    Equals floor(|Re| / spacing), clamped to the grid's point count.  A
    float is num / den with den a power of two, so integer division gives
    the exact floor and boundary values land on the mathematically
    correct side.
    """
    num, den = magnitude.as_integer_ratio()
    return min((num << nc) // den, (1 << (2 * nc)) + 1)


def _count_bucket(values, nc: int):
    """Accumulate threshold counts over all path pairs of one endpoint.

    Returns (positive_count, negative_count, imaginary_residue).
    """
    pos = neg = 0
    im = 0.0
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
            peak = max(abs(v) for v in paths)
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
        pos, neg, im = _count_bucket(paths, nc)
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
