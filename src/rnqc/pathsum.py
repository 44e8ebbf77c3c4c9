"""Acceptance quantities of small circuits computed three independent ways.

``direct`` runs the dense simulator and measures the projector mass.
``pathsum`` enumerates contributing forward paths of the circuit, pairs
them with their reversed counterparts at matching endpoints, and sums the
resulting products.  ``counting`` replays the same pair enumeration but
recovers each product's real part from two exhaustive threshold counts on
a dyadic grid, which is how a counting oracle would see the sum.  Paths
are walked as numpy arrays and paired in batches, in Python's complex
arithmetic and summation order, so every reported value, sum and count
is the one a path-by-path loop gets; the counting route's imaginary
residue, which only its rounding bound reads, is summed in batch order.

All three agree on well-formed circuits; the point of keeping them
separate is that they fail independently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import sim
from .circuit import PERMUTATION_KINDS, Circuit, Gate, amplitude_mode, diagonal_factors
from .errors import CircuitError, GridSpacingError, InputError, InvariantError, NormOverflowError, PathBudgetError

DEFAULT_PATH_BUDGET = 10**8

# most paths, or path pairs, in one array; 2^16 left the heap 0.5 MB larger
_CHUNK = 1 << 14


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
        """The fields in order, without the counting ones when absent."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def _acceptance(yes_sq: float, no_sq: float) -> float:
    total = yes_sq + no_sq
    return 0.0 if total <= 0.0 else yes_sq / total


def _check_inputs(circuit: Circuit, input_basis: int, projector: Projector) -> None:
    if not isinstance(input_basis, int) or not sim.in_register(input_basis, circuit.qubit_count):
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
    state = sim.new_state(circuit.qubit_count, basis_index=input_basis, mode=amplitude_mode(circuit.gates))
    state = sim.apply_circuit(state, circuit)
    total = sim.norm_sq(state)
    if projector.kind == "yn":
        return PathSumResult("direct", total, 0.0, _acceptance(total, 0.0), 0)
    m, e = sim.gram(state, [projector.yes_qubit])
    yes = math.ldexp(float(np.real(m[1, 1])), 2 * e)
    no = max(total - yes, 0.0)
    return PathSumResult("direct", yes, no, _acceptance(yes, no), 0)


@np.errstate(all="ignore")  # Python's complex arithmetic raises no float warnings
def _step(gate: Gate, z, re, im):
    """One gate over the frontier: the successor states, and each value
    times its factor as complex.__mul__ forms it, zero values dropped."""
    bit, fi = 1 << gate.target, 0.0
    if gate.kind == "H":  # each path's 0-child, then its 1-child
        root = 1.0 / math.sqrt(2.0)
        fr = np.stack((np.full(len(z), root), np.where(z & bit != 0, -root, root)), axis=1).ravel()
        z, re, im = np.stack((z & ~bit, z | bit), axis=1).ravel(), re.repeat(2), im.repeat(2)
    else:
        mask = sum(1 << c for c in gate.controls)
        on = z & mask == mask
        if gate.kind in PERMUTATION_KINDS:
            z, fr = np.where(on, z ^ bit, z), 1.0
        else:
            d0, d1 = diagonal_factors(gate)
            d = np.where(z & bit != 0, complex(d1), complex(d0))
            fr, fi = np.where(on, d.real, 1.0), np.where(on, d.imag, 0.0)
    re, im = re * fr - im * fi, re * fi + im * fr
    keep = (re != 0) | (im != 0)
    return z[keep], re[keep], im[keep]


def _forward_paths(circuit: Circuit, input_basis: int, budget: int):
    """Contributing forward paths, walked depth first in trail-order chunks:
    (ends, groups, pairs), the endpoints ascending; per group size k, the
    (rows, re, im) parts of the values ending at ends[rows], each row in
    lexicographic order of the paths' basis-state trails; and the number
    of path pairs that share an endpoint. The worst case pairs every
    forward path with every other at one endpoint, so the walk aborts
    once that pair count could exceed the budget."""
    if budget < 1:
        raise InputError(f"path budget must be at least 1, got {budget}")
    gates, fwd_cap, found, leaves = circuit.gates, math.isqrt(budget), 0, []
    h_left = np.cumsum([g.kind == "H" for g in gates[::-1]])[::-1].tolist()
    dtype = np.int64 if circuit.qubit_count < 64 else object
    stack = [(0, np.array([input_basis], dtype=dtype), np.ones(1), np.zeros(1))]
    while stack:
        depth, z, re, im = stack.pop()
        for d in range(depth, len(gates)):
            if gates[d].kind == "H" and 2 * len(z) > _CHUNK:
                # walk a piece whose subtree fits; the later paths wait their turn
                take = max(1, _CHUNK >> h_left[d])
                stack.append((d, z[take:], re[take:], im[take:]))
                z, re, im = z[:take], re[:take], im[:take]
            z, re, im = _step(gates[d], z, re, im)
        found += len(z)
        if found > fwd_cap:
            raise PathBudgetError(
                f"forward path count exceeds budget {budget} "
                f"(more than {fwd_cap} contributing forward paths)"
            )
        leaves.append((z, re, im))
    z, re, im = (np.concatenate(part) for part in zip(*leaves))
    order = np.argsort(z, kind="stable")
    ends, starts, counts = np.unique(z[order], return_index=True, return_counts=True)
    groups, pairs = [], 0
    for k in sorted(set(counts.tolist())):
        rows = np.flatnonzero(counts == k)
        idx = order[starts[rows, None] + np.arange(k)]
        groups.append((rows, re[idx], im[idx]))
        pairs += len(rows) * k * k
    return ends, groups, pairs


def _fold(values):
    """Sums over the last axis, added left to right from 0.0 as a loop adds."""
    return np.cumsum(np.insert(values, 0, 0.0, axis=-1), axis=-1)[..., -1]


@np.errstate(all="ignore")
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
    ends, groups, path_count = _forward_paths(circuit, input_basis, budget)
    ar, ai = np.empty(len(ends)), np.empty(len(ends))
    for rows, re, im in groups:  # each endpoint's amplitude
        ar[rows], ai[rows] = _fold(np.stack((re, im)))
    # the real part of amp * amp.conjugate(); its imaginary part, ar * -ai + ai * ar,
    # is exactly +0 wherever the real part is finite
    mass = ar * ar - ai * -ai
    on_yes = (ends & (1 << projector.yes_qubit) != 0) | (projector.kind == "yn")
    yes, no = float(_fold(mass[on_yes])), float(_fold(mass[~on_yes]))
    if not (math.isfinite(yes) and math.isfinite(no)):
        raise NormOverflowError("squared path-sum mass overflows double precision")
    return PathSumResult("pathsum", yes, no, _acceptance(yes, no), path_count)


def _grid_total(x, nc: int) -> int:
    """Sum of floor(x / spacing), each clamped to the grid's point count, over
    positive finite x = mant * 2^(s - nc), mant a 53-bit integer: each floor
    is an exact shift, so boundary values land on the correct side."""
    frac, exp = np.frexp(x)
    mant = (frac * 2.0**53).astype(np.int64)
    shift = exp.astype(np.int64) + (nc - 53)
    clamp, total, lo = (1 << (2 * nc)) + 1, 0, int(shift.min(initial=0))
    for s in (np.flatnonzero(np.bincount(shift - lo)) + lo).tolist():  # each distinct shift
        m = mant[shift == s]
        if s < 0:
            m, s = m >> min(-s, 63), 0
        if clamp >> s < 1 << 53:  # terms past the last grid point count it once
            over = m > clamp >> s
            total += int(over.sum()) * clamp
            m = m[~over]
        # int64 sums of the high and low 31 bits cannot overflow
        total += ((int((m >> 31).sum()) << 31) + int((m & 0x7FFFFFFF).sum())) << s
    return total


def _count_pairs(groups, keep, nc: int):
    """(positive_count, negative_count, residue, scale) over all path pairs at
    the endpoints keep selects, formed about _CHUNK pairs at a time: residue
    sums the pairs' imaginary parts, and scale each endpoint's
    (sum |Re a| + |Im a|)^2 over its values a."""
    pos = neg = 0
    residue = scale = 0.0
    for rows, re, im in groups:
        rows, re, im = rows[keep[rows]], re[keep[rows]], im[keep[rows]]
        scale += float(((np.abs(re).sum(axis=1) + np.abs(im).sum(axis=1)) ** 2).sum())
        k = re.shape[1]
        step, span = max(1, _CHUNK // (k * k)), min(k, max(1, _CHUNK // k))
        for r in range(0, len(rows), step):
            br, nbi = re[r : r + step, None, :], -im[r : r + step, None, :]
            for c in range(0, k, span):
                ar, ai = re[r : r + step, c : c + span, None], im[r : r + step, c : c + span, None]
                prod = ar * br - ai * nbi  # a * b.conjugate(), as complex.__mul__ forms it
                residue += float((ar * nbi + ai * br).sum())
                if np.isinf(prod).any():
                    raise NormOverflowError("a path-pair product overflows double precision")
                pos += _grid_total(prod[prod > 0], nc)
                neg += _grid_total(-prod[prod < 0], nc)
    return pos, neg, residue, scale


@np.errstate(all="ignore")
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
    estimates the pair sum. Its error_bound, path_count * spacing, covers
    the grid, not the rounding of the pair products, which grows with the
    masses: after G(2^40), c_yes_sq may lie an ulp past it.
    When precision_c is omitted it is chosen adaptively: small enough that
    the error bound drops below 1e-6 and the grid range covers the largest
    term.
    """
    _check_inputs(circuit, input_basis, projector)
    ends, groups, path_count = _forward_paths(circuit, input_basis, budget)
    n = circuit.qubit_count
    if precision_c is None:
        largest = 0.0
        for _, re, im in groups:
            size = np.hypot(re, im)  # abs() of each value
            if np.isinf(size).any():
                raise NormOverflowError("a path value overflows double precision")
            # max() keeps a row's first value when it is NaN; the max over rows skips it
            peak = np.where(np.isnan(size[:, 0]), 0.0, np.fmax.reduce(size, axis=1))
            largest = max(largest, float(np.max(peak * peak)))
        top = math.frexp(largest)[1] if largest < math.inf else math.inf  # 2^nc <= largest iff nc < top
        precision_c, nc = 1, n
        while nc <= 1024 and (path_count * math.ldexp(1.0, -nc) >= 1e-6 or nc < top):
            precision_c, nc = precision_c + 1, nc + n
        if nc > 1024:
            raise GridSpacingError("no representable grid spacing achieves the requested bound")
    elif precision_c < 1:
        raise CircuitError("precision_c must be at least 1")

    nc = n * precision_c
    spacing = math.ldexp(1.0, -nc)
    if spacing == 0.0:
        raise GridSpacingError(f"grid spacing 2**-{nc} underflows to zero")

    on_yes = (ends & (1 << projector.yes_qubit) != 0) | (projector.kind == "yn")
    yes_pos, yes_neg, yes_res, yes_scale = _count_pairs(groups, on_yes, nc)
    no_pos, no_neg, no_res, no_scale = _count_pairs(groups, ~on_yes, nc)
    # The pairs' imaginary parts sum to Im |amp|^2 = 0 at each endpoint, so
    # a residue is rounding alone. A term rounds twice (its two products and
    # their sum), then at most once per other pair and once as the buckets
    # add, under m times in all; a sum of terms x, added in any order, errs
    # by at most gamma_m sum |x| (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., ch. 3-4), and at one endpoint the terms
    # |Re a Im b| + |Im a Re b| sum to at most (sum |Re a| + |Im a|)^2.
    # Twice m u covers gamma_m and the rounding of those squares and their
    # sum; m * 2^-1074 covers products that underflow.
    m = path_count + len(ends) + 2
    for res, scale in ((yes_res, yes_scale), (yes_res + no_res, yes_scale + no_scale)):
        if abs(res) > 2 * m * 2.0**-53 * scale + m * 2.0**-1074:
            raise InvariantError(
                f"pair-product imaginary residue {abs(res):.3e} exceeds its rounding bound; "
                "squared masses must be real"
            )
    try:  # int / int rounds once, also where a count passes the double range
        yes_sq = (yes_pos - yes_neg) / (1 << nc)  # under "yn" the no side is empty
        no_sq = max((yes_pos + no_pos - yes_neg - no_neg) / (1 << nc) - yes_sq, 0.0)
    except OverflowError as exc:
        raise NormOverflowError("squared counting mass overflows double precision") from exc
    accept, bound = _acceptance(yes_sq, no_sq), path_count * spacing
    return PathSumResult("counting", yes_sq, no_sq, accept, path_count, precision_c, bound)
