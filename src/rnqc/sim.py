"""Dense state-vector simulation with explicit norm tracking.

Index convention: bit q of a basis index is the computational value of
qubit q, so qubit 0 is the least significant bit. This is fixed across
the whole package.

Amplitudes are stored as a mantissa array plus one shared power-of-two
exponent; the true vector is amps * 2**exponent. Only kernels that apply
G or CG factors run the rescaling guard: whenever the largest mantissa
magnitude leaves [2^-500, 2^+500] the array is scaled by an exact power
of two and the exponent absorbs the difference. apply_circuit carries
bounds on max|amp| (moved by a block's factor range, by 2^±1/2 at H,
lost at T) and a check scans only when they cannot prove it inside, so
each check rescales exactly when a scan would. Gate parameters are
capped at 2^±500 (circuit.py) and a block is cut before its factors
could leave that range, so no kernel overflows the mantissa array. Every
sum of squared or multiplied mantissas runs on pieces scaled by a power
of two to max|amp| in [1, 2), as gram reads them. Norm queries raise
where a double cannot hold the true value, never returning Inf or 0.

apply_circuit starts sparse when the state stores at most
2^-_SPARSE_SHIFT of the register's amplitudes, as a new_state does: it
runs the leading H and permutation gates on (index, amplitude) pairs of
the nonzero ones, then writes the support back. It stops at T, at an H
that would take the support past that limit, and at the start of any
maximal monomial run holding a diagonal gate, so the rest fuses into the
blocks the whole sequence gets and the state is bit for bit
_apply_dense's. The dense path runs H and T one gate at a time (T is
complex, a block's factors are real) and, as it applies them, cuts each
run of monomial gates, permutations (X, CNOT, CCNOT, NCNOT) and real
diagonals (Z, G, CG) as circuit.py defines them, into blocks of at most
10 qubits and 6 row qubits, down to one gate; a gate past those caps
runs alone. Diagonal gates on the same qubits fold within a stretch,
e.g. r rounds of CG(q, nh) into CG(q, nh, g^r). One pass over a block's
gates on bit planes (_trace) gives its basis map on the rows the state
stores; the map is applied in place and in one pass: scale rows, move
the amplitudes, then the guard. apply_gate is the gate-by-gate
reference the tests compare the blocks against. With power-of-two
parameters the two agree bit for bit; otherwise a block rounds its
product of factors once where the gate loop rounds after every gate.
One shared exponent holds amplitudes within about 2^1074 of the largest:
G(q, 2^390) twice and then G(q, 2^-390) twice zeroes the q = 0 branch
one gate at a time, while one apply_circuit call folds the four factors
to 1 and returns its input.

A state stores only its live qubits: amps holds the low stored =
log2(amps.size) qubits, and each qubit above them reads its bit of
fixed, so amps[j] belongs to basis state fixed | j. new_state stores
none, and the sparse prefix writes its support into a fresh array over
the qubits it does not hold constant. The dense steps store at least
_DENSE_QUBITS + 1 qubits, so stored rows split as the register's do,
and which gates form a block depends on the gates and the register
width alone. A block's trace reads each fixed qubit it touches as a
plane of its bit; a block that moves one, or a gate that runs alone on
one, first widens the array to store its qubits, a zero-filled data
move (_widen). So a state is bit for bit the whole register's. gram
reads the fixed bits from the state; amplitudes(state) expands it to
2^n. An exact solve (majsat) runs each plan in one apply_circuit call.

Gates, block rows and gram find the amplitudes where some qubits hold
given bits through one view builder, _sub. Data moves (H's sums, the
swaps of X, CNOT, CCNOT and NCNOT, a block's gathers and row cycles,
gram's gathers) run through _pieces, at most _MOVE_CHUNK amplitudes at a
time, so none allocates a temporary the size of the state. A swap is a
row cycle of length two: both run through _rotate.

A state's mode is its array's: real mode stores float64 and never
allocates an imaginary component, so realness of the restricted gate
set is a property of the storage, not a tolerance. T requires complex
mode and is rejected otherwise.

States deliberately stay unnormalized under G; renormalization is an
explicit operation because downstream code needs raw squared masses.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import groupby
from typing import Iterable, Iterator, Sequence

import numpy as np

from .circuit import COMPLEX_KINDS, DIAGONAL_KINDS, PARAM_LOG2_CAP, PERMUTATION_KINDS, Circuit, Gate, diagonal_factors
from .errors import (
    CircuitError,
    InputError,
    NormOverflowError,
    PostselectError,
    RealModeError,
    RegisterCapError,
    ZeroStateError,
)

_DEFAULT_MAX_QUBITS = 28
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_GUARD_HI, _GUARD_LO = 2.0**PARAM_LOG2_CAP, 2.0**-PARAM_LOG2_CAP  # the gate parameters' cap
_MOVE_CHUNK = 1 << 16  # most amplitudes one piece of a data move or |x| temporary holds
_NO_BOUND = (0.0, math.inf)  # bounds on max|amp| that prove nothing


def max_qubits() -> int:
    """Register cap; override with the RNQC_MAX_QUBITS environment variable."""
    raw = os.environ.get("RNQC_MAX_QUBITS")
    if raw is None:
        return _DEFAULT_MAX_QUBITS
    try:
        val = int(raw)
    except ValueError as exc:
        raise InputError(f"RNQC_MAX_QUBITS must be an integer, got {raw!r}") from exc
    if val < 1:
        raise InputError(f"RNQC_MAX_QUBITS must be positive, got {val}")
    return val


@dataclass
class StateVector:
    num_qubits: int
    amps: np.ndarray
    exponent: int = 0
    fixed: int = 0  # bits of the qubits above the stored ones; its low stored bits are 0

    @property
    def stored(self) -> int:
        return self.amps.size.bit_length() - 1

    @property
    def mode(self) -> str:
        return "complex" if np.iscomplexobj(self.amps) else "real"

    def copy(self) -> "StateVector":
        return replace(self, amps=self.amps.copy())


def _check_register(num_qubits: int) -> None:
    if num_qubits < 1:
        raise InputError(f"register needs at least one qubit, got {num_qubits}")
    cap = max_qubits()
    if num_qubits > cap:
        raise RegisterCapError(f"register of {num_qubits} qubits exceeds the cap of {cap}")


def _dtype_for(mode: str):
    if mode == "real":
        return np.float64
    if mode == "complex":
        return np.complex128
    raise InputError(f"mode must be 'real' or 'complex', got {mode!r}")


def new_state(num_qubits: int, basis_index: int = 0, mode: str = "real") -> StateVector:
    """Basis state |basis_index> on a fresh register; it stores no qubit."""
    _check_register(num_qubits)
    if not 0 <= basis_index < 1 << num_qubits:
        raise InputError(f"basis index {basis_index} out of range for {num_qubits} qubits")
    return StateVector(num_qubits, np.ones(1, dtype=_dtype_for(mode)), fixed=basis_index)


def state_from_amplitudes(values: Sequence, mode: str = "real", exponent: int = 0) -> StateVector:
    """State with explicit (possibly unnormalized) amplitudes; length must be 2^n.

    Amplitudes must be finite. The rescale guard runs on the input, so
    mantissas outside [2^-500, 2^+500] move into the exponent.
    """
    try:
        amps = np.asarray(values, dtype=_dtype_for(mode))
    except OverflowError as exc:
        raise InputError(f"amplitudes must be finite: {exc}") from exc
    if amps.ndim != 1 or amps.size < 2 or amps.size & (amps.size - 1):
        raise InputError(f"amplitude array length must be a power of two >= 2, got {amps.size}")
    n = amps.size.bit_length() - 1
    _check_register(n)
    if not np.all(np.isfinite(amps)):
        raise InputError("amplitudes must be finite (no NaN or infinity)")
    if not np.any(amps):
        raise ZeroStateError("all-zero amplitude array is not a valid state")
    state = StateVector(num_qubits=n, amps=amps.copy(), exponent=exponent)
    _rescale_guard(state)
    return state


def _widen(state: StateVector, top: int) -> StateVector:
    """Store the low top qubits, if fewer are stored: the amplitudes move
    into a zero-filled array, at the place their fixed bits below top give."""
    if top > state.stored:
        amps = np.zeros(1 << top, dtype=state.amps.dtype)
        at = state.fixed & (1 << top) - 1
        amps[at : at + state.amps.size] = state.amps
        state.amps, state.fixed = amps, state.fixed >> top << top
    return state


def amplitudes(state: StateVector) -> np.ndarray:
    """All 2^n mantissas at their register indices: the stored array itself
    when it holds every qubit, else a zero-filled copy."""
    return _widen(replace(state), state.num_qubits).amps


@lru_cache(maxsize=256)  # apply_gate asks on every gate; a small state feels the cost
def _gaps(n: int, qubits: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A reshape of a 2^n state giving each of the qubits its own length-2
    axis, and the axis of each. Each run of the other qubits is one axis,
    most significant first; an empty run gets none, so at most n + 1 axes."""
    shape, axis, prev = [], {}, n
    for q in sorted(qubits, reverse=True):
        if prev - q > 1:
            shape.append(1 << (prev - q - 1))
        axis[q] = len(shape)
        shape.append(2)
        prev = q
    if prev:
        shape.append(1 << prev)
    return tuple(shape), tuple(axis[q] for q in qubits)


@lru_cache(maxsize=1024)
def _index(axes: tuple[int, ...], bits: tuple[int, ...]) -> tuple:
    """Index that fixes each of the axes to its bit and keeps the rest; the
    trailing Ellipsis keeps it a view even when every axis is fixed."""
    idx: list = [slice(None)] * (max(axes, default=-1) + 1)
    for a, b in zip(axes, bits):
        idx[a] = b
    return (*idx, ...)


def _sub(state: StateVector, fixed: dict[int, int]) -> np.ndarray:
    """View of the amplitudes where each qubit q reads fixed[q]; its axes are
    the runs of the other stored qubits. Writes go through to the state."""
    shape, axes = _gaps(state.stored, tuple(fixed))
    return state.amps.reshape(shape)[_index(axes, tuple(fixed.values()))]


def _halves(state: StateVector, target: int, controls: tuple[int, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """The target's 0 and 1 halves inside the subspace where every control
    reads 1, as views of the state, which first widens to store them all."""
    _widen(state, max((target, *controls)) + 1)
    on = dict.fromkeys(controls, 1)
    return _sub(state, {**on, target: 0}), _sub(state, {**on, target: 1})


def _pieces(shape: tuple[int, ...], keep: int = 0, limit: int | None = None):
    """Indices that tile an array of this shape into pieces of at most
    limit (default _MOVE_CHUNK) elements, never splitting its last ``keep``
    axes (a piece then holds at least those axes whole)."""
    limit = _MOVE_CHUNK if limit is None else limit
    axis, inner = len(shape), 1
    while axis > 0 and (axis > len(shape) - keep or inner * shape[axis - 1] <= limit):
        axis -= 1
        inner *= shape[axis]
    if axis == 0:
        yield ...
        return
    step = max(1, limit // inner)
    for outer in np.ndindex(*shape[: axis - 1]):
        for j in range(0, shape[axis - 1], step):
            yield outer + (slice(j, j + step),)


def _rotate(views: Sequence[np.ndarray]) -> None:
    """Move the data of views[j] to views[j + 1] and the last one's to the
    first, so two views swap. The views are disjoint and of one shape;
    they move piece by piece, so no temporary exceeds _MOVE_CHUNK amplitudes."""
    for p in _pieces(views[0].shape):
        tmp = views[-1][p].copy()
        for dst, src in zip(views[:0:-1], views[-2::-1]):
            dst[p] = src[p]
        views[0][p] = tmp


def _max_abs(amps: np.ndarray) -> float:
    """max|amp| without a temporary of the array's size; a NaN propagates."""
    if not np.iscomplexobj(amps):
        hi, lo = float(amps.max()), float(amps.min())
        return hi if hi >= -lo else -lo
    return float(np.max([np.abs(amps[p]).max() for p in _pieces(amps.shape)]))


def _rescale_guard(state: StateVector, peak: tuple[float, float] = _NO_BOUND) -> tuple[float, float]:
    """Rescale by a power of two when max|amp| leaves [2^-500, 2^+500];
    scan only when the bounds peak = (lo, hi) do not prove it inside.
    Returns the bounds after, exact after a scan."""
    if _GUARD_LO <= peak[0] and peak[1] <= _GUARD_HI:
        return peak
    m = _max_abs(state.amps)
    if m == 0.0:
        raise ZeroStateError("state vector collapsed to zero")
    if not _GUARD_LO <= m <= _GUARD_HI:
        e = int(math.floor(math.log2(m)))
        state.amps *= 2.0 ** (-e)
        state.exponent += e
        m = math.ldexp(m, -e)
    return m, m


def _bracket(peak: tuple[float, float], lo: float, hi: float) -> tuple[float, float]:
    """Bounds on max|amp| after a step that scales it by [lo, hi], rounding included."""
    return peak[0] * lo * (1 - 2.0**-40), peak[1] * hi * (1 + 2.0**-40)


def _hadamard(a: np.ndarray, b: np.ndarray) -> None:
    """(a, b) <- ((a + b) / sqrt 2, (a - b) / sqrt 2) in place, one piece."""
    plus = a + b
    plus *= _INV_SQRT2
    np.subtract(a, b, out=b)
    b *= _INV_SQRT2
    a[...] = plus


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place; returns the same state for chaining.

    This is the gate-by-gate reference: apply_circuit runs H, T and any
    gate it cannot fuse through here, and the tests compare its fused
    blocks against a loop over this function.
    """
    if max(gate.qubits) >= state.num_qubits:
        raise CircuitError(f"gate {gate.kind}{gate.qubits} exceeds register of {state.num_qubits} qubits")
    kind = gate.kind
    if kind in COMPLEX_KINDS and state.mode != "complex":
        raise RealModeError(f"{kind} gate requires complex mode")
    v0, v1 = _halves(state, gate.target, gate.controls)
    if kind == "H":
        for p in _pieces(v0.shape):
            _hadamard(v0[p], v1[p])
    elif kind in PERMUTATION_KINDS:
        _rotate((v0, v1))
    else:
        d0, d1 = diagonal_factors(gate)
        if d0 != 1.0:
            v0 *= d0
        v1 *= d1
        if gate.param is not None:  # a gain changes the norm
            _rescale_guard(state)
    return state


# ---------------------------------------------------------------------------
# Gate fusion (module notes). A block's qubits split at _tail_width(n): the
# low ones index positions inside a row's contiguous tail, the high ones
# pick the row. A block scales rows, then gathers within a row's tail and
# moves whole rows along cycles; a high target under a low control splits
# rows, and then each row is gathered from the rows its states come from.
# Blocks are traced on bit planes (_hot).
# ---------------------------------------------------------------------------

_MONOMIAL = PERMUTATION_KINDS | (DIAGONAL_KINDS - COMPLEX_KINDS)  # a block's factors are real
_DENSE_QUBITS = 10  # qubits below this index form the contiguous tail of a row
_BLOCK_QUBITS = 10  # most qubits one block touches
_ROW_QUBITS = 6  # most block qubits above the tail: at most 2^6 rows per block
_SPARSE_SHIFT = 7  # apply_circuit starts sparse while at most 2^-7 of the amplitudes are nonzero


def _merge_diagonal(stretch: list[Gate]) -> list[Gate]:
    """Fold a stretch of commuting diagonal gates into one gate per
    (kind, qubits), e.g. r rounds of CG(q, nh) into CG(q, nh, g^r).

    A folded parameter stays within 2^±500 (a new gate starts instead),
    Z twice and a parameter product of exactly 1 drop out.
    """
    out: list = []  # [first gate, folded parameter], or None once cancelled
    slot: dict[tuple, int] = {}
    for g in stretch:
        key = (g.kind, g.qubits)
        j = slot.get(key)
        if j is not None:
            p = 1.0 if g.param is None else out[j][1] * g.param  # Z squares to 1
            if p == 1.0:
                out[j] = None
                del slot[key]
                continue
            if abs(math.log2(p)) <= PARAM_LOG2_CAP:
                out[j][1] = p
                continue
        slot[key] = len(out)
        out.append([g, g.param])
    return [g if p == g.param else Gate(g.kind, g.qubits, p) for g, p in filter(None, out)]


def _fold(run: Sequence[Gate]) -> list[Gate]:
    """A run of monomial gates with each diagonal stretch merged."""
    items: list[Gate] = []
    for diagonal, stretch in groupby(run, key=lambda g: g.kind in DIAGONAL_KINDS):
        items += _merge_diagonal(list(stretch)) if diagonal else list(stretch)
    return items


@lru_cache(maxsize=32)
def _basis_planes(k: int) -> tuple[int, ...]:
    """The identity map on 2^k local states as bit planes: bit x of plane j is bit j of x."""
    x = np.arange(1 << k)
    return tuple(int.from_bytes(np.packbits(x >> j & 1, bitorder="little").tobytes(), "little") for j in range(k))


def _bits(planes: Sequence[int], k: int) -> np.ndarray:
    """(len(planes), 2^k) array of 0s and 1s: bit x of each plane."""
    size = max(1, (1 << k) >> 3)
    raw = b"".join([p.to_bytes(size, "little") for p in planes])
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(planes), 8 * size)[:, : 1 << k]  # not -1: there may be no planes


def _hot(g: Gate, pos: dict, planes: list[int], full: int) -> tuple[int, int]:
    """g's target's plane index and hot, where all its controls' planes read 1."""
    hot = full
    for q in g.qubits[:-1]:
        hot &= planes[pos[q]]
    return pos[g.qubits[-1]], hot


def _trace(gates: Sequence[Gate], qubits: Sequence[int], fixed: dict[int, int]) -> tuple | None:
    """One pass over folded gates on bit planes (bit x of plane j is bit j
    of local state x; a fixed qubit's plane holds its bit). Returns their
    monomial_map (dest, w, e) on the stored rows, or None when a fixed
    qubit does not end as it started. A stretch's factors, at most 2^500
    apart, multiply as one matrix of under _MOVE_CHUNK entries,
    renormalized once: a product inside 2^±500 rounds as the plain one.
    Bit planes stay: tracing int64 arrays of local states instead saves
    about 28 lines, but took 5.5 ms against 2.1 ms for 880 gates and made
    22/24-qubit primitive majsat.run_exact take 0.0092/0.0165 s against
    0.0070/0.0124 s (2 vCPUs, numpy 2.4)."""
    k, pos = len(qubits), {q: j for j, q in enumerate([*qubits, *fixed])}
    full = (1 << (1 << k)) - 1
    planes = [*_basis_planes(k), *(full * b for b in fixed.values())]
    start, stretches, span = planes[k:], [[]], 0.0
    for g in gates:
        t, hot = _hot(g, pos, planes, full)
        if g.kind in PERMUTATION_KINDS:
            planes[t] ^= hot
            continue
        cost = abs(math.log2(g.param)) if g.param is not None else 0.0
        if span + cost > PARAM_LOG2_CAP or (2 * len(stretches[-1]) + 2) << k > _MOVE_CHUNK:
            stretches, span = [*stretches, []], 0.0
        stretches[-1].append((diagonal_factors(g), hot & ~planes[t], hot & planes[t]))
        span += cost
    if planes[k:] != start:
        return None
    w, e = np.ones(1 << k), np.zeros(1 << k, dtype=np.int64)
    for stretch in filter(None, stretches):
        d = np.array([f for f, _, _ in stretch])
        on = _bits([p for _, *pair in stretch for p in pair], k).view(bool).reshape(len(stretch), 2, -1)
        f = np.ones((len(stretch), 1 << k))
        np.copyto(f, d[:, :1], where=on[:, 0])
        np.copyto(f, d[:, 1:], where=on[:, 1])
        w, de = np.frexp(np.multiply.reduce(np.vstack((w, f)), axis=0))
        e = e + de
    return (np.ldexp(1.0, np.arange(k)) @ _bits(planes[:k], k)).astype(np.int64), w, e


def monomial_map(gates: Sequence[Gate], qubits: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How a nonempty run of monomial gates acts on the basis of the qubits
    it touches, diagonal stretches folded first as in apply_circuit's
    blocks: (dest, w, e), where local basis state x (bit j is qubits[j])
    moves to dest[x] and picks up the factor w[x] * 2^e[x]."""
    return _trace(_fold(gates), qubits, {})


def _tail_width(n: int) -> int:
    """How many low qubits form the contiguous tail of a block's rows."""
    return min(_DENSE_QUBITS, n - 1)


def _fuse_run(run: list[Gate], state: StateVector) -> Iterator:
    """Yield the blocks over a run of monomial gates, diagonal stretches
    merged first, each traced once the step before it has run. A block
    grows greedily within the qubit, row and factor-range caps, so the
    gates it holds depend on the gates and the register width alone; a
    gate past the caps runs alone. A block that moves a fixed qubit
    widens the state to store its qubits and is traced again."""
    items = _fold(run)
    dense = _tail_width(state.num_qubits)
    i = 0
    while i < len(items):
        j, touched, budget = i, set(), 0.0
        while j < len(items):
            g = items[j]
            joined = touched.union(g.qubits)
            cost = abs(math.log2(g.param)) if g.param is not None else 0.0
            if budget + cost > PARAM_LOG2_CAP or len(joined) > len(touched) and (
                len(joined) > _BLOCK_QUBITS or sum(q >= dense for q in joined) > _ROW_QUBITS
            ):
                break
            touched, budget, j = joined, budget + cost, j + 1
        if j == i:  # a gate past the caps runs alone
            yield items[i]
            i += 1
            continue
        qubits = sorted(touched)
        while True:
            low, high = [q for q in qubits if q < dense], [q for q in qubits if dense <= q < state.stored]
            fixed = {q: state.fixed >> q & 1 for q in qubits if q >= state.stored}
            if (net := _trace(items[i:j], low + high, fixed)) is not None:
                break
            _widen(state, qubits[-1] + 1)
        yield items[i:j], net, low, high
        i = j


def _compile(gates: tuple[Gate, ...], state: StateVector) -> Iterator:
    """Yield the steps for a gate tuple on the state: H and T (and gates
    past the block caps) as single gates, monomial runs as blocks (gates,
    net, low, high) for _apply_block, one gate long or more, each traced
    once the step before it has run, so one block's map is held at a time."""
    for monomial, run in groupby(gates, key=lambda g: g.kind in _MONOMIAL):
        yield from _fuse_run(list(run), state) if monomial else run


@lru_cache(maxsize=64)
def _spread(low: tuple[int, ...], dense: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Over a row's 2^dense tail positions: each one's index over the low
    qubits, each such index's position, and each position's other bits."""
    tail, x = np.arange(1 << dense), np.arange(1 << len(low))
    local = sum(((tail >> q & 1) << j for j, q in enumerate(low)), np.zeros_like(tail))
    spread = sum(((x >> j & 1) << q for j, q in enumerate(low)), np.zeros_like(x))
    return local, spread, tail & ~int(spread[-1])


def _apply_block(state: StateVector, gates: Sequence[Gate], net: tuple, low: list, high: list, peak=_NO_BOUND):
    """Apply net, the (dest, w, e) map _trace gives for the gates over the
    local qubits low + high (all stored), in place and in one pass; which
    rows scale or permute is decided once, and only their views are built.
    Rows scale first, then a map that splits rows stacks them piece by
    piece, as gram stacks its views, and gathers each row from its sources.
    Takes and returns bounds on max|amp| (_rescale_guard). The fork stays:
    one stacked gather for every map made 22/25/27-qubit semantic
    majsat.run_exact take 0.031/0.29/1.36 s against 0.025/0.20/1.05 s, and
    an all-X block over 6 row qubits 0.19 s against 0.042 s, its pieces
    shrunk to 2^10 amplitudes per row (2 vCPUs, numpy 2.4)."""
    kl, dense = len(low), _tail_width(state.stored)
    local, spread, rest = _spread(tuple(low), dense)
    dest, w, e = (a.reshape(-1, 1 << kl) for a in net)  # (row, index over the low qubits)
    f = np.ldexp(w, e)  # in range: a block's factors stay within 2^±500
    to, to_row = dest & ((1 << kl) - 1), dest >> kl

    def row(h):  # a _sub view, the run below the lowest high qubit split into (rest, tail)
        r = _sub(state, {q: h >> j & 1 for j, q in enumerate(high)})
        return r.reshape(*r.shape[:-1], -1, 1 << dense)

    uniform = np.all(f == f[:, :1], axis=1)
    for h in np.flatnonzero(np.any(f != 1.0, axis=1)).tolist():
        np.multiply(r := row(h), f[h, 0] if uniform[h] else f[h][local], out=r)
    if np.any(to_row != to_row[:, :1]):  # the map splits rows
        back = np.argsort(dest, axis=None)  # back[y]: the local state y is gathered from
        src = (back >> kl << dense | spread[back & (1 << kl) - 1]).reshape(len(dest), -1)[:, local]
        src |= rest  # src[h, t]: where tail position t of row h is gathered from, in the stacked rows
        rows = [row(h) for h in range(len(dest))]
        for p in _pieces(rows[0].shape, keep=1, limit=_MOVE_CHUNK >> len(high)):
            stack = np.concatenate([r[p] for r in rows], axis=-1)  # the rows' tails side by side
            for r, at in zip(rows, src):
                r[p] = np.take(stack, at, axis=-1, mode="clip")
            del stack  # freed before the next piece is stacked
    else:
        moved = np.flatnonzero(np.any(to != np.arange(1 << kl), axis=1))
        for h, back in zip(moved.tolist(), np.argsort(to[moved], axis=1)):  # back[x]: where x is gathered from
            r, src = row(h), rest | spread[back[local]]
            for p in _pieces(r.shape, keep=1):
                r[p] = np.take(r[p], src, axis=-1, mode="clip")
        to_row = dict(enumerate(to_row[:, 0].tolist()))
        while to_row:  # walk each cycle of the row permutation once
            cycle = [next(iter(to_row))]
            while (nxt := to_row.pop(cycle[-1])) != cycle[0]:
                cycle.append(nxt)
            if len(cycle) > 1:
                _rotate([row(c) for c in cycle])  # row cycle[j]'s data moves to row cycle[j + 1]
    if any(g.param is not None for g in gates):  # a gain changes the norm
        peak = _rescale_guard(state, _bracket(peak, np.abs(f).min(), np.abs(f).max()))
    return peak


def _sparse_reach(gates: tuple[Gate, ...]) -> int:
    """How many leading gates the sparse prefix may run: up to the first T
    or the start of the first maximal monomial run that holds a diagonal
    gate, where _compile would start a run of its own anyway."""
    for k, g in enumerate(gates):
        if g.kind in DIAGONAL_KINDS:
            while g.kind in _MONOMIAL and k and gates[k - 1].kind in PERMUTATION_KINDS:
                k -= 1
            return k
    return len(gates)


def _apply_sparse(state: StateVector, gates: tuple[Gate, ...]) -> tuple[int, tuple[float, float]]:
    """Run leading gates on the nonzero amplitudes alone; returns how many
    (0 if the state stores more amplitudes than the sparse limit) and
    bounds on max|amp| after them. A permutation flips its target bit in
    the indices where every control reads 1; H merges index pairs through
    _hadamard and drops exact zeros. The support left is stored afresh."""
    reach, limit = _sparse_reach(gates), (1 << state.num_qubits) >> _SPARSE_SHIFT
    if not reach or state.amps.size > limit:
        return 0, _NO_BOUND
    old = np.flatnonzero(state.amps)
    idx, vals = old | state.fixed, state.amps[old]
    for done, g in enumerate(gates[:reach]):
        bit = 1 << g.target
        if g.kind in PERMUTATION_KINDS:
            on = sum(1 << c for c in g.controls)
            idx = np.where(idx & on == on, idx ^ bit, idx)
            continue
        base, pair = np.unique(idx & ~bit, return_inverse=True)
        if 2 * len(base) > limit:
            reach = done
            break
        ab = np.zeros((2, len(base)), dtype=vals.dtype)
        ab[(idx & bit != 0).astype(np.intp), pair] = vals
        _hadamard(*ab)
        idx, vals = np.concatenate((base, base | bit)), ab.ravel()
        idx, vals = idx[vals != 0], vals[vals != 0]
    live = int(np.bitwise_or.reduce(idx) ^ np.bitwise_and.reduce(idx)).bit_length()
    state.fixed = int(idx[0]) >> live << live
    state.amps = np.zeros(1 << live, dtype=vals.dtype)
    state.amps[idx ^ state.fixed] = vals
    m = float(np.max(np.abs(vals)))  # the support only: at most the sparse limit
    return reach, (m, m)


def _apply_dense(state: StateVector, gates: tuple[Gate, ...], peak: tuple[float, float] = _NO_BOUND) -> StateVector:
    """Apply the steps of _compile on the stored qubits, carrying bounds on
    max|amp| from peak (module notes). On a state stored whole, as from
    state_from_amplitudes, it is the reference for apply_circuit."""
    _widen(state, min(state.num_qubits, _DENSE_QUBITS + 1))
    for step in _compile(gates, state):
        if not isinstance(step, Gate):
            peak = _apply_block(state, *step, peak)
            continue
        apply_gate(state, step)
        if step.kind not in PERMUTATION_KINDS:  # H scales max|amp| by 2^-1/2 to 2^1/2
            peak = _bracket(peak, _INV_SQRT2, math.sqrt(2.0)) if step.kind == "H" else _NO_BOUND
    return state


def apply_circuit(state: StateVector, circuit: Circuit | Iterable[Gate]) -> StateVector:
    """Apply gates in list order. Accepts a Circuit or a bare gate iterable.

    Gates that reach past the register raise CircuitError before any is
    applied. Runs the sparse prefix, then the gates and blocks of _compile
    on the rest (see the module notes).
    """
    if not isinstance(circuit, Circuit):
        circuit = Circuit(state.num_qubits, circuit)  # checks each gate against the register
    elif circuit.qubit_count != state.num_qubits:
        raise CircuitError(f"circuit has {circuit.qubit_count} qubits, state has {state.num_qubits}")
    gates = circuit.gates
    reach, peak = _apply_sparse(state, gates)
    return _apply_dense(state, gates[reach:], peak)


# ---------------------------------------------------------------------------
# Sums of products. Mantissas may reach 2^500, so a sum of their squares
# over a large register could overflow. Every such sum comes from gram,
# which scales the pieces it gathers so that max|amp| lies in [1, 2):
# masses, probabilities and fidelities read a one-qubit Gram matrix (its
# trace is the squared norm), and fidelity's overlap is summed at the
# same scale. So no reduction allocates more than a piece of the state.
# ---------------------------------------------------------------------------

ZERO_MASS = float(np.finfo(np.float64).tiny)  # a kept mass below this, on gram's scale, is zero


def gram(state: StateVector, qubits: Sequence[int]) -> tuple[np.ndarray, int]:
    """Gram matrix of the state over a few local qubits, in one pass.

    Returns (m, e). Bit j of a local index is qubits[j], and m[x, y] * 4^e
    is the sum, over every assignment r of the other qubits, of
    conj(psi(r, x)) * psi(r, y). The mantissas are scaled so that
    max|amp| lies in [1, 2) before any product, so no entry overflows and
    small ones keep their precision. Only the stored amplitudes are read:
    a qubit from state.stored up reads its bit of state.fixed, and a local
    basis state x whose fixed qubits read other bits has
    m[x, .] = m[., x] = 0. Each other x has one _sub view; the views are
    tiled alike into pieces of _MOVE_CHUNK / 2^k' amplitudes, k' the
    stored local qubits, and the 2^k' pieces at one place are stacked into
    a (2^k', columns) matrix A that adds conj(A) A^T. So the cost is about
    2^k' passes over the stored amplitudes and no temporary is their size.
    """
    qubits = [int(q) for q in qubits]
    n = state.num_qubits
    if not qubits or len(set(qubits)) < len(qubits) or min(qubits) < 0 or max(qubits) >= n:
        raise InputError(f"gram needs distinct qubits inside a {n}-qubit register, got {qubits}")
    k = len(qubits)
    free = [j for j, q in enumerate(qubits) if q < state.stored]
    fixed = [(j, state.fixed >> q & 1) for j, q in enumerate(qubits) if q >= state.stored]
    on = [x for x in range(1 << k) if all(x >> j & 1 == b for j, b in fixed)]  # the stored local states
    views = [_sub(state, {qubits[j]: (x >> j) & 1 for j in free}) for x in on]
    shift = math.frexp(_max_abs(state.amps))[1] - 1  # brings max|amp| into [1, 2)
    scale = math.ldexp(1.0, -shift)
    m = np.zeros((1 << k, 1 << k), dtype=state.amps.dtype)
    for p in _pieces(views[0].shape, limit=_MOVE_CHUNK >> len(free)):
        a = np.stack([v[p] for v in views]).reshape(len(on), -1)
        if shift:
            a *= scale  # a gathered copy, never the state
        m[np.ix_(on, on)] += (a.conj() if state.mode == "complex" else a) @ a.T
    return m, state.exponent + shift


def _scaled_norm(state: StateVector) -> tuple[float, int]:
    """(m, k): m is the squared norm of amps * 2^-k, gram's scale, so the
    true squared norm is m * 4^(exponent + k)."""
    m, e = gram(state, [0])  # summed closer than over the top qubit: 0.8 against 5 ulp on the corpus
    return float(np.real(m[0, 0] + m[1, 1])), e - state.exponent


def norm_sq(state: StateVector) -> float:
    """True squared norm, exponent included. Raises if not representable."""
    base, k = _scaled_norm(state)
    if base == 0.0:
        raise ZeroStateError("state vector has zero norm")
    try:
        val = math.ldexp(base, 2 * (state.exponent + k))
    except OverflowError as exc:
        raise NormOverflowError("squared norm overflows double precision") from exc
    if val == 0.0:
        raise NormOverflowError("squared norm underflows double precision")
    return val


def renormalize(state: StateVector) -> StateVector:
    """Scale to unit norm (exponent reset to 0), in place."""
    base, k = _scaled_norm(state)
    if base == 0.0:
        raise ZeroStateError("cannot renormalize a zero state")
    state.amps /= math.ldexp(math.sqrt(base), k)  # 2^k sqrt(base) is exact: one rounding per amplitude
    state.exponent = 0
    return state


def _branch_masses(state: StateVector, qubit: int) -> tuple[float, float, int]:
    """Squared masses m0, m1 of the qubit's 0 and 1 branches and the
    exponent e they go with: the true masses are m * 4^e."""
    m, e = gram(state, [qubit])
    return float(np.real(m[0, 0])), float(np.real(m[1, 1])), e


def probabilities_z(state: StateVector, qubit: int) -> tuple[float, float]:
    m0, m1, _ = _branch_masses(state, qubit)
    tot = m0 + m1
    if tot == 0.0:
        raise ZeroStateError("state vector has zero norm")
    return m0 / tot, m1 / tot


def x_probabilities(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P(+1), P(-1)) of an x-basis readout of a qubit with real 2x2 reduced
    matrix rho, or of every matrix in a stack of shape (..., 2, 2). The ops
    are elementwise, so a stacked row rounds as the lone matrix does."""
    kept = rho[..., 0, 0] + rho[..., 1, 1]
    mp = np.maximum(kept + 2.0 * rho[..., 0, 1], 0.0)
    mm = np.maximum(kept - 2.0 * rho[..., 0, 1], 0.0)
    tot = mp + mm
    if np.any(tot == 0.0):
        raise ZeroStateError("state vector has zero norm")
    return mp / tot, mm / tot


def probabilities_x(state: StateVector, qubit: int) -> tuple[float, float]:
    """(P(+1), P(-1)) for an x-basis measurement of the qubit."""
    return x_probabilities(np.real(gram(state, [qubit])[0]))


def postselect(state: StateVector, qubit: int, bit: int) -> tuple[float, StateVector]:
    """Condition on qubit == bit. Returns (branch probability, conditioned state).

    A kept mass below ZERO_MASS on gram's scale counts as zero, the rule
    majsat's readout sweep applies too.
    """
    if bit not in (0, 1):
        raise InputError(f"postselect bit must be 0 or 1, got {bit}")
    m0, m1, _ = _branch_masses(state, qubit)
    tot = m0 + m1
    if tot == 0.0:
        raise ZeroStateError("state vector has zero norm")
    keep = m1 if bit else m0
    if keep < ZERO_MASS:
        raise PostselectError(f"postselected branch qubit{qubit}={bit} has zero mass")
    _halves(state, qubit)[1 - bit][...] = 0.0
    renormalize(state)
    return keep / tot, state


def prepare_superposed_qubit(state: StateVector, qubit: int, alpha: float, beta: float) -> StateVector:
    """Send a |0> qubit to (alpha|0> + beta|1>)/sqrt(alpha^2 + beta^2)."""
    alpha = float(alpha)
    beta = float(beta)
    if not (alpha > 0.0 and beta > 0.0):
        raise InputError(f"superposition coefficients must be positive, got {alpha}, {beta}")
    v0, v1 = _halves(state, qubit)
    if _max_abs(v1) != 0.0:
        raise InputError(f"qubit {qubit} is not in a definite |0> state")
    norm = math.hypot(alpha, beta)
    np.multiply(v0, beta / norm, out=v1)
    v0 *= alpha / norm
    return state


def _fidelity(overlap, na: float, nb: float) -> float:
    """|overlap|^2 / (na * nb), clipped to [0, 1]."""
    if na == 0.0 or nb == 0.0:
        raise ZeroStateError("fidelity of a zero state is undefined")
    val = float((overlap * overlap.conjugate()).real) / (na * nb)
    return min(max(val, 0.0), 1.0)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 / (norm_sq(a) * norm_sq(b)).

    Each state is read at its own gram scale, so the exponents cancel
    exactly; the overlap is summed piece by piece where both are stored.
    """
    if a.num_qubits != b.num_qubits:
        raise InputError(f"fidelity needs equal registers, got {a.num_qubits} and {b.num_qubits}")
    (na, ka), (nb, kb) = _scaled_norm(a), _scaled_norm(b)
    sa, sb = math.ldexp(1.0, -ka), math.ldexp(1.0, -kb)
    lo, hi = max(a.fixed, b.fixed), min(a.fixed + a.amps.size, b.fixed + b.amps.size)
    xa, xb = (s.amps[lo - s.fixed : max(lo, hi) - s.fixed] for s in (a, b))
    overlap = sum(np.vdot(xa[p] * sa, xb[p] * sb) for p in _pieces(xa.shape))
    return _fidelity(overlap, na, nb)


def sparse_fidelity(state: StateVector, target: dict[int, float]) -> float:
    """fidelity(state, b) for a target b whose only nonzero amplitudes are
    target[j] at basis index j. Reads those amplitudes and the state's
    norm; no target vector is built."""
    base, k = _scaled_norm(state)
    at = [j ^ state.fixed for j in target]  # below amps.size where the state stores j
    amps = np.array([state.amps[x] if x < state.amps.size else 0.0 for x in at], dtype=state.amps.dtype)
    t = np.array(list(target.values()), dtype=state.amps.dtype)
    overlap = np.vdot(amps * math.ldexp(1.0, -k), t)
    return _fidelity(overlap, base, float(np.real(np.vdot(t, t))))


def pure_fidelity(rho: np.ndarray, c0, c1) -> float:
    """<phi|rho|phi> / (tr rho * <phi|phi>) for phi = c0|0> + c1|1> and a
    qubit's 2x2 (unnormalized) reduced matrix rho, clipped to [0, 1]."""
    a0, a1 = np.conj(c0), np.conj(c1)
    target_norm = (a0 * c0 + a1 * c1).real
    if target_norm == 0.0:
        raise ZeroStateError("target qubit state has zero norm")
    trace = (rho[0, 0] + rho[1, 1]).real
    if trace == 0.0:
        raise ZeroStateError("state vector has zero norm")
    num = (a0 * c0 * rho[0, 0] + 2.0 * a0 * c1 * rho[0, 1] + a1 * c1 * rho[1, 1]).real
    return min(max(float(num / (trace * target_norm)), 0.0), 1.0)
