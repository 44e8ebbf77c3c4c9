"""Dense state-vector simulation with explicit norm tracking.

Index convention: bit q of a basis index is the computational value of
qubit q, so qubit 0 is the least significant bit. This is fixed across
the whole package.

Amplitudes are stored as a mantissa array plus one shared power-of-two
exponent; the true vector is amps * 2**exponent. Unitary kernels never
change the norm, so only kernels that apply G or CG factors run the
rescaling guard: whenever the largest mantissa magnitude leaves
[2^-500, 2^+500] the array is scaled by an exact power of two and the
exponent absorbs the difference. Gate parameters are capped at 2^±500
(circuit.py) and a fused block is cut before its factors could leave
that range, so one kernel can never overflow the mantissa array. Every
sum of squared or multiplied mantissas runs on pieces scaled by a power
of two to max|amp| in [1, 2), as gram reads them. Norm queries that
cannot represent the true value in a double raise instead of returning
Inf or 0.

apply_circuit starts sparse while at most 2^-_SPARSE_SHIFT of the
amplitudes are nonzero, as after the superposition and the oracle: it
runs the leading H and permutation gates on (index, amplitude) pairs,
then writes the support back. It stops at T, at an H that would take
the support past that limit, and at the start of any maximal monomial
run holding a diagonal gate, so the rest fuses into the blocks the whole
sequence gets and the state is bit for bit _apply_dense's. The dense
path cuts its gates into steps as it applies them; nothing is built
ahead or cached. What each gate kind does comes from circuit.py: a
permutation kind NOTs its target under its controls, a diagonal kind
scales by diagonal_factors. H and T run one gate at a time; T is diagonal but
complex, and a block's factors are real, so it runs alone. Every other
kind is monomial, a basis permutation (X, CNOT, CCNOT, NCNOT) or a real
diagonal (Z, G, CG), so each run of them is cut into blocks of at most
10 qubits. Within a stretch of diagonal gates, gates on the same qubits
fold into one, e.g. r rounds of CG(q, nh) into one CG(q, nh, g^r). One
basis trace per block finds where it may end, and the block is applied
straight from the map that trace holds, in place and in one pass: scale
rows, permute within and between rows, then one guard check. apply_gate
is the gate-by-gate reference the tests compare the blocks against. With
power-of-two parameters the two agree bit for bit; otherwise a block
rounds its product of factors once where the gate loop rounds after
every gate.

If the top qubits read the same bits at every nonzero amplitude the
sparse prefix leaves (one AND and one OR over its indices) and more than
_DENSE_QUBITS qubits below them vary, the dense steps run on that live
slice: a contiguous view, as a smaller StateVector sharing the exponent.
Blocks are still cut on the whole register; one whose high qubits
include fixed ones applies the rows of its map where they read their
bits, once a check shows those rows map onto themselves. A lone gate on
a fixed qubit (an H, say) or a block that fails the check leaves the
slice for good: the rest runs on the whole register, exponent and all.
gram proves its slice from the amplitudes instead: _span finds the
first and last nonzero one, and the qubits above the aligned block that
holds both read as fixed bits, so only that block is read. An exact
solve (majsat) simulates each plan in one apply_circuit call, through
the readout's H, so the H runs on the slice as well.

Gates, block rows and gram find the amplitudes where some qubits hold
given bits through one reshape, _gaps. Data moves (H's sums, the swaps
of X, CNOT, CCNOT and NCNOT, a block's gathers and row cycles, gram's
gathers) run through _pieces, at most _MOVE_CHUNK amplitudes at a time,
so none allocates a temporary the size of the state. A swap is a row
cycle of length two: both run through _rotate.

Real mode stores float64 and never allocates an imaginary component;
realness of the restricted gate set is a property of the storage, not a
tolerance. T requires complex mode and is rejected otherwise.

States deliberately stay unnormalized under G; renormalization is an
explicit operation because downstream code needs raw squared masses.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Iterable, Iterator, Sequence

import numpy as np

from .circuit import COMPLEX_KINDS, DIAGONAL_KINDS, PERMUTATION_KINDS, Circuit, Gate, diagonal_factors
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
_GUARD_HI = 2.0**500
_GUARD_LO = 2.0**-500
_MOVE_CHUNK = 1 << 16  # most amplitudes one piece of a data move or |x| temporary holds


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
    mode: str = "real"
    exponent: int = 0

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amps.copy(), self.mode, self.exponent)


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
    """Basis state |basis_index> on a fresh register."""
    _check_register(num_qubits)
    dim = 1 << num_qubits
    if not 0 <= basis_index < dim:
        raise InputError(f"basis index {basis_index} out of range for {num_qubits} qubits")
    amps = np.zeros(dim, dtype=_dtype_for(mode))
    amps[basis_index] = 1.0
    return StateVector(num_qubits=num_qubits, amps=amps, mode=mode)


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
    state = StateVector(num_qubits=n, amps=amps.copy(), mode=mode, exponent=exponent)
    _rescale_guard(state)
    return state


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
    the runs of the other qubits. Writes go through to the state."""
    shape, axes = _gaps(state.num_qubits, tuple(fixed))
    return state.amps.reshape(shape)[_index(axes, tuple(fixed.values()))]


def _halves(state: StateVector, target: int, controls: tuple[int, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """The target's 0 and 1 halves inside the subspace where every control
    reads 1, as views of the state."""
    shape, axes = _gaps(state.num_qubits, (*controls, target))
    v = state.amps.reshape(shape)
    on = (1,) * len(controls)
    return v[_index(axes, on + (0,))], v[_index(axes, on + (1,))]


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


def _rescale_guard(state: StateVector) -> None:
    """Rescale by a power of two when max|amp| leaves [2^-500, 2^+500]."""
    m = _max_abs(state.amps)
    if m == 0.0:
        raise ZeroStateError("state vector collapsed to zero")
    if _GUARD_LO <= m <= _GUARD_HI:
        return
    e = int(math.floor(math.log2(m)))
    state.amps *= 2.0 ** (-e)
    state.exponent += e


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
# Gate fusion. Every kind but H and T is monomial: a basis permutation (X,
# CNOT, CCNOT, NCNOT) or a real diagonal (Z, G, CG). apply_circuit cuts each
# maximal run of monomial gates into blocks and applies a block in one pass.
# A block's qubits split at _tail_width(n): the low ones index positions
# inside a row's contiguous tail, the high ones pick the row (a block with
# no high qubit has one row, the whole state). The block then
# scales rows by factor vectors over the tail, permutes the tail of a row
# with one gather, and moves whole rows along the cycles of the row
# permutation. So a block must keep rows whole: a gate with a high target
# and a low control splits them. _fuse_run traces the stretch the caps
# admit once and ends the block after its longest prefix that keeps rows
# whole; _apply_block applies the basis map the trace holds there.
# ---------------------------------------------------------------------------

_MONOMIAL = PERMUTATION_KINDS | (DIAGONAL_KINDS - COMPLEX_KINDS)  # a block's factors are real
_DENSE_QUBITS = 10  # qubits below this index form the contiguous tail of a row
_BLOCK_QUBITS = 10  # most qubits one block touches
_ROW_QUBITS = 6  # most block qubits above the tail: at most 2^6 rows per block
_LOG2_GUARD = 500  # log2 of _GUARD_HI: the widest factor range one block may apply
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
            if abs(math.log2(p)) <= _LOG2_GUARD:
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


def _trace_basis(gates: Sequence[Gate], qubits: Sequence[int]):
    """Run every local basis state through the gates, one gate at a time;
    bit j of a local index is qubits[j].

    Yields (dest, w, e) after each gate: local basis state x has moved to
    dest[x] and picked up the factor w[x] * 2^e[x], multiplied in gate
    order. w is renormalized to a mantissa after every diagonal gate, so
    a product of any length stays finite, and the rounding is that of the
    plain product wherever the plain product is a normal double.
    """
    pos = {q: j for j, q in enumerate(qubits)}
    dest = np.arange(1 << len(pos))
    w = np.ones(1 << len(pos))
    e = np.zeros(1 << len(pos), dtype=np.int64)
    for g in gates:
        target = 1 << pos[g.target]
        on = sum(1 << pos[q] for q in g.controls)
        hot = dest & on == on
        if g.kind in PERMUTATION_KINDS:
            dest = np.where(hot, dest ^ target, dest)
        else:
            d0, d1 = diagonal_factors(g)
            w, de = np.frexp(w * np.where(hot, np.where(dest & target, d1, d0), 1.0))
            e = e + de
        yield dest, w, e


def monomial_map(gates: Sequence[Gate], qubits: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How a nonempty run of monomial gates acts on the basis of the qubits
    it touches.

    Bit j of a local index is qubits[j]. Returns (dest, w, e): local basis
    state x moves to dest[x] and picks up the factor w[x] * 2^e[x].
    Diagonal stretches fold first, as in apply_circuit's blocks.
    """
    for dest, w, e in _trace_basis(_fold(gates), qubits):
        pass  # keep the map after the last gate
    return dest, w, e


def _rows_stay_whole(dest: np.ndarray, kl: int) -> bool:
    """True when the row a local state lands in depends only on the row it left."""
    to_row = (dest >> kl).reshape(-1, 1 << kl)
    return bool(np.all(to_row == to_row[:, :1]))


def _tail_width(n: int) -> int:
    """How many low qubits form the contiguous tail of a block's rows."""
    return min(_DENSE_QUBITS, n - 1)


def _fuse_run(run: list[Gate], n: int) -> Iterator:
    """Yield the blocks over a run of monomial gates, diagonal stretches
    merged first.

    A block grows greedily while it fits the qubit, row and factor-range
    caps. One trace of that stretch finds its longest prefix whose net
    permutation keeps rows whole, and the block is that prefix with the
    (dest, w, e) map the trace holds there, over the qubits its gates
    touch: a block cut short is traced again without the qubits only its
    dropped gates touched. Mid-way through a lowered CG (X, CNOT, G, CNOT,
    X, G) a low control has split a high target's rows, but the whole CG is
    diagonal again, so blocks of whole CGs qualify.
    """
    items = _fold(run)
    dense = _tail_width(n)
    i = 0
    while i < len(items):
        j, touched, budget = i, set(), 0.0
        while j < len(items):
            g = items[j]
            joined = touched | set(g.qubits)
            cost = abs(math.log2(g.param)) if g.param is not None else 0.0
            if (
                len(joined) > _BLOCK_QUBITS
                or sum(q >= dense for q in joined) > _ROW_QUBITS
                or budget + cost > _LOG2_GUARD
            ):
                break
            touched, budget, j = joined, budget + cost, j + 1
        low, high = sorted(q for q in touched if q < dense), sorted(q for q in touched if q >= dense)
        size, net, whole = 1, None, True
        for k, (g, trace) in enumerate(zip(items[i:j], _trace_basis(items[i:j], low + high)), 1):
            if g.kind in PERMUTATION_KINDS and g.target >= dense:  # only these move states between rows
                whole = _rows_stay_whole(trace[0], len(low))
            if whole and k > 1:
                size, net = k, trace
        gates = items[i : i + size]
        kept = set().union(*(g.qubits for g in gates))
        if net is not None and kept != touched:
            low, high = [q for q in low if q in kept], [q for q in high if q in kept]
            for net in _trace_basis(gates, low + high):
                pass  # keep the map after the last gate
        yield items[i] if net is None else (gates, net, low, high)
        i += size


def _compile(gates: tuple[Gate, ...], n: int) -> Iterator:
    """Yield the steps for a gate tuple on an n-qubit register: H and T
    (and gates no block can hold) as single gates, monomial runs as blocks
    (gates, net, low, high) for _apply_block. A block is cut only when the
    step before it has been taken, so one block's map is held at a time."""
    for monomial, run in groupby(gates, key=lambda g: g.kind in _MONOMIAL):
        yield from _fuse_run(list(run), n) if monomial else run


def _apply_block(state: StateVector, gates: Sequence[Gate], net: tuple, low: list, high: list) -> None:
    """Apply net, the (dest, w, e) map _trace_basis gives for the gates over
    the local qubits low + high, in place and in one pass."""
    n, kl = state.num_qubits, len(low)
    dense = _tail_width(n)
    dest, w, e = (a.reshape(-1, 1 << kl) for a in net)  # (row, index over the low qubits)
    f = np.ldexp(w, e)  # in range: a block's factors stay within 2^±500

    # Spread the low part over the 2^dense tail positions of a row.
    tail = np.arange(1 << dense)
    local = np.zeros_like(tail)
    spread = np.zeros(1 << kl, dtype=tail.dtype)
    for j, q in enumerate(low):
        local |= ((tail >> q) & 1) << j
        spread |= ((np.arange(1 << kl) >> j) & 1) << q
    rest = tail & ~int(spread[-1])

    # Rows are _gaps views over the high qubits, with the run below the
    # lowest one (if any) split into (rest, tail).
    shape, axes = _gaps(n, tuple(high))
    below = min(high, default=n)
    v = state.amps.reshape(*(shape[:-1] if below else shape), 1 << (below - dense), 1 << dense)
    rows = [v[_index(axes, tuple((h >> j) & 1 for j in range(len(high))))] for h in range(len(dest))]
    for r, fh, to in zip(rows, f, dest & ((1 << kl) - 1)):
        if np.any(fh != 1.0):
            np.multiply(r, fh[0] if np.all(fh == fh[0]) else fh[local], out=r)
        if np.any(to != np.arange(1 << kl)):
            src = np.argsort(rest | spread[to[local]])
            for p in _pieces(r.shape, keep=1):
                r[p] = np.take(r[p], src, axis=-1, mode="clip")
    to_row = (dest[:, 0] >> kl).tolist()
    for h in range(len(rows)):
        cycle = [h]
        while to_row[cycle[-1]] != h:
            cycle.append(to_row[cycle[-1]])
        for c in cycle:
            to_row[c] = c  # so no later h walks this cycle again
        if len(cycle) > 1:
            _rotate([rows[c] for c in cycle])  # row cycle[j]'s data moves to row cycle[j + 1]
    if any(g.param is not None for g in gates):  # a gain changes the norm
        _rescale_guard(state)


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


def _support(amps: np.ndarray, limit: int) -> np.ndarray | None:
    """Indices of the nonzero amplitudes in ascending order, or None as soon
    as there are more than limit. One pass of _MOVE_CHUNK pieces, so a dense
    state stops at its first piece."""
    found, count = [], 0
    for start in range(0, amps.size, _MOVE_CHUNK):
        idx = np.flatnonzero(amps[start : start + _MOVE_CHUNK] != 0)
        count += idx.size
        if count > limit:
            return None
        found.append(idx + start)
    return np.concatenate(found)


def _span(amps: np.ndarray) -> tuple[int, int]:
    """First and last index of a nonzero amplitude, (0, size - 1) if there is
    none. Scans _MOVE_CHUNK pieces in from each end, so a dense state stops
    at its first piece on both sides."""
    starts = range(0, amps.size, _MOVE_CHUNK)
    hit = [next((s for s in run if amps[s : s + _MOVE_CHUNK].any()), None) for run in (starts, starts[::-1])]
    if hit[0] is None:
        return 0, amps.size - 1
    first, last = (s + np.flatnonzero(amps[s : s + _MOVE_CHUNK]) for s in hit)
    return int(first[0]), int(last[-1])


def _apply_sparse(state: StateVector, gates: tuple[Gate, ...]) -> tuple[int, np.ndarray | None]:
    """Run leading gates on the nonzero amplitudes alone; returns how many
    and the support they leave (None if too dense to start). A permutation
    flips its target bit in the indices where every control reads 1; H
    merges index pairs through _hadamard and drops exact zeros."""
    reach, limit = _sparse_reach(gates), (1 << state.num_qubits) >> _SPARSE_SHIFT
    old = _support(state.amps, limit) if reach else None
    if old is None:
        return 0, None
    idx, vals = old, state.amps[old]
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
    state.amps[old] = 0.0
    state.amps[idx] = vals
    return reach, idx


def _on_slice(step, live: int, base: int):
    """The step as it acts on the live slice, where every qubit from live up
    reads its bit of base; None when it may move amplitude out of the slice.
    A block keeps the rows of its map where those qubits read their bits."""
    if isinstance(step, Gate):
        return step if max(step.qubits) < live else None
    gates, (dest, w, e), low, high = step
    kept = [q for q in high if q < live]
    b = len(low) + len(kept)  # the elided qubits are the block's top local bits
    row = sum((base >> q & 1) << j for j, q in enumerate(high[len(kept) :]))
    rows = slice(row << b, row + 1 << b)
    if np.any(dest[rows] >> b != row):
        return None
    return gates, (dest[rows] & (1 << b) - 1, w[rows], e[rows]), low, kept


def _apply_dense(state: StateVector, gates: tuple[Gate, ...], support: np.ndarray | None = None) -> StateVector:
    """Apply the steps of _compile: on the whole register, the reference the
    tests compare apply_circuit against, or, given the support the sparse
    prefix left, on its live slice until a step leaves it (module notes)."""
    n, view = state.num_qubits, state
    if support is not None:
        live = int(np.bitwise_or.reduce(support) ^ np.bitwise_and.reduce(support)).bit_length()
        base = int(support[0]) >> live << live
        if _DENSE_QUBITS < live < n:  # then the slice's rows split as the register's do
            view = StateVector(live, state.amps[base : base + (1 << live)], state.mode, state.exponent)
    for step in _compile(gates, n):
        sub = step if view is state else _on_slice(step, live, base)
        if sub is None:
            state.exponent, view, sub = view.exponent, state, step
        if isinstance(sub, Gate):
            apply_gate(view, sub)
        else:
            _apply_block(view, *sub)
    state.exponent = view.exponent
    return state


def apply_circuit(state: StateVector, circuit: Circuit | Iterable[Gate]) -> StateVector:
    """Apply gates in list order. Accepts a Circuit or a bare gate iterable.

    Gates that reach past the register raise CircuitError before any is
    applied. Runs the sparse prefix, then the gates and blocks of _compile
    on the rest (see the module notes).
    """
    if isinstance(circuit, Circuit):
        if circuit.qubit_count != state.num_qubits:
            raise CircuitError(
                f"circuit has {circuit.qubit_count} qubits, state has {state.num_qubits}"
            )
        gates = circuit.gates
    else:
        gates = tuple(circuit)
    for g in gates:
        if max(g.qubits) >= state.num_qubits:
            raise CircuitError(f"gate {g.kind}{g.qubits} exceeds register of {state.num_qubits} qubits")
    reach, support = _apply_sparse(state, gates)
    return _apply_dense(state, gates[reach:], support)


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
    small ones keep their precision. Only the live slice is read, the
    aligned block of 2^live amplitudes that holds every nonzero one
    (_span): the qubits from live up read fixed bits, and a local basis
    state x whose fixed qubits read other bits has m[x, .] = m[., x] = 0.
    Each other x has one _sub view of the slice; the views are tiled alike
    into pieces of _MOVE_CHUNK / 2^k' amplitudes, k' the local qubits
    below live, and the 2^k' pieces at one place are stacked into a
    (2^k', columns) matrix A that adds conj(A) A^T. So the cost is about
    2^k' passes over the slice and no temporary is the size of the state.
    """
    qubits = [int(q) for q in qubits]
    n = state.num_qubits
    if not qubits or len(set(qubits)) < len(qubits) or min(qubits) < 0 or max(qubits) >= n:
        raise InputError(f"gram needs distinct qubits inside a {n}-qubit register, got {qubits}")
    k = len(qubits)
    lo, hi = _span(state.amps)
    live = (lo ^ hi).bit_length()
    base = lo >> live << live
    view = StateVector(live, state.amps[base : base + (1 << live)], state.mode)
    free = [j for j, q in enumerate(qubits) if q < live]
    fixed = [(j, base >> q & 1) for j, q in enumerate(qubits) if q >= live]
    on = [x for x in range(1 << k) if all(x >> j & 1 == b for j, b in fixed)]  # the block's local states
    views = [_sub(view, {qubits[j]: (x >> j) & 1 for j in free}) for x in on]
    shift = math.frexp(_max_abs(view.amps))[1] - 1  # brings max|amp| into [1, 2)
    scale = math.ldexp(1.0, -shift)
    m = np.zeros((1 << k, 1 << k), dtype=state.amps.dtype)
    for p in _pieces(views[0].shape, limit=_MOVE_CHUNK >> len(free)):
        a = np.stack([v[p] for v in views]).reshape(len(on), -1)
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
    if math.isinf(val):
        raise NormOverflowError("squared norm overflows double precision")
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


def x_probabilities(rho: np.ndarray) -> tuple[float, float]:
    """(P(+1), P(-1)) of an x-basis readout of a qubit with real 2x2 reduced matrix rho."""
    kept = rho[0, 0] + rho[1, 1]
    mp = max(float(kept + 2.0 * rho[0, 1]), 0.0)
    mm = max(float(kept - 2.0 * rho[0, 1]), 0.0)
    tot = mp + mm
    if tot == 0.0:
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
    exactly; the overlap is summed piece by piece.
    """
    if a.num_qubits != b.num_qubits:
        raise InputError(f"fidelity needs equal registers, got {a.num_qubits} and {b.num_qubits}")
    (na, ka), (nb, kb) = _scaled_norm(a), _scaled_norm(b)
    sa, sb = math.ldexp(1.0, -ka), math.ldexp(1.0, -kb)
    overlap = sum(np.vdot(a.amps[p] * sa, b.amps[p] * sb) for p in _pieces(a.amps.shape))
    return _fidelity(overlap, na, nb)


def sparse_fidelity(state: StateVector, target: dict[int, float]) -> float:
    """fidelity(state, b) for a target b whose only nonzero amplitudes are
    target[j] at basis index j. Reads those amplitudes and the state's
    norm; no target vector is built."""
    base, k = _scaled_norm(state)
    idx = list(target)
    t = np.array([target[j] for j in idx], dtype=state.amps.dtype)
    overlap = np.vdot(state.amps[idx] * math.ldexp(1.0, -k), t)
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
