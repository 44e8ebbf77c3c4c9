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
that range, so one kernel can never overflow the mantissa array. Norm
queries that cannot represent the true value in a double raise instead
of returning Inf or 0.

apply_circuit compiles a gate sequence once per (gate tuple, register
width) into kernels. H and T run one gate at a time. Every other kind is
monomial, a basis permutation (X, CNOT, CCNOT, NCNOT) or a diagonal (Z,
G, CG), so each run of them is cut into blocks of at most 10 qubits.
Within a stretch of diagonal gates, gates on the same qubits fold into
one, e.g. r rounds of CG(q, nh) into one CG(q, nh, g^r). A block runs in
place in one pass: scale rows, permute within and between rows, then one
guard check. apply_gate is the gate-by-gate reference the tests compare
the blocks against. With power-of-two parameters the two agree bit for
bit; otherwise a block rounds its product of factors once where the gate
loop rounds after every gate.

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
from typing import Iterable, Sequence

import numpy as np

from .circuit import Circuit, Gate
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
_T_PHASE = complex(math.cos(math.pi / 4), -math.sin(math.pi / 4))
_GUARD_HI = 2.0**500
_GUARD_LO = 2.0**-500
_GUARD_CHUNK = 1 << 16  # complex amplitudes per |x| temporary in the guard


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
class MeasurementOutcome:
    value: int
    probability: float
    collapsed: bool = True


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


def _halves(state: StateVector, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """The qubit=0 and qubit=1 halves of the state as 2-D views.

    A contiguous (left, 2, right) reshape, so the inner axis runs over
    the 2^qubit amplitudes below the qubit. Writes go through to the state.
    """
    v = state.amps.reshape(1 << (state.num_qubits - 1 - qubit), 2, 1 << qubit)
    return v[:, 0], v[:, 1]


def _view(state: StateVector, qubits: tuple[int, ...]) -> np.ndarray:
    """Reshaped view with the given qubits moved to the leading axes.

    Axis j of the result indexes qubits[j]; remaining axes hold the
    spectator qubits. Writes go through to the state.
    """
    n = state.num_qubits
    t = state.amps.reshape((2,) * n)
    src = [n - 1 - q for q in qubits]
    return np.moveaxis(t, src, range(len(qubits)))


def _rescale_guard(state: StateVector) -> None:
    """Rescale by a power of two when max|amp| leaves [2^-500, 2^+500].

    Reads the state without allocating a temporary of its size; a NaN
    anywhere in the state propagates to the maximum.
    """
    amps = state.amps
    if state.mode == "real":
        hi, lo = float(amps.max()), float(amps.min())
        m = hi if hi >= -lo else -lo
    else:
        chunks = range(0, amps.size, _GUARD_CHUNK)
        m = float(np.max([np.abs(amps[k : k + _GUARD_CHUNK]).max() for k in chunks]))
    if m == 0.0:
        raise ZeroStateError("state vector collapsed to zero")
    if _GUARD_LO <= m <= _GUARD_HI:
        return
    e = int(math.floor(math.log2(m)))
    state.amps *= 2.0 ** (-e)
    state.exponent += e


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place; returns the same state for chaining.

    This is the gate-by-gate reference: apply_circuit runs H, T and any
    gate it cannot fuse through here, and the tests compare its fused
    blocks against a loop over this function.
    """
    if max(gate.qubits) >= state.num_qubits:
        raise CircuitError(f"gate {gate.kind}{gate.qubits} exceeds register of {state.num_qubits} qubits")
    kind = gate.kind
    if kind == "H":
        v0, v1 = _halves(state, gate.qubits[0])
        plus = v0 + v1
        plus *= _INV_SQRT2
        np.subtract(v0, v1, out=v1)
        v1 *= _INV_SQRT2
        v0[...] = plus
    elif kind == "X":
        v0, v1 = _halves(state, gate.qubits[0])
        tmp = v0.copy()
        v0[...] = v1
        v1[...] = tmp
    elif kind == "Z":
        _, v1 = _halves(state, gate.qubits[0])
        v1 *= -1.0
    elif kind == "T":
        if state.mode != "complex":
            raise RealModeError("T gate requires complex mode")
        _, v1 = _halves(state, gate.qubits[0])
        v1 *= _T_PHASE
    elif kind == "G":
        v0, v1 = _halves(state, gate.qubits[0])
        g = gate.param
        v0 *= 1.0 / g
        v1 *= g
        _rescale_guard(state)
    elif kind == "CG":
        v = _view(state, gate.qubits)
        g = gate.param
        v[1, 0] *= 1.0 / g
        v[1, 1] *= g
        _rescale_guard(state)
    elif kind == "CNOT":
        v = _view(state, gate.qubits)
        tmp = v[1, 0].copy()
        v[1, 0] = v[1, 1]
        v[1, 1] = tmp
    elif kind == "CCNOT":
        v = _view(state, gate.qubits)
        tmp = v[1, 1, 0].copy()
        v[1, 1, 0] = v[1, 1, 1]
        v[1, 1, 1] = tmp
    else:  # NCNOT
        v = _view(state, gate.qubits)
        k = len(gate.controls)
        off = (1,) * k + (0,)
        on = (1,) * k + (1,)
        tmp = v[off].copy()
        v[off] = v[on]
        v[on] = tmp
    return state


# ---------------------------------------------------------------------------
# Gate fusion. Every kind but H and T is monomial: a basis permutation (X,
# CNOT, CCNOT, NCNOT) or a diagonal (Z, G, CG). apply_circuit compiles each
# maximal run of monomial gates into blocks and applies a block in one pass.
# A block's qubits T split at _DENSE_QUBITS: the low ones index positions
# inside a row's contiguous tail, the high ones pick the row (if T has no
# high qubit, the top qubit of the register stands in). The block then
# scales rows by factor vectors over the tail, permutes the tail of a row
# with one gather, and moves whole rows along the cycles of the row
# permutation. So a block must keep rows whole: a gate with a high target
# and a low control splits them, and _fuse_run ends each block after its
# longest prefix that keeps them whole.
# ---------------------------------------------------------------------------

_PERMUTATION = frozenset({"X", "CNOT", "CCNOT", "NCNOT"})
_DIAGONAL = frozenset({"Z", "G", "CG"})
_MONOMIAL = _PERMUTATION | _DIAGONAL
_DENSE_QUBITS = 10  # qubits below this index form the contiguous tail of a row
_BLOCK_QUBITS = 10  # most qubits one block touches
_ROW_QUBITS = 6  # most block qubits above the tail: at most 2^6 rows per block
_LOG2_GUARD = 500  # log2 of _GUARD_HI: the widest factor range one block may apply


@dataclass(frozen=True)
class _Block:
    shape: tuple[int, ...]  # reshape of the state: (gap, 2, gap, 2, ..., gap, tail)
    row_shape: tuple[int, ...]  # the shape of one row: shape without its 2-axes
    local: np.ndarray  # tail position -> index over the block's low qubits
    scales: tuple  # (row index, one factor, or factors over the low qubits)
    gathers: tuple  # (row index, source position of each tail entry)
    cycles: tuple  # row index tuples; the data of cycle[j] moves to cycle[j + 1]
    guard: bool


def _merge_diagonal(stretch: list[Gate]) -> list[Gate]:
    """Fold a stretch of commuting diagonal gates into one gate per
    (kind, qubits), e.g. r rounds of CG(q, nh) into CG(q, nh, g^r).

    A folded parameter stays within 2^±500 (a new gate starts instead),
    Z twice and a parameter product of exactly 1 drop out.
    """
    out: list[Gate | None] = []
    slot: dict[tuple, int] = {}
    for g in stretch:
        key = (g.kind, g.qubits)
        j = slot.get(key)
        if j is not None:
            p = 1.0 if g.kind == "Z" else out[j].param * g.param
            if p == 1.0:
                out[j] = None
                del slot[key]
                continue
            if abs(math.log2(p)) <= _LOG2_GUARD:
                out[j] = Gate(g.kind, g.qubits, p)
                continue
        slot[key] = len(out)
        out.append(g)
    return [g for g in out if g is not None]


def _split(qubits, n: int, dense: int) -> tuple[list[int], list[int]]:
    """A block's low and high qubits; the top qubit stands in for an empty high set."""
    touched = sorted(set(qubits))
    return [q for q in touched if q < dense], [q for q in touched if q >= dense] or [n - 1]


def _trace_basis(gates: list[Gate], pos: dict[int, int]):
    """Run every local basis state through the gates, one gate at a time.

    Yields (dest, w) after each gate: local basis state x has moved to
    dest[x] and picked up the factor w[x], multiplied in gate order.
    """
    dest = np.arange(1 << len(pos))
    w = np.ones(1 << len(pos))
    for g in gates:
        bits = [(dest >> pos[q]) & 1 == 1 for q in g.qubits]
        if g.kind in _PERMUTATION:
            on = np.logical_and.reduce(bits[:-1]) if len(bits) > 1 else True
            dest = np.where(on, dest ^ (1 << pos[g.target]), dest)
        elif g.kind == "Z":
            w = w * np.where(bits[0], -1.0, 1.0)
        else:
            f = np.where(bits[-1], g.param, 1.0 / g.param)
            w = w * (np.where(bits[0], f, 1.0) if g.kind == "CG" else f)
        yield dest, w


def _rows_stay_whole(dest: np.ndarray, kl: int) -> bool:
    """True when the row a local state lands in depends only on the row it left."""
    to_row = (dest >> kl).reshape(-1, 1 << kl)
    return bool(np.all(to_row == to_row[:, :1]))


def _build_block(gates: list[Gate], n: int, dense: int) -> _Block:
    low, high = _split([q for g in gates for q in g.qubits], n, dense)
    kl = len(low)
    pos = {q: j for j, q in enumerate(low + high)}
    for dest, w in _trace_basis(gates, pos):
        pass  # keep the state after the last gate

    # Spread the low part over the 2^dense tail positions of a row.
    tail = np.arange(1 << dense)
    local = np.zeros_like(tail)
    spread = np.zeros(1 << kl, dtype=tail.dtype)
    for j, q in enumerate(low):
        local |= ((tail >> q) & 1) << j
        spread |= ((np.arange(1 << kl) >> j) & 1) << q
    rest = tail & ~int(spread[-1])

    shape: list[int] = []
    prev = n
    for q in reversed(high):
        shape += [1 << (prev - q - 1), 2]
        prev = q
    shape += [1 << (prev - dense), 1 << dense]

    def row(h: int) -> tuple:
        idx: list = []
        for q in reversed(high):
            idx += [slice(None), (h >> (pos[q] - kl)) & 1]
        return tuple(idx)

    scales, gathers, to_row = [], [], {}
    for h in range(1 << len(high)):
        x = (h << kl) | local
        f = w[h << kl : (h + 1) << kl]
        if np.any(f != 1.0):
            scales.append((row(h), float(f[0]) if np.all(f == f[0]) else f))
        fwd = rest | spread[dest[x] & ((1 << kl) - 1)]
        if np.any(fwd != tail):
            src = np.empty_like(fwd)
            src[fwd] = tail
            gathers.append((row(h), src))
        to_row[h] = int(dest[h << kl]) >> kl
    cycles = []
    seen: set[int] = set()
    for h in to_row:
        if h in seen or to_row[h] == h:
            continue
        cycle = [h]
        while to_row[cycle[-1]] != h:
            cycle.append(to_row[cycle[-1]])
        seen.update(cycle)
        cycles.append(tuple(row(c) for c in cycle))
    return _Block(
        shape=tuple(shape),
        row_shape=tuple(shape[0:-2:2]) + tuple(shape[-2:]),
        local=local,
        scales=tuple(scales),
        gathers=tuple(gathers),
        cycles=tuple(cycles),
        guard=any(g.kind in ("G", "CG") for g in gates),
    )


def _fuse_run(run: list[Gate], n: int) -> list:
    """Blocks over a run of monomial gates, diagonal stretches merged first.

    A block grows greedily while it fits the qubit, row and factor-range
    caps, then ends after its longest prefix whose net permutation keeps
    rows whole. Mid-way through a lowered CG (X, CNOT, G, CNOT, X, G) a
    low control has split a high target's rows, but the whole CG is
    diagonal again, so blocks of whole CGs qualify.
    """
    items: list[Gate] = []
    for diagonal, stretch in groupby(run, key=lambda g: g.kind in _DIAGONAL):
        items += _merge_diagonal(list(stretch)) if diagonal else list(stretch)

    dense = min(_DENSE_QUBITS, n - 1)
    steps: list = []
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
        size = 0
        if j - i > 1:
            low, high = _split(touched, n, dense)
            pos = {q: k for k, q in enumerate(low + high)}
            for k, (dest, _) in enumerate(_trace_basis(items[i:j], pos), 1):
                if _rows_stay_whole(dest, len(low)):
                    size = k
        if size > 1:
            steps.append(_build_block(items[i : i + size], n, dense))
            i += size
        else:
            steps.append(items[i])
            i += 1
    return steps


@lru_cache(maxsize=8)
def _compile(gates: tuple[Gate, ...], n: int) -> tuple:
    """Kernel list for a gate tuple on an n-qubit register: H and T (and
    gates no block can hold) as single gates, monomial runs as blocks.

    Eight entries cover one decision run, which compiles five tuples and
    replays the readout suffix once per i; a larger cache would only keep
    the tables of finished runs alive.
    """
    for g in gates:
        if max(g.qubits) >= n:
            raise CircuitError(f"gate {g.kind}{g.qubits} exceeds register of {n} qubits")
    steps: list = []
    for monomial, run in groupby(gates, key=lambda g: g.kind in _MONOMIAL):
        steps += _fuse_run(list(run), n) if monomial else list(run)
    return tuple(steps)


def _apply_block(state: StateVector, block: _Block) -> None:
    v = state.amps.reshape(block.shape)
    for idx, f in block.scales:
        r = v[idx]
        np.multiply(r, f if isinstance(f, float) else f[block.local], out=r)
    tmp = np.empty(block.row_shape, dtype=state.amps.dtype) if block.gathers or block.cycles else None
    for idx, src in block.gathers:
        np.take(v[idx], src, axis=-1, out=tmp, mode="clip")
        v[idx] = tmp
    for cycle in block.cycles:
        tmp[...] = v[cycle[-1]]
        for dst, src in zip(cycle[:0:-1], cycle[-2::-1]):
            v[dst] = v[src]
        v[cycle[0]] = tmp
    if block.guard:
        _rescale_guard(state)


def apply_circuit(state: StateVector, circuit: Circuit | Iterable[Gate]) -> StateVector:
    """Apply gates in list order. Accepts a Circuit or a bare gate iterable.

    Runs the fused kernels of _compile (see the module notes); gates that
    reach past the register raise CircuitError before any is applied.
    """
    if isinstance(circuit, Circuit):
        if circuit.qubit_count != state.num_qubits:
            raise CircuitError(
                f"circuit has {circuit.qubit_count} qubits, state has {state.num_qubits}"
            )
        gates = circuit.gates
    else:
        gates = tuple(circuit)
    for step in _compile(gates, state.num_qubits):
        if isinstance(step, Gate):
            apply_gate(state, step)
        else:
            _apply_block(state, step)
    return state


def norm_sq_mantissa(state: StateVector) -> float:
    if state.mode == "real":
        return float(np.dot(state.amps, state.amps))
    return float(np.real(np.vdot(state.amps, state.amps)))


def norm_sq(state: StateVector) -> float:
    """True squared norm, exponent included. Raises if not representable."""
    base = norm_sq_mantissa(state)
    if base == 0.0:
        raise ZeroStateError("state vector has zero norm")
    try:
        val = math.ldexp(base, 2 * state.exponent)
    except OverflowError as exc:
        raise NormOverflowError("squared norm overflows double precision") from exc
    if math.isinf(val):
        raise NormOverflowError("squared norm overflows double precision")
    if val == 0.0:
        raise NormOverflowError("squared norm underflows double precision")
    return val


def renormalize(state: StateVector) -> StateVector:
    """Scale to unit norm (exponent reset to 0)."""
    base = norm_sq_mantissa(state)
    if base == 0.0:
        raise ZeroStateError("cannot renormalize a zero state")
    state.amps /= math.sqrt(base)
    state.exponent = 0
    return state


def _branch_masses(state: StateVector, qubit: int) -> tuple[float, float]:
    v0, v1 = _halves(state, qubit)
    if state.mode == "real":
        m0 = float(np.sum(v0 * v0))
        m1 = float(np.sum(v1 * v1))
    else:
        m0 = float(np.sum((v0 * v0.conj()).real))
        m1 = float(np.sum((v1 * v1.conj()).real))
    return m0, m1


def probabilities_z(state: StateVector, qubit: int) -> tuple[float, float]:
    m0, m1 = _branch_masses(state, qubit)
    tot = m0 + m1
    if tot == 0.0:
        raise ZeroStateError("state vector has zero norm")
    return m0 / tot, m1 / tot


def probabilities_x(state: StateVector, qubit: int) -> tuple[float, float]:
    """(P(+1), P(-1)) for an x-basis measurement of the qubit."""
    v0, v1 = _halves(state, qubit)
    plus = v0 + v1
    minus = v0 - v1
    if state.mode == "real":
        mp = float(np.sum(plus * plus))
        mm = float(np.sum(minus * minus))
    else:
        mp = float(np.sum((plus * plus.conj()).real))
        mm = float(np.sum((minus * minus.conj()).real))
    tot = mp + mm
    if tot == 0.0:
        raise ZeroStateError("state vector has zero norm")
    return mp / tot, mm / tot


def measure_z(state: StateVector, qubit: int, rng) -> tuple[MeasurementOutcome, StateVector]:
    """Projective z measurement: draws one uniform u, outcome 1 iff u < p1.

    The discarded branch is zeroed and the survivor renormalized.
    """
    p0, p1 = probabilities_z(state, qubit)
    u = float(rng.random())
    outcome = 1 if u < p1 else 0
    _halves(state, qubit)[1 - outcome][...] = 0.0
    renormalize(state)
    return MeasurementOutcome(value=outcome, probability=(p1 if outcome else p0)), state


def measure_x(state: StateVector, qubit: int, rng) -> tuple[MeasurementOutcome, StateVector]:
    """x-basis measurement: apply H to the qubit, measure z, map 0 -> +1, 1 -> -1.

    The collapsed state is left in the rotated frame, i.e. the measured
    qubit ends in |0> or |1>.
    """
    apply_gate(state, Gate("H", (qubit,)))
    out, _ = measure_z(state, qubit, rng)
    value = 1 if out.value == 0 else -1
    return MeasurementOutcome(value=value, probability=out.probability), state


def postselect(state: StateVector, qubit: int, bit: int) -> tuple[float, StateVector]:
    """Condition on qubit == bit. Returns (branch probability, conditioned state)."""
    if bit not in (0, 1):
        raise InputError(f"postselect bit must be 0 or 1, got {bit}")
    m0, m1 = _branch_masses(state, qubit)
    tot = m0 + m1
    if tot == 0.0:
        raise ZeroStateError("state vector has zero norm")
    keep = m1 if bit else m0
    if keep == 0.0:
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
    if np.any(v1):
        raise InputError(f"qubit {qubit} is not in a definite |0> state")
    norm = math.hypot(alpha, beta)
    v1[...] = v0 * (beta / norm)
    v0 *= alpha / norm
    return state


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 / (norm_sq(a) * norm_sq(b)); shared exponents cancel exactly."""
    if a.num_qubits != b.num_qubits:
        raise InputError(f"fidelity needs equal registers, got {a.num_qubits} and {b.num_qubits}")
    na = norm_sq_mantissa(a)
    nb = norm_sq_mantissa(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroStateError("fidelity of a zero state is undefined")
    ov = np.vdot(a.amps, b.amps)
    val = float((ov * ov.conjugate()).real) / (na * nb)
    return min(max(val, 0.0), 1.0)


def qubit_state_fidelity(state: StateVector, qubit: int, c0, c1) -> float:
    """Fidelity between one qubit's reduced state and a pure target.

    Returns <phi|rho|phi> for phi = (c0|0> + c1|1>)/norm and rho the
    qubit's reduced density matrix, computed as the squared norm of
    conj(c0) v0 + conj(c1) v1 over the total mass (no 2x2 matrix is
    materialized). Equals |<phi|psi>|^2 when the register factorizes.
    """
    target_norm = abs(c0) ** 2 + abs(c1) ** 2
    if target_norm == 0.0:
        raise ZeroStateError("target qubit state has zero norm")
    base = norm_sq_mantissa(state)
    if base == 0.0:
        raise ZeroStateError("state vector has zero norm")
    if state.mode == "complex":
        a0, a1 = complex(c0).conjugate(), complex(c1).conjugate()
    else:
        a0, a1 = float(c0), float(c1)
    v0, v1 = _halves(state, qubit)
    combined = v0 * a0 + v1 * a1
    mass = float(np.real(np.vdot(combined, combined)))
    val = mass / (base * target_norm)
    return min(max(val, 0.0), 1.0)

