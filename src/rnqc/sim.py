"""Dense state-vector simulation with explicit norm tracking.

Index convention: bit q of a basis index is the computational value of
qubit q, so qubit 0 is the least significant bit. This is fixed across
the whole package.

Amplitudes are stored as a mantissa array plus one shared power-of-two
exponent; the true vector is amps * 2**exponent. Unitary kernels never
change the norm, so only G and CG run the rescaling guard: whenever the
largest mantissa magnitude leaves [2^-500, 2^+500] the array is scaled
by an exact power of two and the exponent absorbs the difference. With
gate parameters capped at 2^±500 (circuit.py) a single gate can then
never overflow the mantissa array. Norm queries that cannot represent
the true value in a double raise instead of returning Inf or 0.

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
    """State with explicit (possibly unnormalized) amplitudes; length must be 2^n."""
    amps = np.asarray(values, dtype=_dtype_for(mode))
    if amps.ndim != 1 or amps.size < 2 or amps.size & (amps.size - 1):
        raise InputError(f"amplitude array length must be a power of two >= 2, got {amps.size}")
    n = amps.size.bit_length() - 1
    _check_register(n)
    if not np.any(amps):
        raise ZeroStateError("all-zero amplitude array is not a valid state")
    return StateVector(num_qubits=n, amps=amps.copy(), mode=mode, exponent=exponent)


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
    m = float(np.max(np.abs(state.amps)))
    if m == 0.0:
        raise ZeroStateError("state vector collapsed to zero")
    if _GUARD_LO <= m <= _GUARD_HI:
        return
    e = int(math.floor(math.log2(m)))
    state.amps *= 2.0 ** (-e)
    state.exponent += e


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place; returns the same state for chaining."""
    if max(gate.qubits) >= state.num_qubits:
        raise CircuitError(f"gate {gate.kind}{gate.qubits} exceeds register of {state.num_qubits} qubits")
    kind = gate.kind
    if kind == "H":
        v = _view(state, gate.qubits)
        plus = (v[0] + v[1]) * _INV_SQRT2
        v[1] = (v[0] - v[1]) * _INV_SQRT2
        v[0] = plus
    elif kind == "X":
        v = _view(state, gate.qubits)
        tmp = v[0].copy()
        v[0] = v[1]
        v[1] = tmp
    elif kind == "Z":
        v = _view(state, gate.qubits)
        v[1] *= -1.0
    elif kind == "T":
        if state.mode != "complex":
            raise RealModeError("T gate requires complex mode")
        v = _view(state, gate.qubits)
        v[1] *= _T_PHASE
    elif kind == "G":
        v = _view(state, gate.qubits)
        g = gate.param
        v[0] *= 1.0 / g
        v[1] *= g
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


def apply_circuit(state: StateVector, circuit: Circuit | Iterable[Gate]) -> StateVector:
    """Apply gates in list order. Accepts a Circuit or a bare gate iterable."""
    if isinstance(circuit, Circuit):
        if circuit.qubit_count != state.num_qubits:
            raise CircuitError(
                f"circuit has {circuit.qubit_count} qubits, state has {state.num_qubits}"
            )
        gates: Iterable[Gate] = circuit.gates
    else:
        gates = circuit
    for g in gates:
        apply_gate(state, g)
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
    v = _view(state, (qubit,))
    if state.mode == "real":
        m0 = float(np.sum(v[0] * v[0]))
        m1 = float(np.sum(v[1] * v[1]))
    else:
        m0 = float(np.sum((v[0] * v[0].conj()).real))
        m1 = float(np.sum((v[1] * v[1].conj()).real))
    return m0, m1


def probabilities_z(state: StateVector, qubit: int) -> tuple[float, float]:
    m0, m1 = _branch_masses(state, qubit)
    tot = m0 + m1
    if tot == 0.0:
        raise ZeroStateError("state vector has zero norm")
    return m0 / tot, m1 / tot


def probabilities_x(state: StateVector, qubit: int) -> tuple[float, float]:
    """(P(+1), P(-1)) for an x-basis measurement of the qubit."""
    v = _view(state, (qubit,))
    plus = v[0] + v[1]
    minus = v[0] - v[1]
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
    v = _view(state, (qubit,))
    v[1 - outcome] = 0.0
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
    v = _view(state, (qubit,))
    v[1 - bit] = 0.0
    renormalize(state)
    return keep / tot, state


def prepare_superposed_qubit(state: StateVector, qubit: int, alpha: float, beta: float) -> StateVector:
    """Send a |0> qubit to (alpha|0> + beta|1>)/sqrt(alpha^2 + beta^2)."""
    alpha = float(alpha)
    beta = float(beta)
    if not (alpha > 0.0 and beta > 0.0):
        raise InputError(f"superposition coefficients must be positive, got {alpha}, {beta}")
    v = _view(state, (qubit,))
    if np.any(v[1]):
        raise InputError(f"qubit {qubit} is not in a definite |0> state")
    norm = math.hypot(alpha, beta)
    v[1] = v[0] * (beta / norm)
    v[0] *= alpha / norm
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
    v = _view(state, (qubit,))
    combined = v[0] * a0 + v[1] * a1
    mass = float(np.real(np.vdot(combined, combined)))
    val = mass / (base * target_norm)
    return min(max(val, 0.0), 1.0)

