"""Gate-level intermediate representation and lowering rules.

Supported gate kinds: H, X, Z, T, CNOT, CCNOT, NCNOT, G, CG. Operands
are ordered controls-first, target-last. This module is the one
definition of what each kind does; the simulator, the path enumerator
and the oracle checker read it from here. Apart from H, every kind is
one of two classes:

  * PERMUTATION_KINDS (X, CNOT, CCNOT, NCNOT) NOT the target when every
    control reads 1; X has no controls. NCNOT takes any number of
    controls >= 1 and is kept as a first-class kind so circuits can run
    either semantically (direct multi-control kernel, no ancillas) or
    fully lowered.
  * DIAGONAL_KINDS (Z, T, G, CG): where every control reads 1, multiply
    by d1 when the target reads 1 and by d0 when it reads 0, with
    (d0, d1) = diagonal_factors(gate). Z = diag(1, -1), T = diag(1,
    e^{i pi/4}), and G, which carries a parameter g > 0, g != 1, is
    diag(1/g, g). CG is G on the control-|1> subspace.

COMPLEX_KINDS (T) have no real form: a circuit holding one needs complex
amplitudes, and lower_to_primitive rejects it.

Lowering compiles everything to the primitive set {H, CCNOT, G}, one
rewrite rule per kind, applied until only primitive kinds remain:

  * CG(c, t, g) -> X(c), CNOT(c,t), G(t, sqrt(g)), CNOT(c,t), X(c),
    G(t, sqrt(g)). Every input branch passes through G twice, which is
    why the parameter is sqrt(g); instantiating the same sequence with g
    would realize a controlled G(g^2).
  * Z -> H, X, H.
  * NCNOT with k >= 3 controls -> a CCNOT chain that folds conjunctions
    into k-2 scratch ancillas, one CCNOT onto the true target, then the
    mirrored chain so the ancillas return to |0>. Without the mirror the
    ancillas would retain input-dependent values and spoil any later
    interference across the work register. 2 controls -> CCNOT directly;
    1 control -> CCNOT with a constant-|1> ancilla as the second control.
  * CNOT(c, t) -> CCNOT(c, one_a, t), as a one-control NCNOT.
  * X(t) -> CCNOT(one_a, one_b, t) over two constant-|1> ancillas.

primitive_register is the one place that lays out a lowered register: it
appends the chain ancillas, then the two const_one qubits, after the
qubits a circuit already has. Chain ancillas rest in |0>, const_one in
|1>. Circuits do not prepare these; whoever simulates a lowered circuit
must initialize them, which is what `initial_one_bits` reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from .errors import CircuitError, RealModeError

KINDS = ("H", "X", "Z", "T", "CNOT", "CCNOT", "NCNOT", "G", "CG")
PRIMITIVE_KINDS = frozenset({"H", "CCNOT", "G"})
PERMUTATION_KINDS = frozenset({"X", "CNOT", "CCNOT", "NCNOT"})
DIAGONAL_KINDS = frozenset({"Z", "T", "G", "CG"})
COMPLEX_KINDS = frozenset({"T"})

_FIXED_ARITY = {"H": 1, "X": 1, "Z": 1, "T": 1, "G": 1, "CNOT": 2, "CG": 2, "CCNOT": 3}
_PARAM_KINDS = frozenset({"G", "CG"})
_FIXED_FACTORS = {"Z": (1.0, -1.0), "T": (1.0, complex(math.cos(math.pi / 4), math.sin(math.pi / 4)))}

# Scale parameters are capped at 2^±PARAM_LOG2_CAP so that one gate application
# can never push a guarded mantissa array past the double-precision range (see sim.py).
PARAM_LOG2_CAP = 500
_PARAM_LO, _PARAM_HI = 2.0**-PARAM_LOG2_CAP, 2.0**PARAM_LOG2_CAP


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    param: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        qs = tuple(int(q) for q in self.qubits)
        object.__setattr__(self, "qubits", qs)
        want = _FIXED_ARITY.get(self.kind)
        if want is not None and len(qs) != want:
            raise CircuitError(f"{self.kind} takes {want} operand(s), got {len(qs)}")
        if self.kind == "NCNOT" and len(qs) < 2:
            raise CircuitError("NCNOT needs at least one control and a target")
        if any(q < 0 for q in qs):
            raise CircuitError(f"negative qubit index in {self.kind}")
        if len(set(qs)) != len(qs):
            raise CircuitError(f"duplicate operands in {self.kind}: {qs}")
        if self.kind in _PARAM_KINDS:
            p = self.param
            if p is None:
                raise CircuitError(f"{self.kind} requires a parameter")
            p = float(p)
            if not math.isfinite(p) or p <= 0.0 or p == 1.0:
                raise CircuitError(f"{self.kind} parameter must be finite, > 0 and != 1, got {p}")
            if not _PARAM_LO <= p <= _PARAM_HI:
                raise CircuitError(f"{self.kind} parameter magnitude out of supported range: {p}")
            object.__setattr__(self, "param", p)
        elif self.param is not None:
            raise CircuitError(f"{self.kind} takes no parameter")

    @property
    def controls(self) -> tuple[int, ...]:
        return self.qubits[:-1]

    @property
    def target(self) -> int:
        return self.qubits[-1]


_LAYOUT_LIST_ROLES = ("work", "aux", "clause", "chain_ancilla", "const_one")
_LAYOUT_SINGLE_ROLES = ("oracle", "non_hermitian", "bhr")


@dataclass(frozen=True)
class RegisterLayout:
    """Named qubit roles.

    work     : decision variables (superposed by the pipeline)
    aux      : defined variables introduced by the 3-CNF conversion;
               computed, never superposed
    clause   : one qubit per clause, 1 = clause satisfied
    chain_ancilla : scratch pool for multi-control chains, rest |0>
    const_one     : two qubits held at |1>: both control a lowered X,
                    the first completes a lowered CNOT or 1-control NCNOT
    oracle / non_hermitian / bhr : the three special single qubits

    primitive_register fills chain_ancilla and const_one.
    """

    work: tuple[int, ...] = ()
    aux: tuple[int, ...] = ()
    clause: tuple[int, ...] = ()
    chain_ancilla: tuple[int, ...] = ()
    const_one: tuple[int, ...] = ()
    oracle: int | None = None
    non_hermitian: int | None = None
    bhr: int | None = None

    def __post_init__(self) -> None:
        for role in _LAYOUT_LIST_ROLES:
            object.__setattr__(self, role, tuple(int(q) for q in getattr(self, role)))
        groups = self.role_map()
        seen: dict[int, str] = {}
        for role, idxs in groups.items():
            for q in idxs:
                if q < 0:
                    raise CircuitError(f"negative qubit index in layout role {role}")
                if q in seen:
                    raise CircuitError(f"qubit {q} assigned to both {seen[q]} and {role}")
                seen[q] = role

    def role_map(self) -> dict[str, tuple[int, ...]]:
        out: dict[str, tuple[int, ...]] = {}
        for role in _LAYOUT_LIST_ROLES:
            idxs = getattr(self, role)
            if idxs:
                out[role] = idxs
        for role in _LAYOUT_SINGLE_ROLES:
            idx = getattr(self, role)
            if idx is not None:
                out[role] = (int(idx),)
        return out

    def all_indices(self) -> tuple[int, ...]:
        out: list[int] = []
        for idxs in self.role_map().values():
            out.extend(idxs)
        return tuple(sorted(out))

    def validate_covering(self, qubit_count: int) -> None:
        """Roles must partition exactly the register [0, qubit_count)."""
        idxs = self.all_indices()
        if idxs != tuple(range(qubit_count)):
            raise CircuitError(
                f"layout covers {len(idxs)} of {qubit_count} qubits "
                f"(indices {idxs})"
            )

    def initial_one_bits(self) -> int:
        """Basis-index mask of the qubits whose rest value is |1>."""
        bits = 0
        for q in self.const_one:
            bits |= 1 << q
        return bits


@dataclass(frozen=True)
class Circuit:
    qubit_count: int
    gates: tuple[Gate, ...]
    layout: RegisterLayout | None = None

    def __post_init__(self) -> None:
        n = int(self.qubit_count)
        object.__setattr__(self, "qubit_count", n)
        object.__setattr__(self, "gates", tuple(self.gates))
        if n < 1:
            raise CircuitError(f"circuit needs at least one qubit, got {n}")
        for g in self.gates:
            if max(g.qubits) >= n:
                raise CircuitError(f"gate {g.kind}{g.qubits} exceeds register of {n} qubits")
        if self.layout is not None:
            self.layout.validate_covering(n)


def diagonal_factors(gate: Gate) -> tuple:
    """(d0, d1) of a diagonal gate: where every control reads 1, it
    multiplies by d1 when the target reads 1 and by d0 when it reads 0."""
    if gate.kind in _PARAM_KINDS:
        return 1.0 / gate.param, gate.param
    if gate.kind in _FIXED_FACTORS:
        return _FIXED_FACTORS[gate.kind]
    raise CircuitError(f"{gate.kind} is not a diagonal gate")


def needs_complex(gates: Iterable[Gate]) -> bool:
    """True when some gate has no real form, so only complex amplitudes run it."""
    return any(g.kind in COMPLEX_KINDS for g in gates)


@dataclass(frozen=True)
class GateCensus:
    counts: dict[str, int] = field(default_factory=dict)
    is_primitive: bool = True


def gate_census(circuit: Circuit) -> GateCensus:
    counts: dict[str, int] = {}
    for g in circuit.gates:
        counts[g.kind] = counts.get(g.kind, 0) + 1
    primitive = all(k in PRIMITIVE_KINDS for k in counts)
    return GateCensus(counts=counts, is_primitive=primitive)


# ---------------------------------------------------------------------------
# JSON interchange.
# Circuit object: {"qubits": int, "layout": {role: [indices]}?, "gates": [...]}
# Gate object:    {"g": kind, "q": [indices], "param": number?}
# Round trips are bit-exact: params serialize through repr(float).
# ---------------------------------------------------------------------------


def circuit_to_json(circuit: Circuit) -> dict:
    obj: dict = {"qubits": circuit.qubit_count}
    if circuit.layout is not None:
        obj["layout"] = {role: list(idxs) for role, idxs in circuit.layout.role_map().items()}
    gates = []
    for g in circuit.gates:
        entry: dict = {"g": g.kind, "q": list(g.qubits)}
        if g.param is not None:
            entry["param"] = g.param
        gates.append(entry)
    obj["gates"] = gates
    return obj


def _is_int(value) -> bool:
    """A JSON integer; bool is an int subclass in Python but not one in JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def _layout_from_json(obj: Mapping) -> RegisterLayout:
    if not isinstance(obj, Mapping):
        raise CircuitError("circuit layout must be an object mapping roles to index arrays")
    kwargs: dict = {}
    for role, idxs in obj.items():
        if role not in _LAYOUT_LIST_ROLES and role not in _LAYOUT_SINGLE_ROLES:
            raise CircuitError(f"unknown layout role {role!r}")
        if not isinstance(idxs, list) or not all(_is_int(i) for i in idxs):
            raise CircuitError(f"layout role {role!r} must be an array of integers")
        if role in _LAYOUT_SINGLE_ROLES:
            if len(idxs) != 1:
                raise CircuitError(f"layout role {role!r} takes exactly one index")
            kwargs[role] = idxs[0]
        else:
            kwargs[role] = tuple(idxs)
    return RegisterLayout(**kwargs)


def circuit_from_json(obj) -> Circuit:
    if not isinstance(obj, Mapping):
        raise CircuitError("circuit JSON must be an object")
    if not _is_int(obj.get("qubits")):
        raise CircuitError("circuit JSON needs an integer 'qubits' field")
    raw_gates = obj.get("gates")
    if not isinstance(raw_gates, list):
        raise CircuitError("circuit JSON needs a 'gates' array")
    gates = []
    for entry in raw_gates:
        if not isinstance(entry, Mapping) or "g" not in entry or "q" not in entry:
            raise CircuitError(f"bad gate entry: {entry!r}")
        kind = entry["g"]
        qubits = entry["q"]
        if not isinstance(qubits, list) or not all(_is_int(q) for q in qubits):
            raise CircuitError(f"gate operands must be an integer array: {entry!r}")
        param = entry.get("param")
        if param is not None and (isinstance(param, bool) or not isinstance(param, (int, float))):
            raise CircuitError(f"gate param must be a number: {entry!r}")
        gates.append(Gate(kind=kind, qubits=tuple(qubits), param=param))
    layout = None
    if obj.get("layout") is not None:
        layout = _layout_from_json(obj["layout"])
    return Circuit(qubit_count=obj["qubits"], gates=tuple(gates), layout=layout)


def parse_circuit(data: bytes, path: str) -> Circuit:
    """The circuit a circuit file's bytes hold; path names the file in errors."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise CircuitError(f"circuit file {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CircuitError(f"circuit file {path} is not UTF-8 text: {exc}") from exc
    return circuit_from_json(obj)


# ---------------------------------------------------------------------------
# Lowering. _rule holds one rewrite step per non-primitive kind, written
# against a layout that already has its ancillas; lower_to_primitive grows
# the register through primitive_register and applies the rules until only
# H, CCNOT and G remain.
# ---------------------------------------------------------------------------


def _chain_gates(controls: tuple[int, ...], target: int, pool: tuple[int, ...]) -> list[Gate]:
    """Multi-control NOT via a mirrored CCNOT chain; 2k-3 gates, k-2 ancillas."""
    k = len(controls)
    forward = [Gate("CCNOT", (controls[0], controls[1], pool[0]))]
    for j in range(2, k - 1):
        forward.append(Gate("CCNOT", (controls[j], pool[j - 2], pool[j - 1])))
    hit = Gate("CCNOT", (controls[k - 1], pool[k - 3], target))
    return forward + [hit] + list(reversed(forward))


def _rule(gate: Gate, layout: RegisterLayout) -> list[Gate]:
    """One rewrite step of a non-primitive, non-T gate (see the module docstring)."""
    kind, qs = gate.kind, gate.qubits
    if kind == "CG":
        c, t = qs
        root = math.sqrt(gate.param)
        return [
            Gate("X", (c,)),
            Gate("CNOT", (c, t)),
            Gate("G", (t,), root),
            Gate("CNOT", (c, t)),
            Gate("X", (c,)),
            Gate("G", (t,), root),
        ]
    if kind == "Z":
        return [Gate("H", qs), Gate("X", qs), Gate("H", qs)]
    if kind == "X":
        return [Gate("CCNOT", (*layout.const_one[:2], qs[0]))]
    if len(qs) == 2:  # CNOT, or NCNOT with one control
        return [Gate("CCNOT", (qs[0], layout.const_one[0], qs[1]))]
    if len(qs) == 3:
        return [Gate("CCNOT", qs)]
    return _chain_gates(gate.controls, gate.target, layout.chain_ancilla)


def _expand(gate: Gate, layout: RegisterLayout) -> list[Gate]:
    """gate rewritten by _rule until only primitive kinds remain."""
    if gate.kind in PRIMITIVE_KINDS:
        return [gate]
    if gate.kind in COMPLEX_KINDS:
        raise RealModeError(
            f"{gate.kind} gate has no decomposition over the real primitive set {{H, CCNOT, G}}"
        )
    return [h for step in _rule(gate, layout) for h in _expand(step, layout)]


def lower_cg(circuit: Circuit) -> Circuit:
    """Expand each CG into X, CNOT and two G(sqrt(g)) applications."""
    gates: list[Gate] = []
    for g in circuit.gates:
        gates.extend(_rule(g, circuit.layout) if g.kind == "CG" else [g])
    return replace(circuit, gates=tuple(gates))


def primitive_register(circuit: Circuit) -> Circuit:
    """The same gates on a register grown by the ancillas lowering needs.

    New ancillas are appended after the existing qubits: the chain pool
    first, then the two const_one qubits. Roles the layout already holds
    in sufficient number are reused, so growing a grown circuit is a no-op.
    """
    # NCNOT with k >= 3 controls chains through k - 2 ancillas; X, Z, CG,
    # CNOT and one-control NCNOT reach CCNOT through the const_one qubits.
    chain_need = max((len(g.controls) - 2 for g in circuit.gates if g.kind == "NCNOT"), default=0)
    const_need = any(
        g.kind in ("X", "Z", "CG", "CNOT") or (g.kind == "NCNOT" and len(g.qubits) == 2)
        for g in circuit.gates
    )
    layout = circuit.layout
    if layout is None:
        layout = RegisterLayout(work=tuple(range(circuit.qubit_count)))
    next_q = circuit.qubit_count
    if chain_need > len(layout.chain_ancilla):
        extra = tuple(range(next_q, next_q + chain_need - len(layout.chain_ancilla)))
        layout = replace(layout, chain_ancilla=layout.chain_ancilla + extra)
        next_q += len(extra)
    if const_need and len(layout.const_one) < 2:
        extra = tuple(range(next_q, next_q + 2 - len(layout.const_one)))
        layout = replace(layout, const_one=layout.const_one + extra)
        next_q += len(extra)
    return Circuit(qubit_count=next_q, gates=circuit.gates, layout=layout)


def lower_to_primitive(circuit: Circuit) -> Circuit:
    """Compile to the primitive set {H, CCNOT, G}, growing the register if needed.

    Already-primitive circuits come back unchanged. Others run on
    primitive_register's register. The caller must start const_one
    qubits in |1> (see RegisterLayout.initial_one_bits). Each distinct
    gate is expanded once: the gain rounds repeat the same CG r times.
    """
    if gate_census(circuit).is_primitive:
        return circuit
    grown = primitive_register(circuit)
    expanded: dict[Gate, list[Gate]] = {}
    gates: list[Gate] = []
    for g in grown.gates:
        if g not in expanded:
            expanded[g] = _expand(g, grown.layout)
        gates.extend(expanded[g])
    return replace(grown, gates=tuple(gates))


# ---------------------------------------------------------------------------
# Exact propagation of basis states through permutation circuits: integer bit
# arithmetic simulates them exactly with no state vector at all. The tests'
# reference for lowered permutations.
# ---------------------------------------------------------------------------


def propagate_basis(gates: Iterable[Gate], bits: int) -> int:
    for g in gates:
        if g.kind not in PERMUTATION_KINDS:
            raise CircuitError(f"{g.kind} is not a basis-permutation gate")
        if all((bits >> c) & 1 for c in g.controls):
            bits ^= 1 << g.target
    return bits
