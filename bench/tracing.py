"""Spans around rnqc's public functions, recorded from outside the package.

`Tracer.install()` rebinds each traced function in every rnqc module that
holds it, so names bound by `from ... import` (for example
`rnqc.majsat.make_stream` or `rnqc.oracle.propagate_basis`) are traced
too; `uninstall()` puts every original back. Spans (name, start, end,
parent) are kept in flat arrays and turned into per-layer metrics at the
end. Tracing assumes one thread: traced commands run with `--jobs 1`.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

# span name -> (module, attribute) whose function it wraps
TARGETS = {
    "cnf.parse": ("rnqc.cnf", "parse_dimacs"),
    "cnf.to_3cnf": ("rnqc.cnf", "to_3cnf"),
    "cnf.count_models": ("rnqc.cnf", "count_models"),
    "circuit.lower": ("rnqc.circuit", "lower_to_primitive"),
    "circuit.propagate_basis": ("rnqc.circuit", "propagate_basis"),
    "oracle.verify": ("rnqc.oracle", "verify_oracle"),
    "majsat.plan": ("rnqc.majsat", "plan"),
    "majsat.run_exact": ("rnqc.majsat", "run_exact"),
    "majsat.run_sampled": ("rnqc.majsat", "run_sampled"),
    "rng.make_stream": ("rnqc.rng", "make_stream"),
    "sim.new_state": ("rnqc.sim", "new_state"),
    "sim.copy": ("rnqc.sim.StateVector", "copy"),
    "sim.apply_circuit": ("rnqc.sim", "apply_circuit"),
    "sim.postselect": ("rnqc.sim", "postselect"),
    "sim.probabilities_x": ("rnqc.sim", "probabilities_x"),
    "sim.probabilities_z": ("rnqc.sim", "probabilities_z"),
    "sim.prepare_superposed_qubit": ("rnqc.sim", "prepare_superposed_qubit"),
    "pathsum.direct": ("rnqc.pathsum", "direct_amplitude"),
    "pathsum.pathsum": ("rnqc.pathsum", "path_sum_amplitude"),
    "pathsum.counting": ("rnqc.pathsum", "counting_estimate"),
}
MEASURE = ("sim.postselect", "sim.probabilities_x", "sim.probabilities_z", "sim.prepare_superposed_qubit")
STAGES = ("superposition", "oracle", "amplification")


def _resolve(owner: str):
    """A loaded module, or a class given as module.Class."""
    if owner in sys.modules:
        return sys.modules[owner]
    module, _, cls = owner.rpartition(".")
    return getattr(sys.modules[module], cls)


def _rnqc_modules() -> list:
    return [m for k, m in sorted(sys.modules.items()) if k == "rnqc" or k.startswith("rnqc.")]


class Tracer:
    def __init__(self) -> None:
        self.names = list(TARGETS) + ["op"]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.stage_of: dict[int, str] = {}
        self._stack = [-1]
        self._plan = None
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def op(self, fn, *args):
        """Run one benchmark command as a root span."""
        idx = self._open(self.names.index("op"))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        hook = {
            "majsat.plan": self._after_plan,
            "sim.new_state": self._after_new_state,
            "sim.copy": self._after_copy,
            "sim.apply_circuit": self._after_apply_circuit,
            "majsat.run_sampled": self._after_run_sampled,
            "oracle.verify": self._after_verify,
            "pathsum.counting": self._after_counting,
        }.get(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(idx, args, result)
            return result

        traced.bench_traced = True
        return traced

    # -- counters taken at the layer boundary -------------------------------

    def _state_bytes(self, state) -> None:
        self.counts["sim.state_bytes_max"] = max(self.counts["sim.state_bytes_max"], state.amps.nbytes)

    def _after_plan(self, idx, args, plan) -> None:
        self._plan = plan

    def _after_new_state(self, idx, args, state) -> None:
        self._state_bytes(state)

    def _after_copy(self, idx, args, state) -> None:
        self.counts["sim.state_copies"] += 1
        self._state_bytes(state)

    def _after_apply_circuit(self, idx, args, state) -> None:
        gates = args[1]
        gates = getattr(gates, "gates", gates)
        self.counts["sim.amp_gates"] += len(gates) << state.num_qubits
        self._state_bytes(state)
        plan = self._plan
        if plan is not None:
            for stage, circ in zip(STAGES, (plan.superposition_circuit, plan.oracle.circuit, plan.amplification_circuit)):
                if gates is circ.gates:
                    self.stage_of[idx] = stage

    def _after_run_sampled(self, idx, args, report) -> None:
        cfg = report.config
        self.counts["majsat.shots"] += len(report.per_i) * cfg.sets * cfg.runs_per_set
        self.counts["majsat.discarded"] += sum(rec["discarded_shots"] for rec in report.per_i)

    def _after_verify(self, idx, args, report) -> None:
        self.counts["oracle.inputs_checked"] += report.inputs_checked

    def _after_counting(self, idx, args, result) -> None:
        self.counts["pathsum.path_pairs"] += result.path_count

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = _rnqc_modules()
        for name, (owner, attr) in TARGETS.items():
            holder = _resolve(owner)
            original = getattr(holder, attr)
            traced = self._wrap(name, original)
            if isinstance(holder, type):
                bindings = [(holder, attr)]
            else:
                bindings = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            for h, k in bindings:
                self._patches.append((h, k, original))
                setattr(h, k, traced)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    @staticmethod
    def restored() -> bool:
        """True when no rnqc module or traced class still binds a wrapper."""
        spaces = _rnqc_modules() + [_resolve(o) for o, _ in TARGETS.values() if o not in sys.modules]
        return not any(getattr(v, "bench_traced", False) for ns in spaces for v in vars(ns).values())

    # -- results -------------------------------------------------------------

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def layer_metrics(self, cycles: int) -> dict:
        """Per-layer metrics; times and counts are per cycle of the workload."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        nid = {name: i for i, name in enumerate(self.names)}

        def total(*names) -> float:
            return float(dur[np.isin(name_id, [nid[n] for n in names])].sum())

        def calls(name) -> int:
            return int(np.count_nonzero(name_id == nid[name]))

        stage = {s: 0.0 for s in STAGES}
        for idx, s in self.stage_of.items():
            stage[s] += float(dur[idx])
        # Readout: sim work inside a run span after its amplification stage
        # ends. Slot -1 (no parent) stays at +inf, so root spans never count.
        amp_end = np.full(len(dur) + 1, np.inf)
        for idx, s in self.stage_of.items():
            if s == "amplification":
                amp_end[parent[idx]] = end[idx]
        is_sim = np.isin(name_id, [nid[n] for n in self.names if n.startswith("sim.")])
        readout = float(dur[is_sim & (start >= amp_end[parent])].sum())
        sampling = float(self_time[name_id == nid["majsat.run_sampled"]].sum())

        c = self.counts
        per = 1.0 / max(cycles, 1)

        def ratio(a, b, scale=1.0):
            return a * scale / b if b else 0.0

        apply_s = total("sim.apply_circuit")
        stream_s = total("rng.make_stream")
        streams = calls("rng.make_stream")
        verify_s = total("oracle.verify")
        counting_s = total("pathsum.counting")
        return {
            "sim.amp_gates": (c["sim.amp_gates"] * per, "count"),
            "sim.apply_s": (apply_s * per, "s"),
            "sim.ns_per_amp_gate": (ratio(apply_s, c["sim.amp_gates"], 1e9), "ns"),
            "sim.measure_s": (total(*MEASURE) * per, "s"),
            "sim.state_copies": (c["sim.state_copies"] * per, "count"),
            "sim.state_bytes_max": (c["sim.state_bytes_max"], "B-computed"),
            "majsat.plan_s": (total("majsat.plan") * per, "s"),
            "majsat.superposition_s": (stage["superposition"] * per, "s"),
            "majsat.oracle_s": (stage["oracle"] * per, "s"),
            "majsat.amplification_s": (stage["amplification"] * per, "s"),
            "majsat.readout_s": (readout * per, "s"),
            "majsat.sampling_s": (sampling * per, "s"),
            "majsat.shots": (c["majsat.shots"] * per, "count"),
            "majsat.discarded_ratio": (ratio(c["majsat.discarded"], c["majsat.shots"]), "ratio"),
            "rng.streams": (streams * per, "count"),
            "rng.make_stream_s": (stream_s * per, "s"),
            "rng.us_per_stream": (ratio(stream_s, streams, 1e6), "us"),
            "cnf.parse_s": (total("cnf.parse") * per, "s"),
            "cnf.to_3cnf_s": (total("cnf.to_3cnf") * per, "s"),
            "cnf.count_models_s": (total("cnf.count_models") * per, "s"),
            "circuit.lower_s": (total("circuit.lower") * per, "s"),
            "circuit.propagate_basis_calls": (calls("circuit.propagate_basis") * per, "count"),
            "circuit.propagate_basis_s": (total("circuit.propagate_basis") * per, "s"),
            "oracle.verify_s": (verify_s * per, "s"),
            "oracle.inputs_checked": (c["oracle.inputs_checked"] * per, "count"),
            "oracle.us_per_input": (ratio(verify_s, c["oracle.inputs_checked"], 1e6), "us"),
            "pathsum.direct_s": (total("pathsum.direct") * per, "s"),
            "pathsum.pathsum_s": (total("pathsum.pathsum") * per, "s"),
            "pathsum.counting_s": (counting_s * per, "s"),
            "pathsum.path_pairs": (c["pathsum.path_pairs"] * per, "count"),
            "pathsum.us_per_pair": (ratio(counting_s, c["pathsum.path_pairs"], 1e6), "us"),
        }
