"""The two benchmark workloads: seeded inputs, the commands they run, and
the independent check applied to every command's report.

`exact` runs `solve --mode exact` with semantic and with primitive
lowering. `small-state` runs sampled solves of the corpus and the
crosscheck commands (`count`, `oracle-check`, `pathsum`), none of which
builds a large dense state.

A workload is a short list of *cycles*; a cycle is a fixed list of rnqc
commands. Every cycle of a workload has the same sizes in the same order
and the seed only decides clause literals (and, for sampled runs, which
frozen sampler seeds are used), so each run measures the same mix of work
whatever the seed and however many cycles fit into it.

rnqc only ever sees the DIMACS and circuit-JSON files written here.
Reference answers come from `brute_count`, which shares no code with
`rnqc.cnf.count_models`.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = ROOT / "tests" / "corpus"
DIGESTS = HERE / "sampled_digests.json"
TIMESTAMP = "2026-01-01T00:00:00Z"

# (n, m) per slot; qubits = n + m + 3 semantic: 20, 21, 22 (8-32 MiB states),
# either side of the cache step between 21 and 22 qubits. 23 qubits (about
# 20 s per solve) would leave one sample per run and is left out.
SEMANTIC_SLOTS = ((7, 10), (8, 10), (9, 10))
# qubits = n + 2m + 4 once lowered: 18, 19, 20, 21.
PRIMITIVE_SLOTS = ((8, 3), (7, 4), (8, 4), (9, 4))
# Corpus formulas (n = 4-5, r = 1) whose superposition+oracle+amplification
# circuit spans the 8k-72k path-pair band: smallest, middle, largest.
PATHSUM_CORPUS = ("n4_or2_or2", "n4_units3", "n5_or2_or3")
# Cycles pre-generated per run; cycle c runs inputs c % CYCLES. Three input
# sets keep one formula's evaluation cost from setting a whole run's speed.
CYCLES = 3
# Words per block of brute_count's truth table (128 KiB).
BRUTE_BLOCK_WORDS = 1 << 14


@dataclass
class Op:
    """One rnqc command. `check(exit_code, report_bytes)` returns a problem or None."""

    label: str
    argv: list
    check: Callable[[int, bytes], Optional[str]]


# ---------------------------------------------------------------------------
# independent references


def _low_word_pattern(v: int) -> int:
    return sum(1 << x for x in range(64) if (x >> v) & 1)


def brute_count(n: int, clauses) -> int:
    """Model count over all 2^n assignments, as a packed numpy truth table.

    Bit x of the table is assignment x (bit v-1 of x is variable v). The
    table is built in cache-sized blocks of words, so the reference adds
    little to the benchmark process's peak memory.
    """
    if n < 6:
        raise ValueError("brute_count packs 64 assignments per word; needs n >= 6")
    words = 1 << (n - 6)
    block = min(words, BRUTE_BLOCK_WORDS)
    low = [np.full(block, _low_word_pattern(v), dtype=np.uint64) for v in range(min(n, 6))]
    hit = np.empty(block, dtype=np.uint64)
    total = 0
    for first in range(0, words, block):
        word_index = np.arange(first, first + block, dtype=np.uint64)
        true_masks = low + [np.uint64(0) - ((word_index >> np.uint64(v - 6)) & np.uint64(1)) for v in range(6, n)]
        false_masks = [~mask for mask in true_masks]
        sat = np.full(block, np.uint64(2**64 - 1), dtype=np.uint64)
        for clause in clauses:
            hit.fill(0)
            for lit in clause:
                hit |= true_masks[lit - 1] if lit > 0 else false_masks[-lit - 1]
            sat &= hit
        total += int(np.bitwise_count(sat).sum())
    return total


# ---------------------------------------------------------------------------
# formula generation


def _signed(rng: random.Random, clauses: list) -> list:
    """Negate exactly half of the literals (rounded down), chosen at random.

    Gate counts (X conjugations of positive literals) and count_models work
    (negative literals cost a complement) depend on the sign split, so fixing
    it keeps the cost of a slot the same for every seed.
    """
    slots = [(i, j) for i, c in enumerate(clauses) for j in range(len(c))]
    negate = set(rng.sample(slots, len(slots) // 2))
    return [tuple(-v if (i, j) in negate else v for j, v in enumerate(c)) for i, c in enumerate(clauses)]


def random_3cnf(rng: random.Random, n: int, m: int) -> list:
    return _signed(rng, [rng.sample(range(1, n + 1), 3) for _ in range(m)])


def decided_formula(rng: random.Random, n: int, m: int, yes: bool) -> tuple[list, int]:
    """A width-<=3 formula whose majority verdict is `yes`, and its model count.

    YES instances put the literal x1 in every clause, so s >= 2^(n-1); NO
    instances open with a unit clause, so s <= 2^(n-1). Exact ties are
    redrawn: at s = 2^(n-1) the CLI-default r = n resolves the verdict by
    amplification residue (it answers YES), which is not what is measured here.
    """
    half = 1 << (n - 1)
    while True:
        if yes:
            clauses = [(1,) + c for c in _signed(rng, [rng.sample(range(2, n + 1), 2) for _ in range(m)])]
        else:
            clauses = [(rng.choice((-1, 1)) * rng.randint(1, n),)] + random_3cnf(rng, n, m - 1)
        s = brute_count(n, clauses)
        if s != half and (s > half) == yes:
            return clauses, s


def write_dimacs(path: Path, n: int, clauses) -> str:
    lines = [f"p cnf {n} {len(clauses)}"] + [" ".join(map(str, c)) + " 0" for c in clauses]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# checks


def _load(report: bytes) -> dict:
    return json.loads(report.decode())


def check_exact(yes: bool, s: int):
    want = "YES" if yes else "NO"

    def check(code: int, report: bytes) -> Optional[str]:
        body = _load(report)["report"]
        if body["verdict"] != want or code != (0 if yes else 1):
            return f"verdict {body['verdict']} (exit {code}), brute force says {want} at s={s}"
        if body["reference_s"] != s:
            return f"reference_s {body['reference_s']}, brute force {s}"
        return None

    return check


def check_digest(digest: str):
    def check(code: int, report: bytes) -> Optional[str]:
        got = hashlib.sha256(report).hexdigest()
        return None if got == digest else f"report sha256 {got[:16]} != frozen {digest[:16]}"

    return check


def check_oracle(n: int, s: int):
    def check(code: int, report: bytes) -> Optional[str]:
        body = _load(report)["report"]
        if not body["ok"] or code != 0:
            return f"oracle check not ok (exit {code})"
        if body["inputs_checked"] != 1 << n or body["satisfying_inputs"] != s:
            return f"{body['satisfying_inputs']} satisfying of {body['inputs_checked']}, brute force {s}"
        return None

    return check


def check_count(s: int):
    def check(code: int, report: bytes) -> Optional[str]:
        got = _load(report)["count"]
        return None if got == s else f"count {got}, brute force {s}"

    return check


def check_routes(code: int, report: bytes) -> Optional[str]:
    """Acceptance criterion 8's tolerances between the three pathsum routes."""
    res = {r["method"]: r for r in _load(report)["results"]}
    direct, summed, counted = res["direct"], res["pathsum"], res["counting"]
    for key in ("c_yes_sq", "c_no_sq"):
        if abs(summed[key] - direct[key]) > 1e-9:
            return f"pathsum {key} {summed[key]!r} vs direct {direct[key]!r}"
    if abs(counted["c_yes_sq"] - direct["c_yes_sq"]) > counted["error_bound"]:
        return f"counting {counted['c_yes_sq']!r} outside bound {counted['error_bound']} of direct"
    return None


# ---------------------------------------------------------------------------
# workloads: each returns a list of cycles, each a list of Ops


def exact_lowering_cycles(seed: int, work: Path, lowering: str) -> list:
    slots = SEMANTIC_SLOTS if lowering == "semantic" else PRIMITIVE_SLOTS
    rng = random.Random(f"{lowering}:{seed}")
    cycles = []
    for c in range(CYCLES):
        ops = []
        for k, (n, m) in enumerate(slots):
            yes = (k + c) % 2 == 0
            clauses, s = decided_formula(rng, n, m, yes)
            path = write_dimacs(work / f"exact_{lowering}_{c}_{k}.cnf", n, clauses)
            argv = ["solve", path, "--mode", "exact"]
            if lowering == "primitive":
                argv += ["--lowering", "primitive"]
            ops.append(Op(f"solve-exact {lowering} n={n} m={m}", argv, check_exact(yes, s)))
        cycles.append(ops)
    return cycles


def exact_cycles(seed: int, work: Path) -> list:
    """Semantic solves at 20-22 qubits, then primitive solves at 18-21 qubits."""
    semantic = exact_lowering_cycles(seed, work, "semantic")
    primitive = exact_lowering_cycles(seed, work, "primitive")
    return [a + b for a, b in zip(semantic, primitive)]


def sampled_argv(path: str, sampler_seed: int) -> list:
    return ["solve", path, "--mode", "sampled", "--seed", str(sampler_seed)]


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def corpus_files() -> list:
    files = sorted(CORPUS.glob("*.cnf"))
    if len(files) != 44:
        raise FileNotFoundError(f"expected the 44-file corpus under {CORPUS}, found {len(files)}")
    return files


def _sampled_ops(files: list, sampler_seed: int, digests: dict) -> list:
    return [
        Op(f"solve-sampled {p.stem}", sampled_argv(str(p), sampler_seed), check_digest(digests[p.name]))
        for p in files
    ]


def _copy_corpus(work: Path) -> list:
    local = []
    for src in corpus_files():
        local.append(work / src.name)
        shutil.copyfile(src, local[-1])
    return local


def sampled_cycles(seed: int, work: Path) -> list:
    """One cycle per frozen sampler seed, in a seed-dependent order."""
    frozen = load_digests()
    pool = frozen["seeds"]
    order = random.Random(f"sampled:{seed}").sample(range(len(pool)), len(pool))
    local = _copy_corpus(work)
    return [_sampled_ops(local, pool[i], frozen["digests"][str(pool[i])]) for i in order]


def pathsum_circuit(name: str, work: Path) -> tuple[str, list]:
    """Circuit JSON of a corpus formula's superposition, oracle and r = 1
    amplification stages, plus the pathsum flags that read its oracle qubit."""
    from rnqc import cnf, majsat
    from rnqc.circuit import Circuit, circuit_to_json

    formula = cnf.parse_dimacs((CORPUS / f"{name}.cnf").read_text())
    plan = majsat.plan(formula, majsat.default_config(formula.num_vars, r=1))
    gates = plan.superposition_circuit.gates + plan.oracle.circuit.gates + plan.amplification_circuit.gates
    path = work / f"{name}.circuit.json"
    path.write_text(json.dumps(circuit_to_json(Circuit(plan.qubit_count, gates))))
    return str(path), ["--input", str(plan.initial_bits), "--yes-qubit", str(plan.layout.oracle)]


def crosscheck_cycles(seed: int, work: Path) -> list:
    rng = random.Random(f"crosscheck:{seed}")
    circuits = [pathsum_circuit(name, work) for name in PATHSUM_CORPUS]
    cycles = []
    for c in range(CYCLES):
        ops = []
        for n in (20, 22, 24):
            clauses = random_3cnf(rng, n, 4 * n)
            path = write_dimacs(work / f"count_{c}_{n}.cnf", n, clauses)
            ops.append(Op(f"count n={n}", ["count", path], check_count(brute_count(n, clauses))))
        # m = 8 keeps the lowered register at the 28-qubit cap for n = 11.
        for n in (10, 11):
            clauses = random_3cnf(rng, n, 8)
            path = write_dimacs(work / f"oraclep_{c}_{n}.cnf", n, clauses)
            argv = ["oracle-check", path, "--lowering", "primitive"]
            ops.append(Op(f"oracle-check primitive n={n}", argv, check_oracle(n, brute_count(n, clauses))))
        for n in (14, 15, 16):
            clauses = random_3cnf(rng, n, 11)
            path = write_dimacs(work / f"oracle_{c}_{n}.cnf", n, clauses)
            ops.append(Op(f"oracle-check n={n}", ["oracle-check", path], check_oracle(n, brute_count(n, clauses))))
        for name, (path, flags) in zip(PATHSUM_CORPUS, circuits):
            ops.append(Op(f"pathsum {name}", ["pathsum", path] + flags, check_routes))
        cycles.append(ops)
    return cycles


def jobs_probe_ops(work: Path) -> tuple[list, list]:
    """Fixed commands for the jobs=1 vs jobs=2 probes: sampled solves of the
    corpus formulas with n >= 7 (first frozen seed) and the largest pathsum
    circuit."""
    work.mkdir(exist_ok=True)
    frozen = load_digests()
    seed = frozen["seeds"][0]
    large = [p for p in _copy_corpus(work) if int(p.stem[1:].split("_")[0]) >= 7]
    name = PATHSUM_CORPUS[-1]
    path, flags = pathsum_circuit(name, work)
    return (
        _sampled_ops(large, seed, frozen["digests"][str(seed)]),
        [Op(f"pathsum {name}", ["pathsum", path] + flags, check_routes)],
    )


def small_state_cycles(seed: int, work: Path) -> list:
    """Sampled solves of the whole corpus, then the crosscheck commands.

    One cycle per frozen sampler seed; cycle i runs crosscheck input set
    i % CYCLES.
    """
    sampled = sampled_cycles(seed, work)
    crosscheck = crosscheck_cycles(seed, work)
    return [ops + crosscheck[i % len(crosscheck)] for i, ops in enumerate(sampled)]


WORKLOADS = {
    "exact": exact_cycles,
    "small-state": small_state_cycles,
}
