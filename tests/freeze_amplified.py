"""Freeze the amplified states and exact corpus reports at the current commit.

    PYTHONPATH=src python3 tests/freeze_amplified.py          # rewrite the frozen file
    PYTHONPATH=src python3 tests/freeze_amplified.py --check  # compare, write nothing

The frozen file, tests/amplified_digests.json, holds
  * "states": the sha256 of every amplified state (the superposition,
    oracle and amplification stages of a plan), over the mantissa bytes of
    the whole register (sim.amplitudes) and then its exponent. The plans are the 44 corpus files in both
    lowerings, at the default rounds and at r = r' = 2n, and RANDOM_PLANS,
    seeded random 3-CNF formulas of 20-22 qubits in both lowerings.
  * "reports": the exact `solve` report of every corpus file in both
    lowerings at the default config: the verdict and, per i, the pair
    (exact_p_minus, exact_p_plus).

tests/test_amplified_digests.py requires every state digest and verdict
to match, and every probability to lie within ULP_BOUND ulp of one half.
The states come from elementwise numpy operations only, so their bytes
do not depend on the platform; the probabilities are read through
sim.gram, whose matrix product may sum in another order on another BLAS.
--check lists each moved state digest and verdict and the largest move
of a probability. Rewrite the file only on purpose, and say what moved.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

from rnqc import cnf, majsat, sim

HERE = pathlib.Path(__file__).resolve().parent
FROZEN = HERE / "amplified_digests.json"
CORPUS = sorted((HERE / "corpus").glob("*.cnf"))
# How far a probability may move, in units of 2^-53. Re-summing gram in
# pieces of 2^4 amplitudes instead of 2^16 moves the corpus probabilities
# by at most 2 units; the bound leaves room for another BLAS.
ULP_BOUND = 64
# (lowering, n, m, seed): qubits = n + m + 3 semantic, n + 2m + 3 primitive.
RANDOM_PLANS = tuple(
    [("semantic", n, 10, seed) for n in (7, 8, 9) for seed in range(3)]
    + [("primitive", n, 4, seed) for n in (9, 10, 11) for seed in range(3)]
)


def random_formula(n: int, m: int, seed: int) -> cnf.CnfFormula:
    """m clauses of 3 distinct variables, each negated with probability 1/2."""
    rng = random.Random(f"amplified:{n}:{m}:{seed}")
    clauses = [tuple(v * rng.choice((-1, 1)) for v in rng.sample(range(1, n + 1), 3)) for _ in range(m)]
    return cnf.CnfFormula(n, tuple(clauses))


def state_digest(formula: cnf.CnfFormula, lowering: str, rounds: int | None = None) -> str:
    """sha256 of the plan's amplified state: mantissa bytes, then exponent."""
    config = majsat.default_config(formula.num_vars, r=rounds, r_prime=rounds, lowering=lowering)
    st = majsat._amplified_state(majsat.plan(formula, config))
    digest = hashlib.sha256(sim.amplitudes(st).tobytes())
    digest.update(str(st.exponent).encode())
    return digest.hexdigest()


def corpus_states() -> dict[str, str]:
    out = {}
    for path in CORPUS:
        formula = cnf.parse_dimacs(path.read_text())
        for lowering in majsat.LOWERINGS:
            out[f"{path.stem}/{lowering}/default"] = state_digest(formula, lowering)
            out[f"{path.stem}/{lowering}/2n"] = state_digest(formula, lowering, 2 * formula.num_vars)
    return out


def random_states() -> dict[str, str]:
    return {
        f"random/{lowering}/n{n}m{m}/{seed}": state_digest(random_formula(n, m, seed), lowering)
        for lowering, n, m, seed in RANDOM_PLANS
    }


def corpus_reports() -> dict[str, dict]:
    out = {}
    for path in CORPUS:
        formula = cnf.parse_dimacs(path.read_text())
        for lowering in majsat.LOWERINGS:
            config = majsat.default_config(formula.num_vars, lowering=lowering)
            report = majsat.run_exact(majsat.plan(formula, config))
            out[f"{path.stem}/{lowering}"] = {
                "verdict": report.verdict,
                "p": [[e["exact_p_minus"], e["exact_p_plus"]] for e in report.per_i],
            }
    return out


def ulps(a: float, b: float) -> float:
    """|a - b| in units of 2^-53, one ulp in [1/2, 1). p_minus + p_plus = 1,
    so the larger of a pair lies there; the smaller one may come out of a
    cancellation, and is held to the same absolute scale."""
    return abs(a - b) * 2.0**53


def moved_states(frozen: dict, got: dict) -> list[str]:
    return sorted(k for k in frozen.keys() | got.keys() if frozen.get(k) != got.get(k))


def report_moves(frozen: dict, got: dict) -> tuple[list[str], float]:
    """Reports whose verdict or length moved, and the largest ulp move of a
    probability among the others."""
    moved, worst = [], 0.0
    for key in sorted(frozen.keys() | got.keys()):
        a, b = frozen.get(key), got.get(key)
        if a is None or b is None or a["verdict"] != b["verdict"] or len(a["p"]) != len(b["p"]):
            moved.append(key)
            continue
        for pa, pb in zip(a["p"], b["p"]):
            worst = max(worst, *(ulps(x, y) for x, y in zip(pa, pb)))
    return moved, worst


def main(argv: list[str]) -> int:
    got = {"states": {**corpus_states(), **random_states()}, "reports": corpus_reports()}
    if "--check" not in argv:
        FROZEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"froze {len(got['states'])} states and {len(got['reports'])} reports")
        return 0
    frozen = json.loads(FROZEN.read_text())
    states = moved_states(frozen["states"], got["states"])
    reports, worst = report_moves(frozen["reports"], got["reports"])
    for key in states:
        print(f"state moved: {key}")
    for key in reports:
        print(f"report verdict moved: {key}")
    print(f"{len(states)} states and {len(reports)} verdicts moved; largest probability move {worst:g} ulp of one half")
    return 1 if states or reports or worst > ULP_BOUND else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
