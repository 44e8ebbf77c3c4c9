"""Command-line front end.

Subcommands cover the whole toolkit: solve (decision runs), count (model
counting), oracle-check (exhaustive oracle verification), lower (gate
decomposition), simulate (dense state runs), and pathsum (acceptance
cross-checks).  Every machine-readable report embeds a run manifest so
identical invocations can be diffed byte for byte.

Exit codes: 0 = YES / success, 1 = NO / reported disagreement, 2 = input
error, 3 = resource cap, 4 = invariant failure or unexpected fault.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from datetime import datetime, timezone

from . import __version__, cnf, majsat, oracle, pathsum, rng, sim
from .circuit import Circuit, circuit_to_json, gate_census, load_circuit, lower_to_primitive
from .errors import InputError, InvariantError, ResourceError, RnqcError

AMPLITUDE_PRINT_CAP = 12


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _manifest(command: str, path: str, config: dict, seed, timestamp: str | None) -> dict:
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "command": command,
        "input_sha256": digest,
        "config": config,
        "seed": seed,
        "version": __version__,
        "timestamp": timestamp if timestamp is not None else _utc_now(),
    }


def _write_report(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        return
    with open(path, "w") as fh:
        fh.write(text)


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# solve


def _config_from_args(n: int, args) -> majsat.MajsatConfig:
    overrides = {}
    for flag, name in (
        ("g", "g"),
        ("r", "r"),
        ("rp", "r_prime"),
        ("r_scale", "r_scale"),
        ("i_min", "i_min"),
        ("i_max", "i_max"),
        ("sets", "sets"),
        ("runs", "runs_per_set"),
        ("seed", "seed"),
        ("mode", "mode"),
        ("lowering", "lowering"),
        ("g_orientation", "g_orientation"),
    ):
        value = getattr(args, flag)
        if value is not None:
            overrides[name] = value
    return majsat.default_config(n, **overrides)


def cmd_solve(args) -> int:
    formula = cnf.parse_dimacs(_read_text(args.file), keep_tautologies=args.keep_tautologies)
    if args.seed is None and args.mode == "sampled":
        args.seed = rng.draw_seed()
        print(f"seed {args.seed}")
    config = _config_from_args(formula.num_vars, args)
    plan = majsat.plan(formula, config)
    report = majsat.run(plan)
    yes = report.verdict == "YES"
    print(f"verdict {report.verdict}")

    payload = {
        "manifest": _manifest(
            "solve",
            args.file,
            config.to_json_dict(),
            config.seed if config.mode == "sampled" else None,
            args.timestamp,
        ),
        "report": report.to_json_dict(),
    }
    if args.check:
        s = cnf.count_models(formula)
        agree = (s > (1 << formula.num_vars) // 2) == yes
        print(f"reference count {s}, {'agree' if agree else 'DISAGREE'}")
        payload["check"] = {"reference_s": s, "agree": agree}
    _write_report(args.json, payload)
    return 0 if yes else 1


# ---------------------------------------------------------------------------
# count


def cmd_count(args) -> int:
    formula = cnf.parse_dimacs(_read_text(args.file), keep_tautologies=args.keep_tautologies)
    s = cnf.count_models(formula)
    print(s)
    _write_report(
        args.json,
        {
            "manifest": _manifest("count", args.file, {}, None, args.timestamp),
            "count": s,
            "num_vars": formula.num_vars,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# oracle-check


def cmd_oracle_check(args) -> int:
    formula = cnf.parse_dimacs(_read_text(args.file), keep_tautologies=args.keep_tautologies)
    three = cnf.to_3cnf(formula)
    artifact = oracle.build_oracle(three, polarity_fix=not args.no_polarity_fix)
    if args.lowering == "primitive":
        lowered = lower_to_primitive(artifact.circuit)
        artifact = dataclasses.replace(artifact, circuit=lowered, layout=lowered.layout)
    report = oracle.verify_oracle(artifact, formula)
    if report.ok:
        print(
            f"oracle check passed: {report.inputs_checked} inputs, "
            f"{report.satisfying_inputs} satisfying"
        )
    else:
        for entry in report.mismatches:
            print(f"mismatch {entry}")
        for entry in report.scratch_violations:
            print(f"scratch violation {entry}")
    config = {"lowering": args.lowering, "polarity_fix": not args.no_polarity_fix}
    _write_report(
        args.json,
        {
            "manifest": _manifest("oracle-check", args.file, config, None, args.timestamp),
            "report": report.to_json_dict(),
        },
    )
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# lower


def cmd_lower(args) -> int:
    circuit = load_circuit(args.file)
    lowered = lower_to_primitive(circuit)
    census = gate_census(lowered)
    payload = {
        "manifest": _manifest("lower", args.file, {"to": args.to}, None, args.timestamp),
        "circuit": circuit_to_json(lowered),
        "census": {"counts": dict(sorted(census.counts.items())), "is_primitive": census.is_primitive},
    }
    summary = " ".join(f"{k}={v}" for k, v in sorted(census.counts.items()))
    print(f"census {summary or '(empty)'} primitive={census.is_primitive}")
    if args.json is None:
        print(json.dumps(payload["circuit"], indent=2, sort_keys=True))
    _write_report(args.json, payload)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _parse_input_basis(args, qubit_count: int) -> int:
    if args.bits is not None:
        text = args.bits.strip()
        if len(text) != qubit_count or any(ch not in "01" for ch in text):
            raise InputError(
                f"--bits needs exactly {qubit_count} characters of 0/1, got {args.bits!r}"
            )
        # character k is qubit k, so the string reads least significant first
        return sum(1 << k for k, ch in enumerate(text) if ch == "1")
    index = args.index
    if not 0 <= index < (1 << qubit_count):
        raise InputError(f"--index {index} out of range for {qubit_count} qubits")
    return index


def cmd_simulate(args) -> int:
    circuit = load_circuit(args.file)
    basis = _parse_input_basis(args, circuit.qubit_count)
    mode = args.mode
    if mode is None:
        mode = "complex" if any(g.kind == "T" for g in circuit.gates) else "real"
    state = sim.new_state(circuit.qubit_count, basis_index=basis, mode=mode)
    state = sim.apply_circuit(state, circuit)

    probs = [sim.probabilities_z(state, q) for q in range(circuit.qubit_count)]
    for q, (p0, p1) in enumerate(probs):
        print(f"qubit {q}: P(0)={p0:.12g} P(1)={p1:.12g}")

    payload = {
        "manifest": _manifest(
            "simulate",
            args.file,
            {"input_basis": basis, "mode": mode, "amplitudes": bool(args.amplitudes)},
            None,
            args.timestamp,
        ),
        "mode": mode,
        "input_basis": basis,
        "probabilities": [[p0, p1] for p0, p1 in probs],
        "norm_sq": sim.norm_sq_mantissa(state) * math.ldexp(1.0, 2 * state.exponent),
    }
    if args.amplitudes:
        if circuit.qubit_count > AMPLITUDE_PRINT_CAP:
            raise InputError(
                f"--amplitudes is limited to registers of {AMPLITUDE_PRINT_CAP} qubits"
            )
        scale = math.ldexp(1.0, state.exponent)
        flat = state.amps.reshape(-1)
        rows = []
        for z in range(flat.shape[0]):
            a = complex(flat[z]) * scale
            rows.append([a.real, a.imag])
            print(f"|{z:0{circuit.qubit_count}b}> {a.real:+.12g}{a.imag:+.12g}j")
        payload["amplitudes"] = rows
    _write_report(args.json, payload)
    return 0


# ---------------------------------------------------------------------------
# pathsum


def cmd_pathsum(args) -> int:
    circuit = load_circuit(args.file)
    projector = pathsum.Projector(args.projector, args.yes_qubit)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    known = {"direct", "pathsum", "counting"}
    bad = [m for m in methods if m not in known]
    if bad or not methods:
        raise InputError(f"--methods must name a subset of {sorted(known)}, got {args.methods!r}")

    results = []
    for method in methods:
        if method == "direct":
            results.append(pathsum.direct_amplitude(circuit, args.input, projector))
        elif method == "pathsum":
            results.append(
                pathsum.path_sum_amplitude(circuit, args.input, projector, budget=args.path_budget)
            )
        else:
            results.append(
                pathsum.counting_estimate(
                    circuit,
                    args.input,
                    projector,
                    precision_c=args.precision_c,
                    budget=args.path_budget,
                )
            )

    header = f"{'method':10s} {'c_yes_sq':>18s} {'c_no_sq':>18s} {'acceptance':>12s} {'paths':>8s}"
    print(header)
    for res in results:
        paths = str(res.path_count) if res.method != "direct" else "-"
        print(
            f"{res.method:10s} {res.c_yes_sq:18.12g} {res.c_no_sq:18.12g} "
            f"{res.acceptance:12.8g} {paths:>8s}"
        )

    config = {
        "input_basis": args.input,
        "projector": {"kind": projector.kind, "yes_qubit": projector.yes_qubit},
        "methods": methods,
        "precision_c": args.precision_c,
        "path_budget": args.path_budget,
    }
    _write_report(
        args.json,
        {
            "manifest": _manifest("pathsum", args.file, config, None, args.timestamp),
            "results": [r.to_json_dict() for r in results],
        },
    )
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_jobs(p: argparse.ArgumentParser) -> None:
    # kept for command-line compatibility; every run is single-threaded
    p.add_argument("--jobs", type=_positive_int, default=1, help="accepted and ignored")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", metavar="PATH", help="write the machine-readable report here")
    p.add_argument("--timestamp", help="pin the manifest timestamp (for reproducible reports)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnqc",
        description="real non-Hermitian circuit toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="majority-satisfiability verdict for a DIMACS formula")
    p.add_argument("file")
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--rp", type=int, default=None)
    p.add_argument("--r-scale", dest="r_scale", type=float, default=None)
    p.add_argument("--i-min", dest="i_min", type=int, default=None)
    p.add_argument("--i-max", dest="i_max", type=int, default=None)
    p.add_argument("--sets", type=int, default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lowering", choices=("semantic", "primitive"), default=None)
    p.add_argument("--g-orientation", dest="g_orientation", choices=("boost", "literal"), default=None)
    _add_jobs(p)
    p.add_argument("--check", action="store_true", help="append a brute-force count comparison")
    p.add_argument("--keep-tautologies", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("count", help="count satisfying assignments")
    p.add_argument("file")
    p.add_argument("--keep-tautologies", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("oracle-check", help="verify a synthesized oracle on all basis inputs")
    p.add_argument("file")
    p.add_argument("--lowering", choices=("semantic", "primitive"), default="semantic")
    p.add_argument("--no-polarity-fix", action="store_true")
    p.add_argument("--keep-tautologies", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("lower", help="decompose a circuit to the primitive gate set")
    p.add_argument("file")
    p.add_argument("--to", choices=("primitive",), default="primitive")
    _add_common(p)
    p.set_defaults(func=cmd_lower)

    p = sub.add_parser("simulate", help="run a circuit on a basis input")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--bits", help="input bitstring, character k is qubit k")
    group.add_argument("--index", type=int, default=0, help="input basis index (default 0)")
    p.add_argument("--amplitudes", action="store_true", help="print the full state vector")
    p.add_argument("--mode", choices=("real", "complex"), default=None)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pathsum", help="compare acceptance quantities across methods")
    p.add_argument("file")
    p.add_argument("--input", type=int, default=0, help="input basis index")
    p.add_argument("--projector", choices=("yes", "yn"), default="yes")
    p.add_argument("--yes-qubit", dest="yes_qubit", type=int, default=0)
    p.add_argument("--methods", default="direct,pathsum,counting")
    p.add_argument("--precision-c", dest="precision_c", type=int, default=None)
    p.add_argument("--path-budget", dest="path_budget", type=int, default=pathsum.DEFAULT_PATH_BUDGET)
    _add_jobs(p)
    _add_common(p)
    p.set_defaults(func=cmd_pathsum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RnqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps faults to exit 4
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
