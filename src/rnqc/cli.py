"""Command-line front end.

Subcommands cover the whole toolkit: solve (decision runs), count (model
counting), oracle-check (exhaustive oracle verification), lower (gate
decomposition), simulate (dense state runs), and pathsum (acceptance
cross-checks).  Every machine-readable report is formed in one place,
_write_report, and embeds a run manifest so identical invocations can be
diffed byte for byte.

Exit codes: 0 = YES / success, 1 = NO / reported disagreement, a package
error's exit_code from errors.py (2 = input, 3 = resource cap, 4 =
invariant failure), 3 = out of memory and 4 = any other fault.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import inspect
import math
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii

from . import __version__, cnf, majsat, oracle, pathsum, rng, sim
from .circuit import Circuit, circuit_to_json, gate_census, lower_to_primitive, needs_complex, parse_circuit
from .errors import InputError, RnqcError

AMPLITUDE_PRINT_CAP = 12
# solve's config flags have dests named after default_config's keywords
_CONFIG_KEYWORDS = frozenset(inspect.signature(majsat.default_config).parameters)


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# json.dumps's writer for each scalar type; NaN and the infinities as it writes them
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: float.__repr__(x) if math.isfinite(x)
    else "NaN" if x != x else "-Infinity" if x < 0 else "Infinity",
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _encode(obj, pad: str) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, nested at
    pad, a newline and the spaces of its depth."""
    write = _SCALARS.get(type(obj))
    if write is not None:
        return write(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [_key(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_encode(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    for kind, write in _SCALARS.items():  # subclasses, such as np.float64
        if isinstance(obj, kind):
            return write(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key(key) -> str:
    if key is not None and not isinstance(key, (str, int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(key if isinstance(key, str) else _encode(key, ""))


def _report_text(payload) -> str:
    """The one report encoder: json.dumps(payload, indent=2, sort_keys=True)
    byte for byte, without the json module's pure-Python indenting encoder."""
    return _encode(payload, "\n")


def _write_report(args, data: bytes, config: dict, body: dict, seed=None) -> None:
    """The one place a report is formed: with --json, the run manifest (the
    subcommand, the digest of the input bytes that ran, its config and seed,
    the version and the pinned or current time) and the command's body."""
    if args.json is None:
        return
    manifest = {
        "command": args.command,
        "input_sha256": hashlib.sha256(data).hexdigest(),
        "config": config,
        "seed": seed,
        "version": __version__,
        "timestamp": args.timestamp if args.timestamp is not None else _utc_now(),
    }
    text = _report_text({"manifest": manifest, **body}) + "\n"
    try:
        with open(args.json, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.json}: {exc}") from exc


def _read_input(path: str) -> bytes:
    """The input file's bytes. Each command reads its input once, parses
    these bytes and hashes them into the manifest, so input_sha256 names
    the input that ran even if the file is replaced meanwhile."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_formula(path: str, keep_tautologies: bool) -> tuple[cnf.CnfFormula, bytes]:
    data = _read_input(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    return cnf.parse_dimacs(text, keep_tautologies=keep_tautologies), data


def _read_circuit(path: str) -> tuple[Circuit, bytes]:
    data = _read_input(path)
    return parse_circuit(data, path), data


# ---------------------------------------------------------------------------
# solve


def _config_from_args(n: int, args) -> majsat.MajsatConfig:
    overrides = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYWORDS and v is not None}
    return majsat.default_config(n, **overrides)


def cmd_solve(args) -> int:
    formula, data = _read_formula(args.file, args.keep_tautologies)
    majsat.check_register(formula.num_vars)
    if args.check:
        cnf.check_count_limit(formula.num_vars)  # the reference count, before any work
    if args.seed is None and args.mode == "sampled":
        args.seed = rng.draw_seed()
        print(f"seed {args.seed}")
    config = _config_from_args(formula.num_vars, args)
    plan = majsat.plan(formula, config)
    report = majsat.run(plan)
    yes = report.verdict == "YES"
    print(f"verdict {report.verdict}")

    body = {"report": report.to_json_dict()}
    if args.check:
        s = report.reference_s
        agree = (s > (1 << formula.num_vars) // 2) == yes
        print(f"reference count {s}, {'agree' if agree else 'DISAGREE'}")
        body["check"] = {"reference_s": s, "agree": agree}
    seed = config.seed if config.mode == "sampled" else None
    _write_report(args, data, config.to_json_dict(), body, seed)
    return 0 if yes else 1


# ---------------------------------------------------------------------------
# count


def cmd_count(args) -> int:
    formula, data = _read_formula(args.file, args.keep_tautologies)
    s = cnf.count_models(formula)
    print(s)
    _write_report(args, data, {}, {"count": s, "num_vars": formula.num_vars})
    return 0


# ---------------------------------------------------------------------------
# oracle-check


def cmd_oracle_check(args) -> int:
    formula, data = _read_formula(args.file, args.keep_tautologies)
    cnf.check_count_limit(formula.num_vars)
    three = cnf.to_3cnf(formula)
    artifact = oracle.build_oracle(three, polarity_fix=not args.no_polarity_fix)
    if args.lowering == "primitive":
        artifact = dataclasses.replace(artifact, circuit=lower_to_primitive(artifact.circuit))
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
    _write_report(args, data, config, {"report": report.to_json_dict()})
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# lower


def cmd_lower(args) -> int:
    circuit, data = _read_circuit(args.file)
    lowered = lower_to_primitive(circuit)
    census = gate_census(lowered)
    body = {
        "circuit": circuit_to_json(lowered),
        "census": {"counts": dict(sorted(census.counts.items())), "is_primitive": census.is_primitive},
    }
    summary = " ".join(f"{k}={v}" for k, v in sorted(census.counts.items()))
    print(f"census {summary or '(empty)'} primitive={census.is_primitive}")
    if args.json is None:
        print(_report_text(body["circuit"]))
    _write_report(args, data, {"to": "primitive"}, body)
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
    circuit, data = _read_circuit(args.file)
    if args.amplitudes and circuit.qubit_count > AMPLITUDE_PRINT_CAP:
        raise InputError(f"--amplitudes is limited to registers of {AMPLITUDE_PRINT_CAP} qubits")
    basis = _parse_input_basis(args, circuit.qubit_count)
    mode = args.mode
    if mode is None:
        mode = "complex" if needs_complex(circuit.gates) else "real"
    state = sim.new_state(circuit.qubit_count, basis_index=basis, mode=mode)
    state = sim.apply_circuit(state, circuit)
    norm_sq = sim.norm_sq(state)  # raises before anything is printed

    probs = [sim.probabilities_z(state, q) for q in range(circuit.qubit_count)]
    for q, (p0, p1) in enumerate(probs):
        print(f"qubit {q}: P(0)={p0:.12g} P(1)={p1:.12g}")

    body = {
        "mode": mode,
        "input_basis": basis,
        "probabilities": [[p0, p1] for p0, p1 in probs],
        "norm_sq": norm_sq,
    }
    if args.amplitudes:
        scale = math.ldexp(1.0, state.exponent)
        flat = sim.amplitudes(state)
        rows = []
        for z in range(flat.shape[0]):
            a = complex(flat[z]) * scale
            rows.append([a.real, a.imag])
            print(f"|{z:0{circuit.qubit_count}b}> {a.real:+.12g}{a.imag:+.12g}j")
        body["amplitudes"] = rows
    config = {"input_basis": basis, "mode": mode, "amplitudes": bool(args.amplitudes)}
    _write_report(args, data, config, body)
    return 0


# ---------------------------------------------------------------------------
# pathsum


# each --methods name and its route; pathsum's functions are looked up when called
_ROUTES = {
    "direct": lambda circuit, args, projector: pathsum.direct_amplitude(circuit, args.input, projector),
    "pathsum": lambda circuit, args, projector: pathsum.path_sum_amplitude(
        circuit, args.input, projector, budget=args.path_budget
    ),
    "counting": lambda circuit, args, projector: pathsum.counting_estimate(
        circuit, args.input, projector, precision_c=args.precision_c, budget=args.path_budget
    ),
}


def cmd_pathsum(args) -> int:
    circuit, data = _read_circuit(args.file)
    projector = pathsum.Projector(args.projector, args.yes_qubit)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods or any(m not in _ROUTES for m in methods):
        raise InputError(f"--methods must name a subset of {sorted(_ROUTES)}, got {args.methods!r}")
    results = [_ROUTES[m](circuit, args, projector) for m in methods]

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
    _write_report(args, data, config, {"results": [r.to_json_dict() for r in results]})
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once and shared by every call; parse_args fills a fresh Namespace each time."""
    parser = argparse.ArgumentParser(
        prog="rnqc",
        description="real non-Hermitian circuit toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="majority-satisfiability verdict for a DIMACS formula")
    p.add_argument("file")
    p.add_argument("--mode", choices=majsat.MODES, default="exact")
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--rp", dest="r_prime", type=int, default=None)
    p.add_argument("--r-scale", dest="r_scale", type=float, default=None)
    p.add_argument("--i-min", dest="i_min", type=int, default=None)
    p.add_argument("--i-max", dest="i_max", type=int, default=None)
    p.add_argument("--sets", type=int, default=None)
    p.add_argument("--runs", dest="runs_per_set", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lowering", choices=majsat.LOWERINGS, default=None)
    p.add_argument("--g-orientation", dest="g_orientation", choices=majsat.ORIENTATIONS, default=None)
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
    p.add_argument("--lowering", choices=majsat.LOWERINGS, default="semantic")
    p.add_argument("--no-polarity-fix", action="store_true")
    p.add_argument("--keep-tautologies", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("lower", help="decompose a circuit to the primitive gate set")
    p.add_argument("file")
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
    p.add_argument("--methods", default=",".join(_ROUTES))
    p.add_argument("--precision-c", dest="precision_c", type=_positive_int, default=None)
    p.add_argument(
        "--path-budget", dest="path_budget", type=_positive_int, default=pathsum.DEFAULT_PATH_BUDGET
    )
    _add_jobs(p)
    _add_common(p)
    p.set_defaults(func=cmd_pathsum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RnqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # an allocation failed: a resource, as the register cap is
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps faults to exit 4
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
