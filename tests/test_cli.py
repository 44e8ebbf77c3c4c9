"""End-to-end command-line checks run in process through cli.main."""
from __future__ import annotations

import dataclasses
import hashlib
import importlib.resources
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS_DIR
from rnqc import __version__, cli, cnf, majsat, oracle, pathsum, sim
from rnqc.circuit import Gate

YES_CNF = "p cnf 3 1\n1 2 0\n"
NO_CNF = "p cnf 3 2\n1 0\n2 0\n"
WIDE_CNF = "p cnf 30 1\n1 0\n"
HGH_JSON = {
    "qubits": 1,
    "gates": [{"g": "H", "q": [0]}, {"g": "G", "q": [0], "param": 2.0}, {"g": "H", "q": [0]}],
}
T_JSON = {"qubits": 1, "gates": [{"g": "T", "q": [0]}]}
# twelve clauses: 19 qubits as built, 31 once lowered (10 chain ancillas)
WIDE_ORACLE_CNF = (
    "p cnf 6 12\n1 2 3 0\n-1 4 5 0\n2 -4 6 0\n-2 -3 5 0\n3 -5 -6 0\n1 -2 6 0\n"
    "-1 3 -4 0\n4 5 -6 0\n-3 4 6 0\n2 -5 6 0\n-1 -2 -6 0\n1 3 5 0\n"
)
# X, then seven G(1e150) or G(1e-150): squared norm 1e+-2100, past a double
NORM_OVERFLOW_JSON = {
    "qubits": 1,
    "gates": [{"g": "X", "q": [0]}] + [{"g": "G", "q": [0], "param": 1e150}] * 7,
}
NORM_UNDERFLOW_JSON = {
    "qubits": 1,
    "gates": [{"g": "X", "q": [0]}] + [{"g": "G", "q": [0], "param": 1e-150}] * 7,
}
# five G(2^-499) on qubit 0 of two: |0> scaled by 2^2495
G_SMALL_NORM_JSON = {"qubits": 2, "gates": [{"g": "G", "q": [0], "param": 2.0**-499}] * 5}
CG_JSON = {"qubits": 2, "gates": [{"g": "CG", "q": [0, 1], "param": 4.0}]}
# on input 1 the one path ends at 2^520: its square passes the double range
G520_JSON = {"qubits": 1, "gates": [{"g": "G", "q": [0], "param": 2.0**p} for p in (500, 20)]}
# H, then three G(2^500): the 1-branch overflows to inf
PATH_OVERFLOW_JSON = {
    "qubits": 1,
    "gates": [{"g": "H", "q": [0]}] + [{"g": "G", "q": [0], "param": 2.0**500}] * 3,
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_inputs")
    paths = {}
    for name, text in (
        ("yes.cnf", YES_CNF),
        ("no.cnf", NO_CNF),
        ("wide.cnf", WIDE_CNF),
        ("wide_oracle.cnf", WIDE_ORACLE_CNF),
        ("norm_overflow.json", json.dumps(NORM_OVERFLOW_JSON)),
        ("norm_underflow.json", json.dumps(NORM_UNDERFLOW_JSON)),
        ("g_small_norm.json", json.dumps(G_SMALL_NORM_JSON)),
        ("hgh.json", json.dumps(HGH_JSON)),
        ("tgate.json", json.dumps(T_JSON)),
        ("cg.json", json.dumps(CG_JSON)),
        ("g520.json", json.dumps(G520_JSON)),
        ("path_overflow.json", json.dumps(PATH_OVERFLOW_JSON)),
    ):
        path = root / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


def _schema(name: str) -> dict:
    text = importlib.resources.files("rnqc").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


@pytest.mark.parametrize(
    "name",
    [
        "solve_report.schema.json",
        "count_report.schema.json",
        "oracle_report.schema.json",
        "lower_report.schema.json",
        "simulate_report.schema.json",
        "pathsum_report.schema.json",
    ],
)
def test_shipped_schemas_are_valid(name):
    jsonschema.Draft202012Validator.check_schema(_schema(name))


def _run_json(argv: list[str], tmp_path) -> tuple[int, dict]:
    out = tmp_path / "report.json"
    code = cli.main(argv + ["--json", str(out)])
    return code, json.loads(out.read_text())


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_exact_yes(files, capsys):
    assert cli.main(["solve", files["yes.cnf"]]) == 0
    assert "verdict YES" in capsys.readouterr().out


def test_solve_exact_no(files, capsys):
    assert cli.main(["solve", files["no.cnf"]]) == 1
    assert "verdict NO" in capsys.readouterr().out


def test_solve_check_agrees(files, tmp_path, capsys):
    code, payload = _run_json(["solve", files["yes.cnf"], "--check"], tmp_path)
    assert code == 0
    assert "reference count 6, agree" in capsys.readouterr().out
    assert payload["check"] == {"reference_s": 6, "agree": True}
    jsonschema.validate(payload, _schema("solve_report.schema.json"))


def test_solve_report_schema_exact(files, tmp_path):
    code, payload = _run_json(["solve", files["no.cnf"]], tmp_path)
    assert code == 1
    jsonschema.validate(payload, _schema("solve_report.schema.json"))
    assert payload["report"]["verdict"] == "NO"
    assert payload["manifest"]["command"] == "solve"
    assert payload["manifest"]["seed"] is None


def test_solve_sampled_draws_and_prints_seed(files, capsys):
    code = cli.main(
        ["solve", files["yes.cnf"], "--mode", "sampled", "--sets", "2", "--runs", "4"]
    )
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert out.startswith("seed ")
    assert int(out.splitlines()[0].split()[1]) >= 0


def test_solve_sampled_report_schema(files, tmp_path):
    code, payload = _run_json(
        [
            "solve",
            files["yes.cnf"],
            "--mode",
            "sampled",
            "--seed",
            "3",
            "--sets",
            "2",
            "--runs",
            "6",
        ],
        tmp_path,
    )
    assert code in (0, 1)
    jsonschema.validate(payload, _schema("solve_report.schema.json"))
    assert payload["manifest"]["seed"] == 3
    entry = payload["report"]["per_i"][0]
    assert {"set_results", "discarded_shots"} <= set(entry)


@pytest.mark.parametrize(
    "flags",
    [
        ["--g", "1.0"],
        ["--g", "nan"],
        ["--g", "inf"],
        ["--r-scale", "nan"],
        ["--r-scale", "inf"],
        ["--r-scale", "0"],
        ["--r-scale", "-3"],
    ],
    ids=lambda flags: "=".join(flags).lstrip("-"),
)
def test_solve_rejects_bad_gain(files, capsys, flags):
    # Bad input exits 2, not with an unexpected error or a silent r = 1.
    assert cli.main(["solve", files["yes.cnf"], *flags]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--r-scale", "1e300"],
        ["--r", str(10**19)],
        ["--rp", str(10**19)],
        ["--r", str(2**62)],
        ["--g", "1.0000000001"],
    ],
    ids=lambda flags: "=".join(flags).lstrip("-"),
)
def test_solve_rejects_rounds_past_memory(capsys, monkeypatch, flags):
    # Listing the plan's gates would take more memory than the machine
    # has (8 bytes per gate reference), so the plan exits 3 before it
    # builds a stage, not with an OverflowError or a failed allocation.
    built = []
    monkeypatch.setattr(majsat, "_gain_rounds", lambda *args: built.append(args) or [])
    assert cli.main(["solve", str(CORPUS_DIR / "n3_or2.cnf"), *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: plan needs at least") and "unexpected" not in err
    assert not built


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_solve_i_max_past_a_double_is_input_error(files, mode, capsys):
    # 2^1024 overflows a double; 2^1023 is the last beta/alpha the sweep can form
    base = ["solve", files["yes.cnf"], "--mode", mode, "--seed", "1", "--i-min", "1020"]
    assert cli.main(base + ["--i-max", "1024"]) == 2
    assert "i_max must be at most 1023" in capsys.readouterr().err
    assert cli.main(base + ["--i-max", "1023"]) in (0, 1)
    assert "verdict " in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_solve_past_the_register_cap_is_resource_exit_before_building(tmp_path, mode, capsys):
    # Two million variables default i_max to 2,000,000, past 1023; the
    # resource the formula exceeds is the register, so it exits 3 first,
    # before a seed is drawn or anything is built.
    path = tmp_path / "huge.cnf"
    path.write_text("p cnf 2000000 1\n1 0\n")
    code, peak = _traced_main(["solve", str(path), "--mode", mode])
    out = capsys.readouterr()
    assert code == 3
    assert "a plan over 2000000 variables needs at least 2000003 qubits" in out.err
    assert out.out == ""
    assert peak < 1 << 20, f"peak {peak / (1 << 20):.1f} MiB"


@pytest.mark.parametrize("message", ["Unable to allocate 156. GiB for an array", ""])
def test_solve_out_of_memory_is_resource_exit(files, monkeypatch, capsys, message):
    # A gain close to 1 asks for some 2*10^10 rounds, and the plan's gate
    # list cannot be allocated (a bare MemoryError); numpy names the size
    # it could not get. Either way the CLI exits 3, the resource code, as
    # at the register cap. The stand-in plan raises before anything is built.
    def plan(formula, config):
        raise MemoryError(message)

    monkeypatch.setattr(majsat, "plan", plan)
    assert cli.main(["solve", files["yes.cnf"], "--g", "1.0000000001"]) == 3
    out = capsys.readouterr()
    assert out.err == f"error: out of memory{': ' + message if message else ''}\n"
    assert out.out == ""


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_solve_check_past_the_count_limit_exits_before_planning(tmp_path, monkeypatch, capsys, mode):
    # 25 variables fit the register floor (28 qubits) but not exhaustive
    # evaluation, which --check needs: it exits 3 before a plan is built
    # or a seed is drawn
    path = tmp_path / "n25.cnf"
    path.write_text("p cnf 25 1\n1 0\n")
    planned = []
    monkeypatch.setattr(majsat, "plan", lambda *args: planned.append(args))
    assert cli.main(["solve", str(path), "--check", "--mode", mode]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: exhaustive evaluation is capped at 24 variables, got 25\n"
    assert not planned


@pytest.mark.parametrize(
    "text, flags, env, message",
    [
        (YES_CNF, ["--mode", "sampled", "--seed", str(2**64)], {}, "seed must fit in 64 bits"),
        ("p cnf 0 0\n", [], {}, "majority decision needs at least one variable"),
        (YES_CNF, [], {"RNQC_MAX_QUBITS": "0"}, "RNQC_MAX_QUBITS must be positive, got 0"),
    ],
    ids=["seed-past-64-bits", "no-variables", "zero-qubit-cap"],
)
def test_solve_rejects_bad_input_with_its_message(tmp_path, monkeypatch, capsys, text, flags, env, message):
    path = tmp_path / "f.cnf"
    path.write_text(text)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert cli.main(["solve", str(path)] + flags) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


def test_solve_flags_reach_the_config(files, tmp_path):
    argv = ["solve", files["yes.cnf"], "--mode", "exact", "--seed", "3", "--g", "3", "--r", "2"]
    argv += ["--rp", "5", "--i-min", "-1", "--i-max", "2", "--sets", "2", "--runs", "4"]
    argv += ["--lowering", "primitive", "--g-orientation", "literal"]
    _, payload = _run_json(argv, tmp_path)
    assert payload["manifest"]["config"] == {
        "g": 3.0, "r": 2, "r_prime": 5, "i_min": -1, "i_max": 2, "sets": 2,
        "runs_per_set": 4, "seed": 3, "mode": "exact", "lowering": "primitive",
        "g_orientation": "literal",
    }
    assert payload["report"]["config"] == payload["manifest"]["config"]


def test_solve_missing_file(tmp_path, capsys):
    assert cli.main(["solve", str(tmp_path / "absent.cnf")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "count", "oracle-check", "lower", "simulate", "pathsum"])
def test_input_that_is_not_utf8_is_input_error(tmp_path, capsys, command):
    # a Latin-1 byte in a comment of the DIMACS file or a string of the circuit JSON
    dimacs = command in ("solve", "count", "oracle-check")
    path = tmp_path / "latin1.in"
    path.write_bytes(b"p cnf 3 1\n1 2 0\nc \xff\n" if dimacs else b'{"qubits": 1, "gates": [], "c": "\xff"}')
    assert cli.main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "not UTF-8" in err


@pytest.mark.parametrize(
    "command, module, name",
    [
        ("solve", majsat, "run"),
        ("count", cnf, "count_models"),
        ("oracle-check", oracle, "verify_oracle"),
        ("lower", cli, "lower_to_primitive"),
        ("simulate", sim, "apply_circuit"),
        ("pathsum", pathsum, "direct_amplitude"),
    ],
    ids=["solve", "count", "oracle-check", "lower", "simulate", "pathsum"],
)
def test_manifest_hashes_the_input_that_ran(tmp_path, monkeypatch, command, module, name):
    # The input file is replaced after the command parsed it, while module.name
    # runs. input_sha256 must still be the digest of the bytes that ran.
    dimacs = command in ("solve", "count", "oracle-check")
    data = (YES_CNF if dimacs else json.dumps(HGH_JSON)).encode()
    path = tmp_path / "input"
    path.write_bytes(data)
    original = getattr(module, name)

    def replace_then_run(*args, **kwargs):
        path.write_bytes(b"p cnf 1 1\n-1 0\n" if dimacs else b"{}")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, replace_then_run)
    report = tmp_path / "report.json"
    assert cli.main([command, str(path), "--json", str(report)]) == 0
    assert path.read_bytes() != data
    manifest = json.loads(report.read_text())["manifest"]
    assert manifest["input_sha256"] == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("clause", ["1 -1 9", "9 1 -1"], ids=["range-last", "range-first"])
@pytest.mark.parametrize("flags", [[], ["--keep-tautologies"]], ids=["reject", "keep"])
def test_solve_out_of_range_literal_in_tautology_is_input_error(tmp_path, capsys, clause, flags):
    path = tmp_path / "taut.cnf"
    path.write_text(f"p cnf 3 1\n{clause} 0\n")
    assert cli.main(["solve", str(path), *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "literal 9 out of range" in err


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def test_count_prints_model_count(files, tmp_path, capsys):
    code, payload = _run_json(["count", files["yes.cnf"]], tmp_path)
    assert code == 0
    assert capsys.readouterr().out.strip() == "6"
    assert payload["count"] == 6
    assert payload["num_vars"] == 3
    jsonschema.validate(payload, _schema("count_report.schema.json"))


def test_count_cap_is_resource_exit(files, capsys):
    assert cli.main(["count", files["wide.cnf"]]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("p cnf 3 1\np cnf 3 1\n1 0\n", "line 2: duplicate problem line"),
        ("p cnf 3\n1 0\n", "line 1: malformed problem line 'p cnf 3'"),
        ("c header\np dnf 3 1\n1 0\n", "line 2: malformed problem line 'p dnf 3 1'"),
        ("p cnf three 1\n1 0\n", "line 1: malformed problem line 'p cnf three 1'"),
        ("p cnf -3 1\n1 0\n", "line 1: negative counts in problem line"),
        ("p cnf 3 -1\n", "line 1: negative counts in problem line"),
        ("p cnf 3 1\n1 x2 0\n", "line 2: bad token 'x2'"),
        ("c no problem line\n", "missing problem line"),
        ("p cnf 3 1\n1 2\n", "unterminated clause at end of input"),
    ],
    ids=["duplicate", "fields", "not-cnf", "non-integer", "negative-vars", "negative-clauses",
         "bad-token", "missing", "unterminated"],
)
def test_count_malformed_dimacs_is_input_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.cnf"
    path.write_text(text)
    assert cli.main(["count", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_count_stops_at_the_percent_terminator(tmp_path, capsys):
    # a SATLIB-style tail: the "0" after "%" would otherwise be a second clause
    path = tmp_path / "tail.cnf"
    path.write_text("p cnf 3 1\n1 2 0\n%\n0\n\n")
    assert cli.main(["count", str(path)]) == 0
    assert capsys.readouterr().out == "6\n"


def _random_3cnf(n: int, m: int, seed: int) -> str:
    rnd = random.Random(seed)
    clauses = [[v if rnd.random() < 0.5 else -v for v in rnd.sample(range(1, n + 1), 3)] for _ in range(m)]
    return f"p cnf {n} {m}\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)


def _traced_main(argv: list[str]) -> tuple[int, int]:
    """cli.main's exit code and tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


def test_count_at_the_cap_holds_one_block(tmp_path, capsys):
    # 24 variables walk 16 blocks of 2^20 assignments; a block's tables
    # (two per variable, 128 KiB each) are all that is held at once
    path = tmp_path / "n24.cnf"
    path.write_text(_random_3cnf(24, 96, 1))
    code, peak = _traced_main(["count", str(path)])
    assert code == 0
    assert int(capsys.readouterr().out) == cnf.count_models(cnf.parse_dimacs(path.read_text()))
    assert peak < 8 << 20, f"peak {peak / (1 << 20):.1f} MiB"


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------


def test_oracle_check_passes(files, tmp_path, capsys):
    code, payload = _run_json(["oracle-check", files["yes.cnf"]], tmp_path)
    assert code == 0
    assert "oracle check passed" in capsys.readouterr().out
    assert payload["report"]["ok"] is True
    jsonschema.validate(payload, _schema("oracle_report.schema.json"))


def test_oracle_check_primitive_lowering(files, capsys):
    assert cli.main(["oracle-check", files["yes.cnf"], "--lowering", "primitive"]) == 0
    assert "oracle check passed" in capsys.readouterr().out


def test_oracle_check_past_the_simulator_cap(files, capsys):
    # the lowered oracle has 31 qubits; the check has no register cap
    assert cli.main(["oracle-check", files["wide_oracle.cnf"], "--lowering", "primitive"]) == 0
    s = cnf.count_models(cnf.parse_dimacs(WIDE_ORACLE_CNF))
    assert f"oracle check passed: 64 inputs, {s} satisfying" in capsys.readouterr().out


def test_oracle_check_broken_polarity_reports_mismatches(files, capsys):
    code = cli.main(["oracle-check", files["no.cnf"], "--no-polarity-fix"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("mismatch") == 4


def test_oracle_check_reports_scratch_violations(files, monkeypatch, capsys):
    # an oracle that leaves its first clause flag flipped still computes the
    # formula, but dirties its scratch on every input
    build = oracle.build_oracle

    def dirty(three, polarity_fix=True):
        art = build(three, polarity_fix=polarity_fix)
        flip = Gate("X", (art.circuit.layout.clause[0],))
        return dataclasses.replace(art, circuit=dataclasses.replace(art.circuit, gates=art.circuit.gates + (flip,)))

    monkeypatch.setattr(oracle, "build_oracle", dirty)
    assert cli.main(["oracle-check", files["yes.cnf"]]) == 1
    assert capsys.readouterr() == ("".join(f"scratch violation {x}\n" for x in range(8)), "")


def test_unexpected_fault_exits_4(files, monkeypatch, capsys):
    def fault(formula):
        raise ValueError("boom")

    monkeypatch.setattr(cnf, "count_models", fault)
    assert cli.main(["count", files["yes.cnf"]]) == 4
    assert capsys.readouterr() == ("", "unexpected error: ValueError: boom\n")


def test_oracle_check_at_the_cap_holds_one_block_per_qubit(tmp_path, capsys):
    # 24 variables and 40 clauses lower to a register of 105 qubits:
    # one block of 2^20 inputs is 128 KiB per qubit
    path = tmp_path / "n24.cnf"
    path.write_text(_random_3cnf(24, 40, 2))
    code, peak = _traced_main(["oracle-check", str(path), "--lowering", "primitive"])
    assert code == 0
    assert "oracle check passed: 16777216 inputs" in capsys.readouterr().out
    assert peak < 32 << 20, f"peak {peak / (1 << 20):.1f} MiB"


def test_oracle_check_cap_is_resource_exit_before_building(tmp_path, capsys):
    # two million variables: building the register would take hundreds of MB
    path = tmp_path / "huge.cnf"
    path.write_text("p cnf 2000000 1\n1 0\n")
    code, peak = _traced_main(["oracle-check", str(path)])
    assert code == 3
    assert "capped at 24 variables" in capsys.readouterr().err
    assert peak < 1 << 20, f"peak {peak / (1 << 20):.1f} MiB"


# ---------------------------------------------------------------------------
# lower
# ---------------------------------------------------------------------------


def test_lower_emits_census_and_circuit(files, tmp_path, capsys):
    code, payload = _run_json(["lower", files["cg.json"]], tmp_path)
    assert code == 0
    assert "primitive=True" in capsys.readouterr().out
    assert set(payload["census"]["counts"]) <= {"H", "CCNOT", "G"}
    jsonschema.validate(payload, _schema("lower_report.schema.json"))

    # lowering is idempotent: feeding the output back reproduces it
    relower_input = tmp_path / "lowered.json"
    relower_input.write_text(json.dumps(payload["circuit"]))
    code, payload2 = _run_json(["lower", str(relower_input)], tmp_path)
    assert code == 0
    assert payload2["circuit"] == payload["circuit"]


def test_lower_prints_circuit_without_json_flag(files, capsys):
    assert cli.main(["lower", files["cg.json"]]) == 0
    out = capsys.readouterr().out
    body = out.split("\n", 1)[1]
    parsed = json.loads(body)
    assert body == json.dumps(parsed, indent=2, sort_keys=True) + "\n"
    assert parsed["qubits"] >= 2
    assert all(g["g"] in {"X", "CNOT", "G", "H", "CCNOT"} for g in parsed["gates"])


def test_lower_takes_no_target_flag(files, tmp_path):
    # primitive is the only target, so there is no --to; the manifest still records it
    with pytest.raises(SystemExit) as exc:
        cli.main(["lower", files["cg.json"], "--to", "primitive"])
    assert exc.value.code == 2
    _, payload = _run_json(["lower", files["cg.json"]], tmp_path)
    assert payload["manifest"]["config"] == {"to": "primitive"}


def test_lower_t_gate_fails_cleanly(files, capsys):
    assert cli.main(["lower", files["tgate.json"]]) == 2
    assert "real primitive set" in capsys.readouterr().err


# JSON booleans are not integers, although Python's bool is an int subclass
@pytest.mark.parametrize(
    "command, circuit",
    [
        ("simulate", {"qubits": True, "gates": [{"g": "X", "q": [0]}]}),
        ("simulate", {"qubits": 1, "gates": [{"g": "X", "q": [False]}]}),
        ("simulate", {"qubits": 1, "gates": [{"g": "G", "q": [0], "param": True}]}),
        ("lower", {"qubits": 2, "layout": {"work": [True, 0]}, "gates": [{"g": "X", "q": [0]}]}),
        ("lower", {"qubits": 2, "layout": {"work": [0], "oracle": [True]}, "gates": []}),
    ],
    ids=["qubits", "operand", "param", "list-role", "single-role"],
)
def test_circuit_json_rejects_booleans(tmp_path, capsys, command, circuit):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(circuit))
    assert cli.main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "circuit, message",
    [
        ({"qubits": 1, "gates": [{"g": "X"}]}, "bad gate entry: {'g': 'X'}"),
        ({"qubits": 1, "layout": [0], "gates": []}, "circuit layout must be an object mapping roles to index arrays"),
        ({"qubits": 2, "layout": {"oracle": [0, 1]}, "gates": []}, "layout role 'oracle' takes exactly one index"),
        ({"qubits": 1, "layout": {"work": [-1]}, "gates": []}, "negative qubit index in layout role work"),
        ({"qubits": 0, "gates": []}, "circuit needs at least one qubit, got 0"),
    ],
    ids=["gate-without-operands", "layout-not-object", "single-role-two-indices", "negative-index", "no-qubits"],
)
def test_circuit_json_errors_carry_their_message(tmp_path, capsys, circuit, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(circuit))
    assert cli.main(["simulate", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


def test_circuit_file_that_is_not_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"qubits": 1,')
    with pytest.raises(json.JSONDecodeError) as parse:
        json.loads(path.read_text())
    assert cli.main(["simulate", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: circuit file {path} is not valid JSON: {parse.value}\n"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_prints_probabilities_and_amplitudes(files, tmp_path, capsys):
    code, payload = _run_json(["simulate", files["hgh.json"], "--amplitudes"], tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    assert "|0> +1.25+0j" in out
    assert "|1> -0.75+0j" in out
    assert payload["mode"] == "real"
    assert abs(payload["norm_sq"] - 2.125) < 1e-12
    flat = [x for pair in payload["amplitudes"] for x in pair]
    assert flat == pytest.approx([1.25, 0.0, -0.75, 0.0], abs=1e-12)
    jsonschema.validate(payload, _schema("simulate_report.schema.json"))


def test_simulate_amplitudes_list_the_whole_register(tmp_path, monkeypatch, capsys):
    # Qubit 11 stays |0>, so the state stores qubits 0-10 only; --amplitudes
    # still lists all 2^12 rows, each amplitude at its register index.
    gates = [{"g": "H", "q": [q]} for q in range(11)]
    gates += [{"g": "G", "q": [10], "param": 2.0}, {"g": "CG", "q": [0, 11], "param": 4.0}]
    path = tmp_path / "h11.json"
    path.write_text(json.dumps({"qubits": 12, "gates": gates}))
    stored, amplitudes = [], cli.sim.amplitudes
    monkeypatch.setattr(cli.sim, "amplitudes", lambda s: stored.append(s.stored) or amplitudes(s))
    code, payload = _run_json(["simulate", str(path), "--amplitudes"], tmp_path)
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("|")]
    assert code == 0 and stored == [11]
    assert len(rows) == len(payload["amplitudes"]) == 4096
    for z, (line, (re, im)) in enumerate(zip(rows, payload["amplitudes"])):
        want = 0.0 if z >> 11 else 2.0**-5.5 * (2.0 if z >> 10 & 1 else 0.5) * (0.25 if z & 1 else 1.0)
        assert line.startswith(f"|{z:012b}> ")
        assert im == 0.0 and re == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "yes.cnf"],
        ["solve", "yes.cnf", "--mode", "sampled", "--seed", "7"],
        ["count", "yes.cnf"],
        ["oracle-check", "yes.cnf"],
        ["lower", "hgh.json"],
        ["simulate", "hgh.json", "--amplitudes"],
        ["pathsum", "hgh.json"],
    ],
    ids=["solve", "solve-sampled", "count", "oracle-check", "lower", "simulate", "pathsum"],
)
def test_reports_are_formed_only_with_json(files, tmp_path, monkeypatch, capsys, argv):
    # Without --json nothing is encoded (but lower's printed circuit) and no
    # file is opened for writing; with it, one report whose manifest names
    # the subcommand, the seed of a sampled solve only, the version and the
    # pinned timestamp.
    encoded, encode = [], cli._report_text
    monkeypatch.setattr(cli, "_report_text", lambda payload: encoded.append(payload) or encode(payload))
    writes = []

    def spy_open(path, mode="r"):
        if "w" in mode:
            writes.append(path)
        return open(path, mode)

    monkeypatch.setattr(cli, "open", spy_open, raising=False)
    command, argv = argv[0], [argv[0], files[argv[1]], *argv[2:]]
    code = cli.main(argv)
    bare = capsys.readouterr()
    assert bare.err == "" and not writes
    if command == "lower":
        assert encoded == [json.loads(bare.out.split("\n", 1)[1])]
    else:
        assert not encoded
    if command == "simulate":
        assert "|0> +1.25+0j" in bare.out
    encoded.clear()
    report, stamp = tmp_path / "report.json", "2026-01-01T00:00:00Z"
    assert cli.main(argv + ["--json", str(report), "--timestamp", stamp]) == code
    out = capsys.readouterr()
    assert out.err == "" and writes == [str(report)]
    assert bare.out == out.out + (encode(encoded[0]["circuit"]) + "\n" if command == "lower" else "")
    assert len(encoded) == 1 and json.loads(report.read_text()) == encoded[0]
    manifest = encoded[0]["manifest"]
    assert manifest["command"] == command
    assert manifest["seed"] == (7 if "--seed" in argv else None)
    assert manifest["version"] == __version__
    assert manifest["timestamp"] == stamp


def test_simulate_bits_width_mismatch(files, capsys):
    assert cli.main(["simulate", files["hgh.json"], "--bits", "00"]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_index_past_the_register(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"qubits": 2, "gates": []}))
    assert cli.main(["simulate", str(path), "--index", "4"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: --index 4 out of range for 2 qubits\n"


def test_simulate_t_defaults_to_complex(files, tmp_path):
    code, payload = _run_json(["simulate", files["tgate.json"]], tmp_path)
    assert code == 0
    assert payload["mode"] == "complex"


def test_simulate_t_real_mode_rejected(files, capsys):
    assert cli.main(["simulate", files["tgate.json"], "--mode", "real"]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_amplitudes_cap_fails_before_simulating(tmp_path, capsys):
    path = tmp_path / "h13.json"
    path.write_text(json.dumps({"qubits": 13, "gates": [{"g": "H", "q": [q]} for q in range(13)]}))
    assert cli.main(["simulate", str(path), "--amplitudes"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --amplitudes is limited")


@pytest.mark.parametrize("name", ["norm_overflow.json", "norm_underflow.json", "g_small_norm.json"])
def test_simulate_unrepresentable_norm_is_invariant_exit(files, name, capsys):
    # Every P(0) and P(1) is a ratio and reads fine; the run must still
    # fail before its first line is printed.
    assert cli.main(["simulate", files[name]]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# pathsum
# ---------------------------------------------------------------------------


def test_pathsum_table_three_methods(files, tmp_path, capsys):
    code, payload = _run_json(["pathsum", files["hgh.json"]], tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    for method in ("direct", "pathsum", "counting"):
        assert method in out
    methods = [r["method"] for r in payload["results"]]
    assert methods == ["direct", "pathsum", "counting"]
    yes_values = [r["c_yes_sq"] for r in payload["results"]]
    assert max(yes_values) - min(yes_values) < 1e-4
    jsonschema.validate(payload, _schema("pathsum_report.schema.json"))


def test_pathsum_yn_projector_report_schema(files, tmp_path):
    code, payload = _run_json(["pathsum", files["cg.json"], "--input", "1", "--projector", "yn"], tmp_path)
    assert code == 0
    assert payload["manifest"]["config"]["projector"] == {"kind": "yn", "yes_qubit": 0}
    jsonschema.validate(payload, _schema("pathsum_report.schema.json"))


@pytest.mark.parametrize("name", ["norm_overflow.json", "norm_underflow.json"])
def test_pathsum_direct_unrepresentable_norm_is_invariant_exit(files, name, capsys):
    assert cli.main(["pathsum", files[name], "--methods", "direct"]) == 4
    assert capsys.readouterr().err.startswith("error:")


def test_pathsum_counting_on_the_finest_grid_divides_exactly(files, tmp_path, capsys):
    # nc = 1074: the counts pass 2^1024, so they cannot be turned into
    # doubles before the division by 2^nc
    argv = ["pathsum", files["hgh.json"], "--methods", "direct,counting", "--precision-c", "1074"]
    code, payload = _run_json(argv, tmp_path)
    assert code == 0
    assert "unexpected error" not in capsys.readouterr().err
    direct, counting = payload["results"]
    assert counting["precision_c"] == 1074
    for key in ("c_yes_sq", "c_no_sq"):
        assert abs(counting[key] - direct[key]) <= 1e-12


def test_pathsum_counting_grid_past_the_double_range_is_input_error(files, capsys):
    # the squared path value 2^1040 keeps the adaptive grid growing past
    # nc = 1024, where no spacing is representable
    assert cli.main(["pathsum", files["g520.json"], "--input", "1", "--methods", "counting"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no representable grid spacing")
    assert "unexpected error" not in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--methods", "direct"],
        ["--methods", "pathsum"],
        ["--methods", "counting", "--precision-c", "3"],
        ["--methods", "counting"],  # the adaptive grid reads the infinite value first
    ],
    ids=["direct", "pathsum", "counting", "counting-adaptive"],
)
def test_pathsum_overflowing_path_values_are_invariant_exit_on_every_route(files, flags, capsys):
    assert cli.main(["pathsum", files["path_overflow.json"], *flags]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflows double precision" in err
    assert "unexpected error" not in err


@pytest.mark.parametrize(
    "flags",
    [["--path-budget", "-1"], ["--path-budget", "0"], ["--precision-c", "0"]],
    ids=["budget-negative", "budget-zero", "precision-zero"],
)
def test_pathsum_rejects_nonpositive_budget_and_precision(files, flags):
    with pytest.raises(SystemExit) as exc:
        cli.main(["pathsum", files["hgh.json"], *flags])
    assert exc.value.code == 2


def test_pathsum_rejects_unknown_method(files, capsys):
    assert cli.main(["pathsum", files["hgh.json"], "--methods", "direct,psychic"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reproducibility and metadata
# ---------------------------------------------------------------------------


def test_sampled_reports_identical_across_jobs(files, tmp_path):
    argv = [
        "solve",
        files["yes.cnf"],
        "--mode",
        "sampled",
        "--seed",
        "7",
        "--sets",
        "3",
        "--runs",
        "8",
        "--timestamp",
        "2026-01-01T00:00:00Z",
    ]
    out1 = tmp_path / "jobs1.json"
    out8 = tmp_path / "jobs8.json"
    assert cli.main(argv + ["--jobs", "1", "--json", str(out1)]) in (0, 1)
    assert cli.main(argv + ["--jobs", "8", "--json", str(out8)]) in (0, 1)
    assert out1.read_bytes() == out8.read_bytes()


@pytest.mark.parametrize(
    "command, name, extra",
    [
        ("solve", "yes.cnf", ["--mode", "exact"]),
        ("solve", "yes.cnf", ["--mode", "sampled"]),
        ("pathsum", "hgh.json", []),
    ],
    ids=["solve-exact", "solve-sampled", "pathsum"],
)
def test_jobs_must_be_positive(files, command, name, extra):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, files[name], *extra, "--jobs", "0"])
    assert exc.value.code == 2


def test_exact_reports_identical_across_invocations(files, tmp_path):
    argv = ["solve", files["yes.cnf"], "--timestamp", "2026-01-01T00:00:00Z"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(argv + ["--json", str(out1)]) == 0
    assert cli.main(argv + ["--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_module_entry_point_runs_cli_once():
    # python -m rnqc.cli imports the package first; had the package imported
    # cli, runpy would warn and run cli.py a second time as __main__
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-W", "error", "-m", "rnqc.cli", "count", str(CORPUS_DIR / "n3_or2.cnf")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "6\n", "")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "rnqc" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the shared parser and the report encoder
# ---------------------------------------------------------------------------


def test_parser_is_built_once_and_carries_nothing_between_calls(files, tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["solve", files["yes.cnf"], "--check", "--lowering", "primitive", "--seed", "5"]
    assert cli.main(argv + ["--mode", "sampled", "--json", str(a)]) == 0
    assert cli.main(["solve", files["yes.cnf"], "--json", str(b)]) == 0
    first, second = json.loads(a.read_text()), json.loads(b.read_text())
    assert (first["manifest"]["config"]["lowering"], first["manifest"]["seed"]) == ("primitive", 5)
    assert "check" in first
    config = second["manifest"]["config"]
    assert (config["lowering"], config["mode"], second["manifest"]["seed"]) == ("semantic", "exact", None)
    assert "check" not in second

    # --bits and --index share a mutually exclusive group
    assert _run_json(["simulate", files["cg.json"], "--bits", "01"], tmp_path)[1]["input_basis"] == 2
    assert _run_json(["simulate", files["cg.json"], "--index", "1"], tmp_path)[1]["input_basis"] == 1
    assert _run_json(["simulate", files["cg.json"]], tmp_path)[1]["input_basis"] == 0

    for argv in (["--version"], ["solve"], ["simulate", files["cg.json"], "--bits", "01", "--index", "1"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    capsys.readouterr()
    assert cli.main(["count", files["yes.cnf"]]) == 0
    assert capsys.readouterr() == ("6\n", "")


_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028é☃\U0001d11e'))
_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf])
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**80), 2**80)
    | _FLOATS
    | _FLOATS.map(np.float64)
    | _TEXT
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_TEXT, inner),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(payload=_PAYLOADS)
def test_report_bytes_are_json_dumps(payload):
    assert cli._report_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "payload", [np.int64(3), {"a": [1, np.int64(3)]}, {1, 2}, {"a": {"b": frozenset()}}, {(1, 2): 0}]
)
def test_report_encoder_refuses_what_json_dumps_refuses(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._report_text(payload)
