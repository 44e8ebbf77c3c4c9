"""End-to-end command-line checks run in process through cli.main."""
from __future__ import annotations

import importlib.resources
import json
import random
import tracemalloc

import jsonschema
import pytest

from rnqc import cli, cnf

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


def test_simulate_without_json_encodes_no_report(files, monkeypatch, capsys):
    encoded = []
    monkeypatch.setattr(cli.json, "dumps", lambda *args, **kwargs: encoded.append(args) or "")
    assert cli.main(["simulate", files["hgh.json"], "--amplitudes"]) == 0
    assert "|0> +1.25+0j" in capsys.readouterr().out
    assert not encoded


def test_simulate_bits_width_mismatch(files, capsys):
    assert cli.main(["simulate", files["hgh.json"], "--bits", "00"]) == 2
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("name", ["norm_overflow.json", "norm_underflow.json"])
def test_simulate_unrepresentable_norm_is_invariant_exit(files, name, capsys):
    assert cli.main(["simulate", files[name]]) == 4
    assert capsys.readouterr().err.startswith("error:")


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "rnqc" in capsys.readouterr().out
