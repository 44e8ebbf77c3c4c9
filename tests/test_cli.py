"""End-to-end command-line checks run in process through cli.main."""
from __future__ import annotations

import importlib.resources
import json

import jsonschema
import pytest

from rnqc import cli

YES_CNF = "p cnf 3 1\n1 2 0\n"
NO_CNF = "p cnf 3 2\n1 0\n2 0\n"
WIDE_CNF = "p cnf 30 1\n1 0\n"
HGH_JSON = {
    "qubits": 1,
    "gates": [{"g": "H", "q": [0]}, {"g": "G", "q": [0], "param": 2.0}, {"g": "H", "q": [0]}],
}
T_JSON = {"qubits": 1, "gates": [{"g": "T", "q": [0]}]}
CG_JSON = {"qubits": 2, "gates": [{"g": "CG", "q": [0, 1], "param": 4.0}]}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_inputs")
    paths = {}
    for name, text in (
        ("yes.cnf", YES_CNF),
        ("no.cnf", NO_CNF),
        ("wide.cnf", WIDE_CNF),
        ("hgh.json", json.dumps(HGH_JSON)),
        ("tgate.json", json.dumps(T_JSON)),
        ("cg.json", json.dumps(CG_JSON)),
    ):
        path = root / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


def _schema(name: str) -> dict:
    text = importlib.resources.files("rnqc").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


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


def test_solve_rejects_bad_gain(files, capsys):
    assert cli.main(["solve", files["yes.cnf"], "--g", "1.0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_missing_file(tmp_path, capsys):
    assert cli.main(["solve", str(tmp_path / "absent.cnf")]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_oracle_check_broken_polarity_reports_mismatches(files, capsys):
    code = cli.main(["oracle-check", files["no.cnf"], "--no-polarity-fix"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("mismatch") == 4


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


def test_lower_t_gate_fails_cleanly(files, capsys):
    assert cli.main(["lower", files["tgate.json"]]) == 2
    assert "real primitive set" in capsys.readouterr().err


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
