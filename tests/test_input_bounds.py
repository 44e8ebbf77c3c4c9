"""Inputs bounded where they enter: a register width, layout, flag or sweep
size past what the machine can list or index exits 2 (input) or 3
(resource) with its message, before any work that grows with it, never 4
("unexpected error"). Each test pins the exit code and the stderr line."""
from __future__ import annotations

import io
import json
import os
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR
from rnqc import cli

WIDE = 2**70  # 1180591620717411303424 qubits: no 1 << WIDE fits in memory
MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
OR2 = str(CORPUS_DIR / "n3_or2.cnf")


def _main(argv: list[str], capsys) -> tuple[int, str, str, int]:
    """cli.main's exit code, stdout, stderr and tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr()
    return code, out.out, out.err, peak


def _circuit(tmp_path, obj: dict) -> str:
    path = tmp_path / "c.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("command", ["simulate", "pathsum"])
def test_basis_index_of_a_wide_register_is_checked_without_forming_its_size(tmp_path, monkeypatch, capsys, command):
    # the input index is range-checked before the register cap, without
    # forming 2^WIDE; then the cap refuses the register
    monkeypatch.delenv("RNQC_MAX_QUBITS", raising=False)
    path = _circuit(tmp_path, {"qubits": WIDE, "gates": [{"g": "H", "q": [0]}]})
    code, out, err, _ = _main([command, path], capsys)
    assert (code, err) == (3, f"error: register of {WIDE} qubits exceeds the cap of 28\n")
    assert out == ""


@pytest.mark.parametrize("width", [10**8, WIDE])
@pytest.mark.parametrize("command", ["simulate", "pathsum", "lower"])
def test_short_layout_of_a_wide_register_costs_the_layout(tmp_path, capsys, command, width):
    # the covering check costs the layout's size: listing every declared
    # qubit would take gigabytes at 10^8 and cannot be done at 2^70
    path = _circuit(tmp_path, {"qubits": width, "layout": {"work": [0]}, "gates": []})
    code, out, err, peak = _main([command, path], capsys)
    assert (code, err) == (2, f"error: layout covers 1 of {width} qubits (indices (0,))\n")
    assert out == ""
    assert peak < 1 << 20, f"peak {peak / (1 << 20):.1f} MiB"


def test_lower_of_a_register_past_memory_is_resource_exit(tmp_path, capsys):
    # lowering a layout-less circuit lists its qubits as the work role;
    # 2^70 of them at 8 bytes each pass any machine's memory
    path = _circuit(tmp_path, {"qubits": WIDE, "gates": [{"g": "X", "q": [0]}]})
    code, out, err, peak = _main(["lower", path], capsys)
    want = f"error: lowering lists {WIDE} qubits; at 8 bytes each they pass this machine's {MEMORY} bytes of memory\n"
    assert (code, err) == (3, want)
    assert out == ""
    assert peak < 1 << 20, f"peak {peak / (1 << 20):.1f} MiB"


def test_r_scale_past_a_double_is_resource_exit(capsys):
    # 1e308 * n rounds is inf, which has no ceiling; 1e300 exits 3 at the
    # plan's gate count (test_cli.py)
    code, out, err, _ = _main(["solve", OR2, "--r-scale", "1e308"], capsys)
    assert (code, err) == (3, "error: r scale 1e+308 asks for more rounds than a double can count\n")
    assert out == ""


@pytest.mark.parametrize(
    "flags, jobs",
    [
        (["--runs", str(2**63), "--sets", "1", "--i-min", "0", "--i-max", "0"], 2**63),
        (["--sets", str(2**70)], 7 * 2**70 * 24),
        (["--i-min", str(-WIDE)], (2**70 + 4) * 3 * 24),
    ],
    ids=["runs-2^63", "sets-2^70", "i-min-minus-2^70"],
)
def test_sampled_sweep_past_its_job_indices_is_input_error(capsys, monkeypatch, flags, jobs):
    # _tally keys each shot's stream by an int64 job index, so a sweep of
    # 2^63 jobs or more exits 2 before the readout sweep runs
    swept = []
    monkeypatch.setattr("rnqc.majsat._readout_sweep", lambda p: swept.append(p))
    code, out, err, peak = _main(["solve", OR2, "--mode", "sampled", "--seed", "7", *flags], capsys)
    want = f"error: a sampled sweep of {jobs} jobs, (i_max - i_min + 1) * sets * runs_per_set, must stay below 2^63\n"
    assert (code, err) == (2, want)
    assert out == ""
    assert not swept
    assert peak < 1 << 20, f"peak {peak / (1 << 20):.1f} MiB"


@pytest.mark.parametrize(
    "flags, listed, item_bytes",
    [
        (["--i-min", str(-WIDE)], f"the readout sweep lists {2**70 + 4} values of i", 1024),
        (["--i-min", str(-(10**8))], f"the readout sweep lists {10**8 + 4} values of i", 1024),
        (
            ["--mode", "sampled", "--seed", "7", "--sets", str(2**60), "--runs", "1", "--i-min", "0", "--i-max", "0"],
            f"a sampled sweep tallies {2**60} (i, set) groups",
            512,
        ),
    ],
    ids=["exact-i-min-minus-2^70", "exact-i-min-minus-10^8", "sampled-groups-2^60"],
)
def test_sweep_table_past_memory_is_resource_exit(capsys, monkeypatch, flags, listed, item_bytes):
    # the exact sweep holds about 1.1 KiB per value of i and the sampled
    # tally about 630 bytes per (i, set) group, so past the machine's memory
    # both exit 3 before the plan is simulated: 10^8 values of i would take
    # about 110 GB (the 2^60 groups stay below 2^63 jobs)
    simulated = []
    monkeypatch.setattr("rnqc.majsat._amplified_state", lambda *args: simulated.append(args))
    code, out, err, peak = _main(["solve", OR2, *flags], capsys)
    want = f"error: {listed}; at {item_bytes} bytes each they pass this machine's {MEMORY} bytes of memory\n"
    assert (code, err) == (3, want)
    assert out == ""
    assert not simulated
    assert peak < 1 << 20, f"peak {peak / (1 << 20):.1f} MiB"


@pytest.mark.parametrize("flag", ["--runs", "--sets"])
def test_exact_mode_ignores_the_sampling_flags(capsys, flag):
    code, out, err, _ = _main(["solve", OR2, flag, str(2**70)], capsys)
    assert (code, out, err) == (0, "verdict YES\n", "")


# ---------------------------------------------------------------------------
# Fuzzing through cli.main: mutated corpus DIMACS, circuit JSON of any width
# with and without a layout, and the numeric solve flags. Every run must end
# with a documented exit code, never "unexpected error". Counts such as
# --runs, --sets and --r, and --i-min, are drawn small or past their
# bounds: values in between are work that was asked for, and run for
# minutes by design.
# ---------------------------------------------------------------------------

CORPUS = sorted(CORPUS_DIR.glob("n[345]_*.cnf"))
_SMALL_OR_HUGE = st.one_of(st.integers(-1, 12), st.sampled_from([2**63, 2**70, -(2**70)]))
_PAST_GATE_MEMORY = st.sampled_from([2**40, 2**63, 2**70])  # --r or --rp gates at 8 bytes each
_PAST_JOB_INDICES = st.sampled_from([2**63, 2**70])  # --sets or --runs


@st.composite
def _dimacs_run(draw) -> tuple[list[str], str]:
    lines = draw(st.sampled_from(CORPUS)).read_text().splitlines()
    for _ in range(draw(st.integers(0, 2))):
        if not lines:
            break
        row = draw(st.integers(0, len(lines) - 1))
        tokens = lines[row].split() or ["0"]
        op = draw(st.sampled_from(["replace", "drop-token", "drop-line", "copy-line"]))
        if op == "replace":
            col = draw(st.integers(0, len(tokens) - 1))
            tokens[col] = draw(st.one_of(_SMALL_OR_HUGE.map(str), st.sampled_from(["x", "-", "p", "%"])))
            lines[row] = " ".join(tokens)
        elif op == "drop-token":
            lines[row] = " ".join(tokens[:-1])
        elif op == "drop-line":
            del lines[row]
        else:
            lines.insert(row, lines[row])
    command = draw(st.sampled_from([["count"], ["oracle-check"], ["oracle-check", "--lowering", "primitive"],
                                    ["oracle-check", "--no-polarity-fix"], ["solve"], ["solve", "--check"]]))
    if draw(st.booleans()):
        command.append("--keep-tautologies")
    return command, "\n".join(lines) + "\n"


_ARITY = {"H": 1, "X": 1, "Z": 1, "T": 1, "G": 1, "CNOT": 2, "CG": 2, "CCNOT": 3, "NCNOT": 3}


@st.composite
def _circuit_run(draw) -> tuple[list[str], str]:
    """A circuit on the first few qubits of a small or huge register, then
    at most one mutation: a bad operand, parameter or kind."""
    width = draw(st.one_of(st.integers(1, 20), st.integers(2**40, 2**80)))
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from([k for k, a in _ARITY.items() if a <= min(width, 4)]))
        gate = {"g": kind, "q": draw(st.permutations(range(min(width, 4))))[: _ARITY[kind]]}
        if kind in ("G", "CG"):
            gate["param"] = draw(st.sampled_from([2.0, 0.5, 3.0, 2.0**500]))
        gates.append(gate)
    obj = {"qubits": width, "gates": gates}
    if draw(st.booleans()):
        obj["layout"] = {"work": list(range(min(width, draw(st.integers(1, 20)))))}
    mutation = draw(st.sampled_from([None, None, "operand", "param", "kind"]))
    if mutation and gates:
        gate = draw(st.sampled_from(gates))
        if mutation == "operand":
            gate["q"][-1] = draw(st.sampled_from([-1, width, width + 1, 2**80]))
        elif mutation == "param":
            gate["param"] = draw(st.sampled_from([1.0, -2.0, 0.0, 1e300, 2.0**600, True]))
        else:
            gate["g"] = "Y"
    command = draw(st.sampled_from([["lower"], ["simulate"], ["pathsum"]]))
    if command[0] == "simulate":
        command.append(f"--index={draw(_SMALL_OR_HUGE)}")
    if command[0] == "pathsum":
        command += [f"--input={draw(_SMALL_OR_HUGE)}", f"--yes-qubit={draw(st.integers(0, 3))}"]
    return command, json.dumps(obj)


@st.composite
def _solve_flags_run(draw) -> tuple[list[str], str]:
    count = st.one_of(st.integers(-1, 4), _PAST_JOB_INDICES)
    choices = {
        "--g": st.sampled_from(["1.5", "2", "3", "0.5", "1", "nan", "inf", "1e308", "1.0000000001"]),
        "--r": st.one_of(st.integers(-1, 6), _PAST_GATE_MEMORY),
        "--rp": st.one_of(st.integers(-1, 6), _PAST_GATE_MEMORY),
        "--r-scale": st.sampled_from(["0.5", "1", "2", "0", "-1", "nan", "inf", "1e300", "1e308"]),
        "--i-min": st.one_of(st.integers(-4, 4), st.sampled_from([-(2**40), -(2**70)])),
        "--i-max": st.one_of(st.integers(-4, 4), st.just(1024)),
        "--sets": count,
        "--runs": count,
        "--seed": st.one_of(st.integers(0, 9), st.sampled_from([-1, 2**64])),
    }
    flags = draw(st.lists(st.sampled_from(sorted(choices)), unique=True, max_size=4))
    argv = ["solve", "--mode", draw(st.sampled_from(["exact", "sampled"]))]
    argv += ["--lowering", draw(st.sampled_from(["semantic", "primitive"]))]
    argv += [f"{flag}={draw(choices[flag])}" for flag in flags]
    return argv, draw(st.sampled_from(CORPUS)).read_text()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(run=st.one_of(_dimacs_run(), _circuit_run(), _solve_flags_run()))
def test_fuzzed_input_exits_with_a_documented_code(fuzz_dir, run):
    (command, *flags), text = run
    path = fuzz_dir / "input"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"RNQC_MAX_QUBITS": "16"}), redirect_stdout(out), redirect_stderr(err):
        code = cli.main([command, str(path), *flags])
    event(f"{command} exits {code}")
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "unexpected error" not in err.getvalue()
