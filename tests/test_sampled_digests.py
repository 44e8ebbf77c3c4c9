"""Every frozen sampled report still comes out byte for byte.

bench/sampled_digests.json holds the sha256 of `rnqc solve --mode sampled`
for each of the 44 corpus files at each of 16 sampler seeds, with the
report timestamp pinned. The file is only read here; a digest that
differs is a fault in the program, not in the file.
"""
from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from rnqc import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
FROZEN = json.loads((ROOT / "bench" / "sampled_digests.json").read_text())
CORPUS = sorted((ROOT / "tests" / "corpus").glob("*.cnf"))


def test_frozen_digests_cover_the_corpus():
    assert len(FROZEN["seeds"]) == 16
    for seed in FROZEN["seeds"]:
        assert sorted(FROZEN["digests"][str(seed)]) == [p.name for p in CORPUS]


@pytest.mark.parametrize("seed", FROZEN["seeds"])
def test_sampled_reports_match_frozen_digests(seed, tmp_path, capsys):
    report = tmp_path / "report.json"
    wrong = []
    for path in CORPUS:
        argv = ["solve", str(path), "--mode", "sampled", "--seed", str(seed)]
        code = cli.main(argv + ["--json", str(report), "--timestamp", FROZEN["timestamp"]])
        assert code in (0, 1), f"{path.name}: exit {code}"
        if hashlib.sha256(report.read_bytes()).hexdigest() != FROZEN["digests"][str(seed)][path.name]:
            wrong.append(path.name)
    capsys.readouterr()  # the solves' printed summaries
    assert not wrong, f"seed {seed}: sampled reports differ from the frozen digests for {wrong}"
