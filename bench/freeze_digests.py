"""Freeze the sha256 of every sampled corpus report at the current commit.

    python3 bench/freeze_digests.py

Runs `rnqc solve --mode sampled` on each of the 44 corpus files for each
sampler seed in the pool, exactly as the small-state workload does, and
writes bench/sampled_digests.json. The benchmark fails any sampled report
whose bytes differ from the frozen ones; rerun this only on purpose.
"""

from __future__ import annotations

import hashlib
import json
import random

from run import WORK, Runner, import_program

POOL_SIZE = 16


def main() -> None:
    cli, workloads, _ = import_program()
    work = WORK / "freeze"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli.main, work, workloads.TIMESTAMP)
    pool = [random.Random(f"sampler-pool:{k}").getrandbits(32) for k in range(POOL_SIZE)]
    digests = {}
    try:
        for seed in pool:
            digests[str(seed)] = {}
            for path in workloads.corpus_files():
                op = workloads.Op(path.name, workloads.sampled_argv(str(path), seed), lambda code, data: None)
                _, data = runner.run(op)
                if data is None:
                    raise SystemExit(f"sampled solve failed: {runner.problems[-1]}")
                digests[str(seed)][path.name] = hashlib.sha256(data).hexdigest()
    finally:
        runner.close()
    out = {"timestamp": workloads.TIMESTAMP, "seeds": pool, "digests": digests}
    workloads.DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
