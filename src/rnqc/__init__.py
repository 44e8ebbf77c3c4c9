"""Real-amplitude non-Hermitian circuit toolkit.

Dense state-vector simulation over a real (or complex) gate set with
non-unitary scaling gates, a small circuit IR with lowering rules,
CNF oracles, a majority-SAT decision pipeline, and path-sum acceptance
estimators.
"""

from __future__ import annotations

__version__ = "0.1.0"

# cli is left out, so `python -m rnqc.cli` runs cli.py once, as __main__
from . import circuit, cnf, errors, majsat, oracle, pathsum, rng, sim

__all__ = [
    "__version__",
    "circuit",
    "cli",
    "cnf",
    "errors",
    "majsat",
    "oracle",
    "pathsum",
    "rng",
    "sim",
]
