"""The Gram-matrix readout of majsat against a state-vector readout.

The reference runs the readout on the state itself, once per i: copy
the amplified state, prepare the BHR, replay the readout suffix,
postselect the oracle qubit and read the BHR off the state. The Gram
readout simulates the plan itself, in one call through the readout
prefix; each test builds the reference's amplified state once and gives
each reference readout its own copy.
"""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from conftest import qubit_state_fidelity
from rnqc import cnf, majsat, sim
from rnqc.errors import PostselectError

EPS = np.finfo(np.float64).eps


def _formula(num_vars, clauses):
    return cnf.CnfFormula(num_vars=num_vars, clauses=tuple(tuple(c) for c in clauses))


def _reference_sweep(p, st, visit, zero_mass_ok=False):
    """The state-vector readout: visit(i, kept probability, postselected state)."""
    prefix, suffix = majsat._readout_split(p)
    sim.apply_circuit(st, prefix)
    out = []
    for i in range(p.config.i_min, p.config.i_max + 1):
        branch = st.copy()
        sim.prepare_superposed_qubit(branch, p.layout.bhr, 1.0, math.ldexp(1.0, i))
        sim.apply_circuit(branch, suffix)
        try:
            prob1, post = sim.postselect(branch, p.layout.oracle, 1)
        except PostselectError:
            if not zero_mass_ok:
                raise
            prob1, post = 0.0, None
        out.append(visit(i, prob1, post))
        del branch, post
    return out


def _reference_rho_sweep(p, st, visit, zero_mass_ok=False):
    """The state-vector readout that hands visit the BHR's one-qubit Gram
    matrix of the postselected state as rho."""

    def read(i, prob1, post):
        return visit(i, prob1, None if post is None else sim.gram(post, [p.layout.bhr])[0])

    return _reference_sweep(p, st, read, zero_mass_ok)


def _gram_entries(p, s):
    """(i, kept probability, P(+1), P(-1), BHR fidelity) from the Gram readout."""
    return majsat._readout_sweep(
        p,
        lambda i, prob1, rho: (
            i,
            prob1,
            *sim.x_probabilities(rho),
            majsat._readout_bhr_fidelity(p, rho, s, i),
        ),
    )


def _reference_entries(p, st, s):
    big_n = 1 << p.formula.original_vars
    bhr = p.layout.bhr
    return _reference_sweep(
        p,
        st,
        lambda i, prob1, post: (
            i,
            prob1,
            *sim.probabilities_x(post, bhr),
            qubit_state_fidelity(post, bhr, float(big_n - 2 * s), math.ldexp(float(big_n), i)),
        ),
    )


def _dense_amplification_fidelity(p, st, s):
    """The amplification checkpoint as it was: against a dense 2^n target."""
    base = p.initial_bits
    for q in p.mixed_qubits:
        base |= 1 << q
    amps = np.zeros(1 << p.qubit_count)
    amps[base] = float((1 << p.formula.original_vars) - s)
    amps[base | (1 << p.layout.oracle)] = float(s)
    return sim.fidelity(st, sim.state_from_amplitudes(amps))


@pytest.mark.parametrize("lowering", majsat.LOWERINGS)
@pytest.mark.parametrize("rounds", ["default", "2n"])
def test_gram_readout_matches_reference_on_corpus(corpus, lowering, rounds):
    for name, formula in corpus:
        n = formula.num_vars
        r = None if rounds == "default" else 2 * n
        p = majsat.plan(formula, majsat.default_config(n, r=r, r_prime=r, lowering=lowering))
        s = cnf.count_models(formula)
        st = majsat._amplified_state(p)
        # The dense dot product rounds two products either as one fused
        # multiply-add or as two, depending on where BLAS puts them.
        assert abs(majsat._amplification_fidelity(p, st, s) - _dense_amplification_fidelity(p, st, s)) <= EPS
        got = _gram_entries(p, s)
        want = _reference_entries(p, st, s)
        for a, b in zip(got, want, strict=True):
            assert a[0] == b[0]
            assert (a[3] > a[2]) == (b[3] > b[2]), (name, a[0])
            for k in (1, 2, 3):  # kept probability, P(+1), P(-1)
                assert abs(a[k] - b[k]) <= 16 * EPS, (name, a[0], k)
            assert abs(a[4] - b[4]) <= 1e-12, (name, a[0])


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_sampled_reports_identical_under_reference_readout(corpus_small, monkeypatch, seed):
    for name, formula in corpus_small:
        p = majsat.plan(formula, majsat.default_config(formula.num_vars, seed=seed, mode="sampled"))
        st = majsat._amplified_state(p)
        got = json.dumps(majsat.run_sampled(p).to_json_dict())
        with monkeypatch.context() as patch:
            patch.setattr(
                majsat,
                "_readout_sweep",
                lambda p, visit, zero_mass_ok=False: _reference_rho_sweep(p, st.copy(), visit, zero_mass_ok),
            )
            want = json.dumps(majsat.run_sampled(p).to_json_dict())
        assert got == want, name


EDGE_FORMULAS = {
    "and": _formula(2, [[1], [2]]),  # s = 1 of 4
    "or": _formula(3, [[1, 2]]),  # s = 6 of 8
    "tie": _formula(3, [[1]]),  # s = 4 of 8, exact tie
    "xor": _formula(4, [[1, 2], [-1, -2]]),  # s = 8 of 16, tie with a residue
}
# Under literal orientation r' rounds scale the kept branch by 2^-r'
# against the discarded one. From r' = 525 on its mass sits below
# sim.ZERO_MASS of the total, so both readouts raise PostselectError.


def _outcome(entries):
    try:
        return "YES" if any(e[3] > e[2] for e in entries()) else "NO"
    except PostselectError:
        return "PostselectError"


@pytest.mark.parametrize("lowering", majsat.LOWERINGS)
def test_gram_readout_matches_reference_at_the_starvation_edge(lowering):
    # Semantic plans get the whole grid. A primitive plan at large r' is a
    # list of about 6 r' gates to lower, compile and trace per point, so
    # primitive plans get the grid's ends and the edge point: at r' = 1200
    # n3_two_or3's readout suffix alone is 7,201 gates.
    grid = range(25, 1201, 25) if lowering == "semantic" else (25, 525, 1200)
    for key, formula in EDGE_FORMULAS.items():
        n = formula.num_vars
        for orientation in majsat.ORIENTATIONS:
            st = None
            for r_prime in grid:
                config = majsat.default_config(
                    n, r=2 * n, r_prime=r_prime, g_orientation=orientation, lowering=lowering
                )
                p = majsat.plan(formula, config)
                if st is None:  # the amplified state does not depend on r'
                    st = majsat._amplified_state(p)
                got = _outcome(lambda: _gram_entries(p, 0))
                want = _outcome(lambda: _reference_entries(p, st.copy(), 0))
                assert got == want, (key, orientation, r_prime)
