"""The Gram-matrix readout of majsat against a state-vector readout and
an exact one.

The state-vector reference runs the readout on the state itself, once
per i: copy the amplified state, prepare the BHR, replay the readout
suffix, postselect the oracle qubit and read the BHR off the state. The
Gram readout simulates the plan itself, in one call through the
readout's H; each test builds the reference's amplified state once and
gives each reference readout its own copy. The exact reference reads the
same amplified state in Fractions.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from rnqc import cnf, majsat, sim
from rnqc.circuit import PERMUTATION_KINDS, diagonal_factors
from rnqc.errors import PostselectError

EPS = np.finfo(np.float64).eps


def _formula(num_vars, clauses):
    return cnf.CnfFormula(num_vars=num_vars, clauses=tuple(tuple(c) for c in clauses))


def _reference_sweep(p, st):
    """The state-vector readout, in _readout_sweep's form: per i, the kept
    probability and the BHR's one-qubit Gram matrix of the postselected
    state, both zero where the kept branch has zero mass."""
    gates = p.readout_circuit.gates
    sim.apply_circuit(st, gates[:1])
    prob1, rho = [], []
    for i in range(p.config.i_min, p.config.i_max + 1):
        branch = st.copy()
        sim.prepare_superposed_qubit(branch, p.layout.bhr, 1.0, math.ldexp(1.0, i))
        sim.apply_circuit(branch, gates[1:])
        try:
            kept, post = sim.postselect(branch, p.layout.oracle, 1)
        except PostselectError:
            kept, post = 0.0, None
        prob1.append(kept)
        rho.append(np.zeros((2, 2)) if post is None else sim.gram(post, [p.layout.bhr])[0])
        del branch, post
    return np.array(prob1), np.array(rho)


def _entries(p, s, sweep):
    """(i, kept probability, P(+1), P(-1), BHR fidelity) per i of a sweep;
    PostselectError when some i keeps no mass, as run_exact raises."""
    prob1, rho = sweep
    if not np.all(prob1 > 0.0):
        raise PostselectError("zero kept mass")
    i_range = range(p.config.i_min, p.config.i_max + 1)
    return [
        (i, q, *sim.x_probabilities(r), majsat._readout_bhr_fidelity(p, r, s, i))
        for i, q, r in zip(i_range, prob1, rho)
    ]


def _gram_entries(p, s):
    return _entries(p, s, majsat._readout_sweep(p))


def _reference_entries(p, st, s):
    big_n = 1 << p.formula.original_vars
    sweep = _reference_sweep(p, st)
    # The fidelity against the unscaled closed form, read off the BHR's
    # Gram matrix as conftest.qubit_state_fidelity reads it.
    return [
        (*e[:4], sim.pure_fidelity(np.conj(r), float(big_n - 2 * s), math.ldexp(float(big_n), e[0])))
        for e, r in zip(_entries(p, s, sweep), sweep[1])
    ]


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


def _exact_readout(p):
    """Per i, the exact (P(-1), P(+1)) of the plan's readout, in Fractions.

    The amplified state's mantissas become integers at one common scale,
    and every common factor (that scale, the H's 1/2, the BHR's
    normalization) cancels in the ratios. So M is the integer Gram matrix
    over the readout qubits L with the H on the oracle qubit applied to
    it, each local basis state is walked through the readout suffix with
    each diagonal factor taken as the Fraction of its double, and the BHR
    contributes (c0, c1) = (1, 2^i).
    """
    st = majsat._amplified_state(p)
    gates = p.readout_circuit.gates
    local = sorted({q for g in gates for q in g.qubits} | {p.layout.bhr})
    k, pos = len(local), {q: j for j, q in enumerate(local)}
    frac, ex = np.frexp(sim.amplitudes(st))
    low = int(ex[frac != 0].min())
    mantissas = np.ldexp(frac, 53).astype(np.int64).tolist()
    ints = np.array([m and m << (e - low) for m, e in zip(mantissas, ex.tolist())], dtype=object)
    j = np.arange(ints.size)
    x_of = sum(((j >> q) & 1) << b for b, q in enumerate(local))
    cols = [ints[x_of == x] for x in range(1 << k)]
    gram0 = [[int(cols[x].dot(cols[y])) for y in range(1 << k)] for x in range(1 << k)]
    ob = 1 << pos[p.layout.oracle]

    def h(x, a):  # the oracle qubit's H, times sqrt(2)
        return -1 if x & a & ob else 1

    def hmh(x, y):
        return sum(h(x, a) * h(y, b) * gram0[a][b] for a in (x & ~ob, x | ob) for b in (y & ~ob, y | ob))

    gram = [[hmh(x, y) for y in range(1 << k)] for x in range(1 << k)]
    bhr = 1 << pos[p.layout.bhr]
    dest, weight = {}, {}
    for x in range(1 << k):
        y, wt = x, Fraction(1)
        for g in gates[1:]:
            *controls, t = (pos[q] for q in g.qubits)
            if all(y >> c & 1 for c in controls):
                if g.kind in PERMUTATION_KINDS:
                    y ^= 1 << t
                else:
                    wt *= Fraction(diagonal_factors(g)[y >> t & 1])
        dest[y], weight[y] = x, wt  # output y comes from source x

    def form(pairs):
        """Coefficients of c0^2, c0 c1, c1^2 in the sum over output pairs (y, z) of R[y, z]."""
        coef = [Fraction(0)] * 3
        for y, z in pairs:
            u, v = dest[y], dest[z]
            coef[(u & bhr != 0) + (v & bhr != 0)] += weight[y] * weight[z] * gram[u & ~bhr][v & ~bhr]
        return coef

    kept = [y for y in range(1 << k) if y & ob and not y & bhr]
    diag = form([(y, y) for y in kept] + [(y | bhr, y | bhr) for y in kept])
    off = form([(y, y | bhr) for y in kept])
    out = []
    for i in range(p.config.i_min, p.config.i_max + 1):
        c = (1, Fraction(2) ** i, Fraction(4) ** i)
        m, o = sum(a * b for a, b in zip(c, diag)), sum(a * b for a, b in zip(c, off))
        out.append(((m - 2 * o) / (2 * m), (m + 2 * o) / (2 * m)))
    return out


@pytest.mark.parametrize("lowering", majsat.LOWERINGS)
def test_exact_readout_matches_fraction_reference_on_corpus(corpus, lowering):
    # Every corpus plan has at most 16 qubits. The readout's H runs on the
    # state in doubles, so its rounding is part of the error measured here.
    for name, formula in corpus:
        p = majsat.plan(formula, majsat.default_config(formula.num_vars, lowering=lowering))
        report = majsat.run_exact(p)
        for e, (p_minus, p_plus) in zip(report.per_i, _exact_readout(p), strict=True):
            for got, want in ((e["exact_p_minus"], p_minus), (e["exact_p_plus"], p_plus)):
                assert abs(Fraction(got) - want) <= 8 * Fraction(EPS), (name, e["i"])


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_sampled_reports_identical_under_reference_readout(corpus_small, monkeypatch, seed):
    for name, formula in corpus_small:
        p = majsat.plan(formula, majsat.default_config(formula.num_vars, seed=seed, mode="sampled"))
        st = majsat._amplified_state(p)
        got = json.dumps(majsat.run_sampled(p).to_json_dict())
        with monkeypatch.context() as patch:
            patch.setattr(majsat, "_readout_sweep", lambda p: _reference_sweep(p, st.copy()))
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
