"""DIMACS parsing, brute-force counting, and the width-3 conversion."""
from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import eval_clause, eval_formula, eval_literal, extend_assignment, table_count
from rnqc import cnf
from rnqc.errors import CountLimitError, DimacsError, InputError


def _formula(num_vars, clauses):
    return cnf.CnfFormula(num_vars=num_vars, clauses=tuple(tuple(c) for c in clauses))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_basic():
    formula = cnf.parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
    assert formula.num_vars == 3
    assert formula.clauses == ((1, -2), (2, 3))


def test_parse_skips_comments():
    text = "c a comment\np cnf 2 1\nc another\n1 2 0\n"
    assert cnf.parse_dimacs(text).clauses == ((1, 2),)


def test_parse_rejects_literal_out_of_range():
    with pytest.raises(DimacsError):
        cnf.parse_dimacs("p cnf 2 1\n3 0\n")


def test_parse_rejects_clause_count_mismatch():
    with pytest.raises(DimacsError):
        cnf.parse_dimacs("p cnf 2 2\n1 0\n")


def test_parse_rejects_missing_header():
    with pytest.raises(DimacsError):
        cnf.parse_dimacs("1 2 0\n")


def test_parse_rejects_empty_clause():
    with pytest.raises(DimacsError):
        cnf.parse_dimacs("p cnf 2 1\n0\n")


def test_parse_rejects_tautology_by_default():
    with pytest.raises(DimacsError):
        cnf.parse_dimacs("p cnf 2 1\n1 -1 0\n")


def test_parse_keep_tautologies_drops_clause():
    formula = cnf.parse_dimacs("p cnf 2 2\n1 -1 0\n1 2 0\n", keep_tautologies=True)
    assert formula.clauses == ((1, 2),)
    # a formula of only tautologies degenerates to the empty conjunction
    empty = cnf.parse_dimacs("p cnf 2 1\n1 -1 0\n", keep_tautologies=True)
    assert empty.clauses == ()
    assert cnf.count_models(empty) == 4


@pytest.mark.parametrize("clause", ["1 -1 9", "9 1 -1"], ids=["range-last", "range-first"])
@pytest.mark.parametrize("keep", [False, True], ids=["reject", "keep"])
def test_parse_range_checks_a_tautology_before_dropping_it(clause, keep):
    # an out-of-range literal is an error whatever the literal order
    with pytest.raises(DimacsError, match="literal 9 out of range"):
        cnf.parse_dimacs(f"p cnf 3 1\n{clause} 0\n", keep_tautologies=keep)


@pytest.mark.parametrize(
    "text, keep, message",
    [
        ("p cnf 2 2\n1 2 0\nc note\n3 0\n", False, "line 4: literal 3 out of range for 2 variables"),
        ("p cnf 2 2\n1 0\n\n0\n", False, "line 4: empty clause"),
        ("p cnf 2 1\n1 -1 2 0\n", False, "line 2: tautological clause: contains both -1 and 1"),
        ("p cnf 3 1\n1\n-1 9 0\n", True, "line 3: literal 9 out of range for 3 variables"),
    ],
)
def test_parse_errors_name_the_line_that_ends_the_clause(text, keep, message):
    with pytest.raises(DimacsError) as info:
        cnf.parse_dimacs(text, keep_tautologies=keep)
    assert str(info.value) == message


def test_parse_checks_each_clause_once(monkeypatch):
    calls = []
    normalize = cnf._normalize_clause
    monkeypatch.setattr(cnf, "_normalize_clause", lambda raw, n, *drop: calls.append(raw) or normalize(raw, n, *drop))
    formula = cnf.parse_dimacs("p cnf 3 4\n1 -2 0\n2 2 3 0\n-3 0\n1 -1 0\n", keep_tautologies=True)
    assert len(calls) == 4
    assert formula == cnf.CnfFormula(3, ((1, -2), (2, 3), (-3,)))


def test_to_3cnf_checks_no_clause_again(monkeypatch):
    formula = _formula(6, [[1, -2, 3, 4, -5, 6], [-1, 2], [3, -4, 5, 6]])
    calls = []
    normalize = cnf._normalize_clause
    monkeypatch.setattr(cnf, "_normalize_clause", lambda raw, n, *drop: calls.append(raw) or normalize(raw, n, *drop))
    f3 = cnf.to_3cnf(formula)
    assert calls == []
    assert f3.base == cnf.CnfFormula(f3.base.num_vars, f3.base.clauses)


@pytest.mark.parametrize(
    "num_vars, clauses, message",
    [
        (3, ((1, 0),), "clause literals must be nonzero"),
        (-1, (), "variable count must be nonnegative, got -1"),
    ],
    ids=["zero-literal", "negative-count"],
)
def test_formula_rejects_what_dimacs_cannot_spell(num_vars, clauses, message):
    # parse_dimacs never builds these; a formula made in code is checked alike
    with pytest.raises(InputError) as info:
        cnf.CnfFormula(num_vars, clauses)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def test_count_models_examples():
    assert cnf.count_models(_formula(3, [[1]])) == 4
    assert cnf.count_models(_formula(3, [[1, 2]])) == 6
    assert cnf.count_models(_formula(3, [[-1, 2, 3]])) == 7


def test_count_models_zero_clause():
    assert cnf.count_models(_formula(2, [])) == 4


def test_count_models_unsatisfiable():
    assert cnf.count_models(_formula(1, [[1], [-1]])) == 0


def test_count_models_variable_cap():
    with pytest.raises(CountLimitError):
        cnf.count_models(_formula(25, [[1]]))


def _brute_count(formula):
    total = 0
    for x in range(1 << formula.num_vars):
        total += all(
            any((x >> (abs(l) - 1)) & 1 == (l > 0) for l in clause)
            for clause in formula.clauses
        )
    return total


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_count_models_matches_direct_evaluation(data):
    # n < 6 fills part of one word, n = 6 exactly one, n = 7 and 8 several
    n = data.draw(st.integers(min_value=0, max_value=8))
    clauses = []
    if n:
        literals = st.integers(min_value=1, max_value=n).flatmap(
            lambda v: st.sampled_from([v, -v])
        )
        clauses = data.draw(
            st.lists(
                st.lists(literals, min_size=1, max_size=4, unique_by=abs),
                min_size=0,
                max_size=5,
            )
        )
    formula = _formula(n, clauses)
    assert cnf.count_models(formula) == _brute_count(formula)


@pytest.mark.parametrize(
    "n",
    [cnf._TABLE_VARS - 1, cnf._TABLE_VARS, cnf._TABLE_VARS + 1, 21, 22, cnf.COUNT_VAR_LIMIT],
    ids=["below-table-width", "table-width", "one-level", "two-blocks", "four-blocks", "count-limit"],
)
def test_count_models_matches_table_reference(n):
    rnd = random.Random(n)
    clauses = [
        [v if rnd.random() < 0.5 else -v for v in rnd.sample(range(1, n + 1), rnd.randint(2, 4))]
        for _ in range(2 * n)
    ]
    formula = _formula(n, clauses)
    assert cnf.count_models(formula) == table_count(formula)


def _signed_literals(first, last):
    return st.integers(min_value=first, max_value=last).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_count_models_walk_matches_table_reference(data):
    # n from one below the table width (no walk) to three levels above it.
    # Clauses of high literals alone, units among them, prune subtrees.
    L = cnf._TABLE_VARS
    n = data.draw(st.integers(min_value=L - 1, max_value=L + 3))
    clause = st.lists(_signed_literals(1, n), min_size=1, max_size=4, unique_by=abs)
    if n > L:
        clause |= st.lists(_signed_literals(L + 1, n), min_size=1, max_size=3, unique_by=abs)
    formula = _formula(n, data.draw(st.lists(clause, max_size=10)))
    assert cnf.count_models(formula) == table_count(formula)


def test_count_models_leaves_no_garbage_cycle():
    # the walk's tables go when it returns; held in a cycle they would wait
    # for the collector and raise the peak memory of a run of counts
    L = cnf._TABLE_VARS
    formula = _formula(L + 3, [[1, -(L + 1)], [L + 2, L + 3], [-(L + 3)]])
    gc.collect()
    gc.disable()
    try:
        assert cnf.count_models(formula) == (1 << L + 3) * 3 // 16
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n", range(9))
def test_truth_blocks_hold_each_assignment(n):
    ((first, full, tables),) = cnf.truth_blocks(n)
    assert first == 0 and full == (1 << (1 << n)) - 1
    for v in range(1, n + 1):
        for lit in (v, -v):
            table = tables[lit]
            assert [table >> x & 1 for x in range(1 << n)] == [(x >> (v - 1) & 1) == (lit > 0) for x in range(1 << n)]
            assert table >> (1 << n) == 0, "no bit at or past 2^n is set"


def test_truth_blocks_walk_two_blocks_at_n19():
    # the first n with two blocks: variable 19 is the block index
    L = cnf._TABLE_VARS
    blocks = [(first, full, tables[L + 1], tables[1]) for first, full, tables in cnf.truth_blocks(L + 1)]
    assert [first for first, *_ in blocks] == [0, 1 << L]
    assert blocks[0][2] == 0 and blocks[1][2] == blocks[1][1] == (1 << (1 << L)) - 1
    for _, full, _, low in blocks:  # variable 1 repeats in each block
        assert low == full // 3 * 2  # 0b1010...: bit 0 of the assignment


# ---------------------------------------------------------------------------
# width-3 conversion
# ---------------------------------------------------------------------------


def test_to_3cnf_single_wide_clause():
    formula = _formula(4, [[1, 2, 3, 4]])
    f3 = cnf.to_3cnf(formula)
    assert cnf.count_models(formula) == 15
    assert f3.base.num_vars == 5
    assert max(len(c) for c in f3.base.clauses) <= 3
    assert cnf.count_models(f3.base) == 15


def test_to_3cnf_two_wide_clauses():
    formula = _formula(4, [[1, 2, 3, 4], [-1, -2, -3, -4]])
    f3 = cnf.to_3cnf(formula)
    assert cnf.count_models(formula) == 14
    assert cnf.count_models(f3.base) == 14


def test_to_3cnf_narrow_input_unchanged():
    formula = _formula(3, [[1, -2], [2, 3]])
    f3 = cnf.to_3cnf(formula)
    assert f3.aux_vars == 0
    assert f3.base == formula
    assert f3.mapping == ()


def test_to_3cnf_defining_clauses_lead():
    f3 = cnf.to_3cnf(_formula(4, [[1, 2, 3, 4]]))
    assert f3.aux_vars == 1
    assert len(f3.mapping) == 1
    # three defining clauses per introduced variable, reduced originals after
    assert len(f3.base.clauses) == 4
    defs = f3.base.clauses[:3]
    assert all(len(c) <= 3 for c in defs)
    reduced = f3.base.clauses[3]
    assert 5 in reduced, "reduced clause must reference the defined variable"


def test_extend_assignment_is_consistent():
    formula = _formula(5, [[1, 2, 3, 4, 5], [-1, -3, -5, 2]])
    f3 = cnf.to_3cnf(formula)
    seen = set()
    for x in range(1 << 5):
        full = extend_assignment(f3, x)
        assert full & 0b11111 == x, "original bits preserved"
        assert full not in seen, "extension must be injective"
        seen.add(full)
        for i, (y, la, lb) in enumerate(f3.mapping):
            want = eval_literal(la, full) or eval_literal(lb, full)
            assert eval_literal(y, full) == want


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_to_3cnf_preserves_model_count(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    literals = st.integers(min_value=1, max_value=n).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = data.draw(
        st.lists(
            st.lists(literals, min_size=1, max_size=min(5, n), unique_by=abs),
            min_size=1,
            max_size=4,
        )
    )
    formula = _formula(n, clauses)
    f3 = cnf.to_3cnf(formula)
    assert max((len(c) for c in f3.base.clauses), default=0) <= 3
    assert cnf.count_models(f3.base) == cnf.count_models(formula)


def test_eval_helpers():
    formula = _formula(3, [[1, -3]])
    assert eval_clause((1, -3), 0b001)
    assert not eval_clause((1, -3), 0b100)
    assert eval_formula(formula, 0b001)
    assert not eval_formula(formula, 0b100)
