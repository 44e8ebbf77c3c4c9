"""CNF formulas: DIMACS parsing, bitset truth tables and model counting, 3-CNF conversion.

Variables are 1-based signed integers in clauses (DIMACS convention);
assignments are integers where bit v-1 holds the value of variable v,
matching the simulator's qubit indexing when variable v sits on work
qubit v-1.

Tautological clauses (v and -v together) are rejected by default since
the downstream oracle never has to represent a constant-true clause;
parse_dimacs can instead drop them on request. Repeated literals inside
a clause are deduplicated.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_

import numpy as np

from .errors import CountLimitError, DimacsError, InputError

COUNT_VAR_LIMIT = 24
# A truth table is a Python int: bit x stands for assignment x. count_models
# keeps variables 1.._TABLE_VARS in its tables, 2^18 bits (32 KiB) each and
# walks the rest; truth_blocks walks the assignments in blocks of that size.
_TABLE_VARS = 18


def _normalize_clause(raw, num_vars: int, drop_tautologies: bool = False) -> tuple[int, ...] | None:
    """A clause's literals, each checked to be nonzero and in range, with
    repeats dropped, in one pass. A tautology, found at the first literal
    whose negation comes earlier, is rejected once every literal is
    checked, or with drop_tautologies comes back as None."""
    lits: dict[int, None] = {}
    clash = None
    for lit in [int(x) for x in raw]:
        if lit == 0:
            raise InputError("clause literals must be nonzero")
        if abs(lit) > num_vars:
            raise InputError(f"literal {lit} out of range for {num_vars} variables")
        if clash is None and -lit in lits:
            clash = lit
        lits[lit] = None
    if not lits:
        raise InputError("empty clause")
    if clash is None:
        return tuple(lits)
    if drop_tautologies:
        return None
    raise InputError(f"tautological clause: contains both {clash} and {-clash}")


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = int(self.num_vars)
        if n < 0:
            raise InputError(f"variable count must be nonnegative, got {n}")
        object.__setattr__(self, "num_vars", n)
        object.__setattr__(self, "clauses", tuple(_normalize_clause(c, n) for c in self.clauses))

    @classmethod
    def _normalized(cls, num_vars: int, clauses: tuple[tuple[int, ...], ...]) -> CnfFormula:
        """A formula from clauses already normalized for num_vars, which
        __post_init__ would check a second time."""
        formula = object.__new__(cls)
        object.__setattr__(formula, "num_vars", num_vars)
        object.__setattr__(formula, "clauses", clauses)
        return formula


@dataclass(frozen=True)
class ThreeCnf:
    """Width-limited form of a formula over original plus defined variables.

    mapping lists (aux_var, lit_a, lit_b) triples in dependency order:
    aux_var is constrained to equal lit_a OR lit_b by three defining
    clauses, so each original assignment extends to exactly one total
    assignment and the model count is preserved.
    """

    base: CnfFormula
    original_vars: int
    mapping: tuple[tuple[int, int, int], ...]

    @property
    def aux_vars(self) -> int:
        return len(self.mapping)

    @property
    def reduced(self) -> tuple[tuple[int, ...], ...]:
        """The input's clauses after width reduction, in input order: to_3cnf
        puts the three defining clauses of each mapping entry first."""
        return self.base.clauses[3 * len(self.mapping):]


def parse_dimacs(text: str, keep_tautologies: bool = False) -> CnfFormula:
    """Parse DIMACS CNF text.

    keep_tautologies=False rejects clauses containing v and -v;
    True drops them instead (they are satisfied by every assignment).
    A '%' line ends the clause section (a convention some corpus files use).
    """
    num_vars: int | None = None
    declared_clauses: int | None = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    body_count = 0

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("%"):
            break
        if stripped.startswith("p"):
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: duplicate problem line")
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed problem line {stripped!r}")
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: malformed problem line {stripped!r}") from exc
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError(f"line {lineno}: negative counts in problem line")
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause before problem line")
        for tok in stripped.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: bad token {tok!r}") from exc
            if lit == 0:
                body_count += 1
                try:
                    clause = _normalize_clause(pending, num_vars, keep_tautologies)
                except InputError as exc:
                    raise DimacsError(f"line {lineno}: {exc}") from exc
                if clause is not None:
                    clauses.append(clause)
                pending = []
            else:
                pending.append(lit)

    if num_vars is None:
        raise DimacsError("missing problem line")
    if pending:
        raise DimacsError("unterminated clause at end of input")
    if body_count != declared_clauses:
        raise DimacsError(f"problem line declares {declared_clauses} clauses, body has {body_count}")
    return CnfFormula._normalized(num_vars, tuple(clauses))


def check_count_limit(n: int) -> None:
    """COUNT_VAR_LIMIT is the package's one limit on exhaustive evaluation."""
    if n > COUNT_VAR_LIMIT:
        raise CountLimitError(f"exhaustive evaluation is capped at {COUNT_VAR_LIMIT} variables, got {n}")


@lru_cache(maxsize=32)
def variable_tables(k: int) -> tuple[int, ...]:
    """The truth tables of k variables over their 2^k assignments: bit x of
    table j is bit j of x. Each repeats one period of 2^j zeros and 2^j ones."""
    tables = []
    for j in range(k):
        table, span = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
        while span < 1 << k:
            table, span = table | table << span, span << 1
        tables.append(table)
    return tuple(tables)


def truth_blocks(n: int, mapping=()) -> Iterator[tuple[int, int, dict[int, int]]]:
    """The 2^n assignments as truth tables, one block of at most
    2^_TABLE_VARS at a time.

    A block is (first, full, tables): bit x of a table stands for
    assignment first + x, full has all of them set, and tables[lit] those
    where literal +v or -v holds, for the n variables and those a
    ThreeCnf's mapping defines. Variables above the block's are all ones or
    all zeros in it. A dict is formed per block, so memory is two tables of
    at most 32 KiB per variable."""
    check_count_limit(n)
    k = min(n, _TABLE_VARS)
    full, low = (1 << (1 << k)) - 1, variable_tables(k)
    for first in range(0, 1 << n, 1 << k):
        tables = {}
        for v in range(1, n + 1):
            tables[v] = low[v - 1] if v <= k else full * (first >> (v - 1) & 1)
            tables[-v] = full ^ tables[v]
        for y, la, lb in mapping:  # y = la OR lb, in dependency order
            tables[y] = tables[la] | tables[lb]
            tables[-y] = full ^ tables[y]
        yield first, full, tables


def clause_words(clause, tables: dict[int, int]) -> int:
    """A clause's truth table over one block: the OR of its literals'
    tables, 0 for no literals."""
    return reduce(or_, [tables[lit] for lit in clause] or [0])


def set_assignments(first: int, table: int) -> list[int]:
    """The assignments whose bits are set in a block's table, ascending."""
    raw = np.frombuffer(table.to_bytes((table.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return (np.flatnonzero(np.unpackbits(raw, bitorder="little")) + first).tolist()


def count_models(formula: CnfFormula) -> int:
    """Exact model count by Shannon expansion on a fixed variable order.

    Variables 1..L (L = _TABLE_VARS) lie in one truth table from
    truth_blocks, 32 KiB at most. The variables above L are walked depth
    first: each node fixes one more of them and ANDs into its parent's
    table the clauses whose top variable it is, cut down to their literals
    on 1..L, and each leaf adds its table's bit count. A clause true on the
    path is skipped, and a subtree is dropped when its table is 0, as it is
    after a clause with no literal on 1..L. It is still exhaustive: every
    assignment lies below one leaf or one dropped node, and no heuristic
    picks the order."""
    n = formula.num_vars
    check_count_limit(n)
    low = min(n, _TABLE_VARS)
    ((_, full, tables),) = truth_blocks(low)
    depth = n - low
    levels = [[] for _ in range(depth + 1)]  # by top variable; 0 for within 1..low
    for clause in formula.clauses:
        pos, neg, lits = 0, 0, []  # variable v > low is bit v - low - 1 of a path
        for lit in clause:
            if abs(lit) <= low:
                lits.append(lit)
            elif lit > 0:
                pos |= 1 << (lit - low - 1)
            else:
                neg |= 1 << (-lit - low - 1)
        levels[max(max(map(abs, clause)) - low, 0)].append((pos, neg, lits))
    # node (k, path, table) has fixed variables low + 1..low + k to the bits
    # of path, and its table ANDs the clauses of levels 0..k - 1
    total, stack = 0, [(0, 0, full)]
    while stack:
        k, path, table = stack.pop()
        for pos, neg, lits in levels[k]:
            if not (path & pos or ~path & neg):
                table &= clause_words(lits, tables)
        if not table:
            continue
        if k == depth:
            total += table.bit_count()
        else:
            stack += ((k + 1, path, table), (k + 1, path | 1 << k, table))
    return total


def to_3cnf(formula: CnfFormula) -> ThreeCnf:
    """Reduce clause widths to <= 3, preserving the model count.

    A clause (l1 v l2 v rest...) wider than 3 becomes (y v rest...) plus
    three clauses forcing y <-> (l1 v l2). The biconditional matters:
    one-directional splitting would admit spurious aux values and
    inflate counts. Defining clauses are emitted first, in creation
    order, followed by the reduced originals in input order, which
    ThreeCnf.reduced reads back.
    """
    n = formula.num_vars
    reduced: list[tuple[int, ...]] = []
    mapping: list[tuple[int, int, int]] = []
    for clause in formula.clauses:
        lits = list(clause)
        while len(lits) > 3:
            y = n + len(mapping) + 1
            mapping.append((y, lits[0], lits[1]))
            lits = [y] + lits[2:]
        reduced.append(tuple(lits))
    # the input's clauses are normalized, and each y is a fresh variable
    defining = [c for y, la, lb in mapping for c in ((-y, la, lb), (y, -la), (y, -lb))]
    base = CnfFormula._normalized(n + len(mapping), tuple(defining + reduced))
    return ThreeCnf(base=base, original_vars=n, mapping=tuple(mapping))
