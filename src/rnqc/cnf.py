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

import numpy as np

from .errors import CountLimitError, DimacsError, InputError

COUNT_VAR_LIMIT = 24
# Truth tables pack 64 assignments per uint64 word, 2^20 assignments per
# block. Variables 1-6 repeat within a word: bit b is bit v - 1 of b.
_BLOCK_WORDS = 1 << 14
# count_models keeps variables 1.._TABLE_VARS in its tables, 2^12 words
# (32 KiB) each, and walks the rest.
_TABLE_VARS = 18
_LOW_WORDS = tuple(np.uint64(sum(1 << b for b in range(64) if b >> v & 1)) for v in range(6))
_M1, _M2, _M4 = (np.uint64(m) for m in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F))


def _tautology(lits: list[int]) -> int | None:
    """The first literal whose negation comes earlier in the clause, if any."""
    seen: set[int] = set()
    for lit in lits:
        if -lit in seen:
            return lit
        seen.add(lit)
    return None


def _literals(raw, num_vars: int) -> list[int]:
    """A clause's literals, every one checked to be nonzero and in range."""
    lits = [int(lit) for lit in raw]
    for lit in lits:
        if lit == 0:
            raise InputError("clause literals must be nonzero")
        if abs(lit) > num_vars:
            raise InputError(f"literal {lit} out of range for {num_vars} variables")
    if not lits:
        raise InputError("empty clause")
    return lits


def _normalize_clause(raw, num_vars: int, drop_tautology: bool = False) -> tuple[int, ...] | None:
    """Checked literals with repeats dropped. A tautology is rejected, or
    with drop_tautology comes back as None."""
    lits = _literals(raw, num_vars)
    lit = _tautology(lits)
    if lit is None:
        return tuple(dict.fromkeys(lits))
    if drop_tautology:
        return None
    raise InputError(f"tautological clause: contains both {lit} and {-lit}")


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
    aux_vars: int
    mapping: tuple[tuple[int, int, int], ...]


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


def truth_blocks(n: int, mapping=()) -> Iterator[tuple[int, np.ndarray, dict[int, np.ndarray]]]:
    """The 2^n assignments as bitset truth tables, one block at a time.

    A block is (first, full, words): bit x & 63 of word x >> 6 stands for
    assignment first + x, full has all of them set, and words[lit] those
    where literal +v or -v holds, for the n variables and those a
    ThreeCnf's mapping defines. The one dict is refilled for each block,
    so memory is two tables of at most 128 KiB per variable."""
    check_count_limit(n)
    count = 1 << max(n - 6, 0)
    size = min(count, _BLOCK_WORDS)
    full = np.full(size, ~np.uint64(0) >> np.uint64(64 - (1 << min(n, 6))))  # n < 6: pad bits 0
    words = {}
    for first in range(0, count, size):
        index = np.arange(first, first + size, dtype=np.uint64)
        for v in range(1, n + 1):
            if v <= 6:
                words[v] = full & _LOW_WORDS[v - 1]
            else:  # all ones or zero, by bit v - 7 of the word index
                words[v] = np.uint64(0) - (index >> np.uint64(v - 7) & np.uint64(1))
            words[-v] = full ^ words[v]
        for y, la, lb in mapping:  # y = la OR lb, in dependency order
            words[y] = words[la] | words[lb]
            words[-y] = full ^ words[y]
        yield first << 6, full, words


def clause_words(clause, words: dict[int, np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """A nonempty clause's words over one block: the OR of its literals'
    words, formed in out when given."""
    out = np.bitwise_or(words[clause[0]], words[clause[-1]], out=out)  # a unit ORs its word with itself
    for lit in clause[1:-1]:
        np.bitwise_or(out, words[lit], out=out)
    return out


def popcount(words: np.ndarray) -> int:
    """Set bits in uint64 words, by the SWAR sums over bit pairs, nibbles and
    bytes of Knuth, TAOCP 4A, 7.1.3; numpy 1.24 has no np.bitwise_count."""
    w = words - (words >> np.uint64(1) & _M1)
    w = (w & _M2) + (w >> np.uint64(2) & _M2)
    return int(((w + (w >> np.uint64(4))) & _M4).view(np.uint8).sum())


def set_assignments(first: int, words: np.ndarray) -> list[int]:
    """The assignments whose bits are set in a block's words, ascending."""
    if not words.any():
        return []
    raw = words.astype("<u8", copy=False).view(np.uint8)
    return (np.flatnonzero(np.unpackbits(raw, bitorder="little")) + first).tolist()


def _and_open_clauses(table: np.ndarray, clauses, path: int, words, scratch: np.ndarray) -> bool:
    """AND into table each clause that path leaves open, cut down to its
    literals on the table's variables. Each clause is (pos, neg, lits):
    masks of its positive and negative literals above the table, as bits
    of path, and its literals within it. False if an open clause has no
    literal within the table: then no assignment below path is a model."""
    for pos, neg, lits in clauses:
        if path & pos or ~path & neg:
            continue
        if not lits:
            return False
        np.bitwise_and(table, clause_words(lits, words, scratch), out=table)
    return True


def count_models(formula: CnfFormula) -> int:
    """Exact model count by Shannon expansion on a fixed variable order.

    Variables 1..L (L = _TABLE_VARS) lie in one truth table from
    truth_blocks, 32 KiB at most. The variables above L are walked depth
    first: each node fixes one more of them and ANDs in the clauses whose
    top variable it is, cut down to their literals on 1..L, and each leaf
    adds its table's popcount. A subtree is dropped only when a clause is false
    on all of it. It is still exhaustive: every assignment lies below one
    leaf or one dropped node, and no heuristic picks the order."""
    n = formula.num_vars
    check_count_limit(n)
    low = min(n, _TABLE_VARS)
    ((_, full, words),) = truth_blocks(low)
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
    # node (k, path) fixes variables low + 1..low + k to the bits of path and
    # fills tables[k + 1] from its parent's tables[k]
    tables = [full] + [np.empty_like(full) for _ in range(depth + 1)]
    scratch = np.empty_like(full)
    total, stack = 0, [(0, 0)]
    while stack:
        k, path = stack.pop()
        table = tables[k + 1]
        np.copyto(table, tables[k])
        if not _and_open_clauses(table, levels[k], path, words, scratch):
            continue
        if k == depth:
            total += popcount(table)
        else:
            stack += ((k + 1, path), (k + 1, path | 1 << k))
    return total


def to_3cnf(formula: CnfFormula) -> ThreeCnf:
    """Reduce clause widths to <= 3, preserving the model count.

    A clause (l1 v l2 v rest...) wider than 3 becomes (y v rest...) plus
    three clauses forcing y <-> (l1 v l2). The biconditional matters:
    one-directional splitting would admit spurious aux values and
    inflate counts. Defining clauses are emitted first, in creation
    order, followed by the reduced originals in input order.
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
    return ThreeCnf(base=base, original_vars=n, aux_vars=len(mapping), mapping=tuple(mapping))
