"""CNF formulas: DIMACS parsing, brute-force counting, 3-CNF conversion.

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

from dataclasses import dataclass

from .errors import CountLimitError, DimacsError, InputError

COUNT_VAR_LIMIT = 24


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


def _normalize_clause(raw, num_vars: int) -> tuple[int, ...]:
    """Checked literals with repeats dropped; a tautology is rejected."""
    lits = _literals(raw, num_vars)
    lit = _tautology(lits)
    if lit is not None:
        raise InputError(f"tautological clause: contains both {lit} and {-lit}")
    return tuple(dict.fromkeys(lits))


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = int(self.num_vars)
        if n < 0:
            raise InputError(f"variable count must be nonnegative, got {n}")
        object.__setattr__(self, "num_vars", n)
        object.__setattr__(
            self, "clauses", tuple(_normalize_clause(c, n) for c in self.clauses)
        )


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
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
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
                    lits = _literals(pending, num_vars)
                    if not (keep_tautologies and _tautology(lits) is not None):
                        clauses.append(_normalize_clause(lits, num_vars))
                except InputError as exc:
                    raise DimacsError(f"line {lineno}: {exc}") from exc
                pending = []
            else:
                pending.append(lit)

    if num_vars is None:
        raise DimacsError("missing problem line")
    if pending:
        raise DimacsError("unterminated clause at end of input")
    if body_count != declared_clauses:
        raise DimacsError(
            f"problem line declares {declared_clauses} clauses, body has {body_count}"
        )
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def format_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def truth_tables(n: int) -> tuple[int, list[int]]:
    """(full, tables) over all 2^n assignments: full has all 2^n bits set,
    and bit x of tables[v] is variable v+1 in assignment x. One 2^n-bit
    integer each, 2 MiB at COUNT_VAR_LIMIT, the package's one limit on
    exhaustive evaluation."""
    if n > COUNT_VAR_LIMIT:
        raise CountLimitError(
            f"exhaustive evaluation is capped at {COUNT_VAR_LIMIT} variables, got {n}"
        )
    total = 1 << n
    tables: list[int] = []
    for v in range(n):
        block = 1 << v
        m = ((1 << block) - 1) << block  # ones where bit v of the index is set
        span = block << 1
        while span < total:
            m |= m << span
            span <<= 1
        tables.append(m)
    return (1 << total) - 1, tables


def clause_table(clause: tuple[int, ...], full: int, tables: list[int]) -> int:
    """Truth table of a clause: the OR of its literals' tables."""
    t = 0
    for lit in clause:
        vt = tables[abs(lit) - 1]
        t |= vt if lit > 0 else full & ~vt
    return t


def count_models(formula: CnfFormula) -> int:
    """Exact model count: the popcount of the AND of the clause truth
    tables. Far faster than a per-assignment loop and still an
    exhaustive, assumption-free reference."""
    full, tables = truth_tables(formula.num_vars)
    sat = full
    for clause in formula.clauses:
        sat &= clause_table(clause, full, tables)
    return sat.bit_count()


def to_3cnf(formula: CnfFormula) -> ThreeCnf:
    """Reduce clause widths to <= 3, preserving the model count.

    A clause (l1 v l2 v rest...) wider than 3 becomes (y v rest...) plus
    three clauses forcing y <-> (l1 v l2). The biconditional matters:
    one-directional splitting would admit spurious aux values and
    inflate counts. Defining clauses are emitted first, in creation
    order, followed by the reduced originals in input order.
    """
    n = formula.num_vars
    defining: list[tuple[int, ...]] = []
    reduced: list[tuple[int, ...]] = []
    mapping: list[tuple[int, int, int]] = []
    next_var = n
    for clause in formula.clauses:
        lits = list(clause)
        while len(lits) > 3:
            la, lb = lits[0], lits[1]
            next_var += 1
            y = next_var
            defining.append((-y, la, lb))
            defining.append((y, -la))
            defining.append((y, -lb))
            mapping.append((y, la, lb))
            lits = [y] + lits[2:]
        reduced.append(tuple(lits))
    base = CnfFormula(num_vars=next_var, clauses=tuple(defining + reduced))
    return ThreeCnf(
        base=base,
        original_vars=n,
        aux_vars=next_var - n,
        mapping=tuple(mapping),
    )
