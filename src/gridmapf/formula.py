"""Monotone formulas with a nesting structure over clause intervals.

A monotone formula has every clause either all-positive or all-negative.
Placing positive clauses above a variable row and negative clauses below
it, with each clause drawn over the interval spanned by its variables,
is possible without crossings only when the intervals of each side form
a laminar family; the containment order of those intervals is the
nesting forest computed here.  A tiny exhaustive SAT decision procedure
rounds out the module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence


class Side(str, Enum):
    POSITIVE = "+"
    NEGATIVE = "-"

    @property
    def opposite(self) -> "Side":
        return Side.NEGATIVE if self is Side.POSITIVE else Side.POSITIVE


class FormulaError(ValueError):
    """Malformed formula text or structure; carries a line number when known."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmbeddingError(ValueError):
    """The clause intervals do not admit the planar nesting discipline."""


@dataclass(frozen=True)
class Clause:
    """One monotone clause: 1-3 distinct variables, all same polarity."""

    id: int
    side: Side
    vars: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", tuple(sorted(self.vars)))
        if not 1 <= len(self.vars) <= 3:
            raise FormulaError(f"clause {self.id}: needs 1-3 variables")
        if len(set(self.vars)) != len(self.vars):
            raise FormulaError(f"clause {self.id}: duplicate variable")

    @property
    def interval(self) -> tuple[int, int]:
        return (self.vars[0], self.vars[-1])


@dataclass(frozen=True)
class MonotoneFormula:
    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(self.clauses))
        if self.num_vars < 0:
            raise FormulaError("variable count must be non-negative")
        ids = [c.id for c in self.clauses]
        if len(set(ids)) != len(ids):
            raise FormulaError("duplicate clause id")
        for c in self.clauses:
            for v in c.vars:
                if not 1 <= v <= self.num_vars:
                    raise FormulaError(f"clause {c.id}: variable {v} out of range")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def clause_by_id(self, cid: int) -> Clause:
        for c in self.clauses:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def side_clauses(self, side: Side) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if c.side is side)


def evaluate(formula: MonotoneFormula, assignment: Sequence[bool]) -> bool:
    """Truth value under ``assignment`` (index v-1 holds variable v)."""
    if len(assignment) != formula.num_vars:
        raise ValueError("assignment length does not match variable count")
    for c in formula.clauses:
        if c.side is Side.POSITIVE:
            if not any(assignment[v - 1] for v in c.vars):
                return False
        else:
            if not any(not assignment[v - 1] for v in c.vars):
                return False
    return True


def parse_formula(text: str) -> MonotoneFormula:
    """Parse the line-based formula format.

    ``vars <n>`` first, then ``clause <id> <+|-> <v1> [v2 [v3]]`` lines;
    ``#`` starts a comment.  Errors carry the offending line number.
    """
    num_vars: Optional[int] = None
    clauses: list[Clause] = []
    seen_ids: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vars":
            if num_vars is not None:
                raise FormulaError("duplicate vars directive", lineno)
            # isdecimal, not isdigit: int() rejects digits such as "²".
            if len(parts) != 2 or not parts[1].isdecimal():
                raise FormulaError("expected: vars <n>", lineno)
            num_vars = int(parts[1])
        elif parts[0] == "clause":
            if num_vars is None:
                raise FormulaError("vars directive must come first", lineno)
            if len(parts) < 4 or len(parts) > 6:
                raise FormulaError("expected: clause <id> <+|-> <v1> [v2 [v3]]", lineno)
            if not parts[1].lstrip("-").isdecimal():
                raise FormulaError(f"bad clause id {parts[1]!r}", lineno)
            cid = int(parts[1])
            if cid in seen_ids:
                raise FormulaError(f"duplicate clause id {cid}", lineno)
            if parts[2] not in ("+", "-"):
                raise FormulaError(f"bad side {parts[2]!r}, expected + or -", lineno)
            side = Side(parts[2])
            try:
                variables = tuple(int(p) for p in parts[3:])
            except ValueError:
                raise FormulaError("variables must be integers", lineno) from None
            if len(set(variables)) != len(variables):
                raise FormulaError("duplicate variable in clause", lineno)
            for v in variables:
                if not 1 <= v <= num_vars:
                    raise FormulaError(f"variable {v} out of range 1..{num_vars}", lineno)
            seen_ids.add(cid)
            clauses.append(Clause(cid, side, variables))
        else:
            raise FormulaError(f"unknown directive {parts[0]!r}", lineno)
    if num_vars is None:
        raise FormulaError("missing vars directive")
    return MonotoneFormula(num_vars, tuple(clauses))


def format_formula(formula: MonotoneFormula) -> str:
    """Canonical text form; ``parse_formula`` round-trips it exactly."""
    lines = [f"vars {formula.num_vars}"]
    for c in formula.clauses:
        lines.append(f"clause {c.id} {c.side.value} " + " ".join(map(str, c.vars)))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class NestingForest:
    """Interval-containment structure of a validated formula.

    ``parent`` maps each clause id to its innermost strictly-containing
    clause on the same side (or None for a root); ``levels`` follow the
    recursive rule: non-parents sit at level 0 and a parent sits one above
    its highest child.
    """

    intervals: dict[int, tuple[int, int]]
    side_of: dict[int, Side]
    parent: dict[int, Optional[int]]
    children: dict[int, tuple[int, ...]]
    levels: dict[int, int]
    roots: dict[Side, Optional[int]]

    def encloses(self, outer: int, inner: int) -> bool:
        """True when ``outer`` contains ``inner`` on the same side (any depth)."""
        if self.side_of[outer] is not self.side_of[inner] or outer == inner:
            return False
        cur = self.parent[inner]
        while cur is not None:
            if cur == outer:
                return True
            cur = self.parent[cur]
        return False


def validate_planar_monotone(formula: MonotoneFormula) -> NestingForest:
    """Check the interval-laminar embedding discipline and build the forest.

    Per side, clause intervals must be pairwise disjoint or nested (equal
    intervals nest outer-first by input order; intervals that share only an
    endpoint variable cross) and at most one root may remain.  Crossing
    intervals or multiple roots raise ``EmbeddingError``.

    One sweep per side visits the clauses by left end ascending, then right
    end descending, then input order, so each clause comes after every
    clause that contains it.  A stack holds the open intervals, each nested
    in the one below; once those ending left of the current clause are
    popped, the top either crosses the clause or is its parent.
    """
    order = {c.id: i for i, c in enumerate(formula.clauses)}
    intervals = {c.id: c.interval for c in formula.clauses}
    side_of = {c.id: c.side for c in formula.clauses}
    parent: dict[int, Optional[int]] = {}
    children: dict[int, list[int]] = {c.id: [] for c in formula.clauses}
    levels = dict.fromkeys(order, 0)
    roots: dict[Side, Optional[int]] = {Side.POSITIVE: None, Side.NEGATIVE: None}

    for side in (Side.POSITIVE, Side.NEGATIVE):
        group = formula.side_clauses(side)
        sweep = sorted(group, key=lambda c: (c.interval[0], -c.interval[1]))  # ties keep input order
        stack: list[Clause] = []
        for c in sweep:
            lo, hi = c.interval
            while stack and stack[-1].interval[1] < lo:
                stack.pop()
            if stack and stack[-1].interval[1] < hi:
                a, b = sorted((stack[-1], c), key=lambda d: order[d.id])
                raise EmbeddingError(
                    f"clauses {a.id} and {b.id}: intervals {a.interval} and "
                    f"{b.interval} cross"
                )
            parent[c.id] = stack[-1].id if stack else None
            stack.append(c)
        for c in reversed(sweep):  # children before their parents
            p = parent[c.id]
            if p is not None:
                levels[p] = max(levels[p], levels[c.id] + 1)
        side_roots = []
        for c in group:
            p = parent[c.id]
            if p is None:
                side_roots.append(c.id)
            else:
                children[p].append(c.id)
        if len(side_roots) > 1:
            raise EmbeddingError(
                f"{'positive' if side is Side.POSITIVE else 'negative'} side has "
                f"{len(side_roots)} root clauses {sorted(side_roots)}; exactly one allowed"
            )
        if side_roots:
            roots[side] = side_roots[0]

    return NestingForest(
        intervals=intervals,
        side_of=side_of,
        parent=parent,
        children={cid: tuple(kids) for cid, kids in children.items()},
        levels=levels,
        roots=roots,
    )


def brute_force_sat(
    formula: MonotoneFormula, max_vars: int = 24
) -> Optional[tuple[bool, ...]]:
    """Exhaustive satisfiability check.

    Returns the lexicographically first satisfying assignment (False before
    True, variable 1 most significant) or None when unsatisfiable.  Refuses
    formulas with more than ``max_vars`` variables.
    """
    if formula.num_vars > max_vars:
        raise ValueError(
            f"{formula.num_vars} variables exceeds the exhaustive cap of {max_vars}"
        )
    for bits in itertools.product((False, True), repeat=formula.num_vars):
        if evaluate(formula, bits):
            return bits
    return None
