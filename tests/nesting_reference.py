"""Pair-scan nesting validator, kept as the differential reference.

Before the sorted sweep, ``validate_planar_monotone`` compared every pair
of same-side clauses for crossings, searched every other clause for each
clause's innermost container, and computed levels by recursion over the
children.  That is quadratic in the clause count and recurses once per
nesting level, so it serves only small formulas.
"""

import itertools

from gridmapf.formula import EmbeddingError, NestingForest, Side


def _contains(a, b, order):
    """Interval containment a >= b, with equal intervals broken by input order."""
    (alo, ahi), (blo, bhi) = a.interval, b.interval
    if alo > blo or ahi < bhi:
        return False
    if (alo, ahi) == (blo, bhi):
        return order[a.id] < order[b.id]
    return True


def reference_validate_planar_monotone(formula):
    order = {c.id: i for i, c in enumerate(formula.clauses)}
    intervals, side_of, parent, children = {}, {}, {}, {}
    roots = {Side.POSITIVE: None, Side.NEGATIVE: None}

    for side in (Side.POSITIVE, Side.NEGATIVE):
        group = formula.side_clauses(side)
        for a, b in itertools.combinations(group, 2):
            (alo, ahi), (blo, bhi) = a.interval, b.interval
            disjoint = ahi < blo or bhi < alo
            nested = _contains(a, b, order) or _contains(b, a, order)
            if not disjoint and not nested:
                raise EmbeddingError(
                    f"clauses {a.id} and {b.id}: intervals {a.interval} and "
                    f"{b.interval} cross"
                )
        side_roots = []
        for c in group:
            intervals[c.id] = c.interval
            side_of[c.id] = side
            containing = [d for d in group if d.id != c.id and _contains(d, c, order)]
            if not containing:
                parent[c.id] = None
                side_roots.append(c.id)
            else:
                best = containing[0]
                for d in containing[1:]:
                    if _contains(best, d, order):
                        best = d
                parent[c.id] = best.id
            children.setdefault(c.id, [])
        for c in group:
            p = parent[c.id]
            if p is not None:
                children[p].append(c.id)
        if len(side_roots) > 1:
            raise EmbeddingError(
                f"{'positive' if side is Side.POSITIVE else 'negative'} side has "
                f"{len(side_roots)} root clauses {sorted(side_roots)}; exactly one allowed"
            )
        if side_roots:
            roots[side] = side_roots[0]

    levels = {}

    def level(cid):
        if cid not in levels:
            kids = children.get(cid, [])
            levels[cid] = 0 if not kids else 1 + max(level(k) for k in kids)
        return levels[cid]

    for c in formula.clauses:
        level(c.id)

    return NestingForest(
        intervals=intervals,
        side_of=side_of,
        parent=parent,
        children={cid: tuple(sorted(kids, key=lambda k: order[k])) for cid, kids in children.items()},
        levels=levels,
        roots=roots,
    )
