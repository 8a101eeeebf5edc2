"""Exhaustive enumeration of every t-norm on a small bounded carrier.

Backtracking search over the cells of the operation table.  The neutral
row and column are fixed up front and commutativity is baked into the
cell layout (only the upper triangle is searched).  Monotonicity is
enforced two ways: the initial domain of a cell (x, y) keeps only values
below every upper bound of x and of y — forced by neutrality plus joint
monotonicity — and assignments forward-prune the domains of comparable
cells.  Domains are Python int bitmasks (bit v set iff v is still
allowed), values are tried from the lowest bit up, and pruning ANDs a
domain with the precomputed mask of the values above (or below) the one
just assigned.

Associativity is checked incrementally.  After T(i, j) = T(j, i) = v,
only the equations T(T(x, y), z) = T(x, T(y, z)) with x in {i, j} are
tested, 2n² lookups.  That is enough: every equation whose four lookups
the new cell completes uses it as (x, y), (y, z), (T(x, y), z) or
(x, T(y, z)), so x or z is in {i, j}; on a symmetric table the equation
for (x, y, z) holds exactly when the one for (z, y, x) does; and every
other fully-defined equation was checked when its own last cell was set.

The search is one loop over an explicit stack indexed by depth (the
values still to try, the domains on entry and the cell), so no carrier
size can hit Python's recursion limit.  Every completed table still goes
through check() before being reported: the pruning is an optimization,
never the authority on what counts as a t-norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CarrierTooLarge,
    LimitReached,
    NotBounded,
    PreconditionViolated,
    TargetMismatch,
)
from .relation import HasseDiagram, Psoset, hasse, validate_psoset
from .tnorms import BinaryOpTable, check, make_op, pointwise_order


@dataclass
class EnumerationResult:
    """Everything the search found.

    tnorms is sorted canonically (row-major tuple of table entries), so
    equal carriers always enumerate in the same order.  order is the
    read-only (count, count) pointwise order among them: order[a, b] iff
    tnorms[a] <= tnorms[b] in every cell.  maximal and greatest are
    indices into tnorms, read off order.  If complete is False the search
    stopped at a limit and order/maximal/greatest only describe what was
    found up to that point.
    """

    target: Psoset
    tnorms: list[BinaryOpTable]
    order: np.ndarray
    maximal: list[int]
    greatest: int | None
    count: int
    search_stats: dict[str, int]
    complete: bool


def enumerate_tnorms(
    p: Psoset, limit: int | None = None, cap: int = 10
) -> EnumerationResult:
    """All t-norms on a bounded psoset or trellis with at most `cap` elements.

    Raises CarrierTooLarge beyond the cap (override with cap=), and
    LimitReached — carrying the partial result — once `limit` t-norms
    have been found.
    """
    if p.bottom is None or p.top is None:
        raise NotBounded("enumeration needs a bottom and a top")
    n, top = p.n, p.top
    if n > cap:
        raise CarrierTooLarge(
            f"carrier has {n} elements, cap is {cap}; pass cap= to override"
        )
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    rel = p.rel.tolist()

    def mask(members) -> int:
        return sum(1 << w for w, inside in enumerate(members) if inside)

    up = [mask(rel[v]) for v in range(n)]  # {w : v <= w}
    down = [mask(row[v] for row in rel) for v in range(n)]  # {w : w <= v}

    inner = [x for x in range(n) if x != top]
    cells = [(i, j) for i in inner for j in inner if i <= j]

    # T(i, j) must sit below every upper bound of i and of j: for i <= x
    # the pair (i, j) <= (x, top) cellwise, so T(i, j) <= T(x, top) = x.
    # The reflexive cases give T(i, j) <= i and <= j.
    def initial_domain(i: int, j: int) -> int:
        d = -1
        for u in range(n):
            if rel[i][u] or rel[j][u]:
                d &= down[u]
        return d

    doms = [initial_domain(i, j) for i, j in cells]
    order = sorted(range(len(cells)), key=lambda k: (doms[k].bit_count(), cells[k]))
    cells = [cells[k] for k in order]
    doms = [doms[k] for k in order]
    m = len(cells)

    # Cellwise comparability (in either orientation, since the table is
    # symmetric) is exactly what joint monotonicity constrains.  prune[k]
    # lists each later comparable cell with the masks that bound it: the
    # cells above k first, then the cells below, as the search tries them.
    def cell_leq(c: tuple[int, int], d: tuple[int, int]) -> bool:
        (i, j), (a, b) = c, d
        return (rel[i][a] and rel[j][b]) or (rel[i][b] and rel[j][a])

    prune: list[list[tuple[int, list[int]]]] = []
    for k in range(m):
        later = range(k + 1, m)
        prune.append(
            [(k2, up) for k2 in later if cell_leq(cells[k], cells[k2])]
            + [(k2, down) for k2 in later if cell_leq(cells[k2], cells[k])]
        )

    tab = [[-1] * n for _ in range(n)]
    for x in range(n):
        tab[x][top] = tab[top][x] = x

    def assoc_ok(i: int, j: int) -> bool:
        for x in (i,) if i == j else (i, j):
            row_x = tab[x]
            for y, a in enumerate(row_x):
                if a < 0:
                    continue
                for b, left in zip(tab[y], tab[a]):
                    if b >= 0 and left >= 0:
                        right = row_x[b]
                        if right >= 0 and right != left:
                            return False
        return True

    nodes = assoc_prunes = monotone_prunes = rejects = 0
    found: list[BinaryOpTable] = []

    def finish(complete: bool) -> EnumerationResult:
        found.sort(key=lambda op: tuple(op.table.flat))
        w = len(found)
        order = pointwise_order([op.table for op in found], p.rel)
        order.setflags(write=False)
        strictly_below = order & ~np.eye(w, dtype=bool)
        greatest = np.flatnonzero(order.all(axis=0))
        return EnumerationResult(
            target=p,
            tnorms=found,
            order=order,
            maximal=np.flatnonzero(~strictly_below.any(axis=1)).tolist(),
            greatest=int(greatest[0]) if len(greatest) else None,
            count=w,
            search_stats={
                "nodes": nodes,
                "monotone_prunes": monotone_prunes,
                "associativity_prunes": assoc_prunes,
                "final_check_rejects": rejects,
            },
            complete=complete,
        )

    # Depth k has its cell cells[k], the domains on entry level[k] and the
    # values it has still to try rest[k].  Depth m is a completed table.
    level: list[list[int]] = [doms] + [[]] * m
    rest = doms[:1] + [0] * m
    k = 0
    while k >= 0:
        if k == m:
            op = make_op(p, tab)
            if check(op).is_tnorm:
                found.append(op)
                if limit is not None and len(found) >= limit:
                    raise LimitReached(
                        f"stopped after {len(found)} t-norms (limit={limit})",
                        finish(complete=False),
                    )
            else:
                rejects += 1
            k -= 1
            continue
        i, j = cells[k]
        todo = rest[k]
        if not todo:
            tab[i][j] = tab[j][i] = -1
            k -= 1
            continue
        low = todo & -todo
        rest[k] = todo ^ low
        v = low.bit_length() - 1
        nodes += 1
        tab[i][j] = tab[j][i] = v
        if not assoc_ok(i, j):
            assoc_prunes += 1
            continue
        d = level[k][:]
        for k2, bound in prune[k]:
            d[k2] &= bound[v]
            if not d[k2]:
                monotone_prunes += 1
                break
        else:
            k += 1
            level[k] = d
            if k < m:
                rest[k] = d[k]
    return finish(complete=True)


def is_maximal_tnorm(p: Psoset, op: BinaryOpTable, cap: int = 10) -> bool:
    """No enumerated t-norm sits strictly pointwise above op."""
    if op.names != p.names or not np.array_equal(op.target.rel, p.rel):
        raise TargetMismatch("operations live on different carriers")
    res = enumerate_tnorms(p, cap=cap)
    tables = np.array([other.table for other in res.tnorms])
    above = pointwise_order([op.table], p.rel, tables)[0]
    same = (tables == op.table).all(axis=(1, 2))
    return not (above & ~same).any()


def greatest_tnorm(p: Psoset, cap: int = 10) -> BinaryOpTable | None:
    """The t-norm pointwise above all others, when one exists."""
    res = enumerate_tnorms(p, cap=cap)
    return None if res.greatest is None else res.tnorms[res.greatest]


def order_diagram(result: EnumerationResult) -> HasseDiagram:
    """Hasse-type diagram of the pointwise order among enumerated t-norms.

    The pointwise comparison of t-norm tables is reflexive and
    antisymmetric but need not be transitive when the carrier is not, so
    the result goes through the same diagram extraction as any psoset.
    Node k stands for result.tnorms[k] (named "T<k+1>").
    """
    if not result.complete:
        raise PreconditionViolated("order diagram needs a complete enumeration")
    names = tuple(f"T{k + 1}" for k in range(result.count))
    return hasse(validate_psoset(result.order, names))
