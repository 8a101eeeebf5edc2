"""Exhaustive enumeration of every t-norm on a small bounded carrier.

Backtracking search over the cells of the operation table.  The neutral
row and column are fixed up front and commutativity is baked into the
cell layout (only the upper triangle is searched).  Monotonicity is
enforced two ways: the initial domain of a cell (x, y) keeps only values
below every upper bound of x and of y — forced by neutrality plus joint
monotonicity — and assignments forward-prune the domains of comparable
cells.  Associativity is re-checked over all fully-defined triples after
each assignment.  Every completed table still goes through check()
before being reported: the pruning is an optimization, never the
authority on what counts as a t-norm.
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


class _Stop(Exception):
    pass


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
    n, rel, top = p.n, p.rel, p.top
    if n > cap:
        raise CarrierTooLarge(
            f"carrier has {n} elements, cap is {cap}; pass cap= to override"
        )
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")

    inner = [x for x in range(n) if x != top]
    cells = [(i, j) for i in inner for j in inner if i <= j]

    # T(i, j) must sit below every upper bound of i and of j: for i <= x
    # the pair (i, j) <= (x, top) cellwise, so T(i, j) <= T(x, top) = x.
    # The reflexive cases give T(i, j) <= i and <= j.
    def initial_domain(i: int, j: int) -> np.ndarray:
        uppers = rel[i] | rel[j]
        return rel[:, uppers].all(axis=1)

    doms = [initial_domain(i, j) for i, j in cells]
    order = sorted(range(len(cells)), key=lambda k: (int(doms[k].sum()), cells[k]))
    cells = [cells[k] for k in order]
    doms = [doms[k] for k in order]
    m = len(cells)

    # Cellwise comparability (in either orientation, since the table is
    # symmetric) is exactly what joint monotonicity constrains.
    def cell_leq(c: tuple[int, int], d: tuple[int, int]) -> bool:
        (i, j), (a, b) = c, d
        return bool((rel[i, a] and rel[j, b]) or (rel[i, b] and rel[j, a]))

    fut_above: list[list[int]] = [[] for _ in range(m)]
    fut_below: list[list[int]] = [[] for _ in range(m)]
    for k in range(m):
        for k2 in range(k + 1, m):
            if cell_leq(cells[k], cells[k2]):
                fut_above[k].append(k2)
            if cell_leq(cells[k2], cells[k]):
                fut_below[k].append(k2)

    tab = np.full((n, n), -1, dtype=np.int64)
    idx = np.arange(n)
    tab[:, top] = idx
    tab[top, :] = idx

    stats = {
        "nodes": 0,
        "monotone_prunes": 0,
        "associativity_prunes": 0,
        "final_check_rejects": 0,
    }
    found: list[np.ndarray] = []

    def partial_assoc_ok() -> bool:
        safe = np.where(tab >= 0, tab, 0)
        left = tab[safe, :]  # [x, y, z] = T(T(x, y), z)
        left_def = (tab[:, :, None] >= 0) & (left >= 0)
        right = tab[:, safe]  # [x, y, z] = T(x, T(y, z))
        right_def = (tab[None, :, :] >= 0) & (right >= 0)
        return not ((left_def & right_def) & (left != right)).any()

    def dfs(k: int) -> None:
        if k == m:
            op = make_op(p, tab)
            if check(op).is_tnorm:
                found.append(tab.copy())
                if limit is not None and len(found) >= limit:
                    raise _Stop
            else:
                stats["final_check_rejects"] += 1
            return
        i, j = cells[k]
        for v in np.flatnonzero(doms[k]):
            v = int(v)
            stats["nodes"] += 1
            tab[i, j] = v
            tab[j, i] = v
            if not partial_assoc_ok():
                stats["associativity_prunes"] += 1
                continue
            saved = []
            wiped = False
            for k2 in fut_above[k]:
                saved.append((k2, doms[k2]))
                doms[k2] = doms[k2] & rel[v]  # values w with v <= w
                if not doms[k2].any():
                    wiped = True
                    break
            if not wiped:
                for k2 in fut_below[k]:
                    saved.append((k2, doms[k2]))
                    doms[k2] = doms[k2] & rel[:, v]  # values w with w <= v
                    if not doms[k2].any():
                        wiped = True
                        break
            if wiped:
                stats["monotone_prunes"] += 1
            else:
                dfs(k + 1)
            for k2, old in reversed(saved):
                doms[k2] = old
        tab[i, j] = -1
        tab[j, i] = -1

    def finish(complete: bool) -> EnumerationResult:
        found.sort(key=lambda t: tuple(t.flat))
        ops = [make_op(p, t) for t in found]
        w = len(ops)
        order = pointwise_order(found, rel)
        order.setflags(write=False)
        strictly_below = order & ~np.eye(w, dtype=bool)
        greatest = np.flatnonzero(order.all(axis=0))
        return EnumerationResult(
            target=p,
            tnorms=ops,
            order=order,
            maximal=np.flatnonzero(~strictly_below.any(axis=1)).tolist(),
            greatest=int(greatest[0]) if len(greatest) else None,
            count=w,
            search_stats=stats,
            complete=complete,
        )

    try:
        dfs(0)
    except _Stop:
        raise LimitReached(
            f"stopped after {len(found)} t-norms (limit={limit})",
            finish(complete=False),
        )
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
