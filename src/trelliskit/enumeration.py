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

Associativity is checked incrementally, with the occurrence index of
the SEM and Mace4 model finders: pairs[a] holds the ordered cells
(x, y) with T(x, y) = a, and every write to the table goes through one
put() that keeps it current.  After T(i, j) = T(j, i) = v only the
equations E(x, y, z): T(T(x, y), z) = T(x, T(y, z)) the new cell can
complete are tested, in two families: the cell as (x, y), for every z
and both orientations (2n equations), and the cell as (T(x, y), z),
that is z = j over pairs[i] and z = i over pairs[j].  That is enough:
every equation whose four lookups the new cell completes uses it as
(x, y), (y, z), (T(x, y), z) or (x, T(y, z)); on a symmetric table
E(x, y, z) holds exactly when E(z, y, x) does, which maps the last two
positions onto the first two; and every other fully-defined equation
was checked when its own last cell was set.

The search is one loop over an explicit stack indexed by depth (the
values still to try, the domains on entry and the cell), so no carrier
size can hit Python's recursion limit.  Every completed table still goes
through the axiom kernel check() is built on before being reported, in
chunks of _CHECK_CHUNK tables: the pruning is an optimization, never the
authority on what counts as a t-norm.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress
from operator import and_
from time import perf_counter
from types import MappingProxyType

import numpy as np

from .errors import LimitReached, PreconditionViolated, TargetMismatch
from .relation import (
    HasseDiagram,
    Psoset,
    _diagram,
    _readonly,
    _require_bounds,
    _require_cap,
    _unpack,
)
from .tnorms import BinaryOpTable, _order_rows, _tnorm_mask

_CHECK_CHUNK = 64  # completed tables per axiom-kernel call


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    """Everything the search found; frozen, so every cache below stays true.

    tables is the read-only (count, n, n) stack of the t-norms' tables,
    sorted canonically (row-major tuple of table entries), so equal
    carriers always enumerate in the same order; each table is stored
    there once.  tnorms is the tuple of BinaryOpTable views of its rows,
    built the first time it is read.  order[a, b] holds, read-only, iff
    tables[a] <= tables[b] in every cell; maximal and greatest are
    indices into tables.  The order is built from the stack the first
    time order, maximal, greatest or order_diagram needs it and is then
    cached as a tuple of int rows, bit b of row a set iff order[a, b],
    which maximal, greatest and order_diagram read as they are; order
    unpacks them once, when first read.  So a caller that only needs the
    tables never builds the order or an op.
    If complete is False the search stopped at a limit and
    order/maximal/greatest only describe what was found up to that
    point.  Results compare by identity.  search_stats and timings are
    read-only mappings; timings holds wall times in seconds: "search"
    and "final check" (the axiom kernel run on the completed tables, not
    included in "search").
    """

    target: Psoset
    tables: np.ndarray
    search_stats: Mapping[str, int]
    complete: bool
    timings: Mapping[str, float] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.tables)

    @cached_property
    def tnorms(self) -> tuple[BinaryOpTable, ...]:
        return tuple(BinaryOpTable(self.target, t) for t in self.tables)

    @cached_property
    def _rows(self) -> tuple[int, ...]:
        return tuple(_order_rows(self.tables, self.target.rel))

    @cached_property
    def order(self) -> np.ndarray:
        return _unpack(self._rows, self.count)

    @cached_property
    def maximal(self) -> tuple[int, ...]:
        # the order is reflexive, so a maximal row holds only its diagonal bit
        return tuple(a for a, row in enumerate(self._rows) if row.bit_count() == 1)

    @cached_property
    def greatest(self) -> int | None:
        above_all = reduce(and_, self._rows, (1 << self.count) - 1)
        return (above_all & -above_all).bit_length() - 1 if above_all else None


def enumerate_tnorms(
    p: Psoset, limit: int | None = None, cap: int = 10
) -> EnumerationResult:
    """All t-norms on a bounded psoset or trellis with at most `cap` elements.

    Raises CarrierTooLarge beyond the cap (override with cap=), and
    LimitReached — carrying the partial result — once `limit` t-norms
    have been found.
    """
    _, top = _require_bounds(p)
    _require_cap(p, cap)
    n = p.n
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    rel = p.rel.tolist()
    cols = list(zip(*rel))
    bits = [1 << w for w in range(n)]
    up = [sum(compress(bits, row)) for row in rel]  # {w : v <= w}
    down = [sum(compress(bits, col)) for col in cols]  # {w : w <= v}
    # T(i, j) must sit below every upper bound of i and of j: for i <= x
    # the pair (i, j) <= (x, top) cellwise, so T(i, j) <= T(x, top) = x.
    # The reflexive cases give T(i, j) <= i and <= j.  So the initial
    # domain of (i, j) is below[i] & below[j].
    below = [reduce(and_, compress(down, row)) for row in rel]

    inner = [x for x in range(n) if x != top]
    cells = sorted(
        ((i, j) for i in inner for j in inner if i <= j),
        key=lambda c: ((below[c[0]] & below[c[1]]).bit_count(), c),
    )
    doms = [below[i] & below[j] for i, j in cells]
    m = len(cells)

    # Cellwise comparability (in either orientation, since the table is
    # symmetric) is exactly what joint monotonicity constrains.  prune[k]
    # lists each later comparable cell with the masks that bound it: the
    # cells above k first, then the cells below, as the search tries them.
    prune: list[list[tuple[int, list[int]]]] = []
    for k, (i, j) in enumerate(cells):
        ri, rj, ci, cj = rel[i], rel[j], cols[i], cols[j]
        above, under = [], []
        for k2 in range(k + 1, m):
            a, b = cells[k2]
            if ri[a] and rj[b] or ri[b] and rj[a]:
                above.append((k2, up))
            if ci[a] and cj[b] or ci[b] and cj[a]:
                under.append((k2, down))
        prune.append(above + under)

    tab = [[-1] * n for _ in range(n)]
    pairs: list[set[tuple[int, int]]] = [set() for _ in range(n)]

    def put(i: int, j: int, v: int) -> None:
        """T(i, j) = T(j, i) = v, or unassigned for v = -1, with pairs
        kept current: the cells leave their old value's set first."""
        old = tab[i][j]
        if old >= 0:
            pairs[old].difference_update(((i, j), (j, i)))
        tab[i][j] = tab[j][i] = v
        if v >= 0:
            pairs[v].update(((i, j), (j, i)))

    for x in range(n):
        put(x, top, x)

    def assoc_ok(i: int, j: int, v: int) -> bool:
        """Every equation T(i, j) = v completes holds."""
        row_v = tab[v]
        for x, y in ((i, j),) if i == j else ((i, j), (j, i)):
            # the cell as (x, y): T(v, z) = T(x, T(y, z))
            row_x = tab[x]
            for left, b in zip(row_v, tab[y]):
                if left >= 0 and b >= 0:
                    right = row_x[b]
                    if right >= 0 and right != left:
                        return False
            # the cell as (T(a, b), y) with T(a, b) = x: v = T(a, T(b, y))
            for a, b in pairs[x]:
                c = tab[b][y]
                if c >= 0:
                    right = tab[a][c]
                    if right >= 0 and right != v:
                        return False
        return True

    nodes = assoc_prunes = monotone_prunes = rejects = 0
    started, checking = perf_counter(), 0.0
    chunks: list[np.ndarray] = []  # the checked tables, chunk by chunk
    kept = 0  # tables in chunks
    pending: list[int] = []  # completed tables not yet checked, cell after cell

    def flush() -> None:
        nonlocal kept, rejects, checking
        start = perf_counter()
        tabs = np.fromiter(pending, np.int64, len(pending)).reshape(-1, n, n)
        chunks.append(tabs[_tnorm_mask(tabs, p.rel, top)])
        kept += len(chunks[-1])
        rejects += len(tabs) - len(chunks[-1])
        pending.clear()
        checking += perf_counter() - start

    def finish(complete: bool) -> EnumerationResult:
        tables = np.concatenate(chunks) if chunks else np.empty((0, n, n), np.int64)
        keys = tables.reshape(kept, n * n).tolist()
        tables = tables[sorted(range(kept), key=keys.__getitem__)]
        return EnumerationResult(
            target=p,
            tables=_readonly(tables),
            search_stats=MappingProxyType({
                "nodes": nodes,
                "monotone_prunes": monotone_prunes,
                "associativity_prunes": assoc_prunes,
                "final_check_rejects": rejects,
            }),
            complete=complete,
            timings=MappingProxyType({
                "search": perf_counter() - started - checking,
                "final check": checking,
            }),
        )

    # Depth k has its cell cells[k], the domains on entry level[k] and the
    # values it has still to try rest[k].  Depth m is a completed table.
    level: list[list[int]] = [doms] + [[]] * m
    rest = doms[:1] + [0] * m
    k = 0
    while k >= 0:
        if k == m:
            for row in tab:
                pending += row
            # Flush early when this chunk could reach the limit, so that a
            # partial result holds the first `limit` t-norms of the search.
            waiting = len(pending) // (n * n)
            if waiting == _CHECK_CHUNK or (limit is not None and kept + waiting >= limit):
                flush()
                if limit is not None and kept >= limit:
                    raise LimitReached(
                        f"stopped after {kept} t-norms (limit={limit})",
                        finish(complete=False),
                    )
            k -= 1
            continue
        i, j = cells[k]
        todo = rest[k]
        if not todo:
            put(i, j, -1)
            k -= 1
            continue
        low = todo & -todo
        rest[k] = todo ^ low
        v = low.bit_length() - 1
        nodes += 1
        put(i, j, v)
        if not assoc_ok(i, j, v):
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
    if pending:
        flush()
    return finish(complete=True)


def is_maximal_tnorm(p: Psoset, op: BinaryOpTable, cap: int = 10) -> bool:
    """No enumerated t-norm sits strictly pointwise above op."""
    if not op.target.same_carrier(p):
        raise TargetMismatch("operations live on different carriers")
    tables = enumerate_tnorms(p, cap=cap).tables
    above = p.rel[op.table, tables].all(axis=(1, 2))  # op <= tables[b] cellwise
    return not (above & (tables != op.table).any(axis=(1, 2))).any()


def greatest_tnorm(p: Psoset, cap: int = 10) -> BinaryOpTable | None:
    """The t-norm pointwise above all others, when one exists."""
    res = enumerate_tnorms(p, cap=cap)
    return None if res.greatest is None else BinaryOpTable(p, res.tables[res.greatest])


def order_diagram(result: EnumerationResult) -> HasseDiagram:
    """Hasse-type diagram of the pointwise order among enumerated t-norms.

    The pointwise comparison of t-norm tables is reflexive and
    antisymmetric but need not be transitive when the carrier is not, so
    the result goes through the same diagram extraction as any psoset,
    read straight off the order's int rows (relation._diagram), which are
    unpacked only when the order is not transitive.  Node k stands for
    result.tables[k] (named "T<k+1>").
    """
    if not result.complete:
        raise PreconditionViolated("order diagram needs a complete enumeration")
    # reflexive as rel is; antisymmetric as rel is and the t-norms are distinct
    return _diagram(result._rows)
