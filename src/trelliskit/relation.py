"""Finite pseudo-orders: reflexive antisymmetric relations without the
transitivity requirement.

The relation is an n x n boolean matrix, rel[x, y] meaning x <= y.  Because
transitivity is not assumed, "x can be reached from y through a chain of
related elements" (reachability) is genuinely weaker than the relation
itself and gets its own operations here, which all read it off _reach.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CarrierTooLarge,
    DuplicateName,
    ElementNotInSubset,
    EmptySubset,
    NoTop,
    NotAntisymmetric,
    NotBounded,
    NotReflexive,
    ValidationError,
)


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry of mask in row-major order, which is
    the lexicographically first violating tuple; None when there is none."""
    k = mask.argmax()
    if not mask.flat[k]:
        return None
    return tuple(int(v) for v in np.unravel_index(k, mask.shape))


def _hits(mask: np.ndarray) -> list[tuple[int, ...]]:
    """Index of every True entry of mask, in row-major order, which is
    lexicographic order; with _first, the one violation scan."""
    return list(zip(*(ix.tolist() for ix in np.nonzero(mask))))


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only view of a, made read-only too; a must own its data and
    be held by nobody else.  numpy lets an array that owns its data be
    made writeable again, but not a view of a read-only array."""
    a.setflags(write=False)
    return a[...]


def _frozen(a) -> np.ndarray:
    """a itself when it is a read-only view over read-only arrays only,
    as _readonly hands out, else _readonly of a private copy of it (a
    read-only view of a writeable array still changes when that one is
    written).  Frozen objects keep their arrays this way, so that nobody
    can write into them and leave a cached property stale."""
    under = a
    while isinstance(under, np.ndarray) and not under.flags.writeable:
        under = under.base
    if under is None and a.base is not None:
        return a
    return _readonly(np.array(a))


def _escapes(rel: np.ndarray) -> np.ndarray:
    """[a, y]: some x with a <= x <= y, yet not a <= y.  rel is transitive
    exactly when this is empty."""
    return (rel @ rel) & ~rel


# --- preconditions ----------------------------------------------------------
# Each guard below is the one check of its precondition; the callers
# choose the exception class where the guard takes one.


def _require_bounds(p: Psoset) -> tuple[int, int]:
    """(bottom, top); NotBounded when p lacks either."""
    if p.bottom is None or p.top is None:
        raise NotBounded("the carrier needs a bottom and a top")
    return p.bottom, p.top


def _require_cap(p: Psoset, cap: int) -> None:
    if p.n > cap:
        raise CarrierTooLarge(
            f"carrier has {p.n} elements, cap is {cap}; pass cap= to override"
        )


def _require_side(p: Psoset, members: list[int], side: str, error) -> None:
    """Raise error, listing the offenders, unless every member is
    right-transitive (side "right") or left-transitive (side "left")."""
    ok = p._side_masks[side == "left"]
    bad = [x for x in members if not ok[x]]
    if bad:
        raise error(f"not {side}-transitive: {[p.names[x] for x in bad]}", bad)


def _members(p: Psoset, A) -> list[int]:
    """The distinct members of the subset A, sorted, as Python ints.
    Raises ValidationError unless every entry is an integer in 0..n-1;
    its violations are the entries that are not."""
    A = list(A)
    bad = [
        a
        for a in A
        if isinstance(a, bool)
        or not isinstance(a, (int, np.integer))
        or not 0 <= a < p.n
    ]
    if bad:
        raise ValidationError(f"element indices not in 0..{p.n - 1}: {bad}", bad)
    return sorted({int(a) for a in A})


def _member(p: Psoset, x) -> int:
    """The element index x as a Python int, checked as subset entries are."""
    return _members(p, [x])[0]


def _nonempty(p: Psoset, A, what: str) -> list[int]:
    """_members(p, A), raising EmptySubset for "<what> of an empty subset"
    when there are none."""
    members = _members(p, A)
    if not members:
        raise EmptySubset(f"{what} of an empty subset")
    return members


def transitive_closure(rel: np.ndarray) -> np.ndarray:
    """Transitive closure (reflexive when rel is), read off _reach; the
    matrix is read-only."""
    rel = np.asarray(rel, dtype=bool)
    return _unpack(_reach(_bit_rows(rel))[1], len(rel))


def _successors(rel: np.ndarray) -> list[list[int]]:
    """succ[x]: the y with rel[x, y], ascending, all read by one np.nonzero."""
    xs, ys = np.nonzero(rel)
    ends = np.searchsorted(xs, np.arange(1, len(rel) + 1)).tolist()
    ys = ys.tolist()
    return [ys[a:b] for a, b in zip([0, *ends], ends)]


def strong_components(succ: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of the digraph on 0..n-1 with
    successor lists succ, by Tarjan's algorithm with an explicit stack.

    Components come out in reverse topological order: an edge that leaves
    a component leads into one listed before it.  O(V + E)."""
    n = len(succ)
    index = [-1] * n  # discovery number, -1 while unvisited
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
    return components


@dataclass(frozen=True, eq=False)
class Psoset:
    """A finite pseudo-ordered set: named elements plus a reflexive,
    antisymmetric (not necessarily transitive) relation.

    The two fields are the whole definition.  Bounds, reachability and
    the side masks are read off rel the first time they are asked for
    and then cached.  The carrier is frozen and keeps rel as _frozen
    leaves it, which nobody can write, so they stay valid."""

    names: tuple[str, ...]
    rel: np.ndarray

    _arrays = ("rel",)  # the array fields, kept read-only

    def __post_init__(self) -> None:
        for name in self._arrays:
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def indices(self, names) -> frozenset[int]:
        return frozenset(self.index(s) for s in names)

    def labels(self, subset) -> tuple[str, ...]:
        return tuple(self.names[i] for i in _members(self, subset))

    def leq(self, x: int, y: int) -> bool:
        return bool(self.rel[_member(self, x), _member(self, y)])

    @cached_property
    def bottom(self) -> int | None:
        """The element below every element, or None (unique by antisymmetry)."""
        below_all = np.flatnonzero(self.rel.all(axis=1))
        return int(below_all[0]) if len(below_all) else None

    @cached_property
    def top(self) -> int | None:
        above_all = np.flatnonzero(self.rel.all(axis=0))
        return int(above_all[0]) if len(above_all) else None

    @cached_property
    def closure(self) -> np.ndarray:
        return transitive_closure(self.rel)

    @cached_property
    def _side_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """The rtr and ltr masks, from the two-step relation alone."""
        escapes = _escapes(self.rel)
        return _readonly(~escapes.any(axis=1)), _readonly(~escapes.any(axis=0))

    def is_transitive(self) -> bool:
        # every escape [a, y] leaves a not right-transitive
        return bool(self._side_masks[0].all())

    def same_carrier(self, other: "Psoset") -> bool:
        """Same names and same relation: the one test of whether two
        carriers, or the operations on them, match."""
        return self.names == other.names and np.array_equal(self.rel, other.rel)


@dataclass(frozen=True)
class HasseDiagram:
    """Diagram data for drawing a pseudo-order: each field is a tuple of
    index pairs in row-major order, the order in which printers emit them.

    cover_edges: (x, y) with x < y and nothing strictly between.
    dashed_pairs: (x, y) with x < y, unrelated yet still connected by a
        chain of relation steps in at least one direction.
    back_edges: (u, v) with u <= v while v reaches back to u through a
        chain — exactly the edges that sit inside a cycle.
    """

    cover_edges: tuple[tuple[int, int], ...]
    dashed_pairs: tuple[tuple[int, int], ...]
    back_edges: tuple[tuple[int, int], ...]


def validate_psoset(rel, names) -> Psoset:
    """Check reflexivity and antisymmetry.

    Raises DuplicateName, NotReflexive or NotAntisymmetric; each error
    carries every violating element, or every violating pair x < y, in
    row-major (lexicographic) order.
    """
    names = tuple(names)
    if len(set(names)) != len(names):
        dupes = sorted({s for s in names if names.count(s) > 1})
        raise DuplicateName(f"duplicate element names: {dupes}", dupes)
    rel = np.asarray(rel, dtype=bool)
    if rel.ndim != 2 or rel.shape[0] != rel.shape[1]:
        raise ValueError(f"relation must be square, got shape {rel.shape}")
    if rel.shape[0] != len(names):
        raise ValueError(
            f"{len(names)} names for a {rel.shape[0]}x{rel.shape[0]} relation"
        )
    n = len(names)
    not_reflexive = np.flatnonzero(~rel.diagonal()).tolist()
    if not_reflexive:
        raise NotReflexive(
            f"missing x <= x for: {[names[x] for x in not_reflexive]}",
            not_reflexive,
        )
    both = rel & rel.T & ~np.eye(n, dtype=bool)
    if both.any():
        pairs = _hits(np.triu(both))
        raise NotAntisymmetric(
            f"mutually related distinct pairs: "
            f"{[(names[x], names[y]) for x, y in pairs]}",
            pairs,
        )
    return Psoset(names=names, rel=rel)


def reachable(p: Psoset, x: int, y: int) -> bool:
    """True iff there is a finite chain x <= ... <= y (x <= y included)."""
    return bool(p.closure[_member(p, x), _member(p, y)])


def _restricted_closure(p: Psoset, members: list[int]) -> np.ndarray:
    m = np.asarray(members, dtype=np.intp)
    return transitive_closure(p.rel[m[:, None], m])


def restricted_reachable(p: Psoset, C, x: int, y: int) -> bool:
    """Reachability where every chain element must come from C."""
    members = _members(p, C)
    x, y = _member(p, x), _member(p, y)
    missing = [e for e in (x, y) if e not in members]
    if missing:
        raise ElementNotInSubset(
            f"endpoints {[p.names[e] for e in missing]} not in subset"
        )
    closed = _restricted_closure(p, members)
    return bool(closed[members.index(x), members.index(y)])


def is_pseudo_chain(p: Psoset, C) -> bool:
    """Every pair of C is connected by a chain inside C in some direction."""
    members = _nonempty(p, C, "pseudo-chain test")
    closed = _restricted_closure(p, members)
    return bool((closed | closed.T).all())


def is_cycle(p: Psoset, C) -> bool:
    """Every pair of C is connected by chains inside C in both directions."""
    members = _nonempty(p, C, "cycle test")
    return bool(_restricted_closure(p, members).all())


def maximal_cycles(p: Psoset) -> list[frozenset[int]]:
    """Maximal cycles = strongly connected components of the relation,
    singletons dropped (antisymmetry already rules out 2-cycles), sorted
    by their smallest member."""
    cycles = [c for c in strong_components(_successors(p.rel)) if len(c) >= 2]
    return sorted(map(frozenset, cycles), key=min)


def down_set(p: Psoset, x: int) -> frozenset[int]:
    return frozenset(np.flatnonzero(p.rel[:, _member(p, x)]).tolist())


def up_set(p: Psoset, x: int) -> frozenset[int]:
    return frozenset(np.flatnonzero(p.rel[_member(p, x), :]).tolist())


def co_atoms(p: Psoset) -> frozenset[int]:
    """Maximal elements of the carrier with the top removed."""
    if p.top is None:
        raise NoTop("co-atoms need a greatest element")
    strict = p.rel & ~np.eye(p.n, dtype=bool)
    # each x but the top lies strictly below the top; a co-atom below nothing else
    return frozenset(np.flatnonzero(strict.sum(axis=1) == 1).tolist())


# --- bitset rows ------------------------------------------------------------
# Row x of a relation as one int, bit y set iff x <= y.  The two functions
# below are the only code that packs or unpacks this layout.


def _bit_rows(mask: np.ndarray) -> list[int]:
    """The rows of a boolean array as ints, column y as bit y: its last
    axis is the columns and its leading axes are flattened into rows.
    Each int is read through a view of one packed buffer, not a copy."""
    packed = np.packbits(mask, axis=-1, bitorder="little")
    step = packed.shape[-1]
    data = memoryview(packed.reshape(-1))  # flat: cast() fails on a 0 x 0 view
    rows = math.prod(mask.shape[:-1])  # not len(data) // step: step is 0 on 0 x 0
    return [int.from_bytes(data[x * step:(x + 1) * step], "little") for x in range(rows)]


def _unpack(rows: Sequence[int], w: int) -> np.ndarray:
    """The read-only boolean matrix of bitset rows with w columns;
    _bit_rows undone.  _frozen keeps it as it is."""
    step = (w + 7) // 8
    data = np.frombuffer(b"".join([r.to_bytes(step, "little") for r in rows]), np.uint8)
    bits = np.unpackbits(data.reshape(len(rows), step), axis=1, count=w, bitorder="little")
    return _readonly(bits).view(bool)


def _reach(rows: list[int]) -> tuple[list[list[int]] | None, list[int]]:
    """(covers, reach) of bitset rows, bit y of rows[x] set iff x <= y:
    reach[x] has bit y iff a chain x <= ... <= y of one or more steps
    exists, and is rows[x] itself when the two are equal, so a transitive
    relation's reach is its rows.

    One pass over the strong components, sinks first (Purdom, 1970): a
    component ORs its members' rows, then takes the lowest node not yet
    reached and ORs in that node's reach, until none is left.  When no
    related pair lies below the diagonal, index order is topological, the
    components are the single nodes from the last one down, and the nodes
    x takes are its covers, as nothing lies on a longer chain to them
    (the reverse sweep of Goralcikova and Koubek, 1979); covers[x] lists
    them ascending.  Otherwise covers is None."""
    topological = not any(row & ((1 << x) - 1) for x, row in enumerate(rows))
    if topological:
        components = [(x,) for x in range(len(rows) - 1, -1, -1)]
    else:
        components = strong_components(_successors(_unpack(rows, len(rows))))
    covers, reach = [], [0] * len(rows)
    for component in components:
        # a cycle's members are its members' successors, and never taken
        seen = own = 0
        for x in component:
            seen |= rows[x]
            own |= 1 << x
        todo, taken = seen & ~own, []
        while todo:
            y = (todo & -todo).bit_length() - 1
            taken.append(y)
            seen |= reach[y]
            todo &= ~(reach[y] | 1 << y)
        for x in component:
            reach[x] = rows[x] if seen == rows[x] else seen
        covers.append(taken)
    return (covers[::-1] if topological else None), reach


def _two_step_covers(noid: np.ndarray) -> np.ndarray:
    """[x, y]: x < y with no z such that x < z < y, where noid is the
    relation with its diagonal cleared.

    The middles come by the method of Four Russians (Arlazarov et al.,
    1970): byte c of packed row x says which of the rows 8c..8c+7 x steps
    to, and table[c, m] is the OR of the rows 8c + b for the bits b of m,
    so the OR of every row x steps to is the OR over c of table[c, byte
    c of row x].  Rows are ORed as 64-bit words, 16 bytes of columns at
    a time, so no array takes more than 2·w² bytes.  That reads w³/64
    bytes whatever the density, against w/8 per related pair for an OR
    over each row's successors: less once one pair in eight is related,
    as in the pointwise orders of t-norms (12–33% of pairs on random
    carriers, 23% on fork8)."""
    w = len(noid)
    packed = np.packbits(noid, axis=1, bitorder="little")  # byte c: noid[x, 8c:8c + 8]
    width, words = packed.shape[1], -(-packed.shape[1] // 8)
    rows = np.zeros((8 * width, 8 * words), np.uint8)  # rows past the last stay 0
    rows[:w, :width] = packed
    rows = rows.view(np.uint64)
    mid = np.zeros((w, words), np.uint64)  # [x]: the OR of the rows x steps to
    for c in range(0, width, 16):
        part = rows[8 * c:8 * c + 128].reshape(-1, 8, words)
        table = np.zeros((len(part), 256, words), np.uint64)
        for b in range(8):
            np.bitwise_or(table[:, :1 << b], part[:, b, None], out=table[:, 1 << b:2 << b])
        pick = packed[:, c:c + 16] + np.arange(0, 256 * len(part), 256)
        mid |= np.bitwise_or.reduce(table.reshape(-1, words).take(pick, axis=0), axis=1)
    between = np.unpackbits(mid.view(np.uint8), axis=1, count=w, bitorder="little")
    return noid & ~between.view(bool)


def _diagram(rows: Sequence[int]) -> HasseDiagram:
    """The diagram of the reflexive relation with bitset rows, bit y of
    rows[x] set iff x <= y.  When _reach gives covers and the rows as the
    reach (the transitive case), those are the covers, since a longer
    chain then has a middle element, and nothing is dashed or a back edge.
    Otherwise the covers come off the unpacked relation's two-step mask.
    When _reach gives covers but the reach is more than the rows (acyclic,
    not transitive), no related pair lies below the diagonal, so a chain
    only climbs: nothing is a back edge, and x < y is dashed exactly when
    bit y of reach[x] & ~rows[x] is set, one int per row, unpacked once.
    Otherwise the dashed pairs and back edges come off the unpacked
    reach."""
    rows = list(rows)  # as _reach's reach is, so that the two compare
    covers, reach = _reach(rows)
    if covers is not None and reach == rows:
        edges = tuple((x, y) for x, ys in enumerate(covers) for y in ys)
        return HasseDiagram(edges, dashed_pairs=(), back_edges=())
    w = len(rows)
    rel = _unpack(rows, w)
    noid = rel & ~np.eye(w, dtype=bool)
    if covers is not None:  # acyclic
        dashed, back = _unpack([up & ~row for row, up in zip(rows, reach)], w), []
    else:
        reach = _unpack(reach, w)
        dashed = np.triu(~rel & ~rel.T & (reach | reach.T), 1)
        back = _hits(noid & reach.T)
    return HasseDiagram(
        cover_edges=tuple(_hits(_two_step_covers(noid))),
        dashed_pairs=tuple(_hits(dashed)),
        back_edges=tuple(back),
    )


def hasse(p: Psoset) -> HasseDiagram:
    """The diagram of p's relation (see HasseDiagram).

    Covers come from the relation itself; dashed pairs and back edges
    need reachability, which for a pseudo-order can relate more than the
    relation does; both come from the one reach routine (see _diagram)."""
    return _diagram(_bit_rows(p.rel))
