"""Finite pseudo-orders: reflexive antisymmetric relations without the
transitivity requirement.

The relation is an n x n boolean matrix, rel[x, y] meaning x <= y.  Because
transitivity is not assumed, "x can be reached from y through a chain of
related elements" (reachability) is genuinely weaker than the relation
itself and gets its own operations here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _escapes(rel: np.ndarray) -> np.ndarray:
    """[a, y]: some x with a <= x <= y, yet not a <= y.  rel is transitive
    exactly when this is empty."""
    return (rel @ rel) & ~rel


def _side_masks(rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rtr and ltr masks, from the two-step relation alone."""
    escapes = _escapes(rel)
    return ~escapes.any(axis=1), ~escapes.any(axis=0)


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
    ok = _side_masks(p.rel)[side == "left"]
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


# Where packing starts to pay.  Best-of-20 closure times in ms, unpacked /
# packed, on a 2-vCPU Intel Xeon (Python 3.11, numpy 2.4):
#   t-norm orders of diamond7, hourglass7, twin_peaks7 (n = 103-151):
#       0.65-1.5 / 1.1-2.5
#   random relations, about 4 successors per node:
#       n = 8: 0.029 / 0.083    n = 300: 5.1 / 5.9    n = 350: 8.0 / 7.9
#       n = 512: 16 / 14
#   samples of fork8's t-norm order:
#       n = 256: 3.1-3.5 / 2.9-3.9    n = 320: 5.4-5.7 / 4.2-5.0
#       n = 384: 8.5-10 / 5.2-7.7
#   fork8's t-norm order (n = 764): 61 / 15
_PACK_FROM = 320


def transitive_closure(rel: np.ndarray) -> np.ndarray:
    """Transitive closure (reflexive when rel is), by Warshall's algorithm:
    after step k every chain through intermediates among 0..k is closed.

    Below _PACK_FROM nodes each step ORs column k's outer product into the
    boolean matrix.  From _PACK_FROM on the rows are packed eight nodes a
    byte, and step k ORs row k into just the rows that reach k."""
    n = len(rel)
    if n < _PACK_FROM:
        closure = np.array(rel, dtype=bool)
        for k in range(n):
            closure |= closure[:, k, None] & closure[k]
        return closure
    rows = np.packbits(np.asarray(rel, dtype=bool), axis=1)
    for k in range(n):
        hit = np.flatnonzero(rows[:, k >> 3] & (0x80 >> (k & 7)))
        rows[hit] |= rows[k]
    return np.unpackbits(rows, axis=1, count=n).view(bool)


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


@dataclass(eq=False)
class Psoset:
    """A finite pseudo-ordered set: named elements plus a reflexive,
    antisymmetric (not necessarily transitive) relation."""

    names: tuple[str, ...]
    rel: np.ndarray
    bottom: int | None = None
    top: int | None = None
    _closure: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def indices(self, names) -> frozenset[int]:
        return frozenset(self.index(s) for s in names)

    def labels(self, subset) -> tuple[str, ...]:
        return tuple(self.names[i] for i in sorted(subset))

    def leq(self, x: int, y: int) -> bool:
        return bool(self.rel[x, y])

    @property
    def closure(self) -> np.ndarray:
        if self._closure is None:
            self._closure = transitive_closure(self.rel)
            self._closure.setflags(write=False)
        return self._closure

    def is_transitive(self) -> bool:
        return not _escapes(self.rel).any()

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
    """Check reflexivity/antisymmetry and detect bottom/top.

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
    rel = rel.copy()
    rel.setflags(write=False)
    bottoms = np.flatnonzero(rel.all(axis=1))
    tops = np.flatnonzero(rel.all(axis=0))
    # antisymmetry makes each unique when present
    bottom = int(bottoms[0]) if len(bottoms) else None
    top = int(tops[0]) if len(tops) else None
    return Psoset(names=names, rel=rel, bottom=bottom, top=top)


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
    succ = [np.flatnonzero(row).tolist() for row in p.rel]
    cycles = [c for c in strong_components(succ) if len(c) >= 2]
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


def hasse(p: Psoset) -> HasseDiagram:
    """The diagram of p's relation (see HasseDiagram), each field read
    once from its mask through _hits.

    Covers come from the relation itself; dashed pairs and back edges
    need reachability, so they read the transitive closure, which for a
    pseudo-order can relate more than the relation does."""
    eye = np.eye(p.n, dtype=bool)
    noid = p.rel & ~eye
    rows = np.packbits(noid, axis=1)
    mid = np.zeros_like(rows)  # [x, y] bit: some z with x < z < y
    for x in range(p.n):
        mid[x] = np.bitwise_or.reduce(rows[noid[x]], axis=0)
    has_mid = np.unpackbits(mid, axis=1, count=p.n).view(bool)
    reach = p.closure
    dashed = ~p.rel & ~p.rel.T & (reach | reach.T) & ~eye
    return HasseDiagram(
        cover_edges=tuple(_hits(noid & ~has_mid)),
        dashed_pairs=tuple(_hits(np.triu(dashed))),
        back_edges=tuple(_hits(noid & reach.T)),
    )
