"""Meets and joins over pseudo-orders.

A trellis is a pseudo-ordered set in which every pair has a greatest lower
bound and a least upper bound.  Unlike a lattice the order need not be
transitive, so the meet/join tables are genuinely first-class data: most
algebra below works off the tables, not off order-theoretic shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AxiomsFailed, EmptySubset, NotATrellis, NotBounded, NotModular
from .relation import (
    Psoset,
    _first,
    down_set,
    maximal_cycles,
    up_set,
    validate_psoset,
)


@dataclass(eq=False)
class Trellis:
    base: Psoset
    meet: np.ndarray  # meet[x, y] = index of the greatest lower bound
    join: np.ndarray

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def names(self):
        return self.base.names

    @property
    def rel(self) -> np.ndarray:
        return self.base.rel

    @property
    def bottom(self):
        return self.base.bottom

    @property
    def top(self):
        return self.base.top

    def index(self, name: str) -> int:
        return self.base.index(name)

    def indices(self, names) -> frozenset[int]:
        return self.base.indices(names)

    def labels(self, subset):
        return self.base.labels(subset)

    def leq(self, x: int, y: int) -> bool:
        return self.base.leq(x, y)


@dataclass(frozen=True)
class StructureKind:
    is_meet_semi_trellis: bool
    is_join_semi_trellis: bool
    is_trellis: bool
    is_lattice: bool
    is_modular: bool | None  # None when not a trellis
    is_bounded: bool


def infimum(p: Psoset, S) -> int | None:
    """Greatest lower bound of S, or None when it does not exist."""
    members = sorted(set(S))
    if not members:
        raise EmptySubset("infimum of empty subset")
    lower = p.rel[:, members].all(axis=1)
    lows = np.flatnonzero(lower)
    for g in lows:
        if p.rel[lows, g].all():
            return int(g)  # unique by antisymmetry
    return None


def supremum(p: Psoset, S) -> int | None:
    members = sorted(set(S))
    if not members:
        raise EmptySubset("supremum of empty subset")
    upper = p.rel[members, :].all(axis=0)
    ups = np.flatnonzero(upper)
    for g in ups:
        if p.rel[g, ups].all():
            return int(g)
    return None


def _pair_tables(p: Psoset):
    """Meet/join tables; returns (meet, join, first missing meet pair,
    first missing join pair)."""
    n = p.n
    meet = np.full((n, n), -1, dtype=np.int64)
    join = np.full((n, n), -1, dtype=np.int64)
    missing_meet = missing_join = None
    for x in range(n):
        for y in range(x, n):
            m = infimum(p, (x, y))
            j = supremum(p, (x, y))
            if m is None and missing_meet is None:
                missing_meet = (x, y)
            if j is None and missing_join is None:
                missing_join = (x, y)
            meet[x, y] = meet[y, x] = -1 if m is None else m
            join[x, y] = join[y, x] = -1 if j is None else j
    return meet, join, missing_meet, missing_join


def build_trellis(p: Psoset) -> tuple[Trellis, StructureKind]:
    """Materialize meet/join tables; raise NotATrellis on the first pair
    lacking one (lexicographically first in index order)."""
    meet, join, missing_meet, missing_join = _pair_tables(p)
    if missing_meet is not None or missing_join is not None:
        pair, kind = missing_meet, "meet"
        if missing_meet is None or (
            missing_join is not None and missing_join < missing_meet
        ):
            pair, kind = missing_join, "join"
        x, y = pair
        raise NotATrellis(
            f"pair ({p.names[x]}, {p.names[y]}) has no {kind}", pair=pair, kind=kind
        )
    meet.setflags(write=False)
    join.setflags(write=False)
    t = Trellis(base=p, meet=meet, join=join)
    return t, structure_kind(p, t)


def structure_kind(p: Psoset, t: Trellis | None = None) -> StructureKind:
    """Structure flags; unlike build_trellis this never raises."""
    if t is None:
        meet, join, missing_meet, missing_join = _pair_tables(p)
        has_meet = missing_meet is None
        has_join = missing_join is None
        t = Trellis(base=p, meet=meet, join=join) if has_meet and has_join else None
    else:
        has_meet = has_join = True
    is_trellis = has_meet and has_join
    is_lattice = is_trellis and p.is_transitive()
    modular = None
    if is_trellis:
        modular = modular_violation(t) is None
    return StructureKind(
        is_meet_semi_trellis=has_meet,
        is_join_semi_trellis=has_join,
        is_trellis=is_trellis,
        is_lattice=is_lattice,
        is_modular=modular,
        is_bounded=p.bottom is not None and p.top is not None,
    )


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the algebraic axiom check on a (meet, join) table pair."""

    commutative: list
    idempotent: list
    absorption: list
    part_preservation: list

    @property
    def ok(self) -> bool:
        return not (
            self.commutative
            or self.idempotent
            or self.absorption
            or self.part_preservation
        )


def check_skala_axioms(meet: np.ndarray, join: np.ndarray) -> AxiomReport:
    """Verify commutativity, idempotence, absorption and part-preservation;
    every violating tuple is reported (row-major order)."""
    n = meet.shape[0]
    idx = np.arange(n)
    col = idx[:, None]

    def tuples(mask, *lead):
        return [(*lead, *hit) for hit in np.argwhere(mask).tolist()]

    idempotent = tuples((meet.diagonal() != idx) | (join.diagonal() != idx))
    commutative = tuples((meet != meet.T) | (join != join.T))
    # [x, y]: x v (y ^ x) = x = x ^ (y v x)
    absorption = tuples((join[col, meet.T] != col) | (meet[col, join.T] != col))
    part = []
    for x in range(n):
        # [y, z]: x v ((x^y) v (x^z)) = x = x ^ ((xvy) ^ (xvz))
        lhs = join[x][join[meet[x][:, None], meet[x]]]
        rhs = meet[x][meet[join[x][:, None], join[x]]]
        part += tuples((lhs != x) | (rhs != x), x)
    return AxiomReport(commutative, idempotent, absorption, part)


def induced_order(meet: np.ndarray, join: np.ndarray) -> np.ndarray:
    """Recover the relation from the algebra: x <= y iff x ^ y = x or
    x v y = y.  Tables must pass the axiom check first."""
    report = check_skala_axioms(meet, join)
    if not report.ok:
        raise AxiomsFailed("tables fail the algebraic axioms", report)
    n = meet.shape[0]
    eye_x = np.arange(n)[:, None]
    eye_y = np.arange(n)[None, :]
    return (meet == eye_x) | (join == eye_y)


def trellis_from_tables(names, meet, join) -> Trellis:
    """Build a Trellis from algebra tables alone (relation is derived)."""
    rel = induced_order(np.asarray(meet), np.asarray(join))
    p = validate_psoset(rel, names)
    meet = np.asarray(meet, dtype=np.int64).copy()
    join = np.asarray(join, dtype=np.int64).copy()
    meet.setflags(write=False)
    join.setflags(write=False)
    return Trellis(base=p, meet=meet, join=join)


def modular_violation(t: Trellis) -> tuple[int, int, int] | None:
    """First (x, y, z) with x <= z but x v (y ^ z) != (x v y) ^ z."""
    rel, meet, join = t.rel, t.meet, t.join
    for x in range(t.n):
        # [y, z]: x <= z but x v (y ^ z) != (x v y) ^ z
        hit = _first(rel[x] & (join[x][meet] != meet[join[x]]))
        if hit is not None:
            return (x, *hit)
    return None


def is_modular(t: Trellis) -> bool:
    return modular_violation(t) is None


def _closed_under(table: np.ndarray, members: list[int]) -> bool:
    sub = table[np.ix_(members, members)]
    return bool(np.isin(sub, members).all())


def is_meet_sub_trellis(t: Trellis, A) -> bool:
    return _closed_under(t.meet, sorted(set(A)))


def is_join_sub_trellis(t: Trellis, A) -> bool:
    return _closed_under(t.join, sorted(set(A)))


def is_sub_trellis(t: Trellis, A) -> bool:
    members = sorted(set(A))
    return _closed_under(t.meet, members) and _closed_under(t.join, members)


def is_sub_lattice(t: Trellis, A) -> bool:
    """Sub-trellis on which the order is transitive."""
    members = sorted(set(A))
    if not is_sub_trellis(t, members):
        return False
    sub = t.rel[np.ix_(members, members)]
    two_step = sub @ sub
    return bool((~two_step | sub).all())


def modular_implication_check(t: Trellis) -> bool:
    """On a bounded modular trellis: x <= z and x v y = 1 force x ^ y <= z.
    Scans every triple; included as an executable sanity check."""
    if t.top is None or t.bottom is None:
        raise NotBounded("check needs bottom and top")
    witness = modular_violation(t)
    if witness is not None:
        raise NotModular("not modular", witness)
    rel, meet, join = t.rel, t.meet, t.join
    for x in range(t.n):
        # [y, z]: x v y = 1 and x <= z, yet x ^ y is not below z
        if ((join[x] == t.top)[:, None] & rel[x] & ~rel[meet[x]]).any():
            return False
    return True


__all__ = [
    "Trellis",
    "StructureKind",
    "AxiomReport",
    "infimum",
    "supremum",
    "build_trellis",
    "structure_kind",
    "check_skala_axioms",
    "induced_order",
    "trellis_from_tables",
    "modular_violation",
    "is_modular",
    "is_meet_sub_trellis",
    "is_join_sub_trellis",
    "is_sub_trellis",
    "is_sub_lattice",
    "modular_implication_check",
    "maximal_cycles",
    "down_set",
    "up_set",
]
