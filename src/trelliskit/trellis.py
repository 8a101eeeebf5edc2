"""Meets and joins over pseudo-orders.

A trellis is a pseudo-ordered set in which every pair has a greatest lower
bound and a least upper bound, so `Trellis` is a `Psoset` that also carries
its meet and join tables; every function on psosets accepts one.  Unlike a
lattice the order need not be transitive, so the meet/join tables are
genuinely first-class data: most algebra below works off the tables, not
off order-theoretic shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AxiomsFailed, NotATrellis, NotModular, ValidationError
from .relation import (
    Psoset,
    _escapes,
    _first,
    _hits,
    _members,
    _nonempty,
    _readonly,
    _require_bounds,
    validate_psoset,
)


@dataclass(frozen=True, eq=False)
class Trellis(Psoset):
    """A psoset in which every pair has a meet and a join, with both tables."""

    meet: np.ndarray  # meet[x, y] = greatest lower bound
    join: np.ndarray

    _arrays = ("rel", "meet", "join")


@dataclass(frozen=True)
class StructureKind:
    is_meet_semi_trellis: bool
    is_join_semi_trellis: bool
    is_trellis: bool
    is_lattice: bool
    is_modular: bool | None  # None when not a trellis
    is_bounded: bool


def _greatest(sets: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """For each boolean row of sets (a subset of the carrier), the member
    that every member lies below under rel, or -1 when there is none (it
    is unique by antisymmetry).  With rel.T in place of rel this is the
    least member under rel."""
    # [..., g]: g is in the set and no member s of it has s not <= g
    top = sets & ~(sets @ ~rel)
    return np.where(top.any(axis=-1), top.argmax(axis=-1), -1).astype(np.int64)


def _bounds(rel: np.ndarray) -> np.ndarray:
    """[x, y, z]: z <= x and z <= y, the lower bounds of each pair."""
    return rel.T[:, None, :] & rel.T[None, :, :]


def infimum(p: Psoset, S) -> int | None:
    """Greatest lower bound of S, or None when it does not exist."""
    return _infimum(p, _nonempty(p, S, "infimum"))


def supremum(p: Psoset, S) -> int | None:
    return _supremum(p, _nonempty(p, S, "supremum"))


def _infimum(p: Psoset, members: list[int]) -> int | None:
    """infimum over members already checked by _nonempty."""
    g = int(_greatest(p.rel[:, members].all(axis=1), p.rel))
    return None if g < 0 else g


def _supremum(p: Psoset, members: list[int]) -> int | None:
    """supremum over members already checked by _nonempty."""
    g = int(_greatest(p.rel[members, :].all(axis=0), p.rel.T))
    return None if g < 0 else g


def _pair_tables(p: Psoset) -> tuple[np.ndarray, np.ndarray]:
    """Meet/join tables, -1 where a pair has none.  The join is the meet
    of the dual order."""
    return _greatest(_bounds(p.rel), p.rel), _greatest(_bounds(p.rel.T), p.rel.T)


def build_trellis(p: Psoset) -> tuple[Trellis, StructureKind]:
    """The trellis on p, as _as_trellis builds it, and its structure."""
    t = _as_trellis(p)
    return t, structure_kind(t)


def _as_trellis(p: Psoset) -> Trellis:
    """Materialize meet/join tables; raise NotATrellis on the first pair
    lacking one (lexicographically first in index order; the tables are
    symmetric, so that pair has x <= y).  A pair lacking both reports its
    meet."""
    meet, join = _pair_tables(p)
    # [x, y, k]: (x, y) has no meet (k = 0) or no join (k = 1)
    missing = _first(np.stack([meet < 0, join < 0], -1))
    if missing is not None:
        x, y, k = missing
        kind = ("meet", "join")[k]
        raise NotATrellis(
            f"pair ({p.names[x]}, {p.names[y]}) has no {kind}", pair=(x, y), kind=kind
        )
    return Trellis(p.names, p.rel, meet=_readonly(meet), join=_readonly(join))


def structure_kind(p: Psoset) -> StructureKind:
    """Structure flags; unlike build_trellis this never raises.  A Trellis
    brings its tables, any other psoset has them computed."""
    if isinstance(p, Trellis):
        t, has_meet, has_join = p, True, True
    else:
        meet, join = _pair_tables(p)
        has_meet = bool((meet >= 0).all())
        has_join = bool((join >= 0).all())
        t = Trellis(p.names, p.rel, meet, join) if has_meet and has_join else None
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
    """Outcome of the algebraic axiom check on a (meet, join) table pair;
    each field is a tuple, so a report cannot be changed."""

    commutative: tuple
    idempotent: tuple
    absorption: tuple
    part_preservation: tuple

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
    every violating tuple is reported, in row-major (lexicographic) order.

    Raises ValidationError unless both tables are square integer tables of
    one size with every entry in 0..n-1; its violations are the cells
    holding an entry outside that range, in row-major order."""
    meet, join = np.asarray(meet), np.asarray(join)
    if not (
        meet.ndim == 2
        and meet.shape[0] == meet.shape[1]
        and join.shape == meet.shape
        and np.issubdtype(meet.dtype, np.integer)
        and np.issubdtype(join.dtype, np.integer)
    ):
        raise ValidationError(
            f"meet and join must be square integer tables of one size, got "
            f"{meet.dtype} {meet.shape} and {join.dtype} {join.shape}"
        )
    n = meet.shape[0]
    outside = (meet < 0) | (meet >= n) | (join < 0) | (join >= n)
    if outside.any():
        cells = _hits(outside)
        raise ValidationError(f"table entries outside 0..{n - 1} at {cells}", cells)
    idx = np.arange(n)
    col = idx[:, None]
    idempotent = tuple(_hits((meet.diagonal() != idx) | (join.diagonal() != idx)))
    commutative = tuple(_hits((meet != meet.T) | (join != join.T)))
    # [x, y]: x v (y ^ x) = x = x ^ (y v x)
    absorption = tuple(_hits((join[col, meet.T] != col) | (meet[col, join.T] != col)))
    # [x, y, z]: x v ((x^y) v (x^z)) = x = x ^ ((xvy) ^ (xvz))
    x = idx[:, None, None]
    lhs = join[x, join[meet[:, :, None], meet[:, None, :]]]
    rhs = meet[x, meet[join[:, :, None], join[:, None, :]]]
    part = tuple(_hits((lhs != x) | (rhs != x)))
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
    p = validate_psoset(induced_order(np.asarray(meet), np.asarray(join)), names)
    meet = _readonly(np.array(meet, dtype=np.int64))
    join = _readonly(np.array(join, dtype=np.int64))
    return Trellis(p.names, p.rel, meet=meet, join=join)


def modular_violation(t: Trellis) -> tuple[int, int, int] | None:
    """First (x, y, z) in row-major (lexicographic) order with x <= z but
    x v (y ^ z) != (x v y) ^ z."""
    rel, meet, join = t.rel, t.meet, t.join
    x = np.arange(t.n)[:, None, None]
    # [x, y, z]: x <= z but x v (y ^ z) != (x v y) ^ z
    return _first(rel[:, None, :] & (join[x, meet] != meet[join]))


def is_modular(t: Trellis) -> bool:
    return modular_violation(t) is None


def _closed_under(table: np.ndarray, members: list[int]) -> bool:
    m = np.asarray(members, dtype=np.intp)
    inside = np.zeros(len(table), dtype=bool)
    inside[m] = True
    return bool(inside[table[m[:, None], m]].all())


def is_meet_sub_trellis(t: Trellis, A) -> bool:
    return _closed_under(t.meet, _members(t, A))


def is_join_sub_trellis(t: Trellis, A) -> bool:
    return _closed_under(t.join, _members(t, A))


def is_sub_trellis(t: Trellis, A) -> bool:
    members = _members(t, A)
    return _closed_under(t.meet, members) and _closed_under(t.join, members)


def is_sub_lattice(t: Trellis, A) -> bool:
    """Sub-trellis on which the order is transitive."""
    return _sub_lattice(t, _members(t, A))


def _sub_lattice(t: Trellis, members: list[int]) -> bool:
    """is_sub_lattice over members already checked by _members."""
    m = np.asarray(members, dtype=np.intp)
    return (
        _closed_under(t.meet, members)
        and _closed_under(t.join, members)
        and not _escapes(t.rel[m[:, None], m]).any()
    )


def modular_implication_check(t: Trellis) -> bool:
    """On a bounded modular trellis: x <= z and x v y = 1 force x ^ y <= z.
    Scans every triple; included as an executable sanity check."""
    _, top = _require_bounds(t)
    witness = modular_violation(t)
    if witness is not None:
        raise NotModular("not modular", witness)
    rel, meet, join = t.rel, t.meet, t.join
    # [x, y, z]: x v y = 1 and x <= z, yet x ^ y is not below z
    return not ((join == top)[:, :, None] & rel[:, None, :] & ~rel[meet]).any()

