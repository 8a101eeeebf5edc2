"""Binary operation tables on bounded pseudo-orders and the t-norm zoo.

A t-norm here is a commutative, associative binary operation with the top
as neutral element that is increasing in both arguments *jointly*:
x <= y and z <= t force T(x, z) <= T(y, t).  On a transitive order the
joint form follows from one-sided monotonicity; without transitivity it is
strictly stronger, which is where most of the interesting behaviour lives.

Constructions provided:

  t_drastic        top acts neutrally, everything else collapses to bottom
  t_coatom         like drastic but one co-atom survives on the diagonal
  t_join_cover     meet where the pair joins to the top, bottom elsewhere
  tnorm_via_interior   neutral top; elsewhere feed the images under an
                       interior operator to an operation on its range
  tnorm_via_subset     same, with the interior operator derived from a
                       subset (join of the subset members below x)
  scaled_meet      (x ^ y) ^ a on a bounded sub-lattice — the standard
                   supply of operations for the two constructions above
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, getitem
from types import MappingProxyType

import numpy as np

from .errors import (
    ElementNotInSubset,
    NotACoAtom,
    NotASubLattice,
    RangeNotRightTransitive,
    TargetMismatch,
    VNotATnorm,
)
from .interior import UnaryMap, interior_from_subset, interior_range
from .relation import (
    Psoset,
    _bit_rows,
    _first,
    _frozen,
    _hits,
    _member,
    _members,
    _nonempty,
    _readonly,
    _require_bounds,
    _require_side,
    _unpack,
    co_atoms,
    validate_psoset,
)
from .trellis import Trellis, _as_trellis, _sub_lattice


@dataclass(frozen=True, eq=False)
class BinaryOpTable:
    """An operation on the carrier.  Frozen like the carrier, with its
    table as relation._frozen leaves it: a read-only view over read-only
    arrays, such as a row of an enumeration's stack, stays a view."""

    target: Psoset
    table: np.ndarray  # table[x, y] = element index

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _frozen(self.table))

    @property
    def n(self) -> int:
        return self.table.shape[0]

    @property
    def names(self):
        return self.target.names

    def __call__(self, x: int, y: int) -> int:
        return int(self.table[_member(self.target, x), _member(self.target, y)])

    def same_op(self, other: "BinaryOpTable") -> bool:
        return self.target.same_carrier(other.target) and np.array_equal(
            self.table, other.table
        )


def make_op(target, table) -> BinaryOpTable:
    """The operation with this table as a frozen int64 array (a table
    that could still be written is copied); ValueError unless it is an
    n x n integer table with entries in 0..n-1."""
    table = np.asarray(table)
    if table.shape != (target.n, target.n):
        raise ValueError(f"table shape {table.shape} does not match carrier")
    if table.dtype.kind not in "iu":  # no bools, no floats to truncate
        raise ValueError(f"table must hold integers, got {table.dtype}")
    if table.min() < 0 or table.max() >= target.n:
        cells = _hits((table < 0) | (table >= target.n))
        raise ValueError(f"table entries outside 0..{target.n - 1} at {cells}")
    # an int64 table is copied once, by BinaryOpTable
    return BinaryOpTable(target=target, table=table.astype(np.int64, copy=False))


def meet_op(t: Trellis) -> BinaryOpTable:
    return BinaryOpTable(target=t, table=t.meet)


def join_op(t: Trellis) -> BinaryOpTable:
    return BinaryOpTable(target=t, table=t.join)


@dataclass(frozen=True)
class TnormReport:
    """Flag -> True/False, or None when the flag does not apply (no top,
    or no meet/join tables on the carrier).  `witnesses[flag]` holds the
    lexicographically first violating tuple for each failed flag.  Frozen,
    with witnesses a read-only mapping, so a report cannot be changed."""

    commutative: bool | None = None
    associative: bool | None = None
    neutral_top: bool | None = None
    increasing: bool | None = None
    left_increasing: bool | None = None
    right_increasing: bool | None = None
    conjunctive: bool | None = None
    disjunctive: bool | None = None
    idempotent: bool | None = None
    meet_preserving: bool | None = None
    witnesses: Mapping[str, tuple] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "witnesses", MappingProxyType(dict(self.witnesses)))

    @property
    def is_tnorm(self) -> bool:
        return all(getattr(self, axiom) for axiom in _AXIOMS)


def _axiom_bad(axiom: str, tabs: np.ndarray, rel: np.ndarray, top: int) -> np.ndarray:
    """Violation mask of one of the four t-norm axioms over a (b, n, n)
    stack of tables, with the table axis first.  Increasing and
    associative gather with ndarray.take from the flattened stack:
    increasing at cell x * n + y of each table, associative whole rows,
    row x of table i being row i * n + x of the stack."""
    n = tabs.shape[-1]
    if axiom == "neutral_top":  # [b, x]: T(x, top) != x or T(top, x) != x
        idx = np.arange(n)
        return (tabs[:, :, top] != idx) | (tabs[:, top, :] != idx)
    if axiom == "commutative":  # [b, x, y]: T(x, y) != T(y, x)
        return tabs != tabs.transpose(0, 2, 1)
    if axiom == "increasing":
        # [b, p, q]: not T(x, z) <= T(y, t), for the related pairs p = (x, y)
        # and q = (z, t) numbered in the row-major order of np.nonzero(rel)
        lo, hi = rel.nonzero()
        flat = tabs.reshape(len(tabs), n * n)
        # [b, p, q]: the cell T(x, z) * n + T(y, t) of rel
        cell = (flat * n).take(lo[:, None] * n + lo, axis=1)
        cell += flat.take(hi[:, None] * n + hi, axis=1)
        return ~rel.take(cell)
    # associative, [b, x, y, z]: T(T(x, y), z) != T(x, T(y, z)); the
    # second is row T(y, z) of the transposed table at x.  row[i, x, y]
    # is where row T(x, y) of table i sits in the stack.
    row = tabs + np.arange(0, len(tabs) * n, n)[:, None, None]
    left = tabs.reshape(-1, n).take(row, axis=0)
    right = tabs.transpose(0, 2, 1).reshape(-1, n).take(row, axis=0)
    return left != right.transpose(0, 3, 1, 2)


_AXIOMS = ("neutral_top", "commutative", "increasing", "associative")  # cheapest first


def _tnorm_mask(
    tabs: np.ndarray, rel: np.ndarray, top: int | None, axioms=_AXIOMS
) -> np.ndarray:
    """(b,) bool: which tables of the (b, n, n) stack satisfy every one of
    the axioms, by default the four that make a t-norm.  Each axiom only
    runs on the tables that passed the ones before it.  One any() over an
    axiom's whole mask decides whether some table failed it; only then is
    the mask reduced per table and the stack cut down to the survivors."""
    keep = np.ones(len(tabs), dtype=bool)
    live = tabs
    for axiom in axioms:
        if not len(live):
            break
        bad = _axiom_bad(axiom, live, rel, top)
        if bad.any():
            keep[keep] = ~bad.reshape(len(live), -1).any(axis=1)
            live = tabs[keep]
    return keep


def _conjunctive_bad(tab: np.ndarray, t: Trellis) -> np.ndarray:
    """[x, y]: not T(x, y) <= x ^ y."""
    return ~t.rel[tab, t.meet]


def _meet_preserving_bad(tab: np.ndarray, t: Trellis) -> np.ndarray:
    """[x, y, z]: T(x, y ^ z) != T(x, y) ^ T(x, z)."""
    return tab[:, t.meet] != t.meet[tab[:, :, None], tab[:, None, :]]


# Witnesses whose leading coordinates number related pairs, and how many.
_PAIR_AXES = {"increasing": 2, "left_increasing": 1, "right_increasing": 1}


def check(op: BinaryOpTable) -> TnormReport:
    """Exhaustive axiom scan with deterministic first witnesses.

    Each flag has a violation mask; on failure its witness is the first
    violation of that mask in row-major order.
    """
    tab, target = op.table, op.target
    rel, top = target.rel, target.top
    bad = {
        axiom: _axiom_bad(axiom, tab[None], rel, top)[0]
        for axiom in _AXIOMS
        if top is not None or axiom != "neutral_top"
    }
    # lo[p] <= hi[p] runs over the related pairs in row-major order, so a
    # first hit at pair index p keeps the witness lexicographic in (x, y).
    lo, hi = np.nonzero(rel)
    # [p, z]: not T(x, z) <= T(y, z), and not T(z, x) <= T(z, y)
    bad["left_increasing"] = ~rel[tab[lo, :], tab[hi, :]]
    bad["right_increasing"] = ~rel[tab[:, lo], tab[:, hi]].T
    bad["idempotent"] = tab.diagonal() != np.arange(op.n)
    if isinstance(target, Trellis):
        bad["conjunctive"] = _conjunctive_bad(tab, target)
        bad["disjunctive"] = ~rel[target.join, tab]
        bad["meet_preserving"] = _meet_preserving_bad(tab, target)

    flags, witnesses = {}, {}
    for name, mask in bad.items():
        hit = _first(mask)
        flags[name] = hit is None
        if hit is not None:
            k = _PAIR_AXES.get(name, 0)
            pairs = tuple(v for p in hit[:k] for v in (int(lo[p]), int(hi[p])))
            witnesses[name] = pairs + hit[k:]
    return TnormReport(**flags, witnesses=witnesses)


def _neutral_top(p: Psoset, tab: np.ndarray) -> BinaryOpTable:
    """tab, a fresh array, with the top made neutral: T(top, y) = y and
    T(x, top) = x overwrite whatever was gathered there."""
    idx = np.arange(p.n)
    tab[p.top, :] = idx
    tab[:, p.top] = idx
    return BinaryOpTable(target=p, table=_readonly(tab))


def t_drastic(p: Psoset) -> BinaryOpTable:
    """Smallest t-norm: neutral top, everything else goes to bottom."""
    bottom, _ = _require_bounds(p)
    return _neutral_top(p, np.full((p.n, p.n), bottom, dtype=np.int64))


def t_coatom(p: Psoset, i: int) -> BinaryOpTable:
    """Drastic everywhere except T(i, i) = i for a chosen co-atom i."""
    _require_bounds(p)
    i = _member(p, i)
    if i not in co_atoms(p):
        raise NotACoAtom(f"{p.names[i]} is not a co-atom")
    op = t_drastic(p)
    tab = op.table.copy()
    tab[i, i] = i
    return BinaryOpTable(target=p, table=_readonly(tab))


def join_cover_witness(t: Trellis) -> tuple[int, int, int, int] | None:
    """First (x, y, z, w) in row-major (lexicographic) order with
    x ^ y != bottom, x v y = top, yet (x v z) v (y v w) != top.  None when
    the condition holds."""
    bottom, top = _require_bounds(t)
    meet, join = t.meet, t.join
    covers, off_top = (meet != bottom) & (join == top), join != top
    for x in np.flatnonzero(covers.any(axis=1)).tolist():
        # [y, z, w]: x ^ y != bottom, x v y = top, yet (x v z) v (y v w) != top
        hit = _first(
            covers[x, :, None, None] & off_top[join[x, :, None], join[:, None]]
        )
        if hit is not None:
            return (x, *hit)
    return None


def join_cover_condition(t: Trellis) -> bool:
    """Whether pairs joining to the top keep doing so after inflating both
    sides by arbitrary joins — the exact condition under which
    t_join_cover is monotone on a bounded modular trellis."""
    return join_cover_witness(t) is None


def t_join_cover(t: Trellis) -> BinaryOpTable:
    """Meet when the pair joins to the top, bottom otherwise.

    Always commutative, associative and neutral-topped; increasing (hence
    a t-norm) on a bounded modular trellis exactly when
    join_cover_condition holds.  The table is produced unconditionally so
    the failure mode can be inspected via check()."""
    bottom, top = _require_bounds(t)
    tab = np.where(t.join == top, t.meet, bottom)
    return BinaryOpTable(target=t, table=_readonly(tab))


def restrict(t: Trellis, A) -> tuple[Trellis, list[int]]:
    """Carrier restriction: meets/joins recomputed inside A.

    Returns the restricted trellis plus the sorted member list mapping
    local indices back to global ones."""
    members = _nonempty(t, A, "restriction")
    m = np.asarray(members, dtype=np.intp)
    sub_p = validate_psoset(t.rel[m[:, None], m], [t.names[x] for x in members])
    return _as_trellis(sub_p), members


def scaled_meet(t: Trellis, A, a: int) -> BinaryOpTable:
    """V(x, y) = (x ^ y) ^ a on a bounded sub-lattice A containing a.

    Conjunctive, commutative, associative and increasing on the
    restriction; for a below the restriction's top it has no neutral
    element, which is fine for the interior-based constructions."""
    members, a = _members(t, A), _member(t, a)
    if not _sub_lattice(t, members):
        raise NotASubLattice(f"{t.labels(members)} is not a sub-lattice")
    if a not in members:
        raise ElementNotInSubset(f"{t.names[a]} not in the sub-lattice")
    # A is closed under the carrier's meet and join, and a bound of x, y
    # inside A is one in the carrier, so A's tables are the carrier's read
    # at A.
    m = np.array(members, dtype=np.intp)
    rel = _readonly(t.rel[m[:, None], m])
    meet, join = (
        _readonly(np.searchsorted(m, table[m[:, None], m])) for table in (t.meet, t.join)
    )
    names = tuple(t.names[x] for x in members)
    sub = Trellis(names, rel, meet=meet, join=join)
    tab = meet[meet, members.index(a)]
    return BinaryOpTable(target=sub, table=_readonly(tab))


_GATE_AXIOMS = ("commutative", "increasing", "associative")  # cheapest first


def _gate_v(t: Trellis, image: np.ndarray, v: BinaryOpTable) -> None:
    """The range operation must live on the range and be commutative,
    associative, increasing and bounded above by the range's meet.  (A
    neutral element is NOT required: the construction never evaluates v
    against the original top, and the useful suppliers — scaled meets —
    generally lack one.)  The flags are read from the masks check() reads
    them from; its full report is built only for the error."""
    names = tuple(t.names[x] for x in image)
    on_range = Psoset(names=names, rel=_readonly(t.rel[image[:, None], image]))
    tab, target = v.table, v.target
    if not target.same_carrier(on_range):
        raise VNotATnorm("operation is not defined on the operator's range", check(v))
    if not (
        isinstance(target, Trellis)
        and not _conjunctive_bad(tab, target).any()
        and _tnorm_mask(tab[None], target.rel, target.top, _GATE_AXIOMS)[0]
    ):
        raise VNotATnorm(
            "range operation must be commutative, associative, increasing "
            "and conjunctive on the range",
            check(v),
        )


def _meet_of_images(t: Trellis, f: np.ndarray) -> BinaryOpTable:
    """Neutral top; elsewhere the carrier's meet of the images f[x], f[y]."""
    f = np.asarray(f, dtype=np.intp)
    return _neutral_top(t, t.meet[f[:, None], f])


def tnorm_via_interior(
    t: Trellis, im: UnaryMap, v: BinaryOpTable | None = None
) -> BinaryOpTable:
    """T(x, y) = x or y when the other argument is the top; otherwise apply
    v to the interior images of x and y.

    v defaults to the range's meet, which makes the result meet-preserving;
    the range is closed under meets (the homomorphism axiom), so that is
    the carrier's meet of the images.  Every member of the range must be
    right-transitive — that is what makes the construction monotone."""
    _require_bounds(t)
    image = sorted(interior_range(t, im))
    _require_side(t, image, "right", RangeNotRightTransitive)
    if v is None:
        return _meet_of_images(t, im.map)
    members = np.array(image, dtype=np.intp)
    _gate_v(t, members, v)
    loc = np.searchsorted(members, im.map)  # local index of each image
    return _neutral_top(t, members[v.table[loc[:, None], loc]])


def tnorm_via_subset(
    t: Trellis, A, v: BinaryOpTable | None = None, *, unchecked: bool = False
) -> BinaryOpTable:
    """Interior-based construction with the interior operator derived from
    the subset A (join of A-members below each point).

    With unchecked=True the interior axioms are not validated and the
    neutral-top formula is applied with the global meet of the images —
    useful for demonstrating how the construction breaks when A is not
    closed under meets.  Results are then generally NOT t-norms."""
    if unchecked:
        if v is not None:
            raise ValueError("unchecked mode always uses the global meet")
        return _meet_of_images(t, interior_from_subset(t, A).map)
    im = interior_from_subset(t, A)
    return tnorm_via_interior(t, im, v)


def pointwise_leq(a: BinaryOpTable, b: BinaryOpTable) -> bool:
    """a <= b cellwise in the carrier's order; carriers must match."""
    if not a.target.same_carrier(b.target):
        raise TargetMismatch("operations live on different carriers")
    return bool(a.target.rel[a.table, b.table].all())


def _order_rows(lower, rel: np.ndarray, upper=None) -> list[int]:
    """Row a of the order as an int: bit b set iff lower[a] <= upper[b]
    cellwise under rel.

    lower and upper are sequences of (n, n) tables on the carrier whose
    relation is rel; upper defaults to lower.  Per cell k and value v the
    set {b : rel[v, upper[b][k]]} is one int, so row a is the AND of the
    sets picked by lower[a]'s entries.  A cell that holds one value v in
    every table of lower and upper is skipped: as rel is reflexive, its
    set for v holds every b.
    """
    n = rel.shape[0]
    low = np.asarray(lower, dtype=np.intp).reshape(-1, n * n)
    up = low if upper is None else np.asarray(upper, dtype=np.intp).reshape(-1, n * n)
    both = low if upper is None else np.concatenate([low, up])
    kept = np.flatnonzero((both != both[:1]).any(axis=0))
    # bits[k, v] packs {b : rel[v, up[b, kept[k]]]}
    bits = np.packbits(rel[:, up[:, kept].T].transpose(1, 0, 2), axis=-1, bitorder="little")
    sets = _bit_rows(bits.reshape(len(kept) * n, bits.shape[-1]))
    picks = [sets[k * n:(k + 1) * n] for k in range(len(kept))]
    full = (1 << len(up)) - 1
    return [reduce(and_, map(getitem, picks, row), full) for row in low[:, kept].tolist()]


def pointwise_order(lower, rel: np.ndarray, upper=None) -> np.ndarray:
    """order[a, b] iff lower[a] <= upper[b] cellwise under rel; upper
    defaults to lower (see _order_rows)."""
    w = len(lower if upper is None else upper)
    return _unpack(_order_rows(lower, rel, upper), w)
