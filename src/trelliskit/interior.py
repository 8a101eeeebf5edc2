"""Interior operators: contractive, idempotent meet-homomorphisms.

The workhorse here is the map sending x to the join of all members of a
fixed subset A lying below x.  When A is well-behaved (contains the bottom,
all members right-transitive, closed under meet and join) that map is an
interior operator whose range is exactly A, and it is the bridge between
subsets and the t-norm constructions in tnorms.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BottomMissing,
    NotAnInteriorOperator,
    NotRightTransitiveSubset,
    ValidationError,
)
from .relation import (
    _frozen,
    _hits,
    _member,
    _members,
    _readonly,
    _require_bounds,
    _require_side,
)
from .trellis import Trellis, _greatest


@dataclass(frozen=True, eq=False)
class UnaryMap:
    """A map on the carrier.  Frozen like the carrier, with its map array
    as relation._frozen leaves it, so its interior report is computed on
    first read and then cached."""

    target: Trellis
    map: np.ndarray  # map[x] = image of x

    def __post_init__(self) -> None:
        object.__setattr__(self, "map", _frozen(self.map))

    @property
    def n(self) -> int:
        return self.target.n

    @cached_property
    def report(self) -> InteriorReport:
        """validate_interior(target, self); a malformed map raises
        ValidationError on every read, since a raise is not cached."""
        return validate_interior(self.target, self)

    def __call__(self, x: int) -> int:
        return int(self.map[_member(self.target, x)])

    def image(self) -> frozenset[int]:
        return frozenset(int(v) for v in self.map)


@dataclass(frozen=True)
class InteriorReport:
    """Axioms: contractive I(x) <= x, idempotent I(I(x)) = I(x), and
    I(x ^ y) = I(x) ^ I(y).  Derived facts (they follow from the axioms,
    listed for diagnostics): fixed on the range, increasing."""

    contractive: tuple
    idempotent: tuple
    meet_homomorphism: tuple
    fixed_on_range: tuple
    increasing: tuple

    @property
    def ok(self) -> bool:
        return not (self.contractive or self.idempotent or self.meet_homomorphism)


def validate_interior(t: Trellis, m: UnaryMap) -> InteriorReport:
    """Check the interior axioms; each field is a tuple of its violating
    elements or pairs in row-major (lexicographic) order, so a report that
    UnaryMap caches cannot be changed.  Raises ValidationError
    unless the map is an integer array of length n with entries in 0..n-1;
    its violations are the positions holding an entry outside that range."""
    rel, meet, n = t.rel, t.meet, t.n
    f = np.asarray(m.map)
    if f.shape != (n,) or not np.issubdtype(f.dtype, np.integer):
        raise ValidationError(
            f"map must be an integer array of length {n}, got {f.dtype} {f.shape}"
        )
    outside = np.flatnonzero((f < 0) | (f >= n)).tolist()
    if outside:
        raise ValidationError(f"map entries outside 0..{n - 1} at {outside}", outside)
    idx = np.arange(n)
    in_image = np.zeros(n, dtype=bool)
    in_image[f] = True
    return InteriorReport(
        contractive=tuple(np.flatnonzero(~rel[f, idx]).tolist()),
        idempotent=tuple(np.flatnonzero(f[f] != f).tolist()),
        meet_homomorphism=tuple(_hits(f[meet] != meet[f[:, None], f])),
        fixed_on_range=tuple(np.flatnonzero(in_image & (f != idx)).tolist()),
        increasing=tuple(_hits(rel & ~rel[f[:, None], f])),
    )


def interior_range(t: Trellis, m: UnaryMap) -> frozenset[int]:
    """The image of m, once it passes the interior axioms on t (the map's
    cached report when t is its own carrier)."""
    report = m.report if m.target is t else validate_interior(t, m)
    if not report.ok:
        raise NotAnInteriorOperator("map fails the interior axioms", report)
    return m.image()


def interior_from_subset(t: Trellis, A) -> UnaryMap:
    """Map each x to the join of everything in A below x.

    Needs the bottom in A (so the joined set is never empty) and every
    member of A right-transitive (then any fold of the join is the
    supremum, so all n images are read off at once as suprema).  Closure
    of A under meet/join is *not* checked here; validate the result if
    you need an interior operator.
    """
    bottom, _ = _require_bounds(t)
    members = _members(t, A)
    if bottom not in members:
        raise BottomMissing("subset must contain the bottom element")
    _require_side(t, members, "right", NotRightTransitiveSubset)
    inside = np.zeros(t.n, dtype=bool)
    inside[members] = True
    below = inside & t.rel.T  # [x, a]: a in A and a <= x
    # [x, z]: z lies above every A-member below x; the least such z is the image
    out = _greatest(~(below @ ~t.rel), t.rel.T)
    return UnaryMap(target=t, map=_readonly(out))
