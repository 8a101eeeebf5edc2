"""Per-element regularity classes on a trellis.

Without transitivity, individual elements can still behave transitively /
associatively / distributively, and the subsets collecting them carry a lot
of structure.  The flags:

  rtr  "right-transitive":  a <= x <= y  always gives  a <= y
  ltr  "left-transitive":   x <= y <= a  always gives  x <= a
  mtr  "middle-transitive": x <= a <= y  always gives  x <= y
  tr   all three
  meet_ass / join_ass: every 3-tuple containing the element associates
  ass  both
  dis  every 3-tuple containing the element satisfies both distributive
       rearrangements (the two are equivalent per element; we verify both)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolated
from .relation import _member, _nonempty, _readonly, _require_side
from .trellis import Trellis, _infimum, _supremum

ALPHAS = ("dis", "ass", "meet_ass", "join_ass", "tr", "ltr", "rtr", "mtr")


@dataclass(frozen=True)
class ElementClassification:
    trellis: Trellis
    rtr: np.ndarray
    ltr: np.ndarray
    mtr: np.ndarray
    tr: np.ndarray
    meet_ass: np.ndarray
    join_ass: np.ndarray
    ass: np.ndarray
    dis: np.ndarray

    def flags(self, x: int) -> dict[str, bool]:
        x = _member(self.trellis, x)
        return {alpha: bool(getattr(self, alpha)[x]) for alpha in ALPHAS}


def _per_element_bad(bad: np.ndarray) -> np.ndarray:
    """bad is an (n,n,n) violation tensor; an element is clean when it
    appears in no violating tuple, in any position."""
    return ~(bad.any(axis=(1, 2)) | bad.any(axis=(0, 2)) | bad.any(axis=(0, 1)))


def classify(t: Trellis) -> ElementClassification:
    rel = t.rel
    meet, join = t.meet, t.join

    rtr, ltr = t._side_masks
    # through[x, a, y] = x <= a and a <= y
    through = rel[:, :, None] & rel[None, :, :]
    mtr = ~(through & ~rel[:, None, :]).any(axis=(0, 2))
    tr = rtr & ltr & mtr

    meet_bad = meet[meet, :] != meet[:, meet]  # (x^y)^z vs x^(y^z)
    join_bad = join[join, :] != join[:, join]
    meet_ass = _per_element_bad(meet_bad)
    join_ass = _per_element_bad(join_bad)
    ass = meet_ass & join_ass

    # (x^y) v z = (xvz) ^ (yvz)   and   (xvy) ^ z = (x^z) v (y^z)
    xz = join[:, None, :]  # [x, 1, z]
    yz = join[None, :, :]  # [1, y, z]
    dis_meet_bad = join[meet, :] != meet[xz, yz]
    mxz = meet[:, None, :]
    myz = meet[None, :, :]
    dis_join_bad = meet[join, :] != join[mxz, myz]
    dis = _per_element_bad(dis_meet_bad) & _per_element_bad(dis_join_bad)

    return ElementClassification(
        trellis=t,
        rtr=rtr,  # the carrier's own cached masks, frozen there
        ltr=ltr,
        mtr=_readonly(mtr),
        tr=_readonly(tr),
        meet_ass=_readonly(meet_ass),
        join_ass=_readonly(join_ass),
        ass=_readonly(ass),
        dis=_readonly(dis),
    )


def subset(classification: ElementClassification, alpha: str) -> frozenset[int]:
    if alpha not in ALPHAS:
        raise ValueError(f"unknown class {alpha!r}, expected one of {ALPHAS}")
    mask = getattr(classification, alpha)
    return frozenset(int(i) for i in np.flatnonzero(mask))


def right_transitive_set(t: Trellis) -> frozenset[int]:
    return frozenset(int(i) for i in np.flatnonzero(t._side_masks[0]))


def iterated_join(t: Trellis, S) -> int:
    """The join of S.  Every member must be right-transitive: then any
    fold of the join over S gives the same element, the supremum of S."""
    members = _nonempty(t, S, "iterated join")
    _require_side(t, members, "right", PreconditionViolated)
    return _supremum(t, members)


def iterated_meet(t: Trellis, S) -> int:
    """Dual of iterated_join: the infimum of left-transitive members."""
    members = _nonempty(t, S, "iterated meet")
    _require_side(t, members, "left", PreconditionViolated)
    return _infimum(t, members)
