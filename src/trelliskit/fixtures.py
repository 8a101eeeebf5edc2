"""Bundled carriers and recorded operation tables.

Seven small pseudo-ordered sets exercise every corner of the library:
a six-element pseudo-order with a three-element cycle, the five-element
"pentagon" (the smallest bounded trellis that is not a lattice), two
modular trellises (one satisfying the join-cover condition, one failing
it), a trellis with two maximal t-norms and no greatest one, a trellis
whose right-transitive part is a proper sub-lattice, and a pseudo-chain
containing a four-element cycle.

The carriers live only in the shipped documents under data/: CARRIERS
maps each key to a loader that parses its file on first use and caches
the result, and carrier_document gives the parsed document itself, whose
`subset rtr` and `map lam` lines hold the recorded right-transitive sets
and interior maps.  Every cached document is shared; it is read-only, as
every PsosetDocument is: its fields cannot be rebound, its arrays are
frozen and its subsets, maps and ops are read-only mappings.  Recorded
operation tables come with a shading set marking the cells whose value
coincides with the meet; the test-suite re-derives the shading from the
file's relation as a cross-check on all of this data entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources

import numpy as np

from .fileformat import PsosetDocument, document_psoset, document_trellis, parse
from .relation import Psoset, validate_psoset
from .tnorms import BinaryOpTable, make_op
from .trellis import Trellis, _as_trellis


def _grid(target, text: str) -> BinaryOpTable:
    rows = [line.split() for line in text.strip().splitlines()]
    idx = [[target.index(cell) for cell in row] for row in rows]
    return make_op(target, idx)


# --- carriers ---------------------------------------------------------------

# carrier key -> document stem under data/
_FILES = {
    "six_cycle": "six_element_cycle",
    "pentagon": "pentagon",
    "fork8": "fork8",
    "diamond7": "diamond7",
    "twin_peaks7": "twin_peaks7",
    "hourglass7": "hourglass7",
    "loop8": "loop8",
}


@lru_cache(maxsize=None)
def carrier_document(key: str) -> PsosetDocument:
    """The parsed shipped document of a carrier, shared by every caller."""
    path = resources.files(__package__) / "data" / f"{_FILES[key]}.psoset"
    return parse(path.read_text(encoding="utf-8"))


@lru_cache(maxsize=None)
def _load(key: str) -> Psoset:
    doc = carrier_document(key)
    # six_cycle is a trellis, but it has no top.  It is kept a plain
    # Psoset because callers treat every Trellis carrier as bounded:
    # loaded as a Trellis, test_relabelling_permutes_every_result fails
    # with NotBounded.
    if key == "six_cycle":
        return document_psoset(doc)
    return document_trellis(doc)[0]


CARRIERS = {key: partial(_load, key) for key in _FILES}


@lru_cache(maxsize=None)
def bounded_chain(k: int) -> Trellis:
    rel = np.triu(np.ones((k, k), dtype=bool))
    names = tuple(str(i) for i in range(k))
    return _as_trellis(validate_psoset(rel, names))


@lru_cache(maxsize=None)
def diamond_lattice() -> Trellis:
    """0 < x, y < 1 with x, y incomparable — a handy honest lattice."""
    rel = np.eye(4, dtype=bool)
    rel[0] = rel[:, 3] = True
    return _as_trellis(validate_psoset(rel, ("0", "x", "y", "1")))


# --- recorded tables ---------------------------------------------------------


@dataclass(frozen=True)
class RecordedTable:
    carrier: str
    grid: str
    region: tuple[str, ...] | None = None  # labels of the printed block
    shaded: frozenset | None = None  # (row, col) label pairs, within region


def _shade(pairs: str) -> frozenset:
    """'a:c d; b:*' style shorthand is too clever — plain pair list."""
    return frozenset(tuple(p.split(",")) for p in pairs.split())


_INNER5 = ("a", "b", "c")
_INNER7 = ("a", "b", "c", "d", "e")
_INNER8 = ("a", "b", "c", "d", "e", "f")

RECORDED: dict[str, RecordedTable] = {
    # the six t-norms on the pentagon, smallest to greatest
    "pentagon.T1": RecordedTable(
        "pentagon",
        """
        0 0 0 0 0
        0 0 0 0 a
        0 0 0 0 b
        0 0 0 0 c
        0 a b c 1
        """,
        _INNER5,
    ),
    "pentagon.T2": RecordedTable(
        "pentagon",
        """
        0 0 0 0 0
        0 0 0 0 a
        0 0 0 0 b
        0 0 0 c c
        0 a b c 1
        """,
        _INNER5,
    ),
    "pentagon.T3": RecordedTable(
        "pentagon",
        """
        0 0 0 0 0
        0 0 0 0 a
        0 0 0 0 b
        0 0 0 b c
        0 a b c 1
        """,
        _INNER5,
        _shade("a,c c,a"),
    ),
    "pentagon.T4": RecordedTable(
        "pentagon",
        """
        0 0 0 0 0
        0 0 0 0 a
        0 0 b b b
        0 0 b b c
        0 a b c 1
        """,
        _INNER5,
        _shade("a,c c,a b,b b,c c,b"),
    ),
    "pentagon.T5": RecordedTable(
        "pentagon",
        """
        0 0 0 0 0
        0 0 0 0 a
        0 0 0 b b
        0 0 b c c
        0 a b c 1
        """,
        _INNER5,
        _shade("a,c c,a b,c c,b c,c"),
    ),
    "pentagon.T6": RecordedTable(
        "pentagon",
        """
        0 0 0 0 0
        0 0 0 0 a
        0 0 b b b
        0 0 b c c
        0 a b c 1
        """,
        _INNER5,
        _shade("a,c c,a b,b b,c c,b c,c"),
    ),
    # commutative, one-sided-monotone but not jointly monotone
    "pentagon.F": RecordedTable(
        "pentagon",
        """
        0 0 0 0 0
        0 a a b b
        0 a b b b
        0 b b c c
        0 b b c 1
        """,
    ),
    "fork8.join_cover": RecordedTable(
        "fork8",
        """
        0 0 0 0 0 0 0 0
        0 0 0 0 0 0 0 a
        0 0 0 0 0 0 0 b
        0 0 0 0 0 0 0 c
        0 0 0 0 0 0 0 d
        0 0 0 0 0 0 d e
        0 0 0 0 0 d 0 f
        0 a b c d e f 1
        """,
        ("0", "a", "b", "c", "d", "e", "f", "1"),
        _shade(
            "0,0 0,a 0,b 0,c 0,d 0,e 0,f 0,1 "
            "a,0 a,c a,1 b,0 b,1 c,0 c,a c,1 d,0 d,1 "
            "e,0 e,f e,1 f,0 f,e f,1 "
            "1,0 1,a 1,b 1,c 1,d 1,e 1,f 1,1"
        ),
    ),
    "twin_peaks7.T1": RecordedTable(
        "twin_peaks7",
        """
        0 0 0 0 0 0 0
        0 0 0 0 a 0 a
        0 0 b b b b b
        0 0 b c b c c
        0 a b b d b d
        0 0 b c b e e
        0 a b c d e 1
        """,
        _INNER7,
        _shade(
            "a,c a,d b,b b,c b,d b,e "
            "c,a c,b c,c c,d c,e d,a d,b d,c d,d d,e "
            "e,b e,c e,d e,e"
        ),
    ),
    "twin_peaks7.T2": RecordedTable(
        "twin_peaks7",
        """
        0 0 0 0 0 0 0
        0 0 0 0 0 a a
        0 0 b b b b b
        0 0 b c b c c
        0 0 b b d b d
        0 a b c b e e
        0 a b c d e 1
        """,
        _INNER7,
        _shade(
            "a,c a,e b,b b,c b,d b,e "
            "c,a c,b c,c c,d c,e d,b d,c d,d d,e "
            "e,a e,b e,c e,d e,e"
        ),
    ),
    # hourglass7: scaled-meet constructions, the greatest t-norm, and the
    # restricted-meet construction (greatest except at (a,e)/(e,a))
    "hourglass7.T_Vb": RecordedTable(
        "hourglass7",
        """
        0 0 0 0 0 0 0
        0 0 0 0 0 0 a
        0 0 b b b b b
        0 0 b b b b c
        0 0 b b b b d
        0 0 b b b b e
        0 a b c d e 1
        """,
        _INNER7,
        _shade("a,b a,d b,a b,b b,c b,d b,e c,b d,a d,b e,b"),
    ),
    "hourglass7.T_Vc": RecordedTable(
        "hourglass7",
        """
        0 0 0 0 0 0 0
        0 0 0 0 0 0 a
        0 0 b b b b b
        0 0 b c c c c
        0 0 b c c c d
        0 0 b c c c e
        0 a b c d e 1
        """,
        _INNER7,
        _shade(
            "a,b a,d b,a b,b b,c b,d b,e "
            "c,b c,c c,d c,e d,a d,b d,c d,e e,b e,c e,d"
        ),
    ),
    "hourglass7.T_Vd": RecordedTable(
        "hourglass7",
        """
        0 0 0 0 0 0 0
        0 0 0 0 0 0 a
        0 0 b b b b b
        0 0 b c c c c
        0 0 b c d c d
        0 0 b c c c e
        0 a b c d e 1
        """,
        _INNER7,
        _shade(
            "a,b a,d b,a b,b b,c b,d b,e "
            "c,b c,c c,d c,e d,a d,b d,c d,d d,e e,b e,c e,d"
        ),
    ),
    "hourglass7.T_Ve": RecordedTable(
        "hourglass7",
        """
        0 0 0 0 0 0 0
        0 0 0 0 0 0 a
        0 0 b b b b b
        0 0 b c c c c
        0 0 b c c c d
        0 0 b c c e e
        0 a b c d e 1
        """,
        _INNER7,
        _shade(
            "a,b a,d b,a b,b b,c b,d b,e "
            "c,b c,c c,d c,e d,a d,b d,c d,e e,b e,c e,d e,e"
        ),
    ),
    "hourglass7.greatest": RecordedTable(
        "hourglass7",
        """
        0 0 0 0 0 0 0
        0 0 0 0 0 a a
        0 0 b b b b b
        0 0 b c c c c
        0 0 b c d c d
        0 a b c c e e
        0 a b c d e 1
        """,
        _INNER7,
        _shade(
            "a,b a,d a,e b,a b,b b,c b,d b,e "
            "c,b c,c c,d c,e d,a d,b d,c d,d d,e "
            "e,a e,b e,c e,d e,e"
        ),
    ),
    "hourglass7.interior_meet": RecordedTable(
        "hourglass7",
        """
        0 0 0 0 0 0 0
        0 0 0 0 0 0 a
        0 0 b b b b b
        0 0 b c c c c
        0 0 b c d c d
        0 0 b c c e e
        0 a b c d e 1
        """,
        _INNER7,
    ),
    "loop8.interior_meet": RecordedTable(
        "loop8",
        """
        0 0 0 0 0 0 0 0
        0 a a a a a a a
        0 a a a a a a b
        0 a a a a a a c
        0 a a a d a a d
        0 a a a a a a e
        0 a a a a a a f
        0 a b c d e f 1
        """,
        _INNER8,
        _shade(
            "a,a a,b a,c a,d a,e a,f b,a b,e c,a "
            "d,a d,d d,e d,f e,a e,b e,d f,a f,d"
        ),
    ),
    # built over a subset that is NOT meet-closed: not monotone, kept as a
    # worked counterexample
    "diamond7.unchecked": RecordedTable(
        "diamond7",
        """
        0 0 0 0 0 0 0
        0 a a a a a a
        0 a a a a a b
        0 a a c b c c
        0 a a b d d d
        0 a a c d e e
        0 a b c d e 1
        """,
        _INNER7,
        _shade(
            "a,a a,b a,c a,d a,e b,a b,e "
            "c,a c,c c,d c,e d,a d,c d,d d,e "
            "e,a e,b e,c e,d e,e"
        ),
    ),
}


def recorded_table(key: str) -> BinaryOpTable:
    entry = RECORDED[key]
    return _grid(CARRIERS[entry.carrier](), entry.grid)


# --- recorded facts ----------------------------------------------------------

RECORDED_FACTS = {
    "six_cycle.maximal_cycles": [("d", "e", "f")],
    "pentagon.covers": {("0", "a"), ("a", "b"), ("b", "c"), ("c", "1")},
    "pentagon.dashed": {frozenset({"a", "c"})},
    "pentagon.co_atoms": {"c"},
    "pentagon.rtr": {"0", "b", "c", "1"},
    "pentagon.tr": {"0", "1"},
    "pentagon.meet_left_right_witness": ("b", "c", "a"),
    "pentagon.F_increasing_witness": ("a", "1", "b", "c"),
    # which of the six t-norms each construction lands on
    "pentagon.constructions": {
        "drastic": "T1",
        "join_cover": "T1",
        "coatom_c": "T2",
        "subset_01": "T1",
        "subset_0c": "T2",
        "subset_0b": "T4",
        "subset_0bc": "T6",
        "subset_rtr": "T6",
    },
    "pentagon.order_diagram_covers": {
        ("T1", "T3"),
        ("T3", "T2"),
        ("T2", "T5"),
        ("T3", "T4"),
        ("T5", "T6"),
        ("T4", "T6"),
    },
    "fork8.join_cover_condition": True,
    "diamond7.join_cover_condition": False,
    "diamond7.join_cover_witness": ("b", "e", "c", "0"),
    "diamond7.meet_closure_gap": ("c", "d", "b"),  # c ^ d = b outside rtr
    "diamond7.unchecked_increasing_witness": ("c", "e", "d", "e"),
    "twin_peaks7.obstruction": ("a", "e", "d"),  # extending T1 with T(a,e)=a
    "loop8.maximal_cycles": [("b", "c", "e", "f")],
    "loop8.back_edge": ("f", "b"),
}
