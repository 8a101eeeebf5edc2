"""Every witness and violation list against the loops it replaced.

The oracles below are those scans as they stood before each became one
boolean mask read by relation._first or relation._hits: per-element
Python loops, nested comprehensions, a per-x loop with a local tuple
builder, a filtered np.nonzero, a hand-written meet/join tie-break, and
np.ix_ sub-block reads.  The new code must give the same values, in the
same order, with the same Python types, and raise the same exceptions
with the same pair, kind, witness and violations.
"""

import random
from functools import lru_cache

import numpy as np
import pytest

from trelliskit import (
    UnaryMap,
    build_trellis,
    check_skala_axioms,
    co_atoms,
    hasse,
    interior_from_subset,
    is_cycle,
    is_meet_sub_trellis,
    is_pseudo_chain,
    is_sub_lattice,
    is_sub_trellis,
    join_cover_witness,
    modular_implication_check,
    modular_violation,
    random_bounded_psoset,
    random_pseudo_chain,
    random_trellis,
    structure_kind,
    validate_interior,
    validate_psoset,
)
from trelliskit.errors import (
    DuplicateName,
    NotAntisymmetric,
    NotATrellis,
    NotModular,
    NoTop,
    NotReflexive,
    ValidationError,
)
from trelliskit.fixtures import CARRIERS
from trelliskit.interior import InteriorReport
from trelliskit.relation import _escapes, _first, transitive_closure
from trelliskit.trellis import AxiomReport, StructureKind, _bounds, _greatest


# --- the loops as they stood ------------------------------------------------


def modular_violation_oracle(t):
    rel, meet, join = t.rel, t.meet, t.join
    for x in range(t.n):
        hit = _first(rel[x] & (join[x][meet] != meet[join[x]]))
        if hit is not None:
            return (x, *hit)
    return None


def modular_implication_oracle(t):
    witness = modular_violation_oracle(t)
    if witness is not None:
        raise NotModular("not modular", witness)
    rel, meet, join, top = t.rel, t.meet, t.join, t.top
    for x in range(t.n):
        if ((join[x] == top)[:, None] & rel[x] & ~rel[meet[x]]).any():
            return False
    return True


def skala_oracle(meet, join):
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
        cells = [tuple(cell) for cell in np.argwhere(outside).tolist()]
        raise ValidationError(f"table entries outside 0..{n - 1} at {cells}", cells)
    idx = np.arange(n)
    col = idx[:, None]

    def tuples(mask, *lead):
        return [(*lead, *hit) for hit in np.argwhere(mask).tolist()]

    idempotent = tuples((meet.diagonal() != idx) | (join.diagonal() != idx))
    commutative = tuples((meet != meet.T) | (join != join.T))
    absorption = tuples((join[col, meet.T] != col) | (meet[col, join.T] != col))
    part = []
    for x in range(n):
        lhs = join[x][join[meet[x][:, None], meet[x]]]
        rhs = meet[x][meet[join[x][:, None], join[x]]]
        part += tuples((lhs != x) | (rhs != x), x)
    return AxiomReport(
        tuple(commutative), tuple(idempotent), tuple(absorption), tuple(part)
    )


def interior_oracle(t, m):
    rel, meet, n = t.rel, t.meet, t.n
    f = np.asarray(m.map)
    if f.shape != (n,) or not np.issubdtype(f.dtype, np.integer):
        raise ValidationError(
            f"map must be an integer array of length {n}, got {f.dtype} {f.shape}"
        )
    outside = np.flatnonzero((f < 0) | (f >= n)).tolist()
    if outside:
        raise ValidationError(f"map entries outside 0..{n - 1} at {outside}", outside)
    contractive = tuple(int(x) for x in range(n) if not rel[f[x], x])
    idempotent = tuple(int(x) for x in range(n) if f[f[x]] != f[x])
    hom = tuple(
        (x, y)
        for x in range(n)
        for y in range(n)
        if f[meet[x, y]] != meet[f[x], f[y]]
    )
    image = sorted(set(int(v) for v in f))
    fixed = tuple(int(v) for v in image if f[v] != v)
    increasing = tuple(
        (x, y) for x in range(n) for y in range(n) if rel[x, y] and not rel[f[x], f[y]]
    )
    return InteriorReport(contractive, idempotent, hom, fixed, increasing)


def join_cover_oracle(t):
    bottom, top = t.bottom, t.top
    meet, join = t.meet, t.join
    for x, y in zip(*np.nonzero((meet != bottom) & (join == top))):
        hit = _first(join[join[x][:, None], join[y]] != top)
        if hit is not None:
            return (int(x), int(y), *hit)
    return None


def co_atoms_oracle(p):
    rest = [x for x in range(p.n) if x != p.top]
    strict = p.rel & ~np.eye(p.n, dtype=bool)
    return frozenset(x for x in rest if not any(strict[x, y] for y in rest))


def validate_psoset_oracle(rel, names):
    names = tuple(names)
    if len(set(names)) != len(names):
        dupes = sorted({s for s in names if names.count(s) > 1})
        raise DuplicateName(f"duplicate element names: {dupes}", dupes)
    rel = np.asarray(rel, dtype=bool)
    n = len(names)
    not_reflexive = [int(x) for x in np.flatnonzero(~rel.diagonal())]
    if not_reflexive:
        raise NotReflexive(
            f"missing x <= x for: {[names[x] for x in not_reflexive]}",
            not_reflexive,
        )
    both = rel & rel.T & ~np.eye(n, dtype=bool)
    if both.any():
        pairs = [(int(x), int(y)) for x, y in zip(*np.nonzero(both)) if x < y]
        raise NotAntisymmetric(
            f"mutually related distinct pairs: "
            f"{[(names[x], names[y]) for x, y in pairs]}",
            pairs,
        )
    bottoms = np.flatnonzero(rel.all(axis=1))
    tops = np.flatnonzero(rel.all(axis=0))
    return (
        int(bottoms[0]) if len(bottoms) else None,
        int(tops[0]) if len(tops) else None,
    )


def build_trellis_oracle(p):
    """(pair, kind) of the first pair lacking a meet or a join, or None."""
    meet = _greatest(_bounds(p.rel), p.rel)
    join = _greatest(_bounds(p.rel.T), p.rel.T)
    missing_meet, missing_join = _first(meet < 0), _first(join < 0)
    if missing_meet is None and missing_join is None:
        return None
    pair, kind = missing_meet, "meet"
    if missing_meet is None or (
        missing_join is not None and missing_join < missing_meet
    ):
        pair, kind = missing_join, "join"
    return pair, kind


def hasse_pairs_oracle(mask):
    xs, ys = np.nonzero(mask)
    return frozenset(zip(xs.tolist(), ys.tolist()))


def closed_under_oracle(table, members):
    inside = np.zeros(len(table), dtype=bool)
    inside[members] = True
    return bool(inside[table[np.ix_(members, members)]].all())


# --- comparison -------------------------------------------------------------


def same(a, b):
    """Equal values of equal types, all the way down."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, frozenset):
        return same(sorted(a), sorted(b))
    return a == b


def outcome(fn, *args):
    """("value", v) or ("raise", class, message, offenders)."""
    try:
        return ("value", fn(*args))
    except ValidationError as e:
        return ("raise", type(e), str(e), e.violations)
    except NotModular as e:
        return ("raise", type(e), str(e), e.witness)


def report_fields(rep):
    return [getattr(rep, name) for name in rep.__dataclass_fields__]


def same_outcome(got, want):
    if got[0] != want[0]:
        return False
    if got[0] == "raise":
        return got[1:3] == want[1:3] and same(got[3], want[3])
    g, w = got[1], want[1]
    if isinstance(w, (AxiomReport, InteriorReport)):
        return type(g) is type(w) and same(report_fields(g), report_fields(w))
    return same(g, w)


# --- inputs -----------------------------------------------------------------


SHIPPED = [key for key in CARRIERS if key != "six_cycle"]


@lru_cache(maxsize=None)
def random_carriers():
    """640 seeded trellises: 40 random trellises and 40 pseudo-chains for
    each n = 2..9."""
    rng = random.Random(20221)
    out = []
    for n in range(2, 10):
        out += [random_trellis(rng, n) for _ in range(40)]
        out += [random_pseudo_chain(rng, n) for _ in range(40)]
    return tuple(out)


def all_carriers():
    return [CARRIERS[key]() for key in SHIPPED] + list(random_carriers())


@lru_cache(maxsize=None)
def random_psosets():
    """540 seeded bounded psosets, n = 1..9, many of them not trellises."""
    rng = random.Random(20222)
    return tuple(
        random_bounded_psoset(rng, n, cycle_prob=0.4)
        for n in range(1, 10)
        for _ in range(60)
    )


@lru_cache(maxsize=None)
def random_orders():
    """400 seeded psosets, n = 1..8, with or without bounds: each pair
    x < y is related one way, the other way or not at all."""
    rng = random.Random(20226)
    out = []
    for n in range(1, 9):
        for _ in range(50):
            rel = np.eye(n, dtype=bool)
            for x in range(n):
                for y in range(x + 1, n):
                    side = rng.randrange(3)
                    if side < 2:
                        rel[(x, y) if side else (y, x)] = True
            out.append(validate_psoset(rel, [f"e{k}" for k in range(n)]))
    return tuple(out)


def test_the_random_carriers_cover_what_they_should():
    carriers = random_carriers()
    assert len(carriers) >= 600
    assert {t.n for t in carriers} == set(range(2, 10))
    psosets = random_psosets() + random_orders()
    kinds = [build_trellis_oracle(p) for p in psosets]
    assert sum(k is None for k in kinds) > 50
    assert {k[1] for k in kinds if k is not None} == {"meet", "join"}
    both_missing = [
        p
        for p, k in zip(psosets, kinds)
        if k is not None
        and k[1] == "meet"
        and _greatest(_bounds(p.rel.T), p.rel.T)[k[0]] < 0
    ]
    assert len(both_missing) > 20
    assert sum(p.top is None for p in psosets) > 50
    assert sum(modular_violation_oracle(t) is None for t in carriers) > 50
    assert sum(modular_violation_oracle(t) is not None for t in carriers) > 50
    assert sum(join_cover_oracle(t) is None for t in carriers) > 50
    assert sum(join_cover_oracle(t) is not None for t in carriers) > 50


# --- the scans --------------------------------------------------------------


def test_modular_scans_match_the_loops():
    for t in all_carriers():
        assert same(modular_violation(t), modular_violation_oracle(t)), t.names
        got = outcome(modular_implication_check, t)
        assert same_outcome(got, outcome(modular_implication_oracle, t)), t.names


def test_join_cover_witness_matches_the_loop():
    for t in all_carriers():
        assert same(join_cover_witness(t), join_cover_oracle(t)), t.names


def test_co_atoms_match_the_loop():
    carriers = all_carriers() + list(random_psosets()) + list(random_orders())
    for p in carriers:
        if p.top is None:
            with pytest.raises(NoTop):
                co_atoms(p)
            continue
        assert same(co_atoms(p), co_atoms_oracle(p)), (p.names, p.rel)


def test_skala_axioms_match_the_loop():
    """The tables of every carrier, 3,000 random integer table pairs, and
    pairs with an entry out of range or of the wrong shape or dtype."""
    rng = np.random.default_rng(20223)
    pairs = [(t.meet, t.join) for t in all_carriers()]
    for _ in range(1500):  # uniform random tables, mostly failing every axiom
        n = int(rng.integers(1, 7))
        pairs.append(tuple(rng.integers(0, n, size=(2, n, n))))
    carriers = random_carriers()
    for k in range(1500):  # a few cells off a real pair
        t = carriers[k % len(carriers)]
        meet, join = t.meet.copy(), t.join.copy()
        for _ in range(int(rng.integers(0, 3))):
            table = meet if rng.random() < 0.5 else join
            table[tuple(rng.integers(0, t.n, size=2))] = rng.integers(0, t.n)
        pairs.append((meet, join))
    for _ in range(100):  # entries out of range
        n = int(rng.integers(1, 6))
        meet, join = rng.integers(-2, n + 2, size=(2, n, n))
        pairs.append((meet, join))
    pairs += [
        (np.zeros((2, 2)), np.zeros((2, 2), dtype=np.int64)),
        (np.zeros((2, 2), dtype=bool), np.zeros((2, 2), dtype=bool)),
        (np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64)),
        (np.zeros((2, 2), dtype=np.int64), np.zeros((3, 3), dtype=np.int64)),
        (np.zeros((2, 2), dtype=np.uint8), np.ones((2, 2), dtype=np.int32)),
    ]
    assert len(pairs) >= 3000
    for meet, join in pairs:
        got = outcome(check_skala_axioms, meet, join)
        want = outcome(skala_oracle, meet, join)
        assert same_outcome(got, want), (meet, join)


def test_validate_interior_matches_the_loop():
    """Random maps (mostly not interior operators), the subset maps of
    random subsets (many of them interior operators), and maps that are
    out of range or of the wrong shape or dtype."""
    rng = random.Random(20224)
    checked = valid = 0
    for t in all_carriers():
        maps = [np.array([rng.randrange(t.n) for _ in range(t.n)]) for _ in range(3)]
        below = [np.flatnonzero(t.rel[:, x]).tolist() for x in range(t.n)]
        maps.append(np.array([rng.choice(b) for b in below]))  # contractive
        rtr = np.flatnonzero(~_escapes(t.rel).any(axis=1)).tolist()
        for _ in range(2):
            subset = {t.bottom} | set(rng.sample(rtr, rng.randint(0, len(rtr))))
            maps.append(interior_from_subset(t, subset).map)
        maps.append(np.array([t.n] * t.n))
        maps.append(np.arange(t.n) - 1)
        maps.append(np.arange(t.n, dtype=float))
        maps.append(np.arange(t.n + 1))
        for f in maps:
            got = outcome(validate_interior, t, UnaryMap(t, f))
            want = outcome(interior_oracle, t, UnaryMap(t, f))
            assert same_outcome(got, want), (t.names, f)
            checked += 1
            valid += got[0] == "value" and got[1].ok
    assert checked > 5000 and valid > 500


def psoset_bounds(rel, names):
    p = validate_psoset(rel, names)
    return p.bottom, p.top


def test_psoset_validation_matches_the_loop():
    """Every antisymmetry pair x < y in order, on random relations that
    break reflexivity or antisymmetry or neither."""
    rng = np.random.default_rng(20225)
    relations = [p.rel for p in random_psosets()]
    for _ in range(600):
        n = int(rng.integers(1, 8))
        rel = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        if rng.random() < 0.8:
            np.fill_diagonal(rel, True)
        relations.append(rel)
    for rel in relations:
        names = [f"e{k}" for k in range(len(rel))]
        got = outcome(psoset_bounds, rel, names)
        want = outcome(validate_psoset_oracle, rel, names)
        assert same_outcome(got, want), rel
    got = outcome(validate_psoset, np.eye(3, dtype=bool), ["a", "b", "a"])
    want = outcome(validate_psoset_oracle, np.eye(3, dtype=bool), ["a", "b", "a"])
    assert same_outcome(got, want)


def test_not_a_trellis_pair_matches_the_tie_break():
    """The first pair lacking a meet or a join, and meet before join on
    one pair; structure_kind's two flags agree with the same tables."""
    for p in random_psosets() + random_orders() + (CARRIERS["six_cycle"](),):
        want = build_trellis_oracle(p)
        try:
            build_trellis(p)
            got = None
        except NotATrellis as e:
            got = (e.pair, e.kind)
        assert same(got, want), p.rel
        kind = structure_kind(p)
        assert isinstance(kind, StructureKind)
        meet = _greatest(_bounds(p.rel), p.rel)
        join = _greatest(_bounds(p.rel.T), p.rel.T)
        assert kind.is_meet_semi_trellis is (_first(meet < 0) is None)
        assert kind.is_join_semi_trellis is (_first(join < 0) is None)


def test_hasse_pairs_match_the_loop():
    for p in all_carriers() + list(random_psosets()):
        diagram = hasse(p)
        eye = np.eye(p.n, dtype=bool)
        noid = p.rel & ~eye
        reach = transitive_closure(p.rel)
        dashed = ~p.rel & ~p.rel.T & (reach | reach.T) & ~eye
        want_back = tuple(sorted(hasse_pairs_oracle(noid & reach.T)))
        want_dashed = tuple(sorted(hasse_pairs_oracle(np.triu(dashed))))
        assert same(diagram.back_edges, want_back)
        assert same(diagram.dashed_pairs, want_dashed)
        assert all(type(v) is int for pair in diagram.cover_edges for v in pair)


@pytest.mark.parametrize("seed", range(4))
def test_sub_block_reads_match_ix(seed):
    """Sub-trellis, sub-lattice, cycle and pseudo-chain tests on random
    subsets, against np.ix_ reads of the same blocks."""
    rng = random.Random(seed)
    for t in random_carriers()[seed::4]:
        members = sorted(rng.sample(range(t.n), rng.randint(1, t.n)))
        meet_ok = closed_under_oracle(t.meet, members)
        join_ok = closed_under_oracle(t.join, members)
        assert is_meet_sub_trellis(t, members) is meet_ok
        assert is_sub_trellis(t, members) is (meet_ok and join_ok)
        block = t.rel[np.ix_(members, members)]
        lattice = meet_ok and join_ok and not _escapes(block).any()
        assert is_sub_lattice(t, members) is lattice
        closed = transitive_closure(block)
        assert is_cycle(t, members) is bool(closed.all())
        assert is_pseudo_chain(t, members) is bool((closed | closed.T).all())
