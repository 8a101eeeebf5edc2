import dataclasses
import random

import numpy as np
import pytest

from trelliskit import (
    Trellis,
    UnaryMap,
    classify,
    down_set,
    interior_from_subset,
    interior_range,
    iterated_join,
    iterated_meet,
    meet_op,
    random_pseudo_chain,
    random_trellis,
    restrict,
    right_transitive_set,
    scaled_meet,
    tnorm_via_interior,
    tnorm_via_subset,
    validate_interior,
)
from trelliskit import interior
from trelliskit.errors import (
    BottomMissing,
    NotAnInteriorOperator,
    NotRightTransitiveSubset,
    ValidationError,
)
from trelliskit.fixtures import CARRIERS, bounded_chain, carrier_document


@pytest.mark.parametrize("key", ["diamond7", "hourglass7", "loop8"])
def test_recorded_interior_maps(key):
    t = CARRIERS[key]()
    doc = carrier_document(key)
    # the recorded rows are exactly the subset-interiors of the
    # right-transitive parts, and their images are those parts
    members = sorted(np.flatnonzero(classify(t).rtr))
    assert tuple(members) == doc.subsets["rtr"]
    got = interior_from_subset(t, members)
    assert np.array_equal(got.map, doc.maps["lam"]), key
    assert got.image() == frozenset(members)


def test_identity_is_an_interior_on_a_lattice():
    t = bounded_chain(4)
    ident = UnaryMap(t, np.arange(4, dtype=np.int64))
    report = validate_interior(t, ident)
    assert report.ok
    assert not report.fixed_on_range and not report.increasing
    assert interior_range(t, ident) == frozenset(range(4))


def test_constant_bottom_is_an_interior():
    t = CARRIERS["pentagon"]()
    zero = UnaryMap(t, np.zeros(t.n, dtype=np.int64))
    assert validate_interior(t, zero).ok
    assert interior_range(t, zero) == frozenset({t.bottom})


def test_non_contractive_map_fails():
    t = bounded_chain(3)
    up = UnaryMap(t, np.array([1, 2, 2], dtype=np.int64))
    report = validate_interior(t, up)
    assert not report.ok
    assert report.contractive  # x = 0 maps above itself
    with pytest.raises(NotAnInteriorOperator):
        interior_range(t, up)


def test_non_idempotent_map_fails():
    t = bounded_chain(4)
    down = UnaryMap(t, np.array([0, 0, 1, 2], dtype=np.int64))
    report = validate_interior(t, down)
    assert report.idempotent


def test_meet_escape_breaks_the_homomorphism_axiom():
    # {0, c, d} in the seven-element diamond: c ^ d = b lies outside, so
    # lam(c ^ d) = 0 while lam(c) ^ lam(d) = b
    t = CARRIERS["diamond7"]()
    members = sorted(t.indices(("0", "c", "d")))
    im = interior_from_subset(t, members)
    report = validate_interior(t, im)
    assert not report.ok
    assert report.meet_homomorphism
    c, d = t.index("c"), t.index("d")
    witnesses = {tuple(v) for v in report.meet_homomorphism}
    assert witnesses & {(c, d), (d, c)}
    b = t.meet[c, d]
    assert im(b) != t.meet[im(c), im(d)]


def test_subset_interior_requires_bottom_and_rtr_members():
    t = CARRIERS["pentagon"]()
    with pytest.raises(BottomMissing):
        interior_from_subset(t, t.indices(("b",)))
    with pytest.raises(NotRightTransitiveSubset):
        interior_from_subset(t, t.indices(("0", "a")))  # a is not rtr


def test_subset_interior_fixes_exactly_the_join_closure():
    t = CARRIERS["hourglass7"]()
    members = sorted(t.indices(("0", "b", "c")))
    im = interior_from_subset(t, members)
    assert validate_interior(t, im).ok
    assert im.image() == frozenset(members)
    for x in members:
        assert im(x) == x
    # everything else drops to the biggest member below it
    assert im(t.index("d")) == t.index("c")
    assert im(t.index("a")) == t.bottom


def test_interiors_are_contractive_and_idempotent_by_construction():
    t = CARRIERS["loop8"]()
    members = sorted(t.indices(("0", "a", "d")))
    im = interior_from_subset(t, members)
    for x in range(t.n):
        assert t.leq(im(x), x)
        assert im(im(x)) == im(x)


@pytest.mark.parametrize(
    "images, positions",
    [([0, 0, 0, 0, 9], [4]), ([0, 1, 2], []), ([0, 0, 0, 0, -1], [4])],
)
def test_maps_out_of_range_are_a_validation_error(images, positions):
    t = CARRIERS["pentagon"]()
    im = UnaryMap(t, np.array(images, dtype=np.int64))
    for entry in (validate_interior, interior_range, tnorm_via_interior):
        with pytest.raises(ValidationError) as info:
            entry(t, im)
        assert info.value.violations == positions, entry.__name__


def test_writing_into_the_callers_array_leaves_the_report_valid():
    # a map built from a writeable array keeps a read-only copy, so the
    # cached report cannot go stale when the caller writes into theirs
    pentagon = CARRIERS["pentagon"]()
    f = np.arange(5)
    im = UnaryMap(pentagon, f)
    assert im.report.ok
    f[:] = 0
    f[4] = 3
    assert im.map.tolist() == [0, 1, 2, 3, 4] and not im.map.flags.writeable
    assert im.report.ok and validate_interior(pentagon, im).ok
    assert interior_range(pentagon, im) == frozenset(range(5))
    assert not validate_interior(pentagon, UnaryMap(pentagon, f)).ok
    # so is a read-only view of a writeable array
    g = np.arange(5)
    view = g.view()
    view.setflags(write=False)
    im = UnaryMap(pentagon, view)
    assert im.report.ok
    g[:] = 0
    assert im.map.tolist() == [0, 1, 2, 3, 4] and im.report.ok
    # a read-only map, as interior_from_subset returns, is kept as it is
    made = interior_from_subset(pentagon, [pentagon.bottom, pentagon.top])
    assert UnaryMap(pentagon, made.map).map is made.map


def test_one_interior_report_per_map(monkeypatch):
    calls = []
    real = interior.validate_interior
    monkeypatch.setattr(
        interior, "validate_interior", lambda t, m: calls.append(m) or real(t, m)
    )
    t = CARRIERS["hourglass7"]()
    rtr = sorted(right_transitive_set(t))
    im = interior_from_subset(t, rtr)
    assert im.report.ok and im.report is im.report
    assert interior_range(t, im) == im.image()
    tnorm_via_interior(t, im)
    tnorm_via_interior(t, im, scaled_meet(t, rtr, rtr[1]))
    assert calls == [im]
    # another carrier object, however equal, is validated on its own
    twin = Trellis(t.names, t.rel, t.meet, t.join)
    assert interior_range(twin, im) == im.image()
    assert calls == [im, im]
    # each new map gets its one report
    tnorm_via_subset(t, rtr)
    assert len(calls) == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        im.map = np.arange(t.n)


def test_a_cached_interior_report_cannot_be_changed():
    pentagon = CARRIERS["pentagon"]()
    m = interior_from_subset(pentagon, [pentagon.bottom, pentagon.top])
    assert m.report.ok
    for name in dataclasses.fields(m.report):
        value = getattr(m.report, name.name)
        assert isinstance(value, tuple)
        with pytest.raises(AttributeError):
            value.append((0,))
    assert m.report.ok and not m.report.contractive


# Oracles: the constructions as they were written before they read the
# carrier's own tables.


def fold(table, S):
    """Left fold of a meet or join table over S in index order."""
    members = sorted(S)
    acc = members[0]
    for x in members[1:]:
        acc = int(table[acc, x])
    return acc


def folded_interior(t, A):
    """Each x mapped to the fold of the join over the A-members below x."""
    return np.array([fold(t.join, set(A) & down_set(t, x)) for x in range(t.n)])


def restricted_construction(t, f, v=None):
    """The interior construction evaluated on the range rebuilt as its own
    trellis, with v defaulting to that trellis's meet."""
    sub, members = restrict(t, sorted(set(f.tolist())))
    if v is None:
        v = meet_op(sub)
    members = np.array(members)
    loc = np.searchsorted(members, f)
    tab = members[v.table[np.ix_(loc, loc)]]
    tab[t.top, :] = tab[:, t.top] = np.arange(t.n)
    return tab


def test_constructions_equal_the_folds_and_the_rebuilt_range():
    rng = random.Random(2207)
    carriers = [make() for key, make in CARRIERS.items() if key != "six_cycle"]
    carriers += [
        (random_trellis if k % 2 else random_pseudo_chain)(rng, 2 + k % 8)
        for k in range(320)
    ]
    accepted = rejected = 0
    for t in carriers:
        cls = classify(t)
        rtr = np.flatnonzero(cls.rtr).tolist()
        ltr = np.flatnonzero(cls.ltr).tolist()
        folds = ((rtr, t.join, iterated_join), (ltr, t.meet, iterated_meet))
        for S, table, fn in folds:
            S = rng.sample(S, rng.randint(1, len(S)))
            assert fn(t, S) == fold(table, S) == fold(table, S[::-1])
        subsets = [rtr] + [
            sorted(set(rng.sample(rtr, rng.randint(0, len(rtr)))) | {t.bottom})
            for _ in range(2)
        ]
        for A in subsets:
            f = folded_interior(t, A)
            im = interior_from_subset(t, A)
            assert np.array_equal(im.map, f)
            want = t.meet[np.ix_(f, f)]
            want[t.top, :] = want[:, t.top] = np.arange(t.n)
            got = tnorm_via_subset(t, A, unchecked=True).table
            assert np.array_equal(got, want)
            if not validate_interior(t, im).ok:
                with pytest.raises(NotAnInteriorOperator):
                    tnorm_via_subset(t, A)
                rejected += 1
                continue
            got = tnorm_via_subset(t, A).table
            assert np.array_equal(got, restricted_construction(t, f))
            accepted += 1
            # a range of right-transitive members is a sub-lattice
            image = sorted(set(f.tolist()))
            v = scaled_meet(t, image, rng.choice(image))
            got = tnorm_via_interior(t, im, v).table
            assert np.array_equal(got, restricted_construction(t, f, v))
    assert accepted > 500 and rejected > 20
