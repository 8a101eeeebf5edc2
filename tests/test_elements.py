import numpy as np
import pytest

from trelliskit import (
    ALPHAS,
    classify,
    iterated_join,
    iterated_meet,
    right_transitive_set,
    subset,
)
from trelliskit.errors import EmptySubset
from trelliskit.fixtures import (
    CARRIERS,
    RECORDED_FACTS,
    bounded_chain,
    diamond_lattice,
)


def named(t, mask):
    return {t.names[x] for x in np.flatnonzero(mask)}


def test_pentagon_classes():
    t = CARRIERS["pentagon"]()
    cls = classify(t)
    assert named(t, cls.rtr) == RECORDED_FACTS["pentagon.rtr"]
    assert named(t, cls.tr) == RECORDED_FACTS["pentagon.tr"]
    assert named(t, cls.dis) == {"0", "1"}
    assert right_transitive_set(t) == t.indices(RECORDED_FACTS["pentagon.rtr"])


def test_hourglass_classes():
    t = CARRIERS["hourglass7"]()
    cls = classify(t)
    assert named(t, cls.rtr) == {"0", "b", "c", "d", "e", "1"}
    assert named(t, cls.ltr) == {"0", "a", "b", "c", "e", "1"}
    assert named(t, cls.tr) == {"0", "b", "e", "1"}
    assert named(t, cls.meet_ass) == {"0", "b", "1"}
    assert named(t, cls.join_ass) == {"0", "e", "1"}


def test_flags_view_matches_arrays():
    t = CARRIERS["hourglass7"]()
    cls = classify(t)
    for x, name in enumerate(t.names):
        flags = cls.flags(x)
        assert set(flags) == set(ALPHAS)
        for alpha in ALPHAS:
            assert flags[alpha] == bool(getattr(cls, alpha)[x]), (name, alpha)


def test_inclusion_chains_on_all_carriers():
    # dis <= ass <= meet_ass <= tr <= rtr, and the join-side mirror
    for key, make in CARRIERS.items():
        if key == "six_cycle":
            continue
        cls = classify(make())
        chains = (
            (cls.dis, cls.ass, cls.meet_ass, cls.tr, cls.rtr),
            (cls.dis, cls.ass, cls.join_ass, cls.tr, cls.ltr),
        )
        for chain in chains:
            for small, big in zip(chain, chain[1:]):
                assert (~small | big).all(), key


def test_bounds_are_in_every_class():
    for key, make in CARRIERS.items():
        if key == "six_cycle":
            continue
        t = make()
        cls = classify(t)
        for alpha in ALPHAS:
            arr = getattr(cls, alpha)
            assert arr[t.bottom] and arr[t.top], (key, alpha)


def test_lattices_classify_everything_everywhere():
    for t in (bounded_chain(5), diamond_lattice()):
        cls = classify(t)
        for alpha in ALPHAS:
            assert getattr(cls, alpha).all(), alpha


def test_closure_of_one_sided_classes():
    # joins of right-transitive elements stay right-transitive, meets of
    # left-transitive ones stay left-transitive
    for key, make in CARRIERS.items():
        if key == "six_cycle":
            continue
        t = make()
        cls = classify(t)
        rtr = np.flatnonzero(cls.rtr)
        assert cls.rtr[t.join[np.ix_(rtr, rtr)]].all(), key
        ltr = np.flatnonzero(cls.ltr)
        assert cls.ltr[t.meet[np.ix_(ltr, ltr)]].all(), key
        m_ass = np.flatnonzero(cls.meet_ass)
        assert cls.meet_ass[t.meet[np.ix_(m_ass, m_ass)]].all(), key
        j_ass = np.flatnonzero(cls.join_ass)
        assert cls.join_ass[t.join[np.ix_(j_ass, j_ass)]].all(), key


def test_subset_helper():
    t = CARRIERS["pentagon"]()
    cls = classify(t)
    assert subset(cls, "rtr") == t.indices(("0", "b", "c", "1"))
    with pytest.raises(ValueError):
        subset(cls, "nope")


def test_iterated_join_is_order_independent_on_rtr():
    t = CARRIERS["hourglass7"]()
    members = sorted(t.indices(("0", "b", "c", "e")))
    ref = iterated_join(t, members)
    assert ref == iterated_join(t, list(reversed(members)))
    assert ref == iterated_join(t, [members[1], members[3], members[0], members[2]])


def test_iterated_meet_single_and_empty():
    t = bounded_chain(3)
    assert iterated_meet(t, [1]) == 1
    assert iterated_meet(t, [2, 1, 0]) == 0
    with pytest.raises(EmptySubset):
        iterated_join(t, [])
