import contextlib
import dataclasses
import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import trelliskit as tk
from trelliskit import (
    HasseDiagram,
    Psoset,
    co_atoms,
    down_set,
    hasse,
    is_cycle,
    is_pseudo_chain,
    maximal_cycles,
    random_bounded_psoset,
    reachable,
    restricted_reachable,
    up_set,
    validate_psoset,
)
from trelliskit.errors import (
    BottomMissing,
    DuplicateName,
    ElementNotInSubset,
    EmptySubset,
    NotAntisymmetric,
    NotReflexive,
    PreconditionError,
    ValidationError,
)
from trelliskit.fixtures import CARRIERS, RECORDED_FACTS, bounded_chain, carrier_document
from trelliskit.relation import _escapes, _frozen, transitive_closure


def chain_rel(n):
    return np.fromfunction(lambda i, j: i <= j, (n, n), dtype=int)


def test_validate_accepts_chain():
    p = validate_psoset(chain_rel(3), ("x", "y", "z"))
    assert p.n == 3
    assert p.bottom == 0 and p.top == 2
    assert p.leq(0, 2) and not p.leq(2, 0)
    assert p.is_transitive()


def test_validate_rejects_missing_reflexivity():
    rel = chain_rel(3)
    rel[1, 1] = False
    with pytest.raises(NotReflexive):
        validate_psoset(rel, ("x", "y", "z"))


def test_validate_rejects_mutual_pairs():
    rel = chain_rel(3)
    rel[2, 0] = True
    with pytest.raises(NotAntisymmetric) as info:
        validate_psoset(rel, ("x", "y", "z"))
    assert "x" in str(info.value) and "z" in str(info.value)


def test_validate_rejects_duplicate_names():
    with pytest.raises(DuplicateName):
        validate_psoset(chain_rel(2), ("x", "x"))


def test_singleton_is_fine():
    p = validate_psoset(np.ones((1, 1), dtype=bool), ("o",))
    assert p.bottom == p.top == 0


def test_name_lookup_round_trip():
    p = CARRIERS["pentagon"]()
    for k, name in enumerate(p.names):
        assert p.index(name) == k
    assert p.indices(("a", "c")) == frozenset({p.index("a"), p.index("c")})
    assert tuple(p.labels([0, 1])) == (p.names[0], p.names[1])


def test_transitive_closure_follows_paths():
    rel = np.eye(4, dtype=bool)
    rel[0, 1] = rel[1, 2] = rel[2, 3] = True
    closed = transitive_closure(rel)
    assert closed[0, 3] and closed[0, 2] and closed[1, 3]
    assert not closed[3, 0]


def test_pentagon_is_not_transitive():
    p = CARRIERS["pentagon"]()
    a, b, c = p.index("a"), p.index("b"), p.index("c")
    assert p.leq(a, b) and p.leq(b, c) and not p.leq(a, c)
    assert not p.is_transitive()
    assert reachable(p, a, c)  # through b


def test_restricted_reachability_loses_the_intermediate():
    p = CARRIERS["pentagon"]()
    a, b, c = p.index("a"), p.index("b"), p.index("c")
    assert restricted_reachable(p, [a, b, c], a, c)
    assert not restricted_reachable(p, [a, c], a, c)
    # with C = everything the two notions agree
    for x in range(p.n):
        for y in range(p.n):
            assert restricted_reachable(p, range(p.n), x, y) == reachable(p, x, y)


def test_pseudo_chain_recognition():
    chain = bounded_chain(4)
    assert is_pseudo_chain(chain, range(4))
    p = CARRIERS["pentagon"]()
    assert is_pseudo_chain(p, p.indices(("0", "a", "b")))
    # a relates to c only through b, so {a, c} alone is not a pseudo-chain
    assert not is_pseudo_chain(p, p.indices(("a", "c")))


def test_six_cycle_maximal_cycles():
    p = CARRIERS["six_cycle"]()
    cycles = maximal_cycles(p)
    assert [p.labels(c) for c in cycles] == RECORDED_FACTS["six_cycle.maximal_cycles"]
    assert is_cycle(p, cycles[0])
    assert not is_cycle(p, p.indices(("a", "b")))


def test_transitive_psosets_have_no_cycles():
    for k in range(2, 6):
        assert maximal_cycles(bounded_chain(k)) == []


def test_up_down_sets_and_co_atoms():
    p = CARRIERS["pentagon"]()
    assert set(p.labels(down_set(p, p.index("b")))) == {"0", "a", "b"}
    assert set(p.labels(up_set(p, p.index("b")))) == {"b", "c", "1"}
    assert set(p.labels(co_atoms(p))) == RECORDED_FACTS["pentagon.co_atoms"]


def test_pentagon_hasse_matches_recorded_shape():
    p = CARRIERS["pentagon"]()
    d = hasse(p)
    assert isinstance(d, HasseDiagram)
    covers = RECORDED_FACTS["pentagon.covers"]
    assert d.cover_edges == tuple(sorted((p.index(x), p.index(y)) for x, y in covers))
    dashed = RECORDED_FACTS["pentagon.dashed"]
    assert d.dashed_pairs == tuple(sorted(tuple(sorted(p.indices(s))) for s in dashed))
    assert d.back_edges == ()


def test_loop_hasse_has_directed_back_edge():
    p = CARRIERS["loop8"]()
    d = hasse(p)
    named_back = {(p.names[x], p.names[y]) for x, y in d.back_edges}
    assert RECORDED_FACTS["loop8.back_edge"] in named_back


def test_chain_hasse_is_covers_only():
    t = bounded_chain(4)
    d = hasse(t)
    assert d.cover_edges == ((0, 1), (1, 2), (2, 3))
    assert d.dashed_pairs == () and d.back_edges == ()


def test_relation_is_frozen():
    p = CARRIERS["pentagon"]()
    with pytest.raises(ValueError):
        p.rel[0, 0] = False


def test_shared_arrays_cannot_be_made_writeable_again():
    # numpy lets an array that owns its data be made writeable again, but
    # not a view of a read-only array, which is what _frozen hands out
    pentagon = CARRIERS["pentagon"]()
    classes = tk.classify(pentagon)
    shared = (
        pentagon.rel,
        pentagon.closure,
        tk.t_drastic(pentagon).table,
        carrier_document("hourglass7").rel,
        classes.rtr,  # the carrier's cached mask, which is_transitive reads
        classes.dis,
    )
    for array in shared:
        with pytest.raises(ValueError):
            array.setflags(write=True)
        assert _frozen(array) is array
    owner = np.eye(3, dtype=bool)
    owner.setflags(write=False)
    kept = _frozen(owner)
    assert kept is not owner and not np.shares_memory(kept, owner)
    assert np.array_equal(kept, owner) and _frozen(kept) is kept
    with pytest.raises(ValueError):
        kept.setflags(write=True)


def test_a_carrier_holds_only_its_definition():
    assert [f.name for f in dataclasses.fields(Psoset)] == ["names", "rel"]
    assert [f.name for f in dataclasses.fields(tk.Trellis)] == [
        "names", "rel", "meet", "join",
    ]
    p = CARRIERS["pentagon"]()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.top = 0
    with pytest.raises(TypeError):
        Psoset(p.names, p.rel, bottom=4, top=0)


def random_carriers(count):
    """count seeded random carriers: bounded psosets, trellises,
    pseudo-chains and unbounded psosets in turn."""
    rng = random.Random(1515)
    for k in range(count):
        n = 1 + k % 7
        if k % 4 == 3:
            # a random strict upper triangle under a random relabelling
            # is antisymmetric, and mostly lacks a bottom or a top
            rel = np.eye(n, dtype=bool) | np.triu(
                np.array([[rng.random() < 0.4 for _ in range(n)] for _ in range(n)])
            )
            perm = rng.sample(range(n), n)
            yield validate_psoset(rel[np.ix_(perm, perm)], [str(i) for i in range(n)])
        else:
            make = (random_bounded_psoset, tk.random_trellis, tk.random_pseudo_chain)
            yield make[k % 4](rng, n)


def fresh_carriers():
    """The shipped carriers and 300 random ones, each rebuilt from its
    fields, so that nothing derived is cached yet."""
    shipped = (make() for make in CARRIERS.values())
    for p in itertools.chain(shipped, random_carriers(300)):
        yield dataclasses.replace(p)


def test_derived_facts_equal_the_eager_expressions():
    bounded = set()
    for p in fresh_carriers():
        rel = p.rel
        for axis, derived in ((1, p.bottom), (0, p.top)):
            hits = np.flatnonzero(rel.all(axis=axis))
            assert derived == (int(hits[0]) if len(hits) else None)
            assert derived is None or type(derived) is int
        bounded.add(p.bottom is not None and p.top is not None)
        assert np.array_equal(p.closure, transitive_closure(rel))
        assert p.closure is p.closure and not p.closure.flags.writeable
        escapes = _escapes(rel)
        rtr, ltr = p._side_masks
        assert np.array_equal(rtr, ~escapes.any(axis=1))
        assert np.array_equal(ltr, ~escapes.any(axis=0))
        assert p.is_transitive() == (not escapes.any())
    assert bounded == {True, False}


def test_the_two_step_relation_is_computed_once_per_carrier(monkeypatch):
    calls = []

    def counted(rel):
        calls.append(1)
        return _escapes(rel)

    monkeypatch.setattr(tk.relation, "_escapes", counted)
    trellises = 0
    for p in fresh_carriers():
        if not isinstance(p, tk.Trellis):
            continue
        trellises += 1
        calls.clear()
        tk.classify(p)
        for side in (tk.iterated_join, tk.iterated_meet):
            with contextlib.suppress(PreconditionError):
                side(p, range(p.n))
        tk.right_transitive_set(p)
        p.is_transitive()
        assert len(calls) == 1
    assert trellises > 100


def closure_by_squaring(rel):
    """Closure oracle: square the boolean matrix until nothing changes."""
    closure = rel.copy()
    while True:
        bigger = closure | (closure @ closure)
        if np.array_equal(bigger, closure):
            return bigger
        closure = bigger


def random_relations(count, seed):
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = 1 + k % 12
        yield rng.random((n, n)) < rng.uniform(0.05, 0.5)


def test_warshall_closure_equals_repeated_squaring():
    seen = set()
    for rel in random_relations(120, seed=5):
        closed = transitive_closure(rel)
        assert np.array_equal(closed, closure_by_squaring(rel))
        assert not np.shares_memory(closed, rel)
        seen.add((len(rel), np.array_equal(closed, rel)))
    assert (1, True) in seen and any(not same for _, same in seen)


def test_closure_leaves_transitive_relations_alone():
    rel = np.fromfunction(lambda i, j: i <= j, (6, 6), dtype=int)
    assert np.array_equal(transitive_closure(rel), rel)
    assert transitive_closure(np.zeros((0, 0), dtype=bool)).shape == (0, 0)


def test_hasse_covers_equal_the_matmul_definition():
    for rel in random_relations(60, seed=8):
        rel = rel | np.eye(len(rel), dtype=bool)
        rel &= ~(rel.T & np.triu(rel, 1))  # keep it antisymmetric
        p = validate_psoset(rel, [f"e{k}" for k in range(len(rel))])
        noid = rel & ~np.eye(len(rel), dtype=bool)
        covers = noid & ~((noid.astype(int) @ noid.astype(int)) > 0)
        assert hasse(p).cover_edges == tuple(
            sorted((int(x), int(y)) for x, y in zip(*np.nonzero(covers)))
        )


def test_maximal_cycles_equal_mutual_reachability():
    rng = random.Random(31)
    acyclic = random.Random(32)
    found = 0
    transitive = set()
    for k in range(80):
        cyclic = random_bounded_psoset(rng, 3 + k % 6, cycle_prob=0.6)
        poset = random_bounded_psoset(acyclic, 3 + k % 6, k % 3, cycle_prob=0)
        for p in (cyclic, poset):
            reach = closure_by_squaring(p.rel)
            groups = {frozenset(np.flatnonzero(reach[x] & reach[:, x]).tolist())
                      for x in range(p.n)}
            want = sorted((g for g in groups if len(g) >= 2), key=min)
            assert maximal_cycles(p) == want
            found += len(want)
            assert p.is_transitive() == np.array_equal(p.closure, p.rel)
            transitive.add(p.is_transitive())
    assert found > 0 and transitive == {True, False}


# Every entry point that reads a subset, called on pentagon with subset A.
SUBSET_READERS = {
    "restricted_reachable": lambda t, A: tk.restricted_reachable(t, A, 0, 0),
    "is_pseudo_chain": tk.is_pseudo_chain,
    "is_cycle": tk.is_cycle,
    "infimum": tk.infimum,
    "supremum": tk.supremum,
    "is_meet_sub_trellis": tk.is_meet_sub_trellis,
    "is_join_sub_trellis": tk.is_join_sub_trellis,
    "is_sub_trellis": tk.is_sub_trellis,
    "is_sub_lattice": tk.is_sub_lattice,
    "iterated_join": tk.iterated_join,
    "iterated_meet": tk.iterated_meet,
    "interior_from_subset": tk.interior_from_subset,
    "restrict": tk.restrict,
    "scaled_meet": lambda t, A: tk.scaled_meet(t, A, 0),
    "tnorm_via_subset": tk.tnorm_via_subset,
    "tnorm_via_subset_unchecked": lambda t, A: tk.tnorm_via_subset(
        t, A, unchecked=True
    ),
}


@pytest.mark.parametrize("bad", [-1, 9, 1.0, True])
@pytest.mark.parametrize("reader", sorted(SUBSET_READERS))
def test_subset_entries_out_of_range_are_a_validation_error(reader, bad):
    # -1 used to be read as the top, 9 to end in an IndexError
    t = CARRIERS["pentagon"]()
    with pytest.raises(ValidationError) as err:
        SUBSET_READERS[reader](t, [0, bad])
    assert err.value.violations == [bad]


# Every function that takes an element index reads it the way the subset
# readers read their entries; the index here is the last argument.
ELEMENT_READERS = {
    "reachable": lambda t, x: tk.reachable(t, 0, x),
    "restricted_reachable": lambda t, x: tk.restricted_reachable(t, [0, 1], 0, x),
    "down_set": tk.down_set,
    "up_set": tk.up_set,
    "t_coatom": tk.t_coatom,
    "scaled_meet": lambda t, x: tk.scaled_meet(t, [0, 4], x),
    "leq": lambda t, x: t.leq(0, x),
    "labels": lambda t, x: t.labels([0, x]),
    "flags": lambda t, x: tk.classify(t).flags(x),
    "op_call": lambda t, x: tk.t_drastic(t)(x, x),
    "map_call": lambda t, x: tk.interior_from_subset(t, [0, 4])(x),
}


@pytest.mark.parametrize("bad", [-1, 9, 1.0, True])
@pytest.mark.parametrize("reader", sorted(ELEMENT_READERS))
def test_element_index_out_of_range_is_a_validation_error(reader, bad):
    # -1 used to be read as the top, 9 to end in an IndexError
    t = CARRIERS["pentagon"]()
    with pytest.raises(ValidationError) as err:
        ELEMENT_READERS[reader](t, bad)
    assert err.value.violations == [bad]


# What each reader does with the empty subset: the exception class it
# raises, or None when it answers (each of those answers True).
EMPTY_SUBSET_OUTCOMES = {
    "restricted_reachable": ElementNotInSubset,
    "is_pseudo_chain": EmptySubset,
    "is_cycle": EmptySubset,
    "infimum": EmptySubset,
    "supremum": EmptySubset,
    "is_meet_sub_trellis": None,
    "is_join_sub_trellis": None,
    "is_sub_trellis": None,
    "is_sub_lattice": None,
    "iterated_join": EmptySubset,
    "iterated_meet": EmptySubset,
    "interior_from_subset": BottomMissing,
    "restrict": EmptySubset,
    "scaled_meet": ElementNotInSubset,
    "tnorm_via_subset": BottomMissing,
    "tnorm_via_subset_unchecked": BottomMissing,
}


@pytest.mark.parametrize("reader", sorted(SUBSET_READERS))
def test_empty_subset(reader):
    t = CARRIERS["pentagon"]()
    error = EMPTY_SUBSET_OUTCOMES[reader]
    if error is None:
        assert SUBSET_READERS[reader](t, []) is True
        return
    with pytest.raises(PreconditionError) as err:
        SUBSET_READERS[reader](t, [])
    assert type(err.value) is error


def test_subset_reader_sorts_and_dedupes():
    t = CARRIERS["pentagon"]()
    assert tk.supremum(t, np.array([2, 0, 2])) == tk.supremum(t, [0, 2])
    assert tk.restrict(t, (3, 0, 3, 4))[1] == [0, 3, 4]
    with pytest.raises(EmptySubset):
        tk.restrict(t, [])


def test_import_does_not_load_scipy():
    code = "import sys, trelliskit; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


def test_carriers_keep_read_only_copies_of_writeable_arrays():
    pentagon = CARRIERS["pentagon"]()
    rel = pentagon.rel.copy()
    p = tk.Psoset(pentagon.names, rel)
    assert p.top == pentagon.top and p.is_transitive() is False
    rel[:] = True  # the caller's array, not the carrier's
    assert p.same_carrier(pentagon) and not p.rel.flags.writeable
    assert (p.top, p.is_transitive()) == (pentagon.top, False)
    meet, join = pentagon.meet.copy(), pentagon.join.copy()
    t = tk.Trellis(pentagon.names, pentagon.rel, meet, join)
    meet[:] = join[:] = 0
    assert np.array_equal(t.meet, pentagon.meet) and np.array_equal(t.join, pentagon.join)
    assert not (t.meet.flags.writeable or t.join.flags.writeable)
    # read-only arrays, as validate_psoset and build_trellis leave them, are shared
    again = tk.Trellis(pentagon.names, pentagon.rel, pentagon.meet, pentagon.join)
    assert again.rel is pentagon.rel and again.meet is pentagon.meet
    assert again.join is pentagon.join
