import functools
import random
import sys

import numpy as np
import pytest

from trelliskit import (
    build_trellis,
    classify,
    check_skala_axioms,
    induced_order,
    infimum,
    is_modular,
    is_sub_lattice,
    is_sub_trellis,
    iterated_join,
    iterated_meet,
    modular_implication_check,
    modular_violation,
    random_bounded_psoset,
    random_trellis,
    relation,
    scaled_meet,
    structure_kind,
    supremum,
    trellis_from_tables,
    validate_psoset,
)
from trelliskit.errors import (
    AxiomsFailed,
    EmptySubset,
    NotATrellis,
    NotModular,
    ValidationError,
)
from trelliskit.fixtures import CARRIERS, bounded_chain, diamond_lattice


def test_pentagon_tables_spot_values(pentagon):
    t = pentagon
    a, b, c = t.index("a"), t.index("b"), t.index("c")
    bot, top = t.bottom, t.top
    # a and c are unrelated (only a path through b), so their bounds
    # collapse to the extremes
    assert t.meet[a, c] == bot and t.join[a, c] == top
    assert t.meet[b, c] == b and t.join[a, b] == b
    assert t.meet[bot, top] == bot and t.join[bot, top] == top


def test_meet_join_are_commutative_and_pass_axioms(pentagon):
    t = pentagon
    assert np.array_equal(t.meet, t.meet.T)
    assert np.array_equal(t.join, t.join.T)
    assert check_skala_axioms(t.meet, t.join).ok


def test_every_shipped_trellis_passes_the_axioms():
    for key, make in CARRIERS.items():
        if key == "six_cycle":
            continue
        t = make()
        report = check_skala_axioms(t.meet, t.join)
        assert report.ok, key


def test_no_trellis_without_a_join():
    # two incomparable maximal elements: {a, b} has no upper bound at all
    rel = np.eye(3, dtype=bool)
    rel[0, 1] = rel[0, 2] = True
    p = validate_psoset(rel, ("0", "a", "b"))
    with pytest.raises(NotATrellis) as info:
        build_trellis(p)
    assert "a" in str(info.value) and "b" in str(info.value)


def test_structure_kind_flags():
    t = bounded_chain(3)
    kind = structure_kind(t)
    assert kind.is_trellis and kind.is_lattice and kind.is_bounded

    p = CARRIERS["pentagon"]()
    kind = structure_kind(validate_psoset(p.rel, p.names))
    assert kind.is_trellis and not kind.is_lattice
    assert kind.is_meet_semi_trellis and kind.is_join_semi_trellis

    six = CARRIERS["six_cycle"]()
    assert not structure_kind(six).is_bounded


def test_infimum_supremum_of_subsets(pentagon):
    t = pentagon
    assert infimum(t, t.indices(("a", "c"))) == t.bottom
    assert supremum(t, t.indices(("a", "c"))) == t.top
    assert infimum(t, t.indices(("b", "c"))) == t.index("b")
    assert supremum(t, range(t.n)) == t.top
    with pytest.raises(EmptySubset):
        infimum(t, ())


def test_induced_order_round_trip():
    for key, make in CARRIERS.items():
        if key == "six_cycle":
            continue
        t = make()
        assert np.array_equal(induced_order(t.meet, t.join), t.rel), key


def test_trellis_from_tables_round_trip(pentagon):
    t2 = trellis_from_tables(pentagon.names, pentagon.meet, pentagon.join)
    assert np.array_equal(t2.rel, pentagon.rel)
    assert np.array_equal(t2.meet, pentagon.meet)


def test_trellis_from_tables_rejects_garbage():
    n = 3
    meet = np.zeros((n, n), dtype=np.int64)
    join = np.full((n, n), 2, dtype=np.int64)
    join[0, 1] = 0  # breaks commutativity with join[1, 0]
    join[1, 0] = 1
    with pytest.raises(AxiomsFailed):
        trellis_from_tables(("0", "a", "1"), meet, join)


@pytest.mark.parametrize(
    "meet, join, cells",
    [
        ([[0, 0], [0, 1]], [[0, 1], [1, 5]], [(1, 1)]),
        ([[0, -1], [0, 1]], [[0, 1], [2, 1]], [(0, 1), (1, 0)]),
        ([[0, 0], [0, 1]], [[0, 1, 1], [1, 1, 1]], []),
        ([[0, 0], [0, 1]], [[0.0, 1.0], [1.0, 1.0]], []),
    ],
    ids=["too-large", "negative-and-too-large", "shapes-differ", "not-integer"],
)
def test_tables_out_of_shape_or_range_are_a_validation_error(meet, join, cells):
    # cells hold an entry outside 0..n-1 in either table, in row-major order
    for call in (
        lambda: trellis_from_tables(("a", "b"), meet, join),
        lambda: induced_order(np.asarray(meet), np.asarray(join)),
        lambda: check_skala_axioms(np.asarray(meet), np.asarray(join)),
    ):
        with pytest.raises(ValidationError) as info:
            call()
        assert info.value.violations == cells


def loop_infimum(rel, S):
    lows = np.flatnonzero(rel[:, sorted(S)].all(axis=1))
    for g in lows:
        if rel[lows, g].all():
            return int(g)
    return None


def loop_supremum(rel, S):
    ups = np.flatnonzero(rel[sorted(S), :].all(axis=0))
    for g in ups:
        if rel[g, ups].all():
            return int(g)
    return None


def loop_build(rel):
    """The per-pair loop the tables were first built with: the tables
    (-1 where a pair has no bound) and the NotATrellis pair and kind."""
    n = len(rel)
    meet = np.full((n, n), -1, dtype=np.int64)
    join = np.full((n, n), -1, dtype=np.int64)
    missing_meet = missing_join = None
    for x in range(n):
        for y in range(x, n):
            m = loop_infimum(rel, (x, y))
            j = loop_supremum(rel, (x, y))
            if m is None and missing_meet is None:
                missing_meet = (x, y)
            if j is None and missing_join is None:
                missing_join = (x, y)
            meet[x, y] = meet[y, x] = -1 if m is None else m
            join[x, y] = join[y, x] = -1 if j is None else j
    if missing_meet is None and missing_join is None:
        return meet, join, None
    pair, kind = missing_meet, "meet"
    if missing_meet is None or (
        missing_join is not None and missing_join < missing_meet
    ):
        pair, kind = missing_join, "join"
    return meet, join, (pair, kind)


def random_relation(rng, n):
    """Any reflexive antisymmetric relation: each pair is unrelated or
    related one way, with a per-carrier density."""
    rel = np.eye(n, dtype=bool)
    density = rng.random()
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < density:
                rel[(x, y) if rng.random() < 0.5 else (y, x)] = True
    return rel


def test_tables_and_gaps_match_the_per_pair_loops():
    rng = random.Random(4)
    carriers = []
    for k in range(600):
        n = 1 + k % 9
        if k % 3 == 0:
            carriers.append(validate_psoset(random_relation(rng, n), map(str, range(n))))
        elif k % 3 == 1:
            carriers.append(random_bounded_psoset(rng, n))
        else:
            carriers.append(random_trellis(rng, n))
    carriers += [make() for make in CARRIERS.values()]
    seen = set()
    for p in carriers:
        meet, join, gap = loop_build(p.rel)
        kind = structure_kind(p)
        assert kind.is_meet_semi_trellis == (meet >= 0).all()
        assert kind.is_join_semi_trellis == (join >= 0).all()
        if gap is None:
            t, _ = build_trellis(p)
            assert np.array_equal(t.meet, meet) and np.array_equal(t.join, join)
            seen.add("trellis")
        else:
            with pytest.raises(NotATrellis) as info:
                build_trellis(p)
            assert (info.value.pair, info.value.kind) == gap
            pair, kind = gap
            tie = (meet[pair] < 0) and (join[pair] < 0)
            seen.add("tie" if tie else kind)
        for S in ({0}, set(range(p.n)), set(rng.sample(range(p.n), rng.randint(1, p.n)))):
            assert infimum(p, S) == loop_infimum(p.rel, S)
            assert supremum(p, S) == loop_supremum(p.rel, S)
    assert seen == {"trellis", "meet", "join", "tie"}


def test_modularity_checks():
    assert is_modular(CARRIERS["pentagon"]())
    assert is_modular(CARRIERS["fork8"]())
    assert is_modular(CARRIERS["diamond7"]())
    assert is_modular(diamond_lattice())

    # classic non-modular lattice: 0 < a < c < 1 and 0 < b < 1
    rel = np.eye(5, dtype=bool)
    order = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)}
    for x, y in order:
        rel[x, y] = True
    p = validate_psoset(rel, ("0", "a", "c", "b", "1"))
    t, kind = build_trellis(p)
    assert kind.is_lattice and not kind.is_modular
    witness = modular_violation(t)
    assert witness is not None
    x, y, z = witness
    assert t.leq(x, z)
    lhs = t.join[x, t.meet[y, z]]
    rhs = t.meet[t.join[x, y], z]
    assert lhs != rhs


def test_modular_implication_holds_on_modular_carriers():
    for key in ("pentagon", "fork8", "diamond7"):
        assert modular_implication_check(CARRIERS[key]()), key
    with pytest.raises(NotModular):
        modular_implication_check(CARRIERS["twin_peaks7"]())


def test_sub_trellis_and_sub_lattice(hourglass):
    t = hourglass
    rtr = t.indices(("0", "b", "c", "d", "e", "1"))
    assert is_sub_trellis(t, rtr)
    assert is_sub_lattice(t, rtr)
    # the right-transitive part of the seven-element diamond is NOT closed
    # under meets (c ^ d lands on b, which is outside)
    d7 = CARRIERS["diamond7"]()
    d7_rtr = d7.indices(("0", "a", "c", "d", "e", "1"))
    assert not is_sub_trellis(d7, d7_rtr)
    assert not is_sub_lattice(d7, d7_rtr)


# --- each subset is validated once per entry point ---------------------------


@pytest.fixture
def members_calls(monkeypatch):
    """Counts relation._members calls, through every module that binds it."""
    calls = []
    real = relation._members

    def counted(p, A):
        calls.append(1)
        return real(p, A)

    for name, module in list(sys.modules.items()):
        if name.startswith("trelliskit") and hasattr(module, "_members"):
            monkeypatch.setattr(module, "_members", counted)
    return calls


def sub_lattice_oracle(t, members):
    inside = np.zeros(t.n, dtype=bool)
    inside[members] = True
    block = np.ix_(members, members)
    closed = inside[t.meet[block]].all() and inside[t.join[block]].all()
    rel = t.rel[block]
    k = len(members)
    transitive = all(
        rel[x, z] or not (rel[x, y] and rel[y, z])
        for x in range(k) for y in range(k) for z in range(k)
    )
    return bool(closed and transitive)


def test_one_subset_validation_per_entry_point(members_calls):
    rng = random.Random(1405)
    carriers = [make() for key, make in CARRIERS.items() if key != "six_cycle"]
    carriers += [random_trellis(rng, 2 + k % 7) for k in range(60)]
    lattices = 0
    for t in carriers:
        for _ in range(6):
            A = rng.sample(range(t.n), rng.randint(1, t.n))
            members = sorted(A)
            members_calls.clear()
            got = is_sub_lattice(t, A)
            assert len(members_calls) == 1
            assert got is sub_lattice_oracle(t, members)
            members_calls.clear()
            is_sub_trellis(t, A)
            assert len(members_calls) == 1
            if not got:
                continue
            lattices += 1
            a = rng.choice(members)
            members_calls.clear()
            v = scaled_meet(t, A, a)
            assert len(members_calls) == 2  # A, then a through _member
            m = np.array(members)
            want = np.searchsorted(m, t.meet[t.meet[np.ix_(m, m)], a])
            assert np.array_equal(v.table, want)
        cls = classify(t)
        folds = ((iterated_join, cls.rtr, t.join), (iterated_meet, cls.ltr, t.meet))
        for fn, side, table in folds:
            S = np.flatnonzero(side).tolist()
            members_calls.clear()
            got = fn(t, S)
            assert len(members_calls) == 1
            assert got == functools.reduce(lambda x, y: int(table[x, y]), S)
    assert lattices > 100
