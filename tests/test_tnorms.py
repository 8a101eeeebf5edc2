import dataclasses
import itertools
import random

import numpy as np
import pytest

from trelliskit import (
    AxiomReport,
    BinaryOpTable,
    Trellis,
    build_trellis,
    check,
    is_meet_sub_trellis,
    right_transitive_set,
    check_skala_axioms,
    enumerate_tnorms,
    interior_from_subset,
    is_sub_lattice,
    join_cover_condition,
    join_cover_witness,
    join_op,
    make_op,
    meet_op,
    modular_implication_check,
    modular_violation,
    pointwise_leq,
    random_bounded_psoset,
    random_pseudo_chain,
    random_trellis,
    restrict,
    scaled_meet,
    t_coatom,
    t_drastic,
    t_join_cover,
    tnorm_via_interior,
    tnorm_via_subset,
    validate_psoset,
)
from trelliskit.errors import (
    ElementNotInSubset,
    NotACoAtom,
    NotASubLattice,
    NotModular,
    RangeNotRightTransitive,
    TargetMismatch,
    VNotATnorm,
)
from trelliskit.fixtures import (
    CARRIERS,
    RECORDED_FACTS,
    bounded_chain,
    diamond_lattice,
    recorded_table,
)
from trelliskit import tnorms as tnorms_module
from trelliskit.tnorms import (
    _AXIOMS,
    _GATE_AXIOMS,
    TnormReport,
    _axiom_bad,
    _tnorm_mask,
)


def test_make_op_validates_and_freezes(pentagon):
    tab = pentagon.meet.copy()
    op = make_op(pentagon, tab)
    tab[0, 0] = pentagon.top  # caller's copy, not the op's
    assert op(0, 0) == 0
    with pytest.raises(ValueError):
        op.table[0, 0] = 1

    bad = np.full((pentagon.n, pentagon.n), pentagon.n + 3)
    with pytest.raises(ValueError):
        make_op(pentagon, bad)
    with pytest.raises(ValueError):
        make_op(pentagon, np.zeros((2, 2), dtype=np.int64))
    # not truncated to 1, and not read as 0/1
    with pytest.raises(ValueError, match="integers, got float64"):
        make_op(pentagon, np.full((pentagon.n, pentagon.n), 1.9))
    with pytest.raises(ValueError, match="integers, got bool"):
        make_op(pentagon, np.ones((pentagon.n, pentagon.n), dtype=bool))
    tab = pentagon.meet.copy()
    tab[1, 3], tab[4, 0] = -1, pentagon.n
    with pytest.raises(ValueError, match=r"outside 0\.\.4 at \[\(1, 3\), \(4, 0\)\]"):
        make_op(pentagon, tab)


def test_every_op_is_frozen(pentagon):
    tab = pentagon.meet.copy()
    direct = BinaryOpTable(pentagon, tab)
    tab[0, 0] = pentagon.top  # the caller's array, not the op's
    assert direct(0, 0) == 0
    b = pentagon.index("b")
    rtr = sorted(right_transitive_set(pentagon))
    ops = [
        direct,
        make_op(pentagon, pentagon.meet),
        meet_op(pentagon),
        join_op(pentagon),
        t_drastic(pentagon),
        t_coatom(pentagon, pentagon.index("c")),
        t_join_cover(pentagon),
        scaled_meet(pentagon, rtr, rtr[-1]),
        tnorm_via_subset(pentagon, [pentagon.bottom, b, pentagon.top]),
    ]
    for op in ops:
        assert op.table.dtype == np.int64 and not op.table.flags.writeable
        with pytest.raises(ValueError):
            op.table[0, 0] = 1
        with pytest.raises(ValueError):  # nor can it be made writeable again
            op.table.setflags(write=True)
        for name in ("target", "table"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(op, name, getattr(op, name))
    for op in ops[4:]:  # built from scratch, so the table is the op's own
        assert op.table.base.base is None and not op.table.base.flags.writeable
    sub = ops[-2].target  # scaled_meet's sub-trellis freezes its own tables
    assert not any(a.flags.writeable for a in (sub.rel, sub.meet, sub.join))
    for array in (sub.rel, sub.meet, sub.join):
        with pytest.raises(ValueError):
            array.setflags(write=True)


def test_lattice_meet_is_a_tnorm():
    t = diamond_lattice()
    report = check(meet_op(t))
    assert report.is_tnorm
    assert report.idempotent and report.conjunctive and report.meet_preserving
    assert not report.disjunctive


def test_pentagon_meet_fails_one_sided_monotonicity(pentagon):
    report = check(meet_op(pentagon))
    assert not report.left_increasing and not report.right_increasing
    assert not report.increasing
    # recorded witness: b <= c but F(b, a) and F(c, a) flip out of order
    b, c, a = (pentagon.index(s) for s in RECORDED_FACTS["pentagon.meet_left_right_witness"])
    F = pentagon.meet
    assert pentagon.leq(b, c)
    assert not pentagon.leq(F[b, a], F[c, a])


def test_join_op_is_disjunctive(pentagon):
    report = check(join_op(pentagon))
    assert report.disjunctive and not report.conjunctive
    assert report.neutral_top is False  # the top absorbs instead


def test_drastic_tables_match_the_records(pentagon):
    assert t_drastic(pentagon).same_op(recorded_table("pentagon.T1"))
    report = check(t_drastic(pentagon))
    assert report.is_tnorm and report.meet_preserving


def test_drastic_is_below_everything(pentagon):
    drastic = t_drastic(pentagon)
    for key in ("pentagon.T2", "pentagon.T3", "pentagon.T4", "pentagon.T5", "pentagon.T6"):
        assert pointwise_leq(drastic, recorded_table(key)), key


def test_coatom_construction(pentagon):
    c = pentagon.index("c")
    op = t_coatom(pentagon, c)
    assert op.same_op(recorded_table("pentagon.T2"))
    assert check(op).is_tnorm
    with pytest.raises(NotACoAtom):
        t_coatom(pentagon, pentagon.index("a"))
    with pytest.raises(NotACoAtom):
        t_coatom(pentagon, pentagon.top)


def test_join_cover_condition_and_construction():
    fork = CARRIERS["fork8"]()
    assert join_cover_condition(fork) is True
    assert join_cover_witness(fork) is None
    op = t_join_cover(fork)
    assert op.same_op(recorded_table("fork8.join_cover"))
    assert check(op).is_tnorm

    d7 = CARRIERS["diamond7"]()
    assert join_cover_condition(d7) is False
    witness = join_cover_witness(d7)
    assert witness is not None
    assert tuple(d7.names[i] for i in witness) == RECORDED_FACTS["diamond7.join_cover_witness"]
    # the formula still produces a table there, just not a monotone one
    assert not check(t_join_cover(d7)).increasing


def test_pentagon_construction_landing_spots(pentagon):
    def subset(*names):
        return tnorm_via_subset(pentagon, pentagon.indices(names))

    built = {
        "drastic": t_drastic(pentagon),
        "join_cover": t_join_cover(pentagon),
        "coatom_c": t_coatom(pentagon, pentagon.index("c")),
        "subset_01": subset("0", "1"),
        "subset_0c": subset("0", "c"),
        "subset_0b": subset("0", "b"),
        "subset_0bc": subset("0", "b", "c"),
        "subset_rtr": subset(*RECORDED_FACTS["pentagon.rtr"]),
    }
    landing = RECORDED_FACTS["pentagon.constructions"]
    assert built.keys() == landing.keys()
    for key, op in built.items():
        assert op.same_op(recorded_table(f"pentagon.{landing[key]}")), key


def neutral_top_loop(t, value):
    """The cellwise table: neutral top, value(x, y) everywhere else."""
    tab = np.empty((t.n, t.n), dtype=np.int64)
    for x in range(t.n):
        for y in range(t.n):
            if x == t.top:
                tab[x, y] = y
            elif y == t.top:
                tab[x, y] = x
            else:
                tab[x, y] = value(x, y)
    return tab


def test_table_builders_match_the_cellwise_loops():
    rng = random.Random(23)
    carriers = [make() for key, make in CARRIERS.items() if key != "six_cycle"]
    carriers += [random_trellis(rng, 2 + k % 7) for k in range(60)]
    built = 0
    for t in carriers:
        want = neutral_top_loop(t, lambda x, y: t.bottom)
        assert np.array_equal(t_drastic(t).table, want)
        members = sorted(right_transitive_set(t))
        im = interior_from_subset(t, members)
        f = im.map
        want = neutral_top_loop(t, lambda x, y: t.meet[f[x], f[y]])
        assert np.array_equal(tnorm_via_subset(t, members, unchecked=True).table, want)
        if not is_meet_sub_trellis(t, members):
            continue
        image = sorted(set(f.tolist()))
        sub, _ = restrict(t, image)
        v = scaled_meet(t, image, image[rng.randrange(len(image))])
        for op in (meet_op(sub), v):
            want = neutral_top_loop(
                t, lambda x, y: image[op.table[image.index(f[x]), image.index(f[y])]]
            )
            assert np.array_equal(tnorm_via_interior(t, im, op).table, want)
            built += 1
    assert built > 40


def test_restrict_recomputes_tables(hourglass):
    # {0, b, c, d, e, 1} is closed under meet and join, so the restriction's
    # tables are the carrier's, read at the members
    members = sorted(hourglass.indices(("0", "b", "c", "d", "e", "1")))
    sub, back = restrict(hourglass, members)
    assert back == members
    assert sub.names == hourglass.labels(members)
    assert np.array_equal(sub.rel, hourglass.rel[np.ix_(members, members)])
    glob = np.array(members)
    assert np.array_equal(glob[sub.meet], hourglass.meet[np.ix_(members, members)])
    assert np.array_equal(glob[sub.join], hourglass.join[np.ix_(members, members)])

    # 0 < x, y < m < 1 restricted to {0, x, y, 1}: x v y is m in the
    # carrier, but m is not a member, so inside the restriction it is 1
    rel = np.eye(5, dtype=bool)
    rel[0] = rel[:, 4] = True
    rel[1:3, 3] = True
    t, _ = build_trellis(validate_psoset(rel, ("0", "x", "y", "m", "1")))
    assert t.join[t.index("x"), t.index("y")] == t.index("m")
    sub, back = restrict(t, t.indices(("0", "x", "y", "1")))
    assert back == [0, 1, 2, 4]
    x, y = sub.index("x"), sub.index("y")
    assert sub.join[x, y] == sub.top == sub.index("1")
    assert sub.meet[x, y] == sub.bottom == sub.index("0")


def test_scaled_meet_equals_scaling_the_restriction():
    # scaled_meet reads A's tables off the carrier's; restrict rebuilds
    # them from the restricted relation, and the two must agree
    rng = random.Random(61)
    carriers = [make() for key, make in CARRIERS.items() if key != "six_cycle"]
    carriers += [random_trellis(rng, 2 + k % 7) for k in range(150)]
    cases = 0
    for t in carriers:
        for size in range(1, t.n + 1):
            for A in itertools.combinations(range(t.n), size):
                if not is_sub_lattice(t, A):
                    continue
                sub, members = restrict(t, A)
                for a in A:
                    v = scaled_meet(t, A, a)
                    got = v.target
                    assert got.same_carrier(sub)
                    assert (got.bottom, got.top) == (sub.bottom, sub.top)
                    for mine, theirs in ((got.meet, sub.meet), (got.join, sub.join)):
                        assert mine.dtype == theirs.dtype and not mine.flags.writeable
                        assert np.array_equal(mine, theirs)
                    assert not got.rel.flags.writeable
                    want = sub.meet[sub.meet, members.index(a)]
                    assert np.array_equal(v.table, want)
                    cases += 1
    assert cases > 10_000


def test_scaled_meet_properties(hourglass):
    members = sorted(hourglass.indices(("0", "b", "c", "d", "e", "1")))
    v = scaled_meet(hourglass, members, hourglass.index("b"))
    report = check(v)
    assert report.commutative and report.associative
    assert report.increasing and report.conjunctive
    assert not report.is_tnorm  # no neutral element by design

    with pytest.raises(ElementNotInSubset):
        scaled_meet(hourglass, members, hourglass.index("a"))
    d7 = CARRIERS["diamond7"]()
    with pytest.raises(NotASubLattice):
        scaled_meet(d7, sorted(d7.indices(("0", "a", "c", "d", "e", "1"))), 0)


def test_interior_tnorm_matches_records(hourglass):
    members = sorted(hourglass.indices(("0", "b", "c", "d", "e", "1")))
    op = tnorm_via_subset(hourglass, members)
    assert op.same_op(recorded_table("hourglass7.interior_meet"))
    report = check(op)
    assert report.is_tnorm and report.meet_preserving


def test_interior_tnorm_with_scaled_gate(hourglass):
    members = sorted(hourglass.indices(("0", "b", "c", "d", "e", "1")))
    for gate in ("b", "c", "d", "e"):
        v = scaled_meet(hourglass, members, hourglass.index(gate))
        op = tnorm_via_subset(hourglass, members, v)
        assert op.same_op(recorded_table(f"hourglass7.T_V{gate}")), gate
        assert check(op).is_tnorm, gate


def test_interior_tnorm_on_the_cycle_carrier():
    t = CARRIERS["loop8"]()
    members = sorted(t.indices(("0", "a", "d", "1")))
    op = tnorm_via_subset(t, members)
    assert op.same_op(recorded_table("loop8.interior_meet"))
    assert check(op).is_tnorm


def test_interior_route_equals_subset_route(hourglass):
    members = sorted(hourglass.indices(("0", "b", "c")))
    im = interior_from_subset(hourglass, members)
    assert tnorm_via_interior(hourglass, im).same_op(
        tnorm_via_subset(hourglass, members)
    )


def test_range_must_be_right_transitive(pentagon):
    from trelliskit import UnaryMap

    # the identity passes every interior axiom, but its range includes a,
    # which is not right-transitive on the pentagon
    ident = UnaryMap(pentagon, np.arange(pentagon.n, dtype=np.int64))
    with pytest.raises(RangeNotRightTransitive):
        tnorm_via_interior(pentagon, ident)


def test_gate_rejects_foreign_or_lawless_tables(hourglass):
    members = sorted(hourglass.indices(("0", "b", "c", "d", "e", "1")))
    other = sorted(hourglass.indices(("0", "b", "1")))
    v_other = scaled_meet(hourglass, other, hourglass.index("b"))
    with pytest.raises(VNotATnorm) as info:
        tnorm_via_subset(hourglass, members, v_other)
    assert info.value.report == check(v_other)
    # on the range itself, the range's join is not conjunctive
    lawless = join_op(scaled_meet(hourglass, members, hourglass.index("b")).target)
    with pytest.raises(VNotATnorm) as info:
        tnorm_via_subset(hourglass, members, lawless)
    assert info.value.report == check(lawless)
    assert not info.value.report.conjunctive


def test_gate_rejects_a_table_on_another_order_of_the_range(hourglass):
    # the names are the range's, but the order is a chain's
    members = sorted(hourglass.indices(("0", "b", "c", "d", "e", "1")))
    chain_rel = bounded_chain(len(members)).rel
    assert not np.array_equal(chain_rel, hourglass.rel[np.ix_(members, members)])
    chain, _ = build_trellis(validate_psoset(chain_rel, hourglass.labels(members)))
    assert check(meet_op(chain)).conjunctive
    with pytest.raises(VNotATnorm) as info:
        tnorm_via_subset(hourglass, members, meet_op(chain))
    assert info.value.report == check(meet_op(chain))


def test_unchecked_subset_route_reproduces_the_counterexample():
    t = CARRIERS["diamond7"]()
    members = sorted(t.indices(("0", "a", "c", "d", "e", "1")))
    op = tnorm_via_subset(t, members, unchecked=True)
    assert op.same_op(recorded_table("diamond7.unchecked"))
    report = check(op)
    assert report.commutative and not report.increasing
    x, z, y, w = (t.index(s) for s in RECORDED_FACTS["diamond7.unchecked_increasing_witness"])
    assert t.leq(x, z)
    assert not t.leq(op(x, y), op(z, w) if (y, x) != (w, z) else op(z, y))


def test_unchecked_refuses_a_gate(hourglass):
    members = sorted(hourglass.indices(("0", "b", "1")))
    v = scaled_meet(hourglass, members, hourglass.index("b"))
    with pytest.raises(ValueError):
        tnorm_via_subset(hourglass, members, v, unchecked=True)


def test_pointwise_leq_requires_matching_carriers(pentagon):
    with pytest.raises(TargetMismatch):
        pointwise_leq(t_drastic(pentagon), t_drastic(bounded_chain(5)))


def test_neutral_top_witness_shape(pentagon):
    tab = pentagon.meet.copy()
    report = check(make_op(pentagon, tab))
    assert report.neutral_top  # meet always has the top neutral
    broken = tab.copy()
    broken[pentagon.top, 0] = pentagon.top
    report = check(make_op(pentagon, broken))
    assert report.neutral_top is False
    assert report.witnesses["neutral_top"] == (0,)


def test_reports_cannot_be_changed(pentagon):
    broken = pentagon.meet.copy()
    broken[pentagon.top, 0] = pentagon.top
    report = check(make_op(pentagon, broken))
    assert report.witnesses["neutral_top"] == (0,) and not report.is_tnorm
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.neutral_top = True
    with pytest.raises(TypeError):
        report.witnesses["neutral_top"] = None
    axioms = check_skala_axioms(pentagon.meet, pentagon.join)
    for field in dataclasses.fields(axioms):
        with pytest.raises(AttributeError):
            getattr(axioms, field.name).append((0, 1))
    assert report.witnesses["neutral_top"] == (0,) and not report.is_tnorm
    assert axioms.ok


def first_witnesses(op):
    """Witness oracle: for each failed flag, the first violating tuple of
    a plain lexicographic loop over the flag's quantifiers."""
    tab, t, n = op.table, op.target, op.n
    rel, meet, join, top = t.rel, t.meet, t.join, t.top
    grid = list(itertools.product(range(n), repeat=2))
    cube = list(itertools.product(range(n), repeat=3))
    laws = {
        "commutative": (grid, lambda x, y: tab[x, y] == tab[y, x]),
        "associative": (cube, lambda x, y, z: tab[tab[x, y], z] == tab[x, tab[y, z]]),
        "neutral_top": (
            [(x,) for x in range(n)],
            lambda x: tab[x, top] == x and tab[top, x] == x,
        ),
        "increasing": (
            itertools.product(range(n), repeat=4),
            lambda x, y, z, w: not (rel[x, y] and rel[z, w])
            or rel[tab[x, z], tab[y, w]],
        ),
        "left_increasing": (
            cube, lambda x, y, z: not rel[x, y] or rel[tab[x, z], tab[y, z]]
        ),
        "right_increasing": (
            cube, lambda x, y, z: not rel[x, y] or rel[tab[z, x], tab[z, y]]
        ),
        "idempotent": ([(x,) for x in range(n)], lambda x: tab[x, x] == x),
        "conjunctive": (grid, lambda x, y: rel[tab[x, y], meet[x, y]]),
        "disjunctive": (grid, lambda x, y: rel[join[x, y], tab[x, y]]),
        "meet_preserving": (
            cube, lambda x, y, z: tab[x, meet[y, z]] == meet[tab[x, y], tab[x, z]]
        ),
    }
    found = {}
    for flag, (space, holds) in laws.items():
        bad = next((args for args in space if not holds(*args)), None)
        if bad is not None:
            found[flag] = tuple(int(v) for v in bad)
    return found


def loop_modular_violation(t):
    n, rel, meet, join = t.n, t.rel, t.meet, t.join
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if rel[x, z] and join[x, meet[y, z]] != meet[join[x, y], z]:
                    return (x, y, z)
    return None


def loop_modular_implication(t):
    """None when not modular, else the implication's truth value."""
    if loop_modular_violation(t) is not None:
        return None
    rel, meet, join, top = t.rel, t.meet, t.join, t.top
    for x in range(t.n):
        for y in range(t.n):
            if join[x, y] != top:
                continue
            for z in range(t.n):
                if rel[x, z] and not rel[meet[x, y], z]:
                    return False
    return True


def loop_join_cover_witness(t):
    bottom, top, meet, join, n = t.bottom, t.top, t.meet, t.join, t.n
    for x in range(n):
        for y in range(n):
            if meet[x, y] == bottom or join[x, y] != top:
                continue
            for z in range(n):
                for w in range(n):
                    if join[join[x, z], join[y, w]] != top:
                        return (x, y, z, w)
    return None


def loop_skala_axioms(meet, join):
    n = meet.shape[0]
    commutative, idempotent, absorption, part = [], [], [], []
    for x in range(n):
        if meet[x, x] != x or join[x, x] != x:
            idempotent.append((x,))
        for y in range(n):
            if meet[x, y] != meet[y, x] or join[x, y] != join[y, x]:
                commutative.append((x, y))
            if join[x, meet[y, x]] != x or meet[x, join[y, x]] != x:
                absorption.append((x, y))
            for z in range(n):
                lhs = join[x, join[meet[x, y], meet[x, z]]]
                rhs = meet[x, meet[join[x, y], join[x, z]]]
                if lhs != x or rhs != x:
                    part.append((x, y, z))
    return AxiomReport(
        tuple(commutative), tuple(idempotent), tuple(absorption), tuple(part)
    )


def trellis_witnesses(t):
    """Each trellis-level scan's result next to its loop oracle's."""
    try:
        implication = modular_implication_check(t)
    except NotModular:
        implication = None
    return {
        "modular": (modular_violation(t), loop_modular_violation(t)),
        "implication": (implication, loop_modular_implication(t)),
        "join_cover": (join_cover_witness(t), loop_join_cover_witness(t)),
        "axioms": (
            check_skala_axioms(t.meet, t.join), loop_skala_axioms(t.meet, t.join)
        ),
    }


def outcome(got):
    if isinstance(got, AxiomReport):
        return got.ok
    return got if got is None or isinstance(got, bool) else "witness"


def test_witnesses_are_the_lexicographically_first_violations():
    rng = random.Random(17)
    np_rng = np.random.default_rng(17)
    flags = set()
    for k in range(40):
        t = random_trellis(rng, 3 + k % 4)
        tnorms = enumerate_tnorms(t).tnorms
        tables = [np_rng.integers(0, t.n, (t.n, t.n))]
        for op in tnorms[:: max(1, len(tnorms) // 3)]:
            near = op.table.copy()  # one cell off a t-norm
            near[np_rng.integers(t.n), np_rng.integers(t.n)] = np_rng.integers(t.n)
            tables += [op.table, near]
        for tab in tables:
            op = make_op(t, tab)
            want = first_witnesses(op)
            assert check(op).witnesses == want
            flags.update(want)
    assert len(flags) == 10  # every flag's witness scan was exercised

    # The trellis-level scans return the loops' tuples in the loops' order:
    # on the shipped and random trellises, and on random table pairs over a
    # chain, half of them modular by construction (join always the top, the
    # top absorbing in the meet) so that the implication scan can fail.
    carriers = [make() for key, make in CARRIERS.items() if key != "six_cycle"]
    for k in range(140):
        make = random_pseudo_chain if k % 2 else random_trellis
        carriers.append(make(rng, 2 + k % 7))
    for k in range(60):
        n = 1 + k % 8
        meet, join = np_rng.integers(0, n, (2, n, n))
        if k % 2:
            join[:] = meet[-1] = n - 1
        c = bounded_chain(n)
        carriers.append(Trellis(c.names, c.rel, meet=meet, join=join))
    seen = set()
    for t in carriers:
        for name, (got, want) in trellis_witnesses(t).items():
            assert got == want, name
            seen.add((name, outcome(got)))
    assert seen == {
        ("modular", None), ("modular", "witness"),
        ("implication", None), ("implication", True), ("implication", False),
        ("join_cover", None), ("join_cover", "witness"),
        ("axioms", True), ("axioms", False),
    }


AXIOMS = ("commutative", "associative", "neutral_top", "increasing")

# On the chain 0 < 1 < 2 < 3, tables that fail exactly one t-norm axiom:
# the inner 3x3 block (rows and columns 0..2) of each, the top neutral.
ONE_AXIOM_OFF = {
    "commutative": [[0, 0, 0], [0, 0, 0], [0, 1, 2]],
    "associative": [[0, 0, 0], [0, 0, 1], [0, 1, 1]],
    "neutral_top": None,  # constant bottom
    "increasing": [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
}


def failed_axioms(report):
    return {name for name in AXIOMS if not getattr(report, name)}


def one_axiom_off_tables():
    """The chain of ONE_AXIOM_OFF and its tables, axiom -> table."""
    chain, tables = bounded_chain(4), {}
    for name, inner in ONE_AXIOM_OFF.items():
        tab = np.zeros((4, 4), dtype=np.int64)
        if inner is not None:
            tab[:3, :3] = inner
            tab[3], tab[:, 3] = np.arange(4), np.arange(4)
        tables[name] = tab
    return chain, tables


def test_kernel_equals_check_when_one_axiom_fails():
    chain, off = one_axiom_off_tables()
    tables = []
    for name, tab in off.items():
        assert failed_axioms(check(make_op(chain, tab))) == {name}
        tables.append(tab)
    carriers = [(chain, tables + [op.table for op in enumerate_tnorms(chain).tnorms])]

    # Random carriers: their t-norms, one or two cells off them (the pair
    # (i, j), (j, i) keeps the table commutative) and random tables.
    rng = random.Random(61)
    np_rng = np.random.default_rng(61)
    for k in range(60):
        make = random_trellis if k % 2 else random_bounded_psoset
        t = make(rng, 3 + k % 4)
        tables = list(np_rng.integers(0, t.n, (3, t.n, t.n)))
        for op in enumerate_tnorms(t).tnorms[:20]:
            i, j, v = np_rng.integers(t.n, size=3)
            one, both = op.table.copy(), op.table.copy()
            one[i, j] = both[i, j] = both[j, i] = v
            tables += [op.table, one, both]
        carriers.append((t, tables))

    alone = set()
    for t, tables in carriers:
        tabs = np.array(tables)
        reports = [check(make_op(t, tab)) for tab in tabs]
        want = [report.is_tnorm for report in reports]
        assert _tnorm_mask(tabs, t.rel, t.top).tolist() == want
        for report in reports:
            failed = failed_axioms(report)
            if len(failed) == 1:
                alone |= failed
    assert alone == set(AXIOMS)


def kernel_cut_stacks():
    """(carrier, stack) on every bounded shipped carrier (loop8 is cyclic,
    fork8 not transitive), the chain of ONE_AXIOM_OFF and random carriers
    with n = 1..7.  Each stack mixes t-norms, symmetric neutral-topped
    tables, the same with one cell pair changed, which can fail one axiom
    alone, and tables that are not symmetric."""
    rng = np.random.default_rng(3030)
    carriers = [make() for key, make in CARRIERS.items() if key != "six_cycle"]
    fork8 = CARRIERS["fork8"]()
    draws = random.Random(3031)
    carriers += [
        (random_trellis if k % 2 else random_bounded_psoset)(draws, 1 + k % 7)
        for k in range(42)
    ]
    chain, off = one_axiom_off_tables()
    yield chain, np.array(list(off.values()))
    for t in carriers:
        n, top = t.n, t.top
        found = enumerate_tnorms(t).tables
        tables = list(found[rng.permutation(len(found))[:12]])
        for _ in range(8):  # symmetric, with the top neutral
            tab = np.triu(rng.integers(0, n, (n, n)))
            tab += np.triu(tab, 1).T
            tab[top, :] = tab[:, top] = np.arange(n)
            tables.append(tab)
        for tab in list(tables):
            i, j, v = rng.integers(n, size=3)
            both, one = tab.copy(), tab.copy()
            both[i, j] = both[j, i] = one[i, j] = v
            tables += [both, one]
        if t.same_carrier(fork8):
            # T(d, d) = a: d <= e and a <= T(d, e) <= T(e, e), yet not
            # a <= T(e, e), so the only violations are T(x, x) <= T(y, y)
            # for x <= y, on the pair-pairs (p, p)
            tab = found[230].copy()
            tab[t.index("d"), t.index("d")] = t.index("a")
            tables.append(tab)
        tables += list(rng.integers(0, n, (4, n, n)))
        yield t, np.array(tables, dtype=np.int64)


def test_kernel_cut_equals_the_full_masks_of_check():
    # _tnorm_mask reads half masks once commutativity has passed; check()
    # reads every cell, so its flags are the authority on every stack; a
    # list without commutative must read the full masks throughout
    axiom_lists = [_AXIOMS, _GATE_AXIOMS, _AXIOMS[1:], *((axiom,) for axiom in _AXIOMS)]
    alone, cut, diagonal = set(), 0, 0
    for t, tabs in kernel_cut_stacks():
        bad = _axiom_bad("increasing", tabs, t.rel, t.top)
        off = bad & ~np.eye(bad.shape[-1], dtype=bool)
        diagonal += int((bad.any(axis=(1, 2)) & ~off.any(axis=(1, 2))).sum())
        reports = [check(make_op(t, tab)) for tab in tabs]
        assert _tnorm_mask(tabs, t.rel, t.top).tolist() == [r.is_tnorm for r in reports]
        for axioms in axiom_lists:
            want = [all(getattr(r, axiom) for axiom in axioms) for r in reports]
            assert _tnorm_mask(tabs, t.rel, t.top, axioms).tolist() == want, axioms
        for report in reports:
            failed = failed_axioms(report)
            if len(failed) == 1:
                alone |= failed
            # a symmetric table judged by the half masks of the others
            cut += report.commutative and not report.is_tnorm
    assert alone == set(AXIOMS)
    assert cut > 100
    assert diagonal > 0  # so the half mask must keep p == q


def test_same_op_compares_the_carriers_relations():
    # a five-element chain under the pentagon's names: same names, same
    # drastic table, different order
    pentagon = CARRIERS["pentagon"]()
    chain, _ = build_trellis(
        validate_psoset(bounded_chain(5).rel, pentagon.names)
    )
    a, b = t_drastic(pentagon), t_drastic(chain)
    assert np.array_equal(a.table, b.table)
    assert not a.same_op(b) and not b.same_op(a)
    assert a.same_op(t_drastic(pentagon))
    with pytest.raises(TargetMismatch):
        pointwise_leq(a, b)


def axiom_bad_oracle(axiom, tabs, rel, top):
    """_axiom_bad as it stood before the flat gathers: 3-D and 4-D
    broadcast fancy indexing."""
    idx = np.arange(tabs.shape[-1])
    if axiom == "neutral_top":
        return (tabs[:, :, top] != idx) | (tabs[:, top, :] != idx)
    if axiom == "commutative":
        return tabs != tabs.transpose(0, 2, 1)
    if axiom == "increasing":
        lo, hi = np.nonzero(rel)
        low, high = tabs[:, lo[:, None], lo[None, :]], tabs[:, hi[:, None], hi[None, :]]
        return ~rel[low, high]
    b = np.arange(len(tabs))[:, None, None, None]
    left = tabs[b, tabs[:, :, :, None], idx]
    right = tabs[b, idx[:, None, None], tabs[:, None, :, :]]
    return left != right


def tnorm_mask_oracle(tabs, rel, top, axioms):
    """_tnorm_mask as it stood: every axiom cuts the stack down first."""
    keep = np.ones(len(tabs), dtype=bool)
    for axiom in axioms:
        live = np.flatnonzero(keep)
        if not len(live):
            break
        bad = axiom_bad_oracle(axiom, tabs[live], rel, top)
        keep[live] = ~bad.reshape(len(live), -1).any(axis=1)
    return keep


def kernel_stacks():
    """(rel, top, stack) with n = 1..8 and 1..200 tables.  Random
    relations and tops carry random tables and ones made neutral-topped
    and commutative; random carriers carry their t-norms, copies with one
    cell changed and random tables."""
    rng = np.random.default_rng(1801)
    carriers = random.Random(1802)
    for k in range(160):
        n, b = 1 + k % 8, int(rng.integers(1, 201))
        if k % 2 and 3 <= n <= 6:
            make = random_trellis if k % 4 == 1 else random_bounded_psoset
            t = make(carriers, n)
            rel, top = t.rel, t.top
            tables = [op.table for op in enumerate_tnorms(t).tnorms]
            for tab in tables[:b // 2]:
                tab = tab.copy()
                tab[tuple(rng.integers(n, size=2))] = rng.integers(n)
                tables.append(tab)
        else:
            rel = (rng.random((n, n)) < rng.uniform(0.1, 0.7)) | np.eye(n, dtype=bool)
            top, tables = int(rng.integers(n)), []
            for _ in range(b // 2):
                tab = np.triu(rng.integers(0, n, (n, n)))
                tab = tab + np.triu(tab, 1).T
                tab[top, :] = tab[:, top] = np.arange(n)
                tables.append(tab)
        tables += list(rng.integers(0, n, (b, n, n)))
        order = rng.permutation(len(tables))[:b]
        yield rel, top, np.array([tables[i] for i in order], dtype=np.int64)


# every nonempty subset of the axioms, forwards and backwards
AXIOM_SUBSETS = [
    axioms
    for r in range(1, len(_AXIOMS) + 1)
    for combo in itertools.combinations(_AXIOMS, r)
    for axioms in (combo, combo[::-1])
]


def assert_kernel_equals_the_oracle(tabs, rel, top, label=""):
    for axiom in _AXIOMS:
        got, want = _axiom_bad(axiom, tabs, rel, top), axiom_bad_oracle(axiom, tabs, rel, top)
        assert got.shape == want.shape and np.array_equal(got, want), (label, axiom)
    for axioms in AXIOM_SUBSETS:
        got = _tnorm_mask(tabs, rel, top, axioms)
        assert np.array_equal(got, tnorm_mask_oracle(tabs, rel, top, axioms)), (label, axioms)


def test_axiom_kernel_equals_the_fancy_indexing_oracle():
    passed = failed = 0
    for rel, top, tabs in kernel_stacks():
        assert_kernel_equals_the_oracle(tabs, rel, top)
        mask = _tnorm_mask(tabs, rel, top)
        passed += int(mask.sum())
        failed += int((~mask).sum())
    assert passed > 1000 and failed > 1000


def test_axiom_kernel_edge_cases_equal_the_oracle():
    chain, off = one_axiom_off_tables()
    found = enumerate_tnorms(chain).tables
    # label -> (stack, the tables that fail)
    stacks = {
        "empty": (found[:0], []),
        "one t-norm": (found[:1], []),
        "one table failing": (off["increasing"][None], [0]),
        "all fail the first axiom": (np.stack([off["neutral_top"]] * 3), [0, 1, 2]),
        "all pass": (found, []),
    }
    for name, tab in off.items():  # one table fails this axiom alone
        for at in (0, len(found) // 2, len(found)):
            stacks[f"{name} off at {at}"] = (np.insert(found, at, tab, axis=0), [at])
    for label, (tabs, failing) in stacks.items():
        assert_kernel_equals_the_oracle(tabs, chain.rel, chain.top, label)
        mask = _tnorm_mask(tabs, chain.rel, chain.top)
        assert mask.dtype == bool and mask.shape == (len(tabs),), label
        assert np.flatnonzero(~mask).tolist() == failing, label


def test_the_kernel_reduces_a_mask_per_table_only_after_a_failure(monkeypatch):
    axes = []  # the axis of every any() taken of an axiom's mask

    class Counted(np.ndarray):
        def any(self, axis=None, **kwargs):
            axes.append(axis)
            return np.asarray(self).any(axis=axis, **kwargs)

    chain, off = one_axiom_off_tables()
    found = enumerate_tnorms(chain).tables
    real = tnorms_module._axiom_bad
    monkeypatch.setattr(tnorms_module, "_axiom_bad", lambda *args: real(*args).view(Counted))
    assert _tnorm_mask(found, chain.rel, chain.top).all()
    assert axes == [None] * len(_AXIOMS)  # one any() over each whole mask
    axes.clear()
    tabs = np.concatenate([found, off["increasing"][None]])
    assert np.flatnonzero(~_tnorm_mask(tabs, chain.rel, chain.top)).tolist() == [len(found)]
    # commutative, neutral_top, increasing and then its per-table any(), associative
    assert axes == [None, None, None, 1, None]


def test_is_tnorm_reads_the_four_axioms():
    assert TnormReport(**dict.fromkeys(_AXIOMS, True)).is_tnorm is True
    for axiom in _AXIOMS:
        for value in (False, None):  # None: the flag does not apply
            flags = {**dict.fromkeys(_AXIOMS, True), axiom: value}
            assert TnormReport(**flags).is_tnorm is False, (axiom, value)
    # the other flags play no part
    others = {"idempotent": False, "conjunctive": False, "meet_preserving": None}
    assert TnormReport(**dict.fromkeys(_AXIOMS, True), **others).is_tnorm is True
    assert TnormReport().is_tnorm is False
