"""Law checks on randomly generated carriers.

The deep random suite (hundreds of instances, every recorded law) lives in
the reproduction module and runs from test_acceptance; these are the quick
per-law slices that point at the offending property directly when they
fail.
"""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from trelliskit import (
    ALPHAS,
    Trellis,
    build_trellis,
    bruteforce_tnorms,
    check,
    check_skala_axioms,
    classify,
    co_atoms,
    enumerate_tnorms,
    hasse,
    induced_order,
    interior_from_subset,
    iterated_join,
    maximal_cycles,
    order_diagram,
    pointwise_leq,
    random_bounded_psoset,
    random_pseudo_chain,
    random_trellis,
    right_transitive_set,
    structure_kind,
    t_coatom,
    t_drastic,
    t_join_cover,
    tnorm_via_subset,
    validate_interior,
    validate_psoset,
)
from trelliskit.errors import TrellisKitError
from trelliskit.fixtures import CARRIERS

seeds = st.integers(0, 10**6)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(2, 7))
def test_generated_relation_is_reflexive_antisymmetric(seed, n):
    p = random_bounded_psoset(random.Random(seed), n)
    assert p.rel.diagonal().all()
    assert not (p.rel & p.rel.T & ~np.eye(n, dtype=bool)).any()


@settings(max_examples=50, deadline=None)
@given(seed=seeds, n=st.integers(2, 6))
def test_tables_recover_the_pseudo_order(seed, n):
    t = random_trellis(random.Random(seed), n)
    assert np.array_equal(induced_order(t.meet, t.join), t.rel)
    assert check_skala_axioms(t.meet, t.join).ok


@settings(max_examples=50, deadline=None)
@given(seed=seeds, n=st.integers(3, 7))
def test_cycles_avoid_one_sided_transitive_elements(seed, n):
    # an element inside a genuine cycle is never left- or right-transitive
    t = random_trellis(random.Random(seed), n, cycle_prob=0.8)
    cls = classify(t)
    for cycle in maximal_cycles(t):
        for x in cycle:
            assert not cls.rtr[x] and not cls.ltr[x]


@settings(max_examples=50, deadline=None)
@given(seed=seeds, n=st.integers(3, 7))
def test_transitive_psosets_draw_plain_diagrams(seed, n):
    p = random_bounded_psoset(random.Random(seed), n)
    d = hasse(p)
    if p.is_transitive():
        assert d.dashed_pairs == () and d.back_edges == ()
    for x, y in d.cover_edges:
        assert p.leq(x, y)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(2, 5))
def test_engine_matches_bruteforce(seed, n):
    t = random_trellis(random.Random(seed), n)
    res = enumerate_tnorms(t)
    brute = bruteforce_tnorms(t)
    assert [op.table.tolist() for op in res.tnorms] == [
        op.table.tolist() for op in brute
    ]


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(2, 6))
def test_drastic_is_always_the_least_tnorm(seed, n):
    t = random_trellis(random.Random(seed), n)
    drastic = t_drastic(t)
    assert check(drastic).is_tnorm
    for op in enumerate_tnorms(t).tnorms:
        assert pointwise_leq(drastic, op)


def grown_subset(rng, t):
    """A random join-closed, meet-closed chunk of the right-transitive
    part, always containing the bottom."""
    cls = classify(t)
    pool = [x for x in range(t.n) if cls.rtr[x]]
    members = {t.bottom} | {x for x in pool if rng.random() < 0.5}
    while True:
        grown = set(members)
        for x in members:
            for y in members:
                grown.add(int(t.join[x, y]))
                grown.add(int(t.meet[x, y]))
        if grown == members:
            return sorted(members) if all(cls.rtr[x] for x in members) else None
        members = grown
        if not all(cls.rtr[x] for x in members):
            return None


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(3, 7))
def test_subset_interiors_validate_and_build_tnorms(seed, n):
    rng = random.Random(seed)
    t = random_trellis(rng, n)
    members = grown_subset(rng, t)
    if members is None:
        return
    im = interior_from_subset(t, members)
    assert validate_interior(t, im).ok
    assert check(tnorm_via_subset(t, members)).is_tnorm


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(3, 7))
def test_iterated_join_of_rtr_subsets_ignores_order(seed, n):
    rng = random.Random(seed)
    t = random_trellis(rng, n)
    cls = classify(t)
    pool = [x for x in range(t.n) if cls.rtr[x]]
    rng.shuffle(pool)
    members = pool[: rng.randint(1, len(pool))]
    ref = iterated_join(t, members)
    for _ in range(4):
        rng.shuffle(members)
        assert iterated_join(t, members) == ref


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(2, 7))
def test_pseudo_chain_classes_collapse(seed, n):
    # on pseudo-chains the associativity-flavored classes all coincide,
    # and the right-transitive part is always a workable interior range
    t = random_pseudo_chain(random.Random(seed), n)
    cls = classify(t)
    assert np.array_equal(cls.ass, cls.meet_ass)
    assert np.array_equal(cls.ass, cls.join_ass)
    assert np.array_equal(cls.ass, cls.tr)
    members = sorted(np.flatnonzero(cls.rtr))
    op = tnorm_via_subset(t, members)
    assert check(op).is_tnorm


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(2, 5))
def test_enumeration_output_is_sorted_and_unique(seed, n):
    t = random_trellis(random.Random(seed), n)
    res = enumerate_tnorms(t)
    keys = [tuple(op.table.ravel().tolist()) for op in res.tnorms]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for op in res.tnorms:
        assert check(op).is_tnorm


def test_relabelling_permutes_every_result():
    # Element x of p becomes element perm[x] of q.  Every result on q must
    # be the result on p moved the same way; a kernel, guard or scan that
    # leans on index order breaks this where the oracles, which share the
    # index order, cannot see it.
    rng = random.Random(23)
    carriers = [make() for make in CARRIERS.values()]
    carriers += [random_trellis(rng, 2 + k % 5, cycle_prob=0.5) for k in range(30)]
    # bounded psosets that are not trellises: the relabelling moves their
    # top, and with it the neutral cells the search leaves out of its
    # occurrence index, into the middle of the table
    more = random.Random(33)
    carriers += [random_bounded_psoset(more, 3 + k % 5) for k in range(30)]
    cycles_seen = built = dashed_seen = searched = 0
    for p in carriers:
        perm = np.array(rng.sample(range(p.n), p.n))
        inv = np.argsort(perm)
        q = validate_psoset(p.rel[np.ix_(inv, inv)], [p.names[i] for i in inv])

        def moved(table):
            return perm[table[np.ix_(inv, inv)]]

        cycles = maximal_cycles(p)
        cycles_seen += len(cycles)
        want = {frozenset(int(perm[x]) for x in c) for c in cycles}
        assert set(maximal_cycles(q)) == want
        if p.top is not None and p.bottom is not None:
            res_p, res_t = enumerate_tnorms(p), enumerate_tnorms(q)
            want = {tuple(moved(op.table).flat) for op in res_p.tnorms}
            assert {tuple(op.table.flat) for op in res_t.tnorms} == want
            searched += not isinstance(p, Trellis) and q.top not in (0, q.n - 1)
        if not isinstance(p, Trellis):
            continue
        t, kind = build_trellis(q)
        assert kind == structure_kind(p)
        assert np.array_equal(t.meet, moved(p.meet))
        assert np.array_equal(t.join, moved(p.join))
        cls_p, cls_t = classify(p), classify(t)
        for alpha in ALPHAS:
            assert np.array_equal(getattr(cls_t, alpha), getattr(cls_p, alpha)[inv])
        rtr = right_transitive_set(p)
        assert right_transitive_set(t) == {int(perm[x]) for x in rtr}
        for c in co_atoms(p):
            want = moved(t_coatom(p, c).table)
            assert np.array_equal(t_coatom(t, int(perm[c])).table, want)
        assert np.array_equal(t_join_cover(t).table, moved(t_join_cover(p).table))
        want = via_subset(p, rtr)
        got = via_subset(t, [int(perm[x]) for x in rtr])
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, moved(want))
            built += 1
        else:
            assert got is want
        # the order diagram moves with the permutation sigma this induces
        # on the t-norms: sigma[k] is where p's k-th t-norm sits among q's
        on_t = {tuple(op.table.flat): k for k, op in enumerate(res_t.tnorms)}
        sigma = [on_t[tuple(moved(op.table).flat)] for op in res_p.tnorms]
        d_p, d_t = order_diagram(res_p), order_diagram(res_t)

        def image(pairs):
            return {(sigma[u], sigma[v]) for u, v in pairs}

        assert set(d_t.cover_edges) == image(d_p.cover_edges)
        assert set(d_t.dashed_pairs) == {
            (min(e), max(e)) for e in image(d_p.dashed_pairs)
        }
        assert set(d_t.back_edges) == image(d_p.back_edges)
        dashed_seen += len(d_p.dashed_pairs)
    assert cycles_seen > 0 and built > 0 and dashed_seen > 0 and searched > 0


def via_subset(t, A):
    """tnorm_via_subset's table on A, or the class of the error it raises."""
    try:
        return tnorm_via_subset(t, A).table
    except TrellisKitError as e:
        return type(e)
