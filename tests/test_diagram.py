"""The diagram layer against the unpacked, closure-based code it replaced.

The oracles below are that code as it stood: Warshall on the unpacked
boolean matrix, strongly connected components read off the closure, DOT
levels from the closure of the cover graph plus a relaxation loop, and
the diagram with covers from the two-step mask and reachability from the
closure for every relation.
"""

import random
import tracemalloc

import numpy as np
import pytest

from trelliskit import (
    enumerate_tnorms,
    hasse,
    maximal_cycles,
    order_diagram,
    random_bounded_psoset,
    random_trellis,
    relation,
    validate_psoset,
)
from trelliskit.fileformat import _levels
from trelliskit.fixtures import CARRIERS, bounded_chain
from trelliskit.relation import (
    HasseDiagram,
    _bit_rows,
    _diagram,
    _hits,
    _reach,
    _two_step_covers,
    _unpack,
    strong_components,
    transitive_closure,
)


def warshall_oracle(rel):
    closure = np.array(rel, dtype=bool)
    for k in range(len(closure)):
        closure |= closure[:, k, None] & closure[k]
    return closure


def components_oracle(closure):
    """Each node labelled by the smallest node it shares a cycle with."""
    mutual = closure & closure.T
    mutual |= np.eye(len(mutual), dtype=bool)
    return mutual.argmax(axis=1) if len(mutual) else np.zeros(0, dtype=np.intp)


def levels_oracle(n, covers):
    if not covers:
        return [0] * n
    graph = np.zeros((n, n), dtype=bool)
    graph[tuple(np.transpose(covers))] = True
    comp = components_oracle(warshall_oracle(graph)).tolist()
    level = [0] * n
    comp_edges = {(comp[u], comp[v]) for u, v in covers if comp[u] != comp[v]}
    for _ in range(n):
        changed = False
        for cu, cv in comp_edges:
            if level[cv] < level[cu] + 1:
                level[cv] = level[cu] + 1
                changed = True
        if not changed:
            break
    return [level[comp[x]] for x in range(n)]


def cycles_oracle(p):
    labels = components_oracle(warshall_oracle(p.rel))
    groups = [np.flatnonzero(labels == x) for x in range(p.n) if labels[x] == x]
    return [frozenset(g.tolist()) for g in groups if len(g) >= 2]


def random_digraph(rng, n):
    """Edge list of a random digraph on 0..n-1, cycles allowed."""
    density = rng.uniform(0.02, 0.3)
    return [(u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < density]


@pytest.mark.parametrize("n", [1, 2, 9, 319, 320, 321, 365])
def test_closure_equals_the_unpacked_oracle_on_both_sides_of_packing(n):
    rng = np.random.default_rng(n)
    for successors in (0.5, 3.0, n / 4):
        rel = rng.random((n, n)) < successors / n
        closed = transitive_closure(rel)
        assert closed.dtype == bool and closed.shape == (n, n)
        assert np.array_equal(closed, warshall_oracle(rel))
        assert not np.shares_memory(closed, rel)


def test_closure_of_a_long_chain_needs_every_step():
    # one path through all nodes in a shuffled order: the index order is
    # not topological, so the reach comes from the pass over the strong
    # components, each node's from the one after it on the path; the
    # closure is a total order
    n = 329
    order = np.random.default_rng(3).permutation(n)
    rel = np.eye(n, dtype=bool)
    rel[order[:-1], order[1:]] = True
    rank = np.argsort(order)
    assert np.array_equal(transitive_closure(rel), rank[:, None] <= rank[None, :])


def test_closure_of_a_topological_relation_keeps_its_own_diagonal():
    # every related pair in index order, so the sweep applies; x then
    # reaches itself only when x <= x, whatever the rest of its row holds
    rng = np.random.default_rng(1705)
    for k in range(240):
        n = 1 + k % 40
        rel = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.6))
        rel[np.diag_indices(n)] = rng.random(n) < (k % 3) / 2
        rows = [int.from_bytes(r.tobytes(), "little")
                for r in np.packbits(rel, axis=1, bitorder="little")]
        assert _reach(rows)[0] is not None
        closed = transitive_closure(rel)
        assert np.array_equal(closed, warshall_oracle(rel))
        assert np.array_equal(closed.diagonal(), rel.diagonal())


def test_a_row_that_is_its_own_reach_is_kept_as_the_reach():
    # so a transitive relation's reach is its rows, object for object,
    # and holds no second copy of them
    rng = np.random.default_rng(1707)
    for k in range(240):
        n = 1 + k % 40
        rel = rng.random((n, n)) < rng.uniform(0.02, 0.4)
        if k % 2:
            rel = np.triu(rel)
        if k % 3 == 0:
            rel = warshall_oracle(rel)
        rows = _bit_rows(rel)
        reach = _reach(rows)[1]
        assert all((r is s) == (r == s) for r, s in zip(reach, rows))
        assert (reach == rows) == np.array_equal(warshall_oracle(rel), rel)


def test_closure_of_cyclic_relations_as_given_and_relabelled():
    rng = np.random.default_rng(1706)
    for k in range(240):
        n = 3 + k % 38
        if k % 2:
            rel = cyclic_relation(rng, n)
            rel[np.diag_indices(n)] = rng.random(n) < (k % 3) / 2
        else:
            rel = rng.random((n, n)) < rng.uniform(0.5, 3.0) / n
        perm = rng.permutation(n)
        for given in (rel, rel[np.ix_(perm, perm)]):
            assert np.array_equal(transitive_closure(given), warshall_oracle(given))


def test_components_come_out_in_reverse_topological_order():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randrange(1, 30)
        edges = random_digraph(rng, n)
        succ = [[] for _ in range(n)]
        for u, v in edges:
            succ[u].append(v)
        components = strong_components(succ)
        assert sorted(x for c in components for x in c) == list(range(n))
        where = {x: k for k, c in enumerate(components) for x in c}
        assert all(where[v] <= where[u] for u, v in edges)
        graph = np.eye(n, dtype=bool)
        for u, v in edges:
            graph[u, v] = True
        labels = components_oracle(warshall_oracle(graph))
        assert all(labels[x] == min(c) for c in components for x in c)


def test_levels_equal_the_oracle_on_random_digraphs():
    rng = random.Random(5)
    cyclic = 0
    for _ in range(1500):
        n = rng.randrange(1, 25)
        covers = sorted(random_digraph(rng, n))
        assert _levels(n, covers) == levels_oracle(n, covers)
        succ = [[v for u2, v in covers if u2 == u] for u in range(n)]
        cyclic += any(len(c) > 1 for c in strong_components(succ))
    assert cyclic > 100


def test_levels_of_covers_that_all_go_up_in_index():
    # these take the one sweep in index order in place of the component
    # pass, in whatever order the covers come
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randrange(1, 25)
        covers = [(u, v) for u, v in random_digraph(rng, n) if u < v]
        rng.shuffle(covers)
        assert _levels(n, covers) == levels_oracle(n, covers)


def test_levels_where_the_covers_reach_less_than_the_relation():
    # in a pseudo-order x <= y may hold with no chain of covers from x to
    # y, so the cover graph can have fewer or smaller cycles than rel
    rng = random.Random(6)
    weaker = 0
    for k in range(400):
        p = random_bounded_psoset(rng, 4 + k % 6, cycle_prob=0.7)
        covers = sorted(hasse(p).cover_edges)
        assert _levels(p.n, covers) == levels_oracle(p.n, covers)
        graph = np.eye(p.n, dtype=bool)
        for u, v in covers:
            graph[u, v] = True
        weaker += not np.array_equal(warshall_oracle(graph), p.closure)
    assert weaker > 0


def test_maximal_cycles_equal_the_oracle():
    carriers = [make() for make in CARRIERS.values()]
    rng = random.Random(7)
    carriers += [random_bounded_psoset(rng, 3 + k % 8, cycle_prob=0.7)
                 for k in range(300)]
    found = 0
    for p in carriers:
        assert maximal_cycles(p) == cycles_oracle(p)
        found += bool(maximal_cycles(p))
    assert found > 50


def test_hasse_on_a_packed_order_equals_the_unpacked_one():
    # a 340-node relation with cycles and unrelated-but-connected pairs, so
    # the reach routine takes the pass over the strong components and the
    # diagram unpacks it; against the diagram built on the oracle
    n = 340
    rng = np.random.default_rng(9)
    rel = rng.random((n, n)) < 2.5 / n
    rel &= ~(rel.T & np.triu(rel, 1))
    rel |= np.eye(n, dtype=bool)
    p = validate_psoset(rel, [f"e{k}" for k in range(n)])
    d = hasse(p)
    reach = warshall_oracle(rel)
    noid = rel & ~np.eye(n, dtype=bool)
    unrelated = ~rel & ~rel.T
    dashed = unrelated & (reach | reach.T)
    assert d.back_edges == tuple(
        sorted((int(x), int(y)) for x, y in zip(*np.nonzero(noid & reach.T)))
    )
    assert d.dashed_pairs == tuple(
        sorted((int(x), int(y)) for x, y in zip(*np.nonzero(dashed)) if x < y)
    )
    covers = noid & ~((noid.astype(int) @ noid.astype(int)) > 0)
    assert d.cover_edges == tuple(
        sorted((int(x), int(y)) for x, y in zip(*np.nonzero(covers)))
    )
    assert d.back_edges and d.dashed_pairs


def hasse_oracle(p):
    """hasse as it stood before the sweep, for every relation."""
    eye = np.eye(p.n, dtype=bool)
    noid = p.rel & ~eye
    rows = np.packbits(noid, axis=1)
    mid = np.zeros_like(rows)  # [x, y] bit: some z with x < z < y
    for x in range(p.n):
        mid[x] = np.bitwise_or.reduce(rows[noid[x]], axis=0)
    has_mid = np.unpackbits(mid, axis=1, count=p.n).view(bool)
    reach = warshall_oracle(p.rel)
    dashed = ~p.rel & ~p.rel.T & (reach | reach.T) & ~eye
    return HasseDiagram(
        cover_edges=tuple(_hits(noid & ~has_mid)),
        dashed_pairs=tuple(_hits(np.triu(dashed))),
        back_edges=tuple(_hits(noid & reach.T)),
    )


def pointwise_psoset(res):
    """An enumeration's pointwise order as a psoset, by its cellwise
    definition: T<a+1> <= T<b+1> iff tables[a] <= tables[b] in every cell."""
    rel, tables, w = res.target.rel, res.tables, res.count
    order = np.array([rel[tab, tables].all(axis=(1, 2)) for tab in tables])
    return validate_psoset(order.reshape(w, w), [f"T{k + 1}" for k in range(w)])


def upper_relation(rng, n, closed):
    """A random reflexive relation with every related pair x <= y in index
    order; transitively closed when closed is True."""
    rel = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.6))
    rel |= np.eye(n, dtype=bool)
    return warshall_oracle(rel) if closed else rel


def cyclic_relation(rng, n):
    """upper_relation with a chain a < b < c turned into a cycle."""
    rel = upper_relation(rng, n, closed=False)
    a, b, c = sorted(rng.choice(n, 3, replace=False))
    rel[a, b] = rel[b, c] = rel[c, a] = True
    rel[a, c] = False
    return rel


def relabelled(p, rng):
    """p with its elements numbered by a random permutation, and that map."""
    perm = rng.permutation(p.n)  # element perm[k] of p becomes element k
    q = validate_psoset(p.rel[np.ix_(perm, perm)], [p.names[k] for k in perm])
    return q, np.argsort(perm)


def edge_sets(d, new):
    """The diagram's edges under the numbering new; dashed pairs unordered."""
    def renumber(edges):
        return {(int(new[u]), int(new[v])) for u, v in edges}

    return (
        renumber(d.cover_edges),
        {frozenset(e) for e in renumber(d.dashed_pairs)},
        renumber(d.back_edges),
    )


def diagram_relations():
    """(family, psoset): the four kinds of relation the diagram sees."""
    rng = np.random.default_rng(1701)
    out = []
    for k in range(260):
        n = 1 + k % 40
        for family, rel in (
            ("transitive", upper_relation(rng, n, closed=True)),
            ("acyclic", upper_relation(rng, n, closed=False)),
        ):
            out.append((family, validate_psoset(rel, [f"e{i}" for i in range(n)])))
        if n >= 3:
            rel = cyclic_relation(rng, n)
            out.append(("cyclic", validate_psoset(rel, [f"e{i}" for i in range(n)])))
    carriers = random.Random(1702)
    for k in range(250):
        make = random_trellis if k % 2 else random_bounded_psoset
        res = enumerate_tnorms(make(carriers, 3 + k % 3))
        out.append(("pointwise", pointwise_psoset(res)))
    return out


def test_hasse_equals_the_closure_based_oracle_as_given_and_relabelled():
    rng = np.random.default_rng(1703)
    relations = diagram_relations()
    assert len(relations) >= 1000
    swept = {"transitive": 0, "acyclic": 0}
    for family, p in relations:
        d = hasse(p)
        assert d == hasse_oracle(p), family
        rows = [int.from_bytes(r.tobytes(), "little")
                for r in np.packbits(p.rel, axis=1, bitorder="little")]
        if _reach(rows)[0] is not None:
            swept["acyclic" if d.dashed_pairs else "transitive"] += 1
        q, new = relabelled(p, rng)
        e = hasse(q)
        assert e == hasse_oracle(q), family
        assert edge_sets(e, range(q.n)) == edge_sets(d, new), family
    families = [family for family, _ in relations]
    assert {f: families.count(f) for f in set(families)}.keys() == {
        "transitive", "acyclic", "cyclic", "pointwise"
    }
    # both sweep outcomes are exercised, and cycles take the closure path
    assert swept["transitive"] > 200 and swept["acyclic"] > 100
    assert sum(bool(hasse(p).back_edges) for f, p in relations if f == "cyclic") > 100


def test_order_diagram_equals_the_oracle_on_the_int_rows():
    carriers = [make() for key, make in CARRIERS.items() if key != "six_cycle"]
    rng = random.Random(1704)
    carriers += [random_bounded_psoset(rng, 3 + k % 3, cycle_prob=0.7) for k in range(60)]
    dashed = 0
    for p in carriers:
        res = enumerate_tnorms(p)
        d = order_diagram(res)
        assert d == hasse_oracle(pointwise_psoset(res))
        dashed += bool(d.dashed_pairs)
    assert dashed >= 2  # fork8 and twin_peaks7 at least


def two_step_mask(noid):
    """_two_step_covers on a boolean matrix: packed in, unpacked out."""
    n = len(noid)
    covers = _two_step_covers(np.packbits(noid, axis=1, bitorder="little"))
    assert covers.dtype == np.uint8 and covers.shape == (n, (n + 7) // 8)
    return np.unpackbits(covers, axis=1, count=n, bitorder="little").view(bool)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 31, 32, 33, 64, 127, 128, 129, 136, 300])
def test_two_step_covers_equal_the_matrix_product(n):
    # the tables are built per byte of columns, 4 bytes at a time, and ORed
    # as 64-bit words, so widths on both sides of a byte, of 32 columns
    # and of 64
    rng = np.random.default_rng(1708 + n)
    for density in (0.02, 0.125, 0.5):
        noid = (rng.random((n, n)) < density) & ~np.eye(n, dtype=bool)
        step = noid.astype(np.int64)
        assert np.array_equal(two_step_mask(noid), noid & ~(step @ step > 0))


def test_a_chain_order_is_drawn_without_unpacking_it(monkeypatch):
    unpacked = []
    unpack = relation._unpack

    def counted(*args):
        unpacked.append(1)
        return unpack(*args)

    monkeypatch.setattr(relation, "_unpack", counted)
    res = enumerate_tnorms(bounded_chain(6))
    d = order_diagram(res)
    assert (len(d.cover_edges), d.dashed_pairs, d.back_edges) == (211, (), ())
    assert unpacked == []  # the transitive order took the sweep's covers
    assert d == hasse_oracle(pointwise_psoset(res))


def general_diagram(rows):
    """_diagram's general path, for any reflexive relation, as it stands:
    covers off the unpacked two-step mask, dashed pairs and back edges off
    the unpacked reach, all read by _hits."""
    rows = list(rows)
    rel, reach = _unpack(rows, len(rows)), _unpack(_reach(rows)[1], len(rows))
    noid = rel & ~np.eye(len(rows), dtype=bool)
    dashed = ~rel & ~rel.T & (reach | reach.T)
    return HasseDiagram(
        cover_edges=tuple(_hits(two_step_mask(noid))),
        dashed_pairs=tuple(_hits(np.triu(dashed, 1))),
        back_edges=tuple(_hits(noid & reach.T)),
    )


def path_taken(rows):
    """Which path _diagram takes on these rows."""
    covers, reach = _reach(list(rows))
    if covers is None:
        return "general"
    return "transitive" if reach == list(rows) else "acyclic"


def test_the_acyclic_path_equals_the_general_one():
    # no related pair below the diagonal, yet not transitive: the dashed
    # pairs come off the int rows and no back edge is looked for
    fork8 = enumerate_tnorms(CARRIERS["fork8"]())
    relations = [("fork8 order", fork8._rows)]
    relations += [(key, _bit_rows(make().rel)) for key, make in CARRIERS.items()]
    rng = np.random.default_rng(3001)
    for k in range(300):
        rel = upper_relation(rng, 3 + k % 40, closed=False)
        relations.append((f"random {k}", _bit_rows(rel)))
    # the packed rows have ceil(w/8) bytes and are ORed as 64-bit words:
    # widths on both sides of one and two bytes and of one and two words
    for w in (1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129):
        for k in range(3):
            rel = upper_relation(rng, w, closed=False)
            relations.append((f"acyclic, w = {w}", _bit_rows(rel)))
        if w >= 3:
            relations.append((f"cyclic, w = {w}", _bit_rows(cyclic_relation(rng, w))))
    taken = {"acyclic": 0, "transitive": 0, "general": 0}
    for label, rows in relations:
        path = path_taken(rows)
        taken[path] += 1
        d = _diagram(rows)
        assert d == general_diagram(rows), label
        if path == "acyclic":
            assert d.dashed_pairs and d.back_edges == (), label
    assert path_taken(fork8._rows) == "acyclic"
    assert len(order_diagram(fork8).dashed_pairs) == 17_255
    assert taken["acyclic"] > 200 and taken["transitive"] > 5 and taken["general"] > 10
    # loop8's relation has a cycle, so it takes the general path, the one
    # that finds back edges
    loop8 = _bit_rows(CARRIERS["loop8"]().rel)
    assert path_taken(loop8) == "general"
    assert _diagram(loop8).back_edges == general_diagram(loop8).back_edges != ()


def traced_peak(rows):
    """(_diagram(rows), the peak of the memory it traced on the way)."""
    _diagram(rows)  # anything built on first use is not counted
    tracemalloc.start()
    try:
        d = _diagram(rows)
        return d, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fork8s_diagram_peaks_below_the_dense_paths():
    # fork8's order, w = 764: the dense path peaked at 3.95 MB, of which
    # the 19,472 pairs it keeps take 1.8 MB
    rows = list(enumerate_tnorms(CARRIERS["fork8"]())._rows)
    d, peak = traced_peak(rows)
    assert (len(d.cover_edges), len(d.dashed_pairs), d.back_edges) == (2217, 17_255, ())
    assert peak <= 3.3e6, peak


def test_the_acyclic_path_holds_no_w_by_w_matrix():
    # disjoint paths a < b < c with a, c unrelated: acyclic but not
    # transitive, with few pairs to keep, so that one boolean w x w matrix,
    # w² bytes (4.2 MB), would be more than everything the path holds
    w = 2048
    rel = np.eye(w, dtype=bool)
    a = np.arange(0, w - 2, 3)
    rel[a, a + 1] = rel[a + 1, a + 2] = True
    rows = _bit_rows(rel)
    assert path_taken(rows) == "acyclic"
    d, peak = traced_peak(rows)
    assert d == general_diagram(rows)
    assert (len(d.cover_edges), len(d.dashed_pairs)) == (2 * len(a), len(a))
    assert peak < w * w, peak
