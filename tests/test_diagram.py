"""The diagram layer against the unpacked, closure-based code it replaced.

The oracles below are that code as it stood: Warshall on the unpacked
boolean matrix, strongly connected components read off the closure, and
DOT levels from the closure of the cover graph plus a relaxation loop.
"""

import random

import numpy as np
import pytest

from trelliskit import hasse, maximal_cycles, random_bounded_psoset, validate_psoset
from trelliskit.fileformat import _levels
from trelliskit.fixtures import CARRIERS
from trelliskit.relation import _PACK_FROM, strong_components, transitive_closure


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


@pytest.mark.parametrize(
    "n", [1, 2, 9, _PACK_FROM - 1, _PACK_FROM, _PACK_FROM + 1, _PACK_FROM + 45]
)
def test_closure_equals_the_unpacked_oracle_on_both_sides_of_packing(n):
    rng = np.random.default_rng(n)
    for successors in (0.5, 3.0, n / 4):
        rel = rng.random((n, n)) < successors / n
        closed = transitive_closure(rel)
        assert closed.dtype == bool and closed.shape == (n, n)
        assert np.array_equal(closed, warshall_oracle(rel))
        assert not np.shares_memory(closed, rel)


def test_closure_of_a_long_chain_needs_every_step():
    # one path through all nodes in a shuffled order: the closure is a
    # total order, reached only after every Warshall step
    n = _PACK_FROM + 9
    order = np.random.default_rng(3).permutation(n)
    rel = np.eye(n, dtype=bool)
    rel[order[:-1], order[1:]] = True
    rank = np.argsort(order)
    assert np.array_equal(transitive_closure(rel), rank[:, None] <= rank[None, :])


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
    # a relation large enough for the packed closure, with cycles and
    # unrelated-but-connected pairs, against its diagram built on the oracle
    n = _PACK_FROM + 20
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
