import itertools
import math
import random

import numpy as np
import pytest

from trelliskit import (
    bruteforce_candidate_count,
    bruteforce_tnorms,
    check,
    enumerate_tnorms,
    enumeration,
    greatest_tnorm,
    interior_from_subset,
    is_maximal_tnorm,
    join_cover_witness,
    make_op,
    modular_implication_check,
    order_diagram,
    pointwise_leq,
    pointwise_order,
    random_bounded_psoset,
    random_trellis,
    scaled_meet,
    t_coatom,
    t_drastic,
    t_join_cover,
    tnorm_via_interior,
    tnorm_via_subset,
)
from trelliskit.errors import (
    CarrierTooLarge,
    LimitReached,
    NotBounded,
    PreconditionViolated,
    TargetMismatch,
)
from trelliskit.fileformat import document_trellis
from trelliskit.fixtures import (
    CARRIERS,
    bounded_chain,
    carrier_document,
    diamond_lattice,
    recorded_table,
)
from trelliskit.interior import UnaryMap
from trelliskit.tnorms import _tnorm_mask

# canonical (row-major) positions of the recorded pentagon tables
PENTAGON_ORDER = ("T1", "T3", "T2", "T5", "T4", "T6")


def grids(result):
    ops = result.tnorms if hasattr(result, "tnorms") else result
    return [tuple(map(tuple, op.table.tolist())) for op in ops]


def slow_all_tnorms(t):
    """Third, fully naive route: try every symmetric filling of the
    non-top cells and keep what passes the axioms, all in plain Python
    loops with no domain restriction or pruning.  Only sane for n <= 4.
    (Asymmetric tables can never be commutative, so symmetric filling
    loses nothing.)"""
    n, top = t.n, t.top
    rel = t.rel.tolist()
    inner = [x for x in range(n) if x != top]
    cells = [(x, y) for x in inner for y in inner if x <= y]
    found = []
    for values in itertools.product(range(n), repeat=len(cells)):
        tab = [[0] * n for _ in range(n)]
        for x in range(n):
            tab[top][x] = x
            tab[x][top] = x
        for (x, y), v in zip(cells, values):
            tab[x][y] = v
            tab[y][x] = v
        ok = True
        for x in range(n):
            for y in range(n):
                if not ok:
                    break
                for z in range(n):
                    if tab[tab[x][y]][z] != tab[x][tab[y][z]]:
                        ok = False
                        break
                    if rel[x][z] and not (
                        rel[tab[x][y]][tab[z][y]] and rel[tab[y][x]][tab[y][z]]
                    ):
                        ok = False
                        break
        if ok:
            found.append(tuple(tuple(row) for row in tab))
    return sorted(found)


def recursive_numpy_search(p):
    """The search as first written, kept as an oracle for the kernel:
    numpy boolean domains, recursion, and the whole n^3 associativity
    tensor rebuilt after each assignment.  Returns the canonically
    sorted tables and the search counters."""
    n, rel, top = p.n, p.rel, p.top
    inner = [x for x in range(n) if x != top]
    cells = [(i, j) for i in inner for j in inner if i <= j]
    doms = [rel[:, rel[i] | rel[j]].all(axis=1) for i, j in cells]
    order = sorted(range(len(cells)), key=lambda k: (int(doms[k].sum()), cells[k]))
    cells = [cells[k] for k in order]
    doms = [doms[k] for k in order]
    m = len(cells)

    def cell_leq(c, d):
        (i, j), (a, b) = c, d
        return bool((rel[i, a] and rel[j, b]) or (rel[i, b] and rel[j, a]))

    fut_above = [[k2 for k2 in range(k + 1, m) if cell_leq(cells[k], cells[k2])]
                 for k in range(m)]
    fut_below = [[k2 for k2 in range(k + 1, m) if cell_leq(cells[k2], cells[k])]
                 for k in range(m)]
    tab = np.full((n, n), -1, dtype=np.int64)
    tab[:, top] = tab[top, :] = np.arange(n)
    stats = dict.fromkeys(
        ("nodes", "monotone_prunes", "associativity_prunes", "final_check_rejects"), 0
    )
    found = []

    def partial_assoc_ok():
        safe = np.where(tab >= 0, tab, 0)
        left = tab[safe, :]
        left_def = (tab[:, :, None] >= 0) & (left >= 0)
        right = tab[:, safe]
        right_def = (tab[None, :, :] >= 0) & (right >= 0)
        return not ((left_def & right_def) & (left != right)).any()

    def dfs(k):
        if k == m:
            if check(make_op(p, tab)).is_tnorm:
                found.append(tab.copy())
            else:
                stats["final_check_rejects"] += 1
            return
        i, j = cells[k]
        for v in np.flatnonzero(doms[k]):
            stats["nodes"] += 1
            tab[i, j] = tab[j, i] = v
            if not partial_assoc_ok():
                stats["associativity_prunes"] += 1
                continue
            saved = []
            wiped = False
            for k2, bound in [(k2, rel[v]) for k2 in fut_above[k]] + [
                (k2, rel[:, v]) for k2 in fut_below[k]
            ]:
                saved.append((k2, doms[k2]))
                doms[k2] = doms[k2] & bound
                if not doms[k2].any():
                    wiped = True
                    break
            if wiped:
                stats["monotone_prunes"] += 1
            else:
                dfs(k + 1)
            for k2, old in reversed(saved):
                doms[k2] = old
        tab[i, j] = tab[j, i] = -1

    dfs(0)
    found.sort(key=lambda t: tuple(t.flat))
    return found, stats


@pytest.mark.parametrize(
    "make", [lambda: bounded_chain(3), lambda: bounded_chain(4), diamond_lattice]
)
def test_engine_equals_the_naive_oracle(make):
    t = make()
    naive = slow_all_tnorms(t)
    res = enumerate_tnorms(t)
    assert grids(res) == naive
    assert grids(bruteforce_tnorms(t)) == naive


def test_two_element_carrier_has_one_tnorm():
    res = enumerate_tnorms(bounded_chain(2))
    assert res.count == 1
    assert grids(res) == [((0, 0), (0, 1))]


def test_pentagon_enumeration_is_the_recorded_six(pentagon):
    res = enumerate_tnorms(pentagon)
    assert res.count == 6 and res.complete
    expected = [recorded_table(f"pentagon.{k}") for k in PENTAGON_ORDER]
    for got, want in zip(res.tnorms, expected):
        assert got.same_op(want)
    assert res.greatest == PENTAGON_ORDER.index("T6")
    assert res.maximal == [PENTAGON_ORDER.index("T6")]


def test_pentagon_order_diagram(pentagon):
    res = enumerate_tnorms(pentagon)
    diagram = order_diagram(res)
    named = tuple(
        (PENTAGON_ORDER[x], PENTAGON_ORDER[y]) for x, y in diagram.cover_edges
    )
    # in row-major order of the enumeration indices
    assert named == (
        ("T1", "T3"),
        ("T3", "T2"),
        ("T3", "T4"),
        ("T2", "T5"),
        ("T5", "T6"),
        ("T4", "T6"),
    )
    assert diagram.dashed_pairs == ()
    assert diagram.back_edges == ()


def test_twin_peaks_has_two_maximal_and_no_greatest():
    t = CARRIERS["twin_peaks7"]()
    res = enumerate_tnorms(t)
    assert res.count == 151
    assert res.greatest is None
    tops = {grids(res)[k] for k in res.maximal}
    assert tops == {
        tuple(map(tuple, recorded_table("twin_peaks7.T1").table.tolist())),
        tuple(map(tuple, recorded_table("twin_peaks7.T2").table.tolist())),
    }
    assert greatest_tnorm(t) is None


def test_engine_equals_bruteforce_on_the_hourglass(hourglass):
    res = enumerate_tnorms(hourglass)
    brute = bruteforce_tnorms(hourglass, cap=7)
    assert grids(res) == grids(brute)
    assert res.count == 115


def test_search_visits_fewer_nodes_than_the_table_space():
    for key in ("pentagon", "diamond7", "twin_peaks7", "hourglass7", "fork8", "loop8"):
        t = CARRIERS[key]()
        res = enumerate_tnorms(t)
        assert res.search_stats["nodes"] < bruteforce_candidate_count(t), key


def test_canonical_output_order_is_sorted():
    res = enumerate_tnorms(CARRIERS["pentagon"]())
    flat = [sum(g, ()) for g in grids(res)]
    assert flat == sorted(flat)


def test_every_construction_appears_in_the_enumeration(pentagon, hourglass):
    res = enumerate_tnorms(pentagon)
    built = [
        t_drastic(pentagon),
        t_join_cover(pentagon),
        t_coatom(pentagon, pentagon.index("c")),
        tnorm_via_subset(pentagon, pentagon.indices(("0", "b"))),
        tnorm_via_subset(pentagon, pentagon.indices(("0", "b", "c"))),
    ]
    for op in built:
        assert any(op.same_op(found) for found in res.tnorms)

    res = enumerate_tnorms(hourglass)
    members = sorted(hourglass.indices(("0", "b", "c", "d", "e", "1")))
    built = [t_drastic(hourglass), tnorm_via_subset(hourglass, members)]
    for gate in ("b", "c", "d", "e"):
        v = scaled_meet(hourglass, members, hourglass.index(gate))
        built.append(tnorm_via_subset(hourglass, members, v))
    for op in built:
        assert any(op.same_op(found) for found in res.tnorms)


def test_greatest_tnorm_helpers(pentagon):
    best = greatest_tnorm(pentagon)
    assert best is not None and best.same_op(recorded_table("pentagon.T6"))
    assert is_maximal_tnorm(pentagon, best)
    assert not is_maximal_tnorm(pentagon, t_drastic(pentagon))


def test_limit_interrupts_with_a_partial_result(pentagon):
    with pytest.raises(LimitReached) as info:
        enumerate_tnorms(pentagon, limit=3)
    partial = info.value.result
    assert partial.count == 3 and not partial.complete
    assert partial.order.shape == (3, 3)
    assert np.array_equal(partial.order, order_by_pairs(partial.tnorms))
    full = grids(enumerate_tnorms(pentagon))
    assert set(grids(partial)) <= set(full)
    with pytest.raises(PreconditionViolated):
        order_diagram(partial)


def test_limit_must_be_positive(pentagon):
    with pytest.raises(ValueError):
        enumerate_tnorms(pentagon, limit=0)


def test_cap_guard():
    with pytest.raises(CarrierTooLarge):
        enumerate_tnorms(CARRIERS["fork8"](), cap=6)
    with pytest.raises(CarrierTooLarge):
        enumerate_tnorms(bounded_chain(12))  # default cap is 10
    # raising the cap lets the search start (cut it off immediately)
    with pytest.raises(LimitReached):
        enumerate_tnorms(bounded_chain(12), cap=12, limit=1)


def _six_cycle_trellis():
    # every pair has a meet and a join, but there is no top
    t, kind = document_trellis(carrier_document("six_cycle"))
    assert kind.is_trellis and not kind.is_bounded
    return t


# Every entry point that needs a bottom and a top.  The bounds are checked
# first, so the other arguments are placeholders.
BOUNDED_ENTRY_POINTS = {
    "t_drastic": t_drastic,
    "t_coatom": lambda t: t_coatom(t, 1),
    "t_join_cover": t_join_cover,
    "join_cover_witness": join_cover_witness,
    "enumerate_tnorms": enumerate_tnorms,
    "bruteforce_tnorms": bruteforce_tnorms,
    "bruteforce_candidate_count": bruteforce_candidate_count,
    "interior_from_subset": lambda t: interior_from_subset(t, [t.bottom]),
    "tnorm_via_interior": lambda t: tnorm_via_interior(
        t, UnaryMap(t, np.arange(t.n))
    ),
    "modular_implication_check": modular_implication_check,
}


@pytest.mark.parametrize("entry", sorted(BOUNDED_ENTRY_POINTS))
@pytest.mark.parametrize("carrier", ["psoset", "trellis"])
def test_unbounded_carriers_are_refused(entry, carrier):
    t = CARRIERS["six_cycle"]() if carrier == "psoset" else _six_cycle_trellis()
    with pytest.raises(NotBounded):
        BOUNDED_ENTRY_POINTS[entry](t)


def test_fork8_count_and_construction_membership():
    t = CARRIERS["fork8"]()
    res = enumerate_tnorms(t)
    assert res.count == 764
    z = t_join_cover(t)
    assert any(z.same_op(found) for found in res.tnorms)


def order_by_pairs(ops):
    """The pointwise order, one pointwise_leq call per pair."""
    w = len(ops)
    return np.array(
        [[pointwise_leq(a, b) for b in ops] for a in ops], dtype=bool
    ).reshape(w, w)


def maximal_and_greatest(above):
    """maximal and greatest as first defined: Python scans of the order."""
    w = len(above)
    maximal = [
        a for a in range(w) if not any(above[a, b] for b in range(w) if b != a)
    ]
    greatest = next((b for b in range(w) if above[:, b].all()), None)
    return maximal, greatest


def assert_order_matches(res, above):
    assert res.order.shape == (res.count, res.count)
    assert res.order.dtype == bool and not res.order.flags.writeable
    assert np.array_equal(res.order, above)
    assert (res.maximal, res.greatest) == maximal_and_greatest(above)


@pytest.mark.parametrize(
    "key", ["pentagon", "diamond7", "twin_peaks7", "hourglass7", "loop8"]
)
def test_order_equals_pointwise_leq_on_shipped_carriers(key):
    res = enumerate_tnorms(CARRIERS[key]())
    assert_order_matches(res, order_by_pairs(res.tnorms))


def test_order_on_fork8_equals_the_cellwise_definition():
    # 764^2 pointwise_leq calls take seconds; the same definition row by row
    t = CARRIERS["fork8"]()
    res = enumerate_tnorms(t)
    tables = np.array([op.table for op in res.tnorms])
    above = np.array([t.rel[tab, tables].all(axis=(1, 2)) for tab in tables])
    assert_order_matches(res, above)
    assert np.array_equal(res.order[:40, :40], order_by_pairs(res.tnorms[:40]))


def test_order_equals_pointwise_leq_on_random_carriers():
    rng = random.Random(2024)
    widths = set()
    for k in range(50):
        n = 3 + k % 4
        make = random_trellis if k % 2 else random_bounded_psoset
        res = enumerate_tnorms(make(rng, n))
        assert_order_matches(res, order_by_pairs(res.tnorms))
        widths.add(res.count)
    assert max(widths) > 64  # more than one packed word of t-norms


def test_no_tnorms_means_no_maximal_and_no_greatest(pentagon, monkeypatch):
    monkeypatch.setattr(
        enumeration, "_tnorm_mask", lambda tabs, rel, top: np.zeros(len(tabs), bool)
    )
    res = enumerate_tnorms(pentagon)
    assert res.count == 0 and res.order.shape == (0, 0)
    assert res.maximal == [] and res.greatest is None
    assert res.search_stats["final_check_rejects"] > 0


def test_pointwise_order_between_two_lists(pentagon):
    ops = enumerate_tnorms(pentagon).tnorms
    lower, upper = ops[:2], ops[1:]
    got = pointwise_order([op.table for op in lower], pentagon.rel,
                          [op.table for op in upper])
    want = np.array([[pointwise_leq(a, b) for b in upper] for a in lower])
    assert np.array_equal(got, want)
    assert pointwise_order([], pentagon.rel).shape == (0, 0)


def test_is_maximal_tnorm_refuses_other_carriers(pentagon):
    with pytest.raises(TargetMismatch):
        is_maximal_tnorm(pentagon, t_drastic(bounded_chain(5)))


SHIPPED_SEARCH = {
    # key: (t-norms, nodes, monotone_prunes, associativity_prunes, final_check_rejects)
    "pentagon": (6, 19, 0, 1, 0),
    "fork8": (764, 5588, 0, 2206, 0),
    "diamond7": (103, 577, 0, 182, 0),
    "twin_peaks7": (151, 635, 0, 191, 0),
    "hourglass7": (115, 542, 0, 163, 0),
    "loop8": (11, 129, 7, 7, 0),
}


def test_kernel_equals_the_recursive_numpy_search():
    rng = random.Random(515)
    carriers = [bounded_chain(1), bounded_chain(2), diamond_lattice()]
    for k in range(300):
        make = random_trellis if k % 2 else random_bounded_psoset
        carriers.append(make(rng, 2 + k % 5))
    seen = {"assoc": False, "monotone": False}
    for t in carriers + [CARRIERS[key]() for key in SHIPPED_SEARCH]:
        tables, stats = recursive_numpy_search(t)
        res = enumerate_tnorms(t)
        assert grids(res) == [tuple(map(tuple, tab.tolist())) for tab in tables]
        assert res.search_stats == stats
        order = pointwise_order(tables, t.rel)
        assert_order_matches(res, order)
        seen["assoc"] |= stats["associativity_prunes"] > 0
        seen["monotone"] |= stats["monotone_prunes"] > 0
    assert seen["assoc"] and seen["monotone"]


@pytest.mark.parametrize("key", sorted(SHIPPED_SEARCH))
def test_shipped_search_counters_are_pinned(key):
    res = enumerate_tnorms(CARRIERS[key]())
    stats = res.search_stats
    assert (
        res.count,
        stats["nodes"],
        stats["monotone_prunes"],
        stats["associativity_prunes"],
        stats["final_check_rejects"],
    ) == SHIPPED_SEARCH[key]


def test_deep_search_ends_in_a_partial_result():
    # 1225 searched cells: one recursion level per cell overflowed the stack
    with pytest.raises(LimitReached) as info:
        enumerate_tnorms(bounded_chain(50), cap=50, limit=1)
    partial = info.value.result
    assert partial.count == 1 and partial.complete is False
    assert partial.tnorms[0].same_op(t_drastic(bounded_chain(50)))


def test_one_element_carrier_has_one_tnorm():
    res = enumerate_tnorms(bounded_chain(1))
    assert res.complete and res.count == 1
    assert grids(res) == [((0,),)]
    assert res.maximal == [0] and res.greatest == 0
    assert res.search_stats == dict.fromkeys(res.search_stats, 0)


@pytest.mark.parametrize("key", sorted(SHIPPED_SEARCH))
def test_kernel_equals_check_on_the_shipped_tnorms(key):
    p = CARRIERS[key]()
    tabs = np.array([op.table for op in enumerate_tnorms(p).tnorms])
    assert _tnorm_mask(tabs, p.rel, p.top).all()
    # One table of the batch mutated: T(x, bottom) = x breaks commutativity
    # there, and only that table drops out.
    mid = len(tabs) // 2
    x = next(v for v in range(p.n) if v not in (p.bottom, p.top))
    tabs[mid, x, p.bottom] = x
    got = _tnorm_mask(tabs, p.rel, p.top)
    assert got.tolist() == [check(make_op(p, tab)).is_tnorm for tab in tabs]
    assert np.flatnonzero(~got).tolist() == [mid]


def test_limit_across_check_chunks():
    fork8 = CARRIERS["fork8"]()
    full = set(grids(enumerate_tnorms(fork8)))
    assert len(full) == 764
    chunk = enumeration._CHECK_CHUNK
    smaller = set()
    for limit in (1, chunk - 1, chunk, chunk + 1, 763, 764):
        with pytest.raises(LimitReached) as info:
            enumerate_tnorms(fork8, limit=limit)
        partial = info.value.result
        assert partial.count == limit and partial.complete is False
        got = set(grids(partial))
        assert len(got) == limit and smaller <= got <= full
        smaller = got
