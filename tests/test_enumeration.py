import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trelliskit import (
    Psoset,
    bruteforce_candidate_count,
    bruteforce_tnorms,
    check,
    cli,
    enumerate_tnorms,
    enumeration,
    hasse,
    interior_from_subset,
    is_maximal_tnorm,
    join_cover_witness,
    make_op,
    modular_implication_check,
    order_diagram,
    pointwise_leq,
    random_bounded_psoset,
    random_trellis,
    relation,
    right_transitive_set,
    scaled_meet,
    t_coatom,
    t_drastic,
    t_join_cover,
    tnorm_via_interior,
    tnorm_via_subset,
    validate_psoset,
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
from trelliskit.relation import _bit_rows
from trelliskit import tnorms as tnorms_module
from trelliskit.tnorms import _order_rows, _tnorm_mask

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
    assert res.maximal == (PENTAGON_ORDER.index("T6"),)


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


def test_the_bounds_are_read_off_the_relation(pentagon):
    # the bare relation is a bounded carrier: it has the same six t-norms
    res = enumerate_tnorms(Psoset(pentagon.names, pentagon.rel))
    assert res.count == 6
    assert grids(res) == grids(enumerate_tnorms(pentagon))


def test_order_diagram_reads_the_order_without_revalidating(monkeypatch):
    rng = random.Random(1515)
    carriers = [make() for key, make in CARRIERS.items() if key != "six_cycle"]
    for k in range(60):
        make = random_trellis if k % 2 else random_bounded_psoset
        carriers.append(make(rng, 3 + k % 3))
    # every module that binds validate_psoset counts its calls
    validations, drawn = [], []
    for name, module in list(sys.modules.items()):
        if name.startswith("trelliskit") and hasattr(module, "validate_psoset"):
            monkeypatch.setattr(
                module, "validate_psoset", lambda *args: validations.append(args)
            )
    for p in carriers:
        res = enumerate_tnorms(p)
        drawn.append((res, order_diagram(res)))
    assert validations == []
    monkeypatch.undo()
    assert len(drawn) == len(carriers)
    for res, diagram in drawn:
        names = [f"T{k + 1}" for k in range(res.count)]
        order = cellwise_order(res.target.rel, res.tables)
        assert diagram == hasse(validate_psoset(order, names))


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
    res = enumerate_tnorms(pentagon)
    best = res.tnorms[res.greatest]
    assert best.same_op(recorded_table("pentagon.T6"))
    assert is_maximal_tnorm(res, best)
    assert not is_maximal_tnorm(res, t_drastic(pentagon))


def test_limit_interrupts_with_a_partial_result(pentagon):
    with pytest.raises(LimitReached) as info:
        enumerate_tnorms(pentagon, limit=3)
    partial = info.value.result
    assert partial.count == 3 and not partial.complete
    assert_order_matches(partial, order_by_pairs(partial.tnorms))
    res = enumerate_tnorms(pentagon)
    assert set(grids(partial)) <= set(grids(res))
    with pytest.raises(PreconditionViolated):
        order_diagram(partial)
    # maximal among the t-norms found so far is not maximal
    op = partial.tnorms[partial.maximal[0]]
    with pytest.raises(PreconditionViolated):
        is_maximal_tnorm(partial, op)
    assert not is_maximal_tnorm(res, op)


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


def cellwise_order(rel, tables):
    """order[a, b] iff tables[a] <= tables[b] in every cell: the
    definition, one row at a time."""
    tables = np.asarray(tables)
    w = len(tables)
    return np.array([rel[tab, tables].all(axis=(1, 2)) for tab in tables]).reshape(w, w)


def maximal_and_greatest(above):
    """maximal and greatest as first defined: Python scans of the order."""
    w = len(above)
    maximal = tuple(
        a for a in range(w) if not any(above[a, b] for b in range(w) if b != a)
    )
    greatest = next((b for b in range(w) if above[:, b].all()), None)
    return maximal, greatest


def assert_order_matches(res, above):
    assert res._rows == tuple(_bit_rows(above))
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
    assert_order_matches(res, cellwise_order(t.rel, [op.table for op in res.tnorms]))
    corner = [row & ((1 << 40) - 1) for row in res._rows[:40]]
    assert corner == _bit_rows(order_by_pairs(res.tnorms[:40]))


def test_order_equals_pointwise_leq_on_random_carriers():
    rng = random.Random(2024)
    widths = set()
    for k in range(50):
        n = 3 + k % 4
        make = random_trellis if k % 2 else random_bounded_psoset
        res = enumerate_tnorms(make(rng, n))
        assert_order_matches(res, order_by_pairs(res.tnorms))
        widths.add(res.count)
    assert max(widths) > 64


def test_no_tnorms_means_no_maximal_and_no_greatest(pentagon, monkeypatch):
    monkeypatch.setattr(
        enumeration, "_tnorm_mask", lambda tabs, rel, top: np.zeros(len(tabs), bool)
    )
    res = enumerate_tnorms(pentagon)
    assert res.count == 0 and res._rows == ()
    assert res.maximal == () and res.greatest is None
    assert res.search_stats["final_check_rejects"] > 0


@pytest.fixture
def order_calls(monkeypatch):
    """Counts the calls that build an enumeration's pointwise order."""
    calls = []
    build = enumeration._order_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(enumeration, "_order_rows", counted)
    return calls


def test_enumerating_builds_no_order(order_calls):
    assert enumerate_tnorms(CARRIERS["fork8"]()).count == 764
    rng = random.Random(3014)
    for k in range(300):  # the search-sweep mix: n = 3..5, both kinds
        make = random_trellis if k % 2 else random_bounded_psoset
        enumerate_tnorms(make(rng, 3 + (k // 2) % 3))
    assert order_calls == []


ORDER_READERS = {
    "order": lambda res: res._rows,
    "maximal": lambda res: res.maximal,
    "greatest": lambda res: res.greatest,
    "order_diagram": order_diagram,
}


@pytest.mark.parametrize(
    "readers", itertools.permutations(sorted(ORDER_READERS)), ids="-".join
)
def test_the_order_is_built_once_when_first_read(order_calls, readers):
    res = enumerate_tnorms(CARRIERS["diamond7"]())
    for name in readers:
        ORDER_READERS[name](res)
        assert len(order_calls) == 1
    for name in readers:
        ORDER_READERS[name](res)
    assert len(order_calls) == 1
    assert_order_matches(res, order_by_pairs(res.tnorms))


def test_a_partial_result_builds_its_order_when_read(pentagon, order_calls):
    with pytest.raises(LimitReached) as info:
        enumerate_tnorms(pentagon, limit=4)
    partial = info.value.result
    assert order_calls == []
    assert_order_matches(partial, order_by_pairs(partial.tnorms))
    assert len(order_calls) == 1


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads the child's VmHWM"
)
def test_enumerating_the_9_chain_stays_small():
    # w = 13,775: a w x w bool order would be 181 MiB on its own, so this
    # bounds every reader of the order (maximal, greatest, order_diagram)
    # to the int rows.  Never run the 10-chain here; its order and
    # diagram peak above 1 GB.  The child reports VmHWM, the peak RSS of
    # its own address space: ru_maxrss would also count the address space
    # it was started from, the test process's.
    code = (
        "from trelliskit import enumerate_tnorms, order_diagram\n"
        "from trelliskit.fixtures import bounded_chain\n"
        "res = enumerate_tnorms(bounded_chain(9), cap=12)\n"
        "res.maximal, res.greatest, order_diagram(res)\n"
        "status = open('/proc/self/status').read().split()\n"
        "print(res.count, status[status.index('VmHWM:') + 1])\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    count, peak_kb = map(int, out.stdout.split())
    assert count == 13_775
    assert peak_kb < 150 * 1024


def packed_order_oracle(tables, rel):
    """The packed build the int rows replaced: per cell k and value v the
    set {b : rel[v, tables[b][k]]} packed eight columns a byte, and each
    row the AND of the n*n sets its entries pick, 128 rows at a time."""
    n = rel.shape[0]
    flat = np.asarray(tables, dtype=np.intp).reshape(-1, n * n)
    cells = np.arange(n * n)
    bits = np.packbits(rel[:, flat].transpose(2, 0, 1), axis=-1, bitorder="little")
    rows = np.empty((len(flat), bits.shape[-1]), dtype=np.uint8)
    for start in range(0, len(flat), 128):
        chunk = slice(start, start + 128)
        rows[chunk] = np.bitwise_and.reduce(bits[cells, flat[chunk]], axis=1)
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def test_order_rows_equal_the_packed_build():
    carriers = [make() for key, make in CARRIERS.items() if key != "six_cycle"]
    rng = random.Random(2828)
    for k in range(60):
        make = random_trellis if k % 2 else random_bounded_psoset
        carriers.append(make(rng, 1 + k % 7))
    for p in carriers:
        n, tables = p.n, enumerate_tnorms(p).tables
        # the build is exact on any stack: a table that is not a t-norm
        junk = np.array([[[rng.randrange(n) for _ in range(n)] for _ in range(n)]])
        stacks = [
            tables,
            tables[::3],
            np.concatenate([junk, tables[:5]]),
            junk,
            tables[:0],  # an empty stack
            tables[:1],  # no cell varies
        ]
        for stack in stacks:
            assert _order_rows(stack, p.rel) == packed_order_oracle(stack, p.rel)


def test_order_rows_of_a_symmetric_stack_keep_the_cells_with_x_le_y(monkeypatch):
    # t-norms are commutative, so cell (y, x) repeats cell (x, y): of the
    # cells that vary, fork8 keeps 18 of 31 and the 9-chain 28 of 49
    kept = []
    build = tnorms_module._bit_rows
    monkeypatch.setattr(tnorms_module, "_bit_rows", lambda mask: kept.append(len(mask)) or build(mask))
    for p, cells in ((CARRIERS["fork8"](), 18), (bounded_chain(9), 28)):
        tables = enumerate_tnorms(p, cap=12).tables
        rows = _order_rows(tables, p.rel)
        assert kept == [cells]
        # one table that is not symmetric switches the cut off; with its
        # bit cleared, every other row is the same
        junk = np.zeros_like(tables[:1])
        junk[0, 0, 1] = 1
        full = _order_rows(np.concatenate([tables, junk]), p.rel)
        assert kept[1] > cells
        assert [row & ((1 << len(tables)) - 1) for row in full[:-1]] == rows
        kept.clear()


def test_is_maximal_tnorm_equals_the_pointwise_leq_oracle():
    # op is maximal iff no enumerated t-norm other than op is pointwise
    # above it, asked table by table; op need not be a t-norm
    rng = random.Random(2929)
    outcomes = set()
    for key, make in CARRIERS.items():
        if key == "six_cycle":  # no top
            continue
        t = make()
        res = enumerate_tnorms(t)
        tnorms, n = res.tnorms, t.n
        ops = [
            make_op(t, [[rng.randrange(n) for _ in range(n)] for _ in range(n)]),
            t_drastic(t),
            tnorms[res.maximal[0]],
            *rng.sample(tnorms, 3),
        ]
        if key == "diamond7":
            rtr = sorted(right_transitive_set(t))
            ops += [t_join_cover(t), tnorm_via_subset(t, rtr, unchecked=True)]
            assert not any(check(op).is_tnorm for op in ops[-2:])
        for op in ops:
            above = [b for b in tnorms if pointwise_leq(op, b) and not op.same_op(b)]
            assert is_maximal_tnorm(res, op) == (not above), key
            outcomes.add(not above)
    assert outcomes == {True, False}


def test_is_maximal_tnorm_refuses_other_carriers(pentagon):
    with pytest.raises(TargetMismatch):
        is_maximal_tnorm(enumerate_tnorms(pentagon), t_drastic(bounded_chain(5)))


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
        assert_order_matches(res, cellwise_order(t.rel, tables))
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


def test_eight_chain_search_is_pinned():
    # the chains are the deepest searches, with the most associativity
    # prunes; the digest was recorded before the occurrence index became
    # per-value stacks without the neutral cells
    res = enumerate_tnorms(bounded_chain(8))
    assert pinned_summary(res) == (
        2386, 18712, 0, 8637, 0,
        "bcc76c0e0c73a0f05927bcb6a51ee844af3dc4dad1f88afb870254f6c70ee29b",
    )


def test_stress_carrier_search_counters_are_pinned():
    # the 3rd random_trellis(random.Random(7), 8), whose CLI output
    # tests/test_cli.py pins by SHA-256; here a drift shows as numbers
    rng = random.Random(7)
    for _ in range(3):
        t = random_trellis(rng, 8)
    res = enumerate_tnorms(t)
    stats = res.search_stats
    assert (
        res.count,
        stats["nodes"],
        stats["monotone_prunes"],
        stats["associativity_prunes"],
        stats["final_check_rejects"],
    ) == (2522, 19486, 0, 9440, 0)


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
    assert res.maximal == (0,) and res.greatest == 0
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


# fork8 stopped at a limit around the check chunks' edges: count, nodes,
# monotone, associativity and final-check prunes, SHA-256 of the tables
FORK8_PARTIAL = {
    1: (1, 28, 0, 0, 0, "48424e7ea1fafa11635cd30c07eb251a1108a3eca664dc10f672428e5a5ff4f0"),
    63: (63, 109, 0, 6, 0, "756c71d4784ea33b30f30181dc12412403f8093197d46bef2975a6fb738c17bc"),
    64: (64, 110, 0, 6, 0, "0e6467371a4a1819b56a1309eb25bcc46df2d44fe283ab2b656855c746fd5622"),
    65: (65, 111, 0, 6, 0, "03d593fcaf30ef2300ac22ef94d4a73eab74ffc2c456d290fd933f11aadf351d"),
    128: (128, 204, 0, 21, 0, "03a8e3892e1fe2fb5666ce3535a4204c2599ac7c8dfb00b6e5acad29d1e17ea3"),
}


def pinned_summary(res):
    """count, the four search counters and the SHA-256 of the tables."""
    digest = hashlib.sha256(res.tables.astype("<i8").tobytes()).hexdigest()
    return (res.count, *res.search_stats.values(), digest)


def test_limit_across_check_chunks():
    fork8 = CARRIERS["fork8"]()
    full = set(grids(enumerate_tnorms(fork8)))
    assert len(full) == 764
    chunk = enumeration._CHECK_CHUNK
    smaller = set()
    for limit in (1, chunk - 1, chunk, chunk + 1, 2 * chunk, 763, 764):
        with pytest.raises(LimitReached) as info:
            enumerate_tnorms(fork8, limit=limit)
        partial = info.value.result
        assert partial.count == limit and partial.complete is False
        got = set(grids(partial))
        assert len(got) == limit and smaller <= got <= full
        smaller = got
        if limit in FORK8_PARTIAL:
            assert pinned_summary(partial) == FORK8_PARTIAL[limit]


SWEEP_DIGEST = "8c436a63f900e0b34aa917d66fd6c191cb328b4a76f1ebd9c6fb41f6177d1ae5"


def test_the_search_sweep_carriers_are_pinned():
    # the carriers perfbench's search-sweep draws at seed 1019 (the
    # library's generators draw the same ones as its reference copy's):
    # carrier k has 3 + (k // 2) % 3 elements, from random_bounded_psoset
    # for even k and random_trellis for odd k
    rng = random.Random(1019)
    digest = hashlib.sha256()
    for k in range(1500):
        make = random_trellis if k % 2 else random_bounded_psoset
        res = enumerate_tnorms(make(rng, 3 + (k // 2) % 3))
        digest.update(repr(pinned_summary(res)).encode())
    assert digest.hexdigest() == SWEEP_DIGEST


@pytest.mark.parametrize("key", ["pentagon", "twin_peaks7", "fork8", "loop8"])
def test_maximal_and_greatest_read_the_int_rows(key):
    res = enumerate_tnorms(CARRIERS[key]())
    order = cellwise_order(res.target.rel, res.tables)
    assert res.maximal == tuple(np.flatnonzero(order.sum(axis=1) == 1).tolist())
    above_all = np.flatnonzero(order.all(axis=0)).tolist()
    assert res.greatest == (above_all[0] if above_all else None)
    assert res._rows == tuple(_bit_rows(order))


def test_search_timings_are_kept_apart_from_the_search_stats(pentagon):
    res = enumerate_tnorms(pentagon)
    assert list(res.timings) == ["search", "final check"]
    assert all(seconds >= 0 for seconds in res.timings.values())
    assert list(res.search_stats) == [
        "nodes", "monotone_prunes", "associativity_prunes", "final_check_rejects"
    ]
    with pytest.raises(LimitReached) as info:
        enumerate_tnorms(pentagon, limit=2)
    assert list(info.value.result.timings) == ["search", "final check"]


# --- the result is one frozen value ------------------------------------------


CACHED = ("tnorms", "_rows", "maximal", "greatest")


def test_the_result_cannot_be_reordered_or_reassigned(pentagon):
    res = enumerate_tnorms(pentagon)
    greatest, maximal, rows = res.greatest, res.maximal, res._rows
    assert greatest == 5 and maximal == (5,)
    with pytest.raises(AttributeError):
        res.maximal.append(0)
    assert isinstance(res.tnorms, tuple)
    before = res.tnorms
    with pytest.raises(AttributeError):
        res.tnorms.reverse()
    with pytest.raises(TypeError):
        res.tnorms[5] = res.tnorms[0]
    for name in [f.name for f in dataclasses.fields(res)] + list(CACHED):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(res, name, getattr(res, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(res, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.tnorms = before[::-1]
    assert res.tnorms is before
    assert (res.greatest, res.maximal) == (greatest, maximal)
    assert res._rows is rows
    assert res.tnorms[res.greatest].same_op(recorded_table("pentagon.T6"))


def test_a_partial_result_is_frozen_too(pentagon):
    with pytest.raises(LimitReached) as info:
        enumerate_tnorms(pentagon, limit=3)
    partial = info.value.result
    assert isinstance(partial.tnorms, tuple) and len(partial.tnorms) == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        partial.complete = True


def test_results_compare_by_identity(pentagon):
    res, again = enumerate_tnorms(pentagon), enumerate_tnorms(pentagon)
    assert res == res and res != again  # no elementwise compare of the stacks


def test_the_stats_and_timings_are_read_only(pentagon):
    with pytest.raises(LimitReached) as info:
        enumerate_tnorms(pentagon, limit=3)
    for res in (enumerate_tnorms(pentagon), info.value.result):
        for mapping, key in ((res.search_stats, "nodes"), (res.timings, "search")):
            before = dict(mapping)
            with pytest.raises(TypeError):
                mapping[key] = 0
            with pytest.raises(TypeError):
                del mapping[key]
            assert mapping == before


@pytest.fixture
def op_builds(monkeypatch):
    """Counts the BinaryOpTables the enumeration module builds."""
    calls = []
    build = enumeration.BinaryOpTable

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(enumeration, "BinaryOpTable", counted)
    return calls


def assert_tables(res, op_builds):
    """tables is the one read-only stack of the t-norms' tables: every
    reader of the order reads it without building an op, and tnorms,
    built once when first read, holds views of its rows."""
    tables = res.tables
    n = res.target.n
    assert tables.dtype == np.int64 and tables.shape == (res.count, n, n)
    assert not tables.flags.writeable
    assert relation._frozen(tables) is tables  # no writeable array under it
    assert tables.base is not None and not tables.base.flags.writeable
    with pytest.raises(ValueError):
        tables.setflags(write=True)
    with pytest.raises(ValueError):
        tables[...] = 0
    res.maximal, res.greatest
    assert isinstance(res._rows, tuple)  # the cached order
    if res.complete:
        order_diagram(res)
    assert res.tables is tables
    assert op_builds == []  # no reader of the order builds an op
    ops = res.tnorms
    assert isinstance(ops, tuple) and len(ops) == res.count
    assert len(op_builds) == res.count and res.tnorms is ops
    if res.count:
        assert np.array_equal(tables, np.array([op.table for op in ops]))
    for k, op in enumerate(ops):
        assert op.target is res.target and np.shares_memory(op.table, tables[k])
        with pytest.raises(ValueError):
            op.table.setflags(write=True)
    op_builds.clear()


@pytest.mark.parametrize("key", sorted(SHIPPED_SEARCH))
def test_the_table_stack_on_shipped_carriers(key, op_builds):
    res = enumerate_tnorms(CARRIERS[key]())
    assert op_builds == []  # enumerating builds no op
    assert_tables(res, op_builds)


def test_the_table_stack_on_random_carriers(op_builds):
    rng = random.Random(4120)
    for k in range(50):
        make = random_trellis if k % 2 else random_bounded_psoset
        assert_tables(enumerate_tnorms(make(rng, 3 + k % 4)), op_builds)


def test_the_table_stack_of_no_tnorms(pentagon, monkeypatch, op_builds):
    monkeypatch.setattr(
        enumeration, "_tnorm_mask", lambda tabs, rel, top: np.zeros(len(tabs), bool)
    )
    res = enumerate_tnorms(pentagon)
    assert res.count == 0
    assert_tables(res, op_builds)


def test_the_table_stack_of_a_partial_result(op_builds):
    with pytest.raises(LimitReached) as info:
        enumerate_tnorms(CARRIERS["fork8"](), limit=100)
    assert_tables(info.value.result, op_builds)


def test_is_maximal_tnorm_reads_the_table_stack(
    pentagon, op_builds, order_calls, monkeypatch
):
    res = enumerate_tnorms(pentagon)
    ops = res.tnorms
    op_builds.clear()
    searches = []
    search = enumeration.enumerate_tnorms
    monkeypatch.setattr(
        enumeration, "enumerate_tnorms", lambda *a, **k: searches.append(1) or search(*a, **k)
    )
    assert [is_maximal_tnorm(res, op) for op in ops] == [False] * 5 + [True]
    # no op, no order and no search: only the cellwise test on res.tables
    assert op_builds == [] and order_calls == [] and searches == []


def test_enumerate_json_builds_no_op(op_builds, tmp_path, capsys):
    path = Path(enumeration.__file__).parent / "data" / "fork8.psoset"
    dot = tmp_path / "fork8.dot"
    assert cli.main(["enumerate", str(path), "--json", "--dot", str(dot)]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 764 and dot.exists()
    assert op_builds == []
