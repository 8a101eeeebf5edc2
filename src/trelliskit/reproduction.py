"""Recompute every recorded table and fact from first principles.

Ten criteria, each comparing library output against the recorded data
(the tables and facts in fixtures.py, the right-transitive sets and
interior maps in the shipped documents) or against an independent
reference computation.  The CLI's verify-paper subcommand and the
acceptance test suite both run exactly these functions, so they cannot
drift apart.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from itertools import permutations

import numpy as np

from . import fixtures as fx
from .bruteforce import bruteforce_tnorms
from .elements import classify, right_transitive_set
from .enumeration import enumerate_tnorms, order_diagram
from .generators import random_bounded_psoset, random_pseudo_chain, random_trellis
from .interior import interior_from_subset
from .relation import is_pseudo_chain, maximal_cycles, validate_psoset
from .tnorms import (
    _meet_preserving_bad,
    _tnorm_mask,
    check,
    join_cover_condition,
    join_cover_witness,
    make_op,
    meet_op,
    pointwise_leq,
    scaled_meet,
    t_join_cover,
    tnorm_via_interior,
    tnorm_via_subset,
)
from .trellis import (
    _as_trellis,
    is_meet_sub_trellis,
    is_join_sub_trellis,
    is_modular,
    is_sub_lattice,
)

DEFAULT_SEED = 1405
_SEARCH_INSTANCES = 200  # random carriers criterion 6 enumerates both ways
_LAW_INSTANCES = 500  # random trellises criterion 10 checks the laws on
FACTS = fx.RECORDED_FACTS


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: tuple[str, ...] = ()
    seconds: float = 0.0  # wall time, set by run_all

    @property
    def line(self) -> str:
        return f"criterion {self.number:2d}: {'PASS' if self.passed else 'FAIL'} — {self.title}"


class _Checks:
    def __init__(self):
        self.lines: list[str] = []
        self.ok = True

    def expect(self, cond, label: str) -> bool:
        cond = bool(cond)
        self.lines.append(("ok   " if cond else "FAIL ") + label)
        self.ok = self.ok and cond
        return cond

    def result(self, number: int, title: str) -> CriterionResult:
        return CriterionResult(number, title, self.ok, tuple(self.lines))


def _names(p, tup):
    return tuple(p.names[i] for i in tup)


def _show(labels) -> str:
    return "(" + ", ".join(labels) + ")"


def _found_once(ch, res, rec, label: str) -> int | None:
    """Index of rec's table among res's t-norms, expected exactly once."""
    hits = np.flatnonzero((res.tables == rec.table).all(axis=(1, 2))).tolist()
    ch.expect(len(hits) == 1, label)
    return hits[0] if hits else None


def criterion_1(seed=None) -> CriterionResult:
    ch = _Checks()
    six = fx.CARRIERS["six_cycle"]()
    revalidated = validate_psoset(six.rel, six.names)
    ch.expect(revalidated.same_carrier(six), "six-element carrier validates")
    cycles = [six.labels(c) for c in maximal_cycles(six)]
    want = FACTS["six_cycle.maximal_cycles"]
    ch.expect(cycles == want, f"maximal cycles {cycles} == {want}")

    l8 = fx.CARRIERS["loop8"]()
    t = _as_trellis(validate_psoset(l8.rel, l8.names))
    ch.expect(t.same_carrier(l8), "cycle carrier validates as a trellis")
    cycles8 = [l8.labels(c) for c in maximal_cycles(l8)]
    want8 = FACTS["loop8.maximal_cycles"]
    ch.expect(cycles8 == want8, f"maximal cycles {cycles8} == {want8}")
    return ch.result(1, "carrier validation and maximal cycles")


def criterion_2(seed=None) -> CriterionResult:
    ch = _Checks()
    pent = fx.CARRIERS["pentagon"]()
    rep = check(meet_op(pent))
    ch.expect(not rep.left_increasing, "meet not left-increasing")
    ch.expect(not rep.right_increasing, "meet not right-increasing")
    want = FACTS["pentagon.meet_left_right_witness"]
    for side in ("left", "right"):
        ch.expect(
            _names(pent, rep.witnesses[f"{side}_increasing"]) == want,
            f"{side} witness {_show(want)}",
        )
    f_op = fx.recorded_table("pentagon.F")
    rep_f = check(f_op)
    ch.expect(rep_f.left_increasing, "F left-increasing")
    ch.expect(rep_f.right_increasing, "F right-increasing")
    ch.expect(not rep_f.increasing, "F not jointly increasing")
    x, y, z, w = want = FACTS["pentagon.F_increasing_witness"]
    ch.expect(
        _names(pent, rep_f.witnesses["increasing"]) == want,
        f"F witness {_show(want)}: F({x},{z}) not below F({y},{w})",
    )
    return ch.result(2, "one-sided versus joint monotonicity of the meet")


def criterion_3(seed=None) -> CriterionResult:
    ch = _Checks()
    fork = fx.CARRIERS["fork8"]()
    want = FACTS["fork8.join_cover_condition"]
    ch.expect(
        join_cover_condition(fork) == want,
        f"eight-element carrier: condition {'holds' if want else 'fails'}",
    )
    tz = t_join_cover(fork)
    ch.expect(
        tz.same_op(fx.recorded_table("fork8.join_cover")),
        "join-cover table matches the recorded 8x8 table",
    )
    ch.expect(check(tz).is_tnorm, "and it is a t-norm")

    d7 = fx.CARRIERS["diamond7"]()
    ch.expect(is_modular(d7), "seven-element carrier is modular")
    want = FACTS["diamond7.join_cover_condition"]
    ch.expect(
        join_cover_condition(d7) == want,
        f"condition {'holds' if want else 'fails'} there",
    )
    witness = join_cover_witness(d7)
    want = FACTS["diamond7.join_cover_witness"]
    ch.expect(
        witness is not None and _names(d7, witness) == want,
        f"first join-cover witness {_show(want)}",
    )
    ch.expect(
        not check(t_join_cover(d7)).increasing,
        "and the join-cover table is not increasing",
    )
    return ch.result(3, "join-cover construction on the modular carriers")


def criterion_4(seed=None) -> CriterionResult:
    ch = _Checks()
    pent = fx.CARRIERS["pentagon"]()
    res = enumerate_tnorms(pent)
    ch.expect(res.count == 6, f"exactly 6 t-norms (got {res.count})")
    canon = {}
    for label in ("T1", "T2", "T3", "T4", "T5", "T6"):
        rec = fx.recorded_table(f"pentagon.{label}")
        canon[label] = _found_once(ch, res, rec, f"recorded {label} appears exactly once")
    ch.expect(
        res.greatest is not None and res.greatest == canon["T6"],
        "greatest is the recorded T6",
    )
    diagram = order_diagram(res)
    expected = {
        (canon[a], canon[b]) for a, b in FACTS["pentagon.order_diagram_covers"]
    }
    ch.expect(
        set(diagram.cover_edges) == expected,
        "order diagram covers match the recorded six-t-norm diagram",
    )
    ch.expect(not diagram.dashed_pairs and not diagram.back_edges,
              "order diagram has no dashed pairs or cycles")
    return ch.result(4, "five-element carrier: all six t-norms and their order")


def criterion_5(seed=None) -> CriterionResult:
    ch = _Checks()
    tp = fx.CARRIERS["twin_peaks7"]()
    res = enumerate_tnorms(tp)
    rec1 = fx.recorded_table("twin_peaks7.T1")
    rec2 = fx.recorded_table("twin_peaks7.T2")
    t1 = _found_once(ch, res, rec1, "recorded T1 enumerated")
    t2 = _found_once(ch, res, rec2, "recorded T2 enumerated")
    ch.expect(
        t1 in res.maximal and t2 in res.maximal,
        "both recorded tables are maximal",
    )
    ch.expect(res.greatest is None, "no greatest t-norm exists")

    a, e, d = (tp.index(s) for s in FACTS["twin_peaks7.obstruction"])
    mod = rec1.table.copy()
    mod[a, e] = a
    mod[e, a] = a
    op = make_op(tp, mod)
    lhs, rhs = mod[mod[a, e], d], mod[a, mod[e, d]]
    ch.expect(
        lhs != rhs and not check(op).associative,
        f"extending T1 with T({tp.names[a]},{tp.names[e]})={tp.names[a]} breaks "
        f"associativity at {_show(_names(tp, (a, e, d)))}: "
        f"{tp.names[lhs]} != {tp.names[rhs]}",
    )
    return ch.result(5, "seven-element carrier: two maximal t-norms, no greatest")


def _key(p) -> tuple:
    """A carrier's content: two carriers with equal keys are equal."""
    return p.names, p.rel.tobytes()


def _once(memo: dict, fn, key, *args):
    """fn(*args), computed once per key in this memo."""
    slot = (fn, key)
    if slot not in memo:
        memo[slot] = fn(*args)
    return memo[slot]


def _search_equals_brute(p) -> tuple[bool, int]:
    """(the search's tables equal brute force's, their count)."""
    searched = enumerate_tnorms(p).tables.tolist()
    brute = [op.table.tolist() for op in bruteforce_tnorms(p)]
    return searched == brute, len(searched)


def criterion_6(seed=DEFAULT_SEED) -> CriterionResult:
    """The search against brute force on 200 random carriers.  The draws
    repeat (15 distinct carriers at the default seed), so each distinct
    carrier is compared once per call; every draw still counts."""
    ch = _Checks()
    rng = random.Random(seed)
    memo: dict = {}
    mismatches = 0
    nontrivial = 0
    for _ in range(_SEARCH_INSTANCES):
        p = random_bounded_psoset(rng, rng.randint(1, 5))
        same, count = _once(memo, _search_equals_brute, _key(p), p)
        if not same:
            mismatches += 1
        if count > 1:
            nontrivial += 1
    ch.expect(
        mismatches == 0,
        f"pruned search equals brute force on {_SEARCH_INSTANCES} random carriers "
        f"(n <= 5, {nontrivial} with more than one t-norm)"
        + (f"; {mismatches} differ" if mismatches else ""),
    )
    return ch.result(6, "search engine equals brute force on random carriers")


def _recorded_interior(ch, key):
    """The carrier, its right-transitive set and the interior map derived
    from it, each checked against the document's `subset rtr` and
    `map lam` lines."""
    t = fx.CARRIERS[key]()
    doc = fx.carrier_document(key)
    rtr = sorted(right_transitive_set(t))
    ch.expect(
        tuple(rtr) == doc.subsets["rtr"],
        f"right-transitive set {_show(t.labels(rtr))} matches the recorded subset",
    )
    im = interior_from_subset(t, rtr)
    ch.expect(
        np.array_equal(im.map, doc.maps["lam"]), "interior map matches the recorded row"
    )
    return t, rtr, im


def criterion_7(seed=None) -> CriterionResult:
    ch = _Checks()
    hg, rtr, im = _recorded_interior(ch, "hourglass7")
    for a in "bcde":
        v = scaled_meet(hg, rtr, hg.index(a))
        built = tnorm_via_interior(hg, im, v)
        ch.expect(
            built.same_op(fx.recorded_table(f"hourglass7.T_V{a}")),
            f"scaled-meet construction V_{a} matches its recorded table",
        )
    great = fx.recorded_table("hourglass7.greatest")
    ch.expect(check(great).is_tnorm, "recorded greatest table passes check")
    res = enumerate_tnorms(hg)
    ch.expect(
        res.greatest is not None
        and np.array_equal(res.tables[res.greatest], great.table),
        "enumeration confirms it is the greatest",
    )
    return ch.result(7, "interior-based constructions on the hourglass carrier")


def criterion_8(seed=None) -> CriterionResult:
    ch = _Checks()
    l8, rtr, _ = _recorded_interior(ch, "loop8")
    built = tnorm_via_subset(l8, rtr)
    ch.expect(
        built.same_op(fx.recorded_table("loop8.interior_meet")),
        "interior-meet construction matches the recorded table",
    )
    return ch.result(8, "interior-based construction on the cycle carrier")


def criterion_9(seed=None) -> CriterionResult:
    ch = _Checks()
    d7, rtr, _ = _recorded_interior(ch, "diamond7")
    c, d, b = (d7.index(s) for s in FACTS["diamond7.meet_closure_gap"])
    ch.expect(not is_meet_sub_trellis(d7, rtr), "the set is not meet-closed")
    ch.expect(
        d7.meet[c, d] == b and b not in rtr,
        f"witness: {d7.names[c]} meet {d7.names[d]} = {d7.names[b]}, outside the set",
    )
    unchecked = tnorm_via_subset(d7, rtr, unchecked=True)
    ch.expect(
        unchecked.same_op(fx.recorded_table("diamond7.unchecked")),
        "unchecked construction matches the recorded table",
    )
    rep = check(unchecked)
    wit = rep.witnesses.get("increasing")
    want = FACTS["diamond7.unchecked_increasing_witness"]
    x, y, z, w = (d7.index(s) for s in want)
    ch.expect(not rep.increasing, "check reports not increasing")
    ch.expect(
        wit is not None
        and _names(d7, wit) == want
        and unchecked.table[x, z] == b
        and not d7.leq(b, unchecked.table[y, w]),
        f"witness {_show(want)}: T({d7.names[x]},{d7.names[z]}) = {d7.names[b]} "
        f"not below T({d7.names[y]},{d7.names[w]})",
    )
    return ch.result(9, "counterexample: non-meet-closed range breaks monotonicity")


def _interior_subset(rng, t, pool):
    """Random subset of the right-transitive pool containing the bottom,
    closed under join, and meet-closed (resampled until so)."""
    pool = sorted(pool)
    pool_set = set(pool)
    for _ in range(30):
        a_set = set(rng.sample(pool, rng.randint(0, len(pool)))) | {t.bottom}
        changed = True
        while changed:
            changed = False
            for x in sorted(a_set):
                for y in sorted(a_set):
                    z = int(t.join[x, y])
                    if z not in a_set:
                        a_set.add(z)
                        changed = True
        if not a_set <= pool_set:
            return None  # join escaped the right-transitive set: law violation
        if is_meet_sub_trellis(t, sorted(a_set)):
            return sorted(a_set)
    return [t.bottom]


def _carrier_laws(t) -> tuple:
    """The laws that read the carrier alone: (head, chain, tail, rtr_m, pc).

    head and tail are the labels listed before the random fold and after
    the constructions; chain holds the equality-chain labels, or is None
    when t is neither modular nor a pseudo-chain.  rtr_m (the
    right-transitive elements) and pc (t is a pseudo-chain) are what the
    random draws need."""
    head, tail = [], []
    cls = classify(t)

    def implies(a, b):
        return bool((~a | b).all())

    if not (
        implies(cls.dis, cls.ass)
        and implies(cls.ass, cls.meet_ass)
        and implies(cls.meet_ass, cls.tr)
        and implies(cls.tr, cls.rtr)
        and implies(cls.ass, cls.join_ass)
        and implies(cls.join_ass, cls.tr)
        and implies(cls.tr, cls.ltr)
    ):
        head.append("inclusion chain")

    ltr_m = sorted(np.flatnonzero(cls.ltr))
    rtr_m = sorted(np.flatnonzero(cls.rtr))
    if not is_meet_sub_trellis(t, ltr_m):
        head.append("left-transitive set not meet-closed")
    if not is_join_sub_trellis(t, rtr_m):
        head.append("right-transitive set not join-closed")
    if not is_meet_sub_trellis(t, sorted(np.flatnonzero(cls.meet_ass))):
        head.append("meet-associative set not meet-closed")
    if not is_join_sub_trellis(t, sorted(np.flatnonzero(cls.join_ass))):
        head.append("join-associative set not join-closed")

    m = np.array(rtr_m, dtype=np.intp)
    sub = t.join[m[:, None], m]
    left = t.join[sub[:, :, None], m[None, None, :]]
    right = t.join[m[:, None, None], sub[None, :, :]]
    if not (left == right).all():
        head.append("join not associative inside the right-transitive set")

    pc = is_pseudo_chain(t, range(t.n))
    chain = None
    if is_modular(t) or pc:
        chain = []
        if not (
            (cls.ass == cls.meet_ass).all()
            and (cls.ass == cls.join_ass).all()
            and (cls.ass == cls.tr).all()
        ):
            chain.append("associative/transitive equality chain")
        if not is_sub_lattice(t, sorted(np.flatnonzero(cls.tr))):
            chain.append("transitive set not a sub-lattice")
        chain = tuple(chain)

    tables = np.stack([t.meet, t.join])
    trans = t.is_transitive()
    if not all(
        (_tnorm_mask(tables, t.rel, t.top, (axiom,)) == trans).all()
        for axiom in ("increasing", "associative")
    ):
        tail.append("increasing/transitive/associative equivalence")
    return tuple(head), chain, tuple(tail), tuple(rtr_m), pc


def _interior_laws(t, A, a) -> tuple:
    """The interior map of A, with the meet and A's scaled meet at a
    extended through it; labels of the laws they break."""
    bad = []
    im = interior_from_subset(t, A)
    if not im.report.ok or sorted(im.image()) != A:
        bad.append("subset-derived map is not an interior with that range")
    built = tnorm_via_interior(t, im)
    scaled = tnorm_via_interior(t, im, scaled_meet(t, A, a))
    # the flags check() would report, read from its masks
    is_tnorm = _tnorm_mask(np.stack([built.table, scaled.table]), t.rel, t.top)
    if not is_tnorm[0]:
        bad.append("interior construction not a t-norm")
    if _meet_preserving_bad(built.table, t).any():
        bad.append("interior-meet construction not meet-preserving")
    if not is_tnorm[1]:
        bad.append("scaled-meet interior construction not a t-norm")
    return tuple(bad)


def _dominance_laws(t, A2, rtr_m) -> tuple:
    """The subset construction on A2 lies below the one on all of rtr_m."""
    if pointwise_leq(tnorm_via_subset(t, A2), tnorm_via_subset(t, rtr_m)):
        return ()
    return ("smaller subset construction not below the full one",)


def _laws_for_trellis(t, rng, ch_counts, memo=None):
    """Apply every random-instance law; return list of violation labels.

    The carrier laws, the interior construction on (t, A, a) and the
    dominance law on (t, A2) are each checked once per content in memo
    (a fresh one when none is given); the draws, counts and labels are
    this instance's, in the order the laws are listed."""
    memo = {} if memo is None else memo
    key = _key(t)
    head, chain, tail, rtr_m, pc = _once(memo, _carrier_laws, key, t)
    bad = list(head)
    k = min(4, len(rtr_m))
    sample = rng.sample(rtr_m, k)
    if sample:
        folds = set()
        for perm in permutations(sample):
            acc = perm[0]
            for x in perm[1:]:
                acc = int(t.join[acc, x])
            folds.add(acc)
        if len(folds) != 1:
            bad.append("iterated join depends on the order")

    if chain is not None:
        ch_counts["equality-chain instances"] += 1
        bad += chain

    A = _interior_subset(rng, t, rtr_m)
    if A is None:
        bad.append("join closure escaped the right-transitive set")
    else:
        ch_counts["interior instances"] += 1
        a = rng.choice(A)
        bad += _once(memo, _interior_laws, (key, tuple(A), a), t, A, a)

    if pc:
        ch_counts["dominance instances"] += 1
        A2 = sorted(set(rng.sample(rtr_m, rng.randint(0, len(rtr_m)))) | {t.bottom})
        bad += _once(memo, _dominance_laws, (key, tuple(A2)), t, A2, rtr_m)

    bad += tail
    return bad


def criterion_10(seed=DEFAULT_SEED) -> CriterionResult:
    """The law suite on 500 random trellises.  The draws repeat (133
    distinct trellises at the default seed), so one memo for this call
    checks each distinct carrier, interior construction and dominance
    pair once; every draw, count and label is still per instance."""
    ch = _Checks()
    rng = random.Random(seed + 1)
    counts: dict[str, int] = {
        "equality-chain instances": 0,
        "interior instances": 0,
        "dominance instances": 0,
    }
    violations: list[str] = []
    memo: dict = {}
    pseudo_chains = _LAW_INSTANCES // 3
    for k in range(_LAW_INSTANCES):
        n = rng.randint(2, 7)
        if k < pseudo_chains:
            t = random_pseudo_chain(rng, n)
        else:
            t = random_trellis(rng, n)
        for label in _laws_for_trellis(t, rng, counts, memo):
            violations.append(f"instance {k} (n={t.n}): {label}")
    ch.expect(
        not violations,
        f"{_LAW_INSTANCES} random trellises (n <= 7), zero law violations"
        + (f"; first: {violations[0]}" if violations else ""),
    )
    for label, count in counts.items():
        ch.expect(count > 0, f"{label}: {count}")
    return ch.result(10, "random-instance law suite")


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
]


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    results = []
    for fn in CRITERIA:
        start = time.perf_counter()
        result = fn(seed)
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
