"""The law suite and the range-operation gate read single flags from the
axiom kernel instead of building check()'s full report.  On the tables
criterion 10 builds, and on copies with one cell changed, every flag they
read must be the flag check() reports.

Criteria 6 and 10 check each distinct random instance once per call.
That memo must be exact: the same draws, counts and labels as checking
every instance on its own, and a failure on a repeated instance is
reported for every draw of it."""

import random
from collections import Counter

import numpy as np
import pytest

from trelliskit import reproduction
from trelliskit.errors import VNotATnorm
from trelliskit.generators import random_pseudo_chain, random_trellis
from trelliskit.relation import is_pseudo_chain
from trelliskit.tnorms import (
    _AXIOMS,
    _conjunctive_bad,
    _gate_v,
    _meet_preserving_bad,
    _tnorm_mask,
    check,
    join_op,
    make_op,
    meet_op,
)

_INSTANCES = 100  # the first instances of criterion 10's stream


def _fresh_counts():
    return dict.fromkeys(
        ("equality-chain instances", "interior instances", "dominance instances"), 0
    )


def _law_trellises(rng, instances=reproduction._LAW_INSTANCES):
    """Criterion 10's trellises, drawn from rng as it draws them; each
    instance's laws run before the next trellis is drawn."""
    for k in range(instances):
        n = rng.randint(2, 7)
        if k < reproduction._LAW_INSTANCES // 3:
            yield random_pseudo_chain(rng, n)
        else:
            yield random_trellis(rng, n)


def _law_suite_constructions(seed, monkeypatch):
    """[(trellis, [(v, interior construction)])] for the first instances
    of criterion 10 with this seed; v is None for the meet construction."""
    built = []
    real = reproduction.tnorm_via_interior

    def record(t, im, v=None):
        op = real(t, im, v)
        built.append((v, op))
        return op

    monkeypatch.setattr(reproduction, "tnorm_via_interior", record)
    rng = random.Random(seed + 1)
    counts = _fresh_counts()
    instances = []
    for t in _law_trellises(rng, _INSTANCES):
        built.clear()
        assert reproduction._laws_for_trellis(t, rng, counts) == []
        instances.append((t, list(built)))
    monkeypatch.undo()
    return instances


def _one_cell_changed(op, np_rng):
    """A copy of op with one off-diagonal cell set to another value."""
    n = op.n
    i, j = np_rng.choice(n, size=2, replace=False)
    tab = op.table.copy()
    tab[i, j] = (tab[i, j] + np_rng.integers(1, n)) % n
    return make_op(op.target, tab)


def _kernel_flags(op):
    """Every flag the law suite or the gate reads, from the kernel; every
    carrier here is a bounded trellis."""
    tab, t = op.table, op.target
    flags = {
        axiom: bool(_tnorm_mask(tab[None], t.rel, t.top, (axiom,))[0])
        for axiom in _AXIOMS
    }
    flags["is_tnorm"] = bool(_tnorm_mask(tab[None], t.rel, t.top)[0])
    flags["conjunctive"] = not _conjunctive_bad(tab, t).any()
    flags["meet_preserving"] = not _meet_preserving_bad(tab, t).any()
    return flags


@pytest.mark.parametrize("seed", [1405, 7, 2024])
def test_kernel_flags_equal_check(seed, monkeypatch):
    np_rng = np.random.default_rng(seed)
    seen = set()
    for t, constructions in _law_suite_constructions(seed, monkeypatch):
        ops = [meet_op(t), join_op(t)]
        # the law suite stacks the meet and join tables
        tables = np.stack([t.meet, t.join])
        for axiom in ("increasing", "associative"):
            got = _tnorm_mask(tables, t.rel, t.top, (axiom,)).tolist()
            assert got == [getattr(check(op), axiom) for op in ops], axiom
        for v, built in constructions:
            ops += [built, _one_cell_changed(built, np_rng)]
            if v is not None:
                ops.append(v)
                if v.n > 1:
                    ops.append(_one_cell_changed(v, np_rng))
        for op in ops:
            report = check(op)
            for flag, value in _kernel_flags(op).items():
                assert value == getattr(report, flag), flag
                seen.add((flag, value))

        # the gate on each scaled meet, its one-cell copy and the range's
        # join, which on a transitive range breaks conjunctivity alone
        for v, _ in constructions:
            if v is None:
                continue
            members = np.array([t.index(name) for name in v.target.names], dtype=np.intp)
            candidates = [v, join_op(v.target)]
            if v.n > 1:
                candidates.append(_one_cell_changed(v, np_rng))
            for w in candidates:
                report = check(w)
                lawful = bool(
                    report.commutative
                    and report.associative
                    and report.increasing
                    and report.conjunctive
                )
                if lawful:
                    _gate_v(t, members, w)
                else:
                    with pytest.raises(VNotATnorm) as info:
                        _gate_v(t, members, w)
                    assert info.value.report == report
                seen.add(("gate", lawful))
    # both branches of every flag read, and of the gate, were compared
    for flag in (*_AXIOMS, "is_tnorm", "conjunctive", "meet_preserving", "gate"):
        assert {(flag, True), (flag, False)} <= seen, flag


# --- the per-call memo of criteria 6 and 10 ---------------------------------


def _replay(seed, shared):
    """Criterion 10's stream: each instance's content and labels, the
    counts and the next draw, with one memo for all instances or none (a
    fresh one each)."""
    rng = random.Random(seed + 1)
    counts = _fresh_counts()
    memo = {} if shared else None
    instances = [
        (reproduction._key(t), reproduction._laws_for_trellis(t, rng, counts, memo))
        for t in _law_trellises(rng)
    ]
    return instances, counts, rng.random()


def _fail_by_content(monkeypatch):
    """Make the kernel and two laws fail on some of their tables, chosen by
    the tables' content, so that draws of one carrier get different labels."""
    mask = reproduction._tnorm_mask
    monkeypatch.setattr(
        reproduction,
        "_tnorm_mask",
        lambda tables, *rest: mask(tables, *rest) & (tables.sum(axis=(1, 2)) % 3 != 0),
    )
    meet_bad = reproduction._meet_preserving_bad
    monkeypatch.setattr(
        reproduction,
        "_meet_preserving_bad",
        lambda table, t: meet_bad(table, t) | (table.sum() % 2 == 1),
    )
    leq = reproduction.pointwise_leq
    monkeypatch.setattr(
        reproduction, "pointwise_leq", lambda a, b: leq(a, b) and a.table.sum() % 2 == 0
    )


@pytest.mark.parametrize("seed", [1405, 7, 2024])
def test_one_memo_for_the_stream_equals_one_per_instance(seed):
    shared = _replay(seed, True)
    assert shared == _replay(seed, False)
    instances, counts, _ = shared
    assert len(instances) == reproduction._LAW_INSTANCES
    details = reproduction.criterion_10(seed).details
    for label, count in counts.items():
        assert f"ok   {label}: {count}" in details


@pytest.mark.parametrize("seed", [1405, 7, 2024])
def test_the_memo_keeps_labels_that_differ_between_draws(seed, monkeypatch):
    _fail_by_content(monkeypatch)
    shared = _replay(seed, True)
    assert shared == _replay(seed, False)
    # some carrier was drawn twice with different labels
    by_content = {}
    for key, labels in shared[0]:
        by_content.setdefault(key, set()).add(tuple(labels))
    assert any(len(seen) > 1 for seen in by_content.values())


def _spy(monkeypatch, name, record):
    """Wrap reproduction.<name> so that record(args, result) sees each call."""
    real = getattr(reproduction, name)

    def spied(*args):
        result = real(*args)
        record(args, result)
        return result

    monkeypatch.setattr(reproduction, name, spied)


def _failing_on(monkeypatch, name, carrier, key, result):
    """reproduction.<name> returns result when carrier(args) has this
    content; those calls are kept."""
    real = getattr(reproduction, name)
    calls = []

    def patched(*args):
        if reproduction._key(carrier(args)) == key:
            calls.append(args)
            return result
        return real(*args)

    monkeypatch.setattr(reproduction, name, patched)
    return calls


def test_a_repeated_trellis_reports_each_law_failure_every_time(monkeypatch):
    seed = 1405
    drawn = []  # (content, is a pseudo-chain, labels) per instance
    _spy(
        monkeypatch,
        "_laws_for_trellis",
        lambda args, labels: drawn.append(
            (
                reproduction._key(args[0]),
                is_pseudo_chain(args[0], range(args[0].n)),
                labels,
            )
        ),
    )
    assert reproduction.criterion_10(seed).passed
    repeats = Counter(key for key, pc, _ in drawn if pc)
    target, times = repeats.most_common(1)[0]
    assert times > 1
    failed = {
        # a carrier law, an interior construction, the dominance law:
        # (the carrier among the arguments, the failing result, its label)
        "is_sub_lattice": (
            lambda args: args[0],
            False,
            "transitive set not a sub-lattice",
        ),
        "_meet_preserving_bad": (
            lambda args: args[1],
            np.ones(1, dtype=bool),
            "interior-meet construction not meet-preserving",
        ),
        "pointwise_leq": (
            lambda args: args[0].target,
            False,
            "smaller subset construction not below the full one",
        ),
    }
    calls = {
        name: _failing_on(monkeypatch, name, carrier, target, result)
        for name, (carrier, result, _) in failed.items()
    }
    drawn.clear()
    result = reproduction.criterion_10(seed)
    assert not result.passed
    want = [label for *_, label in failed.values()]
    assert [labels for key, _, labels in drawn if key == target] == [want] * times
    assert all(labels == [] for key, _, labels in drawn if key != target)
    # the carrier law ran once on the content, each construction once per
    # distinct draw; the other instances were memo hits
    assert len(calls["is_sub_lattice"]) == 1
    assert all(1 <= len(c) < times for c in calls.values())


def test_a_repeated_carrier_reports_a_search_mismatch_every_time(monkeypatch):
    seed = 1405
    drawn = []
    _spy(
        monkeypatch,
        "random_bounded_psoset",
        lambda args, p: drawn.append(reproduction._key(p)),
    )
    assert reproduction.criterion_6(seed).passed
    target, times = Counter(drawn).most_common(1)[0]
    assert times > 1
    real = reproduction.bruteforce_tnorms
    monkeypatch.setattr(
        reproduction,
        "bruteforce_tnorms",
        lambda p: real(p)[:-1] if reproduction._key(p) == target else real(p),
    )
    result = reproduction.criterion_6(seed)
    assert not result.passed
    assert result.details[0].startswith("FAIL ")
    assert result.details[0].endswith(f"; {times} differ")


def _counting(monkeypatch, names):
    calls = Counter()
    for name in names:
        _spy(monkeypatch, name, lambda args, result, name=name: calls.update([name]))
    return calls


def test_each_distinct_instance_is_checked_once_per_call(monkeypatch):
    # at the default seed criterion 6 draws 15 distinct carriers in 200
    # and criterion 10 draws 133 distinct trellises in 500 (counted from
    # the draws before the memo); each is searched, brute-forced or
    # classified once
    calls = _counting(
        monkeypatch,
        ["random_bounded_psoset", "enumerate_tnorms", "bruteforce_tnorms", "classify"],
    )
    assert reproduction.criterion_6().passed
    assert calls == {
        "random_bounded_psoset": 200,
        "enumerate_tnorms": 15,
        "bruteforce_tnorms": 15,
    }
    calls.clear()
    assert reproduction.criterion_10().passed
    assert calls == {"classify": 133}
    # a second call shares nothing with the first
    reproduction.criterion_6()
    assert calls["enumerate_tnorms"] == 15
