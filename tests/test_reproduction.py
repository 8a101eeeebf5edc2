"""The law suite and the range-operation gate read single flags from the
axiom kernel instead of building check()'s full report.  On the tables
criterion 10 builds, and on copies with one cell changed, every flag they
read must be the flag check() reports."""

import random

import numpy as np
import pytest

from trelliskit import reproduction
from trelliskit.errors import VNotATnorm
from trelliskit.generators import random_pseudo_chain, random_trellis
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
    counts = dict.fromkeys(
        ("equality-chain instances", "interior instances", "dominance instances"), 0
    )
    instances = []
    for k in range(_INSTANCES):
        n = rng.randint(2, 7)
        if k < reproduction._LAW_INSTANCES // 3:
            t = random_pseudo_chain(rng, n)
        else:
            t = random_trellis(rng, n)
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
