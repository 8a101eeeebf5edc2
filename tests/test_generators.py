import random

import numpy as np

from trelliskit import (
    check_skala_axioms,
    is_pseudo_chain,
    maximal_cycles,
    random_bounded_psoset,
    random_pseudo_chain,
    random_trellis,
    validate_psoset,
)


def test_same_seed_same_psoset():
    a = random_bounded_psoset(random.Random(7), 6)
    b = random_bounded_psoset(random.Random(7), 6)
    assert a.names == b.names
    assert np.array_equal(a.rel, b.rel)


def test_generated_psosets_are_valid_and_bounded():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(2, 7)
        p = random_bounded_psoset(rng, n)
        # re-validation is the whole point: the axioms must hold
        q = validate_psoset(p.rel, p.names)
        assert q.bottom == 0 and q.top == n - 1


def test_generated_psosets_are_not_all_transitive():
    rng = random.Random(1)
    flavors = {"transitive": 0, "proper": 0, "cyclic": 0}
    for _ in range(120):
        p = random_bounded_psoset(rng, rng.randint(4, 7))
        if maximal_cycles(p):
            flavors["cyclic"] += 1
        elif p.is_transitive():
            flavors["transitive"] += 1
        else:
            flavors["proper"] += 1
    assert flavors["proper"] >= 10
    assert flavors["cyclic"] >= 1
    assert flavors["transitive"] >= 10


def test_random_trellises_have_honest_tables():
    rng = random.Random(2)
    proper = 0
    for _ in range(40):
        t = random_trellis(rng, rng.randint(3, 6))
        assert check_skala_axioms(t.meet, t.join).ok
        if not t.is_transitive():
            proper += 1
    assert proper >= 2  # not everything collapses to a lattice


def test_random_pseudo_chains():
    rng = random.Random(3)
    cyclic = 0
    for _ in range(40):
        t = random_pseudo_chain(rng, rng.randint(3, 7))
        assert is_pseudo_chain(t, range(t.n))
        assert t.bottom == 0 and t.top == t.n - 1
        if maximal_cycles(t):
            cyclic += 1
    assert cyclic >= 3


def test_requested_deletions_are_respected():
    rng = random.Random(4)
    p = random_bounded_psoset(rng, 6, deletions=0, cycle_prob=0.0)
    assert p.is_transitive()  # no deletions, no cycle: stays a poset
