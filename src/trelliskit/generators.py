"""Seeded random instances for the property suites.

All sampling goes through a caller-supplied random.Random, so a suite is
reproducible from one seed.  Trellis generation is rejection sampling:
start from a random bounded poset, apply random order-pair deletions
(cover deletions shrink comparability, non-cover deletions break
transitivity), optionally splice a three-element cycle, and discard any
instance whose meets or joins vanish.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import NotATrellis
from .relation import Psoset, transitive_closure, validate_psoset
from .trellis import Trellis, _as_trellis

_MAX_TRIES = 500  # rejection-sampling draws before a generator gives up


def _names(n: int) -> tuple[str, ...]:
    if n == 1:
        return ("0",)
    middles = [chr(ord("a") + k) for k in range(n - 2)]
    return ("0", *middles, "1")


def _random_bounded_poset(rng: random.Random, n: int) -> np.ndarray:
    rel = np.eye(n, dtype=bool)
    p = rng.uniform(0.25, 0.9)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rel[i, j] = True
    rel[0, :] = True
    rel[:, n - 1] = True
    return np.array(transitive_closure(rel))  # written into by the callers


def _deletable_pairs(rel: np.ndarray, n: int) -> list[tuple[int, int]]:
    # Pairs whose deletion cannot cost us the bottom or the top.
    return [
        (x, y)
        for x in range(1, n)
        for y in range(n - 1)
        if x != y and rel[x, y]
    ]


def _breaking_pairs(rel: np.ndarray, n: int) -> list[tuple[int, int]]:
    # Deletable pairs with an intermediate: removing one breaks transitivity.
    return [
        (x, y)
        for x, y in _deletable_pairs(rel, n)
        if any(rel[x, b] and rel[b, y] for b in range(n) if b != x and b != y)
    ]


def _splice_cycle(rng: random.Random, rel: np.ndarray, n: int) -> bool:
    """Turn some chain a < b < c into a three-element cycle by dropping
    (a, c) and adding (c, a).  Antisymmetry survives because (a, c) goes
    first; bounds survive because a is never the bottom nor c the top."""
    triples = [
        (a, b, c)
        for a in range(1, n - 1)
        for b in range(n)
        for c in range(1, n - 1)
        if len({a, b, c}) == 3 and rel[a, b] and rel[b, c] and rel[a, c]
    ]
    if not triples:
        return False
    a, b, c = rng.choice(triples)
    rel[a, c] = False
    rel[c, a] = True
    return True


def random_bounded_psoset(
    rng: random.Random,
    n: int,
    deletions: int | None = None,
    cycle_prob: float = 0.25,
) -> Psoset:
    """A random psoset with a bottom and a top, possibly non-transitive,
    possibly containing a cycle."""
    if n < 1:
        raise ValueError("need at least one element")
    rel = _random_bounded_poset(rng, n)
    if rng.random() < cycle_prob:
        _splice_cycle(rng, rel, n)
    if deletions is None:
        # Target transitivity first — the plain random pass below rarely
        # hits a pair that actually has an intermediate at small n.
        for x, y in _breaking_pairs(rel, n):
            if rng.random() < 0.4:
                rel[x, y] = False
    cands = _deletable_pairs(rel, n)
    if deletions is None:
        deletions = rng.randint(0, len(cands) // 2) if cands else 0
    for x, y in rng.sample(cands, min(deletions, len(cands))):
        rel[x, y] = False
    return validate_psoset(rel, _names(n))


def random_trellis(
    rng: random.Random,
    n: int,
    deletions: int | None = None,
    cycle_prob: float = 0.15,
) -> Trellis:
    """A random bounded trellis: rejection-sample random bounded psosets
    until meets and joins all exist."""
    for _ in range(_MAX_TRIES):
        p = random_bounded_psoset(rng, n, deletions=deletions, cycle_prob=cycle_prob)
        try:
            return _as_trellis(p)
        except NotATrellis:
            continue
    raise RuntimeError(f"no trellis with {n} elements after {_MAX_TRIES} tries")


def random_pseudo_chain(
    rng: random.Random,
    n: int,
    cycle_prob: float = 0.5,
) -> Trellis:
    """A random pseudo-chain trellis: a bounded chain with random
    non-cover pairs removed and, sometimes, a spliced three-cycle.  The
    backbone covers (x, x + 1) are never removed, so every pair remains
    reachable in at least one direction: it is always a pseudo-chain."""
    if n < 1:
        raise ValueError("need at least one element")
    for _ in range(_MAX_TRIES):
        rel = np.fromfunction(lambda i, j: i <= j, (n, n), dtype=int)
        if rng.random() < cycle_prob:
            _splice_cycle(rng, rel, n)
        q = rng.uniform(0.0, 0.6)
        for x, y in _deletable_pairs(rel, n):
            if y == x + 1:
                continue
            if rng.random() < q:
                rel[x, y] = False
        p = validate_psoset(rel, _names(n))
        try:
            return _as_trellis(p)
        except NotATrellis:
            continue
    raise RuntimeError(f"no pseudo-chain with {n} elements after {_MAX_TRIES} tries")
