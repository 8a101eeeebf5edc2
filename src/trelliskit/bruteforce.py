"""Unpruned reference enumeration for cross-checking the search engine.

Materializes every commutative table with a neutral top whose inner
cells stay inside the common lower bounds of their coordinates (any
table violating that is already not jointly increasing), then filters
each batch through the axiom kernel check() is built on.  No search
tree, no forward checking, no domain tightening beyond the lower-bound
set — deliberately independent of enumeration.py so the two routes can
disagree loudly.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .relation import Psoset, _require_bounds, _require_cap
from .tnorms import BinaryOpTable, _tnorm_mask, make_op

_BATCH = 20_000


def _cells_and_domains(p: Psoset):
    n, rel, top = p.n, p.rel, p.top
    inner = [x for x in range(n) if x != top]
    cells = [(i, j) for i in inner for j in inner if i <= j]
    domains = [np.flatnonzero(rel[:, i] & rel[:, j]) for i, j in cells]
    return cells, domains


def bruteforce_candidate_count(p: Psoset) -> int:
    """How many raw candidate tables the brute force would scan."""
    _require_bounds(p)
    _, domains = _cells_and_domains(p)
    return math.prod(len(d) for d in domains)


def bruteforce_tnorms(p: Psoset, cap: int = 6) -> list[BinaryOpTable]:
    """All t-norms on a small bounded carrier, the slow exhaustive way.

    Returned in the same canonical order as enumeration (row-major table
    tuples), so results compare directly.
    """
    _, top = _require_bounds(p)
    _require_cap(p, cap)
    n, rel = p.n, p.rel
    cells, domains = _cells_and_domains(p)
    idx = np.arange(n)

    ops = []
    candidates = itertools.product(*domains)
    while True:
        chunk = list(itertools.islice(candidates, _BATCH))
        if not chunk:
            break
        vals = np.asarray(chunk, dtype=np.int64)
        tabs = np.empty((len(chunk), n, n), dtype=np.int64)
        tabs[:, :, top] = idx
        tabs[:, top, :] = idx
        for k, (i, j) in enumerate(cells):
            tabs[:, i, j] = vals[:, k]
            tabs[:, j, i] = vals[:, k]
        ops += [make_op(p, t) for t in tabs[_tnorm_mask(tabs, rel, top)]]
    ops.sort(key=lambda o: tuple(o.table.flat))
    return ops
