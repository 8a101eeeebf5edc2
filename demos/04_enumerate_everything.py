"""Exhaustively enumerate ALL t-norms on small carriers.

The search assigns one cell at a time (most-constrained first), keeps
per-cell domains consistent with joint monotonicity, and abandons
partial tables as soon as associativity breaks on any fully-decided
triple.  A dumb vectorized product-filter double-checks the result,
and the node count shows how much of the table space the search never
had to touch.
"""

import time

from trelliskit import (
    bruteforce_candidate_count,
    bruteforce_tnorms,
    enumerate_tnorms,
    export_dot,
    order_diagram,
)
from trelliskit.fixtures import CARRIERS

pentagon = CARRIERS["pentagon"]()
res = enumerate_tnorms(pentagon)
print(f"pentagon: {res.count} t-norms, stats={dict(res.search_stats)}")
print(f"  (naive table space: {bruteforce_candidate_count(pentagon)} candidates)")
print("greatest:", None if res.greatest is None else f"T{res.greatest + 1}")

diagram = order_diagram(res)
print(export_dot(diagram, [f"T{k + 1}" for k in range(res.count)]))

# independent route: generate-and-filter over the whole restricted space
brute = bruteforce_tnorms(pentagon)
print("bruteforce agrees:",
      [op.table.tolist() for op in brute] == [op.table.tolist() for op in res.tnorms])
print()

# a carrier with two maximal t-norms and no greatest one
twins = CARRIERS["twin_peaks7"]()
t0 = time.perf_counter()
res = enumerate_tnorms(twins)
dt = time.perf_counter() - t0
print(f"twin_peaks7: {res.count} t-norms in {dt * 1000:.0f} ms, "
      f"maximal={[f'T{k + 1}' for k in res.maximal]}, greatest={res.greatest}")
print("search nodes:", res.search_stats["nodes"],
      "vs table space:", bruteforce_candidate_count(twins))
