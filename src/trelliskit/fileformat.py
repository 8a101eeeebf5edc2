"""Text format for carriers and their attached data, plus DOT export.

A document looks like:

    psoset-document v1
    elements: 0 a b c 1
    relation:
    1 1 1 1 1
    0 1 1 0 1
    0 0 1 1 1
    0 0 0 1 1
    0 0 0 0 1
    meet:
    ...          (n rows of n element names)
    join:
    ...
    subset rtr: 0 b c 1
    map lam: 0 0 b c 1
    op T2:
    ...          (n rows of n element names)

The relation block is mandatory; everything after it is optional.  The
serializer always emits the canonical form above (sections in fixed
order, named sections sorted by name, single spaces, trailing newline),
so serialize(parse(text)) == text for canonical text and byte-stable
output for a given document either way.  Blank lines are ignored when
parsing.  ParseError carries 1-based line and column numbers.
"""

from __future__ import annotations

import re
from itertools import chain, islice
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ParseError, ValidationError
from .relation import (
    HasseDiagram,
    Psoset,
    _first,
    _frozen,
    strong_components,
    validate_psoset,
)
from .trellis import StructureKind, Trellis, build_trellis

HEADER = "psoset-document v1"


@dataclass(frozen=True)
class PsosetDocument:
    """A psoset document.  Frozen like the carrier: its arrays are kept
    as relation._frozen leaves them, and subsets, maps and ops are
    read-only mappings, so a shared document cannot be changed."""

    names: tuple[str, ...]
    rel: np.ndarray
    meet: np.ndarray | None = None
    join: np.ndarray | None = None
    subsets: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    maps: Mapping[str, np.ndarray] = field(default_factory=dict)
    ops: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("rel", "meet", "join"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen(getattr(self, name)))
        object.__setattr__(self, "subsets", MappingProxyType(dict(self.subsets)))
        for name in ("maps", "ops"):
            arrays = {k: _frozen(v) for k, v in getattr(self, name).items()}
            object.__setattr__(self, name, MappingProxyType(arrays))

    @property
    def n(self) -> int:
        return len(self.names)


def _tokens(line: str):
    return [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line)]


class _Lines:
    def __init__(self, text: str):
        self.raw = text.split("\n")
        self.pos = 0

    def next_content(self):
        """(line_number, line) of the next non-blank line, or None."""
        while self.pos < len(self.raw):
            line = self.raw[self.pos]
            self.pos += 1
            if line.strip():
                return self.pos, line
        return None


def parse(text: str) -> PsosetDocument:
    """Parse document text; ParseError points at the first offence."""
    lines = _Lines(text)

    got = lines.next_content()
    if got is None or got[1].strip() != HEADER:
        lineno = got[0] if got else 1
        raise ParseError(lineno, 1, f"expected header {HEADER!r}")

    got = lines.next_content()
    if got is None or not got[1].startswith("elements:"):
        lineno = got[0] if got else lines.pos + 1
        raise ParseError(lineno, 1, "expected 'elements:' line")
    lineno, line = got
    names: list[str] = []
    for col, tok in _tokens(line[len("elements:"):]):
        tok_col = col + len("elements:")
        if tok in names:
            raise ParseError(lineno, tok_col, f"duplicate element name {tok!r}")
        names.append(tok)
    if not names:
        raise ParseError(lineno, 1, "no element names given")
    n = len(names)
    index = {s: k for k, s in enumerate(names)}

    def read_rows(kind: str, convert):
        rows = []
        for _ in range(n):
            got = lines.next_content()
            if got is None:
                raise ParseError(
                    lines.pos + 1, 1, f"{kind} needs {n} rows, file ended early"
                )
            lineno, line = got
            toks = _tokens(line)
            if len(toks) != n:
                raise ParseError(
                    lineno, 1, f"{kind} row needs {n} entries, got {len(toks)}"
                )
            rows.append([convert(lineno, col, tok) for col, tok in toks])
        return rows

    def to_bit(lineno, col, tok):
        if tok not in ("0", "1"):
            raise ParseError(lineno, col, f"relation entries are 0 or 1, got {tok!r}")
        return tok == "1"

    def to_element(lineno, col, tok):
        if tok not in index:
            raise ParseError(lineno, col, f"unknown element name {tok!r}")
        return index[tok]

    got = lines.next_content()
    if got is None or got[1].strip() != "relation:":
        lineno = got[0] if got else lines.pos + 1
        raise ParseError(lineno, 1, "expected 'relation:' line")
    rel = np.array(read_rows("relation", to_bit), dtype=bool)

    meet = join = None
    subsets: dict[str, tuple[int, ...]] = {}
    maps: dict[str, np.ndarray] = {}
    ops: dict[str, np.ndarray] = {}
    while True:
        got = lines.next_content()
        if got is None:
            return PsosetDocument(tuple(names), rel, meet, join, subsets, maps, ops)
        lineno, line = got
        stripped = line.strip()
        if stripped == "meet:":
            if meet is not None:
                raise ParseError(lineno, 1, "duplicate meet block")
            meet = np.array(read_rows("meet", to_element), dtype=np.int64)
        elif stripped == "join:":
            if join is not None:
                raise ParseError(lineno, 1, "duplicate join block")
            join = np.array(read_rows("join", to_element), dtype=np.int64)
        else:
            m = re.match(r"\s*(subset|map|op)\s+(\S+):", line)
            if not m:
                raise ParseError(lineno, 1, f"unrecognized line {stripped!r}")
            kind, name = m.group(1), m.group(2)
            store = {"subset": subsets, "map": maps, "op": ops}[kind]
            if name in store:
                raise ParseError(lineno, 1, f"duplicate {kind} {name!r}")
            rest = line[m.end():]
            if kind == "op":
                if rest.strip():
                    raise ParseError(
                        lineno, m.end() + 1, "op table starts on the next line"
                    )
                ops[name] = np.array(
                    read_rows(f"op {name}", to_element), dtype=np.int64
                )
                continue
            toks = [
                (col + m.end(), to_element(lineno, col + m.end(), tok))
                for col, tok in _tokens(rest)
            ]
            if kind == "subset":
                members = [v for _, v in toks]
                if not members:
                    raise ParseError(lineno, 1, f"subset {name!r} is empty")
                if len(set(members)) != len(members):
                    raise ParseError(lineno, toks[0][0], f"subset {name!r} repeats members")
                subsets[name] = tuple(sorted(members))
            else:
                if len(toks) != n:
                    raise ParseError(
                        lineno, 1, f"map {name!r} needs {n} entries, got {len(toks)}"
                    )
                maps[name] = np.array([v for _, v in toks], dtype=np.int64)


def _table_lines(names, table) -> list[str]:
    return [" ".join(names[v] for v in row) for row in np.asarray(table)]


def serialize(doc: PsosetDocument) -> str:
    """Canonical text for a document; byte-stable."""
    out = [HEADER, "elements: " + " ".join(doc.names), "relation:"]
    out.extend(" ".join("1" if v else "0" for v in row) for row in doc.rel)
    if doc.meet is not None:
        out.append("meet:")
        out.extend(_table_lines(doc.names, doc.meet))
    if doc.join is not None:
        out.append("join:")
        out.extend(_table_lines(doc.names, doc.join))
    for name in sorted(doc.subsets):
        members = " ".join(doc.names[v] for v in doc.subsets[name])
        out.append(f"subset {name}: {members}")
    for name in sorted(doc.maps):
        images = " ".join(doc.names[v] for v in doc.maps[name])
        out.append(f"map {name}: {images}")
    for name in sorted(doc.ops):
        out.append(f"op {name}:")
        out.extend(_table_lines(doc.names, doc.ops[name]))
    return "\n".join(out) + "\n"


def document_psoset(doc: PsosetDocument) -> Psoset:
    return validate_psoset(doc.rel, doc.names)


def document_trellis(doc: PsosetDocument) -> tuple[Trellis, StructureKind]:
    """Build the trellis from the relation and cross-check any declared
    meet/join tables against the computed ones."""
    t, kind = build_trellis(document_psoset(doc))
    for label, declared, computed in (
        ("meet", doc.meet, t.meet),
        ("join", doc.join, t.join),
    ):
        if declared is not None and not np.array_equal(declared, computed):
            x, y = _first(declared != computed)
            raise ValidationError(
                f"declared {label} table disagrees with the relation at "
                f"({doc.names[x]}, {doc.names[y]}): "
                f"{doc.names[int(declared[x, y])]} declared, "
                f"{doc.names[int(computed[x, y])]} computed",
                [(x, y)],
            )
    return t, kind


def make_document(
    p: Psoset,
    *,
    with_tables: bool = False,
    subsets: dict[str, tuple[int, ...]] | None = None,
    maps: dict[str, np.ndarray] | None = None,
    ops: dict[str, np.ndarray] | None = None,
) -> PsosetDocument:
    tables = with_tables and isinstance(p, Trellis)
    return PsosetDocument(
        p.names,
        p.rel,
        p.meet if tables else None,
        p.join if tables else None,
        {k: tuple(sorted(v)) for k, v in (subsets or {}).items()},
        {k: np.asarray(v, dtype=np.int64) for k, v in (maps or {}).items()},
        {k: np.asarray(v, dtype=np.int64) for k, v in (ops or {}).items()},
    )


def _levels(n: int, covers) -> list[int]:
    """Rank for each node: condense the cycles among the cover edges, then
    take each component's longest-path depth from the sources.

    The components come from one Tarjan pass over the cover edges, in
    reverse topological order, so a single sweep over them backwards
    settles every depth.  O(n + number of covers).  When every cover
    goes up in index (an enumeration's order diagram, for one), index
    order is already topological, and one sweep in it does the same."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, v in covers:
        succ[u].append(v)
    if all(u < v for u, v in covers):
        depth = [0] * n
        for x, below in enumerate(succ):
            for y in below:
                if depth[y] <= depth[x]:
                    depth[y] = depth[x] + 1
        return depth
    components = strong_components(succ)
    comp = [0] * n
    for c, members in enumerate(components):
        for x in members:
            comp[x] = c
    depth = [0] * len(components)
    for c in range(len(components) - 1, -1, -1):
        below = depth[c] + 1
        for x in components[c]:
            for y in succ[x]:
                d = comp[y]
                if d != c and depth[d] < below:
                    depth[d] = below
    return [depth[c] for c in comp]


def export_dot(diagram: HasseDiagram, names) -> str:
    """DOT text: solid undirected covers, dashed unrelated-but-connected
    pairs, directed in-cycle edges; nodes ranked by diagram level.
    Names are quoted with backslash and double quote escaped."""
    return "".join(_dot_pieces(diagram, names))


_DOT_BLOCK = 4096  # lines per piece of DOT text


def _dot_pieces(diagram: HasseDiagram, names):
    """export_dot's text in pieces of _DOT_BLOCK lines each, so a writer
    never holds the whole text."""
    n = len(names)
    q = ['"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"' for s in names]

    back = set(diagram.back_edges)
    ranks: list[list[str]] = [[] for _ in range(n)]
    for x, lev in enumerate(_levels(n, diagram.cover_edges)):
        ranks[lev].append(q[x])

    lines = chain(
        ["digraph psoset {", "  rankdir=BT;", "  node [shape=plaintext];"],
        ("  { rank=same; " + " ".join(f"{s};" for s in group) + " }" for group in ranks if group),
        (f"  {q[u]} -> {q[v]} [dir=none];" for u, v in diagram.cover_edges if (u, v) not in back),
        (f"  {q[u]} -> {q[v]} [dir=none, style=dashed];" for u, v in diagram.dashed_pairs),
        (f"  {q[u]} -> {q[v]};" for u, v in diagram.back_edges),
        ["}"],
    )
    while block := list(islice(lines, _DOT_BLOCK)):
        yield "\n".join(block) + "\n"
