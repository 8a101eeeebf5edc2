import dataclasses
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trelliskit import (
    document_psoset,
    document_trellis,
    export_dot,
    fileformat,
    fixtures,
    hasse,
    make_document,
    random_bounded_psoset,
    random_trellis,
    reproduction,
    trellis_from_tables,
)
from trelliskit.errors import ParseError, ValidationError
from trelliskit.fileformat import parse, serialize
from trelliskit.fixtures import CARRIERS, RECORDED, bounded_chain, recorded_table

DATA = Path(__file__).resolve().parents[1] / "src" / "trelliskit" / "data"


@pytest.mark.parametrize("path", sorted(DATA.glob("*.psoset")), ids=lambda p: p.stem)
def test_shipped_documents_round_trip_byte_for_byte(path):
    text = path.read_text()
    doc = parse(text)
    assert serialize(doc) == text
    document_psoset(doc)  # must at least be a valid carrier


def test_shipped_trellis_documents_cross_check():
    # the declared tables alone must give back the declared relation: an
    # oracle for the documents that does not build meets from the relation
    docs = [parse(path.read_text()) for path in sorted(DATA.glob("*.psoset"))]
    docs = [doc for doc in docs if doc.meet is not None]
    assert len(docs) == 6
    for doc in docs:
        assert doc.join is not None
        t = trellis_from_tables(doc.names, doc.meet, doc.join)
        assert np.array_equal(t.rel, doc.rel), doc.names


@pytest.mark.parametrize(
    "key", [k for k, e in sorted(RECORDED.items()) if e.shaded is not None]
)
def test_recorded_shading_marks_the_meet_cells(key):
    # the shading was transcribed apart from the tables, and the meet comes
    # from the shipped document's relation: all three must agree
    entry = RECORDED[key]
    t = CARRIERS[entry.carrier]()
    table = recorded_table(key).table
    region = [t.index(s) for s in entry.region]
    agree = {
        (t.names[x], t.names[y])
        for x in region
        for y in region
        if table[x, y] == t.meet[x, y]
    }
    assert agree == entry.shaded


def test_document_from_psoset_round_trip():
    t = CARRIERS["hourglass7"]()
    doc = make_document(
        t,
        with_tables=True,
        subsets={"core": (0, 2, 6)},
        maps={"drop": np.zeros(t.n, dtype=np.int64)},
        ops={"meet": t.meet},
    )
    again = parse(serialize(doc))
    assert again.names == doc.names
    assert np.array_equal(again.rel, doc.rel)
    assert np.array_equal(again.meet, doc.meet)
    assert again.subsets["core"] == (0, 2, 6)
    assert np.array_equal(again.maps["drop"], doc.maps["drop"])
    assert np.array_equal(again.ops["meet"], t.meet)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 7))
def test_random_documents_round_trip(seed, n):
    rng = random.Random(seed)
    p = random_bounded_psoset(rng, n)
    doc = make_document(p)
    assert np.array_equal(parse(serialize(doc)).rel, p.rel)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 6))
def test_random_trellis_documents_reload_as_the_same_trellis(seed, n):
    rng = random.Random(seed)
    t = random_trellis(rng, n)
    doc = make_document(t, with_tables=True)
    t2, kind = document_trellis(parse(serialize(doc)))
    assert kind.is_trellis
    assert np.array_equal(t2.meet, t.meet) and np.array_equal(t2.join, t.join)


def test_serialization_is_canonical():
    t = bounded_chain(3)
    doc_a = make_document(t, subsets={"b": (0, 1), "a": (0, 2)})
    doc_b = make_document(t, subsets={"a": (0, 2), "b": (0, 1)})
    assert serialize(doc_a) == serialize(doc_b)
    assert serialize(doc_a).endswith("\n")


# --- parse errors, with exact positions --------------------------------------

GOOD = """psoset-document v1
elements: 0 a 1
relation:
1 1 1
0 1 1
0 0 1
"""


def perr(text):
    with pytest.raises(ParseError) as info:
        parse(text)
    return info.value


def test_parse_rejects_bad_header():
    e = perr("psoset-document v9\nelements: a\nrelation:\n1\n")
    assert e.line == 1


def test_parse_rejects_duplicate_element():
    e = perr("psoset-document v1\nelements: a a\nrelation:\n1 0\n0 1\n")
    assert e.line == 2
    assert "a" in e.message


def test_parse_rejects_bad_bit_with_position():
    e = perr("psoset-document v1\nelements: a b\nrelation:\n1 2\n0 1\n")
    assert (e.line, e.column) == (4, 3)


def test_parse_rejects_short_relation_row():
    e = perr("psoset-document v1\nelements: a b\nrelation:\n1\n0 1\n")
    assert e.line == 4


def test_parse_rejects_unknown_subset_member():
    e = perr(GOOD + "subset s: a z\n")
    assert e.line == 7
    assert "z" in e.message


def test_parse_rejects_wrong_map_arity():
    e = perr(GOOD + "map f: 0 a\n")
    assert e.line == 7


def test_parse_rejects_duplicate_section():
    text = GOOD + "meet:\n1 1 1\n0 1 1\n0 0 1\nmeet:\n1 1 1\n0 1 1\n0 0 1\n"
    e = perr(text)
    assert "meet" in e.message


def test_parse_error_formats_location():
    e = perr("psoset-document v1\nelements: a b\nrelation:\n1 2\n0 1\n")
    assert "line 4" in str(e) and "column 3" in str(e)


def test_document_trellis_rejects_wrong_declared_table():
    t = bounded_chain(3)
    doc = make_document(t, with_tables=True)
    text = serialize(doc)
    wrong = parse(text).meet.copy()
    wrong[1, 2] = 2
    broken = dataclasses.replace(parse(text), meet=wrong)
    with pytest.raises(ValidationError) as info:
        document_trellis(broken)
    assert "meet" in str(info.value)


# --- diagram export -----------------------------------------------------------

def test_pentagon_dot_output():
    p = CARRIERS["pentagon"]()
    dot = export_dot(hasse(p), p.names)
    assert dot == (
        "digraph psoset {\n"
        "  rankdir=BT;\n"
        "  node [shape=plaintext];\n"
        '  { rank=same; "0"; }\n'
        '  { rank=same; "a"; }\n'
        '  { rank=same; "b"; }\n'
        '  { rank=same; "c"; }\n'
        '  { rank=same; "1"; }\n'
        '  "0" -> "a" [dir=none];\n'
        '  "a" -> "b" [dir=none];\n'
        '  "b" -> "c" [dir=none];\n'
        '  "c" -> "1" [dir=none];\n'
        '  "a" -> "c" [dir=none, style=dashed];\n'
        "}\n"
    )


def test_chain_dot_has_no_dashed_or_back_edges():
    t = bounded_chain(3)
    dot = export_dot(hasse(t), t.names)
    assert "style=dashed" not in dot
    assert "[dir=none]" in dot


def test_loop_dot_keeps_the_directed_back_edge():
    p = CARRIERS["loop8"]()
    dot = export_dot(hasse(p), p.names)
    assert '"f" -> "b";\n' in dot
    assert dot.count("style=dashed") >= 1


def test_dot_quotes_awkward_names():
    import trelliskit

    rel = np.array([[1, 1], [0, 1]], dtype=bool)
    p = trelliskit.validate_psoset(rel, ('sa"y', "ok"))
    dot = export_dot(hasse(p), p.names)
    assert '"sa\\"y"' in dot


SHIPPED_TEXTS = [path.read_text() for path in sorted(DATA.glob("*.psoset"))]
# words a document is made of, plus a few it should not hold
VOCABULARY = [
    "psoset-document v1", "elements:", "relation:", "meet:", "join:", "subset",
    "map", "op", "0", "1", "a", "b", "zz", "x:", ":", "subset s:", "op T:",
    "map m: 0", "", " ", "\t", "0 1", "1 1 1",
]


@st.composite
def mutated_documents(draw):
    """A shipped document with a few lines deleted, duplicated, inserted,
    padded with blanks, cut short or edited token by token."""
    lines = draw(st.sampled_from(SHIPPED_TEXTS)).split("\n")
    word = st.one_of(st.sampled_from(VOCABULARY), st.text(max_size=6))
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(lines) - 1))
        ops = ["delete", "duplicate", "insert", "edit", "cut", "pad"]
        op = draw(st.sampled_from(ops))
        if op == "delete" and len(lines) > 1:
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, lines[k])
        elif op == "insert":
            lines.insert(k, draw(word))
        elif op == "edit":
            tokens = lines[k].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(word)
            lines[k] = " ".join(tokens)
        elif op == "cut":
            lines[k] = lines[k][: draw(st.integers(0, len(lines[k])))]
        else:  # blank lines and extra spaces the parser skips
            lines[k] = draw(st.sampled_from(["", "  ", "\t"])) + lines[k] + " "
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(mutated_documents(), st.text()))
def test_parse_round_trips_or_points_inside_the_text(text):
    """Any text either parses to a document whose canonical text parses
    back to itself, or raises ParseError at a line and column inside the
    text (one line past the end for a file that ends early)."""
    try:
        doc = parse(text)
    except ParseError as e:
        assert 1 <= e.line <= len(text.split("\n")) + 1, (e.line, text)
        assert e.column >= 1
        return
    canonical = serialize(doc)
    assert serialize(parse(canonical)) == canonical


# --- the shared cached documents ---------------------------------------------


@pytest.mark.parametrize("key", sorted(CARRIERS))
def test_every_cached_document_is_read_only(key):
    doc = fixtures.carrier_document(key)
    arrays = [doc.rel, doc.meet, doc.join, *doc.maps.values(), *doc.ops.values()]
    for array in (a for a in arrays if a is not None):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = array
    for mapping in (doc.subsets, doc.maps, doc.ops):
        with pytest.raises(TypeError):
            mapping["rtr"] = (0,)
        with pytest.raises(TypeError):
            del mapping["lam"]
    assert fixtures.carrier_document(key) is doc
    # the loader still builds the carrier from the untouched document
    assert fixtures._load.__wrapped__(key).same_carrier(CARRIERS[key]())


def test_the_cached_op_tables_are_read_only(monkeypatch):
    # no shipped document has an op line, so give the pentagon one
    real = fileformat.parse

    def with_op(text):
        doc = real(text)
        return dataclasses.replace(doc, ops={"T": np.array(doc.meet)})

    monkeypatch.setattr(fileformat, "parse", with_op)
    doc = fixtures.carrier_document.__wrapped__("pentagon")
    with pytest.raises(ValueError):
        doc.ops["T"][0, 0] = 1
    with pytest.raises(TypeError):
        doc.ops["T"] = doc.meet


def test_writes_to_the_cached_documents_cannot_reach_the_criteria():
    with pytest.raises(TypeError):
        fixtures.carrier_document("hourglass7").subsets["rtr"] = (0,)
    with pytest.raises(ValueError):
        fixtures.carrier_document("pentagon").rel[1, 3] = True
    assert reproduction.criterion_7().passed
    assert reproduction.criterion_4().passed


def test_the_cached_documents_cannot_be_rebound():
    for key in sorted(CARRIERS):
        doc = fixtures.carrier_document(key)
        for f in dataclasses.fields(doc):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(doc, f.name, getattr(doc, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(doc, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fixtures.carrier_document("hourglass7").subsets = {"rtr": (0,)}
    assert fixtures.carrier_document("hourglass7").subsets["rtr"] != (0,)
    assert reproduction.criterion_7().passed


# --- the parser as it stood, as an oracle ------------------------------------
#
# parse read each line through a regex tokenizer, converted each cell with
# a closure and kept a line cursor object.  The one-pass parser must give
# the same document, or the same ParseError line, column and message.


def _tokens_oracle(line):
    return [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line)]


class _LinesOracle:
    def __init__(self, text):
        self.raw = text.split("\n")
        self.pos = 0

    def next_content(self):
        while self.pos < len(self.raw):
            line = self.raw[self.pos]
            self.pos += 1
            if line.strip():
                return self.pos, line
        return None


def parse_oracle(text):
    lines = _LinesOracle(text)

    got = lines.next_content()
    if got is None or got[1].strip() != fileformat.HEADER:
        lineno = got[0] if got else 1
        raise ParseError(lineno, 1, f"expected header {fileformat.HEADER!r}")

    got = lines.next_content()
    if got is None or not got[1].startswith("elements:"):
        lineno = got[0] if got else lines.pos + 1
        raise ParseError(lineno, 1, "expected 'elements:' line")
    lineno, line = got
    names = []
    for col, tok in _tokens_oracle(line[len("elements:"):]):
        tok_col = col + len("elements:")
        if tok in names:
            raise ParseError(lineno, tok_col, f"duplicate element name {tok!r}")
        names.append(tok)
    if not names:
        raise ParseError(lineno, 1, "no element names given")
    n = len(names)
    index = {s: k for k, s in enumerate(names)}

    def read_rows(kind, convert):
        rows = []
        for _ in range(n):
            got = lines.next_content()
            if got is None:
                raise ParseError(
                    lines.pos + 1, 1, f"{kind} needs {n} rows, file ended early"
                )
            lineno, line = got
            toks = _tokens_oracle(line)
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
    subsets, maps, ops = {}, {}, {}
    while True:
        got = lines.next_content()
        if got is None:
            return fileformat.PsosetDocument(
                tuple(names), rel, meet, join, subsets, maps, ops
            )
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
                for col, tok in _tokens_oracle(rest)
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


def _outcome(reader, text):
    """reader's document for text, field by field, or its ParseError as
    (line, column, message)."""
    try:
        doc = reader(text)
    except ParseError as e:
        return ("error", e.line, e.column, e.message)

    def array(a):
        return None if a is None else (a.dtype.str, a.shape, a.tolist())

    return (
        doc.names,
        array(doc.rel),
        array(doc.meet),
        array(doc.join),
        dict(doc.subsets),
        {k: array(v) for k, v in doc.maps.items()},
        {k: array(v) for k, v in doc.ops.items()},
    )


def assert_parsed_as_before(text):
    assert _outcome(parse, text) == _outcome(parse_oracle, text), repr(text)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(mutated_documents(), st.text()))
def test_parse_agrees_with_the_oracle(text):
    assert_parsed_as_before(text)


PENTAGON_TEXT = (DATA / "pentagon.psoset").read_text()


@pytest.mark.parametrize("pad", ["\x0b", "\x1c", "\xa0", "\u2003", "\r", "\x85"])
def test_parse_agrees_on_unusual_whitespace(pad):
    lines = PENTAGON_TEXT.split("\n")
    for k in range(len(lines)):
        padded = lines.copy()
        padded[k] = pad + lines[k] + pad
        assert_parsed_as_before("\n".join(padded))
        padded[k] = lines[k].replace(" ", pad)
        assert_parsed_as_before("\n".join(padded))
        padded[k] = pad
        assert_parsed_as_before("\n".join(padded))


@pytest.mark.parametrize(
    "text, outcome",
    [
        # a name glued to the elements: label still counts
        (GOOD.replace("elements: 0", "elements:0"), None),
        (GOOD.replace("elements: 0 a", "elements:a a"), (2, 12, "duplicate element name 'a'")),
        (GOOD.replace("elements: 0 a 1", "elements:"), (2, 1, "no element names given")),
        (GOOD.replace("elements:", " elements:"), (2, 1, "expected 'elements:' line")),
        # an op line with text after its colon
        (GOOD + "op T: 0\n", (7, 6, "op table starts on the next line")),
        (GOOD + "op T:x 0\n", (7, 6, "op table starts on the next line")),
        (GOOD + "  op T:\n0 0 0\n0 a a\n0 a 1\n", None),
        # a subset that repeats members, spaced or glued to its colon
        (GOOD + "subset s: a  1 a\n", (7, 11, "subset 's' repeats members")),
        (GOOD + "subset s:a a\n", (7, 10, "subset 's' repeats members")),
        (GOOD + "subset s: a z\n", (7, 13, "unknown element name 'z'")),
        (GOOD + "subset s:z\n", (7, 10, "unknown element name 'z'")),
        (GOOD + "subset s:\n", (7, 1, "subset 's' is empty")),
        (GOOD + "subset s:t: a\n", None),
        (GOOD + "map f: 0 a\n", (7, 1, "map 'f' needs 3 entries, got 2")),
        (GOOD + "map f: 0 a q\n", (7, 12, "unknown element name 'q'")),
        (GOOD + "subsets: 0\n", (7, 1, "unrecognized line 'subsets: 0'")),
        (GOOD + "meet:\n0 0 0\n0 a\n", (9, 1, "meet row needs 3 entries, got 2")),
        (GOOD + "join:\n0 0 0\n", (10, 1, "join needs 3 rows, file ended early")),
        (GOOD.replace("0 1 1\n", "0 1 x\n"), (5, 5, "relation entries are 0 or 1, got 'x'")),
        # columns count every whitespace character as one
        (GOOD.replace("0 1 1\n", "\x0b2\x1c1 1\n"), (5, 2, "relation entries are 0 or 1, got '2'")),
        (GOOD + "subset s:\xa0z\n", (7, 11, "unknown element name 'z'")),
        (GOOD.replace("elements: 0 a", "elements:\ta\ta"), (2, 13, "duplicate element name 'a'")),
        ("\n\n", (1, 1, "expected header 'psoset-document v1'")),
        ("psoset-document v1\n", (3, 1, "expected 'elements:' line")),
    ],
)
def test_parse_agrees_on_the_edge_cases(text, outcome):
    assert_parsed_as_before(text)
    if outcome is None:
        parse(text)
    else:
        e = perr(text)
        assert (e.line, e.column, e.message) == outcome


def test_the_reader_takes_every_newline_convention():
    lf = fileformat._read(PENTAGON_TEXT.encode())
    assert _outcome(lambda t: lf, "") == _outcome(parse, PENTAGON_TEXT)
    for newline in ("\r\n", "\r"):
        data = PENTAGON_TEXT.replace("\n", newline).encode()
        assert _outcome(lambda t: fileformat._read(data), "") == _outcome(lambda t: lf, "")


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_the_reader_reports_a_byte_that_is_not_utf8(newline):
    text = PENTAGON_TEXT.replace("elements: 0", "elements: \u00e90")
    data = text.replace("\n", newline).encode()
    at = data.index(b"0 a b")
    with pytest.raises(ParseError) as info:
        fileformat._read(data[:at] + b"\xff" + data[at:])
    e = info.value
    # line 2, after the 11 characters "elements: \u00e9", which take 12 bytes
    assert (e.line, e.column, e.message) == (2, 12, "not UTF-8 text (byte 0xff)")
    # a byte that starts a line, after each kind of line end
    head = f"psoset-document v1{newline}elements: a{newline}".encode()
    with pytest.raises(ParseError) as info:
        fileformat._read(head + b"\xff\r1\r")
    assert (info.value.line, info.value.column) == (3, 1)
