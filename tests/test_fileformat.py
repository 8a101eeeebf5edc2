import dataclasses
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trelliskit import (
    document_psoset,
    document_trellis,
    export_dot,
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
    real = fixtures.parse

    def with_op(text):
        doc = real(text)
        return dataclasses.replace(doc, ops={"T": np.array(doc.meet)})

    monkeypatch.setattr(fixtures, "parse", with_op)
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
