import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trelliskit import (
    cli,
    enumerate_tnorms,
    enumeration,
    fileformat,
    hasse,
    order_diagram,
    random_bounded_psoset,
    random_trellis,
    trellis,
    validate_psoset,
)
from trelliskit.errors import LimitReached
from trelliskit.fileformat import export_dot, make_document, serialize
from trelliskit.fixtures import CARRIERS, bounded_chain, recorded_table

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "trelliskit" / "data"
PINNED = json.loads((ROOT / "perfbench" / "pinned.json").read_text())

PENTAGON = str(DATA / "pentagon.psoset")
HOURGLASS = str(DATA / "hourglass7.psoset")
SIX_CYCLE = str(DATA / "six_element_cycle.psoset")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", PENTAGON)
    assert code == 0
    assert "psoset: valid" in out
    assert "proper trellis" in out


def test_validate_json_schema(capsys):
    code, payload = run_json(capsys, "validate", PENTAGON)
    assert code == 0
    assert payload["schema"] == "trelliskit-report/1"
    assert payload["elements"] == ["0", "a", "b", "c", "1"]
    assert payload["bottom"] == "0" and payload["top"] == "1"
    assert payload["is_trellis"] is True and payload["axioms_ok"] is True


def test_validate_rejects_broken_relation(tmp_path, capsys):
    bad = tmp_path / "bad.psoset"
    bad.write_text("psoset-document v1\nelements: a b\nrelation:\n1 1\n1 1\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "invalid" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.psoset"
    bad.write_text("psoset-document v1\nelements: a b\nrelation:\n1 5\n0 1\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 3
    assert "line 4" in err


def test_missing_file_is_unexpected(capsys):
    code = cli.main(["validate", "/nowhere/never.psoset"])
    capsys.readouterr()
    assert code == 1


def test_classify_lists_the_subsets(capsys):
    code, out, _ = run(capsys, "classify", HOURGLASS)
    assert code == 0
    assert "rtr: 0 b c d e 1" in out
    assert "tr: 0 b e 1" in out


def test_structure_reports_cycles_and_condition(capsys):
    code, out, _ = run(capsys, "structure", SIX_CYCLE)
    assert code == 0
    assert "maximal cycles" in out and "'d'" in out
    code, out, _ = run(capsys, "structure", PENTAGON)
    assert "join-cover condition: True" in out
    assert "co-atoms: c" in out


def test_structure_json(capsys):
    code, payload = run_json(capsys, "structure", PENTAGON)
    assert code == 0
    assert payload["kind"]["trellis"] and not payload["kind"]["lattice"]
    assert payload["kind"]["modular"] is True
    assert payload["join_cover_condition"] is True
    assert payload["maximal_cycles"] == []


def test_construct_drastic_json(capsys):
    code, payload = run_json(capsys, "construct", PENTAGON, "--method", "drastic")
    assert code == 0
    t = CARRIERS["pentagon"]()
    want = [[t.names[v] for v in row] for row in recorded_table("pentagon.T1").table]
    assert payload["table"] == want
    assert payload["report"]["is_tnorm"] is True


def test_construct_all_method_forms(capsys):
    for method in (
        "drastic",
        "z",
        "coatom:e",
        "lambda:rtr",
        "lambda:0,b,c",
        "lambda:rtr:V=b",
        "interior:lam",
        "interior:0,0,b,c,d,e,1",
        "interior:lam:V=c",
    ):
        code, out, err = run(capsys, "construct", HOURGLASS, "--method", method)
        assert code == 0, (method, err)
        assert "t-norm: yes" in out, method


def test_construct_bad_method_is_a_precondition_failure(capsys):
    code, _, err = run(capsys, "construct", PENTAGON, "--method", "coatom:a")
    assert code == 4 and "co-atom" in err
    code, _, _ = run(capsys, "construct", PENTAGON, "--method", "frobnicate")
    assert code == 4
    code, _, err = run(capsys, "construct", HOURGLASS, "--method", "lambda:0,a")
    assert code == 4  # a is not right-transitive there
    for path, method in (
        (PENTAGON, "coatom:zz"),
        (PENTAGON, "lambda:0,zz"),
        (HOURGLASS, "lambda:rtr:V=zz"),
        (HOURGLASS, "interior:0,0,b,c,d,zz,1"),
    ):
        code, _, err = run(capsys, "construct", path, "--method", method)
        assert code == 4 and "unknown element name 'zz'" in err, method


def test_enumerate_text_output(capsys):
    code, out, _ = run(capsys, "enumerate", PENTAGON)
    assert code == 0
    assert "t-norms found: 6" in out
    assert "T6  (maximal, greatest)" in out
    assert "order diagram covers: T1 -> T2" in out


def test_enumerate_json_and_dot(tmp_path, capsys):
    dot_path = tmp_path / "order.dot"
    code, payload = run_json(
        capsys, "enumerate", PENTAGON, "--dot", str(dot_path)
    )
    assert code == 0
    assert payload["count"] == 6 and payload["complete"] is True
    assert payload["greatest"] == 5 and payload["maximal"] == [5]
    assert payload["search_stats"]["nodes"] < 72
    assert '"T1" -> "T2" [dir=none];' in dot_path.read_text()


def test_enumerate_limit_is_not_an_error(capsys):
    code, out, _ = run(capsys, "enumerate", PENTAGON, "--limit", "2")
    assert code == 0
    assert "stopped at limit" in out


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_enumerate_limit_must_be_positive(capsys, limit):
    code, _, err = run(capsys, "enumerate", PENTAGON, f"--limit={limit}")
    assert code == 4 and "--limit must be positive" in err


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.psoset"
    bad.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 3 and "line 1, column 1" in err
    bad.write_bytes("psoset-document v1\nelements: \u00e9 b".encode() + b"\xff\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 3 and "line 2, column 14" in err
    bad.write_bytes(b"psoset-document v1\r\nelements: a\r\nrelation:\r1\r\n")
    code, _, _ = run(capsys, "validate", str(bad))
    assert code == 0  # universal newlines, as in text-mode reading


def test_enumerate_refuses_unbounded(capsys):
    code, _, err = run(capsys, "enumerate", SIX_CYCLE)
    assert code == 4
    assert "bottom and a top" in err


def test_enumerate_cap(capsys):
    code, _, err = run(capsys, "enumerate", str(DATA / "fork8.psoset"), "--cap", "6")
    assert code == 4 and "cap is 6" in err and "--cap" in err  # the CLI's option


def test_enumerate_refuses_an_over_cap_carrier_before_its_meets_and_joins(
    tmp_path, capsys, monkeypatch
):
    chain = tmp_path / "chain11.psoset"
    chain.write_text(serialize(make_document(bounded_chain(11))))

    def built(p):
        raise AssertionError("meet and join tables built for an over-cap carrier")

    monkeypatch.setattr(trellis, "_pair_tables", built)
    code, _, err = run(capsys, "enumerate", str(chain))
    assert code == 4 and "cap is 10" in err


def chain_document(path, n):
    """An n-element chain written to path, its meets and joins not built."""
    rel = np.triu(np.ones((n, n), dtype=bool))
    path.write_text(serialize(make_document(validate_psoset(rel, map(str, range(n))))))
    return str(path)


@pytest.mark.parametrize(
    "command", [["validate"], ["classify"], ["structure"], ["construct", "--method", "drastic"]]
)
def test_every_command_refuses_a_document_over_the_cap_before_its_meets_and_joins(
    command, tmp_path, capsys, monkeypatch
):
    chain = chain_document(tmp_path / "chain400.psoset", 400)

    def built(p):
        raise AssertionError("meet and join tables built for an over-cap carrier")

    monkeypatch.setattr(trellis, "_pair_tables", built)
    code, out, err = run(capsys, command[0], chain, *command[1:])
    assert code == 4 and out == ""
    assert "carrier has 400 elements, cap is 64" in err and "enumerate" in err


def test_the_document_cap_is_the_largest_document_read(tmp_path, capsys):
    assert cli.DOCUMENT_CAP == 64
    code, _, _ = run(capsys, "validate", chain_document(tmp_path / "a.psoset", 64))
    assert code == 0
    code, _, err = run(capsys, "validate", chain_document(tmp_path / "b.psoset", 65))
    assert code == 4 and "cap is 64" in err


def test_enumerate_checks_the_relation_then_the_cap_then_the_declared_tables(
    tmp_path, capsys
):
    doc = fileformat.parse((DATA / "pentagon.psoset").read_text())
    meet = doc.meet.copy()
    meet[1, 2] = 4  # a ^ b is a, not 1
    path = tmp_path / "wrong_meet.psoset"
    path.write_text(serialize(dataclasses.replace(doc, meet=meet)))
    code, _, err = run(capsys, "enumerate", str(path))
    assert code == 2 and "declared meet table disagrees" in err
    code, _, err = run(capsys, "enumerate", str(path), "--cap", "4")
    assert code == 4 and "cap is 4" in err
    rel = doc.rel.copy()
    rel[4, 0] = True  # 1 <= 0 as well as 0 <= 1
    path.write_text(serialize(dataclasses.replace(doc, rel=rel, meet=meet)))
    code, _, err = run(capsys, "enumerate", str(path), "--cap", "4")
    assert code == 2 and "mutually related" in err


def test_enumerate_deep_search_stops_at_limit(tmp_path, capsys):
    chain = tmp_path / "chain50.psoset"
    chain.write_text(serialize(make_document(bounded_chain(50))))
    code, out, err = run(
        capsys, "enumerate", str(chain), "--cap", "50", "--limit", "1"
    )
    assert code == 0 and err == ""
    assert "t-norms found: 1  (stopped at limit)" in out


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_enumerate_stopped_at_limit_says_it_wrote_no_dot(extra, tmp_path, capsys):
    # a stale file at the path is left as it is, and one stderr line says
    # that it was not written, so that it is not taken for this run's
    dot = tmp_path / "order.dot"
    dot.write_text("stale")
    code, out, err = run(capsys, "enumerate", PENTAGON, "--limit", "2", "--dot", str(dot), *extra)
    assert code == 0 and dot.read_text() == "stale"
    assert err == f"no diagram written to {dot}: the search stopped at --limit\n"
    assert run(capsys, "enumerate", PENTAGON, "--limit", "2", *extra) == (code, out, "")
    # a search that ends below the limit is complete, and draws its diagram
    code, _, err = run(capsys, "enumerate", PENTAGON, "--limit", "7", "--dot", str(dot), *extra)
    assert (code, err) == (0, "") and dot.read_text().startswith("digraph")


def test_validate_writes_carrier_dot(tmp_path, capsys):
    dot_path = tmp_path / "carrier.dot"
    code, _, _ = run(capsys, "validate", PENTAGON, "--dot", str(dot_path))
    assert code == 0
    assert '"a" -> "c" [dir=none, style=dashed];' in dot_path.read_text()


@pytest.mark.parametrize("command", ["validate", "structure"])
def test_the_carrier_diagram_is_drawn_only_for_dot(command, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "hasse", lambda p: calls.append(p) or hasse(p))
    pentagon = CARRIERS["pentagon"]()
    for extra in ((), ("--json",)):
        plain = run(capsys, command, PENTAGON, *extra)
        assert plain[0] == 0 and calls == []
        dot_path = tmp_path / f"{command}{len(extra)}.dot"
        assert run(capsys, command, PENTAGON, *extra, "--dot", str(dot_path)) == plain
        assert len(calls) == 1
        assert dot_path.read_text() == export_dot(hasse(pentagon), pentagon.names)
        calls.clear()


def test_running_out_of_memory_exits_1_with_one_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "enumerate_tnorms", exhausted)
    assert run(capsys, "enumerate", PENTAGON, "--json") == (
        1, "", "error: out of memory\n"
    )


def test_dot_quotes_backslashes_in_names(tmp_path, capsys):
    # a name ending in a backslash used to leave its DOT string open
    doc = tmp_path / "awkward.psoset"
    doc.write_text(
        "psoset-document v1\n"
        'elements: 0 a\\ "b 1\n'
        "relation:\n1 1 1 1\n0 1 0 1\n0 0 1 1\n0 0 0 1\n"
    )
    dot_path = tmp_path / "awkward.dot"
    code, _, _ = run(capsys, "validate", str(doc), "--dot", str(dot_path))
    assert code == 0
    dot = dot_path.read_text()
    quoted = re.findall(r'"(?:[^"\\]|\\.)*"', dot)
    assert '"' not in re.sub(r'"(?:[^"\\]|\\.)*"', "", dot)
    names = {re.sub(r"\\(.)", r"\1", s[1:-1]) for s in quoted}
    assert names == {"0", "a\\", '"b', "1"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def enumerate_outcome(capsys, path: str, dot: Path) -> dict:
    """enumerate --json --dot on one file, in the form of pinned.json."""
    code = cli.main(["enumerate", path, "--json", "--dot", str(dot)])
    text = capsys.readouterr().out
    return {
        "exit_code": code,
        "count": json.loads(text)["count"] if text else None,
        "stdout_sha256": sha256(text.encode()),
        "dot_sha256": sha256(dot.read_bytes()) if dot.exists() else None,
        "stdout_bytes": len(text.encode()),
    }


def test_every_shipped_carrier_has_a_pin():
    assert sorted(path.name for path in DATA.glob("*.psoset")) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_shipped_enumerate_outputs_match_the_pins(name, tmp_path, capsys, monkeypatch):
    # the pins hash stdout, which names the file, so run from the root
    # with the relative path the benchmark passes
    monkeypatch.chdir(ROOT)
    got = enumerate_outcome(capsys, f"src/trelliskit/data/{name}", tmp_path / "out.dot")
    assert got == PINNED[name]


def test_stress_carrier_outputs_are_pinned(tmp_path, capsys, monkeypatch):
    # the 3rd random_trellis(random.Random(7), 8): 2522 t-norms, whose
    # diagram relation._reach reads off the order's int rows (the sweep,
    # or a pass over strong components); the hashes were recorded with the
    # unpacked, closure-based diagram code
    rng = random.Random(7)
    for _ in range(3):
        t = random_trellis(rng, 8)
    monkeypatch.chdir(tmp_path)
    Path("stress.psoset").write_text(serialize(make_document(t)))
    got = enumerate_outcome(capsys, "stress.psoset", tmp_path / "stress.dot")
    assert got["exit_code"] == 0 and got["count"] == 2522
    assert got["stdout_sha256"] == (
        "f114bb171e5872961881abc14f0f03c200625e17f9665bfe21fdf2cffc041c8f"
    )
    assert got["dot_sha256"] == (
        "96a326e148a85ac98f2aeec1fc45d7e2b8176f2d0a37d8adf18c9c72121bbe88"
    )


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_the_dot_file_is_written_in_pieces(block, tmp_path, capsys, monkeypatch):
    # fork8's diagram takes 19,509 lines; each piece written holds at most
    # one block of them, and the file keeps its pinned bytes
    monkeypatch.setattr(fileformat, "_DOT_BLOCK", block)
    pieces = []

    def recorded(diagram, names):
        for piece in fileformat._dot_pieces(diagram, names):
            pieces.append(piece.count("\n"))
            yield piece

    monkeypatch.setattr(cli, "_dot_pieces", recorded)
    monkeypatch.chdir(ROOT)
    got = enumerate_outcome(capsys, "src/trelliskit/data/fork8.psoset", tmp_path / "out.dot")
    assert got == PINNED["fork8.psoset"]
    assert max(pieces) == min(block, sum(pieces)) and len(pieces) == -(-sum(pieces) // block)


# One table as the text mode printed it before its tables were streamed.
def _format_table(names, table) -> str:
    width = max(len(s) for s in names)
    cells = [[""] + list(names)]
    cells += ([name] + row for name, row in zip(names, cli._named(names, table)))
    return "\n".join(" ".join(f"{c:>{width}}" for c in row) for row in cells)


def enumerate_oracles(path, limit=None, cap=None):
    """enumerate's stdout with and without --json, each rendered whole."""
    _, p, _, _ = cli._carrier(path)
    try:
        res = enumerate_tnorms(p, limit=limit, **({} if cap is None else {"cap": cap}))
    except LimitReached as e:
        res = e.result
    diagram = order_diagram(res) if res.complete else None
    report = json.dumps({
        "schema": cli.SCHEMA,
        "command": "enumerate",
        "file": path,
        "count": res.count,
        "complete": res.complete,
        "tnorms": cli._named(p.names, res.tables),
        "maximal": res.maximal,
        "greatest": res.greatest,
        "cover_edges": diagram.cover_edges if diagram else None,
        "search_stats": dict(res.search_stats),
    }, indent=2, sort_keys=True) + "\n"
    lines = [f"t-norms found: {res.count}" + ("" if res.complete else "  (stopped at limit)")]
    for k, table in enumerate(res.tables):
        tags = []
        if k in res.maximal:
            tags.append("maximal")
        if k == res.greatest:
            tags.append("greatest")
        suffix = f"  ({', '.join(tags)})" if tags else ""
        lines += [f"\nT{k + 1}{suffix}", _format_table(p.names, table)]
    if diagram is not None:
        covers = ", ".join(f"T{u + 1} -> T{v + 1}" for u, v in diagram.cover_edges)
        lines.append(f"\norder diagram covers: {covers if covers else 'none'}")
    lines.append(f"search stats: {dict(res.search_stats)}")
    return report, "\n".join(lines) + "\n"


def assert_streamed_as_rendered_whole(capsys, path, limit=None, cap=None):
    report, text = enumerate_oracles(path, limit, cap)
    argv = ["enumerate", path]
    argv += [] if limit is None else ["--limit", str(limit)]
    argv += [] if cap is None else ["--cap", str(cap)]
    assert run(capsys, *argv, "--json") == (0, report, "")
    assert run(capsys, *argv) == (0, text, "")


BOUNDED = sorted(name for name in PINNED if PINNED[name]["exit_code"] == 0)


@pytest.mark.parametrize("name", BOUNDED)
def test_streamed_output_on_the_shipped_carriers(name, capsys):
    assert_streamed_as_rendered_whole(capsys, str(DATA / name))


def test_streamed_output_on_random_carriers(tmp_path, capsys):
    rng = random.Random(3201)
    for k in range(30):
        make = random_trellis if k % 2 else random_bounded_psoset
        path = tmp_path / f"random{k}.psoset"
        path.write_text(serialize(make_document(make(rng, 3 + k % 4))))
        assert_streamed_as_rendered_whole(capsys, str(path))


@pytest.mark.parametrize("name, limit", [("pentagon.psoset", 2), ("fork8.psoset", 100)])
def test_streamed_output_of_a_partial_result(name, limit, capsys):
    assert_streamed_as_rendered_whole(capsys, str(DATA / name), limit=limit)
    _, payload = run_json(capsys, "enumerate", str(DATA / name), "--limit", str(limit))
    assert payload["complete"] is False and payload["cover_edges"] is None


def test_streamed_output_of_no_tnorms(capsys, monkeypatch):
    monkeypatch.setattr(
        enumeration, "_tnorm_mask", lambda tabs, rel, top: np.zeros(len(tabs), bool)
    )
    assert_streamed_as_rendered_whole(capsys, PENTAGON)
    payload = json.loads(run(capsys, "enumerate", PENTAGON, "--json")[1])
    assert payload["count"] == 0 and payload["tnorms"] == [] and payload["cover_edges"] == []


def test_streamed_output_escapes_names(tmp_path, capsys):
    path = tmp_path / "awkward.psoset"
    path.write_text(
        "psoset-document v1\n"
        'elements: 0 a\\ "b \u00e9 \u2603\U0001f600 1\n'
        "relation:\n1 1 1 1 1 1\n0 1 0 0 0 1\n0 0 1 0 0 1\n0 0 0 1 0 1\n"
        "0 0 0 0 1 1\n0 0 0 0 0 1\n",
        encoding="utf-8",
    )
    assert_streamed_as_rendered_whole(capsys, str(path))
    out = run(capsys, "enumerate", str(path), "--json")[1]
    assert '"a\\\\"' in out and '"\\"b"' in out and '"\\u00e9"' in out
    assert out.isascii()
    # the other reports render these names through the stdlib, and
    # classify's elements map takes them as keys
    outs = {}
    for argv in (["validate"], ["classify"], ["structure"], ["construct", "--method", "drastic"]):
        code, out, _ = run(capsys, argv[0], str(path), *argv[1:], "--json")
        assert code == 0 and out.isascii()
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        outs[argv[0]] = out
    assert '"a\\\\": {' in outs["classify"] and '"\\u2603\\ud83d\\ude00": {' in outs["classify"]


def test_streamed_output_where_n_to_the_n_passes_int64(tmp_path, capsys):
    path = tmp_path / "chain16.psoset"
    path.write_text(serialize(make_document(bounded_chain(16))))
    assert 16**16 > np.iinfo(np.int64).max
    assert_streamed_as_rendered_whole(capsys, str(path), limit=3, cap=16)


@pytest.mark.parametrize("block", [1, 7, 763, 764])
def test_streamed_output_longer_than_one_block(block, capsys, monkeypatch):
    # fork8 has 764 t-norms; each write holds at most one block of tables
    monkeypatch.setattr(cli, "_BLOCK", block)
    assert_streamed_as_rendered_whole(capsys, str(DATA / "fork8.psoset"))
    writes = []
    monkeypatch.setattr(sys.stdout, "write", lambda text: writes.append(text) or len(text))
    cli.main(["enumerate", str(DATA / "fork8.psoset"), "--json"])
    longest = max(writes, key=len)
    assert len(writes) > 764 // block and len(longest) < 1200 * block + 200
    # the text mode too, its line of cover edges among them
    writes.clear()
    cli.main(["enumerate", str(DATA / "fork8.psoset")])
    assert len(max(writes, key=len)) < 1200 * block + 200


@pytest.mark.parametrize("n", [1, 6, 300])
def test_one_table_prints_as_before(n):
    # construct prints its table this way; past 256 elements a cell's key
    # takes two bytes
    rng = np.random.default_rng(n)
    names = [f"e{k}" for k in range(n)]
    table = rng.integers(0, n, (n, n))
    assert "".join(cli._text_tables(names, table[None], [""])) == (
        _format_table(names, table) + "\n"
    )


def test_a_stdout_pipe_closed_early_ends_in_one_error_line():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.Popen(
        [sys.executable, "-m", "trelliskit.cli", "enumerate", str(DATA / "fork8.psoset"), "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(child.stdout.read(100)) == 100
    child.stdout.close()  # the report is 817,731 bytes, far more than a pipe holds
    err = child.stderr.read().decode()
    assert child.wait(timeout=120) == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_verify_paper_smoke(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("criterion")]
    assert len(lines) == 10
    assert all("PASS" in l for l in lines)


# Exit code of each subcommand, run with --json, on each shipped document.
# Only the six-element cycle, which has no top, is refused (exit 4), by
# the commands that need bounds.
SWEEP = {
    "validate": (),
    "classify": (),
    "structure": (),
    "enumerate": (),
    "construct": ("--method", "drastic"),
}


@pytest.mark.parametrize("command", sorted(SWEEP))
@pytest.mark.parametrize("name", sorted(PINNED))
def test_every_subcommand_on_every_shipped_document(command, name, capsys):
    path = str(DATA / name)
    code, out, err = run(capsys, command, path, *SWEEP[command], "--json")
    refused = name == "six_element_cycle.psoset" and command in (
        "enumerate", "construct"
    )
    if refused:
        assert (code, out) == (4, "")
        assert "bottom and a top" in err
        return
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert payload["schema"] == "trelliskit-report/1"
    assert payload["command"] == command
    assert payload["file"] == path


def test_verify_paper_json_is_the_stdlib_rendering(capsys):
    code, out, _ = run(capsys, "verify-paper", "--seed", "1405", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["all_passed"]
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# SHA-256 of `verify-paper --json --seed S` stdout.  The criterion-10
# instance counts in `details` move with any change to the stream of the
# random generators.
VERIFY_PAPER_SHA256 = {
    "1405": "f9171afaacfd543e8c803e1bedb2d80ca5210b8dfcf03173567574da933f3f96",
    "7": "911788aa883816d81fbd05e0985b866789238f0fde447830165091e1229b757a",
    "1019": "a0f20e5a790ee921c73369618a3768e1666b09d098f9af40b5e5e1b8dd335804",
    "2024": "41989da082b57349e22f884851eb79af9d6518b2a06247d4c7b7793eca829c11",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_PAPER_SHA256))
def test_verify_paper_json_is_pinned(seed, capsys):
    code, out, err = run(capsys, "verify-paper", "--json", "--seed", seed)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PAPER_SHA256[seed]


def test_verify_paper_stats_time_each_criterion_on_stderr(capsys):
    code, out, err = run(capsys, "verify-paper", "--json", "--seed", "7", "--stats")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PAPER_SHA256["7"]
    lines = [re.fullmatch(r"criterion (\d+): \d+\.\d{3} s", l) for l in err.splitlines()]
    assert [m and int(m.group(1)) for m in lines] == list(range(1, 11))


ENUMERATE_PHASES = ("search", "final check", "order", "diagram", "output")


@pytest.mark.parametrize("extra", [[], ["--json"], ["--limit", "2"]])
def test_enumerate_stats_time_each_phase_on_stderr(extra, tmp_path, capsys):
    plain = run(capsys, "enumerate", PENTAGON, *extra, "--dot", str(tmp_path / "a.dot"))
    code, out, err = run(
        capsys, "enumerate", PENTAGON, *extra, "--dot", str(tmp_path / "b.dot"), "--stats"
    )
    if "--json" in extra:  # the report gains its timings key, and nothing else
        report = json.loads(out)
        del report["timings"]
        out = json.dumps(report, indent=2, sort_keys=True) + "\n"
    drawn = extra != ["--limit", "2"]

    def notice(name):  # a run stopped at --limit draws nothing and says so first
        return "" if drawn else (
            f"no diagram written to {tmp_path / name}: the search stopped at --limit\n"
        )

    assert (code, out) == plain[:2] and plain[2] == notice("a.dot")
    assert (tmp_path / "a.dot").exists() == drawn
    if drawn:
        assert (tmp_path / "a.dot").read_text() == (tmp_path / "b.dot").read_text()
    assert err.startswith(notice("b.dot"))
    err = err[len(notice("b.dot")):]
    lines = [re.fullmatch(r"(.+): \d+\.\d{3} s", l) for l in err.splitlines()]
    phases = tuple(p for p in ENUMERATE_PHASES if drawn or p != "diagram")
    assert tuple(m and m.group(1) for m in lines) == phases


@pytest.mark.parametrize("limit", [[], ["--limit", "5"]])
def test_enumerate_json_stats_report_the_phases_that_ran(limit, capsys, monkeypatch):
    # the report is the pinned one plus a timings key, which holds every
    # phase but output, the diagram only when the run was complete
    monkeypatch.chdir(ROOT)
    path = "src/trelliskit/data/fork8.psoset"
    _, plain, _ = run(capsys, "enumerate", path, "--json", *limit)
    code, out, err = run(capsys, "enumerate", path, "--json", *limit, "--stats")
    assert code == 0
    report = json.loads(out)
    timings = report.pop("timings")
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == plain
    if not limit:
        assert sha256(plain.encode()) == PINNED["fork8.psoset"]["stdout_sha256"]
    phases = ["search", "final check", "order"] + ([] if limit else ["diagram"])
    assert sorted(timings) == sorted(phases)
    assert all(type(t) is float and t >= 0 for t in timings.values())
    # stderr prints the same times, in phase order, then the output's
    assert err.splitlines()[:-1] == [f"{p}: {timings[p]:.3f} s" for p in phases]
    assert err.splitlines()[-1].startswith("output: ")


def test_the_parser_is_built_once_and_keeps_no_flags(capsys):
    assert cli._parser() is cli._parser()
    code, out, _ = run(capsys, "enumerate", PENTAGON, "--json", "--stats")
    assert code == 0 and json.loads(out)["count"] == 6
    code, out, err = run(capsys, "enumerate", PENTAGON, "--limit", "2")
    assert code == 0 and err == ""
    assert out.startswith("t-norms found: 2  (stopped at limit)\n")
    args = cli._parser().parse_args(["enumerate", PENTAGON])
    assert not (args.json or args.stats or args.dot or args.limit)
    assert args.cap == enumeration.DEFAULT_CAP


def test_the_cached_parser_calls_the_handler_bound_at_call_time(capsys, monkeypatch):
    cli._parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args.file) or 0)
    assert run(capsys, "validate", PENTAGON)[0] == 0
    assert seen == [PENTAGON]


# Scalar subclasses, which json.dumps renders as their base types.
class Label(str):
    pass


class Count(int):
    pass


# Scalars that are equal as dict keys but render differently, so that a
# rendering reused across them shows.
_CLASHING = st.sampled_from([0, 1, 0.0, 1.0, True, False, "1", -0.0])
_SCALARS = st.one_of(
    st.text(), st.integers(), st.booleans(), st.none(), st.floats(), _CLASHING
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=5),
    ),
    max_leaves=30,
)


def print_json(obj) -> str:
    """_print_json's stdout for a report with one field, obj."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._print_json(SimpleNamespace(command="c"), field=obj)
    return out.getvalue()


def stdlib_json(obj) -> str:
    report = {"schema": cli.SCHEMA, "command": "c", "field": obj}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# Each field is the stdlib's rendering moved in one level, which is exact
# only while every newline in it is structural: strings hold newlines here.
@settings(max_examples=500, deadline=None)
@given(obj=st.one_of(_PAYLOADS, st.lists(st.lists(_CLASHING, max_size=3), max_size=4)))
def test_json_writer_is_the_stdlib_rendering(obj):
    assert print_json(obj) == stdlib_json(obj)


@pytest.mark.parametrize(
    "obj",
    [
        [[1], [True]],
        [[1, 1], [1, 1.0]],
        {"a": [0], "b": [False]},
        [["1"], [1], [True], [1.0], ["1"]],
        [["a", "b"], [["a", "b"]], {"c": ["a", "b"]}],
        [], {}, (), [[], {}, ()], {"a": [], "b": {}},
        {1: "x", 2: [3]},
        {True: 1, False: [0]},
        {None: None},
        {2.5: 0, 1: 1, float("nan"): 2, float("inf"): 3},
        [float("nan"), float("-inf"), 1e300, -0.0],
        [Label("a\"\\"), Count(7), "\x00é\U0001f600"],
        {Label("k"): Count(1), "j": Label("v")},
        {Count(3): 0, 1: [Count(2)]},
        ["a\nb", {"\n": "\r\n  "}],
    ],
    ids=repr,
)
def test_json_writer_on_lookalike_scalars_and_empty_containers(obj):
    assert print_json(obj) == stdlib_json(obj)


@pytest.mark.parametrize(
    "obj",
    [[np.int64(1)], {"a": {(1, 2): 0}}, {1: 0, "a": 1}, object()],
    ids=["numpy_int", "tuple_key", "unsortable_keys", "object"],
)
def test_json_writer_raises_where_the_stdlib_does(obj):
    with pytest.raises(TypeError) as expected:
        stdlib_json(obj)
    with pytest.raises(TypeError) as got:
        print_json(obj)
    assert str(got.value) == str(expected.value)


# A bounded psoset that is not a trellis: a and b have two minimal upper
# bounds, c and d, so no join.
NO_JOIN = (
    "psoset-document v1\n"
    "elements: 0 a b c d 1\n"
    "relation:\n"
    "1 1 1 1 1 1\n0 1 0 1 1 1\n0 0 1 1 1 1\n"
    "0 0 0 1 0 1\n0 0 0 0 1 1\n0 0 0 0 0 1\n"
)


def test_every_subcommand_on_a_bounded_psoset_that_is_no_trellis(tmp_path, capsys):
    path = tmp_path / "no_join.psoset"
    path.write_text(NO_JOIN)
    gap = "pair (a, b) has no join"
    code, payload = run_json(capsys, "validate", str(path))
    assert code == 0 and payload["is_trellis"] is False
    assert payload["trellis_gap"] == gap and "axioms_ok" not in payload
    code, _, err = run(capsys, "classify", str(path))
    assert code == 4 and gap in err
    code, payload = run_json(capsys, "structure", str(path))
    assert code == 0 and payload["kind"]["bounded"] is True
    assert payload["kind"]["trellis"] is False
    assert "join_cover_condition" not in payload
    code, payload = run_json(capsys, "construct", str(path), "--method", "drastic")
    assert code == 0 and payload["report"]["is_tnorm"] is True
    code, _, err = run(capsys, "construct", str(path), "--method", "z")
    assert code == 4 and "meets and joins" in err
    code, payload = run_json(capsys, "enumerate", str(path))
    assert code == 0 and payload["complete"] is True and payload["count"] >= 1


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", PENTAGON, "--dot", "out.dot"],
        ["construct", PENTAGON, "--method", "drastic", "--dot", "out.dot"],
        ["verify-paper", "--dot", "out.dot"],
        ["validate", PENTAGON, "--seed", "1"],
        ["enumerate", PENTAGON, "--seed", "1"],
    ],
)
def test_options_a_subcommand_does_not_use_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _mutants(text, rng):
    """(label, text) pairs: the shipped document with one relation bit
    flipped (with and without its meet and join blocks), a relation row
    dropped, a name duplicated, a meet entry naming no element, a meet
    entry naming the wrong element, and cut short."""
    lines = text.split("\n")
    names = lines[1].split()[1:]
    n = len(names)
    rel_at = lines.index("relation:") + 1
    out = []

    def edited(k, col, token):
        changed = list(lines)
        row = changed[k].split()
        row[col] = token
        changed[k] = " ".join(row)
        return "\n".join(changed)

    for _ in range(3):
        r, c = rng.randrange(n), rng.randrange(n)
        bit = lines[rel_at + r].split()[c]
        flipped = edited(rel_at + r, c, "10"[int(bit)])
        out.append(("flip", flipped))
        if "meet:" in lines:  # canonical order: the join block follows the meet's
            tables = slice(lines.index("meet:"), lines.index("meet:") + 2 * (n + 1))
            bare = flipped.split("\n")
            del bare[tables]
            out.append(("flip_bare", "\n".join(bare)))
    dropped = list(lines)
    del dropped[rel_at + rng.randrange(n)]
    out.append(("drop_row", "\n".join(dropped)))
    out.append(("dup_name", edited(1, 1 + rng.randrange(1, n), names[0])))
    if "meet:" in lines:
        k, col = lines.index("meet:") + 1 + rng.randrange(n), rng.randrange(n)
        out.append(("meet_unknown", edited(k, col, "zz")))
        wrong = rng.choice([s for s in names if s != lines[k].split()[col]])
        out.append(("meet_wrong", edited(k, col, wrong)))
    for _ in range(2):
        out.append(("truncate", text[: rng.randrange(len(text))]))
    return out


def _argvs(path, text):
    names = text.split("\n")[1].split()[1:]
    map_token = "lam" if "\nmap lam:" in text else ",".join(names)
    methods = ["drastic", "z", f"coatom:{names[-2]}", "lambda:rtr",
               f"interior:{map_token}", f"lambda:rtr:V={names[0]}"]
    yield ["validate", path]
    yield ["classify", path]
    yield ["structure", path]
    for method in methods:
        yield ["construct", path, "--method", method]
    yield ["enumerate", path, "--limit", "20"]


@pytest.mark.parametrize("path", sorted(DATA.glob("*.psoset")), ids=lambda p: p.stem)
def test_mutated_documents_end_in_a_documented_exit_code(path, tmp_path, capsys):
    """Every subcommand that reads a document, in text and JSON, on mutants
    of a shipped document exits 0, 2, 3 or 4: never 1, and never with an
    exception."""
    text = path.read_text()
    codes = set()
    for k, (label, mutant) in enumerate(_mutants(text, random.Random(path.stem))):
        doc = tmp_path / f"{k}_{label}.psoset"
        doc.write_text(mutant)
        for argv in _argvs(str(doc), text):
            for extra in ([], ["--json"]):
                code, _, err = run(capsys, *argv, *extra)
                assert code in (0, 2, 3, 4), (label, argv, err)
                codes.add(code)
    assert {2, 3} <= codes
