import json
from pathlib import Path

import numpy as np
import pytest

from trelliskit import cli
from trelliskit.fileformat import make_document, serialize
from trelliskit.fixtures import CARRIERS, bounded_chain, recorded_table

DATA = Path(__file__).resolve().parents[1] / "src" / "trelliskit" / "data"

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
    assert code == 4 and "cap" in err


def test_enumerate_deep_search_stops_at_limit(tmp_path, capsys):
    chain = tmp_path / "chain50.psoset"
    chain.write_text(serialize(make_document(bounded_chain(50))))
    code, out, err = run(
        capsys, "enumerate", str(chain), "--cap", "50", "--limit", "1"
    )
    assert code == 0 and err == ""
    assert "t-norms found: 1  (stopped at limit)" in out


def test_validate_writes_carrier_dot(tmp_path, capsys):
    dot_path = tmp_path / "carrier.dot"
    code, _, _ = run(capsys, "validate", PENTAGON, "--dot", str(dot_path))
    assert code == 0
    assert '"a" -> "c" [dir=none, style=dashed];' in dot_path.read_text()


def test_verify_paper_smoke(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("criterion")]
    assert len(lines) == 10
    assert all("PASS" in l for l in lines)
