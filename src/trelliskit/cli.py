"""Command-line interface.

Exit codes: 0 success, 1 unexpected failure (or a failing verify-paper
run), 2 validation violations in the input, 3 file parse errors (a file
that is not UTF-8 text among them), 4 unsatisfied preconditions (no
bounds, carrier too large, method arguments that do not apply to the
given carrier or name an unknown element, and the like).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, reproduction
from .elements import ALPHAS, classify, right_transitive_set
from .enumeration import enumerate_tnorms, order_diagram
from .errors import (
    LimitReached,
    NotATrellis,
    ParseError,
    PreconditionError,
    PreconditionViolated,
    TrellisKitError,
    ValidationError,
)
from .fileformat import document_psoset, document_trellis, export_dot, parse
from .interior import UnaryMap, interior_from_subset, interior_range
from .relation import co_atoms, hasse, maximal_cycles
from .tnorms import (
    TnormReport,
    check,
    join_cover_witness,
    scaled_meet,
    t_coatom,
    t_drastic,
    t_join_cover,
    tnorm_via_interior,
)
from .trellis import check_skala_axioms, structure_kind

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4

SCHEMA = "trelliskit-report/1"

# the ten TnormReport flags, in field order
_REPORT_FLAGS = tuple(f.name for f in fields(TnormReport) if f.name != "witnesses")


def _read_document(path: str):
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line_start = data.rfind(b"\n", 0, e.start) + 1
        raise ParseError(
            data.count(b"\n", 0, e.start) + 1,
            len(data[line_start:e.start].decode("utf-8")) + 1,
            f"not UTF-8 text (byte {data[e.start]:#04x})",
        ) from None
    return parse(io.StringIO(text, newline=None).read())  # universal newlines


def _element(p, name: str) -> int:
    """Index of a carrier element named on the command line."""
    if name not in p.names:
        raise PreconditionViolated(f"unknown element name {name!r}")
    return p.index(name)


def _named(names, indices):
    """The names at indices, nested like indices.  An object array keeps
    each name whole; a numpy string array drops trailing NULs."""
    return np.array(names, dtype=object)[np.asarray(indices, dtype=np.intp)].tolist()


def _format_table(names, table) -> str:
    width = max(len(s) for s in names)
    cells = [[""] + list(names)]
    cells += ([name] + row for name, row in zip(names, _named(names, table)))
    return "\n".join(" ".join(f"{c:>{width}}" for c in row) for row in cells)


def _report_dict(names, rep) -> dict:
    flags = {key: getattr(rep, key) for key in _REPORT_FLAGS}
    flags["is_tnorm"] = rep.is_tnorm
    flags["witnesses"] = {k: _named(names, w) for k, w in rep.witnesses.items()}
    return flags


def _print_report(names, rep) -> None:
    for key in _REPORT_FLAGS:
        value = getattr(rep, key)
        if value is None:
            continue
        line = f"  {key}: {'yes' if value else 'no'}"
        if not value and key in rep.witnesses:
            line += f"  (witness: {' '.join(_named(names, rep.witnesses[key]))})"
        print(line)
    print(f"  t-norm: {'yes' if rep.is_tnorm else 'no'}")


def _emit_dot(args, diagram, names) -> None:
    if args.dot:
        Path(args.dot).write_text(export_dot(diagram, names))


def _print_json(args, **fields) -> None:
    """Print a report: fields plus the schema and the command name."""
    report = {"schema": SCHEMA, "command": args.command, **fields}
    print(json.dumps(report, indent=2, sort_keys=True))


def _carrier(path: str):
    """(document, carrier, kind, gap) for the document at path.

    The carrier is the document's trellis, with any declared meet/join
    tables checked against it, or its psoset when it is no trellis; gap
    is then the NotATrellis saying why, and None otherwise.  kind is the
    carrier's StructureKind."""
    doc = _read_document(path)
    try:
        t, kind = document_trellis(doc)  # ValidationError propagates -> exit 2
    except NotATrellis as gap:
        p = document_psoset(doc)
        return doc, p, structure_kind(p), gap
    return doc, t, kind, None


def _label(p, x):
    return None if x is None else p.names[x]


def cmd_validate(args) -> int:
    doc, p, kind, gap = _carrier(args.file)
    fields: dict = {
        "file": args.file,
        "elements": list(p.names),
        "psoset_valid": True,
        "bottom": _label(p, p.bottom),
        "top": _label(p, p.top),
        "is_trellis": kind.is_trellis,
        "is_lattice": kind.is_lattice,
        "declared_tables": doc.meet is not None or doc.join is not None,
    }
    if gap is None:
        fields["axioms_ok"] = check_skala_axioms(p.meet, p.join).ok
    else:
        fields["trellis_gap"] = str(gap)
    _emit_dot(args, hasse(p), p.names)
    if args.json:
        _print_json(args, **fields)
        return EXIT_OK
    print(f"elements: {' '.join(p.names)}")
    print("psoset: valid")
    print(f"bottom: {fields['bottom']}  top: {fields['top']}")
    if gap is None:
        flavor = "lattice" if kind.is_lattice else "proper trellis"
        print(f"trellis: yes ({flavor})")
        if fields["declared_tables"]:
            print("declared meet/join tables: match")
        print(f"axioms: {'pass' if fields['axioms_ok'] else 'FAIL'}")
    else:
        print(f"trellis: no — {gap}")
    return EXIT_OK


def cmd_classify(args) -> int:
    _, t, _, gap = _carrier(args.file)
    if gap is not None:
        raise gap
    cls = classify(t)
    subsets = {
        alpha: _named(t.names, np.flatnonzero(getattr(cls, alpha)))
        for alpha in ALPHAS
    }
    if args.json:
        _print_json(
            args,
            file=args.file,
            elements={s: dict(cls.flags(t.index(s))) for s in t.names},
            subsets=subsets,
        )
        return EXIT_OK
    width = max(len(s) for s in t.names)
    header = " ".join(f"{a:>8}" for a in ALPHAS)
    print(f"{'':>{width}} {header}")
    for x, name in enumerate(t.names):
        marks = " ".join(
            f"{'x' if getattr(cls, a)[x] else '.':>8}" for a in ALPHAS
        )
        print(f"{name:>{width}} {marks}")
    for alpha in ALPHAS:
        print(f"{alpha}: {' '.join(subsets[alpha])}")
    return EXIT_OK


def cmd_structure(args) -> int:
    _, p, kind, gap = _carrier(args.file)
    cycles = [list(p.labels(c)) for c in maximal_cycles(p)]
    fields: dict = {
        "file": args.file,
        "elements": list(p.names),
        "bottom": _label(p, p.bottom),
        "top": _label(p, p.top),
        "kind": {
            "meet_semi_trellis": kind.is_meet_semi_trellis,
            "join_semi_trellis": kind.is_join_semi_trellis,
            "trellis": kind.is_trellis,
            "lattice": kind.is_lattice,
            "modular": kind.is_modular,
            "bounded": kind.is_bounded,
        },
        "maximal_cycles": cycles,
        "pseudo_order_transitive": p.is_transitive(),
        "co_atoms": (
            _named(p.names, sorted(co_atoms(p))) if p.top is not None else None
        ),
    }
    if gap is None and kind.is_bounded:
        witness = join_cover_witness(p)
        fields["join_cover_condition"] = witness is None
        fields["join_cover_witness"] = (
            None if witness is None else _named(p.names, witness)
        )
    _emit_dot(args, hasse(p), p.names)
    if args.json:
        _print_json(args, **fields)
        return EXIT_OK
    print(f"elements: {' '.join(p.names)}")
    print(f"bottom: {fields['bottom']}  top: {fields['top']}")
    for key, value in fields["kind"].items():
        print(f"{key}: {value}")
    print(f"transitive: {fields['pseudo_order_transitive']}")
    print(f"maximal cycles: {cycles if cycles else 'none'}")
    if fields["co_atoms"] is not None:
        print(f"co-atoms: {' '.join(fields['co_atoms'])}")
    if "join_cover_condition" in fields:
        print(f"join-cover condition: {fields['join_cover_condition']}")
        if fields["join_cover_witness"]:
            print(f"join-cover witness: {' '.join(fields['join_cover_witness'])}")
    return EXIT_OK


def _subset_from_token(doc, p, token: str) -> list[int]:
    if token in doc.subsets:
        return sorted(doc.subsets[token])
    if token == "rtr":
        return sorted(right_transitive_set(p))
    return sorted(_element(p, s) for s in token.split(","))


def _map_from_token(doc, p, token: str) -> np.ndarray:
    if token in doc.maps:
        return doc.maps[token]
    images = token.split(",")
    if len(images) != p.n:
        raise PreconditionViolated(
            f"map needs {p.n} comma-separated element names, got {len(images)}"
        )
    return np.array([_element(p, s) for s in images], dtype=np.int64)


def cmd_construct(args) -> int:
    doc, p, _, gap = _carrier(args.file)
    method = args.method
    if method == "drastic":
        op = t_drastic(p)
    elif method == "z":
        if gap is not None:
            raise NotATrellis("the z construction needs meets and joins")
        op = t_join_cover(p)
    elif method.startswith("coatom:"):
        op = t_coatom(p, _element(p, method.split(":", 1)[1]))
    elif method.startswith(("lambda:", "interior:")):
        if gap is not None:
            raise NotATrellis("interior constructions need meets and joins")
        kind, rest = method.split(":", 1)
        v_token = None
        if ":V=" in rest:
            rest, v_token = rest.split(":V=", 1)
        if kind == "lambda":
            im = interior_from_subset(p, _subset_from_token(doc, p, rest))
        else:
            im = UnaryMap(p, _map_from_token(doc, p, rest))
        v = None
        if v_token is not None:
            rng_members = sorted(interior_range(p, im))
            v = scaled_meet(p, rng_members, _element(p, v_token))
        op = tnorm_via_interior(p, im, v)
    else:
        print(f"unknown method {method!r}", file=sys.stderr)
        return EXIT_PRECONDITION

    rep = check(op)
    if args.json:
        _print_json(
            args,
            file=args.file,
            method=method,
            table=_named(p.names, op.table),
            report=_report_dict(p.names, rep),
        )
        return EXIT_OK
    print(f"method: {method}")
    print(_format_table(p.names, op.table))
    _print_report(p.names, rep)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise PreconditionViolated(f"--limit must be positive, got {args.limit}")
    _, p, _, _ = _carrier(args.file)
    kwargs = {}
    if args.cap is not None:
        kwargs["cap"] = args.cap
    hit_limit = False
    try:
        res = enumerate_tnorms(p, limit=args.limit, **kwargs)
    except LimitReached as e:
        res = e.result
        hit_limit = True

    diagram = order_diagram(res) if res.complete else None
    if diagram is not None:
        _emit_dot(args, diagram, [f"T{k + 1}" for k in range(res.count)])
    if args.json:
        _print_json(
            args,
            file=args.file,
            count=res.count,
            complete=res.complete,
            tnorms=_named(p.names, [op.table for op in res.tnorms]),
            maximal=res.maximal,
            greatest=res.greatest,
            cover_edges=diagram.cover_edges if diagram else None,
            search_stats=res.search_stats,
        )
        return EXIT_OK
    print(f"t-norms found: {res.count}" + ("  (stopped at limit)" if hit_limit else ""))
    for k, op in enumerate(res.tnorms):
        tags = []
        if k in res.maximal:
            tags.append("maximal")
        if k == res.greatest:
            tags.append("greatest")
        suffix = f"  ({', '.join(tags)})" if tags else ""
        print(f"\nT{k + 1}{suffix}")
        print(_format_table(p.names, op.table))
    if diagram is not None:
        covers = ", ".join(f"T{u + 1} -> T{v + 1}" for u, v in diagram.cover_edges)
        print(f"\norder diagram covers: {covers if covers else 'none'}")
    print(f"search stats: {res.search_stats}")
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    results = reproduction.run_all(seed=args.seed)
    if args.json:
        _print_json(
            args,
            seed=args.seed,
            criteria=[
                {
                    "number": r.number,
                    "title": r.title,
                    "passed": r.passed,
                    "details": r.details,
                }
                for r in results
            ],
            all_passed=all(r.passed for r in results),
        )
    else:
        for r in results:
            print(r.line)
            if not r.passed:
                for line in r.details:
                    print("    " + line)
    return EXIT_OK if all(r.passed for r in results) else EXIT_UNEXPECTED


def _parser() -> argparse.ArgumentParser:
    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", action="store_true", help="machine-readable output")
    dot_opt = argparse.ArgumentParser(add_help=False)
    dot_opt.add_argument("--dot", metavar="PATH", help="write a DOT diagram here")

    ap = argparse.ArgumentParser(
        prog="trelliskit",
        description="Finite pseudo-ordered sets, trellises and their t-norms.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    # the subcommands that read a document, and whether they draw one
    commands = {}
    for name, func, dot, help_ in (
        ("validate", cmd_validate, True, "check a carrier file"),
        ("classify", cmd_classify, False, "element classes"),
        ("structure", cmd_structure, True, "structure report"),
        ("construct", cmd_construct, False, "build a t-norm"),
        ("enumerate", cmd_enumerate, True, "all t-norms"),
    ):
        parents = [json_opt, dot_opt] if dot else [json_opt]
        sp = commands[name] = sub.add_parser(name, parents=parents, help=help_)
        sp.add_argument("file")
        sp.set_defaults(func=func)

    commands["construct"].add_argument(
        "--method",
        required=True,
        help="drastic | z | coatom:<elt> | lambda:<subset>[:V=<elt>] | "
        "interior:<map>[:V=<elt>]; <subset> and <map> name a document "
        "section or spell the data inline, comma-separated",
    )
    sp = commands["enumerate"]
    sp.add_argument("--limit", type=int, default=None, help="stop after N t-norms")
    sp.add_argument("--cap", type=int, default=None, help="carrier size guard")

    sp = sub.add_parser(
        "verify-paper",
        parents=[json_opt],
        help="recompute every recorded table and fact from the built-in carriers",
    )
    sp.add_argument(
        "--seed", type=int, default=reproduction.DEFAULT_SEED,
        help="seed for the random suites",
    )
    sp.set_defaults(func=cmd_verify_paper)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return EXIT_INVALID
    except PreconditionError as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (OSError, TrellisKitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
