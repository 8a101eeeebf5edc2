"""Command-line interface.

Exit codes: 0 success, 1 unexpected failure (a failing verify-paper run,
and running out of memory, among them), 2 validation violations in the
input, 3 file parse errors (a file that is not UTF-8 text among them),
4 unsatisfied preconditions (no bounds, carrier too large, method
arguments that do not apply to the given carrier or name an unknown
element, and the like).  validate, classify, structure and construct
refuse a document of more than DOCUMENT_CAP elements, and enumerate one
of more than its --cap, with exit 4, before any meet or join is built.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from time import perf_counter
from types import GeneratorType

import numpy as np

from . import __version__, reproduction
from .elements import ALPHAS, classify, right_transitive_set
from .enumeration import DEFAULT_CAP, enumerate_tnorms, order_diagram
from .errors import (
    LimitReached,
    NotATrellis,
    ParseError,
    PreconditionError,
    PreconditionViolated,
    TrellisKitError,
    ValidationError,
)
from .fileformat import _check_tables, _dot_pieces, _read, document_psoset
from .interior import UnaryMap, interior_from_subset, interior_range
from .relation import _require_cap, co_atoms, hasse, maximal_cycles
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
from .trellis import build_trellis, check_skala_axioms, structure_kind

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4

# the largest document validate, classify, structure and construct read:
# on a 64-element chain each took at most 0.11 s in process (construct
# peaked at 166 MB), and their meets, joins and checks grow as n^3 to n^4
# (a 400-element chain took 33 s and 1.1 GB)
DOCUMENT_CAP = 64

SCHEMA = "trelliskit-report/1"

# the ten TnormReport flags, in field order
_REPORT_FLAGS = tuple(f.name for f in fields(TnormReport) if f.name != "witnesses")


def _element(p, name: str) -> int:
    """Index of a carrier element named on the command line."""
    if name not in p.names:
        raise PreconditionViolated(f"unknown element name {name!r}")
    return p.index(name)


def _named(names, indices):
    """The names at indices, nested like indices.  An object array keeps
    each name whole; a numpy string array drops trailing NULs."""
    return np.array(names, dtype=object)[np.asarray(indices, dtype=np.intp)].tolist()


_BLOCK = 4096  # tables, or cover edges, rendered per write


def _table_text(tables, cells, cell_sep, leads, heads, tail):
    """The tables of a (w, n, n) index stack as text, one str per _BLOCK
    tables.  Table k reads leads[k], then heads[i] and row i for each i,
    then tail, where a row reads cell_sep.join(cells[v] for v in row).
    Rows are keyed by the bytes of a void view, so each distinct row is
    rendered once, and no key overflows, whatever n is."""
    w, n = len(tables), len(cells)
    flat = tables.reshape(w * n, n).astype(np.min_scalar_type(n - 1))
    keys = flat.view(np.dtype((np.void, n * flat.itemsize))).ravel()
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    texts = np.array([cell_sep.join(r) for r in _named(cells, flat[first])], object)
    rows = texts[inv].reshape(w, n)
    for start in range(0, w, _BLOCK):
        block = rows[start:start + _BLOCK]
        pieces = np.empty((len(block), 2 * n + 2), object)
        pieces[:, 0] = leads[start:start + _BLOCK]
        pieces[:, 1:-1:2] = heads
        pieces[:, 2:-1:2] = block
        pieces[:, -1] = tail
        yield "".join(pieces.ravel().tolist())


def _text_tables(names, tables, leads):
    """_table_text in the text mode: each table is a header line of the
    names, then a line per row, led by its name, all cells right-aligned."""
    width = max(len(s) for s in names)
    pad = [f"{s:>{width}}" for s in names]
    heads = [f"\n{s} " for s in pad]
    heads[0] = " " * width + " " + " ".join(pad) + heads[0]
    return _table_text(tables, pad, " ", leads, heads, "\n")


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
    """Write the diagram to the --dot path in pieces, to a file opened as
    Path.write_text opens it; callers build it only when that option is
    given."""
    with Path(args.dot).open("w") as out:
        out.writelines(_dot_pieces(diagram, names))


def _print_times(times) -> None:
    """One "<name>: X.XXX s" line on stderr per (name, seconds) pair."""
    for name, seconds in times:
        print(f"{name}: {seconds:.3f} s", file=sys.stderr)


def _print_json(args, **fields) -> None:
    """Print a report, fields plus the schema and the command name, as
    json.dumps(report, indent=2, sort_keys=True) renders it.  A field
    given as a generator is written as the text pieces it yields, so that
    a long list need never be held as one str; every other field is the
    stdlib's rendering moved in one level, which is exact, since the
    stdlib escapes every newline inside a string."""
    report = {"schema": SCHEMA, "command": args.command, **fields}
    out = sys.stdout
    sep = "{"
    for key, value in sorted(report.items()):
        out.write(f"{sep}\n  {encode_basestring_ascii(key)}: ")
        if isinstance(value, GeneratorType):
            out.writelines(value)
        else:
            out.write(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  "))
        sep = ","
    out.write("\n}\n")


def _carrier(path: str, cap: int | None = None):
    """(document, carrier, kind, gap) for the document at path.

    The carrier is the document's trellis, with any declared meet/join
    tables checked against it, or its psoset when it is no trellis; gap
    is then the NotATrellis saying why, and None otherwise.  kind is the
    carrier's StructureKind.  A carrier of more elements than cap
    (enumerate's --cap), or than DOCUMENT_CAP when cap is None, is
    refused once its relation is valid, before its meets and joins are
    built."""
    doc = _read(Path(path).read_bytes())
    p = document_psoset(doc)  # ValidationError propagates -> exit 2
    # CarrierTooLarge -> exit 4
    if cap is None:
        _require_cap(p, DOCUMENT_CAP, "only enumerate takes a larger one, with --cap")
    else:
        _require_cap(p, cap)
    try:
        t, kind = build_trellis(p)
    except NotATrellis as gap:
        return doc, p, structure_kind(p), gap
    _check_tables(doc, t)  # ValidationError propagates -> exit 2
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
    if args.dot:
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
    if args.dot:
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
    sys.stdout.writelines(_text_tables(p.names, op.table[None], [""]))
    _print_report(p.names, rep)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise PreconditionViolated(f"--limit must be positive, got {args.limit}")
    _, p, _, _ = _carrier(args.file, args.cap)
    try:
        res = enumerate_tnorms(p, limit=args.limit, cap=args.cap)
    except LimitReached as e:
        res = e.result

    started = perf_counter()
    maximal, greatest = res.maximal, res.greatest  # these build the order
    timings = {**res.timings, "order": perf_counter() - started}
    diagram = None
    if res.complete:  # a partial run draws no diagram
        started = perf_counter()
        diagram = order_diagram(res)
        timings["diagram"] = perf_counter() - started
    drawn = perf_counter()
    if diagram is not None and args.dot:
        _emit_dot(args, diagram, [f"T{k + 1}" for k in range(res.count)])
    elif args.dot:  # say so, or a stale file at the path looks current
        print(
            f"no diagram written to {args.dot}: the search stopped at --limit",
            file=sys.stderr,
        )
    if args.json:
        _print_json(
            args,
            file=args.file,
            count=res.count,
            complete=res.complete,
            tnorms=_json_tables(p.names, res.tables),
            maximal=maximal,
            greatest=greatest,
            cover_edges=_json_pairs(diagram.cover_edges) if diagram else None,
            search_stats=dict(res.search_stats),
            **({"timings": timings} if args.stats else {}),
        )
    else:
        _print_enumeration(p, res, maximal, greatest, diagram)
    if args.stats:
        _print_times([*timings.items(), ("output", perf_counter() - drawn)])
    return EXIT_OK


def _json_tables(names, tables):
    """The tnorms field, _named(names, tables), as json.dumps renders it
    at a key of the report, in pieces."""
    leads = np.full(len(tables), ",\n    ", object)
    leads[:1] = "[\n    "
    heads = ["[\n      [\n        "] + ["\n      ],\n      [\n        "] * (len(names) - 1)
    cells = [encode_basestring_ascii(s) for s in names]
    yield from _table_text(tables, cells, ",\n        ", leads, heads, "\n      ]\n    ]")
    yield "\n  ]" if len(tables) else "[]"


def _json_pairs(pairs):
    """The cover_edges field, a tuple of int pairs, as json.dumps renders
    it at a key of the report, in pieces."""
    sep = "[\n    "
    for start in range(0, len(pairs), _BLOCK):
        block = pairs[start:start + _BLOCK]
        yield sep + ",\n    ".join(["[\n      %d,\n      %d\n    ]" % e for e in block])
        sep = ",\n    "
    yield "\n  ]" if pairs else "[]"


def _text_covers(pairs):
    """The text mode's line of cover edges, in pieces of _BLOCK edges."""
    yield "\norder diagram covers: "
    sep = ""
    for start in range(0, len(pairs), _BLOCK):
        block = pairs[start:start + _BLOCK]
        yield sep + ", ".join(["T%d -> T%d" % (u + 1, v + 1) for u, v in block])
        sep = ", "
    yield "\n" if pairs else "none\n"


def _print_enumeration(p, res, maximal, greatest, diagram) -> None:
    print(f"t-norms found: {res.count}" + ("" if res.complete else "  (stopped at limit)"))
    leads = np.array([f"\nT{k + 1}\n" for k in range(res.count)], object)
    for k in maximal:  # a greatest t-norm is the one maximal t-norm
        leads[k] = f"\nT{k + 1}  (maximal{', greatest' if k == greatest else ''})\n"
    sys.stdout.writelines(_text_tables(p.names, res.tables, leads))
    if diagram is not None:
        sys.stdout.writelines(_text_covers(diagram.cover_edges))
    print(f"search stats: {dict(res.search_stats)}")


def cmd_verify_paper(args) -> int:
    results = reproduction.run_all(seed=args.seed)
    if args.stats:
        _print_times((f"criterion {r.number}", r.seconds) for r in results)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each subcommand
    names its handler rather than holding it, so main() calls whatever
    this module binds under that name at the time of the call."""
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
    for name, handler, dot, help_ in (
        ("validate", "cmd_validate", True, "check a carrier file"),
        ("classify", "cmd_classify", False, "element classes"),
        ("structure", "cmd_structure", True, "structure report"),
        ("construct", "cmd_construct", False, "build a t-norm"),
        ("enumerate", "cmd_enumerate", True, "all t-norms"),
    ):
        parents = [json_opt, dot_opt] if dot else [json_opt]
        sp = commands[name] = sub.add_parser(name, parents=parents, help=help_)
        sp.add_argument("file")
        sp.set_defaults(handler=handler)

    commands["construct"].add_argument(
        "--method",
        required=True,
        help="drastic | z | coatom:<elt> | lambda:<subset>[:V=<elt>] | "
        "interior:<map>[:V=<elt>]; <subset> and <map> name a document "
        "section or spell the data inline, comma-separated",
    )
    sp = commands["enumerate"]
    sp.add_argument("--limit", type=int, default=None, help="stop after N t-norms")
    sp.add_argument(
        "--cap", type=int, default=DEFAULT_CAP,
        help="carrier size guard (default: %(default)s elements)",
    )
    sp.add_argument(
        "--stats", action="store_true",
        help="print the wall time of each phase that ran (search, final check, "
        "order, diagram, output) to stderr; with --json, all but output also "
        "go into the report's timings",
    )

    sp = sub.add_parser(
        "verify-paper",
        parents=[json_opt],
        help="recompute every recorded table and fact from the built-in carriers",
    )
    sp.add_argument(
        "--seed", type=int, default=reproduction.DEFAULT_SEED,
        help="seed for the random suites",
    )
    sp.add_argument(
        "--stats", action="store_true",
        help="print each criterion's wall time to stderr",
    )
    sp.set_defaults(handler="cmd_verify_paper")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
