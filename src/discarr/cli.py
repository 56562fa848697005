"""Command line front end.

Subcommands: detect (run the coincidence detectors), classify (type of a
6-element arrangement), lattice (flats of the discriminantal arrangement
with non-very-generic flags), table (render and verify the built-in
tables), gallery (list built-in arrangement names).

Arrangements come from JSON files or gallery:<name> URIs.  Reports are
deterministic for a fixed input; --json emits schema report.v2 (SCHEMA),
text mode adds a timing line that --quiet suppresses.

Each subcommand is a function from the parsed arguments to one tuple
(source, arrangement or None, results, consistency, text lines); it
neither reads the clock nor prints nor picks an exit code.  main alone
times the call, writes the report.v2 document or the text lines, and
maps the verdict to the exit code: 0 when every consistency check holds
(a true flag, an empty violation list), otherwise the failure code the
subparser declares beside its func.

detect and lattice decide their zero tests over Q(sqrt d) and Q(zeta_m)
in one certified large prime (modular.modular_image); the report keeps
the arrangement's own field and digest.  detect's involution maps (n = 6)
stay in the arrangement's field, since their entries are printed;
classify prints no field values but also runs in the arrangement's field.

Exit codes: 0 all checks pass, 1 stdout closed before the report was
written (a pipe reader such as head exited), 2 unusable input, 3
non-generic arrangement, 4 detected pattern set not closed, 5 table
mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from math import comb

from .arrangement import (
    Arrangement,
    NotGeneric,
    _require_generic,
    arrangement_from_json,
    arrangement_to_json,
)
from .detectors import (
    good6_closure_checks,
    good6_condition,
    good6_points,
    quadral_points,
    find_involutions,
    quint_closure_checks,
    quintuple_points,
)
from .discriminantal import (
    TooLarge,
    _require_lattice_size,
    intersection_lattice,
    nvg_flats,
)
from .exactfield import FieldDescriptor, descriptor_to_json, format_element
from .gallery import (
    DODECAHEDRAL_DEPENDENCIES,
    build_gallery,
    classification_rows,
    dependency_residual,
    dodecahedral,
    gallery_names,
    witness_spec,
)
from .modular import modular_image
from .permtype import TYPE_ORDER, ClosureViolation, arrangement_type

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_NOT_GENERIC = 3
EXIT_CLOSURE = 4
EXIT_TABLE = 5

SCHEMA = "report.v2"

# expected table values, frozen independently of the computing code
_M_EXPECTED = (0, 1, 3, 2, 6, 4, 3, 10, 7, 6, 15)
_FIELD_EXPECTED = ("Q", "Q", "Q", "Q", "Q", "Q", "*",
                   "Q(sqrt(5))", "*", "Q(sqrt(-3))", "*")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def field_label(fd: FieldDescriptor | None) -> str:
    return "*" if fd is None else fd.label


def load_arrangement(source: str) -> Arrangement:
    """The arrangement named by source; it is not checked for genericity
    here.  A fault in the input is a CliError(EXIT_USAGE)."""
    try:
        if source.startswith("gallery:"):
            return build_gallery(source[len("gallery:"):])
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        return arrangement_from_json(obj)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read {source!r}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
        raise CliError(EXIT_USAGE, f"bad JSON in {source!r}: {exc}") from exc
    except ValueError as exc:  # ParseError, UnknownGalleryName and shape errors
        raise CliError(EXIT_USAGE, str(exc)) from exc


def _digest(a: Arrangement) -> str:
    blob = json.dumps(arrangement_to_json(a), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _report(command: str, source: str, a: Arrangement | None,
            results: dict, consistency: dict) -> dict:
    inp: dict = {"source": source}
    if a is not None:
        inp.update(digest=_digest(a), n=a.n, k=a.k,
                   field=descriptor_to_json(a.field))
    return {"schema": SCHEMA, "command": command, "input": inp,
            "results": results, "consistency": consistency}


def _report_text(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte.

    With indent set, json encodes through its pure-Python iterator; this
    writes the same layout into one list of chunks, and a list of plain
    ints (no bools) in one str.join.  Keys must be str, strings are
    escaped by json's own ASCII encoder, and any other scalar (a float)
    is left to json.dumps."""
    chunks: list[str] = []
    _encode(value, "\n", chunks)
    return "".join(chunks)


def _encode(value, newline: str, chunks: list[str]) -> None:
    """Append value's encoding to chunks; newline is a line break plus
    the indent of the line value starts on."""
    if isinstance(value, str):
        chunks.append(encode_basestring_ascii(value))
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif type(value) is int:
        chunks.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        opening = "{"
        for key in sorted(value):
            chunks += (opening, inner, encode_basestring_ascii(key), ": ")
            opening = ","
            _encode(value[key], inner, chunks)
        chunks += (newline, "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        inner = newline + "  "
        if all(type(x) is int for x in value):
            chunks += ("[", inner, ("," + inner).join(map(int.__repr__, value)), newline, "]")
            return
        opening = "["
        for item in value:
            chunks += (opening, inner)
            opening = ","
            _encode(item, inner, chunks)
        chunks += (newline, "]")
    else:
        chunks.append(json.dumps(value))


def _consistent(consistency: dict) -> bool:
    for v in consistency.values():
        if isinstance(v, bool):
            if not v:
                return False
        elif isinstance(v, list):
            if v:
                return False
    return True


def _matching_json(m) -> list[list[int]]:
    return sorted(sorted(p) for p in m)


def _matching_text(m) -> str:
    return "|".join("".join(map(str, p)) for p in _matching_json(m))


# ---------------------------------------------------------------------------
# detect

def cmd_detect(args):
    a = load_arrangement(args.input)
    if args.k is not None and args.k != a.k:
        raise CliError(EXIT_USAGE, f"arrangement has k={a.k}, requested k={args.k}")
    if a.k not in (2, 3):
        raise CliError(EXIT_USAGE, f"no detectors for k={a.k}")
    results, consistency, lines = (_detect_k2 if a.k == 2 else _detect_k3)(args, a)
    lines = [f"detect {args.input}: n={a.n} k={a.k} field={field_label(a.field)}",
             *lines, f"m(A) = {results['m_a']}",
             "consistency: " + ("ok" if _consistent(consistency) else "FAILED")]
    return args.input, a, results, consistency, lines


def _detect_k2(args, a: Arrangement):
    image = modular_image(a)
    quads = quadral_points(image)
    results: dict = {
        "quadral_count": len(quads),
        "quadral": [[list(s) for s in f.sets] for f in quads],
        "m_a": len(quads),
    }
    consistency: dict = {
        "complement_closed": {f.complement() for f in quads} <= set(quads),
        "count_even": len(quads) % 2 == 0,
    }
    lines = [f"quadral points: {len(quads)}"]
    if not args.quiet:
        lines += [f"  {f!r}" for f in quads]
    if a.n == 6:
        invs = find_involutions(a)
        results["involutions"] = [
            {"matching": _matching_json(m),
             "map": [[format_element(e) for e in row] for row in f]}
            for m, f in invs]
        results["involution_count"] = len(invs)
        consistency["involutions_match_quadral"] = (
            {f.matching() for f in quads} == {m for m, _ in invs})
        lines.append(f"involutions: {len(invs)}")
        if not args.quiet:
            lines += [f"  {_matching_text(m)}" for m, _ in invs]
    elif a.n >= 7:
        quints = quintuple_points(image)
        results["quint_count"] = len(quints)
        results["quints"] = [{"center": q.center, "ta": list(q.ta),
                              "tb": list(q.tb)} for q in quints]
        consistency["quint_closure_violations"] = quint_closure_checks(quints)
        lines.append(f"quintuple families: {len(quints)}")
        if not args.quiet:
            lines += [f"  {q!r}" for q in quints]
    return results, consistency, lines


def _detect_k3(args, a: Arrangement):
    image = modular_image(a)
    found = good6_points(image)
    results = {
        "good6_count": len(found),
        "good6": [_matching_json(g.matching) for g in found],
        "m_a": len(found),
    }
    consistency = {"pappus_closure_violations": good6_closure_checks(found)}
    lines = [f"good 6-partitions: {len(found)}"]
    if not args.quiet:
        lines += [f"  {_matching_text(g.matching)}" for g in found]
    return results, consistency, lines


# ---------------------------------------------------------------------------
# classify

def cmd_classify(args):
    a = load_arrangement(args.input)
    if a.n != 6:
        raise CliError(EXIT_USAGE, f"classification needs n=6, got n={a.n}")
    if a.k not in (2, 3):
        raise CliError(EXIT_USAGE, f"no classifier for k={a.k}")
    rep = arrangement_type(a)
    results = {
        "type": rep.type.label(),
        "token": rep.type.cli_token(),
        "blocks": [list(b) for b in rep.partition.sorted_blocks()],
        "m_a": rep.m_a,
        "m_of_type": rep.type.m(),
        "matchings": [_matching_json(m) for m in rep.matchings],
        "edges": sorted(list(e) for e in rep.edges),
    }
    consistency = {"m_formula_consistent": rep.m_formula_consistent,
                   "upper_bound_ok": rep.m_a <= 20}
    blocks = "|".join("".join(map(str, b)) for b in rep.partition.sorted_blocks())
    lines = [f"classify {args.input}: n=6 k={a.k} field={field_label(a.field)}",
             f"type {rep.type.label()}  m(A)={rep.m_a}  blocks {blocks}"]
    if not args.quiet:
        lines += [f"  {_matching_text(m)}" for m in rep.matchings]
    lines.append("consistency: " + ("ok" if _consistent(consistency) else "FAILED"))
    return args.input, a, results, consistency, lines


# ---------------------------------------------------------------------------
# lattice

def cmd_lattice(args):
    # refused before anything is read or built: a negative rank (exit 2),
    # which intersection_lattice would clamp to 0, then a dependent
    # k-subset (exit 3), read off the minors table, then the cap (exit
    # 2), which needs (n, k)
    if args.max_rank is not None and args.max_rank < 0:
        raise CliError(EXIT_USAGE, f"--max-rank must be at least 0, got {args.max_rank}")
    a = load_arrangement(args.input)
    _require_generic(a)
    _require_lattice_size(a.n, a.k)
    lat = intersection_lattice(modular_image(a, lattice=True), max_rank=args.max_rank)
    nvg = nvg_flats(lat)
    results = lat.report(nvg=nvg)
    results["field"] = descriptor_to_json(a.field)
    results["nvg_count"] = len(nvg)
    lines = [f"lattice {args.input}: n={a.n} k={a.k} "
             f"{comb(a.n, a.k + 1)} hyperplanes, top rank {lat.max_rank()}"]
    for level in results["ranks"]:
        lines.append(f"rank {level['rank']}: {level['count']} flats")
        if not args.quiet:
            for f in level["flats"]:
                if f["nvg"]:
                    sup = " ".join("".join(map(str, L)) for L in f["support"])
                    lines.append(f"  nvg {sup}")
    lines.append(f"non-very-generic flats: {len(nvg)}")
    return args.input, a, results, {}, lines


# ---------------------------------------------------------------------------
# tables

def cmd_table(args):
    builder = {"mformula": _table_mformula,
               "classification": _table_classification,
               "dependencies": _table_dependencies}[args.name]
    rows, lines = builder()
    all_match = all(r["ok"] for r in rows)
    lines.append("table: " + ("ok" if all_match else "MISMATCH"))
    return f"table:{args.name}", None, {"rows": rows}, {"all_match": all_match}, lines


def _table_mformula():
    rows = []
    lines = ["type          m"]
    for nu, expected in zip(TYPE_ORDER, _M_EXPECTED):
        computed = nu.m()
        rows.append({"type": nu.label(), "m": computed,
                     "expected": expected, "ok": computed == expected})
        lines.append(f"{nu.label():<12}  {computed}")
    return rows, lines


def _table_classification():
    rows = []
    lines = ["type          m   field"]
    for (nu, m, fd), m_exp, f_exp in zip(classification_rows(),
                                         _M_EXPECTED, _FIELD_EXPECTED):
        label = field_label(fd)
        ok = m == m_exp and label == f_exp
        if fd is not None:
            spec = witness_spec(nu)
            ok = ok and arrangement_type(spec.arrangement()).type == nu
        rows.append({"type": nu.label(), "m": m, "field": label,
                     "expected_field": f_exp, "ok": ok})
        lines.append(f"{nu.label():<12}  {m:<2}  {label}")
    return rows, lines


def _table_dependencies():
    a = dodecahedral()
    rows = []
    lines = ["pairing    dependency"]
    for pairs, terms in DODECAHEDRAL_DEPENDENCIES:
        residual = dependency_residual(a, terms)
        det = good6_condition(a, pairs)
        ok = all(e.is_zero() for e in residual) and det.is_zero()
        text = " ".join(("+" if s > 0 else "-") + "".join(map(str, L))
                        for s, L in terms)
        rows.append({"matching": [list(p) for p in pairs], "terms": text,
                     "residual_zero": all(e.is_zero() for e in residual),
                     "detected": det.is_zero(), "ok": ok})
        lines.append(f"{_matching_text(pairs):<9}  {text}")
    return rows, lines


# ---------------------------------------------------------------------------
# gallery listing

def cmd_gallery(args):
    names = gallery_names()
    return "gallery", None, {"names": names}, {}, names


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="discarr",
        description="exact detectors and lattices for discriminantal arrangements")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true",
                        help=f"emit a {SCHEMA} JSON document")
        sp.add_argument("--quiet", action="store_true",
                        help="omit per-item listings and timing")

    sp = sub.add_parser("detect", help="run coincidence detectors")
    sp.add_argument("input", help="arrangement JSON path or gallery:<name>")
    sp.add_argument("--k", type=int, choices=(2, 3),
                    help="require this ambient dimension")
    common(sp)
    sp.set_defaults(func=cmd_detect, failure=EXIT_CLOSURE)

    sp = sub.add_parser("classify", help="type of a 6-element arrangement")
    sp.add_argument("input", help="arrangement JSON path or gallery:<name>")
    common(sp)
    sp.set_defaults(func=cmd_classify, failure=EXIT_CLOSURE)

    sp = sub.add_parser("lattice", help="flats of the discriminantal arrangement")
    sp.add_argument("input", help="arrangement JSON path or gallery:<name>")
    sp.add_argument("--max-rank", type=int, default=None,
                    help="stop the lattice at this rank")
    common(sp)
    sp.set_defaults(func=cmd_lattice)

    sp = sub.add_parser("table", help="render and verify a built-in table")
    sp.add_argument("name", choices=("mformula", "classification", "dependencies"))
    common(sp)
    sp.set_defaults(func=cmd_table, failure=EXIT_TABLE)

    sp = sub.add_parser("gallery", help="list built-in arrangements")
    sp.add_argument("action", nargs="?", default="list", choices=("list",))
    common(sp)
    sp.set_defaults(func=cmd_gallery)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a report.v2 document holds no per-item listing, so --json builds
    # none: the listings are what --quiet omits
    args.quiet = args.quiet or args.json
    started = time.perf_counter()
    try:
        source, a, results, consistency, lines = args.func(args)
        if args.json:
            report = _report(args.command, source, a, results, consistency)
            print(_report_text(report))
        else:
            for line in lines:
                print(line)
            if not args.quiet:
                print(f"elapsed {time.perf_counter() - started:.3f}s")
        sys.stdout.flush()
        return EXIT_OK if _consistent(consistency) else args.failure
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush
        # at exit cannot fail again (Python docs, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except NotGeneric as exc:
        print(f"error: arrangement is not generic: {exc}", file=sys.stderr)
        return EXIT_NOT_GENERIC
    except ClosureViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CLOSURE
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
