"""Command line front end.

Exit statuses: 0 success, 1 verification mismatch, 2 ParseError,
3 ContractViolation (also an unreadable input or a closed stdout),
4 TheoremViolation (ClassificationError included), raised or printed as
a diagnostic, 5 ResourceLimitExceeded.  `quotient`'s "no exceptional
identification" diagnostic is informational and exits 0.  `main` maps
each package error to its status through the ordered table
`EXIT_STATUS`, where the first match wins.
Environment variables are never consulted; all knobs are flags.

`main(argv)` may be called any number of times in one process.  It parses
with one parser, built on the first call and kept (:func:`build_parser`);
argparse keeps no per-call state on it, so every call behaves as the first.
The returned parser is shared, so callers must not mutate it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from .census import (DEFAULT_CENSUS_MAX_ORDER, census_classify,
                     enumerate_flagged, enumerate_oriented)
from .classify import (certify_sylow_structure, classify, detect_p_map,
                       identify_exceptional)
from .coset_enum import (DEFAULT_MAX_COSETS, admit_presentation,
                         group_order, todd_coxeter)
from .errors import (ContractViolation, ParseError, ResourceLimitExceeded,
                     TheoremViolation)
from .grammar import (GroupFile, MapDecl, format_group_file,
                      parse_group_file, read_group_text, realize_group_file)
from .group import DEFAULT_MAX_ORDER, is_prime, o_p
from .maps import quotient_map
from .reporting import TOOL_VERSION, dumps, map_section, new_document
from .verify import all_passed, verify_corpus

EXIT_STATUS = ((ParseError, 2), (ResourceLimitExceeded, 5),
               (TheoremViolation, 4), (ContractViolation, 3))


def _check_bounds(args) -> None:
    """Refuse a --max-cosets or --max-order below 1, which no run fits in."""
    for name in ("max_cosets", "max_order"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            flag = "--" + name.replace("_", "-")
            raise ContractViolation(f"{flag} must be at least 1, got {value}")


def _select_map(gf: GroupFile, wanted) -> MapDecl:
    """The declared map to work on, picked before the group is realized."""
    if wanted is not None:
        for md in gf.maps:
            if md.name == wanted:
                return md
        raise ContractViolation(f"no map named {wanted!r} in the file")
    if len(gf.maps) == 1:
        return gf.maps[0]
    if not gf.maps:
        raise ContractViolation("the file declares no maps")
    raise ContractViolation("several maps declared; pick one with --map")


def _load(args, pick: bool = True):
    """The text of args.file and its realization under --max-cosets and
    --max-order, with only the declaration the command reads: the map
    :func:`_select_map` picks, or none without `pick`."""
    text = read_group_text(args.file)
    gf = parse_group_file(text)
    picked = (_select_map(gf, args.map),) if pick else ()
    return text, realize_group_file(dataclasses.replace(gf, maps=picked),
                                    max_cosets=args.max_cosets,
                                    max_order=args.max_order)


def _genus(sec: dict) -> str:
    """Genus field of a text line; a degenerate map names its tags instead."""
    if sec["degenerate"]:
        return f"degenerate {sec['degenerate']}"
    return f"{sec['genus_kind']}={sec['genus']}"


def _emit(doc, args) -> None:
    """Print a group document: its JSON under --json, else text lines."""
    if args.json:
        print(doc.to_json())
        return
    g = doc.group
    census = doc.census
    if census is None:
        print(f"group: order {g['group_order']}, solvable={g['solvable']},"
              f" p-core orders {g['p_core_orders']}")
    else:
        print(f"group: order {g['group_order']}; {census['kind']} census:"
              f" {census['class_count']} classes,"
              f" {census['total_tuples']} tuples")
        for row in census["entries"]:
            extra = ""
            if "p" in row:
                extra = (f", p-map ({row['p']},{row['k']})"
                         f" normal={row['normal']}"
                         f" exceptional={row['exceptional_case']}")
            print(f"  {tuple(row['tuple'])}: x{row['class_size']},"
                  f" V/E/F = {row['vertices']}/{row['edges']}/{row['faces']},"
                  f" {_genus(row)}{extra}")
    for sec in doc.maps:
        print(f"map {sec['name']} ({sec['kind']}):"
              f" V/E/F = {sec['vertices']}/{sec['edges']}/{sec['faces']},"
              f" euler {sec['euler']}, {_genus(sec)},"
              f" valency {sec['valency']}")
        if "p" in sec:
            print(f"  p-map ({sec['p']},{sec['k']}): normal={sec['normal']},"
                  f" status={sec['orientation_status']},"
                  f" exceptional={sec['exceptional_case']},"
                  f" quotient_order={sec['quotient_order']}")
        elif "exceptional_case" in sec:
            print(f"  exceptional family: {sec['exceptional_case']}")
        if "vertex_primitive" in sec:
            print(f"  vertex action primitive: {sec['vertex_primitive']}")
        if "sylow_structure" in sec:
            print(f"  sylow structure: {sec['sylow_structure']}")
    for d in doc.diagnostics:
        print(f"diagnostic: {d}")


def cmd_analyze(args) -> int:
    text, rz = _load(args)
    [(name, m)] = rz.maps.items()
    doc = new_document("analyze", text, rz.group)
    cl = st = None
    if detect_p_map(m) is not None:
        try:
            cl = classify(m)
            if cl.normal and m.vertex_primitive:
                st = certify_sylow_structure(m)
        except TheoremViolation as exc:
            doc.diagnostics.append(str(exc))
    section = map_section(name, m, cl, st)
    if not m.degenerate:
        section["vertex_primitive"] = m.vertex_primitive
    doc.maps.append(section)
    _emit(doc, args)
    return 4 if doc.diagnostics else 0


def cmd_quotient(args) -> int:
    if not is_prime(args.p):
        raise ContractViolation(f"--p must be a prime, got {args.p}")
    text, rz = _load(args)
    [(name, m)] = rz.maps.items()
    core = o_p(rz.group, args.p)
    qm = quotient_map(m, core)
    doc = new_document("quotient", text, rz.group)
    doc.group["p"] = args.p
    doc.group["p_core_order"] = core.order
    status = 0
    section = map_section(f"{name}/core", qm)
    if detect_p_map(m) is not None:
        try:
            classify(m)
        except TheoremViolation as exc:
            doc.diagnostics.append(str(exc))
            status = 4
    # only a diagnostic: classify above identified a nonnormal p-map's quotient
    try:
        section["exceptional_case"] = identify_exceptional(qm, args.p).label()
    except TheoremViolation as exc:
        section["exceptional_case"] = None
        doc.diagnostics.append(f"no exceptional identification: {exc}")
    doc.maps.append(section)
    _emit(doc, args)
    return status


def cmd_census(args) -> int:
    # Realized under the census bound (the --max-order default of census),
    # so that a group too large for the census is refused there, not closed
    # up to the 10^6 default first.
    text, rz = _load(args, pick=False)
    if args.kind == "oriented":
        entries = enumerate_oriented(rz.group, max_order=args.max_order)
    else:
        entries = enumerate_flagged(rz.group, max_order=args.max_order)
    census_classify(entries)
    doc = new_document("census", text, rz.group)
    rows = []
    for entry in entries:
        row = {"tuple": list(entry.tuple_), "class_size": entry.class_size}
        row.update(entry.report.to_dict())
        if entry.classification is not None:
            row.update(entry.classification.to_dict())
        rows.append(row)
        for v in entry.violations:
            doc.diagnostics.append(f"tuple {entry.tuple_}: {v}")
    doc.census = {
        "kind": args.kind,
        "class_count": len(entries),
        "total_tuples": sum(e.class_size for e in entries),
        "entries": rows,
    }
    _emit(doc, args)
    return 4 if doc.diagnostics else 0


def cmd_verify_corpus(args) -> int:
    rows = verify_corpus(directory=args.corpus_dir,
                         max_cosets=args.max_cosets)
    ok = all_passed(rows)
    if args.json:
        print(dumps({
            "tool_version": TOOL_VERSION,
            "passed": ok,
            "checks": [vars(r) for r in rows],
        }))
    else:
        for r in rows:
            mark = "PASS" if r.ok else "FAIL"
            tail = "" if r.ok else f"  [{r.detail}]"
            print(f"{mark}  {r.example:24} {r.check}{tail}")
        good = sum(1 for r in rows if r.ok)
        print(f"{good}/{len(rows)} checks passed")
    return 0 if ok else 1


def cmd_tc(args) -> int:
    gf = parse_group_file(read_group_text(args.file))
    if gf.mode != "gens":
        raise ContractViolation("tc needs a presentation-mode file")
    if args.export_perms and gf.presentation.ngens != 1:
        # the exported file is the regular table itself
        admit_presentation(gf.presentation, args.max_cosets)
        ct = todd_coxeter(gf.presentation, (), max_cosets=args.max_cosets)
        n, cycles = ct.n, [p.cycles() for p in ct.gen_perms()]
    else:
        # the order: from the exponent sums on one generator, else certified
        # by a cyclic subgroup's cosets where it can be; a cyclic group's
        # regular table is the n-cycle, written from its range
        n = group_order(gf.presentation, args.max_cosets)[1]
        cycles = ((range(n),) if n > 1 else (),)
    doc = {"tool_version": TOOL_VERSION, "cosets": n}
    if args.export_perms:  # the relators' words, maybe long, freed first
        gf = dataclasses.replace(gf, mode="perm", presentation=None,
                                 perm_cycles=cycles)
        doc["perm_file"] = format_group_file(gf)
    if args.json:
        text, doc = dumps(doc), None  # the file's text printed, not kept
        print(text)
    else:
        print(f"cosets: {n}")
        sys.stdout.write(doc.get("perm_file", ""))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the CLI, built on first use and shared."""
    p = argparse.ArgumentParser(
        prog="regmaps",
        description="Algebraic maps on surfaces: analysis, quotients,"
                    " censuses and coset enumeration over group files.")
    p.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, order_default=None):
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
        sp.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS,
                        help="coset enumeration bound, at least 1"
                             " (default %(default)s)")
        if order_default is not None:
            sp.add_argument("--max-order", type=int, default=order_default,
                            help="group order bound, at least 1"
                                 " (default %(default)s)")

    a = sub.add_parser("analyze", help="report on one declared map")
    a.add_argument("file")
    a.add_argument("--map", default=None, help="map name to analyze")
    common(a, DEFAULT_MAX_ORDER)
    a.set_defaults(func=cmd_analyze)

    q = sub.add_parser("quotient", help="quotient a map by its p-core")
    q.add_argument("file")
    q.add_argument("--map", default=None)
    q.add_argument("--p", type=int, required=True, help="the prime p")
    common(q, DEFAULT_MAX_ORDER)
    q.set_defaults(func=cmd_quotient)

    c = sub.add_parser("census", help="all maps on the group, up to"
                                      " isomorphism")
    c.add_argument("file")
    c.add_argument("--kind", choices=("oriented", "flagged"), required=True)
    common(c, DEFAULT_CENSUS_MAX_ORDER)
    c.set_defaults(func=cmd_census)

    v = sub.add_parser("verify-corpus", help="run the pinned regression"
                                             " suite on the bundled corpus")
    v.add_argument("--corpus-dir", default=None,
                   help="read corpus files from a directory instead of the"
                        " package data")
    common(v)
    v.set_defaults(func=cmd_verify_corpus)

    tc_help = ("the order of a presentation's group, by coset enumeration,"
               " over a cyclic subgroup where a power relator certifies it;"
               " a presentation whose relators prove the group infinite is"
               " refused (exit 5) before any enumeration")
    t = sub.add_parser("tc", help=tc_help, description=tc_help)
    t.add_argument("file")
    t.add_argument("--export-perms", action="store_true",
                   help="enumerate the regular table and print its"
                        " generators as a permutation-mode group file")
    common(t)
    t.set_defaults(func=cmd_tc)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_bounds(args)
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError as exc:
        # Point fd 1 at the null device, so that the flush at interpreter
        # exit does not fail a second time on the output still buffered.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 3
    except tuple(cls for cls, _ in EXIT_STATUS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_STATUS
                    if isinstance(exc, cls))


if __name__ == "__main__":
    raise SystemExit(main())
