"""Command-line interface.

Subcommands: ``check``, ``reduce``, ``chains``, ``resolution``,
``homology``, ``inequality`` and ``monoid {chains,homology}``.

Exit codes: 0 ok, 1 input error (or a standard output closed before
everything was written), 2 completeness check failed, 3 budget exceeded
(in the check too, or a term nested past the recursion limit), 4
unsupported coefficient modulus.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import isqrt

from .chains import Cell, enumerate_chains
from .collapse import MatchingError
from .homology import (
    CoefficientError,
    boundary_rows,
    homology_groups,
    inequalities,
    inequality_report,
)
from .monoid import enumerate_word_chains, monoid_homology, render_word
from .morse import morse_differential
from .parser import ParseError, parse_presentation, parse_srs, print_presentation
from .rewrite import (
    BudgetExceeded,
    CompletenessError,
    Trs,
    check_complete,
    degree,
    reduce_trs,
)
from .terms import Morphism, render_term

JSON_VERSION = 1


def emit_json(payload: dict) -> str:
    """Deterministic JSON with a leading version field."""
    import json  # here only: no text command pays for it
    body = {"version": JSON_VERSION}
    body.update(payload)
    return json.dumps(body, indent=2, ensure_ascii=False)


def morphism_json(m: Morphism) -> dict:
    return {
        "context": list(m.domain_sorts),
        "terms": [render_term(t) for t in m.terms],
    }


def cell_json(cell: Cell) -> dict:
    return {"sort": cell.sort, "entries": [morphism_json(m) for m in cell.entries]}


class InputError(Exception):
    """An input file that cannot be read as UTF-8 text."""


def _load(path: str, parse):
    """``parse`` of the text of the input file at ``path``."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            text = f.read()
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        why = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise InputError(f"cannot read {path}: {why}") from exc
    return parse(text)


def _resolve_modulus(trs: Trs, coeff: str) -> int:
    """``auto`` is the least prime dividing the degree, else the degree: 0
    (Z) for degree 0, and 1 for degree 1, which admits no modulus, so
    ``validate_modulus`` refuses it when ``boundary_rows`` is called."""
    if coeff == "auto":
        d = degree(trs)
        return next((p for p in range(2, isqrt(d) + 1) if d % p == 0), d)
    try:
        return int(coeff)
    except ValueError as exc:
        raise CoefficientError(f"bad --coeff value {coeff!r}") from exc


def _certification_code(report) -> int:
    """0 if ``report`` certifies its system, else 3 if a budget ran out, else 2."""
    return 0 if report.certified else 3 if report.budget_exceeded else 2


def _cmd_check(args) -> int:
    trs = _load(args.file, parse_presentation)
    if args.cp_budget or args.term_budget:
        trs = Trs(trs.signature, trs.rules, args.term_budget or trs.step_budget,
                  args.cp_budget or trs.join_budget)
    report = check_complete(trs, assume_terminating=args.assume_terminating)
    for line in report.lines():
        print(line)
    return _certification_code(report)


def _cmd_reduce(args) -> int:
    trs = _load(args.file, parse_presentation)
    print(print_presentation(reduce_trs(trs)), end="")
    return 0


def _cmd_chains(args) -> int:
    trs = _load(args.file, parse_presentation)
    chains = enumerate_chains(trs, args.max_dim)
    if args.json:
        payload = {
            "chains": [
                {"dim": dim, "count": len(cells), "cells": [cell_json(c) for c in cells]}
                for dim, cells in sorted(chains.items())
            ]
        }
        print(emit_json(payload))
        return 0
    for dim, cells in sorted(chains.items()):
        print(f"dimension {dim}: {len(cells)} chain(s)")
        for c in cells:
            print(f"  {c!r}")
    return 0


def _render_coeff(coeff) -> str:
    return f"{coeff:+d}" if isinstance(coeff, int) else repr(coeff)


def _cmd_resolution(args) -> int:
    trs = _load(args.file, parse_presentation)
    chains = enumerate_chains(trs, args.max_dim)
    for dim in range(args.max_dim + 1):
        cells = chains[dim]
        print(f"dimension {dim}: {len(cells)} generator(s)")
        for c in cells:
            print(f"  {c!r}")
            if dim >= 1:
                terms = morse_differential(c, trs, args.mode)
                if not terms:
                    print("    d = 0")
                for target, coeff in sorted(terms.items(), key=lambda kv: repr(kv[0])):
                    print(f"    d -> [{_render_coeff(coeff)}] {target!r}")
    return 0


def _cmd_homology(args) -> int:
    trs = _load(args.file, parse_presentation)
    d = _resolve_modulus(trs, args.coeff)
    chains = enumerate_chains(trs, args.max_dim)
    counts = {k: len(v) for k, v in chains.items()}
    rows = boundary_rows(trs, chains, args.max_dim + 1, d)
    if args.json:  # it prints every entry; the groups alone need only the rows that count
        rows = {n: list(r) for n, r in rows.items()}
    groups = homology_groups(rows, counts, d, range(args.max_dim + 1))
    if args.json:
        payload = {
            "coefficients": d,
            "homology": [
                {
                    "dim": n,
                    "chains": counts[n],
                    "H": {"rank": groups[n].rank, "torsion": list(groups[n].torsion)},
                }
                for n in range(args.max_dim + 1)
            ],
            "matrices": [
                {"dim": n, "entries": rows[n]}
                for n in range(1, args.max_dim + 2)
            ],
        }
        print(emit_json(payload))
        return 0
    print(f"coefficients: {'Z' if d == 0 else f'Z/{d}'}  (degree {degree(trs)})")
    for n in range(args.max_dim + 1):
        print(f"H_{n}: {groups[n].describe(d)}   ({counts[n]} chain(s))")
    if args.max_dim >= 2:
        print(inequalities(trs, 2, d, counts, groups).lines()[-1])
    return 0


def _cmd_inequality(args) -> int:
    trs = _load(args.file, parse_presentation)
    d = _resolve_modulus(trs, args.coeff)
    rep = inequality_report(trs, d, args.dim)
    for line in rep.lines():
        print(line)
    if not (rep.weak_holds and rep.strong_holds):
        print("internal error: a Morse inequality was violated", file=sys.stderr)
        return 1
    return 0


def _cmd_monoid(args) -> int:
    srs = _load(args.file, parse_srs)
    if args.what == "chains":
        chains = enumerate_word_chains(srs, args.max_dim)
        for dim, cells in sorted(chains.items()):
            print(f"dimension {dim}: {len(cells)} chain(s)")
            for c in cells:
                print("  (" + "; ".join(render_word(w, srs) for w in c) + ")")
        return 0
    groups = monoid_homology(srs, args.max_dim)
    for n in range(args.max_dim + 1):
        print(f"H_{n}: {groups[n].describe(0)}")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="eqhom", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="certify reducedness, confluence, termination probe")
    c.add_argument("file")
    c.add_argument("--cp-budget", type=int, default=0, metavar="N")
    c.add_argument("--term-budget", type=int, default=0, metavar="N")
    c.add_argument("--assume-terminating", action="store_true")
    c.set_defaults(func=_cmd_check)

    r = sub.add_parser("reduce", help="print an equivalent reduced system")
    r.add_argument("file")
    r.set_defaults(func=_cmd_reduce)

    ch = sub.add_parser("chains", help="enumerate chains per dimension")
    ch.add_argument("file")
    ch.add_argument("--max-dim", type=int, required=True)
    ch.add_argument("--json", action="store_true")
    ch.set_defaults(func=_cmd_chains)

    rs = sub.add_parser("resolution", help="chains with their differentials")
    rs.add_argument("file")
    rs.add_argument("--max-dim", type=int, required=True)
    rs.add_argument("--mode", choices=("symbolic", "count"), default="symbolic")
    rs.set_defaults(func=_cmd_resolution)

    h = sub.add_parser("homology", help="homology groups of the collapsed complex")
    h.add_argument("file")
    h.add_argument("--max-dim", type=int, required=True)
    h.add_argument("--coeff", default="auto")
    h.add_argument("--json", action="store_true")
    h.set_defaults(func=_cmd_homology)

    iq = sub.add_parser("inequality", help="weak and strong inequalities at a dimension")
    iq.add_argument("file")
    iq.add_argument("--dim", type=int, required=True)
    iq.add_argument("--coeff", default="auto")
    iq.set_defaults(func=_cmd_inequality)

    mo = sub.add_parser("monoid", help="string-rewriting engine")
    mo.add_argument("what", choices=("chains", "homology"))
    mo.add_argument("file")
    mo.add_argument("--max-dim", type=int, required=True)
    mo.set_defaults(func=_cmd_monoid)
    return p


_EXIT_CODES = {InputError: 1, ParseError: 1, MatchingError: 2, BudgetExceeded: 3, CoefficientError: 4}


def cli_dispatch(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; remap the latter
        return 0 if exc.code == 0 else 1
    for flag in ("max_dim", "dim", "cp_budget", "term_budget"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            print(f"error: --{flag.replace('_', '-')} must be at least 0, got {value}",
                  file=sys.stderr)
            return 1
    try:
        return args.func(args)
    except CompletenessError as exc:
        message, code = exc, _certification_code(exc.report)
    except RecursionError:
        message, code = "recursion limit exceeded: a term is nested too deeply", 3
    except tuple(_EXIT_CODES) as exc:
        message, code = exc, next(c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls))
    print(f"error: {message}", file=sys.stderr)
    return code


def main() -> None:
    try:
        code = cli_dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; send what is left, and the flush at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed before all output was written", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
