"""Line-oriented presentation formats.

``.lwv`` files declare a term rewriting presentation::

    # comment
    sorts X Y
    op plus : X X -> X
    op zero : -> X
    var x : X
    rule r1 : plus(x, zero) -> x
    order r1 r2          # optional, overrides file order
    budget steps 10000   # optional; order and each budget at most once
    budget join 1000     # optional

Terms use prefix syntax ``f(t1,...,tn)``; constants are written bare.
A term is read on an explicit stack of open applications, so any depth
parses.
``.srs`` files declare a string rewriting presentation; each letter name
is coded as one character, in sorted order (the ``Srs`` keeps the names)::

    letters a b
    rule s1 : a a ->     # words are space-separated, empty right side = ε

Both formats share one directive reader: it cuts a ``#`` comment, skips
blank lines, splits off the head word and refuses an unknown directive.
Errors carry a kind tag, the line number and, in a term, the 1-based
column of the offending token in the source line (0 elsewhere).
"""

from __future__ import annotations

import re

from .monoid import Srs, SrsRule
from .rewrite import Rule, Trs, DEFAULT_JOIN_BUDGET, DEFAULT_STEP_BUDGET
from .terms import Signature, Term, TermError, Var, render_term, variables

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_WS = re.compile(r"\s*")


class ParseError(Exception):
    def __init__(self, kind: str, message: str, line: int, column: int = 0):
        super().__init__(f"{kind} at line {line}:{column}: {message}")
        self.kind = kind
        self.line = line
        self.column = column


def _read_term(text: str, pos: int, line: int, sig: Signature, vars_: dict[str, str]) -> Term:
    """Read ``text[pos:]`` as one term on an explicit stack of open
    applications, each a name, its column and the arguments read so far,
    above a bottom entry that receives the whole term.  An error carries
    the column in ``text`` of its token."""
    def error(kind: str, message: str, at: int):
        raise ParseError(kind, message, line, at + 1)

    stack: list[tuple[str, int, list[Term]]] = [("", 0, [])]
    while True:
        pos = _WS.match(text, pos).end()
        m = IDENT.match(text, pos)
        if not m:
            error("syntax-error", f"expected identifier, found {text[pos:pos+8]!r}", pos)
        name, at, pos = m.group(), pos, _WS.match(text, m.end()).end()
        if text.startswith("(", pos):
            if not sig.is_op(name):
                error("undeclared-name", f"unknown operation {name!r}", at)
            stack.append((name, at, []))
            pos = _WS.match(text, pos + 1).end()
            if not text.startswith(")", pos):
                continue
        elif name in vars_:
            stack[-1][2].append(Var(name, vars_[name]))
        elif sig.is_op(name):
            if sig.arg_sorts(name):
                error("sort-error", f"operation {name!r} needs arguments", at)
            stack[-1][2].append(sig.app(name))
        else:
            error("undeclared-name", f"unknown name {name!r}", at)
        while True:  # a term has ended: close the applications that end with it
            pos = _WS.match(text, pos).end()
            if len(stack) == 1:
                if pos != len(text):
                    error("syntax-error", f"trailing input {text[pos:]!r}", pos)
                return stack[0][2][0]
            if text.startswith(",", pos):
                pos += 1
                break
            if not text.startswith(")", pos):
                error("syntax-error", "expected ')'", pos)
            name, at, args = stack.pop()
            try:
                stack[-1][2].append(sig.app(name, *args))
            except TermError as exc:
                error("sort-error", str(exc), at)
            pos += 1


def _declare(seen: dict[str, int], name: str, lineno: int, what: str) -> None:
    """Record ``name`` as declared at ``lineno``, refusing a second declaration."""
    if name in seen:
        raise ParseError("duplicate-name",
                         f"{what} {name!r} already declared at line {seen[name]}", lineno)
    seen[name] = lineno


def _directives(text: str, heads: tuple[str, ...]):
    """Each nonblank line of ``text`` as ``(lineno, head, rest, line)``, with
    ``line`` cut at ``#`` and right-stripped (its columns are the source's);
    a ``head`` not in ``heads`` is refused."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].rstrip()
        head, _, rest = line.lstrip().partition(" ")
        if not head:
            continue
        if head not in heads:
            raise ParseError("syntax-error", f"unknown directive {head!r}", lineno)
        yield lineno, head, rest.strip(), line


def parse_presentation(text: str) -> Trs:
    """Parse a ``.lwv`` presentation into a rewrite system."""
    sorts: dict[str, int] = {}  # each name with the line declaring it
    ops: list[tuple[str, tuple[str, ...], str]] = []
    vars_: dict[str, str] = {}
    symbols: dict[str, int] = {}  # operations and variables share one namespace in terms
    rule_specs: list[tuple[str, str, int, int]] = []  # name, cut line, body start, line
    rule_lines: dict[str, int] = {}
    order: list[str] | None = None
    once: dict[str, int] = {}  # "order", "budget steps" and "budget join", each with its line
    budgets = {"steps": DEFAULT_STEP_BUDGET, "join": DEFAULT_JOIN_BUDGET}

    for lineno, head, rest, line in _directives(
            text, ("sorts", "op", "var", "rule", "order", "budget")):
        if head == "sorts":
            names = rest.split()
            if not names:
                raise ParseError("syntax-error", "sorts needs at least one name", lineno)
            for name in names:
                if not re.fullmatch(r"\w+", name):  # op and var lines read only \w+ sorts
                    raise ParseError("syntax-error", f"sort {name!r} is not a word", lineno)
                _declare(sorts, name, lineno, "sort")
        elif head == "op":
            m = re.fullmatch(rf"({IDENT.pattern})\s*:\s*([\w\s]*)->\s*(\w+)", rest)
            if not m:
                raise ParseError("syntax-error", f"bad op declaration {rest!r}", lineno)
            name, arg_str, result = m.group(1), m.group(2), m.group(3)
            if re.fullmatch(r"x[1-9][0-9]*", name):  # printed terms name their variables so
                raise ParseError("syntax-error", f"operation {name!r} reads as a variable", lineno)
            args = tuple(arg_str.split())
            for s in (*args, result):
                if s not in sorts:
                    raise ParseError("undeclared-name", f"sort {s!r} not declared", lineno)
            _declare(symbols, name, lineno, "operation")
            ops.append((name, args, result))
        elif head == "var":
            m = re.fullmatch(rf"({IDENT.pattern}(?:\s+{IDENT.pattern})*)\s*:\s*(\w+)", rest)
            if not m:
                raise ParseError("syntax-error", f"bad var declaration {rest!r}", lineno)
            names, sort = m.group(1).split(), m.group(2)
            if sort not in sorts:
                raise ParseError("undeclared-name", f"sort {sort!r} not declared", lineno)
            for n in names:
                _declare(symbols, n, lineno, "variable")
                vars_[n] = sort
        elif head == "rule":
            m = re.fullmatch(r"(\w+)\s*:\s*(.+)", rest)
            if not m:
                raise ParseError("syntax-error", f"bad rule {rest!r}", lineno)
            _declare(rule_lines, m.group(1), lineno, "rule")
            rule_specs.append((m.group(1), line, len(line) - len(m.group(2)), lineno))
        elif head == "order":
            _declare(once, head, lineno, "directive")
            order = rest.split()
        elif head == "budget":
            m = re.fullmatch(r"(steps|join)\s+(\d+)", rest)
            if not m:
                raise ParseError("syntax-error", f"bad budget {rest!r}", lineno)
            _declare(once, f"budget {m.group(1)}", lineno, "directive")
            budgets[m.group(1)] = int(m.group(2))

    sig = Signature(tuple(sorts), tuple(ops))

    rules = []
    for name, line, start, lineno in rule_specs:
        arrow = line.find("->", start)
        if arrow < 0:
            raise ParseError("syntax-error", "rule needs ->", lineno)
        lhs = _read_term(line[:arrow], start, lineno, sig, vars_)
        rhs = _read_term(line, arrow + 2, lineno, sig, vars_)
        if isinstance(lhs, Var):
            raise ParseError("variable-on-lhs-root", f"rule {name}: left side is a variable", lineno)
        if lhs.sort != rhs.sort:
            raise ParseError("sort-error", f"rule {name}: sides of different sorts", lineno)
        lhs_vars = {v.name for v in variables(lhs)}
        for v in variables(rhs):
            if v.name not in lhs_vars:
                raise ParseError(
                    "rhs-variable-not-in-lhs",
                    f"rule {name}: variable {v.name!r} only on the right", lineno)
        rules.append(Rule(name, lhs, rhs))

    if order is not None:
        by_name = {r.name: r for r in rules}
        unknown = [n for n in order if n not in by_name]
        if unknown:
            raise ParseError("undeclared-name", f"order names unknown rules {unknown}",
                             once["order"])
        if len(order) != len(rules) or len(set(order)) != len(order):
            raise ParseError("syntax-error", "order must list every rule once", once["order"])
        rules = [by_name[n] for n in order]

    return Trs(sig, tuple(rules), budgets["steps"], budgets["join"])


def print_presentation(trs: Trs) -> str:
    """Render a system back into ``.lwv`` text (round-trips structurally)."""
    sig = trs.signature
    # the parser refuses a sorts line without names
    lines = ["sorts " + " ".join(sig.sorts)] if sig.sorts else []
    for name, args, result in sig.ops:
        arg_str = (" ".join(args) + " ") if args else ""
        lines.append(f"op {name} : {arg_str}-> {result}")
    seen: dict[str, str] = {}
    for rule in trs.rules:
        for v in variables(rule.lhs):
            if v.name not in seen:
                seen[v.name] = v.sort
    for name, sort in seen.items():
        lines.append(f"var {name} : {sort}")
    for rule in trs.rules:
        lines.append(f"rule {rule.name} : {render_term(rule.lhs)} -> {render_term(rule.rhs)}")
    if trs.step_budget != DEFAULT_STEP_BUDGET:
        lines.append(f"budget steps {trs.step_budget}")
    if trs.join_budget != DEFAULT_JOIN_BUDGET:
        lines.append(f"budget join {trs.join_budget}")
    return "".join(line + "\n" for line in lines)


def parse_srs(text: str) -> Srs:
    """Parse a ``.srs`` string rewriting presentation."""
    letters: dict[str, int] = {}  # each name with the line declaring it
    rule_lines: dict[str, int] = {}
    rules: list[tuple[str, list[str], list[str]]] = []
    for lineno, head, rest, _ in _directives(text, ("letters", "rule")):
        if head == "letters":
            names = rest.split()
            if not names:
                raise ParseError("syntax-error", "letters needs at least one name", lineno)
            for letter in names:
                if "->" in letter:  # a rule's first -> would cut it
                    raise ParseError("syntax-error", f"letter {letter!r} holds ->", lineno)
                _declare(letters, letter, lineno, "letter")
        elif head == "rule":
            m = re.fullmatch(r"(\w+)\s*:\s*(.*)", rest)
            if not m:
                raise ParseError("syntax-error", f"bad rule {rest!r}", lineno)
            name, body = m.group(1), m.group(2)
            _declare(rule_lines, name, lineno, "rule")
            arrow = body.find("->")
            if arrow < 0:
                raise ParseError("syntax-error", "rule needs ->", lineno)
            lhs, rhs = body[:arrow].split(), body[arrow + 2 :].split()
            for c in lhs + rhs:
                if c not in letters:
                    raise ParseError("undeclared-name", f"letter {c!r} not declared", lineno)
            if not lhs:
                raise ParseError("syntax-error", f"rule {name}: empty left side", lineno)
            rules.append((name, lhs, rhs))
    code = {name: chr(ord("a") + i) for i, name in enumerate(sorted(letters))}
    word = lambda names: "".join(code[c] for c in names)
    return Srs(tuple(word(letters)), tuple(SrsRule(n, word(l), word(r)) for n, l, r in rules),
               names={c: name for name, c in code.items()})
