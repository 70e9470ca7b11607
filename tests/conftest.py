from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from eqhom.collapse import MatchingError, assemble_matrices, classify
from eqhom.monoid import word_morse_differential
from eqhom.parser import parse_presentation, parse_srs
from eqhom.rewrite import Rule, Trs
from eqhom.terms import App, Signature, Var

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def ab_trs():
    return parse_presentation((DATA / "abelian_unit.lwv").read_text())


@pytest.fixture(scope="session")
def group_trs():
    return parse_presentation((DATA / "group.lwv").read_text())


@pytest.fixture(scope="session")
def unreduced_trs():
    return parse_presentation((DATA / "unreduced.lwv").read_text())


@pytest.fixture(scope="session")
def z2_srs():
    return parse_srs((DATA / "z2.srs").read_text())


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def s3_srs():
    return parse_srs((DATA / "s3.srs").read_text())


def as_unary_trs(srs):
    """The string system as a term system: letter ``a`` is ``a : X -> X``
    and a word is its letters applied to ``x``, leftmost outermost."""

    def term(w):
        return "".join(f"{c}(" for c in w) + "x" + ")" * len(w)

    lines = ["sorts X"] + [f"op {c} : X -> X" for c in srs.alphabet] + ["var x : X"]
    lines += [f"rule {r.name} : {term(r.lhs)} -> {term(r.rhs)}" for r in srs.rules]
    return parse_presentation("\n".join(lines) + "\n")


def _mirror_term(t):
    if isinstance(t, Var):
        return t
    return App(t.op, tuple(_mirror_term(a) for a in reversed(t.args)), t.sort)


def mirror(trs):
    """The system with the arguments of every operation reversed, in its
    declaration and in every rule: an isomorphic theory."""
    sig = trs.signature
    ops = tuple((name, tuple(reversed(args)), result) for name, args, result in sig.ops)
    rules = tuple(Rule(r.name, _mirror_term(r.lhs), _mirror_term(r.rhs)) for r in trs.rules)
    return Trs(Signature(sig.sorts, ops), rules)


def routed_word_matrices(srs, chains, max_dim):
    """The word engine's counting matrices by routing the bar cells of
    ``srs`` (``word_morse_differential``): the oracle of the lift that
    ``word_boundary_matrices`` computes, filling the ``express_count`` memo."""
    return assemble_matrices(lambda cell: word_morse_differential(cell, srs), chains, max_dim)


_FLIP = {"redundant": "collapsible", "collapsible": "redundant"}


def verify_matching(cells, cx):
    """Check the matching on ``cells`` through the adapter ``cx``: each
    classifies (``eqhom.collapse.classify``), and each matched cell's
    partner has the other kind, points back and has the same sign.
    Raises ``MatchingError`` on the first failure."""
    for cell in cells:
        cls = classify(cell, cx)
        if cls.kind == "critical":
            continue
        back = classify(cls.partner, cx)
        if (back.kind, back.partner, back.epsilon) != (_FLIP[cls.kind], cell, cls.epsilon):
            raise MatchingError(
                f"{cls.kind} cell {cell!r} and its partner {cls.partner!r} "
                f"are not matched to each other: {back!r}")


def signed_monomial_count(a, d):
    """Image of a ringoid element under the counting module: every
    monomial maps to 1, reduced modulo ``d`` (exact integer when ``d`` is 0)."""
    total = sum(a.values())
    return total % d if d else total


def tail_counts(a):
    """The signed monomial count of each tail with a nonzero count."""
    out = Counter()
    for m, c in a.items():
        out[m.tail] += c
    return {tail: c for tail, c in out.items() if c}


def vanishes(a, d):
    """Zero as far as the counting module can see: the signed monomial
    count of every tail component is 0 modulo ``d``."""
    return all((c % d if d else c) == 0 for c in tail_counts(a).values())
