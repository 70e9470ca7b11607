from __future__ import annotations

import os
import random
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from eqhom.collapse import MatchingError, assemble_matrices, classify
from eqhom.monoid import word_morse_differential
from eqhom.parser import parse_presentation, parse_srs
from eqhom.rewrite import Rule, Trs, check_complete
from eqhom.terms import App, Signature, Var, essential_from_terms, subterms

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


GENERATED_SIGNATURE = Signature(("X",), (("m", ("X", "X"), "X"), ("i", ("X",), "X"),
                                         ("e", (), "X")))
_LEAVES = (Var("x", "X"), Var("y", "X"), Var("z", "X"), GENERATED_SIGNATURE.app("e"))


def _random_application(rng, depth):
    """``m`` or ``i`` of random arguments, at most ``depth`` applications deep."""
    op = rng.choice(("m", "i"))
    return GENERATED_SIGNATURE.app(op, *(
        _random_application(rng, depth - 1) if depth > 1 and rng.random() < 0.7
        else rng.choice(_LEAVES) for _ in GENERATED_SIGNATURE.arg_sorts(op)))


def _size(t):
    return sum(1 for _ in subterms(t))


def _random_rule(rng, name):
    """A left side at most three applications deep, and a right side that
    uses each variable occurrence of the left side once, joined by ``m`` in
    a random order and shape, perhaps under ``i``; None unless it is
    strictly smaller than the left side."""
    lhs = _random_application(rng, 3)
    items = [u for _, u in subterms(lhs) if isinstance(u, Var)] or [GENERATED_SIGNATURE.app("e")]
    rng.shuffle(items)
    while len(items) > 1:
        pair = GENERATED_SIGNATURE.app("m", items.pop(), items.pop())
        items.insert(rng.randrange(len(items) + 1), pair)
    rhs = items[0] if rng.random() < 0.7 else GENERATED_SIGNATURE.app("i", items[0])
    return Rule(name, lhs, rhs) if _size(rhs) < _size(lhs) else None


@lru_cache(maxsize=None)
def generated_systems(count=500 if os.environ.get("EQHOM_SLOW") == "1" else 50, seed=0):
    """The first ``count`` complete systems of one to three random rules over
    ``m : X X -> X``, ``i : X -> X`` and ``e : -> X`` that ``check_complete``
    certifies, distinct up to the names of their variables.  Each rule keeps
    the count of every variable and shrinks the term, so each system
    terminates and has degree 0: its homology is over Z, and any prime is a
    modulus."""
    rng, seen, kept = random.Random(seed), set(), []
    while len(kept) < count:
        rules = tuple(_random_rule(rng, f"r{k}") for k in range(1, rng.randint(1, 3) + 1))
        if any(rule is None for rule in rules):
            continue
        key = tuple(essential_from_terms((rule.lhs, rule.rhs)) for rule in rules)
        if key not in seen:
            seen.add(key)
            trs = Trs(GENERATED_SIGNATURE, rules)
            if check_complete(trs).certified:
                kept.append(trs)
    return tuple(kept)


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
