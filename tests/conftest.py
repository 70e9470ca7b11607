from __future__ import annotations

from pathlib import Path

import pytest

from eqhom.collapse import MatchingError, classify
from eqhom.parser import parse_presentation, parse_srs

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
