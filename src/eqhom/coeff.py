"""Arithmetic in the presented coefficient ringoid.

Coefficients of the collapsed resolution are integer combinations of
monomials, ``RingoidElement``s: ``{monomial: nonzero int}``, put in a
canonical order only to be printed.  A monomial is a composable list of
generator derivatives, written left to right with the rightmost factor
acting first::

    d_{i1}(f1)_{s1} ... d_{ik}(fk)_{sk} a*

Each factor carries an operation symbol ``f``, an argument index ``i``
and a subscript morphism ``s``; the tail ``a*`` restricts along a
morphism ``a`` and is kept rightmost as the normal form.  Multiplying
pushes the left factor's tail through the right factor's derivatives by
composing it into their subscripts, and composes the tails.  Subscripts
and tails are stored in normal form over the context ``x1..xn`` of their
domain sorts, so equality of monomials is structural.  The two
constructors (``star``, whose image of an identity is the unit, and
``expand_derivative`` on its subscript) take morphisms already over such
contexts and rename nothing; ``star`` takes a normal form.  ``multiply``
composes onto such a tail in ``rewrite.normal_form_morphism``.

``expand_derivative`` rewrites the derivative of a composite term into
the sum of one monomial per occurrence of the chosen context variable
(the defining recursion of the presented ringoid).  It composes the head
with the subscript once; a node's factor subscript is its arguments in
that composite, normalised.  Deciding equality modulo the presentation's
relations is out of scope: element equality is syntactic.  Counting each
monomial as 1, modulo the system's degree, is zero on the relation ideal;
the count mode of ``eqhom.morse`` computes that image directly.
"""

from __future__ import annotations

from collections.abc import Iterable

from .rewrite import Trs, normal_form, normal_form_morphism
from .terms import (
    Frozen,
    Morphism,
    Term,
    Var,
    compose_raw,
    identity,
    is_identity,
    render_morphism,
)

Factor = tuple[str, int, Morphism]


class Monomial(Frozen):
    __slots__ = ("factors", "tail", "_hash")
    _fields = __slots__[:2]

    def __init__(self, factors: tuple[Factor, ...], tail: Morphism):
        self._assign(factors, tail, hash((factors, tail)))

    def __repr__(self):
        return render_monomial(self)


def _mono_key(m: Monomial) -> tuple:
    return (
        tuple((op, idx, repr(sub)) for op, idx, sub in m.factors),
        repr(m.tail),
    )


class RingoidElement(dict):
    """Integer combination of monomials, ``{monomial: nonzero int}``; never
    mutated once built."""

    __slots__ = ()

    @classmethod
    def collect(cls, pairs: Iterable[tuple[Monomial, int]]) -> "RingoidElement":
        """The sum of ``pairs``, duplicates merged and zeros dropped."""
        out: dict = {}
        for m, k in pairs:
            out[m] = out.get(m, 0) + k
        return cls({m: k for m, k in out.items() if k})

    def __add__(self, other: dict) -> "RingoidElement":
        return self.collect((*self.items(), *other.items()))

    def __mul__(self, k: int) -> "RingoidElement":
        return RingoidElement({m: c * k for m, c in self.items()} if k else ())

    @property
    def terms(self) -> tuple[tuple[Monomial, int], ...]:
        """The (monomial, coefficient) pairs in canonical order."""
        return tuple(sorted(self.items(), key=lambda mc: _mono_key(mc[0])))

    def __repr__(self):
        bits = []
        for m, c in self.terms:
            sign = "-" if c < 0 else ("+" if bits else "")
            mag = "" if abs(c) == 1 else f"{abs(c)}·"
            bits.append(f"{sign}{mag}{render_monomial(m)}")
        return "".join(bits) or "0"


def star(alpha: Morphism) -> RingoidElement:
    """The restriction generator along ``alpha`` as an element."""
    return RingoidElement({Monomial((), alpha): 1})


def expand_derivative(i: int, tm: Morphism, subscript: Morphism, trs: Trs) -> RingoidElement:
    """Derivative of a term by its ``i``-th context variable (1-based),
    restricted along ``subscript``, expanded into generator monomials.

    The expansion has exactly one monomial per occurrence of the chosen
    variable in the term.
    """
    target = tm.context[i - 1][0]
    tail = identity(subscript.context)
    composite = compose_raw(tm, subscript).term

    def rec(t: Term, c: Term) -> list[tuple[Factor, ...]]:
        if isinstance(t, Var):
            return [()] if t.name == target else []
        sub = Morphism.derived(tail.context, tuple(normal_form(a, trs) for a in c.args))
        return [((t.op, j, sub),) + rest
                for j, (arg, c_arg) in enumerate(zip(t.args, c.args), 1) for rest in rec(arg, c_arg)]

    return RingoidElement.collect((Monomial(factors, tail), 1) for factors in rec(tm.term, composite))


def multiply(a: RingoidElement, b: RingoidElement, trs: Trs) -> RingoidElement:
    """Bilinear product; ``b`` acts first.

    Factor lists concatenate (``a``'s leftmost); ``a``'s tail is pushed
    through ``b``'s factors by composing it into their subscripts, and
    the tails compose in the theory.
    """
    def product(ma: Monomial, mb: Monomial) -> Monomial:
        moved = tuple((op, idx, normal_form_morphism((sub, ma.tail), trs))
                      for op, idx, sub in mb.factors)
        return Monomial(ma.factors + moved, normal_form_morphism((mb.tail, ma.tail), trs))

    return RingoidElement.collect((product(ma, mb), ca * cb)
                                  for ma, ca in a.items() for mb, cb in b.items())


def render_monomial(m: Monomial) -> str:
    bits = [f"∂{idx}({op})_{render_morphism(sub)}" for op, idx, sub in m.factors]
    if not is_identity(m.tail):
        bits.append(f"{render_morphism(m.tail)}*")
    return "".join(bits) if bits else "1"
