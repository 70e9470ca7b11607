"""The term engine's complex: the normalized boundary of a cell, and the
split partner that defines its matching.  The collapse itself
(classification, routing, the collapsed differential) is
``eqhom.collapse``; this module adapts the term complex to it.

The boundary of a cell is a signed sum of faces: face 0 differentiates
the head entry (one summand per component of the second entry, with a
derivative coefficient), the middle faces compose adjacent entries and
re-normalize, and the last face drops the tail entry and emits its
restriction as a coefficient.  Faces that are not valid cells are
repaired: a face containing a variable-selection entry dies, and
otherwise the leftmost non-canonical entry is factored into its
essential part, pushing the leftover selection rightward until it either
dies, is absorbed, or falls off the end as a restriction coefficient.

A non-chain cell splits at the entry after its chain prefix, along the
maximal redex of the composite through that entry; this split alone
defines the matching, whose collapsible cells are those with a face
that splits back to them.

Two coefficient modes are supported: ``"symbolic"`` tracks ringoid
elements, ``"count"`` tracks their signed monomial counts (the tensoring
used for homology matrices).
"""

from __future__ import annotations

from typing import Union

from . import collapse
from .chains import (
    Cell,
    chain_prefix_length,
    composite,
    is_chain,
    max_redex,
    mgu_extension,
    valid_entry,
)
from .coeff import (
    RingoidElement,
    expand_derivative,
    identity_element,
    multiply,
    star,
)
from .collapse import DEFAULT_ROUTE_BUDGET, CellClass, MatchingError, add_term
from .rewrite import Trs, normal_form_morphism, op_morphism
from .terms import (
    App,
    Context,
    Morphism,
    TermError,
    Var,
    canonical_name,
    canonicalize,
    compose_chain,
    compose_raw,
    identity,
    is_canonical,
    is_identity,
    is_partial_permutation,
    projection,
    subterm_at,
    var_count,
)
from .unify import match_tuple

Coeff = Union[int, RingoidElement]
Boundary = dict[Cell, Coeff]


def cell_domain(cell: Cell) -> Context:
    if cell.entries:
        return cell.entries[-1].context
    return ((canonical_name(1), cell.sort),)


def _merge(a: Morphism, b: Morphism, trs: Trs) -> Morphism:
    """Normal form of the composite of adjacent entries ``a`` and ``b``,
    memoised per pair in ``trs.cache("merge")``."""
    return trs.memo("merge", (a, b), lambda: normal_form_morphism(compose_raw(a, b), trs))


def _factor(m: Morphism, trs: Trs) -> tuple[Morphism, Morphism]:
    """``m`` as (essential part, selection morphism), memoised per
    morphism in ``trs.cache("factor")``."""
    def factor():
        ess, pp = canonicalize(m.context, m.terms)
        return ess, pp.as_morphism()
    return trs.memo("factor", m, factor)


def _phi(entries: tuple[Morphism, ...], k: int,
         trs: Trs) -> tuple[tuple[Morphism, ...], Morphism | None] | None:
    """Repair a face tuple into a cell, or kill it.

    Only entry ``k`` may be invalid; the others come from a cell.  The
    repair factors it into its essential part and pushes the leftover
    selection into the next entry, which becomes the suspect in turn.
    Returns (cell entries, leftover selection morphism or None); None
    altogether when an entry is a selection of variables (identities
    included), which makes the face vanish.
    """
    work = list(entries)
    while True:
        if is_partial_permutation(work[k]):
            return None
        if is_canonical(work[k]):
            return tuple(work), None
        ess, pi = _factor(work[k], trs)
        if is_partial_permutation(ess):
            return None
        work[k] = ess
        if k + 1 == len(work):
            return tuple(work), pi
        work[k + 1] = compose_raw(pi, work[k + 1])
        k += 1


def _component(m: Morphism, i: int) -> Morphism:
    """The ``i``-th component (1-based) over the full context."""
    return Morphism(m.context, (m.terms[i - 1],))


def normalized_boundary(cell: Cell, trs: Trs, mode: str = "count") -> Boundary:
    """Signed boundary of a cell over cells one dimension down."""
    cache = trs.cache("boundary_" + mode)
    hit = cache.get(cell)
    if hit is not None:
        return dict(hit)
    out = _normalized_boundary(cell, trs, mode)
    cache[cell] = dict(out)
    return out


def _normalized_boundary(cell: Cell, trs: Trs, mode: str) -> Boundary:
    n = cell.dim
    if n < 1:
        raise ValueError("boundary needs dimension at least 1")
    entries = cell.entries
    acc: Boundary = {}

    if n == 1:
        head = entries[0]
        for i, (name, sort) in enumerate(head.context, 1):
            target = Cell(sort, ())
            if mode == "count":
                coeff: Coeff = var_count(head.term, name)
            else:
                coeff = multiply(
                    expand_derivative(i, head, identity(head.context), trs),
                    star(projection(head.context, i), trs),
                    trs,
                )
            add_term(acc, target, coeff)
        codomain = Cell(cell.sort, ())
        if mode == "count":
            add_term(acc, codomain, -1)
        else:
            add_term(acc, codomain, star(head, trs).scale(-1))
        return acc

    head, second = entries[0], entries[1]
    rest = compose_chain(entries[2:]) if n > 2 else None

    # face 0: differentiate the head across the second entry's components;
    # these faces live over the component's sort, not the cell's
    for i in range(1, len(second.terms) + 1):
        face = (_component(second, i),) + entries[2:]
        repaired = _phi(face, 0, trs)
        if repaired is None:
            continue
        new_entries, leftover = repaired
        if mode == "count":
            coeff = var_count(head.term, head.context[i - 1][0])
        else:
            subscript = compose_raw(second, rest) if rest is not None else second
            coeff = expand_derivative(i, head, subscript, trs)
            if leftover is not None:
                coeff = multiply(coeff, star(leftover, trs), trs)
        add_term(acc, Cell(second.terms[i - 1].sort, new_entries), coeff)

    # middle faces: compose adjacent entries and re-normalize
    for j in range(1, n):
        merged = _merge(entries[j - 1], entries[j], trs)
        face = entries[: j - 1] + (merged,) + entries[j + 1 :]
        repaired = _phi(face, j - 1, trs)
        if repaired is None:
            continue
        new_entries, leftover = repaired
        sign = -1 if j % 2 else 1
        if mode == "count":
            coeff = sign
        else:
            coeff = identity_element(cell_domain(cell)).scale(sign)
            if leftover is not None:
                coeff = multiply(coeff, star(leftover, trs), trs)
        add_term(acc, Cell(cell.sort, new_entries), coeff)

    # last face: drop the tail entry, emit its restriction
    sign = -1 if n % 2 else 1
    target = Cell(cell.sort, entries[: n - 1])
    if mode == "count":
        coeff = sign
    else:
        coeff = star(entries[n - 1], trs).scale(sign)
    add_term(acc, target, coeff)
    return acc


def _try_split(cell: Cell, trs: Trs) -> Cell | None:
    """The partner one dimension up, when the cell is a matched target."""
    if is_chain(cell, trs):
        return None
    entries = cell.entries
    L = chain_prefix_length(cell, trs)
    if L == 1:
        head = entries[0]
        term = head.term
        assert isinstance(term, App) and term.args, "cell head must split"
        f = op_morphism(trs.signature, term.op)
        args = Morphism(head.context, term.args)
        assert is_canonical(args) and not is_partial_permutation(args)
        return Cell(cell.sort, (f, args) + entries[1:])
    T = composite(cell, trs, L - 1)
    tL = entries[L - 1]
    top = max_redex(compose_raw(T, tL).term, trs)
    if top is None:
        return None
    p, rank = top
    try:
        sub = subterm_at(T.term, p)
    except TermError:
        return None
    if isinstance(sub, Var):
        return None
    u = mgu_extension(T, p, trs.rules[rank], trs)
    if u is None or not valid_entry(u, trs):
        return None
    binding = match_tuple(u.terms, tL.terms)
    if binding is None:
        return None
    w = Morphism(tL.context, tuple(binding[name] for name, _ in u.context))
    if is_partial_permutation(w):
        return None
    assert is_canonical(w), "split remainder should be canonical"
    return Cell(cell.sort, entries[: L - 1] + (u, w) + entries[L:])


class _Terms:
    """The term complex of ``trs`` as ``eqhom.collapse`` sees it.  The
    kernels are looked up as module globals at call time."""

    def __init__(self, trs: Trs):
        self.system = trs

    def is_chain(self, cell: Cell) -> bool:
        return is_chain(cell, self.system)

    def split(self, cell: Cell) -> Cell | None:
        return _try_split(cell, self.system)

    def boundary(self, cell: Cell, mode: str) -> Boundary:
        return normalized_boundary(cell, self.system, mode)

    def one(self, cell: Cell, mode: str) -> Coeff:
        return 1 if mode == "count" else identity_element(cell_domain(cell))

    def mul(self, a: Coeff, b: Coeff, mode: str) -> Coeff:
        return a * b if mode == "count" else multiply(a, b, self.system)

    def sign(self, coeff: RingoidElement) -> int:
        if len(coeff.terms) == 1:
            mono, c = coeff.terms[0]
            if not mono.factors and is_identity(mono.tail) and c in (1, -1):
                return c
        raise MatchingError(f"matched coefficient {coeff!r} is not a unit")


def classify(cell: Cell, trs: Trs) -> CellClass:
    """Critical, redundant-with-partner or collapsible-with-partner.

    The matched sign is read off the partner's boundary; it must be +1 or
    -1, and no cell may qualify both ways.
    """
    return collapse.classify(cell, _Terms(trs))


def morse_differential(cell: Cell, trs: Trs, mode: str = "count",
                       budget: int = DEFAULT_ROUTE_BUDGET) -> Boundary:
    """Differential of a critical cell in the collapsed complex."""
    return collapse.morse_differential(cell, _Terms(trs), mode, budget)
