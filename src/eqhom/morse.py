"""The term engine's complex: the normalized boundary of a cell, adapted
with the matching of ``eqhom.chains``.  The collapse itself
(classification, routing, the collapsed differential) is
``eqhom.collapse``; this module adapts the term complex to it.

The boundary of a cell is a signed sum of faces: face 0 differentiates
the head entry (one summand per component of the second entry, or per
variable of a lone head, with a derivative coefficient), the middle
faces compose adjacent entries and re-normalize in the kernel the ringoid
shares (``rewrite.normal_form_morphism``), and the last face drops the
tail entry and emits its restriction as a coefficient.  Faces that are
not valid cells are repaired: a face containing a variable-selection entry dies, and
otherwise the leftmost non-canonical entry is factored into its
essential part, pushing the leftover selection rightward until it either
dies, is absorbed, or falls off the end as a restriction coefficient.

The matching lives in ``eqhom.chains``: a non-chain cell splits at the
entry after its chain prefix, along the maximal redex of the composite
through that entry, and the adapter's ``match`` is ``chains.match``.
This split alone defines the matching, whose collapsible cells are those
with a face that splits back to them.

Coefficients come from a ring (``eqhom.collapse``) with two face hooks,
so the boundary has one code path: mode ``"symbolic"`` is the presented
ringoid, where ``derivatives`` expands ∂_i(head) along the rest of the
cell and ``element`` is the restriction α*; mode ``"count"`` counts each
monomial 1, so ∂_i(head) counts the occurrences of x_i.  ``ring_of``
maps a mode to its shared ring and refuses any other string.  Entries,
leftovers and composites are normal forms over ``x1..xn``, so the
ringoid renames none of them.
"""

from __future__ import annotations

from . import collapse
from .chains import Cell, match
from .coeff import (
    RingoidElement,
    expand_derivative,
    multiply,
    star,
)
from .collapse import DEFAULT_ROUTE_BUDGET, CellClass, MatchingError, add_term
from .rewrite import Trs, memoised, normal_form_morphism
from .terms import (
    Morphism,
    Var,
    canonical_context,
    canonicalize,
    compose_chain,
    compose_raw,
    identity,
    is_canonical,
    is_identity,
    is_partial_permutation,
    var_count,
)

Coeff = int | RingoidElement
Boundary = dict[Cell, Coeff]


@memoised("factor")
def _factor(m: Morphism, trs: Trs) -> tuple[Morphism, Morphism]:
    """``m`` as (essential part, selection morphism), memoised per morphism."""
    return canonicalize(m.context, m.terms)


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
        work[k], pi = _factor(work[k], trs)  # renamed injectively: no selection either
        if k + 1 == len(work):
            return tuple(work), pi
        work[k + 1] = compose_raw(pi, work[k + 1])
        k += 1


def normalized_boundary(cell: Cell, trs: Trs, mode: str = "count") -> Boundary:
    """Signed boundary of a cell over cells one dimension down."""
    ring = ring_of(mode)
    n = cell.dim
    if n < 1:
        raise ValueError("boundary needs dimension at least 1")
    entries = cell.entries
    head, tail = entries[0], entries[1:]
    acc: Boundary = {}

    def add(face: Cell, coeff: Coeff, leftover: Morphism | None) -> None:
        if leftover is not None:
            coeff = ring.mul(coeff, ring.element(leftover, trs), trs)
        add_term(acc, face, coeff)

    # face 0: differentiate the head across the next entry's components
    # (its variables, as 0-cells, at n = 1); these faces live over the
    # component's sort, not the cell's.  The derivatives are set up at the
    # first face that survives the repair, so a cell whose face-0 summands
    # all die composes no subscript.
    derivative = None
    for i, (_, sort) in enumerate(head.context, 1):
        if tail:
            component = Morphism.derived(tail[0].context, (tail[0].terms[i - 1],))
            repaired = _phi((component,) + tail[1:], 0, trs)
        else:
            repaired = (), Morphism.derived(head.context, (Var(*head.context[i - 1]),))
        if repaired is not None:
            derivative = derivative or ring.derivatives(head, tail, trs)
            add(Cell(sort, repaired[0]), derivative(i), repaired[1])

    # middle faces: compose adjacent entries and re-normalize
    one = None
    for j in range(1, n):
        merged = normal_form_morphism(entries[j - 1:j + 1], trs)
        repaired = _phi(entries[: j - 1] + (merged,) + entries[j + 1 :], j - 1, trs)
        if repaired is not None:
            one = one or ring.one(cell)
            add(Cell(cell.sort, repaired[0]), one * (-1) ** j, repaired[1])

    # last face: drop the tail entry, emit its restriction
    add_term(acc, Cell(cell.sort, entries[:-1]), ring.element(entries[-1], trs) * (-1) ** n)
    return acc


class _Counts(collapse.Integers):
    """Counting coefficients of the term complex: ∂_i(f) counts the
    occurrences of the i-th variable of ``f``."""

    def derivatives(self, head: Morphism, tail: tuple[Morphism, ...], trs: Trs):
        return lambda i: var_count(head.term, head.context[i - 1][0])


class _Ringoid:
    """The presented ringoid of a system (``eqhom.coeff``).  The kernels
    are looked up as module globals at call time."""

    name = "symbolic"

    def one(self, cell: Cell) -> RingoidElement:
        """The identity on the cell's domain: its last entry's context."""
        entries = cell.entries
        return star(identity(entries[-1].context if entries
                             else canonical_context((cell.sort,))))

    def element(self, alpha: Morphism, trs: Trs) -> RingoidElement:
        return star(alpha)

    def derivatives(self, head: Morphism, tail: tuple[Morphism, ...], trs: Trs):
        """i ↦ ∂_i(head) restricted along the composite of ``tail`` (the
        identity when it is empty)."""
        subscript = compose_chain(tail) if tail else identity(head.context)
        return lambda i: expand_derivative(i, head, subscript, trs)

    def mul(self, a: RingoidElement, b: RingoidElement, trs: Trs) -> RingoidElement:
        return multiply(a, b, trs)

    def unit(self, c: RingoidElement | None) -> int:
        if c is not None and len(c) == 1:
            ((mono, k),) = c.items()
            if not mono.factors and is_identity(mono.tail) and k in (1, -1):
                return k
        raise MatchingError(f"matched coefficient {c!r} is not a unit")


_RINGS = {"count": _Counts(), "symbolic": _Ringoid()}


def ring_of(mode: str):
    """The shared ring of coefficient ``mode``."""
    if mode not in _RINGS:
        raise ValueError(f"unknown coefficient mode {mode!r}: expected 'count' or 'symbolic'")
    return _RINGS[mode]


class _Terms:
    """The term complex of ``trs`` over the ring of ``mode``, as
    ``eqhom.collapse`` sees it; kernels are module globals at call time."""

    def __init__(self, trs: Trs, mode: str = "count"):
        self.system = trs
        self.ring = ring_of(mode)

    def match(self, cell: Cell) -> tuple[bool, Cell | None]:
        return match(cell, self.system)

    def boundary(self, cell: Cell) -> Boundary:
        return normalized_boundary(cell, self.system, self.ring.name)


def classify(cell: Cell, trs: Trs) -> CellClass:
    """Critical, redundant-with-partner or collapsible-with-partner, with
    the sign read off the counting boundary (``eqhom.collapse.classify``)."""
    return collapse.classify(cell, _Terms(trs))


def morse_differential(cell: Cell, trs: Trs, mode: str = "count",
                       budget: int = DEFAULT_ROUTE_BUDGET) -> Boundary:
    """Differential of a critical cell in the collapsed complex."""
    return collapse.morse_differential(cell, _Terms(trs, mode), budget)
