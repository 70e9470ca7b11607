"""Algebraic discrete Morse theory: the collapse of a bar-type complex
along a matching (Sköldberg, Trans. AMS 2006; Jöllenbeck & Welker,
Mem. AMS 2009).  The router's one pipeline client is the term engine;
the word engine computes the same collapse directly on its chains
(Anick's resolution, ``eqhom.monoid``) and keeps its routed adapter
only as the tests' oracle.

An engine supplies its complex through a small adapter ``cx``:
``cx.match(cell)`` is (chain?, split partner or None) from one scan of
the cell, the partner one dimension up; ``cx.boundary(cell)`` is the
signed boundary, a dict from face to coefficient; ``cx.ring`` is the
ring of those coefficients; and ``cx.system`` owns the memo tables
(``system.cache(kind) -> dict``).  The split alone defines the matching;
everything else lives here, generic in the ring as Sköldberg's collapse is.

Classification.  A chain (or a 0-cell) is critical.  Any other cell is
redundant when it splits, that is when it is a face of its split partner
one dimension up, and collapsible when exactly one face of its boundary
splits back to it.  Both at once, two such faces, or neither is a
``MatchingError``.  The matched coefficient, read off the boundary of
the upper cell of the pair, must be a unit (``ring.unit``); the engines
classify over the counting ring.  ``classify`` makes all of these
checks, off the routing path.

Routing.  The router trusts the matching of a certified system, which
is a Morse matching (Sköldberg; Jöllenbeck & Welker), and tells the
kinds apart from one ``match`` per routed cell.  The collapsed
differential of a critical cell is its boundary with every face
rewritten until only critical cells remain: a critical face stays, a
face that does not split vanishes, and a face ``c`` that splits to ``p``
is replaced by ``-ε`` times the rest of the boundary of ``p``, routed in
turn; ``ε``, the coefficient of ``c`` in the boundary of ``p``, must
still be a unit.  Termination holds for a certified system.  Routing
memoises the expression of each routed cell in the system's cache
``express_<name>`` after the ring's ``name``; the ``classify`` cache is
filled only by ``classify``.  ``matrix_rows`` routes a counting matrix
one row at a time, in chain order, so that a reader that stops early
routes no more.

The evaluator.  ``evaluate`` runs any memoised recursion whose entries
are generators: an entry yields the key of each value it needs, is sent
that value, and returns its own, which is never None.  Routing is one
such entry per cell (``_route``), the word engine's lift (``eqhom.monoid``)
another.  The entries run post-order on an explicit stack, so depth is
bounded by the budget and not by Python's recursion limit.  The budget
rule is one step per memo entry a differential writes, its root included,
out of ``DEFAULT_ROUTE_BUDGET`` as it reads when the differential starts;
a non-terminating recursion, or a differential that writes more entries
than the budget, is a ``BudgetExceeded``.

Coefficients live in a stateless ring object that the adapter shares
(``Integers``, a subclass, or the term engine's ringoid).  A ring
supplies ``one``, ``element``, ``mul`` and ``unit``; ``element`` and
``mul`` take the system as their last argument.  Coefficients add with
``+``, scale with ``* k``, are zero exactly when falsy, and sums keep no
zero.  Counting differentials of the chains form integer matrices: one
row (a ``list[int]``) per chain of a dimension, one column per chain one
dimension down, read lazily from ``matrix_rows`` or all at once by
``assemble_matrices``.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterator

from .rewrite import BudgetExceeded
from .terms import Frozen, Record

DEFAULT_ROUTE_BUDGET = 200_000

Boundary = dict[Hashable, object]
Matrix = list[list[int]]


class MatchingError(Exception):
    """The critical/redundant/collapsible trichotomy failed (a bug, or the
    input system was not actually complete)."""


class CellClass(Frozen):
    __slots__ = _fields = ("kind", "partner", "epsilon")

    def __init__(self, kind: str, partner: Hashable | None = None, epsilon: int | None = None):
        self._assign(kind, partner, epsilon)  # kind: "critical" | "redundant" | "collapsible"


class BoundaryMatrix(Record):
    __slots__ = _fields = ("dim", "rows", "cols", "entries", "modulus")

    def __init__(self, dim: int, rows: list, cols: list, entries: Matrix, modulus: int):
        self._assign(dim, rows, cols, entries, modulus)  # rows: dim-chains, cols: (dim-1)-chains


class Integers:
    """The counting ring.  ``one`` (a critical cell's coefficient in its own
    expression) and ``element`` (a restriction) count 1; ``unit`` is a
    unit's sign or a ``MatchingError``."""

    name = "count"

    def one(self, cell_or_generator, system=None) -> int:
        return 1

    element = one

    def mul(self, a: int, b: int, system) -> int:
        return a * b

    def unit(self, c) -> int:
        if c not in (1, -1):
            raise MatchingError(f"matched coefficient {c!r} is not a unit")
        return c


def add_term(acc: Boundary, cell, coeff) -> None:
    """``acc[cell] += coeff``, dropping the cell when the sum is zero."""
    if cell in acc:
        coeff = acc[cell] + coeff
    if coeff:
        acc[cell] = coeff
    else:
        acc.pop(cell, None)


def classify(cell, cx) -> CellClass:
    """Critical, redundant-with-partner or collapsible-with-partner."""
    cache = cx.system.cache("classify")  # by hand: its system comes through the adapter
    hit = cache.get(cell)
    if hit is None:
        hit = cache[cell] = _classify(cell, cx)
    return hit


def _classify(cell, cx) -> CellClass:
    chain, split = cx.match(cell)
    if chain:
        return CellClass("critical")
    bd = cx.boundary(cell)
    found = [face for face in bd if cx.match(face)[1] == cell]
    if len(found) > 1:
        raise MatchingError(f"cell {cell!r} splits two targets: {found!r}")
    if split is not None and found:
        raise MatchingError(f"cell {cell!r} is both redundant and collapsible")
    if split is not None:
        return CellClass("redundant", split, cx.ring.unit(cx.boundary(split).get(cell)))
    if found:
        return CellClass("collapsible", found[0], cx.ring.unit(bd[found[0]]))
    raise MatchingError(f"cell {cell!r} is neither critical, redundant nor collapsible")


def evaluate(key, entry, arg, cache, counter: list[int], exhausted: str):
    """The value of ``key``, memoised in ``cache`` with every value it
    needs, each computed by a generator ``entry(key, arg)`` on an explicit
    stack (see "The evaluator" above).  ``counter`` is ``[steps left,
    budget]``, shared by the calls of one differential; a step past the
    budget raises ``BudgetExceeded(exhausted.format(budget))``."""
    value = cache.get(key)
    if value is not None:
        return value
    stack: list = []
    while True:
        if value is None:  # key is not memoised: start its entry
            counter[0] -= 1
            if counter[0] < 0:
                raise BudgetExceeded(exhausted.format(counter[1]))
            stack.append((key, entry(key, arg)))
        key, steps = stack[-1]
        try:
            key = steps.send(value)
        except StopIteration as done:
            stack.pop()
            cache[key] = value = done.value
            if not stack:
                return value
            continue
        value = cache.get(key)


def _route(cell, cx):
    """One entry of routing: ``cell`` as a combination of critical cells.
    A chain is itself, a cell with no partner vanishes, and a redundant
    cell is ``-ε`` times the rest of its partner's boundary, each face
    yielded to be routed in turn."""
    chain, partner = cx.match(cell)
    if partner is None:
        return {cell: cx.ring.one(cell)} if chain else {}
    ring, system = cx.ring, cx.system
    bd = cx.boundary(partner)
    neg_eps = -ring.unit(bd.get(cell))
    out: Boundary = {}
    for face, coeff in bd.items():
        if face != cell:
            for crit, w in (yield face).items():
                add_term(out, crit, ring.mul(coeff, w, system) * neg_eps)
    return out


def morse_differential(cell, cx) -> Boundary:
    """Differential of a critical cell in the collapsed complex."""
    ring = cx.ring
    cache = cx.system.cache("express_" + ring.name)  # by hand: written by ``evaluate``
    counter = [DEFAULT_ROUTE_BUDGET] * 2  # steps left, budget
    exhausted = "routing budget exhausted: one differential routed more than {} cells"
    out: Boundary = {}
    for face, coeff in cx.boundary(cell).items():
        for crit, w in evaluate(face, _route, cx, cache, counter, exhausted).items():
            add_term(out, crit, ring.mul(coeff, w, cx.system))
    return out


def matrix_rows(differential: Callable[[object], Boundary], rows: list, cols: list,
                modulus: int = 0) -> Iterator[list[int]]:
    """The differentials of ``rows`` as integer rows over ``cols``, reduced
    modulo ``modulus`` unless it is 0, each routed when it is read."""
    col_index = {c: j for j, c in enumerate(cols)}
    for cell in rows:
        row = [0] * len(cols)
        for target, coeff in differential(cell).items():
            j = col_index.get(target)
            if j is None:
                raise ValueError(f"differential of {cell!r} hits {target!r}, "
                                 f"which is not an enumerated chain")
            row[j] = coeff % modulus if modulus else coeff
        yield row


def assemble_matrices(differential: Callable[[object], Boundary], chains: dict[int, list],
                      max_dim: int, modulus: int = 0) -> dict[int, BoundaryMatrix]:
    """Matrices of the counting differentials for dimensions 1..max_dim,
    every row of ``matrix_rows`` read."""
    return {n: BoundaryMatrix(n, list(chains[n]), list(chains[n - 1]),
                              list(matrix_rows(differential, chains[n], chains[n - 1], modulus)),
                              modulus)
            for n in range(1, max_dim + 1)}
