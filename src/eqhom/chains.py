"""Enumeration of the critical generators ("chains") of the collapsed
bar resolution of a reduced complete rewrite system.

A cell of dimension n is a tuple of n composable canonical morphisms,
each essential and not an identity, whose first entry has a single-sort
codomain; entries are stored in normal form.  Dimension 0 cells are one
per sort.  Chains are the cells surviving the collapse:

* dimension 0: one chain per sort,
* dimension 1: one chain per operation symbol (applied to fresh
  variables, provided that pattern is a normal form),
* dimension 2: one chain per rewrite rule (head symbol followed by the
  argument tuple of the left-hand side),
* dimension n+1: extensions of an n-chain by the most general way of
  creating a strictly larger maximal redex in its raw composite, with
  redexes indexed and ordered as in ``eqhom.rewrite.max_redex``.

``chain_extensions`` tabulates those entries per raw composite, keyed by
the redex index each creates.  The term engine's matching reads the same
table: a cell that is no chain splits at the maximal redex of the
composite through its first non-chain entry, and its partner's new entry
is the table's entry at that index (``eqhom.morse``).

``extend_chains`` builds a dimension from the one below a chain at a time,
in canonical order since keys of one dimension have one length, so a caller
reading a prefix (the F_p stop of ``eqhom.homology``) builds no chain past it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .rewrite import (RedexIndex, Rule, Trs, certify, is_irreducible, max_redex, memoised,
                      op_morphism)
from .terms import (
    Morphism,
    Term,
    Var,
    compose_chain,
    compose_raw,
    essential_from_terms,
    is_partial_permutation,
    render_morphism,
    substitute,
    subterms,
    variables,
)
from .unify import unify_terms


@dataclass(frozen=True, slots=True)
class Cell:
    """A tuple of composable canonical morphisms over a base sort."""

    sort: str
    entries: tuple[Morphism, ...]
    _hash: int = field(init=False, compare=False, repr=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.sort, self.entries)))

    def __hash__(self):
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __repr__(self):
        if not self.entries:
            return f"<>{self.sort}"
        return "<" + "; ".join(render_morphism(m) for m in self.entries) + ">"


def cell_key(cell: Cell) -> tuple:
    return (cell.sort, tuple(repr(m) for m in cell.entries))


def composite(cell: Cell, trs: Trs, upto: int | None = None) -> Morphism:
    """Raw composite of the first ``upto`` entries (no rewriting),
    memoised per entry prefix: a cell's sort is its first entry's codomain."""
    return _composite(cell.entries[:upto], trs)


@memoised("composite")
def _composite(entries: tuple[Morphism, ...], trs: Trs) -> Morphism:
    return compose_chain(entries)


def redex_less(a: RedexIndex | None, b: RedexIndex | None) -> bool:
    """Strict order with None as bottom."""
    if b is None:
        return False
    if a is None:
        return True
    return a < b


def valid_entry(m: Morphism, trs: Trs) -> bool:
    """Usable as a cell entry, given a canonical ``m`` (``mgu_extension``
    builds it so): not a selection of variables (which rules out
    identities), all components in normal form."""
    if is_partial_permutation(m):
        return False
    return all(is_irreducible(t, trs) for t in m.terms)


def mgu_extension(T: Morphism, sub: Term, rule: Rule) -> Morphism | None:
    """Most general substitution tuple unifying ``sub``, a non-variable
    subterm of ``T``, with the rule's left-hand side, expressed over
    ``T``'s full context.

    Context variables not constrained by the unification stay as fresh
    distinct variables.  Returns the canonical morphism, or None when the
    unification fails.
    """
    apart = {v.name: Var(v.name + "'", v.sort) for v in variables(rule.lhs)}
    sigma = unify_terms(sub, substitute(rule.lhs, apart))
    if sigma is None:
        return None
    terms = tuple(sigma.get(name, Var(name, sort)) for name, sort in T.context)
    return essential_from_terms(terms)


def sigma_cell_entry(m: Morphism, trs: Trs) -> str | None:
    """The operation symbol when ``m`` applies one symbol to its context
    variables in order, else None."""
    if len(m.terms) != 1:
        return None
    t = m.terms[0]
    if isinstance(t, Var):
        return None
    if t.args == tuple(Var(n, s) for n, s in m.context):
        return t.op
    return None


def longest_chain_prefix(cell: Cell, trs: Trs) -> int:
    """Number of leading entries that form a chain (0..dim)."""
    for k, entry in enumerate(cell.entries):
        if k == 0:
            ok = sigma_cell_entry(entry, trs) is not None
        else:
            ok = entry in chain_extensions(composite(cell, trs, k), trs).values()
        if not ok:
            return k
    return cell.dim


def is_chain(cell: Cell, trs: Trs) -> bool:
    return longest_chain_prefix(cell, trs) == cell.dim


@memoised("extensions")
def chain_extensions(T: Morphism, trs: Trs) -> dict[RedexIndex, Morphism]:
    """All valid entries extending the chain with raw composite ``T``,
    keyed by the redex index (p, rank) each creates: the composite with
    the entry has that strictly larger maximal redex, at a non-variable
    position of ``T`` itself, and the entry is the most general unifier
    of ``T`` at ``p`` against the rule's left side.  Memoised per ``T``;
    the returned dict is shared, not to be mutated."""
    base = max_redex(T.term, trs)
    out = {}
    for p, sub in subterms(T.term):
        if isinstance(sub, Var):
            continue
        for rank, rule in enumerate(trs.rules):
            if rule.lhs.op != sub.op or not redex_less(base, (p, rank)):
                continue
            u = mgu_extension(T, sub, rule)
            if u is None or not valid_entry(u, trs):
                continue
            if max_redex(compose_raw(T, u).term, trs) != (p, rank):
                continue
            out[p, rank] = u
    return out


def enumerate_chains(trs: Trs, max_dim: int) -> dict[int, list[Cell]]:
    """Chains per dimension, 0..max_dim, each list in canonical order.

    Requires the system to certify as reduced and complete.
    """
    certify(trs)
    sig = trs.signature
    chains: dict[int, list[Cell]] = {0: [Cell(s, ()) for s in sig.sorts]}
    if max_dim >= 1:
        ops = []
        for name, _, result in sig.ops:
            m = op_morphism(sig, name)
            if is_irreducible(m.term, trs):
                ops.append(Cell(result, (m,)))
        chains[1] = sorted(ops, key=cell_key)
    for dim in range(2, max_dim + 1):
        chains[dim] = list(extend_chains(chains[dim - 1], trs))
    return chains


def extend_chains(cells: list[Cell], trs: Trs) -> Iterator[Cell]:
    """The chains one dimension above ``cells`` (chains of one dimension,
    1 or more, in canonical order), yielded in canonical order: a child's
    key is its parent's key plus one entry, so each parent's children,
    sorted in turn, follow the global sort."""
    for cell in cells:
        us = chain_extensions(composite(cell, trs), trs).values()
        yield from sorted((Cell(cell.sort, cell.entries + (u,)) for u in us), key=cell_key)
