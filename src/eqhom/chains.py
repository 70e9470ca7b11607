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

``chain_extensions`` tabulates those entries per raw composite ``T``,
keyed by the redex index ``(p, rank)`` each creates.  A rule at a
non-variable position ``p`` of ``T`` gives an entry past five filters, in
order: the head symbols agree, ``(p, rank)`` is above ``T``'s maximal
redex, the mgu ``u`` exists, ``u``'s components are normal forms, and
``T∘u`` has maximal redex ``(p, rank)``; a selection ``u`` only renames
``T``, so the last refuses it.  The term engine's matching is this
module's ``match``, which reads the same table: a cell that is no chain
splits at the maximal redex of the composite through its first non-chain
entry, and its partner's new entry is the table's entry at that index.
``eqhom.morse`` hands it to the collapse.

``extend_chains`` builds a dimension from the one below a chain at a time,
in canonical order since keys of one dimension have one length, so a caller
reading a prefix (the F_p stop of ``eqhom.homology``) builds no chain past it.
"""

from __future__ import annotations

from collections.abc import Iterator

from .rewrite import (RedexIndex, Rule, Trs, certify, is_irreducible, max_redex, memoised,
                      op_morphism)
from .terms import (
    Frozen,
    Morphism,
    Term,
    Var,
    compose_chain,
    compose_raw,
    essential_from_terms,
    render_morphism,
    substitute,
    subterms,
    variables,
)
from .unify import match_term, unify_terms


class Cell(Frozen):
    """A tuple of composable canonical morphisms over a base sort."""

    __slots__ = ("sort", "entries", "_hash")
    _fields = __slots__[:2]

    def __init__(self, sort: str, entries: tuple[Morphism, ...]):  # hot: no _assign loop
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", hash((sort, entries)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __repr__(self):
        if not self.entries:
            return f"<>{self.sort}"
        return "<" + "; ".join(render_morphism(m) for m in self.entries) + ">"


def cell_key(cell: Cell) -> tuple:
    return (cell.sort, tuple(repr(m) for m in cell.entries))


@memoised("composite")
def composite(entries: tuple[Morphism, ...], trs: Trs) -> Morphism:
    """Raw composite of a cell's entries or of a prefix of them (no
    rewriting): a cell's sort is its first entry's codomain."""
    return compose_chain(entries)


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


def match(cell: Cell, trs: Trs) -> tuple[bool, Cell | None]:
    """(chain?, split partner one dimension up or None), from one scan with
    one table lookup per entry.  The head is a chain entry when it applies
    one symbol to its context variables in order, else it splits into that
    symbol and its arguments.  An entry ``t`` after a chain prefix with raw
    composite ``T`` is a chain entry exactly when it is ``u``, the entry of
    ``chain_extensions(T)`` at the maximal redex of ``T∘t``; else, when
    ``u`` exists, the cell splits at ``t = u∘w``, both halves canonical."""
    entries = cell.entries
    if not entries:
        return True, None
    head, context = entries[0].term, entries[0].context
    if head.args != tuple(Var(*v) for v in context):
        split = (op_morphism(trs.signature, head.op), Morphism.derived(context, head.args))
        return False, Cell(cell.sort, split + entries[1:])
    for k in range(1, len(entries)):
        T, t = composite(entries[:k], trs), entries[k]
        u = chain_extensions(T, trs).get(max_redex(compose_raw(T, t).term, trs))
        if u == t:
            continue
        if u is None:
            return False, None
        # t unifies T at the redex with the rule's left side: an instance of u, their mgu, so
        # the components' matches agree; w is no selection: canonical t = u∘w would be u
        binding = {}
        for pattern, subject in zip(u.terms, t.terms):
            binding.update(match_term(pattern, subject))
        w = Morphism.derived(t.context, tuple(binding[name] for name, _ in u.context))
        return False, Cell(cell.sort, entries[:k] + (u, w) + entries[k + 1:])
    return True, None


def is_chain(cell: Cell, trs: Trs) -> bool:
    return match(cell, trs)[0]


@memoised("extensions")
def chain_extensions(T: Morphism, trs: Trs) -> dict[RedexIndex, Morphism]:
    """The entries extending the chain with raw composite ``T``, keyed by
    the redex index each creates, past the five filters of the module
    docstring.  Memoised per ``T``; the returned dict is shared, not to be mutated."""
    base = max_redex(T.term, trs)
    out = {}
    for p, sub in subterms(T.term):
        if isinstance(sub, Var):
            continue
        for rank, rule in enumerate(trs.rules):
            if rule.lhs.op != sub.op or not (base is None or base < (p, rank)):
                continue
            u = mgu_extension(T, sub, rule)
            if u is None or not all(is_irreducible(t, trs) for t in u.terms):
                continue
            if max_redex(compose_raw(T, u).term, trs) == (p, rank):
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
        us = chain_extensions(composite(cell.entries, trs), trs).values()
        yield from sorted((Cell(cell.sort, cell.entries + (u,)) for u in us), key=cell_key)
