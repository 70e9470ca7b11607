"""Multi-sorted first-order terms and term-tuple morphisms.

A signature declares a finite set of sorts and a finite set of operation
symbols, each with a list of argument sorts and a result sort.  Terms are
variables or applications of operation symbols; every term carries a sort.
Positions are tuples of 1-based argument indices, the root ``()``, and
``subterms`` walks them in preorder; a renaming is a ``substitute``.

A morphism packages a sorting context (an ordered list of typed variables)
together with a tuple of terms over that context.  These are the arrows of
the free theory generated by the signature: composition substitutes the
inner morphism's terms for the outer morphism's context variables.

Every morphism factors uniquely as an *essential* morphism followed by a
*partial permutation*.  A partial permutation is itself a morphism that
merely selects and reorders context slots (its terms are pairwise
distinct variables); an essential morphism uses every variable of its
context.  We fix one representative per renaming class: context
variables are listed in order of first occurrence across the term tuple
and named ``x1, x2, ...``.  A morphism in that form is called
*canonical* here, and ``canonicalize`` computes the factorization,
returning the selection as a morphism.  All higher-level cell machinery
stores canonical morphisms only, so structural equality is semantic
equality.

Terms and morphisms are checked where they enter: applications by
``Signature.app``, morphisms by ``Morphism(context, terms)`` and
``canonicalize``, composability by ``compose_raw``.  What the engine
derives from them is built unchecked, by ``Morphism.derived``,
``substitute`` and ``replace_at``, which trust their callers.

All values are immutable; every function is pure and thread-safe.  An
application and a morphism compute their hash once, at construction,
from their parts' hashes, and keep it in a slot that is never written
again; so hashing never walks a term, and concurrent readers only ever
read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Iterator, Mapping, Union

Position = tuple[int, ...]
ROOT: Position = ()


class TermError(Exception):
    """Ill-sorted or structurally invalid term-level input."""


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    sort: str

    def __repr__(self):
        return f"{self.name}:{self.sort}"


@dataclass(frozen=True, slots=True, eq=False)
class App:
    op: str
    args: tuple["Term", ...]
    sort: str
    _hash: int = field(init=False, compare=False, repr=False, hash=False)

    def __post_init__(self):
        # the generated dataclass hash, so hash-ordered containers iterate
        # as they would without the slot; the arguments' hashes are cached
        object.__setattr__(self, "_hash", hash((self.op, self.args, self.sort)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, App):
            return NotImplemented
        if self._hash != other._hash or self.op != other.op or self.sort != other.sort \
                or len(self.args) != len(other.args):
            return False
        left, right = list(self.args), list(other.args)  # explicit stacks: any depth compares
        while left:
            a, b = left.pop(), right.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or a.sort != b.sort:
                return False
            if a.__class__ is Var:
                if a.name != b.name:
                    return False
            elif a._hash != b._hash or a.op != b.op or len(a.args) != len(b.args):
                return False
            else:
                left += a.args
                right += b.args
        return True

    def __repr__(self):
        if not self.args:
            return self.op
        return f"{self.op}({','.join(map(repr, self.args))})"


Term = Union[Var, App]


@dataclass(frozen=True)
class Signature:
    """Operation symbols with declared argument sorts and result sort."""

    sorts: tuple[str, ...]
    ops: tuple[tuple[str, tuple[str, ...], str], ...]
    _by_name: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if len(set(self.sorts)) != len(self.sorts):
            raise TermError("duplicate sort names")
        by_name = {}
        for name, arg_sorts, result in self.ops:
            if name in by_name:
                raise TermError(f"duplicate operation symbol {name!r}")
            for s in (*arg_sorts, result):
                if s not in self.sorts:
                    raise TermError(f"operation {name!r} references undeclared sort {s!r}")
            by_name[name] = (tuple(arg_sorts), result)
        object.__setattr__(self, "_by_name", by_name)

    def is_op(self, name: str) -> bool:
        return name in self._by_name

    def arg_sorts(self, name: str) -> tuple[str, ...]:
        return self._by_name[name][0]

    def app(self, op: str, *args: Term) -> App:
        """Build a well-sorted application, checking arity and argument sorts."""
        if op not in self._by_name:
            raise TermError(f"unknown operation symbol {op!r}")
        arg_sorts, result = self._by_name[op]
        if len(args) != len(arg_sorts):
            raise TermError(f"{op!r} expects {len(arg_sorts)} arguments, got {len(args)}")
        for a, s in zip(args, arg_sorts):
            if a.sort != s:
                raise TermError(f"argument of sort {a.sort!r} where {s!r} expected in {op!r}")
        return App(op, tuple(args), result)


def subterms(t: Term) -> Iterator[tuple[Position, Term]]:
    """Every ``(position, subterm)`` of ``t`` in depth-first preorder, root
    first, walked with an explicit stack."""
    stack = [(ROOT, t)]
    while stack:
        p, u = stack.pop()
        yield p, u
        if isinstance(u, App):
            for i in range(len(u.args), 0, -1):
                stack.append((p + (i,), u.args[i - 1]))


def replace_at(t: Term, p: Position, s: Term) -> Term:
    """Replace the subterm of ``t`` at ``p``, a position of ``t``, by ``s``,
    a term of its sort; unchecked."""
    if not p:
        return s
    args = list(t.args)
    args[p[0] - 1] = replace_at(args[p[0] - 1], p[1:], s)
    return App(t.op, tuple(args), t.sort)


def _leaves(terms: tuple[Term, ...]) -> Iterator[Var]:
    """Variable occurrences of ``terms``, depth-first, left to right, on an explicit stack."""
    stack = list(reversed(terms))
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            yield u
        else:
            stack.extend(reversed(u.args))


def variables(t: Term) -> list[Var]:
    """Distinct variables of ``t`` in order of first occurrence."""
    seen: dict[str, Var] = {}
    for v in _leaves((t,)):
        seen.setdefault(v.name, v)
    return list(seen.values())


def var_count(t: Term, name: str) -> int:
    """Number of occurrences of the variable called ``name`` in ``t``."""
    return sum(v.name == name for v in _leaves((t,)))


def substitute(t: Term, assignment: Mapping[str, Term]) -> Term:
    """Simultaneous substitution; unchecked: ``assignment`` gives every
    variable of ``t`` a term of its sort."""
    if isinstance(t, Var):
        return assignment[t.name]
    return App(t.op, tuple(substitute(a, assignment) for a in t.args), t.sort)


def render_term(t: Term) -> str:
    """Concrete syntax: ``f(a,b)``, constants bare, variables by name."""
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.op
    return f"{t.op}({','.join(render_term(a) for a in t.args)})"


Context = tuple[tuple[str, str], ...]  # ordered (variable name, sort) pairs


def canonical_name(i: int) -> str:
    return f"x{i}"


def canonical_context(sorts: Iterable[str]) -> Context:
    """The context ``x1, x2, ...`` over ``sorts``."""
    return tuple((canonical_name(i), s) for i, s in enumerate(sorts, 1))


def _checked_variables(context: Context, terms: tuple[Term, ...]) -> dict[str, str]:
    """The variables of ``terms`` with their sorts, in first-occurrence
    order, depth-first and left to right, each checked against
    ``context``; the first offending variable is reported as a
    ``TermError``."""
    sorts = dict(context)
    if len(sorts) != len(context):
        raise TermError("duplicate context variable")
    order: dict[str, str] = {}
    for u in _leaves(terms):
        sort = sorts.get(u.name)
        if sort != u.sort:
            if sort is None:
                raise TermError(f"term variable {u.name!r} missing from context")
            raise TermError(f"context sort clash for {u.name!r}")
        order[u.name] = sort
    return order


@dataclass(frozen=True, slots=True)
class Morphism:
    """A sorting context together with a tuple of terms over it."""

    context: Context
    terms: tuple[Term, ...]
    _hash: int = field(init=False, compare=False, repr=False, hash=False)

    def __post_init__(self):
        _checked_variables(self.context, self.terms)
        object.__setattr__(self, "_hash", hash((self.context, self.terms)))

    @classmethod
    def derived(cls, context: Context, terms: tuple[Term, ...]) -> Morphism:
        """``Morphism(context, terms)`` without the check, for terms known to fit."""
        m = object.__new__(cls)
        object.__setattr__(m, "context", context)
        object.__setattr__(m, "terms", terms)
        object.__setattr__(m, "_hash", hash((context, terms)))
        return m

    def __hash__(self):
        return self._hash

    @property
    def domain_sorts(self) -> tuple[str, ...]:
        return tuple(s for _, s in self.context)

    @property
    def codomain_sorts(self) -> tuple[str, ...]:
        return tuple(t.sort for t in self.terms)

    @property
    def term(self) -> Term:
        if len(self.terms) != 1:
            raise TermError("morphism is not single-term")
        return self.terms[0]

    def __repr__(self):
        ctx = ",".join(n for n, _ in self.context)
        tms = ",".join(render_term(t) for t in self.terms)
        return f"({ctx}|{tms})"


def identity(context: Context) -> Morphism:
    return Morphism.derived(context, tuple(Var(n, s) for n, s in context))


def compose_raw(f: Morphism, g: Morphism) -> Morphism:
    """Composition by substitution only; no rewriting is performed.

    ``g``'s terms are substituted for ``f``'s context variables, so the
    result lives over ``g``'s context.  The result is not essentialized:
    unused context variables stay in place.
    """
    if f.domain_sorts != g.codomain_sorts:
        raise TermError(
            f"cannot compose: domain {f.domain_sorts} vs codomain {g.codomain_sorts}"
        )
    assignment = {name: t for (name, _), t in zip(f.context, g.terms)}
    return Morphism.derived(g.context, tuple(substitute(t, assignment) for t in f.terms))


def compose_chain(morphisms: Iterable[Morphism]) -> Morphism:
    return reduce(compose_raw, morphisms)


def canonicalize(context: Context, terms: tuple[Term, ...]) -> tuple[Morphism, Morphism]:
    """Factor a raw (context, terms) pair as essential-after-selection.

    Returns the essential part (context restricted to the variables that
    occur, in first-occurrence order, renamed ``x1, x2, ...``) and the
    selection: the partial permutation, itself a morphism over
    ``context``, whose terms are the kept variables in that order.
    ``compose_raw(essential, selection)`` restores the input; canonical
    input returns itself with the identity selection.
    """
    order = _checked_variables(context, terms)
    new_context = canonical_context(order.values())
    renaming = {old: Var(*new) for old, new in zip(order, new_context)}
    new_terms = tuple(substitute(t, renaming) for t in terms)
    selection = Morphism.derived(context, tuple(Var(name, sort) for name, sort in order.items()))
    return Morphism.derived(new_context, new_terms), selection


def essential_from_terms(terms: tuple[Term, ...]) -> Morphism:
    """Canonical morphism whose context is exactly the variables occurring."""
    return canonicalize(tuple({v.name: v.sort for v in _leaves(terms)}.items()), terms)[0]


def is_canonical(m: Morphism) -> bool:
    """True iff ``canonicalize`` would return ``m`` itself with the
    identity selection: the k-th variable to occur, depth-first and left
    to right, is ``xk`` in context slot k, and every slot is used."""
    context = m.context
    seen: set[str] = set()
    stack = list(reversed(m.terms))
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            name = u.name
            if name not in seen:
                k = len(seen)
                if k == len(context) or context[k][0] != name or name != canonical_name(k + 1):
                    return False
                seen.add(name)
        else:
            stack.extend(reversed(u.args))
    return len(seen) == len(context)


def is_partial_permutation(m: Morphism) -> bool:
    """True iff every tuple entry is a variable and entries are distinct."""
    names = [t.name for t in m.terms if isinstance(t, Var)]
    return len(names) == len(m.terms) == len(set(names))


def is_identity(m: Morphism) -> bool:
    return m.terms == tuple(Var(n, s) for n, s in m.context)


def render_morphism(m: Morphism) -> str:
    return "(" + ",".join(render_term(t) for t in m.terms) + ")"
