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

The package's immutable values share the base ``Frozen`` defined here: each is its
own deep copy (the mutable reports share ``Record``).  Every function is pure and
thread-safe.  One process-wide table interns every term for the life of the
process: a term is the one object with its constructor parts, so equality is
identity.  Terms and morphisms hash once, at construction: no hash walks a term.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from functools import reduce
from operator import attrgetter

Position = tuple[int, ...]
ROOT: Position = ()


class TermError(Exception):
    """Ill-sorted or structurally invalid term-level input."""


_interned: dict = {}  # constructor parts -> the one term that has them
_set = object.__setattr__  # the setter of a value's slots, bound once


class Record:
    """A class with ``__slots__`` valued by its constructor's parameters, ``_fields``: ``==`` compares
    them (or ``_compared``, two or more), the repr shows them, copies and pickles rebuild from them."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):  # _key, a class attribute, is called as self._key(value)
        if compared := cls.__dict__.get("_compared", cls._fields):
            cls._key = attrgetter(*compared)

    def _assign(self, *values):  # the slots, in order; the hottest constructors set theirs directly
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __eq__(self, other):
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Frozen(Record):
    """An immutable ``Record``, hashed by the fields it compares: the base of all value classes."""

    __slots__ = ()
    _hash = property(lambda self: hash(self._key(self)))  # a _hash slot set at construction shadows it

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__  # takes no value

    def __deepcopy__(self, memo):
        return self


class _Term(Frozen):
    __slots__ = ()  # a subclass lists its constructor parts, then _hash
    __eq__, __hash__ = object.__eq__, Frozen.__hash__  # interned: equal terms are one object

    @classmethod
    def _intern(cls, parts: tuple):
        t = object.__new__(cls)
        t._assign(*parts, hash(parts))
        return _interned.setdefault(parts, t)  # a racing thread's term wins if it came first


class Var(_Term):
    __slots__ = ("name", "sort", "_hash")
    _fields = __slots__[:2]

    def __new__(cls, name: str, sort: str):
        return _interned.get((name, sort)) or cls._intern((name, sort))

    def __repr__(self):
        return f"{self.name}:{self.sort}"


class App(_Term):
    __slots__ = ("op", "args", "sort", "_hash")
    _fields = __slots__[:3]

    def __new__(cls, op: str, args: tuple["Term", ...], sort: str):
        return _interned.get((op, args, sort)) or cls._intern((op, args, sort))

    def __repr__(self):
        if not self.args:
            return self.op
        return f"{self.op}({','.join(map(repr, self.args))})"


Term = Var | App


class Signature(Frozen):
    """Operation symbols with declared argument sorts and result sort."""

    __slots__ = ("sorts", "ops", "_by_name")
    _fields = __slots__[:2]

    def __init__(self, sorts: tuple[str, ...], ops: tuple[tuple[str, tuple[str, ...], str], ...]):
        if len(set(sorts)) != len(sorts):
            raise TermError("duplicate sort names")
        by_name = {}
        for name, arg_sorts, result in ops:
            if name in by_name:
                raise TermError(f"duplicate operation symbol {name!r}")
            for s in (*arg_sorts, result):
                if s not in sorts:
                    raise TermError(f"operation {name!r} references undeclared sort {s!r}")
            by_name[name] = (tuple(arg_sorts), result)
        self._assign(sorts, ops, by_name)

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
    a term of its sort; unchecked.  The path down is kept on a list."""
    path = []
    for i in p:
        path.append(t)
        t = t.args[i - 1]
    for u, i in zip(reversed(path), reversed(p)):
        s = App(u.op, u.args[:i - 1] + (s,) + u.args[i:], u.sort)
    return s


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


class Morphism(Frozen):
    """A sorting context together with a tuple of terms over it."""

    __slots__ = ("context", "terms", "_hash")
    _fields = __slots__[:2]

    def __init__(self, context: Context, terms: tuple[Term, ...]):
        self._assign(context, terms)
        self.__post_init__()  # read on the class, where a tracer may wrap it

    def __post_init__(self):
        _checked_variables(self.context, self.terms)
        object.__setattr__(self, "_hash", hash((self.context, self.terms)))

    @classmethod
    def derived(cls, context: Context, terms: tuple[Term, ...]) -> Morphism:
        """``Morphism(context, terms)`` without the check, for terms known to fit."""
        m = object.__new__(cls)
        _set(m, "context", context)
        _set(m, "terms", terms)
        _set(m, "_hash", hash((context, terms)))
        return m

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
