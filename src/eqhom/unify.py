"""First-order matching and most general unifiers.

Matching is nonlinear: a pattern variable occurring twice must bind
syntactically equal subjects.  Unification shares variable names between
the two sides and runs the usual occurs-check algorithm; callers that
want the two sides treated independently rename apart beforehand.  The
result is reported as a pair of substitution morphisms together with the
unified term in canonical form, so mgu output is deterministic.

Pure functions throughout; safe for concurrent use.
"""

from __future__ import annotations

from .terms import (
    App,
    Frozen,
    Morphism,
    Term,
    Var,
    essential_from_terms,
    substitute,
    variables,
)

Subst = dict[str, Term]


def match_term(pattern: Term, subject: Term) -> Subst | None:
    """A substitution sending ``pattern`` to ``subject``, or None."""
    binding: Subst = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            if p.sort != s.sort:
                return None
            if binding.setdefault(p.name, s) is not s:  # terms are interned: equal is identical
                return None
        else:
            if not (isinstance(s, App) and s.op == p.op and len(s.args) == len(p.args)):
                return None
            stack.extend(zip(p.args, s.args))
    return binding


def _occurs(name: str, t: Term, binding: Subst) -> bool:
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            if u.name == name:
                return True
            if u.name in binding:
                stack.append(binding[u.name])
        else:
            stack.extend(u.args)
    return False


def unify_terms(t: Term, s: Term) -> Subst | None:
    """Most general substitution (shared namespace) with ``σt = σs``.

    Occurs check enforced.  The result maps every bound variable to a
    fully resolved term; unbound variables are simply absent.
    """
    binding: Subst = {}

    def walk(u: Term) -> Term:
        while isinstance(u, Var) and u.name in binding:
            u = binding[u.name]
        return u

    stack = [(t, s)]
    while stack:
        a, b = stack.pop()
        a, b = walk(a), walk(b)
        if a == b:
            continue
        if isinstance(a, Var) or isinstance(b, Var):
            if isinstance(b, Var) and not isinstance(a, Var):
                a, b = b, a
            if a.sort != b.sort or _occurs(a.name, b, binding):
                return None
            binding[a.name] = b
        else:
            if a.op != b.op or len(a.args) != len(b.args):
                return None
            stack.extend(zip(a.args, b.args))

    resolved: dict[Term, Term] = {}  # term -> its image, built bottom-up on explicit stacks
    for image in binding.values():
        stack = [image]
        while stack:
            u = walk(stack[-1])
            todo = [a for a in u.args if a not in resolved] if isinstance(u, App) else ()
            if todo:
                stack += todo
                continue
            if isinstance(u, App):
                u = App(u.op, tuple(resolved[a] for a in u.args), u.sort)
            resolved[stack.pop()] = u
    return {name: resolved[image] for name, image in binding.items()}


class Unifier(Frozen):
    """Substitution morphisms for both sides plus the unified canonical term."""

    __slots__ = _fields = ("left", "right", "unified")

    def __init__(self, left: Morphism, right: Morphism, unified: Morphism):
        self._assign(left, right, unified)


def mgu(t: Term, s: Term) -> Unifier | None:
    """Most general unifier of two terms of the same sort, or None.

    Variable names are shared between the two sides, so unifying ``x``
    with ``f(x)`` fails the occurs check; callers wanting independent
    contexts rename apart first.  The unified term is returned essential
    with canonical variable naming, and the two substitutions are
    expressed over each term's own context (first-occurrence order).
    """
    if t.sort != s.sort:
        return None
    sigma = unify_terms(t, s)
    if sigma is None:
        return None

    t_vars, s_vars = variables(t), variables(s)
    sigma = {v.name: v for v in t_vars + s_vars} | sigma  # identity on the unbound variables
    unified_raw = substitute(t, sigma)

    # One canonical renaming, fixed by the unified term, applied everywhere.
    raw_vars = variables(unified_raw)
    unified = essential_from_terms((unified_raw,))
    renaming = {old.name: Var(*new) for old, new in zip(raw_vars, unified.context)}
    # The substitutions are morphisms from the unified domain into each
    # term's context, so their tuple slots follow the original contexts.
    left, right = (Morphism.derived(unified.context,
                                    tuple(substitute(sigma[v.name], renaming) for v in vs))
                   for vs in (t_vars, s_vars))
    return Unifier(left=left, right=right, unified=unified)
