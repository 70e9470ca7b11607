"""Term rewriting: reduction, normal forms, critical pairs, completeness.

A rewrite system is an ordered list of oriented rules ``l -> r`` over a
signature; the list order doubles as the total order on left-hand sides
used by the chain machinery.  Rewriting is undecidably terminating in
general, so completeness is certified only as reducedness plus local
confluence (every critical pair joins) plus a budgeted termination probe;
the report says which parts passed.

Normal forms are computed with a deterministic leftmost-innermost
strategy, unique for a certified system, and memoized per system
(idempotent values, so last-write-wins caching is safe under concurrent
use).  ``memoised`` memoises every single-key kernel of both engines;
``normal_form_morphism``, compose then normalise, per morphism pair.

Redexes are indexed by (position, rule rank) pairs ordered
lexicographically: a proper prefix precedes its extensions and siblings
compare numerically, then the rule order breaks ties.  ``max_redex`` of
an irreducible term is None, the bottom of the order, and
``is_irreducible`` reads its memo.

The string engine (``eqhom.monoid``) certifies through the same
``reducedness_failures``, ``judge`` and ``certify``, with its own
critical pairs, join test, normaliser, probes and renderer.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import wraps
from math import gcd

from .terms import (
    App,
    Frozen,
    Morphism,
    Position,
    Record,
    Signature,
    Term,
    TermError,
    Var,
    canonical_context,
    compose_raw,
    render_term,
    replace_at,
    substitute,
    subterms,
    var_count,
    variables,
)
from .unify import match_term, unify_terms

DEFAULT_STEP_BUDGET = 10_000
DEFAULT_JOIN_BUDGET = 1_000
PROBE_SIZE, PROBE_DEPTH, PROBE_SEED = 40, 4, 0  # termination probe: random terms per sort

_MISSING = object()  # memo miss; None is a valid memoised result

RedexIndex = tuple[Position, int]  # (position, rule rank); None plays bottom


class BudgetExceeded(Exception):
    """A rewrite-step budget ran out (possible nontermination or a bug)."""


class CompletenessError(Exception):
    """An operation required a certified reduced complete system; ``report``
    is the ``CompletenessReport`` that refused the system."""

    def __init__(self, message: str, report: CompletenessReport):
        super().__init__(message)
        self.report = report


class Rule(Frozen):
    __slots__ = _fields = ("name", "lhs", "rhs")

    def __init__(self, name: str, lhs: Term, rhs: Term):
        if isinstance(lhs, Var):
            raise TermError(f"rule {name}: left-hand side is a variable")
        if lhs.sort != rhs.sort:
            raise TermError(f"rule {name}: sides have different sorts")
        lhs_vars = {v.name for v in variables(lhs)}
        for v in variables(rhs):
            if v.name not in lhs_vars:
                raise TermError(f"rule {name}: right-hand variable {v.name} not on the left")
        self._assign(name, lhs, rhs)

    def __repr__(self):
        return f"{self.name}: {render_term(self.lhs)} -> {render_term(self.rhs)}"


class Memoised(Frozen):
    """A rewrite system's memo tables, one dict per kind, empty at first; the
    base of ``Trs`` and ``monoid.Srs``, whose constructors pass it their slots' values."""

    __slots__ = ("caches",)

    def __init__(self, *values):
        self._assign(*values)
        object.__setattr__(self, "caches", defaultdict(dict))

    def cache(self, kind: str) -> dict:
        return self.caches[kind]


def memoised(kind: str):
    """Memoise a kernel ``f(key, system)`` under ``key`` in
    ``system.cache(kind)``; any value, None and False included, is a
    memoised result."""
    def decorate(f):
        @wraps(f)
        def kernel(key, system):
            cache = system.cache(kind)
            hit = cache.get(key, _MISSING)
            if hit is _MISSING:
                hit = cache[key] = f(key, system)
            return hit
        return kernel
    return decorate


class Trs(Memoised):
    __slots__ = _fields = ("signature", "rules", "step_budget", "join_budget")

    def __init__(self, signature: Signature, rules: tuple[Rule, ...],
                 step_budget: int = DEFAULT_STEP_BUDGET, join_budget: int = DEFAULT_JOIN_BUDGET):
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise TermError("duplicate rule names")
        super().__init__(signature, rules, step_budget, join_budget)

    def with_rules(self, rules: tuple[Rule, ...]) -> Trs:
        """This system with ``rules`` in place of its own, and fresh memos."""
        return Trs(self.signature, rules, self.step_budget, self.join_budget)


def rewrite_steps(t: Term, trs: Trs) -> list[tuple[Rule, Position, Term]]:
    """All one-step reducts of ``t`` with rule and position provenance."""
    out = []
    for p, sub in subterms(t):
        if isinstance(sub, Var):
            continue
        for rule in trs.rules:
            sigma = match_term(rule.lhs, sub)
            if sigma is not None:
                out.append((rule, p, replace_at(t, p, substitute(rule.rhs, sigma))))
    return out


@memoised("max_redex")
def max_redex(t: Term, trs: Trs) -> RedexIndex | None:
    """Greatest redex index of ``t``; None iff ``t`` is irreducible.

    Preorder is lexicographic order on positions, so the first match
    walking reverse preorder (children right to left, then the node) and
    ranks downwards is the maximum of all redex indices.  The walk keeps
    each position as a link ``(parent link, index)`` on an explicit stack
    and spells out only the hit's.  Memoised per term.
    """
    ranked = list(enumerate(trs.rules))[::-1]
    stack = [(t, None, False)]  # (subterm, position link, children walked)
    while stack:
        sub, link, walked = stack.pop()
        if isinstance(sub, Var):
            continue
        if not walked:
            stack.append((sub, link, True))
            stack.extend((a, (link, i), False) for i, a in enumerate(sub.args, 1))
            continue
        for rank, rule in ranked:
            if match_term(rule.lhs, sub) is not None:
                p = []
                while link is not None:
                    link, i = link
                    p.append(i)
                return tuple(reversed(p)), rank
    return None


def is_irreducible(t: Term, trs: Trs) -> bool:
    return max_redex(t, trs) is None


def normal_form(t: Term, trs: Trs) -> Term:
    """The unique normal form under leftmost-innermost reduction.

    Uniqueness holds once the system is certified; without certification
    this is still a deterministic reduction, bounded by the step budget.
    """
    cache = trs.cache("nf")  # by hand: _innermost reads and writes it at every subterm
    hit = cache.get(t)
    return _innermost(t, trs, [trs.step_budget], cache) if hit is None else hit


def _innermost(t: Term, trs: Trs, budget: list[int], memo: dict) -> Term:
    """Leftmost-innermost normalisation on an explicit stack, never the
    recursion limit: a frame is an application and the normal forms of its
    first arguments.  A term with normal arguments is rewritten at the
    root by the first rule that matches; the reduct is normalised afresh.
    ``memo``, term to normal form, is read at each step and gets ``t``
    and each finished argument, with their normal forms."""
    stack: list[tuple[App, list[Term]]] = []
    u, fresh = t, True  # fresh: u's arguments are not known to be normal
    while True:
        if (nf := memo.get(u)) is not None:
            u = nf
        elif fresh and isinstance(u, App) and u.args:
            stack.append((u, []))
            u = u.args[0]
            continue
        elif isinstance(u, App):
            for rule in trs.rules:
                sigma = match_term(rule.lhs, u)
                if sigma is not None:
                    break
            else:
                sigma = None
            if sigma is not None:
                budget[0] -= 1
                if budget[0] < 0:  # u may be deep: name its head, do not render it
                    raise BudgetExceeded(
                        f"step budget exhausted while reducing a term headed by {u.op}")
                u, fresh = substitute(rule.rhs, sigma), True
                continue
        if not stack:
            memo[t] = memo[u] = u
            return u
        app, done = stack[-1]
        memo[app.args[len(done)]] = memo[u] = u
        done.append(u)
        if len(done) < len(app.args):
            u, fresh = app.args[len(done)], True
        else:
            stack.pop()
            u, fresh = App(app.op, tuple(done), app.sort), False


@memoised("merge")
def normal_form_morphism(pair: tuple[Morphism, Morphism], trs: Trs) -> Morphism:
    """``compose_raw(f, g)`` of ``pair = (f, g)``, each term in normal form; memoised per pair."""
    f, g = pair
    return Morphism.derived(g.context, tuple(normal_form(t, trs) for t in compose_raw(f, g).terms))


class CriticalPair(Frozen):
    """Two one-step reducts of a minimal overlap of rule left-hand sides."""

    __slots__ = _fields = ("outer", "inner", "position", "left", "right")

    def __init__(self, outer: Rule, inner: Rule, position: Position,
                 left: Term,  # outer rhs instantiated
                 right: Term):  # overlap with the inner redex rewritten in place
        self._assign(outer, inner, position, left, right)

    def __repr__(self):
        at = ".".join(map(str, self.position)) or "ε"
        return (f"<{self.outer.name}/{self.inner.name}@{at}:"
                f" {render_term(self.left)} vs {render_term(self.right)}>")


def critical_pairs(trs: Trs) -> list[CriticalPair]:
    """All overlaps at non-variable positions, including self-overlaps.

    The trivial root overlap of a rule with itself is excluded.
    """
    out = []
    for outer in trs.rules:
        for inner in trs.rules:
            apart = {v.name: Var(v.name + "'", v.sort) for v in variables(inner.lhs)}
            inner_lhs = substitute(inner.lhs, apart)
            inner_rhs = substitute(inner.rhs, apart)
            identity = {v.name: v for v in (*variables(outer.lhs), *apart.values())}
            for p, sub in subterms(outer.lhs):
                if isinstance(sub, Var) or (p == () and outer is inner):
                    continue
                sigma = unify_terms(sub, inner_lhs)
                if sigma is None:
                    continue
                sigma = identity | sigma  # the identity on the unbound variables
                overlap = substitute(outer.lhs, sigma)
                left = substitute(outer.rhs, sigma)
                right = replace_at(overlap, p, substitute(inner_rhs, sigma))
                out.append(CriticalPair(outer, inner, p, left, right))
    return out


def joinable(a: Term, b: Term, trs: Trs) -> bool:
    budget, memo = [trs.join_budget], {}
    return _innermost(a, trs, budget, memo) == _innermost(b, trs, budget, memo)


class CompletenessReport(Record):
    __slots__ = _fields = ("reduced", "reducedness_failures", "locally_confluent", "unjoinable",
                           "termination_probe_ok", "termination_offender", "probe_terms",
                           "budget_exceeded", "assume_terminating")

    def __init__(self, reduced: bool, reducedness_failures: list[str],
                 locally_confluent: bool | None,  # None: the check did not run
                 unjoinable: list,  # the engine's critical pairs that did not join
                 termination_probe_ok: bool | None,  # None: the probe did not run
                 termination_offender: str | None,  # the rendered probe that ran out of budget
                 probe_terms: int, budget_exceeded: bool, assume_terminating: bool = False):
        self._assign(reduced, reducedness_failures, locally_confluent, unjoinable, termination_probe_ok,
                     termination_offender, probe_terms, budget_exceeded, assume_terminating)

    @property
    def complete(self) -> bool:
        return bool(self.locally_confluent and self.termination_probe_ok)

    @property
    def certified(self) -> bool:
        return self.reduced and self.complete

    def lines(self) -> list[str]:
        ok = lambda b: "not run" if b is None else "ok" if b else "FAILED"
        out = [f"reduced: {ok(self.reduced)}"]
        out.extend(f"  {msg}" for msg in self.reducedness_failures)
        out.append(f"locally confluent: {ok(self.locally_confluent)}")
        out.extend(f"  unjoinable: {cp!r}" for cp in self.unjoinable)
        offender = f" ({self.termination_offender})" if self.termination_offender else ""
        out.append(f"termination probe ({self.probe_terms} terms): "
                   f"{ok(self.termination_probe_ok)}{offender}")
        if self.termination_probe_ok:
            note = "acknowledged" if self.assume_terminating else "pass --assume-terminating to acknowledge"
            out.append(f"termination is probed, not proven ({note})")
        out.append(f"complete (reduced + locally confluent + termination probed): "
                   f"{'yes' if self.certified else 'NO'}")
        return out


def without(system, rule):
    """``system`` (a ``Trs`` or ``monoid.Srs``) less ``rule``, with fresh memos."""
    return system.with_rules(tuple(r for r in system.rules if r is not rule))


def reducedness_failures(system, irreducible) -> list[str]:
    """Reducedness of either engine's system: no left side is reducible by
    the other rules, and every right side is irreducible."""
    failures = []
    for rule in system.rules:
        if not irreducible(rule.lhs, without(system, rule)):
            failures.append(f"lhs of {rule.name} reducible by another rule")
        if not irreducible(rule.rhs, system):
            failures.append(f"rhs of {rule.name} not in normal form")
    return failures


def judge(failures: list[str], pairs, joins, normalise, probes: list, render,
          assume_terminating: bool = False) -> CompletenessReport:
    """The report on a system with reducedness ``failures``: join every
    critical pair in ``pairs``, then normalise every probe within budget.
    A budget that runs out while joining leaves the pair unjoinable."""
    unjoinable, budget_exceeded, offender = [], False, None
    for pair in pairs:
        try:
            if not joins(pair):
                unjoinable.append(pair)
        except BudgetExceeded:
            budget_exceeded = True
            unjoinable.append(pair)
    for t in probes:
        try:
            normalise(t)
        except BudgetExceeded:
            budget_exceeded = True
            offender = render(t)
            break
    return CompletenessReport(not failures, failures, not unjoinable, unjoinable,
                              offender is None, offender, len(probes), budget_exceeded,
                              assume_terminating)


def random_term(sig: Signature, sort: str, rng: random.Random, depth: int,
                var_pool: dict[str, list[str]] | None = None) -> Term:
    """A random well-sorted term, used by probes and property tests."""
    if var_pool is None:
        var_pool = {s: [f"v{i}{s}" for i in range(3)] for s in sig.sorts}
    ops = [(name, a, r) for name, a, r in sig.ops if r == sort]
    leaves = [(name, a, r) for name, a, r in ops if not a]
    can_leaf = bool(var_pool.get(sort)) or bool(leaves)
    if depth <= 0 or not ops or (can_leaf and rng.random() < 0.4):
        choices: list = [("var", v) for v in var_pool.get(sort, [])]
        choices += [("const", name) for name, a, _ in leaves]
        if not choices:
            choices = [("op", name) for name, _, _ in ops]
        kind, payload = rng.choice(choices)
        if kind == "var":
            return Var(payload, sort)
        if kind == "const":
            return sig.app(payload)
        name = payload
    else:
        name = rng.choice(ops)[0]
    args = tuple(random_term(sig, s, rng, depth - 1, var_pool) for s in sig.arg_sorts(name))
    return sig.app(name, *args)


def check_complete(trs: Trs, assume_terminating: bool = False) -> CompletenessReport:
    """Certify reducedness, local confluence, and a termination probe."""
    failures = reducedness_failures(trs, is_irreducible)
    rng = random.Random(PROBE_SEED)
    probes: list[Term] = [r.rhs for r in trs.rules] + [r.lhs for r in trs.rules]
    for sort in trs.signature.sorts:
        probes.extend(random_term(trs.signature, sort, rng, PROBE_DEPTH)
                      for _ in range(PROBE_SIZE))
    return judge(failures, critical_pairs(trs), lambda cp: joinable(cp.left, cp.right, trs),
                 lambda t: normal_form(t, trs), probes, render_term, assume_terminating)


@memoised("certify")
def _report(check, system) -> CompletenessReport:
    return check(system)


def certify(system, need_reduced: bool = True, check=check_complete) -> CompletenessReport:
    """The ``check`` report on ``system``, memoised per check under ``certify``;
    raises ``CompletenessError`` with its failed parts unless the system
    is complete, and reduced too if ``need_reduced``."""
    report = _report(check, system)
    if not (report.certified if need_reduced else report.complete):
        failed = [line.strip() for line in report.lines()[:-1]  # failed checks, their details
                  if "FAILED" in line or line.startswith(" ")]
        raise CompletenessError(f"system is not certified {'reduced ' if need_reduced else ''}"
                                "complete: " + "; ".join(failed), report)
    return report


def reduce_trs(trs: Trs) -> Trs:
    """Equivalent reduced system: normalize right-hand sides, then drop
    every rule whose left-hand side the remaining rules already reduce."""
    certify(trs, need_reduced=False)
    stage_two = trs.with_rules(tuple(
        Rule(r.name, r.lhs, normal_form(r.rhs, trs)) for r in trs.rules))
    return trs.with_rules(tuple(
        r for r in stage_two.rules if is_irreducible(r.lhs, without(stage_two, r))))


def degree(trs: Trs) -> int:
    """gcd of all per-variable occurrence-count changes across the rules.

    Variables outside a rule's left side occur zero times on both sides
    and cannot change the gcd, so only left-side variables are scanned.
    An empty or all-zero multiset has gcd 0.
    """
    return gcd(*(abs(var_count(rule.lhs, v.name) - var_count(rule.rhs, v.name))
                 for rule in trs.rules for v in variables(rule.lhs)))


def op_morphism(sig: Signature, name: str) -> Morphism:
    """The canonical morphism applying one operation to fresh variables."""
    ctx = canonical_context(sig.arg_sorts(name))
    term = sig.app(name, *(Var(n, s) for n, s in ctx))
    return Morphism.derived(ctx, (term,))

