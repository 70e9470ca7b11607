import random

import pytest

from eqhom.coeff import (
    Monomial,
    RingoidElement,
    expand_derivative,
    multiply,
    star,
)
from eqhom.rewrite import normal_form, random_term
from eqhom.terms import (
    Morphism,
    TermError,
    Var,
    canonical_context,
    compose_raw,
    identity,
    substitute,
    variables,
)

from conftest import signed_monomial_count, tail_counts, vanishes

X = "X"


def xv(name):
    return Var(name, X)


def term_morphism(trs, term):
    ctx = tuple((v.name, v.sort) for v in variables(term))
    return Morphism(ctx, (term,))


def id_for(m):
    return identity(m.context)


def test_derivative_of_a_variable(ab_trs):
    tm = Morphism((("x1", X), ("x2", X)), (xv("x1"),))
    sub = id_for(tm)
    assert expand_derivative(1, tm, sub, ab_trs) == star(identity(sub.context))
    assert expand_derivative(2, tm, sub, ab_trs) == RingoidElement()


def test_a_variable_head_must_compose_with_its_subscript(ab_trs):
    # the head has no operation node: only composing the whole head with
    # the subscript sees that the subscript's codomain is one sort short
    tm = Morphism((("x1", X), ("x2", X)), (xv("x1"),))
    with pytest.raises(TermError, match="cannot compose"):
        expand_derivative(1, tm, identity((("x1", X),)), ab_trs)


def test_derivative_counts_occurrences(ab_trs):
    sig = ab_trs.signature
    tm = term_morphism(ab_trs, sig.app("plus", xv("x1"), xv("x1")))
    got = expand_derivative(1, tm, id_for(tm), ab_trs)
    assert signed_monomial_count(got, 0) == 2
    indices = sorted(idx for mono, _ in got.terms for (_, idx, _) in mono.factors)
    assert indices == [1, 2]
    for mono, c in got.terms:
        assert c == 1
        (_, _, sub) = mono.factors[0]
        assert sub.terms == (xv("x1"), xv("x1"))


def test_derivative_skips_other_argument(ab_trs):
    sig = ab_trs.signature
    tm = term_morphism(ab_trs, sig.app("plus", sig.app("zero"), xv("x1")))
    got = expand_derivative(1, tm, id_for(tm), ab_trs)
    assert signed_monomial_count(got, 0) == 1
    ((mono, c),) = got.terms
    assert c == 1 and len(mono.factors) == 1
    op, idx, sub = mono.factors[0]
    assert (op, idx) == ("plus", 2)
    assert sub.terms == (sig.app("zero"), xv("x1"))


def test_multiply_identity(ab_trs):
    sig = ab_trs.signature
    tm = term_morphism(ab_trs, sig.app("plus", xv("x1"), xv("x1")))
    a = expand_derivative(1, tm, id_for(tm), ab_trs)
    one = star(identity(tm.context))
    assert multiply(one, a, ab_trs) == a
    assert multiply(a, star(identity(tm.context)), ab_trs) == a


def test_tail_pushes_through_derivatives(ab_trs):
    # restricting first, then differentiating, composes the subscript
    sig = ab_trs.signature
    tm = term_morphism(ab_trs, sig.app("plus", xv("x1"), xv("x1")))
    alpha = Morphism((), (sig.app("zero"),))  # pick the constant
    lhs = multiply(star(alpha), expand_derivative(1, tm, id_for(tm), ab_trs), ab_trs)
    composed = Morphism((), (sig.app("zero"),))
    rhs = multiply(expand_derivative(1, tm, composed, ab_trs), star(alpha), ab_trs)
    assert lhs == rhs
    for mono, _ in lhs.terms:
        (_, _, sub) = mono.factors[0]
        assert sub.terms == (sig.app("zero"), sig.app("zero"))
        assert mono.tail.context == () and mono.tail.terms == (sig.app("zero"),)


def test_monomial_counts_multiply(ab_trs):
    sig = ab_trs.signature
    two = expand_derivative(
        1, term_morphism(ab_trs, sig.app("plus", xv("x1"), xv("x1"))),
        identity((("x1", X),)), ab_trs)
    three = expand_derivative(
        1, term_morphism(ab_trs, sig.app("plus", xv("x1"), sig.app("plus", xv("x1"), xv("x1")))),
        identity((("x1", X),)), ab_trs)
    prod = multiply(two, three, ab_trs)
    assert signed_monomial_count(two, 0) == 2
    assert signed_monomial_count(three, 0) == 3
    assert signed_monomial_count(prod, 0) == 6
    assert len(prod.terms) == 6  # distinct subscripts, no cancellation


def test_multiply_associative(ab_trs):
    sig = ab_trs.signature
    a = expand_derivative(
        1, term_morphism(ab_trs, sig.app("plus", xv("x1"), xv("x1"))),
        identity((("x1", X),)), ab_trs)
    b = expand_derivative(
        1, term_morphism(ab_trs, sig.app("plus", sig.app("zero"), xv("x1"))),
        identity((("x1", X),)), ab_trs)
    c = star(Morphism((("x1", X),), (sig.app("plus", xv("x1"), xv("x1")),)))
    left = multiply(multiply(a, b, ab_trs), c, ab_trs)
    right = multiply(a, multiply(b, c, ab_trs), ab_trs)
    assert left == right


def test_signed_count_examples(ab_trs):
    sig = ab_trs.signature
    two = expand_derivative(
        1, term_morphism(ab_trs, sig.app("plus", xv("x1"), xv("x1"))),
        identity((("x1", X),)), ab_trs)
    assert signed_monomial_count(two, 0) == 2
    assert signed_monomial_count(RingoidElement(), 0) == 0
    diff = two.terms[0][0], two.terms[1][0]
    elem = RingoidElement(((diff[0], 1), (diff[1], -1)))
    assert signed_monomial_count(elem, 0) == 0
    assert vanishes(elem, 0)  # same tail, counts cancel
    assert signed_monomial_count(two, 2) == 0


def test_count_law_random(ab_trs):
    from eqhom.terms import var_count

    rng = random.Random(41)
    for _ in range(60):
        t = random_term(ab_trs.signature, X, rng, 3)
        vs = variables(t)
        if not vs:
            continue
        tm = Morphism(tuple((v.name, v.sort) for v in vs), (t,))
        i = rng.randrange(1, len(vs) + 1)
        got = expand_derivative(i, tm, identity(tm.context), ab_trs)
        assert signed_monomial_count(got, 0) == var_count(t, vs[i - 1].name)


def test_tail_counts_group_by_tail(ab_trs):
    sig = ab_trs.signature
    a = star(Morphism((), (sig.app("zero"),)))
    b = star(Morphism((("x1", X),), (xv("x1"), sig.app("zero"))))
    elem = a + b + a
    counts = tail_counts(elem)
    assert sorted(counts.values()) == [1, 2]


def test_elements_are_formal_sums_independent_of_insertion_order(ab_trs):
    sig = ab_trs.signature
    two = expand_derivative(
        1, term_morphism(ab_trs, sig.app("plus", xv("x1"), xv("x1"))),
        identity((("x1", X),)), ab_trs)
    zero = star(Morphism((), (sig.app("zero"),)))
    (m1, _), (m2, _) = two.terms
    ((m3, _),) = zero.terms
    pairs = [(m1, 2), (m2, -1), (m3, 1), (m1, 1)]
    forward = RingoidElement.collect(pairs)
    backward = RingoidElement.collect(reversed(pairs))
    assert list(forward) != list(backward)  # the dicts differ in order only
    assert forward == backward and repr(forward) == repr(backward)
    assert forward.terms == backward.terms and dict(forward.terms) == {m1: 3, m2: -1, m3: 1}
    cancelled = forward + RingoidElement({m2: 1})
    assert m2 not in cancelled and cancelled == {m1: 3, m3: 1}
    assert isinstance(cancelled, RingoidElement)
    assert forward * 0 == RingoidElement() and not forward * 0 and repr(forward * 0) == "0"
    assert forward * -2 == {m1: -6, m2: 2, m3: -2}


# A reference ringoid by definition: every subscript and tail is put in
# normal form and its context renamed x1..xn by slot position, at every
# step.  The ringoid under test renames nothing: as in the engine, its
# contexts are x1..xn and what star restricts along is a normal form.

def positional_nf(m, trs):
    ctx = canonical_context(m.domain_sorts)
    renaming = {name: Var(*new) for (name, _), new in zip(m.context, ctx)}
    return Morphism(ctx, tuple(substitute(normal_form(t, trs), renaming) for t in m.terms))


def ref_star(alpha, trs):
    return RingoidElement({Monomial((), positional_nf(alpha, trs)): 1})


def ref_expand_derivative(i, tm, subscript, trs):
    target = tm.context[i - 1][0]
    tail = identity(canonical_context(subscript.domain_sorts))

    def rec(t):
        if isinstance(t, Var):
            return [()] if t.name == target else []
        sub = positional_nf(compose_raw(Morphism(tm.context, t.args), subscript), trs)
        return [((t.op, j, sub),) + rest for j, arg in enumerate(t.args, 1) for rest in rec(arg)]

    return RingoidElement.collect((Monomial(factors, tail), 1) for factors in rec(tm.term))


def ref_multiply(a, b, trs):
    def product(ma, mb):
        moved = tuple((op, idx, positional_nf(compose_raw(sub, ma.tail), trs))
                      for op, idx, sub in mb.factors)
        return Monomial(ma.factors + moved, positional_nf(compose_raw(mb.tail, ma.tail), trs))

    return RingoidElement.collect((product(ma, mb), ca * cb)
                                  for ma, ca in a.items() for mb, cb in b.items())


@pytest.mark.parametrize("fixture", ["ab_trs", "group_trs"])
def test_ringoid_agrees_with_the_positional_reference(request, fixture):
    trs = request.getfixturevalue(fixture)
    sig = trs.signature
    (sort,) = sig.sorts
    rng = random.Random(47)

    def context(k):  # the ringoid's constructors take x1..xk, as the engine builds them
        return canonical_context((sort,) * k)

    def morphism(k, n, depth):  # some slots may go unused
        pool = {sort: [name for name, _ in context(k)]}
        return Morphism(context(k),
                        tuple(random_term(sig, sort, rng, depth, pool) for _ in range(n)))

    def normal(m):  # star takes a normal form, as every cell entry is
        return Morphism(m.context, tuple(normal_form(t, trs) for t in m.terms))

    factors = 0
    for _ in range(40):
        n, k, j = (rng.randint(1, 3) for _ in range(3))
        tm, subscript = morphism(n, 1, 3), morphism(k, n, 2)
        alpha, beta = normal(morphism(j, k, 2)), normal(morphism(k, rng.randint(1, 3), 2))
        i = rng.randint(1, n)
        d = expand_derivative(i, tm, subscript, trs)
        ref_d = ref_expand_derivative(i, tm, subscript, trs)
        assert d == ref_d
        assert star(alpha) == ref_star(alpha, trs)
        assert star(beta) == ref_star(beta, trs)
        one = identity(context(k))
        for a, b, ref_a, ref_b in [
            (star(alpha), d, ref_star(alpha, trs), ref_d),
            (d, star(beta), ref_d, ref_star(beta, trs)),
            (d, d, ref_d, ref_d),
            (star(one), d, RingoidElement({Monomial((), one): 1}), ref_d),
        ]:
            got, want = multiply(a, b, trs), ref_multiply(ref_a, ref_b, trs)
            assert got == want and repr(got) == repr(want)
        factors += sum(len(m.factors) for m in d)
    assert factors > 0
