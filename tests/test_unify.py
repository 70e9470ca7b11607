import random
import sys

from eqhom.terms import (
    App,
    Morphism,
    Signature,
    Var,
    canonicalize,
    substitute,
    subterms,
    variables,
)
from eqhom.unify import match_term, mgu, unify_terms


def canonical_morphism(m):
    return canonicalize(m.context, m.terms)[0]


SIG = Signature(("X",), (("plus", ("X", "X"), "X"), ("zero", (), "X")))
ZERO = SIG.app("zero")


def generalized_subterm_occurrences(tp, t):
    """All positions of ``t`` where an instance of ``tp`` occurs, with the
    matching substitution: a reference for the rewrite engine's redex
    search."""
    out = []
    for p, sub in subterms(t):
        if sub.sort == tp.sort:
            sigma = match_term(tp, sub)
            if sigma is not None:
                out.append((p, sigma))
    return out


def x(name):
    return Var(name, "X")


def plus(a, b):
    return SIG.app("plus", a, b)


def test_match_examples():
    got = match_term(plus(x("x"), ZERO), plus(plus(x("y"), x("z")), ZERO))
    assert got == {"x": plus(x("y"), x("z"))}
    t = plus(ZERO, ZERO)
    assert match_term(x("x"), t) == {"x": t}
    assert match_term(plus(x("x"), x("x")), plus(x("y"), x("z"))) is None


def test_match_nonlinear_success():
    assert match_term(plus(x("x"), x("x")), plus(ZERO, ZERO)) == {"x": ZERO}


def test_mgu_example():
    uni = mgu(plus(x("x"), ZERO), plus(ZERO, x("y")))
    assert uni is not None
    assert uni.unified.terms[0] == plus(ZERO, ZERO)
    assert uni.left.terms == (ZERO,)   # x -> 0
    assert uni.right.terms == (ZERO,)  # y -> 0


def test_mgu_identity_on_equal_linear_terms():
    t = plus(x("x"), x("y"))
    uni = mgu(t, t)
    assert uni is not None
    assert uni.left.terms == uni.right.terms == tuple(
        Var(n, s) for n, s in uni.unified.context
    )


def test_mgu_occurs_check():
    assert mgu(x("x"), plus(x("x"), ZERO)) is None
    assert mgu(x("x"), plus(x("y"), x("x"))) is None


def _rand(rng, depth, pool):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([x(n) for n in pool] + [ZERO])
    return plus(_rand(rng, depth - 1, pool), _rand(rng, depth - 1, pool))


def test_mgu_soundness_random():
    rng = random.Random(11)
    hits = 0
    for _ in range(400):
        t = _rand(rng, 2, ["x", "y"])
        s = _rand(rng, 2, ["x", "y"])
        uni = mgu(t, s)
        if uni is None:
            continue
        hits += 1
        lt = {v.name: img for v, img in zip(variables(t), uni.left.terms)}
        rs = {v.name: img for v, img in zip(variables(s), uni.right.terms)}
        assert substitute(t, lt) == substitute(s, rs) == uni.unified.terms[0]
        # the unified term is essential in canonical form
        assert canonical_morphism(uni.unified) == uni.unified
    assert hits > 50


def _enumerate_terms(depth, pool):
    out = [x(n) for n in pool] + [ZERO]
    layer = out[:]
    for _ in range(depth):
        layer = [plus(a, b) for a in layer for b in out[:3]]
        out.extend(layer)
    return out


def test_mgu_most_general_small_scale():
    # variable names are shared between the two sides, so a brute-force
    # unifier is a single substitution making the terms equal
    rng = random.Random(5)
    images = _enumerate_terms(1, ["u"])
    for _ in range(120):
        t = _rand(rng, 2, ["x", "y"])
        s = _rand(rng, 2, ["x", "y"])
        uni = mgu(t, s)
        shared = []
        for v in variables(t) + variables(s):
            if v.name not in shared:
                shared.append(v.name)
        tv = [v.name for v in variables(t)]
        sv = [v.name for v in variables(s)]
        for combo in range(len(images) ** len(shared)):
            k = combo
            sigma = {}
            for name in shared:
                sigma[name] = images[k % len(images)]
                k //= len(images)
            if substitute(t, sigma) != substitute(s, sigma):
                continue
            assert uni is not None, (t, s, sigma)
            # the brute unifier factors through the mgu
            u = match_term(uni.unified.terms[0], substitute(t, sigma))
            assert u is not None
            for name, img in zip(tv, uni.left.terms):
                assert substitute(img, u) == sigma[name]
            for name, img in zip(sv, uni.right.terms):
                assert substitute(img, u) == sigma[name]


def test_match_is_retract_of_mgu():
    rng = random.Random(23)
    for _ in range(200):
        p = _rand(rng, 2, ["x", "y"])
        s = _rand(rng, 2, ["a", "b"])
        sigma = match_term(p, s)
        if sigma is None:
            continue
        uni = mgu(p, s)
        assert uni is not None
        assert canonical_morphism(
            Morphism(tuple((v.name, v.sort) for v in variables(s)), (s,))
        ) == uni.unified


def test_generalized_subterm_occurrences():
    pat = plus(x("x"), ZERO)
    t = plus(plus(x("x"), ZERO), ZERO)
    got = generalized_subterm_occurrences(pat, t)
    assert got == [((), {"x": plus(x("x"), ZERO)}), ((1,), {"x": x("x")})]
    assert generalized_subterm_occurrences(t, t)[0] == ((), {"x": x("x")})
    assert generalized_subterm_occurrences(plus(ZERO, x("x")), plus(x("x"), ZERO)) == []


def test_unify_terms_resolves_images_past_the_recursion_limit():
    depth = 3000
    assert depth > sys.getrecursionlimit()
    c = App("c", (), "X")

    def nest(leaf):
        for _ in range(depth):
            leaf = App("f", (leaf,), "X")
        return leaf

    # x is bound to f^depth(y) before y is bound to c: resolving x walks the whole image
    t, s = App("h", (x("x"), x("y")), "X"), App("h", (nest(x("y")), c), "X")
    for left, right in ((t, s), (s, t)):
        assert unify_terms(left, right) == {"x": nest(c), "y": c}
    assert unify_terms(nest(x("x")), nest(nest(x("x")))) is None  # the occurs check
