"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them) and enforcing its stated tolerance, exactness and runtime."""

import functools
import random
import time

from eqhom.chains import Cell, enumerate_chains
from eqhom.coeff import expand_derivative, multiply
from eqhom.homology import boundary_matrices, homology_group, smith_normal_form
from eqhom.monoid import enumerate_word_chains, monoid_homology
from eqhom.morse import classify, morse_differential, normalized_boundary
from eqhom.parser import parse_presentation
from eqhom.rewrite import check_complete, degree, normal_form, random_term, reduce_trs
from eqhom.terms import (
    Morphism,
    Signature,
    Var,
    identity,
    substitute,
    var_count,
    variables,
)
from eqhom.unify import match_term, mgu

from conftest import signed_monomial_count, vanishes


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            print(f"criterion {number} ({label}): PASS")

        return run

    return wrap


@criterion(1, "chain correspondence")
def test_chain_correspondence(ab_trs, group_trs):
    start = time.perf_counter()
    for trs in (ab_trs, group_trs):
        chains = enumerate_chains(trs, 2)
        assert len(chains[0]) == len(trs.signature.sorts)
        assert len(chains[1]) == len(trs.signature.ops)
        assert len(chains[2]) == len(trs.rules)
    assert time.perf_counter() - start < 1.0


def _tau_cells(trs):
    sig = trs.signature
    x1 = Var("x1", "X")
    plus_m = Morphism((("x1", "X"), ("x2", "X")),
                      (sig.app("plus", x1, Var("x2", "X")),))
    zero = sig.app("zero")
    tau1 = Cell("X", (plus_m, Morphism((("x1", "X"),), (x1, zero)),
                      Morphism((), (zero,))))
    tau2 = Cell("X", (plus_m, Morphism((("x1", "X"),), (zero, x1)),
                      Morphism((), (zero,))))
    partner = Cell("X", (plus_m, Morphism((), (zero, zero))))
    return tau1, tau2, partner


@criterion(2, "3-chain discrimination and the matched edge")
def test_tau_discrimination(ab_trs):
    start = time.perf_counter()
    tau1, tau2, partner = _tau_cells(ab_trs)
    dim3 = enumerate_chains(ab_trs, 3)[3]
    assert tau1 in dim3
    assert tau2 not in dim3
    cls = classify(tau2, ab_trs)
    assert cls.kind == "collapsible" and cls.partner == partner
    assert time.perf_counter() - start < 1.0


@criterion(3, "group axiom lower bound over F2")
def test_group_lower_bound(group_trs):
    start = time.perf_counter()
    report = check_complete(group_trs)
    assert report.certified, "the tool's own check must certify the fixture"
    d = degree(group_trs)
    assert d == 2
    chains = enumerate_chains(group_trs, 3)
    counts = {k: len(v) for k, v in chains.items()}
    mats = boundary_matrices(group_trs, chains, 3, d)
    H = {n: homology_group(mats, n, d, counts) for n in range(3)}
    assert H[2].generators - H[1].rank + H[0].rank == 0
    assert time.perf_counter() - start < 300.0


def _dd_zero(trs, max_dim, d):
    chains = enumerate_chains(trs, max_dim)
    for n in range(2, max_dim + 1):
        for cell in chains[n]:
            sym_acc, cnt_acc = {}, {}
            for mid, c1 in morse_differential(cell, trs, "symbolic").items():
                if mid.dim == 0:
                    continue
                for tgt, c2 in morse_differential(mid, trs, "symbolic").items():
                    prod = multiply(c1, c2, trs)
                    sym_acc[tgt] = sym_acc[tgt] + prod if tgt in sym_acc else prod
            for mid, c1 in morse_differential(cell, trs, "count").items():
                if mid.dim == 0:
                    continue
                for tgt, c2 in morse_differential(mid, trs, "count").items():
                    cnt_acc[tgt] = cnt_acc.get(tgt, 0) + c1 * c2
            assert all(vanishes(e, d) for e in sym_acc.values()), (cell, sym_acc)
            assert all((v if d == 0 else v % d) == 0 for v in cnt_acc.values())


@criterion(4, "the collapsed differential squares to zero")
def test_dd_zero(ab_trs, group_trs):
    _dd_zero(ab_trs, 4, 0)
    _dd_zero(group_trs, 3, 2)


def _boundary_reachable(trs, max_dim):
    seen = set()
    chains = enumerate_chains(trs, max_dim)
    frontier = [c for n in range(1, max_dim + 1) for c in chains[n]]
    while frontier:
        cell = frontier.pop()
        if cell in seen or cell.dim == 0:
            continue
        seen.add(cell)
        for face in normalized_boundary(cell, trs, "count"):
            frontier.append(face)
        cls = classify(cell, trs)
        if cls.partner is not None:
            frontier.append(cls.partner)
    return seen


@criterion(5, "matching certification")
def test_matching_certification(ab_trs, group_trs):
    violations = []
    for trs, maxd in ((ab_trs, 4), (group_trs, 3)):
        for cell in _boundary_reachable(trs, maxd):
            cls = classify(cell, trs)  # raises on any trichotomy failure
            if cls.kind == "critical":
                continue
            if cls.epsilon not in (1, -1):
                violations.append((cell, "epsilon"))
            back = classify(cls.partner, trs)
            if back.partner != cell or back.kind == cls.kind:
                violations.append((cell, "involution"))
    assert violations == []


@criterion(6, "mode coherence")
def test_mode_coherence(ab_trs, group_trs):
    for trs, maxd, d in ((ab_trs, 4, 0), (group_trs, 3, 2)):
        chains = enumerate_chains(trs, maxd)
        for n in range(1, maxd + 1):
            for cell in chains[n]:
                count = morse_differential(cell, trs, "count")
                sym = morse_differential(cell, trs, "symbolic")
                for tgt in set(count) | set(sym):
                    c = count.get(tgt, 0)
                    s = signed_monomial_count(sym.get(tgt, {}), d)
                    assert s == (c if d == 0 else c % d), (cell, tgt)


@criterion(7, "derivative monomial counts")
def test_kappa_counts(ab_trs):
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        t = random_term(ab_trs.signature, "X", rng, 4)
        vs = variables(t)
        if not vs:
            continue
        checked += 1
        tm = Morphism(tuple((v.name, v.sort) for v in vs), (t,))
        i = rng.randrange(1, len(vs) + 1)
        elem = expand_derivative(i, tm, identity(tm.context), ab_trs)
        assert signed_monomial_count(elem, 0) == var_count(t, vs[i - 1].name)


@criterion(8, "exhaustive most-general-unifier check")
def test_mgu_exhaustive():
    sig = Signature(("X",), (("s", ("X",), "X"), ("c", (), "X")))
    base = [Var("x", "X"), Var("y", "X"), sig.app("c")]
    d1 = [sig.app("s", t) for t in base]
    d2 = [sig.app("s", t) for t in d1]
    terms = base + d1 + d2  # every term of depth <= 2 over two variables
    for t in terms:
        for s in terms:
            uni = mgu(t, s)
            shared = []
            for v in variables(t) + variables(s):
                if v.name not in shared:
                    shared.append(v.name)
            brute = []
            for combo in range(len(terms) ** len(shared)):
                k = combo
                sigma = {}
                for name in shared:
                    sigma[name] = terms[k % len(terms)]
                    k //= len(terms)
                if substitute(t, sigma) == substitute(s, sigma):
                    brute.append(sigma)
            if uni is None:
                assert brute == [], (t, s, brute[:1])
                continue
            # the returned mgu is a unifier
            lt = {v.name: img for v, img in zip(variables(t), uni.left.terms)}
            rs = {v.name: img for v, img in zip(variables(s), uni.right.terms)}
            assert substitute(t, lt) == substitute(s, rs) == uni.unified.terms[0]
            # and every brute-force unifier factors through it
            for sigma in brute:
                u = match_term(uni.unified.terms[0], substitute(t, sigma))
                assert u is not None, (t, s, sigma)
                for v, img in zip(variables(t), uni.left.terms):
                    assert substitute(img, u) == sigma[v.name]
                for v, img in zip(variables(s), uni.right.terms):
                    assert substitute(img, u) == sigma[v.name]


@criterion(9, "reduction of a complete system")
def test_reduce_semantics(unreduced_trs):
    got = reduce_trs(unreduced_trs)
    # reduced by definition
    from eqhom.rewrite import Trs, is_irreducible

    for rule in got.rules:
        rest = Trs(got.signature, tuple(r for r in got.rules if r is not rule))
        assert is_irreducible(rule.lhs, rest)
        assert is_irreducible(rule.rhs, got)
    # same normal forms on 100 random terms
    rng = random.Random(99)
    for _ in range(100):
        t = random_term(unreduced_trs.signature, "X", rng, 4)
        assert normal_form(t, unreduced_trs) == normal_form(t, got)


@criterion(10, "monoid engine against the bar-complex oracle")
def test_monoid_engine(z2_srs):
    start = time.perf_counter()
    chains = enumerate_word_chains(z2_srs, 6)
    for n in range(7):
        assert len(chains[n]) == 1
    H = monoid_homology(z2_srs, 4)
    oracle = _z2_bar_oracle(4)
    expect = {0: (1, ()), 1: (0, (2,)), 2: (0, ()), 3: (0, (2,)), 4: (0, ())}
    for n in range(5):
        assert (H[n].rank, H[n].torsion) == oracle[n] == expect[n]
    assert time.perf_counter() - start < 1.0


def _z2_bar_oracle(max_dim):
    """Homology of the two-element monoid from its full normalized bar
    complex: one cell per dimension, boundary read off the face maps."""
    mult = {("a", "a"): "e"}
    mats = {}
    for n in range(1, max_dim + 2):
        entry = 1  # the action face: a . (a,...,a)
        for j in range(1, n):
            if mult[("a", "a")] != "e":
                entry += (-1) ** j
        entry += (-1) ** n  # the dropped-tail face
        mats[n] = [[entry]]
    out = {}
    for n in range(max_dim + 1):
        below = mats.get(n)
        above = mats.get(n + 1)
        rank_below = smith_normal_form(below)[1] if n and below else 0
        factors, rank_above = smith_normal_form(above) if above else ([], 0)
        kernel = 1 - rank_below
        out[n] = (kernel - rank_above, tuple(f for f in factors if f > 1))
    return out


@criterion(11, "rule order does not change homology")
def test_rule_order_robustness(ab_trs, data_dir):
    text = (data_dir / "abelian_unit.lwv").read_text() + "order r2 r1\n"
    flipped = parse_presentation(text)
    results = []
    for trs in (ab_trs, flipped):
        chains = enumerate_chains(trs, 4)
        counts = {k: len(v) for k, v in chains.items()}
        mats = boundary_matrices(trs, chains, 4, 0)
        results.append([
            (homology_group(mats, n, 0, counts).rank,
             homology_group(mats, n, 0, counts).torsion)
            for n in range(4)
        ])
    assert results[0] == results[1]
