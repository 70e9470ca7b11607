import hashlib
import random
import sys

import pytest

from eqhom.parser import parse_presentation
from eqhom.rewrite import (
    BudgetExceeded,
    Rule,
    Trs,
    check_complete,
    critical_pairs,
    degree,
    is_irreducible,
    normal_form,
    random_term,
    reduce_trs,
    rewrite_steps,
)
from eqhom.terms import Signature, TermError, Var, subterms

SIG = Signature(("X",), (("plus", ("X", "X"), "X"), ("zero", (), "X")))
ZERO = SIG.app("zero")


def x(name="x"):
    return Var(name, "X")


def plus(a, b):
    return SIG.app("plus", a, b)


def ab():
    return Trs(SIG, (
        Rule("r1", plus(x(), ZERO), x()),
        Rule("r2", plus(ZERO, x()), x()),
    ))


def test_rule_validation():
    with pytest.raises(TermError):
        Rule("bad", x(), x())  # variable left-hand side
    with pytest.raises(TermError):
        Rule("bad", plus(x(), ZERO), x("y"))  # free right-hand variable


def test_rewrite_steps_examples():
    trs = ab()
    steps = rewrite_steps(plus(ZERO, ZERO), trs)
    assert len(steps) == 2 and all(t == ZERO for _, _, t in steps)
    assert rewrite_steps(x(), trs) == []
    t = plus(plus(x(), ZERO), ZERO)
    got = {(r.name, p) for r, p, _ in rewrite_steps(t, trs)}
    assert got == {("r1", ()), ("r1", (1,))}


def test_normal_form_examples():
    trs = ab()
    assert normal_form(plus(ZERO, ZERO), trs) == ZERO
    t = plus(x("a"), x("b"))
    assert normal_form(t, trs) == t
    assert normal_form(plus(plus(ZERO, ZERO), ZERO), trs) == ZERO


def test_critical_pairs_unit_overlap():
    trs = ab()
    cps = critical_pairs(trs)
    # ordered root overlaps r1/r2 and r2/r1, both reducing 0+0 two ways
    assert len(cps) == 2
    for cp in cps:
        assert cp.left == ZERO and cp.right == ZERO


def test_critical_pairs_single_rule_no_overlap():
    sig = Signature(("X",), (("f", ("X",), "X"),))
    trs = Trs(sig, (Rule("r", sig.app("f", x()), x()),))
    assert critical_pairs(trs) == []


# count and sha256 of ``repr(critical_pairs(trs))`` per fixture: any change
# to an overlap, its position or its two reducts shows here
PINNED_CRITICAL_PAIRS = [
    ("abelian_unit.lwv", 2, "c0be156ec1def42a17f02f4236b161cce0e1b12e3253bc26d5f270b36060a1e1"),
    ("group.lwv", 55, "492d623a6f13240e50a8766c1c7e5a7cfdec80fbea810e0b678bede183a1f585"),
    ("involution.lwv", 1, "03808946b8dbc2aa91bfffae74a66a57804ff13194a60d0e0a85903b10032b95"),
    ("involution3.lwv", 3, "6c7964125184de07ca6ce5685834ea80be5139cf3e606f44ae1bc8b1d206ac49"),
    ("two_sorted.lwv", 2, "e01293a73716d5cb8c1ea774a75c9c61b499e80eb6b9ba8b41f923e223a65cd6"),
    ("unreduced.lwv", 6, "758a8e0a502a454f5a8ff9900899413ce1e8e0cb489ab34d2005ed775312394a"),
]


@pytest.mark.parametrize("name, count, digest", PINNED_CRITICAL_PAIRS,
                         ids=[name for name, _, _ in PINNED_CRITICAL_PAIRS])
def test_critical_pairs_match_their_pinned_digest(data_dir, name, count, digest):
    cps = critical_pairs(parse_presentation((data_dir / name).read_text()))
    assert len(cps) == count
    assert hashlib.sha256(repr(cps).encode()).hexdigest() == digest


def test_every_fixture_has_pinned_critical_pairs(data_dir):
    assert sorted(p.name for p in data_dir.glob("*.lwv")) == [
        name for name, _, _ in PINNED_CRITICAL_PAIRS]


def test_check_complete_abelian(ab_trs):
    rep = check_complete(ab_trs)
    assert rep.reduced and rep.locally_confluent and rep.termination_probe_ok
    assert rep.certified


def test_check_complete_self_loop():
    sig = Signature(("X",), (("f", ("X",), "X"), ("c", (), "X")))
    trs = Trs(sig, (Rule("loop", sig.app("f", x()), sig.app("f", x())),), step_budget=200)
    rep = check_complete(trs)
    assert not rep.termination_probe_ok
    assert rep.budget_exceeded


def test_check_complete_group(group_trs):
    rep = check_complete(group_trs)
    assert rep.reduced and rep.locally_confluent and rep.termination_probe_ok
    assert len(critical_pairs(group_trs)) > 0


def test_reduce_trs_already_reduced(ab_trs):
    assert reduce_trs(ab_trs) == ab_trs


def test_reduce_trs_normalizes_right_sides():
    sig = Signature(("X",), (("f", ("X",), "X"), ("g", ("X",), "X")))
    f, g = (lambda t: sig.app("f", t)), (lambda t: sig.app("g", t))
    trs = Trs(sig, (Rule("a", f(x()), g(x())), Rule("b", g(x()), x())))
    got = reduce_trs(trs)
    assert [(r.lhs, r.rhs) for r in got.rules] == [(f(x()), x()), (g(x()), x())]


def test_reduce_trs_drops_subsumed_rules():
    sig = Signature(("X",), (("f", ("X",), "X"),))
    f = lambda t: sig.app("f", t)
    trs = Trs(sig, (Rule("a", f(x()), x()), Rule("b", f(f(x())), x())))
    got = reduce_trs(trs)
    assert [r.name for r in got.rules] == ["a"]


def test_reduce_trs_fixture(unreduced_trs):
    got = reduce_trs(unreduced_trs)
    assert [r.name for r in got.rules] == ["r1", "r2", "r3"]
    r3 = got.rules[2]
    assert r3.rhs == x()
    rep = check_complete(got)
    assert rep.reduced


def test_reduce_trs_preserves_normal_forms(unreduced_trs):
    got = reduce_trs(unreduced_trs)
    rng = random.Random(17)
    for _ in range(100):
        t = random_term(unreduced_trs.signature, "X", rng, 4)
        assert normal_form(t, unreduced_trs) == normal_form(t, got)


def test_degree_examples(ab_trs, group_trs):
    assert degree(ab_trs) == 0
    assert degree(group_trs) == 2
    sig = Signature(("X",), (("f", ("X",), "X"), ("g", ("X", "X", "X"), "X")))
    trs = Trs(sig, (Rule("r", sig.app("f", x()), sig.app("g", x(), x(), x())),))
    assert degree(trs) == 2


def test_degree_divides_every_difference(group_trs):
    from eqhom.terms import var_count, variables

    d = degree(group_trs)
    for rule in group_trs.rules:
        for v in variables(rule.lhs):
            diff = abs(var_count(rule.lhs, v.name) - var_count(rule.rhs, v.name))
            assert diff % d == 0


def _all_normal_forms(t, trs, cap=2000):
    seen = {t}
    frontier = [t]
    ends = set()
    while frontier and len(seen) < cap:
        u = frontier.pop()
        steps = rewrite_steps(u, trs)
        if not steps:
            ends.add(u)
            continue
        for _, _, v in steps:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return ends


def test_confluence_consequence_random(ab_trs, group_trs):
    rng = random.Random(29)
    for trs, sort in ((ab_trs, "X"), (group_trs, "G")):
        for _ in range(40):
            t = random_term(trs.signature, sort, rng, 4)
            ends = _all_normal_forms(t, trs)
            assert len(ends) == 1
            assert ends == {normal_form(t, trs)}


def test_the_nf_memo_maps_every_term_it_holds_to_its_normal_form(group_trs):
    rng = random.Random(34)
    sig, rules = group_trs.signature, group_trs.rules
    trs = Trs(sig, rules)
    terms = [random_term(sig, "G", rng, 5) for _ in range(200)]
    for t in terms:
        normal_form(t, trs)
    memo = trs.cache("nf")
    # reducible proper subterms are recorded as they are normalised, not only the roots
    inner = {u for t in terms for p, u in subterms(t) if p} - set(terms)
    assert any(memo[u] is not u for u in inner & memo.keys())
    for t, nf in memo.items():
        assert nf is normal_form(t, Trs(sig, rules))
        assert is_irreducible(nf, trs) and memo.get(nf) is nf


def test_rewrite_steps_agree_with_generalized_subterms(ab_trs):
    from test_unify import generalized_subterm_occurrences

    rng = random.Random(31)
    for _ in range(60):
        t = random_term(ab_trs.signature, "X", rng, 4)
        by_steps = {(r.name, p) for r, p, _ in rewrite_steps(t, ab_trs)}
        by_match = {
            (rule.name, p)
            for rule in ab_trs.rules
            for p, _ in generalized_subterm_occurrences(rule.lhs, t)
        }
        assert by_steps == by_match


def test_budget_exceeded_signals():
    sig = Signature(("X",), (("f", ("X",), "X"), ("c", (), "X")))
    trs = Trs(sig, (Rule("loop", sig.app("f", x()), sig.app("f", x())),), step_budget=10)
    with pytest.raises(BudgetExceeded):
        normal_form(sig.app("f", sig.app("c")), trs)
    assert is_irreducible(sig.app("c"), trs)


BINARY_DOUBLING = """\
sorts N
op z : -> N
op s : N -> N
op d : N -> N
op e : N -> N
var x : N
rule d0 : d(z) -> z
rule d1 : d(s(x)) -> s(s(d(x)))
rule e0 : e(z) -> s(z)
rule e1 : e(s(x)) -> d(e(x))
budget steps 100000
"""


def test_normal_form_of_a_term_deeper_than_the_recursion_limit():
    # e(s^n(z)) reduces to s^(2^n)(z); hashing the result to store it
    # in the memo must not recurse once per level
    trs = parse_presentation(BINARY_DOUBLING)
    sig = trs.signature
    t = sig.app("z")
    for _ in range(11):
        t = sig.app("s", t)
    got = normal_form(sig.app("e", t), trs)
    depth = 0
    while got.op == "s":
        got, depth = got.args[0], depth + 1
    assert (got.op, depth) == ("z", 2048)
    assert 2048 > sys.getrecursionlimit()


def test_system_equality_ignores_caches_but_not_term_budgets(ab_trs, group_trs, z2_srs):
    from eqhom.monoid import Srs

    sig, rules = ab_trs.signature, ab_trs.rules
    used, fresh = Trs(sig, rules), Trs(sig, rules)
    normal_form(plus(ZERO, ZERO), used)
    assert used.caches and not fresh.caches
    assert used == fresh and hash(used) == hash(fresh)
    assert fresh != group_trs
    assert Trs(sig, rules[::-1]) != fresh  # rule order matters
    assert Trs(sig, rules, step_budget=fresh.step_budget + 1) != fresh
    assert Trs(sig, rules, join_budget=fresh.join_budget + 1) != fresh

    used, fresh = Srs(z2_srs.alphabet, z2_srs.rules), Srs(z2_srs.alphabet, z2_srs.rules)
    used.cache("nf")
    assert used.caches and not fresh.caches
    assert used == fresh and hash(used) == hash(fresh)
    assert Srs(z2_srs.alphabet, ()) != fresh
