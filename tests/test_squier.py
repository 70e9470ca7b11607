"""Squier's low-dimensional resolution, read off the rules, as an oracle
for both engines' count matrices.

A complete rewriting system has one 2-chain per rule and one 3-chain per
critical branching (Squier, "Word problems and a homological finiteness
condition for monoids", JPAA 1987; Lafont, JPAA 1995; for terms, Malbos &
Mimram, FSCD 2016).  With every context sent to 1:

* d_2 of a rule's chain counts, per operation or letter, its occurrences
  in the left side minus those in the right side, modulo the degree;
* d_3 of a word chain (x, y, z) counts the rules along two reductions
  of the critical branching of ``x y z`` to its normal form: one path
  starts by rewriting the redex that ends ``x y``, the other the redex
  that ends ``x y z``, and each rule counts +1 on the first and -1 on
  the second.

Neither reads the collapse, so they check the lift and the routed term
engine from outside, entry for entry, up to one sign per chain.

d_3 depends on the paths.  Leftmost paths give the lift's rows on the
fixtures and the groups, but not on every finite monoid: in
``<a, b | a a -> a, a b a -> b a, b b a -> b a, b b b -> b, b a b b -> b a>``
the chain (b, ba, ba) reduces ``b b b a`` by ``b b b`` leftmost, while the
lift's contracting homotopy, which multiplies normal words, rewrites the
right end first.  Normalising from the right, letter by letter onto a
normal suffix, gives the lift's rows everywhere.
"""

import random
from collections import Counter
from pathlib import Path

import pytest

from eqhom.chains import composite, enumerate_chains
from eqhom.homology import boundary_matrices
from eqhom.monoid import Srs, SrsRule, certify_srs, enumerate_word_chains, word_boundary_matrices
from eqhom.parser import parse_presentation, parse_srs
from eqhom.rewrite import check_complete, degree
from eqhom.terms import App, subterms
from eqhom.unify import match_term

from conftest import as_unary_trs
from test_group_homology import GROUPS
from test_monoid import _reduce_from_scratch as leftmost, _shortlex_system

DATA = Path(__file__).parent / "data"
WORD_FIXTURES = sorted(DATA.glob("*.srs"))
TERM_FIXTURES = [p for p in sorted(DATA.glob("*.lwv"))
                 if check_complete(parse_presentation(p.read_text())).certified]


def _random_monoids(count=40, seed=31):
    """Distinct complete systems of random finite monoids on two maps
    (``test_monoid._shortlex_system``), at most eight elements each."""
    rng, seen = random.Random(seed), {}
    while len(seen) < count:
        k = rng.randint(2, 4)
        srs, elements, _, _ = _shortlex_system(
            *[tuple(rng.randrange(k) for _ in range(k)) for _ in range(2)])
        if len(elements) <= 8:
            seen.setdefault(srs.rules, srs)
    return list(seen.values())


RANDOM_MONOIDS = _random_monoids()


def _assert_rows_up_to_sign(matrix, expected, d=0):
    """Each row of ``matrix`` is ``expected[row]`` or its negative, mod ``d``."""
    assert len(matrix.rows) == len(expected)
    for cell, got in zip(matrix.rows, matrix.entries):
        want = [expected[cell].get(col, 0) for col in matrix.cols]
        signs = [[s * v % d if d else s * v for v in want] for s in (1, -1)]
        assert got in signs, (cell, got, want)


def _word_d2(srs):
    """Each 2-chain ``(x, v)`` is the rule with left side ``x v``."""
    by_lhs = {r.lhs: r for r in srs.rules}
    out = {}
    for x, v in enumerate_word_chains(srs, 2)[2]:
        rule = by_lhs[x + v]
        change = Counter(rule.lhs)
        change.subtract(rule.rhs)
        out[x, v] = {(a,): k for a, k in change.items()}
    return out


def _ops(term):
    return Counter(u.op for _, u in subterms(term) if isinstance(u, App))


def _term_d2(trs):
    """Each 2-chain composes to its rule's left side, which no other left
    side matches at the root in a reduced system."""
    chains = enumerate_chains(trs, 2)
    ops = {c.entries[0].terms[0].op: c for c in chains[1]}
    out = {}
    for cell in chains[2]:
        lhs = composite(cell.entries, trs).terms[0]
        [rule] = [r for r in trs.rules if match_term(r.lhs, lhs) is not None]
        change = _ops(rule.lhs)
        change.subtract(_ops(rule.rhs))
        out[cell] = {ops[op]: k for op, k in change.items() if op in ops}
    return out


def _assert_word_d2(srs):
    srs = Srs(srs.alphabet, srs.rules)  # cold memos
    chains = enumerate_word_chains(srs, 2)
    _assert_rows_up_to_sign(word_boundary_matrices(srs, chains, 2)[2], _word_d2(srs))


def _assert_term_d2(trs):
    d = degree(trs)
    matrix = boundary_matrices(trs, enumerate_chains(trs, 2), 2, d)[2]
    _assert_rows_up_to_sign(matrix, _term_d2(trs), d)


def from_the_right(w, srs, path):
    """Reduce ``w`` by putting its letters, last first, in front of a
    normal suffix, where a redex can only start at the front; a rewrite
    puts the right side's letters back.  Each rule used is counted in the
    Counter ``path``, as ``leftmost`` counts."""
    out, pending = "", list(w)
    while pending:
        out = pending.pop() + out
        rule = next((r for r in srs.rules if out.startswith(r.lhs)), None)
        if rule is not None:
            path[rule.name] += 1
            out = out[len(rule.lhs):]
            pending.extend(rule.rhs)
    return out


def _word_d3(srs, reduce):
    """The rules along the two reductions by ``reduce`` of each 3-chain's
    critical branching, +1 on the first path and -1 on the second."""
    by_lhs = {r.lhs: r for r in srs.rules}
    chain_of = {x + v: (x, v) for x, v in enumerate_word_chains(srs, 2)[2]}
    names = {r.name: chain_of[r.lhs] for r in srs.rules if r.lhs in chain_of}
    out = {}
    for x, y, z in enumerate_word_chains(srs, 3)[3]:
        w = x + y + z
        # the redex that ends x y starts at 0; the one that ends x y z, in y
        second = next(w[i:] for i in range(1, len(x + y)) if w[i:] in by_lhs)
        first_path, second_path = Counter(), Counter()
        first_path[by_lhs[x + y].name] += 1
        second_path[by_lhs[second].name] += 1
        left = reduce(by_lhs[x + y].rhs + z, srs, first_path)
        right = reduce(w[:-len(second)] + by_lhs[second].rhs, srs, second_path)
        assert left == right, (x, y, z)
        first_path.subtract(second_path)
        out[x, y, z] = {names[name]: k for name, k in first_path.items()}
    return out


def _assert_word_d3(srs, reduce):
    srs = Srs(srs.alphabet, srs.rules)
    chains = enumerate_word_chains(srs, 3)
    _assert_rows_up_to_sign(word_boundary_matrices(srs, chains, 3)[3], _word_d3(srs, reduce))


def test_the_oracles_read_a_known_system():
    # S3: s1 a a a ->, s2 b b ->, s3 b a -> a a b
    srs = parse_srs((DATA / "s3.srs").read_text())
    a, b = srs.alphabet
    assert _word_d2(srs) == {(a, a + a): {(a,): 3}, (b, b): {(b,): 2},
                             (b, a): {(a,): -1, (b,): 0}}
    # b b a -> a by s2 on one side; on the other b (b a) -> b a a b, then
    # leftmost -> a a b a b -> a a a a b b -> a b b -> a by s3, s3, s1, s2
    d3 = _word_d3(srs, leftmost)
    assert d3[b, b, a] == {(b, b): 0, (b, a): -3, (a, a + a): -1}
    assert len(d3) == len(enumerate_word_chains(srs, 3)[3])
    assert _word_d3(srs, from_the_right) == d3


@pytest.mark.parametrize("path", WORD_FIXTURES, ids=[p.name for p in WORD_FIXTURES])
def test_word_d2_is_squiers_on_the_fixtures(path):
    _assert_word_d2(parse_srs(path.read_text()))


@pytest.mark.parametrize("path", WORD_FIXTURES + TERM_FIXTURES,
                         ids=[p.name for p in WORD_FIXTURES + TERM_FIXTURES])
def test_term_d2_is_squiers_on_the_fixtures(path):
    text = path.read_text()
    _assert_term_d2(as_unary_trs(parse_srs(text)) if path.suffix == ".srs"
                    else parse_presentation(text))


def test_every_certifiable_term_fixture_is_covered():
    assert {p.name for p in TERM_FIXTURES} == {
        "abelian_unit.lwv", "group.lwv", "involution.lwv", "involution3.lwv", "two_sorted.lwv"}


@pytest.mark.parametrize("name", GROUPS)
def test_d2_is_squiers_on_groups(name):
    srs = GROUPS[name][0]
    _assert_word_d2(srs)
    _assert_term_d2(as_unary_trs(srs))


def test_d2_is_squiers_on_random_finite_monoids():
    for srs in RANDOM_MONOIDS:
        _assert_word_d2(srs)
        _assert_term_d2(as_unary_trs(srs))


@pytest.mark.parametrize("reduce", [leftmost, from_the_right], ids=["leftmost", "from_the_right"])
@pytest.mark.parametrize("path", WORD_FIXTURES, ids=[p.name for p in WORD_FIXTURES])
def test_word_d3_is_squiers_on_the_fixtures(path, reduce):
    _assert_word_d3(parse_srs(path.read_text()), reduce)


@pytest.mark.parametrize("reduce", [leftmost, from_the_right], ids=["leftmost", "from_the_right"])
@pytest.mark.parametrize("name", GROUPS)
def test_word_d3_is_squiers_on_groups(name, reduce):
    _assert_word_d3(GROUPS[name][0], reduce)


def test_word_d3_is_squiers_on_random_finite_monoids():
    for srs in RANDOM_MONOIDS:
        _assert_word_d3(srs, from_the_right)


def test_leftmost_paths_are_not_the_lifts_on_every_monoid():
    srs = Srs(("a", "b"), tuple(SrsRule(f"r{k}", lhs, rhs) for k, (lhs, rhs) in enumerate(
        [("aa", "a"), ("aba", "ba"), ("bba", "ba"), ("bbb", "b"), ("babb", "ba")])))
    assert certify_srs(srs).certified
    assert _word_d3(srs, leftmost)["b", "ba", "ba"] == {("b", "ba"): 2, ("a", "ba"): 0,
                                                         ("b", "bb"): -1}
    assert _word_d3(srs, from_the_right)["b", "ba", "ba"] == {("b", "ba"): 0, ("a", "ba"): 0}
    _assert_word_d3(srs, from_the_right)
