import random
import sys
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eqhom import collapse, monoid
from eqhom.chains import enumerate_chains
from eqhom.homology import boundary_matrices, homology_group, homology_groups, smith_normal_form
from eqhom.monoid import (
    Srs,
    SrsRule,
    _Words,
    anick_differential,
    certify_srs,
    chain_tails,
    check_complete_srs,
    classify_word_cell,
    enumerate_word_chains,
    is_irreducible_word,
    monoid_homology,
    reduce_word,
    word_boundary,
    word_boundary_matrices,
    word_morse_differential,
)
from eqhom.parser import parse_srs
from eqhom.rewrite import BudgetExceeded, CompletenessError, check_complete

from conftest import as_unary_trs, routed_word_matrices, verify_matching
from test_group_homology import GROUPS

A = "a"


def nat2():
    # the free commutative monoid on two letters, oriented b a -> a b
    return Srs(("a", "b"), (SrsRule("c", "ba", "ab"),))


def test_certification(z2_srs):
    rep = check_complete_srs(z2_srs)
    assert rep.certified
    assert check_complete_srs(nat2()).certified


def test_reduce_word(z2_srs):
    assert reduce_word("aaa", z2_srs) == A
    assert reduce_word("aa", z2_srs) == ""
    assert reduce_word("", z2_srs) == ""


def test_one_chain_per_dimension(z2_srs):
    chains = enumerate_word_chains(z2_srs, 6)
    for n in range(7):
        assert len(chains[n]) == 1
        assert chains[n][0] == (A,) * n


def test_chain_counts_match_presentation(z2_srs):
    chains = enumerate_word_chains(z2_srs, 2)
    assert len(chains[1]) == len(z2_srs.alphabet)
    assert len(chains[2]) == len(z2_srs.rules)
    chains2 = enumerate_word_chains(nat2(), 2)
    assert len(chains2[1]) == 2
    assert len(chains2[2]) == 1 and chains2[2][0] == ("b", "a")


def test_boundary_and_differential_low_dimensions(z2_srs):
    assert word_morse_differential((A,), z2_srs) == {}
    assert word_morse_differential((A, A), z2_srs) == {(A,): 2}
    assert word_morse_differential((A, A, A), z2_srs) == {}
    bd = word_boundary((A, A), z2_srs)
    assert bd == {(A,): 2}  # the a.(a) face and the dropped-tail face add up


def test_dd_zero_through_dim_five(z2_srs):
    for srs in (z2_srs, nat2()):
        chains = enumerate_word_chains(srs, 5)
        for n in range(2, 6):
            for cell in chains[n]:
                acc = Counter()
                for mid, c1 in word_morse_differential(cell, srs).items():
                    for tgt, c2 in word_morse_differential(mid, srs).items():
                        acc[tgt] += c1 * c2
                assert not any(acc.values())


@pytest.mark.parametrize("ring", ["count"])
def test_a_missing_matched_coefficient_is_a_matching_error(data_dir, monkeypatch, ring):
    # every split partner loses its faces, so the router finds no matched
    # coefficient and the word engine's ring refuses it as a non-unit;
    # routing memoises under that ring's name
    srs = parse_srs((data_dir / "s3.srs").read_text())
    chains = enumerate_word_chains(srs, 3)
    original = monoid.word_boundary

    def chains_only(cell, srs):
        return original(cell, srs) if is_word_chain(cell, srs) else {}

    monkeypatch.setattr(monoid, "word_boundary", chains_only)
    with pytest.raises(collapse.MatchingError, match="coefficient None is not a unit"):
        for cell in chains[2] + chains[3]:
            word_morse_differential(cell, srs)
    assert _Words.ring.name == ring and "express_" + ring in srs.caches


def _bar_complex_oracle(elements, mult, identity, max_dim):
    """Matrices of the normalized bar complex of a finite monoid with
    trivial coefficients, built directly from the multiplication table."""
    nonunit = [g for g in elements if g != identity]
    cells = {0: [()]}
    for n in range(1, max_dim + 2):
        cells[n] = [c + (g,) for c in cells[n - 1] for g in nonunit]
    index = {n: {c: i for i, c in enumerate(cs)} for n, cs in cells.items()}
    mats = {}
    for n in range(1, max_dim + 2):
        rows = cells[n]
        entries = [[0] * len(cells[n - 1]) for _ in rows]
        for i, cell in enumerate(rows):
            entries[i][index[n - 1][cell[1:]]] += 1  # trivial action
            for j in range(1, n):
                prod = mult[cell[j - 1], cell[j]]
                if prod == identity:
                    continue
                face = cell[: j - 1] + (prod,) + cell[j + 1 :]
                entries[i][index[n - 1][face]] += (-1) ** j
            entries[i][index[n - 1][cell[:-1]]] += (-1) ** n
        mats[n] = entries
    return cells, mats


def _oracle_homology(cells, mats, n):
    dim_n = len(cells[n])
    below = mats.get(n, [])
    above = mats.get(n + 1, [])
    rank_below = smith_normal_form(below)[1] if below and below[0] else 0
    factors, rank_above = smith_normal_form(above) if above and above[0] else ([], 0)
    kernel = dim_n - rank_below if n else dim_n
    return kernel - rank_above, tuple(f for f in factors if f > 1)


def test_z2_homology_matches_bar_oracle(z2_srs):
    mult = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}
    cells, mats = _bar_complex_oracle(["e", "a"], mult, "e", 4)
    got = monoid_homology(z2_srs, 4)
    expect = {0: (1, ()), 1: (0, (2,)), 2: (0, ()), 3: (0, (2,)), 4: (0, ())}
    for n in range(5):
        oracle = _oracle_homology(cells, mats, n)
        assert (got[n].rank, got[n].torsion) == oracle == expect[n]


def _permutation_table():
    """S3 as the permutations of {1, 2, 3}, multiplied by composition."""
    from itertools import permutations

    perms = list(permutations((1, 2, 3)))
    return perms, {(p, q): tuple(q[i - 1] for i in p) for p in perms for q in perms}


def test_s3_homology_matches_bar_oracle_on_permutations(s3_srs):
    perms, mult = _permutation_table()
    cells, mats = _bar_complex_oracle(perms, mult, (1, 2, 3), 3)
    got = monoid_homology(s3_srs, 3)
    assert [(got[n].rank, got[n].torsion) for n in range(4)] == [
        _oracle_homology(cells, mats, n) for n in range(4)]


def test_idempotent_monoid_homology_matches_bar_oracle():
    # {1, a} with a a = a: not a group, so no group homology table applies
    srs = Srs(("a",), (SrsRule("idem", "aa", "a"),))
    mult = {("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a", ("a", "a"): "a"}
    cells, mats = _bar_complex_oracle(["1", "a"], mult, "1", 4)
    got = monoid_homology(srs, 4)
    expect = [(1, ())] + [(0, ())] * 4
    assert [(got[n].rank, got[n].torsion) for n in range(5)] == expect
    assert [_oracle_homology(cells, mats, n) for n in range(5)] == expect


def test_bar_complex_snf_agrees_with_sympy():
    # an SNF from a different implementation, on the uncollapsed bar
    # complex: S3 through d_4 (625 x 125) and {1, a} with a a = a through d_5
    from test_homology import _snf_by_sympy, _snf_summary

    perms, mult = _permutation_table()
    _, s3 = _bar_complex_oracle(perms, mult, (1, 2, 3), 3)
    idem = {("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a", ("a", "a"): "a"}
    _, idempotent = _bar_complex_oracle(["1", "a"], idem, "1", 4)
    assert len(s3[4]) == 625 and len(s3[4][0]) == 125
    for mats in (s3, idempotent):
        for n, entries in sorted(mats.items()):
            assert _snf_summary(entries) == _snf_by_sympy(entries), n


def _shortlex_system(a, b):
    """The monoid generated by the maps ``a`` and ``b`` of {0, .., k-1}, a
    word applying its letters left to right, with its reduced complete
    system over shortlex order: each element's normal form is its
    shortlex-least word, and each rule rewrites a word whose proper
    factors are all normal forms to the normal form of its element."""
    def then(e, f):
        return tuple(f[i] for i in e)

    maps = {"a": a, "b": b}
    identity = tuple(range(len(a)))
    word_of = {identity: ""}
    level = [identity]
    while level:  # breadth first, letters in order: shortlex
        nxt = []
        for e in level:
            for x in "ab":
                f = then(e, maps[x])
                if f not in word_of:
                    word_of[f] = word_of[e] + x
                    nxt.append(f)
        level = nxt
    normal = set(word_of.values())
    rules = []
    for e, w in sorted(word_of.items(), key=lambda kv: (len(kv[1]), kv[1])):
        for x in "ab":
            lhs, rhs = w + x, word_of[then(e, maps[x])]
            if lhs != rhs and lhs[1:] in normal:
                rules.append(SrsRule(f"r{len(rules)}", lhs, rhs))
    mult = {(e, f): then(e, f) for e in word_of for f in word_of}
    return Srs(("a", "b"), tuple(rules)), list(word_of), mult, identity


_maps = st.integers(2, 4).flatmap(lambda k: st.tuples(
    *[st.tuples(*[st.integers(0, k - 1)] * k)] * 2))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_maps)
def test_homology_matches_bar_oracle_on_random_finite_monoids(maps):
    srs, elements, mult, identity = _shortlex_system(*maps)
    assume(len(elements) <= 8)
    assert check_complete_srs(srs).certified
    got = monoid_homology(srs, 2)
    cells, mats = _bar_complex_oracle(elements, mult, identity, 2)
    for n in range(3):
        assert (got[n].rank, got[n].torsion) == _oracle_homology(cells, mats, n), (srs, n)


def test_free_monoid_homology_vanishes_above_one():
    free = Srs(("a",), ())
    chains = enumerate_word_chains(free, 4)
    assert all(len(chains[n]) == 0 for n in range(2, 5))
    H = monoid_homology(free, 3)
    assert (H[0].rank, H[0].torsion) == (1, ())
    assert (H[1].rank, H[1].torsion) == (1, ())
    assert H[2].is_trivial and H[3].is_trivial


def test_commutative_two_generator_monoid_homology():
    # the exterior-algebra answer for the free commutative monoid on two
    # letters: Z, Z^2, Z, 0, ...
    H = monoid_homology(nat2(), 3)
    assert (H[0].rank, H[0].torsion) == (1, ())
    assert (H[1].rank, H[1].torsion) == (2, ())
    assert (H[2].rank, H[2].torsion) == (1, ())
    assert H[3].is_trivial


def _reachable_cells(srs, max_dim):
    seen = set()
    chains = enumerate_word_chains(srs, max_dim)
    frontier = [c for n in range(1, max_dim + 1) for c in chains[n]]
    while frontier:
        cell = frontier.pop()
        if cell in seen or len(cell) == 0:
            continue
        seen.add(cell)
        for face in word_boundary(cell, srs):
            if face not in seen:
                frontier.append(face)
        cls = classify_word_cell(cell, srs)
        if cls.partner is not None and cls.partner not in seen:
            frontier.append(cls.partner)
    return seen


def is_word_chain(cell, srs):
    return _prefix_by_definition(cell, srs) == len(cell)


def test_matching_is_a_partial_matching(z2_srs, s3_srs):
    for srs, maxd in ((z2_srs, 5), (nat2(), 4), (s3_srs, 6)):
        for cell in _reachable_cells(srs, maxd):
            cls = classify_word_cell(cell, srs)
            if cls.kind == "critical":
                assert is_word_chain(cell, srs)
                continue
            back = classify_word_cell(cls.partner, srs)
            assert back.partner == cell
            assert {cls.kind, back.kind} == {"redundant", "collapsible"}
            assert cls.epsilon in (1, -1)


def test_every_routed_cell_of_s3_is_matched(data_dir):
    srs = parse_srs((data_dir / "s3.srs").read_text())
    routed_word_matrices(srs, enumerate_word_chains(srs, 6), 6)
    routed = srs.cache("express_count")
    verify_matching(routed, _Words(srs))
    assert set(routed) <= set(srs.cache("classify"))


def test_resolution_ranks_equal_chain_counts(z2_srs):
    chains = enumerate_word_chains(z2_srs, 4)
    mats = word_boundary_matrices(z2_srs, chains, 4)
    for n in range(1, 5):
        assert len(mats[n].entries) == len(chains[n])


def test_s3_homology_is_known(s3_srs):
    # the integral homology of the symmetric group S3
    H = monoid_homology(s3_srs, 4)
    expect = [(1, ()), (0, (2,)), (0, ()), (0, (6,)), (0, ())]
    assert [(H[n].rank, H[n].torsion) for n in range(5)] == expect


@pytest.mark.parametrize("n, max_dim", [pytest.param(n, d, id=str(n)) for n, d in
                                        [(3, 4), (5, 4), (12, 4), (1000, 2)]])
def test_cyclic_group_homology_is_known(n, max_dim):
    # <a | a^n> presents Z/n, whose integral homology is Z, Z/n, 0, Z/n, 0
    # (Brown, Cohomology of Groups, II.3); a^1000 has words of 2 000 letters
    H = monoid_homology(Srs((A,), (SrsRule("r", A * n, ""),)), max_dim)
    expect = [(1, ()), (0, (n,)), (0, ()), (0, (n,)), (0, ())][:max_dim + 1]
    assert [(H[k].rank, H[k].torsion) for k in range(max_dim + 1)] == expect


def test_term_engine_agrees_with_word_engine(z2_srs, s3_srs):
    # a second engine: chain counts differ (maximal-redex against leftmost
    # chains), the homology must not
    for srs in (z2_srs, nat2(), s3_srs):
        trs = as_unary_trs(srs)
        chains = enumerate_chains(trs, 5)
        counts = {n: len(c) for n, c in chains.items()}
        mats = boundary_matrices(trs, chains, 5, 0)
        words = monoid_homology(srs, 4)
        for n in range(5):
            got = homology_group(mats, n, 0, counts)
            assert (got.rank, got.torsion) == (words[n].rank, words[n].torsion), (srs, n)


def _assert_lift_counts_what_routing_counts(srs, top):
    """``word_boundary_matrices`` (the lift) against the routed oracle on
    a system with cold memos, every matrix through ``d_top``."""
    srs = Srs(srs.alphabet, srs.rules)
    chains = enumerate_word_chains(srs, top)
    lifted = word_boundary_matrices(srs, chains, top)
    routed = routed_word_matrices(srs, chains, top)
    for n in range(1, top + 1):
        assert lifted[n].entries == routed[n].entries, (srs, n)


def test_the_lift_counts_what_routing_counts_on_the_fixtures(data_dir):
    paths = sorted(data_dir.glob("*.srs"))
    assert len(paths) >= 3
    for path in paths:
        _assert_lift_counts_what_routing_counts(parse_srs(path.read_text()), 6)


@pytest.mark.parametrize("name", GROUPS)
def test_the_lift_counts_what_routing_counts_on_groups(name):
    _assert_lift_counts_what_routing_counts(GROUPS[name][0], 6)


def test_the_lift_counts_what_routing_counts_on_random_finite_monoids():
    rng = random.Random(29)
    seen = set()
    while len(seen) < 60:
        k = rng.randint(2, 4)
        srs, elements, _, _ = _shortlex_system(
            *[tuple(rng.randrange(k) for _ in range(k)) for _ in range(2)])
        if len(elements) > 8 or srs.rules in seen:
            continue
        seen.add(srs.rules)
        _assert_lift_counts_what_routing_counts(srs, 6)


def _times(x, v, srs):
    """Right multiplication of a lifted element by the word ``v``."""
    out = Counter()
    for (c, w), k in x.items():
        out[c, reduce_word(w + v, srs)] += k
    return out


def test_the_lift_squares_to_zero_over_zm(data_dir):
    # d(c ⊗ w) = d(c)·w on the uncounted (chain, word) elements, before
    # the count rows send every word to 1
    systems = [parse_srs(p.read_text()) for p in sorted(data_dir.glob("*.srs"))]
    systems += [nat2()] + [GROUPS[name][0] for name in ("Q8", "D12", "Z2xZ6")]
    words = 0
    for srs in systems:
        chains = enumerate_word_chains(srs, 6)
        for n in range(2, 7):
            for cell in chains[n]:
                acc = Counter()
                for (c, w), k in anick_differential(cell, srs).items():
                    words += bool(w)
                    for key, j in _times(anick_differential(c, srs), w, srs).items():
                        acc[key] += k * j
                assert not any(acc.values()), (srs, cell)
    assert words > 500


def test_the_lift_runs_on_an_explicit_stack(monkeypatch):
    # Z/n x Z as <a, b | a^n, b a = a b>: i((b)⊗a^k) contracts into
    # i((b)⊗a^(k-1)), one entry of the lift per letter, all open at once
    n = 150
    srs = Srs(("a", "b"), (SrsRule("r", "a" * n, ""), SrsRule("c", "ba", "ab")))
    chains = enumerate_word_chains(srs, 3)
    entry, live = monoid._lift_entry, [0, 0]

    def counted(key, srs):
        live[0] += 1
        live[1] = max(live)
        value = yield from entry(key, srs)
        live[0] -= 1
        return value

    monkeypatch.setattr(monoid, "_lift_entry", counted)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        mats = word_boundary_matrices(srs, chains, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert live[1] >= n > 50
    counts = {k: len(c) for k, c in chains.items()}
    H = homology_groups({k: m.entries for k, m in mats.items()}, counts, 0, range(3))
    assert [(H[k].rank, H[k].torsion) for k in range(3)] == [(1, ()), (1, (n,)), (0, (n,))]


def test_long_words_lift_on_a_linear_memo():
    # <a | a^5000>: words of 5 000 letters and more; i(()⊗w) is summed in
    # place and never memoised, so the memo holds a few entries per letter
    n = 5_000
    assert n > sys.getrecursionlimit()
    srs = Srs((A,), (SrsRule("r", A * n, ""),))
    H = monoid_homology(srs, 2)
    assert [(H[k].rank, H[k].torsion) for k in range(3)] == [(1, ()), (0, (n,)), (0, ())]
    memo = srs.cache("anick")
    assert not any(key[0] == () for key in memo)
    assert len(memo) <= n + 5 and sum(map(len, memo.values())) <= n + 10


def test_the_lift_takes_one_budget_step_per_entry_it_writes(data_dir, monkeypatch):
    # routing's rule too (tests/test_collapse.py): a differential that
    # writes k memo entries, its own chain's included, passes with budget k
    text = (data_dir / "s3.srs").read_text()
    cell = ("a", "aa", "a", "aa")
    srs = parse_srs(text)
    monkeypatch.setattr(collapse, "DEFAULT_ROUTE_BUDGET", 10)
    d = anick_differential(cell, srs)
    assert len(srs.cache("anick")) == 10
    monkeypatch.setattr(collapse, "DEFAULT_ROUTE_BUDGET", 9)
    with pytest.raises(BudgetExceeded, match=r"^lift budget exhausted: one differential "
                                             r"computed more than 9 entries$"):
        anick_differential(cell, parse_srs(text))
    assert anick_differential(cell, srs) is d  # memoised: read back, no step taken


def _merges_by_rescan(cell, srs):
    """The merge partners by definition: every irreducible merge face
    whose chain prefix ends just before the merged entry and that splits
    back to the cell, each face rescanned from scratch."""
    for j in range(1, len(cell)):
        merged = cell[j - 1] + cell[j]
        if not is_irreducible_word(merged, srs):
            continue
        target = cell[:j - 1] + (merged,) + cell[j + 1:]
        prefix = _prefix_by_definition(target, srs)
        if prefix == j - 1 and _split_by_definition(target, srs, prefix) == cell:
            yield target


def test_merges_agree_with_the_rescan_definition(data_dir):
    fresh = (parse_srs((data_dir / "z2.srs").read_text()), nat2(),
             parse_srs((data_dir / "s3.srs").read_text()))
    collapsible = 0
    for srs in fresh:
        routed_word_matrices(srs, enumerate_word_chains(srs, 6), 6)
        for cell in srs.caches["express_count"]:
            cls = classify_word_cell(cell, srs)
            got = [cls.partner] if cls.kind == "collapsible" else []
            assert got == list(_merges_by_rescan(cell, srs)), cell
            collapsible += bool(got)
    assert collapsible > 400


def _tails_by_definition(last, srs):
    """``chain_tails`` by definition: every proper prefix of ``last + v``
    tested for irreducibility on its own."""
    out = set()
    for rule in srs.rules:
        l = rule.lhs
        for k in range(1, len(l)):
            if len(last) >= k and last[-k:] == l[:k]:
                v = l[k:]
                w = last + v
                if (is_irreducible_word(v, srs)
                        and all(is_irreducible_word(w[:j], srs) for j in range(len(w)))):
                    out.add(v)
    return sorted(out)


def _prefix_by_definition(cell, srs):
    for k, w in enumerate(cell):
        if not w or not is_irreducible_word(w, srs):
            return k
        if not (len(w) == 1 if k == 0 else w in _tails_by_definition(cell[k - 1], srs)):
            return k
    return len(cell)


def _split_by_definition(cell, srs, i):
    """The split with every proper prefix of the reducible ``prev + head``
    re-tested."""
    if i >= len(cell):
        return None
    u = cell[i]
    if i == 0:
        return (u[:1], u[1:]) + cell[1:] if len(u) >= 2 else None
    prev = cell[i - 1]
    for k in range(1, len(u)):
        head, tail = u[:k], u[k:]
        if not is_irreducible_word(prev + head, srs):
            if all(is_irreducible_word((prev + head)[:j], srs)
                   for j in range(len(prev + head))):
                return cell[:i] + (head, tail) + cell[i + 1:]
            return None
    return None


def _assert_scans_agree_with_the_definitions(srs, max_len, max_dim, routed_dim):
    """Tails, and the adapter's ``match`` (chain or not, and the split),
    against their by-definition versions, on every cell of words up to
    ``max_len`` letters (reducible and empty ones included) through
    ``max_dim``, and on every cell that routing meets through
    ``d_routed_dim``."""
    words = ["".join(w) for n in range(max_len + 1) for w in product(srs.alphabet, repeat=n)]
    cells = {c for d in range(1, max_dim + 1) for c in product(words, repeat=d)}
    routed_word_matrices(srs, enumerate_word_chains(srs, routed_dim), routed_dim)
    cells |= set(srs.cache("express_count"))
    for w in words + [w for cell in cells for w in cell]:
        assert chain_tails(w, srs) == _tails_by_definition(w, srs), w
    words_cx = _Words(srs)
    for cell in cells:
        prefix = _prefix_by_definition(cell, srs)
        expected = (prefix == len(cell), _split_by_definition(cell, srs, prefix))
        assert words_cx.match(cell) == expected, cell


def test_word_scans_agree_with_the_definitions(data_dir):
    # D8, Q8 and Z4 x Z2: their left sides a^4, b b and b a overlap in every order
    groups = [GROUPS[name][0] for name in ("D8", "Q8", "Z4xZ2")]
    for srs in (parse_srs((data_dir / "z2.srs").read_text()), nat2(),
                parse_srs((data_dir / "s3.srs").read_text()), *groups):
        _assert_scans_agree_with_the_definitions(srs, 3, 3, 5)


def _shortlex_oriented(pair):
    # the larger side in length-then-letters order rewrites to the smaller,
    # so every generated system terminates
    small, large = sorted(pair, key=lambda w: (len(w), w))
    return large, small


_words = st.lists(st.sampled_from("ab"), max_size=3).map("".join)
_rule = st.tuples(_words, _words).filter(lambda p: p[0] != p[1]).map(_shortlex_oriented)


def _srs(sides):
    return Srs(("a", "b"), tuple(SrsRule(f"r{i}", l, r) for i, (l, r) in enumerate(sides)))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(_rule, min_size=1, max_size=3))
def test_term_engine_agrees_with_word_engine_on_random_systems(sides):
    srs = _srs(sides)
    assume(check_complete_srs(srs).certified)
    words = monoid_homology(srs, 3)
    routed_word_matrices(srs, enumerate_word_chains(srs, 4), 4)
    verify_matching(srs.cache("express_count"), _Words(srs))
    _assert_scans_agree_with_the_definitions(srs, 2, 2, 4)
    trs = as_unary_trs(srs)
    chains = enumerate_chains(trs, 4)
    counts = {n: len(c) for n, c in chains.items()}
    mats = boundary_matrices(trs, chains, 4, 0)
    for n in range(4):
        got = homology_group(mats, n, 0, counts)
        assert (got.rank, got.torsion) == (words[n].rank, words[n].torsion), (sides, n)


def _word_critical_pairs_with_containment(srs):
    """Every critical pair by definition: the overlaps, and a left side
    inside another (which a reduced system does not have)."""
    for r1 in srs.rules:
        for r2 in srs.rules:
            l1, l2 = r1.lhs, r2.lhs
            # boundary overlaps: a proper suffix of l1 is a proper prefix of l2
            for k in range(1, min(len(l1), len(l2))):
                if l1[-k:] == l2[:k]:
                    left = r1.rhs + l2[k:]
                    right = l1[:-k] + r2.rhs
                    yield left, right
            # containment: l2 occurs inside l1
            if r1 is not r2 or len(l2) < len(l1):
                for i in range(len(l1) - len(l2) + 1):
                    if r1 is r2 and i == 0 and len(l1) == len(l2):
                        continue
                    if l1[i:i + len(l2)] == l2:
                        left = r1.rhs
                        right = l1[:i] + r2.rhs + l1[i + len(l2):]
                        yield left, right


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(_rule, min_size=1, max_size=3))
def test_both_engines_certify_every_system_alike(sides):
    # an independent oracle for check_complete_srs: the term engine's
    # check of the same system in its unary encoding; a reduced system's
    # critical pairs are its overlaps alone
    srs = _srs(sides)
    words, terms = check_complete_srs(srs), check_complete(as_unary_trs(srs))
    assert words.reduced == terms.reduced, sides
    if words.reduced:
        assert (words.locally_confluent, words.certified) == (
            terms.locally_confluent, terms.certified), sides
        assert (list(monoid._word_critical_pairs(srs))
                == list(_word_critical_pairs_with_containment(srs))), sides


def test_a_reduced_system_has_only_overlap_pairs(z2_srs, s3_srs):
    for srs in (z2_srs, s3_srs, nat2()):
        assert (list(monoid._word_critical_pairs(srs))
                == list(_word_critical_pairs_with_containment(srs)))


def test_reduce_word_stops_a_growing_word_within_budget():
    # a -> b b a rewrites a forever, two letters longer each step:
    # reduce_word gives up after its step budget with BudgetExceeded and
    # memoises nothing, and each search for where a redex ends resumes just
    # after the last rewrite's start (position 0, then 1, 3, 5, ...) rather
    # than rescanning the word
    budget = 500
    srs = Srs(("a", "b"), (SrsRule("r1", "a", "bba"),), budget)
    starts = []
    pattern = srs.redex

    class RecordingPattern:
        def search(self, w, start=0):
            starts.append(start)
            return pattern.search(w, start)

    object.__setattr__(srs, "redex", RecordingPattern())
    with pytest.raises(BudgetExceeded, match="word reduction budget exhausted on a$"):
        reduce_word("a", srs)
    assert starts == [0] + [2 * k + 1 for k in range(budget - 1)]
    assert srs.cache("nf") == {}


def test_check_complete_srs_skips_the_probes_once_reducedness_fails():
    # the critical-pair and termination probes would reduce words; a
    # failed reducedness check reports them as not run instead
    srs = Srs(("a", "b"), (SrsRule("r1", "a", "bba"),))
    rep = check_complete_srs(srs)
    assert rep.reducedness_failures == ["rhs of r1 not in normal form"]
    assert (rep.reduced, rep.locally_confluent, rep.unjoinable,
            rep.termination_probe_ok) == (False, None, [], None)
    assert srs.cache("nf") == {}
    assert "locally confluent: not run" in rep.lines()
    assert "termination probe (0 terms): not run" in rep.lines()
    with pytest.raises(CompletenessError, match=(
            "^system is not certified reduced complete: reduced: FAILED; rhs of r1 not in"
            " normal form$")):
        certify_srs(srs)


def _reduce_from_scratch(w, srs, path):
    # leftmost redex, rules in declaration order, rescanning from 0; each
    # rule used is counted in the Counter ``path``
    while True:
        for i in range(len(w)):
            rule = next((r for r in srs.rules if w[i:i + len(r.lhs)] == r.lhs), None)
            if rule is not None:
                path[rule.name] += 1
                w = w[:i] + rule.rhs + w[i + len(rule.lhs):]
                break
        else:
            return w


def test_reduce_word_matches_a_from_scratch_reducer(z2_srs, s3_srs):
    # a long left side beside short ones: a rewrite can create a redex
    # that starts many letters before it
    long_a = Srs(("a", "b"), (SrsRule("r", "a" * 9, ""), SrsRule("c", "ba", "ab")))
    d10 = Srs(("a", "b"), (SrsRule("r", "a" * 5, ""), SrsRule("s", "bb", ""),
                           SrsRule("t", "ba", "aaaab")))
    assert certify_srs(long_a).certified and certify_srs(d10).certified
    rng = random.Random(41)
    for srs in (z2_srs, s3_srs, nat2(), long_a, d10):
        for _ in range(300):
            w = "".join(rng.choices(srs.alphabet, k=rng.randint(0, 14)))
            fresh = Srs(srs.alphabet, srs.rules)  # cold memo for each word
            assert reduce_word(w, fresh) == _reduce_from_scratch(w, srs, Counter()), w
