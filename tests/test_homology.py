import json
import math
import random
from collections import Counter
from math import isqrt
from itertools import combinations

import pytest
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from eqhom import cli, homology
from eqhom.chains import enumerate_chains
from eqhom.cli import cli_dispatch
from eqhom.homology import (
    BoundaryMatrix,
    PRIME_TEST_LIMIT,
    CoefficientError,
    HomologyGroup,
    boundary_matrices,
    boundary_rows,
    fp_rank,
    homology_group,
    homology_groups,
    inequality_report,
    is_prime,
    matrix_product,
    smith_normal_form,
    validate_modulus,
)
from eqhom.monoid import enumerate_word_chains, word_boundary_matrices
from eqhom.parser import parse_presentation, parse_srs
from eqhom.rewrite import check_complete, degree


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == ([1, 6], 2)
    assert smith_normal_form([[0, 0], [0, 0]]) == ([], 0)
    assert smith_normal_form([[1, 0], [0, 1]]) == ([1, 1], 2)


@pytest.mark.parametrize("matrix, expected", [
    ([], ([], 0)),
    ([[]], ([], 0)),
    ([[0, 0]], ([], 0)),
    ([[0], [0], [0]], ([], 0)),
    ([[0, 4], [0, 0], [6, 0], [0, 0]], ([2, 12], 2)),
    ([[0, 0, 0], [3, 0, 6], [0, 0, 0], [6, 0, 12]], ([3], 1)),
])
def test_snf_of_degenerate_shapes_and_zero_rows(matrix, expected):
    assert smith_normal_form(matrix) == expected


def test_snf_leaves_its_input_unchanged():
    rng = random.Random(5)
    for _ in range(20):
        a = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
        before = [row[:] for row in a]
        rows = list(a)
        smith_normal_form(a)
        assert a == before and all(x is y for x, y in zip(a, rows))


def test_snf_agrees_with_sympy_above_64_bits():
    rng = random.Random(29)
    big = 2 ** 64
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        scale = rng.choice([1, big + 1, 3 * big])
        a = [[scale * rng.randint(-big, big) if rng.random() < 0.7 else 0
              for _ in range(n)] for _ in range(m)]
        assert _snf_summary(a) == _snf_by_sympy(a), a
    # a single invariant factor above 2**64: diag(2**65, 3**41) has
    # factors 1 and 2**65 * 3**41
    factors, rank = smith_normal_form([[2 ** 65, 0], [0, 3 ** 41]])
    assert (factors, rank) == ([1, 2 ** 65 * 3 ** 41], 2)
    assert _snf_summary([[2 ** 65, 0], [0, 3 ** 41]]) == _snf_by_sympy(
        [[2 ** 65, 0], [0, 3 ** 41]])


def test_snf_against_minor_gcd_oracle():
    rng = random.Random(19)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        diag, rank = smith_normal_form(a)
        # divisibility chain
        for u, v in zip(diag, diag[1:]):
            assert v % u == 0
        # determinantal divisors: d1*...*dk = gcd of k x k minors
        prod = 1
        for k, dk in enumerate(diag, 1):
            prod *= dk
            assert prod == _minor_gcd_exact(a, k)
        assert _minor_gcd_exact(a, rank + 1) == 0


def _snf_by_sympy(matrix):
    """Invariant factors above 1 and rank, from an independent SNF."""
    d = sympy_smith_normal_form(Matrix(matrix), domain=ZZ)
    diag = [abs(int(d[i, i])) for i in range(min(d.shape))]
    return sorted(x for x in diag if x > 1), sum(1 for x in diag if x)


def _snf_summary(matrix):
    factors, rank = smith_normal_form(matrix)
    return sorted(f for f in factors if f > 1), rank


def test_snf_agrees_with_sympy_on_random_matrices():
    rng = random.Random(23)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        zeros = rng.random()
        a = [[0 if rng.random() < zeros else rng.randint(-9, 9) for _ in range(n)]
             for _ in range(m)]
        assert _snf_summary(a) == _snf_by_sympy(a), a


def test_snf_agrees_with_sympy_on_s3_boundaries(s3_srs):
    mats = word_boundary_matrices(s3_srs, enumerate_word_chains(s3_srs, 5), 5)
    torsion = []
    for n in range(1, 6):
        entries = mats[n].entries
        assert _snf_summary(entries) == _snf_by_sympy(entries), n
        torsion += _snf_summary(entries)[0]
    assert torsion  # S3 has torsion, so some factor is above 1


def _minor_gcd_exact(matrix, k):
    m, n = len(matrix), len(matrix[0])
    if k > min(m, n):
        return 0
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            g = math.gcd(g, _expansion_det([[matrix[i][j] for j in cols] for i in rows]))
    return g


def _expansion_det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        total += (-1) ** j * a[0][j] * _expansion_det(minor)
    return total


def test_fp_rank_matches_integer_rank_for_unimodular_cases():
    rng = random.Random(23)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        diag, rank = smith_normal_form(a)
        for p in (2, 3, 5):
            expect = sum(1 for dk in diag if dk % p)
            assert fp_rank(a, p) == expect


def _dense_fp_rank(matrix, p):
    """Rank over F_p by dense Gauss-Jordan elimination, column by column."""
    a = [[v % p for v in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, m) if a[i][col] % p), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [(v * inv) % p for v in a[rank]]
        for i in range(m):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def _snf_fp_rank(matrix, p):
    """Rank over F_p of an integer matrix: its invariant factors prime to p."""
    return sum(1 for f in smith_normal_form(matrix)[0] if f % p)


def _assert_fp_ranks_agree(matrix, p, where):
    assert fp_rank(matrix, p) == _dense_fp_rank(matrix, p) == _snf_fp_rank(matrix, p), (where, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sparse_fp_rank_agrees_with_dense_elimination_and_snf(p):
    rng = random.Random(p)
    # 0 x n, n x 0, all-zero, and nonzero entries that are all multiples of p
    degenerate = [[], [[]], [[], [], []], [[0, 0, 0]], [[0], [0]], [[p, 0], [0, 2 * p]]]
    for a in degenerate:
        _assert_fp_ranks_agree(a, p, a)
    shapes = [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(120)]
    for m, n in shapes + [(14, 3), (3, 14), (20, 6), (6, 20)]:
        zeros = rng.random()
        a = [[0 if rng.random() < zeros else rng.randint(-2 * p, 2 * p) for _ in range(n)]
             for _ in range(m)]
        for i in range(m):
            if rng.random() < 0.2:
                a[i] = [0] * n
        _assert_fp_ranks_agree(a, p, a)


def _guarded(rows, p, bound, read):
    """``rows`` one at a time, counted in ``read``; reading a row once the
    rows before it have rank ``bound`` over F_p fails the test."""
    for i, row in enumerate(rows):
        assert _dense_fp_rank(rows[:i], p) != bound, f"row {i} read at rank {bound}"
        read[0] += 1
        yield row


@pytest.mark.parametrize("bound, rank, read", [
    (0, 0, 0),  # reads nothing
    (1, 1, 2),
    (2, 2, 4),  # the rows after the one that reaches it stay unread
    (3, 3, 6),  # hit by the last row
    (4, 3, 6),  # never reached: every row is read
    (None, 3, 6),
])
def test_fp_rank_reads_no_row_past_its_bound(bound, rank, read):
    # over F_3 the rows read so far have rank 0, 1, 1, 2, 2, 3
    rows = [[0, 0, 0], [1, 1, 0], [2, 2, 0], [0, 1, 1], [1, 0, 2], [1, 1, 1]]
    count = [0]
    assert fp_rank(_guarded(rows, 3, bound, count), 3, bound) == rank
    assert count[0] == read


def _certified_fixtures(data_dir):
    """Every certified term fixture, its top dimension and its admissible
    moduli: 0 and the primes up to 7 for degree 0, else the primes up to 7
    dividing the degree."""
    tops = {"group.lwv": 3}
    for path in sorted(data_dir.glob("*.lwv")):
        trs = parse_presentation(path.read_text())
        if check_complete(trs).certified:
            deg = degree(trs)
            moduli = [0] * (deg == 0) + [p for p in (2, 3, 5, 7) if deg % p == 0]
            yield path, trs, tops.get(path.name, 4), moduli


def _fixture_matrices(data_dir):
    """Every certified fixture's boundary matrices at each admissible
    modulus through its top dimension; the string systems' at the primes
    up to 7."""
    for path, trs, top, moduli in _certified_fixtures(data_dir):
        chains = enumerate_chains(trs, top)
        for d in moduli:
            for n, mat in boundary_matrices(trs, chains, top, d).items():
                yield (path.name, n, d), mat.entries, [d] if d else [2, 3, 5, 7]
    for path in sorted(data_dir.glob("*.srs")):
        srs = parse_srs(path.read_text())
        mats = word_boundary_matrices(srs, enumerate_word_chains(srs, 5), 5)
        for n, mat in mats.items():
            yield (path.name, n, 0), mat.entries, [2, 3, 5, 7]


def test_sparse_fp_rank_agrees_on_every_fixture_boundary(data_dir):
    seen = set()
    for where, entries, primes in _fixture_matrices(data_dir):
        for p in primes:
            _assert_fp_ranks_agree(entries, p, where)
        seen.add(where[0])
    assert seen == {"abelian_unit.lwv", "group.lwv", "involution.lwv", "involution3.lwv",
                    "two_sorted.lwv", "respelled.srs", "s3.srs", "z2.srs"}


def test_json_and_text_homology_read_the_same_rows(capsys, data_dir):
    # --json prints the rows it reads whole; the text command reads them lazily
    seen = set()
    for path, trs, top, moduli in _certified_fixtures(data_dir):
        chains = enumerate_chains(trs, top)
        for d in moduli:
            argv = ["homology", str(path), "--max-dim", str(top - 1), "--coeff", str(d)]
            assert cli_dispatch(argv + ["--json"]) == 0
            data = json.loads(capsys.readouterr().out)
            full = boundary_matrices(trs, chains, top, d)
            assert ({m["dim"]: m["entries"] for m in data["matrices"]}
                    == {n: m.entries for n, m in full.items()}), (path.name, d)
            assert cli_dispatch(argv) == 0
            text = capsys.readouterr().out.splitlines()[1:top + 1]
            records = [(r["dim"], HomologyGroup(r["H"]["rank"], tuple(r["H"]["torsion"])),
                        r["chains"]) for r in data["homology"]]
            assert text == [f"H_{n}: {g.describe(d)}   ({c} chain(s))"
                            for n, g, c in records], (path.name, d)
            seen.add((path.name, d))
    assert seen == {(name, d) for name in ("abelian_unit.lwv", "involution.lwv",
                                           "involution3.lwv", "two_sorted.lwv")
                    for d in (0, 2, 3, 5, 7)} | {
        ("group.lwv", 2)}


def test_the_two_sorted_fixture_obeys_universal_coefficients(data_dir):
    # dim H_n(Z/2) = rank H_n + #(even torsion of H_n) + #(even torsion of H_{n-1})
    trs = parse_presentation((data_dir / "two_sorted.lwv").read_text())
    chains = enumerate_chains(trs, 6)
    counts = {k: len(v) for k, v in chains.items()}
    assert counts == {0: 2, 1: 4, 2: 3, 3: 2, 4: 2, 5: 2, 6: 2}
    groups = {d: homology_groups({k: m.entries for k, m in boundary_matrices(
        trs, chains, 6, d).items()}, counts, d, range(6)) for d in (0, 2)}
    assert [g.describe(0) for g in groups[0].values()] == ["0", "Z/2", "0", "Z/2", "0", "Z/2"]
    even = {n: sum(t % 2 == 0 for t in g.torsion) for n, g in groups[0].items()}
    for n, g in groups[2].items():
        assert g.rank == groups[0][n].rank + even[n] + even.get(n - 1, 0), n
    assert [g.rank for g in groups[2].values()] == [0, 1, 1, 1, 1, 1]


def test_each_matrix_is_reduced_once(monkeypatch, capsys, data_dir):
    # H_0..H_top read the matrices 1..top+1, one reduction each; reading
    # every group from its own two matrices reduced each inner one twice
    calls = Counter()
    for name in ("fp_rank", "smith_normal_form"):
        def counted(*args, _real=getattr(homology, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(homology, name, counted)
    assert cli_dispatch(["homology", str(data_dir / "group.lwv"), "--max-dim", "3"]) == 0
    assert calls == {"fp_rank": 4}
    calls.clear()
    assert cli_dispatch(["monoid", "homology", str(data_dir / "s3.srs"), "--max-dim", "8"]) == 0
    assert calls == {"smith_normal_form": 9}
    capsys.readouterr()


def _saturated(trs, chains, top, p, dims):
    """``homology_groups`` over the lazy rows of ``boundary_rows``, and the
    number of rows it read of each matrix."""
    read = Counter()

    def counted(k, rows):
        for row in rows:
            read[k] += 1
            yield row

    rows = {k: counted(k, r) for k, r in boundary_rows(trs, chains, top, p).items()}
    return homology_groups(rows, {k: len(v) for k, v in chains.items()}, p, dims), read


def test_the_stop_rule_keeps_every_group_on_every_fixture(data_dir):
    # equal groups from H_0 up mean equal ranks of every matrix, since
    # rank d_{n+1} = c_n - rank d_n - dim H_n; a range from 2 reads its
    # first matrix with no bound
    tops = {"group.lwv": 3}
    seen, unread = set(), 0
    for path in sorted(data_dir.glob("*.lwv")):
        trs = parse_presentation(path.read_text())
        if not check_complete(trs).certified:
            continue
        top = tops.get(path.name, 4)
        chains = enumerate_chains(trs, top + 1)
        counts = {k: len(v) for k, v in chains.items()}
        for p in [p for p in (2, 3, 5, 7) if degree(trs) % p == 0]:
            full = {k: m.entries for k, m in boundary_matrices(trs, chains, top + 1, p).items()}
            for dims in (range(top + 1), range(2, top + 1)):
                groups, read = _saturated(trs, chains, top + 1, p, dims)
                assert groups == homology_groups(full, counts, p, dims), (path.name, p, dims)
                # no row may be skipped without a bound, or where a nonzero
                # H_{k-1} keeps rank k below the kernel
                for k in range(dims.start, dims.stop + 1):
                    unbounded = k == dims.start > 1
                    if unbounded or k - 1 in dims and groups[k - 1].rank:
                        assert read[k] == counts[k], (path.name, p, dims, k)
                unread += sum(counts[k] - read[k] for k in range(max(dims.start, 1), top + 2))
        seen.add(path.name)
    assert seen == {"abelian_unit.lwv", "group.lwv", "involution.lwv", "involution3.lwv",
                    "two_sorted.lwv"}
    assert unread > 0


def test_homology_over_a_prime_routes_only_the_rows_it_needs(monkeypatch, capsys, data_dir):
    # the cells routed, and the chains scanned for extensions, by homology
    # and inequality over Z/2 on group theory; --json prints every entry of
    # every matrix, so it routes them all and enumerates every 4-chain
    systems = []
    parse = cli.parse_presentation
    monkeypatch.setattr(cli, "parse_presentation",
                        lambda text: systems.append(parse(text)) or systems[-1])
    group = str(data_dir / "group.lwv")
    for argv in (["homology", group, "--max-dim", "3"], ["inequality", group, "--dim", "3"],
                 ["homology", group, "--max-dim", "3", "--json"]):
        assert cli_dispatch(argv) == 0
    capsys.readouterr()
    # every memo kind's size, read before any ``cache`` call adds a kind
    sizes = [{kind: len(memo) for kind, memo in trs.caches.items()} for trs in systems]
    z2 = {"certify": 1, "composite": 23, "express_count": 501, "extensions": 23, "factor": 86,
          "max_redex": 194, "merge": 182, "nf": 128}
    every = {"certify": 1, "composite": 52, "express_count": 1414, "extensions": 52,
             "factor": 228, "max_redex": 405, "merge": 511, "nf": 208}
    assert sizes == [z2, z2, every]


def test_homology_of_an_isomorphism():
    mat = BoundaryMatrix(1, ["c1"], ["c0"], [[-1]], 0)
    counts = {0: 1, 1: 1, 2: 0}
    assert homology_group({1: mat}, 0, 0, counts).is_trivial
    assert homology_group({1: mat}, 1, 0, counts).is_trivial


def test_homology_requires_one_dimension_above(ab_trs):
    chains = enumerate_chains(ab_trs, 2)
    counts = {k: len(v) for k, v in chains.items()}
    mats = boundary_matrices(ab_trs, chains, 2, 0)
    with pytest.raises(ValueError):
        homology_group(mats, 2, 0, counts)


def test_single_constant_theory():
    trs = parse_presentation("sorts X\nop c : -> X\n")
    chains = enumerate_chains(trs, 3)
    assert [len(chains[n]) for n in range(4)] == [1, 1, 0, 0]
    mats = boundary_matrices(trs, chains, 3, 0)
    assert mats[1].entries == [[-1]]
    counts = {k: len(v) for k, v in chains.items()}
    assert homology_group(mats, 0, 0, counts).is_trivial
    assert homology_group(mats, 1, 0, counts).is_trivial


def test_abelian_homology_vanishes(ab_trs):
    chains = enumerate_chains(ab_trs, 4)
    counts = {k: len(v) for k, v in chains.items()}
    mats = boundary_matrices(ab_trs, chains, 4, 0)
    for n in range(4):
        assert homology_group(mats, n, 0, counts).is_trivial
    for n in range(2, 5):
        if n in mats and n - 1 in mats:
            prod = matrix_product(mats[n], mats[n - 1])
            assert all(v == 0 for row in prod for v in row)


def test_group_euler_combination_is_zero(group_trs):
    chains = enumerate_chains(group_trs, 3)
    counts = {k: len(v) for k, v in chains.items()}
    mats = boundary_matrices(group_trs, chains, 3, 2)
    H = {n: homology_group(mats, n, 2, counts) for n in range(3)}
    assert H[2].generators - H[1].rank + H[0].rank == 0
    prod = matrix_product(mats[3], mats[2])
    assert all(v % 2 == 0 for row in prod for v in row)


def test_inequalities_hold_on_fixtures(ab_trs, group_trs):
    for trs, d, top in ((ab_trs, 0, 3), (group_trs, 2, 2)):
        for n in range(top + 1):
            rep = inequality_report(trs, d, n)
            assert rep.weak_holds and rep.strong_holds


def test_axiom_count_bound_group(group_trs):
    rep = inequality_report(group_trs, 2, 2)
    counts = rep.chain_counts
    assert counts[2] - counts[1] + counts[0] == 8
    assert rep.strong_rhs == 0


def test_modulus_validation(ab_trs, group_trs):
    validate_modulus(0, degree(ab_trs))
    validate_modulus(2, degree(group_trs))
    validate_modulus(2, 0)  # any prime divides a zero-degree lattice
    with pytest.raises(CoefficientError):
        validate_modulus(6, degree(group_trs))
    with pytest.raises(CoefficientError):
        validate_modulus(3, degree(group_trs))
    with pytest.raises(CoefficientError):
        validate_modulus(0, degree(group_trs))


def _is_prime_by_trial_division(n):
    return n > 1 and all(n % f for f in range(2, isqrt(n) + 1))


def test_miller_rabin_agrees_with_trial_division():
    for n in range(-50, 200_001):
        assert is_prime(n) == _is_prime_by_trial_division(n), n
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not is_prime(3_215_031_751) and not _is_prime_by_trial_division(3_215_031_751)
    assert is_prime(2**61 - 1) and not is_prime((2**31 - 1) ** 2)
    # the bound is the least strong pseudoprime to all thirteen bases,
    # which the test calls prime, so validation refuses it unseen
    assert PRIME_TEST_LIMIT == 1_287_836_182_261 * 2_575_672_364_521
    assert is_prime(PRIME_TEST_LIMIT)
    with pytest.raises(CoefficientError, match="too large"):
        validate_modulus(PRIME_TEST_LIMIT, 0)


def test_idempotent_closure_theory():
    # one unary symbol whose square collapses; exactly one chain per
    # dimension with alternating collapsed differentials
    trs = parse_presentation(
        "sorts X\nop f : X -> X\nvar x : X\nrule r : f(f(x)) -> f(x)\n")
    chains = enumerate_chains(trs, 5)
    assert all(len(chains[n]) == 1 for n in range(6))
    mats = boundary_matrices(trs, chains, 5, 0)
    assert [mats[n].entries for n in range(1, 6)] == [[[0]], [[1]], [[0]], [[1]], [[0]]]
    counts = {k: len(v) for k, v in chains.items()}
    groups = [homology_group(mats, n, 0, counts) for n in range(5)]
    assert (groups[0].rank, groups[0].torsion) == (1, ())
    assert all(g.is_trivial for g in groups[1:])


def test_multisorted_action_theory():
    trs = parse_presentation(
        "sorts X Y\n"
        "op act : Y X -> X\n"
        "op u : -> Y\n"
        "var x : X\n"
        "rule r1 : act(u, x) -> x\n")
    chains = enumerate_chains(trs, 3)
    assert {k: len(v) for k, v in chains.items()} == {0: 2, 1: 2, 2: 1, 3: 0}
    counts = {k: len(v) for k, v in chains.items()}
    mats = boundary_matrices(trs, chains, 3, 0)
    groups = [homology_group(mats, n, 0, counts) for n in range(3)]
    assert (groups[0].rank, groups[0].torsion) == (1, ())
    assert groups[1].is_trivial and groups[2].is_trivial
    rep = inequality_report(trs, 0, 2)
    assert rep.weak_holds and rep.strong_holds
    assert rep.strong_lhs == rep.strong_rhs == 1  # the bound is tight here


def test_involution_theory_has_torsion():
    # t(t(x)) -> x: the collapsed complex alternates 0, 2, 0, 2, ... so
    # the odd homology groups are Z/2 (the first term-side torsion case)
    trs = parse_presentation(
        "sorts X\nop t : X -> X\nvar x : X\nrule r : t(t(x)) -> x\n")
    chains = enumerate_chains(trs, 5)
    assert all(len(chains[n]) == 1 for n in range(6))
    mats = boundary_matrices(trs, chains, 5, 0)
    assert [mats[n].entries for n in range(1, 6)] == [[[0]], [[2]], [[0]], [[2]], [[0]]]
    counts = {k: len(v) for k, v in chains.items()}
    expect = {0: (1, ()), 1: (0, (2,)), 2: (0, ()), 3: (0, (2,)), 4: (0, ())}
    for n in range(5):
        H = homology_group(mats, n, 0, counts)
        assert (H.rank, H.torsion) == expect[n]
    # an admissible prime override sees the mod-2 shadow
    mats2 = boundary_matrices(trs, chains, 5, 2)
    for n in range(5):
        assert homology_group(mats2, n, 2, counts).rank == 1


def test_group_homology_invariant_under_rule_order(group_trs, data_dir):
    text = (data_dir / "group.lwv").read_text() + \
        "order r10 r09 r08 r07 r06 r05 r04 r03 r02 r01\n"
    flipped = parse_presentation(text)
    results = []
    for trs in (group_trs, flipped):
        chains = enumerate_chains(trs, 3)
        counts = {k: len(v) for k, v in chains.items()}
        mats = boundary_matrices(trs, chains, 3, 2)
        results.append([
            (homology_group(mats, n, 2, counts).rank,
             homology_group(mats, n, 2, counts).torsion) for n in range(3)
        ])
    assert results[0] == results[1]


def test_rule_order_invariance_of_homology(ab_trs, data_dir):
    text = (data_dir / "abelian_unit.lwv").read_text() + "order r2 r1\n"
    flipped = parse_presentation(text)
    assert [r.name for r in flipped.rules] == ["r2", "r1"]
    for trs in (ab_trs, flipped):
        chains = enumerate_chains(trs, 4)
        counts = {k: len(v) for k, v in chains.items()}
        mats = boundary_matrices(trs, chains, 4, 0)
        groups = [homology_group(mats, n, 0, counts) for n in range(4)]
        assert all(g.is_trivial for g in groups)
