"""Known integral homology of finite groups as an oracle for both engines.

Every group here has a complete presentation ``<a | a^n>`` or
``<a, b | a^m, b^k = a^s, b a = a^r b>`` with normal forms ``a^i b^j``,
and a monoid presentation of a group has the group's homology.  The
expected groups come from closed forms: the cyclic groups (Brown,
*Cohomology of Groups*, II.3), products of two of them by the Künneth
formula, the generalised quaternion groups Q_{4m}, whose homology is
4-periodic (Cartan & Eilenberg, *Homological Algebra*, XII; Brown VI.9),
and the dihedral groups D_{2m} (Handel, "On products in the cohomology
of the dihedral groups", Tôhoku Math. J. 1993).  Coefficients Z/p follow
by universal coefficients.

Over Z/p at the least prime p dividing the order, every group here has
nonzero homology in each dimension checked, so the term engine's rank
over F_p, which stops routing a differential once its rank fills the
kernel below, must read every row there; it is checked against the full
matrices as well as the closed forms.

A group H_n is written as the list of orders of its cyclic summands,
0 standing for Z.
"""

from math import gcd

import pytest

from eqhom.chains import enumerate_chains
from eqhom.homology import boundary_matrices, boundary_rows, homology_groups
from eqhom.monoid import Srs, SrsRule, monoid_homology

from conftest import as_unary_trs

WORD_TOP = 6  # 5 for groups of order 12 and more: Q12 alone takes 2.8 s at 6
TERM_TOP = 4


def cyclic(n):
    return lambda k: [0] if k == 0 else [n] if k % 2 else []


def product_of(first, second):
    """Künneth: H_k(G x K) is the sum of H_i(G) (x) H_j(K) over i + j = k
    and of Tor(H_i(G), H_j(K)) over i + j = k - 1."""
    def h(k):
        tensor = [gcd(a, b) for i in range(k + 1)
                  for a in first(i) for b in second(k - i)]
        tor = [gcd(a, b) for i in range(k)
               for a in first(i) for b in second(k - 1 - i) if a and b]
        return [q for q in tensor + tor if q != 1]
    return h


def quaternion(m):
    """Q_{4m}: H_1 is its abelianisation, H_3 = Z/4m, period 4."""
    abelian = [2, 2] if m % 2 == 0 else [4]
    return lambda k: [0] if k == 0 else {1: abelian, 3: [4 * m]}.get(k % 4, [])


def dihedral(m):
    """D_{2m}, of order 2m: for m odd, Z/2 and Z/2m alternate in the odd
    dimensions; for m even, H_k has k/2 summands Z/2 for k even,
    (k+3)/2 for k = 1 mod 4, and Z/m plus (k+1)/2 of them for k = 3 mod 4."""
    def h(k):
        if k == 0:
            return [0]
        if m % 2:
            return {1: [2], 3: [2 * m]}.get(k % 4, [])
        if k % 2 == 0:
            return [2] * (k // 2)
        return [2] * ((k + 3) // 2) if k % 4 == 1 else [m] + [2] * ((k + 1) // 2)
    return h


def presentation(m, k=None, s=0, r=1):
    """``<a | a^m>``, or ``<a, b | a^m, b^k = a^s, b a = a^r b>``."""
    rules = [SrsRule("r1", "a" * m, "")]
    if k is not None:
        rules += [SrsRule("r2", "b" * k, "a" * s), SrsRule("r3", "ba", "a" * r + "b")]
    return Srs(("a",) if k is None else ("a", "b"), tuple(rules))


# name: (presentation, group order, closed form)
GROUPS = {
    **{f"Z{n}": (presentation(n), n, cyclic(n)) for n in (2, 3, 4, 5)},
    **{f"Z{m}xZ{n}": (presentation(m, n), m * n, product_of(cyclic(m), cyclic(n)))
       for m, n in ((2, 2), (4, 2), (3, 3), (2, 3), (2, 6))},
    # a^2m, b b = a^m, b a = a^(2m-1) b
    **{f"Q{4 * m}": (presentation(2 * m, 2, m, 2 * m - 1), 4 * m, quaternion(m))
       for m in (2, 3)},
    # a^m, b b, b a = a^(m-1) b
    **{f"D{2 * m}": (presentation(m, 2, 0, m - 1), 2 * m, dihedral(m)) for m in (3, 4, 5, 6)},
}


def invariant_factors(orders):
    """The divisibility chain of a sum of finite cyclic groups: the i-th
    largest factor multiplies the i-th largest power of every prime."""
    powers = {}
    for q in orders:
        p = 2
        while q > 1:
            if q % p == 0:
                power = 1
                while q % p == 0:
                    q, power = q // p, power * p
                powers.setdefault(p, []).append(power)
            p += 1
    factors = [1] * max(map(len, powers.values()), default=0)
    for ps in powers.values():
        for i, power in enumerate(sorted(ps, reverse=True)):
            factors[i] *= power
    return tuple(sorted(factors))


def integral(orders):
    """(rank, invariant factors above 1) of a group given by its summands."""
    return orders.count(0), invariant_factors([q for q in orders if q])


def mod_p_dimension(h, k, p):
    """dim H_k(G; Z/p) = dim H_k (x) Z/p + dim Tor(H_{k-1}, Z/p)."""
    tensor = sum(1 for q in h(k) if q % p == 0)
    tor = sum(1 for q in h(k - 1) if q and q % p == 0) if k else 0
    return tensor + tor


def least_prime(divides, order):
    return next(p for p in (2, 3, 5, 7) if (order % p == 0) == divides)


def test_the_closed_forms_read_as_published():
    assert integral(dihedral(4)(3)) == (0, (2, 2, 4))
    assert [integral(dihedral(3)(k)) for k in range(5)] == [
        (1, ()), (0, (2,)), (0, ()), (0, (6,)), (0, ())]
    assert [integral(quaternion(3)(k)) for k in range(5)] == [
        (1, ()), (0, (4,)), (0, ()), (0, (12,)), (0, ())]
    assert [integral(GROUPS["Z2xZ2"][2](k)) for k in range(4)] == [
        (1, ()), (0, (2, 2)), (0, (2,)), (0, (2, 2, 2))]
    assert integral(GROUPS["Z4xZ2"][2](1)) == (0, (2, 4))
    assert [integral(quaternion(2)(k)) for k in range(6)] == [
        (1, ()), (0, (2, 2)), (0, ()), (0, (8,)), (0, ()), (0, (2, 2))]
    assert invariant_factors([2, 3, 4, 9]) == (6, 36)
    # the dimensions of H_k(D_2m; Z/2), m even, are k + 1, the Poincaré series 1/(1-t)^2
    for m in (2, 4, 6):
        assert [mod_p_dimension(dihedral(m), k, 2) for k in range(7)] == list(range(1, 8))
    # D_2m for m = 2 is Z/2 x Z/2, and Z/2 x Z/3 is Z/6
    assert all(sorted(dihedral(2)(k)) == sorted(GROUPS["Z2xZ2"][2](k)) for k in range(9))
    assert all(integral(GROUPS["Z2xZ3"][2](k)) == integral(cyclic(6)(k)) for k in range(9))


@pytest.mark.parametrize("name", GROUPS)
def test_word_engine_has_the_known_homology(name):
    srs, order, h = GROUPS[name]
    top = WORD_TOP if order < 12 else WORD_TOP - 1
    groups = monoid_homology(srs, top)
    assert [(groups[k].rank, groups[k].torsion) for k in range(top + 1)] == [
        integral(h(k)) for k in range(top + 1)]


@pytest.mark.parametrize("name", GROUPS)
def test_term_engine_has_the_known_homology_over_z_and_z_mod_p(name):
    srs, order, h = GROUPS[name]
    trs = as_unary_trs(srs)
    chains = enumerate_chains(trs, TERM_TOP + 1)
    counts = {k: len(v) for k, v in chains.items()}
    dims = range(TERM_TOP + 1)

    def groups(d, lazy):
        # the lazy rows of boundary_rows, or every row of boundary_matrices
        if lazy:
            return homology_groups(boundary_rows(trs, chains, TERM_TOP + 1, d), counts, d, dims)
        full = boundary_matrices(trs, chains, TERM_TOP + 1, d)
        return homology_groups({k: m.entries for k, m in full.items()}, counts, d, dims)

    over_z = groups(0, lazy=False)
    assert [(over_z[k].rank, over_z[k].torsion) for k in dims] == [integral(h(k)) for k in dims]
    assert groups(0, lazy=True) == over_z
    for p in (least_prime(True, order), least_prime(False, order)):
        over_p = groups(p, lazy=True)
        assert [over_p[k].rank for k in dims] == [mod_p_dimension(h, k, p) for k in dims], p
        assert all(not over_p[k].torsion for k in dims)
        assert groups(p, lazy=False) == over_p, p
