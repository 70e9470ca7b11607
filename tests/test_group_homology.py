"""Known integral homology of finite groups as an oracle for both engines.

Every group here has a complete presentation ``<a | a^n>`` or
``<a, b | a^m, b^k = a^s, b a = a^r b>`` with normal forms ``a^i b^j``,
and a monoid presentation of a group has the group's homology.  The
expected groups come from closed forms: the cyclic groups (Brown,
*Cohomology of Groups*, II.3), products of two of them by the Künneth
formula, the quaternion group Q8, whose homology is 4-periodic
(Cartan & Eilenberg, *Homological Algebra*, XII; Brown VI.9), and the
dihedral group D8 (Handel, "On products in the cohomology of the
dihedral groups", Tôhoku Math. J. 1993).  Coefficients Z/p follow by
universal coefficients.

A group H_n is written as the list of orders of its cyclic summands,
0 standing for Z.
"""

from math import gcd

import pytest

from eqhom.chains import enumerate_chains
from eqhom.homology import boundary_matrices, homology_groups
from eqhom.monoid import Srs, SrsRule, monoid_homology

from conftest import as_unary_trs

WORD_TOP = 6
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


def quaternion8(k):
    return [0] if k == 0 else {1: [2, 2], 3: [8]}.get(k % 4, [])


def dihedral8(k):
    if k == 0:
        return [0]
    if k % 2 == 0:
        return [2] * (k // 2)
    return [2] * ((k + 3) // 2) if k % 4 == 1 else [4] + [2] * ((k + 1) // 2)


def presentation(m, k=None, s=0, r=1):
    """``<a | a^m>``, or ``<a, b | a^m, b^k = a^s, b a = a^r b>``."""
    rules = [SrsRule("r1", "a" * m, "")]
    if k is not None:
        rules += [SrsRule("r2", "b" * k, "a" * s), SrsRule("r3", "ba", "a" * r + "b")]
    return Srs(("a",) if k is None else ("a", "b"), tuple(rules))


# name: (presentation, group order, closed form)
GROUPS = {
    "Z2": (presentation(2), 2, cyclic(2)),
    "Z3": (presentation(3), 3, cyclic(3)),
    "Z4": (presentation(4), 4, cyclic(4)),
    "Z5": (presentation(5), 5, cyclic(5)),
    "Z2xZ2": (presentation(2, 2), 4, product_of(cyclic(2), cyclic(2))),
    "Z4xZ2": (presentation(4, 2), 8, product_of(cyclic(4), cyclic(2))),
    "Z3xZ3": (presentation(3, 3), 9, product_of(cyclic(3), cyclic(3))),
    "Q8": (presentation(4, 2, 2, 3), 8, quaternion8),
    "D8": (presentation(4, 2, 0, 3), 8, dihedral8),
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
    assert integral(dihedral8(3)) == (0, (2, 2, 4))
    assert [integral(GROUPS["Z2xZ2"][2](k)) for k in range(4)] == [
        (1, ()), (0, (2, 2)), (0, (2,)), (0, (2, 2, 2))]
    assert integral(GROUPS["Z4xZ2"][2](1)) == (0, (2, 4))
    assert [integral(quaternion8(k)) for k in range(6)] == [
        (1, ()), (0, (2, 2)), (0, ()), (0, (8,)), (0, ()), (0, (2, 2))]
    assert invariant_factors([2, 3, 4, 9]) == (6, 36)
    # the dimensions of H_k(D8; Z/2) are k + 1, the Poincaré series 1/(1-t)^2
    assert [mod_p_dimension(dihedral8, k, 2) for k in range(7)] == list(range(1, 8))


@pytest.mark.parametrize("name", GROUPS)
def test_word_engine_has_the_known_homology(name):
    srs, _, h = GROUPS[name]
    groups = monoid_homology(srs, WORD_TOP)
    assert [(groups[k].rank, groups[k].torsion) for k in range(WORD_TOP + 1)] == [
        integral(h(k)) for k in range(WORD_TOP + 1)]


@pytest.mark.parametrize("name", GROUPS)
def test_term_engine_has_the_known_homology_over_z_and_z_mod_p(name):
    srs, order, h = GROUPS[name]
    trs = as_unary_trs(srs)
    chains = enumerate_chains(trs, TERM_TOP + 1)
    counts = {k: len(v) for k, v in chains.items()}
    dims = range(TERM_TOP + 1)

    def groups(d):
        return homology_groups(boundary_matrices(trs, chains, TERM_TOP + 1, d), counts, d, dims)

    over_z = groups(0)
    assert [(over_z[k].rank, over_z[k].torsion) for k in dims] == [integral(h(k)) for k in dims]
    for p in (least_prime(True, order), least_prime(False, order)):
        over_p = groups(p)
        assert [over_p[k].rank for k in dims] == [mod_p_dimension(h, k, p) for k in dims], p
        assert all(not over_p[k].torsion for k in dims)
