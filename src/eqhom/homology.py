"""Boundary matrices over the counting coefficients, Smith normal form,
homology groups and the two Morse inequalities.

Tensoring the collapsed resolution with the counting module turns each
differential into an integer matrix (reduced modulo ``d`` when ``d`` is a
prime): one ``list[int]`` row per chain of the dimension, one column per
chain one dimension down, read lazily from ``boundary_rows`` or all at
once as ``BoundaryMatrix.entries``.  Homology in dimension n is the
kernel of the n-th matrix modulo the image of the (n+1)-st.
``homology_groups`` reads the groups of either engine off these rows and
reduces each matrix once: over the integers a strike-out Smith normal
form gives the rank and a divisibility chain of invariant factors; over
a prime field ``fp_rank`` eliminates one row at a time and gives a
dimension.  Rank d_{n+1} is at most dim ker d_n = c_n - rank d_n, where
its image lies, so over a prime field no row is read, and no lazy row
routed, once the rank gets there.

``s`` of a group is its minimum number of generators (rank plus the
number of nontrivial invariant factors).  Over a prime field ``rank`` is
the dimension: the torsion-free rank of a vector space would be 0, but
rank over the base PID, then a field, keeps the Euler-characteristic
bookkeeping of the strong inequality uniform.  The weak inequality
bounds ``s(H_n)`` by the number of n-chains; the strong one alternates
chain counts against ranks.  At dimension 2 the strong inequality is the
axiom-count bound: #rules - #operations + #sorts is at least
s(H_2) - rank(H_1) + rank(H_0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .chains import Cell, enumerate_chains, extend_chains
from .collapse import BoundaryMatrix, Matrix, assemble_matrices, matrix_rows
from .morse import morse_differential
from .rewrite import Trs, degree


class CoefficientError(Exception):
    """The requested coefficient modulus is not 0 or an admissible prime."""


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin over _BASES is exact below this bound (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for ``n < PRIME_TEST_LIMIT``."""
    if n < 2 or n in _BASES:
        return n in _BASES
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _BASES:
        x = pow(a, odd, n)
        if x == 1:
            continue
        for _ in range(twos):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def validate_modulus(d: int, trs_degree: int) -> None:
    """The counting module is well-defined for d dividing the degree; the
    homology theorems additionally need d zero or prime."""
    if trs_degree == 1:
        raise CoefficientError("system has degree 1, which admits no modulus: "
                               "0 needs degree 0 and no prime divides 1")
    if d == 0:
        if trs_degree != 0:
            raise CoefficientError(
                f"modulus 0 needs degree 0, system has degree {trs_degree}")
        return
    if trs_degree % d != 0:  # first: a nonzero degree bounds d
        raise CoefficientError(
            f"modulus {d} does not divide the system degree {trs_degree}")
    if d >= PRIME_TEST_LIMIT:
        raise CoefficientError(f"modulus {d} is too large to test for primality")
    if not is_prime(d):
        raise CoefficientError(f"modulus {d} is neither 0 nor prime")


def boundary_matrices(trs: Trs, chains: dict[int, list[Cell]], max_dim: int,
                      d: int) -> dict[int, BoundaryMatrix]:
    """Counting-coefficient matrices of the collapsed differentials for
    dimensions 1..max_dim, every entry routed.  ``d`` must be 0 or a
    prime dividing the system's degree lattice."""
    validate_modulus(d, degree(trs))
    return assemble_matrices(lambda cell: morse_differential(cell, trs, "count"),
                             chains, max_dim, d)


def boundary_rows(trs: Trs, chains: dict[int, list[Cell]], max_dim: int,
                  d: int) -> dict[int, Iterable[list[int]]]:
    """The rows of ``boundary_matrices``, each routed when it is read.

    When ``chains`` stops one below ``max_dim``, each top chain is built
    when its row is read.
    """
    validate_modulus(d, degree(trs))
    if max_dim not in chains:  # no 1-chain extends a 0-cell
        chains = {**chains, max_dim: extend_chains(chains[max_dim - 1], trs) if max_dim > 1
                  else enumerate_chains(trs, 1)[1]}
    return {n: matrix_rows(lambda cell: morse_differential(cell, trs, "count"),
                           chains[n], chains[n - 1], d) for n in range(1, max_dim + 1)}


def matrix_product(a: BoundaryMatrix, b: BoundaryMatrix) -> Matrix:
    """Rows of ``a`` (dim n+1) composed into ``b`` (dim n): the result
    must vanish for a chain complex."""
    assert a.dim == b.dim + 1
    cols = [[row[j] for row in b.entries] for j in range(len(b.cols))]
    out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.entries]
    return [[v % a.modulus for v in row] for row in out] if a.modulus else out


def smith_normal_form(matrix: Iterable[list[int]]) -> tuple[list[int], int]:
    """Invariant factors (nonneg, divisibility chain, 1s included) and rank.

    Strike-out elimination in exact integers, safe for arbitrarily large
    entries; ``matrix`` is not mutated.  The pivot ``p`` has least |entry|.
    Floor division clears its column, then its row, and a remainder is the
    next, smaller pivot.  If ``p`` does not divide some other row, that row
    is added to the pivot's row, which leaves such a remainder; otherwise
    ``|p|`` is the next factor, and its row and column are struck out.
    """
    a = [row[:] for row in matrix]
    factors: list[int] = []
    while True:
        pick = min(((abs(v), r, c) for r, row in enumerate(a)
                    for c, v in enumerate(row) if v), default=None)
        if pick is None:
            return factors, len(factors)
        _, i, j = pick
        pivot_row, p = a[i], a[i][j]
        for r, row in enumerate(a):
            if r != i and row[j]:
                q = row[j] // p
                a[r] = [v - q * w for v, w in zip(row, pivot_row)]
        if any(row[j] for row in a if row is not pivot_row):
            continue
        # the column is clear, so column operations change only the pivot's row
        a[i] = [v % p if c != j else p for c, v in enumerate(pivot_row)]
        if any(a[i][:j]) or any(a[i][j + 1:]):
            continue
        other = next((row for row in a if any(v % p for v in row)), None)
        if other is not None:  # added to the pivot's row, p alone, which is cleared again
            a[i] = [v % p if c != j else p for c, v in enumerate(other)]
            continue
        factors.append(abs(p))
        del a[i]
        for row in a:
            del row[j]


def fp_rank(matrix: Iterable[list[int]], p: int, bound: int | None = None) -> int:
    """Rank over F_p, one row at a time, none read once the rank reaches
    ``bound``: a row, kept sparse, is reduced by the pivot rows keyed by its
    leading column until it vanishes or leads a new one."""
    pivots: dict[int, dict[int, int]] = {}  # leading column -> row, scaled to lead 1
    rows = iter(matrix)
    while len(pivots) != bound and (entries := next(rows, None)) is not None:
        row = {c: v % p for c, v in enumerate(entries) if v % p}
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[lead]
            for c, v in pivots[lead].items():
                row[c] = (row.get(c, 0) - f * v) % p
            row = {c: v for c, v in row.items() if v}
    return len(pivots)


@dataclass(frozen=True)
class HomologyGroup:
    rank: int
    torsion: tuple[int, ...]  # invariant factors > 1, divisibility chain

    @property
    def generators(self) -> int:
        """Minimum number of generators (the ``s`` of the inequalities)."""
        return self.rank + len(self.torsion)

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def describe(self, d: int) -> str:
        if d:
            return "0" if self.rank == 0 else f"(Z/{d})^{self.rank}"
        parts = []
        if self.rank:
            parts.append("Z" if self.rank == 1 else f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def homology_groups(matrices: dict[int, Iterable[list[int]]], counts: dict[int, int],
                    d: int, dims: range) -> dict[int, HomologyGroup]:
    """H_n for each n of ``dims`` (consecutive): ker of matrix n modulo
    image of matrix n+1, the n=0 kernel being everything.  The rows of each
    matrix from ``dims.start`` through ``dims.stop`` (the last needs no
    count) are reduced once, over Z (``d`` 0), or over F_d up to dim ker of
    matrix k-1 once rank k-1 is known; a missing or empty matrix has rank 0."""
    rank, torsion = {0: 0}, {}  # there is no matrix 0
    for k in range(dims.start, dims.stop + 1):
        if k < dims.stop and k not in counts:
            raise ValueError(f"chains not enumerated through dimension {dims.stop - 1}")
        if k and counts.get(k, 1) and k not in matrices:
            raise ValueError(f"need the boundary matrix at dimension {k}")
        m = matrices.get(k) if counts.get(k, 1) else None
        rank[k], torsion[k] = 0, ()
        if m is not None and d:
            below = counts[k - 1] - rank[k - 1] if k - 1 in rank else None
            rank[k] = fp_rank(m, d, below)
        elif m is not None:
            factors, rank[k] = smith_normal_form(m)
            torsion[k] = tuple(f for f in factors if f > 1)
    return {n: HomologyGroup(counts[n] - rank[n] - rank[n + 1], torsion[n + 1])
            for n in dims}


def homology_group(matrices: dict[int, BoundaryMatrix], n: int, d: int,
                   chain_counts: dict[int, int]) -> HomologyGroup:
    """H_n alone, from the matrices at n and n+1."""
    rows = {k: m.entries for k, m in matrices.items()}
    return homology_groups(rows, chain_counts, d, range(n, n + 1))[n]


@dataclass
class InequalityReport:
    dim: int
    modulus: int
    chain_counts: dict[int, int]
    groups: dict[int, HomologyGroup]
    weak_lhs: int
    weak_rhs: int
    strong_lhs: int
    strong_rhs: int

    @property
    def weak_holds(self) -> bool:
        return self.weak_lhs >= self.weak_rhs

    @property
    def strong_holds(self) -> bool:
        return self.strong_lhs >= self.strong_rhs

    def lines(self) -> list[str]:
        n = self.dim
        out = [
            f"coefficients: Z/{self.modulus}" if self.modulus else "coefficients: Z",
            f"weak inequality at n={n}: #chains_{n} = {self.weak_lhs} >= "
            f"s(H_{n}) = {self.weak_rhs}  [{'holds' if self.weak_holds else 'VIOLATED'}]",
            f"strong inequality at n={n}: {self.strong_lhs} >= {self.strong_rhs}  "
            f"[{'holds' if self.strong_holds else 'VIOLATED'}]",
        ]
        if n == 2:
            c = self.chain_counts
            out.append(
                f"axiom-count bound: #rules - #ops + #sorts = "
                f"{c[2]} - {c[1]} + {c[0]} = {c[2] - c[1] + c[0]} >= {self.strong_rhs}"
            )
        return out


def inequality_report(trs: Trs, d: int, n: int,
                      chains: dict[int, list[Cell]] | None = None) -> InequalityReport:
    """Instantiate both inequalities at dimension ``n``.

    Needs chains through dimension n and matrices through n+1 (the strong
    inequality's homology term at n uses the matrix above it, whose
    chains ``boundary_rows`` builds as it reads their rows).
    """
    if chains is None:
        chains = enumerate_chains(trs, n)
    counts = {k: len(v) for k, v in chains.items()}
    rows = boundary_rows(trs, chains, n + 1, d)
    return inequalities(n, d, counts, homology_groups(rows, counts, d, range(n + 1)))


def inequalities(n: int, d: int, counts: dict[int, int],
                 groups: dict[int, HomologyGroup]) -> InequalityReport:
    """Both inequalities at dimension ``n`` from chain counts and the
    homology groups of dimensions 0..n already computed."""
    weak_lhs = counts[n]
    weak_rhs = groups[n].generators
    strong_lhs = sum((-1) ** (n - i) * counts[i] for i in range(n + 1))
    strong_rhs = weak_rhs + sum((-1) ** (n - i) * groups[i].rank for i in range(n))
    return InequalityReport(n, d, counts, groups, weak_lhs, weak_rhs,
                            strong_lhs, strong_rhs)
