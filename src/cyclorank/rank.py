"""Exact 3-rank by cross-checkable methods, and general-p rank bounds.

For p = 3 the rank of the degree-6 Galois closure's class group is exactly 1
or 2, decided by divisibility data of the representation 4N = A^2 + 27B^2:

  * cornacchia:  N != 1 (mod 9): rank 2 iff 3 | B;
                 N  = 1 (mod 9): rank 2 iff A is a 9th power mod N.
  * gerth:       2 - s from the cubic-symbol matrix (N != 1 (mod 9) only).
  * star:        rank 2 iff a generator is +-zeta_3^v 2^w (mod 9) (same range).
  * factorial:   rank 2 iff ((N-1)/3)! is a cubic residue (N = 1 (mod 9) only;
                 O(N) array products, N <= 2^30; kept as an independent oracle).

cornacchia, gerth and star all read the same split_prime(N), computed once per
query, and for N = 4, 7 (mod 9) test one congruence, 9 | b of the primary,
which is 3 | B, so their agreement is not an independent check of the
representation.  Two rows read N alone and are independent of it: factorial,
and for N = 4, 7 (mod 9) the cube row, Jacobi's cubic character of 3 (3 is a
cube mod N iff 3 | B; Ireland and Rosen, ch. 9): rank 2 iff
3^((N-1)/3) = 1 (mod N).  The cube row is a guard, not a method, so it is off
RANK3_METHODS and rank3 refuses it by name.  bounds at p = 3, and so
validate, reads cornacchia once and checks it against the cube row (at
N = 1 (mod 9) cornacchia runs alone); rank3's "all" runs the cube row beside
the four methods and leaves it out of the results it returns.  The tests'
references are defined once, in tests/oracles.py.  Two oracles stay in the
library, off the package's __all__: eisenstein.represent_4n_bruteforce and
invariants.m_class_direct, because the benchmark's workloads import them
from there.  Every caller (rank3, bounds at p = 3 and so validate) applies
one agreement rule, _agreed_rank: rows that disagree raise AssertionError,
an internal error, never a report.
rank3_arrays is the cornacchia method's criterion on arrays, the rank-3 scan's
kernel.  It reads eisenstein.rank3_lattice, a lattice enumeration of
4N = A^2 + 27B^2 (which shares no step with Cornacchia) that builds only the
points the criterion reads: every point of class N = 1 (mod 9), for A's
ninth power, and for N = 4, 7 (mod 9) the points with 3 | B alone, so a hit
is rank 2 and no hit rank 1.  The scalar rank3_criterion on represent_4n is
its reference, at every N the lattice reads.  The lattice checks that every
N = 1 (mod 9) is hit exactly once, but in classes 4 and 7 it sees only the
rank-2 primes, so a missing point reads rank 1.  The whole-range check for
those classes is the cube row's character in tier-1
(test_cubic_character_of_3_counts_the_rank_two_primes, to 10^7) and CI's
byte pins of the scan, to 10^8 and to 2^30.

For general regular p only bounds are reported: the coarse envelope
(p-1)/2 .. (p-1)(p-2) and the alpha-refined window of rank_window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import eisenstein, invariants
from .errors import DomainError
from .modmath import ModulusContext, TargetClass, check_contract, factorial_mod, power_residues

RANK3_METHODS = ("cornacchia", "gerth", "star", "factorial")


def rank3_criterion(rep: eisenstein.QuadRep) -> int:
    """The cornacchia method: exact 3-rank read off 4N = A^2 + 27B^2.

    N != 1 (mod 9): rank 2 iff 3 | B.  N = 1 (mod 9): rank 2 iff A is a 9th
    power mod N; (N-1)/9 is even, so the sign of A does not matter.
    """
    n = rep.n
    if n % 9 == 1:
        return 2 if pow(rep.A, (n - 1) // 9, n) == 1 else 1
    return 2 if rep.B % 3 == 0 else 1


def rank3_arrays(ns) -> np.ndarray:
    """rank3_criterion for each N of a strictly ascending array of sieved primes N = 1 (mod 3).

    The rank-3 scan's kernel: eisenstein.rank3_lattice's A, which is 0 at an
    N = 4, 7 (mod 9) with 3 !| B, then for the N = 1 (mod 9) alone A's
    ninth-power residue from modmath.power_residues (A may be negative, and
    the residues are uint64).  Every N must lie below the 2^30 cap; the
    checks raise, also under -O.
    """
    n = np.asarray(ns, dtype=np.int64)
    a = eisenstein.rank3_lattice(n)
    ranks = np.where(a != 0, 2, 1)
    nine = np.flatnonzero(n - n // 9 * 9 == 1)  # N mod 9 without np.remainder, the slower ufunc
    m = n[nine]
    ranks[nine] = np.where(power_residues(a[nine] % m, m, 9) == 1, 2, 1)
    return ranks


def _rank3_on_split(s: eisenstein.SplitData, methods: tuple[str, ...]) -> dict[str, int]:
    one_mod_9 = s.rep.n % 9 == 1
    out: dict[str, int] = {}
    for method in methods:
        if method == "cornacchia":
            out[method] = rank3_criterion(s.rep)
        elif method == "gerth" and not one_mod_9:
            out[method] = 2 - eisenstein.gerth_matrix(s).rank
        elif method == "star" and not one_mod_9:
            out[method] = 2 if eisenstein.star_condition(s) else 1
        elif method == "cube" and not one_mod_9:  # the guard row: 3 is a cube iff 3 | B
            out[method] = 2 if pow(3, s.ctx.cofactor, s.ctx.modulus) == 1 else 1
        elif method == "factorial" and one_mod_9:
            fm = factorial_mod(s.ctx.cofactor, s.ctx)  # ((N-1)/3)!
            out[method] = 2 if pow(fm, s.ctx.cofactor, s.ctx.modulus) == 1 else 1
    return out


def _agreed_rank(n: int, results: dict[str, int]) -> int:
    """The one rank every row in results gives; disagreement is an internal error."""
    values = set(results.values())
    if len(values) != 1:
        raise AssertionError(f"rank criteria disagree at N={n}: {results}")
    return values.pop()


def rank3_detail(
    n: int, method: str = "cornacchia"
) -> tuple[int, eisenstein.SplitData, dict[str, int]]:
    """rank3 with what it rests on: the split of N and every method result run.

    "all" also runs the cube row, which must agree but is not returned.
    """
    if method != "all" and method not in RANK3_METHODS:
        raise DomainError(f"unknown method {method!r}; pick from {RANK3_METHODS + ('all',)}")
    s = eisenstein.split_prime(n)
    results = _rank3_on_split(s, RANK3_METHODS + ("cube",) if method == "all" else (method,))
    if not results:
        raise DomainError(f"method {method!r} is not valid for N={n} (mod 9 class)")
    return _agreed_rank(n, results), s, {m: r for m, r in results.items() if m != "cube"}


def rank3(n: int, method: str = "cornacchia") -> int:
    """Exact 3-rank (1 or 2) of the class group of Q(zeta_3, N^(1/3))."""
    return rank3_detail(n, method)[0]


def rank_window(p: int, alpha: int) -> tuple[int, int]:
    """The alpha-refined window (p-1)/2 + alpha .. (p-1)(p-2) - (p-1)((p-1)/2 - 1 - alpha)."""
    return (p - 1) // 2 + alpha, (p - 1) * (p - 2) - (p - 1) * ((p - 1) // 2 - 1 - alpha)


@dataclass(frozen=True)
class RankReport:
    """Per-(N, p) record of classification, exact rank or bounds, and witnesses.

    exact_rank3 is only ever set for p = 3; for larger p the criteria yield
    bounds, never exact values, and the field stays None.  The caller gives
    what it computed: rep, exact_rank3, alpha (None where p fails the
    regularity guard), coarse_upper and cl_f_upper.  The rest is derived:
    target_class is TargetClass(n, p); coarse_lower is (p-1)/2;
    methods_agreed is True iff p = 3 (None otherwise), as bounds raises
    unless cornacchia agrees with the cube row, which reads N alone
    (N = 4, 7 (mod 9); at N = 1 (mod 9) cornacchia is the one row); and
    lower, upper are rank_window(p, alpha), or the coarse envelope when
    alpha is None.
    """

    n: int
    p: int
    target_class: TargetClass = field(init=False)
    rep: eisenstein.QuadRep | None
    exact_rank3: int | None
    methods_agreed: bool | None = field(init=False)
    alpha: int | None
    lower: int = field(init=False)
    upper: int = field(init=False)
    coarse_lower: int = field(init=False)
    coarse_upper: int
    cl_f_upper: int | None = None

    def __post_init__(self) -> None:
        p, alpha, coarse_lower = self.p, self.alpha, (self.p - 1) // 2
        lower, upper = (coarse_lower, self.coarse_upper) if alpha is None else rank_window(p, alpha)
        self.__dict__.update(target_class=TargetClass(self.n, p), coarse_lower=coarse_lower,
                             methods_agreed=True if p == 3 else None, lower=lower, upper=upper)
        if not self.coarse_lower <= self.lower <= self.upper <= self.coarse_upper:
            raise AssertionError(f"window [{self.lower},{self.upper}] leaves its envelope")
        if self.p == 3 and ((self.lower, self.upper) != (1, 2) or self.exact_rank3 not in (1, 2)):
            raise AssertionError(f"p = 3 report for N={self.n} is not an exact rank 1 or 2")


def bounds(n: int, p: int, cl_k_rank: int = 0, include_cl_f: bool = False) -> RankReport:
    """Rank bounds for (N, p); exact value attached when p = 3, where methods must agree.

    cl_k_rank = 0 asserts p regular (the guard, invariants.is_regular,
    rejects irregular p and p > 1021); supplying cl_k_rank >= 1 switches the
    coarse upper bound to p * cl_k_rank + (3/2)(p-1)^2, valid without
    regularity, which the alpha window of a regular p never reaches.
    include_cl_f additionally computes the O(N) mu-based bound on the degree-p
    subfield, for a regular p only.  Any other p reads no character, so it runs
    check_contract and builds no context.
    """
    if cl_k_rank < 0:
        raise DomainError("cl_k_rank must be non-negative")
    if cl_k_rank == 0:
        coarse_upper = (p - 1) * (p - 2)
    else:
        coarse_upper = p * cl_k_rank + 3 * (p - 1) * (p - 1) // 2

    alpha = cl_f_upper = rep = exact = None
    if invariants.is_regular(p):
        ctx = ModulusContext(n, p)
        alpha = invariants.alpha_count(ctx).alpha
        if include_cl_f:
            cl_f_upper = invariants.mu_count(ctx).cl_f_upper
        if p == 3:
            # cornacchia, checked by the cube row off N alone; the O(N) factorial stays opt-in
            s = eisenstein.split_of(ctx)
            exact = _agreed_rank(n, _rank3_on_split(s, ("cornacchia", "cube")))
            rep = s.rep
    else:
        check_contract(n, p)
        if cl_k_rank == 0:
            raise DomainError(
                f"p={p} fails the regularity guard; supply cl_k_rank to get coarse bounds"
            )
        if include_cl_f:
            invariants.require_regular(p)
    return RankReport(n=n, p=p, rep=rep, exact_rank3=exact, alpha=alpha,
                      coarse_upper=coarse_upper, cl_f_upper=cl_f_upper)
