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
query, and test the same congruence, so their agreement is not an independent
check of the representation.  factorial reads N alone and is independent of
it.  So are the tests' references, defined once in tests/oracles.py; among
them Jacobi's cubic character of 3 (3 is a cube mod N iff 3 | B) gives the
rank for N = 4, 7 (mod 9) from N alone.  Two oracles stay in the library,
off the package's __all__: eisenstein.represent_4n_bruteforce and
invariants.m_class_direct, because the benchmark's workloads import them
from there.  Every caller (rank3, bounds at p = 3 and so validate) applies
one agreement rule, _agreed_rank: methods that disagree raise
AssertionError, an internal error, never a report.
rank3_arrays is the cornacchia method's criterion on arrays, the rank-3 scan's
kernel; its (A, B) come from the lattice enumeration represent_4n_arrays,
which shares no step with Cornacchia, and the scalar rank3_criterion on
represent_4n is its reference.

For general regular p only bounds are reported: the coarse envelope
(p-1)/2 .. (p-1)(p-2) and the alpha-refined window of rank_window.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    The rank-3 scan's kernel: (A, B) from eisenstein.represent_4n_arrays's
    lattice, then 3 | B, or for the N = 1 (mod 9) alone A's ninth-power
    residue from modmath.power_residues (A may be negative, and the residues
    are uint64).  Every N must lie below the 2^30 cap; the checks raise, also
    under -O.
    """
    n = np.asarray(ns, dtype=np.int64)
    a, b = eisenstein.represent_4n_arrays(n)
    ranks = np.where(b % 3 == 0, 2, 1)
    nine = np.flatnonzero(n % 9 == 1)
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
        elif method == "factorial" and one_mod_9:
            fm = factorial_mod(s.ctx.cofactor, s.ctx)  # ((N-1)/3)!
            out[method] = 2 if pow(fm, s.ctx.cofactor, s.ctx.modulus) == 1 else 1
    return out


def _agreed_rank(n: int, results: dict[str, int]) -> int:
    """The one rank every method in results gives; disagreement is an internal error."""
    values = set(results.values())
    if len(values) != 1:
        raise AssertionError(f"rank criteria disagree at N={n}: {results}")
    return values.pop()


def rank3_detail(
    n: int, method: str = "cornacchia"
) -> tuple[int, eisenstein.SplitData, dict[str, int]]:
    """rank3 with what it rests on: the split of N and every method result run."""
    if method != "all" and method not in RANK3_METHODS:
        raise DomainError(f"unknown method {method!r}; pick from {RANK3_METHODS + ('all',)}")
    s = eisenstein.split_prime(n)
    results = _rank3_on_split(s, RANK3_METHODS if method == "all" else (method,))
    if not results:
        raise DomainError(f"method {method!r} is not valid for N={n} (mod 9 class)")
    return _agreed_rank(n, results), s, results


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
    bounds, never exact values, and the field stays None.  methods_agreed is
    True on every p = 3 report (bounds raises otherwise) and None for p >= 5.
    """

    n: int
    p: int
    target_class: TargetClass
    rep: eisenstein.QuadRep | None
    exact_rank3: int | None
    methods_agreed: bool | None
    alpha: int | None
    lower: int
    upper: int
    coarse_lower: int
    coarse_upper: int
    cl_f_upper: int | None = None

    def __post_init__(self) -> None:
        if not self.coarse_lower <= self.lower <= self.upper <= self.coarse_upper:
            raise AssertionError(f"window [{self.lower},{self.upper}] leaves its envelope")
        if self.p == 3 and ((self.lower, self.upper) != (1, 2) or self.exact_rank3 not in (1, 2)):
            raise AssertionError(f"p = 3 report for N={self.n} is not an exact rank 1 or 2")


def bounds(n: int, p: int, cl_k_rank: int = 0, include_cl_f: bool = False) -> RankReport:
    """Rank bounds for (N, p); exact value attached when p = 3, where methods must agree.

    cl_k_rank = 0 asserts p regular (the guard rejects vetted-irregular and
    unvetted p); supplying cl_k_rank >= 1 switches the coarse upper bound to
    p * cl_k_rank + (3/2)(p-1)^2, valid without regularity, which the alpha
    window of a regular p never reaches.  include_cl_f additionally computes
    the O(N) mu-based bound on the degree-p subfield, for a regular p only.  Any
    other p reads no character, so it runs check_contract and builds no context.
    """
    if cl_k_rank < 0:
        raise DomainError("cl_k_rank must be non-negative")
    coarse_lower = (p - 1) // 2
    if cl_k_rank == 0:
        coarse_upper = (p - 1) * (p - 2)
    else:
        coarse_upper = p * cl_k_rank + 3 * (p - 1) * (p - 1) // 2

    alpha: int | None = None
    cl_f_upper: int | None = None
    rep = exact = None
    if invariants.is_vetted_regular(p):
        ctx = ModulusContext(n, p)
        alpha = invariants.alpha_count(ctx).alpha
        lower, upper = rank_window(p, alpha)
        if include_cl_f:
            cl_f_upper = invariants.mu_count(ctx).cl_f_upper
        if p == 3:
            # Every cheap applicable method; the O(N) factorial path stays opt-in.
            s = eisenstein.split_of(ctx)
            exact = _agreed_rank(n, _rank3_on_split(s, ("cornacchia", "gerth", "star")))
            rep = s.rep
    else:
        check_contract(n, p)
        if cl_k_rank == 0:
            raise DomainError(
                f"p={p} fails the regularity guard; supply cl_k_rank to get coarse bounds"
            )
        if include_cl_f:
            invariants.require_regular(p)
        lower, upper = coarse_lower, coarse_upper
    return RankReport(
        n=n,
        p=p,
        target_class=TargetClass.of(n, p),
        rep=rep,
        exact_rank3=exact,
        methods_agreed=True if p == 3 else None,
        alpha=alpha,
        lower=lower,
        upper=upper,
        coarse_lower=coarse_lower,
        coarse_upper=coarse_upper,
        cl_f_upper=cl_f_upper,
    )
