"""Exact arithmetic in Z[zeta_3] and the 3-rank criteria it feeds.

A prime N = 1 (mod 3) splits as N = n * conj(n) in Z[zeta_3], and 4N has a
representation 4N = A^2 + 27B^2 that is unique up to the signs of A and B.
Two normalizations coexist on purpose:

  * QuadRep pins A = 1 (mod 3) (and B >= 0), the classical Jacobi sign
    convention, which makes A * (((N-1)/3)!)^3 = 1 (mod N) an exact identity.
  * SplitData carries the primary generator n = a + b*zeta_3 with a = 1
    (mod 3) and 3 | b; for that generator 2a - b = -A.

Conflating the two conventions flips a sign (first visible at N = 61), so both
are kept explicit and cross-checked.

The representation has one algorithm for the whole contract N < 2^62: integer
Cornacchia for x^2 + 3y^2 = N, mapped linearly to (A, B).  N is checked once,
by the ModulusContext gate; its root starts Cornacchia and indexes every symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError
from .modmath import ModulusContext, PowerClass, check_contract, power_class


@dataclass(frozen=True)
class EisensteinInt:
    """a + b*zeta_3 with zeta_3^2 + zeta_3 + 1 = 0 and exact integer coefficients."""

    a: int
    b: int

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def times_zeta(self) -> "EisensteinInt":
        return EisensteinInt(-self.b, self.a - self.b)

    def __neg__(self) -> "EisensteinInt":
        return EisensteinInt(-self.a, -self.b)

    def reduce_mod(self, m: int) -> tuple[int, int]:
        return (self.a % m, self.b % m)


@dataclass(frozen=True)
class QuadRep:
    """The normalized pair with 4N = A^2 + 27B^2, A = 1 (mod 3), B >= 0."""

    A: int
    B: int
    n: int

    def __post_init__(self) -> None:
        if self.A * self.A + 27 * self.B * self.B != 4 * self.n:
            raise DomainError("pair does not represent 4N")
        if self.A % 3 != 1:
            raise DomainError("A must be 1 mod 3")
        # B = 0 would force 4N to be a perfect square, impossible for prime N.
        if self.B <= 0:
            raise DomainError("B must be positive")
        if (self.A - self.B) % 2 != 0:
            raise DomainError("A and B must share parity")


@dataclass(frozen=True)
class SplitData:
    """Primary factor of N in Z[zeta_3] plus the induced data in F_N.

    `primary` is the generator n = a + b*zeta_3 with a = 1 (mod 3), 3 | b;
    `zeta_image` is the residue t with t^2 + t + 1 = 0 (mod N) and
    a + b*t = 0 (mod N), i.e. the image of zeta_3 in Z[zeta_3]/n = F_N.
    `ctx` is the (N, 3) context it was made from; every cubic symbol reads it.
    """

    primary: EisensteinInt
    rep: QuadRep
    zeta_image: int
    ctx: ModulusContext = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.rep.n
        a, b = self.primary.a, self.primary.b
        t = self.zeta_image
        if not (self.primary.norm() == n and a % 3 == 1 and b % 3 == 0
                and (t * t + t + 1) % n == 0 and (a + b * t) % n == 0
                and self.ctx.modulus == n and self.ctx.p == 3):
            raise AssertionError(f"inconsistent split data for N={n}")


def _normalize_pair(a: int, b: int, n: int) -> QuadRep:
    return QuadRep(A=a if a % 3 == 1 else -a, B=abs(b), n=n)


def cornacchia_4n(n: int, t: int) -> QuadRep:
    """represent_4n for a prime N = 1 (mod 3) below 2^62 that the caller vouches for.

    Cornacchia (Cohen, Alg. 1.5.2): r = 2t + 1 is a square root of -3 for a
    cube root of unity t != 1, and Euclid on (N, r) stops at the first
    remainder x <= sqrt(N), where (N - x^2)/3 = y^2.  A failed search raises.
    t comes from a context (ModulusContext.root) or, in the rank-3 scan,
    from modmath.powers_table; t and t^2 give r and N - r, which fold to one
    r below, so any t != 1 gives one result.
    """
    r = (2 * t + 1) % n
    if 2 * r < n:
        r = n - r
    a, x = n, r
    bound = math.isqrt(n)
    while x > bound:
        a, x = x, a % x
    y2, rem = divmod(n - x * x, 3)
    y = math.isqrt(y2)
    if rem or y * y != y2:
        raise DomainError(f"Cornacchia found no x^2 + 3y^2 = {n}: N is not a split prime")
    # 4N = (2x)^2 + 12y^2 = (x + 3y)^2 + 3(x - y)^2 = (x - 3y)^2 + 3(x + y)^2;
    # 3 does not divide x, so one of 2y, x - y, x + y is divisible by 3.
    if y % 3 == 0:
        a, b = 2 * x, 2 * y // 3
    elif (x - y) % 3 == 0:
        a, b = x + 3 * y, (x - y) // 3
    else:
        a, b = x - 3 * y, (x + y) // 3
    return _normalize_pair(a, b, n)


def represent_4n(n: int) -> QuadRep:
    """The unique (A, B) with 4N = A^2 + 27B^2, A = 1 (mod 3), B > 0, for prime N < 2^62."""
    return cornacchia_4n(n, ModulusContext(n, 3).root)


def represent_4n_bruteforce(n: int) -> QuadRep:
    """Exhaustive oracle: scan every B and assert exactly one representation; no root is read."""
    check_contract(n, 3)
    if n > 10**8:
        raise DomainError("brute-force representation is capped at 10^8")
    found = []
    for b in range(1, math.isqrt(4 * n // 27) + 1):
        r = 4 * n - 27 * b * b
        s = math.isqrt(r)
        if s * s == r:
            found.append((s, b))
    if len(found) != 1:
        raise AssertionError(f"expected a unique representation for {n}, got {found}")
    return _normalize_pair(*found[0], n)


def split_prime(n: int) -> SplitData:
    """Split N = n * conj(n) and return the primary generator with its F_N data."""
    return split_of(ModulusContext(n, 3))


def split_of(ctx: ModulusContext) -> SplitData:
    """split_prime for an (N, 3) context in hand: Cornacchia on ctx.root; the split keeps ctx."""
    n = ctx.modulus
    rep = cornacchia_4n(n, ctx.root)
    a = (-rep.A - 3 * rep.B) // 2
    b = -3 * rep.B
    t = (-a * pow(b, -1, n)) % n
    return SplitData(primary=EisensteinInt(a, b), rep=rep, zeta_image=t, ctx=ctx)


def cubic_symbol(x: int, s: SplitData) -> PowerClass:
    """Cubic residue symbol of x modulo the primary factor, as an index to s.ctx.root.

    Computed in the residue field F_N via the Euler criterion x^((N-1)/3).  An
    Eisenstein integer a + b*zeta_3 reduces to a + b*s.zeta_image first; the
    symbol of zeta_3 itself is cubic_symbol(s.zeta_image, s).
    """
    return power_class(x % s.rep.n, s.ctx)


def hilbert_pi_unit_criterion(s: SplitData) -> bool:
    """Triviality of the cubic Hilbert symbol at the prime above 3.

    The symbol attached to the primary generator reduces to the closed
    congruence N*a = 1 (mod 9), which holds exactly when 9 | b.
    """
    return (s.rep.n * s.primary.a) % 9 == 1


def _star_candidates() -> frozenset[tuple[int, int]]:
    # The twelve residues +-zeta_3^v * 2^w (mod 9), v in {0,1,2}, w in {1,2}.
    out = set()
    for w in (1, 2):
        u = EisensteinInt(2**w, 0)
        for _ in range(3):
            out.add(u.reduce_mod(9))
            out.add((-u).reduce_mod(9))
            u = u.times_zeta()
    return frozenset(out)


_STAR_CANDIDATES = _star_candidates()


def star_condition(s: SplitData) -> bool:
    """Whether some generator of the factor in s = split_prime(N) is +-zeta_3^v * 2^w (mod 9).

    Equivalent to 3 | B for N != 1 (mod 9).  The candidate set is closed under
    the six units +-zeta_3^v, so one generator is in it exactly when all six
    are, and the test reads the primary generator alone.
    """
    if s.rep.n % 9 == 1:
        raise DomainError("the unit-congruence test is defined for N != 1 (mod 9)")
    return s.primary.reduce_mod(9) in _STAR_CANDIDATES


@dataclass(frozen=True)
class GerthMatrix:
    """Row of cubic-symbol exponents whose rank s gives the exact 3-rank 2 - s."""

    width: int
    entries: tuple[int, ...]
    rank: int


def gerth_matrix(s: SplitData) -> GerthMatrix:
    """Symbol matrix of s = split_prime(N), for N = 4, 7 (mod 9): ambiguous classes are strong.

    The first two entries are the symbol of 2a - b, always trivial by the
    Wilson-Jacobi identity (checked); the third is the exponent of the symbol
    at the prime above 3, zero exactly when N*a = 1 (mod 9).
    """
    n = s.rep.n
    if n % 9 not in (4, 7):
        raise DomainError("the symbol-matrix path requires N != 1 (mod 9)")
    # 2a - b = -A, and -1 is a cube, so the sign does not change the symbol.
    sym = cubic_symbol(2 * s.primary.a - s.primary.b, s)
    if sym.index != 0:
        raise AssertionError(f"symbol of 2a - b is nontrivial at N={n}")
    na = n * s.primary.a
    if (1 - na) % 3 != 0:
        raise AssertionError(f"3 does not divide 1 - N*a at N={n}")
    e3 = ((1 - na) // 3) % 3
    if (e3 == 0) != hilbert_pi_unit_criterion(s):
        raise AssertionError(f"e3 disagrees with the Hilbert-symbol criterion at N={n}")
    entries = (sym.index, sym.index, e3)
    return GerthMatrix(width=3, entries=entries, rank=0 if e3 == 0 else 1)
