"""Exact arithmetic in Z[zeta_3] and the 3-rank criteria it feeds.

A prime N = 1 (mod 3) splits as N = n * conj(n) in Z[zeta_3], and 4N has a
representation 4N = A^2 + 27B^2 that is unique up to the signs of A and B.
Two normalizations coexist on purpose:

  * QuadRep pins A = 1 (mod 3) (and B > 0), the classical Jacobi sign
    convention, which makes A * (((N-1)/3)!)^3 = 1 (mod N) an exact identity.
  * SplitData carries the primary generator n = a + b*zeta_3 with a = 1
    (mod 3) and 3 | b; for that generator 2a - b = -A.

Conflating the two conventions flips a sign (first visible at N = 61), so both
are kept explicit and cross-checked.  EisensteinInt is only the pair (a, b)
and its norm: the symbols read a generator through its image in F_N, and the
star congruence through (a mod 9, b mod 9).

A point query has one algorithm for the whole contract N < 2^62: Cohen's
modified Cornacchia (Alg. 1.5.3) for x^2 + 27y^2 = 4N, which gives (A, B) as
(+-x, y) from one Euclid.  split_of runs it on one N, which is checked once,
by the ModulusContext gate: represent_4n and split_prime reach it through
that context, whose root starts Cornacchia and indexes every symbol.  The
algorithm's parity rule asks for a start x0 = D = 1 (mod 2): of the two
square roots +-3(2t + 1) of -27 it takes the odd one.

The arrays read no root: rank3_lattice, the rank-3 scan's kernel, finds A
for a chunk of sieved N below the 2^30 cap by enumerating the lattice points
with A^2 + 27B^2 = 4N over the chunk's range and looking each N up.  It
shares no step with Cornacchia, so each is the other's oracle.
4N = A^2 (mod 27) gives N = 8 - A (mod 9), so a point's A names its class,
and the lattice builds only the points whose outcome the rank-3 criterion
reads: every point of class 1, whose A the ninth-power test takes, and of
classes 4 and 7 only the points with 3 | B, the whole criterion there.
Their points satisfy A^2 + 27B^2 <= 4 * 2^30 = 2^32, exact in int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._arrays import _require_width, isqrt, mod_by
from .errors import DomainError
from .modmath import ModulusContext, PowerClass, check_contract, power_class


@dataclass(frozen=True)
class EisensteinInt:
    """a + b*zeta_3 with zeta_3^2 + zeta_3 + 1 = 0 and exact integer coefficients."""

    a: int
    b: int

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b


@dataclass(frozen=True)
class QuadRep:
    """The normalized pair with 4N = A^2 + 27B^2, A = 1 (mod 3), B > 0."""

    A: int
    B: int
    n: int

    def __post_init__(self) -> None:
        # The identity also gives A = B (mod 2): A^2 = -27B^2 = B^2 (mod 4).
        if self.A * self.A + 27 * self.B * self.B != 4 * self.n:
            raise DomainError("pair does not represent 4N")
        if self.A % 3 != 1:
            raise DomainError("A must be 1 mod 3")
        # B = 0 would force 4N to be a perfect square, impossible for prime N.
        if self.B <= 0:
            raise DomainError("B must be positive")


@dataclass(frozen=True)
class SplitData:
    """Primary factor of N in Z[zeta_3] plus the induced data in F_N.

    Made from the representation `rep` and the (N, 3) context `ctx`, which
    every cubic symbol reads; the rest is derived.  `primary` is the
    generator n = a + b*zeta_3 with a = 1 (mod 3), 3 | b, read off rep as
    a = (-A - 3B)/2, b = -3B; `zeta_image` is the residue t with
    t^2 + t + 1 = 0 (mod N) and a + b*t = 0 (mod N), i.e. the image of
    zeta_3 in Z[zeta_3]/n = F_N: the context's root or its square, whichever
    kills a + b*t.
    """

    primary: EisensteinInt = field(init=False)
    rep: QuadRep
    zeta_image: int = field(init=False)
    ctx: ModulusContext = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        n, powers = self.rep.n, self.ctx.powers
        a, b = (-self.rep.A - 3 * self.rep.B) // 2, -3 * self.rep.B
        t = powers[1] if (a + b * powers[1]) % n == 0 else powers[2]
        self.__dict__.update(primary=EisensteinInt(a, b), zeta_image=t)
        if not (self.primary.norm() == n and a % 3 == 1 and b % 3 == 0
                and (t * t + t + 1) % n == 0 and (a + b * t) % n == 0
                and self.ctx.modulus == n and self.ctx.p == 3):
            raise AssertionError(f"inconsistent split data for N={n}")


def _normalize_pair(a: int, b: int, n: int) -> QuadRep:
    return QuadRep(A=a if a % 3 == 1 else -a, B=b, n=n)


# Integers of N one lattice call covers, so a lone N costs O(sqrt(N)) points, not O(N).  Only
# the default classes fit a scan's chunk (87,381 primes) in one window: classes 1, 4, 7 span
# 3.2M integers at 10^8 and 3.6M at the 2^30 cap; classes 4, 7 span 4.8M / 5.4M, two
# windows; a single class 9.6M / 10.9M, three windows.
_WINDOW = 1 << 22
# Each B has two progressions of A, in four groups of one signed step each: odd B has
# |A| = 1 and 5 (mod 6), stepping +6 and -6; B = 2b gives A = 2a with N = a^2 + 27b^2, odd
# iff a and b differ in parity, so |A| = 10 or 4 (mod 12) stepping +12 and 2 or 8 (mod 12)
# stepping -12, for b even or odd.  Every point has A = 1 (mod 3) and an odd N = 1 (mod 6).
_SIGNED_STEPS = np.array([6, -6, 12, -12], dtype=np.int8)
# A step of 6 or 12 moves A through 1, 4, 7 (mod 9) in turn, and 4N = A^2 (mod 27) makes
# A = 1, 4, 7 (mod 9) exactly when N = 7, 4, 1 (mod 9), that is N = 8 - A (mod 9).  So each
# progression is three of one class each, |A| = x0 + j*step stepping 3*step, j = 0, 1, 2.
_THIRDS = np.arange(3, dtype=np.int64)


def rank3_lattice(ns) -> np.ndarray:
    """The A that the rank-3 criterion reads, for strictly ascending sieved primes N = 1 (mod 3).

    No root and no Cornacchia: each window of at most _WINDOW integers
    enumerates the lattice points with 4*lo <= A^2 + 27B^2 <= 4*hi (lo, hi its
    first and last N) and looks each N = (A^2 + 27B^2)/4 up among the given
    ones: the quadratic-form enumeration of Atkin and Bernstein ("Prime
    sieves using binary quadratic forms", Math. Comp. 73, 2004), here finding
    the representation, not testing primality.  Only the points whose
    outcome is read are built: every point of class N = 1 (mod 9), whose A
    the ninth-power test takes, and the points with 3 | B of classes 4 and 7,
    where 3 | B is the whole criterion; that is 5/9 of the points.  int64 A,
    and 0 at an N = 4, 7 (mod 9) that no point with 3 | B hits.  Every other
    N must be hit exactly once and no N twice, or DomainError; an N = 4, 7
    (mod 9) with no point at all reads 0, as the input is sieved primes.  An
    input out of order raises DomainError, an N above the 2^30 cap
    AssertionError, also under -O.
    """
    n = np.asarray(ns, dtype=np.int64)
    if (n[1:] <= n[:-1]).any():
        raise DomainError("the N must be strictly ascending")
    a = np.empty_like(n)
    if n.size:
        _require_width(int(n[-1]))
    first = 0
    while first < n.size:
        last = int(np.searchsorted(n, n[first] + _WINDOW))
        a[first:last] = _lattice_window(n[first:last])
        first = last
    return a


def _lattice_window(n: np.ndarray) -> np.ndarray:
    """rank3_lattice on one window: n ascending, nonempty, hi - lo < _WINDOW."""
    lo, hi = int(n[0]), int(n[-1])
    bs = np.arange(1, math.isqrt(max(0, 4 * hi) // 27) + 1, dtype=np.int64)
    odd, even = bs[0::2], bs[1::2]
    shift = 6 * (mod_by(even, 4) == 0)  # b even
    groups = np.cumsum([odd.size, odd.size, even.size, even.size])
    b = np.concatenate((odd, odd, even, even))
    signed = np.repeat(_SIGNED_STEPS, np.diff(groups, prepend=0))
    step = np.abs(signed)
    residue = np.concatenate((np.ones_like(odd), np.full_like(odd, 5), 4 + shift, 8 - shift))
    # the first |A| of each progression at or above ceil(sqrt(4lo - 27B^2)), clamped at 0
    q = 27 * b * b
    gap = np.maximum(0, 4 * lo - q)
    x0 = isqrt(gap)
    x0 += x0 * x0 < gap
    x0 += (residue - x0) % step
    # row k of the (progressions, 3) arrays: k's three classes, so each group stays contiguous
    x = x0[:, None] + step[:, None] * _THIRDS
    cnt = np.maximum(0, (isqrt(4 * hi - q)[:, None] - x) // (3 * step[:, None]) + 1)
    first = np.sign(signed)[:, None] * x  # the first A of each sub-progression
    # class 1 (A = 7 mod 9) in full, classes 4 and 7 only where 3 | B
    cnt *= (mod_by(first, 9) == 7) | (mod_by(b, 3) == 0)[:, None]
    cnt = cnt.ravel()
    edges = np.concatenate(([0], np.cumsum(cnt)))  # sub-progression k: edges[k] .. edges[k+1]-1
    # point i of sub-progression k: A = first + 3*signed*(i - edges[k]), one step per group;
    # point i is a[1 + i], and a[0] = 0 answers an N that no point hits
    a = np.arange(-1, edges[-1], dtype=np.int64)
    a[0] = 0
    points = a[1:]
    points *= np.repeat(3 * _SIGNED_STEPS, np.diff(edges[3 * groups], prepend=0))
    points += np.repeat(first.ravel() - np.repeat(3 * signed, 3) * edges[:-1], cnt)
    # an int32 table over the N = 1 (mod 6) of [lo, hi]: 1 + the last point at each N, 0 at none
    base = lo - (lo - 1) % 6
    cell = points * points  # in place: the point arrays are the kernel's widest
    cell += np.repeat(np.repeat(q - 4 * base, 3), cnt)
    cell //= 24  # (N - base) / 6
    point_at = np.zeros((hi - base) // 6 + 1, dtype=np.int32)
    point_at[cell] = np.arange(1, cell.size + 1, dtype=np.int32)
    off = n - base
    at = off // 6
    on = at * 6 == off  # every point has N = 1 (mod 6)
    point = point_at[at] * on
    hit = point > 0
    # an N the outcome reads must be hit, as must any N off the table
    r9 = mod_by(n, 9)
    missed = ~hit & (~on | (r9 != 4) & (r9 != 7))
    # once those N are hit, no N is hit twice iff as many points as N hit them
    ours = np.zeros(point_at.size, dtype=bool)
    ours[at] = True
    if missed.any() or np.count_nonzero(ours[cell]) != np.count_nonzero(hit):
        times = np.where(on, np.bincount(cell, minlength=point_at.size)[at], 0)
        bad = np.flatnonzero(missed | (times > 1))[0]
        read = "" if n[bad] % 9 == 1 else " and 3 | B"
        raise DomainError(f"N={n[bad]} has {times[bad]} representations 4N = A^2 + 27B^2 with "
                          f"3 !| A, B > 0{read}: it is not a prime = 1 (mod 3)")
    return a[point]


def represent_4n(n: int) -> QuadRep:
    """The unique (A, B) with 4N = A^2 + 27B^2, A = 1 (mod 3), B > 0, for prime N < 2^62."""
    return split_prime(n).rep


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
    """split_prime for an (N, 3) context in hand, by the one scalar Cornacchia; keeps ctx.

    Cohen, Alg. 1.5.3 with D = -27: x0 = 3(2t + 1) for t = ctx.root is a
    square root of -27 mod N, replaced by N - x0 when even, as the algorithm
    needs x0 = D (mod 2).  Euclid on (2N, x0) stops at the first remainder
    x <= sqrt(4N), where (4N - x^2)/27 = B^2 and A = +-x.  A failed search
    raises.
    """
    n = ctx.modulus
    x = 3 * (2 * ctx.root + 1) % n
    m, x = 2 * n, x if x % 2 else n - x
    bound = math.isqrt(4 * n)
    while x > bound:
        m, x = x, m % x
    y2, rem = divmod(4 * n - x * x, 27)
    y = math.isqrt(y2)
    if rem or y * y != y2:
        raise DomainError(f"Cornacchia found no A^2 + 27B^2 = 4*{n}: N is not a split prime")
    return SplitData(rep=_normalize_pair(x, y, n), ctx=ctx)


def cubic_symbol(x: int, s: SplitData) -> PowerClass:
    """Cubic residue symbol of x modulo the primary factor, as an index to s.ctx.root.

    Computed in the residue field F_N via the Euler criterion x^((N-1)/3).  An
    Eisenstein integer a + b*zeta_3 reduces to a + b*s.zeta_image first; the
    symbol of zeta_3 itself is cubic_symbol(s.zeta_image, s).
    """
    return power_class(x % s.rep.n, s.ctx)


# The twelve residues +-zeta_3^v * 2^w (mod 9) as pairs (a, b) of a + b*zeta_3: for
# c = +-2^w, c = (c, 0), c*zeta_3 = (0, c) and c*zeta_3^2 = c*(-1 - zeta_3) = (-c, -c).
_STAR_CANDIDATES = frozenset(
    pair for c in (2, 4, -2, -4) for pair in ((c % 9, 0), (0, c % 9), (-c % 9, -c % 9))
)


def star_condition(s: SplitData) -> bool:
    """Whether some generator of the factor in s = split_prime(N) is +-zeta_3^v * 2^w (mod 9).

    Equivalent to 3 | B for N != 1 (mod 9).  The candidate set is closed under
    the six units +-zeta_3^v, so one generator is in it exactly when all six
    are, and the test reads the primary generator alone.
    """
    if s.rep.n % 9 == 1:
        raise DomainError("the unit-congruence test is defined for N != 1 (mod 9)")
    return (s.primary.a % 9, s.primary.b % 9) in _STAR_CANDIDATES


@dataclass(frozen=True)
class GerthMatrix:
    """Row of cubic-symbol exponents whose rank s gives the exact 3-rank 2 - s.

    Made from its entries; rank is derived: 1 iff the row is nonzero over F_3.
    """

    entries: tuple[int, ...]
    rank: int = field(init=False)

    def __post_init__(self) -> None:
        self.__dict__.update(rank=int(any(e % 3 for e in self.entries)))


def gerth_matrix(s: SplitData) -> GerthMatrix:
    """Symbol matrix of s = split_prime(N), for N = 4, 7 (mod 9): ambiguous classes are strong.

    The first two entries are the symbol of 2a - b, always trivial by the
    Wilson-Jacobi identity (checked); the third is the exponent of the symbol
    at the prime above 3, e3 = ((1 - N*a)/3) mod 3.  N = 1 (mod 3) and the
    primary a = 1 (mod 3) make 1 - N*a a multiple of 3, and e3 = 0 exactly
    when N*a = 1 (mod 9), that is when 9 | b.
    """
    n = s.rep.n
    if n % 9 not in (4, 7):
        raise DomainError("the symbol-matrix path requires N != 1 (mod 9)")
    # 2a - b = -A, and -1 is a cube, so the sign does not change the symbol.
    sym = cubic_symbol(2 * s.primary.a - s.primary.b, s)
    if sym.index != 0:
        raise AssertionError(f"symbol of 2a - b is nontrivial at N={n}")
    e3 = (1 - n * s.primary.a) // 3 % 3
    return GerthMatrix(entries=(sym.index, sym.index, e3))
