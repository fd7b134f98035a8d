"""The tests' references, one definition each.

Each reference shares no step with the library path it checks; the walks only
pick inputs.  The tests that call them keep their own f or root rule, inputs
and assertions.

  * u_k_direct: U_k = prod_{j=1}^{p-1} (1 - f^j)^(j^k) in F_N, exponent unreduced,
    for any element f of order p;
  * euler_flags: for each even twist i = 2..p-3, whether U_(p-1-i) is a p-th
    power by Euler's criterion; alpha is how many are;
  * is_prime_12_witnesses: Miller-Rabin to the first 12 prime bases
    (Sorenson and Webster), deterministic below 3.18 * 10^23, far past 2^64.
    It shares no step with the library's Baillie-PSW test but the base-2
    strong test, is_strong_probable_prime(n, 2), and no base set with
    perfbench's inputs;
  * prime_walk and random_split_primes: the seeded prime inputs, proved prime
    by is_prime_12_witnesses, not by the library;
  * three_is_a_cube: Jacobi's cubic character of 3.  For a prime N = 1 (mod 3)
    with 4N = A^2 + 27B^2, 3 is a cube mod N iff 3 | B (Ireland and Rosen, "A
    Classical Introduction to Modern Number Theory", ch. 9), so for
    N = 4, 7 (mod 9) the 3-rank is 2 iff 3 is a cube: a rank read off N alone,
    with no representation and no root;
  * REGULAR_PRIMES_BELOW_100, the regular odd primes below 100 as typed from
    the tables, and is_irregular_by_bernoulli: p divides the numerator of some
    exact B_k, k even in 2..p-3 (Kummer), with no power sum mod p^2.
"""

import math
import random
from fractions import Fraction

import numpy as np

from cyclorank._arrays import powmod


def u_k_direct(n: int, p: int, k: int, f: int) -> int:
    """U_k = prod_{j=1}^{p-1} (1 - f^j)^(j^k) in F_N, with the exponent j^k unreduced."""
    u = 1
    for j in range(1, p):
        u = u * pow(1 - pow(f, j, n), j**k, n) % n
    return u


def euler_flags(n: int, p: int, f: int) -> dict[int, bool]:
    """{i: U_(p-1-i) is a p-th power mod N} for the even twists i = 2, 4, ..., p-3."""
    e = (n - 1) // p
    return {i: pow(u_k_direct(n, p, p - 1 - i, f), e, n) == 1 for i in range(2, p - 2, 2)}


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > 2 passes the strong test to base a: with n - 1 = d * 2^r, d odd,
    a^d = 1 or a^(d 2^i) = -1 (mod n) for some i < r."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime_12_witnesses(n: int) -> bool:
    """Miller-Rabin to the first 12 prime bases: deterministic for n < 3.18 * 10^23."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    return all(is_strong_probable_prime(n, a) for a in _WITNESSES)


def prime_walk(n: int, step: int = 1, modulus: int = 1) -> int:
    """The first of n, n + step, n + 2*step, ... that is a prime = 1 (mod modulus)."""
    while not ((n - 1) % modulus == 0 and is_prime_12_witnesses(n)):
        n += step
    return n


def random_split_primes(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """count primes N = 1 (mod 3) below hi, each the first after a log-uniform start in [lo, hi).

    Log-uniform, so large N are as likely as small ones.
    """
    out = []
    while len(out) < count:
        n = prime_walk(int(2 ** rng.uniform(math.log2(lo), math.log2(hi))), 1, 3)
        if n < hi:
            out.append(n)
    return out


def three_is_a_cube(n):
    """3^((N-1)/3) = 1 (mod N), for a prime N = 1 (mod 3) or an array of them below 2^30."""
    if isinstance(n, np.ndarray):
        return powmod(3, (n - 1) // 3, n) == 1
    return pow(3, (n - 1) // 3, n) == 1


REGULAR_PRIMES_BELOW_100 = frozenset(
    {3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 43, 47, 53, 61, 71, 73, 79, 83, 89, 97}
)


_BERNOULLI = [Fraction(1)]  # B_0, B_1, ..., extended as far as asked


def _bernoulli(m: int) -> list[Fraction]:
    """B_0..B_m exactly, by sum_{k=0}^{j} C(j+1, k) B_k = 0 for j >= 1; B_j = 0 for odd j > 1."""
    b = _BERNOULLI
    for j in range(len(b), m + 1):
        if j % 2 and j > 1:
            b.append(Fraction(0))
        else:
            b.append(-sum(math.comb(j + 1, k) * b[k] for k in range(j) if b[k]) / (j + 1))
    return b


def is_irregular_by_bernoulli(p: int) -> bool:
    """For an odd prime p: whether p divides the numerator of some B_k, k even in 2..p-3."""
    b = _bernoulli(max(p - 3, 0))
    return any(b[k].numerator % p == 0 for k in range(2, p - 2, 2))
