"""The tests' references, one definition each.

Each reference shares no step with the library path it checks; the walks only
pick inputs.  The tests that call them keep their own f or root rule, inputs
and assertions.

  * u_k_direct: U_k = prod_{j=1}^{p-1} (1 - f^j)^(j^k) in F_N, exponent unreduced,
    for any element f of order p;
  * euler_flags: for each even twist i = 2..p-3, whether U_(p-1-i) is a p-th
    power by Euler's criterion; alpha is how many are;
  * prime_walk and random_split_primes: the seeded prime inputs;
  * three_is_a_cube: Jacobi's cubic character of 3.  For a prime N = 1 (mod 3)
    with 4N = A^2 + 27B^2, 3 is a cube mod N iff 3 | B (Ireland and Rosen, "A
    Classical Introduction to Modern Number Theory", ch. 9), so for
    N = 4, 7 (mod 9) the 3-rank is 2 iff 3 is a cube: a rank read off N alone,
    with no representation and no root.
"""

import math
import random

import numpy as np

from cyclorank._arrays import powmod
from cyclorank.primes import is_prime


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


def prime_walk(n: int, step: int = 1, modulus: int = 1) -> int:
    """The first of n, n + step, n + 2*step, ... that is a prime = 1 (mod modulus)."""
    while not ((n - 1) % modulus == 0 and is_prime(n)):
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
