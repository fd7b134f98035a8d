"""Primality and prime generation in residue classes.

is_prime is deterministic on [0, 2^64): trial division by the twelve primes
up to 37, then the Baillie-PSW test, a base-2 strong-probable-prime test and
a strong Lucas test with Selfridge's method A parameters (Baillie and
Wagstaff, "Lucas pseudoprimes", Math. Comp. 35, 1980).  A perfect square is
refused before the search for the Lucas parameter D, as (D/n) is never -1 on
one.  No composite below 2^64 passes: each base-2 strong pseudoprime below 2^64, on
Feitsma and Galway's list, fails the Lucas test (Baillie, Fiori and Wagstaff,
"Strengthening the Baillie-PSW primality test", Math. Comp. 90, 2021).  That
check proves nothing above 2^64, so a larger n is a DomainError; the (N, p)
contract stops at 2^62.

Primes are streamed by a segmented sieve of one arithmetic progression
c (mod s), where s = lcm(2, g) and g is the largest step that every requested
residue shares.  So a scan's classes mod p^2, all = 1 (mod p), sieve only
N = 1 (mod 2p), and residues that share no step sieve the odd numbers; 2 is
yielded apart.  A segment is _SEGMENT cells of that progression, s * _SEGMENT
integers, so memory stays proportional to the segment, not the limit.  The
cells a base prime q strikes are one class mod q, found once per stream;
each segment takes every q's first struck cell from it in one array step.
_segments yields each segment's primes as one int64 array, and takes its
base primes, the odd ones up to sqrt(limit), from itself one level down on
the odd progression, so there is one sieve.  primes_in_range, the stream, is
the flatten of those arrays and the one place where they become Python ints;
a modulus at or past the limit it answers from the residue list, as every
N below the limit is then its own residue.  Validating a target (N, p) is
not done here but by check_contract in modmath, which uses is_prime.

DEFAULT_SIEVE_CAP (2^30) bounds every O(N) path through require_within_cap:
sieves and scans refuse a larger limit, and the array products of the
invariants and of the factorial criterion a larger N itself.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIMALITY_BITS = 64

DEFAULT_SIEVE_CAP = 1 << 30
_SEGMENT = 1 << 19


def is_prime(n: int) -> bool:
    """Baillie-PSW, deterministic for n < 2^64; DomainError above, where it is unchecked."""
    if n >= 1 << PRIMALITY_BITS:
        raise DomainError(f"n={n} exceeds the 2^{PRIMALITY_BITS} bound of is_prime")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    x = pow(2, (n - 1) >> s, n)
    if x != 1 and x != n - 1:
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if math.isqrt(n) ** 2 == n:  # (D/n) is never -1 on a square
        return False
    d = 5  # Selfridge's method A: the first of 5, -7, 9, -11, ... with (D/n) = -1
    while (j := _jacobi(d, n)) == 1:
        d = -d - 2 if d > 0 else 2 - d
    return j == -1 and _strong_lucas(n, (1 - d) // 4)  # j = 0: gcd(D, n) > 1, and |D| < n


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    t = -1 if a < 0 and n % 4 == 3 else 1  # (-1/n), so a negative D stays small
    a = abs(a) % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int, q: int) -> bool:
    """Whether odd n is a strong Lucas probable prime for P = 1 and Q = q, (D/n) = -1.

    With n + 1 = d * 2^s, d odd: U_d = 0 or V_(d 2^r) = 0 (mod n) for some r < s.  The
    ladder carries V_k, V_(k+1) and Q^k up the bits of d, three products a bit, and
    reads U_d = 0 off D U_d = 2 V_(d+1) - V_d, as gcd(D, n) = 1.
    """
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    v, w, qk = 1, 1 - 2 * q, q  # V_1, V_2, Q^1: k = 1, the leading bit of d
    for bit in bin((n + 1) >> s)[3:]:
        if bit == "1":  # k -> 2k + 1
            v, w, qk = (v * w - qk) % n, (w * w - 2 * q * qk) % n, qk * qk * q % n
        else:  # k -> 2k
            v, w, qk = (v * v - 2 * qk) % n, (v * w - qk) % n, qk * qk % n
    if (2 * w - v) % n == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return False


def require_within_cap(size: int, what: str) -> None:
    """Raise DomainError when O(size) work would exceed DEFAULT_SIEVE_CAP."""
    if size > DEFAULT_SIEVE_CAP:
        bits = DEFAULT_SIEVE_CAP.bit_length() - 1
        raise DomainError(f"{what}={size} exceeds the 2^{bits} cap on O(N) work")


def _strikes(c: int, s: int, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The base primes q that divide no cell of c (mod s), with the class of the cells
    that q divides: q | c + s*m exactly when m = -c/s (mod q)."""
    qs = base[s % base != 0]  # q | s divides no cell, as gcd(c, s) = 1
    return qs, np.array([-c * pow(s, -1, q) % q for q in qs.tolist()], dtype=np.int64)


def _sieve_range(lo: int, hi: int, c: int, s: int, qs: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Primes N = c (mod s) in [lo, hi), 2 <= lo, s even, gcd(c, s) = 1, given _strikes(c, s, ...)
    of the odd primes up to sqrt(hi - 1).  Cell m of the mask stands for N = c + s*m."""
    m_lo = -((c - lo) // s)  # the first cell at or above lo
    mask = np.ones(-((c - hi) // s) - m_lo, dtype=bool)
    k = np.searchsorted(qs, math.isqrt(hi - 1), side="right")
    qs = qs[:k]
    m = -((c - np.maximum(lo, qs * qs)) // s)  # the first cell at or above max(lo, q^2) ...
    starts = m + (offs[:k] - m) % qs - m_lo  # ... then the first one that q divides
    for q, start in zip(qs.tolist(), starts.tolist()):
        mask[start::q] = False
    return c + s * (m_lo + np.flatnonzero(mask))


def primes_in_range(
    lo: int, hi: int, modulus: int = 1, residues: Iterable[int] = (0,)
) -> Iterator[int]:
    """Primes N in [lo, hi) with N mod modulus in residues, ascending; checks run at call time."""
    require_within_cap(hi - 1, "sieve limit")
    if modulus < 1:
        raise DomainError(f"modulus must be at least 1, got {modulus}")
    res = sorted({r % modulus for r in residues})
    if not res:
        raise DomainError("residue set must be nonempty")
    for r in res:
        if math.gcd(r, modulus) != 1:
            raise DomainError(f"residue {r} is not coprime to modulus {modulus}")
    if modulus >= hi:  # every N < hi is its own residue; no array holds a residue past int64
        return iter([r for r in res if lo <= r < hi and is_prime(r)])
    return chain.from_iterable(map(np.ndarray.tolist, _segments(max(lo, 2), hi, modulus, res)))


def _segments(lo: int, hi: int, modulus: int, res: list[int]) -> Iterator[np.ndarray]:
    """The primes of [lo, hi), lo >= 2, modulus < hi, in the checked residues res: one
    ascending int64 array per segment, after np.array([2]) when 2 is asked for."""
    if hi <= lo:
        return
    if lo == 2 and 2 % modulus in res:  # the one even prime, outside every sieved progression
        yield np.array([2], dtype=np.int64)
    # g: the step every residue shares; c: their class mod g, lifted to the odd class mod s
    g = math.gcd(modulus, *(r - res[0] for r in res))
    c = res[0] % g
    s = math.lcm(2, g)
    c = c if c % 2 else c + g
    # the odd base primes up to sqrt(hi - 1), from this same sieve on the odd progression
    base = np.concatenate([np.empty(0, dtype=np.int64),
                           *_segments(3, math.isqrt(hi - 1) + 1, 2, [1])])
    strikes = _strikes(c, s, base)  # once per stream, not once per segment
    res_arr = np.asarray(res, dtype=np.int64)
    for seg_lo in range(lo, hi, s * _SEGMENT):  # _SEGMENT cells a segment
        found = _sieve_range(seg_lo, min(seg_lo + s * _SEGMENT, hi), c, s, *strikes)
        # every cell is = c (mod g); when res holds all modulus/g such classes, none is dropped
        yield found if len(res) * g == modulus else found[np.isin(found % modulus, res_arr)]


def primes_in_class(limit: int, modulus: int, residues: Iterable[int]) -> Iterator[int]:
    """All primes N <= limit with N mod modulus in residues, ascending."""
    if limit < 2:
        raise DomainError("limit must be at least 2")
    return primes_in_range(2, limit + 1, modulus, residues)
