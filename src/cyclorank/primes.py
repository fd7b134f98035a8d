"""Primality and prime generation in residue classes.

Primes are streamed by a segmented sieve so memory stays proportional to the
segment, not the limit.  Validating a target (N, p) is not done here but by
check_contract in modmath, which uses is_prime.

DEFAULT_SIEVE_CAP (2^30) bounds every O(N) path: sieves, scans, and the
walks over 1..N of the product invariants and the factorial criterion all
refuse larger sizes through require_within_cap.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError

# Deterministic for all n < 3.18 * 10^23 (Sorenson-Webster), far beyond the 2^62 cap.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

DEFAULT_SIEVE_CAP = 1 << 30
_SEGMENT = 1 << 19


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit integers."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_within_cap(size: int, what: str) -> None:
    """Raise DomainError when O(size) work would exceed DEFAULT_SIEVE_CAP."""
    if size > DEFAULT_SIEVE_CAP:
        bits = DEFAULT_SIEVE_CAP.bit_length() - 1
        raise DomainError(f"{what}={size} exceeds the 2^{bits} cap on O(N) work")


def _base_primes(limit: int) -> np.ndarray:
    """Primes up to limit >= 2."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for q in range(2, math.isqrt(limit) + 1):
        if mask[q]:
            mask[q * q :: q] = False
    return np.flatnonzero(mask).astype(np.int64)


def _sieve_range(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi), 2 <= lo < hi, given base primes up to sqrt(hi-1)."""
    mask = np.ones(hi - lo, dtype=bool)
    for q in base:
        q = int(q)
        if q * q >= hi:
            break
        start = max(q * q, ((lo + q - 1) // q) * q)
        if start < hi:
            mask[start - lo :: q] = False
    return lo + np.flatnonzero(mask)


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
    return _segments(max(lo, 2), hi, modulus, res)


def _segments(lo: int, hi: int, modulus: int, res: list[int]) -> Iterator[int]:
    """Yield the primes of [lo, hi), lo >= 2, in the checked residues, segment by segment."""
    if hi <= lo:
        return
    base = _base_primes(math.isqrt(hi - 1) + 1)
    res_arr = np.asarray(res, dtype=np.int64)
    for seg_lo in range(lo, hi, _SEGMENT):
        seg_hi = min(seg_lo + _SEGMENT, hi)
        found = _sieve_range(seg_lo, seg_hi, base)
        if modulus > 1:
            found = found[np.isin(found % modulus, res_arr)]
        for n in found.tolist():
            yield n


def primes_in_class(limit: int, modulus: int, residues: Iterable[int]) -> Iterator[int]:
    """All primes N <= limit with N mod modulus in residues, ascending."""
    if limit < 2:
        raise DomainError("limit must be at least 2")
    return primes_in_range(2, limit + 1, modulus, residues)
