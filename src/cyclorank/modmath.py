"""Modular arithmetic kernel and p-th-power residue machinery over F_N.

All character computations run through a ModulusContext: a prime modulus N
below 2^62 together with an odd prime p dividing N-1 and the cofactor
(N-1)/p.  The p-th-power residue character is chi(x) = x^((N-1)/p), valued in
the order-p subgroup of F_N^x.  Each context fixes one reference element of
order p, ModulusContext.root, and every index is taken against it: chi
becomes an index in 0..p-1 that is additive under multiplication.  The
discrete log is a linear scan over ModulusContext.powers, root^0..root^(p-1).
Both are derived when a context is built, so a query builds one context and
passes it on.  The table has p entries, so a context refuses p^3 above
primes.DEFAULT_SIEVE_CAP (p > 1021); every context holds its whole table.

check_contract is the one gate for the (N, p) contract; code downstream of
it trusts its input.  __post_init__ runs it, so every context is a checked
one, and code that reads only N mod p^2 (classify_target, coarse bounds)
runs it alone and builds no context.

The root rule, root = the first g^((N-1)/p) != 1 over g = 2, 3, 4, ..., lives
here alone, in two forms: ModulusContext.__post_init__ applies it to one N,
and powers_table to an array of sieved N below the 2^30 cap, the context's
powers column by column.  Both try prime g only: the least such g is prime,
since a composite g = ab gives g^((N-1)/p) = 1 whenever a and b both did.
The scans, whose sieve proves N prime, build no context: each takes one
table per chunk (the rank-3 scan its cube roots, invariants.alpha_counts
its powers).  No scalar helper here works without a context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import numpy as np

from ._arrays import powmod
from .errors import DomainError
from .primes import is_prime, require_within_cap

MODULUS_BITS = 62


def check_contract(n: int, p: int) -> None:
    """Raise DomainError unless p is an odd prime and N < 2^62 a prime != p with N = 1 (mod p)."""
    if n >= 1 << MODULUS_BITS:
        raise DomainError(f"N={n} exceeds the 2^{MODULUS_BITS} bound")
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise DomainError(f"p={p} must be an odd prime")
    if not is_prime(n):
        raise DomainError(f"N={n} is not prime")
    if n == p:
        raise DomainError("N must differ from p")
    if n % p != 1:
        raise DomainError(f"N must split completely: N={n} is not 1 mod p={p}")


@dataclass(frozen=True)
class ModulusContext:
    """Prime modulus N with an odd prime p | N-1, the cofactor (N-1)/p and the root.

    root, the reference element of order p, is the first g^((N-1)/p) != 1 over
    g = 2, 3, 4, ...; powers is root^0 .. root^(p-1).  Both are set when the
    context is built and take no part in equality.  Immutable; safe to share
    across workers.  Python integers already give exact double-width products,
    so no reduction constants are stored; the 2^62 cap is an interface contract.
    """

    modulus: int
    p: int
    cofactor: int = field(init=False)
    root: int = field(init=False, repr=False, compare=False)
    powers: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, p = self.modulus, self.p
        check_contract(n, p)
        require_within_cap(p**3, "p^3")  # the table of p powers, and p^2 work on it
        e = (n - 1) // p
        g = 2
        while (root := pow(g, e, n)) == 1:
            g = next(q for q in count(g + 1) if is_prime(q))
        powers = [1]
        for _ in range(p - 1):
            powers.append(powers[-1] * root % n)
        self.__dict__.update(cofactor=e, root=root, powers=tuple(powers))


@dataclass(frozen=True)
class TargetClass:
    """By N mod p^2: the prime above p ramifies in L/Q(zeta_p), and zeta_p is no norm, iff N != 1."""

    n: int
    p: int
    residue_mod_p2: int
    pi_ramified: bool
    zeta_is_norm: bool

    def __post_init__(self) -> None:
        r = self.residue_mod_p2
        if self.pi_ramified != (r != 1) or self.zeta_is_norm != (r == 1):
            raise AssertionError(f"inconsistent target class {self}")

    @classmethod
    def of(cls, n: int, p: int) -> "TargetClass":
        r = n % (p * p)
        return cls(n, p, r, pi_ramified=r != 1, zeta_is_norm=r == 1)


def classify_target(n: int, p: int) -> TargetClass:
    """Classify prime N = 1 (mod p) by the congruence N mod p^2; builds no context."""
    check_contract(n, p)
    return TargetClass.of(n, p)


@dataclass(frozen=True)
class PowerClass:
    """Discrete log of chi(x) to the context's reference element ModulusContext.root.

    index == 0 exactly when x is a p-th power in F_N^x; indices add mod p
    under multiplication of arguments.
    """

    index: int


def powers_table(ns, p: int) -> np.ndarray:
    """ModulusContext(N, p).powers as column i, for each N = ns[i] of sieved primes N = 1 (mod p).

    uint64, shape (p, len(ns)); every N must lie below the 2^30 cap, which the
    first powmod enforces before any product is taken.  The root by one array
    modpow per prime g, retrying only the N still at 1.
    """
    n = np.asarray(ns, dtype=np.uint64)
    e = (n - 1) // p
    root = powmod(2, e, n)
    g = 2
    while (retry := np.flatnonzero(root == 1)).size:
        g = next(q for q in count(g + 1) if is_prime(q))
        root[retry] = powmod(g, e[retry], n[retry])
    powers = np.empty((p, n.size), dtype=np.uint64)
    powers[0] = 1
    for k in range(1, p):
        powers[k] = powers[k - 1] * root % n
    return powers


def power_class(x: int, ctx: ModulusContext) -> PowerClass:
    """Index of chi(x) = x^((N-1)/p) relative to ctx.root, by linear scan over ctx.powers."""
    n = ctx.modulus
    if x % n == 0:
        raise DomainError("character undefined at zero")
    return PowerClass(ctx.powers.index(pow(x, ctx.cofactor, n)))


def factorial_mod(m: int, ctx: ModulusContext) -> int:
    """m! mod N by direct accumulation; requires m < N and m within the O(N) cap."""
    n = ctx.modulus
    if not 0 <= m < n:
        raise DomainError(f"factorial argument {m} must lie in [0, N)")
    require_within_cap(m, "factorial argument m")
    acc = 1
    for k in range(2, m + 1):
        acc = acc * k % n
    return acc
