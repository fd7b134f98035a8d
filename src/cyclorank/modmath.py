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
The scans, whose sieve proves N prime, build no context:
invariants.alpha_counts takes one table per chunk, and the rank-3 scan
reads no root.  powers_table's root rule runs through
_arrays.fixed_base_powmod, one k-ary loop over a table of g^w for its
constant base g = 2, 3, 5, ...  power_residues, x^((N-1)/k) on arrays, is
the one array form of the character for a base per element:
alpha_counts' characters and the rank-3 scan's ninth powers (k = 9) run
through it.  No scalar helper here works without a context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import numpy as np

from ._arrays import class_products, fixed_base_powmod, powmod
from .errors import DomainError
from .primes import is_prime, require_within_cap

MODULUS_BITS = 62


def check_contract(n: int, p: int) -> None:
    """Raise DomainError unless p is an odd prime and N < 2^62 a prime != p with N = 1 (mod p)."""
    if n >= 1 << MODULUS_BITS:
        raise DomainError(f"N={n} exceeds the 2^{MODULUS_BITS} bound")
    if p >= 1 << MODULUS_BITS:  # no such p divides N - 1; is_prime proves nothing past 2^64
        raise DomainError(f"p={p} exceeds the 2^{MODULUS_BITS} bound")
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
    residue_mod_p2: int = field(init=False)
    pi_ramified: bool = field(init=False)
    zeta_is_norm: bool = field(init=False)

    def __post_init__(self) -> None:
        r = self.n % (self.p * self.p)
        self.__dict__.update(residue_mod_p2=r, pi_ramified=r != 1, zeta_is_norm=r == 1)


def classify_target(n: int, p: int) -> TargetClass:
    """Classify prime N = 1 (mod p) by the congruence N mod p^2; builds no context."""
    check_contract(n, p)
    return TargetClass(n, p)


@dataclass(frozen=True)
class PowerClass:
    """Discrete log of chi(x) to the context's reference element ModulusContext.root.

    index == 0 exactly when x is a p-th power in F_N^x; indices add mod p
    under multiplication of arguments.
    """

    index: int


def power_residues(xs, ns, k: int) -> np.ndarray:
    """x^((N-1)/k) mod N, elementwise over xs >= 0 and sieved N = 1 (mod k) below the 2^30 cap.

    The one array form of the residue character for a base per element:
    invariants.alpha_counts' characters and the rank-3 scan's ninth powers
    read it.  uint64; the cap is enforced by _arrays.powmod, also under -O.
    """
    n = np.asarray(ns, dtype=np.uint64)
    return powmod(xs, (n - 1) // k, n)


def powers_table(ns, p: int) -> np.ndarray:
    """ModulusContext(N, p).powers as column i, for each N = ns[i] of sieved primes N = 1 (mod p).

    uint64, shape (p, len(ns)); every N must lie below the 2^30 cap, which the
    first fixed_base_powmod enforces before any product is taken.  The root by
    one fixed-base array modpow per prime g, retrying only the N still at 1.
    The rows fill by doubling: with rows 0..k-1 known, rows k..2k-2 are rows
    1..k-1 times row k-1, one product and one remainder written in place into
    the table, so about 2 log2(p) numpy calls in all, not p - 1 row products.
    """
    n = np.asarray(ns, dtype=np.uint64)
    e = (n - 1) // p
    root = fixed_base_powmod(2, e, n)
    g = 2
    while (retry := np.flatnonzero(root == 1)).size:
        g = next(q for q in count(g + 1) if is_prime(q))
        root[retry] = fixed_base_powmod(g, e[retry], n[retry])
    powers = np.empty((p, n.size), dtype=np.uint64)
    powers[0], powers[1] = 1, root
    k = 2  # rows 0..k-1 are filled
    while k < p:
        m = min(k - 1, p - k)
        block = powers[k : k + m]
        np.multiply(powers[1 : 1 + m], powers[k - 1], out=block)
        np.remainder(block, n, out=block)
        k += m
    return powers


def power_class(x: int, ctx: ModulusContext) -> PowerClass:
    """Index of chi(x) = x^((N-1)/p) relative to ctx.root, by linear scan over ctx.powers."""
    n = ctx.modulus
    if x % n == 0:
        raise DomainError("character undefined at zero")
    return PowerClass(ctx.powers.index(pow(x, ctx.cofactor, n)))


def factorial_mod(m: int, ctx: ModulusContext) -> int:
    """m! mod N for 0 <= m < N, the one class of class_products at p = 1; N within the O(N) cap."""
    n = ctx.modulus
    if not 0 <= m < n:
        raise DomainError(f"factorial argument {m} must lie in [0, N)")
    require_within_cap(n, "N")
    return int(class_products(m, 1, n)[0])
