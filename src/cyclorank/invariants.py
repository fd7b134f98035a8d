"""F_N-valued product invariants and the counts mu and alpha they induce.

Three product families are evaluated through the p-th-power residue character:

  * M      = prod_{k=1}^{(N-1)/2} k^k
  * M_i    = prod_{k=1}^{N-1} prod_{a=1}^{k-1} k^(a^i)   for odd i in 1..p-4
  * U_k    = prod_{j=1}^{p-1} (1 - f^j)^(j^k)            for 0 < k < p-1

where f = ModulusContext.root, the one reference element of order p that
every character index is taken against (alpha and mu do not depend on it).
Only the power class of M and M_i is needed, so their exponents are reduced
mod p at the character level; U_k additionally reports the residue itself.
mu counts the odd i with M_i not a p-th power; alpha counts the even i with
U_(p-1-i) a p-th power.  Both counts presume p regular, guarded by
is_regular: Kummer's criterion, p irregular iff p divides the numerator of
some B_k, k even in 2..p-3, read off sum_{a=1}^{p-1} a^k = p*B_k (mod p^2)
(Washington, "Introduction to Cyclotomic Fields", ch. 5), for p within the
context's cap.

M and every M_i come from one walk (product_classes) over k <= (N-1)/2.
The character index is additive, and the exponent of k in M_i is
S_i(k-1) = sum_{a<k} a^i.  For odd i in 1..p-4, p-1 does not divide i, so
sum_{a=0}^{p-1} a^i = 0 (mod p) and S_i(k-1) mod p depends only on
(k-1) mod p: it is T_i[(k-1) mod p] with T_i[s] = sum_{a=1}^{s} a^i, and
(p-a)^i = -a^i gives T_i[p-1-s] = T_i[s].  The walk groups k by its residue
r mod p into Q_r = prod_{k<=(N-1)/2, k=r} k.

Reflection halves the walk: -1 = (-1)^p is a p-th power and N = 1 (mod p),
so k -> N-k maps the k > (N-1)/2 with k = r onto the Q_(1-r) with equal
index.  Their weight T_i[-r mod p] equals T_i[r-1] by the symmetry, so

  ind(M)   = sum_r r * ind(Q_r),
  ind(M_i) = 2 * sum_r T_i[r-1] * ind(Q_r)  (mod p),

and both coefficients vanish at r = 0.  Both are sums over a < r, as
r = sum_{a<r} 1 and T_i[r-1] = sum_{a<r} a^i, so summation by parts reads M
and every M_i off the tail sums tail[a] = sum_{r>a} ind(Q_r), a = 0..p-2:

  ind(M)   = sum_a tail[a],
  ind(M_i) = 2 * sum_a a^i * tail[a]  (mod p).

So (N-1)/2 modular products and p-1 characters give M, every M_i and mu.
The products are array products: _arrays.class_products lays k <= (N-1)/2
out as a (rows, p) uint64 grid and reduces each column by a product tree
that halves the grid in place, reducing mod N only when a product could
reach 2^64, in blocks of at most 2^20 cells (8 MB), so memory stays
bounded at any N.
The walk, and the scalar m_class_direct oracle, refuse N above
primes.DEFAULT_SIEVE_CAP (2^30) with a DomainError, which also keeps every
product exact in uint64.  The context itself refuses p^3 above the same cap
(p > 1021), so every reader of a character here, and invariant_record, whose
U_k cost grows as p^2, runs only below it.

alpha needs only the power class of each U_k, so it too is linear in the
character index.  The exponent j^k of (1 - f^j) matters mod p only, so with
a_j = ind(1 - f^j),

  ind(U_k) = sum_{j=1}^{p-1} (j^k mod p) * a_j  (mod p).

The same reflection halves the characters: 1 - f^-j = -f^-j (1 - f^j),
and -1 is a p-th power, so a_(p-j) = a_j - j*c with
c = ind(f) = ((N-1)/p) mod p.  For even k, (p-j)^k = j^k (mod p), hence

  ind(U_k) = sum_{j=1}^{(p-1)/2} (j^k mod p) * (2*a_j - j*c)  (mod p).

For even k in 2..p-3, p-1 does not divide k, so sum_{j=1}^{p-1} j^k = 0
(mod p), and by the same symmetry sum_{j=1}^{(p-1)/2} j^k = 0 (mod p): every
row of the weights sums to 0, and the form cannot see a constant shift of
its (p-1)/2 coefficients.  Shift them by 2*a_1 - c: the coefficient becomes
2*(a_j - a_1) - (j-1)*c, and a_j - a_1 = ind(u_j) for the unit

  u_j = (1 - f^j)/(1 - f) = 1 + f + ... + f^(j-1),

whose coefficient vanishes at j = 1, as u_1 = 1.  So

  ind(U_k) = sum_{j=2}^{(p-1)/2} (j^k mod p) * (2*ind(u_j) - (j-1)*c)  (mod p),

and alpha takes (p-3)/2 characters per N, read against the context's
powers, with a (p-3)/2 x (p-1)/2 table of j^k mod p built once per p
(_twists), of which the form reads the columns j >= 2.  unit_products
evaluates every U_k itself in F_N, for the residues invariant_record
reports; InvariantRecord checks every flag of the linear form against that
U_k.  By Fermat the exponent j^k needs no reduction mod N-1: with
V_(j,0) = 1 - f^j and V_(j,k) = V_(j,k-1)^j, U_k = prod_j V_(j,k), so every
modpow has an exponent below p.

alpha_counts is the batch form that the alpha scan runs: for an array of
sieved N below the 2^30 cap it takes the roots' powers from
modmath.powers_table, the units u_j as running sums of its rows, their
(p-3)/2 characters as one 2-D modmath.power_residues on the shared exponent
(N-1)/p, their discrete logs by an in-place masked count against the
powers, and every flag by _flags, the one evaluation of the linear form.
The count makes one pass per power k = 1..p-1 over buffers allocated once
per call: eq = (chars == f^k), found |= eq, logs += k * eq.  A character of
a prime N matches exactly one power, so logs ends at its index, and found,
started at the k = 0 matches, guards the value that matches none (a
composite N) with an explicit AssertionError.  logs and the term k * eq are
int16, as an index is below p <= 1021: each pass writes 2 bytes per value,
where an int64 masked sum, which allocated its temporaries, lost 2x to a
masked store at p = 97.  The scalar is np.int16(k): with a Python int, NumPy
2 runs the multiply as an int64 loop and casts it back, several times the
cost of the int16 loop.
The passes are dense, so the logs stay O(p^2) per N, as the masked store's
were.  uint64 residues are exact below the cap (_arrays).  alpha_count is the
point-query kernel and the batch kernel's oracle: the same units, summed as
it runs, and the same _flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate

import numpy as np

from ._arrays import class_products, powmod
from .errors import DomainError
from .modmath import ModulusContext, PowerClass, power_class, power_residues, powers_table
from .primes import DEFAULT_SIEVE_CAP, is_prime, require_within_cap


def is_regular(p: int) -> bool:
    """Whether p is a regular prime within the context's cap (p^3 <= 2^30, so p <= 1021).

    The cap is tested first, so any integer p is answered without a raise.
    """
    return 3 <= p and p**3 <= DEFAULT_SIEVE_CAP and _kummer(p)


@cache
def _kummer(p: int) -> bool:
    """p prime and regular by Kummer's criterion: no sum_{a=1}^{p-1} a^k is 0 mod p^2.

    Here k runs over the even k in 2..p-3.  That sum is p*B_k mod p^2, so it
    vanishes exactly when p divides the numerator of B_k.
    """
    k = np.arange(2, p - 2, 2)[:, None]
    return is_prime(p) and bool((powmod(np.arange(1, p), k, p * p).sum(axis=1) % (p * p)).all())


def require_regular(p: int) -> None:
    if not is_regular(p):
        raise DomainError(
            f"p={p} fails the regularity guard (Kummer's criterion, p <= 1021): "
            "regular pairs require eigenspace data"
        )


@dataclass(frozen=True)
class ProductClasses:
    """Power classes of M and of every M_i (odd i in 1..p-4), against ctx.root."""

    m: PowerClass
    mi: dict[int, PowerClass]


def product_classes(ctx: ModulusContext) -> ProductClasses:
    """M and every M_i from one walk over k <= (N-1)/2, split by k mod p.

    The walk is one call of _arrays.class_products, which returns the
    product Q_r for every residue r, and takes p-1 characters.  By
    summation by parts, as in the module docstring, M and every M_i are
    read off the tail sums tail[a] = sum_{r>a} ind(Q_r), a = 0..p-2.
    """
    n, p = ctx.modulus, ctx.p
    require_within_cap(n, "N")
    products = class_products((n - 1) // 2, p, n)  # Q_r at index r
    q_index = [power_class(q, ctx).index for q in products[1:].tolist()]  # r = 1..p-1
    tail = list(accumulate(reversed(q_index)))[::-1]  # tail[a] = sum_{r>a} ind(Q_r)
    mi = {
        i: PowerClass(2 * sum(pow(a, i, p) * t for a, t in enumerate(tail)) % p)
        for i in range(1, p - 3, 2)
    }
    return ProductClasses(PowerClass(sum(tail) % p), mi)


def m_class_direct(ctx: ModulusContext, f: int) -> PowerClass:
    """Oracle for product_classes(ctx).m: evaluate M in F_N, then classify against f.

    Shares no code with power_class: chi(M) is matched against f^0..f^(p-1)
    here, so with f = ctx.root the two must agree.
    """
    n = ctx.modulus
    require_within_cap(n, "N")
    acc = 1
    for k in range(2, (n - 1) // 2 + 1):
        acc = acc * pow(k, k, n) % n
    chi = pow(acc, ctx.cofactor, n)
    powers = [pow(f, i, n) for i in range(ctx.p)]
    if chi not in powers:
        raise DomainError(f"f={f} does not have order {ctx.p} mod {n}")
    return PowerClass(powers.index(chi))


@dataclass(frozen=True)
class MuBound:
    """mu together with the induced class-rank bound p - 2 - 2*mu for Q(N^(1/p))."""

    mu: int
    cl_f_upper: int

    @classmethod
    def of(cls, p: int, mi: dict[int, PowerClass]) -> "MuBound":
        mu = sum(1 for c in mi.values() if c.index != 0)
        return cls(mu=mu, cl_f_upper=p - 2 - 2 * mu)


def mu_count(ctx: ModulusContext) -> MuBound:
    """Count odd i in 1..p-4 with M_i not a p-th power (regular p only)."""
    require_regular(ctx.p)
    return MuBound.of(ctx.p, product_classes(ctx).mi)


@dataclass(frozen=True)
class UnitProduct:
    """Residue and power class of prod_j (1 - f^j)^(j^k), f = ModulusContext.root."""

    value: int
    cls: PowerClass


def unit_products(ctx: ModulusContext) -> dict[int, UnitProduct]:
    """U_k = prod_{j=1}^{p-1} (1 - f^j)^(j^k) in F_N, f = ctx.root, for every 0 < k < p-1.

    By the recurrence V_(j,k) = V_(j,k-1)^j from V_(j,0) = 1 - f^j, so each
    of the (p-2)(p-1) modpows has an exponent below p.
    """
    n = ctx.modulus
    v = [n + 1 - f_j for f_j in ctx.powers[1:]]  # V_(j,0) = 1 - f^j for j = 1..p-1
    out = {}
    for k in range(1, ctx.p - 1):
        v = [pow(x, j, n) for j, x in enumerate(v, 1)]  # V_(j,k) = V_(j,k-1)^j
        acc = 1
        for x in v:
            acc = acc * x % n
        out[k] = UnitProduct(value=acc, cls=power_class(acc, ctx))
    return out


@dataclass(frozen=True)
class AlphaCount:
    """alpha plus the per-twist indicator behind it.

    power_flags[i] is True when U_(p-1-i) is a p-th power, i.e. when the
    twist-i cohomological contribution to the refined lower bound is 1.
    Made from the flags; alpha is derived, the number of True flags.
    """

    alpha: int = field(init=False)
    power_flags: dict[int, bool]

    def __post_init__(self) -> None:
        self.__dict__.update(alpha=sum(self.power_flags.values()))


@cache
def _twists(p: int) -> np.ndarray:
    """Row r holds j^(p-3-2r) mod p for j = 1..(p-1)/2: the weights of even twist i = 2r + 2.

    Every row sums to 0 mod p, which lets the linear form drop j = 1.
    """
    return powmod(np.arange(1, (p + 1) // 2), np.arange(p - 3, 1, -2)[:, None], p).astype(np.int16)


def _flags(p: int, b: np.ndarray) -> np.ndarray:
    """Row r: whether ind(U_k) = sum_{j=2}^{(p-1)/2} (j^k mod p) * b_j is 0 mod p, k = p-3-2r.

    b holds b_j at row j - 2: a vector, or one column per N.
    """
    return _twists(p)[:, 1:] @ b % p == 0


def alpha_counts(ns, p: int) -> np.ndarray:
    """alpha for each N of an array of sieved primes N = 1 (mod p) below the 2^30 cap.

    The batch form of alpha_count: the same root, units u_j, characters and
    linear form, evaluated on arrays, (p-3)/2 characters per N.  The logs are
    an in-place masked count against the powers, in int16 with an int16
    scalar k, as in the module docstring.  Raises AssertionError when a
    character value is no power of the root, which a composite N can cause.
    """
    n = np.asarray(ns, dtype=np.uint64)
    if p == 3:
        return np.zeros(n.shape, dtype=np.int64)
    powers = powers_table(n, p)
    half = (p + 1) // 2
    # row j - 2 becomes u_j = 1 + f + ... + f^(j-1), j = 2..(p-1)/2, below 2^39: powmod reduces it
    units = powers[1 : half - 1].copy()
    units[0] += 1
    for r in range(1, half - 2):
        units[r] += units[r - 1]
    chars = power_residues(units, n, p)
    # logs by an in-place masked count: each value matches one power, so logs sums k * eq
    eq = np.empty(chars.shape, dtype=bool)
    term = np.empty(chars.shape, dtype=np.int16)
    logs = np.zeros(chars.shape, dtype=np.int16)
    found = chars == powers[0]
    for k in range(1, p):
        np.equal(chars, powers[k], out=eq)
        found |= eq
        np.multiply(eq, np.int16(k), out=term)  # an int16 scalar keeps the loop in int16
        logs += term
    if (unmatched := ~found.all(axis=0)).any():
        raise AssertionError(f"N={n[unmatched][0]}: a character value is no power of the root")
    j = np.arange(2, half, dtype=np.int64)[:, None]
    b = 2 * logs - (j - 1) * ((n - 1) // p % p).astype(np.int64)  # c = ind(f) = ((N-1)/p) mod p
    return _flags(p, b).sum(axis=0)


def alpha_count(ctx: ModulusContext) -> AlphaCount:
    """Count positive even i < p-1 with U_(p-1-i) a p-th power in F_N^x (0 for p = 3).

    By the linear form in the module docstring: (p-3)/2 characters of the
    units u_j = 1 + f + ... + f^(j-1), j = 2..(p-1)/2, no U_k; as every row
    of the weights sums to 0 mod p, u_1 = 1 is left out.
    """
    n, p, e, powers = ctx.modulus, ctx.p, ctx.cofactor, ctx.powers
    if p == 3:
        return AlphaCount(power_flags={})
    c = e % p
    # b_j = 2*ind(u_j) - (j-1)*c, the weight of j^k in ind(U_k); u runs unreduced, pow reduces it
    b, u = [], 1
    for j in range(2, (p + 1) // 2):
        u += powers[j - 1]
        b.append(2 * powers.index(pow(u, e, n)) - (j - 1) * c)
    flags = _flags(p, np.array(b)).tolist()
    return AlphaCount(power_flags={2 * r: f for r, f in enumerate(flags, 1)})


@dataclass(frozen=True)
class InvariantRecord:
    """Everything the product invariants say about one (N, p); f is ModulusContext.root.

    Made from the classes, the products and the flags; the rest is derived:
    alpha counts the True power_flags, and mu and cl_f_upper are
    MuBound.of(p, mi_classes) when is_regular(p), else None.
    """

    n: int
    p: int
    f: int
    m_cls: PowerClass
    mi_classes: dict[int, PowerClass]
    mk_products: dict[int, UnitProduct]
    mu: int | None = field(init=False)
    cl_f_upper: int | None = field(init=False)
    alpha: int = field(init=False)
    power_flags: dict[int, bool]

    def __post_init__(self) -> None:
        mu = cl_f_upper = None
        if is_regular(self.p):
            mb = MuBound.of(self.p, self.mi_classes)
            mu, cl_f_upper = mb.mu, mb.cl_f_upper
        self.__dict__.update(mu=mu, cl_f_upper=cl_f_upper, alpha=sum(self.power_flags.values()))
        if not 0 <= self.alpha <= max(0, (self.p - 3) // 2):
            raise AssertionError(f"alpha={self.alpha} out of range for p={self.p}")
        if 1 in self.mi_classes and (self.m_cls.index == 0) != (self.mi_classes[1].index == 0):
            raise AssertionError(f"M and M_1 disagree on p-th powers at N={self.n}")
        for i, flag in self.power_flags.items():
            k = self.p - 1 - i
            if flag != (self.mk_products[k].cls.index == 0):
                raise AssertionError(f"alpha's flag {i} disagrees with U_{k} at N={self.n}")


def invariant_record(n: int, p: int) -> InvariantRecord:
    """Assemble the full invariant set for one target prime.

    Includes the O(N) products, so this is for single-N queries, not scans.
    The p-dependent work, (p-2)(p-1) modpows with exponents below p for the
    U_k and about 2p^2 discrete-log comparisons, is bounded by the context,
    which refuses p^3 above the O(N) cap (p > 1021) before any of it runs.
    """
    ctx = ModulusContext(n, p)
    pc = product_classes(ctx)
    return InvariantRecord(n=n, p=p, f=ctx.root, m_cls=pc.m, mi_classes=pc.mi,
                           mk_products=unit_products(ctx),
                           power_flags=alpha_count(ctx).power_flags)
