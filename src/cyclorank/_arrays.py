"""Array arithmetic mod N for the batch kernels and the O(N) invariants.

Residues are uint64.  Every modulus lies below primes.DEFAULT_SIEVE_CAP
(2^30), the cap on the scans and on the O(N) products, so a product of two
residues stays below 2^60 and numpy's uint64 multiplication is exact.
The three kernels refuse a wider modulus with an explicit raise,
which python -O keeps; so does eisenstein.rank3_lattice, whose int64
lattice points (A^2 + 27B^2 = 4N <= 2^32) and isqrt are exact below the cap.

No kernel reduces after every product.  Each keeps a Python-int bound on
its entries and reduces only before a product that could reach 2^64:
powmod, whose exponent bits then take one remainder each for every modulus
up to 2,642,246 ((N-1)^3 < 2^64); fixed_base_powmod; and class_products,
the product tree behind every O(N) product (M and M_i, m!), which also
halves each block in place.

An array reduced by one modulus m goes through mod_by, whatever the caller;
np.remainder stays where the modulus differs per element (powmod,
fixed_base_powmod, modmath.powers_table's fill).

powmod is the left-to-right binary method (Knuth, TAOCP vol. 2, 4.6.3) with
no per-element select: np.where on a random mask of exponent bits costs
about 5 ns/element against under 1 ns on a constant mask, the price of
branch mispredictions, more than the 4 ns of a product a*b % n (20,000
uint64 residues, one core of a shared Intel Xeon).

fixed_base_powmod is the k-ary method (ibid.) for one small base g shared by
every element, with a fixed-base table (Brickell, Gordon, McCurley and
Wilson, "Fast exponentiation with precomputation", EUROCRYPT 1992): the
powers table's root rule, g = 2, 3, 5, ...  Its table holds the plain
integers g^w, w < 2^k, not residues, so one table of 2^k entries is exact
for every modulus at once; k squares and one np.take and product per k-bit
window replace powmod's per-bit factor.  Its overflow bound: a product by a
table entry, at most g^(2^k - 1), after a reduction stays below 2^64 while
g^(2^k - 1) * (max(mod) - 1) < 2^64, which its choice of k and g < 2^34
keep.  Windows over a base that differs per element would need a table per
element, 2^k products each, and lost to powmod's loop; that is why the
characters, whose bases are per element, stay on powmod.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .primes import DEFAULT_SIEVE_CAP

_BLOCK_CELLS = 1 << 20  # uint64 cells per class_products block: 8 MB


def _require_width(top: int) -> None:
    if top > DEFAULT_SIEVE_CAP:
        bits = DEFAULT_SIEVE_CAP.bit_length() - 1
        raise AssertionError(f"modulus {top} exceeds the 2^{bits} cap of the array kernels")


def powmod(base, exp, mod) -> np.ndarray:
    """base^exp mod mod, elementwise over the broadcast of three non-negative integer arrays.

    From the top exponent bit down, square the result, then multiply it by
    bit*(base - 1) + 1.  In wrapping uint64 arithmetic that factor is 1 for a
    0 bit and base mod N for a 1 bit, base 0 included, so every element takes
    the same products and no np.where picks between them.  The loop writes
    into buffers allocated once; its ufuncs run on arrays, even 0-d ones, so
    base - 1 wraps without a warning.

    class_products' reduction rule: top bounds every entry of the result, 1
    at the start, squared by each square, multiplied by n1 = max(mod) - 1 at
    each factor product, n1 after a reduction.  The result is reduced in
    place only before a product that could reach 2^64 (top * top or top * n1
    >> 64 nonzero), and once after the loop.  A factor is at most n1 where
    max(mod) > 1, and where every modulus is 1 the result is 0 throughout, so
    every product is exact.  For max(mod) <= 2,642,246, the largest N with
    (N-1)^3 < 2^64, a reduced result takes a square and a factor product
    unreduced, so each bit costs one remainder; above it, the result is
    reduced before both products, two remainders a bit.
    """
    base, exp, mod = (np.asarray(a, dtype=np.uint64) for a in (base, exp, mod))
    n1 = int(mod.max(initial=1)) - 1
    _require_width(n1 + 1)
    shape = np.broadcast_shapes(base.shape, exp.shape, mod.shape)
    base_less_one = np.empty(np.broadcast_shapes(base.shape, mod.shape), np.uint64)
    np.remainder(base, mod, out=base_less_one)
    base_less_one -= 1
    result = np.remainder(1, mod, out=np.empty(shape, np.uint64))
    factor = np.empty(shape, np.uint64)
    bit = np.empty(exp.shape, np.uint64)
    top = 1
    for k in reversed(range(int(exp.max(initial=0)).bit_length())):
        if top * top >> 64:
            np.remainder(result, mod, out=result)
            top = n1
        np.multiply(result, result, out=result)
        top *= top
        np.right_shift(exp, k, out=bit)
        bit &= 1
        np.multiply(bit, base_less_one, out=factor)
        factor += 1
        if top * n1 >> 64:
            np.remainder(result, mod, out=result)
            top = n1
        result *= factor
        top *= n1
    return np.remainder(result, mod, out=result)


def fixed_base_powmod(g: int, exp, mod) -> np.ndarray:
    """g^exp mod mod for an int g < 2^34, elementwise over the broadcast of two non-negative arrays.

    The k-ary method over one table of the plain integers g^w, w < 2^k, read
    by np.take: from the top, each k-bit window of the exponent takes k
    squares and one product by g^w, and the last window takes the bits left,
    so it may be narrower.  g^w is the same integer whatever the modulus, so
    one table serves every element, exact while a product stays below 2^64.

    powmod's reduction rule, with big = g^(2^k - 1) bounding every table
    entry: top bounds every entry of the result, and the result is reduced in
    place only before a square or a window product that could reach 2^64,
    and once after the loop.  A reduced result is at most n1 = max(mod) - 1
    < 2^30, so a square is exact, and so is a product by g^w while
    n1 * big < 2^64.  k is the largest k <= 5 with n1^2 * big < 2^64, so
    that a window's product after a reduced square needs no remainder of its
    own; where no k >= 2 fits, k = 1, and g < 2^34 keeps n1 * g below 2^64.
    """
    exp, mod = (np.asarray(a, dtype=np.uint64) for a in (exp, mod))
    n1 = int(mod.max(initial=2)) - 1  # at least 1, which keeps big below 2^64 when every modulus is 1
    _require_width(n1 + 1)
    k = max((k for k in range(2, 6) if not g ** ((1 << k) - 1) * n1 * n1 >> 64), default=1)
    table = np.array([g**w for w in range(1 << k)], dtype=np.uint64)
    big = g ** ((1 << k) - 1)
    exps = exp.astype(np.intp)  # np.take's index type; the cast keeps all 64 bits
    acc = np.remainder(1, mod, out=np.empty(np.broadcast_shapes(exp.shape, mod.shape), np.uint64))
    window = np.empty(exp.shape, np.intp)
    factor = np.empty(exp.shape, np.uint64)
    top = 1
    for shift in range(int(exp.max(initial=0)).bit_length() - k, -k, -k):
        width = k + min(shift, 0)
        for _ in range(width if top > 1 else 0):  # while top <= 1 each entry is its own square
            if top * top >> 64:
                np.remainder(acc, mod, out=acc)
                top = n1
            np.multiply(acc, acc, out=acc)
            top *= top
        np.right_shift(exps, max(shift, 0), out=window)
        window &= (1 << width) - 1
        np.take(table, window, out=factor, mode="clip")  # window < 2^k: "clip" skips the index check
        if top * big >> 64:
            np.remainder(acc, mod, out=acc)
            top = n1
        acc *= factor
        top *= big
    return np.remainder(acc, mod, out=acc)


def isqrt(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) of an int64 array in [0, 2^52): the float root is off by at most one."""
    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    s -= s * s > n
    s += (s + 1) * (s + 1) <= n
    return s


def mod_by(x: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """x mod m, as Python's % gives it, for an integer array x and one int modulus m > 0.

    Computed as x - (x // m) * m, in x's dtype: numpy divides by one integer
    through a precomputed reciprocal (Granlund and Montgomery, "Division by
    invariant integers using multiplication", PLDI 1994, by way of
    libdivide), while np.remainder and % divide each element in hardware.
    On 20,000 elements that is about 1.1 against 3.8 ns/element in uint64
    and 1.8 against 9.4 in int64 (one core of a shared Intel Xeon).  A
    floor quotient gives a negative x the residue in [0, m), as % does.
    out, the ufunc convention, receives the residues; it must not be x.
    """
    q = np.floor_divide(x, m, out=out)
    q *= m
    return np.subtract(x, q, out=q)


def class_products(hi: int, p: int, n: int) -> np.ndarray:
    """Entry r: the product mod n of the k in [1, hi] with k = r (mod p), for r = 0..p-1.

    k runs over a (rows, p) grid, k = row*p + r, in blocks of at most
    _BLOCK_CELLS cells; each block is reduced along its rows by a product
    tree (Bernstein, "Fast multiplication and its applications", 2008), and
    the block results are multiplied together.  A level of m rows multiplies
    its first h = m // 2 rows in place by its last h, two contiguous halves of
    one C-order block, so each level is one inner loop over h*p cells with no
    allocation; an odd m carries its middle row to the next level.

    top bounds every entry of the block: the block's largest k at first,
    squared by each level, n - 1 after a reduction.  The block is reduced
    mod n only before a level whose products could reach 2^64 (top * top >>
    64 nonzero): k below 2^16 run two levels unreduced, and for n below 2^16
    every other level runs unreduced.  hi < 2^32 (every caller has hi < n),
    so the first level's products are exact and a reduced block only ever
    holds residues below n <= 2^30.  A reduction therefore comes after the
    first level, on at most half a block: it writes the residues into the
    call's one scratch block of that size, which then swaps roles with the
    block, so no level allocates.
    """
    _require_width(n)
    rows = hi // p + 1  # row hi // p holds k = hi
    step = _BLOCK_CELLS // p
    spare = np.empty(((min(rows, step) + 1) // 2, p), dtype=np.uint64)
    blocks = (_block_product(hi, n, first * p, min(rows, first + step) * p, spare)
              for first in range(0, rows, step))
    return reduce(lambda acc, block: mod_by(acc * block, n), blocks)


def _block_product(hi: int, n: int, lo: int, end: int, spare: np.ndarray) -> np.ndarray:
    """class_products' column products mod n over the k in [lo, end), lo and end multiples of p.

    spare is a scratch block of at least half the block's rows, (end - lo) / p,
    rounded up.  The block lives only in this call, so it and spare are all
    the call holds, one and a half blocks.
    """
    p = spare.shape[1]
    a = np.arange(lo, end, dtype=np.uint64)
    a[max(0, hi + 1 - lo):] = 1  # k > hi
    if lo == 0:
        a[0] = 1  # k = 0
    a = a.reshape(-1, p)
    top = min(hi, end - 1)  # the block's largest k
    while (m := len(a)) > 1:
        if top * top >> 64:
            a, spare = mod_by(a, n, out=spare[:m]), a
            top = n - 1
        h = m // 2
        np.multiply(a[:h], a[m - h:], out=a[:h])
        a = a[: m - h]
        top *= top
    return mod_by(a[0], n)
