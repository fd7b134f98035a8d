"""Array arithmetic mod N for the batch kernels.

Residues are uint64.  Every modulus lies below primes.DEFAULT_SIEVE_CAP
(2^30), the cap on the scans, so a product of two residues stays below 2^60
and numpy's uint64 multiplication is exact.  powmod refuses a wider modulus
with an explicit raise, which python -O keeps.
"""

from __future__ import annotations

import numpy as np

from .primes import DEFAULT_SIEVE_CAP


def powmod(base, exp, mod) -> np.ndarray:
    """base^exp mod mod, elementwise over the broadcast of three non-negative integer arrays."""
    base, exp, mod = (np.asarray(a, dtype=np.uint64) for a in (base, exp, mod))
    if mod.size and int(mod.max()) > DEFAULT_SIEVE_CAP:
        raise AssertionError(f"modulus {int(mod.max())} exceeds the 2^30 cap of the array kernels")
    shape = np.broadcast_shapes(base.shape, exp.shape, mod.shape)
    result = np.ones(shape, dtype=np.uint64) % mod
    base = base % mod
    while exp.any():
        odd = (exp & 1).astype(bool)
        result = np.where(odd, result * base % mod, result)
        base = base * base % mod
        exp = exp >> 1
    return result
