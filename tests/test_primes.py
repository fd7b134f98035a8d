import bisect
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclorank.primes
from cyclorank.errors import DomainError
from cyclorank.modmath import TargetClass, check_contract, classify_target
from cyclorank.primes import DEFAULT_SIEVE_CAP, is_prime, primes_in_class, primes_in_range
from cyclorank.scan import scan_alpha
from oracles import is_prime_12_witnesses, is_strong_probable_prime


def _trial_division(limit):
    out = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


def test_is_prime_small():
    primes = set(_trial_division(500))
    for n in range(500):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2**61 - 1)  # Mersenne
    assert not is_prime(2**61 + 1)
    assert is_prime(1_000_003)
    assert is_prime(2**64 - 59)  # the largest prime below the bound
    assert not is_prime(2**64 - 1)


def test_is_prime_matches_a_sieve_below_10_6():
    limit = 10**6
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(limit - 1) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, limit, q)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


@pytest.mark.parametrize(
    "n",
    [
        # the least strong pseudoprimes to the first k prime bases, k = 1..6, 8 and 11
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051,
        4759123141,  # strong pseudoprime to the bases 2, 7 and 61
        561, 1105, 1729, 2465, 2821, 6601, 8911,  # Carmichael numbers
        # a Chernick Carmichael number (6k + 1)(12k + 1)(18k + 1), k = 152420, below 2^62
        914521 * 1829041 * 2743561,
        # the least strong Lucas pseudoprimes for Selfridge's parameters: the Lucas half
        # passes each, so only the base-2 half refuses them
        5459, 5777, 10877, 16109, 18971,
    ],
)
def test_is_prime_refuses_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("q", [13, 19, 73, 193, 407521, 299210837])
def test_is_prime_accepts_the_divisors_of_fixed_bases(q):
    # each prime divides a base of some fixed-base Miller-Rabin set below 2^64 (Sinclair's
    # 325, 9375, 28178, 450775, 9780504, 1795265022), the primes such a test must skip a
    # base for; 13 and 19 end at trial division, the other four pass both Baillie-PSW halves
    assert is_prime(q)


def test_is_prime_refuses_every_base_2_strong_pseudoprime_below_10_6():
    # the base-2 half passes each (2047 is the least), so only the Lucas half refuses them
    pseudoprimes = [n for n in range(3, 10**6, 2)
                    if is_strong_probable_prime(n, 2) and not is_prime_12_witnesses(n)]
    assert len(pseudoprimes) == 46 and pseudoprimes[0] == 2047
    assert not any(map(is_prime, pseudoprimes))


def test_is_prime_refuses_squares_before_the_search_for_d(monkeypatch):
    # (D/n) is never -1 on a square, so a square must not reach the search for D.  1093
    # and 3511 are the Wieferich primes, so their squares pass the base-2 half;
    # (2^32 - 5)^2 is the square of the largest prime below 2^32
    jacobi_calls = []
    monkeypatch.setattr(cyclorank.primes, "_jacobi", lambda *args: jacobi_calls.append(args))
    for n in (1093**2, 3511**2):
        assert is_strong_probable_prime(n, 2)
        assert not is_prime(n)
    assert not is_prime((2**32 - 5) ** 2) and is_prime_12_witnesses(2**32 - 5)
    assert jacobi_calls == []


def test_is_prime_matches_the_12_witness_oracle_seeded():
    rng = random.Random(22)
    for _ in range(20_000):
        n = rng.randrange(1 << rng.randrange(3, 62)) | 1  # odd, every bit length below 2^62
        assert is_prime(n) == is_prime_12_witnesses(n), n


@settings(max_examples=2000, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_is_prime_matches_the_12_witness_oracle(n):
    assert is_prime(n) == is_prime_12_witnesses(n)


def test_is_prime_refuses_n_past_its_bound():
    # the Baillie-PSW check against Feitsma and Galway's list stops at 2^64
    for n in (2**64, 2**64 + 13, 2**89 - 1):
        with pytest.raises(DomainError, match="2\\^64"):
            is_prime(n)
    # the contract refuses such a p by its own 2^62 bound before any primality test
    for p in (2**62 + 135, 2**89 - 1):
        with pytest.raises(DomainError, match="p=.*2\\^62"):
            check_contract(7, p)


def test_stream_examples():
    assert list(primes_in_class(100, 3, {1})) == [7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97]
    assert list(primes_in_class(50, 9, {4, 7})) == [7, 13, 31, 43]
    assert list(primes_in_class(10, 9, {1})) == []


def test_stream_matches_trial_division():
    reference = _trial_division(10**5)
    assert list(primes_in_class(10**5, 1, {0})) == reference
    for modulus, residues in ((3, {1}), (9, {4, 7}), (9, {1}), (25, {1, 6, 11, 16, 21})):
        want = [n for n in reference if n % modulus in residues]
        assert list(primes_in_class(10**5, modulus, residues)) == want


def test_base_primes_come_from_the_segment_sieve():
    # primes_in_class(L, 1, ...) runs the path that sieves every stream's base
    # primes: one segment sieve, recursing on sqrt(L); 2^15 +- 1 is the base
    # size at the 2^30 cap
    reference = [q for q in range(2**15 + 2) if is_prime(q)]
    for limit in (*range(2, 3000), 2**15 - 1, 2**15 + 1):
        want = reference[: bisect.bisect_right(reference, limit)]
        assert list(primes_in_class(limit, 1, [0])) == want, limit
    # modulus 1 sends every prime to residue 0, so its filter drops nothing
    assert list(primes_in_class(10**4, 1, [7])) == list(primes_in_range(2, 10**4 + 1))


def test_stream_ranges_cover_whole_interval():
    whole = list(primes_in_range(2, 5000, 3, {1}))
    pieces = []
    for lo in range(2, 5000, 777):
        pieces.extend(primes_in_range(lo, min(lo + 777, 5000), 3, {1}))
    assert pieces == whole


@pytest.mark.parametrize("modulus, residues", [(9, {1, 4, 7}), (2 * 97, {1})])
def test_stream_pieces_cut_the_progression_anywhere(modulus, residues):
    # pieces of odd width 777 start at odd and even lo in turn, so their edges fall
    # between the cells of the sieved progression (1 mod 6 at modulus 9, 1 mod 194)
    whole = list(primes_in_range(2, 50_000, modulus, residues))
    pieces = []
    for lo in range(2, 50_000, 777):
        pieces.extend(primes_in_range(lo, min(lo + 777, 50_000), modulus, residues))
    assert pieces == whole and len(whole) > 50


def test_stream_edge_cells_two_and_one():
    # 2 lies outside every sieved (odd) progression and 1 is no prime
    for modulus in range(1, 13):
        for classes in ({r} for r in range(modulus) if math.gcd(r, modulus) == 1):
            for lo in range(-1, 5):
                for hi in range(lo, 8):
                    want = [n for n in (2, 3, 5, 7) if lo <= n < hi and n % modulus in classes]
                    assert list(primes_in_range(lo, hi, modulus, classes)) == want
    assert 1 not in primes_in_range(0, 100, 2, {1})
    assert list(primes_in_class(2, 3, {2})) == [2]
    assert list(primes_in_class(2, 3, {1})) == []


def _eratosthenes(lo, hi):
    """Every prime in [lo, hi] by a plain sieve of all integers, base primes by their own."""
    root = math.isqrt(hi)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for q in range(2, math.isqrt(root) + 1):
        if small[q]:
            small[q * q :: q] = False
    mask = np.ones(hi - lo + 1, dtype=bool)
    mask[: max(0, 2 - lo)] = False
    for q in np.flatnonzero(small).tolist():
        mask[max(q * q, -(-lo // q) * q) - lo :: q] = False
    return lo + np.flatnonzero(mask)


def _scan_class_sets():
    # a scan's classes mod p^2 (each also alone), then residues with no common
    # progression, even moduli, and modulus 1
    yield 9, {1, 4, 7}
    yield 9, {4, 7}
    for p in (5, 13, 97):
        ones = {1 + k * p for k in range(p)}
        yield p * p, ones
        yield from ((p * p, {r}) for r in sorted(ones))
    yield 3, {1, 2}
    yield 35, {1, 2, 4}
    yield 2, {1}
    yield 8, {1, 5}
    yield 194, {1}
    yield 1, {0}


@pytest.mark.parametrize("lo, hi", [(2, 10**7), (2**30 - 10**7, 2**30)])
def test_progression_sieve_matches_eratosthenes(lo, hi):
    reference = _eratosthenes(lo, hi)
    for modulus, classes in _scan_class_sets():
        want = reference[np.isin(reference % modulus, list(classes))]
        got = np.fromiter(primes_in_range(lo, hi + 1, modulus, classes), dtype=np.int64)
        assert np.array_equal(got, want), (modulus, sorted(classes)[:3])


def test_stream_errors():
    # every check runs at call time, before the first next()
    with pytest.raises(DomainError, match="coprime"):
        primes_in_class(100, 9, {3})
    with pytest.raises(DomainError, match="nonempty"):
        primes_in_class(100, 9, set())
    with pytest.raises(DomainError, match="cap"):
        primes_in_class(2**31, 3, {1})
    # the cap bounds every sieve, not only primes_in_class's; the cap itself is allowed
    with pytest.raises(DomainError, match="cap"):
        primes_in_range(2**40, 2**40 + 10**4)
    primes_in_range(2, DEFAULT_SIEVE_CAP + 1)  # not iterated: the check alone
    with pytest.raises(DomainError, match="modulus"):
        primes_in_class(40, -3, {1})
    with pytest.raises(DomainError, match="modulus"):
        primes_in_class(40, 0, {1})
    with pytest.raises(DomainError, match="limit must be at least 2"):
        primes_in_class(1, 3, {1})


def test_stream_takes_a_modulus_above_the_limit():
    # N < modulus is its own residue, so a modulus or residue past int64 needs no array of it
    assert list(primes_in_class(100, 2**62, [3])) == [3]
    assert list(primes_in_class(100, 2**63, [3])) == [3]
    assert list(primes_in_class(100, 2**70, [3, 97, 2**64 + 1])) == [3, 97]
    assert list(primes_in_class(100, 2**70, [2**64 + 1])) == []
    assert list(primes_in_range(90, 100, 2**63 + 1, [2**63 + 98, 97])) == [97]
    assert list(primes_in_range(2, 10, 21, {5})) == [5]  # 5 shares a factor with hi = 10
    assert list(primes_in_range(2, 25, 25, {2, 3, 7})) == [2, 3, 7]  # the modulus is hi
    assert list(primes_in_range(30, 60, 97, {5, 7})) == []  # lo lies above every residue
    # a scan reads the stream in chunks; p^2 = 9409 lies past every shard's hi
    want = sum(1 for n in _trial_division(5000) if n % 97 == 1)
    assert scan_alpha(97, 5000, shards=3, workers=1).total == want == 8
    reference = _trial_division(3000)
    rng = random.Random(18)
    for _ in range(300):
        limit = rng.randrange(2, 3000)
        modulus = rng.choice([rng.randrange(1, 40), rng.randrange(1, 2 * limit + 2),
                              2**rng.randrange(1, 80)])
        residues = {rng.randrange(2**rng.randrange(1, 80)) for _ in range(rng.randrange(1, 5))}
        residues = {r for r in residues if math.gcd(r % modulus, modulus) == 1} or {1}
        classes = {r % modulus for r in residues}
        want = [n for n in reference if n <= limit and n % modulus in classes]
        assert list(primes_in_class(limit, modulus, residues)) == want, (limit, modulus, residues)


def test_counting_sanity_dirichlet_densities():
    # among primes = 1 (mod 3): class {1} (mod 9) has density 1/3, {4,7} has 2/3
    n_all = sum(1 for _ in primes_in_class(10**6, 3, {1}))
    n_1 = sum(1 for _ in primes_in_class(10**6, 9, {1}))
    n_47 = sum(1 for _ in primes_in_class(10**6, 9, {4, 7}))
    assert n_1 + n_47 == n_all
    assert abs(n_1 / n_all - 1 / 3) < 0.02
    assert abs(n_47 / n_all - 2 / 3) < 0.02


def test_classify_examples():
    t = classify_target(7, 3)
    assert (t.residue_mod_p2, t.pi_ramified, t.zeta_is_norm) == (7, True, False)
    t = classify_target(19, 3)
    assert (t.residue_mod_p2, t.pi_ramified, t.zeta_is_norm) == (1, False, True)
    t = classify_target(101, 5)
    assert (t.residue_mod_p2, t.pi_ramified, t.zeta_is_norm) == (1, False, True)


def test_classify_flags_exclusive_exhaustive():
    for n in primes_in_class(3000, 3, {1}):
        t = classify_target(n, 3)
        assert t.pi_ramified != t.zeta_is_norm
        assert t.pi_ramified == (n % 9 != 1)


def test_classify_errors():
    with pytest.raises(DomainError, match="split completely"):
        classify_target(5, 3)
    with pytest.raises(DomainError, match="differ"):
        classify_target(3, 3)
    with pytest.raises(DomainError, match="not prime"):
        classify_target(25, 3)
    with pytest.raises(DomainError, match="odd prime"):
        classify_target(7, 4)
    with pytest.raises(TypeError):  # the residue and both flags are derived from (N, p)
        TargetClass(7, 3, 7, pi_ramified=False, zeta_is_norm=False)
    with pytest.raises(DomainError, match="2\\^62"):
        classify_target(2**62 + 135, 3)  # prime, 1 (mod 3), outside the contract
