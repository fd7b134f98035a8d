import pytest

from cyclorank.errors import DomainError
from cyclorank.modmath import classify_target
from cyclorank.primes import DEFAULT_SIEVE_CAP, is_prime, primes_in_class, primes_in_range


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
    # strong pseudoprimes to the first 4, 8 and 11 prime bases; all below 2^62
    assert not is_prime(3215031751)
    assert not is_prime(341550071728321)
    assert not is_prime(3825123056546413051)


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


def test_stream_ranges_cover_whole_interval():
    whole = list(primes_in_range(2, 5000, 3, {1}))
    pieces = []
    for lo in range(2, 5000, 777):
        pieces.extend(primes_in_range(lo, min(lo + 777, 5000), 3, {1}))
    assert pieces == whole


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
    with pytest.raises(DomainError, match="2\\^62"):
        classify_target(2**62 + 135, 3)  # prime, 1 (mod 3), outside the contract
