import dataclasses
import math
import random

import pytest

from cyclorank.eisenstein import (
    _STAR_CANDIDATES,
    EisensteinInt,
    QuadRep,
    cornacchia_4n,
    cubic_symbol,
    gerth_matrix,
    hilbert_pi_unit_criterion,
    represent_4n,
    represent_4n_bruteforce,
    split_prime,
    star_condition,
)
from cyclorank.errors import DomainError
from cyclorank.modmath import ModulusContext, factorial_mod
from cyclorank.primes import is_prime, primes_in_class


def test_eis_arithmetic():
    x = EisensteinInt(3, -2)
    z = x.times_zeta()
    assert z.norm() == x.norm()
    assert z.times_zeta().times_zeta() == x  # zeta^3 = 1
    assert EisensteinInt(2**63, 0).norm() == 2**126  # Python integers are exact


def test_gerth_matrix_guard_survives_dash_o(monkeypatch):
    from cyclorank import eisenstein

    flipped = eisenstein.hilbert_pi_unit_criterion
    monkeypatch.setattr(eisenstein, "hilbert_pi_unit_criterion", lambda s: not flipped(s))
    with pytest.raises(AssertionError, match="Hilbert"):
        gerth_matrix(split_prime(7))


def test_associate_count():
    # exactly one of the six unit multiples is 1 (mod 3), exactly two are +-1
    for n in primes_in_class(2000, 3, {1}):
        g = split_prime(n).primary
        z1 = g.times_zeta()
        z2 = z1.times_zeta()
        mods = [(x.a % 3, x.b % 3) for x in (g, z1, z2, -g, -z1, -z2)]
        assert mods.count((1, 0)) == 1
        assert mods.count((2, 0)) == 1


def test_represent_examples():
    assert represent_4n(7) == QuadRep(1, 1, 7)
    assert represent_4n(13) == QuadRep(-5, 1, 13)
    assert represent_4n(61) == QuadRep(1, 3, 61)
    assert represent_4n_bruteforce(7) == QuadRep(1, 1, 7)
    assert represent_4n_bruteforce(19) == QuadRep(7, 1, 19)
    assert represent_4n_bruteforce(31) == QuadRep(4, 2, 31)


def test_represent_errors():
    with pytest.raises(DomainError):
        represent_4n(5)  # 5 = 2 (mod 3)
    with pytest.raises(DomainError):
        represent_4n(3)
    with pytest.raises(DomainError):
        represent_4n(21)  # composite
    with pytest.raises(DomainError, match="2\\^62"):
        represent_4n(2**62 + 135)  # prime, 1 (mod 3), outside the contract
    with pytest.raises(DomainError, match="2\\^62"):
        split_prime(2**64 + 1)


def test_cornacchia_failure_raises():
    # 25 = 1 (mod 3) has no primitive x^2 + 3y^2: the kernel must raise, not
    # assert, so the check also runs under python -O.
    with pytest.raises(DomainError, match="Cornacchia"):
        cornacchia_4n(25, pow(2, 8, 25))  # no context for composite 25: g = 2 by hand


def test_represent_oracle_equivalence():
    # acceptance runs the 10^4 sweep; keep a denser small check here
    for n in primes_in_class(3000, 3, {1}):
        assert represent_4n(n) == represent_4n_bruteforce(n)


def test_wilson_jacobi_identity_small():
    for n in primes_in_class(5000, 3, {1}):
        rep = represent_4n(n)
        ctx = ModulusContext(n, 3)
        cube = pow(factorial_mod((n - 1) // 3, ctx), 3, n)
        assert rep.A * cube % n == 1


def test_cornacchia_agrees_with_bruteforce():
    # the kernel takes any cube root of unity t != 1: t and t^2 give one answer
    for n in primes_in_class(4000, 3, {1}):
        t = ModulusContext(n, 3).root
        assert cornacchia_4n(n, t) == cornacchia_4n(n, t * t % n) == represent_4n_bruteforce(n)
    for n in primes_in_class(1_000_400, 3, {1}):
        if n > 10**6:
            t = ModulusContext(n, 3).root
            assert cornacchia_4n(n, t) == cornacchia_4n(n, t * t % n)
            assert cornacchia_4n(n, t) == represent_4n(n) == represent_4n_bruteforce(n)


def _random_split_primes(rng: random.Random, count: int, hi: int) -> list[int]:
    # the next prime = 1 (mod 3) after a log-uniform start, so large N are as
    # likely as small ones
    out = []
    while len(out) < count:
        n = int(2 ** rng.uniform(3, math.log2(hi)))
        while not (n % 3 == 1 and is_prime(n)):
            n += 1
        if n < hi:
            out.append(n)
    return out


def _b_scan(n: int) -> tuple[int, int]:
    for b in range(1, math.isqrt(4 * n // 27) + 1):
        r = 4 * n - 27 * b * b
        s = math.isqrt(r)
        if s * s == r:
            return (s if s % 3 == 1 else -s), b
    raise AssertionError(f"no representation of 4*{n}")


def test_represent_property_up_to_2_62():
    rng = random.Random(20240808)
    for n in _random_split_primes(rng, 400, 2**62):
        rep = represent_4n(n)
        assert rep.A**2 + 27 * rep.B**2 == 4 * n
        assert rep.A % 3 == 1 and rep.B > 0
    for n in _random_split_primes(rng, 40, 10**12):
        rep = represent_4n(n)
        assert (rep.A, rep.B) == _b_scan(n)


def test_split_prime_examples():
    s = split_prime(7)
    assert s.primary == EisensteinInt(-2, -3)
    assert s.zeta_image == 4
    s = split_prime(19)
    assert s.primary == EisensteinInt(-5, -3)
    assert s.zeta_image == 11
    assert split_prime(61).primary == EisensteinInt(-5, -9)


def test_split_prime_properties():
    for n in primes_in_class(3000, 3, {1}):
        s = split_prime(n)
        a, b, t = s.primary.a, s.primary.b, s.zeta_image
        assert s.primary.norm() == n
        assert a % 3 == 1 and b % 3 == 0
        assert a % 9 in (1, 4, 7)
        assert (t * t + t + 1) % n == 0
        assert (a + b * t) % n == 0
        assert pow(t, 3, n) == 1 and t != 1
        # the two sign conventions differ by exactly a sign: 2a - b = -A
        assert 2 * a - b == -s.rep.A


def test_split_data_guards_its_context():
    # the split's context must be the (N, 3) it was made from; a raise, not an
    # assert, so the guard also runs under python -O
    s = split_prime(31)
    assert s.ctx == ModulusContext(31, 3)
    with pytest.raises(AssertionError, match="inconsistent split data"):
        dataclasses.replace(s, ctx=ModulusContext(37, 3))  # wrong N
    with pytest.raises(AssertionError, match="inconsistent split data"):
        dataclasses.replace(s, ctx=ModulusContext(31, 5))  # wrong p


def test_cubic_symbol_examples():
    s = split_prime(19)
    assert cubic_symbol(1, s).index == 0
    assert cubic_symbol(7, s).index == 0  # A = 7 is a cube mod 19
    s7 = split_prime(7)
    assert cubic_symbol(s7.zeta_image, s7).index != 0  # 7 != 1 (mod 9)
    with pytest.raises(DomainError):
        cubic_symbol(0, s7)


def test_two_a_minus_b_cube_law():
    # |2a - b| is a cube mod N for every split prime up to 10^5
    for n in primes_in_class(10**5, 3, {1}):
        s = split_prime(n)
        assert cubic_symbol(abs(2 * s.primary.a - s.primary.b) % n, s).index == 0


def test_zeta_symbol_law():
    # the symbol of the zeta image is trivial exactly when N = 1 (mod 9)
    for n in primes_in_class(10**5, 3, {1}):
        s = split_prime(n)
        assert (cubic_symbol(s.zeta_image, s).index == 0) == (n % 9 == 1)


def test_integral_symbol_row_vanishes_for_class_one():
    # both computable symbol entries are 0 for every N = 1 (mod 9)
    for n in primes_in_class(10**5, 9, {1}):
        s = split_prime(n)
        assert cubic_symbol(s.zeta_image, s).index == 0
        assert cubic_symbol(abs(2 * s.primary.a - s.primary.b) % n, s).index == 0


def test_star_condition_examples():
    # the twelve candidates are closed under the six units, so one generator decides
    for a, b in _STAR_CANDIDATES:
        g = EisensteinInt(a, b)
        for u in (g.times_zeta(), -g):
            assert u.reduce_mod(9) in _STAR_CANDIDATES
    assert len(_STAR_CANDIDATES) == 12
    assert star_condition(split_prime(61)) is True
    assert star_condition(split_prime(7)) is False
    assert star_condition(split_prime(31)) is False
    with pytest.raises(DomainError, match="N != 1"):
        star_condition(split_prime(19))


def test_hilbert_pi_unit_criterion_examples():
    assert hilbert_pi_unit_criterion(split_prime(61)) is True
    assert hilbert_pi_unit_criterion(split_prime(7)) is False
    assert hilbert_pi_unit_criterion(split_prime(19)) is False


def test_hilbert_criterion_is_nine_divides_b():
    for n in primes_in_class(20000, 3, {1}):
        s = split_prime(n)
        assert hilbert_pi_unit_criterion(s) == (s.primary.b % 9 == 0)


def test_gerth_matrix_examples():
    m = gerth_matrix(split_prime(61))
    assert (m.width, m.entries, m.rank) == (3, (0, 0, 0), 0)
    m = gerth_matrix(split_prime(7))
    assert m.width == 3 and m.entries[:2] == (0, 0) and m.entries[2] != 0 and m.rank == 1
    m = gerth_matrix(split_prime(31))
    assert m.entries[2] != 0 and m.rank == 1
    with pytest.raises(DomainError):
        gerth_matrix(split_prime(19))


def test_criterion_chain():
    # 3 | B <=> Hilbert criterion <=> star congruence <=> symbol rank 0
    for n in primes_in_class(20000, 9, {4, 7}):
        s = split_prime(n)
        three_divides_b = s.rep.B % 3 == 0
        assert hilbert_pi_unit_criterion(s) == three_divides_b
        assert star_condition(s) == three_divides_b
        assert (gerth_matrix(s).rank == 0) == three_divides_b


def test_uniqueness_of_representation():
    for n in primes_in_class(3000, 3, {1}):
        rep = represent_4n_bruteforce(n)  # asserts internally there is exactly one
        assert 4 * n == rep.A**2 + 27 * rep.B**2
        assert math.gcd(rep.A, 3) == 1
