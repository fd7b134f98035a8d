import dataclasses
import math
import random

import pytest
from hypothesis import given, strategies as st

from cyclorank.eisenstein import (
    _STAR_CANDIDATES,
    EisensteinInt,
    QuadRep,
    cubic_symbol,
    gerth_matrix,
    represent_4n,
    represent_4n_bruteforce,
    split_of,
    split_prime,
    star_condition,
)
from cyclorank.errors import DomainError
from cyclorank.modmath import ModulusContext, PowerClass, factorial_mod
from cyclorank.primes import primes_in_class, primes_in_range
from oracles import random_split_primes


def _zeta(x: EisensteinInt) -> EisensteinInt:
    # (a + b*zeta) * zeta = a*zeta + b*zeta^2 = -b + (a - b)*zeta, as zeta^2 = -1 - zeta
    return EisensteinInt(-x.b, x.a - x.b)


def _neg(x: EisensteinInt) -> EisensteinInt:
    return EisensteinInt(-x.a, -x.b)


def test_eis_arithmetic():
    x = EisensteinInt(3, -2)
    z = _zeta(x)
    assert z.norm() == _neg(x).norm() == x.norm()
    assert _zeta(_zeta(z)) == x  # zeta^3 = 1
    assert EisensteinInt(2**63, 0).norm() == 2**126  # Python integers are exact


def test_gerth_matrix_guard_survives_dash_o(monkeypatch):
    from cyclorank import eisenstein

    # the Wilson-Jacobi check is an explicit raise, not an assert, so -O keeps it
    monkeypatch.setattr(eisenstein, "cubic_symbol", lambda x, s: PowerClass(1))
    with pytest.raises(AssertionError, match="nontrivial"):
        gerth_matrix(split_prime(7))


def test_associate_count():
    # exactly one of the six unit multiples is 1 (mod 3), exactly two are +-1
    for n in primes_in_class(2000, 3, {1}):
        g = split_prime(n).primary
        z1 = _zeta(g)
        z2 = _zeta(z1)
        mods = [(x.a % 3, x.b % 3) for x in (g, z1, z2, _neg(g), _neg(z1), _neg(z2))]
        assert mods.count((1, 0)) == 1
        assert mods.count((2, 0)) == 1


def test_represent_examples():
    assert represent_4n(7) == QuadRep(1, 1, 7)
    assert represent_4n(13) == QuadRep(-5, 1, 13)
    assert represent_4n(61) == QuadRep(1, 3, 61)
    # the largest split prime below 2^62, the top of the contract
    assert represent_4n(4611686018427387847) == QuadRep(4293546145, 21261663, 4611686018427387847)
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
    with pytest.raises(DomainError, match="capped at 10\\^8"):
        represent_4n_bruteforce(100000039)  # prime, 1 (mod 3), past the oracle's cap
    # 4 * 7 = A^2 + 27B^2 also at A = -1 or B = -1, which the normalized pair refuses
    with pytest.raises(DomainError, match="A must be 1 mod 3"):
        QuadRep(A=-1, B=1, n=7)
    with pytest.raises(DomainError, match="B must be positive"):
        QuadRep(A=1, B=-1, n=7)


def test_cornacchia_failure_raises():
    # 4 * 25 has no A^2 + 27B^2, though 25 = 1 (mod 3): split_of must raise, not assert, so
    # the check also runs under python -O.  Composite 25 gets no checked context, so
    # this one is set up by hand as __post_init__ would, with g = 2: root 2^8 mod 25.
    ctx = object.__new__(ModulusContext)
    ctx.__dict__.update(modulus=25, p=3, cofactor=8, root=6, powers=(1, 6, 11))
    with pytest.raises(DomainError, match="Cornacchia"):
        split_of(ctx)


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
    # Euclid starts from x0 = 3(2t + 1) mod N for the context's root t, folded to
    # N - x0 when even: both parities of x0 occur, so both arms of the fold meet the oracle
    parities = set()
    for n in [*primes_in_class(4000, 3, {1}), *primes_in_range(10**6, 1_000_400, 3, {1})]:
        parities.add(3 * (2 * ModulusContext(n, 3).root + 1) % n % 2)
        assert represent_4n(n) == represent_4n_bruteforce(n), n
    assert parities == {0, 1}


def _b_scan(n: int) -> tuple[int, int]:
    for b in range(1, math.isqrt(4 * n // 27) + 1):
        r = 4 * n - 27 * b * b
        s = math.isqrt(r)
        if s * s == r:
            return (s if s % 3 == 1 else -s), b
    raise AssertionError(f"no representation of 4*{n}")


def test_represent_property_up_to_2_62():
    rng = random.Random(20240808)
    for n in random_split_primes(rng, 400, 8, 2**62):
        rep = represent_4n(n)
        assert rep.A**2 + 27 * rep.B**2 == 4 * n
        assert rep.A % 3 == 1 and rep.B > 0
    for n in random_split_primes(rng, 40, 8, 10**12):
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


def test_zeta_image_is_the_context_root_or_its_square():
    # the image of zeta_3 is read off the context's powers, never recomputed
    rng = random.Random(2021)
    for n in [*primes_in_class(10**4, 3, {1}), *random_split_primes(rng, 2000, 8, 2**62)]:
        s = split_prime(n)
        t = s.zeta_image
        assert t in s.ctx.powers[1:], n
        assert (s.primary.a + s.primary.b * t) % n == 0, n


@given(a=st.integers(-10**6, 10**6), b=st.integers(1, 10**6), n=st.integers(2, 10**12))
def test_quad_rep_refuses_mixed_parity_by_its_identity(a, b, n):
    # A = B (mod 2) follows from 4N = A^2 + 27B^2, so the identity guard
    # alone refuses every mixed-parity pair
    if (a - b) % 2 == 0:
        a += 1
    with pytest.raises(DomainError, match="pair does not represent 4N"):
        QuadRep(a, b, n)


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
    # the candidates are +-zeta^v * 2^w (mod 9), derived here by multiplying by zeta
    derived = set()
    for c in (2, 4, -2, -4):
        u = EisensteinInt(c, 0)
        for _ in range(3):
            derived.add((u.a % 9, u.b % 9))
            u = _zeta(u)
    assert _STAR_CANDIDATES == derived and len(derived) == 12
    # they are closed under the six units, so one generator decides
    for a, b in _STAR_CANDIDATES:
        g = EisensteinInt(a, b)
        for u in (_zeta(g), _neg(g)):
            assert (u.a % 9, u.b % 9) in _STAR_CANDIDATES
    assert star_condition(split_prime(61)) is True
    assert star_condition(split_prime(7)) is False
    assert star_condition(split_prime(31)) is False
    with pytest.raises(DomainError, match="N != 1"):
        star_condition(split_prime(19))


def test_gerth_matrix_examples():
    m = gerth_matrix(split_prime(61))
    assert (m.entries, m.rank) == ((0, 0, 0), 0)
    m = gerth_matrix(split_prime(7))
    assert len(m.entries) == 3 and m.entries[:2] == (0, 0) and m.entries[2] != 0 and m.rank == 1
    m = gerth_matrix(split_prime(31))
    assert m.entries[2] != 0 and m.rank == 1
    with pytest.raises(DomainError):
        gerth_matrix(split_prime(19))


def test_criterion_chain():
    # 3 | B <=> 9 | b <=> star congruence <=> symbol rank 0
    for n in primes_in_class(20000, 9, {4, 7}):
        s = split_prime(n)
        three_divides_b = s.rep.B % 3 == 0
        assert (s.primary.b % 9 == 0) == three_divides_b
        assert star_condition(s) == three_divides_b
        assert (gerth_matrix(s).rank == 0) == three_divides_b


def test_uniqueness_of_representation():
    for n in primes_in_class(3000, 3, {1}):
        rep = represent_4n_bruteforce(n)  # asserts internally there is exactly one
        assert 4 * n == rep.A**2 + 27 * rep.B**2
        assert math.gcd(rep.A, 3) == 1
