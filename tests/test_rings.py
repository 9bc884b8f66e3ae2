"""Ring laws, Laurent/q-integer identities, and number-theoretic primitives."""

import random

import pytest

from permarith.cyclotomic import CyclotomicField
from permarith.errors import DomainError, NonInvertibleError
from permarith.matrices import Mat, det_divfree, per_ryser
from permarith.ntheory import (bernoulli, binomial, double_factorial,
                               factorial, is_prime, jacobi, mod_reduce_rat)
from permarith.rings import (GF, QPOLY, QQ, ZZ, LPoly, ModInt, Rat, Zmod,
                             qint)

RINGS = [ZZ, QQ, Zmod(9), GF(7), CyclotomicField(5), QPOLY]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_ring_laws(ring):
    rng = random.Random(f"laws:{ring.name}")
    zero, one = ring.zero, ring.one
    for _ in range(1000):
        a, b, c = (ring.rand(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero


def test_modint_canonical_and_moduli():
    x = ModInt(13, 9)
    assert x.value == 4 and x.modulus == 9
    assert ModInt(-1, 9).value == 8
    assert x + ModInt(5, 9) == ModInt(0, 9)
    assert x * 7 == ModInt(28, 9)
    with pytest.raises(DomainError):
        _ = x + ModInt(1, 25)
    with pytest.raises(DomainError):
        ModInt(0, 1)
    assert ModInt(2, 9).inverse() == ModInt(5, 9)
    with pytest.raises(NonInvertibleError):
        ModInt(3, 9).inverse()


def test_laurent_lowering_decodes_at_its_bound():
    # Row L1 norms 15 and 17 once the 1/4 is cleared: every coefficient of
    # the determinant and permanent attains L = 255, on a byte boundary.
    a, b = LPoly({-2: Rat(-15, 4)}), LPoly({5: 17})
    diag = Mat(QPOLY, [[a, LPoly()], [LPoly(), b]])
    assert det_divfree(diag) == per_ryser(diag) == LPoly({3: Rat(-255, 4)})
    # A single entry attains L itself, with a negative exponent.
    single = Mat(QPOLY, [[LPoly({-3: 255})]])
    assert per_ryser(single) == det_divfree(single) == LPoly({-3: 255})
    # Forged images: L = 1 gives B = 3 and one digit.  3 fits the digit
    # width but exceeds L; 8 needs a second digit.
    lift = QPOLY.lower([[LPoly({0: 1})]]).lift
    assert lift(1) == LPoly({0: 1}) and lift(-1) == LPoly({0: -1})
    for forged in (3, -3, 8):
        with pytest.raises(ArithmeticError):
            lift(forged)


def test_residue_lowering_takes_plain_ints():
    low = Zmod(9).lower([[ModInt(4, 9), -1], [10, 3]])
    ints, product, lift = low.ints, low.product, low.lift
    assert ints == [[4, 8], [1, 3]] and low.modulus is None
    # Glynn's products are plain ints, exact images: lift(v, k) halves
    # exactly and the decode reduces mod 9, so 2 * 7 + 18 * 5 reads 7 as
    # 14 does.
    assert product([4, 8]) == 32 and product([5, 8, 7]) == 280
    assert lift(-7) == ModInt(2, 9) and lift(14, 1) == ModInt(7, 9)
    assert lift(14 + 18 * 5, 1) == lift(14 - 18 * 3, 1) == ModInt(7, 9)
    assert lift(280 * 4, 2) == ModInt(280, 9)
    with pytest.raises(ArithmeticError):
        lift(13, 1)
    with pytest.raises(DomainError):
        Zmod(9).lower([[ModInt(1, 25)]])


def test_lpoly_invariants():
    p = LPoly({2: 1, 0: 3, 5: 0})
    assert 5 not in p.coeffs  # no stored zeros
    assert (p - p).is_zero()
    q = LPoly.q()
    assert (1 + q) ** 3 == LPoly({0: 1, 1: 3, 2: 3, 3: 1})
    assert str(qint(-2)) == "-q^-2 - q^-1"
    assert LPoly.const(2) + q == LPoly({0: 2, 1: 1})
    assert qint(1) == 1 and qint(0) == 0


@pytest.mark.parametrize("m", range(-20, 21))
def test_qint_telescopes(m):
    # (1 - q^m)/(1 - q) times (1 - q) gives back 1 - q^m
    one_minus_q = LPoly({0: 1, 1: -1})
    assert qint(m) * one_minus_q == LPoly({0: 1, m: -1} if m else {})


def test_qint_examples():
    assert qint(3) == LPoly({0: 1, 1: 1, 2: 1})
    assert qint(-1) == LPoly({-1: -1})


def _jacobi_count_parity(a, n):
    # Gauss-lemma style oracle: parity of #{1 <= k <= (n-1)/2 : (ka mod n) > n/2}
    count = sum(1 for k in range(1, (n - 1) // 2 + 1) if (k * a) % n > n / 2)
    return (-1) ** count


def test_jacobi_against_count_parity_oracle():
    rng = random.Random("jacobi")
    checked = 0
    while checked < 500:
        n = rng.randrange(3, 400, 2)
        a = rng.randint(-300, 300)
        import math
        if math.gcd(a, n) != 1:
            assert jacobi(a, n) == 0
            continue
        assert jacobi(a, n) == _jacobi_count_parity(a, n), (a, n)
        checked += 1


def test_jacobi_basics_and_multiplicativity():
    assert jacobi(2, 7) == 1
    assert jacobi(2, 5) == -1
    assert jacobi(5, 1) == 1
    rng = random.Random("jmult")
    for _ in range(300):
        n = rng.randrange(1, 200, 2)
        a, b = rng.randint(-99, 99), rng.randint(-99, 99)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)
    # quadratic reciprocity spot checks on odd coprime pairs
    for _ in range(200):
        m = rng.randrange(3, 150, 2)
        n = rng.randrange(3, 150, 2)
        import math
        if math.gcd(m, n) != 1:
            continue
        sign = -1 if (m % 4 == 3 and n % 4 == 3) else 1
        assert jacobi(m, n) * jacobi(n, m) == sign
    with pytest.raises(DomainError):
        jacobi(3, 4)
    with pytest.raises(DomainError):
        jacobi(3, -5)


def _bernoulli_akiyama_tanigawa(n):
    # independent oracle; this construction yields the B_1 = +1/2 convention
    a = [Rat(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Rat(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Rat(-1, 2)
    assert bernoulli(2) == Rat(1, 6)
    assert bernoulli(12) == Rat(-691, 2730)
    for k in range(25):
        if k == 1:
            continue
        assert bernoulli(k) == _bernoulli_akiyama_tanigawa(k), k
    with pytest.raises(DomainError):
        bernoulli(-1)


def test_factorials():
    assert factorial(6) == 720
    assert binomial(12, 5) == 792
    assert double_factorial(7) == 105
    assert double_factorial(0) == 1 and double_factorial(-1) == 1
    with pytest.raises(DomainError):
        double_factorial(-2)


def test_is_prime_against_sieve():
    limit = 2000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    for n in range(1, limit + 1):
        assert is_prime(n) == sieve[n], n
    assert is_prime(9973)
    with pytest.raises(DomainError):
        is_prime(0)


def test_mod_reduce_rat():
    assert mod_reduce_rat(Rat(-1, 2), 3) == ModInt(1, 3)
    assert mod_reduce_rat(Rat(1, 4), 9) == ModInt(7, 9)
    assert mod_reduce_rat(7, 5) == ModInt(2, 5)
    with pytest.raises(NonInvertibleError):
        mod_reduce_rat(Rat(3, 5), 5)


def test_mod_reduce_rat_is_homomorphism():
    rng = random.Random("hom")
    m = 49
    for _ in range(300):
        a = Rat(rng.randint(-60, 60), rng.choice([1, 2, 3, 5, 9, 11]))
        b = Rat(rng.randint(-60, 60), rng.choice([1, 2, 3, 5, 9, 11]))
        assert mod_reduce_rat(a + b, m) == mod_reduce_rat(a, m) + mod_reduce_rat(b, m)
        assert mod_reduce_rat(a * b, m) == mod_reduce_rat(a, m) * mod_reduce_rat(b, m)


def test_rat_invariants():
    x = Rat(6, -4)
    assert x == Rat(-3, 2)
    assert x.denominator == 2  # canonical positive denominator
    assert str(Rat(1830087, 2)) == "1830087/2"
    with pytest.raises(ZeroDivisionError):
        Rat(1, 0)
