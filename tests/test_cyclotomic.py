"""Cyclotomic arithmetic: canonical forms, Gauss sums, Galois action,
inversion, rational recognition, finite-field roots."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permarith.cyclotomic import (Cyc, CyclotomicField, _divmod_phi,
                                  _normal, cyclotomic_poly, find_fq_root,
                                  gauss_sum, pack_rows, sqrt_element, unpack)
from permarith.errors import (DomainError, NonInvertibleError,
                              SearchExhaustedError)
from permarith.matrices import (Mat, _carrier, _jk_shaped, _jk_sign,
                                det_field, per_orbits, per_ryser)
from permarith.ntheory import is_prime, jacobi
from permarith.rings import LPoly, Rat


def test_cyclotomic_poly_known():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_poly_product_over_divisors():
    # prod_{d | m} Phi_d = x^m - 1, and deg Phi_m = phi(m)
    for m in range(1, 31):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_poly(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        want = [-1] + [0] * (m - 1) + [1]
        assert prod == want, m
        totient = sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
        assert len(cyclotomic_poly(m)) - 1 == totient


def test_canonicalization():
    # zeta^m - 1 reduces to zero, canonicalization is idempotent
    for m in (1, 2, 3, 6, 9, 12):
        z = Cyc.zeta(m, 0)
        diff = Cyc.zeta(m, m) - z
        assert diff.is_zero()
        w = Cyc(m, [((-1) ** e) * (e + 1) for e in range(m)])
        phi = len(cyclotomic_poly(m)) - 1
        assert Cyc(m, list(w.canonical()) + [0] * (m - phi)).canonical() \
            == w.canonical()


def test_zeta_examples():
    assert Cyc.zeta(5, 7) == Cyc.zeta(5, 2)
    total = Cyc.rational(7, 0)
    for e in range(1, 7):
        total = total + Cyc.zeta(7, e)
    assert total == -1
    assert Cyc.zeta(4, 1) ** 2 == -1


def test_product_one_plus_zeta_is_one():
    for n in (3, 5, 9, 15):
        prod = Cyc.rational(n, 1)
        for k in range(1, n):
            prod = prod * (1 + Cyc.zeta(n, k))
        assert prod == 1, n


def test_gauss_sum_examples():
    g3 = gauss_sum(3)
    assert g3 == 1 + 2 * Cyc.zeta(3, 1)
    assert g3 * g3 == -3
    assert gauss_sum(9).as_rational() == 3
    assert gauss_sum(5) * gauss_sum(5) == 5
    with pytest.raises(DomainError):
        gauss_sum(4)
    with pytest.raises(DomainError):
        gauss_sum(1)


@pytest.mark.parametrize("m", range(3, 52, 2))
def test_gauss_sum_square(m):
    g = gauss_sum(m)
    assert g * g == ((-1) ** ((m - 1) // 2)) * m


def test_sqrt_element_matches_float():
    # sqrt_element(n) embeds to i^((n-1)/2) sqrt(n); it is built once per
    # order, one shared object whose square is (-1)^((n-1)/2) n.
    for n in range(3, 20, 2):
        w = sqrt_element(n)
        got = w.embed()
        want = 1j ** ((n - 1) // 2) * math.sqrt(n)
        assert abs(got - want) < 1e-9, n
        assert sqrt_element(n) is w
        assert (w * w).as_rational() == (-1) ** ((n - 1) // 2) * n


def test_galois_properties():
    rng = random.Random("galois")
    for m in (5, 7, 8, 9, 12):
        ring = CyclotomicField(m)
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        for _ in range(40):
            a = rng.choice(units)
            z, w = ring.rand(rng), ring.rand(rng)
            assert (z + w).galois(a) == z.galois(a) + w.galois(a)
            assert (z * w).galois(a) == z.galois(a) * w.galois(a)
        r = Cyc.rational(m, Rat(3, 7))
        assert r.galois(units[-1]) == r
    assert Cyc.zeta(7, 1).galois(2) == Cyc.zeta(7, 2)
    with pytest.raises(DomainError):
        Cyc.zeta(6, 1).galois(3)


@pytest.mark.parametrize("n", range(3, 26, 2))
def test_galois_on_gauss_sum_gives_jacobi(n):
    g = gauss_sum(n)
    for a in range(1, n):
        if math.gcd(a, n) == 1:
            assert g.galois(a) == jacobi(a, n) * g, (n, a)


def test_inverse_random():
    rng = random.Random("inverse")
    done = 0
    while done < 200:
        m = rng.randint(3, 24)
        ring = CyclotomicField(m)
        z = ring.rand(rng)
        if z.is_zero():
            continue
        assert z.inverse() * z == 1
        q = z * Rat(rng.randint(-9, 9) or 1, rng.randint(1, 9)) + Rat(1, 3)
        if not q.is_zero():
            assert q.inverse() * q == 1
        done += 1
    assert (1 + Cyc.zeta(3, 1)).inverse() == -Cyc.zeta(3, 1)
    assert Cyc.rational(5, 2).inverse() == Rat(1, 2)
    with pytest.raises(NonInvertibleError):
        Cyc.rational(5, 0).inverse()


@pytest.mark.parametrize("n", range(3, 26, 2))
def test_half_product_identity(n):
    # prod_{k<=(n-1)/2} (1 - zeta^k) = (-2/n) * i^((n-1)/2) sqrt(n) * zeta^e
    prod = Cyc.rational(n, 1)
    for k in range(1, (n - 1) // 2 + 1):
        prod = prod * (1 - Cyc.zeta(n, k))
    e = ((n + 1) // 2) * ((n * n - 1) // 8)
    assert prod == jacobi(-2, n) * sqrt_element(n) * Cyc.zeta(n, e)


def test_as_rational():
    m = 11
    total = Cyc.rational(m, 0)
    for e in range(1, m):
        total = total + Cyc.zeta(m, e)
    assert total.as_rational() == -1
    assert Cyc.zeta(m, 1).as_rational() is None
    assert Cyc.rational(m, Rat(3, 4)).as_rational() == Rat(3, 4)


def test_embed_complex():
    assert abs(Cyc.rational(5, 1).embed() - 1) < 1e-12
    assert abs(Cyc.zeta(4, 1).embed() - 1j) < 1e-12
    assert abs(abs(gauss_sum(7).embed()) - math.sqrt(7)) < 1e-9
    z = Cyc.zeta(12, 5)
    assert abs(z.embed() - cmath.exp(2j * cmath.pi * 5 / 12)) < 1e-12


def test_find_fq_root():
    r = find_fq_root(4)
    assert (r.prime, r.element) == (5, 2)
    assert find_fq_root(6).prime == 7
    assert find_fq_root(10).prime == 11
    for n in (1, 2, 3, 6, 9, 12):
        r = find_fq_root(n)
        assert r.prime % n == 1 % n
        assert pow(r.element, n, r.prime) == 1
        for d in range(1, n):
            if n % d == 0:
                assert pow(r.element, d, r.prime) != 1, (n, d)
    with pytest.raises(SearchExhaustedError):
        find_fq_root(9973 * 2, bound=100)


@pytest.mark.parametrize("order", [-3, 0])
def test_an_order_below_one_is_refused(order):
    for make in (lambda: Cyc(order, []), lambda: Cyc.rational(order, 1),
                 lambda: Cyc.zeta(order)):
        with pytest.raises(DomainError, match="order must be >= 1"):
            make()


def test_zeta_x_order_mismatch():
    with pytest.raises(DomainError):
        Cyc.zeta(5, 1) + Cyc.zeta(7, 1)
    with pytest.raises(DomainError):
        Cyc.zeta(5, 1) * Cyc.zeta(7, 1)


# An independent model of Q(zeta_m): Fraction vectors on the exponent
# lattice, multiplied by the schoolbook cyclic convolution and reduced by
# long division by the cyclotomic polynomial.  It never touches num/den,
# Kronecker packing or Cyc's own reduction.

def _model(coords):
    return [Fraction(int(c.numerator), int(c.denominator)) for c in coords]


def _convolve(x, y):
    m = len(x)
    out = [Fraction(0)] * m
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    out[(i + j) % m] += a * b
    return out


def _schoolbook(a, b):
    return _convolve(_model(a.coeffs), _model(b.coeffs))


def _reduce(x):
    # x modulo the m-th cyclotomic polynomial, padded back to m coordinates.
    m = len(x)
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    rem = list(x)
    for i in range(m - 1, deg - 1, -1):
        c, rem[i] = rem[i], 0
        for t in range(deg):
            rem[i - deg + t] -= c * phi[t]
    return rem


def _normal_form(z):
    # Every Cyc holds m ints over one positive int, with no common factor.
    assert len(z.num) == z.order
    assert all(type(c) is int for c in z.num) and type(z.den) is int
    assert z.den > 0 and math.gcd(z.den, *z.num) == 1
    return z


# Rationals drawn as p/q with q of either sign and not in lowest terms,
# integral Fractions among them.
_RAT = st.one_of(
    st.builds(Rat, st.integers(-999, 999),
              st.integers(-60, 60).filter(bool)),
    st.builds(lambda k, q: Rat(k * q, q), st.integers(-99, 99),
              st.integers(-9, 9).filter(bool)))
_COORD = st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6), _RAT)


def _vectors(m):
    # Zero, dense draws (Kronecker products) and monomials and binomials
    # (shifted-add products and closed-form inverses).
    def place(terms):
        vec = [0] * m
        for e, c in terms:
            vec[e] = c
        return vec
    sparse = st.lists(st.tuples(st.integers(0, m - 1), _COORD),
                      min_size=1, max_size=2).map(place)
    return st.one_of(st.just([0] * m),
                     st.lists(_COORD, min_size=m, max_size=m), sparse)


@st.composite
def _cyc_pairs(draw):
    m = draw(st.integers(1, 30))
    vec = _vectors(m)
    return Cyc(m, draw(vec)), Cyc(m, draw(vec))


@settings(max_examples=300, deadline=None)
@given(_cyc_pairs())
def test_kronecker_mul_equals_schoolbook(pair):
    # Both product paths: Kronecker for two dense operands, shifted adds
    # when one operand has at most two nonzero coordinates.
    a, b = pair
    assert (a * b).coeffs == _schoolbook(a, b)


@st.composite
def _operands(draw):
    m = draw(st.integers(1, 30))
    vec = _vectors(m)
    units = [u for u in range(1, m + 1) if math.gcd(u, m) == 1]
    return (m, draw(vec), draw(vec), draw(st.one_of(_RAT, st.integers())),
            draw(st.sampled_from(units)))


@settings(max_examples=200, deadline=None)
@given(_operands())
def test_field_operations_equal_the_fraction_model(operands):
    m, xs, ys, r, u = operands
    a, b = _normal_form(Cyc(m, xs)), _normal_form(Cyc(m, ys))
    x, y, q = _model(xs), _model(ys), _model([r])[0]
    assert a.coeffs == x and b.coeffs == y
    assert _normal_form(a + b).coeffs == [s + t for s, t in zip(x, y)]
    assert _normal_form(a - b).coeffs == [s - t for s, t in zip(x, y)]
    assert _normal_form(-a).coeffs == [-s for s in x]
    assert _normal_form(a + r).coeffs == [x[0] + q] + x[1:]
    assert _normal_form(r - a).coeffs == [q - x[0]] + [-s for s in x[1:]]
    assert _normal_form(a * b).coeffs == _convolve(x, y)
    assert _normal_form(a * r).coeffs == [s * q for s in x]
    assert _normal_form(r * a).coeffs == [q * s for s in x]
    moved = [Fraction(0)] * m
    for e, s in enumerate(x):
        moved[u * e % m] = s
    assert _normal_form(a.galois(u)).coeffs == moved
    if any(_reduce(x)):
        inv = _normal_form(a.inverse())
        assert _reduce(_convolve(_model(inv.coeffs), x)) == [1] + [0] * (m - 1)
    else:
        with pytest.raises(NonInvertibleError):
            a.inverse()


def _inverse_by_conjugates(z):
    # Cyc.inverse as it was for every element before monomials and
    # binomials took closed forms: den times the product conj of the other
    # Galois conjugates of num, as Kronecker images, over the integer norm
    # that num * conj reduces to, in canonical coordinates.
    m = z.order
    num = Cyc(m, z.num)
    others = [num.galois(a) for a in range(2, m) if math.gcd(a, m) == 1]
    if others:
        rows, layout = pack_rows(m, [(w,) for w in others])
        conj = unpack(layout.product([img for (img,) in rows]), layout)
    else:
        conj = Cyc.rational(m, 1)
    rows, layout = pack_rows(m, [(num,), (conj,)])
    both = unpack(layout.product([img for (img,) in rows]), layout)
    norm, *rest = _divmod_phi(both.num, m)[1]
    assert not any(rest)
    out = [c * z.den for c in _divmod_phi(conj.num, m)[1]]
    return _normal(m, out + [0] * (m - len(out)), norm)


@st.composite
def _binomials(draw):
    """(m, a zeta^s + b zeta^t, r): b zero (a monomial), drawn, a or -a,
    and now and then a with a step t - s of even order (x = -1, d even,
    which is zero for d = 2); a and b rational with unequal denominators
    now and then; r a rational for the scalar sums."""
    m = draw(st.integers(1, 40))
    s = draw(st.integers(0, m - 1))
    a = draw(_RAT.filter(bool))
    vec = [0] * m
    vec[s] = a
    how = draw(st.sampled_from(("monomial", "drawn", "equal", "opposite",
                                "even")))
    even = [k for k in range(1, m) if m // math.gcd(k, m) % 2 == 0]
    if how == "even" and even:
        vec[(s + draw(st.sampled_from(even))) % m] = a
    elif how != "monomial" and m > 1:
        t = (s + draw(st.integers(1, m - 1))) % m
        vec[t] = {"equal": a, "opposite": -a}.get(how) or draw(_RAT)
    return m, vec, draw(st.one_of(_RAT, st.integers(-99, 99)))


@settings(max_examples=400, deadline=None)
@given(_binomials())
@example((2, [1, 1], 3))
@example((2, [Rat(1, 2), Rat(-1, 2)], Rat(1, 3)))
@example((2, [0, Rat(5, 3)], 0))
@example((1, [Rat(-7, 2)], Rat(7, 2)))
@example((12, [0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0], 1))
@example((12, [0, 3, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0], Rat(1, 4)))
@example((30, [Rat(1, 2)] + [0] * 19 + [Rat(2, 3)] + [0] * 9, -5))
def test_sparse_inverse_equals_the_conjugate_product(drawn):
    # A monomial or binomial inverts by a closed form to the same (num, den)
    # pair as the conjugate product; zero raises.  The scalar sums, which
    # change num[0] alone, give the pairs of the sums with Cyc.rational.
    m, vec, r = drawn
    z = Cyc(m, vec)
    if any(_reduce(_model(vec))):
        got, want = z.inverse(), _inverse_by_conjugates(z)
        assert (_normal_form(got).num, got.den) == (want.num, want.den)
    else:
        with pytest.raises(NonInvertibleError):
            z.inverse()
    rational = Cyc.rational(m, r)
    for got, want in ((z + r, z + rational), (r + z, rational + z),
                      (z - r, z - rational), (r - z, rational - z)):
        assert (_normal_form(got).num, got.den) == (want.num, want.den)


@st.composite
def _cyc_values(draw):
    """(a, b) at a prime order (1 + zeta + ... + zeta^(m-1) = 0) or not:
    a drawn vector, or a rational, plus now and then a vanishing vector
    c * x^s * Phi_m(x) mod x^m - 1 (a lattice vector of 0); b equal to a by
    another vanishing vector, whose rational c leaves its denominator
    unequal to a's now and then, or a moved by a rational, or drawn on its
    own."""
    m = draw(st.sampled_from((1, 2, 3, 5, 7, 11, 13, 4, 6, 9, 12, 15)))
    phi = cyclotomic_poly(m)

    def vanishing():
        vec = [0] * m
        s, c = draw(st.integers(0, m - 1)), draw(_RAT)
        for t, p in enumerate(phi):
            vec[(s + t) % m] += c * p
        return vec

    def plus(x, y):
        return [s + t for s, t in zip(x, y)]
    if draw(st.booleans()):
        a = draw(st.lists(_COORD, min_size=m, max_size=m))
    else:
        a = [draw(_COORD)] + [0] * (m - 1)
    if draw(st.booleans()):
        a = plus(a, vanishing())
    how = draw(st.sampled_from(("equal", "moved", "drawn")))
    if how == "equal":
        b = plus(a, vanishing())
    elif how == "moved":
        b = plus(a, [draw(_RAT.filter(bool))] + [0] * (m - 1))
    else:
        b = draw(st.lists(_COORD, min_size=m, max_size=m))
    return Cyc(m, a), Cyc(m, b)


@settings(max_examples=300, deadline=None)
@given(_cyc_values())
@example((Cyc(7, [1] * 7), Cyc.rational(7, 0)))
@example((Cyc(5, [3, 1, 1, 1, 1]), Cyc(5, [Rat(5, 2), Rat(1, 2), Rat(1, 2),
                                          Rat(1, 2), Rat(1, 2)])))
@example((Cyc(9, [0, 0, 0, 1, 0, 0, 1, 0, 0]), Cyc.rational(9, -1)))
def test_equality_and_rational_recognition_equal_the_model(pair):
    # ==, is_zero and as_rational, by num alone at prime orders and by the
    # canonical form elsewhere, against the Fraction model reduced modulo
    # Phi_m; over one denominator at a prime order no canonical form is
    # taken.
    a, b = pair
    x, y = _reduce(_model(a.coeffs)), _reduce(_model(b.coeffs))
    fresh = [Cyc(a.order, a.coeffs), Cyc(b.order, b.coeffs)]
    assert (fresh[0] == fresh[1]) == (x == y)
    if is_prime(a.order) and a.den == b.den:
        assert fresh[0]._canon is None and fresh[1]._canon is None
    assert (a != b) == (x != y)
    for z, model in ((a, x), (b, y)):
        rational = not any(model[1:])
        assert z.is_zero() == (not any(model))
        assert z.as_rational() == (model[0] if rational else None)
        assert (z == model[0]) == rational
        assert (z == model[0] + 1) is False


def _model_sum(rows, signed):
    # Sum over all permutations of the model products, each times its sign
    # when signed: the naive permanent or the Leibniz determinant.
    n, m = len(rows), len(rows[0][0])
    total = [Fraction(0)] * m

    def walk(j, used, acc, sign):
        nonlocal total
        if j == n:
            total = [t + sign * s for t, s in zip(total, acc)]
            return
        for k in range(n):
            if not used >> k & 1:
                # Rows above that took a larger column are inversions.
                flip = signed and (used >> k).bit_count() & 1
                walk(j + 1, used | 1 << k, _convolve(acc, rows[j][k]),
                     -sign if flip else sign)

    walk(0, 0, [Fraction(1)] + [Fraction(0)] * (m - 1), 1)
    return total


def _sparse_coords(m, rng):
    # Up to three rational coordinates with denominators of either sign;
    # now and then a zero entry.
    coords = [0] * m
    for _ in range(rng.choice((0, 1, 2, 3, 3))):
        coords[rng.randrange(m)] = Rat(rng.randint(-9, 9),
                                       rng.choice((-4, -3, -2, -1, 1, 2, 6)))
    return coords


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.sampled_from((1, 2, 4, 6, 7, 9, 12, 15)),
       st.randoms(use_true_random=False))
def test_engines_equal_the_model_permutation_sum(n, m, rng):
    # Glynn and Bareiss on Kronecker images against the permutation sums of
    # the Fraction model, coordinate by coordinate on the exponent lattice.
    # A draw that passes the Galois check (any draw over Q(zeta_1) or
    # Q(zeta_2), an all-rational or all-zero matrix) takes the residue
    # lowering, whose result is the canonical rational: compare it in the
    # field.  per_ryser asks the check with the lattice sign of a
    # [T(jk mod n)] table.  A one-row matrix is its entry, as it stands.
    coords = [[_sparse_coords(m, rng) for _ in range(n)] for _ in range(n)]
    mat = Mat(CyclotomicField(m), [[Cyc(m, c) for c in row] for row in coords])
    model = [[_model(c) for c in row] for row in coords]
    sign = _jk_shaped(mat) and _jk_sign(mat)[0] or 1
    for got, det in ((per_ryser(mat), False), (det_field(mat), True)):
        want = _model_sum(model, det)
        if n > 1 and _carrier(mat, 1 if det else sign, det) is not None:
            assert got == Cyc(m, want)
        else:
            assert _normal_form(got).coeffs == want


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.sampled_from((1, -1)),
       st.randoms(use_true_random=False))
def test_per_orbits_equals_the_model_permutation_sum(h, sign, rng):
    # [T(jk mod n)] with T(n - r) = sign * T(r), n = 2h + 1, prime or not.
    n = 2 * h + 1
    table = {r: _sparse_coords(n, rng) for r in range(1, h + 1)}
    table[0] = _sparse_coords(n, rng) if sign > 0 else [0] * n
    for r in range(1, h + 1):
        table[n - r] = [sign * c for c in table[r]]
    coords = [[table[j * k % n] for k in range(1, h + 1)]
              for j in range(1, h + 1)]
    mat = Mat(CyclotomicField(n), [[Cyc(n, c) for c in row] for row in coords])
    model = [[_model(c) for c in row] for row in coords]
    assert _normal_form(per_orbits(mat)).coeffs == \
        _model_sum(model, False)


def test_unpack_checks_the_bound():
    z = Cyc(7, [3, -2, 0, 0, 0, 0, Rat(1, 2)])
    ((image,),), layout = pack_rows(7, [(z,)])
    assert layout.den == 2 and layout.bound == 11
    assert unpack(image, layout).coeffs == z.coeffs
    # Congruent representatives mod 2^(mB) - 1 decode the same.
    modulus = (1 << (7 * layout.bits)) - 1
    assert unpack(image + 5 * modulus, layout).coeffs == z.coeffs
    # A layout that claims a smaller bound than a coefficient it decodes
    # is refused rather than trusted.
    with pytest.raises(ArithmeticError):
        unpack(image, layout._replace(bound=5))
    # So is a digit outside the balanced range of the width.
    with pytest.raises(ArithmeticError):
        unpack(1 << (layout.bits - 1), layout)


def _laurent_model(x, y):
    # {exponent: Fraction} Laurent polynomials, multiplied term by term.
    out = {}
    for e, a in x.items():
        for f, b in y.items():
            out[e + f] = out.get(e + f, 0) + a * b
    return {e: c for e, c in out.items() if c}


@settings(max_examples=60, deadline=None)
@given(xs=st.integers(1, 12).flatmap(
    lambda m: st.lists(_COORD, min_size=m, max_size=m)),
    cs=st.dictionaries(st.integers(-3, 3), _COORD, max_size=3),
    k=st.integers(0, 40))
def test_powers_take_the_fewest_square_and_multiply_products(xs, cs, k):
    # x ** k makes bitlen(k) - 1 squarings and popcount(k) - 1 further
    # products, and x ** 0 is one; each value matches k model products.
    want = k.bit_length() + k.bit_count() - 2 if k else 0
    x = _model(xs)
    y = {e: Fraction(int(c.numerator), int(c.denominator))
         for e, c in cs.items() if c}
    xk, yk = [Fraction(1)] + [Fraction(0)] * (len(xs) - 1), {0: 1}
    for _ in range(k):
        xk, yk = _convolve(xk, x), _laurent_model(yk, y)
    for value, model in ((Cyc(len(xs), xs), xk), (LPoly(cs), yk)):
        cls = type(value)
        real = cls.__mul__
        count = 0

        def counted(self, other):
            nonlocal count
            count += 1
            return real(self, other)
        cls.__mul__ = counted
        try:
            got = value ** k
        finally:
            cls.__mul__ = real
        assert count == want and got.coeffs == model, cls
