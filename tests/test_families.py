"""Matrix family constructors: spot values, symmetry, masking, per-entry
trigonometric factors (float diagnostics)."""

import math
import random

import pytest

from permarith.cyclotomic import CyclotomicField, find_fq_root
from permarith.errors import DomainError, SingularFamilyError
from permarith.families import (build_cyclotomic, build_integer, build_qpoly,
                                build_rational, conjugates)
from permarith.matrices import Mat, per_naive, per_ryser
from permarith.rings import LPoly, Rat, qint


def test_floor_shift_example():
    m = build_integer("floor_shift", n=3)
    assert [list(r) for r in m.rows] == [[0, 0, 1], [0, 1, 1], [1, 1, 1]]


def test_abs_example():
    m = build_integer("abs", n=3, shift=0)
    assert [list(r) for r in m.rows] == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert per_naive(m) == 4


def test_symmetry():
    for mat in (build_integer("floor_shift", n=6), build_integer("abs", n=7),
                *(build_cyclotomic(fam, n=9)
                  for fam in ("cos2", "sin2", "tan_jk")),
                build_rational("inv_sum_sq", p=7)):
        assert Mat(mat.ring, zip(*mat.rows)) == mat, mat


def test_qfloor_example():
    m = build_qpoly("qfloor", n=2)
    one = LPoly.const(1)
    assert m.rows[0] == (one, one)
    assert m.rows[1] == (one, LPoly({0: 1, 1: 1}))
    assert per_ryser(m) == LPoly({0: 2, 1: 1})  # = 2^(n-1) + q at n = 2


def test_qabs_example():
    m = build_qpoly("qabs", n=2, shift=1)
    assert m.rows[0] == (qint(1), qint(0))
    assert m.rows[1] == (qint(2), qint(1))


def test_qfloor_gen_negative_entries():
    m = build_qpoly("qfloor_gen", n=3, a=1)
    # (j,k) = (1,2): floor((1-4)/3) = -1, whose q-analogue is -q^(-1)
    assert m.rows[0][1] == LPoly({-1: -1})


def test_cauchy_root_examples():
    # Entries are the true values 1/(1 - zeta^(j-k) x), with no factor.
    mat = build_cyclotomic("cauchy_root", n=4, x=0)
    assert all(e.as_rational() == 1 for row in mat.rows for e in row)
    assert per_ryser(mat).as_rational() == 24  # all-ones matrix, per = n!
    with pytest.raises(SingularFamilyError):
        build_cyclotomic("cauchy_root", n=4, x=1)
    with pytest.raises(SingularFamilyError):
        build_cyclotomic("cauchy_root", n=4, x=-1)


def test_conjugates_equal_direct_evaluation():
    # One evaluation per gcd(r, m), Galois conjugates for the rest: the same
    # field elements as evaluating at every residue, for every m up to 30.
    for m in range(1, 31):
        ring = CyclotomicField(m)

        def f(r):
            z = ring.zeta(r)
            return (3 - z).inverse() * (1 + 2 * z * z) + Rat(1, 2)

        table = conjugates(ring, range(m), f)
        assert sorted(table) == list(range(m))
        for r in range(m):
            assert table[r] == f(r), (m, r)


def test_cos2_example():
    mat = build_cyclotomic("cos2", n=3)
    assert mat.n == 1
    # zeta + zeta^2 = -1 = 2 cos(2 pi/3): the entry is twice the cosine.
    assert mat.rows[0][0].as_rational() == -1
    assert abs(mat.rows[0][0].embed() - 2 * math.cos(2 * math.pi / 3)) < 1e-12


def test_prime_only_families_reject_composites():
    for fam in ("csc2", "cot_jk"):
        with pytest.raises(DomainError):
            build_cyclotomic(fam, n=9)
        build_cyclotomic(fam, n=7)
    with pytest.raises(DomainError):
        build_cyclotomic("tan_jk", n=8)


def test_masked_families():
    p, a = 5, 1
    m = build_rational("recip_ajk", p=p, a=a)
    assert m.n == p - 1
    for j in range(1, p):
        for k in range(1, p):
            if (a + j * k) % p == 0:
                assert m.rows[j - 1][k - 1] == 0, (j, k)
            else:
                assert m.rows[j - 1][k - 1] == Rat(1, a + j * k)
    assert m.rows[0][3] == 0  # 1 + 4 = 5 masked
    m2 = build_rational("recip_aj_k", p=5, a=2)
    for j in range(1, 6):
        for k in range(1, 6):
            want = 0 if (2 * j + k) % 5 == 0 else Rat(1, 2 * j + k)
            assert m2.rows[j - 1][k - 1] == want
    with pytest.raises(DomainError):
        build_rational("recip_aj_k", p=5, a=5)


def test_inv_sum_sq_domain():
    m = build_rational("inv_sum_sq", p=3)
    assert m.n == 1 and m.rows[0][0] == Rat(1, 2)
    with pytest.raises(DomainError):
        build_rational("inv_sum_sq", p=5)  # needs p = 3 (mod 4)


def test_inv_sqdiff_entries():
    m = build_rational("inv_sqdiff", p=7)
    assert m.n == 3
    assert m.rows[0][1] == Rat(-1, 3)
    assert all(m.rows[j][j] == 0 for j in range(3))


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_trig_families_match_float(n):
    # diagnostic: exact entries, times the inverse of their per-entry
    # factor (2, 2i or i), embed to the trigonometric values
    h = (n - 1) // 2
    cases = [
        ("cos2", lambda j, k: math.cos(2 * math.pi * j * k / n), 0.5, h),
        ("sin2", lambda j, k: math.sin(2 * math.pi * j * k / n), -0.5j, h),
        ("tan_jk", lambda j, k: math.tan(math.pi * j * k / n), -1j, h),
        ("tan_shift", lambda j, k: math.tan(math.pi * (j + k) / n), -1j, n - 1),
    ]
    for fam, trueval, inv_factor, size in cases:
        mat = build_cyclotomic(fam, n=n)
        assert mat.n == size
        for j in range(1, size + 1):
            for k in range(1, size + 1):
                got = mat.rows[j - 1][k - 1].embed() * inv_factor
                assert abs(got - trueval(j, k)) < 1e-9, (fam, j, k)


@pytest.mark.parametrize("n", (3, 5, 7, 9))
def test_sec_csc_cot_float(n):
    h = (n - 1) // 2
    mat = build_cyclotomic("sec2", n=n)
    for j in range(1, h + 1):
        for k in range(1, h + 1):
            got = mat.rows[j - 1][k - 1].embed() * 2
            assert abs(got - 1 / math.cos(2 * math.pi * j * k / n)) < 1e-9
    if n in (3, 5, 7):
        # csc2 and cot_jk (prime n only) carry the factors 1/(2i) and 1/i.
        csc = build_cyclotomic("csc2", n=n)
        cot = build_cyclotomic("cot_jk", n=n)
        for j in range(1, h + 1):
            for k in range(1, h + 1):
                got = csc.rows[j - 1][k - 1].embed() * 2j
                want = 1 / math.sin(2 * math.pi * j * k / n)
                assert abs(got - want) < 1e-9
                got = cot.rows[j - 1][k - 1].embed() * 1j
                want = 1 / math.tan(math.pi * j * k / n)
                assert abs(got - want) < 1e-9


def test_sec2_diff_entries_are_true_values():
    # No factor: the entries are sec^2 and tan^2 themselves.
    for n in (1, 3, 5, 9, 15):
        mat = build_cyclotomic("sec2_diff", n=n)
        mat2 = build_cyclotomic("tan2_diff", n=n)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                want = 1 / math.cos(math.pi * (j - k) / n) ** 2
                assert abs(mat.rows[j - 1][k - 1].embed() - want) < 1e-9
                want = math.tan(math.pi * (j - k) / n) ** 2
                assert abs(mat2.rows[j - 1][k - 1].embed() - want) < 1e-9
        assert mat2.rows[0][0].as_rational() == 0


@pytest.mark.parametrize("n", [8, 9, 10, 15])
def test_difference_tables_equal_per_residue_inverses(n):
    # The difference families take one inverse per gcd class and conjugate
    # it; every entry must equal the inverse taken at its own residue, in
    # the field (the lattice vectors may differ).  sec^2 is inverted here
    # as 4/(2 + zeta^r + zeta^-r), a trinomial the binomial path never sees.
    ring = CyclotomicField(n)
    z = ring.zeta
    want = {"recip_root_diff": lambda r: (1 - z(r)).inverse(),
            "cot_ratio": lambda r: (1 + z(r)) * (1 - z(r)).inverse()}
    if n % 2:
        want["sec2_diff"] = lambda r: 4 * (2 + z(r) + z(-r)).inverse()
        want["tan2_diff"] = lambda r: 4 * (2 + z(r) + z(-r)).inverse() - 1
    for family, entry in want.items():
        diagonal_zero = family in ("recip_root_diff", "cot_ratio")
        mat = build_cyclotomic(family, n=n, size=n) if diagonal_zero else \
            build_cyclotomic(family, n=n)
        assert mat.ring == ring and mat.n == n
        for j, row in enumerate(mat.rows):
            for k, got in enumerate(row):
                if diagonal_zero and j == k:
                    assert got.is_zero(), (family, j)
                else:
                    assert got == entry((j - k) % n), (family, j, k)


@pytest.mark.parametrize("n", [3, 7, 9])
def test_every_cyclotomic_family_is_built_over_its_own_order(n):
    x = Rat(1, 2)
    params = {"root_linear": {"x": [x] * n}, "root_exp_shift": {"x": x},
              "cauchy_root": {"x": x}}
    families = ["root_linear", "root_exp_shift", "cauchy_root", "tan_shift",
                "cos2", "sec2", "sin2", "tan_jk", "sec2_diff", "tan2_diff",
                "recip_root_diff", "cot_ratio"]
    if n != 9:  # csc2 and cot_jk need a prime n
        families += ["csc2", "cot_jk"]
    for family in families:
        mat = build_cyclotomic(family, n=n, **params.get(family, {}))
        assert mat.ring == CyclotomicField(n), family


def test_recip_root_diff_sizes():
    for size_kw, want in (({"size": 5}, 5), ({"size": 4}, 4), ({}, 5)):
        mat = build_cyclotomic("recip_root_diff", n=5, **size_kw)
        assert mat.n == want
        assert all(mat.rows[j][j].is_zero() for j in range(want))
    with pytest.raises(DomainError):
        build_cyclotomic("recip_root_diff", n=5, size=3)


def test_qabs_determinant_example():
    from permarith.matrices import det_divfree
    one_plus_q = LPoly({0: 1, 1: 1})
    assert det_divfree(build_qpoly("qabs", n=4, shift=1)) == one_plus_q ** 2


@pytest.mark.parametrize("n", range(2, 13))
def test_root_exp_shift_entries_equal_the_ring_arithmetic(n):
    # Each entry is built directly, (b + a zeta^r)/b for x = a/b over
    # Q(zeta_n); it must be the (num, den) pair that 1 + zeta^r * x gives,
    # at r = j + k = n (a rational entry, zero for x = -1) too, for x = -1,
    # 0, 3, 1/2, -3/4 and random rational x.
    rng = random.Random(f"rootexp:{n}")
    ring = CyclotomicField(n)
    xs = [-1, 0, 3, Rat(1, 2), Rat(-3, 4)] + [
        Rat(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
    for x in xs:
        mat = build_cyclotomic("root_exp_shift", n=n, x=x)
        for j, row in enumerate(mat.rows, 1):
            for k, z in enumerate(row, 1):
                want = 1 + ring.zeta(j + k) * x
                assert (z.num, z.den) == (want.num, want.den), (j, k, x)


@pytest.mark.parametrize("n", range(1, 13))
def test_root_linear_entries_equal_the_ring_arithmetic(n):
    # Each entry is built directly, (b - a zeta^j)/b for x = a/b over
    # Q(zeta_n) and the least residue of 1 - zeta^j x over F_p; both must
    # be the (num, den) pair or the ModInt that 1 - zeta^j * x gives, for
    # x = 0, 1, integer and rational x, and at j = n (the last row).
    rng = random.Random(f"rootlinear:{n}")
    ring = CyclotomicField(n)
    draws = [[Rat(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
             for _ in range(4)]
    draws[0][0] = Rat(0)
    draws[1] = [rng.randint(-5, 5) for _ in range(n)]
    draws[2][-1] = Rat(1)
    for xs in draws:
        mat = build_cyclotomic("root_linear", n=n, x=tuple(xs))
        for j, row in enumerate(mat.rows, 1):
            for x, z in zip(xs, row):
                want = 1 - ring.zeta(j) * x
                assert (z.num, z.den) == (want.num, want.den), (j, x)
    root = find_fq_root(n)
    p = root.prime
    for _ in range(4):
        xs = [rng.randrange(p) for _ in range(n)]
        xs[0] = 0
        mat = build_cyclotomic("root_linear", n=n, x=tuple(xs), fq=root)
        assert mat.ring == root.ring()
        for j, row in enumerate(mat.rows, 1):
            for x, z in zip(xs, row):
                want = root.ring().one - root.zeta_pow(j) * x
                assert (z.value, z.modulus) == (want.value, want.modulus)
