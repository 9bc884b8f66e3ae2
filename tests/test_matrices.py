"""Permanent and determinant engines: oracle equivalence, invariances,
size guards."""

import math
import random
from collections import Counter
from functools import partial
from itertools import permutations, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permarith.cyclotomic import Cyc, CyclotomicField, pack_rows, sqrt_element
from permarith import matrices
from permarith.errors import (DomainError, SizeLimitError,
                              UnsupportedRingError)
from permarith.families import (JK_SIGN, build_cyclotomic, build_integer,
                                conjugates)
from permarith.matrices import (RYSER_LIMIT, Mat, _bareiss, _carrier, _glynn,
                                _jk_sign, _necklaces, _orbit_glynn, _orbits,
                                det_divfree,
                                det_field, per_naive, per_orbits, per_ryser,
                                per_sum_coeffs, per_sum_values,
                                unit_generators)
from permarith.ntheory import is_prime
from permarith.rings import (GF, QPOLY, QQ, ZZ, LPoly, Rat, ResidueRing,
                             Zmod)


def _rand_mat(ring, n, rng, span=6):
    return Mat(ring, [[ring.rand(rng, span) for _ in range(n)]
                      for _ in range(n)])


def test_per_naive_examples():
    assert per_naive(Mat(ZZ, [[0, 1], [1, 0]])) == 1
    assert per_naive(Mat(ZZ, [[2, 3, 4], [3, 4, 5], [4, 5, 6]])) == 336
    eye = Mat.from_fn(ZZ, 5, lambda j, k: int(j == k))
    assert per_naive(eye) == 1
    with pytest.raises(SizeLimitError):
        per_naive(Mat.from_fn(ZZ, 10, lambda j, k: 1))


def test_per_ryser_examples():
    assert per_ryser(Mat(ZZ, [[7]])) == 7
    for n in range(1, 7):
        ones = Mat.from_fn(ZZ, n, lambda j, k: 1)
        import math
        assert per_ryser(ones) == math.factorial(n)
    with pytest.raises(DomainError):
        Mat(ZZ, [])
    # 2^21 subsets is past the guard; the error is a DomainError, which
    # checks and sequence rows report as SKIP.
    for ring in (ZZ, CyclotomicField(5)):
        big = Mat.from_fn(ring, RYSER_LIMIT + 1, lambda j, k: ring.one)
        with pytest.raises(SizeLimitError):
            per_ryser(big)
    assert issubclass(SizeLimitError, DomainError)


_SMALL = st.integers(-6, 6)
_RAT = st.builds(Rat, _SMALL, st.integers(1, 6))
# Laurent entries: Rat and int coefficients, negative exponents, and the
# zero polynomial (the empty dict).
_LAURENT = st.dictionaries(st.integers(-3, 3), _RAT | _SMALL,
                           max_size=3).map(LPoly)


def _entries(ring):
    if ring is ZZ:
        return _SMALL
    if ring is QQ:
        return _RAT
    if ring is QPOLY:
        return _LAURENT
    if isinstance(ring, CyclotomicField):
        return st.lists(_SMALL, min_size=ring.m,
                        max_size=ring.m).map(lambda c: Cyc(ring.m, c))
    # Z/m: residues mixed with plain ints, which the lowering reduces.
    return st.integers(0, ring.m - 1).map(ring.zero.__add__) | _SMALL


@st.composite
def _mats(draw, ring, max_n, min_n=1):
    """Square matrices over `ring` of size min_n..max_n; about one in four
    has an all-zero row."""
    n = draw(st.integers(min_n, max_n))
    row = st.lists(_entries(ring), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, n - 1))] = [ring.zero] * n
    return Mat(ring, rows)


# Z/4 and Z/8: Glynn's division by 2^(n-1) under an even modulus.  Q(zeta_2):
# the residue lowering at phi(m) = 1, N = Phi_2(2^e) = 2^e + 1 (N = 9 when a
# zero row makes L = 0).
ENGINE_RINGS = [ZZ, Zmod(4), Zmod(8), Zmod(9), Zmod(49), QQ, GF(7),
                CyclotomicField(2), CyclotomicField(5), QPOLY]
HEAVY_RINGS = ENGINE_RINGS[-3:]


@pytest.mark.parametrize("ring", ENGINE_RINGS, ids=lambda r: r.name)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_per_ryser_equals_naive(ring, data):
    # The lowered Ryser loop against the n! oracle on ring elements; the
    # oracle's 7! terms cost seconds per matrix over the heavy rings, whose
    # sizes 6 and 7 are spotted below.
    mat = data.draw(_mats(ring, 5 if ring in HEAVY_RINGS else 7))
    assert per_ryser(mat) == per_naive(mat)


@pytest.mark.parametrize("ring", HEAVY_RINGS, ids=lambda r: r.name)
def test_per_ryser_equals_naive_large_heavy(ring):
    rng = random.Random(f"pervs:{ring.name}")
    for n in (6, 7):
        mat = _rand_mat(ring, n, rng, span=3)
        assert per_ryser(mat) == per_naive(mat), n


# The sizes at the edges of _glynn's inner block of 5 columns, which it
# takes from 7 rows on: no free column (n = b + 1 with b = 0), one free
# column, the last size without a block, the first with one (one outer
# column, n = b + 2) and the first whose Gray code restores an outer delta.
# At 8 rows per_naive's 8! terms are cheap enough over Z and Z/4 only.
@pytest.mark.parametrize("ring", ENGINE_RINGS, ids=lambda r: r.name)
@settings(max_examples=3, deadline=None)
@given(st.data())
def test_blocked_glynn_equals_naive_at_the_block_edges(ring, data):
    sizes = (1, 2, 6, 7) + ((8,) if ring in (ZZ, Zmod(4)) else ())
    for n in sizes:
        mat = data.draw(_mats(ring, n, min_n=n))
        assert per_ryser(mat) == per_naive(mat), n


# Every lowering: ENGINE_RINGS through `lower` (Kronecker over Q(zeta_2)
# and Q(zeta_5)) and a composite order, and the residue lowering over
# Q(zeta_m) at m = 2, a prime and a composite m, on rational entries
# (carrier 1) where m > 2.
_LOWERINGS = ([(ring, False) for ring in ENGINE_RINGS + [CyclotomicField(12)]]
              + [(CyclotomicField(m), True) for m in (2, 5, 12)])


@pytest.mark.parametrize("ring, rational", _LOWERINGS, ids=lambda v: getattr(
    v, "name", "lower_rational" if v else "lower"))
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_lowering_lift_divides_by_a_power_of_two(ring, rational, data):
    # modulus is None exactly for the exact lowerings, else odd.  lift(v, k)
    # divides by 2^k, exactly or mod the modulus, so every image of 2^k P
    # lifts as P does, and an exact lowering refuses an int that 2^k does
    # not divide.  P is the image of the permanent: Glynn's sum over 2^(n-1).
    if rational and ring.m > 2:
        rows = data.draw(_mats(QQ, 4)).rows
        mat = Mat(ring, [[Cyc.rational(ring.m, x) for x in row]
                         for row in rows])
    else:
        mat = data.draw(_mats(ring, 4))
    low = (ring.lower_rational(mat.rows, ring.one) if rational
           else ring.lower(mat.rows))
    modulus = low.modulus
    assert (modulus is None) == (not isinstance(ring, CyclotomicField))
    want = per_naive(mat)
    v = _glynn(low.ints, low.product)
    assert low.lift(v, mat.n - 1) == want
    k = data.draw(st.integers(0, 8))
    if modulus is None:
        p, r = divmod(v, 1 << (mat.n - 1))
        assert not r
        assert low.lift(p) == low.lift(p << k, k) == want
        if k:
            odd = (p << k) + data.draw(st.integers(1, (1 << k) - 1))
            with pytest.raises(ArithmeticError):
                low.lift(odd, k)
    else:
        assert modulus % 2 == 1
        p = v * pow(2, 1 - mat.n, modulus) % modulus
        t = data.draw(st.integers(-3, 3))
        assert (low.lift(p) == low.lift(p << k, k) == want
                == low.lift((p << k) % modulus + t * modulus, k))


def _plain_glynn(rows, product):
    # Glynn's sum one term per Gray-code step, with no inner block.
    n = len(rows)
    doubled = [[2 * c for c in col] for col in list(zip(*rows))[1:]]
    sums = [sum(row) for row in rows]
    acc = product(sums)
    negated = 0
    for s in range(1, 1 << (n - 1)):
        k = (s & -s).bit_length() - 1
        sign = 1 if negated >> k & 1 else -1
        sums = [r + sign * c for r, c in zip(sums, doubled[k])]
        negated ^= 1 << k
        acc += (-1) ** bin(negated).count("1") * product(sums)
    return acc


def test_blocked_glynn_on_large_negative_entries():
    # Twelve rows: an inner block of 5 columns under 6 outer ones.  Every
    # entry is negative and up to 40 bits, so every row sum is too.
    rng = random.Random("glynn:negative")
    rows = [[-rng.randrange(1, 1 << 40) for _ in range(12)]
            for _ in range(12)]
    total = _plain_glynn(rows, math.prod)
    assert _glynn(rows, math.prod) == total
    assert per_ryser(Mat(ZZ, rows)) == total >> 11
    assert total % (1 << 11) == 0
    for m in (4, 49):
        assert per_ryser(Mat(Zmod(m), rows)) == (total >> 11) % m


@pytest.mark.parametrize("m", [1, 2])
def test_glynn_halving_past_the_word_length(m):
    # At n = 7 Glynn divides by 2^6, but the fold modulus 2^(mB) - 1 has only
    # mB = 2m bits (a zero row, L = 0) or 3m bits (a permutation matrix of
    # ones, L = 1), at most 6; the lift multiplies by the inverse of 2^6
    # mod 2^(mB) - 1.
    ring = CyclotomicField(m)
    one, zero = ring.one, ring.zero
    perm = [3, 0, 6, 1, 5, 2, 4]
    mats = [Mat(ring, [[one if k == perm[j] else zero for k in range(7)]
                       for j in range(7)])]
    rows = [[ring.zero + (j - k) for k in range(7)] for j in range(7)]
    rows[4] = [zero] * 7
    mats.append(Mat(ring, rows))
    assert pack_rows(m, mats[0].rows)[1].bits == 3
    assert pack_rows(m, mats[1].rows)[1].bits == 2
    for mat in mats:
        assert per_ryser(mat) == per_naive(mat)
    assert per_ryser(mats[0]) == 1 and per_ryser(mats[1]) == 0


def _mirrored(ring, n, sign, entries):
    # The n x n matrix whose entry (j, k) for j*n + k below n*n/2 is the
    # next of `entries`, and whose entry (n-1-j, n-1-k) is sign times it: a
    # centre entry (odd n) is the next entry for sign 1 and 0 for sign -1.
    flat = [None] * (n * n)
    for i in range((n * n + 1) // 2):
        x = next(entries)
        if sign < 0 and 2 * i == n * n - 1:
            x = ring.zero
        flat[i], flat[-1 - i] = x, x if sign > 0 else -x
    return Mat(ring, [flat[j * n:(j + 1) * n] for j in range(n)])


def _mirror_products(n):
    # The row products of the mirror sum at n rows: 2^(o-1) + 2^((o-1)/2)
    # blocks of 2^b, o = n - 1 - b outer columns.
    b = 5 if n % 2 else 4
    o = n - 1 - b
    return (2 ** (o - 1) + 2 ** ((o - 1) // 2)) * 2 ** b


def _counted_glynn(low):
    # _glynn on a lowering, and the number of row products it took.
    calls = [0]

    def product(sums):
        calls[0] += 1
        return low.product(sums)
    return _glynn(low.ints, product, low.modulus), calls[0]


def _plain_lift(low, n):
    # The same lift with the mirror test forced to fail.
    with mock.patch.object(matrices, "_mirror_sign", return_value=0):
        return low.lift(_glynn(low.ints, low.product, low.modulus), n - 1)


def _check_mirror(mat, low, mirror, naive_n):
    # Glynn's sum on the lowering takes the mirror sum's products where
    # `mirror` is true, else all 2^(n-1); it equals the forced plain sum
    # and, up to naive_n rows, per_naive.
    n = mat.n
    v, products = _counted_glynn(low)
    assert products == (_mirror_products(n) if mirror else 2 ** (n - 1))
    got = low.lift(v, n - 1)
    assert got == _plain_lift(low, n)
    if n <= naive_n:
        assert got == per_naive(mat)


@st.composite
def _mirror_cases(draw, ring, odd_negative=False):
    """(sign, mat): 7..12 rows over ring with entry (n-1-j, n-1-k) sign
    times entry (j, k); sign -1 only at even n, unless odd_negative, which
    draws sign -1 at odd n only.  Entry (0, 0) is 1, so the matrix has the
    relation for that sign alone, and a one-entry perturbation of it for
    neither sign."""
    sign = -1 if odd_negative else draw(st.sampled_from((1, -1)))
    n = draw(st.integers(7, 12).filter(
        lambda n: sign > 0 or (n % 2 == 1) == odd_negative))
    entries = draw(st.lists(_entries(ring), min_size=(n * n - 1) // 2,
                            max_size=(n * n - 1) // 2))
    return sign, _mirrored(ring, n, sign, iter([ring.one] + entries))


@pytest.mark.parametrize("ring", ENGINE_RINGS, ids=lambda r: r.name)
@settings(max_examples=4, deadline=None)
@given(st.data())
def test_mirror_glynn_equals_naive_and_the_plain_sum(ring, data):
    # Every lowering keeps equal entries equal, and all but the least
    # residues of Z/m keep negated entries negated, so the mirror sum runs.
    sign, mat = data.draw(_mirror_cases(ring))
    mirror = sign > 0 or not isinstance(ring, ResidueRing)
    naive_n = 8 if ring is ZZ or isinstance(ring, ResidueRing) else 7
    low = matrices._lowered(mat)
    _check_mirror(mat, low, mirror, naive_n)
    # The centre maps to itself, so the perturbed entry is off it.
    i = data.draw(st.integers(0, mat.n * mat.n // 2 - 1))
    rows = [list(row) for row in mat.rows]
    rows[i // mat.n][i % mat.n] += ring.one
    bent = Mat(ring, rows)
    _check_mirror(bent, matrices._lowered(bent), False, naive_n)
    # sign -1 at odd n: the relation forces a zero permanent, and the
    # plain sum runs.
    _, odd = data.draw(_mirror_cases(ring, odd_negative=True))
    _check_mirror(odd, matrices._lowered(odd), False, naive_n)


@st.composite
def _mirror_tables(draw):
    """[T(j + k)] (n = m - 1) or [T(j - k)] (n = m - 1 or m) over
    Q(zeta_m), 7 <= n <= 12, for T(r) = sum_e c_e (zeta^(er) + sign
    zeta^(-er)) with rational c_e: Galois-invariant tables with entry
    (n-1-j, n-1-k) sign times entry (j, k), sign -1 at even n only."""
    sign = draw(st.sampled_from((1, -1)))
    shapes = [(m, n, kind) for m in range(8, 14) for n in (m - 1, m)
              for kind in (1, -1) if 7 <= n <= 12
              and (n == m - 1 or kind < 0) and (sign > 0 or n % 2 == 0)]
    m, n, kind = draw(st.sampled_from(shapes))
    ring = CyclotomicField(m)
    terms = draw(st.lists(st.tuples(st.integers(1, m - 1), _RAT),
                          min_size=1, max_size=3))
    table = [sum((c * (ring.zeta(e * r) + sign * ring.zeta(-e * r))
                  for e, c in terms), ring.zero) for r in range(m)]
    return Mat(ring, [[table[(j + kind * k) % m] for k in range(1, n + 1)]
                      for j in range(1, n + 1)])


@settings(max_examples=6, deadline=None)
@given(_mirror_tables())
def test_mirror_glynn_on_residues_and_kronecker(mat):
    # Over Q(zeta_m) the residue lowering holds an irrational entry as its
    # least residue mod N, so a negated entry's residue is N minus it: the
    # test must compare mod N.  The Kronecker images are compared mod
    # 2^(mB) - 1.
    ring, n = mat.ring, mat.n
    assert _carrier(mat) == ring.one
    residue = ring.lower_rational(mat.rows, ring.one)
    _check_mirror(mat, residue, True, 7)
    _check_mirror(mat, ring.lower(mat.rows), True, 0)
    assert per_ryser(mat) == _plain_lift(residue, n)
    rows = [list(row) for row in mat.rows]
    rows[0][1] += ring.one
    bent = ring.lower_rational(rows, ring.one)
    assert _counted_glynn(bent)[1] == 2 ** (n - 1)


def _glynn_products(mat):
    # per_ryser's value, and the row products of its Glynn sum.
    calls = [0]
    glynn = matrices._glynn

    def counted(rows, product, modulus=None):
        def counting(sums):
            calls[0] += 1
            return product(sums)
        return glynn(rows, counting, modulus)
    with mock.patch.object(matrices, "_glynn", counted):
        got = per_ryser(mat)
    return got, calls[0]


@pytest.mark.parametrize("mat", [
    build_integer("abs", n=13, shift=0), build_cyclotomic("tan_shift", n=11)],
    ids=["|j-k| at 13", "T(11)"])
def test_mirror_glynn_takes_about_half_the_products(mat):
    # per[|j-k|] (exact ints, sign 1) runs 72 of 128 blocks of 32; T(11)'s
    # ten rows of residues (sign -1) 20 of 32 blocks of 16.  Both equal the
    # plain sum.
    got, products = _glynn_products(mat)
    assert products == _mirror_products(mat.n)
    assert products == {13: 72 * 32, 10: 20 * 16}[mat.n]
    with mock.patch.object(matrices, "_mirror_sign", return_value=0):
        assert _glynn_products(mat) == (got, 2 ** (mat.n - 1))


@pytest.mark.parametrize("family", list(JK_SIGN))
def test_per_orbits_equals_glynn_and_naive(family):
    # The orbit sum against plain Glynn on the Kronecker lowering at every
    # odd n <= 23 in the family's domain (composite 9, 15, 21 for cos2,
    # sec2, sin2 and tan_jk), and against the n! oracle up to n = 13.
    # per_ryser takes the orbit sum itself here.
    for n in range(3, 24, 2):
        if family in ("csc2", "cot_jk") and not is_prime(n):
            continue
        mat = build_cyclotomic(family, n=n)
        got = per_orbits(mat)
        assert got == _glynn_with(mat.ring.lower, mat), n
        assert per_ryser(mat) == got, n
        if n <= 13:
            assert got == per_naive(mat), n


def _orbit_sizes_by_brute_force(n, sign):
    # Union-find over delta vectors, with the action written out directly.
    h = (n - 1) // 2
    deltas = list(product((1, -1), repeat=h))
    index = {d: i for i, d in enumerate(deltas)}
    parent = list(range(len(deltas)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for d in deltas:
        images = [tuple(-x for x in d)]
        for a in range(1, n):
            if math.gcd(a, n) == 1:
                img = [0] * h
                for k in range(1, h + 1):
                    r = a * k % n
                    img[min(r, n - r) - 1] = d[k - 1] * (sign if r > h else 1)
                images.append(tuple(img))
        for e in images:
            parent[root(index[e])] = root(index[d])
    return sorted(Counter(root(i) for i in range(len(deltas))).values())


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
def test_orbits_match_brute_force(n):
    # The orbits are closed under delta -> -delta and under every unit, for
    # both signs; 6 orbits at n = 13 for sign -1 (8 for +1).
    for sign in (1, -1):
        orbits = _orbits(n, sign)
        assert sum(size for _, size in orbits) == 1 << (n - 1) // 2
        assert (sorted(size for _, size in orbits)
                == _orbit_sizes_by_brute_force(n, sign)), sign
    assert len(_orbits(13, -1)) == 6 and len(_orbits(13, 1)) == 8


def test_per_orbits_refuses_an_asymmetric_table():
    mat = build_cyclotomic("tan_jk", n=7)
    rows = [list(r) for r in mat.rows]
    # The same field element on another coefficient list: the sum of all
    # seven powers of zeta is 0.
    rows[0][1] = rows[0][1] + Cyc(7, [1] * 7)
    assert rows[0][1] == mat.rows[0][1]
    with pytest.raises(ArithmeticError, match="entry"):
        per_orbits(Mat(mat.ring, rows))
    sin9 = build_cyclotomic("sin2", n=9)
    rows = [list(r) for r in sin9.rows]
    rows[2][2] = sin9.ring.one  # 3 * 3 = 0 mod 9, and T[0] = -T[0]
    with pytest.raises(ArithmeticError, match="T\\[0\\]"):
        per_orbits(Mat(sin9.ring, rows))
    with pytest.raises(DomainError):  # 3 rows need Q(zeta_7)
        per_orbits(Mat(CyclotomicField(9), mat.rows))


def test_per_ryser_on_an_asymmetric_jk_table():
    # The table of the test above is symmetric in the field but not on the
    # lattice, so per_ryser must not take the orbit sum; it still gives the
    # permanent.
    mat = build_cyclotomic("tan_jk", n=7)
    rows = [list(r) for r in mat.rows]
    rows[0][1] = rows[0][1] + Cyc(7, [1] * 7)
    bent = Mat(mat.ring, rows)
    assert _jk_sign(bent)[0] == 0 and _jk_sign(mat) == (-1, "")
    assert per_ryser(bent) == per_naive(bent) == per_ryser(mat)


def _orbits_by_walk(n, sign):
    # The enumeration _orbits replaced: a stack walk from each unvisited
    # mask, each unit applied through one lookup table per byte.
    h = (n - 1) // 2
    full = (1 << h) - 1
    maps = []
    for a in unit_generators(n):
        image = [0] * h
        flip = 0
        for k in range(1, h + 1):
            r = a * k % n
            image[k - 1] = 1 << (min(r, n - r) - 1)
            if sign < 0 and r > h:
                flip |= image[k - 1]
        tables = []
        for lo in range(0, h, 8):
            bits = list(enumerate(image[lo:lo + 8]))
            tables.append((lo, [sum(b for i, b in bits if v >> i & 1)
                                for v in range(1 << len(bits))]))
        maps.append((flip, tables))
    seen = bytearray(1 << h)
    orbits = []
    for start in range(1 << h):
        if seen[start]:
            continue
        seen[start] = 1
        stack = [start]
        size = 0
        while stack:
            x = stack.pop()
            size += 1
            ys = [x ^ full]
            for flip, tables in maps:
                y = flip
                for lo, table in tables:
                    y ^= table[x >> lo & 255]
                ys.append(y)
            for y in ys:
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
        orbits.append((start, size))
    return tuple(orbits)


def test_orbits_equal_the_walk_they_replaced():
    # The same representatives, sizes and order, so every orbit sum adds
    # the same terms in the same order as before.
    for n in range(3, 32, 2):
        for sign in (1, -1):
            assert _orbits(n, sign) == _orbits_by_walk(n, sign), (n, sign)


def _per_ryser_path(mat):
    # per_ryser's value, and whether it took the circulant orbit sum.
    with mock.patch.object(matrices, "_necklaces",
                           wraps=matrices._necklaces) as necklaces:
        got = per_ryser(mat)
    return got, necklaces.called


def _circulant(ring, c):
    # Row j is row j - 1 rotated right by one place.
    n = len(c)
    return Mat(ring, [[c[(k - j) % n] for k in range(n)] for j in range(n)])


@st.composite
def _circulants(draw, ring, max_n):
    n = draw(st.integers(1, max_n))
    return _circulant(ring, draw(st.lists(_entries(ring), min_size=n,
                                          max_size=n)))


@st.composite
def _conjugate_circulants(draw):
    """[T(j - k mod n)] over Q(zeta_n), 3 <= n <= 6, with T(r) = F(zeta^r)
    from families.conjugates for F(x) = sum c_e x^e, now and then over
    x - q: the Galois check passes, so the residue lowering serves it."""
    n = draw(st.integers(3, 6))
    ring = CyclotomicField(n)
    terms = draw(st.lists(st.tuples(st.integers(0, n - 1), _RAT),
                          min_size=1, max_size=3))
    # x - q vanishes at no root of unity for rational q other than 1, -1.
    q = draw(st.none() | _RAT.filter(lambda q: q not in (1, -1)))

    def f(r):
        z = sum((c * ring.zeta(e * r) for e, c in terms), ring.zero)
        return z if q is None else z * (ring.zeta(r) - q).inverse()
    table = conjugates(ring, range(n), f)
    return _circulant(ring, [table[r] for r in range(n)])


def _check_circulant(mat, data):
    # The orbit sum from three rows on equals the n! oracle; a copy with one
    # entry changed is no circulant, and Glynn's sum gives the oracle's value.
    got, taken = _per_ryser_path(mat)
    assert got == per_naive(mat)
    assert taken == (mat.n > 2)
    j = data.draw(st.integers(0, mat.n - 1))
    k = data.draw(st.integers(0, mat.n - 1))
    rows = [list(r) for r in mat.rows]
    rows[j][k] = rows[j][k] + mat.ring.one
    bent = Mat(mat.ring, rows)
    got, taken = _per_ryser_path(bent)
    assert got == per_naive(bent) and not taken


# Z/4 and Z/12: even moduli, where the lift's reduction mod m * 2^n makes
# the division by 2^n exact.  Q(zeta_5) takes the Kronecker lowering:
# random entries fail the Galois check, and 3 or 6 rows have no label shape.
CIRCULANT_RINGS = [ZZ, Zmod(4), Zmod(9), Zmod(12), GF(7), QQ, QPOLY,
                   CyclotomicField(5)]


@pytest.mark.parametrize("ring", CIRCULANT_RINGS, ids=lambda r: r.name)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_circulant_orbit_sum_equals_naive(ring, data):
    # Up to 8 rows over the int rings; per_naive's 7! and 8! terms cost
    # seconds over the heavy rings, whose sizes 7 and 8 are spotted below.
    heavy = ring in (QQ, QPOLY) or isinstance(ring, CyclotomicField)
    _check_circulant(data.draw(_circulants(ring, 6 if heavy else 8)), data)


@settings(max_examples=25, deadline=None)
@given(_conjugate_circulants(), st.data())
def test_circulant_orbit_sum_on_the_residue_lowering(mat, data):
    assert _carrier(mat) == mat.ring.one
    _check_circulant(mat, data)


def test_circulant_orbit_sum_at_seven_and_eight_rows():
    rng = random.Random("circulant")
    for ring in (QQ, QPOLY, CyclotomicField(5)):
        for n in (7, 8):
            mat = _circulant(ring, [ring.rand(rng, 3) for _ in range(n)])
            assert _per_ryser_path(mat) == (per_naive(mat), True), (ring, n)
    # The paper's Cauchy matrix on the residue lowering: the n! oracle at 7
    # rows, the closed form prod_r (n x^n/(1 - x^n) + r) at 8.
    x = Rat(3, 2)
    for n in (7, 8):
        mat = build_cyclotomic("cauchy_root", n=n, x=x)
        assert _carrier(mat) == mat.ring.one
        got, taken = _per_ryser_path(mat)
        base = n * x ** n / (1 - x ** n)
        assert taken and got.as_rational() == math.prod(
            (base + r for r in range(1, n + 1)), start=Rat(1)), n
        if n == 7:
            assert got == per_naive(mat)


@pytest.mark.parametrize("n", range(1, 15))
def test_necklaces_partition_the_masks(n):
    # Each (mask, size) stands for the rotations of its necklace, and of the
    # complement's when it is lighter than n/2: size masks in all, every
    # mask of {0,1}^n once.  A brute-force walk over rotation and
    # complement finds each class the union of the entries inside it.
    full = (1 << n) - 1

    def rotations(x):
        return {(x << i | x >> n - i) & full for i in range(n)}

    entries = _necklaces(n)
    assert sum(size for _, size in entries) == 1 << n
    covered = Counter()
    for mask, size in entries:
        assert mask == min(rotations(mask)) and 2 * mask.bit_count() <= n
        members = rotations(mask)
        if 2 * mask.bit_count() < n:
            members |= rotations(mask ^ full)
        assert len(members) == size, mask
        covered.update(members)
    assert sorted(covered) == list(range(1 << n))
    assert set(covered.values()) == {1}
    seen = set()
    for start in range(1 << n):
        if start in seen:
            continue
        orbit, stack = {start}, [start]
        while stack:
            x = stack.pop()
            for y in rotations(x) | {x ^ full}:
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        seen |= orbit
        inside = [(mask, size) for mask, size in entries if mask in orbit]
        assert inside and sum(size for _, size in inside) == len(orbit)


def _orbit_sum_with(lower, mat):
    # per_orbits' body on a chosen lowering.
    low = lower(mat.rows)
    orbits = _orbits(2 * mat.n + 1, _jk_sign(mat)[0])
    return low.lift(_orbit_glynn(low.ints, low.product, orbits), mat.n)


def _kronecker_orbit_sum(mat):
    return _orbit_sum_with(mat.ring.lower, mat)


@pytest.mark.parametrize("family", list(JK_SIGN))
def test_twisted_lowering_equals_the_kronecker_orbit_sum(family):
    # Every odd n <= 31 in the family's domain, composite n included: from
    # n = 5 on the check finds the table's character, with the carrier 1 or
    # sqrt_element(n), and the residue orbit sum equals the Kronecker one in
    # the field.
    for n in range(3, 32, 2):
        if family in ("csc2", "cot_jk") and not is_prime(n):
            continue
        mat = build_cyclotomic(family, n=n)
        got = per_ryser(mat)
        assert got == _kronecker_orbit_sum(mat), n
        if n == 3:
            continue
        sign = _jk_sign(mat)[0]
        carrier = _carrier(mat, sign)
        assert sign == JK_SIGN[family], n
        # For sign -1, chi(a) is the Jacobi symbol (a/n), which is 1 for
        # every unit a when n is a square (9 and 25): the carrier is 1 there.
        twisted = sign < 0 and math.isqrt(n) ** 2 != n
        assert carrier == (sqrt_element(n) if twisted else mat.ring.one), n
        want = _orbit_sum_with(partial(mat.ring.lower_rational,
                                       carrier=carrier), mat)
        assert (got.num, got.den) == (want.num, want.den), n


def test_one_row_tables_keep_kronecker():
    # At n = 3 the table has the one residue 1, so _jk_sign reads sign 1
    # for all six families; the folded entry T[2] = T[1] is what refuses
    # the four odd ones, since sigma_2(T[1]) = -T[1].  per_ryser lowers no
    # one-row matrix, Kronecker or residue: it returns the entry, coerced
    # into the ring, as the same lattice vector.
    for family in JK_SIGN:
        mat = build_cyclotomic(family, n=3)
        (entry,), = mat.rows
        assert _jk_sign(mat) == (1, "")
        assert (_carrier(mat, 1) is None) == (JK_SIGN[family] < 0), family
        got = per_ryser(mat)
        assert (got.num, got.den) == (entry.num, entry.den), family


def _refuse_lowerings(mp, ring, names):
    # Make each lowering in names that the ring's class has raise.
    def refused(self, rows, *carrier):
        raise AssertionError("took a lowering it must not")
    for name in names:
        if hasattr(type(ring), name):
            mp.setattr(type(ring), name, refused)


ONE_ROW_RINGS = ENGINE_RINGS + [CyclotomicField(1), CyclotomicField(12)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_no_kronecker_for_rational_entries_q_or_one_row(data):
    # The three kinds of matrix that took Kronecker images before the one
    # lowering rule: entries with constant lattice vectors over Q(zeta_m),
    # m >= 3; any matrix over Q(zeta_1) or Q(zeta_2), which are Q (num[1]
    # may be nonzero at m = 2); and a one-row matrix over any ring, a plain
    # int over Z/m included, which takes no lowering at all.  Each engine
    # must match the n! oracle and the signed Leibniz sum.
    kind = data.draw(st.sampled_from(("rational", "q", "one row")))
    names = ("lower",)
    if kind == "rational":
        m = data.draw(st.sampled_from((3, 4, 6, 12, 15)))
        n = data.draw(st.integers(1, 6))
        value = (_RAT | _SMALL).map(partial(Cyc.rational, m))
        mat = Mat(CyclotomicField(m), data.draw(st.lists(
            st.lists(value, min_size=n, max_size=n), min_size=n, max_size=n)))
    elif kind == "q":
        mat = data.draw(_mats(CyclotomicField(data.draw(st.sampled_from(
            (1, 2)))), 6))
    else:
        mat = data.draw(_mats(data.draw(st.sampled_from(ONE_ROW_RINGS)), 1))
        names = ("lower", "lower_rational")
    with pytest.MonkeyPatch.context() as mp:
        _refuse_lowerings(mp, mat.ring, names)
        per, det = per_ryser(mat), det_divfree(mat)
        field_det = det_field(mat) if mat.ring.is_field else det
    assert per == per_naive(mat)
    assert det == field_det == _leibniz(mat)


@pytest.mark.parametrize("family", list(JK_SIGN))
def test_a_perturbed_table_falls_back_to_kronecker(family):
    # T[1] moved, and T[n - 1] = sign * T[1] moved with it, so the lattice
    # symmetry holds.  Moved by zeta, sigma_a(T[1]) no longer matches
    # T[a]: the check refuses, and the Kronecker orbit sum answers, equal to
    # the n! oracle.  Moved by 1 + zeta + ... + zeta^(n-1), which is 0, the
    # lattice vectors change but the field elements do not: the check
    # passes, and the residue sum is still exact.
    sign = JK_SIGN[family]
    for n in (5, 7, 9, 11, 13):
        if family in ("csc2", "cot_jk") and not is_prime(n):
            continue
        mat = build_cyclotomic(family, n=n)
        ring = mat.ring
        for shift, passes in ((ring.zeta(1), False), (Cyc(n, [1] * n), True)):
            t1 = mat.rows[0][0] + shift
            moved = {1: t1, n - 1: t1 if sign > 0 else -t1}
            bent = Mat(ring, [[moved.get(j * k % n, z)
                               for k, z in enumerate(row, 1)]
                              for j, row in enumerate(mat.rows, 1)])
            assert _jk_sign(bent) == (sign, "")
            assert (_carrier(bent, sign) is not None) == passes, (n, shift)
            got = per_ryser(bent)
            if not passes:
                want = _kronecker_orbit_sum(bent)
                assert (got.num, got.den) == (want.num, want.den), n
            assert got == per_naive(bent), (n, shift)


@st.composite
def _jk_tables(draw):
    """(sign, conjugate, [T(jk mod n)]) over Q(zeta_n), n = 2h + 1 <= 13,
    with T(n - r) = sign * T(r) on the lattice.  In half the tables
    (conjugate) T(r) = F(zeta^r) from families.conjugates, with
    F(x) = sum c_e (x^e + sign x^-e), now and then over x + 1/x + q, whose
    character the check must find; in the others each T(r) is drawn on its
    own, which the check refuses unless the draws happen to agree."""
    h = draw(st.integers(1, 6))
    n = 2 * h + 1
    sign = draw(st.sampled_from((1, -1)))
    ring = CyclotomicField(n)
    conjugate = draw(st.booleans())
    if conjugate:
        terms = draw(st.lists(st.tuples(st.integers(0, n - 1), _RAT),
                              min_size=1, max_size=3))
        # x + 1/x + q vanishes at no root of unity of odd order.
        q = draw(st.none() | _RAT.filter(lambda q: q not in (-2, 1)))

        def f(r):
            z = sum((c * (ring.zeta(e * r) + sign * ring.zeta(-e * r))
                     for e, c in terms), ring.zero)
            if q is None:
                return z
            return z * (ring.zeta(r) + ring.zeta(-r) + q).inverse()
        table = conjugates(ring, range(h + 1), f)
    else:
        table = {r: draw(_entries(ring)) for r in range(h + 1)}
        if sign < 0:
            table[0] = ring.zero
    for r in range(1, h + 1):
        table[n - r] = table[r] if sign > 0 else -table[r]
    return sign, conjugate, Mat(ring, [[table[j * k % n]
                                        for k in range(1, h + 1)]
                                       for j in range(1, h + 1)])


@settings(max_examples=60, deadline=None)
@given(_jk_tables())
def test_twisted_lowering_on_random_tables(drawn):
    # Whichever lowering the orbit sum takes, per_ryser equals the n!
    # oracle and the Kronecker orbit sum in the field, and on the lattice
    # wherever the check refused.  A table made of Galois conjugates passes
    # the check for the sign it was built with, from two rows on.
    sign, conjugate, mat = drawn
    read = _jk_sign(mat)[0]
    carrier = _carrier(mat, read)
    got = per_ryser(mat)
    kronecker = _kronecker_orbit_sum(mat)
    assert got == per_naive(mat) == kronecker
    if carrier is None or mat.n == 1:
        assert (got.num, got.den) == (kronecker.num, kronecker.den)
    # The sign read differs from the one built with only where both hold,
    # as for an all-zero table.
    if conjugate and mat.n > 1 and read == sign:
        assert carrier is not None


def test_permutation_and_transpose_invariance():
    rng = random.Random("perminv")
    for _ in range(60):
        n = rng.randint(2, 6)
        m = _rand_mat(ZZ, n, rng)
        value = per_ryser(m)
        rows = list(rng.sample(range(n), n))
        cols = list(rng.sample(range(n), n))
        shuffled = Mat(ZZ, [[m.rows[r][c] for c in cols] for r in rows])
        assert per_ryser(shuffled) == value
        assert per_ryser(Mat(ZZ, zip(*m.rows))) == value


def _rational_cyc(m, rng, span):
    # Negative and non-integral coordinates on the exponent lattice.
    coeffs = [0] * m
    for _ in range(rng.randint(1, 3)):
        coeffs[rng.randrange(m)] += Rat(rng.randint(-span, span),
                                        rng.randint(1, 4))
    return Cyc(m, coeffs)


def _leibniz(mat):
    acc = mat.ring.zero
    for perm in permutations(range(mat.n)):
        inv = sum(1 for i in range(mat.n) for j in range(i + 1, mat.n)
                  if perm[i] > perm[j])
        term = mat.ring.one
        for j in range(mat.n):
            term = term * mat.rows[j][perm[j]]
        acc = acc + term if inv % 2 == 0 else acc - term
    return acc


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((3, 5, 6, 12)), st.integers(1, 5), st.randoms())
def test_per_ryser_equals_naive_rational_cyclotomic(m, n, rng):
    # Rational, negative coordinates on the exponent lattice of Q(zeta_m),
    # composite m included: the packed Ryser loop against the n! oracle.
    ring = CyclotomicField(m)
    mat = Mat(ring, [[_rational_cyc(m, rng, 9) for _ in range(n)]
                     for _ in range(n)])
    assert per_ryser(mat) == per_naive(mat)


@pytest.mark.parametrize("m", [5, 12, 14, 21])
def test_packed_engines_over_cyclotomic(m):
    # per_ryser and det_field run on Kronecker images over Q(zeta_m); they
    # must agree with the naive permanent and the Leibniz determinant.
    ring = CyclotomicField(m)
    rng = random.Random(f"packed:{m}")
    mats = [Mat(ring, [[_rational_cyc(m, rng, 9) for _ in range(n)]
                       for _ in range(n)])
            for n in (1, 2, 3, 4, 4, 5)]
    z = ring.zeta
    # Row L1 norms 8 and 17 once the 1/2 is cleared: the bound 136 has a
    # bit length of 8, on a byte boundary.
    edge = Mat(ring, [[Rat(3, 2) - 2 * z(1), Rat(1, 2) * z(2)],
                      [Cyc.rational(m, -9), 5 * z(3) + 3]])
    assert pack_rows(m, edge.rows)[1].bound == 136
    mats.append(edge)
    # A single entry attains the bound 255 itself, with either sign (a
    # one-row matrix is its entry and packs nothing, so the entry sits on
    # a diagonal beside 1).
    for big in (255 * z(1), -255 * z(m - 1)):
        mats.append(Mat(ring, [[big, ring.zero], [ring.zero, ring.one]]))
        assert pack_rows(m, mats[-1].rows)[1].bound == 255
    # A zero row gives a zero bound.
    mats.append(Mat(ring, [[ring.zero] * 3, [z(1)] * 3,
                           [z(2), 1 + z(1), z(5)]]))
    for mat in mats:
        assert per_ryser(mat) == per_naive(mat), mat
        want = _leibniz(mat)
        assert det_field(mat) == want, mat
        assert det_divfree(mat) == want, mat


# Orders for the rational lowering: prime, prime power, composite, even.
_INVARIANT_ORDERS = (3, 4, 5, 7, 9, 12)


def _glynn_with(lower, mat):
    # per_ryser's body on a chosen lowering.
    low = lower(mat.rows)
    return low.lift(_glynn(low.ints, low.product, low.modulus), mat.n - 1)


@st.composite
def _invariant_mats(draw, max_n=12, min_n=1, orders=_INVARIANT_ORDERS,
                    kinds=("j+k", "j-k", "1-zeta^j x_k"),
                    quotient_max_n=None):
    """Galois-invariant matrices over Q(zeta_m), m in orders, with n rows,
    min_n <= n <= max_n, n = m - 1 or m, labelled mod m: [T(j+k)] or
    [T(j-k)] for a table T(r) = F(zeta^r) from families.conjugates, F a
    sparse polynomial with rational coefficients, now and then over 1 - x*y
    (only up to quotient_max_n rows if given); or [1 - zeta^j x_k] with
    rational x_k."""
    sizes = [(m, n) for m in orders for n in (m - 1, m)
             if min_n <= n <= max_n]
    m, n = draw(st.sampled_from(sizes))
    ring = CyclotomicField(m)
    kind = draw(st.sampled_from(kinds))
    if kind == "1-zeta^j x_k":
        xs = draw(st.lists(_RAT, min_size=n, max_size=n))
        return Mat(ring, [[1 - ring.zeta(j) * x for x in xs]
                          for j in range(1, n + 1)])
    terms = draw(st.lists(st.tuples(st.integers(0, m - 1), _RAT),
                          min_size=1, max_size=3))
    x = None
    if quotient_max_n is None or n <= quotient_max_n:
        x = draw(st.none() | _RAT.filter(lambda x: x ** m != 1))

    def f(r):
        z = sum((c * ring.zeta(e * r) for e, c in terms), ring.zero)
        return z if x is None else z * (1 - ring.zeta(r) * x).inverse()
    table = conjugates(ring, range(m), f)
    sign = 1 if kind == "j+k" else -1
    return Mat(ring, [[table[(j + sign * k) % m] for k in range(1, n + 1)]
                      for j in range(1, n + 1)])


@settings(max_examples=40, deadline=None)
@given(_invariant_mats())
@example(build_cyclotomic("recip_root_diff", n=7, size=6))
def test_rational_lowering_on_invariant_matrices(mat):
    # per_ryser takes the evaluation mod Phi_m(2^e) here; it must equal the
    # Kronecker path in the field, and the n! oracle where that is cheap.
    # The example's entries are inverses in canonical coordinates, so the
    # invariance check needs the field for them, not only the lattice.
    assert _carrier(mat) == mat.ring.one
    got = per_ryser(mat)
    assert not any(got.num[1:])
    assert got == _glynn_with(mat.ring.lower, mat)
    if mat.n <= 7:
        assert got == per_naive(mat)


@pytest.mark.parametrize("n", [2, 6, 7])
@settings(max_examples=3, deadline=None)
@given(st.data())
def test_blocked_glynn_on_the_rational_lowering(n, data):
    # The rational lowering at the block edges that its orders reach:
    # n = 2 (m = 3), 6 and 7 (m = 7).
    mat = data.draw(_invariant_mats(max_n=n, min_n=n))
    assert _carrier(mat) == mat.ring.one
    assert per_ryser(mat) == per_naive(mat)


@settings(max_examples=30, deadline=None)
@given(_invariant_mats(max_n=7), st.data())
def test_a_perturbed_entry_fails_the_invariance_check(mat, data):
    # A passing check permutes the entries under each sigma_a, so it forces
    # the sum of all entries to be rational.  Adding zeta to one entry moves
    # that sum off Q, so the check must refuse, and Kronecker answers.
    j = data.draw(st.integers(0, mat.n - 1))
    k = data.draw(st.integers(0, mat.n - 1))
    rows = [list(row) for row in mat.rows]
    rows[j][k] = rows[j][k] + mat.ring.zeta(1)
    bent = Mat(mat.ring, rows)
    assert _carrier(bent) is None
    assert per_ryser(bent) == per_naive(bent)


def _bareiss_with(lower, mat):
    # det_field's body on a chosen lowering.
    low = lower(mat.rows)
    return low.lift(_bareiss(low.ints))


# Orders for the determinant lowering: prime, prime power, composite and
# even.
_DET_ORDERS = (5, 7, 9, 10, 12, 14, 15)


# The quotient tables stop at 9 rows: on more, Bareiss on their Kronecker
# images, the reference, takes seconds.
@settings(max_examples=30, deadline=None)
@given(_invariant_mats(max_n=15, orders=_DET_ORDERS, kinds=("j-k", "j+k"),
                       quotient_max_n=9))
@example(build_cyclotomic("sec2_diff", n=5))
@example(build_cyclotomic("tan2_diff", n=7))
@example(build_cyclotomic("cot_ratio", n=7, size=6))
def test_rational_determinant_on_invariant_tables(mat):
    # sigma_a permutes the rows and the columns of these tables alike, so
    # det_field runs Bareiss on one residue per entry; it must equal
    # Bareiss on the Kronecker images, and the signed Leibniz sum where
    # that is cheap.
    assert _carrier(mat, det=True) == mat.ring.one
    got = det_field(mat)
    assert got.as_rational() is not None
    assert got == _bareiss_with(mat.ring.lower, mat)
    if mat.n <= 6:
        assert got == _leibniz(mat)


@pytest.mark.parametrize("n", [5, 9, 15])
def test_rational_determinant_of_a_singular_table(n):
    # recip_root_diff at full size has determinant 0 for odd n (rem.cp):
    # the residue of Bareiss's int is 0 mod N though the int need not be.
    mat = build_cyclotomic("recip_root_diff", n=n, size=n)
    assert _carrier(mat, det=True) == mat.ring.one
    assert det_field(mat) == 0
    assert det_divfree(mat) == _bareiss_with(mat.ring.lower, mat) == 0
    if n <= 6:
        assert _leibniz(mat) == 0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_a_row_only_symmetry_keeps_det_on_kronecker(n, monkeypatch):
    # [1 - zeta^j x_k] maps onto itself with its rows permuted and its
    # columns fixed (tau the identity): per is rational, det need not be, so
    # the determinant's check refuses it and Bareiss stays on Kronecker.
    rng = random.Random(f"rootlinear-det:{n}")
    xs = [Rat(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
    mat = build_cyclotomic("root_linear", n=n, x=xs)
    assert _carrier(mat) == mat.ring.one
    assert _carrier(mat, det=True) is None

    def refused(self, rows, carrier=None):
        raise AssertionError("took the rational lowering")
    monkeypatch.setattr(CyclotomicField, "lower_rational", refused)
    want = _leibniz(mat)
    assert det_field(mat) == want
    assert det_divfree(mat) == want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_INVARIANT_ORDERS), st.integers(1, 6), st.data())
def test_the_rational_lift_refuses_a_nonrational_permanent(m, n, data):
    # A monomial matrix of signed powers of zeta has L = 1 and permanent
    # +-zeta^s, which is not rational unless 2s = 0 mod m.  A residue v with
    # |v| <= 1 would put the nonzero zeta^s -+ v in the ideal
    # (N, zeta - 2^e) of norm N = Phi_m(2^e) >= 3^phi(m), but its norm is at
    # most 2^phi(m): so the lift must raise.
    ring = CyclotomicField(m)
    perm = data.draw(st.permutations(range(n)))
    exps = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)
                     .filter(lambda es: 2 * sum(es) % m))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n,
                               max_size=n))
    mat = Mat(ring, [[signs[j] * ring.zeta(exps[j]) if k == perm[j]
                      else ring.zero for k in range(n)] for j in range(n)])
    with pytest.raises(ArithmeticError):
        _glynn_with(partial(ring.lower_rational, carrier=ring.one), mat)
    assert _carrier(mat) is None
    assert per_ryser(mat) == per_naive(mat)


@st.composite
def _labelled_mats(draw):
    """(sign, det, mat): n <= 5 rows over Q(zeta_m) in one of the three
    label shapes of the Galois check, built from a table of Galois
    conjugates T(r) = F(zeta^r), F with rational coefficients, now and then
    over a rational function of x that vanishes at no root of unity: [T(jk)]
    with F(1/x) = sign F(x) for m = 2n + 1, whose rows the check signs (odd
    composite m = 9 included, where every character is trivial), else
    [T(j + k)] or [T(j - k)]; or [1 - zeta^j x_k] with rational x_k, whose
    rows alone the Galois images permute.  One in three is perturbed: a row
    negated, or an entry moved by zeta or by the sum of all m-th roots of
    unity, which is 0 in the field but not on the lattice."""
    shape = draw(st.sampled_from(("m - 1", "m", "2n + 1")))
    n = draw(st.integers({"m - 1": 2, "m": 3, "2n + 1": 1}[shape], 5))
    m = {"m - 1": n + 1, "m": n, "2n + 1": 2 * n + 1}[shape]
    ring = CyclotomicField(m)
    sign = draw(st.sampled_from((1, -1)))
    terms = draw(st.lists(st.tuples(st.integers(0, m - 1), _RAT),
                          min_size=1, max_size=3))
    # x + 1/x = 2 cos(2 pi r/m) is rational only at -2, -1, 0, 1 and 2.
    q = draw(st.none() | _RAT.filter(lambda q: q not in (-2, -1, 0, 1, 2)))
    folded = shape == "2n + 1"

    def f(r):
        x = ring.zeta(r)
        z = sum((c * (ring.zeta(e * r) + sign * ring.zeta(-e * r)
                      if folded else c * ring.zeta(e * r))
                 for e, c in terms), ring.zero)
        # x + 1/x + q keeps F(1/x) = sign F(x).
        return z if q is None else z * (x + x ** -1 + q).inverse()
    table = conjugates(ring, range(m), f)
    step = draw(st.sampled_from((1, -1)))
    rows = [[table[(j * k if folded else j + step * k) % m]
             for k in range(1, n + 1)] for j in range(1, n + 1)]
    if shape in ("m - 1", "m") and draw(st.booleans()):
        xs = draw(st.lists(_RAT, min_size=n, max_size=n))
        rows = [[1 - ring.zeta(j) * x for x in xs] for j in range(1, n + 1)]
    kind = draw(st.sampled_from(("none", "none", "row", "zeta", "zero")))
    j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "row":
        rows[j] = [-z for z in rows[j]]
    elif kind != "none":
        rows[j][k] = rows[j][k] + (ring.zeta(1) if kind == "zeta"
                                   else Cyc(m, [1] * m))
    return sign, draw(st.booleans()), Mat(ring, rows)


def _root_linear_3(xs):
    ring = CyclotomicField(3)
    return Mat(ring, [[1 - ring.zeta(j) * x for x in xs] for j in (1, 2)])


@settings(max_examples=80, deadline=None)
@given(_labelled_mats())
# Rows permuted by sigma_2 and columns fixed, so det is not rational.
@example((1, True, _root_linear_3([Rat(1, 2), 3])))
@example((1, False, _root_linear_3([Rat(1, 2), 3])))
def test_the_carrier_makes_the_value_rational(drawn):
    # Soundness of the Galois check: whenever it returns W, W times the
    # permanent (the n! oracle) or, asked for a determinant, W times the
    # Leibniz determinant is fixed by every sigma_a, so it is rational;
    # and the engines, whatever lowering they take, equal the oracles.
    sign, det, mat = drawn
    m = mat.ring.m
    carrier = _carrier(mat, sign, det)
    value = _leibniz(mat) if det else per_naive(mat)
    if carrier is not None:
        twisted = value * carrier
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                assert twisted.galois(a) == twisted, (a, carrier)
    assert per_ryser(mat) == per_naive(mat)
    assert det_field(mat) == _leibniz(mat)


def test_a_period_n_table_over_the_2n_field_keeps_kronecker(monkeypatch):
    # sec^2 pi(j - k)/n over Q(zeta_2n), entry (j, k) = T[(j - k) mod 2n]
    # with T(r) = 4/(2 + zeta^2r + zeta^-2r) of period n: n = m/2 rows are
    # no label shape of the Galois check, so both engines take Kronecker.
    # (At n = 3 every entry is rational, and W = 1 at once.)
    n, m = 5, 10
    ring = CyclotomicField(m)
    z = ring.zeta
    table = conjugates(ring, range(m),
                       lambda r: 4 * (2 + z(2 * r) + z(-2 * r)).inverse())
    mat = Mat(ring, [[table[(j - k) % m] for k in range(1, n + 1)]
                     for j in range(1, n + 1)])
    assert _carrier(mat) is None and _carrier(mat, det=True) is None

    def refused(self, rows, carrier=None):
        raise AssertionError("took the rational lowering")
    monkeypatch.setattr(CyclotomicField, "lower_rational", refused)
    assert det_field(mat) == _leibniz(mat)
    assert per_ryser(mat) == per_naive(mat)


def test_the_twisted_lowering_refuses_a_carrier_off_the_square_roots():
    # The lift divides by W^2, so W^2 must be a nonzero rational.
    ring = CyclotomicField(7)
    rows = [[ring.zeta(1)]]
    for carrier in (ring.zeta(1), ring.zero):
        with pytest.raises(DomainError, match="carrier"):
            ring.lower_rational(rows, carrier)


def test_unit_generators_generate_the_unit_group():
    for m in range(1, 40):
        units = {a for a in range(2, m) if math.gcd(a, m) == 1}
        reached = {1}
        while True:
            more = {x * g % m for x in reached for g in unit_generators(m)}
            if more <= reached:
                break
            reached |= more
        assert reached - {1} == units, m
        assert set(unit_generators(m)) <= units, m


_ENTRY = st.integers(-9, 9)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.lists(_ENTRY, min_size=n, max_size=n),
                        st.lists(_ENTRY, min_size=n, max_size=n))))
def test_per_sum_values_equals_ryser(uv):
    u, v = uv
    m = Mat(ZZ, [[uj + vk for vk in v] for uj in u])
    assert per_sum_values(u, [v]) == [per_ryser(m)]


def _horner(coeffs, d):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * d + c
    return acc


def _moment_coeffs(u, w):
    """C_0..C_n of per[u_j + d*w_k] from Ryser's formula grouped by |S| and
    by powers of sigma_S, the sum of w over S: an oracle that does not use
    the closed form.

    C_i = (-1)^n sum_s (-1)^s s^(n-i) e_(n-i)(u) M_i(s), where M_i(s) is
    the sum of sigma_S^i over |S| = s, built by adding the w_k one at a
    time with (sigma + x)^i = sum_t binom(i, t) x^(i-t) sigma^t.
    """
    n = len(u)
    e = [1] + [0] * n
    for x in u:
        for k in range(n, 0, -1):
            e[k] += x * e[k - 1]
    binom = [[math.comb(i, t) for t in range(i + 1)] for i in range(n + 1)]
    # m[s][i] = M_i(s) over the elements of w added so far.
    m = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(n)]
    for count, x in enumerate(w):
        shift = [[c * x ** (i - t) for t, c in enumerate(row)]
                 for i, row in enumerate(binom)]
        for s in range(count, -1, -1):
            for i in range(n + 1):
                m[s + 1][i] += sum(a * b for a, b in zip(shift[i], m[s]))
    coeffs = []
    for i in range(n + 1):
        acc = sum((-1) ** s * s ** (n - i) * m[s][i] for s in range(1, n + 1))
        coeffs.append((-1) ** n * e[n - i] * acc)
    return tuple(coeffs)


# Vectors with zeros, repeats and both signs; the all-zero w is drawn
# explicitly, since a random list almost never is.
_VEC_ENTRY = st.sampled_from([0, 1, -1, 7]) | _ENTRY
_VEC_PAIRS = st.integers(1, 9).flatmap(
    lambda n: st.tuples(
        st.lists(_VEC_ENTRY, min_size=n, max_size=n),
        st.lists(_VEC_ENTRY, min_size=n, max_size=n) | st.just([0] * n)))


@settings(max_examples=200, deadline=None)
@given(_VEC_PAIRS, st.integers(-5, 5))
def test_per_sum_coeffs_equals_moment_table(uw, d):
    # The closed form i!(n-i)! e_i(w) e_(n-i)(u) agrees with the moment
    # table term by term, and its value at d with Glynn on the built matrix.
    u, w = uw
    coeffs = per_sum_coeffs(u, w)
    assert coeffs == _moment_coeffs(u, w)
    if len(u) <= 8:
        dw = [d * x for x in w]
        m = Mat(ZZ, [[uj + vk for vk in dw] for uj in u])
        assert _horner(coeffs, d) == per_ryser(m)


def test_per_sum_coeffs_edge_cases():
    # n = 1 is u + d*w; an all-zero w leaves only C_0 = n! prod u.
    assert per_sum_coeffs([3], [-4]) == _moment_coeffs([3], [-4]) == (3, -4)
    assert per_sum_coeffs([2, 0, -5], [0, 0, 0]) == (0, 0, 0, 0)
    assert per_sum_coeffs([2, 1, -5], [0, 0, 0]) == (-60, 0, 0, 0)
    assert per_sum_coeffs([1, 1, 1], [2, 2, 2]) == _moment_coeffs(
        [1, 1, 1], [2, 2, 2]) == (6, 36, 72, 48)


def test_per_sum_coeffs_examples():
    # per[j + d*k], 1 <= j, k <= 3, is 336 at d = 1.
    coeffs = per_sum_coeffs([1, 2, 3], [1, 2, 3])
    assert len(coeffs) == 4 and sum(coeffs) == 336
    assert per_sum_values([1, 2, 3], [[1, 2, 3]]) == [336]
    assert coeffs[0] == 36  # d = 0: every row is constant, 3! * 1 * 2 * 3
    for u, w in (([], []), ([1, 2], [1]), ([1], [1, 2])):
        with pytest.raises(DomainError):
            per_sum_coeffs(u, w)
    with pytest.raises(DomainError):
        per_sum_values([], [[]])


def test_per_sum_values_equals_summed_coeffs():
    # One pass over u serves every w, u itself included.
    rng = random.Random("values")
    for n in range(1, 9):
        u = [rng.randint(-9, 9) for _ in range(n)]
        ws = [list(u)] + [[rng.randint(-9, 9) for _ in range(n)]
                          for _ in range(3)]
        assert per_sum_values(u, ws) == [sum(per_sum_coeffs(u, w))
                                         for w in ws]
    assert per_sum_values(range(1, 4), [range(1, 4)]) == [336]
    with pytest.raises(DomainError):
        per_sum_values([1, 2], [[1, 2], [1]])


def test_det_examples():
    assert det_divfree(Mat(ZZ, [[1, 2], [3, 4]])) == -2
    assert det_field(Mat(QQ, [[Rat(1), Rat(2)], [Rat(3), Rat(4)]])) == -2
    singular = Mat(QQ, [[Rat(1), Rat(2)], [Rat(2), Rat(4)]])
    assert det_field(singular) == 0
    assert det_divfree(singular) == 0
    with pytest.raises(UnsupportedRingError):
        det_field(Mat(ZZ, [[1, 2], [3, 4]]))
    with pytest.raises(UnsupportedRingError):
        det_field(Mat(Zmod(9), [[Zmod(9).zero + 1]] ))


def _eliminate(mat):
    """Determinant over Q by Gaussian elimination on Rat entries, with exact
    pivot inversion: an oracle that never touches the int lowering."""
    a = [list(r) for r in mat.rows]
    n = mat.n
    det = Rat(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            return Rat(0)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = -det
        pivot = a[col][col]
        det *= pivot
        for r in range(col + 1, n):
            scaled = a[r][col] / pivot
            if scaled:
                a[r] = [x - scaled * y for x, y in zip(a[r], a[col])]
    return det


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.randoms())
def test_det_divfree_vs_field_on_rationals(n, rng):
    m = _rand_mat(QQ, n, rng, span=8)
    want = _eliminate(m)
    assert det_divfree(m) == want
    assert det_field(m) == want


@pytest.mark.parametrize("ring", ENGINE_RINGS, ids=lambda r: r.name)
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_det_divfree_equals_leibniz(ring, data):
    # The lowered Bareiss loop against the signed sum over n! permutations;
    # Z/9 and Z/49 have zero divisors.  The Leibniz oracle's 5! products of
    # ring elements are slow over the heavy rings, which stop at n = 4.
    mat = data.draw(_mats(ring, 4 if ring in HEAVY_RINGS else 5))
    assert det_divfree(mat) == _leibniz(mat)


# Zero pivots, each determinant -1: [[0, 1], [1, 0]] at the first step;
# the 3 x 3 matrix has a zero leading 2 x 2 minor, so its second pivot is 0;
# the 4 x 4 one adds a row and column, so that a step divides by that pivot.
_SWAPS = [[[0, 1], [1, 0]],
          [[1, 2, 0], [1, 2, 1], [0, 1, 5]],
          [[1, 2, 0, 0], [1, 2, 1, 0], [0, 1, 5, 0], [0, 0, 0, 1]]]


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), QPOLY], ids=lambda r: r.name)
def test_det_pivot_swaps(ring):
    # Each zero pivot needs a row swap, which flips the sign.
    for rows in _SWAPS:
        mat = Mat(ring, [[ring.zero + x for x in row] for row in rows])
        assert det_divfree(mat) == ring.zero - 1 == _leibniz(mat), rows


def test_det_pivot_swap_under_a_power_of_q():
    # The first pivot is 0 and the swapped-in row has a negative power of q.
    q, c = LPoly.q(), LPoly.const
    mat = Mat(QPOLY, [[LPoly(), q, c(1)], [LPoly({-1: 1}), c(2), q],
                      [c(3), q, q]])
    assert det_divfree(mat) == _leibniz(mat) != 0


def test_det_over_z8_reduces_a_multiple_of_8():
    # The residues have int determinant -8 and 24: nonzero in Z, 0 in Z/8.
    # The first matrix also needs a swap at its first pivot.
    z8 = Zmod(8)
    for rows, in_z in (([[0, 2, 0], [4, 6, 0], [0, 0, 1]], -8),
                       ([[2, 1, 0], [0, 2, 1], [0, 0, 6]], 24)):
        assert det_divfree(Mat(ZZ, rows)) == in_z == _leibniz(Mat(ZZ, rows))
        mat = Mat(z8, [[z8.zero + x for x in row] for row in rows])
        assert det_divfree(mat) == z8.zero == _leibniz(mat)


def test_cauchy_determinant_formula():
    xs = [Rat(1), Rat(2), Rat(3)]
    ys = [Rat(4), Rat(5), Rat(6)]
    m = Mat(QQ, [[1 / (x + y) for y in ys] for x in xs])
    num = Rat(1)
    for j in range(3):
        for k in range(j + 1, 3):
            num *= (xs[k] - xs[j]) * (ys[k] - ys[j])
    den = Rat(1)
    for x in xs:
        for y in ys:
            den *= x + y
    assert det_field(m) == num / den


_POINT = st.builds(Rat, st.integers(-20, 20), st.integers(1, 9))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.lists(_POINT, min_size=n, max_size=n, unique=True),
                        st.lists(_POINT, min_size=n, max_size=n, unique=True))
).filter(lambda xy: not set(xy[0]) & set(xy[1])))
def test_borchardt_identity(xy):
    # det[1/(x-y)^2] = det[1/(x-y)] per[1/(x-y)] for distinct points.
    xs, ys = xy
    cauchy = Mat(QQ, [[1 / (x - y) for y in ys] for x in xs])
    squared = Mat(QQ, [[1 / (x - y) ** 2 for y in ys] for x in xs])
    assert det_field(squared) == det_field(cauchy) * per_ryser(cauchy)
