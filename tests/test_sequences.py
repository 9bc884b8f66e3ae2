"""Sequence evaluation against known values and brute-force oracles."""

import math
from itertools import permutations

import pytest

from permarith import sequences
from permarith.cyclotomic import Cyc, CyclotomicField
from permarith.errors import DomainError, SizeLimitError
from permarith.ntheory import mod_reduce_rat
from permarith.rings import ModInt, Rat
from permarith.sequences import (d_adjacency, derangement_sum, masked_sum,
                                 seq_c, seq_c_prime, seq_d, seq_s,
                                 seq_s_prime, seq_t, seq_t_prime, seq_T,
                                 sequence_value)

# Reference values; c'(9) is 75/2 by direct computation (three independent
# methods agree: exact Ryser, exact naive permanent, floating evaluation),
# see also the denominator bound 2^(d_9) = 2 which it attains.
T_TABLE = {3: -1, 5: 13, 7: -285, 9: 16569}
C_TABLE = {3: -1, 5: 3, 7: -1, 9: -3, 11: -21, 13: 151, 15: 135}
CP_TABLE = {3: -1, 5: 3, 7: -8, 9: Rat(75, 2), 11: -813, 13: 4727}
S_TABLE = {3: 1, 5: -1, 7: 1, 9: 9, 11: 1, 13: 51, 15: 45}
SP_TABLE = {3: 1, 5: 1, 7: -6, 11: 111, 13: 261}
T_JK_TABLE = {3: 1, 5: 4, 7: -34, 9: 90, 11: 4808, 13: 99072, 15: -24480}
TP_TABLE = {3: 1, 5: -4, 7: 22, 11: 1816, 13: -5056}


def test_seq_T_values():
    for n, ratio in T_TABLE.items():
        v = seq_T(n)
        assert v.is_integer and v.value == ratio * n, n


def test_seq_c_values():
    for n, want in C_TABLE.items():
        assert seq_c(n).value == want, n


def test_seq_c_prime_values_and_bound():
    for n, want in CP_TABLE.items():
        v = seq_c_prime(n)
        assert v.value == want, n
        assert v.denominator_bound % v.value.denominator == 0
    assert seq_c_prime(9).denominator_bound == 2


def test_seq_s_values():
    for n, want in S_TABLE.items():
        assert seq_s(n).value == want, n
    for p, want in SP_TABLE.items():
        assert seq_s_prime(p).value == want, p


def test_seq_t_values():
    for n, want in T_JK_TABLE.items():
        assert seq_t(n).value == want, n
    for p, want in TP_TABLE.items():
        assert seq_t_prime(p).value == want, p


def _d_bruteforce(n):
    h = (n - 1) // 2
    best = 0
    for perm in permutations(range(1, h + 1)):
        hits = sum(1 for j in range(1, h + 1) if (j * perm[j - 1]) % n == 0)
        best = max(best, hits)
    return best


def test_seq_d():
    for p in (3, 5, 7, 11, 13):
        assert int(seq_d(p).value) == 0, p
    assert int(seq_d(21).value) == 2
    for n in (9, 15):  # brute force over all ((n-1)/2)! permutations
        assert int(seq_d(n).value) == _d_bruteforce(n), n


def test_d_adjacency_equals_the_pairwise_test():
    # The reference is the O(n^2) test of every pair that seq_d once ran.
    for n in range(3, 400, 2):
        h = (n - 1) // 2
        want = {j: [k for k in range(1, h + 1) if (j * k) % n == 0]
                for j in range(1, h + 1)}
        got = {j: list(ks) for j, ks in d_adjacency(n).items()}
        assert got == want, n


def test_domain_errors():
    for fn in (seq_T, seq_c, seq_s, seq_t):
        with pytest.raises(DomainError):
            fn(8)
        with pytest.raises(DomainError):
            fn(1)
    for fn in (seq_s_prime, seq_t_prime):
        with pytest.raises(DomainError):
            fn(9)
    with pytest.raises(DomainError):
        sequence_value("nope", 3)
    assert sequence_value("t", 5).value == 4


def test_size_guard_refuses_before_building(monkeypatch):
    # Past its row's largest index in SEQ_TABLE a sequence is refused before
    # any matrix is built.
    def unbuildable(family, **params):
        raise AssertionError(f"built {family} at n = {params['n']}")

    monkeypatch.setattr(sequences, "build_cyclotomic", unbuildable)
    for name, n, top in (("t", 201, 37), ("T", 1009, 19), ("T", 21, 19),
                         ("sprime", 43, 37), ("c", 43, 37), ("c", 39, 37),
                         ("tprime", 41, 37)):
        with pytest.raises(SizeLimitError) as err:
            sequence_value(name, n)
        assert str(err.value) == f"{name} limited to n <= {top}, got n = {n}"
    for name, n in (("T", 19), ("t", 37), ("c", 37)):  # the largest built
        with pytest.raises(AssertionError, match="built"):
            sequence_value(name, n)


def test_d_is_refused_past_its_limit_before_matching(monkeypatch):
    # seq_d(D_LIMIT) runs; one odd index past it is refused before the
    # adjacency lists are built.
    assert sequences.D_LIMIT == 85001
    assert seq_d(sequences.D_LIMIT).value >= 0

    def unbuildable(n):
        raise AssertionError(f"matched at n = {n}")

    monkeypatch.setattr(sequences, "d_adjacency", unbuildable)
    for n in (85003, 3000001):
        with pytest.raises(SizeLimitError) as err:
            sequence_value("d", n)
        assert str(err.value) == f"d limited to n <= 85001, got n = {n}"


def test_every_table_row_prints_at_its_largest_index():
    # str() refuses an int past 4,300 digits; each SEQ_TABLE row's value at
    # its largest index stays well inside, and is an integer where the
    # theorem says so (c' has a power-of-2 denominator).
    for name, row in sequences.SEQ_TABLE.items():
        top = row[-1]
        v = sequence_value(name, top)
        text = str(v.value)
        assert sum(c.isdigit() for c in text) < 4300, (name, top)
        assert v.is_integer or name == "cprime", (name, top)


def test_float_diagnostic_non_verdict():
    # the exact sequence values agree with naive floating evaluation
    for n in (3, 5, 7, 9, 11, 13, 15):
        h = (n - 1) // 2
        M = [[math.tan(math.pi * j * k / n) for k in range(1, h + 1)]
             for j in range(1, h + 1)]
        fl = sum(math.prod(M[j][p[j]] for j in range(h))
                 for p in permutations(range(h)))
        assert abs(fl / math.sqrt(n) - int(seq_t(n).value)) < 1e-6, n


def _derangements(n):
    for perm in permutations(range(1, n + 1)):
        if all(perm[j - 1] != j for j in range(1, n + 1)):
            yield perm


def _perm_sign(perm):
    n = len(perm)
    inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                     if perm[i] > perm[j])
    return (-1) ** inversions


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_derangement_sums_against_bruteforce(n):
    ring = CyclotomicField(n)

    def recip(j, k):
        return (1 - Cyc.zeta(n, j - k)).inverse()

    def cot_ratio(j, k):
        return (1 + Cyc.zeta(n, j - k)) * recip(j, k)

    size_even = n
    brute_unsigned = Cyc.rational(n, 0)
    brute_signed_full = Cyc.rational(n, 0)
    for perm in _derangements(size_even):
        prod = Cyc.rational(n, 1)
        for j in range(1, size_even + 1):
            prod = prod * recip(j, perm[j - 1])
        brute_signed_full = brute_signed_full + _perm_sign(perm) * prod
        if n % 2 == 0:
            brute_unsigned = brute_unsigned + prod
    assert derangement_sum(n, "signed_recip_full") == \
        brute_signed_full.as_rational()
    if n % 2 == 0:
        assert derangement_sum(n, "unsigned_recip") == \
            brute_unsigned.as_rational()
    else:
        size = n - 1
        acc_u = Cyc.rational(n, 0)
        acc_s = Cyc.rational(n, 0)
        acc_c = Cyc.rational(n, 0)
        for perm in _derangements(size):
            prod_u = Cyc.rational(n, 1)
            prod_c = Cyc.rational(n, 1)
            for j in range(1, size + 1):
                prod_u = prod_u * recip(j, perm[j - 1])
                prod_c = prod_c * cot_ratio(j, perm[j - 1])
            sign = _perm_sign(perm)
            acc_u = acc_u + prod_u
            acc_s = acc_s + sign * prod_u
            acc_c = acc_c + sign * prod_c
        assert derangement_sum(n, "unsigned_recip") == acc_u.as_rational()
        assert derangement_sum(n, "signed_recip") == acc_s.as_rational()
        assert derangement_sum(n, "signed_cot_ratio") == acc_c.as_rational()


def test_derangement_spot_values():
    assert derangement_sum(3, "unsigned_recip") == Rat(1, 3)
    assert derangement_sum(4, "signed_recip_full") == Rat(9, 16)
    assert derangement_sum(5, "signed_recip_full") == 0
    with pytest.raises(DomainError):
        derangement_sum(4, "signed_recip")
    with pytest.raises(DomainError):
        derangement_sum(5, "bogus")


def _masked_bruteforce(p, a, signed, family):
    size = p - 1 if family == "recip_ajk" else p
    total = Rat(0)
    for perm in permutations(range(1, size + 1)):
        terms = []
        ok = True
        for j in range(1, size + 1):
            den = (a + j * perm[j - 1]) if family == "recip_ajk" \
                else (a * j + perm[j - 1])
            if den % p == 0:
                ok = False
                break
            terms.append(den)
        if not ok:
            continue
        prod = Rat(1)
        for den in terms:
            prod /= den
        total += _perm_sign(perm) * prod if signed else prod
    return mod_reduce_rat(total, p * p)


def test_masked_sum_against_bruteforce_p5():
    for a in (1, 2, 3):
        for signed in (False, True):
            assert masked_sum(5, a, signed, "recip_ajk") == \
                _masked_bruteforce(5, a, signed, "recip_ajk"), (a, signed)
        assert masked_sum(5, a, False, "recip_aj_k") == \
            _masked_bruteforce(5, a, False, "recip_aj_k"), a


def test_masked_sum_spot():
    # signed masked sum at p=5, a=1 lands on (a/p)(3-a^(p-1))/2 = 1 mod 25
    assert masked_sum(5, 1, signed=True) == ModInt(1, 25)
    # p | a: Jacobi symbol zero, claimed sum 0 mod p^2
    assert masked_sum(5, 5, signed=True) == ModInt(0, 25)


def test_congruences_small():
    # T(p) = (-1)^((p+1)/2) 2p (mod p^2)
    for p in (3, 5, 7, 11):
        got = mod_reduce_rat(seq_T(p).value, p * p)
        assert got == ModInt((-1) ** ((p + 1) // 2) * 2 * p, p * p), p
    for p in (3, 5, 7, 11, 13):
        assert mod_reduce_rat(seq_t(p).value, p) == \
            ModInt((-1) ** ((p + 1) // 2), p)
        assert mod_reduce_rat(seq_t_prime(p).value, p) == ModInt(1, p)
        assert mod_reduce_rat(seq_s(p).value, p) == \
            ModInt((-1) ** ((p + 1) // 2), p)
        assert mod_reduce_rat(seq_s_prime(p).value, p) == ModInt(1, p)
