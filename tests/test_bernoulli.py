"""Exact-value tests for Bernoulli numbers and the coefficient families.

The oracles for individual Bernoulli numbers are an independently written
recurrence (no memo, different code path) and ``mpmath.bernfrac``; the
double-sum coefficients are checked against their factorial-form
definitions, hand-derived small cases and the seven classical triples.
"""

import importlib
import math
import random
import sys
import threading
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plouffe.bernoulli import (
    Target,
    bernoulli,
    d_coeff,
    e_coeff,
    f_sum,
    g_sum,
    h_sum,
    k_coeff,
    memo_preload,
    memo_snapshot,
    triple_for,
    zeta_even_exact,
)

# the seven classical triples, exact
CLASSICAL_TRIPLES = {
    (Target.PI_POWER, 1): (Fraction(72), Fraction(-96), Fraction(24)),
    (Target.PI_POWER, 3): (Fraction(720), Fraction(-900), Fraction(180)),
    (Target.PI_POWER, 5): (Fraction(7056), Fraction(-6993), Fraction(-63)),
    (Target.PI_POWER, 7): (Fraction(907200, 13), Fraction(-70875), Fraction(14175, 13)),
    (Target.ZETA_VALUE, 3): (Fraction(28), Fraction(-37), Fraction(7)),
    (Target.ZETA_VALUE, 5): (Fraction(24), Fraction(-259, 10), Fraction(-1, 10)),
    (Target.ZETA_VALUE, 7): (Fraction(304, 13), Fraction(-103, 4), Fraction(19, 52)),
}


def bernoulli_oracle(k):
    """Independent brute-force recurrence, written separately from the module."""
    values = [Fraction(1)]
    for n in range(1, k + 1):
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * values[j]
        values.append(Fraction(-acc, n + 1))
    return values[k]


bernoulli_module = importlib.import_module("plouffe.bernoulli")


def fresh_memo(monkeypatch):
    """Give the module the memo it starts with; the old one returns after the test."""
    monkeypatch.setattr(bernoulli_module, "_memo", [Fraction(1), Fraction(-1, 2)])


def bernfrac(k):
    return Fraction(*(int(x) for x in mp.bernfrac(k)))


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)


def test_bernoulli_12_against_oracle():
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(12) == bernoulli_oracle(12)


def test_bernoulli_recurrence_to_200():
    for n in range(1, 201):
        assert sum(math.comb(n + 1, j) * bernoulli(j) for j in range(n + 1)) == 0


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 1000))
def test_bernoulli_matches_mpmath_bernfrac(k):
    assert bernoulli(k) == bernfrac(k)


@pytest.mark.parametrize("k", range(4))
def test_bernoulli_first_values_from_fresh_memo(monkeypatch, k):
    fresh_memo(monkeypatch)
    first = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0)]
    assert bernoulli(k) == first[k]
    assert memo_snapshot()[:k + 1] == first[:k + 1]


def test_bernoulli_extends_a_preloaded_prefix(monkeypatch):
    fresh_memo(monkeypatch)
    prefix = [bernoulli_oracle(k) for k in range(21)]
    assert memo_preload(prefix)
    assert bernoulli(301) == 0
    snapshot = memo_snapshot()
    assert snapshot[:21] == prefix
    assert snapshot[300] == bernfrac(300)


def test_rising_requests_build_the_prefix_log_times(monkeypatch):
    fresh_memo(monkeypatch)
    builds = []
    build = bernoulli_module._bernoulli_prefix
    monkeypatch.setattr(bernoulli_module, "_bernoulli_prefix",
                        lambda n: builds.append(n) or build(n))
    top = 600
    for k in range(top + 1):
        bernoulli(k)
    assert len(builds) <= math.ceil(math.log2(top))
    assert all(later >= 2 * earlier for earlier, later in zip(builds, builds[1:]))
    assert bernoulli(top) == bernfrac(top)


def test_a_miss_past_a_preloaded_prefix_builds_only_what_it_needs(monkeypatch):
    # a fresh process that loaded B_0..B_500 from a cache, then needs B_502
    fresh_memo(monkeypatch)
    monkeypatch.setattr(bernoulli_module, "_built", 0)
    assert memo_preload(bernoulli_module._bernoulli_prefix(500))
    builds = []
    build = bernoulli_module._bernoulli_prefix
    monkeypatch.setattr(bernoulli_module, "_bernoulli_prefix",
                        lambda n: builds.append(n) or build(n))
    assert bernoulli(502) == bernfrac(502)
    assert builds == [502]  # not 2 * 501: loaded entries do not count toward the doubling
    bernoulli(503)
    assert builds == [502, 1006]  # the prefix it built itself does


def test_threads_share_the_memo_safely(monkeypatch):
    fresh_memo(monkeypatch)
    expected = [bernfrac(k) for k in range(401)]
    wrong = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(300):
            k = rng.randrange(len(expected))
            if bernoulli(k) != expected[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert memo_snapshot()[:len(expected)] == expected


def test_bernoulli_odd_vanish_and_sign_pattern():
    for k in range(1, 101):
        assert bernoulli(2 * k + 1) == 0
        b = bernoulli(2 * k)
        assert (b > 0) == (k % 2 == 1)


def test_bernoulli_negative_index():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_f_sum_small_cases():
    assert f_sum(0) == 0
    assert f_sum(1) == Fraction(-7, 720)
    assert f_sum(2) == 0
    # direct three-term expansion with B_0 = 1, B_2 = 1/6, B_4 = -1/30
    direct = (Fraction(1) * Fraction(-1, 30) / 24
              - Fraction(1, 6) * Fraction(1, 6) / 4
              + Fraction(-1, 30) * Fraction(1) / 24)
    assert f_sum(1) == direct


def test_f_even_vanishes_exactly():
    for n in range(0, 41, 2):
        assert f_sum(n) == 0


def test_g_sum_small_cases():
    assert g_sum(0) == Fraction(-1, 4)
    assert g_sum(1) == Fraction(-37, 720)
    assert g_sum(2) == Fraction(-1, 288)
    # the zeta(3) middle coefficient is G_1 * 4 / D_1
    assert g_sum(1) * 4 / d_coeff(1) == -37


def test_h_sum_small_cases():
    assert h_sum(0) == Fraction(1, 12)
    assert h_sum(1) == Fraction(-1, 504)


def test_h_sum_2_against_brute_force():
    expected = Fraction(0)
    for k in range(3):
        weight = Fraction(-4) ** (2 + k)
        expected += (weight * bernoulli_oracle(4 * k) * bernoulli_oracle(10 - 4 * k)
                     / (math.factorial(4 * k) * math.factorial(10 - 4 * k)))
    assert h_sum(2) == expected


def test_sums_match_their_factorial_form():
    b = [bernoulli_oracle(k) for k in range(24)]

    def pair_sum(weight, top, indices):
        return sum(weight(i) * b[i] * b[top - i] / (math.factorial(i) * math.factorial(top - i))
                   for i in indices)

    for n in range(11):
        top = 2 * n + 2
        assert f_sum(n) == pair_sum(lambda i: (-1) ** (i // 2), top, range(0, top + 1, 2))
        assert g_sum(n) == pair_sum(lambda i: Fraction(-4) ** (i // 2), top, range(0, top + 1, 2))
    for m in range(6):
        top = 4 * m + 2
        assert h_sum(m) == pair_sum(lambda i: Fraction(-4) ** (m + i // 4), top, range(0, top, 4))


def test_d_coeff_values():
    assert d_coeff(1) == Fraction(1, 180)
    assert d_coeff(2) == Fraction(13, 14175)
    assert 4 / d_coeff(1) == 720          # the pi^3 leading coefficient
    assert 1 / d_coeff(2) == Fraction(14175, 13)  # the pi^7 third coefficient


def test_d_coeff_nonzero_first_ten():
    for m in range(1, 11):
        assert d_coeff(m) != 0


def test_k_coeff_values():
    assert k_coeff(1) == Fraction(3, 14)
    assert k_coeff(2) == Fraction(17, 66)
    with pytest.raises(ValueError):
        k_coeff(0)


def test_e_coeff_values():
    assert e_coeff(1) == Fraction(-1, 441)
    assert -16 / e_coeff(1) == 7056          # the pi^5 leading coefficient
    assert (1 - 4 * k_coeff(1)) / e_coeff(1) == -63
    for m in range(1, 11):
        assert e_coeff(m) != 0


def test_triple_for_reproduces_the_seven_formulas():
    started = time.monotonic()
    for (target, exponent), coefficients in CLASSICAL_TRIPLES.items():
        assert triple_for(target, exponent).coefficients() == coefficients
    assert time.monotonic() - started < 1.0


def test_triple_consistency_chain_at_m_1():
    # reconstruct the exponent-5 coefficients from K_1, E_1, G_2 directly
    k1, e1, g2 = k_coeff(1), e_coeff(1), g_sum(2)
    assert -16 / e1 == 7056
    assert 2 * k1 * (32 + 4 + 1) / e1 == -6993
    assert (1 - 4 * k1) / e1 == -63
    den = 15 * e1
    assert -16 * (2 * e1 - 16 * g2) / den == 24
    assert -2 * 16 * g2 * k1 * (32 + 4 + 1) / den == Fraction(-259, 10)
    assert -(16 * g2 * (1 - 4 * k1) - 2 * e1) / den == Fraction(-1, 10)


def test_triple_for_errors():
    with pytest.raises(ValueError):
        triple_for(Target.ZETA_VALUE, 1)
    with pytest.raises(ValueError):
        triple_for(Target.PI_POWER, 4)
    with pytest.raises(ValueError):
        triple_for(Target.PI_POWER, -3)


def test_triples_are_fully_reduced():
    for exponent in range(1, 14, 2):
        for target in Target:
            if target is Target.ZETA_VALUE and exponent == 1:
                continue
            triple = triple_for(target, exponent)
            for q in triple.coefficients():
                assert math.gcd(abs(q.numerator), q.denominator) == 1


def test_zeta_even_exact_values():
    assert zeta_even_exact(1) == Fraction(1, 6)
    assert zeta_even_exact(2) == Fraction(1, 90)
    assert zeta_even_exact(3) == Fraction(1, 945)


# frozen B_2..B_20 for the independent Euler-Maclaurin tail below
EM_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
                Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
                Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330)]


def test_zeta_2_against_euler_maclaurin_summation():
    # sum_{k<N} k^-2 exactly, then psi'(N) = 1/N + 1/(2N^2) + sum B_2j / N^(2j+1)
    big_n = 60
    partial = sum(Fraction(1, k * k) for k in range(1, big_n))
    tail = Fraction(1, big_n) + Fraction(1, 2 * big_n ** 2)
    for j, b in enumerate(EM_BERNOULLI, start=1):
        tail += b / big_n ** (2 * j + 1)
    oracle = partial + tail  # error below |B_22|/N^23 ~ 1e-36
    with mp.workdps(60):
        direct = mp.mpf(oracle.numerator) / oracle.denominator
        euler = mp.mpf(zeta_even_exact(1).numerator) / zeta_even_exact(1).denominator * (+mp.pi) ** 2
        assert abs(direct - euler) < mp.mpf(10) ** -30


def test_memo_snapshot_and_preload():
    bernoulli(40)
    snapshot = memo_snapshot()
    assert snapshot[12] == Fraction(-691, 2730)
    assert memo_preload(snapshot)
    assert not memo_preload([Fraction(0), Fraction(-1, 2)])   # wrong B_0
    assert not memo_preload([Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(1)])
    # von Staudt-Clausen: denom(B_4) = 2 * 3 * 5, so a wrong denominator rejects the prefix
    assert not memo_preload(snapshot[:4] + [Fraction(-1, 31)])
