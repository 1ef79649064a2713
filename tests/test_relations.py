"""PSLQ detection tests: the classical relations, canonical form, scale
invariance, verified residuals, no-relation exclusion, and triple
rediscovery against the exact closed forms."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plouffe.bernoulli import Target, triple_for
from plouffe.precision import pi_const
from plouffe.relations import RelationNotFoundError, min_digits_for, pslq, rediscover_triple
from plouffe.series import SeriesSpec, s_series


def s1_values(digits):
    return [s_series(SeriesSpec(1, r, digits)).mpf for r in (1, 2, 4)]


def test_pslq_finds_the_pi_relation():
    values = [pi_const(120).mpf] + s1_values(120)
    result = pslq(values, 100, max_coeff_bound=10 ** 6)
    assert result.found
    assert result.vector == (1, -72, 96, -24)  # canonical form of +-(-1, 72, -96, 24)


def test_pslq_finds_the_zeta3_relation():
    from plouffe.series import zeta_reference
    values = [zeta_reference(3, 120).mpf] + [s_series(SeriesSpec(3, r, 120)).mpf for r in (1, 2, 4)]
    result = pslq(values, 100)
    assert result.found
    assert result.vector == (1, -28, 37, -7)


def test_pslq_equal_values():
    x = mp.mpf(3) / 7
    result = pslq([x, x], 50)
    assert result.found and result.vector == (1, -1)


def test_pslq_residual_verified_at_higher_precision():
    digits = 100
    values = [pi_const(digits + 20).mpf] + s1_values(digits + 20)
    result = pslq(values, digits)
    with mp.workdps(digits + 50):
        residual = abs(mp.fsum(v * x for v, x in zip(result.vector, values)))
        scale = max(abs(x) for x in values)
        assert residual < mp.mpf(10) ** -(digits - 15) * scale
    assert result.residual.mpf < mp.mpf(10) ** -(digits - 15)


def test_pslq_no_small_relation():
    # x = sqrt(2) + pi*1e-10 admits no relation a + b x with |a|, |b| <= 100:
    # brute-force exclusion over all denominators in the bound
    with mp.workdps(80):
        x = mp.sqrt(2) + mp.pi * mp.mpf(10) ** -10
        for b in range(1, 101):
            distance = abs(b * x - mp.nint(b * x))
            assert distance > mp.mpf(10) ** -8
    result = pslq([mp.mpf(1), x], 50, max_coeff_bound=100)
    assert not result.found
    assert result.norm_bound > 100
    assert result.vector == ()


def test_pslq_scale_invariance():
    values = [pi_const(120).mpf] + s1_values(120)
    with mp.workdps(130):
        scaled = [v * mp.mpf("3.7") for v in values]
    assert pslq(values, 100).vector == pslq(scaled, 100).vector


@pytest.mark.parametrize("x", ["1.7", "1.5", "1.123456789"])
@pytest.mark.parametrize("relation", [(1, 3), (1, -3)])
def test_pslq_relation_exposed_by_the_initial_reduction(x, relation):
    # the first reduction already makes one y entry vanish; an iteration
    # taken before the test would divide by the zero it leaves on H's diagonal
    with mp.workdps(100):
        x = mp.mpf(x)
        values = [x, -x * relation[0] / relation[1]]
    result = pslq(values, 51, max_coeff_bound=10)
    assert result.found and result.vector == relation


def test_pslq_accepts_a_bound_past_the_float_range():
    with mp.workdps(100):
        result = pslq([+mp.pi, +mp.e], 50, max_coeff_bound=10 ** 400)
    assert not result.found and result.vector == ()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pslq_recovers_planted_relations(data):
    n = data.draw(st.integers(2, 5), label="n")
    bound = 10 ** data.draw(st.integers(1, 6), label="log10 bound")
    planted = data.draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
                        .filter(lambda v: v[-1] != 0), label="planted")
    digits = min_digits_for(n, bound) + data.draw(st.integers(5, 40), label="extra digits")
    rng = random.Random(data.draw(st.integers(0, 2 ** 64), label="seed"))
    bits = 4 * digits + 100
    with mp.workdps(digits + 40):
        xs = [mp.mpf(rng.getrandbits(bits)) / 2 ** bits for _ in range(n - 1)]
        xs.append(-mp.fsum(v * x for v, x in zip(planted, xs)) / planted[-1])
    g = math.gcd(*planted)
    sign = 1 if next(v for v in planted if v) > 0 else -1
    result = pslq(xs, digits, max_coeff_bound=bound)
    assert result.found and result.vector == tuple(sign * v // g for v in planted)


def test_pslq_zero_entry_gives_unit_relation():
    result = pslq([mp.mpf(0), mp.mpf(1)], 50)
    assert result.found and result.vector == (1, 0)
    assert result.residual.mpf == 0


def test_pslq_input_validation():
    with pytest.raises(ValueError):
        pslq([mp.mpf(1)], 50)
    with pytest.raises(ValueError):
        pslq([mp.mpf(0), mp.mpf(0)], 50)


def test_min_digits_rule_of_thumb():
    assert min_digits_for(4, 10 ** 9) == 4 * 9 + 15


def test_rediscover_pi_5():
    result, triple = rediscover_triple(Target.PI_POWER, 5, 120)
    assert result.found
    assert triple.coefficients() == (Fraction(7056), Fraction(-6993), Fraction(-63))


def test_rediscover_zeta_7_with_rational_coefficients():
    result, triple = rediscover_triple(Target.ZETA_VALUE, 7, 150)
    assert triple.coefficients() == (Fraction(304, 13), Fraction(-103, 4), Fraction(19, 52))
    # the raw integer relation clears the denominators
    v = result.vector
    assert v[0] != 0
    lcm = math.lcm(*(Fraction(-x, v[0]).denominator for x in v[1:]))
    assert abs(v[0]) == lcm


def test_rediscover_rejects_even_exponent():
    with pytest.raises(ValueError):
        rediscover_triple(Target.PI_POWER, 2, 100)


def test_rediscover_insufficient_precision_raises():
    with pytest.raises(RelationNotFoundError):
        # far too few digits for the exponent-9 coefficients
        rediscover_triple(Target.ZETA_VALUE, 9, 30)


@pytest.mark.parametrize("exponent", [1, 3, 5, 7, 9])
def test_rediscovery_agrees_with_exact_triples(exponent):
    digits = {1: 100, 3: 100, 5: 120, 7: 150, 9: 200}[exponent]
    for target in Target:
        if target is Target.ZETA_VALUE and exponent == 1:
            continue
        _, triple = rediscover_triple(target, exponent, digits)
        assert triple.coefficients() == triple_for(target, exponent).coefficients()
