"""PSLQ detection tests: the classical relations, canonical form, scale
invariance, verified residuals, no-relation exclusion, and triple
rediscovery against the exact closed forms."""

import itertools
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mp_oracles import mpf, pi_const, to_mpf

from plouffe import relations
from plouffe.bernoulli import Target, triple_for
from plouffe.fixed import places, ratio
from plouffe.precision import GUARD, PrecisionReal
from plouffe.relations import RelationNotFoundError, min_digits_for, pslq, rediscover_triple
from plouffe.series import SeriesSpec, _exact, s_series, series_term


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


@pytest.mark.parametrize("digits, bound", [(100, 10 ** 6), (100, 10), (20, 10 ** 6)])
def test_pslq_ignores_the_ambient_precision(digits, bound):
    # found, "norm bound" and "insufficient precision"; pslq sets every precision it uses
    values = [pi_const(120).mpf] + s1_values(120)
    with mp.workdps(15):
        low = pslq(values, digits, max_coeff_bound=bound)
    with mp.workdps(3000):
        high = pslq(values, digits, max_coeff_bound=bound)
    assert low == high and low.iterations > 0


def test_pslq_accepts_a_bound_past_the_float_range():
    with mp.workdps(100):
        result = pslq([+mp.pi, +mp.e], 50, max_coeff_bound=10 ** 400)
    assert not result.found and result.vector == ()


@pytest.mark.parametrize("target", ["pi", "zeta"])
def test_pslq_finds_a_relation_that_the_rounding_once_hid(target):
    # pi^41's and zeta(41)'s relations with S_41(1), S_41(2) and S_41(4) have
    # coefficients near 10^58.8.  Inputs rounded to D + 20 places hid them
    # (found = False on "norm bound"); at D + log10(bound) places they show.
    triple = triple_for(target, 41)
    terms = [(target, 41)] + [series_term(41, s) for s, _ in triple.weights()]
    result = pslq(_exact(terms, places(1520, 4 * 10 ** 70)), 1500, 10 ** 70)
    coefficients = (-1, *triple.coefficients())
    scale = math.lcm(*(Fraction(c).denominator for c in coefficients))
    assert (result.found, result.stop) == (True, "found")
    assert result.vector == canonical([int(c * scale) for c in coefficients])


@pytest.mark.parametrize("k", [310, 320, 400])
def test_pslq_finds_a_relation_whose_norm_bound_passes_the_float_range(k):
    # 1/max|H_jj| passes 10**308, past the float range, before the relation
    # (A, -B) shows, so the stop test must compare it exactly
    rng = random.Random(5)
    a, b = (rng.randrange(10 ** k, 10 ** (k + 1)) for _ in range(2))
    a, b = a // math.gcd(a, b), b // math.gcd(a, b)
    result = pslq([Fraction(1), Fraction(a, b)], 2 * (k + 1) + 40, 10 ** (k + 5))
    assert (result.found, result.stop, result.vector) == (True, "found", (a, -b))


def test_pslq_counts_the_digits_of_a_bound_past_the_int_str_limit():
    # 10**5000 has more digits than str() of an int may give by default
    assert pslq([3, 7], 30, 10 ** 5000).vector == (7, -3)


def mpmath_rounded(values, digits):
    """Nonzero inputs as mpmath rounds them at pslq's working precision
    (`to_mpf` under workdps(digits + GUARD)), as integers X over 2**e."""
    with mp.workdps(digits + GUARD):
        xs = [to_mpf(x) for x in values]
    e = min(x.exp for x in xs)
    return [int(mp.ldexp(x, -e)) for x in xs], e


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_input_rounding_is_mpmaths(data):
    # kernel pairs (m, prec) and mpf inputs, random or exactly on (or just
    # past) a half-unit tie at the working precision of a bound up to 10**GUARD
    digits = data.draw(st.integers(1, 2100), label="digits")
    work = relations._working_bits(digits, relations.MAX_COEFF)
    pairs = []
    for _ in range(data.draw(st.integers(1, 5), label="n")):
        m = data.draw(st.integers(1, 2 ** (work + 80)), label="m")
        kind = data.draw(st.sampled_from(["random", "tie", "past a tie"]), label="kind")
        if kind != "random":
            tie = ((m % (1 << work - 1)) | (1 << work - 1)) << 1 | 1  # work + 1 bits
            m = (tie << data.draw(st.integers(1, 40))) + (kind == "past a tie")
        pairs.append((data.draw(st.sampled_from([1, -1])) * m, data.draw(st.integers(0, 9000))))
    mpfs = [mpf(Fraction(m, 1 << prec)) for m, prec in pairs]
    expected = mpmath_rounded(mpfs, digits)
    assert relations._rounded([(m, 1 << prec) for m, prec in pairs], work) == expected
    scaled = [mp.ldexp(x, data.draw(st.integers(-300, 300))) for x in mpfs]  # exact
    assert relations._rounded([ratio(x) for x in scaled], work) == mpmath_rounded(scaled, digits)


def canonical(vector):
    """gcd 1 and first nonzero entry positive."""
    g = math.gcd(*vector)
    sign = 1 if next(v for v in vector if v) > 0 else -1
    return tuple(sign * v // g for v in vector)


def planted_values(planted, digits, seed, bound):
    """Random reals x_0..x_{n-2} and the x_{n-1} that makes sum v_i x_i = 0,
    20 places past the digits + max(GUARD, floor(log10 bound)) that `pslq`
    rounds them to; the planted vector spans their relations."""
    rng = random.Random(seed)
    bits = 4 * digits + 100
    with mp.workdps(digits + max(GUARD, len(str(bound)) - 1) + 20):
        xs = [mp.mpf(rng.getrandbits(bits)) / 2 ** bits for _ in planted[:-1]]
        xs.append(-mp.fsum(v * x for v, x in zip(planted, xs)) / planted[-1])
    return xs


def exact(x):
    """An mpf as the Fraction it stands for."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(int(man)) * Fraction(2) ** int(exp)


def planted_vectors(n, size):
    return st.lists(st.integers(-size, size), min_size=n, max_size=n).filter(lambda v: v[-1] != 0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pslq_recovers_planted_relations(data):
    # the planted vector may lie past the coefficient bound; a search that
    # gives up must not claim to have excluded it (norm bound soundness)
    n = data.draw(st.integers(2, 6), label="n")
    bound = 10 ** data.draw(st.integers(1, 8), label="log10 bound")
    planted = data.draw(planted_vectors(n, bound * 10 ** data.draw(st.integers(0, 2))),
                        label="planted")
    digits = (min_digits_for(n, max(map(abs, planted)))
              + data.draw(st.integers(5, 30), label="extra digits"))
    xs = planted_values(planted, digits, data.draw(st.integers(0, 2 ** 64), label="seed"), bound)
    relation = canonical(planted)
    result = pslq(xs, digits, max_coeff_bound=bound)
    if result.found:
        assert result.vector == relation
        # the residual is exact: |sum v_i x_i| over the inputs as pslq rounds them
        with mp.workdps(digits + GUARD):
            rounded = [exact(to_mpf(x)) for x in xs]
        assert exact(result.residual.mpf) == abs(sum(v * x for v, x in zip(relation, rounded)))
    else:
        assert result.norm_bound <= math.hypot(*relation)
    if max(map(abs, relation)) <= bound:
        assert result.found


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pslq_bound_above_a_planted_relation_never_stops_on_the_norm_bound(data):
    # planted norms up to 10**400, past the float range; three values take
    # many more iterations at a size, so they stop at 10**120
    n = data.draw(st.integers(2, 3), label="n")
    size = 10 ** data.draw(st.integers(1, 400 if n == 2 else 120), label="log10 size")
    # entries from a seeded generator, as hypothesis favours small integers,
    # the last of the full size
    rng = random.Random(data.draw(st.integers(0, 2 ** 64), label="seed"))
    planted = [rng.randint(-size, size) for _ in range(n - 1)] + [rng.randint(size // 10, size)]
    bound = max(map(abs, planted)) * data.draw(st.integers(1, 1000), label="bound factor")
    digits = (min_digits_for(n, max(map(abs, planted)))
              + data.draw(st.integers(5, 30), label="extra digits"))
    # exact values, so the relation holds at any precision pslq reads
    bits = 4 * digits + 100
    xs = [Fraction(rng.getrandbits(bits), 1 << bits) for _ in planted[:-1]]
    xs.append(-sum(v * x for v, x in zip(planted, xs)) / planted[-1])
    result = pslq(xs, digits, max_coeff_bound=bound)
    assert result.stop != "norm bound"
    assert (result.found, result.vector) == (True, canonical(planted))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pslq_agrees_with_mpmath_pslq(data):
    # an independent implementation: whenever mpmath's pslq reports a
    # relation for a planted input, it is ours
    n = data.draw(st.integers(2, 5), label="n")
    bound = 10 ** data.draw(st.integers(1, 6), label="log10 bound")
    # mpmath's pslq refuses a zero value, which the vector (0, ..., 0, c) plants
    planted = data.draw(planted_vectors(n, bound).filter(lambda v: any(v[:-1])), label="planted")
    digits = min_digits_for(n, bound) + data.draw(st.integers(5, 30), label="extra digits")
    xs = planted_values(planted, digits, data.draw(st.integers(0, 2 ** 64), label="seed"), bound)
    with mp.workdps(digits):
        theirs = mp.pslq(xs, maxcoeff=bound, maxsteps=10 ** 4)
    if theirs is not None:
        assert canonical(theirs) == pslq(xs, digits, max_coeff_bound=bound).vector


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5), digits=st.integers(5, 80), seed=st.integers(0, 2 ** 64))
def test_pslq_finds_no_relation_among_random_reals(n, digits, seed):
    rng = random.Random(seed)
    bits = 4 * digits + 100
    with mp.workdps(digits + 40):
        xs = [mp.mpf(rng.getrandbits(bits)) / 2 ** bits for _ in range(n)]
    result = pslq(xs, digits)
    assert not result.found and result.vector == () and result.stop != "found"


@pytest.mark.parametrize("digits", [5, 10, 12, 16])
def test_pslq_reports_no_relation_between_pi_and_e_at_low_precision(digits):
    # below the digits a relation needs, a small PSLQ candidate such as
    # (1, -1) or (45, -52) is rounding, not a relation
    with mp.workdps(100):
        result = pslq([+mp.pi, +mp.e], digits)
    assert not result.found and result.stop == "insufficient precision"


def test_pslq_names_the_norm_bound_and_the_iteration_cap(monkeypatch):
    with mp.workdps(100):
        values = [+mp.pi, +mp.e]
    result = pslq(values, 50, max_coeff_bound=100)
    assert (result.found, result.stop) == (False, "norm bound")
    assert result.norm_bound > 100 * math.sqrt(2)
    monkeypatch.setattr(relations, "MAX_ITERATIONS", 3)
    result = pslq(values, 50)
    assert (result.found, result.stop, result.iterations) == (False, "iteration cap", 3)


def test_pslq_zero_entry_gives_unit_relation():
    result = pslq([mp.mpf(0), mp.mpf(1)], 50)
    assert result.found and result.vector == (1, 0)
    assert result.residual.mpf == 0
    # beside values whose common power of two is above 1, as 2 and 4 are
    assert pslq([0, 2], 50).vector == (1, 0)
    assert pslq([2, 0, 4], 50).vector == (0, 1, 0)


def test_pslq_input_validation():
    with pytest.raises(ValueError):
        pslq([mp.mpf(1)], 50)
    with pytest.raises(ValueError):
        pslq([mp.mpf(0), mp.mpf(0)], 50)


def test_min_digits_rule_of_thumb():
    assert min_digits_for(4, 10 ** 9) == 4 * 9 + 15
    assert min_digits_for(4, 10 ** 400) == 4 * 400 + 15  # an int past the float range
    # log10 in floats rounded 15 + 4.3e-16 down to 15, one digit short
    assert (min_digits_for(1, 10 ** 15 + 1), min_digits_for(4, 10 ** 15 + 1)) == (31, 76)


@pytest.mark.parametrize("n", range(1, 7))
def test_min_digits_is_exact_next_to_every_power_of_ten(n):
    # ceil(n log10 bound) is the least t with 10^t >= bound^n
    for k in range(40):
        for bound in {max(1, 10 ** k - 1), 10 ** k, 10 ** k + 1}:
            t = next(t for t in itertools.count() if 10 ** t >= bound ** n)
            assert min_digits_for(n, bound) == t + 15, (n, bound)


@pytest.mark.parametrize("log10_size", [30, 80, 150])
def test_planted_values_hold_a_relation_past_a_bound_of_10_to_the_20(log10_size):
    # pslq rounds at digits + floor(log10 bound) places, so a relation planted
    # at the bound is found only if the helper holds its inputs past that
    rng = random.Random(log10_size)
    size = 10 ** log10_size
    planted = [rng.randint(-size, size), rng.randint(size // 10, size)]
    digits = min_digits_for(2, max(map(abs, planted))) + 20
    result = pslq(planted_values(planted, digits, 1, size), digits, size)
    assert (result.found, result.vector) == (True, canonical(planted))


def test_rotate_refuses_two_zero_entries_and_leaves_h_unchanged():
    H = [[Decimal(0), Decimal(0)], [Decimal(3), Decimal(4)]]
    assert relations._rotate(H, 0, 1) is False
    assert H == [[0, 0], [3, 4]]


def test_pslq_stops_when_the_main_loop_cannot_rotate(monkeypatch):
    # a rotation of the main loop refused, as on two zero entries, while
    # rebuild's own rotations still run: the search ends at once
    rotate, refused = relations._rotate, []

    def refuse_in_the_main_loop(H, r, c):
        if sys._getframe(1).f_code.co_name == "pslq":
            refused.append((r, c))
            return False
        return rotate(H, r, c)

    monkeypatch.setattr(relations, "_rotate", refuse_in_the_main_loop)
    rng = random.Random(3)
    values = [Fraction(rng.randrange(10 ** 60), 10 ** 60) for _ in range(4)]
    result = pslq(values, 60)
    assert (result.found, result.stop, len(refused)) == (False, "insufficient precision", 1)


def test_pslq_skips_a_zero_on_hs_diagonal(monkeypatch):
    # a diagonal entry of H that rounding left 0 is not divided by: the
    # reduction skips it, and the next rebuild restores H from the exact state
    rotate, zeroed = relations._rotate, []

    def zero_the_next_diagonal_entry_once(H, r, c):
        done = rotate(H, r, c)
        if sys._getframe(1).f_code.co_name == "pslq" and not zeroed:
            H[c][c] = Decimal(0)  # the entry reduce_row reads next, for row c + 1
            zeroed.append(c)
        return done

    monkeypatch.setattr(relations, "_rotate", zero_the_next_diagonal_entry_once)
    with mp.workdps(120):
        values = [+mp.pi, +mp.e, mp.sqrt(2), mp.pi + 2 * mp.e - 3 * mp.sqrt(2)]
    result = pslq(values, 60)
    assert zeroed and (result.found, result.vector) == (True, (1, 2, -3, -1))


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


@pytest.mark.parametrize("exponent, digits, vector, need, cause", [
    # no target coefficient, at the digits the rule asks for coefficients up to 96
    (1, 23, (0, 1, -2, 1), 23, "two relations at detectable precision contradict the exact triple"),
    # one entry off, one digit short of what the rule asks for 7056
    (5, 30, (1, -7056, 6993, 64), 31, "insufficient precision"),
])
def test_rediscover_refuses_a_relation_that_is_not_the_triples(monkeypatch, exponent, digits,
                                                               vector, need, cause):
    exact = canonical([-1, *(int(q) for q in triple_for("pi", exponent).coefficients())])
    found = relations.RelationResult(vector, PrecisionReal(0, digits), 5, True, 1.0, "found")
    monkeypatch.setattr(relations, "pslq", lambda *_: found)
    with pytest.raises(RelationNotFoundError) as refusal:
        rediscover_triple("pi", exponent, digits)
    assert str(refusal.value) == (
        f"found relation {vector} for pi exponent {exponent} is not the exact triple's "
        f"{exact} ({cause}: {digits} digits, {need} tell them apart)")


@pytest.mark.parametrize("exponent", [1, 3, 5, 7, 9])
def test_rediscovery_agrees_with_exact_triples(exponent):
    digits = {1: 100, 3: 100, 5: 120, 7: 150, 9: 200}[exponent]
    for target in Target:
        if target is Target.ZETA_VALUE and exponent == 1:
            continue
        _, triple = rediscover_triple(target, exponent, digits)
        assert triple.coefficients() == triple_for(target, exponent).coefficients()
