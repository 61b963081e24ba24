import random
from fractions import Fraction

import pytest

from heisvoa.scalars import (
    E,
    GR_ONE,
    GR_ZERO,
    GaussRat,
    S_ONE,
    S_ZERO,
    Scalar,
    as_scalar,
    binom,
    branch_phase,
    gr,
    lam_pow,
    zeta_pow,
)
from oracles import parse_scalar


def rand_gauss(rng, den=4, num=6):
    return gr(Fraction(rng.randint(-num, num), rng.randint(1, den)),
              Fraction(rng.randint(-num, num), rng.randint(1, den)))


def rand_scalar(rng):
    out = S_ZERO
    for _ in range(rng.randint(0, 3)):
        out = out + Scalar.from_unit(
            e_exp=rand_gauss(rng), lam_exp=rand_gauss(rng),
            zeta_exp=rand_gauss(rng), coeff=rand_gauss(rng))
    return out


def test_gauss_field_ops():
    a = gr(Fraction(1, 2), Fraction(-1, 3))
    b = gr(Fraction(2, 5), 2)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * GR_ONE == a
    assert (a - a).is_zero
    with pytest.raises(ZeroDivisionError):
        a / GR_ZERO


def test_gauss_text_roundtrip():
    cases = ["0", "1/2", "-3", "1/2-1/3*i", "2*i", "-i", "1/2+i", "i"]
    for text in cases:
        v = GaussRat.parse(text)
        assert GaussRat.parse(str(v)) == v
    for bad in ("1..2", "2i", "ii", "1/2i", "i2", "-3i"):
        with pytest.raises(ValueError):
            GaussRat.parse(bad)


def test_binom_examples():
    assert binom(gr(Fraction(99, 7)), 0) == GR_ONE          # empty product
    assert binom(gr(Fraction(1, 2)), 2) == gr(Fraction(-1, 8))
    assert binom(gr(0, 1), 1) == gr(0, 1)


def test_binom_recurrence():
    rng = random.Random(11)
    for _ in range(10):
        kappa = rand_gauss(rng)
        for m in range(20):
            lhs = binom(kappa, m) * (kappa - m) / (m + 1)
            assert lhs == binom(kappa, m + 1)


def test_branch_phase_examples():
    assert branch_phase(gr(1), 1) == as_scalar(-1)
    assert branch_phase(gr(2), 3) == S_ONE
    half = branch_phase(gr(Fraction(1, 2)), 1)
    assert half == E(Fraction(1, 2))
    assert not half.as_rational()
    with pytest.raises(ValueError):
        branch_phase(gr(1), 2)


def test_branch_phase_homomorphism():
    rng = random.Random(5)
    for n in (1, 3, -1, 5):
        for _ in range(40):
            k1, k2 = rand_gauss(rng), rand_gauss(rng)
            assert branch_phase(k1 + k2, n) == branch_phase(k1, n) * branch_phase(k2, n)


def test_unit_relations():
    assert E(Fraction(1, 2)) * E(Fraction(3, 2)) == S_ONE       # E(2) = 1
    x = Scalar.from_unit(lam_exp=gr(2), coeff=gr(Fraction(1, 3)))
    assert E(1) * x == -x                                        # E(1) = -1 folds
    assert lam_pow(2) * lam_pow(-2) == S_ONE
    assert zeta_pow(gr(0, 1)) * zeta_pow(gr(0, -1)) == S_ONE
    # stored E exponents never sit in Z unless zero; the trivial unit is None
    for k in (gr(Fraction(7, 2)), gr(-3), gr(4), gr(Fraction(-1, 2), 1)):
        s = E(k)
        for u, _ in s.terms.items():
            assert u is None or u.e_exp.is_zero or not u.e_exp.is_integer


def test_scalar_ring_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(1000):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_inverse_monomial_only():
    m = Scalar.from_unit(e_exp=gr(Fraction(1, 2)), lam_exp=gr(-2),
                         zeta_exp=gr(Fraction(1, 3)), coeff=gr(Fraction(2, 7), 1))
    assert m * m.inverse() == S_ONE
    with pytest.raises(ZeroDivisionError):
        (S_ONE + lam_pow(1)).inverse()
    with pytest.raises(ZeroDivisionError):
        S_ZERO.inverse()


def test_scalar_edge_cases():
    # the paths that the randomized ring tests leave out
    assert Scalar().is_zero and Scalar() == S_ZERO
    assert S_ONE + 2 == as_scalar(3) and Fraction(1, 2) + S_ONE == as_scalar("3/2")
    assert S_ZERO.as_rational() == GR_ZERO
    # the two cross terms lam and -lam cancel
    assert (S_ONE + lam_pow(1)) * (S_ONE - lam_pow(1)) == S_ONE - lam_pow(2)
    m = Scalar.from_unit(e_exp=gr(Fraction(1, 3)), zeta_exp=gr(1), coeff=gr(2))
    assert m ** -2 == (m * m).inverse() and m ** -2 * m ** 2 == S_ONE
    assert as_scalar(3) == 3 and as_scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert S_ONE != 2 and lam_pow(1) != 1


def test_scalar_equality_with_a_rational_answers_as_gaussrat_does():
    # a bool is an int, so S_ONE == True as gr(1) == True and Fraction(1) ==
    # True; comparing a scalar with a rational never raises
    values = [True, False, 0, 1, -2, Fraction(1, 2), gr(1), gr(0, 1)]
    # each scalar with its rational value, None when a unit is nontrivial
    scalars = [(S_ZERO, GR_ZERO), (S_ONE, GR_ONE), (as_scalar("1/2"), gr("1/2")),
               (as_scalar(gr(0, 1)), gr(0, 1)), (E("1/2"), None),
               (S_ONE + lam_pow(1), None)]
    for x, c in scalars:
        for v in values:
            want = c is not None and c == v
            assert (x == v) is want and (v == x) is want, (x, v)
            assert (x != v) is not want
    assert S_ONE == True and S_ZERO == False and gr(1) == True  # noqa: E712


def test_scalar_text_roundtrip():
    rng = random.Random(7)
    for _ in range(60):
        s = rand_scalar(rng)
        assert parse_scalar(str(s)) == s
