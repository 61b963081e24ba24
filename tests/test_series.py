import random
from fractions import Fraction

import pytest

from heisvoa.scalars import S_ONE, S_ZERO, as_scalar, gr
from heisvoa.series import (
    CosetError,
    WindowError,
    WindowedSeries,
    binom_expand,
    constant_series,
    exponent_index,
)


def scal_series(offset, lo, hi, coeffs):
    return WindowedSeries(offset, lo, hi,
                          {n: as_scalar(c) for n, c in coeffs.items()}, S_ZERO)


def rand_series(rng, lo=-2, hi=3):
    a = rng.randint(lo, 0)
    b = rng.randint(0, hi)
    coeffs = {n: as_scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
              for n in range(a, b + 1)}
    return scal_series(gr(0), a, b, coeffs)


def test_mul_truncation_example():
    # (1+z on [0,1]) x (1-z on [0,1]): z^1 coefficient 0, z^2 unknown
    a = scal_series(gr(0), 0, 1, {0: 1, 1: 1})
    b = scal_series(gr(0), 0, 1, {0: 1, 1: -1})
    p = a.mul(b)
    assert (p.lo, p.hi) == (0, 1)
    assert p.coefficient(0) == S_ONE
    assert p.coefficient(1).is_zero
    with pytest.raises(WindowError):
        p.coefficient(2)


def test_offsets_fold():
    a = scal_series(gr("1/2"), 0, 4, {0: 1})
    p = a.mul(a)
    assert p.offset == gr(1)
    assert p.coefficient(0) == S_ONE


def test_offset_coset_mismatch():
    a = scal_series(gr("1/2"), 0, 2, {0: 1})
    b = scal_series(gr("1/3"), 0, 2, {0: 1})
    with pytest.raises(CosetError):
        a + b
    with pytest.raises(CosetError):
        exponent_index(gr("1/2"), gr("1/3"))


def test_mul_associative_commutative_randomized():
    rng = random.Random(13)
    for _ in range(500):
        a, b, c = rand_series(rng), rand_series(rng), rand_series(rng)
        assert a.mul(b) == b.mul(a)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_window_soundness_under_enlargement():
    rng = random.Random(29)
    for _ in range(120):
        a, b = rand_series(rng), rand_series(rng)
        small = a.mul(b)
        # enlarging input windows with explicit zeros must not change
        # any coefficient inside the previously valid window
        wide_a = WindowedSeries(a.offset, a.lo, a.hi + 2, dict(a.coeffs), a.zero)
        wide_b = WindowedSeries(b.offset, b.lo, b.hi + 2, dict(b.coeffs), b.zero)
        wide = wide_a.mul(wide_b)
        for n in range(small.lo, small.hi + 1):
            assert wide.coefficient(n) == small.coefficient(n)


def test_derive_examples():
    ab = gr("2/3", "1/5")
    s = constant_series(S_ONE, S_ZERO, offset=ab)
    d = s.derive()
    assert d.coefficient_at(ab - 1) == as_scalar(ab)
    const = constant_series(S_ONE, S_ZERO)
    assert all(c.is_zero for c in const.derive().coeffs.values())


def test_derive_is_derivation():
    rng = random.Random(31)
    for _ in range(200):
        a, b = rand_series(rng), rand_series(rng)
        lhs = a.mul(b).derive()
        rhs = a.derive().mul(b) + a.mul(b.derive())
        assert lhs == rhs


def test_binom_expand_examples():
    stream = list(binom_expand(gr(1), -1, 3))
    assert [c for _, _, c in stream] == [gr(1), gr(-1), gr(0), gr(0)]
    stream = list(binom_expand(gr(-1), 1, 2))
    assert stream[2][2] == gr(1)
    stream = list(binom_expand(gr("1/2", "1"), -1, 1))
    assert stream[1][2] == -gr("1/2", "1")
    assert stream[1][0] == gr("1/2", "1") - 1  # x-exponent kappa - m
    with pytest.raises(ValueError):
        list(binom_expand(gr(1), 2, 1))


def test_upper_truncated_series():
    s = WindowedSeries(gr(0), -2, 0, {0: S_ONE, -1: as_scalar(2)}, S_ZERO, upper=True)
    assert s.coefficient(5).is_zero       # known zero above hi
    assert s.coefficient(-1) == as_scalar(2)
    with pytest.raises(WindowError):
        s.coefficient(-3)                  # unknown below lo
    t = WindowedSeries(gr(0), None, 0, {0: S_ONE}, S_ZERO, upper=True)
    assert t.coefficient(-100).is_zero
