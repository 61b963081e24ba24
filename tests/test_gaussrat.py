"""Property tests of the int-triple GaussRat against a (Fraction, Fraction) oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisvoa.scalars import GaussRat, _normalize_e, as_gauss, gr
from heisvoa.series import CosetError, exponent_index

PROPS = settings(max_examples=200, deadline=None, database=None)

small_fracs = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
big_fracs = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                      st.integers(1, 10 ** 20))
fracs = st.one_of(small_fracs, big_fracs)
pairs = st.tuples(fracs, fracs)
nonzero_pairs = pairs.filter(lambda p: p[0] or p[1])
ints = st.integers(-10 ** 6, 10 ** 6)


def g(p):
    return GaussRat(p[0], p[1])


def parts(x):
    return (x.re, x.im)


def o_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def o_div(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return ((p[0] * q[0] + p[1] * q[1]) / n, (p[1] * q[0] - p[0] * q[1]) / n)


def o_pow(p, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = o_mul(out, p)
    return o_div((Fraction(1), Fraction(0)), out) if n < 0 else out


def assert_normalized(x):
    assert x.d > 0
    assert math.gcd(x.a, x.b, x.d) == 1


def reference_str(re, im):
    """The text form, written over the Fraction parts."""
    if not re and not im:
        return "0"
    if not im:
        return str(re)
    imag = f"{abs(im)}*i"
    if not re:
        return imag if im > 0 else "-" + imag
    return f"{re}{'+' if im > 0 else '-'}{imag}"


@PROPS
@given(pairs, pairs)
def test_field_ops_match_oracle(p, q):
    x, y = g(p), g(q)
    assert parts(x) == p
    assert parts(x + y) == (p[0] + q[0], p[1] + q[1])
    assert parts(x - y) == (p[0] - q[0], p[1] - q[1])
    assert parts(-x) == (-p[0], -p[1])
    assert parts(x * y) == o_mul(p, q)
    if q[0] or q[1]:
        assert parts(x / y) == o_div(p, q)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for z in (x + y, x - y, -x, x * y):
        assert_normalized(z)


@PROPS
@given(pairs, st.one_of(ints, fracs))
def test_mixed_operands_match_oracle(p, r):
    x = g(p)
    assert parts(x + r) == parts(r + x) == (p[0] + r, p[1])
    assert parts(x - r) == (p[0] - r, p[1])
    assert parts(r - x) == (r - p[0], -p[1])
    assert parts(x * r) == parts(r * x) == (p[0] * r, p[1] * r)
    if r:
        assert parts(x / r) == (p[0] / r, p[1] / r)
    if p[0] or p[1]:
        assert parts(r / x) == o_div((Fraction(r), Fraction(0)), p)


@PROPS
@given(nonzero_pairs.filter(lambda p: max(abs(p[0].numerator),
                                          abs(p[1].numerator)) < 10 ** 6),
       st.integers(-6, 6))
def test_pow_matches_oracle(p, n):
    z = g(p) ** n
    assert parts(z) == o_pow(p, n)
    assert_normalized(z)


@PROPS
@given(pairs, pairs)
def test_normal_form_is_canonical(p, q):
    x, y = g(p), g(q)
    assert_normalized(x)
    # the same value reached two ways has the same fields and hash
    z = (x + y) - y
    assert (z.a, z.b, z.d) == (x.a, x.b, x.d)
    assert z == x and hash(z) == hash(x)
    assert (x == y) == (p == q)
    if not p[1]:
        assert x == p[0] and x == as_gauss(p[0])


@PROPS
@given(pairs)
def test_text_matches_reference_and_round_trips(p):
    x = g(p)
    assert str(x) == reference_str(*p)
    assert repr(x) == f"GaussRat({p[0]!r}, {p[1]!r})"
    assert GaussRat.parse(str(x)) == x
    assert gr(str(x)) == x


@pytest.mark.parametrize("re, im, text", [
    ("0", "0", "0"),
    ("-7/12", "0", "-7/12"),
    ("0", "1", "1*i"),
    ("0", "-1", "-1*i"),
    ("0", "5/12", "5/12*i"),
    ("0", "-10/21", "-10/21*i"),
    ("1/2", "-1/3", "1/2-1/3*i"),
    ("-25/36", "7/12", "-25/36+7/12*i"),
    ("3/14", "-5/21", "3/14-5/21*i"),
    ("4", "-123/1000", "4-123/1000*i"),
])
def test_text_of_explicit_values(re, im, text):
    x = GaussRat(re, im)
    assert str(x) == text == reference_str(Fraction(re), Fraction(im))
    assert GaussRat.parse(text) == x


@PROPS
@given(pairs)
def test_normalize_e_matches_floor_formula(p):
    kappa = g(p)
    m = math.floor(p[0])
    sign, folded = _normalize_e(kappa)
    assert sign == (-1 if m % 2 else 1)
    assert parts(folded) == (p[0] - m, p[1])
    assert_normalized(folded)


@PROPS
@given(pairs, ints, pairs)
def test_exponent_index_in_and_outside_the_coset(p, n, q):
    offset, shift = g(p), g(q)
    assert exponent_index(offset, offset + n) == n
    assert exponent_index(offset, str(offset + n)) == n
    if shift.is_integer:
        assert exponent_index(offset, offset + shift) == q[0]
    else:
        with pytest.raises(CosetError):
            exponent_index(offset, offset + shift)


def test_booleans_and_floats_are_not_rationals():
    for bad in (True, False, 0.5):
        with pytest.raises(TypeError):
            as_gauss(bad)
        with pytest.raises(TypeError):
            GaussRat(bad)
        with pytest.raises(TypeError):
            gr(bad)


def test_gaussrat_is_immutable():
    x = gr("1/2+i")
    with pytest.raises(AttributeError):
        x.a = 3
    with pytest.raises(AttributeError):
        x.re = 3
