"""Exact coefficient arithmetic.

Every identity this package checks is decided in the group algebra of a
formal unit group over the Gaussian rationals.  The unit group has three
commuting generators:

* ``E(kappa)`` for Gaussian-rational ``kappa``, subject only to
  ``E(k1)*E(k2) = E(k1+k2)``, ``E(2) = 1`` and ``E(m) = (-1)**m`` for
  integer ``m``.  It stands for the branch phase ``exp(i*pi*N*kappa)``
  with the odd integer ``N`` folded into the exponent.
* ``lam`` (the Moebius-map constant) and ``zeta`` (a free cocycle
  constant), both with Gaussian-rational exponents and no relations.

No floating point ever appears; equality of scalars is literal equality
of normalized terms, and a value equals only a value of its own type.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial, gcd
from typing import Mapping, NamedTuple, Union

from .workspace import current

Rat = Union[int, Fraction]


def _frac(x: Rat | str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and x.__class__ is not bool:
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class GaussRat:
    """A Gaussian rational (a + b*i)/d stored as three ints.

    The triple is normalized, d > 0 and gcd(a, b, d) = 1, so equal values
    have equal fields; zero is (0, 0, 1).
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: Rat | str = 0, im: Rat | str = 0):
        re, im = _frac(re), _frac(im)
        rd, id_ = re.denominator, im.denominator
        # over the lcm of two reduced denominators the triple is normalized
        d = rd * id_ // gcd(rd, id_)
        _set_a(self, re.numerator * (d // rd))
        _set_b(self, im.numerator * (d // id_))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    # -- parts ---------------------------------------------------------
    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- predicates ---------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    @property
    def is_real(self) -> bool:
        return not self.b

    @property
    def is_integer(self) -> bool:
        return not self.b and self.d == 1

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other) -> "GaussRat":
        if other.__class__ is not GaussRat:
            if other.__class__ is Scalar:
                return NotImplemented
            other = as_gauss(other)
        d = self.d
        e = other.d
        if d == e:
            a = self.a + other.a
            b = self.b + other.b
            if d == 1:
                return _make(a, b, 1)
        else:
            a = self.a * e + other.a * d
            b = self.b * e + other.b * d
            d *= e
        return _reduce(a, b, d)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussRat":
        if other.__class__ is Scalar:
            return NotImplemented
        return self + -as_gauss(other)

    def __rsub__(self, other) -> "GaussRat":
        return as_gauss(other) - self

    def __neg__(self) -> "GaussRat":
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other) -> "GaussRat":
        if other.__class__ is not GaussRat:
            if other.__class__ is Scalar:
                return NotImplemented
            other = as_gauss(other)
        a, b, d = self.a, self.b, self.d
        c, e, f = other.a, other.b, other.d
        if not b and not e:
            a *= c
            d *= f
            g = gcd(a, d)
            if g == 1:
                return _make(a, 0, d)
            return _make(a // g, 0, d // g)
        return _reduce(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussRat":
        if other.__class__ is not GaussRat:
            other = as_gauss(other)
        c, e, f = other.a, other.b, other.d
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero GaussRat")
        a, b = self.a, self.b
        # (a + b i)/d * f/(c + e i) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        return _reduce((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def __rtruediv__(self, other) -> "GaussRat":
        return as_gauss(other) / self

    def __pow__(self, n: int) -> "GaussRat":
        if not isinstance(n, int):
            raise TypeError("GaussRat powers must be integers")
        if n < 0:
            return GR_ONE / self ** (-n)
        out = GR_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- container protocol -------------------------------------------
    def __eq__(self, other) -> bool:
        if other.__class__ is not GaussRat:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def sort_key(self):
        return (self.re, self.im)

    # -- text form ------------------------------------------------------
    def __str__(self) -> str:
        a, b, d = self.a, self.b, self.d
        if not b:
            # gcd(a, d) = 1 on the real line, so a/d is already reduced
            return str(a) if d == 1 else f"{a}/{d}"
        imag = _ratio_str(abs(b), d) + "*i"
        if not a:
            return imag if b > 0 else "-" + imag
        return f"{_ratio_str(a, d)}{'+' if b > 0 else '-'}{imag}"

    def __repr__(self) -> str:
        return f"GaussRat({self.re!r}, {self.im!r})"

    @classmethod
    def parse(cls, text: str) -> "GaussRat":
        """Parse the ``a/b+c/d*i`` form (either term optional, signs explicit).

        Terms after the first start with their sign; ``i`` stands alone or
        follows ``*``, so ``2i``, ``ii`` and ``1/2i`` are refused.
        """
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty GaussRat literal")
        re_part = Fraction(0)
        im_part = Fraction(0)
        pos = 0
        while pos < len(s):
            m = _TERM_RE.match(s, pos)
            if m is None or (pos and not m["sign"]):
                raise ValueError(f"malformed GaussRat literal: {text!r}")
            pos = m.end()
            sign = -1 if m["sign"] == "-" else 1
            if m["num"] is None:
                im_part += sign
            elif m["imag"]:
                im_part += sign * Fraction(m["num"])
            else:
                re_part += sign * Fraction(m["num"])
        return cls(re_part, im_part)


_TERM_RE = re.compile(r"(?P<sign>[+-]?)(?:(?P<num>\d+(?:/\d+)?)(?P<imag>\*i)?|i)")

_new = object.__new__
_set_a = GaussRat.a.__set__
_set_b = GaussRat.b.__set__
_set_d = GaussRat.d.__set__


def _ratio_str(n: int, d: int) -> str:
    """The text of the Fraction n/d for d > 0."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _make(a: int, b: int, d: int) -> GaussRat:
    """The GaussRat of an already normalized triple."""
    x = _new(GaussRat)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _reduce(a: int, b: int, d: int) -> GaussRat:
    """The GaussRat (a + b*i)/d for d > 0, normalized with one gcd."""
    g = gcd(a, b, d)
    if g == 1:
        return _make(a, b, d)
    return _make(a // g, b // g, d // g)


def as_gauss(x) -> GaussRat:
    """Coerce an int, Fraction, string, or GaussRat to a GaussRat."""
    cls = x.__class__
    if cls is GaussRat:
        return x
    if cls is int:
        return _make(x, 0, 1)
    if isinstance(x, (int, Fraction)) and cls is not bool:
        return _make(x.numerator, 0, x.denominator)
    if isinstance(x, str):
        return GaussRat.parse(x)
    raise TypeError(f"cannot coerce {x!r} to GaussRat")


def gr(re=0, im=0) -> GaussRat:
    if isinstance(re, str) and im == 0:
        return GaussRat.parse(re)
    return GaussRat(_frac(re), _frac(im))


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)


def binom(kappa, m: int) -> GaussRat:
    """Generalized binomial kappa*(kappa-1)*...*(kappa-m+1)/m!."""
    if m < 0:
        raise ValueError("binomial lower index must be a natural number")
    kappa = as_gauss(kappa)
    key = (kappa, m)
    table = current().binom
    hit = table.get(key)
    if hit is not None:
        return hit
    out = GR_ONE
    for j in range(m):
        out = out * (kappa - j)
    out = out / factorial(m)
    table[key] = out
    return out


class Unit(NamedTuple):
    """A normalized element of the formal unit group."""

    e_exp: GaussRat
    lam_exp: GaussRat
    zeta_exp: GaussRat


UNIT_ONE = Unit(GR_ZERO, GR_ZERO, GR_ZERO)


def _normalize_e(kappa: GaussRat) -> tuple[int, GaussRat]:
    """Reduce an E-exponent mod 2 and fold the integer remainder to a sign.

    The stored exponent has real part in [0, 1); it equals an integer only
    when it is exactly zero.
    """
    m, a = divmod(kappa.a, kappa.d)
    sign = -1 if m % 2 else 1
    # gcd(a - m*d, b, d) = gcd(a, b, d): the triple stays normalized
    return sign, _make(a, kappa.b, kappa.d)


def _unit(e_exp: GaussRat, lam_exp: GaussRat, zeta_exp: GaussRat,
          q: GaussRat) -> tuple[Unit | None, GaussRat]:
    """The unit E(e_exp) lam^lam_exp zeta^zeta_exp with the rational q, as a
    key and a coefficient: the E-exponent wraps through ``_normalize_e``,
    whose sign goes into q, and the trivial unit is keyed None."""
    sign, e_norm = _normalize_e(e_exp)
    u = Unit(e_norm, lam_exp, zeta_exp)
    return (None if u == UNIT_ONE else u), (-q if sign < 0 else q)


def _unit_mul(u: Unit | None, v: Unit | None,
              q: GaussRat) -> tuple[Unit | None, GaussRat]:
    """The product of two unit keys with the rational q, as a key and a
    coefficient: the exponents add, and ``_unit`` keys the sum."""
    if u is None:
        return v, q
    if v is None:
        return u, q
    return _unit(u.e_exp + v.e_exp, u.lam_exp + v.lam_exp,
                 u.zeta_exp + v.zeta_exp, q)


class Scalar:
    """Element of the group algebra: a finite sum coeff * unit.

    ``terms`` maps each unit to its nonzero coefficient, and the trivial
    unit is keyed ``None``, as in the unit sums of a ``State``: a rational
    scalar c is ``{None: c}``.  The constructor is the one place that drops
    a zero coefficient.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Unit | None, GaussRat] | None = None):
        _set_terms(self, {u: c for u, c in (terms or {}).items() if c.a or c.b})

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_unit(cls, e_exp=GR_ZERO, lam_exp=GR_ZERO, zeta_exp=GR_ZERO,
                  coeff=GR_ONE) -> "Scalar":
        unit, coeff = _unit(as_gauss(e_exp), as_gauss(lam_exp),
                            as_gauss(zeta_exp), as_gauss(coeff))
        return cls({unit: coeff})

    # -- queries ----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        c = self.terms.get(None)
        return (c is not None and c.a == 1 and c.d == 1 and not c.b
                and len(self.terms) == 1)

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def as_rational(self) -> GaussRat | None:
        """The coefficient if this scalar is rational (unit part trivial):
        ``GR_ZERO`` for zero, ``None`` when some unit is nontrivial."""
        if not self.terms:
            return GR_ZERO
        return self.terms.get(None) if len(self.terms) == 1 else None

    # -- ring operations ---------------------------------------------------
    def __add__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = as_scalar(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for u, c in other.terms.items():
            acc = out.get(u)
            out[u] = c if acc is None else acc + c
        return Scalar(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        return self + (-as_scalar(other))

    def __rsub__(self, other) -> "Scalar":
        return as_scalar(other) - self

    def __neg__(self) -> "Scalar":
        return Scalar({u: -c for u, c in self.terms.items()})

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            if other.__class__ is GaussRat or isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        out: dict[Unit | None, GaussRat] = {}
        for u1, c1 in self.terms.items():
            for u2, c2 in other.terms.items():
                u, c = _unit_mul(u1, u2, c1 * c2)
                acc = out.get(u)
                out[u] = c if acc is None else acc + c
        return Scalar(out)

    __rmul__ = __mul__

    def scale(self, x) -> "Scalar":
        if x.__class__ is not GaussRat:
            x = as_gauss(x)
        return Scalar({u: c * x for u, c in self.terms.items()})

    def inverse(self) -> "Scalar":
        """Invert a one-term scalar; anything else is not a unit here."""
        if len(self.terms) != 1:
            raise ZeroDivisionError(
                "only group-algebra monomials are invertible "
                f"(got {len(self.terms)} terms)")
        (u, c), = self.terms.items()
        if u is None:
            u = UNIT_ONE
        u, c = _unit(-u.e_exp, -u.lam_exp, -u.zeta_exp, GR_ONE / c)
        return Scalar({u: c})

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = S_ONE
        for _ in range(n):
            out = out * self
        return out

    # -- container protocol ----------------------------------------------
    def __eq__(self, other) -> bool:
        if other.__class__ is not Scalar:
            return NotImplemented
        return self.terms == other.terms

    def sorted_terms(self) -> list[tuple[Unit, GaussRat]]:
        """The terms in unit order, the trivial unit spelled ``UNIT_ONE``."""
        return sorted(
            ((UNIT_ONE if u is None else u, c) for u, c in self.terms.items()),
            key=lambda t: (t[0].e_exp.sort_key(), t[0].lam_exp.sort_key(),
                           t[0].zeta_exp.sort_key()))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for u, c in self.sorted_terms():
            factors = [str(c) if c.is_real else f"({c})"]
            if not u.e_exp.is_zero:
                factors.append(f"E({u.e_exp})")
            if not u.lam_exp.is_zero:
                factors.append(f"lam^({u.lam_exp})")
            if not u.zeta_exp.is_zero:
                factors.append(f"zeta^({u.zeta_exp})")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<Scalar {self}>"


_set_terms = Scalar.terms.__set__


def as_scalar(x) -> Scalar:
    if x.__class__ is Scalar:
        return x
    return Scalar({None: as_gauss(x)})


S_ZERO = Scalar()
S_ONE = Scalar({None: GR_ONE})
S_MINUS_ONE = Scalar({None: -GR_ONE})


def E(kappa) -> Scalar:
    """The branch unit E(kappa), normalized."""
    return Scalar.from_unit(e_exp=as_gauss(kappa))


def lam_pow(e) -> Scalar:
    return Scalar.from_unit(lam_exp=as_gauss(e))


def zeta_pow(e) -> Scalar:
    return Scalar.from_unit(zeta_exp=as_gauss(e))


def sign_pow(n: int) -> Scalar:
    """(-1)**n as a Scalar."""
    return S_MINUS_ONE if n % 2 else S_ONE


def branch_phase(kappa, n_branch: int) -> Scalar:
    """The formal phase exp(i*pi*N*kappa) = E(N*kappa) for odd N."""
    if n_branch % 2 == 0:
        raise ValueError("branch parameter N must be odd")
    return E(as_gauss(kappa) * n_branch)
