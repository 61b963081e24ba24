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
of normalized terms.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Union

Rat = Union[int, Fraction]


def _frac(x: Rat | str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class GaussRat:
    """A Gaussian rational re + im*i with arbitrary-precision parts."""

    __slots__ = ("re", "im", "_hash")

    def __init__(self, re: Rat | str = 0, im: Rat | str = 0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    # -- predicates ---------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    @property
    def is_integer(self) -> bool:
        return not self.im and self.re.denominator == 1

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other) -> "GaussRat":
        other = as_gauss(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussRat":
        other = as_gauss(other)
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussRat":
        return as_gauss(other) - self

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other) -> "GaussRat":
        other = as_gauss(other)
        if not self.im and not other.im:
            return GaussRat(self.re * other.re)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussRat":
        other = as_gauss(other)
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero GaussRat")
        return GaussRat(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

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
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussRat):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.re, self.im))
            object.__setattr__(self, "_hash", h)
        return h

    def sort_key(self):
        return (self.re, self.im)

    # -- text form ------------------------------------------------------
    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if not self.im:
            return str(self.re)
        imag = f"{abs(self.im)}*i"
        if not self.re:
            return imag if self.im > 0 else "-" + imag
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{imag}"

    def __repr__(self) -> str:
        return f"GaussRat({self.re!r}, {self.im!r})"

    @classmethod
    def parse(cls, text: str) -> "GaussRat":
        """Parse the ``a/b+c/d*i`` form (either term optional, signs explicit)."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty GaussRat literal")
        re_part = Fraction(0)
        im_part = Fraction(0)
        for term in _TERM_RE.findall(s):
            if not term:
                continue
            if term in ("i", "+i", "-i"):
                im_part += -1 if term.startswith("-") else 1
            elif term.endswith("*i") or term.endswith("i"):
                body = term[:-2] if term.endswith("*i") else term[:-1]
                im_part += Fraction(body)
            else:
                re_part += Fraction(term)
        joined = "".join(_TERM_RE.findall(s))
        if joined != s:
            raise ValueError(f"malformed GaussRat literal: {text!r}")
        return cls(re_part, im_part)


_TERM_RE = re.compile(r"[+-]?(?:\d+(?:/\d+)?(?:\*i)?|i)")


def as_gauss(x) -> GaussRat:
    """Coerce an int, Fraction, string, or GaussRat to a GaussRat."""
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    if isinstance(x, str):
        return GaussRat.parse(x)
    raise TypeError(f"cannot coerce {x!r} to GaussRat")


def gr(re=0, im=0) -> GaussRat:
    if isinstance(re, str) and im == 0:
        return GaussRat.parse(re)
    return GaussRat(_frac(re), _frac(im))


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)
GR_I = GaussRat(0, 1)


def binom(kappa, m: int) -> GaussRat:
    """Generalized binomial kappa*(kappa-1)*...*(kappa-m+1)/m!."""
    if m < 0:
        raise ValueError("binomial lower index must be a natural number")
    kappa = as_gauss(kappa)
    key = (kappa, m)
    hit = _BINOM_CACHE.get(key)
    if hit is not None:
        return hit
    out = GR_ONE
    for j in range(m):
        out = out * (kappa - j)
    out = out / GaussRat(math.factorial(m))
    _BINOM_CACHE[key] = out
    return out


_BINOM_CACHE: dict = {}


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
    m = math.floor(kappa.re)
    sign = -1 if m % 2 else 1
    return sign, GaussRat(kappa.re - m, kappa.im)


class Scalar:
    """Element of the group algebra: a finite sum coeff * unit."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Unit, GaussRat] | None = None, *, _clean=False):
        if terms is None:
            terms = {}
        if not _clean:
            terms = {u: c for u, c in terms.items() if not c.is_zero}
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors ---------------------------------------------------
    @classmethod
    def rational(cls, x) -> "Scalar":
        x = as_gauss(x)
        if x.is_zero:
            return S_ZERO
        return cls({UNIT_ONE: x}, _clean=True)

    @classmethod
    def from_unit(cls, e_exp=GR_ZERO, lam_exp=GR_ZERO, zeta_exp=GR_ZERO,
                  coeff=GR_ONE) -> "Scalar":
        coeff = as_gauss(coeff)
        if coeff.is_zero:
            return S_ZERO
        sign, e_norm = _normalize_e(as_gauss(e_exp))
        if sign < 0:
            coeff = -coeff
        unit = Unit(e_norm, as_gauss(lam_exp), as_gauss(zeta_exp))
        return cls({unit: coeff}, _clean=True)

    # -- queries ----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms.get(UNIT_ONE) == GR_ONE and len(self.terms) == 1

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def as_rational(self) -> GaussRat | None:
        """The coefficient if this scalar is rational (unit part trivial)."""
        if self.is_zero:
            return GR_ZERO
        if len(self.terms) == 1 and UNIT_ONE in self.terms:
            return self.terms[UNIT_ONE]
        return None

    # -- ring operations ---------------------------------------------------
    def __add__(self, other) -> "Scalar":
        other = as_scalar(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        out = dict(self.terms)
        for u, c in other.terms.items():
            acc = out.get(u)
            if acc is None:
                out[u] = c
            else:
                s = acc + c
                if s.is_zero:
                    del out[u]
                else:
                    out[u] = s
        return Scalar(out, _clean=True)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        return self + (-as_scalar(other))

    def __rsub__(self, other) -> "Scalar":
        return as_scalar(other) + (-self)

    def __neg__(self) -> "Scalar":
        return Scalar({u: -c for u, c in self.terms.items()}, _clean=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            return self.scale(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return S_ZERO
        # pure rationals multiply without touching the unit group
        r = self.as_rational()
        if r is not None:
            return other.scale(r)
        r = other.as_rational()
        if r is not None:
            return self.scale(r)
        out: dict[Unit, GaussRat] = {}
        for u1, c1 in self.terms.items():
            for u2, c2 in other.terms.items():
                sign, e_norm = _normalize_e(u1.e_exp + u2.e_exp)
                u = Unit(e_norm, u1.lam_exp + u2.lam_exp, u1.zeta_exp + u2.zeta_exp)
                c = c1 * c2
                if sign < 0:
                    c = -c
                acc = out.get(u)
                if acc is None:
                    out[u] = c
                else:
                    s = acc + c
                    if s.is_zero:
                        del out[u]
                    else:
                        out[u] = s
        return Scalar(out, _clean=True)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            return self.scale(other)
        return NotImplemented

    def scale(self, x) -> "Scalar":
        x = as_gauss(x)
        if x.is_zero or self.is_zero:
            return S_ZERO
        return Scalar({u: c * x for u, c in self.terms.items()}, _clean=True)

    def inverse(self) -> "Scalar":
        """Invert a one-term scalar; anything else is not a unit here."""
        if len(self.terms) != 1:
            raise ZeroDivisionError(
                "only group-algebra monomials are invertible "
                f"(got {len(self.terms)} terms)")
        (u, c), = self.terms.items()
        sign, e_norm = _normalize_e(-u.e_exp)
        coeff = GR_ONE / c
        if sign < 0:
            coeff = -coeff
        inv = Unit(e_norm, -u.lam_exp, -u.zeta_exp)
        return Scalar({inv: coeff}, _clean=True)

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = S_ONE
        for _ in range(n):
            out = out * self
        return out

    def specialize_lambda_i(self) -> "Scalar":
        """Evaluate lam at sqrt(-1); requires integer lam exponents."""
        out = S_ZERO
        for u, c in self.terms.items():
            if not u.lam_exp.is_integer:
                raise ValueError("lam exponent not an integer; cannot set lam=i")
            k = int(u.lam_exp.re)
            i_pow = GR_I ** (k % 4)
            out = out + Scalar.from_unit(u.e_exp, GR_ZERO, u.zeta_exp,
                                         coeff=c * i_pow)
        return out

    # -- container protocol ----------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussRat)):
            other = Scalar.rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def sorted_terms(self) -> list[tuple[Unit, GaussRat]]:
        return sorted(
            self.terms.items(),
            key=lambda t: (t[0].e_exp.sort_key(), t[0].lam_exp.sort_key(),
                           t[0].zeta_exp.sort_key()))

    def __iter__(self) -> Iterator[tuple[Unit, GaussRat]]:
        return iter(self.sorted_terms())

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for u, c in self.sorted_terms():
            factors = [str(c) if (c.is_real and c.im == 0) else f"({c})"]
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


def as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction, GaussRat, str)):
        return Scalar.rational(as_gauss(x))
    raise TypeError(f"cannot coerce {x!r} to Scalar")


S_ZERO = Scalar({}, _clean=True)
S_ONE = Scalar({UNIT_ONE: GR_ONE}, _clean=True)
S_MINUS_ONE = Scalar({UNIT_ONE: -GR_ONE}, _clean=True)


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


def parse_scalar(text: str) -> Scalar:
    """Inverse of Scalar.__str__ (used by the state parser and reports)."""
    out = S_ZERO
    for piece in _split_terms(text):
        coeff = GR_ONE
        e_exp = lam_exp = zeta_exp = GR_ZERO
        for factor in _split_factors(piece):
            f = factor.strip()
            if f.startswith("E(") and f.endswith(")"):
                e_exp = e_exp + GaussRat.parse(f[2:-1])
            elif f.startswith("lam^"):
                lam_exp = lam_exp + GaussRat.parse(f[4:].strip("()"))
            elif f.startswith("zeta^"):
                zeta_exp = zeta_exp + GaussRat.parse(f[5:].strip("()"))
            else:
                coeff = coeff * GaussRat.parse(f.strip("()"))
        out = out + Scalar.from_unit(e_exp, lam_exp, zeta_exp, coeff)
    return out


def _split_terms(text: str) -> list[str]:
    return [t for t in text.replace(" + ", "\x00").split("\x00") if t.strip()]


def _split_factors(term: str) -> list[str]:
    # complex coefficients are always parenthesized, so a '*' at paren
    # depth zero is a factor separator
    out, depth, cur = [], 0, []
    for ch in term:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out
