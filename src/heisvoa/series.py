"""Windowed formal series in one variable with exponents in a coset kappa+Z.

A series carries an ``offset`` kappa and an integer window ``[lo, hi]``;
the coefficient of z**(kappa+n) is stored for lo <= n <= hi.  Below the
window the series vanishes by construction (lower truncation); above it
the coefficients are unknown, never silently zero.  All arithmetic
propagates windows pessimistically, so an in-window coefficient can
never change when inputs are recomputed on larger windows.

``hi=None`` marks a series that is known everywhere above ``lo`` (for
example a terminating exponential).  Series built from annihilation-side
expansions may set ``upper=True``: the roles flip, coefficients vanish
above ``hi`` and are unknown below ``lo`` (``lo=None``: known everywhere).
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator

from .scalars import GR_ZERO, GaussRat, as_gauss, binom


class CosetError(ValueError):
    """Exponent or offset outside the coset dictated by the labels."""


class WindowError(ValueError):
    """A window was requested that the inputs or the cutoff cannot support."""


def _is_zero(c) -> bool:
    z = getattr(c, "is_zero", None)
    return (not c) if z is None else z


def _scale(v, c):
    f = getattr(v, "scale", None)
    return f(c) if f is not None else v * c


class WindowedSeries:
    __slots__ = ("offset", "lo", "hi", "coeffs", "zero", "upper")

    def __init__(self, offset, lo: int | None, hi: int | None,
                 coeffs: dict, zero, upper: bool = False):
        self.offset = as_gauss(offset)
        self.lo = lo
        self.hi = hi
        self.coeffs = {n: c for n, c in coeffs.items() if not _is_zero(c)}
        self.zero = zero
        self.upper = upper
        if upper and hi is None:
            raise WindowError("upper-truncated series needs a finite hi")
        if not upper and lo is None:
            raise WindowError("lower-truncated series needs a finite lo")
        for n in self.coeffs:
            if (lo is not None and n < lo) or (hi is not None and n > hi):
                raise WindowError(f"coefficient index {n} outside window")

    # -- access -----------------------------------------------------------
    def known(self, n: int) -> bool:
        if self.upper:
            return self.lo is None or n >= self.lo
        return self.hi is None or n <= self.hi

    def coefficient(self, n: int):
        """Coefficient at z**(offset+n); raises if the window does not cover it."""
        if not self.known(n):
            raise WindowError(f"coefficient {n} not covered by window "
                              f"[{self.lo}, {self.hi}]")
        return self.coeffs.get(n, self.zero)

    def coefficient_at(self, exponent):
        return self.coefficient(exponent_index(self.offset, exponent))

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    # -- arithmetic ---------------------------------------------------------
    def _aligned(self, other: "WindowedSeries") -> int:
        d = other.offset - self.offset
        if not d.is_integer:
            raise CosetError(f"offsets {self.offset} and {other.offset} "
                             "differ by a non-integer")
        return int(d.re)

    def __add__(self, other: "WindowedSeries") -> "WindowedSeries":
        if self.upper != other.upper:
            raise WindowError("cannot add series of opposite truncation")
        d = self._aligned(other)
        coeffs = dict(self.coeffs)
        for n, c in other.coeffs.items():
            m = n + d
            coeffs[m] = coeffs.get(m, self.zero) + c
        if self.upper:
            lo = _known_floor(self.lo, _shift(other.lo, d))
            hi = min(self.hi, other.hi + d)
        else:
            lo = min(self.lo, other.lo + d)
            hi = _known_ceil(self.hi, _shift(other.hi, d))
        return WindowedSeries(self.offset, lo, hi, coeffs, self.zero, self.upper)

    def __sub__(self, other: "WindowedSeries") -> "WindowedSeries":
        return self + other.scale(-1)

    def scale(self, c) -> "WindowedSeries":
        return self.map(lambda v: _scale(v, c))

    def map(self, f: Callable) -> "WindowedSeries":
        return WindowedSeries(self.offset, self.lo, self.hi,
                              {n: f(c) for n, c in self.coeffs.items()},
                              self.zero, self.upper)

    def mul(self, other: "WindowedSeries", mul: Callable = operator.mul,
            zero=None) -> "WindowedSeries":
        """Cauchy product.

        The output window is the largest one on which every coefficient is
        a complete convolution: [alo+blo, min(ahi+blo, alo+bhi)].
        """
        if self.upper or other.upper:
            raise WindowError("product of upper-truncated series not supported")
        lo = self.lo + other.lo
        hi = _known_ceil(_shift(self.hi, other.lo), _shift(other.hi, self.lo))
        zero = other.zero if zero is None else zero
        coeffs: dict[int, object] = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                n = i + j
                if hi is not None and n > hi:
                    continue
                v = mul(a, b)
                acc = coeffs.get(n)
                coeffs[n] = v if acc is None else acc + v
        return WindowedSeries(self.offset + other.offset, lo, hi, coeffs, zero)

    __mul__ = mul

    def derive(self) -> "WindowedSeries":
        """Termwise d/dz: c at kappa+n moves to (kappa+n)*c at kappa+n-1."""
        coeffs = {}
        for n, c in self.coeffs.items():
            k = self.offset + n
            if not k.is_zero:
                coeffs[n - 1] = _scale(c, k)
        return WindowedSeries(self.offset, _shift(self.lo, -1),
                              _shift(self.hi, -1), coeffs, self.zero, self.upper)

    # -- comparison -----------------------------------------------------------
    def compare_span(self, other: "WindowedSeries") -> tuple[int, int] | None:
        """Common known index span (in self's indexing), or None if empty.

        For two lower-truncated series this is [min(lo), min(known-hi)]:
        indices below both lo are known zero on both sides, so the span
        starts at the smaller lo to catch one-sided nonzero coefficients.
        """
        d = self._aligned(other)
        if self.upper != other.upper:
            raise WindowError("cannot compare series of opposite truncation")
        if self.upper:
            lo = _known_floor(self.lo, _shift(other.lo, d))
            hi = min(self.hi, other.hi + d)
            if lo is None:
                lo = min([hi] + list(self.coeffs) + [n + d for n in other.coeffs])
        else:
            lo = min(self.lo, other.lo + d)
            hi = _known_ceil(self.hi, _shift(other.hi, d))
            if hi is None:
                hi = max([lo] + list(self.coeffs) + [n + d for n in other.coeffs])
        return None if hi < lo else (lo, hi)

    def __eq__(self, other) -> bool:
        """Coefficientwise equality on the known window intersection."""
        if not isinstance(other, WindowedSeries):
            return NotImplemented
        span = self.compare_span(other)
        if span is None:
            return True
        d = self._aligned(other)
        lo, hi = span
        return all(self.coeffs.get(n, self.zero) == other.coeffs.get(n - d, other.zero)
                   for n in range(lo, hi + 1))

    __hash__ = None

    def __str__(self) -> str:
        terms = [f"({c}) z^({self.offset + n})" for n, c in sorted(self.coeffs.items())]
        body = " + ".join(terms) if terms else "0"
        return f"{body}  on [{self.lo},{self.hi}]+({self.offset})"


def exponent_index(offset: GaussRat, exponent) -> int:
    """The integer n with exponent = offset + n, or CosetError."""
    d = as_gauss(exponent) - offset
    if not d.is_integer:
        raise CosetError(f"exponent {exponent} not in coset ({offset})+Z")
    return int(d.re)


def constant_series(value, zero, offset=GR_ZERO, hi: int | None = None) -> WindowedSeries:
    """The series value * z**offset, known everywhere below and up to ``hi``."""
    return WindowedSeries(offset, 0, hi, {0: value}, zero)


def binom_expand(kappa, sign: int, mmax: int) -> Iterator[tuple[GaussRat, int, GaussRat]]:
    """Coefficient stream of (x + sign*y)**kappa in nonnegative powers of y.

    Yields (x_exponent, y_exponent, coefficient) for y-degree m = 0..mmax;
    the caller decides which formal variable plays x.  Expansion direction
    is fixed once and for all: positive powers of the second summand.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    kappa = as_gauss(kappa)
    for m in range(mmax + 1):
        c = binom(kappa, m)
        if sign < 0 and m % 2:
            c = -c
        yield kappa - m, m, c


def _shift(x: int | None, d: int) -> int | None:
    return None if x is None else x + d


def _known_ceil(a: int | None, b: int | None) -> int | None:
    """Combine two upper known-bounds (None = unbounded)."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _known_floor(a: int | None, b: int | None) -> int | None:
    """Combine two lower known-bounds for upper-truncated series."""
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)
