"""Exponent cosets of the operator coefficients.

An operator applied to a target on one label yields exponents in a single
coset kappa+Z, where kappa is fixed by the labels; ``exponent_index``
turns an exponent into its integer offset n from kappa and raises
``CosetError`` for an exponent outside the coset.
"""

from __future__ import annotations

from .scalars import GaussRat, as_gauss


class CosetError(ValueError):
    """Exponent or offset outside the coset dictated by the labels."""


def exponent_index(offset: GaussRat, exponent) -> int:
    """The integer n with exponent = offset + n, or CosetError."""
    d = as_gauss(exponent) - offset
    if not d.is_integer:
        raise CosetError(f"exponent {exponent} not in coset ({offset})+Z")
    return d.a
