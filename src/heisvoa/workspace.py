"""The memo tables of one verification run.

Every memo that outlives a single operator lives in one ``Workspace``:

* ``binom``: generalized binomials, keyed (kappa, m);
* ``mode``: the modes a(n), n != 0, on one oscillator monomial (a
  parts tuple), keyed (color, n, parts); they never read a label, so
  one entry serves every sector;
* ``virasoro``, ``vertex``: L(n) and u(n) of M(1) on one monomial,
  keyed (n, rank, parts) and (head parts, n, parts); a sector label
  reaches them only through Li's Delta, outside the table, so one
  entry serves every sector;
* ``chain``: the coefficients of the label-mode exponentials, keyed
  (alpha, side, parts) for the coordinate tuple alpha of the
  exponential's label, without the series argument; they serve the
  intertwiner, Li's Delta and the two-variable dressings;
* ``coeff``: the intertwiner half-kernels H(j) = [z^j] Y(u,z) Yplus t,
  one lazily grown list per (label, head parts, sector that Y(u,z)
  reads, target parts), over the exponents j read so far.

The kernel tables hold ``dict[parts, GaussRat]`` values, which callers
never mutate and no ``State`` holds: a State accumulates them, sector
by sector and unit slot by unit slot, into dicts of its own.  They
carry no unit, so two operators that differ in their cocycle or in
their scalar coefficients share every entry.  ``heisvoa verify`` starts
each run on a fresh workspace; library callers and tests use the
current one.
"""

from __future__ import annotations


class Workspace:
    __slots__ = ("binom", "mode", "virasoro", "vertex", "chain", "coeff")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, {})

    def sizes(self) -> dict[str, int]:
        """Entry count of every table."""
        return {name: len(getattr(self, name)) for name in self.__slots__}


_current = Workspace()


def current() -> Workspace:
    return _current


def fresh() -> Workspace:
    """Replace the current workspace with an empty one and return it."""
    global _current
    _current = Workspace()
    return _current
