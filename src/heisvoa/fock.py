"""Fock states over the rank-l free-boson algebra and their mode actions.

States are finite linear combinations of monomials
a[i1](-k1)...a[ir](-kr)|alpha> with exact coefficients in the group
algebra of the units, where the module label alpha is an l-tuple of
Gaussian rationals.  Each module is M(1,alpha) = M(1) (x) e^alpha, so a
State stores one sector per label: the sector of alpha is a unit sum,
one rational term dict per unit, keyed by the creation parts alone (the
oscillator factor in M(1)).  A per-monomial Scalar is built only when a
state is read through ``items_sorted``.  Colors i are 1-based
throughout, matching the text format ``a[i,-k]``.  The modes a[i](n)
for n != 0 act on the oscillator factor only; the zero mode a[i](0)
acts on the sector of alpha by the eigenvalue alpha_i.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .scalars import (
    GR_ONE,
    GR_ZERO,
    GaussRat,
    S_ONE,
    Scalar,
    _reduce,
    _unit_mul,
    as_gauss,
    as_scalar,
    binom,
)
from .report import VerificationReport
from .workspace import current

Part = tuple[int, int]  # (color, level), level >= 1


class Label:
    """A module label: an l-tuple of Gaussian rationals.

    Immutable, and it stores the hash of ``alpha``: labels key the
    sectors of every State, so a probe costs one stored read instead of
    one Python-level ``GaussRat.__hash__`` per coordinate.
    """

    __slots__ = ("alpha", "_hash")

    def __init__(self, alpha: tuple[GaussRat, ...]):
        alpha = tuple(alpha)
        _set_alpha(self, alpha)
        _set_label_hash(self, hash(alpha))

    def __setattr__(self, name, value):
        raise AttributeError("Label is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not Label:
            return NotImplemented
        return self is other or (self._hash == other._hash
                                 and self.alpha == other.alpha)

    def __repr__(self) -> str:
        return f"Label(alpha={self.alpha!r})"

    @property
    def rank(self) -> int:
        return len(self.alpha)

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for a in self.alpha)

    def dot(self, other: "Label") -> GaussRat:
        if self.rank != other.rank:
            raise ValueError("label rank mismatch")
        out = GR_ZERO
        for a, b in zip(self.alpha, other.alpha):
            out = out + a * b
        return out

    def norm2(self) -> GaussRat:
        return self.dot(self)

    def __add__(self, other: "Label") -> "Label":
        if self.rank != other.rank:
            raise ValueError("label rank mismatch")
        return Label(tuple(a + b for a, b in zip(self.alpha, other.alpha)))

    def __neg__(self) -> "Label":
        return Label(tuple(-a for a in self.alpha))

    def __sub__(self, other: "Label") -> "Label":
        return self + (-other)

    def scale(self, c) -> "Label":
        c = as_gauss(c)
        return Label(tuple(a * c for a in self.alpha))

    def sort_key(self):
        return tuple(x.sort_key() for x in self.alpha)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.alpha)


_set_alpha = Label.alpha.__set__
_set_label_hash = Label._hash.__set__


def label(values: Iterable) -> Label:
    return Label(tuple(as_gauss(v) for v in values))


def zero_label(rank: int) -> Label:
    return Label((GR_ZERO,) * rank)


class FockMonomial(NamedTuple):
    label: Label
    parts: tuple[Part, ...]  # canonically sorted

    @property
    def levels_sum(self) -> int:
        return sum(k for _, k in self.parts)

    def sort_key(self):
        return (self.label.sort_key(), self.parts)


def monomial(lab: Label, parts: Iterable[Part] = ()) -> FockMonomial:
    ps = tuple(sorted(parts))
    for i, k in ps:
        if k < 1:
            raise ValueError("creation levels must be >= 1")
        if not 1 <= i <= lab.rank:
            raise ValueError(f"color {i} out of range for rank {lab.rank}")
    return FockMonomial(lab, ps)


Terms = dict  # dict[tuple[Part, ...], GaussRat], keyed by creation parts
UnitSum = dict  # dict[Unit | None, Terms]
Sectors = dict  # dict[Label, UnitSum]


def _levels(parts: tuple[Part, ...]) -> int:
    return sum(k for _, k in parts)


class State:
    """A finite linear combination of Fock monomials with coefficients in
    the group algebra of the units over the Gaussian rationals.

    It is stored by sector: ``sectors[lab][u][parts]`` is the rational
    coefficient of the unit ``u`` on the monomial ``monomial(lab, parts)``,
    and the unit key ``None`` holds the unit-free part, the key a
    ``Scalar`` gives it too.  Each sector is a unit sum over parts-keyed
    term dicts, the layout the kernels build.  The form is canonical (no
    empty sector, no empty unit slot, no zero entry), so equal states have
    equal dicts.  A State owns its dicts: the constructor takes freshly
    built ones, never a memo table's or another State's.  ``FockMonomial``
    stays the public monomial type: ``of`` and ``items_sorted`` translate.
    """

    __slots__ = ("rank", "sectors", "_hash")

    def __init__(self, rank: int, sectors: Sectors | None = None):
        object.__setattr__(self, "rank", rank)
        out = {}
        if sectors:
            for lab, us in sectors.items():
                us = {u: t for u, t in us.items() if t}
                if us:
                    out[lab] = us
        object.__setattr__(self, "sectors", out)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("State is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, rank: int) -> "State":
        return cls(rank)

    @classmethod
    def of(cls, mono: FockMonomial, coeff=S_ONE) -> "State":
        return cls(mono.label.rank,
                   {mono.label: {u: {mono.parts: q}
                                 for u, q in as_scalar(coeff).terms.items()}})

    @classmethod
    def vacuum(cls, rank: int, lab: Label | None = None) -> "State":
        return cls.of(monomial(lab if lab is not None else zero_label(rank)))

    # -- linear structure ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.sectors

    def __add__(self, other: "State") -> "State":
        if not isinstance(other, State):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.rank != other.rank:
            raise ValueError("state rank mismatch")
        out = _copy(self.sectors)
        _add_sectors(out, GR_ONE, other.sectors)
        return State(self.rank, out)

    def __sub__(self, other: "State") -> "State":
        return self + other.scale(-1)

    def scale(self, c) -> "State":
        c = as_scalar(c)
        if c.is_one:
            return self
        out: Sectors = {}
        _add_sectors(out, GR_ONE, self.sectors, c)
        return State(self.rank, out)

    # -- structure queries ------------------------------------------------------
    def single_label(self) -> Label:
        if len(self.sectors) != 1:
            raise ValueError("state is not label-homogeneous "
                             f"({len(self.sectors)} labels)")
        return next(iter(self.sectors))

    def max_levels(self) -> int:
        """Largest level sum over the monomials (0 for the zero state)."""
        return max((_levels(p) for us in self.sectors.values()
                    for t in us.values() for p in t), default=0)

    def items_sorted(self) -> list[tuple[FockMonomial, Scalar]]:
        """The (monomial, Scalar coefficient) pairs in monomial order."""
        out = []
        for lab, us in sorted(self.sectors.items(), key=lambda x: x[0].sort_key()):
            merged: dict[tuple[Part, ...], dict] = {}
            for u, t in us.items():
                for p, q in t.items():
                    merged.setdefault(p, {})[u] = q
            out += [(FockMonomial(lab, p), Scalar(merged[p], _clean=True))
                    for p in sorted(merged)]
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self.rank == other.rank and self.sectors == other.sectors

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.rank, frozenset(
                (lab, frozenset((u, frozenset(t.items())) for u, t in us.items()))
                for lab, us in self.sectors.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return format_state(self)

    def __repr__(self) -> str:
        return f"<State {self}>"


# ---------------------------------------------------------------------------
# mode actions


# The kernels below act on one oscillator monomial of M(1), a parts
# tuple, and return a rational term dict dict[tuple[Part, ...], GaussRat],
# memoized in the run's workspace; callers never mutate it.  No kernel
# reads a label: the sector enters only through Li's Delta (H. Li,
# J. Algebra 196, 1997), Y(u,z) on M(1,lambda) = Y(Delta(lambda,z)u, z)
# on M(1).  So a(0) is the scalar lambda_i, L(n) gains lambda(n) and
# lambda.lambda/2, and u(n) sums label-free kernels over lambda's
# annihilation chain.  The public functions apply the kernels sector by
# sector and unit slot by unit slot of a State and accumulate into fresh
# dicts, so the unit group is multiplied only where a unit-bearing Scalar
# or a second State enters.


def _accumulate(out: Terms, c: GaussRat, terms: Terms) -> None:
    """out += c * terms in place, deleting entries that cancel to zero.

    A fused multiply-add on the int triples: one normalization per term.
    """
    ca, cb, cd = c.a, c.b, c.d
    if not ca and not cb:
        return
    one = not cb and ca == cd  # normalized, so c == 1
    for m, x in terms.items():
        acc = out.get(m)
        if one:
            if acc is None:
                out[m] = x  # immutable, so the entry can be shared
                continue
            a, b, d = x.a, x.b, x.d
        else:
            xa, xb = x.a, x.b
            a = ca * xa - cb * xb
            b = ca * xb + cb * xa
            d = cd * x.d
        if acc is not None:
            e = acc.d
            if e == d:
                a += acc.a
                b += acc.b
            else:
                a = a * e + acc.a * d
                b = b * e + acc.b * d
                d *= e
            if not a and not b:
                del out[m]
                continue
        out[m] = _reduce(a, b, d)


def _add_units(out: UnitSum, q: GaussRat, us: UnitSum,
               c: Scalar | None = None) -> None:
    """out += q * c * us for a rational q and an optional Scalar c.

    Each unit key of c multiplies each unit key of us through
    ``_unit_mul``.  Slots that cancel stay behind empty; ``State`` drops
    them.
    """
    if c is None:
        for u, terms in us.items():
            _accumulate(out.setdefault(u, {}), q, terms)
        return
    for cu, cq in c.terms.items():
        x = q * cq
        for u, terms in us.items():
            v, y = _unit_mul(u, cu, x)
            _accumulate(out.setdefault(v, {}), y, terms)


def _add_sectors(out: Sectors, q: GaussRat, sectors: Sectors,
                 c: Scalar | None = None) -> None:
    """out += q * c * sectors, one ``_add_units`` per sector."""
    for lab, us in sectors.items():
        _add_units(out.setdefault(lab, {}), q, us, c)


def _copy(sectors: Sectors) -> Sectors:
    """Fresh dicts holding the same entries."""
    return {lab: {u: dict(t) for u, t in us.items()} for lab, us in sectors.items()}


def _map(s: State, kernel) -> State:
    """The linear extension to a State of kernel: (label, parts) -> Terms,
    for a kernel that keeps the sector."""
    out: Sectors = {}
    for lab, us in s.sectors.items():
        sec = out[lab] = {}
        for u, t in us.items():
            acc = sec[u] = {}
            for p, q in t.items():
                _accumulate(acc, q, kernel(lab, p))
    return State(s.rank, out)


def apply_mode(color: int, n: int, s: State) -> State:
    """The Heisenberg mode a[color](n) acting on a state.

    Creation for n < 0, zero-mode eigenvalue for n = 0, contraction
    against matching creation parts for n > 0 via [a(n), a(-n)] = n.
    """
    if not 1 <= color <= s.rank:
        raise ValueError(f"color {color} out of range for rank {s.rank}")
    if n:
        return _map(s, lambda lab, p: _mode_on_monomial(color, n, p))
    out: Sectors = {}
    for lab, us in s.sectors.items():
        a = lab.alpha[color - 1]
        if not a.is_zero:
            _add_units(out.setdefault(lab, {}), a, us)
    return State(s.rank, out)


def _mode_on_monomial(color: int, n: int, parts: tuple[Part, ...]) -> Terms:
    """a[color](n) on the oscillator monomial ``parts``, for n != 0."""
    key = (color, n, parts)
    table = current().mode
    hit = table.get(key)
    if hit is None:
        if n < 0:
            hit = {tuple(sorted(parts + ((color, -n),))): GR_ONE}
        else:
            mult = parts.count((color, n))
            if mult == 0:
                hit = {}
            else:
                rest = list(parts)
                rest.remove((color, n))
                hit = {tuple(rest): as_gauss(n * mult)}
        table[key] = hit
    return hit


def _mode_chain(avec: tuple, sign: int, parts: tuple[Part, ...],
                order: int) -> list[Terms]:
    """Coefficients B_0..B_order of exp(-+ sum_{n>0} a(+-n)/n z^(+-n))
    on the oscillator monomial ``parts``, for a = avec.

    sign=-1 is the creation side (coefficients of z^k), sign=+1 the
    annihilation side (coefficients of z^-k).  Only modes a(n) with
    n != 0 enter, so the chain never reads a sector label and one chain
    serves every sector.  A series argument enters B_k as the factor
    arg^k, which the callers apply when they read a coefficient, so one
    chain serves every argument.
    """
    if sign > 0:
        order = min(order, _levels(parts))
    table = current().chain
    key = (avec, sign, parts)
    chain = table.get(key)
    if chain is None:
        chain = [{parts: GR_ONE}]
        table[key] = chain
    if len(chain) > order:
        return chain
    modes = [(i, a) for i, a in enumerate(avec, start=1) if not a.is_zero]
    while len(chain) <= order:
        k = len(chain)
        acc: dict = {}
        for j in range(1, k + 1):
            for pp, pc in chain[k - j].items():
                for i, a in modes:
                    _accumulate(acc, pc * a, _mode_on_monomial(i, sign * j, pp))
        inv_k = as_gauss(Fraction(-sign, k))
        chain.append({p: c * inv_k for p, c in acc.items()})
    return chain


def _delta_terms(uparts: tuple[Part, ...],
                 lab: Label) -> list[tuple[GaussRat, tuple[Part, ...], int]]:
    """u(n) on the sector lab, u = a(uparts)|0>, is the sum over the
    (c, parts, k) of c times the kernel of a(parts)|0> at mode n - k:
    Delta(lab,z)u = Yplus(lab,-z)u = sum_k (-1)^k z^-k B_k u for the
    annihilation chain B of lab."""
    if lab.is_zero:
        return [(GR_ONE, uparts, 0)]
    chain = _mode_chain(lab.alpha, 1, uparts, _levels(uparts))
    return [(-c if k % 2 else c, p, k)
            for k, terms in enumerate(chain) for p, c in terms.items()]


def virasoro_mode(n: int, s: State) -> State:
    """L(n) by the direct normal-ordered bilinear sum over the modes.

    On the sector of lambda, Delta(lambda,z)omega = omega + z^-1
    lambda(-1)|0> + z^-2 (lambda.lambda/2)|0> adds lambda(n), n != 0, and
    lambda.lambda/2 at n = 0 to the kernel of M(1)."""
    return _map(s, lambda lab, p: _virasoro_in_sector(n, lab, p))


_HALF = as_gauss(Fraction(1, 2))


def _virasoro_in_sector(n: int, lab: Label, parts: tuple[Part, ...]) -> Terms:
    hit = _virasoro_on_monomial(n, lab.rank, parts)
    if lab.is_zero:
        return hit
    out = dict(hit)
    if n:
        for i, a in enumerate(lab.alpha, start=1):
            if not a.is_zero:
                _accumulate(out, a, _mode_on_monomial(i, n, parts))
    else:
        _accumulate(out, lab.norm2() * _HALF, {parts: GR_ONE})
    return out


def _virasoro_on_monomial(n: int, rank: int, parts: tuple[Part, ...]) -> Terms:
    """L(n) of M(1): the pairs a(j) a(n-j) with j, n-j != 0."""
    key = (n, rank, parts)
    table = current().virasoro
    hit = table.get(key)
    if hit is not None:
        return hit
    candidates = set(range(n + 1, 0))
    for _, k in parts:
        candidates.add(k)
        candidates.add(n - k)
    candidates -= {0, n}
    acc: dict = {}
    for j in sorted(candidates):
        k = n - j
        cr, an = min(j, k), max(j, k)
        for i in range(1, rank + 1):
            for tp, tc in _mode_on_monomial(i, an, parts).items():
                _accumulate(acc, tc, _mode_on_monomial(i, cr, tp))
    hit = {p: c * _HALF for p, c in acc.items()}
    table[key] = hit
    return hit


def vertex_mode(u: State, n: int, s: State) -> State:
    """The mode u(n) of the vertex operator Y(u,z), for untwisted u.

    Built by the creation-left normal-ordered recursion
    Y(a[j](-k-1)v, z) = (1/k!) :d_z^k Y(a[j],z) Y(v,z): starting from
    Y(vacuum,z) = Id and Y(a[j],z) = sum a[j](m) z^(-m-1) on M(1), read
    on each sector of s through Li's Delta (``_delta_terms``)."""
    if not all(lab.is_zero for lab in u.sectors):
        raise ValueError("vertex_mode requires a label-0 (untwisted) head; "
                         "use the intertwiner for charged heads")
    out: Sectors = {}
    for hus in u.sectors.values():
        for lab, sus in s.sectors.items():
            sec = out.setdefault(lab, {})
            for hu, ht in hus.items():
                for up, uq in ht.items():
                    terms = _delta_terms(up, lab)
                    for su, st in sus.items():
                        v, x = _unit_mul(hu, su, uq)
                        acc = sec.setdefault(v, {})
                        for sp, sq in st.items():
                            w = x * sq
                            for c, bp, k in terms:
                                _accumulate(acc, w * c,
                                            _vertex_on_monomials(bp, n - k, sp))
    return State(s.rank, out)


def _vertex_on_monomials(uparts: tuple[Part, ...], n: int,
                         sparts: tuple[Part, ...]) -> Terms:
    """u(n) on M(1) for u = a(uparts)|0>, on the monomial ``sparts``."""
    key = (uparts, n, sparts)
    table = current().vertex
    hit = table.get(key)
    if hit is not None:
        return hit
    if not uparts:
        hit = {sparts: GR_ONE} if n == -1 else {}
        table[key] = hit
        return hit
    (j_color, level), rest = uparts[0], uparts[1:]
    k = level - 1
    kv = _levels(rest)
    ks = _levels(sparts)
    acc: dict = {}
    # annihilation-right part: sum_{m>=1} (-1)^k binom(m+k,k) v(n-m-k-1) a(m) s
    for m in sorted({lev for _, lev in sparts}):
        b = binom(m + k, k)
        if k % 2:
            b = -b
        for tp, tc in _mode_on_monomial(j_color, m, sparts).items():
            _accumulate(acc, tc * b, _vertex_on_monomials(rest, n - m - k - 1, tp))
    # creation-left part: sum_{m<=-1} (-1)^k binom(m+k,k) a(m) v(n-m-k-1) s
    m_lo = n - k - kv - ks  # below this v(n-m-k-1) s dies by truncation
    for m in range(m_lo, 0):
        b = binom(m + k, k)
        if b.is_zero:
            continue
        if k % 2:
            b = -b
        for ip, ic in _vertex_on_monomials(rest, n - m - k - 1, sparts).items():
            _accumulate(acc, ic * b, _mode_on_monomial(j_color, m, ip))
    table[key] = acc
    return acc


def translate_label(s: State, dalpha: Label) -> State:
    """Pure label shift |beta> -> |beta + dalpha| with no scalar factor.

    This is the exponentiated shift operator of the conjugation identities;
    the cocycle-dressed shift lives in the intertwiner layer.  Only the
    sector keys change.
    """
    return State(s.rank, {lab + dalpha: us for lab, us in _copy(s.sectors).items()})


def exp_virasoro_coeffs(n: int, s: State, order: int, sign: int = 1) -> list[State]:
    """Coefficients of exp(sign*z*L(n)) s, i.e. [s, sign*L(n)s, ...,
    sign^p L(n)^p s / p!], up to z-order ``order``."""
    out = [s]
    cur = s
    for p in range(1, order + 1):
        cur = virasoro_mode(n, cur).scale(Fraction(sign, p))
        out.append(cur)
    return out


# ---------------------------------------------------------------------------
# bases


def partitions_colored(rank: int, total: int) -> Iterator[tuple[Part, ...]]:
    """All canonical part tuples with the given level sum."""
    def rec(remaining: int, min_part: Part) -> Iterator[tuple[Part, ...]]:
        if remaining == 0:
            yield ()
            return
        for i in range(1, rank + 1):
            for k in range(1, remaining + 1):
                p = (i, k)
                if p < min_part:
                    continue
                for tail in rec(remaining - k, p):
                    yield (p,) + tail
    yield from rec(total, (1, 1))


def basis_monomials(rank: int, max_levels: int, lab: Label | None = None,
                    exact: bool = False) -> list[FockMonomial]:
    """Fock basis with level sum <= max_levels (or == if exact)."""
    lab = lab if lab is not None else zero_label(rank)
    sums = [max_levels] if exact else range(max_levels + 1)
    out = []
    for t in sums:
        for parts in partitions_colored(rank, t):
            out.append(FockMonomial(lab, tuple(sorted(parts))))
    return sorted(out, key=lambda m: (m.levels_sum, m.sort_key()))


# ---------------------------------------------------------------------------
# bracket verifiers


def verify_heisenberg_brackets(rank: int, max_weight: int, *,
                               radius: int) -> VerificationReport:
    """[a_i(n), a_j(m)] = n delta_{ij} delta_{n,-m} on every basis state of
    level sum <= max_weight, for |n|, |m| <= radius."""
    rep = VerificationReport("heisenberg_brackets",
                             f"weight<={max_weight}, |n|,|m|<={radius}")
    window = range(-radius, radius + 1)
    modes = [(i, n) for i in range(1, rank + 1) for n in window]
    for bi, bm in enumerate(basis_monomials(rank, max_weight)):
        s = State.of(bm)
        # each a_i(n)s once and each product a_i(n)a_j(m)s once per state
        once = {(i, n): apply_mode(i, n, s) for i, n in modes}
        prod = {(x, y): apply_mode(*x, once[y]) for x in modes for y in modes}
        for i in range(1, rank + 1):
            for j in range(1, rank + 1):
                for n in window:
                    for m in window:
                        lhs = prod[(i, n), (j, m)] - prod[(j, m), (i, n)]
                        rhs = s.scale(n) if (i == j and n == -m) else State.zero(rank)
                        rep.record((i, j, n, m, bi), lhs, rhs)
    return rep


def verify_virasoro_brackets(mode, central_charge, states, *, radius: int,
                             report: VerificationReport) -> VerificationReport:
    """[L(m), L(n)] = (m-n) L(m+n) + c (m^3-m)/12 delta_{m,-n} for |m|,|n| <=
    radius, L(n) s = mode(n, s) and c = central_charge, on each (key, state)
    of ``states``; records are keyed key + (m, n) and go into ``report``."""
    c = as_gauss(central_charge)
    window = range(-radius, radius + 1)
    for key, s in states:
        # each L(n)s once (|n| <= 2 radius, for L(m+n)) and each L(m)L(n)s
        # once, shared by the (m, n) and (n, m) records
        once = {n: mode(n, s) for n in range(-2 * radius, 2 * radius + 1)}
        prod = {(m, n): mode(m, once[n]) for m in window for n in window}
        for m in window:
            for n in window:
                lhs = prod[m, n] - prod[n, m]
                rhs = once[m + n].scale(m - n)
                if m == -n:
                    rhs = rhs + s.scale(c * Fraction(m ** 3 - m, 12))
                report.record(key + (m, n), lhs, rhs)
    return report


# ---------------------------------------------------------------------------
# text format: sum of terms "c * a[i,-k]a[i,-k]...|g1,g2,...>"


def format_state(s: State) -> str:
    if s.is_zero:
        return "0"
    terms = []
    for m, c in s.items_sorted():
        parts = "".join(f"a[{i},-{k}]" for i, k in m.parts)
        ket = "|" + ",".join(str(a) for a in m.label.alpha) + ">"
        if c.is_one:
            terms.append(f"{parts}{ket}" if parts else ket)
        else:
            terms.append(f"({c}) * {parts}{ket}")
    return " + ".join(terms)
