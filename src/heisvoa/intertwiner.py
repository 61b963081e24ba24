"""Cocycle systems and the creative intertwiner engine.

The intertwiner for a head u|alpha> acts on a target v|beta> as the
composition

    e^alpha . Yminus(alpha,z) . Y(u,z) . Yplus(alpha,z) . z^(alpha(0))

where z^(alpha(0)) contributes the exponent offset alpha.beta on the
label-beta target, Yplus/Yminus are the annihilation/creation
exponentials of the label modes, Y(u,z) is the untwisted vertex
operator, and e^alpha shifts the label with the cocycle factor
epsilon(alpha,beta).  Every coefficient of the resulting series in the
coset alpha.beta + Z is an exact finite sum, never truncated; the
operator takes no cutoff, and each verifier decides per coefficient,
before it reads one, whether the level sums it needs fit its budget.
The same operator with the head dressed as Delta(gamma,z)u|alpha> and
its own e^alpha constant per target sector is the twisted and the DLM
operator of the lattice module; by Li's Delta, the dressed operator
reads Y(u,z) on the sector beta + gamma.
"""

from __future__ import annotations

from .fock import (
    Label,
    Sectors,
    State,
    Terms,
    UnitSum,
    _accumulate,
    _add_sectors,
    _add_units,
    _delta_terms,
    _levels,
    _map,
    _mode_chain,
    _vertex_on_monomials,
    exp_virasoro_coeffs,
    translate_label,
    vertex_mode,
    virasoro_mode,
    zero_label,
)
from .report import VerificationReport
from .scalars import (
    E,
    GR_ONE,
    GR_ZERO,
    GaussRat,
    S_MINUS_ONE,
    S_ONE,
    Scalar,
    _unit_mul,
    as_gauss,
    binom,
    zeta_pow,
)
from .series import exponent_index
from .workspace import current


def _bilinear(matrix, a: Label, b: Label) -> GaussRat:
    out = GR_ZERO
    for i, ai in enumerate(a.alpha):
        if ai.is_zero:
            continue
        row = matrix[i]
        for j, bj in enumerate(b.alpha):
            if not bj.is_zero and not row[j].is_zero:
                out = out + ai * row[j] * bj
    return out


class CocycleSystem:
    """Bimultiplicative two-cocycle data on rank-l labels.

    epsilon(a,b) = E(a.f.b) * zeta^(a.g.b).  ``corruption`` multiplies in
    zeta^(c * a^2 b^2), a deliberately non-bilinear factor that breaks
    associativity; it exists solely for negative controls.
    """

    __slots__ = ("rank", "f", "g", "corruption")

    def __init__(self, rank: int, f: tuple, g: tuple,
                 corruption: GaussRat = GR_ZERO):
        for m in (f, g):
            if len(m) != rank or any(len(row) != rank for row in m):
                raise ValueError("cocycle matrices must be rank x rank")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "corruption", corruption)

    def __setattr__(self, name, value):
        raise AttributeError("CocycleSystem is immutable")

    def epsilon(self, a: Label, b: Label) -> Scalar:
        for lab in (a, b):
            if lab.rank != self.rank:
                raise ValueError(
                    f"label rank {lab.rank} != cocycle rank {self.rank}")
        out = E(_bilinear(self.f, a, b)) * zeta_pow(_bilinear(self.g, a, b))
        if not self.corruption.is_zero:
            out = out * zeta_pow(self.corruption * a.norm2() * b.norm2())
        return out

    def commutator(self, a: Label, b: Label) -> Scalar:
        return self.epsilon(a, b) * self.epsilon(b, a).inverse()


def apply_e(cs: CocycleSystem, alpha: Label, s: State) -> State:
    """e^alpha: label beta -> alpha+beta with scalar epsilon(alpha, beta)."""
    out: Sectors = {}
    for beta, us in s.sectors.items():
        _add_units(out.setdefault(beta + alpha, {}), GR_ONE, us,
                   cs.epsilon(alpha, beta))
    return State(s.rank, out)


# ---------------------------------------------------------------------------
# exponentials of label modes


def _ypm_coeff(sign: int, avec: tuple, k: int, s: State, arg: Scalar) -> State:
    # the annihilation chain of p stops at its level sum
    return _map(s, lambda lab, p: {} if sign > 0 and k > _levels(p)
                else _mode_chain(avec, sign, p, k)[k]).scale(arg ** k)


def creation_coeff(avec: tuple, k: int, s: State, arg: Scalar = S_ONE) -> State:
    """Coefficient of z^k in Yminus applied to s, times arg^k."""
    return _ypm_coeff(-1, avec, k, s, arg)


def annihilation_coeff(avec: tuple, k: int, s: State, arg: Scalar = S_ONE) -> State:
    """Coefficient of z^-k in Yplus applied to s, times arg^k."""
    return _ypm_coeff(1, avec, k, s, arg)


def _ypm_dress(entries: dict[tuple[int, int], State], sign: int, avec: tuple,
               s1: int, s2: int, cap1: int | None, cap2: int,
               cap_sum: int | None = None) -> dict[tuple[int, int], State]:
    """Yplus (sign=+1) or Yminus (sign=-1) of the label a = avec at the
    argument w = s1*z1 + s2*z2, applied to two-variable entries.

    An entry (e1, e2): st stands for z1^e1 z2^e2 st, and s1, s2 are in
    {-1, 0, 1}.  With the chain coefficients C_k of ``_ypm_coeff``,
    Y(a, w) = sum_k C_k w^(-sign*k), and w^n is expanded by the package's
    binomial convention, in nonnegative powers of the second summand:
    w^n = sum_m binom(n, m) (s1 z1)^(n-m) (s2 z2)^m.  A term past cap1 in
    z1 or cap2 in z2 is dropped; every entry within the caps is exact:

    * Yplus: C_k vanishes past the level sum of the entry, and the z2
      exponent grows by m, so m <= cap2 - e2.  The z1 exponent only falls.
    * Yminus: both exponents grow, by n - m and m, so k <= (cap1 - e1) +
      (cap2 - e2).  With s1 = 0 (a pure z2 argument) only m = k survives,
      as 0**0 == 1, and k <= cap2 - e2; cap1 may then be None.  Their sum
      grows by exactly k, so a cap_sum on f1 + f2 gives k <= cap_sum - e1
      - e2; Yplus reads no cap_sum.
    """
    out: dict[tuple[int, int], Sectors] = {}
    for (e1, e2), st in entries.items():
        room2 = cap2 - e2
        if sign > 0:
            kmax = st.max_levels()
        else:
            kmax = room2 + (cap1 - e1 if s1 else 0)
            if cap_sum is not None:
                kmax = min(kmax, cap_sum - e1 - e2)
        for k in range(kmax + 1):
            ck = _ypm_coeff(sign, avec, k, st, S_ONE)
            if ck.is_zero:
                continue
            n = -sign * k
            for m in range(min(k, room2) + 1 if sign < 0 else room2 + 1):
                f1 = e1 + n - m
                if cap1 is not None and f1 > cap1:
                    continue
                # s1 = +-1 wherever n - m < 0, and (+-1)^-x == (+-1)^x
                w = s1 ** abs(n - m) * s2 ** m
                if not w:
                    continue
                c = binom(n, m)
                if c.is_zero:
                    continue
                _add_sectors(out.setdefault((f1, e2 + m), {}),
                             c if w > 0 else -c, ck.sectors)
    done = {key: State(len(avec), secs) for key, secs in out.items()}
    return {key: st for key, st in done.items() if not st.is_zero}


# ---------------------------------------------------------------------------
# the intertwiner engine


def _half_kernel(lab: Label, head_parts: tuple, tlab: Label, tparts: tuple,
                 lo: int, j_max: int) -> list[Terms]:
    """H(j) = [z^j] Y(u,z) Yplus(lab,z) t for j = lo..j_max at least, on
    the target t = monomial(tlab, tparts), with Y(u,z) read on tlab.

    u = a(head_parts)|0> is the label-0 head and lo = -(level sum of the
    head part and tparts), below which H vanishes, so entry i is H(lo + i).
    H(j) = sum_k u(-j-k-1) A_k t for the annihilation chain A_k, with u(n)
    on tlab read through Li's Delta (``fock._delta_terms``).  The shift to
    the sector lab + tlab and the cocycle factor of e^lab stay out, so
    every operator of the run shares the list.  It grows lazily like the
    mode chains.
    """
    half = current().coeff.setdefault((lab, head_parts, tlab, tparts), [])
    if len(half) > j_max - lo:
        return half
    chain = _mode_chain(lab.alpha, 1, tparts, _levels(tparts))
    heads = _delta_terms(head_parts, tlab)
    while len(half) <= j_max - lo:
        j = lo + len(half)
        acc: dict = {}
        for k, fk in enumerate(chain):
            for fp, fc in fk.items():
                for c, bp, i in heads:
                    _accumulate(acc, fc * c,
                                _vertex_on_monomials(bp, -j - k - i - 1, fp))
        half.append(acc)
    return half


class IntertwinerOp:
    """Coefficient extractor for one creative intertwiner, optionally of a
    Delta(beta,z)-dressed head: Y(Delta(beta,z) u|alpha>, z) with an
    e^alpha constant per target sector.

    ``IntertwinerOp(head, cocycle, *, beta=None)``: the head u|alpha> is
    a State on the one label alpha, of the cocycle's rank (ValueError
    otherwise); the cocycle gives e^alpha its factor epsilon(alpha, t)
    on each target sector t, and ``beta`` is the dressing label (None:
    undressed).
    Its attributes are the coefficient-operator protocol that the
    lattice operators share and the three-term engine relies on:
    ``label``, ``head_state``, ``weight_int``, ``offset_on(target_label)``
    (the coset base of the exponents on that label) and
    ``coefficient(target, exponent)``, the one read of a coefficient, a
    ``State``.  By Li's Delta, Y(Delta(beta,z)u, z) on the sector t is
    Y(u,z) on the sector t + beta times z^(alpha.beta), so the dressed
    operator is the plain one with the offset alpha.(beta + t), reading
    its half-kernels on the sector t + beta.  Subclasses override the
    e^alpha constant on the sector t through ``sector_factor``, one unit
    times a rational.  A coefficient is computed sector by sector of the
    target: the sector of t goes to the sector label + t, and the
    exponent offset, the head terms times the sector factor, the shifted
    label and the sector that Y(u,z) reads are kept in one per-operator
    dict.
    """

    def __init__(self, head: State, cocycle: CocycleSystem, *,
                 beta: Label | None = None):
        self.label = head.single_label()  # raises unless the head has one label
        if head.rank != cocycle.rank:
            raise ValueError("head rank != cocycle rank")
        self.head_state = head
        self.cocycle = cocycle
        self.weight_int = head.max_levels()
        self.beta = beta if beta is not None else zero_label(head.rank)
        # (parts, unit, coefficient, level sum) per term of the head
        self._heads = [(p, u, q, _levels(p)) for us in head.sectors.values()
                       for u, t in us.items() for p, q in t.items()]
        self._sectors: dict = {}

    def offset_on(self, target_label: Label) -> GaussRat:
        return self.label.dot(self.beta + target_label)

    def sector_factor(self, t: Label) -> Scalar:
        """The constant of e^alpha on the target sector t: epsilon(alpha, t)."""
        return self.cocycle.epsilon(self.label, t)

    def _sector(self, t: Label) -> tuple[GaussRat, list, Label, Label]:
        """The exponent offset, the head terms times the sector factor, the
        shifted label label + t and the sector t + beta that Y(u,z) reads,
        on the target sector t."""
        hit = self._sectors.get(t)
        if hit is None:
            (cu, cq), = self.sector_factor(t).terms.items()
            heads = [(p, *_unit_mul(u, cu, q * cq), k) for p, u, q, k in self._heads]
            read = t if self.beta.is_zero else t + self.beta
            hit = self._sectors[t] = (self.offset_on(t), heads, self.label + t, read)
        return hit

    def coefficient(self, target: State, exponent) -> State:
        """The exact coefficient of z**exponent in the operator applied to
        the target state.

        At relative exponent n it is sum_kp B_kp H(n - kp) for the
        creation chain B of the label and the half-kernels H of
        ``_half_kernel``: the half-kernels of every head term and target
        monomial are summed per creation order kp first, so each chain is
        applied once per (kp, monomial) of that sum.  The sector factor
        enters with the head terms.  On a target monomial of
        level sum kt the read builds level sums up to weight_int + kt + n,
        the need a verifier weighs against its cutoff before reading.
        """
        exponent = as_gauss(exponent)
        lab = self.label
        avec = lab.alpha
        out: Sectors = {}
        for t_lab, us in target.sectors.items():
            offset, heads, shifted, read = self._sector(t_lab)
            n_rel = exponent_index(offset, exponent)
            sums: dict[int, UnitSum] = {}  # by creation order kp
            for tu, t in us.items():
                for tparts, tq in t.items():
                    kt = _levels(tparts)
                    for hparts, hu, hq, kh in heads:
                        lo = -(kh + kt)
                        if n_rel < lo:
                            continue
                        half = _half_kernel(lab, hparts, read, tparts, lo, n_rel)
                        u, x = _unit_mul(tu, hu, tq * hq)
                        for kp in range(n_rel - lo + 1):
                            terms = half[n_rel - kp - lo]
                            if terms:
                                _accumulate(sums.setdefault(kp, {})
                                            .setdefault(u, {}), x, terms)
            if not sums:
                continue
            dst = out.setdefault(shifted, {})
            for kp, kus in sums.items():
                for u, terms in kus.items():
                    acc = dst.setdefault(u, {})
                    for gp, gc in terms.items():
                        _accumulate(acc, gc, _mode_chain(avec, -1, gp, kp)[kp])
        return State(target.rank, out)


# ---------------------------------------------------------------------------
# verifiers for the exponential-operator identities


def verify_ypm_commutation(alpha: Label, beta: Label, s: State, *, radius: int,
                           cutoff: int) -> VerificationReport:
    """Yplus(alpha,z1) Yminus(beta,z2) = (1 - z2/z1)^(alpha.beta)
    Yminus(beta,z2) Yplus(alpha,z1), coefficientwise on the grid
    z1^(-i) z2^(j), 0 <= i, j <= radius."""
    rep = VerificationReport("ypm_commutation",
                             window_used=f"z1^[{-radius},0] z2^[0,{radius}]")
    va, vb = alpha.alpha, beta.alpha
    ab = alpha.dot(beta)
    ks = s.max_levels()
    # Yminus's z2^j on s has level sum ks + j, and neither side goes higher
    grid = [(i, j) for i in range(radius + 1) for j in range(radius + 1)
            if not rep.past_cutoff((as_gauss(-i), as_gauss(j)), ks + j, cutoff)]
    # right side grid: creation chains of beta on the Yplus(alpha) tail of s,
    # read at (i - m, j - m) alone, so no z2 order past the kept ones
    top = max((j for _, j in grid), default=-1)
    right_grid = {}
    for i in range(ks + 1):
        t = annihilation_coeff(va, i, s)
        for j in range(top + 1):
            right_grid[(i, j)] = creation_coeff(vb, j, t)
    for i, j in grid:
        lhs = annihilation_coeff(va, i, creation_coeff(vb, j, s))
        rhs = State.zero(s.rank)
        for m in range(min(i, j) + 1):
            g = right_grid.get((i - m, j - m))
            if g is None or g.is_zero:
                continue
            c = binom(ab, m)
            if m % 2:
                c = -c
            rhs = rhs + g.scale(c)
        rep.record((as_gauss(-i), as_gauss(j)), lhs, rhs)
    return rep


def verify_y_conj_minus(alpha: Label, u: State, s: State, *, radius: int,
                        z2_radius: int, cutoff: int) -> VerificationReport:
    """Y(Yplus(alpha,-z1)u, z1) Yminus(alpha,z2)
       = Yminus(alpha,z2) Y(Yplus(alpha,-z1+z2)u, z1)."""
    rep = VerificationReport("y_conj_minus",
                             window_used=f"z1^[{-radius},{radius}] z2^[0,{z2_radius}]")
    va = alpha.alpha
    rank = s.rank
    ku, ks = u.max_levels(), s.max_levels()
    dressed = _ypm_dress({(0, 0): u}, 1, va, -1, 1, None, z2_radius)
    plain = {p: annihilation_coeff(va, p, u, arg=S_MINUS_ONE)
             for p in range(ku + 1)}
    for j in range(z2_radius + 1):
        a_j = None
        for e1 in range(-radius, radius + 1):
            # both sides at z1^e1 z2^j are a vertex mode of level sum
            # ku + ks + e1 + j, and the left one reads Yminus's z2^j on s
            need = max(ks + j, ku + ks + e1 + j)
            if rep.past_cutoff((as_gauss(e1), as_gauss(j)), need, cutoff):
                continue
            if a_j is None:
                a_j = creation_coeff(va, j, s)
            lhs = State.zero(rank)
            for p, up in plain.items():
                if not up.is_zero:
                    lhs = lhs + vertex_mode(up, -e1 - p - 1, a_j)
            rhs = State.zero(rank)
            for (c1, c2), ust in dressed.items():
                if c2 > j:
                    continue
                inner = vertex_mode(ust, c1 - e1 - 1, s)
                if inner.is_zero:
                    continue
                rhs = rhs + creation_coeff(va, j - c2, inner)
            rep.record((as_gauss(e1), as_gauss(j)), lhs, rhs)
    return rep


def verify_y_conj_plus(alpha: Label, u: State, s: State, *, radius: int,
                       cutoff: int) -> VerificationReport:
    """Yplus(alpha,z1) Y(u,z2) = Y(Yplus(alpha,z1-z2)u, z2) Yplus(alpha,z1)."""
    rep = VerificationReport("y_conj_plus",
                             window_used=f"z1^[{-radius},0] z2^[{-radius},{radius}]")
    va = alpha.alpha
    rank = s.rank
    ku, ks = u.max_levels(), s.max_levels()
    # an entry at z2-shift c2 > ku + ks + e2 meets t as a mode that
    # lowers the level sum below 0, so the z2 cap is exact
    dressed = _ypm_dress({(0, 0): u}, 1, va, 1, -1, None, radius + ku + ks)
    tails = {i: annihilation_coeff(va, i, s) for i in range(s.max_levels() + 1)}
    for i in range(radius + 1):
        for e2 in range(-radius, radius + 1):
            # u(-e2-1)s has level sum ku + ks + e2, and the right side's
            # z2-shifts c2 >= 0 never take it higher
            if rep.past_cutoff((as_gauss(-i), as_gauss(e2)), ku + ks + e2, cutoff):
                continue
            lhs = annihilation_coeff(va, i, vertex_mode(u, -e2 - 1, s))
            rhs = State.zero(rank)
            for (c1, c2), ust in dressed.items():
                ii = i + c1
                if ii < 0 or ii not in tails:
                    continue
                t = tails[ii]
                if t.is_zero:
                    continue
                rhs = rhs + vertex_mode(ust, c2 - e2 - 1, t)
            rep.record((as_gauss(-i), as_gauss(e2)), lhs, rhs)
    return rep


def verify_yy_conj(alpha: Label, u: State, s: State, *, radius: int,
                   z1_radius: int, cutoff: int) -> VerificationReport:
    """Y(Yminus(alpha,z1)u, z2) Yplus(alpha,z2) =
       z2^(-alpha(0)) (z2+z1)^(alpha(0)) Yminus(-alpha,z2)
       Yminus(alpha,z1+z2) Y(u,z2) Yplus(alpha,z2+z1)."""
    rep = VerificationReport("yy_conj",
                             window_used=f"z1^[0,{z1_radius}] z2^[{-radius},{radius}]")
    va = alpha.alpha
    rank = s.rank
    ku, ks = u.max_levels(), s.max_levels()
    gamma = s.single_label()
    ag = alpha.dot(gamma)
    e2cap = radius + z1_radius
    # left side
    tails = {k: annihilation_coeff(va, k, s) for k in range(ks + 1)}
    lhs_grid = {}
    for j in range(z1_radius + 1):
        dj = None
        for e2 in range(-radius, radius + 1):
            # both sides at z1^j z2^e2 are a vertex mode of level sum
            # ku + ks + j + e2, and the left one reads Yminus's z1^j on u
            need = max(ku + j, ku + ks + j + e2)
            if rep.past_cutoff((as_gauss(j), as_gauss(e2)), need, cutoff):
                continue
            if dj is None:
                dj = creation_coeff(va, j, u)
            acc = State.zero(rank)
            for k, t in tails.items():
                if not t.is_zero:
                    acc = acc + vertex_mode(dj, -e2 - k - 1, t)
            lhs_grid[(j, e2)] = acc
    # right side pipeline; the primary variable of Yplus(alpha, z2+z1) is
    # z2, so the dressing is built with slots (z2, z1) and swapped after
    entries = _ypm_dress({(0, 0): s}, 1, va, 1, 1, None, z1_radius)
    entries = {(e1, e2): st for (e2, e1), st in entries.items()}
    step2: dict[tuple[int, int], State] = {}
    for (e1, e2), st in entries.items():
        lo = -(ku + st.max_levels()) + e2
        # an entry (e1, tot) has level sum ku + ks + e1 + tot at most and
        # reaches only coefficients with j + e2 >= e1 + tot, so one past
        # the cutoff would feed skipped coefficients alone
        for tot in range(lo, min(e2cap, cutoff - ku - ks - e1) + 1):
            v = vertex_mode(u, e2 - tot - 1, st)
            if v.is_zero:
                continue
            key = (e1, tot)
            acc = step2.get(key)
            step2[key] = v if acc is None else acc + v
    # the final sum reads step4 at z1^f1 z2^f2 with f1 + f2 = j + e2 alone,
    # so neither Yminus builds past the largest compared j + e2
    top = min(e2cap, cutoff - ku - ks)
    step3 = _ypm_dress(step2, -1, va, 1, 1, z1_radius, e2cap, top)
    step4 = _ypm_dress(step3, -1, (-alpha).alpha, 0, 1, z1_radius, e2cap, top)
    for (j, e2), lhs in lhs_grid.items():
        rhs = State.zero(rank)
        for m in range(j + 1):
            src = step4.get((j - m, e2 + m))
            if src is None or src.is_zero:
                continue
            rhs = rhs + src.scale(binom(ag, m))
        rep.record((as_gauss(j), as_gauss(e2)), lhs, rhs)
    return rep


# ---------------------------------------------------------------------------
# conjugation by the exponentiated label shift exp(t a.q)
#
# At a fixed z-order both sides are polynomials in t of bounded degree D,
# so comparing them at t = 0..D decides the identity in t.


def _shift_conj_virasoro(n: int, alpha: Label, s: State, order: int,
                         t: int) -> list[State]:
    """z^0..z^order coefficients of exp(-t a.q) exp(zL(n)) exp(t a.q) exp(-zL(n)) s."""
    shift = alpha.scale(t)
    lhs = [State.zero(s.rank) for _ in range(order + 1)]
    for q, base in enumerate(exp_virasoro_coeffs(n, s, order, sign=-1)):
        chain = exp_virasoro_coeffs(n, translate_label(base, shift), order - q, sign=1)
        for p, x in enumerate(chain):
            lhs[p + q] = lhs[p + q] + x
    return [translate_label(x, -shift) for x in lhs]


def verify_shift_conj_lminus(alpha: Label, s: State, *, radius: int,
                             cutoff: int) -> VerificationReport:
    """exp(-t a.q) exp(zL(-1)) exp(t a.q) exp(-zL(-1)) = Yminus(t*alpha, z).

    At z^r each L(-1) brings at most one zero mode and Yminus at most r
    label modes, so both sides are compared at t = 0..r.
    """
    rep = VerificationReport("shift_conj_lminus", window_used=f"z^[0,{radius}]")
    # z^r needs level sums ks + r, so the kept orders are 0..len(kept) - 1
    kept = [r for r in range(radius + 1)
            if not rep.past_cutoff((as_gauss(r),), s.max_levels() + r, cutoff)]
    lhs = [_shift_conj_virasoro(-1, alpha, s, len(kept) - 1, t) for t in kept]
    for r in kept:
        rep.record((as_gauss(r),), tuple(lhs[t][r] for t in range(r + 1)),
                   tuple(creation_coeff(alpha.scale(t).alpha, r, s)
                         for t in range(r + 1)))
    return rep


def verify_shift_conj_lplus(alpha: Label, s: State) -> VerificationReport:
    """exp(-t a.q) exp(zL(1)) exp(t a.q) exp(-zL(1)) = Yplus(t*alpha, -1/z).

    The argument is -1/z: solving order by order forces the coefficients
    (-1)^(n-1)/n on the modes a(n), which is the -1/z substitution.  Both
    sides terminate, so the whole series is compared exactly, at z^r for
    t = 0..r as in the L(-1) identity.
    """
    order = s.max_levels()
    rep = VerificationReport("shift_conj_lplus", window_used=f"z^[0,{order}] (exact)")
    lhs = [_shift_conj_virasoro(1, alpha, s, order, t) for t in range(order + 1)]
    for r in range(order + 1):
        rep.record((as_gauss(r),), tuple(lhs[t][r] for t in range(r + 1)),
                   tuple(annihilation_coeff(alpha.scale(t).alpha, r, s,
                                            arg=S_MINUS_ONE)
                         for t in range(r + 1)))
    return rep


def verify_shift_conj_vertex(alpha: Label, u: State, s: State, *, radius: int,
                             cutoff: int) -> VerificationReport:
    """exp(-t a.q) Y(u,z) exp(t a.q) = Y(Yplus(t*alpha,-z)u, z).

    Each coefficient has degree at most the level sum of u in t, so it is
    compared at t = 0..u.max_levels().
    """
    rep = VerificationReport("shift_conj_vertex",
                             window_used=f"z^[{-radius},{radius}]")
    ku = u.max_levels()
    shifts = [alpha.scale(t) for t in range(ku + 1)]
    dressed = [[annihilation_coeff(shift.alpha, p, u, arg=S_MINUS_ONE)
                for p in range(ku + 1)] for shift in shifts]
    for e in range(-radius, radius + 1):
        # both sides at z^e are vertex modes of level sum ku + ks + e
        if rep.past_cutoff((as_gauss(e),), ku + s.max_levels() + e, cutoff):
            continue
        left = tuple(translate_label(vertex_mode(
            u, -e - 1, translate_label(s, shift)), -shift) for shift in shifts)
        right = []
        for parts in dressed:
            acc = State.zero(s.rank)
            for p, up in enumerate(parts):
                if not up.is_zero:
                    acc = acc + vertex_mode(up, -e - p - 1, s)
            right.append(acc)
        rep.record((as_gauss(e),), left, tuple(right))
    return rep


# ---------------------------------------------------------------------------
# structural checks of the intertwiner itself


def verify_translation(head: State, target: State, cocycle: CocycleSystem, *,
                       radius: int, cutoff: int) -> VerificationReport:
    """The intertwiner of L(-1)head is the z-derivative of the intertwiner."""
    rep = VerificationReport("translation", window_used=f"[lo,{radius}]")
    op = IntertwinerOp(head, cocycle)
    lop = IntertwinerOp(virasoro_mode(-1, head), cocycle)
    base = op.offset_on(target.single_label())
    lo = -(op.weight_int + target.max_levels() + 1)
    for n in range(lo, radius + 1):
        e = base + n
        # L(-1)u at z^e and u at z^(e+1) both need ku + ks + n + 1 = n - lo
        if rep.past_cutoff((e,), n - lo, cutoff):
            continue
        rep.record((e,), lop.coefficient(target, e),
                   op.coefficient(target, e + 1).scale(e + 1))
    return rep


def verify_creativity(head: State, cocycle: CocycleSystem, *,
                      cutoff: int) -> VerificationReport:
    """Applying to the vacuum returns the head at order zero and nothing below."""
    op = IntertwinerOp(head, cocycle)
    ku = op.weight_int
    vac = State.vacuum(head.rank)
    rep = VerificationReport("creativity", window_used=f"[{-ku},0]")
    zero = State.zero(head.rank)
    # the head at z^0, then nothing below it; the vacuum read at z^n
    # needs level sums ku + n
    for n in [0, *range(-ku - 2, 0)]:
        e = as_gauss(n)
        if not rep.past_cutoff((e,), ku + n, cutoff):
            rep.record((e,), op.coefficient(vac, e), head if n == 0 else zero,
                       note="below-order vanishing" if n else "")
    return rep


def verify_e_conjugation(head: State, beta: Label, target: State,
                         cocycle: CocycleSystem, *, radius: int, cutoff: int,
                         report: VerificationReport) -> VerificationReport:
    """Y(u|alpha>, z) e^beta t = C(alpha,beta) e^beta Y(Delta(beta,z) u|alpha>, z) t
    coefficientwise, the one fact about moving e^beta through Y(u,z);
    records go into ``report``."""
    op = IntertwinerOp(head, cocycle)
    dop = IntertwinerOp(head, cocycle, beta=beta)
    c_ab = cocycle.commutator(op.label, beta)
    shifted = apply_e(cocycle, beta, target)
    base = dop.offset_on(target.single_label())
    lo = -(op.weight_int + target.max_levels())
    for n in range(lo, radius + 1):
        e = base + n
        # both reads are at relative exponent n on level sum ks: ku + ks + n
        if report.past_cutoff((e,), n - lo, cutoff):
            continue
        report.record((e,), op.coefficient(shifted, e),
                      apply_e(cocycle, beta, dop.coefficient(target, e)).scale(c_ab))
    return report
