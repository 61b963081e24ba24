"""Adjoint vertex operators and the invariant bilinear form.

The adjoint is taken with respect to the Moebius map z -> lam^2/(E(N)z)
for the formal constant lam and an odd branch integer N.  On Heisenberg
generators the mode adjoint is a(n)^+ = (-1)^(n+1) lam^(2n) a(-n).

The pairing is fixed by <vac,vac> = 1, the label selection rule
<.|b>, .|c>> = 0 unless b+c = 0, the prefactor eps(b,-b) lam^(-b.b), and
rightward transposition of creation modes as adjoints.  So it is a
closed contraction: each creation part a_i(-k) of x moves to the right
as (-1)^(k+1) lam^(-2k) a_i(k), and <x|b>, y|-b>> is eps(b,-b)
lam^(-b.b-2L) (-1)^(L+r) times the vacuum coefficient of those
annihilators applied to y, for the level sum L and part count r of x.

By the contragredient formula (Frenkel-Huang-Lepowsky, Mem. AMS 104,
1993, section 5.2), the adjoint of Y(w,z) is Y(e^(zL(1)) (-z^-2)^(L(0)) w,
z^-1) read through the form, so the adjoint intertwiner is a reflected
read of the same intertwiner: its z^x coefficient reads Y at z^(q-2h-x)
for the L(1)^q descendants of each head monomial of weight h.  With
eig = a.(a+c) on the target sector c, a head monomial u_h of weight h
and coefficient c_h, and the relative exponent n, x = -eig + n:

    [z^(-eig+n)] Yd(u|a>, z) = E(-N eig) lam^(2 eig - a.a - 2n) (-1)^n
        sum_(h,q) [z^(eig+q-2h-n)] Y(Delta(a,z) lam^(-2h) c_h L(1)^q u_h/q! |a>, z)

with L(1) taken on label 0.  It equals the factorization
Yd = z^(a(0)^+) Yplus^+ Y^+ Yminus^+ e^(a+), Ypm^+(a,z) = Ymp(a, -lam^2/z):
the a(1) part of L(1) on the charged head u|a> is carried by the
Delta(a,z) dressing, which the intertwiner reads on the sector a+c by
Li's Delta, and e^(a+) = E(-N a(0)) lam^(2a(0) - a.a) e^a is the sector
constant eps(a,c) of that intertwiner times the prefactor.  lam is never
specialized to a number; every lam dependence stays in the unit group.
"""

from __future__ import annotations

from .fock import (
    FockMonomial,
    Label,
    Sectors,
    State,
    _add_units,
    _mode_on_monomial,
    basis_monomials,
    exp_virasoro_coeffs,
    label,
    monomial,
    translate_label,
    zero_label,
)
from .intertwiner import CocycleSystem, IntertwinerOp
from .report import VerificationReport
from .scalars import (
    GR_ONE,
    GaussRat,
    S_ONE,
    S_ZERO,
    Scalar,
    as_gauss,
    branch_phase,
    lam_pow,
)
from .series import exponent_index


def gram(x: State, y: State, cs: CocycleSystem) -> Scalar:
    """The invariant pairing <x, y>, an exact Scalar: the closed
    contraction of the module docstring on each pair of monomials whose
    labels cancel."""
    out = S_ZERO
    ys = y.items_sorted()
    for mx, cx in x.items_sorted():
        for my, cy in ys:
            v = _gram_mono(mx, my, cs)
            if not v.is_zero:
                out = out + v * cx * cy
    return out


def _gram_mono(mx: FockMonomial, my: FockMonomial, cs: CocycleSystem) -> Scalar:
    """<mx, my> as the closed contraction of the module docstring: the
    annihilators a_i(k) of mx's parts (i, k) act on my's parts through the
    ``mode`` kernels, and only their vacuum coefficient survives."""
    beta = mx.label
    if not (beta + my.label).is_zero:
        return S_ZERO
    parts, c = my.parts, GR_ONE
    for color, level in mx.parts:
        hit = _mode_on_monomial(color, level, parts)
        if not hit:
            return S_ZERO
        (parts, q), = hit.items()
        c = c * q
    if parts:
        return S_ZERO
    big_l = mx.levels_sum
    if (big_l + len(mx.parts)) % 2:
        c = -c
    return cs.epsilon(beta, -beta) * Scalar.from_unit(
        lam_exp=-beta.norm2() - 2 * big_l, coeff=c)


def gram_matrix(beta: Label, levels: int,
                cs: CocycleSystem) -> tuple[list, list, list[list[Scalar]]]:
    """Basis rows, columns and the Gram matrix of the weight slice
    M_beta x M_(-beta) at the given level sum."""
    rows = basis_monomials(beta.rank, levels, beta, exact=True)
    cols = basis_monomials(beta.rank, levels, -beta, exact=True)
    mat = [[_gram_mono(r, c, cs) for c in cols] for r in rows]
    return rows, cols, mat


def verify_gram_slices(betas, levels: int, cs: CocycleSystem) -> VerificationReport:
    """For each charge b, beta = b e_1: <|beta>, |-beta>> = eps(beta,-beta)
    lam^(-beta.beta), and at each level sum k <= levels a Gram slice of
    M_beta x M_(-beta) that transposes to the (-beta, beta) slice and has a
    unit (one-term) determinant.  A monomial pairs only with its mirror, at
    the same place of the sorted basis of -beta, so a slice is checked to be
    diagonal with one-term diagonal entries: the same claim."""
    rep = VerificationReport("gram_slices", f"weight<={levels}")
    for b in betas:
        b = as_gauss(b)
        beta = label([b] + [0] * (cs.rank - 1))
        val = gram(State.vacuum(cs.rank, beta), State.vacuum(cs.rank, -beta), cs)
        rep.record((b, -1), val, cs.epsilon(beta, -beta) * lam_pow(-beta.norm2()),
                   note="vacuum pairing")
        for k in range(levels + 1):
            rows, cols, mat = gram_matrix(beta, k, cs)
            _, _, tmat = gram_matrix(-beta, k, cs)
            ok = all(mat[i][j] == tmat[j][i]
                     and (mat[i][j].is_monomial if i == j else mat[i][j].is_zero)
                     for i in range(len(rows)) for j in range(len(cols)))
            rep.record((b, k), S_ONE if ok else S_ZERO, S_ONE,
                       note=f"symmetric slice with unit determinant, dim {len(rows)}")
    return rep


class AdjointIntertwinerOp:
    """Coefficient extractor for the adjoint intertwiner Yd(u|a>, z): the
    reflected read of one Delta(a,z)-dressed ``IntertwinerOp`` per
    z-shift q - 2h of the head's L(1) descendants (module docstring).

    The series is upper truncated: on a target with level sum kt the
    exponents are bounded above by kt - ku - a.(a+c) for target label c,
    and the read at x = -a.(a+c) + n needs level sums kt - ku - n.
    """

    def __init__(self, head: State, cocycle: CocycleSystem, n_branch: int):
        if n_branch % 2 == 0:
            raise ValueError("branch parameter N must be odd")
        self.n_branch = n_branch
        self.label = head.single_label()
        self.weight_int = head.max_levels()
        rank = head.rank
        # lam^(-2h) c_h L(1)^q u_h / q! on label 0, summed per shift q - 2h
        shifted: dict[int, State] = {}
        for hm, hc in head.items_sorted():
            h = hm.levels_sum
            u = State.of(monomial(zero_label(rank), hm.parts), hc * lam_pow(-2 * h))
            for q, cur in enumerate(exp_virasoro_coeffs(1, u, h)):
                if cur.is_zero:
                    break  # L(1) lowers the level sum: the rest vanishes too
                shifted[q - 2 * h] = shifted.get(q - 2 * h, State.zero(rank)) + cur
        self._ops = [(d, IntertwinerOp(translate_label(v, self.label), cocycle,
                                       beta=self.label))
                     for d, v in shifted.items() if not v.is_zero]

    def offset_on(self, target_label: Label) -> GaussRat:
        return -self.label.dot(self.label + target_label)

    def coefficient(self, target: State, exponent) -> State:
        """At exponent x = -eig + n on the sector c, the sum over shifts
        d of the dressed intertwiner's coefficient at d - x (that is,
        eig + d - n) on the sector a + c, times the unit
        E(n - N eig) lam^(-a.a - 2x) of that sector, whose branch phase
        E(-N eig) is ``branch_phase``."""
        exponent = as_gauss(exponent)
        alpha = self.label
        lam_exp = -alpha.norm2() - 2 * exponent
        factors: dict[Label, Scalar] = {}
        for gamma, us in target.sectors.items():
            eig = -self.offset_on(gamma)
            n_rel = exponent_index(-eig, exponent)
            factors[alpha + gamma] = branch_phase(-eig, self.n_branch) * \
                Scalar.from_unit(e_exp=n_rel, lam_exp=lam_exp)
        out: Sectors = {}
        for d, op in self._ops:
            for lab, us in op.coefficient(target, d - exponent).sectors.items():
                _add_units(out.setdefault(lab, {}), GR_ONE, us, factors[lab])
        return State(target.rank, out)


def verify_invariance(x: State, y: State, t: State, cocycle: CocycleSystem,
                      n_branch: int, *, radius: int, cutoff: int) -> VerificationReport:
    """<Y(u|a>,z) v|b>, w|c>> = E(-N a.b) C(a,b) <v|b>, Yd(u|a>,z) w|c>>.

    When a+b+c is nonzero both sides vanish identically; the window is
    still walked so the selection rule itself is what gets checked.
    """
    op = IntertwinerOp(x, cocycle)
    adj = AdjointIntertwinerOp(x, cocycle, n_branch)
    alpha = op.label
    beta = y.single_label()
    gamma = t.single_label()
    pref = branch_phase(-alpha.dot(beta), n_branch) * cocycle.commutator(alpha, beta)
    rep = VerificationReport(
        "invariance", window_used=f"radius {radius}",
        meta={"alpha": str(alpha), "beta": str(beta), "gamma": str(gamma),
              "branch_N": str(n_branch),
              "selection": "zero" if (alpha + beta + gamma).is_zero else "nonzero"})
    # both sides are series in the same variable; compare at equal powers.
    # off-coset powers carry no term, i.e. a known zero coefficient.
    adj_offset = adj.offset_on(gamma)
    ku, ky, kt = op.weight_int, y.max_levels(), t.max_levels()
    lo = -(ku + ky + kt) - radius
    for n in range(lo, radius + 1):
        e = alpha.dot(beta) + n
        # Y reads y at relative exponent n, and Yd reads t at adj_offset + m
        m = e - adj_offset
        need = ku + ky + n
        if m.is_integer:
            need = max(need, kt - ku - m.a)
        if rep.past_cutoff((e,), need, cutoff):
            continue
        left = gram(op.coefficient(y, e), t, cocycle)
        right = (pref * gram(y, adj.coefficient(t, e), cocycle) if m.is_integer
                 else S_ZERO)
        rep.record((e,), left, right)
    return rep
