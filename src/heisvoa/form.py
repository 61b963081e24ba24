"""Adjoint vertex operators and the invariant bilinear form.

The adjoint is taken with respect to the Moebius map z -> lam^2/(E(N)z)
for the formal constant lam and an odd branch integer N.  On Heisenberg
generators the mode adjoint is a(n)^+ = (-1)^(n+1) lam^(2n) a(-n); on
the charged operators it is realized through the factorization

    Yd(u|a>, z) = z^(a(0)^+) Yplus^+(a,z) Y^+(u,z) Yminus^+(a,z) e^(a+)

with Ypm^+(a,z) = Ymp(a, -lam^2/z) and
e^(a+) = E(-N a(0)) lam^(2 a(0) - a.a) e^a, the zero-mode scalars acting
after the label shift.  The substitution z -> lam^2/(E(N)z) is pure
exponent bookkeeping: a power z^k contributes lam^(2k) E(-Nk) z^(-k).

The pairing itself is fixed by <vac,vac> = 1, the label selection rule
<.|b>, .|c>> = 0 unless b+c = 0, the prefactor eps(b,-b) lam^(-b.b), and
rightward transposition of creation modes as adjoints.  lam is never
specialized to a number; every lam dependence stays in the unit group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fock import (
    FockMonomial,
    Label,
    State,
    apply_mode,
    basis_monomials,
    exp_virasoro_coeffs,
    label,
    monomial,
    vertex_mode,
    zero_label,
)
from .intertwiner import (
    CocycleSystem,
    IntertwinerOp,
    IntertwinerSpec,
    _shift_scaled,
    annihilation_coeff,
    creation_coeff,
)
from .report import VerificationReport
from .scalars import (
    GaussRat,
    S_ONE,
    S_ZERO,
    Scalar,
    as_gauss,
    branch_phase,
    lam_pow,
    sign_pow,
)
from .series import WindowError, exponent_index


@dataclass
class FormConfig:
    n_branch: int
    cocycle: CocycleSystem
    _gram_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.n_branch % 2 == 0:
            raise ValueError("branch parameter N must be odd")


def e_dagger(cocycle: CocycleSystem, alpha: Label, s: State, n_branch: int) -> State:
    """e^(a+) = E(-N a(0)) lam^(2a(0) - a.a) e^a, zero modes after the shift:
    on the sector beta, a(0) reads a.(a+beta)."""
    def factor(beta: Label) -> Scalar:
        eig = alpha.dot(alpha + beta)
        return (cocycle.epsilon(alpha, beta) * branch_phase(-eig, n_branch)
                * lam_pow(2 * eig - alpha.norm2()))
    return _shift_scaled(s, alpha, factor)


@dataclass(frozen=True)
class ModeDagger:
    """a(n)^+ as an executable scalar times a mode with negated index."""

    color: int
    index: int
    scalar: Scalar

    def apply(self, s: State) -> State:
        return apply_mode(self.color, self.index, s).scale(self.scalar)


def adjoint_mode(color: int, n: int) -> ModeDagger:
    """a[color](n)^+ = (-1)^(n+1) lam^(2n) a[color](-n)."""
    return ModeDagger(color, -n, sign_pow(n + 1) * lam_pow(2 * n))


def gram(x: State, y: State, cfg: FormConfig) -> Scalar:
    """The invariant pairing <x, y>, an exact Scalar.

    Labels must cancel pairwise; creation parts of x transpose to the
    right as adjoints until the base case <vac|b>, vac|-b>> =
    eps(b,-b) lam^(-b.b).
    """
    out = S_ZERO
    ys = y.items_sorted()
    for mx, cx in x.items_sorted():
        for my, cy in ys:
            v = _gram_mono(mx, my, cfg)
            if not v.is_zero:
                out = out + v * cx * cy
    return out


def _gram_mono(mx: FockMonomial, my: FockMonomial, cfg: FormConfig) -> Scalar:
    key = (mx, my)
    hit = cfg._gram_cache.get(key)
    if hit is not None:
        return hit
    beta = mx.label
    if not (beta + my.label).is_zero:
        out = S_ZERO
    elif not mx.parts:
        if my.parts:
            out = S_ZERO
        else:
            out = cfg.cocycle.epsilon(beta, -beta) * lam_pow(-beta.norm2())
    else:
        (color, level), rest = mx.parts[0], mx.parts[1:]
        moved = adjoint_mode(color, -level)
        partner = moved.apply(State.of(my))
        out = S_ZERO
        for m2, c2 in partner.items_sorted():
            out = out + _gram_mono(monomial(beta, rest), m2, cfg) * c2
    cfg._gram_cache[key] = out
    return out


def gram_matrix(beta: Label, levels: int, cfg: FormConfig,
                exact: bool = True) -> tuple[list, list, list[list[Scalar]]]:
    """Basis rows, columns and the Gram matrix of the weight slice
    M_beta x M_(-beta) at the given level sum."""
    rows = basis_monomials(beta.rank, levels, beta, exact=exact)
    cols = basis_monomials(beta.rank, levels, -beta, exact=exact)
    mat = [[_gram_mono(r, c, cfg) for c in cols] for r in rows]
    return rows, cols, mat


def det_scalar(mat: list[list[Scalar]]) -> Scalar:
    """Determinant over the Scalar ring by sparse Laplace expansion."""
    n = len(mat)
    if n == 0:
        return S_ONE
    memo: dict = {}

    def rec(row: int, free: int) -> Scalar:
        if row == n:
            return S_ONE
        key = free
        hit = memo.get(key)
        if hit is not None:
            return hit
        acc = S_ZERO
        sign = 1
        for col in range(n):
            bit = 1 << col
            if not free & bit:
                continue
            entry = mat[row][col]
            if not entry.is_zero:
                sub = rec(row + 1, free & ~bit)
                term = entry * sub
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
        memo[key] = acc
        return acc

    return rec(0, (1 << n) - 1)


def verify_gram_slices(betas, levels: int, cfg: FormConfig) -> VerificationReport:
    """For each charge b, beta = b e_1: <|beta>, |-beta>> = eps(beta,-beta)
    lam^(-beta.beta), and at each level sum k <= levels a Gram slice of
    M_beta x M_(-beta) that transposes to the (-beta, beta) slice and has a
    unit (one-term) determinant."""
    rank = cfg.cocycle.rank
    rep = VerificationReport("gram_slices", f"weight<={levels}")
    for b in betas:
        b = as_gauss(b)
        beta = label([b] + [0] * (rank - 1))
        val = gram(State.vacuum(rank, beta), State.vacuum(rank, -beta), cfg)
        rep.record((b, -1), val,
                   cfg.cocycle.epsilon(beta, -beta) * lam_pow(-beta.norm2()),
                   note="vacuum pairing")
        for k in range(levels + 1):
            rows, cols, mat = gram_matrix(beta, k, cfg)
            _, _, tmat = gram_matrix(-beta, k, cfg)
            sym = all(mat[i][j] == tmat[j][i]
                      for i in range(len(rows)) for j in range(len(cols)))
            ok = sym and det_scalar(mat).is_monomial
            rep.record((b, k), S_ONE if ok else S_ZERO, S_ONE,
                       note=f"symmetric slice with unit determinant, dim {len(rows)}")
    return rep


class AdjointIntertwinerOp:
    """Coefficient extractor for the adjoint intertwiner Yd(u|a>, z).

    The series is upper truncated: on a target with level sum kt the
    exponents are bounded above by kt - ku - a.(a+c) for target label c.
    """

    def __init__(self, spec: IntertwinerSpec, cfg: FormConfig,
                 cutoff: int | None = None):
        self.cfg = cfg
        self.cutoff = cutoff
        self.label = spec.label
        self.cocycle = spec.cocycle
        self.weight_int = spec.weight_int
        self._avec = self.label.alpha
        self._arg_plus = -lam_pow(-2)   # Yminus^+(a,z): modes at z^(+k)
        self._arg_minus = -lam_pow(2)   # Yplus^+(a,z): modes at z^(-k)
        # parts of e^(-z lam^-2 L(1)) (lam/(E(N)z))^(2L(0)) u: for each
        # head monomial of weight h, (-1)^q L(1)^q u / q! carries the
        # z-exponent q-2h and the scalar lam^(2h-2q)
        self._u_parts: list[tuple[int, State, Scalar]] = []
        for hm, hc in spec.head.items_sorted():
            h = hm.levels_sum
            u = State.of(monomial(zero_label(spec.head.rank), hm.parts))
            for q, cur in enumerate(exp_virasoro_coeffs(1, u, h, sign=-1)):
                if cur.is_zero:
                    break  # L(1) lowers the level sum: the rest vanishes too
                self._u_parts.append((q - 2 * h, cur, lam_pow(2 * h - 2 * q) * hc))

    def offset_on(self, target_label: Label) -> GaussRat:
        return -self.label.dot(self.label + target_label)

    def coefficient(self, target: State, exponent) -> State:
        exponent = as_gauss(exponent)
        out = State.zero(target.rank)
        n_b = self.cfg.n_branch
        alpha = self.label
        for tm, tc in target.items_sorted():
            gamma = tm.label
            n_rel = exponent_index(self.offset_on(gamma), exponent)
            level_out = tm.levels_sum - self.weight_int - n_rel
            if self.cutoff is not None and level_out > self.cutoff:
                raise WindowError("adjoint coefficient beyond cutoff")
            t1 = e_dagger(self.cocycle, alpha, State.of(tm, coeff=tc), n_b)
            acc = State.zero(target.rank)
            kt1 = tm.levels_sum
            for k2 in range(kt1 + 1):
                x = annihilation_coeff(self._avec, k2, t1, arg=self._arg_plus)
                if x.is_zero:
                    continue
                kx = x.max_levels()
                for d_exp, uq, uscale in self._u_parts:
                    hq = uq.max_levels()
                    # total exponent: n_rel = k2 + d_exp + (p+1) - k4
                    p_lo = n_rel - k2 - d_exp - 1
                    for p in range(p_lo, hq + kx):
                        k4 = k2 + d_exp + p + 1 - n_rel
                        mode_scale = lam_pow(-2 * p - 2) * sign_pow(p + 1)
                        gsa = vertex_mode(uq, p, x)
                        if gsa.is_zero:
                            continue
                        term = creation_coeff(self._avec, k4, gsa,
                                              arg=self._arg_minus)
                        acc = acc + term.scale(uscale * mode_scale)
            out = out + acc
        return out


def verify_invariance(x: IntertwinerSpec, y: State, t: State, cfg: FormConfig,
                      radius: int = 2, cutoff: int | None = None) -> VerificationReport:
    """<Y(u|a>,z) v|b>, w|c>> = E(-N a.b) C(a,b) <v|b>, Yd(u|a>,z) w|c>>.

    When a+b+c is nonzero both sides vanish identically; the window is
    still walked so the selection rule itself is what gets checked.
    """
    cs = x.cocycle
    alpha = x.label
    beta = y.single_label()
    gamma = t.single_label()
    op = IntertwinerOp(x, cutoff)
    adj = AdjointIntertwinerOp(x, cfg, cutoff)
    pref = branch_phase(-alpha.dot(beta), cfg.n_branch) * cs.commutator(alpha, beta)
    rep = VerificationReport(
        "invariance", window_used=f"radius {radius}",
        meta={"alpha": str(alpha), "beta": str(beta), "gamma": str(gamma),
              "branch_N": str(cfg.n_branch),
              "selection": "zero" if (alpha + beta + gamma).is_zero else "nonzero"})
    # both sides are series in the same variable; compare at equal powers.
    # off-coset powers carry no term, i.e. a known zero coefficient.
    adj_offset = adj.offset_on(gamma)
    lo = -(x.weight_int + y.max_levels() + t.max_levels()) - radius
    for n in range(lo, radius + 1):
        e = alpha.dot(beta) + n

        def compute(e=e):
            left = gram(op.coefficient(y, e), t, cfg)
            if (e - adj_offset).is_integer:
                right = pref * gram(y, adj.coefficient(t, e), cfg)
            else:
                right = S_ZERO
            return left, right

        rep.guarded((e,), compute)
    return rep
