"""The identity-verification engine.

All three-term delta-kernel identities checked here share one shape:

    z0^-1 ((z1-z2)/z0)^k12 d((z1-z2)/z0)  OP1(z1) OP2(z2)
  - C12 z0^-1 ((z2-z1)/z0)^k12 d((z2-z1)/-z0)  OP2(z2) OP1(z1)
  = z2^-1 d((z1-z0)/z2) OP12(z0; z2) ((z1-z0)/z2)^kR

applied to a fixed target.  The kernels are never materialized: for a
fixed exponent triple (a, b, c) of (z0, z1, z2) the delta index is
pinned by a, every binomial expansion contributes a single finite sum
bounded by lower truncation, and each summand is one exact coefficient
of an operator product.  Expansion directions follow the global
convention: a binomial (x+y)^kappa is always expanded in nonnegative
powers of its second summand, so

    (z1-z2)^(n+k12) in powers of z2,
    (z2-z1)^(n+k12) in powers of z1,
    (z1-z0)^(n+kR)  in powers of z0.

The extracted sums, with n pinned by a and integer offsets ia, ib, ic
around the coset base points:

    LHS1 = sum_m (-1)^m binom(k12-ia-1, m) P12(b+a+1+m, c-m)
    LHS2 = C12 (-1)^ia sum_m (-1)^m binom(k12-ia-1, m) P21(c+a+1+m, b-m)
    RHS  = sum_m (-1)^m binom(b+m, m) OP12(H(a-m)) at z2^(b+c+m+1)

where P12 / P21 are coefficients of the two operator orderings and
H(d) is the z0^d coefficient of OP1 applied to OP2's head vector.
The m-sums stop at the exact lower-truncation bounds derived from
level-sum nonnegativity; a configured cutoff never truncates a sum,
it only marks coefficients as skipped when their exact evaluation
would need level sums beyond budget.

The engine reads every summand through ``coefficient``, a ``State``
stored by sector (per label, one rational term dict per unit of the
formal unit group).  Each side of a triple is accumulated into one such
sector dict, C12 entering unit by unit, and becomes a ``State``; only a
failing record keeps the two.
"""

from __future__ import annotations

from typing import Callable

from .fock import Sectors, State, _add_sectors, exp_virasoro_coeffs, vertex_mode
from .intertwiner import CocycleSystem, IntertwinerOp
from .report import VerificationReport
from .scalars import (
    Scalar,
    as_gauss,
    binom,
    branch_phase,
)
from .series import CosetError, exponent_index

__all__ = [
    "three_term_jacobi",
    "verify_commutator",
    "verify_generalized_jacobi",
    "verify_locality",
    "verify_normal_order",
    "verify_skew_symmetry",
]


class _OffsetGrid(dict):
    """A lazily filled table of one engine call, keyed by two integer
    exponent offsets: ``grid[p, q]`` is ``outer(inner(p), q)``, with
    ``inner`` read once per p and every entry computed once."""

    def __init__(self, inner: Callable, outer: Callable):
        super().__init__()
        self.inner = inner
        self.outer = outer
        self.mids: dict = {}

    def mid(self, p):
        """inner(p), read once."""
        mids = self.mids
        if p not in mids:
            mids[p] = self.inner(p)
        return mids[p]

    def __missing__(self, key):
        p, q = key
        value = self[key] = self.outer(self.mid(p), q)
        return value


def three_term_jacobi(*, name: str, op1, op2, op12_factory: Callable,
                      target: State, kappa12, kappa_rhs, c12: Scalar,
                      radius: int, cutoff: int, meta: dict | None = None,
                      op1_lhs2=None, op2_lhs2=None, op1_rhs=None) -> VerificationReport:
    """Run the generic three-term check on an (2r+1)^3 exponent window.

    ``op1``/``op2`` act in the orderings of the first term; variants for
    the opposite ordering and for the inner right-hand application may
    be supplied when the operator dressing depends on the sector it acts
    on (the twisted-sector families need this), and default to the same
    objects otherwise.
    """
    kappa12 = as_gauss(kappa12)
    kappa_rhs = as_gauss(kappa_rhs)
    op1_lhs2 = op1_lhs2 or op1
    op2_lhs2 = op2_lhs2 or op2
    op1_rhs = op1_rhs or op1
    lab_s = target.single_label()
    lab_y = op2.label
    y_state = op2.head_state
    kx, ky, ks = op1.weight_int, op2.weight_int, target.max_levels()

    a_base = -kappa12
    b_base = kappa12 + op1.offset_on(lab_y + lab_s)
    c_base = op2.offset_on(lab_s)
    # coset consistency across the three terms; the integer shifts relate
    # each inner operator's own coset base to the kernel's base and enter
    # the exact lower-truncation bounds of the m-sums below
    shift_b2 = exponent_index(op1_lhs2.offset_on(lab_s), b_base)
    shift_c2 = exponent_index(op2_lhs2.offset_on(op1.label + lab_s),
                              c_base - kappa12)
    shift_r = exponent_index(op1_rhs.offset_on(lab_y), a_base)
    if not (b_base - kappa_rhs).is_integer:
        raise CosetError(f"{name}: z1 coset does not match the right-hand "
                         f"kernel (off by {b_base - kappa_rhs})")

    rep = VerificationReport(name, window_used=f"radius {radius} cube")
    rep.meta.update(meta or {})
    rep.meta["z0_coset"] = f"({a_base})+Z"
    rep.meta["z1_coset"] = f"({b_base})+Z"
    rep.meta["z2_coset"] = f"({c_base})+Z"
    rep.meta["inner_shifts"] = f"lhs2={shift_b2},{shift_c2} rhs={shift_r}"

    # the three sums read operator products at integer offsets p of the
    # inner and q of the outer exponent from their coset bases; on the
    # right the inner offset ia-m picks the head H(a-m) and its operator
    base12, base21 = a_base + b_base + 1, a_base + c_base + 1
    base_r = b_base + c_base + 1

    def rhs_op(d: int):
        head = op1_rhs.coefficient(y_state, a_base + d)
        return None if head.is_zero else op12_factory(head)

    rank = target.rank
    zero = State.zero(rank)
    grid12 = _OffsetGrid(lambda p: op2.coefficient(target, c_base + p),
                         lambda mid, q: op1.coefficient(mid, base12 + q))
    grid21 = _OffsetGrid(lambda p: op1_lhs2.coefficient(target, b_base + p),
                         lambda mid, q: op2_lhs2.coefficient(mid, base21 + q))
    grid_r = _OffsetGrid(rhs_op, lambda op, q: zero if op is None
                         else op.coefficient(target, base_r + q))

    rng = range(-radius, radius + 1)
    # the kernel coefficients (-1)^m binom(kappa12-ia-1, m) of the left
    # sums per ia, and (-1)^m binom(b+m, m) of the right sum per ib
    n_lhs = max(ky + ks, kx + ks + shift_b2) + radius + 1
    n_rhs = kx + ky + shift_r + radius + 1
    lhs_coefs = {ia: [(-1) ** m * binom(kappa12 - ia - 1, m) for m in range(n_lhs)]
                 for ia in rng}
    rhs_coefs = {ib: [(-1) ** m * binom(b_base + ib + m, m) for m in range(n_rhs)]
                 for ib in rng}
    for ia in rng:
        a = a_base + ia
        lhs_coef = lhs_coefs[ia]
        for ib in rng:
            b = b_base + ib
            rhs_coef = rhs_coefs[ib]
            for ic in rng:
                c = c_base + ic
                k_out = kx + ky + ks + ia + ib + ic + 1
                need = max(k_out, ky + ks + ic, kx + ks + ib + shift_b2,
                           kx + ky + ia + shift_r, 0)
                if rep.past_cutoff((a, b, c), need, cutoff):
                    continue
                lhs: Sectors = {}
                for m in range(ky + ks + ic + 1):
                    coef = lhs_coef[m]
                    if not coef.is_zero:
                        _add_sectors(lhs, coef, grid12[ic - m, ia + ib + m].sectors)
                # the second ordering carries C12 (-1)^ia
                for m in range(kx + ks + ib + shift_b2 + 1):
                    coef = lhs_coef[m]
                    if not coef.is_zero:
                        _add_sectors(lhs, -coef if ia % 2 else coef,
                                   grid21[ib - m, ia + ic + m].sectors, c12)
                rhs: Sectors = {}
                for m in range(kx + ky + ia + shift_r + 1):
                    coef = rhs_coef[m]
                    if not coef.is_zero:
                        _add_sectors(rhs, coef, grid_r[ia - m, ib + ic + m].sectors)
                rep.record((a, b, c), State(rank, lhs), State(rank, rhs))
    return rep


def verify_generalized_jacobi(x: State, y: State, s: State, cocycle: CocycleSystem,
                              n_branch: int = 1, *, radius: int,
                              cutoff: int) -> VerificationReport:
    """The three-term identity for two creative intertwiners.

    Both heads and every right-hand head read the one cocycle.  The left
    kernels carry the binomial power -alpha.beta, the right kernel the
    zero-mode eigenvalue alpha.gamma of the target, and the second
    ordering is weighted by the cocycle commutator C(alpha,beta).  The
    identity is branch-free; n_branch is recorded for the report only.
    """
    op1, op2 = IntertwinerOp(x, cocycle), IntertwinerOp(y, cocycle)
    alpha, beta = op1.label, op2.label
    gamma = s.single_label()
    return three_term_jacobi(
        name="generalized_jacobi",
        op1=op1, op2=op2,
        op12_factory=lambda head: IntertwinerOp(head, cocycle),
        target=s,
        kappa12=-alpha.dot(beta),
        kappa_rhs=alpha.dot(gamma),
        c12=cocycle.commutator(alpha, beta),
        radius=radius, cutoff=cutoff,
        meta={"alpha": str(alpha), "beta": str(beta), "gamma": str(gamma),
              "branch_N": str(n_branch)})


def verify_skew_symmetry(x: State, y: State, cocycle: CocycleSystem, n_branch: int = 1,
                         *, radius: int, cutoff: int) -> VerificationReport:
    """Y(u|a>, z) v|b> = E(-N a.b) C(a,b) e^(zL(-1)) Y(v|b>, -z) u|a>.

    Fractional powers of -z are resolved through the branch unit with
    the same odd N as the explicit prefactor, so the verdict must not
    depend on N.
    """
    op_x = IntertwinerOp(x, cocycle)
    op_y = IntertwinerOp(y, cocycle)
    alpha, beta = op_x.label, op_y.label
    ab = alpha.dot(beta)
    ku, kv = op_x.weight_int, op_y.weight_int
    lo = -(ku + kv)
    rep = VerificationReport("skew_symmetry",
                             window_used=f"[{lo},{radius}] around ({ab})",
                             meta={"branch_N": str(n_branch)})
    pref = branch_phase(-ab, n_branch) * cocycle.commutator(alpha, beta)
    top = min(radius, cutoff - ku - kv)
    # chains[m][p] = L(-1)^p/p! of the Y(v|b>, -z) u|a> coefficient at
    # z^(ab+m), the branch resolving (-z)^kappa
    chains = {m: exp_virasoro_coeffs(-1, op_y.coefficient(x, ab + m).scale(
        branch_phase(ab + m, n_branch)), top - m) for m in range(lo, top + 1)}
    for n in range(lo, radius + 1):
        if rep.past_cutoff((ab + n,), ku + kv + n, cutoff):
            continue
        left = op_x.coefficient(y, ab + n)
        right = State.zero(y.rank)
        for p in range(0, n - lo + 1):
            right = right + chains[n - p][p]
        rep.record((ab + n,), left, right.scale(pref))
    return rep


def verify_commutator(u: State, w: State, k: int, s: State, cocycle: CocycleSystem,
                      *, radius: int, cutoff: int) -> VerificationReport:
    """u(k) Y(w,z) - Y(w,z) u(k) = sum_j binom(k,j) Y(u(j)w, z) z^(k-j)."""
    op_w = IntertwinerOp(w, cocycle)
    base = op_w.label.dot(s.single_label())
    rep = VerificationReport("commutator", window_used=f"radius {radius}",
                             meta={"mode": str(k)})
    kw, ks = op_w.weight_int, s.max_levels()
    # the reads at relative exponent n: Y(w) on s and on u(k)s at n, and
    # each Y(u(j)w) with binom(k, j) != 0 on s at n - k + j; offset is the
    # largest level sum they need past n
    uks = vertex_mode(u, k, s)
    offset = kw + max(ks, uks.max_levels())
    rhs_ops = []
    for j in range(u.max_levels() + kw + 1):
        head = vertex_mode(u, j, w)
        coef = binom(k, j)
        if not head.is_zero and not coef.is_zero:
            op = IntertwinerOp(head, cocycle)
            rhs_ops.append((j, coef, op))
            offset = max(offset, op.weight_int + ks - k + j)
    lo = -(kw + ks + max(-k, 0))
    for n in range(lo, radius + 1):
        e = base + n
        if rep.past_cutoff((e,), offset + n, cutoff):
            continue
        left = vertex_mode(u, k, op_w.coefficient(s, e)) - op_w.coefficient(uks, e)
        right = State.zero(s.rank)
        for j, coef, op in rhs_ops:
            right = right + op.coefficient(s, e - k + j).scale(coef)
        rep.record((e,), left, right)
    return rep


def verify_normal_order(u: State, w: State, s: State, cocycle: CocycleSystem,
                        *, radius: int, cutoff: int) -> VerificationReport:
    """:Y(u,z) Y(w,z): = Y(u(-1)w, z), creation modes of u on the left.

    The left side is local and creative, so its equality with the right
    side is one instance of uniqueness of creative fields.
    """
    op_w = IntertwinerOp(w, cocycle)
    base = op_w.label.dot(s.single_label())
    rep = VerificationReport("normal_order", window_used=f"radius {radius}")
    rhs_op = IntertwinerOp(vertex_mode(u, -1, w), cocycle)
    kw, ks, ku = op_w.weight_int, s.max_levels(), u.max_levels()
    # the annihilation part reads Y(w) on each nonzero u(m)s at n + m + 1
    tails = [(m, vertex_mode(u, m, s)) for m in range(ku + ks)]
    tails = [(m, t) for m, t in tails if not t.is_zero]
    # the reads at relative exponent n need these level sums past n
    offset = max([kw + ks, rhs_op.weight_int + ks]
                 + [kw + t.max_levels() + m + 1 for m, t in tails])
    for n in range(-radius, radius + 1):
        e = base + n
        if rep.past_cutoff((e,), offset + n, cutoff):
            continue
        left = State.zero(s.rank)
        # creation part of Y(u,z) to the left
        m = -1
        while n + m + 1 >= -(kw + ks):
            left = left + vertex_mode(u, m, op_w.coefficient(s, e + m + 1))
            m -= 1
        # annihilation part of Y(u,z) to the right
        for m, t in tails:
            left = left + op_w.coefficient(t, e + m + 1)
        rep.record((e,), left, rhs_op.coefficient(s, e))
    return rep


def verify_associativity(u: State, w: State, s: State, cocycle: CocycleSystem,
                         n_power: int, *, radius: int,
                         cutoff: int) -> VerificationReport:
    """(z0+z2)^n Y(u,z0+z2) Y(w,z2) s = (z0+z2)^n Y(Y(u,z0)w, z2) s.

    Powers of z0+z2 expand in nonnegative powers of the second summand
    z2.  The power n must clear the pole of Y(u,z0)w for the identity to
    hold; undersized n is a designed failure.
    """
    if n_power < 0:
        raise ValueError("associativity power must be a natural number")
    op_w = IntertwinerOp(w, cocycle)
    base = op_w.label.dot(s.single_label())
    rep = VerificationReport(
        "associativity",
        window_used=f"z0 radius {radius}, z2 radius {radius}, n={n_power}",
        meta={"n": str(n_power)})
    kw, ks, ku = op_w.weight_int, s.max_levels(), u.max_levels()
    # right side only sees head exponents d = e0-n+mm with 0 <= mm <= n
    heads = {}
    for j in range(-(radius + 1), min(n_power + radius, ku + kw) + 1):
        head = vertex_mode(u, j, w)
        if not head.is_zero:
            heads[-j - 1] = IntertwinerOp(head, cocycle)
    # W[p, j] = u(j) of the coefficient of Y(w) s at z2^(base+p)
    W = _OffsetGrid(lambda p: op_w.coefficient(s, base + p),
                    lambda mid, j: vertex_mode(u, j, mid))
    for e0 in range(-radius, radius + 1):
        for n2 in range(-radius, radius + 1):
            e2 = base + n2
            rights = []
            for d, op in heads.items():
                # e0 = (n - mm) + d for the z2-degree mm of the kernel
                mm = n_power + d - e0
                if mm < 0:
                    continue
                coef = binom(n_power, mm)
                if not coef.is_zero:
                    rights.append((op, mm, coef))
            # the left reads Y(w) s at z2-offsets up to n2, where its
            # binomial is 1, and the right each head at n2 - mm
            need = max([kw + ks + n2] + [op.weight_int + ks + n2 - mm
                                         for op, mm, _ in rights])
            if rep.past_cutoff((as_gauss(e0), e2), need, cutoff):
                continue
            left = State.zero(s.rank)
            j_hi = n_power - 1 - e0
            j_lo = j_hi - (n2 + kw + ks)
            for j in range(j_lo, j_hi + 1):
                coef = binom(n_power - j - 1, n_power - j - 1 - e0)
                if coef.is_zero:
                    continue
                left = left + W[n2 - n_power + j + 1 + e0, j].scale(coef)
            right = State.zero(s.rank)
            for op, mm, coef in rights:
                right = right + op.coefficient(s, e2 - mm).scale(coef)
            rep.record((as_gauss(e0), e2), left, right)
    return rep


def verify_locality(u: State, w: State, s: State, cocycle: CocycleSystem,
                    m_power: int, *, radius: int,
                    cutoff: int) -> VerificationReport:
    """(z1-z2)^m [ Y(u,z1) Y(w,z2) - Y(w,z2) Y(u,z1) ] s = 0 coefficientwise.

    With m below the pole order the check fails; a caller that builds
    that case marks the report it gets back as a designed failure.
    """
    if m_power < 0:
        raise ValueError("locality power must be a natural number")
    op_w = IntertwinerOp(w, cocycle)
    base = op_w.label.dot(s.single_label())
    rep = VerificationReport(
        "locality", window_used=f"z1 radius {radius}, z2 radius {radius}, m={m_power}",
        meta={"m": str(m_power)})
    # G[p, e1] = u(-e1-1) Y(w) s and H[e1, p] = Y(w) u(-e1-1) s at z2^(base+p)
    G = _OffsetGrid(lambda p: op_w.coefficient(s, base + p),
                    lambda mid, e1: vertex_mode(u, -e1 - 1, mid))
    H = _OffsetGrid(lambda e1: vertex_mode(u, -e1 - 1, s),
                    lambda mid, p: op_w.coefficient(mid, base + p))
    kw, ks = op_w.weight_int, s.max_levels()
    zero = State.zero(s.rank)
    for e1 in range(-radius, radius + 1):
        for n2 in range(-radius, radius + 1):
            # at each j, G reads Y(w) on s and H on u(-d1-1)s at z2-offset
            # n2 - j, with d1 = e1 - m + j
            need = max(kw + max(ks, H.mid(e1 - m_power + j).max_levels()) + n2 - j
                       for j in range(m_power + 1))
            if rep.past_cutoff((as_gauss(e1), base + n2), need, cutoff):
                continue
            acc = State.zero(s.rank)
            for j in range(m_power + 1):
                coef = binom(m_power, j)
                if j % 2:
                    coef = -coef
                d1 = e1 - m_power + j
                acc = acc + (G[n2 - j, d1] - H[d1, n2 - j]).scale(coef)
            rep.record((as_gauss(e1), base + n2), acc, zero)
    return rep
