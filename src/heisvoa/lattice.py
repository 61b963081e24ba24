"""Integral lattices, their cocycles, twisted modules, and the
complex-parametrized vertex operators on twisted sectors.

A rank-r Euclidean lattice with integer Gram matrix G is realized
inside a rank-l free-boson algebra through an exact rational isometric
embedding B (columns = images of the lattice basis, B^T B = G).  The
standard dot product of embedded labels then reproduces the lattice
pairing, so every label-level identity applies verbatim.  Such an
embedding always exists rationally at the price of extra rank (LDL^T
plus a four-square decomposition of each pivot); nice low-rank
embeddings may be supplied explicitly.  The central charge of the
ambient algebra is the embedding rank l.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .fock import (
    Label,
    State,
    apply_mode,
    basis_monomials,
    label,
    verify_virasoro_brackets,
    virasoro_mode,
)
from .intertwiner import (
    CocycleSystem,
    IntertwinerOp,
    apply_e,
)
from .jacobi import three_term_jacobi
from .report import VerificationReport
from .scalars import (
    GR_ZERO,
    GaussRat,
    S_ZERO,
    Scalar,
    _frac,
    as_gauss,
    branch_phase,
    gr,
    sign_pow,
)

Mat = tuple[tuple[Fraction, ...], ...]


def _mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(tuple(_frac(x) for x in row) for row in rows)


def _mat_inv(m: Mat) -> Mat:
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        d = aug[col][col]
        aug[col] = [x / d for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def four_squares(n: int) -> list[int]:
    """n = a^2+b^2+c^2+d^2 by bounded search (n is a small pivot here)."""
    if n < 0:
        raise ValueError("lattice must be positive definite")
    top = math.isqrt(n)
    for a in range(top, -1, -1):
        r1 = n - a * a
        t1 = math.isqrt(r1)
        for b in range(t1, -1, -1):
            r2 = r1 - b * b
            t2 = math.isqrt(r2)
            for c in range(t2, -1, -1):
                r3 = r2 - c * c
                d = math.isqrt(r3)
                if d * d == r3:
                    return [x for x in (a, b, c, d) if x]
    raise AssertionError("unreachable")


def rational_embedding(gram: Sequence[Sequence[int]]) -> Mat:
    """Some B with B^T B = gram, via LDL^T and four squares per pivot."""
    g = _mat(gram)
    r = len(g)
    lower = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    d = [Fraction(0)] * r
    work = [list(row) for row in g]
    for k in range(r):
        d[k] = work[k][k] - sum(lower[k][j] ** 2 * d[j] for j in range(k))
        if d[k] <= 0:
            raise ValueError("lattice must be positive definite")
        for i in range(k + 1, r):
            lower[i][k] = (work[i][k]
                           - sum(lower[i][j] * lower[k][j] * d[j]
                                 for j in range(k))) / d[k]
    rows: list[list[Fraction]] = []
    for k in range(r):
        q = d[k].denominator
        squares = four_squares(d[k].numerator * q)
        for s in squares:
            rows.append([Fraction(s, q) * lower[i][k] for i in range(r)])
    return tuple(tuple(row) for row in rows)


class IntegralLattice(NamedTuple):
    gram: tuple[tuple[int, ...], ...]
    embedding: Mat  # heis_rank x lattice_rank, columns are basis images
    gram_inv: Mat  # G^-1, inverted once when the lattice is built

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def heis_rank(self) -> int:
        return len(self.embedding)

    def label_of(self, coords: Sequence) -> Label:
        """The embedded label of a coordinate tuple (Gaussian rationals OK)."""
        coords = [as_gauss(c) for c in coords]
        if len(coords) != self.rank:
            raise ValueError("coordinate length != lattice rank")
        out = []
        for row in self.embedding:
            acc = GR_ZERO
            for j in range(self.rank):
                acc = acc + coords[j] * row[j]
            out.append(acc)
        return label(out)

    def coords_of(self, lab: Label) -> tuple[Fraction, ...] | None:
        """Lattice coordinates of an embedded label, or None if outside."""
        if not all(a.im == 0 for a in lab.alpha):
            return None
        # coords = G^-1 B^T lab
        bt_lab = [sum(self.embedding[i][k] * lab.alpha[i].re
                      for i in range(self.heis_rank))
                  for k in range(self.rank)]
        coords = tuple(sum(self.gram_inv[k][j] * bt_lab[j]
                           for j in range(self.rank))
                       for k in range(self.rank))
        if self.label_of(coords) != lab:
            return None
        return coords

    def in_lattice(self, lab: Label) -> bool:
        coords = self.coords_of(lab)
        return coords is not None and all(c.denominator == 1 for c in coords)


def integral_lattice(gram: Sequence[Sequence[int]],
                     embedding: Sequence[Sequence] | None = None) -> IntegralLattice:
    g = tuple(tuple(int(x) for x in row) for row in gram)
    r = len(g)
    for i in range(r):
        if len(g[i]) != r:
            raise ValueError("gram matrix must be square")
        for j in range(r):
            if g[i][j] != g[j][i]:
                raise ValueError("gram matrix must be symmetric")
    b = _mat(embedding) if embedding is not None else rational_embedding(g)
    if any(len(row) != r for row in b):
        raise ValueError("each embedding row must have one entry per lattice "
                         "basis vector")
    for j in range(r):
        for k in range(r):
            got = sum(b[i][j] * b[i][k] for i in range(len(b)))
            if got != g[j][k]:
                raise ValueError("embedding does not reproduce the gram matrix")
    return IntegralLattice(g, b, _mat_inv(_mat(g)))


def lattice_cocycle(lattice: IntegralLattice) -> CocycleSystem:
    """Bimultiplicative epsilon on the embedded labels whose commutator is
    (-1)^(m1.m2 + m1^2 m2^2) on lattice vectors.

    On the lattice basis, eps(e_i, e_j) = 1 for i <= j; the values for
    i > j are then forced by the required commutator.  The exponent
    matrix extends to all labels Q(i)-bilinearly through G^-1 B^T.
    """
    r = lattice.rank
    g = lattice.gram
    f_lat = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            if i > j:
                f_lat[i][j] = Fraction(g[i][j] + g[i][i] * g[j][j])
    gram_inv = lattice.gram_inv
    b = lattice.embedding
    l = lattice.heis_rank
    # f = B G^-1 f_lat G^-1 B^T
    proj = [[sum(gram_inv[k][j] * b[i][j] for j in range(r))
             for k in range(r)] for i in range(l)]  # B G^-1, l x r
    mid = [[sum(f_lat[i][j] * proj[q][j] for j in range(r))
            for q in range(l)] for i in range(r)]   # f_lat (B G^-1)^T, r x l
    f = tuple(tuple(gr(sum(proj[i][k] * mid[k][q] for k in range(r)))
                    for q in range(l)) for i in range(l))
    zero = tuple((GR_ZERO,) * l for _ in range(l))
    return CocycleSystem(l, f, zero)


# ---------------------------------------------------------------------------
# twisted modes and gradings: a twist is the embedded-space Label alpha of a
# Heisenberg vector, passed beside the one IntegralLattice where one is needed


def twisted_virasoro_mode(alpha: Label, n: int, s: State) -> State:
    """L_g(n) = L(n) + alpha(n) + alpha.alpha/2 delta_{n,0}."""
    out = virasoro_mode(n, s)
    for i, a in enumerate(alpha.alpha, start=1):
        if not a.is_zero:
            out = out + apply_mode(i, n, s).scale(a)
    if n == 0:
        out = out + s.scale(alpha.norm2() / 2)
    return out


def shifted_virasoro(alpha: Label, n: int, s: State) -> State:
    """L_a(n) = L(n) + (n+1) alpha(n), the modes of omega - alpha(-2)vac."""
    out = virasoro_mode(n, s)
    if n != -1:
        for i, a in enumerate(alpha.alpha, start=1):
            if not a.is_zero:
                out = out + apply_mode(i, n, s).scale(a * (n + 1))
    return out


def shifted_central_charge(alpha: Label) -> GaussRat:
    """c_a = l - 12 alpha.alpha for the shifted conformal vector."""
    return gr(alpha.rank) - alpha.norm2() * 12


def verify_shifted_virasoro(lat: IntegralLattice, alpha: Label, max_weight: int,
                            report: VerificationReport) -> VerificationReport:
    """On the sector of the first lattice basis vector: the normalized
    grading match L_a(0) - c_a/24 = L_g(0) - l/24 on each basis state of
    level sum <= max_weight, then the Virasoro brackets of the L_a(n) at
    central charge c_a on the lowest one; records go into ``report``."""
    c_a = shifted_central_charge(alpha)
    rank = lat.heis_rank
    basis = basis_monomials(rank, max_weight,
                            lat.label_of([1] + [0] * (lat.rank - 1)))
    for bi, bm in enumerate(basis):
        st = State.of(bm)
        low = shifted_virasoro(alpha, 0, st) - st.scale(c_a / 24)
        rig = twisted_virasoro_mode(alpha, 0, st) - st.scale(Fraction(rank, 24))
        report.record((bi, 0), low, rig, note="normalized grading match")
    return verify_virasoro_brackets(lambda n, s: shifted_virasoro(alpha, n, s),
                                    c_a, [((), State.of(basis[0]))], radius=3,
                                    report=report)


# ---------------------------------------------------------------------------
# twisted vertex operators


class TwistedVertexOp(IntertwinerOp):
    """Y_g(u|mu>, z) = Y(Delta(alpha,z) u|mu>, z) acting on the plain
    lattice module."""

    def __init__(self, head: State, cocycle: CocycleSystem, alpha: Label):
        super().__init__(head, cocycle, beta=alpha)


def verify_twisted_jacobi(lat: IntegralLattice, alpha: Label, x: State,
                          y: State, s: State, *, radius: int,
                          cutoff: int) -> VerificationReport:
    """The three-term identity for twisted-sector targets.

    For lattice labels m1, m2 and a target in the alpha-shifted sector
    the kernels are integer-power deltas, the second ordering carries
    the parity sign (-1)^(m1^2 m2^2), and the right kernel the power
    ((z1-z0)/z2)^(m1.alpha) with twist eigenvalue rho = -m1.alpha.  Every
    operator reads the lattice's parity cocycle.  The embedding is an
    isometry, so m1^2 and m2^2 are the norms of the head labels.
    """
    cs = lattice_cocycle(lat)
    m1, m2 = x.single_label(), y.single_label()
    mu1 = lat.coords_of(m1)
    mu2 = lat.coords_of(m2)
    if mu1 is None or mu2 is None or \
            not all(c.denominator == 1 for c in list(mu1) + list(mu2)):
        raise ValueError("twisted Jacobi requires lattice-vector heads")
    parity = sign_pow(int((m1.norm2() * m2.norm2()).re))
    op1 = IntertwinerOp(x, cs)
    op2 = IntertwinerOp(y, cs)
    rho = -m1.dot(alpha)
    return three_term_jacobi(
        name="twisted_jacobi",
        op1=op1, op2=op2,
        op12_factory=lambda head: IntertwinerOp(head, cs),
        target=s,
        kappa12=GR_ZERO,
        kappa_rhs=-rho,
        c12=parity,
        radius=radius, cutoff=cutoff,
        meta={"rho": str(rho), "parity_sign": str(parity),
              "mu1": ",".join(str(c) for c in mu1),
              "mu2": ",".join(str(c) for c in mu2),
              "note": "right kernel ((z1-z0)/z2)^(mu1.alpha), twisted-module shape"})


def verify_li_equivalence(lat: IntegralLattice, alpha: Label, x: State,
                          target: State, *, radius: int,
                          cutoff: int) -> VerificationReport:
    """Y(x,z) e^alpha t = C(mu,alpha) e^alpha Y_g(x,z) t coefficientwise.

    The label bijection e^alpha: mu -> mu+alpha intertwines the twisted
    operator on the plain sector with the plain operator on the shifted
    sector, up to the conjugation commutator C(mu,alpha), both read
    through the lattice's parity cocycle.
    """
    cs = lattice_cocycle(lat)
    mu = x.single_label()
    if not lat.in_lattice(mu):
        raise ValueError("head must carry a lattice label")
    direct = IntertwinerOp(x, cs)
    li = TwistedVertexOp(x, cs, alpha)
    c_fix = cs.commutator(mu, alpha)
    shifted = apply_e(cs, alpha, target)
    base = li.offset_on(target.single_label())
    lo = -(x.max_levels() + target.max_levels())
    rep = VerificationReport(
        "li_equivalence", window_used=f"[{lo},{radius}]",
        meta={"mu": str(mu), "alpha": str(alpha), "C(mu,alpha)": str(c_fix)})
    for n in range(lo, radius + 1):
        e = base + n
        # both reads are at relative exponent n on level sum kt: kx + kt + n
        if rep.past_cutoff((e,), n - lo, cutoff):
            continue
        rep.record((e,), direct.coefficient(shifted, e),
                   apply_e(cs, alpha, li.coefficient(target, e)).scale(c_fix))
    return rep


def verify_twist_grading(lat: IntegralLattice, alpha: Label,
                         max_weight: int) -> VerificationReport:
    """L_g(0) spectrum on the plain sector matches L(0) on the shifted one."""
    rep = VerificationReport("twist_grading", window_used=f"weight<= {max_weight}")
    rank = lat.heis_rank
    # the record key prints the label's sort key padded with one zero pair
    # per coordinate, the fixed key text of this report
    pad = ((Fraction(0), Fraction(0)),) * rank
    for mu_val in (0, 1, -1):
        mu = lat.label_of([mu_val] + [0] * (lat.rank - 1))
        for m in basis_monomials(rank, max_weight, mu):
            shifted = m._replace(label=mu + alpha)
            got = dict(twisted_virasoro_mode(alpha, 0, State.of(m)).items_sorted())
            want = dict(virasoro_mode(0, State.of(shifted)).items_sorted())
            rep.record((str((m.label.sort_key() + pad, m.parts)),),
                       got.get(m, S_ZERO), want.get(shifted, S_ZERO))
    return rep


# ---------------------------------------------------------------------------
# complex-parametrized operators on twisted sectors


class DlmOp(IntertwinerOp):
    """The generalized vertex operator on twisted sectors, closed form.

    For a head u|mu1+a> acting on a target v|mu2+b> (b the declared
    sector twist of the target) the operator is the plain intertwiner
    with the e^alpha constant eps(mu1+a, mu2+b) replaced by

        delta variant: E(N a.mu2) eps(mu1,mu2)
        hat variant:   eps(mu1,mu2)

    The branch phase of the delta variant is the surviving trace of the
    (-z)^(a(0)) factor in its defining dressing.
    """

    def __init__(self, head: State, cocycle: CocycleSystem,
                 lattice: IntegralLattice, alpha: Label, sector: Label,
                 variant: str, n_branch: int):
        if variant not in ("delta", "hat"):
            raise ValueError("variant must be 'delta' or 'hat'")
        super().__init__(head, cocycle)
        self.lattice = lattice
        self.alpha = alpha
        self.sector = sector
        self.variant = variant
        self.n_branch = n_branch
        self.mu1 = self.label - self.alpha
        if not self.lattice.in_lattice(self.mu1):
            raise ValueError("head label minus twist must be a lattice vector")

    def sector_factor(self, t: Label) -> Scalar:
        mu2 = t - self.sector
        if not self.lattice.in_lattice(mu2):
            raise ValueError("target label minus sector twist must be a "
                             "lattice vector")
        factor = self.cocycle.epsilon(self.mu1, mu2)
        if self.variant == "delta":
            factor = factor * branch_phase(self.alpha.dot(mu2), self.n_branch)
        return factor


def verify_dlm_jacobi(lat: IntegralLattice, a1: Label, a2: Label,
                      alpha3: Label, x: State, y: State, s: State,
                      variant: str = "delta", n_branch: int = 1, *,
                      radius: int, cutoff: int) -> VerificationReport:
    """The generalized three-term identity for the twisted-sector family.

    Both left kernels carry eta12 = -a1.a2 - mu1.a2 - mu2.a1, the right
    kernel carries -eta13 (same shape in the third slot), and the
    commutator is E(N(a1.mu2 - a2.mu1)) (-1)^(mu1^2 mu2^2) for the delta
    variant, parity alone for the hat variant, with mu1^2 and mu2^2 the
    norms of the embedded lattice labels.  Every operator reads the
    lattice's parity cocycle.
    """
    cs = lattice_cocycle(lat)
    mu1 = x.single_label() - a1
    mu2 = y.single_label() - a2
    mu3 = s.single_label() - alpha3
    for mu in (mu1, mu2, mu3):
        if not lat.in_lattice(mu):
            raise ValueError("labels must decompose as lattice + twist")
    eta12 = -(a1.dot(a2) + mu1.dot(a2) + mu2.dot(a1))
    eta13 = -(a1.dot(alpha3) + mu1.dot(alpha3) + mu3.dot(a1))
    c12 = sign_pow(int((mu1.norm2() * mu2.norm2()).re))
    if variant == "delta":
        c12 = c12 * branch_phase(a1.dot(mu2) - a2.dot(mu1), n_branch)

    def op1_for(sector: Label) -> DlmOp:
        return DlmOp(x, cs, lat, a1, sector, variant, n_branch)

    return three_term_jacobi(
        name=f"dlm_jacobi_{variant}",
        op1=op1_for(a2 + alpha3),
        op2=DlmOp(y, cs, lat, a2, alpha3, variant, n_branch),
        op12_factory=lambda head: DlmOp(head, cs, lat, a1 + a2, alpha3,
                                        variant, n_branch),
        target=s,
        kappa12=eta12,
        kappa_rhs=-eta13,
        c12=c12,
        radius=radius, cutoff=cutoff,
        op1_lhs2=op1_for(alpha3),
        op2_lhs2=DlmOp(y, cs, lat, a2, a1 + alpha3, variant, n_branch),
        op1_rhs=op1_for(a2),
        meta={"eta12": str(eta12), "eta13": str(eta13), "C12": str(c12),
              "variant": variant, "branch_N": str(n_branch)})
