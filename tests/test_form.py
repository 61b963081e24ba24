import random
from fractions import Fraction

import pytest

from heisvoa import form
from heisvoa.fock import (
    State,
    apply_mode,
    basis_monomials,
    exp_virasoro_coeffs,
    label,
    monomial,
    vertex_mode,
    zero_label,
)
from heisvoa.intertwiner import (
    CocycleSystem,
    _shift_scaled,
    annihilation_coeff,
    apply_e,
    creation_coeff,
)
from heisvoa.form import (
    AdjointIntertwinerOp,
    gram,
    verify_gram_slices,
    verify_invariance,
)
from heisvoa.scalars import E, S_ONE, S_ZERO, branch_phase, gr, lam_pow, sign_pow
from heisvoa.series import exponent_index

# a cutoff above every level sum the windows of these tests need, so that
# nothing is skipped unless a test passes a smaller one
UNCUT = 16


def cocycle_for(rank, diagonal_fix=False):
    f = tuple(tuple(gr("1/2") if i > j else gr(0) for j in range(rank))
              for i in range(rank))
    g = tuple(tuple(gr("1/5") if i < j else gr(0) for j in range(rank))
              for i in range(rank))
    return CocycleSystem(rank, f, g, diagonal_fix)


def rand_label(rng, rank=1):
    return label([gr(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                     Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                  for _ in range(rank)])


def dagger(color, n, s):
    """a[color](n)^+ s = (-1)^(n+1) lam^(2n) a[color](-n) s."""
    return apply_mode(color, -n, s).scale(sign_pow(n + 1) * lam_pow(2 * n))


def e_dagger(cs, alpha, w):
    """e^(a+) w for a vacuum w: the top coefficient of the vacuum-head
    adjoint, E(-N a(0)) lam^(2a(0) - a.a) e^a with a(0) read after the shift."""
    adj = AdjointIntertwinerOp(State.vacuum(w.rank, alpha), cs, 1)
    return adj.coefficient(w, adj.offset_on(w.single_label()))


def factorized_adjoint(head, cs, n_branch, target, exponent):
    """[z^exponent] Yd(u|a>, z) target from the factorization
    Yd = z^(a(0)^+) Yplus^+(a,z) Y^+(u,z) Yminus^+(a,z) e^(a+), with
    Ypm^+(a,z) = Ymp(a, -lam^2/z) and Y^+(u,z) the mode adjoint of Y(u,z):
    u(p)^+ pairs each part (-1)^q L(1)^q u/q! of e^(-z lam^-2 L(1)) u of
    weight h with the scalar lam^(2h-2q) (-1)^(p+1) lam^(-2p-2)."""
    alpha = head.single_label()
    avec, rank = alpha.alpha, head.rank
    u_parts = []
    for hm, hc in head.items_sorted():
        h = hm.levels_sum
        u = State.of(monomial(zero_label(rank), hm.parts))
        for q, cur in enumerate(exp_virasoro_coeffs(1, u, h, sign=-1)):
            u_parts.append((q - 2 * h, cur, lam_pow(2 * h - 2 * q) * hc))

    def factor(beta):  # e^(a+) on the sector beta
        eig = alpha.dot(alpha + beta)
        return (cs.epsilon(alpha, beta) * branch_phase(-eig, n_branch)
                * lam_pow(2 * eig - alpha.norm2()))

    out = State.zero(rank)
    for tm, tc in target.items_sorted():
        n_rel = exponent_index(-alpha.dot(alpha + tm.label), exponent)
        t1 = _shift_scaled(State.of(tm, coeff=tc), alpha, factor)
        for k2 in range(tm.levels_sum + 1):
            x = annihilation_coeff(avec, k2, t1, arg=-lam_pow(-2))
            for d_exp, uq, uscale in u_parts:
                # the total exponent is n_rel = k2 + d_exp + (p+1) - k4, k4 >= 0
                for p in range(n_rel - k2 - d_exp - 1, uq.max_levels() + x.max_levels()):
                    k4 = k2 + d_exp + p + 1 - n_rel
                    term = creation_coeff(avec, k4, vertex_mode(uq, p, x),
                                          arg=-lam_pow(2))
                    out = out + term.scale(uscale * lam_pow(-2 * p - 2) * sign_pow(p + 1))
    return out


def test_adjoint_mode_examples():
    one = State.vacuum(1)
    a1 = apply_mode(1, -1, one)
    assert dagger(1, 1, one) == a1.scale(lam_pow(2))
    assert dagger(1, -1, a1) == one.scale(lam_pow(-2))
    vb = State.vacuum(1, label(["1/2"]))
    assert dagger(1, 0, vb) == vb.scale(gr("-1/2"))
    # the pairing's closed contraction transposes every mode as its adjoint
    rng = random.Random(23)
    for rank in (1, 2):
        cs = cocycle_for(rank)
        beta = rand_label(rng, rank)
        xs = [State.of(m) for m in basis_monomials(rank, 2, beta)]
        ys = [State.of(m) for m in basis_monomials(rank, 3, -beta)]
        for color in range(1, rank + 1):
            for n in range(-2, 3):
                for x in xs:
                    for y in ys:
                        assert (gram(apply_mode(color, n, x), y, cs)
                                == gram(x, dagger(color, n, y), cs)), (color, n, x, y)


def test_gram_examples():
    cs = cocycle_for(1)
    one = State.vacuum(1)
    assert gram(one, one, cs) == S_ONE
    beta = label(["1/2"])
    vb, vmb = State.vacuum(1, beta), State.vacuum(1, -beta)
    assert gram(vb, vmb, cs) == cs.epsilon(beta, -beta) * lam_pow(-beta.norm2())
    a1 = apply_mode(1, -1, one)
    assert gram(a1, a1, cs) == lam_pow(-2)
    assert gram(vb, vb, cs).is_zero  # labels must cancel


def test_gram_symmetry_and_zero_mode_antisymmetry():
    rng = random.Random(19)
    for rank in (1, 2):
        cs = cocycle_for(rank)
        beta = rand_label(rng, rank)
        basis_b = basis_monomials(rank, 3, beta)
        basis_mb = basis_monomials(rank, 3, -beta)
        for mb in basis_b[:8]:
            for mmb in basis_mb[:8]:
                x, y = State.of(mb), State.of(mmb)
                assert gram(x, y, cs) == gram(y, x, cs)
                lhs = gram(apply_mode(1, 0, x), y, cs)
                rhs = gram(x, apply_mode(1, 0, y), cs)
                assert lhs == -rhs


def test_gram_diagonal_fix_uniqueness():
    cs = cocycle_for(1, diagonal_fix=True)
    for b in ("1/2", "1/3*i", "2-1/5*i"):
        beta = label([b])
        got = gram(State.vacuum(1, beta), State.vacuum(1, -beta), cs)
        assert got == lam_pow(-beta.norm2())


def test_gram_matrix_symmetric_unit_determinant():
    for rank in (1, 2):
        rep = verify_gram_slices(("0", "1/2", "1/3*i"), 3, cocycle_for(rank))
        assert rep.verdict, (rank, rep.failures_detail)
        assert len(rep.checked) == 3 * (1 + 4)  # vacuum pairing and 4 slices each


def test_gram_slices_fail_on_a_non_mirror_pairing(monkeypatch):
    # a monomial paired with a non-mirror of the cancelling label makes
    # every slice of dimension 2 and up non-diagonal
    cs = cocycle_for(1)
    rep = verify_gram_slices(("0", "1/2", "1/3*i"), 3, cs)
    assert rep.outcome == "PASS", rep.failures_detail
    mirror_only = form._gram_mono

    def also_non_mirrors(mx, my, cs):
        v = mirror_only(mx, my, cs)
        if v.is_zero and (mx.label + my.label).is_zero \
                and mx.levels_sum == my.levels_sum:
            return S_ONE
        return v

    monkeypatch.setattr(form, "_gram_mono", also_non_mirrors)
    rep = verify_gram_slices(("0", "1/2", "1/3*i"), 3, cs)
    assert rep.outcome == "FAIL"
    assert {r.exponents for r in rep.failures} == {
        (gr(b), k) for b in ("0", "1/2", "1/3*i") for k in (2, 3)}


def test_adjoint_intertwiner_needs_an_odd_branch():
    with pytest.raises(ValueError, match="branch parameter N must be odd"):
        AdjointIntertwinerOp(State.vacuum(1), cocycle_for(1), 2)


def test_adjoint_intertwiner_uncharged_matches_mode_adjoints():
    cs = cocycle_for(1)
    a = apply_mode(1, -1, State.vacuum(1))
    adj = AdjointIntertwinerOp(a, cs, 1)
    t = State.of(monomial(zero_label(1), ((1, 2),)))
    for e in range(-3, 3):
        got = adj.coefficient(t, gr(e))
        want = dagger(1, -e - 1, t)
        assert got == want, e


def test_adjoint_intertwiner_identity_and_e_dagger():
    cs = cocycle_for(1)
    adj = AdjointIntertwinerOp(State.vacuum(1), cs, 1)
    t = State.of(monomial(zero_label(1), ((1, 1),)))
    assert adj.coefficient(t, gr(0)) == t
    assert adj.coefficient(t, gr(2)).is_zero

    alpha = label(["1/2"])
    got = e_dagger(cs, alpha, State.vacuum(1, -alpha))
    want = State.vacuum(1).scale(cs.epsilon(alpha, -alpha)
                                 * lam_pow(-alpha.norm2()))
    assert got == want


def test_adjoint_intertwiner_charged_series_window():
    adj = AdjointIntertwinerOp(State.vacuum(1, label(["1/2"])), cocycle_for(1), 1)
    t = State.vacuum(1, label(["1/3"]))
    base = adj.offset_on(t.single_label())
    # the exponents are bounded above by base + (kt - ku) = base
    assert not adj.coefficient(t, base).is_zero
    for n in range(1, 4):
        assert adj.coefficient(t, base + n).is_zero


def test_invariance_trivial_and_uncharged():
    cs = cocycle_for(1)
    one = State.vacuum(1)
    rep = verify_invariance(one, one, one, cs, 1, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail
    # uncharged weight <= 2, lam-dependence included
    u = State.of(monomial(zero_label(1), ((1, 1), (1, 1))))
    v = apply_mode(1, -1, one)
    rep = verify_invariance(u, v, v, cs, 1, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail
    # oracle: modewise <u(n)v, w> = <v, u+(n) w> for the generator
    a = apply_mode(1, -1, one)
    for n in range(-2, 3):
        lhs = gram(vertex_mode(a, n, v), u, cs)
        rhs = gram(v, dagger(1, n, u), cs)
        assert lhs == rhs, n


def test_invariance_charged():
    cs = cocycle_for(1)
    for n_branch in (1, 3):
        alpha, beta = label(["1/2"]), label(["1/3"])
        gamma = -(alpha + beta)
        x = State.vacuum(1, alpha)
        y = State.vacuum(1, beta)
        t = apply_mode(1, -1, State.vacuum(1, gamma))
        rep = verify_invariance(x, y, t, cs, n_branch, radius=2, cutoff=UNCUT)
        assert rep.verdict, rep.failures_detail


def test_invariance_skips_an_adjoint_coefficient_past_the_cutoff():
    cs = cocycle_for(1)
    x = State.vacuum(1, label(["1/2"]))
    y = State.vacuum(1, label(["1/3"]))
    t = apply_mode(1, -1, State.vacuum(1, label(["-5/6"])))
    rep = verify_invariance(x, y, t, cs, 1, radius=2, cutoff=3)
    assert rep.outcome == "PASS" and len(rep.checked) == 5, rep.failures_detail
    # Yd reads t (level sum 1) at relative exponent -3: 1 - 0 + 3 = 4
    assert rep.skipped == [((gr("-17/6"),), "needs level sums 4 > cutoff 3")]
    assert len(verify_invariance(x, y, t, cs, 1, radius=2, cutoff=UNCUT).checked) == 6


def test_invariance_selection_rule(compared):
    cs = cocycle_for(1)
    x = State.vacuum(1, label(["1/2"]))
    y = State.vacuum(1, label(["1/3"]))
    t = State.vacuum(1, label(["1/7"]))  # labels do not cancel
    rep = verify_invariance(x, y, t, cs, 1, radius=1, cutoff=UNCUT)
    assert rep.verdict
    assert rep.meta["selection"] == "nonzero"
    assert len(compared) == len(rep.checked) > 0
    assert all(v == S_ZERO or v.is_zero for _, left, right in compared
               for v in (left, right))


def test_invariance_remark_consistency():
    # <e^a (v|b>), w|c>> evaluated directly and through the adjoint agree
    rng = random.Random(37)
    cs = cocycle_for(1)
    for _ in range(12):
        alpha, beta = rand_label(rng), rand_label(rng)
        gamma = -(alpha + beta)
        v = State.vacuum(1, beta)
        w = State.vacuum(1, gamma)
        direct = gram(apply_e(cs, alpha, v), w, cs)
        via_adjoint = (branch_phase(-alpha.dot(beta), 1)
                       * cs.commutator(alpha, beta)
                       * gram(v, e_dagger(cs, alpha, w), cs))
        assert direct == via_adjoint
        # and the equality is the cocycle identity
        lhs = cs.epsilon(alpha, beta) * cs.epsilon(alpha + beta, -(alpha + beta))
        rhs = (cs.commutator(alpha, beta) * cs.epsilon(alpha, -(alpha + beta))
               * cs.epsilon(beta, -beta))
        assert lhs == rhs


def test_adjoint_matches_the_factorized_composition():
    # heads with L(1)u != 0 fix the sign of the L(1) exponential, and a
    # mixed-weight head with a unit coefficient mixes the z-shifts q - 2h
    reads = nonzero = 0
    for rank in (1, 2):
        alpha = label(["1/2+1/3*i"] + ["1/3*i"] * (rank - 1))
        gamma = label(["-1/4"] + ["2/5"] * (rank - 1))

        def at(parts, c=S_ONE):
            return State.of(monomial(alpha, parts), coeff=c)

        heads = [at(((1, 2),)), at(((1, 1), (1, 2))),
                 at(((1, 1),)) + at(((1, 1), (1, 2)), E(gr("1/3")) * lam_pow(1))]
        if rank == 2:
            heads.append(at(((1, 1), (2, 2))))
        vac = State.vacuum(rank, gamma)
        targets = [vac, apply_mode(1, -1, vac) + apply_mode(rank, -2, vac)]
        for n_branch in (1, 3):
            for head in heads:
                cs = cocycle_for(rank)
                adj = AdjointIntertwinerOp(head, cs, n_branch)
                base = adj.offset_on(gamma)
                for t in targets:
                    for n in range(-4, 3):
                        got = adj.coefficient(t, base + n)
                        assert got == factorized_adjoint(head, cs, n_branch, t, base + n), \
                            (rank, n_branch, head, t, n)
                        reads += 1
                        nonzero += not got.is_zero
    assert nonzero >= 100, (reads, nonzero)


def invariance_case(rank, head_parts):
    alpha = label(["1/2"] + ["1/3*i"] * (rank - 1))
    beta = label(["1/3"] + ["-1/5"] * (rank - 1))
    x = State.of(monomial(alpha, head_parts))
    y = State.vacuum(rank, beta)
    t = apply_mode(1, -1, State.vacuum(rank, -(alpha + beta)))
    return lambda: verify_invariance(x, y, t, cocycle_for(rank), 1, radius=2,
                                     cutoff=UNCUT)


def test_invariance_fails_without_the_commutator(monkeypatch):
    # at rank 1 C(a,b) = 1, so non-collinear rank-2 labels are needed
    run = invariance_case(2, ())
    rep = run()
    assert rep.outcome == "PASS", rep.failures_detail
    monkeypatch.setattr(CocycleSystem, "commutator", lambda self, a, b: S_ONE)
    rep = run()
    assert rep.outcome == "FAIL" and rep.failures


def test_invariance_fails_with_the_opposite_l1_exponential(monkeypatch):
    # L(1) a(-2)|0> = 2 a(-1)|0>, so e^(-zL(1)) changes the adjoint
    run = invariance_case(1, ((1, 2),))
    rep = run()
    assert rep.outcome == "PASS", rep.failures_detail

    def flipped(n, s, order, sign=1):
        return exp_virasoro_coeffs(n, s, order, -sign)

    monkeypatch.setattr(form, "exp_virasoro_coeffs", flipped)
    rep = run()
    assert rep.outcome == "FAIL" and rep.failures
