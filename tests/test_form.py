import random
from fractions import Fraction

from heisvoa.fock import (
    State,
    apply_mode,
    basis_monomials,
    label,
    monomial,
    zero_label,
)
from heisvoa.intertwiner import CocycleSystem, IntertwinerSpec, apply_e
from heisvoa.form import (
    AdjointIntertwinerOp,
    FormConfig,
    adjoint_mode,
    e_dagger,
    gram,
    verify_gram_slices,
    verify_invariance,
)
from heisvoa.scalars import S_ONE, S_ZERO, branch_phase, gr, lam_pow


def cfg_for(rank, diagonal_fix=False, n_branch=1):
    f = tuple(tuple(gr("1/2") if i > j else gr(0) for j in range(rank))
              for i in range(rank))
    g = tuple(tuple(gr("1/5") if i < j else gr(0) for j in range(rank))
              for i in range(rank))
    return FormConfig(n_branch, CocycleSystem(rank, f, g, diagonal_fix))


def rand_label(rng, rank=1):
    return label([gr(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                     Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                  for _ in range(rank)])


def test_adjoint_mode_examples():
    one = State.vacuum(1)
    a1 = apply_mode(1, -1, one)
    assert adjoint_mode(1, 1).scalar == lam_pow(2)
    assert adjoint_mode(1, 1).index == -1
    assert adjoint_mode(1, 1).apply(one) == a1.scale(lam_pow(2))
    assert adjoint_mode(1, 0).scalar == -S_ONE
    assert adjoint_mode(1, 0).index == 0
    assert adjoint_mode(1, -1).scalar == lam_pow(-2)
    assert adjoint_mode(1, -1).index == 1
    assert adjoint_mode(1, -1).apply(a1) == one.scale(lam_pow(-2))


def test_gram_examples():
    cfg = cfg_for(1)
    one = State.vacuum(1)
    assert gram(one, one, cfg) == S_ONE
    beta = label(["1/2"])
    vb, vmb = State.vacuum(1, beta), State.vacuum(1, -beta)
    assert gram(vb, vmb, cfg) == cfg.cocycle.epsilon(beta, -beta) * lam_pow(-beta.norm2())
    a1 = apply_mode(1, -1, one)
    assert gram(a1, a1, cfg) == lam_pow(-2)
    assert gram(vb, vb, cfg).is_zero  # labels must cancel


def test_gram_symmetry_and_zero_mode_antisymmetry():
    rng = random.Random(19)
    for rank in (1, 2):
        cfg = cfg_for(rank)
        beta = rand_label(rng, rank)
        basis_b = basis_monomials(rank, 3, beta)
        basis_mb = basis_monomials(rank, 3, -beta)
        for mb in basis_b[:8]:
            for mmb in basis_mb[:8]:
                x, y = State.of(mb), State.of(mmb)
                assert gram(x, y, cfg) == gram(y, x, cfg)
                lhs = gram(apply_mode(1, 0, x), y, cfg)
                rhs = gram(x, apply_mode(1, 0, y), cfg)
                assert lhs == -rhs


def test_gram_diagonal_fix_uniqueness():
    cfg = cfg_for(1, diagonal_fix=True)
    for b in ("1/2", "1/3*i", "2-1/5*i"):
        beta = label([b])
        got = gram(State.vacuum(1, beta), State.vacuum(1, -beta), cfg)
        assert got == lam_pow(-beta.norm2())


def test_gram_matrix_symmetric_unit_determinant():
    for rank in (1, 2):
        rep = verify_gram_slices(("0", "1/2", "1/3*i"), 3, cfg_for(rank))
        assert rep.verdict, (rank, rep.failures_detail)
        assert len(rep.checked) == 3 * (1 + 4)  # vacuum pairing and 4 slices each


def test_adjoint_intertwiner_uncharged_matches_mode_adjoints():
    cfg = cfg_for(1)
    cs = cfg.cocycle
    a = apply_mode(1, -1, State.vacuum(1))
    spec = IntertwinerSpec(a, cs)
    adj = AdjointIntertwinerOp(spec, cfg)
    t = State.of(monomial(zero_label(1), ((1, 2),)))
    for e in range(-3, 3):
        got = adj.coefficient(t, gr(e))
        want = adjoint_mode(1, -e - 1).apply(t)
        assert got == want, e


def test_adjoint_intertwiner_identity_and_e_dagger():
    cfg = cfg_for(1)
    cs = cfg.cocycle
    one_spec = IntertwinerSpec(State.vacuum(1), cs)
    adj = AdjointIntertwinerOp(one_spec, cfg)
    t = State.of(monomial(zero_label(1), ((1, 1),)))
    assert adj.coefficient(t, gr(0)) == t
    assert adj.coefficient(t, gr(2)).is_zero

    alpha = label(["1/2"])
    got = e_dagger(cs, alpha, State.vacuum(1, -alpha), cfg.n_branch)
    want = State.vacuum(1).scale(cs.epsilon(alpha, -alpha)
                                 * lam_pow(-alpha.norm2()))
    assert got == want


def test_adjoint_intertwiner_charged_series_window():
    cfg = cfg_for(1)
    spec = IntertwinerSpec(State.vacuum(1, label(["1/2"])), cfg.cocycle)
    adj = AdjointIntertwinerOp(spec, cfg)
    t = State.vacuum(1, label(["1/3"]))
    base = adj.offset_on(t.single_label())
    # the exponents are bounded above by base + (kt - ku) = base
    assert not adj.coefficient(t, base).is_zero
    for n in range(1, 4):
        assert adj.coefficient(t, base + n).is_zero


def test_invariance_trivial_and_uncharged():
    cfg = cfg_for(1)
    cs = cfg.cocycle
    one = State.vacuum(1)
    rep = verify_invariance(IntertwinerSpec(one, cs), one, one, cfg, radius=2)
    assert rep.verdict, rep.failures_detail
    # uncharged weight <= 2, lam-dependence included
    u = State.of(monomial(zero_label(1), ((1, 1), (1, 1))))
    v = apply_mode(1, -1, one)
    rep = verify_invariance(IntertwinerSpec(u, cs), v, v, cfg, radius=2)
    assert rep.verdict, rep.failures_detail
    # oracle: modewise <u(n)v, w> = <v, u+(n) w> for the generator
    a = apply_mode(1, -1, one)
    for n in range(-2, 3):
        from heisvoa.fock import vertex_mode
        lhs = gram(vertex_mode(a, n, v), u, cfg)
        rhs = gram(v, adjoint_mode(1, n).apply(u), cfg)
        assert lhs == rhs, n


def test_invariance_charged():
    for n_branch in (1, 3):
        cfg = cfg_for(1, n_branch=n_branch)
        cs = cfg.cocycle
        alpha, beta = label(["1/2"]), label(["1/3"])
        gamma = -(alpha + beta)
        x = IntertwinerSpec(State.vacuum(1, alpha), cs)
        y = State.vacuum(1, beta)
        t = apply_mode(1, -1, State.vacuum(1, gamma))
        rep = verify_invariance(x, y, t, cfg, radius=2)
        assert rep.verdict, rep.failures_detail


def test_invariance_selection_rule(compared):
    cfg = cfg_for(1)
    cs = cfg.cocycle
    x = IntertwinerSpec(State.vacuum(1, label(["1/2"])), cs)
    y = State.vacuum(1, label(["1/3"]))
    t = State.vacuum(1, label(["1/7"]))  # labels do not cancel
    rep = verify_invariance(x, y, t, cfg, radius=1)
    assert rep.verdict
    assert rep.meta["selection"] == "nonzero"
    assert len(compared) == len(rep.checked) > 0
    assert all(v == S_ZERO or v.is_zero for _, left, right in compared
               for v in (left, right))


def test_invariance_remark_consistency():
    # <e^a (v|b>), w|c>> evaluated directly and through the adjoint agree
    rng = random.Random(37)
    cfg = cfg_for(1)
    cs = cfg.cocycle
    for _ in range(12):
        alpha, beta = rand_label(rng), rand_label(rng)
        gamma = -(alpha + beta)
        v = State.vacuum(1, beta)
        w = State.vacuum(1, gamma)
        direct = gram(apply_e(cs, alpha, v), w, cfg)
        via_adjoint = (branch_phase(-alpha.dot(beta), cfg.n_branch)
                       * cs.commutator(alpha, beta)
                       * gram(v, e_dagger(cs, alpha, w, cfg.n_branch), cfg))
        assert direct == via_adjoint
        # and the equality is the cocycle identity
        lhs = cs.epsilon(alpha, beta) * cs.epsilon(alpha + beta, -(alpha + beta))
        rhs = (cs.commutator(alpha, beta) * cs.epsilon(alpha, -(alpha + beta))
               * cs.epsilon(beta, -beta))
        assert lhs == rhs
