import random
from fractions import Fraction
from functools import partial

import pytest

from heisvoa import lattice
from heisvoa.fock import (
    State,
    apply_mode,
    basis_monomials,
    label,
    verify_virasoro_brackets,
    virasoro_mode,
    zero_label,
)
from heisvoa.form import verify_invariance
from heisvoa.intertwiner import IntertwinerOp
from heisvoa.jacobi import three_term_jacobi
from heisvoa.lattice import (
    DlmOp,
    TwistedVertexOp,
    integral_lattice,
    lattice_cocycle,
    shifted_central_charge,
    shifted_virasoro,
    twisted_virasoro_mode,
    verify_dlm_jacobi,
    verify_li_equivalence,
    verify_shifted_virasoro,
    verify_twist_grading,
    verify_twisted_jacobi,
)
from heisvoa.report import VerificationReport
from heisvoa.scalars import E, S_ONE, branch_phase, gr, sign_pow
from oracles import dlm_vertex_defining, gram_pairing

# a cutoff above every level sum the windows of these tests need, so that
# nothing is skipped unless a test passes a smaller one
UNCUT = 16

Z1 = integral_lattice([[1]])
Z2 = integral_lattice([[2]])


def _brackets_report(radius):
    return VerificationReport("virasoro_brackets", f"|m|,|n|<={radius}")


def test_rational_embeddings():
    for gram in ([[1]], [[2]], [[2, 1], [1, 2]], [[1, 0], [0, 1]]):
        lat = integral_lattice(gram)
        r = len(gram)
        for j in range(r):
            for k in range(r):
                got = sum(row[j] * row[k] for row in lat.embedding)
                assert got == gram[j][k]
    with pytest.raises(ValueError):
        integral_lattice([[1, 2], [2, 1]])  # indefinite
    with pytest.raises(ValueError):
        integral_lattice([[1, 0], [1, 1]])  # not symmetric


def test_coords_roundtrip():
    lat = integral_lattice([[2, 1], [1, 2]])
    for coords in ((1, 0), (0, 1), (2, -3)):
        lab = lat.label_of(coords)
        assert lat.coords_of(lab) == tuple(Fraction(c) for c in coords)
        assert lat.in_lattice(lab)
    assert not lat.in_lattice(lat.label_of((Fraction(1, 2), 0)))
    # a label with an imaginary part, and one off the embedded lattice span
    assert lat.coords_of(label([gr(0, 1)] + [gr(0)] * (lat.heis_rank - 1))) is None
    assert lat.coords_of(label([gr(1)] + [gr(0)] * (lat.heis_rank - 1))) is None


def test_lattice_cocycle_commutators():
    # C(m1,m2) = (-1)^(m1.m2 + m1^2 m2^2) on basis vectors and random sums
    cases = ([[1]], [[2]], [[2, 1], [1, 2]], [[1, 0], [0, 1]])
    for gram in cases:
        lat = integral_lattice(gram)
        cs = lattice_cocycle(lat)
        r = lat.rank
        vecs = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        vecs += [tuple(1 for _ in range(r)), tuple(2 - j for j in range(r))]
        for m1 in vecs:
            for m2 in vecs:
                want = sign_pow(gram_pairing(lat, m1, m2)
                                + gram_pairing(lat, m1, m1) * gram_pairing(lat, m2, m2))
                got = cs.commutator(lat.label_of(m1), lat.label_of(m2))
                assert got == want, (gram, m1, m2)


def test_lattice_cocycle_examples():
    assert lattice_cocycle(Z1).commutator(Z1.label_of([1]), Z1.label_of([1])) == S_ONE
    assert lattice_cocycle(Z2).commutator(Z2.label_of([1]), Z2.label_of([1])) == S_ONE
    i2 = integral_lattice([[1, 0], [0, 1]])
    cs = lattice_cocycle(i2)
    assert cs.commutator(i2.label_of([1, 0]), i2.label_of([0, 1])) == -S_ONE


def test_parity():
    # the parity of a lattice vector is its norm mod 2
    assert gram_pairing(Z1, [1], [1]) % 2 == 1
    assert gram_pairing(Z2, [1], [1]) % 2 == 0
    assert gram_pairing(Z1, [0], [0]) % 2 == 0


# Cartan matrices of root lattices; the four-squares embedding realizes
# each in a free boson of larger rank, so the dot of embedded labels must
# reproduce the Gram pairing across coordinates
ROOT_GRAMS = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "E8": [[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0],
           [0, -1, 2, -1, 0, 0, 0, -1], [0, 0, -1, 2, -1, 0, 0, 0],
           [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
           [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]],
}


@pytest.mark.parametrize("name", sorted(ROOT_GRAMS))
def test_embedded_dot_is_the_gram_pairing(name):
    lat = integral_lattice(ROOT_GRAMS[name])
    r = lat.rank
    rng = random.Random(name)
    # the basis, the all-ones vector and random vectors in the box [-2, 2]^r
    vecs = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    vecs += [(1,) * r] + [tuple(rng.randint(-2, 2) for _ in range(r))
                          for _ in range(6)]
    labels = [lat.label_of(v) for v in vecs]
    for m1, l1 in zip(vecs, labels):
        for m2, l2 in zip(vecs, labels):
            assert l1.dot(l2) == gram_pairing(lat, m1, m2), (name, m1, m2)


def test_twisted_modes():
    alpha = Z1.label_of([Fraction(1, 2)])
    mu = Z1.label_of([1])
    s = State.vacuum(1, mu)
    assert twisted_virasoro_mode(alpha, 0, s) == s.scale((mu + alpha).norm2() / 2)
    for n in (-2, 0, 1):
        assert twisted_virasoro_mode(zero_label(1), n, s) == virasoro_mode(n, s)


def test_twisted_algebra_brackets():
    # L_g satisfies the untwisted Virasoro algebra of central charge l = 1
    alpha = Z1.label_of([Fraction(1, 3)])
    states = [((), State.of(bm)) for bm in basis_monomials(1, 3, Z1.label_of([1]))[:5]]
    rep = verify_virasoro_brackets(partial(twisted_virasoro_mode, alpha), 1, states,
                                   radius=2, report=_brackets_report(2))
    assert rep.verdict, rep.failures_detail
    assert len(rep.checked) == 5 * 25


def test_shifted_virasoro():
    for alpha, lat in ((Fraction(1, 2), Z1), (Fraction(1, 3), Z1)):
        a = lat.label_of([alpha])
        c_a = shifted_central_charge(a)
        assert c_a == gr(1) - a.norm2() * 12
        one = State.vacuum(1)
        lhs = (shifted_virasoro(a, 2, shifted_virasoro(a, -2, one))
               - shifted_virasoro(a, -2, shifted_virasoro(a, 2, one)))
        rhs = shifted_virasoro(a, 0, one).scale(4) + one.scale(c_a / 2)
        assert lhs == rhs
    # complex twist: L_a(0) = L(0) + a(0) and the normalized-grading match
    a = label(["1/2*i"])
    basis = basis_monomials(1, 4, Z1.label_of([1]))
    for bm in basis:
        s = State.of(bm)
        a0 = apply_mode(1, 0, s).scale(a.alpha[0])
        assert shifted_virasoro(a, 0, s) == virasoro_mode(0, s) + a0
    rep = verify_shifted_virasoro(Z1, a, 4, VerificationReport(
        "shifted_virasoro", "weight<=4, |m|,|n|<=3"))
    assert rep.verdict, rep.failures_detail
    assert len(rep.checked) == len(basis) + 49


def test_shifted_virasoro_algebra():
    a = label(["1/2"])
    states = [((), State.of(bm)) for bm in basis_monomials(1, 2, Z1.label_of([1]))]
    rep = verify_virasoro_brackets(partial(shifted_virasoro, a),
                                   shifted_central_charge(a), states, radius=2,
                                   report=_brackets_report(2))
    assert rep.verdict, rep.failures_detail
    assert len(rep.checked) == len(states) * 25


def test_twisted_vertex_examples():
    cs = lattice_cocycle(Z1)
    one = State.vacuum(1)
    x = State.vacuum(1, Z1.label_of([1]))
    # zero twist reduces to the plain operator
    plain = IntertwinerOp(x, cs)
    twisted = TwistedVertexOp(x, cs, zero_label(1))
    for n in range(0, 3):
        assert plain.coefficient(one, gr(n)) == twisted.coefficient(one, gr(n))
    # vacuum head acts as the identity
    alpha = Z1.label_of([Fraction(1, 2)])
    assert TwistedVertexOp(one, cs, alpha).coefficient(one, gr(0)) == one
    # leading coefficient of the twisted operator carries z^(mu.alpha)
    op = TwistedVertexOp(x, cs, alpha)
    assert op.offset_on(one.single_label()) == gr("1/2")  # coset 1/2 + Z
    assert op.coefficient(one, gr("1/2")) == x


def test_twisted_jacobi():
    alpha = Z1.label_of([Fraction(1, 2)])
    x = State.vacuum(1, Z1.label_of([1]))
    s = State.vacuum(1, alpha)  # mu3 = 0 in the shifted sector
    rep = verify_twisted_jacobi(Z1, alpha, x, x, s, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail
    assert rep.meta["rho"] == "-1/2"
    assert rep.meta["parity_sign"] == "-1"  # odd times odd flips the sign


def test_li_equivalence():
    x = State.vacuum(1, Z1.label_of([1]))
    one = State.vacuum(1)
    rep = verify_li_equivalence(Z1, zero_label(1), x, one, radius=2, cutoff=UNCUT)
    assert rep.verdict
    alpha = Z1.label_of([Fraction(1, 2)])
    rep = verify_li_equivalence(Z1, alpha, x, one, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail
    heavier = apply_mode(1, -1, State.vacuum(1, Z1.label_of([1])))
    rep = verify_li_equivalence(Z1, alpha, heavier, one, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail
    rep = verify_twist_grading(Z1, alpha, 3)
    assert rep.verdict, rep.failures_detail


def test_li_equivalence_designed_failure(monkeypatch):
    # the twisted operator reads the head's Y(x,z) on the target sector t,
    # not on t + alpha
    alpha = Z1.label_of([Fraction(1, 2)])
    x = apply_mode(1, -1, State.vacuum(1, Z1.label_of([1])))
    one = State.vacuum(1)
    assert verify_li_equivalence(Z1, alpha, x, one, radius=2,
                                 cutoff=UNCUT).outcome == "PASS"
    sector = IntertwinerOp._sector
    monkeypatch.setattr(IntertwinerOp, "_sector",
                        lambda self, t: sector(self, t)[:3] + (t,))
    rep = verify_li_equivalence(Z1, alpha, x, one, radius=2, cutoff=UNCUT)
    assert len(rep.failures) == len(rep.checked) == 4


def test_lattice_invariant_form_parity_prefactor():
    # the invariance prefactor for lattice labels is the parity sign
    lat = Z1
    cs = lattice_cocycle(lat)
    mu1, mu2 = lat.label_of([1]), lat.label_of([1])
    pref = branch_phase(-mu1.dot(mu2), 1) * cs.commutator(mu1, mu2)
    assert pref == sign_pow(gram_pairing(lat, [1], [1]) ** 2)
    x = State.vacuum(1, mu1)
    y = State.vacuum(1, mu2)
    t = State.vacuum(1, lat.label_of([-2]))
    rep = verify_invariance(x, y, t, cs, 1, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail


def test_dlm_vertex_reduction_and_prefactor():
    lat = Z1
    cs = lattice_cocycle(lat)
    x = State.vacuum(1, lat.label_of([1]))
    t = State.vacuum(1, lat.label_of([1]))
    plain = IntertwinerOp(x, cs)
    base = plain.offset_on(t.single_label())
    for variant in ("delta", "hat"):
        op = DlmOp(x, cs, lat, zero_label(1), zero_label(1), variant, 1)
        assert op.offset_on(t.single_label()) == base
        for n in range(0, 3):
            assert op.coefficient(t, base + n) == plain.coefficient(t, base + n)
    # branch phase appears only in the delta variant
    alpha = lat.label_of([Fraction(1, 2)])
    xh = State.vacuum(1, alpha + lat.label_of([1]))
    op_d = DlmOp(xh, cs, lat, alpha, zero_label(1), "delta", 1)
    op_h = DlmOp(xh, cs, lat, alpha, zero_label(1), "hat", 1)
    e = op_d.offset_on(t.single_label())
    cd = op_d.coefficient(t, e)
    ch = op_h.coefficient(t, e)
    assert cd == ch.scale(E(Fraction(1, 2)))
    assert not cd == ch


def test_dlm_closed_form_matches_defining_composition():
    lat = Z1
    alpha = lat.label_of([Fraction(1, 2)])
    beta = lat.label_of([Fraction(1, 3)])
    x = State.vacuum(1, alpha + lat.label_of([1]))
    t = apply_mode(1, -1, State.vacuum(1, beta + lat.label_of([1])))
    op = DlmOp(x, lattice_cocycle(lat), lat, alpha, beta, "delta", 1)
    base = op.offset_on(t.single_label())
    for n in range(-2, 3):
        closed = op.coefficient(t, base + n)
        defining = dlm_vertex_defining(lat, alpha, x, beta, t, base + n,
                                       n_branch=1)
        assert closed == defining, n


def test_dlm_jacobi():
    lat = Z1
    a1 = lat.label_of([Fraction(1, 2)])
    a2 = lat.label_of([Fraction(1, 3)])
    alpha3 = zero_label(1)
    x = State.vacuum(1, a1 + lat.label_of([1]))
    y = State.vacuum(1, a2 + lat.label_of([1]))
    s = State.vacuum(1, lat.label_of([0]))
    verdicts = {}
    metas = {}
    for variant in ("delta", "hat"):
        for n_branch in (1, 3):
            rep = verify_dlm_jacobi(lat, a1, a2, alpha3, x, y, s,
                                    variant=variant, n_branch=n_branch, radius=2,
                                    cutoff=UNCUT)
            assert rep.verdict, f"{variant} N={n_branch}: " + rep.failures_detail
            verdicts[(variant, n_branch)] = rep.verdict
            metas[(variant, n_branch)] = rep.meta["C12"]
    # the delta-variant verdict is branch independent though C12 is not;
    # the hat commutator never sees the branch
    assert verdicts[("delta", 1)] == verdicts[("delta", 3)]
    assert metas[("delta", 1)] != metas[("delta", 3)]
    assert metas[("hat", 1)] == metas[("hat", 3)]
    assert "E(" not in metas[("hat", 1)]


def _without_branch_phase(op, t):
    """The delta-variant sector factor with its branch phase left out."""
    return op.cocycle.epsilon(op.mu1, t - op.sector)


@pytest.mark.parametrize("gram, failed", [([[1]], 70), ([[2]], 73)])
def test_dlm_jacobi_designed_failure(monkeypatch, gram, failed):
    lat = integral_lattice(gram)
    rank = lat.heis_rank
    a1, a2 = lat.label_of([Fraction(1, 2)]), lat.label_of([Fraction(1, 3)])
    x = State.vacuum(rank, a1 + lat.label_of([1]))
    y = State.vacuum(rank, a2 + lat.label_of([1]))
    s = State.vacuum(rank)

    def verify():
        return verify_dlm_jacobi(lat, a1, a2, zero_label(rank), x, y, s,
                                 variant="delta", radius=2, cutoff=6)

    assert verify().outcome == "PASS"
    monkeypatch.setattr(DlmOp, "sector_factor", _without_branch_phase)
    rep = verify()
    assert (len(rep.failures), len(rep.checked)) == (failed, 124)


def _jacobi_with(**changes):
    """``three_term_jacobi`` with some of its keyword arguments changed."""
    def wrong(**kwargs):
        return three_term_jacobi(**{**kwargs, **{k: f(kwargs[k])
                                                 for k, f in changes.items()}})
    return wrong


@pytest.mark.parametrize("gram, failed", [([[1]], 68), ([[2]], 70)])
def test_twisted_jacobi_designed_failure(monkeypatch, gram, failed):
    lat = integral_lattice(gram)
    rank = lat.heis_rank
    x = State.vacuum(rank, lat.label_of([1]))
    for alpha in ("1/2", "1/3"):
        a = lat.label_of([Fraction(alpha)])
        s = State.vacuum(rank, a)

        def verify():
            return verify_twisted_jacobi(lat, a, x, x, s, radius=2, cutoff=6)

        assert verify().outcome == "PASS"
        # the second ordering weighted by -C12
        with monkeypatch.context() as m:
            m.setattr(lattice, "three_term_jacobi", _jacobi_with(c12=lambda c: -c))
            rep = verify()
        assert (len(rep.failures), len(rep.checked)) == (failed, 124), alpha


@pytest.mark.parametrize("gram, failed", [([[1]], 73), ([[2]], 64)])
def test_hat_dlm_jacobi_designed_failure(monkeypatch, gram, failed):
    # kappa_rhs is left alone: the engine reads it only in the coset check,
    # so an integer shift of it still passes
    lat = integral_lattice(gram)
    rank = lat.heis_rank
    a1, a2 = lat.label_of([Fraction(1, 2)]), lat.label_of([Fraction(1, 3)])
    x = State.vacuum(rank, a1 + lat.label_of([1]))
    y = State.vacuum(rank, a2 + lat.label_of([1]))
    s = State.vacuum(rank)

    def verify():
        return verify_dlm_jacobi(lat, a1, a2, zero_label(rank), x, y, s,
                                 variant="hat", radius=2, cutoff=6)

    assert verify().outcome == "PASS"
    # the left kernels one power of (z1 - z2) off
    monkeypatch.setattr(lattice, "three_term_jacobi",
                        _jacobi_with(kappa12=lambda k: k + 1))
    rep = verify()
    assert (len(rep.failures), len(rep.checked)) == (failed, 124)


def test_dlm_eta_values():
    lat = Z1
    a1 = lat.label_of([Fraction(1, 2)])
    a2 = lat.label_of([Fraction(1, 3)])
    x = State.vacuum(1, a1 + lat.label_of([1]))
    y = State.vacuum(1, a2 + lat.label_of([2]))
    s = State.vacuum(1, lat.label_of([0]))
    rep = verify_dlm_jacobi(lat, a1, a2, zero_label(1), x, y, s, radius=1,
                            cutoff=UNCUT)
    assert rep.meta["eta12"] == "-3/2"  # -1/6 - 1/3 - 1
    assert rep.verdict, rep.failures_detail


def test_shifted_virasoro_invariant_set():
    # c_a = l - 12 a.a for a in {1/2, 1/3, i/2}, brackets on weight <= 4
    states = [((), State.of(bm)) for bm in basis_monomials(1, 4, Z1.label_of([1]))]
    for a in ("1/2", "1/3", "1/2*i"):
        alpha = label([a])
        rep = verify_virasoro_brackets(partial(shifted_virasoro, alpha),
                                       shifted_central_charge(alpha), states,
                                       radius=3, report=_brackets_report(3))
        assert rep.verdict, (a, rep.failures_detail)
        assert len(rep.checked) == 12 * 49


def test_twisted_jacobi_zero_twist_reduction():
    x = State.vacuum(1, Z1.label_of([1]))
    s = State.vacuum(1)
    rep = verify_twisted_jacobi(Z1, zero_label(1), x, x, s, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail
    assert rep.meta["rho"] == "0"


def test_dlm_jacobi_zero_twist_reduction():
    zero = zero_label(1)
    x = State.vacuum(1, Z1.label_of([1]))
    s = State.vacuum(1)
    for variant in ("delta", "hat"):
        rep = verify_dlm_jacobi(Z1, zero, zero, zero, x, x, s,
                                variant=variant, radius=2, cutoff=UNCUT)
        assert rep.verdict, rep.failures_detail
        assert rep.meta["eta12"] == "0"


def test_dlm_coefficient_scales_each_label_part_by_its_factor():
    # target labels 1 and 3 give the delta factors E(1/2) and E(3/2) = -E(1/2)
    lat = Z1
    cs = lattice_cocycle(lat)
    alpha = lat.label_of([Fraction(1, 2)])
    x = apply_mode(1, -1, State.vacuum(1, alpha + lat.label_of([1])))
    low = State.vacuum(1, lat.label_of([1]))
    high = apply_mode(1, -1, State.vacuum(1, lat.label_of([3]))).scale(gr("1/2"))
    op = DlmOp(x, cs, lat, alpha, zero_label(1), "delta", 1)
    # the per-label factor on top of the plain operator's epsilon(alpha, t)
    factors = [op.sector_factor(t) * cs.epsilon(op.label, t).inverse()
               for t in (p.single_label() for p in (low, high))]
    assert all(f.as_rational() is None for f in factors)
    plain = IntertwinerOp(x, cs)
    base = op.offset_on(low.single_label())
    for n in range(-2, 3):
        e = base + n
        want = (plain.coefficient(low, e).scale(factors[0])
                + plain.coefficient(high, e).scale(factors[1]))
        assert op.coefficient(low + high, e) == want, n
    assert not op.coefficient(low + high, base + 2).is_zero


@pytest.mark.parametrize("gram", [[[2]], [[2, -1], [-1, 2]]], ids=["A1", "A2"])
def test_dlm_sector_factor_is_the_closed_form(gram):
    # on the target sector t = mu2 + b the e^alpha constant of a head on
    # mu1 + a is eps(mu1, mu2) E(N a.mu2) (delta) or eps(mu1, mu2) (hat)
    lat = integral_lattice(gram)
    cs = lattice_cocycle(lat)
    rank, zeros = lat.heis_rank, [0] * (lat.rank - 1)
    a = lat.label_of([Fraction(1, 3)] + [Fraction(1, 4)] * (lat.rank - 1))
    b = lat.label_of([Fraction(1, 5)] + zeros)
    mu1 = lat.label_of([1] + [-1] * (lat.rank - 1))
    head = apply_mode(1, -1, State.vacuum(rank, mu1 + a))
    mu2s = [lat.label_of(c) for c in ([0] + zeros, [1] + zeros, [2] + zeros,
                                      [-1] + [1] * (lat.rank - 1))]
    phases = set()
    for n_branch in (1, 3):
        delta = DlmOp(head, cs, lat, a, b, "delta", n_branch)
        hat = DlmOp(head, cs, lat, a, b, "hat", n_branch)
        for mu2 in mu2s:
            eps = cs.epsilon(mu1, mu2)
            phase = E(a.dot(mu2) * n_branch)
            assert delta.sector_factor(mu2 + b) == eps * phase
            assert hat.sector_factor(mu2 + b) == eps
            phases.add(str(phase))
        with pytest.raises(ValueError, match="sector twist"):
            delta.sector_factor(a + b)
    assert len(phases) > 2


def test_gram_inverse_is_computed_once_per_lattice(monkeypatch):
    calls = []
    real_inv = lattice._mat_inv
    monkeypatch.setattr(lattice, "_mat_inv",
                        lambda m: calls.append(m) or real_inv(m))
    lat = integral_lattice([[2, -1], [-1, 2]])
    built = len(calls)
    for k in range(4):
        assert lat.in_lattice(lat.label_of([k, 1]))
        assert not lat.in_lattice(lat.label_of(["1/2", k]))
    lattice_cocycle(lat)
    assert len(calls) == built == 1
