from fractions import Fraction
from pathlib import Path

import pytest

from heisvoa import jacobi
from heisvoa.cli import _coords, load_scenario
from heisvoa.fock import (
    State,
    apply_mode,
    label,
    monomial,
    vertex_mode,
    zero_label,
)
from heisvoa.intertwiner import CocycleSystem, IntertwinerOp
from heisvoa.jacobi import (
    verify_commutator,
    verify_generalized_jacobi,
    verify_locality,
    verify_normal_order,
    verify_skew_symmetry,
)
from heisvoa.scalars import E, S_ONE, as_gauss, binom, gr
from heisvoa.series import CosetError
from oracles import coeff_product, conformal_vector, standard_cocycle


# a cutoff above every level sum the windows of these tests need, so that
# nothing is skipped unless a test passes a smaller one
UNCUT = 16

CS1 = CocycleSystem(
    1, ((gr("1/2"),),), ((gr("1/3"),),))


def vac_head(alpha):
    return State.vacuum(1, label([alpha]))


def head_of(parts, alpha="0"):
    return State.of(monomial(label([alpha]), parts))


def test_coeff_product_identity_ops():
    cs = standard_cocycle(1)
    one = State.vacuum(1)
    assert coeff_product(one, one, one, cs, gr(0), gr(0)) == one
    assert coeff_product(one, one, one, cs, gr(-1), gr(0)).is_zero


def test_coeff_product_mode_oracle():
    x = head_of(((1, 1),))
    one = State.vacuum(1)
    # coefficient of z1^-2 z2^0 picks the modes a(1) then a(-1)
    got = coeff_product(x, x, one, CS1, gr(-2), gr(0))
    oracle = apply_mode(1, 1, apply_mode(1, -1, one))
    assert got == oracle == one
    # bilinearity spot check against mode compositions on a heavier state
    s = State.of(monomial(zero_label(1), ((1, 2),)))
    for b in range(-3, 3):
        for c in range(-3, 3):
            got = coeff_product(x, x, s, CS1, gr(b), gr(c))
            oracle = apply_mode(1, -b - 1, apply_mode(1, -c - 1, s))
            assert got == oracle


def test_coeff_product_leading_charged():
    alpha, beta, gamma = gr("1/2"), gr("1/3"), gr("-1/4")
    x, y = vac_head(alpha), vac_head(beta)
    s = State.vacuum(1, label([gamma]))
    b = alpha * (beta + gamma)
    c = beta * gamma
    got = coeff_product(x, y, s, CS1, b, c)
    la, lb, lg = label([alpha]), label([beta]), label([gamma])
    expect = State.vacuum(1, la + lb + lg).scale(
        CS1.epsilon(la, lb + lg) * CS1.epsilon(lb, lg))
    assert got == expect
    with pytest.raises(CosetError):
        coeff_product(x, y, s, CS1, b + gr("1/7"), c)


def test_jacobi_pure_vacuum():
    cs = standard_cocycle(1)
    x = State.vacuum(1)
    rep = verify_generalized_jacobi(x, x, State.vacuum(1), cs, radius=2, cutoff=UNCUT)
    assert rep.verdict and len(rep.checked) == 125


def test_jacobi_reduces_to_voa_jacobi():
    # alpha = beta = 0: the ordinary identity, cross-checked at the mode
    # level against the commutator formula
    cs = standard_cocycle(1)
    a = State.of(monomial(zero_label(1), ((1, 1),)))
    aa = State.of(monomial(zero_label(1), ((1, 1), (1, 1))))
    s = State.of(monomial(zero_label(1), ((1, 1),)))
    for u, v in [(a, a), (a, aa), (aa, a)]:
        for k in range(-2, 3):
            for j in range(-2, 3):
                lhs = (vertex_mode(u, k, vertex_mode(v, j, s))
                       - vertex_mode(v, j, vertex_mode(u, k, s)))
                rhs = State.zero(1)
                for i in range(0, u.max_levels() + v.max_levels() + 1):
                    coef = binom(k, i)
                    if coef.is_zero:
                        continue
                    rhs = rhs + vertex_mode(vertex_mode(u, i, v), k + j - i, s).scale(coef)
                assert lhs == rhs, (k, j)
        rep = verify_generalized_jacobi(u, v, s, cs, radius=2, cutoff=UNCUT)
        assert rep.verdict, rep.failures_detail


def test_jacobi_charged_instance():
    x = head_of(((1, 1),), alpha="1/2")
    y = vac_head(gr("1/3"))
    s = State.vacuum(1, label(["-1/4"]))
    rep = verify_generalized_jacobi(x, y, s, CS1, radius=2, cutoff=8)
    assert rep.verdict, rep.failures_detail
    assert len(rep.checked) >= 50  # anti-vacuity


def test_jacobi_corrupted_cocycle_fails():
    bad = CocycleSystem(1, CS1.f, CS1.g, corruption=gr(1))
    x = State.vacuum(1, label(["1/2"]))
    y = State.vacuum(1, label(["1/3"]))
    s = State.vacuum(1, label(["-1/4"]))
    rep = verify_generalized_jacobi(x, y, s, bad, radius=1, cutoff=UNCUT)
    rep.expected_failure = True
    assert not rep.verdict
    assert rep.outcome == "XFAIL"


def test_skew_trivial_and_oracle():
    cs = standard_cocycle(1)
    one = State.vacuum(1)
    rep = verify_skew_symmetry(one, one, cs, radius=2, cutoff=UNCUT)
    assert rep.verdict
    # alpha = beta = 0, weight <= 2: independent oracle built from bare
    # mode compositions, u(-n-1)v = sum_p L(-1)^p/p! (-1)^(n-p) v(-(n-p)-1)u
    from heisvoa.fock import virasoro_mode
    u = State.of(monomial(zero_label(1), ((1, 2),)))
    v = State.of(monomial(zero_label(1), ((1, 1),)))
    for n in range(-4, 3):
        left = vertex_mode(u, -n - 1, v)
        right = State.zero(1)
        for p in range(0, n + u.max_levels() + v.max_levels() + 2):
            inner = vertex_mode(v, -(n - p) - 1, u)
            if (n - p) % 2:
                inner = inner.scale(-1)
            for q in range(p):
                inner = virasoro_mode(-1, inner).scale(Fraction(1, q + 1))
            right = right + inner
        assert left == right, n
    rep = verify_skew_symmetry(u, v, cs, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail


def test_skew_branch_invariance():
    x = vac_head(gr("1/2"))
    y = State.vacuum(1, label(["1/2*i"]))
    outcomes = []
    for n_branch in (1, 3, -1):
        rep = verify_skew_symmetry(x, y, CS1, n_branch, radius=3, cutoff=UNCUT)
        outcomes.append(rep.verdict)
        assert rep.verdict, rep.failures_detail
    assert len(set(outcomes)) == 1


def test_skew_charged_heavier():
    x = head_of(((1, 1),), alpha="1/2")
    y = apply_mode(1, -1, State.vacuum(1, label(["1/3"])))
    rep = verify_skew_symmetry(x, y, CS1, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail


def test_skew_fails_with_an_even_branch(monkeypatch):
    # E(k(N+1)) is the phase of the even branch N+1: the ratio of the
    # prefactor and the branch of (-z)^(ab+m) loses its sign (-1)^m
    x = head_of(((1, 1),), alpha="1/2")
    y = State.vacuum(1, label(["1/3"]))
    rep = verify_skew_symmetry(x, y, CS1, radius=2, cutoff=6)
    assert rep.outcome == "PASS" and len(rep.checked) == 4, rep.failures_detail
    monkeypatch.setattr(jacobi, "branch_phase", lambda k, n: E(as_gauss(k) * (n + 1)))
    rep = verify_skew_symmetry(x, y, CS1, radius=2, cutoff=6)
    assert rep.outcome == "FAIL"
    assert len(rep.failures) == len(rep.checked) == 4


@pytest.mark.parametrize("cutoff, checked, skipped", [(3, 4, [4]), (2, 3, [3, 4])])
def test_skew_skips_each_coefficient_past_the_cutoff(cutoff, checked, skipped):
    # a coefficient at z^(ab+n) needs level sums 1 + n; the ones that fit
    # the cutoff are still compared
    x = head_of(((1, 1),), alpha="1/2")
    y = State.vacuum(1, label(["1/3"]))
    rep = verify_skew_symmetry(x, y, CS1, radius=3, cutoff=cutoff)
    assert rep.outcome == "PASS" and len(rep.checked) == checked, rep.failures_detail
    assert [reason for _, reason in rep.skipped] == \
        [f"needs level sums {k} > cutoff {cutoff}" for k in skipped]


def test_commutator_examples():
    a = State.of(monomial(zero_label(1), ((1, 1),)))
    w = vac_head(gr("1/2"))
    s = State.vacuum(1, label(["1/3"]))
    rep = verify_commutator(a, w, 0, s, CS1, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail
    # the j=0 term of the right side is the zero-mode eigenvalue alpha^1
    op = IntertwinerOp(w, CS1)
    e0 = op.label.dot(s.single_label())
    lhs0 = (vertex_mode(a, 0, op.coefficient(s, e0))
            - op.coefficient(vertex_mode(a, 0, s), e0))
    rhs0 = op.coefficient(s, e0).scale(gr("1/2"))
    assert lhs0 == rhs0

    omega = conformal_vector(1)
    rep = verify_commutator(omega, w, 0, s, CS1, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail

    one = State.vacuum(1)
    for k in (-2, 0, 3):
        rep = verify_commutator(one, w, k, s, CS1, radius=2, cutoff=UNCUT)
        assert rep.verdict, rep.failures_detail


def test_normal_order_examples():
    one = State.vacuum(1)
    w = vac_head(gr("1/2"))
    s = State.vacuum(1, label(["-1/5"]))
    rep = verify_normal_order(one, w, s, CS1, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail
    a = State.of(monomial(zero_label(1), ((1, 1),)))
    rep = verify_normal_order(a, w, s, CS1, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail
    omega = conformal_vector(1)
    rep = verify_normal_order(omega, one, one, CS1, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail


def test_locality_pass_and_designed_failure():
    one = State.vacuum(1)
    w = vac_head(gr("1/2"))
    s = State.vacuum(1, label(["1/3"]))
    rep = verify_locality(one, w, s, CS1, 0, radius=2, cutoff=UNCUT)
    assert rep.verdict

    a = State.of(monomial(zero_label(1), ((1, 1),)))
    rep = verify_locality(a, w, s, CS1, 1, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail
    rep = verify_locality(a, w, s, CS1, 0, radius=2, cutoff=UNCUT)
    rep.expected_failure = True
    assert not rep.verdict and rep.outcome == "XFAIL"

    omega = conformal_vector(1)
    rep = verify_locality(omega, w, s, CS1, 2, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail


def test_msum_bound_enlargement_is_sound():
    # adding terms beyond the lower-truncation bound changes nothing
    alpha, beta, gamma = gr("1/2"), gr("1/3"), gr("-1/4")
    x, y = vac_head(alpha), vac_head(beta)
    s = State.vacuum(1, label([gamma]))
    kappa12 = -(alpha * beta)
    a = -kappa12 + 1
    b = alpha * (beta + gamma) + kappa12 - 1
    c = beta * gamma + 1
    def lhs1(bound):
        acc = State.zero(1)
        for m in range(bound + 1):
            coef = binom(kappa12 - 1 - 1, m)
            if m % 2:
                coef = -coef
            acc = acc + coeff_product(x, y, s, CS1, b + a + 1 + m, c - m).scale(coef)
        return acc
    exact_bound = 0 + 0 + 1  # ky + ks + ic for this instance
    assert lhs1(exact_bound) == lhs1(exact_bound + 5)


def test_jacobi_implies_specializations():
    u = State.of(monomial(zero_label(1), ((1, 1),)))
    w = vac_head(gr("1/2"))
    s = State.vacuum(1, label(["1/4"]))
    jac = verify_generalized_jacobi(u, w, s, CS1, radius=2, cutoff=UNCUT)
    com = verify_commutator(u, w, 1, s, CS1, radius=2, cutoff=UNCUT)
    loc = verify_locality(u, w, s, CS1, 1, radius=2, cutoff=UNCUT)
    assert jac.verdict and com.verdict and loc.verdict


def test_starved_report_never_passes():
    x = head_of(((1, 1), (1, 1)), alpha="1/2")
    y = head_of(((1, 1), (1, 1)), alpha="1/3")
    s = State.vacuum(1, label(["-1/4"]))
    rep = verify_generalized_jacobi(x, y, s, CS1, radius=1, cutoff=1)
    assert not rep.verdict
    assert rep.outcome == "STARVED"
    assert rep.skipped


def test_coeff_product_linearity():
    # bilinear in the two heads, linear in the target
    one = State.vacuum(1)
    a1 = State.of(monomial(zero_label(1), ((1, 1),)))
    a2 = State.of(monomial(zero_label(1), ((1, 2),)))
    s = State.of(monomial(zero_label(1), ((1, 1),)))
    c = gr("2/3", "1/5")
    for b in range(-2, 2):
        for cc in range(-2, 2):
            x_sum = a1 + a2.scale(c)
            lhs = coeff_product(x_sum, head_of(((1, 2),)), s, CS1, gr(b), gr(cc))
            rhs = (coeff_product(head_of(((1, 1),)), head_of(((1, 2),)), s, CS1,
                                 gr(b), gr(cc))
                   + coeff_product(head_of(((1, 2),)), head_of(((1, 2),)), s, CS1,
                                   gr(b), gr(cc)).scale(c))
            assert lhs == rhs
            y = head_of(((1, 1),))
            lin_s = coeff_product(y, y, s.scale(c) + one, CS1, gr(b), gr(cc))
            rhs_s = (coeff_product(y, y, s, CS1, gr(b), gr(cc)).scale(c)
                     + coeff_product(y, y, one, CS1, gr(b), gr(cc)))
            assert lin_s == rhs_s


def test_associativity():
    from heisvoa.jacobi import verify_associativity
    a = State.of(monomial(zero_label(1), ((1, 1),)))
    w = vac_head(gr("1/2"))
    s = State.vacuum(1, label(["1/3"]))
    # n=1 clears the simple pole of Y(a,z0)(vacuum head)
    rep = verify_associativity(a, w, s, CS1, 1, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail
    rep = verify_associativity(a, w, s, CS1, 0, radius=2, cutoff=UNCUT)
    rep.expected_failure = True
    assert rep.outcome == "XFAIL"
    omega = conformal_vector(1)
    rep = verify_associativity(omega, w, s, CS1, 2, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail
    one = State.vacuum(1)
    rep = verify_associativity(one, w, s, CS1, 0, radius=1, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail


def test_jacobi_reads_each_right_hand_coefficient_once(monkeypatch):
    # every right-hand operator counts its reads per (head, exponent)
    engine = jacobi.three_term_jacobi
    reads: dict = {}

    def counting_engine(**kw):
        factory = kw["op12_factory"]

        def counting_factory(head):
            op = factory(head)
            read = op.coefficient

            def coefficient(target, exponent):
                key = (head, str(exponent))
                reads[key] = reads.get(key, 0) + 1
                return read(target, exponent)

            op.coefficient = coefficient
            return op

        return engine(**{**kw, "op12_factory": counting_factory})

    monkeypatch.setattr(jacobi, "three_term_jacobi", counting_engine)
    x = head_of(((1, 1),), alpha="1/2")
    y = head_of(((1, 1),), alpha="1/3")
    s = State.vacuum(1, label(["-1/4"]))
    rep = verify_generalized_jacobi(x, y, s, CS1, radius=2, cutoff=8)
    assert rep.verdict, rep.failures_detail
    # the verdict and the counts of the same check before the right-hand grid
    assert (len(rep.checked), len(rep.skipped)) == (124, 1)
    assert len({head for head, _ in reads}) > 1
    assert max(reads.values()) == 1, sum(reads.values()) - len(reads)


def test_jacobi_fails_on_a_commutator_off_by_a_unit():
    # CS1 puts every coefficient on a nontrivial unit; E(1/3) moves the
    # second ordering to another unit, so the unit-free slots stay empty
    x, y = vac_head(gr("1/2")), vac_head(gr("1/3"))
    s = State.vacuum(1, label(["-1/4"]))
    alpha, beta, gamma = x.single_label(), y.single_label(), s.single_label()

    def run(c12):
        return jacobi.three_term_jacobi(
            name="generalized_jacobi", op1=IntertwinerOp(x, CS1),
            op2=IntertwinerOp(y, CS1),
            op12_factory=lambda head: IntertwinerOp(head, CS1),
            target=s, kappa12=-alpha.dot(beta), kappa_rhs=alpha.dot(gamma),
            c12=c12, radius=1, cutoff=UNCUT)

    c12 = CS1.commutator(alpha, beta)
    rep = run(c12)
    # an agreeing record keeps neither side
    assert rep.verdict
    assert all(r.left is None and r.right is None for r in rep.checked)
    rep = run(c12 * E("1/3"))
    assert rep.outcome == "FAIL"
    assert all(r.left is None and r.right is None for r in rep.checked if r.passed)
    for r in rep.failures:
        for side in (r.left, r.right):
            assert all(None not in us for us in side.sectors.values())
    mismatches = [ln for ln in rep.to_lines() if " MISMATCH " in ln]
    assert len(mismatches) == len(rep.failures) > 0
    for ln in mismatches:
        left, right = ln.split(" left=", 1)[1].split(" right=")
        assert left != right, ln


def test_jacobi_on_labels_off_the_first_axis(compared):
    # rank 2, labels that are not collinear and heads on both colors, so
    # every coordinate of every label and both color kernels enter
    cs = CocycleSystem(2, ((gr("1/2"), gr("1/3")), (gr(0), gr("-1/4"))),
                       ((gr("1/3"), gr(0)), (gr("1/5"), gr("1/2"))))
    alpha, beta = label(["1/2", "1/3"]), label(["-1/5", "1/2*i"])
    gamma = label(["1/4", "-2/3"])
    x = State.of(monomial(alpha, ((1, 1),)))
    y = State.of(monomial(beta, ((2, 1),)))
    s = State.vacuum(2, gamma)
    rep = verify_generalized_jacobi(x, y, s, cs, radius=1, cutoff=6)
    assert rep.outcome == "PASS", rep.failures_detail
    assert (len(rep.checked), len(rep.skipped)) == (27, 0)
    assert len(compared) == 27
    assert all(not left.is_zero for _, left, _ in compared)

    # the twin: C12 off by the unit E(1/3) must fail
    twin = jacobi.three_term_jacobi(
        name="generalized_jacobi", op1=IntertwinerOp(x, cs), op2=IntertwinerOp(y, cs),
        op12_factory=lambda head: IntertwinerOp(head, cs),
        target=s, kappa12=-alpha.dot(beta), kappa_rhs=alpha.dot(gamma),
        c12=cs.commutator(alpha, beta) * E("1/3"), radius=1, cutoff=6)
    assert twin.outcome == "FAIL"
    assert len(twin.failures) == len(twin.checked) == 27


@pytest.mark.parametrize("config, failed", [("braided.json", 26), ("desk.json", 0)])
def test_jacobi_without_the_braiding_phase(config, failed):
    # three_term_jacobi with c12 = 1 on the first Jacobi instance of a shipped
    # config: it fails on the rank-2 braided instance, where C(alpha,beta) is
    # not 1, and passes on desk's rank-1 instance, where C is 1, so only a
    # braided config catches a verifier that drops C12
    scn = load_scenario(str(Path(__file__).resolve().parent.parent / "configs" / config))
    cs = scn.cocycle()
    alpha, beta, gamma = (label(_coords(v, scn.rank)) for v in scn.jacobi_instances[0])
    assert cs.commutator(alpha, beta).is_one == (not failed)
    x = State.of(monomial(alpha, ((1, 1),)))
    y = State.vacuum(scn.rank, beta)
    s = State.vacuum(scn.rank, gamma)
    assert verify_generalized_jacobi(x, y, s, cs, radius=1, cutoff=6).outcome == "PASS"
    twin = jacobi.three_term_jacobi(
        name="generalized_jacobi", op1=IntertwinerOp(x, cs), op2=IntertwinerOp(y, cs),
        op12_factory=lambda head: IntertwinerOp(head, cs),
        target=s, kappa12=-alpha.dot(beta), kappa_rhs=alpha.dot(gamma),
        c12=S_ONE, radius=1, cutoff=6)
    assert (len(twin.failures), len(twin.checked)) == (failed, 27)
