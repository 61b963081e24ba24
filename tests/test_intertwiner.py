import random
from fractions import Fraction

import pytest

from heisvoa import intertwiner, workspace
from heisvoa.fock import (
    State,
    apply_mode,
    label,
    monomial,
    vertex_mode,
    zero_label,
)
from heisvoa.intertwiner import (
    CocycleSystem,
    IntertwinerOp,
    annihilation_coeff,
    apply_e,
    apply_e_inverse,
    creation_coeff,
    verify_creativity,
    verify_e_conjugation,
    verify_shift_conj_lminus,
    verify_shift_conj_lplus,
    verify_shift_conj_vertex,
    verify_translation,
    verify_y_conj_minus,
    verify_y_conj_plus,
    verify_ypm_commutation,
    verify_yy_conj,
)
from heisvoa.scalars import E, S_ONE, as_gauss, as_scalar, gr, lam_pow, zeta_pow
from heisvoa.series import CosetError, exponent_index
from oracles import delta_dress, standard_cocycle

# a cutoff above every level sum the windows of these tests need, so that
# nothing is skipped unless a test passes a smaller one
UNCUT = 16


def rand_label(rng, rank=1, den=3, num=3):
    return label([gr(Fraction(rng.randint(-num, num), rng.randint(1, den)),
                     Fraction(rng.randint(-num, num), rng.randint(1, den)))
                  for _ in range(rank)])


def generic_cocycle(rank, diagonal_fix=False):
    f = tuple(tuple(gr(Fraction(1, 2)) if i > j else gr(0) for j in range(rank))
              for i in range(rank))
    g = tuple(tuple(gr(Fraction(1, 3)) if i < j else gr(0) for j in range(rank))
              for i in range(rank))
    return CocycleSystem(rank, f, g, diagonal_fix)


def test_epsilon_examples():
    cs = generic_cocycle(2)
    a = label(["1/2", "-1/3*i"])
    zero = zero_label(2)
    assert cs.epsilon(a, zero).is_one
    assert cs.epsilon(zero, a).is_one

    rng = random.Random(3)
    fixed = generic_cocycle(2, diagonal_fix=True)
    for _ in range(25):
        b = rand_label(rng, 2)
        assert fixed.epsilon(b, -b).is_one

    # rank 2 with C(a,b) = zeta^(a1 b2 - a2 b1)
    g = (("0", "1/2"), ("-1/2", "0"))
    cs2 = CocycleSystem(2, tuple(tuple(gr(0) for _ in range(2)) for _ in range(2)),
                        tuple(tuple(gr(v) for v in row) for row in g))
    e1, e2 = label(["1", "0"]), label(["0", "1"])
    assert cs2.commutator(e1, e2) == zeta_pow(1)


def test_commutator_properties():
    cs = generic_cocycle(2)
    rng = random.Random(9)
    for _ in range(20):
        a, b, c = (rand_label(rng, 2) for _ in range(3))
        assert cs.commutator(a, a).is_one
        assert cs.commutator(a, -a).is_one
        assert cs.commutator(a + b, c) == cs.commutator(a, c) * cs.commutator(b, c)
        assert cs.commutator(a, b + c) == cs.commutator(a, b) * cs.commutator(a, c)
        assert cs.commutator(a, b) == cs.commutator(b, a).inverse()


def test_diagonal_fix_keeps_commutator():
    plain = generic_cocycle(2)
    fixed = generic_cocycle(2, diagonal_fix=True)
    rng = random.Random(17)
    for _ in range(20):
        a, b = rand_label(rng, 2), rand_label(rng, 2)
        assert plain.commutator(a, b) == fixed.commutator(a, b)


def test_corrupted_cocycle_breaks_associativity():
    base = generic_cocycle(1)
    bad = CocycleSystem(1, base.f, base.g, corruption=gr(1))
    a, b, c = label(["1/2"]), label(["1/3"]), label(["-1/4"])
    lhs = bad.epsilon(a, b) * bad.epsilon(a + b, c)
    rhs = bad.epsilon(b, c) * bad.epsilon(a, b + c)
    assert lhs != rhs
    assert bad.epsilon(a, zero_label(1)).is_one
    good_lhs = base.epsilon(a, b) * base.epsilon(a + b, c)
    good_rhs = base.epsilon(b, c) * base.epsilon(a, b + c)
    assert good_lhs == good_rhs


def test_apply_e_examples():
    cs = generic_cocycle(2)
    a = label(["1/2", "i"])
    b = label(["-1/3", "2"])
    vac = State.vacuum(2)
    assert apply_e(cs, a, vac) == State.vacuum(2, a)
    s = State.vacuum(2, b).scale(as_scalar(gr("1/5", "1")))
    lhs = apply_e(cs, a, apply_e(cs, b, s))
    rhs = apply_e(cs, a + b, s).scale(cs.epsilon(a, b))
    assert lhs == rhs
    swapped = apply_e(cs, b, apply_e(cs, a, s)).scale(cs.commutator(a, b))
    assert lhs == swapped
    assert apply_e_inverse(cs, a, apply_e(cs, a, s)) == s
    # several terms on several labels: the shift keeps them apart
    mixed = s + State.of(monomial(b, ((1, 1), (2, 2)))) + State.vacuum(2, a)
    assert len(mixed.items_sorted()) == 3
    assert apply_e_inverse(cs, a, apply_e(cs, a, mixed)) == mixed
    assert apply_e(cs, a, apply_e_inverse(cs, a, mixed)) == mixed


def test_ypm_examples():
    avec = label(["2/3"]).alpha
    vb = State.vacuum(1, label(["-1/2"]))
    assert annihilation_coeff(avec, 0, vb) == vb
    assert annihilation_coeff(avec, 1, vb).is_zero  # positive modes kill the highest vector

    one = State.vacuum(1)
    a1 = apply_mode(1, -1, one)
    assert creation_coeff(avec, 0, one) == one
    assert creation_coeff(avec, 1, one) == a1.scale(gr("2/3"))
    expect2 = (apply_mode(1, -1, a1).scale(gr("2/3") * gr("2/3") * Fraction(1, 2))
               + apply_mode(1, -2, one).scale(gr("2/3") * Fraction(1, 2)))
    assert creation_coeff(avec, 2, one) == expect2


def test_ypm_commutation_identity():
    rng = random.Random(41)
    for rank in (1, 2):
        for _ in range(3):
            a, b = rand_label(rng, rank), rand_label(rng, rank)
            s = State.vacuum(rank, rand_label(rng, rank))
            rep = verify_ypm_commutation(a, b, s, radius=3, cutoff=UNCUT)
            assert rep.verdict, rep.failures_detail


def test_delta_examples():
    beta = label(["1/2", "-1/3"])
    mu = label(["1", "1/5"])
    vac_mu = State.vacuum(2, mu)
    assert delta_dress(beta, vac_mu) == [(beta.dot(mu), vac_mu)]

    zero = zero_label(2)
    s = State.of(monomial(zero, ((1, 1), (2, 2))))
    assert delta_dress(zero, s) == [(gr(0), s)]

    b1 = label(["1/2"])
    t = apply_mode(1, -1, State.vacuum(1))
    assert delta_dress(b1, t) == [(gr(-1), State.vacuum(1).scale(gr("1/2"))),
                                  (gr(0), t)]


def test_delta_dressing_reproduces_shifted_zero_modes():
    # Y(Delta(alpha,z) a, z) must have modes a(n) + alpha delta_{n,0}
    alpha = label(["1/2"])
    cs = standard_cocycle(1)
    a = apply_mode(1, -1, State.vacuum(1))
    s = State.of(monomial(zero_label(1), ((1, 2),)))
    parts = delta_dress(alpha, a)
    for n in range(-3, 3):
        acc = State.zero(1)
        for exp, st in parts:
            op = IntertwinerOp(st, cs)
            acc = acc + op.coefficient(s, gr(-n - 1) - exp)
        expect = apply_mode(1, n, s)
        if n == 0:
            expect = expect + s.scale(gr("1/2"))
        assert acc == expect, n


def test_intertwine_vacuum_head_series():
    cs = generic_cocycle(1)
    alpha, beta = label(["1/2"]), label(["1/3"])
    target = State.vacuum(1, beta)
    xop = IntertwinerOp(State.vacuum(1, alpha), cs)
    eps = cs.epsilon(alpha, beta)
    ab = alpha.dot(beta)
    out_lab = alpha + beta
    vac = State.vacuum(1, out_lab)
    assert xop.coefficient(target, ab) == vac.scale(eps)
    assert xop.coefficient(target, ab + 1) == apply_mode(1, -1, vac).scale(eps * gr("1/2"))
    third = (apply_mode(1, -1, apply_mode(1, -1, vac)).scale(Fraction(1, 8))
             + apply_mode(1, -2, vac).scale(Fraction(1, 4)))
    assert xop.coefficient(target, ab + 2) == third.scale(eps)
    # reduces to the plain vertex operator at label zero
    y = State.of(monomial(zero_label(1), ((1, 1),)))
    s = State.of(monomial(zero_label(1), ((1, 2),)))
    op = IntertwinerOp(y, cs)
    for n in range(-3, 3):
        assert op.coefficient(s, gr(n)) == vertex_mode(y, -n - 1, s)


def test_intertwine_derivative_is_weight_one_head():
    # d/dz of the vacuum-head series equals the series of alpha.a|alpha>:
    # the z^n coefficient of the one is (n+1) times the z^(n+1) one of the other
    cs = standard_cocycle(1)
    alpha = label(["2/3"])
    one = State.vacuum(1)
    base = IntertwinerOp(State.vacuum(1, alpha), cs)
    dx = apply_mode(1, -1, State.vacuum(1, alpha)).scale(gr("2/3"))
    other = IntertwinerOp(dx, cs)
    for n in range(-1, 2):
        assert other.coefficient(one, gr(n)) == \
            base.coefficient(one, gr(n + 1)).scale(gr(n + 1)), n


def test_creativity_report():
    cs = generic_cocycle(1)
    head = apply_mode(1, -2, State.vacuum(1, label(["1/2", ]))).scale(as_scalar(3))
    rep = verify_creativity(head, cs, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail


def test_translation_report():
    cs = generic_cocycle(1)
    head = apply_mode(1, -1, State.vacuum(1, label(["1/2"])))
    rep = verify_translation(head, State.vacuum(1, label(["1/3"])), cs, radius=2,
                             cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail


# a(-1)|1/2> under f = [[1/2]], g = [[0]], read on |-1/4>
PROPS_HEAD = apply_mode(1, -1, State.vacuum(1, label(["1/2"])))
PROPS_CS = CocycleSystem(1, ((gr("1/2"),),), ((gr(0),),))


def test_translation_designed_failure(monkeypatch):
    target = State.vacuum(1, label(["-1/4"]))

    def verify():
        return verify_translation(PROPS_HEAD, target, PROPS_CS, radius=2, cutoff=6)

    rep = verify()
    assert rep.outcome == "PASS" and len(rep.checked) == 5, rep.failures_detail
    # L(0) in place of L(-1): the head's intertwiner is no derivative
    virasoro_mode = intertwiner.virasoro_mode
    monkeypatch.setattr(intertwiner, "virasoro_mode",
                        lambda n, s: virasoro_mode(n + 1, s))
    rep = verify()
    assert rep.outcome == "FAIL"
    assert len(rep.failures) == len(rep.checked) == 5


def test_creativity_designed_failure(monkeypatch):
    def verify():
        return verify_creativity(PROPS_HEAD, PROPS_CS, cutoff=6)

    rep = verify()
    assert rep.outcome == "PASS" and len(rep.checked) == 4, rep.failures_detail
    # z^(alpha(0)) one power too high moves the head off order zero
    offset_on = IntertwinerOp.offset_on
    monkeypatch.setattr(IntertwinerOp, "offset_on",
                        lambda self, t: offset_on(self, t) + 1)
    rep = verify()
    assert rep.outcome == "FAIL"
    assert (len(rep.failures), len(rep.checked)) == (1, 4)


def test_ypm_commutation_designed_failure(monkeypatch):
    def verify():
        return verify_ypm_commutation(label(["1/2"]), label(["1/3"]),
                                      State.vacuum(1, label(["-1/4"])),
                                      radius=2, cutoff=6)

    rep = verify()
    assert rep.outcome == "PASS" and len(rep.checked) == 9, rep.failures_detail
    # (1 - z2/z1)^(-alpha.beta) in place of (1 - z2/z1)^(alpha.beta)
    binom = intertwiner.binom
    monkeypatch.setattr(intertwiner, "binom", lambda k, m: binom(-k, m))
    rep = verify()
    assert rep.outcome == "FAIL"
    assert (len(rep.failures), len(rep.checked)) == (3, 9)


def test_e_conjugation_report():
    rng = random.Random(23)
    cs = generic_cocycle(1)
    for _ in range(3):
        alpha, beta, gamma = (rand_label(rng) for _ in range(3))
        head = apply_mode(1, -1, State.vacuum(1, alpha))
        rep = verify_e_conjugation(head, beta, State.vacuum(1, gamma), cs, radius=2,
                                   cutoff=UNCUT)
        assert rep.verdict, rep.failures_detail


def test_e_conjugation_designed_failure(monkeypatch):
    cs = CocycleSystem(1, ((gr("1/3"),),), ((gr("1/5"),),))
    head = apply_mode(1, -1, State.vacuum(1, label(["1/2"])))

    def verify():
        return verify_e_conjugation(head, label(["-1/4"]),
                                    State.vacuum(1, label(["1/3"])), cs, radius=2,
                                    cutoff=UNCUT)

    assert verify().outcome == "PASS"
    # the dressed operator reads the head's Y(u,z) on the target sector t,
    # not on t + beta
    sector = intertwiner.IntertwinerOp._sector
    monkeypatch.setattr(intertwiner.IntertwinerOp, "_sector",
                        lambda self, t: sector(self, t)[:3] + (t,))
    rep = verify()
    assert len(rep.failures) == len(rep.checked) == 4


def test_prop_conjugation_identities():
    rng = random.Random(57)
    rank = 1
    u = State.of(monomial(zero_label(rank), ((1, 1), (1, 1))))
    for _ in range(2):
        alpha = rand_label(rng, rank)
        gamma = rand_label(rng, rank)
        s = State.vacuum(rank, gamma)
        rep = verify_y_conj_minus(alpha, u, s, radius=3, z2_radius=2, cutoff=UNCUT)
        assert rep.verdict, "minus: " + rep.failures_detail
        rep = verify_y_conj_plus(alpha, u, s, radius=3, cutoff=UNCUT)
        assert rep.verdict, "plus: " + rep.failures_detail
        rep = verify_yy_conj(alpha, u, s, radius=2, z1_radius=2, cutoff=UNCUT)
        assert rep.verdict, "yy: " + rep.failures_detail


def test_y_conj_plus_skips_a_zero_yplus_tail():
    # alpha(1) kills a(-2)|gamma>, so the z^-1 tail of Yplus on it is zero
    alpha = label(["1/2"])
    u = State.of(monomial(zero_label(1), ((1, 1), (1, 1))))
    s = State.of(monomial(label(["1/3"]), ((1, 2),)))
    assert annihilation_coeff(alpha.alpha, 1, s).is_zero
    rep = verify_y_conj_plus(alpha, u, s, radius=2, cutoff=UNCUT)
    assert rep.verdict and len(rep.checked) == 15, rep.failures_detail


def test_shift_conjugation_identities():
    rng = random.Random(71)
    rank = 1
    for _ in range(2):
        alpha = rand_label(rng, rank)
        s = State.of(monomial(label(["1/3"]), ((1, 1),)))
        rep = verify_shift_conj_lminus(alpha, s, radius=3, cutoff=UNCUT)
        assert rep.verdict, rep.failures_detail
        rep = verify_shift_conj_lplus(alpha, s)
        assert rep.verdict, rep.failures_detail
        u = State.of(monomial(zero_label(rank), ((1, 2),)))
        rep = verify_shift_conj_vertex(alpha, u, s, radius=3, cutoff=UNCUT)
        assert rep.verdict, rep.failures_detail


def _doubled(coeff):
    """A creation/annihilation coefficient that acts with 2*alpha."""
    def wrong(avec, k, s, arg=S_ONE):
        return coeff(tuple(a * 2 for a in avec), k, s, arg)
    return wrong


# each verifier compares at t = 0..D; corrupting only its right side
# (the Yminus/Yplus side) must come out as a failure
SHIFT_CONJ_MUTANTS = {
    "lminus": ("creation_coeff", lambda alpha, s, u:
               verify_shift_conj_lminus(alpha, s, radius=3, cutoff=UNCUT)),
    "lplus": ("annihilation_coeff", lambda alpha, s, u:
              verify_shift_conj_lplus(alpha, s)),
    "vertex": ("annihilation_coeff", lambda alpha, s, u:
               verify_shift_conj_vertex(alpha, u, s, radius=3, cutoff=UNCUT)),
}


@pytest.mark.parametrize("name", SHIFT_CONJ_MUTANTS)
def test_shift_conjugation_designed_failure(monkeypatch, name):
    target, verify = SHIFT_CONJ_MUTANTS[name]
    alpha = label(["2/3"])
    s = State.of(monomial(label(["1/3"]), ((1, 1),)))
    u = State.of(monomial(zero_label(1), ((1, 2),)))
    assert verify(alpha, s, u).outcome == "PASS"
    monkeypatch.setattr(intertwiner, target, _doubled(getattr(intertwiner, target)))
    assert verify(alpha, s, u).outcome == "FAIL"


def _flipped_s1(dress):
    """The two-variable dressing taken at -s1*z1 + s2*z2 instead."""
    def wrong(entries, sign, avec, s1, s2, *caps):
        return dress(entries, sign, avec, -s1, s2, *caps)
    return wrong


# each conjugation identity dresses with Y(alpha, s1*z1 + s2*z2); the
# wrong sign on z1 must come out as a failure
CONJ_MUTANTS = {
    "y_conj_minus": lambda alpha, u, s: verify_y_conj_minus(
        alpha, u, s, radius=2, z2_radius=2, cutoff=UNCUT),
    "y_conj_plus": lambda alpha, u, s: verify_y_conj_plus(
        alpha, u, s, radius=2, cutoff=UNCUT),
    "yy_conj": lambda alpha, u, s: verify_yy_conj(
        alpha, u, s, radius=2, z1_radius=2, cutoff=UNCUT),
}


@pytest.mark.parametrize("name", CONJ_MUTANTS)
def test_conjugation_designed_failure(monkeypatch, name):
    verify = CONJ_MUTANTS[name]
    alpha = label(["1/2"])
    u = State.of(monomial(zero_label(1), ((1, 1), (1, 1))))
    s = State.vacuum(1, label(["-1/3"]))
    assert verify(alpha, u, s).verdict
    monkeypatch.setattr(intertwiner, "_ypm_dress",
                        _flipped_s1(intertwiner._ypm_dress))
    rep = verify(alpha, u, s)
    assert rep.verdict is False and rep.failures


# the coefficients past cutoff 6 in windows that it cuts: z1^e1 z2^j needs
# level sum ku + ks + e1 + j in y_conj_minus, z1^j z2^e2 needs ku + ks + j
# + e2 in yy_conj, z1^-i z2^e2 needs ku + ks + e2 in y_conj_plus and z^e
# needs ku + ks + e in shift_conj_vertex, with ku = 2 and ks the level sum
# of the target; z1^-i z2^j of ypm_commutation and z^r of
# shift_conj_lminus need ks + j and ks + r
CUT_CONJ = {
    "y_conj_minus": (lambda alpha, u, s, cutoff: verify_y_conj_minus(
        alpha, u, s, radius=3, z2_radius=2, cutoff=cutoff),
                     {0: ["3,2"], 1: ["3,1", "2,2", "3,2"]}),
    "yy_conj": (lambda alpha, u, s, cutoff: verify_yy_conj(
        alpha, u, s, radius=3, z1_radius=2, cutoff=cutoff),
                {0: ["2,3"], 1: ["1,3", "2,2", "2,3"]}),
    "y_conj_plus": (lambda alpha, u, s, cutoff: verify_y_conj_plus(
        alpha, u, s, radius=5, cutoff=cutoff),
                    {0: [f"{-i},5" for i in range(6)],
                     1: [f"{-i},{e2}" for i in range(6) for e2 in (4, 5)]}),
    "shift_conj_vertex": (lambda alpha, u, s, cutoff: verify_shift_conj_vertex(
        alpha, u, s, radius=5, cutoff=cutoff),
                          {0: ["5"], 1: ["4", "5"]}),
    "ypm_commutation": (lambda alpha, u, s, cutoff: verify_ypm_commutation(
        alpha, label(["-1/4"]), s, radius=7, cutoff=cutoff),
                        {0: [f"{-i},7" for i in range(8)],
                         1: [f"{-i},{j}" for i in range(8) for j in (6, 7)]}),
    "shift_conj_lminus": (lambda alpha, u, s, cutoff: verify_shift_conj_lminus(
        alpha, s, radius=7, cutoff=cutoff),
                          {0: ["7"], 1: ["6", "7"]}),
}


def _measuring(levels, fn):
    """fn, noting the level sum of every State it returns in levels."""
    def measured(*args, **kwargs):
        out = fn(*args, **kwargs)
        levels.extend(x.max_levels() for x in (out if isinstance(out, list) else [out]))
        return out
    return measured


@pytest.mark.parametrize("ks", [0, 1])
@pytest.mark.parametrize("name", CUT_CONJ)
def test_conjugation_cutoff_skips_only_the_coefficients_past_it(
        monkeypatch, compared, name, ks):
    verify, past = CUT_CONJ[name]
    alpha = label(["1/2"])
    u = State.of(monomial(zero_label(1), ((1, 1), (1, 1))))
    s = State.of(monomial(label(["1/3"]), ((1, 1),) * ks))
    whole = verify(alpha, u, s, UNCUT)
    assert whole.verdict and not whole.skipped
    uncut = {e: (left, right) for e, left, right in compared}
    levels = []
    # every mode action, chain coefficient and L(n)-exponential a verifier
    # builds stays within the cutoff
    for fn in ("vertex_mode", "_ypm_coeff", "exp_virasoro_coeffs"):
        monkeypatch.setattr(intertwiner, fn,
                            _measuring(levels, getattr(intertwiner, fn)))
    compared.clear()
    rep = verify(alpha, u, s, 6)
    assert levels and max(levels) <= 6
    assert [",".join(map(str, e)) for e, _ in rep.skipped] == past[ks]
    assert all(why.endswith(" > cutoff 6") for _, why in rep.skipped)
    assert rep.verdict
    assert len(rep.checked) + len(rep.skipped) == len(whole.checked)
    assert all(uncut[e] == (left, right) for e, left, right in compared)


def test_yy_conj_builds_no_creation_chain_past_the_cutoff(monkeypatch):
    # the bench setting (window 2, cutoff 6, ku = 2, a vacuum target): the
    # right side reads its two Yminus dressings at f1 + f2 = j + e2 alone,
    # so no chain coefficient it builds has a level sum past ku + 2 + 2 = 6
    alpha = label(["1/2"])
    u = State.of(monomial(zero_label(1), ((1, 1), (1, 1))))
    s = State.vacuum(1, label(["-1/3"]))
    levels = []
    ypm_coeff = intertwiner._ypm_coeff

    def measured(*args):
        out = ypm_coeff(*args)
        levels.append(out.max_levels())
        return out

    monkeypatch.setattr(intertwiner, "_ypm_coeff", measured)
    rep = verify_yy_conj(alpha, u, s, radius=2, z1_radius=2, cutoff=6)
    assert rep.verdict and len(rep.checked) == 15 and not rep.skipped
    assert max(levels) == 6


def test_two_variable_dressing_closed_form():
    dress = intertwiner._ypm_dress
    a1 = Fraction(2, 3)
    avec = label([a1]).alpha
    vac = State.vacuum(1)
    one = State.of(monomial(zero_label(1), ((1, 1),)))  # a(-1)|0>
    for s1, s2 in ((1, 1), (-1, 1), (1, -1)):
        # Yplus(alpha, w) a(-1)|0> = a(-1)|0> - alpha_1 w^-1 |0>, w^-1 expanded
        # in nonnegative powers of z2 and cut at z2^3
        want = {(0, 0): one}
        for m in range(4):
            c = -a1 * (-1) ** m * Fraction(s1) ** (-1 - m) * s2 ** m
            want[(-1 - m, m)] = vac.scale(as_gauss(c))
        assert dress({(0, 0): one}, 1, avec, s1, s2, None, 3) == want
        # Yminus(alpha, w)|0>: its order-1 part is alpha_1 w a(-1)|0>, and
        # every exponent pair within the caps (2, 3) appears
        got = dress({(0, 0): vac}, -1, avec, s1, s2, 2, 3)
        assert got[(1, 0)] == one.scale(as_gauss(s1 * a1))
        assert got[(0, 1)] == one.scale(as_gauss(s2 * a1))
        assert set(got) == {(e1, e2) for e1 in range(3) for e2 in range(4)}
    # with s1 = 0 the argument is z2 alone
    got = dress({(0, 0): vac}, -1, avec, 0, 1, None, 3)
    assert set(got) == {(0, 0), (0, 1), (0, 2), (0, 3)}
    assert got[(0, 1)] == one.scale(as_gauss(a1))


def test_mixed_coset_target_rejected():
    cs = standard_cocycle(1)
    x = State.vacuum(1, label(["1/2"]))
    mixed = State.vacuum(1, label(["1/3"])) + State.vacuum(1, label(["1/4"]))
    with pytest.raises(CosetError):
        IntertwinerOp(x, cs).coefficient(mixed, gr("1/6"))


def test_intertwiner_op_needs_a_one_label_head_of_the_cocycle_rank():
    cs = standard_cocycle(1)
    two_labels = State.vacuum(1, label(["1/2"])) + State.vacuum(1, label(["1/3"]))
    with pytest.raises(ValueError, match=r"not label-homogeneous \(2 labels\)"):
        IntertwinerOp(two_labels, cs)
    with pytest.raises(ValueError, match="head rank != cocycle rank"):
        IntertwinerOp(State.vacuum(2, label(["1/2", "0"])), cs)


def per_monomial_coefficient(op, target, exponent):
    """The intertwiner coefficient as one full kernel per target monomial:
    sum_kp sum_k B_kp u(kp - k - n - 1) A_k t at relative exponent n, for
    each head monomial u, through the public Fock and chain functions."""
    lab, rank = op.label, target.rank
    exponent = as_gauss(exponent)
    out = State.zero(rank)
    for m, c in target.items_sorted():
        n = exponent_index(op.offset_on(m.label), exponent)
        kt = m.levels_sum
        if op.weight_int + kt + n < 0:
            continue
        t = State.of(m)
        for hm, hc in op.head_state.items_sorted():
            u = State.of(monomial(zero_label(rank), hm.parts))
            for k in range(kt + 1):
                a_k = annihilation_coeff(lab.alpha, k, t)
                for kp in range(hm.levels_sum + kt + n + 1):
                    g = vertex_mode(u, kp - k - n - 1, a_k)
                    b = creation_coeff(lab.alpha, kp, g)
                    out = out + apply_e(op.cocycle, lab, b).scale(c * hc)
    return out


def test_coefficient_matches_the_per_monomial_kernels(monkeypatch):
    cs = generic_cocycle(2)
    alpha = label(["1/2+1/3*i", "-1/4*i"])
    g1 = label(["1/3+1/2*i", "-1/4"])
    g2 = g1 + label(["0", "4*i"])  # alpha.g2 = alpha.g1 + 1: one coset
    va = State.vacuum(2, alpha)
    head = (apply_mode(1, -1, apply_mode(2, -1, va)).scale(zeta_pow(gr("1/3")))
            + apply_mode(2, -2, va).scale(E("1/2"))
            + va.scale(gr("2/3", "1")))
    target = (State.of(monomial(g1, ((1, 1),)))
              + State.of(monomial(g1, ((2, 2),)), coeff=E("1/3").scale(gr("1/2")))
              + State.vacuum(2, g2).scale(lam_pow(1))
              + State.of(monomial(g2, ((1, 1), (1, 1))), coeff=gr("-3/5")))
    exponents = [alpha.dot(g1) + n for n in range(-7, 4)]
    monkeypatch.setattr(workspace, "_current", workspace.Workspace())
    op = IntertwinerOp(head, cs)
    values = [op.coefficient(target, e) for e in exponents]
    assert any(not v.is_zero for v in values)
    for e, got in zip(exponents, values):
        assert got == per_monomial_coefficient(op, target, e), e
    # one half-kernel list per (label, head part, target monomial)
    assert workspace.current().sizes()["coeff"] == 3 * 4


def test_dressed_coefficient_is_the_sum_of_its_parts():
    # Y(Delta(beta,z)u, z) = sum over the parts (x, st) of Delta(beta,z)u of
    # z^x Y(st, z), each part with the level bound of its own head
    cs = generic_cocycle(2)
    alpha = label(["1/2+1/3*i", "-1/4*i"])
    beta = label(["1/3", "-1/2+1/5*i"])
    g1 = label(["1/3+1/2*i", "-1/4"])
    g2 = g1 + label(["0", "4*i"])  # alpha.g2 = alpha.g1 + 1: one coset
    va = State.vacuum(2, alpha)
    head = (apply_mode(1, -1, apply_mode(2, -1, va)).scale(zeta_pow(gr("1/3")))
            + apply_mode(2, -2, va).scale(E("1/2")))
    target = (State.of(monomial(g1, ((1, 1),)))
              + State.vacuum(2, g2).scale(lam_pow(1)))
    op = IntertwinerOp(head, cs, beta=beta)
    parts = [(x, IntertwinerOp(st, cs))
             for x, st in delta_dress(beta, head)]
    assert len(parts) > 1
    base = op.offset_on(g1)
    for n in range(-6, 6):
        e = base + n
        want = State.zero(2)
        for x, part in parts:
            want = want + part.coefficient(target, e - x)
        assert op.coefficient(target, e) == want, n
    # the shifted sector labels are built once per operator
    first, second = (op.coefficient(target, base + n).sectors for n in (0, 1))
    assert len(first) == 2 and first.keys() == second.keys()
    assert {id(k) for k in first} == {id(k) for k in second}


def test_shared_memo_matches_a_fresh_workspace(monkeypatch):
    alpha, gamma = label(["1/2"]), label(["1/3"])
    good = standard_cocycle(1)
    bad = CocycleSystem(1, good.f, good.g, corruption=gr(1))
    u = apply_mode(1, -1, State.vacuum(1, alpha))
    v = apply_mode(1, -2, State.vacuum(1, alpha))
    target = (State.of(monomial(gamma, ((1, 1),)))
              + State.vacuum(1, gamma).scale(gr("2/3")))
    exponents = [alpha.dot(gamma) + n for n in range(-2, 3)]

    def value(cs, head, e):
        return IntertwinerOp(head, cs).coefficient(target, e)

    # the two cocycles interleaved on the same heads share every memo entry
    monkeypatch.setattr(workspace, "_current", workspace.Workspace())
    cases = [(cs, head, e) for e in exponents for cs in (good, bad)
             for head in (u, v, u.scale(2) + v)]
    shared = [value(*case) for case in cases]
    entries = workspace.current().sizes()["coeff"]
    monkeypatch.setattr(workspace, "_current", workspace.Workspace())
    for e in exponents:
        for head in (u, v, u.scale(2) + v):
            value(good, head, e)
    assert workspace.current().sizes()["coeff"] == entries
    assert any(value(good, u, e) != value(bad, u, e) for e in exponents)
    for (cs, head, e), got in zip(cases, shared):
        monkeypatch.setattr(workspace, "_current", workspace.Workspace())
        assert got == value(cs, head, e), (cs.corruption, head, e)
    for e in exponents:
        for cs in (good, bad):
            assert value(cs, u.scale(2) + v, e) == \
                value(cs, u, e).scale(2) + value(cs, v, e)


def test_series_argument_scales_the_kth_coefficient():
    avec = label(["2/3"]).alpha
    gamma = label(["1/3"])
    s = (State.of(monomial(gamma, ((1, 1), (1, 2))))
         + State.vacuum(1, gamma).scale(gr("1/2")))
    for k in range(4):
        for coeff in (creation_coeff, annihilation_coeff):
            plain = coeff(avec, k, s)
            assert not plain.is_zero
            assert coeff(avec, k, s, arg=lam_pow(1)) == plain.scale(lam_pow(k)), \
                (coeff.__name__, k)


def test_prop_conjugation_identities_rank2():
    rng = random.Random(91)
    rank = 2
    u = State.of(monomial(zero_label(rank), ((1, 1), (2, 1))))
    alpha = rand_label(rng, rank)
    gamma = rand_label(rng, rank)
    s = State.vacuum(rank, gamma)
    rep = verify_y_conj_minus(alpha, u, s, radius=2, z2_radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail
    rep = verify_y_conj_plus(alpha, u, s, radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail
    rep = verify_yy_conj(alpha, u, s, radius=2, z1_radius=2, cutoff=UNCUT)
    assert rep.verdict, rep.failures_detail
