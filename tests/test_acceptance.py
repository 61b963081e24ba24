"""Acceptance criteria, one test per criterion, exact equality throughout.

Each test prints a single PASS line (visible with pytest -s) after its
assertions; the stated wall-clock budgets are asserted as well.
"""

import time
from fractions import Fraction

from heisvoa.fock import (
    State,
    apply_mode,
    basis_monomials,
    label,
    monomial,
    verify_heisenberg_brackets,
    verify_virasoro_brackets,
    virasoro_mode,
    zero_label,
)
from heisvoa.form import verify_gram_slices, verify_invariance
from heisvoa.intertwiner import (
    CocycleSystem,
    verify_shift_conj_lminus,
    verify_shift_conj_lplus,
    verify_shift_conj_vertex,
    verify_y_conj_minus,
    verify_y_conj_plus,
    verify_ypm_commutation,
    verify_yy_conj,
)
from heisvoa.jacobi import (
    verify_generalized_jacobi,
    verify_locality,
    verify_skew_symmetry,
)
from heisvoa.lattice import (
    integral_lattice,
    verify_li_equivalence,
    verify_shifted_virasoro,
    verify_twisted_jacobi,
)
from heisvoa.report import VerificationReport
from heisvoa.scalars import gr
import random

CS = CocycleSystem(1, ((gr("1/2"),),), ((gr("1/3"),),))

HEADS = ((), ((1, 1),), ((1, 2),), ((1, 1), (1, 1)))

# a cutoff above every level sum the windows below need, so nothing is skipped
UNCUT = 16


def head(parts, alpha):
    return State.of(monomial(label([alpha]), parts))


def _passline(num, name, t0):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.1f}s)")
    return elapsed


def test_criterion_1_heisenberg_virasoro():
    t0 = time.monotonic()
    for rank, n_states in ((1, 19), (2, 74)):  # basis sizes at weight <= 5
        rep = verify_heisenberg_brackets(rank, 5, radius=3)
        assert rep.verdict, rep.failures_detail
        assert len(rep.checked) == n_states * rank * rank * 49
        states = [((), State.of(bm)) for bm in basis_monomials(rank, 5)]
        rep = verify_virasoro_brackets(
            virasoro_mode, rank, states, radius=3,
            report=VerificationReport("virasoro_brackets", "|m|,|n|<=3"))
        assert rep.verdict, rep.failures_detail
        assert len(rep.checked) == n_states * 49
    elapsed = _passline(1, "heisenberg+virasoro algebras", t0)
    assert elapsed < 10


def test_criterion_2_conjugation_identities():
    t0 = time.monotonic()
    rng = random.Random(20240809)
    rank = 1
    u = State.of(monomial(zero_label(rank), ((1, 1), (1, 2))))  # weight 3

    def rand_lab():
        return label([gr(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                         Fraction(rng.randint(-3, 3), rng.randint(1, 3)))])

    for k in range(20):
        alpha, beta, gamma = rand_lab(), rand_lab(), rand_lab()
        s = State.vacuum(rank, gamma)
        r = 3
        rep = verify_ypm_commutation(alpha, beta, s, radius=r, cutoff=UNCUT)
        assert rep.verdict, f"Ypm pair {k}: " + rep.failures_detail
        rep = verify_y_conj_minus(alpha, u, s, radius=r, z2_radius=r, cutoff=UNCUT)
        assert rep.verdict, f"conj- pair {k}: " + rep.failures_detail
        rep = verify_y_conj_plus(alpha, u, s, radius=r, cutoff=UNCUT)
        assert rep.verdict, f"conj+ pair {k}: " + rep.failures_detail
        rep = verify_yy_conj(alpha, u, s, radius=r, z1_radius=r, cutoff=UNCUT)
        assert rep.verdict, f"yy pair {k}: " + rep.failures_detail
        rep = verify_shift_conj_lminus(alpha, s, radius=r, cutoff=UNCUT)
        assert rep.verdict, f"L- pair {k}: " + rep.failures_detail
        rep = verify_shift_conj_lplus(alpha, State.of(monomial(gamma, ((1, 3),))))
        assert rep.verdict, f"L+ pair {k}: " + rep.failures_detail
        rep = verify_shift_conj_vertex(alpha, u, s, radius=r, cutoff=UNCUT)
        assert rep.verdict, f"q-conj pair {k}: " + rep.failures_detail
    elapsed = _passline(2, "exponential-operator conjugation identities", t0)
    assert elapsed < 60


def test_criterion_3_generalized_jacobi():
    t0 = time.monotonic()
    triples = (("1/2", "1/3", "-1/4"), ("1/2*i", "1/2", "0"), ("0", "0", "0"))
    for astr, bstr, gstr in triples:
        s = State.vacuum(1, label([gstr]))
        for hx in HEADS:
            for hy in HEADS:
                x = head(hx, astr)
                y = head(hy, bstr)
                rep = verify_generalized_jacobi(x, y, s, CS, radius=3, cutoff=6)
                assert rep.verdict, (astr, hx, hy, rep.failures_detail)
                assert len(rep.checked) >= 50, (astr, hx, hy, len(rep.checked))
    elapsed = _passline(3, "generalized Jacobi identity", t0)
    assert elapsed < 300


def test_criterion_4_skew_symmetry():
    t0 = time.monotonic()
    triples = (("1/2", "1/3"), ("1/2*i", "1/2"), ("0", "0"))
    for astr, bstr in triples:
        for hx in HEADS:
            for hy in HEADS:
                x = head(hx, astr)
                y = head(hy, bstr)
                verdicts = []
                for n_branch in (1, 3):
                    rep = verify_skew_symmetry(x, y, CS, radius=3,
                                               n_branch=n_branch, cutoff=12)
                    verdicts.append(rep.verdict)
                    assert rep.verdict, (astr, hx, hy, n_branch,
                                         rep.failures_detail)
                assert verdicts[0] == verdicts[1]
    elapsed = _passline(4, "skew symmetry, branch independent", t0)
    assert elapsed < 60


def test_criterion_5_invariant_form():
    t0 = time.monotonic()
    rep = verify_gram_slices(("0", "1/2", "1/3*i"), 3, CS)
    assert rep.verdict, rep.failures_detail
    assert len(rep.checked) == 3 * (1 + 4)  # vacuum pairing and 4 slices each
    instances = (("0", "0"), ("1/2", "1/3"), ("1/2*i", "1/2"))
    for astr, bstr in instances:
        alpha, beta = label([astr]), label([bstr])
        gamma = -(alpha + beta)
        x = State.vacuum(1, alpha)
        y = State.vacuum(1, beta)
        t = apply_mode(1, -1, State.vacuum(1, gamma))
        rep = verify_invariance(x, y, t, CS, 1, radius=2, cutoff=UNCUT)
        assert rep.verdict, (astr, bstr, rep.failures_detail)
    elapsed = _passline(5, "invariant bilinear form", t0)
    assert elapsed < 60


def test_criterion_6_lattice_twists():
    t0 = time.monotonic()
    for gram_mat in ([[1]], [[2]]):
        lat = integral_lattice(gram_mat)
        rank = lat.heis_rank
        for tstr in ("1/2", "1/3"):
            alpha = lat.label_of([Fraction(tstr)])
            x = State.vacuum(rank, lat.label_of([1]))
            s = State.vacuum(rank, alpha)
            rep = verify_twisted_jacobi(lat, alpha, x, x, s, radius=3, cutoff=UNCUT)
            assert rep.verdict, (gram_mat, tstr, rep.failures_detail)
            rep = verify_li_equivalence(lat, alpha, x, State.vacuum(rank),
                                        radius=2, cutoff=UNCUT)
            assert rep.verdict, (gram_mat, tstr, rep.failures_detail)
            rep = verify_shifted_virasoro(lat, alpha, 4, VerificationReport(
                "shifted_virasoro", "weight<=4, |m|,|n|<=3"))
            assert rep.verdict, (gram_mat, tstr, rep.failures_detail)
            assert len(rep.checked) == {1: 12, 2: 38}[rank] + 49  # basis + 7 x 7
    elapsed = _passline(6, "lattice twisted modules", t0)
    assert elapsed < 180


def test_criterion_7_dlm_jacobi():
    t0 = time.monotonic()
    from heisvoa.lattice import verify_dlm_jacobi
    lat = integral_lattice([[1]])
    a1 = lat.label_of([Fraction(1, 2)])
    a2 = lat.label_of([Fraction(1, 3)])
    # mu1 = mu2 = 1 is odd-odd, so the parity factor is -1, and the
    # distinct twists make the branch factor of the delta variant nontrivial
    x = State.vacuum(1, a1 + lat.label_of([1]))
    y = State.vacuum(1, a2 + lat.label_of([1]))
    s = State.vacuum(1)
    for variant, n_branch in (("delta", 1), ("hat", 1)):
        rep = verify_dlm_jacobi(lat, a1, a2, zero_label(1), x, y, s,
                                variant=variant, n_branch=n_branch,
                                radius=2, cutoff=UNCUT)
        assert rep.verdict, (variant, rep.failures_detail)
        if variant == "delta":
            assert "E(" in rep.meta["C12"]
        else:
            assert "E(" not in rep.meta["C12"]
        assert rep.meta["C12"].startswith("-")  # parity sign exercised
    elapsed = _passline(7, "twisted-sector generalized Jacobi", t0)
    assert elapsed < 120


def test_criterion_8_negative_controls():
    t0 = time.monotonic()
    # undersized locality power must fail and be reported as designed
    u = State.of(monomial(zero_label(1), ((1, 1),)))
    w = State.vacuum(1, label(["1/2"]))
    s = State.vacuum(1, label(["1/3"]))
    rep = verify_locality(u, w, s, CS, 0, radius=2, cutoff=UNCUT)
    rep.expected_failure = True
    assert not rep.verdict
    assert rep.outcome == "XFAIL"
    # a corrupted cocycle (associativity broken) must break the identity
    bad = CocycleSystem(1, CS.f, CS.g, corruption=gr(1))
    x = State.vacuum(1, label(["1/2"]))
    y = State.vacuum(1, label(["1/3"]))
    rep = verify_generalized_jacobi(x, y, State.vacuum(1, label(["-1/4"])), bad,
                                    radius=2, cutoff=UNCUT)
    assert not rep.verdict and rep.outcome == "FAIL"
    _passline(8, "negative controls", t0)
