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
    virasoro_mode,
    zero_label,
)
from heisvoa.form import FormConfig, det_scalar, gram, gram_matrix, verify_invariance
from heisvoa.intertwiner import (
    CocycleSystem,
    IntertwinerSpec,
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
    lattice_cocycle,
    shifted_central_charge,
    shifted_virasoro,
    twist,
    twisted_virasoro_mode,
    verify_li_equivalence,
    verify_twisted_jacobi,
)
from heisvoa.scalars import gr, lam_pow
import random

CS = CocycleSystem(1, ((gr("1/2"),),), ((gr("1/3"),),))

HEADS = ((), ((1, 1),), ((1, 2),), ((1, 1), (1, 1)))


def head(parts, alpha):
    return State.of(monomial(label([alpha]), parts))


def _passline(num, name, t0):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.1f}s)")
    return elapsed


def test_criterion_1_heisenberg_virasoro():
    t0 = time.monotonic()
    for rank in (1, 2):
        for bm in basis_monomials(rank, 5):
            s = State.of(bm)
            for i in range(1, rank + 1):
                for j in range(1, rank + 1):
                    for n in range(-3, 4):
                        for m in range(-3, 4):
                            lhs = (apply_mode(i, n, apply_mode(j, m, s))
                                   - apply_mode(j, m, apply_mode(i, n, s)))
                            rhs = (s.scale(n) if (i == j and n == -m)
                                   else State.zero(rank))
                            assert lhs == rhs
            for m in range(-3, 4):
                for n in range(-3, 4):
                    lhs = (virasoro_mode(m, virasoro_mode(n, s))
                           - virasoro_mode(n, virasoro_mode(m, s)))
                    rhs = virasoro_mode(m + n, s).scale(m - n)
                    if m == -n:
                        rhs = rhs + s.scale(Fraction(rank * (m ** 3 - m), 12))
                    assert lhs == rhs
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
        rep = verify_ypm_commutation(alpha, beta, s, r, r)
        assert rep.verdict, f"Ypm pair {k}: " + rep.failures_detail
        rep = verify_y_conj_minus(alpha, u, s, (-r, r), r)
        assert rep.verdict, f"conj- pair {k}: " + rep.failures_detail
        rep = verify_y_conj_plus(alpha, u, s, r, (-r, r))
        assert rep.verdict, f"conj+ pair {k}: " + rep.failures_detail
        rep = verify_yy_conj(alpha, u, s, r, (-r, r))
        assert rep.verdict, f"yy pair {k}: " + rep.failures_detail
        rep = verify_shift_conj_lminus(alpha, s, r)
        assert rep.verdict, f"L- pair {k}: " + rep.failures_detail
        rep = verify_shift_conj_lplus(alpha, State.of(monomial(gamma, ((1, 3),))))
        assert rep.verdict, f"L+ pair {k}: " + rep.failures_detail
        rep = verify_shift_conj_vertex(alpha, u, s, (-r, r))
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
                x = IntertwinerSpec(head(hx, astr), CS)
                y = IntertwinerSpec(head(hy, bstr), CS)
                rep = verify_generalized_jacobi(x, y, s, radius=3, cutoff=6)
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
                x = IntertwinerSpec(head(hx, astr), CS)
                y = head(hy, bstr)
                verdicts = []
                for n_branch in (1, 3):
                    rep = verify_skew_symmetry(x, y, radius=3,
                                               n_branch=n_branch, cutoff=12)
                    verdicts.append(rep.verdict)
                    assert rep.verdict, (astr, hx, hy, n_branch,
                                         rep.failures_detail)
                assert verdicts[0] == verdicts[1]
    elapsed = _passline(4, "skew symmetry, branch independent", t0)
    assert elapsed < 60


def test_criterion_5_invariant_form():
    t0 = time.monotonic()
    cfg = FormConfig(1, CS)
    for bstr in ("0", "1/2", "1/3*i"):
        beta = label([bstr])
        got = gram(State.vacuum(1, beta), State.vacuum(1, -beta), cfg)
        assert got == CS.epsilon(beta, -beta) * lam_pow(-beta.norm2())
        for k in range(0, 4):
            rows, cols, mat = gram_matrix(beta, k, cfg)
            _, _, tmat = gram_matrix(-beta, k, cfg)
            for i in range(len(rows)):
                for j in range(len(cols)):
                    assert mat[i][j] == tmat[j][i]
            assert det_scalar(mat).is_monomial
    instances = (("0", "0"), ("1/2", "1/3"), ("1/2*i", "1/2"))
    for astr, bstr in instances:
        alpha, beta = label([astr]), label([bstr])
        gamma = -(alpha + beta)
        x = IntertwinerSpec(State.vacuum(1, alpha), CS)
        y = State.vacuum(1, beta)
        t = apply_mode(1, -1, State.vacuum(1, gamma))
        rep = verify_invariance(x, y, t, cfg, radius=2)
        assert rep.verdict, (astr, bstr, rep.failures_detail)
    elapsed = _passline(5, "invariant bilinear form", t0)
    assert elapsed < 60


def test_criterion_6_lattice_twists():
    t0 = time.monotonic()
    for gram_mat in ([[1]], [[2]]):
        lat = integral_lattice(gram_mat)
        cs = lattice_cocycle(lat)
        rank = lat.heis_rank
        for tstr in ("1/2", "1/3"):
            td = twist(lat, [Fraction(tstr)])
            x = State.vacuum(rank, lat.label_of([1]))
            s = State.vacuum(rank, td.alpha)
            rep = verify_twisted_jacobi(td, x, x, s, radius=3, cocycle=cs)
            assert rep.verdict, (gram_mat, tstr, rep.failures_detail)
            rep = verify_li_equivalence(td, x, State.vacuum(rank), order=2,
                                        cocycle=cs)
            assert rep.verdict, (gram_mat, tstr, rep.failures_detail)
            c_a = shifted_central_charge(td)
            basis = basis_monomials(rank, 4, lat.label_of([1]))
            st0 = State.of(basis[0])
            for m in range(-3, 4):
                for n in range(-3, 4):
                    lhs = (shifted_virasoro(td, m, shifted_virasoro(td, n, st0))
                           - shifted_virasoro(td, n, shifted_virasoro(td, m, st0)))
                    rhs = shifted_virasoro(td, m + n, st0).scale(m - n)
                    if m == -n:
                        rhs = rhs + st0.scale(c_a * Fraction(m ** 3 - m, 12))
                    assert lhs == rhs, (gram_mat, tstr, m, n)
            for bm in basis:
                st = State.of(bm)
                lhs = shifted_virasoro(td, 0, st) - st.scale(c_a / 24)
                rhs = (twisted_virasoro_mode(td, 0, st)
                       - st.scale(Fraction(rank, 24)))
                assert lhs == rhs
    elapsed = _passline(6, "lattice twisted modules", t0)
    assert elapsed < 180


def test_criterion_7_dlm_jacobi():
    t0 = time.monotonic()
    from heisvoa.lattice import verify_dlm_jacobi
    lat = integral_lattice([[1]])
    cs = lattice_cocycle(lat)
    td1 = twist(lat, [Fraction(1, 2)])
    td2 = twist(lat, [Fraction(1, 3)])
    # mu1 = mu2 = 1 is odd-odd, so the parity factor is -1, and the
    # distinct twists make the branch factor of the delta variant nontrivial
    x = State.vacuum(1, td1.alpha + lat.label_of([1]))
    y = State.vacuum(1, td2.alpha + lat.label_of([1]))
    s = State.vacuum(1)
    for variant, n_branch in (("delta", 1), ("hat", 1)):
        rep = verify_dlm_jacobi(td1, td2, zero_label(1), x, y, s,
                                variant=variant, n_branch=n_branch,
                                radius=2, cocycle=cs)
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
    w = IntertwinerSpec(State.vacuum(1, label(["1/2"])), CS)
    s = State.vacuum(1, label(["1/3"]))
    rep = verify_locality(u, w, s, 0, r1=2, r2=2, expected_failure=True)
    assert not rep.verdict
    assert rep.outcome == "XFAIL"
    # a corrupted cocycle (associativity broken) must break the identity
    bad = CocycleSystem(1, CS.f, CS.g, corruption=gr(1))
    x = IntertwinerSpec(State.vacuum(1, label(["1/2"])), bad)
    y = IntertwinerSpec(State.vacuum(1, label(["1/3"])), bad)
    rep = verify_generalized_jacobi(x, y, State.vacuum(1, label(["-1/4"])),
                                    radius=2)
    assert not rep.verdict and rep.outcome == "FAIL"
    _passline(8, "negative controls", t0)
