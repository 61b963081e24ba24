import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisvoa import fock, workspace
from heisvoa.fock import (
    FockMonomial,
    Label,
    State,
    apply_mode,
    basis_monomials,
    format_state,
    label,
    monomial,
    translate_label,
    verify_heisenberg_brackets,
    verify_virasoro_brackets,
    vertex_mode,
    virasoro_mode,
    zero_label,
)
from heisvoa.intertwiner import annihilation_coeff, creation_coeff
from heisvoa.report import VerificationReport
from heisvoa.scalars import (
    GR_ONE,
    GR_ZERO,
    S_ONE,
    S_ZERO,
    UNIT_ONE,
    E,
    GaussRat,
    Scalar,
    as_scalar,
    gr,
    lam_pow,
    zeta_pow,
)
from oracles import conformal_vector, parse_state


def mono_state(rank, parts, lab=None):
    return State.of(monomial(lab if lab is not None else zero_label(rank), parts))


def test_mode_examples():
    one = State.vacuum(1)
    assert apply_mode(1, 1, apply_mode(1, -1, one)) == one
    alpha = label(["1/2-1/3*i"])
    va = State.vacuum(1, alpha)
    assert apply_mode(1, 0, va) == va.scale(gr("1/2-1/3*i"))
    assert apply_mode(1, 2, apply_mode(1, -1, one)).is_zero


def test_heisenberg_brackets_exhaustive():
    # [a_i(n), a_j(m)] = n delta_{n,-m} delta_{ij} on all states of weight <= 5
    for rank, n_states in ((1, 19), (2, 74)):
        rep = verify_heisenberg_brackets(rank, 5, radius=4)
        assert rep.verdict, rep.failures_detail
        assert len(rep.checked) == n_states * rank * rank * 81


def test_heisenberg_verifier_fails_on_a_doubled_annihilator(monkeypatch):
    # 2a(n) for n > 0 breaks exactly the [a_i(n), a_i(-n)], n != 0, records:
    # 2 colors x 6 values of n on each of the 8 states of weight <= 2
    plain = fock.apply_mode
    monkeypatch.setattr(fock, "apply_mode", lambda i, n, s: (
        plain(i, n, s).scale(2) if n > 0 else plain(i, n, s)))
    rep = verify_heisenberg_brackets(2, 2, radius=3)
    assert rep.outcome == "FAIL" and len(rep.checked) == 8 * 4 * 49
    assert [r.exponents for r in rep.failures] == [
        (i, i, n, -n, bi) for bi in range(8) for i in (1, 2)
        for n in (-3, -2, -1, 1, 2, 3)]


def test_virasoro_examples():
    s = mono_state(1, [(1, 2)])
    assert virasoro_mode(0, s) == s.scale(2)
    for rank in (1, 2):
        vac = State.vacuum(rank)
        bracket = (virasoro_mode(2, virasoro_mode(-2, vac))
                   - virasoro_mode(-2, virasoro_mode(2, vac)))
        assert bracket == vac.scale(Fraction(rank, 2))
    alpha = label([gr("1/2", "1/3")])
    va = State.vacuum(1, alpha)
    assert virasoro_mode(-1, va) == apply_mode(1, -1, va).scale(gr("1/2", "1/3"))


def _brackets_report():
    return VerificationReport("virasoro_brackets", "|m|,|n|<=3")


def test_virasoro_algebra():
    # [L(m), L(n)] = (m-n) L(m+n) + (rank/12)(m^3 - m) delta_{m,-n}
    for rank in (1, 2):
        states = [State.of(bm) for bm in basis_monomials(rank, 3)[:6]]
        states.append(State.vacuum(rank, label(["1/2"] + ["0"] * (rank - 1))))
        rep = verify_virasoro_brackets(virasoro_mode, rank, [((), s) for s in states],
                                       radius=3, report=_brackets_report())
        assert rep.verdict, rep.failures_detail
        assert len(rep.checked) == 7 * 49


def test_virasoro_verifier_fails_on_a_wrong_central_charge():
    # c + 1 breaks exactly the m = -n records with |m| >= 2, 4 per state
    states = [((bi,), State.of(bm)) for bi, bm in enumerate(basis_monomials(1, 2))]
    rep = verify_virasoro_brackets(virasoro_mode, 2, states, radius=3,
                                   report=_brackets_report())
    assert rep.outcome == "FAIL" and len(rep.checked) == 4 * 49
    assert [r.exponents for r in rep.failures] == [
        (bi, m, -m) for bi in range(4) for m in (-3, -2, 2, 3)]


def test_vertex_mode_base_case():
    s = mono_state(1, [(1, 3), (1, 1)])
    a = mono_state(1, [(1, 1)])
    for n in range(-4, 5):
        assert vertex_mode(a, n, s) == apply_mode(1, n, s)


def test_vertex_mode_rejects_charged_head():
    va = State.vacuum(1, label(["1/2"]))
    with pytest.raises(ValueError):
        vertex_mode(va, 0, State.vacuum(1))


def test_conformal_vector_modes_match_virasoro():
    # Y(omega,z) = sum L(n) z^(-n-2), so omega(n) = L(n-1); on a nonzero
    # sector the vertex side reads the label through Li's Delta and the
    # Virasoro side through its closed form, two independent paths
    for values, max_levels in ((["0"], 4), (["1/3+1/2*i"], 4),
                               (["1/2", "-1/3"], 3)):
        lab = label(values)
        omega = conformal_vector(lab.rank)
        for bm in basis_monomials(lab.rank, max_levels, lab):
            s = State.of(bm)
            for n in range(-3, 5):
                assert vertex_mode(omega, n, s) == virasoro_mode(n - 1, s)


def test_creativity():
    one = State.vacuum(1)
    for parts in [(), ((1, 1),), ((1, 2),), ((1, 1), (1, 1)), ((1, 3), (1, 1))]:
        u = mono_state(1, parts)
        assert vertex_mode(u, -1, one) == u
        for n in range(0, 6):
            assert vertex_mode(u, n, one).is_zero


def test_translation_property():
    # Y(L(-1)u, z) = d/dz Y(u,z), i.e. (L(-1)u)(n) = -n u(n-1)
    rank = 1
    for uparts in [((1, 1),), ((1, 2),), ((1, 1), (1, 1))]:
        u = mono_state(rank, uparts)
        lu = virasoro_mode(-1, u)
        for bm in basis_monomials(rank, 3):
            s = State.of(bm)
            for n in range(-4, 4):
                assert vertex_mode(lu, n, s) == vertex_mode(u, n - 1, s).scale(-n)


def test_lower_truncation():
    w = 3
    basis = basis_monomials(1, w)
    for um in basis:
        u = State.of(um)
        for vm in basis:
            v = State.of(vm)
            for n in range(2 * w + 1, 2 * w + 4):
                assert vertex_mode(u, n, v).is_zero


def test_translate_label_pure_shift():
    s = mono_state(1, [(1, 2)], label(["1/3"]))
    t = translate_label(s, label(["1/2"]))
    assert t.single_label() == label(["5/6"])
    assert translate_label(t, label(["-1/2"])) == s


def test_state_text_roundtrip():
    rank = 2
    s = (mono_state(rank, [(1, 2), (2, 1)], label(["1/2", "-1/3*i"]))
         .scale(as_scalar(gr("2", "1")))
         + State.vacuum(rank))
    text = format_state(s)
    assert parse_state(text, rank) == s
    assert parse_state("0", rank).is_zero
    with pytest.raises(ValueError):
        parse_state("a[1,-1]|1/2>", 2)


def test_zero_divisor_coefficients_leave_no_zero_terms():
    # (1 + i E(1/2)) (1 - i E(1/2)) = 1 + E(1) = 0 in the group algebra
    x = S_ONE + E("1/2").scale(gr(0, 1))
    y = S_ONE - E("1/2").scale(gr(0, 1))
    u = State.of(monomial(zero_label(1), ((1, 1),)), coeff=x)
    s = State.of(monomial(label(["1/3"]), ((1, 1),)), coeff=y)
    out = vertex_mode(u, 0, s)
    assert out.is_zero and out == State.zero(1)
    assert apply_mode(1, -1, s).scale(x).is_zero


small_fracs = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
gauss = st.builds(GaussRat, small_fracs, small_fracs)
nonzero_gauss = gauss.filter(lambda x: not x.is_zero)
term_dicts = st.dictionaries(st.integers(0, 5), nonzero_gauss, max_size=6)
factors = st.one_of(st.sampled_from([GR_ZERO, GR_ONE]), gauss)


@settings(max_examples=300, deadline=None, database=None)
@given(term_dicts, factors, term_dicts, st.sets(st.integers(0, 5)))
def test_accumulate_matches_the_multiply_then_add_oracle(out, c, terms, cancel):
    # complex values over unequal denominators; the keys in cancel that out
    # already holds get the term that cancels them exactly
    if not c.is_zero:
        for m in cancel & out.keys():
            terms[m] = -out[m] / c
    want = dict(out)
    for m, x in terms.items():
        v = want.get(m, GR_ZERO) + c * x
        if v.is_zero:
            want.pop(m, None)
        else:
            want[m] = v
    got = dict(out)
    before = dict(terms)
    fock._accumulate(got, c, terms)
    assert got == want
    assert terms == before
    for x in got.values():
        assert not x.is_zero and x.d > 0 and math.gcd(x.a, x.b, x.d) == 1
    if c.is_zero:
        assert got == out  # c = 0 adds no entry, not even a zero one


# unit sums for _add_units, the layout of one sector of a State: the
# unit-free slot and units whose E-exponents wrap past 1 when multiplied
# (2/3 + 2/3, 1/2 + 2/3), lam and zeta units, over parts-keyed term dicts
UNIT_KEYS = [None] + [next(iter(x.terms)) for x in (
    E("1/3"), E("2/3"), E("1/2"), lam_pow("1/2"), zeta_pow("-1/3"),
    E("3/4") * lam_pow(1) * zeta_pow("1/2"))]
SUM_PARTS = [(), ((1, 1),), ((1, 2),), ((1, 1), (1, 1))]
unit_sums = st.dictionaries(
    st.sampled_from(UNIT_KEYS),
    st.dictionaries(st.sampled_from(SUM_PARTS), nonzero_gauss, max_size=4),
    max_size=4)
unit_factors = st.one_of(
    st.none(),
    gauss.map(as_scalar),
    st.lists(st.tuples(st.sampled_from(UNIT_KEYS), nonzero_gauss), min_size=1,
             max_size=3).map(lambda ts: sum(
                 (as_scalar(x) if u is None else
                  Scalar({u: GR_ONE}, _clean=True).scale(x) for u, x in ts),
                 as_scalar(0))))


def sum_scalars(us, scale=S_ONE):
    """The per-monomial Scalars of scale * (the sum over units u of u * us[u]),
    built by Scalar arithmetic alone."""
    out = {}
    for u, t in us.items():
        unit = S_ONE if u is None else Scalar({u: GR_ONE}, _clean=True)
        for m, q in t.items():
            out[m] = out.get(m, S_ZERO) + unit.scale(q) * scale
    return {m: c for m, c in out.items() if not c.is_zero}


@settings(max_examples=200, deadline=None, database=None)
@given(unit_sums, factors, unit_sums, unit_factors, st.sets(st.sampled_from(SUM_PARTS)))
def test_add_units_matches_the_scalar_oracle(out, q, us, c, cancel):
    qc = as_scalar(q) if c is None else c.scale(q)
    add = sum_scalars(us, qc)
    # out takes -q*c*us on the monomials of cancel, which must then vanish
    for m in cancel:
        for u in list(out):
            out[u].pop(m, None)
        for v, x in add.get(m, S_ZERO).terms.items():
            out.setdefault(None if v == UNIT_ONE else v, {})[m] = -x
    want = sum_scalars(out)
    for m, x in add.items():
        want[m] = want.get(m, S_ZERO) + x
    want = {m: x for m, x in want.items() if not x.is_zero}
    got = {u: dict(t) for u, t in out.items()}
    before = {u: dict(t) for u, t in us.items()}
    fock._add_units(got, q, us, c)
    assert sum_scalars(got) == want
    assert us == before
    assert UNIT_ONE not in got
    for t in got.values():
        for x in t.values():
            assert not x.is_zero and x.d > 0 and math.gcd(x.a, x.b, x.d) == 1
    for m in cancel:
        assert all(m not in t for t in got.values())
    if q == GR_ONE and (c is None or c.is_one):
        # q = 1 shares the entries it adds to empty places
        for u, t in us.items():
            for m, x in t.items():
                if m not in out.get(u, {}):
                    assert got[u][m] is x


def test_add_units_multiplies_units_with_the_wrapped_sign():
    m = SUM_PARTS[1]
    us = {None: {m: gr(2)}, UNIT_KEYS[2]: {m: GR_ONE}}
    out = {}
    fock._add_units(out, gr(3), us, E("2/3"))
    # E(2/3) E(2/3) = E(4/3) = -E(1/3)
    assert out == {UNIT_KEYS[2]: {m: gr(6)}, UNIT_KEYS[1]: {m: gr(-3)}}
    fock._add_units(out, gr(-3), us, E("2/3"))
    assert not any(out.values())


# States built through public calls only: monomials on two labels, and
# coefficients that are rational or carry units whose E-exponents wrap
# past 1 when multiplied
STATE_MONOS = ([monomial(zero_label(1), p) for p in SUM_PARTS]
               + [monomial(label(["1/3"]), p) for p in ((), ((1, 1),))])
state_coeffs = st.one_of(
    gauss,
    st.lists(st.tuples(st.sampled_from([S_ONE, E("2/3"), E("1/2"), E("3/4"),
                                        lam_pow("1/2"), zeta_pow("-1/3")]),
                       nonzero_gauss), min_size=1, max_size=3)
    .map(lambda ts: sum((u.scale(x) for u, x in ts), S_ZERO)))
state_steps = st.lists(st.tuples(st.sampled_from(["add", "scale", "mode"]),
                                 st.sampled_from(STATE_MONOS), state_coeffs,
                                 st.integers(-2, 2)), max_size=6)


def build_state(steps):
    s = State.zero(1)
    for op, m, c, n in steps:
        if op == "add":
            s = s + State.of(m, coeff=c)
        elif op == "scale":
            s = s.scale(c)
        else:
            s = apply_mode(1, n, s)
    return s


def test_one_trivial_unit_key_in_scalar_and_state():
    # the unit-free part is keyed None in a Scalar, as in a State's unit sums
    for c in (as_scalar(gr("1/2")), E(2), E(-3), E("1/2") * E("3/2"),
              lam_pow(1) * lam_pow(-1)):
        assert set(c.terms) == {None}, c.terms
    assert (E("1/3") * E("1/3").inverse()).terms == {None: GR_ONE}
    m = monomial(label(["1/3"]), ((1, 1),))
    for c in (as_scalar(gr("-2/3")), E("1/2").scale(3) + as_scalar(1),
              lam_pow("1/2") * zeta_pow(-1)):
        assert set(State.of(m, coeff=c).sectors[m.label]) == set(c.terms)


def assert_canonical(s):
    for lab, us in s.sectors.items():
        assert us  # no empty sector slot
        assert UNIT_ONE not in us
        for t in us.values():
            assert t
            for p, x in t.items():
                assert p == tuple(sorted(p))
                assert not x.is_zero and x.d > 0 and math.gcd(x.a, x.b, x.d) == 1


@settings(max_examples=200, deadline=None, database=None)
@given(state_steps, state_steps, state_coeffs)
def test_state_layout_is_canonical(steps1, steps2, c):
    s, t = build_state(steps1), build_state(steps2)
    for x in (s, t, s + t, s - t, (s + t) - t, s.scale(c), s.scale(c) + t):
        assert_canonical(x)
        assert parse_state(format_state(x), 1) == x
    # equality is the comparison of the per-monomial Scalars
    for x, y in ((s, t), ((s + t) - t, s), (s.scale(c) - s.scale(c), State.zero(1))):
        same = dict(x.items_sorted()) == dict(y.items_sorted())
        assert (x == y) == same
        if same:
            assert hash(x) == hash(y)
    assert (s + t) - t == s
    assert s - s == State.zero(1)


def test_states_never_hold_a_kernel_entry():
    # a coefficient-1 state on one monomial shares the kernel's entries,
    # never its dicts; sums and scalings build their own dicts
    m = monomial(label(["1/3"]), ((1, 1),))
    s = State.of(m)
    x, y = apply_mode(1, -1, s), virasoro_mode(-1, s)
    # on the zero sector L(n) reads its entry with no label term added
    y0 = virasoro_mode(-1, State.of(m._replace(label=zero_label(1))))
    entries = [workspace.current().mode[(1, -1, m.parts)],
               workspace.current().virasoro[(-1, 1, m.parts)]]
    before = [dict(e) for e in entries]
    states = [x, y, y0]
    for a in (x, y):
        z = a.scale(E("1/3"))
        states += [z, a + a, a + z, z + a, a - a.scale(2), a.scale(gr(3)),
                   a.scale(E("2/3")).scale(E("4/3")), x + y]
    owners = {}
    for a in states:
        for t in (t for us in a.sectors.values() for t in us.values()):
            assert all(t is not e for e in entries)
            assert owners.setdefault(id(t), a) is a
    assert [dict(e) for e in entries] == before


def test_one_label_free_entry_serves_two_sectors():
    # M(1,alpha) = M(1) (x) e^alpha: the modes a(n), n != 0, and the
    # exponentials Yplus, Yminus act on the oscillator factor alone, and
    # L(n) and u(n) read the label through Li's Delta only, so a second
    # sector with the same parts reuses every mode, vertex and Virasoro
    # entry, and every chain but the Delta chain of its own label
    ws = workspace.fresh()
    parts = ((1, 1), (2, 2))
    avec = label(["1/3", "-1/2"]).alpha
    omega = conformal_vector(2)
    heads = [(State.of(monomial(zero_label(2), ((i, 1),))), i) for i in (1, 2)]

    def check(lab, a2):
        s = State.of(monomial(lab, parts))

        def ket(*terms):
            # the value of items_sorted(): every term stays on the sector lab
            return [(monomial(lab, p), as_scalar(gr(c))) for p, c in terms]

        assert apply_mode(1, -1, s).items_sorted() == ket(
            (((1, 1), (1, 1), (2, 2)), "1"))
        assert apply_mode(2, 2, s).items_sorted() == ket((((1, 1),), "2"))
        assert creation_coeff(avec, 2, s).items_sorted() == ket(
            (((1, 1), (1, 1), (1, 1), (2, 2)), "1/18"),
            (((1, 1), (1, 1), (2, 1), (2, 2)), "-1/6"),
            (((1, 1), (1, 2), (2, 2)), "1/6"),
            (((1, 1), (2, 1), (2, 1), (2, 2)), "1/8"),
            (((1, 1), (2, 2), (2, 2)), "-1/4"))
        assert annihilation_coeff(avec, 2, s).items_sorted() == ket(
            (((1, 1),), "1/2"))
        # the zero mode is the scalar alpha_2 on the sector, with no entry
        mode = len(ws.mode)
        zero_mode = apply_mode(2, 0, s)
        assert zero_mode == s.scale(a2)
        assert zero_mode.items_sorted() == ket((parts, a2))
        assert len(ws.mode) == mode
        # a[i](-1)|0> has the modes a[i](n), zero mode included, and
        # omega(n) = L(n-1); L(0) is the level sum plus lab.lab/2
        for n in range(-2, 3):
            for u, i in heads:
                assert vertex_mode(u, n, s) == apply_mode(i, n, s)
            assert vertex_mode(omega, n + 1, s) == virasoro_mode(n, s)
        assert virasoro_mode(0, s) == s.scale(lab.norm2() / 2 + 3)

    check(label(["1/2", "1/3"]), "1/3")
    sizes = ws.sizes()
    # one creation and one annihilation chain, one Delta chain of the
    # sector label per head monomial, and one mode entry per
    # (color, n, parts) the calls read
    assert (sizes["mode"], sizes["chain"]) == (34, 6)
    check(label(["-1/5", "1/2*i"]), "1/2*i")
    assert ws.sizes() == {**sizes, "chain": sizes["chain"] + 4}
    for table in (ws.mode, ws.chain, ws.vertex, ws.virasoro):
        for key in table:
            assert not any(isinstance(k, (Label, FockMonomial)) for k in key), key
