"""Reference implementations that the tests compare the engine against.

None of these is read by the engine or the CLI; each one recomputes a
quantity that ``heisvoa`` reaches another way, so a test can pin the
engine to an independent derivation:

* ``conformal_vector``: omega, whose vertex modes must equal the
  Virasoro modes;
* ``parse_state`` and ``parse_scalar``: the inverse of the report's text
  format for states and scalars;
* ``standard_cocycle``: the trivial cocycle of the intertwiner and
  Jacobi tests;
* ``delta_dress``: Li's Delta(beta,z) as (exponent, state) pairs, a
  second implementation of the dressing that ``IntertwinerOp`` reads;
* ``coeff_product``: the naive product coefficient of two intertwiners;
* ``dlm_vertex_defining``: the defining composition of the DLM operator;
* ``gram_pairing``: the lattice pairing m1^T G m2 from the integer Gram
  matrix, which the engine reads as the dot product of embedded labels.

``tests/`` has no ``__init__.py``, so pytest puts this directory on
``sys.path`` and the tests import it as ``oracles``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from heisvoa.fock import (
    Label,
    Sectors,
    State,
    _accumulate,
    _levels,
    _mode_chain,
    label,
    monomial,
    translate_label,
    zero_label,
)
from heisvoa.intertwiner import (
    CocycleSystem,
    IntertwinerOp,
    annihilation_coeff,
    creation_coeff,
)
from heisvoa.lattice import IntegralLattice, lattice_cocycle
from heisvoa.scalars import (
    GR_ONE,
    GR_ZERO,
    GaussRat,
    S_ONE,
    S_ZERO,
    Scalar,
    as_gauss,
    as_scalar,
    branch_phase,
)
from heisvoa.series import exponent_index


# ---------------------------------------------------------------------------
# Fock states


def conformal_vector(rank: int) -> State:
    """omega = (1/2) sum_i a[i](-1)^2 |0>."""
    out = State.zero(rank)
    for i in range(1, rank + 1):
        out = out + State.of(monomial(zero_label(rank), ((i, 1), (i, 1))),
                             coeff=as_scalar(Fraction(1, 2)))
    return out


# ---------------------------------------------------------------------------
# text format: sum of terms "c * a[i,-k]a[i,-k]...|g1,g2,...>"


_PART_RE = re.compile(r"a\[(\d+),(-\d+)\]")


def parse_state(text: str, rank: int) -> State:
    text = text.strip()
    if text == "0":
        return State.zero(rank)
    out = State.zero(rank)
    for term in _split_top_terms(text):
        coeff = S_ONE
        body = term.strip()
        if body.startswith("("):
            depth, idx = 0, 0
            for idx, ch in enumerate(body):
                depth += ch == "("
                depth -= ch == ")"
                if depth == 0:
                    break
            coeff = parse_scalar(body[1:idx])
            body = body[idx + 1:].strip()
            if body.startswith("*"):
                body = body[1:].strip()
        if "|" not in body or not body.endswith(">"):
            raise ValueError(f"malformed state term: {term!r}")
        parts_text, ket = body.split("|", 1)
        parts = [(int(i), -int(k)) for i, k in _PART_RE.findall(parts_text)]
        consumed = "".join(f"a[{i},{-k}]" for i, k in parts)
        if consumed != parts_text.strip():
            raise ValueError(f"malformed creation parts: {parts_text!r}")
        lab_vals = ket[:-1].split(",") if ket[:-1] else []
        lab = label([GaussRat.parse(v) for v in lab_vals])
        if lab.rank != rank:
            raise ValueError(f"label rank {lab.rank} != {rank}")
        out = out + State.of(monomial(lab, parts), coeff=coeff)
    return out


def _split_top_terms(text: str) -> list[str]:
    out, depth, cur = [], 0, []
    i = 0
    while i < len(text):
        ch = text[i]
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and text[i:i + 3] == " + ":
            out.append("".join(cur))
            cur = []
            i += 3
            continue
        cur.append(ch)
        i += 1
    if cur:
        out.append("".join(cur))
    return out


def parse_scalar(text: str) -> Scalar:
    """Inverse of Scalar.__str__ (used by the state parser)."""
    out = S_ZERO
    for piece in _split_terms(text):
        coeff = GR_ONE
        e_exp = lam_exp = zeta_exp = GR_ZERO
        for factor in _split_factors(piece):
            f = factor.strip()
            if f.startswith("E(") and f.endswith(")"):
                e_exp = e_exp + GaussRat.parse(f[2:-1])
            elif f.startswith("lam^"):
                lam_exp = lam_exp + GaussRat.parse(f[4:].strip("()"))
            elif f.startswith("zeta^"):
                zeta_exp = zeta_exp + GaussRat.parse(f[5:].strip("()"))
            else:
                coeff = coeff * GaussRat.parse(f.strip("()"))
        out = out + Scalar.from_unit(e_exp, lam_exp, zeta_exp, coeff)
    return out


def _split_terms(text: str) -> list[str]:
    return [t for t in text.replace(" + ", "\x00").split("\x00") if t.strip()]


def _split_factors(term: str) -> list[str]:
    # complex coefficients are always parenthesized, so a '*' at paren
    # depth zero is a factor separator
    out, depth, cur = [], 0, []
    for ch in term:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


# ---------------------------------------------------------------------------
# intertwiners


def standard_cocycle(rank: int) -> CocycleSystem:
    zero = tuple((GR_ZERO,) * rank for _ in range(rank))
    return CocycleSystem(rank, zero, zero)


def delta_dress(beta: Label, s: State) -> list[tuple[GaussRat, State]]:
    """Delta(beta,z)s = z^(beta(0)) Yplus(beta,-z)s as a finite list of
    (exponent, state) pairs in ascending exponent order.

    Monomials of s must give offsets beta.mu in one coset; otherwise a
    CosetError asks the caller to split per coset first.
    """
    base: GaussRat | None = None
    coeffs: dict[int, Sectors] = {}
    bvec = beta.alpha
    for lab, us in s.sectors.items():
        off = beta.dot(lab)
        if base is None:
            base = off
        shift = exponent_index(base, off)
        for u, t in us.items():
            for p, q in t.items():
                chain = _mode_chain(bvec, 1, p, _levels(p))
                for k, terms in enumerate(chain):
                    _accumulate(coeffs.setdefault(shift - k, {}).setdefault(lab, {})
                                .setdefault(u, {}), -q if k % 2 else q, terms)
    out = []
    for n in sorted(coeffs):
        st = State(s.rank, coeffs[n])
        if not st.is_zero:
            out.append((base + n, st))
    return out


def coeff_product(x: State, y: State, s: State, cocycle: CocycleSystem,
                  b, c) -> State:
    """The exact coefficient of z1^b z2^c in Y(x,z1) Y(y,z2) s, both
    intertwiners reading the one cocycle.

    Each fixed exponent pair selects exactly one mode composition; the
    exponents must sit in the cosets dictated by the three labels.
    """
    op1 = IntertwinerOp(x, cocycle)
    op2 = IntertwinerOp(y, cocycle)
    return op1.coefficient(op2.coefficient(s, as_gauss(c)), as_gauss(b))


# ---------------------------------------------------------------------------
# lattice twists


def dlm_vertex_defining(lat: IntegralLattice, alpha: Label, x: State,
                        sector: Label, target: State, exponent,
                        n_branch: int = 1, variant: str = "delta") -> State:
    """One coefficient of the defining composition of the operator (used
    as an oracle for the closed form):

        psi_(-a-b) Yminus(a,z) Y(psi_a Delta(b,z) x, z) D(z) psi_b target

    with D(z) = Delta(a,-z) for the delta variant (branch phases resolve
    the (-z)^(a(0)) powers) and D(z) = Yplus(a,z) z^(a(0)) for the hat
    variant; psi denotes the bare label shift.
    """
    cs = lattice_cocycle(lat)
    beta = sector
    exponent = as_gauss(exponent)
    rank = target.rank
    avec = alpha.alpha
    lab_x = x.single_label()
    # heads: psi_a Delta(b,z) x as (exponent, state) pairs
    heads = [(exp, IntertwinerOp(translate_label(st, -alpha), cs))
             for exp, st in delta_dress(beta, x)]
    out = State.zero(rank)
    t0 = translate_label(target, -beta)
    for tm, tc in t0.items_sorted():
        base = State.of(tm, coeff=tc)
        eig = alpha.dot(tm.label)
        # Delta(a,-z) = (-z)^(a(0)) Yplus(a,z); the hat variant drops the
        # branch phase by using z^(a(0)) instead of (-z)^(a(0))
        d_scale = branch_phase(eig, n_branch) if variant == "delta" else S_ONE
        n_rel = exponent_index(lab_x.dot(tm.label + beta), exponent)
        km_max = x.max_levels() + tm.levels_sum + n_rel
        for k in range(tm.levels_sum + 1):
            dressed = annihilation_coeff(avec, k, base)
            if dressed.is_zero:
                continue
            d_exp = eig - k
            for h_exp, op in heads:
                for km in range(0, km_max + 1):
                    inner = op.coefficient(dressed, exponent - d_exp - h_exp - km)
                    if inner.is_zero:
                        continue
                    lifted = creation_coeff(avec, km, inner)
                    out = out + translate_label(lifted, alpha + beta).scale(d_scale)
    return out


# ---------------------------------------------------------------------------
# lattices


def gram_pairing(lat: IntegralLattice, m1, m2) -> int:
    """m1^T G m2 for integer coordinate vectors, from the Gram matrix alone."""
    return sum(int(a) * lat.gram[i][j] * int(b)
               for i, a in enumerate(m1) for j, b in enumerate(m2))
