"""The cutoff is a budget: no verifier builds a state past it.

Every Fock state, mode chain and half-kernel a verifier builds comes out
of one of the kernel entry points below.  Wrapped in every module that
binds them, they note the largest level sum of what they return, and a
run at a cutoff must stay within it.
"""

import inspect

import pytest

from heisvoa import cli, fock, form, intertwiner, jacobi, lattice, workspace
from heisvoa.fock import State, apply_mode, label, monomial, zero_label
from heisvoa.form import AdjointIntertwinerOp, verify_invariance
from heisvoa.intertwiner import (
    IntertwinerOp,
    verify_creativity,
    verify_e_conjugation,
    verify_translation,
)
from heisvoa.jacobi import (
    verify_associativity,
    verify_commutator,
    verify_locality,
    verify_normal_order,
)
from heisvoa.lattice import (
    DlmOp,
    TwistedVertexOp,
    integral_lattice,
    verify_li_equivalence,
)
from heisvoa.report import VerificationReport
from oracles import standard_cocycle

KERNELS = ("vertex_mode", "_half_kernel", "_mode_chain", "exp_virasoro_coeffs",
           "_ypm_coeff")

BUDGETED = ("intertwiner-props", "jacobi", "skew", "form", "lattice-twist",
            "dlm", "locality")


def _level(x) -> int:
    """The largest level sum of a State, a parts-keyed term dict or a list
    of either (a chain or a half-kernel)."""
    if isinstance(x, list):
        return max((_level(v) for v in x), default=0)
    if isinstance(x, dict):
        return max((fock._levels(p) for p in x), default=0)
    return x.max_levels()


@pytest.fixture
def built(monkeypatch):
    """The level sums of every kernel output, in call order."""
    levels = []
    for name in KERNELS:
        original = getattr(fock, name, None) or getattr(intertwiner, name)

        def measured(*args, _fn=original, **kwargs):
            out = _fn(*args, **kwargs)
            levels.append(_level(out))
            return out

        hit = 0
        for module in (fock, intertwiner, jacobi, lattice, form):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, measured)
                hit += 1
        assert hit, name
    return levels


@pytest.mark.parametrize("cutoff", [3, 4])
@pytest.mark.parametrize("suite", BUDGETED)
def test_no_suite_builds_past_its_cutoff(built, suite, cutoff):
    scn = cli.Scenario.from_dict({
        "suites": [suite], "window": 2, "cutoff": cutoff, "gram": [[2]],
        "heads": [[], [[1, -1]]], "pairs": 1, "max_weight": 2})
    results = cli.run_suites(scn)
    reps = [rep for cases in results.values() for _, rep in cases]
    assert any(rep.checked for rep in reps)
    assert built and max(built) <= cutoff


# one library case per verifier that neither CUT_CONJ (test_intertwiner.py)
# nor the three-term and skew tests cut, each at a cutoff that cuts inside
# its window:
# (verify(cutoff), cutoff, the keys past it, the largest level sum built);
# at UNCUT, above every need of these windows, nothing is skipped
UNCUT = 16
_CS = standard_cocycle(1)
_U = State.of(monomial(zero_label(1), ((1, 1),)))  # a(-1)|0>
_HEAD = apply_mode(1, -1, State.vacuum(1, label(["1/2"])))
_W = State.vacuum(1, label(["1/2"]))
_S = apply_mode(1, -1, State.vacuum(1, label(["1/3"])))  # a(-1)|1/3>
_LAT = integral_lattice([[2]])
_ALPHA = _LAT.label_of(["1/2"])
_X = apply_mode(1, -1, State.vacuum(_LAT.heis_rank, _LAT.label_of([1])))

CUT_SITES = {
    "translation": (lambda c: verify_translation(
        _HEAD, _S, _CS, radius=3, cutoff=c), 3, ["7/6", "13/6", "19/6"], 3),
    "creativity": (lambda c: verify_creativity(
        apply_mode(1, -1, _HEAD), _CS, cutoff=c), 1, ["0"], 0),
    "e_conjugation": (lambda c: verify_e_conjugation(
        _HEAD, label(["1/3"]), _S, _CS, radius=3, cutoff=c,
        report=VerificationReport("e_conjugation")), 3, ["7/3", "10/3"], 3),
    "li_equivalence": (lambda c: verify_li_equivalence(
        _LAT, _ALPHA, _X, apply_mode(1, -1, State.vacuum(_LAT.heis_rank)),
        radius=3, cutoff=c), 3, ["3", "4"], 3),
    "commutator": (lambda c: verify_commutator(
        _U, _W, -1, _S, _CS, radius=3, cutoff=c), 3, ["13/6", "19/6"], 3),
    "normal_order": (lambda c: verify_normal_order(
        _U, _W, _S, _CS, radius=3, cutoff=c), 3, ["13/6", "19/6"], 3),
    "associativity": (lambda c: verify_associativity(
        _U, _W, _S, _CS, 2, radius=2, cutoff=c), 3, ["2,13/6"], 3),
    # a kept coefficient at z1^2 builds u(-3)s, of level sum 4, and reads
    # Y(w) on it at relative exponent -1: the need counts the read alone
    "locality": (lambda c: verify_locality(_U, _W, _S, _CS, 1, radius=2, cutoff=c),
                 3, ["1,13/6", "2,7/6", "2,13/6"], 4),
    "invariance": (lambda c: verify_invariance(
        _W, State.vacuum(1, label(["1/3"])),
        apply_mode(1, -2, State.vacuum(1, label(["-5/6"]))), _CS, 1, radius=2,
        cutoff=c), 2, ["-23/6", "-17/6", "-11/6", "-5/6"], 2),
}


@pytest.mark.parametrize("name", CUT_SITES)
def test_cut_sites_skip_exactly_the_coefficients_past_the_cutoff(
        monkeypatch, built, compared, name):
    verify, cutoff, past, top = CUT_SITES[name]
    whole = verify(UNCUT)
    assert whole.verdict and not whole.skipped
    uncut = {e: (left, right) for e, left, right in compared}
    # a fresh workspace, so the cut run reads back no memo of the uncut one
    monkeypatch.setattr(workspace, "_current", workspace.Workspace())
    built.clear()
    compared.clear()
    rep = verify(cutoff)
    assert [",".join(map(str, e)) for e, _ in rep.skipped] == past
    assert all(why.endswith(f" > cutoff {cutoff}") for _, why in rep.skipped)
    assert rep.verdict
    assert len(rep.checked) + len(rep.skipped) == len(whole.checked)
    assert all(uncut[e] == (left, right) for e, left, right in compared)
    assert max(built) == top


def test_no_operator_takes_a_cutoff():
    ops = (IntertwinerOp, AdjointIntertwinerOp, TwistedVertexOp, DlmOp)
    for op in ops:
        assert "cutoff" not in inspect.signature(op).parameters, op
    # a stale positional cutoff fails at the call, not as a label
    with pytest.raises(TypeError):
        IntertwinerOp(_HEAD, _CS, 6)
