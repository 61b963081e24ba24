import pytest

from heisvoa.fock import State, label
from heisvoa.report import CheckRecord, VerificationReport


def test_passing_record_keeps_no_state_and_failing_record_keeps_both():
    left = State.vacuum(1, label(["1/2"]))
    equal = State.vacuum(1, label(["1/2"]))
    other = left.scale(2)
    assert equal == left and equal is not left
    rep = VerificationReport("record")
    assert rep.record((1,), left, equal)
    assert not rep.record((2,), left, other)
    passing, failing = rep.checked
    assert passing.left is None and passing.right is None and passing.passed
    assert failing.left is left and failing.right is other
    lines = rep.to_lines()
    assert lines == [
        "record: FAIL checked=2 failed=1 skipped=0 window=",
        "  coeff (1) ok",
        f"  coeff (2) MISMATCH left={left} right={other}",
    ]
    assert str(left) != str(other)
    assert rep.failures_detail == f"(2): left={left} right={other} "
    assert rep.outcome == "FAIL"


def test_check_record_is_frozen_and_slotted():
    r = CheckRecord((1,), None, None, True)
    assert not hasattr(r, "__dict__")
    with pytest.raises(AttributeError):
        r.passed = False
