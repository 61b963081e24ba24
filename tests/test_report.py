from heisvoa.fock import State, label
from heisvoa.report import VerificationReport


def test_passing_record_keeps_one_state_and_failing_record_keeps_both():
    left = State.vacuum(1, label(["1/2"]))
    equal = State.vacuum(1, label(["1/2"]))
    other = left.scale(2)
    assert equal == left and equal is not left
    rep = VerificationReport("record")
    assert rep.record((1,), left, equal)
    assert not rep.record((2,), left, other)
    passing, failing = rep.checked
    assert passing.right is passing.left is left
    assert failing.left is left and failing.right is other
    lines = rep.to_lines()
    assert "  coeff (1) ok" in lines
    mismatch = [ln for ln in lines if "MISMATCH" in ln]
    assert mismatch == [f"  coeff (2) MISMATCH left={left} right={other}"]
    assert str(left) != str(other)
    assert rep.outcome == "FAIL"
