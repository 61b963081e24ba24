import pytest

from heisvoa.report import VerificationReport


@pytest.fixture
def compared(monkeypatch):
    """The (exponents, left, right) of every ``VerificationReport.record``
    call, in call order; a passing record keeps neither side, so tests
    read the compared values here.  The wrapped method still records."""
    seen = []
    record = VerificationReport.record

    def spy(self, exponents, left, right, note=""):
        seen.append((tuple(exponents), left, right))
        return record(self, exponents, left, right, note)

    monkeypatch.setattr(VerificationReport, "record", spy)
    return seen
