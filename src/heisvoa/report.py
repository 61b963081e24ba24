"""Per-coefficient verification records and their aggregate reports."""

from __future__ import annotations

from typing import Any, NamedTuple


class CheckRecord(NamedTuple):
    """One compared coefficient; ``left`` and ``right`` are ``None`` when
    the two sides agreed, since only a mismatch prints them."""

    exponents: tuple
    left: Any
    right: Any
    passed: bool
    note: str = ""

    def key(self) -> str:
        return ",".join(str(e) for e in self.exponents)


class VerificationReport:
    """Outcome of one coefficientwise identity check.

    ``verdict`` is true only when at least one coefficient was compared
    and every comparison passed: an empty checked set can never pass.
    The code that builds a designed failure sets ``expected_failure``.
    """

    __slots__ = ("name", "window_used", "meta", "checked", "skipped",
                 "expected_failure")

    def __init__(self, name: str, window_used: str = "",
                 meta: dict | None = None):
        self.name = name
        self.window_used = window_used
        self.meta = {} if meta is None else meta
        self.checked: list[CheckRecord] = []
        self.skipped: list[tuple] = []
        self.expected_failure = False

    def record(self, exponents: tuple, left, right, note: str = "") -> bool:
        ok = left == right
        if ok:
            left = right = None
        self.checked.append(CheckRecord(tuple(exponents), left, right, ok, note))
        return ok

    def skip(self, exponents: tuple, reason: str) -> None:
        self.skipped.append((tuple(exponents), reason))

    def past_cutoff(self, exponents: tuple, need: int, cutoff: int) -> bool:
        """Skip the coefficient at exponents if it needs level sums past
        the cutoff; every verifier asks before it reads the coefficient."""
        if need <= cutoff:
            return False
        self.skip(exponents, f"needs level sums {need} > cutoff {cutoff}")
        return True

    @property
    def verdict(self) -> bool:
        return bool(self.checked) and all(r.passed for r in self.checked)

    @property
    def failures(self) -> list:
        return [r for r in self.checked if not r.passed]

    @property
    def failures_detail(self) -> str:
        lines = []
        for r in self.failures:
            lines.append(f"({r.key()}): left={r.left} right={r.right} {r.note}")
        return "\n".join(lines)

    @property
    def outcome(self) -> str:
        """PASS/FAIL, XFAIL/XPASS for designed failures, STARVED if vacuous."""
        if not self.checked:
            return "STARVED"
        failed = bool(self.failures)
        if self.expected_failure:
            return "XFAIL" if failed else "XPASS"
        return "FAIL" if failed else "PASS"

    def summary(self) -> str:
        return (f"{self.name}: {self.outcome} checked={len(self.checked)} "
                f"failed={len(self.failures)} skipped={len(self.skipped)} "
                f"window={self.window_used}")

    def to_lines(self) -> list[str]:
        lines = [self.summary()]
        for k in sorted(self.meta):
            lines.append(f"  meta {k} = {self.meta[k]}")
        for r in self.checked:
            if r.passed:
                lines.append(f"  coeff ({r.key()}) ok")
            else:
                lines.append(f"  coeff ({r.key()}) MISMATCH left={r.left} "
                             f"right={r.right}{' ' + r.note if r.note else ''}")
        for exps, reason in self.skipped:
            lines.append("  skip (" + ",".join(str(e) for e in exps) + f") {reason}")
        return lines
