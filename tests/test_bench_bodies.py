"""The report bodies of the bench workloads stay byte-identical.

The two gated workloads and ``props-r2``, whose rank-2 form suite is the
one bench case with a nontrivial commutator C(alpha,beta), run through
``cli.main`` at seed 2024; each body (the report without the lines that
start with ``# ``) must hash to the digest recorded in
``bench/reference``.  The per-layer tracer of ``bench/spans.py`` must still find every entry point
it wraps.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heisvoa
from heisvoa import cli, workspace
from heisvoa.fock import Label

BENCH = Path(__file__).resolve().parents[1] / "bench"


def body_sha256(report: Path) -> str:
    lines = report.read_text().split("\n")
    body = "\n".join(ln for ln in lines if not ln.startswith("# "))
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("name", ["lattice-a1", "desk", "props-r2"])
def test_gated_bench_body_matches_its_reference(name, tmp_path):
    ref = json.loads((BENCH / "reference" / f"{name}.json").read_text())
    report = tmp_path / "report.txt"
    status = cli.main(["verify", str(BENCH / "workloads" / f"{name}.json"),
                       "--seed", "2024", "--report", str(report)])
    assert status == ref["seeds"]["2024"]["exit_status"] == 0
    assert body_sha256(report) == ref["seeds"]["2024"]["body_sha256"]
    # Li's Delta carries every sector label, so the Fock kernel tables
    # are keyed on oscillator data alone
    ws = workspace.current()
    for key in list(ws.vertex) + list(ws.virasoro):
        assert not any(isinstance(k, Label) for k in key), key
    if name == "lattice-a1":
        # one label-free entry per (color, n, parts) and per chain
        sizes = workspace.current().sizes()
        assert sizes["mode"] <= 556 and sizes["chain"] <= 174, sizes


def test_tracer_finds_every_entry_point_it_wraps():
    # a child interpreter installs the wrappers, so none leaks into this one
    src = str(Path(heisvoa.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(BENCH), src])}
    code = ("import json, spans; t = spans.Tracer(); t.install(); "
            "print(json.dumps(t.missing))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_only_a_failing_desk_record_keeps_its_two_sides():
    # only a MISMATCH line prints the two sides, so a passing record
    # keeps neither and a run's memory does not grow with its checked count
    results = cli.run_suites(cli.load_scenario(str(BENCH / "workloads" / "desk.json")))
    reps = [rep for cases in results.values() for _, rep in cases]
    held = [r for rep in reps for r in rep.checked
            if r.passed and (r.left is not None or r.right is not None)]
    assert held == []
    xfail = [rep for rep in reps if rep.outcome == "XFAIL"]
    assert len(xfail) == 2
    for rep in xfail:
        assert rep.failures
        for r in rep.failures:
            assert r.left is not None and r.right is not None and r.left != r.right
