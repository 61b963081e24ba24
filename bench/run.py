"""Cold-CLI benchmark of ``heisvoa verify``.

    python3 bench/run.py --workload desk --seed 2024 --seconds 60 --trace 0
    python3 bench/run.py --workload all
    python3 bench/run.py --workload desk --seed 2024 --record

Closed loop, one client: one ``heisvoa verify`` at a time, each in a
fresh interpreter (``worker.py``), because the program's module caches
outlive a run and a second run in one process would measure cache hits
no CLI user gets.  A new sample is started only while it is expected
to end within ``--seconds`` (the traced sample included), so a run
takes about ``--seconds``; every sample's report is checked against
the stored reference.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of one extra traced run (see ``spans.py``).  ``--record``
writes the reference for the given seed from the current source.  The
lines before the JSON name every metric with its unit, the sample
count, the machine and the source revision.  See ``README.md`` for the
workloads and the predictions they serve.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import metric_names

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
RUN_BUDGET_S = 170.0   # a run must end within 180 s
TRACE_COST = 2.0       # traced verify_s / untraced verify_s, rounded up
CPUS = sorted(os.sched_getaffinity(0))  # before samples are pinned to one

END_TO_END = (("verify_s", "s"), ("checks_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    reference: Path
    default_seed: int


def workload(name: str) -> Workload:
    config = BENCH / "workloads" / f"{name}.json"
    seed = json.loads(config.read_text())["seed"]
    return Workload(name, config, BENCH / "reference" / f"{name}.json", seed)


WORKLOADS = {w.name: w for w in map(workload, ("desk", "lattice-a1", "props-r2"))}


# ---------------------------------------------------------------------------
# reports and references

_CASE_SUMMARY = re.compile(r": (PASS|FAIL|XFAIL|XPASS|STARVED) checked=(\d+) "
                           r"failed=\d+ skipped=(\d+) ")
_TOTAL = re.compile(r"^summary: cases=\d+ checked=(\d+) ", re.M)


def parse_report(text: str) -> dict:
    """Body digest, total checked and one (id, outcome, checked, skipped,
    block digest) row per case of a report."""
    lines = text.split("\n")
    body = "\n".join(ln for ln in lines if not ln.startswith("# "))
    cases = []
    i = 0
    while i < len(lines):
        if lines[i].startswith("suite "):
            j = i
            while j < len(lines) and lines[j]:
                j += 1
            m = _CASE_SUMMARY.search(lines[i + 1]) if i + 1 < j else None
            block = "\n".join(lines[i:j])
            outcome, checked, skipped = ((m.group(1), int(m.group(2)),
                                          int(m.group(3))) if m
                                         else ("UNPARSED", -1, -1))
            cases.append([lines[i][len("suite "):], outcome, checked, skipped,
                          hashlib.sha256(block.encode()).hexdigest()[:16]])
            i = j
        i += 1
    total = _TOTAL.search(text)
    return {"body_sha256": hashlib.sha256(body.encode()).hexdigest(),
            "checked": int(total.group(1)) if total else None,
            "cases": cases}


def load_reference(w: Workload) -> dict:
    if w.reference.exists():
        return json.loads(w.reference.read_text())
    return {"workload": w.name, "seeds": {}}


def judge(ref: dict, seed: int, sample: dict | None,
          report_text: str | None) -> tuple[int, int, list[str]]:
    """(cases attempted, cases failed, problems) of one verify sample.

    With a reference for the seed every case must repeat its outcome,
    checked and skipped counts and report block byte for byte, and the
    exit status and body digest must repeat.  Without one, every case must
    be PASS or XFAIL (not FAIL, XPASS or STARVED) and the designed-failure
    (XFAIL) count must match that of the recorded seeds.
    A crash or an unexpected exit status fails every case.
    """
    known = ref["seeds"].get(str(seed))
    some = known or next(iter(ref["seeds"].values()), None)
    expected_cases = len(some["cases"]) if some else 1
    designed = sum(c[1] == "XFAIL" for c in some["cases"]) if some else 0
    if sample is None or report_text is None:
        return expected_cases, expected_cases, ["run crashed or wrote no report"]
    want_status = known["exit_status"] if known else 0
    if sample["status"] != want_status:
        return expected_cases, expected_cases, [
            f"exit status {sample['status']} != {want_status}"]
    got = parse_report(report_text)
    problems = []
    if known is None:
        bad = [c[0] for c in got["cases"] if c[1] not in ("PASS", "XFAIL")]
        problems += [f"case {c}: bad outcome" for c in bad]
        xfail = sum(c[1] == "XFAIL" for c in got["cases"])
        failed = len(bad)
        if xfail != designed:
            problems.append(f"{xfail} designed failures != {designed}")
            failed += abs(xfail - designed)
        attempted = max(len(got["cases"]), expected_cases)
        # every recorded seed checks the same number of coefficients: hold
        # unrecorded seeds to it, so a faster run cannot mean fewer checks
        totals = {s["checked"] for s in ref["seeds"].values()}
        if len(totals) == 1 and got["checked"] not in totals:
            problems.append(f"checked {got['checked']} != {totals.pop()}")
            failed = attempted
        return attempted, min(failed, attempted), problems
    mine = {c[0]: c for c in got["cases"]}
    failed = 0
    for case in known["cases"]:
        have = mine.get(case[0])
        if have != case:
            failed += 1
            problems.append(f"case {case[0]}: {have} != {case}")
    extra = len(set(mine) - {c[0] for c in known["cases"]})
    if extra:
        problems.append(f"{extra} cases not in the reference")
    attempted = len(known["cases"]) + extra
    failed += extra
    if got["body_sha256"] != known["body_sha256"] and not failed:
        problems.append("report body differs outside the case blocks")
        failed = attempted
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# fresh-interpreter samples

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args: list[str], deadline: float) -> tuple[dict | None, float]:
    """Run worker.py; its JSON result (None on failure) and spawn time."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        print("worker timed out", file=sys.stderr)
        return None, t_spawn
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None, t_spawn
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


def setup_once(w: Workload, seed: int, deadline: float) -> float | None:
    """Interpreter start + ``import heisvoa`` + config load to a Scenario."""
    res, t_spawn = _worker(["setup", str(w.config), str(seed)], deadline)
    return None if res is None else res["ready"] - t_spawn


def verify_once(w: Workload, seed: int, deadline: float, trace: bool = False
                ) -> tuple[dict | None, str | None, float]:
    """One cold ``heisvoa verify``: its result, report text and set-up time."""
    WORK.mkdir(exist_ok=True)
    report = WORK / f"{w.name}-{seed}.txt"
    report.unlink(missing_ok=True)
    args = ["verify", str(w.config), str(seed), str(report)]
    res, t_spawn = _worker(args + (["--trace"] if trace else []), deadline)
    if res is None:
        return None, None, 0.0
    text = report.read_text() if report.exists() else None
    return res, text, res["ready"] - t_spawn


# ---------------------------------------------------------------------------
# runs

def machine() -> dict:
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"host": platform.node(), "machine": platform.machine(),
            "nproc": len(CPUS), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "commit": commit,
            "src_sha256": src.hexdigest()[:16]}


def cpu_median(samples: list[tuple[int, float]]) -> float:
    """Mean over CPUs of the median of each CPU's samples, so that every CPU
    weighs the same however many samples it gave."""
    by_cpu: dict[int, list[float]] = {}
    for cpu, value in samples:
        by_cpu.setdefault(cpu, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_cpu.values())


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop of cold verify samples for about ``seconds``, each
    followed by one set-up-only sample; with ``trace``, one traced sample at
    the end.  At least one untraced sample is always taken."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    ref = load_reference(w)
    setup_once(w, seed, deadline)  # warm-up: byte-compiles the sources
    # (cpu, value) pairs; see cpu_median
    setup, verify_s, rates, rss = [], [], [], []
    attempted = failed = 0
    problems: list[str] = []
    t_loop = time.monotonic()
    while True:
        # the CPUs of a shared host run at speeds that differ and drift for
        # minutes; sample i is pinned to CPU i mod nproc
        cpu = CPUS[len(verify_s) % len(CPUS)]
        os.sched_setaffinity(0, {cpu})
        res, text, t_setup = verify_once(w, seed, deadline)
        a, f, p = judge(ref, seed, res, text)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        if res is None:
            break
        verify_s.append((cpu, res["verify_s"]))
        rates.append((cpu, (parse_report(text)["checked"] or 0)
                      / res["verify_s"] if text else 0.0))
        rss.append((cpu, res["maxrss_kib"] * 1024 / 1e6))
        setup.append((cpu, t_setup))
        if not trace:
            t_setup = setup_once(w, seed, deadline)
            if t_setup is not None:
                setup.append((cpu, t_setup))
        # start another sample only if it is expected to end within
        # ``seconds``; a traced sample takes up to about TRACE_COST untraced ones
        now = time.monotonic()
        left = seconds - (now - t_loop)
        if trace:
            left -= TRACE_COST * cpu_median(verify_s)
        if (now - t_loop) / len(verify_s) > left \
                or now + 1.5 * res["verify_s"] > deadline:
            break
    os.sched_setaffinity(0, CPUS)
    out = {"workload": w.name, "seed": seed, "machine": machine(),
           "samples": len(verify_s), "setup_samples": len(setup),
           "attempted": attempted, "failed": failed, "problems": problems,
           "verify_samples": [v for _, v in verify_s]}
    if verify_s:
        out["e2e"] = {"verify_s": cpu_median(verify_s),
                      "checks_per_s": cpu_median(rates),
                      "setup_s": cpu_median(setup),
                      "peak_rss_mb": cpu_median(rss)}
    if trace and verify_s:
        res, text, _ = verify_once(w, seed, deadline, trace=True)
        a, f, p = judge(ref, seed, res, text)
        out["attempted"] += a
        out["failed"] += f
        out["problems"] += p
        if res is not None and text is not None:
            layers = res["layers"]
            if layers["report.VerificationReport.record.calls"] != \
                    parse_report(text)["checked"]:
                out["failed"] += 1
                out["problems"].append("record calls != checked coefficients")
            layers["trace.verify_s"] = res["verify_s"]
            layers["trace.overhead_s"] = res["verify_s"] - out["e2e"]["verify_s"]
            out["layers"] = layers
            out["missing"] = res["missing"]
    return out


def per_layer_units() -> dict[str, str]:
    units = dict(metric_names())
    units["trace.verify_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def result_json(out: dict, trace: bool) -> dict:
    ok = out["failed"] == 0 and "e2e" in out and (not trace or "layers" in out)
    if trace:
        units = per_layer_units()
        values = out.get("layers", {})
    else:
        units = dict(END_TO_END)
        values = out.get("e2e", {})
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()
               if values.get(k) is not None}
    return {"correct": ok and len(metrics) == len(units),
            "attempted": max(1, out["attempted"]), "failed": out["failed"],
            "metrics": metrics}


def describe(out: dict, trace: bool) -> None:
    m = out["machine"]
    print(f"machine: host={m['host']} arch={m['machine']} nproc={m['nproc']} "
          f"cpu_count={m['cpu_count']} python={m['python']} "
          f"commit={m['commit'] or 'n/a'} src_sha256={m['src_sha256']}")
    print(f"workload {out['workload']} seed {out['seed']}: "
          f"{out['samples']} verify samples on {m['nproc']} CPUs "
          f"(each metric: the median of each CPU's samples, averaged)")
    for name, unit in END_TO_END:
        val = out.get("e2e", {}).get(name)
        if val is not None:
            n = out["setup_samples"] if name == "setup_s" else out["samples"]
            print(f"  {name} = {val:.6g} {unit}  (median, n={n})")
    print("  verify_s samples: "
          + " ".join(f"{v:.3f}" for v in out["verify_samples"]))
    ratio = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print(f"  case_fail_ratio = {ratio:.6g} ratio  "
          f"({out['failed']} of {out['attempted']} cases)")
    for p in out["problems"][:20]:
        print(f"  problem: {p}")
    if trace and "layers" in out:
        units = per_layer_units()
        for name, val in out["layers"].items():
            print(f"  {name} = {val:.6g} {units.get(name, '')}")
        for name in out["missing"]:
            print(f"  entry point not found, reported as 0: {name}")


def record(w: Workload, seed: int) -> None:
    """Store the reference rows of one seed from the current source."""
    res, text, _ = verify_once(w, seed, time.monotonic() + RUN_BUDGET_S)
    if res is None or text is None:
        raise SystemExit("record: the run failed")
    ref = load_reference(w)
    got = parse_report(text)
    ref["seeds"][str(seed)] = {"exit_status": res["status"],
                               "body_sha256": got["body_sha256"],
                               "checked": got["checked"], "cases": got["cases"]}
    ref["recorded_from"] = machine()["commit"]
    ref["seeds"] = dict(sorted(ref["seeds"].items(), key=lambda kv: int(kv[0])))
    w.reference.write_text(json.dumps(ref) + "\n")
    print(f"recorded {w.name} seed {seed}: status {res['status']}, "
          f"{len(got['cases'])} cases, {got['checked']} checked")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="seed passed to heisvoa (default: the config's)")
    ap.add_argument("--seconds", type=float, default=60.0,
                    help="keep taking verify samples this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write the reference for this seed and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "heisvoa" / "cli.py").is_file():
        print(f"no heisvoa source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        w = WORKLOADS[name]
        seed = w.default_seed if args.seed is None else args.seed
        if args.record:
            record(w, seed)
            continue
        out = run_workload(w, seed, args.seconds, bool(args.trace))
        describe(out, bool(args.trace))
        results[name] = result_json(out, bool(args.trace))
    if results:
        print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
