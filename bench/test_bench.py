"""Smoke test of the benchmark itself, on a tiny heisenberg-only workload.

    python3 -m unittest bench/test_bench.py      (a few seconds)

Checks that every metric is printed by name and unit, that the JSON
result carries exactly the metrics BENCHMARK.json declares, that an
altered reference makes case_fail_ratio non-zero, and that the
benchmark refuses to run without the program's source.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _smoke_workload() -> run.Workload:
    run.WORK.mkdir(exist_ok=True)
    config = run.WORK / "smoke.json"
    config.write_text(json.dumps({"rank": 1, "max_weight": 2, "seed": 7,
                                  "suites": ["heisenberg"]}))
    reference = run.WORK / "smoke-reference.json"
    reference.unlink(missing_ok=True)
    return run.Workload("smoke", config, reference, 7)


def _run(w: run.Workload, seed: int, trace: bool) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out = run.run_workload(w, seed, 0, trace)
        run.describe(out, trace)
    return run.result_json(out, trace), buf.getvalue()


def _ratio(text: str) -> float:
    line = next(ln for ln in text.splitlines() if "case_fail_ratio =" in ln)
    return float(line.split("=")[1].split()[0])


class BenchSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.w = _smoke_workload()
        with contextlib.redirect_stdout(io.StringIO()):
            run.record(cls.w, 7)

    def test_end_to_end_metrics_named_and_correct(self):
        res, text = _run(self.w, 7, trace=False)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]),
                         {m["name"] for m in DECLARED["end_to_end"]})
        for m in DECLARED["end_to_end"]:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
            self.assertIn(f"{m['name']} = ", text)
            self.assertGreater(res["metrics"][m["name"]]["value"], 0)
        self.assertEqual(_ratio(text), 0.0)
        self.assertIn("nproc=", text)
        self.assertIn("python=", text)

    def test_traced_run_reports_every_layer_metric(self):
        res, text = _run(self.w, 7, trace=True)
        self.assertTrue(res["correct"], text)
        declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()},
                         declared)
        self.assertGreater(res["metrics"]["fock.apply_mode.calls"]["value"], 0)
        self.assertEqual(res["metrics"]["cli.suite_heisenberg.calls"]["value"], 1)
        for name in declared:
            self.assertIn(f"{name} = ", text)

    def test_altered_reference_fails_cases(self):
        ref = json.loads(self.w.reference.read_text())
        case = ref["seeds"]["7"]["cases"][0]
        case[2] += 1  # pretend the reference checked one more coefficient
        altered = run.Workload("smoke", self.w.config,
                               run.WORK / "smoke-altered.json", 7)
        altered.reference.write_text(json.dumps(ref))
        res, text = _run(altered, 7, trace=False)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertGreater(_ratio(text), 0.0)

    def test_unrecorded_seed_gets_the_outcome_check(self):
        res, text = _run(self.w, 8, trace=False)
        self.assertTrue(res["correct"], text)
        self.assertEqual(_ratio(text), 0.0)

    def test_refuses_to_run_without_the_source(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *DECLARED["command"][1:], "--workload", "desk",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
