#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py over canned JSON.

Exercises the failure modes CI actually hits: missing files, truncated JSON,
a bench run missing one series, a zero cores=1 rate on a throttled host, and
both sides of the stable-linking warm-start gate. Each case pins the exit code
(0 pass / 1 regression / 2 unreadable input) and the shape of the message.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "tools", "bench_compare.py")


def run(*argv):
    return subprocess.run([sys.executable, SCRIPT, *argv],
                          capture_output=True, text=True)


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, payload):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            if isinstance(payload, str):
                f.write(payload)
            else:
                json.dump(payload, f)
        return path

    def smp_json(self, rows, num_cpus=8):
        return {"context": {"num_cpus": num_cpus},
                "benchmarks": [{"name": n, "items_per_second": r}
                               for n, r in rows]}

    # --- unreadable input is exit 2, not a crash or a fake regression ---

    def test_missing_file_is_exit_2(self):
        p = run("--smp-scaling", os.path.join(self._dir.name, "nope.json"))
        self.assertEqual(p.returncode, 2, p.stderr)
        self.assertIn("cannot read", p.stderr)

    def test_truncated_json_is_exit_2(self):
        path = self.write("torn.json", '{"benchmarks": [{"na')
        p = run("--smp-scaling", path)
        self.assertEqual(p.returncode, 2, p.stderr)
        self.assertIn("not valid JSON", p.stderr)

    def test_missing_baseline_in_compare_mode_is_exit_2(self):
        current = self.write("current.json", {"benchmarks": []})
        p = run(os.path.join(self._dir.name, "nope.json"), current)
        self.assertEqual(p.returncode, 2, p.stderr)

    # --- --smp-scaling series/zero handling (used to KeyError/ZeroDivide) ---

    def test_missing_cores4_series_names_the_series(self):
        path = self.write("smp.json", self.smp_json([("BM_SmpScaling/1", 5e6)]))
        p = run("--smp-scaling", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("cores=4", p.stderr)
        self.assertNotIn("cores=1 ", p.stderr)

    def test_missing_both_series_names_both(self):
        path = self.write("smp.json", self.smp_json([("BM_Other/1", 5e6)]))
        p = run("--smp-scaling", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("cores=1", p.stderr)
        self.assertIn("cores=4", p.stderr)

    def test_zero_cores1_rate_is_a_clear_failure(self):
        path = self.write("smp.json", self.smp_json(
            [("BM_SmpScaling/1", 0.0), ("BM_SmpScaling/4", 2e7)]))
        p = run("--smp-scaling", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("cores=1 throughput is 0", p.stderr)

    def test_good_scaling_passes(self):
        path = self.write("smp.json", self.smp_json(
            [("BM_SmpScaling/1", 1e7), ("BM_SmpScaling/4", 3e7)]))
        p = run("--smp-scaling", path)
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("3.00x", p.stdout)

    def test_single_cpu_host_records_but_does_not_gate(self):
        path = self.write("smp.json", self.smp_json(
            [("BM_SmpScaling/1", 1e7), ("BM_SmpScaling/4", 1e7)], num_cpus=1))
        p = run("--smp-scaling", path)
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("not gated", p.stdout)

    # --- baseline compare: speedup rows gate on their median over repetitions ---

    def interp_json(self, interp_runs, jit_runs, jit_compiled=2):
        """A bench_interp export: one counter row plus both speedup families,
        each repetition row followed by the library's aggregate rows."""
        rows = [{"name": "BM_TightArith", "run_name": "BM_TightArith",
                 "run_type": "iteration", "tlb_hits": 100.0, "jit_compiled": 2.0}]
        for name, runs, compiled in (("BM_InterpSpeedup", interp_runs, 0),
                                     ("BM_JitSpeedup", jit_runs, jit_compiled)):
            run_name = f"{name}/repeats:{len(runs)}"
            for speedup in runs:
                rows.append({"name": run_name, "run_name": run_name,
                             "run_type": "iteration", "speedup": speedup,
                             "jit_compiled": compiled})
            ordered = sorted(runs)
            for aggregate, value, jit in (
                    ("median", ordered[len(ordered) // 2], compiled),
                    ("cv", 0.05, float("nan"))):  # cv of an all-zero counter
                rows.append({"name": f"{run_name}_{aggregate}", "run_name": run_name,
                             "run_type": "aggregate", "aggregate_name": aggregate,
                             "speedup": value, "jit_compiled": jit})
        return {"benchmarks": rows}

    def compare(self, current):
        baseline = self.write("base.json", self.interp_json(
            [3.3, 3.3, 3.3], [20.0, 20.0, 20.0]))
        return run(baseline, self.write("cur.json", current))

    def test_one_slow_repetition_does_not_fail_the_median(self):
        p = self.compare(self.interp_json([2.8, 3.4, 3.5], [22.0, 21.0, 5.0]))
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("current=3.40x (median of 3, spread 2.80x-3.50x)", p.stdout)
        self.assertIn("current=21.00x (median of 3, spread 5.00x-22.00x)", p.stdout)

    def test_median_below_the_floor_fails(self):
        p = self.compare(self.interp_json([2.9, 2.95, 3.6], [20.0, 20.0, 20.0]))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("BM_InterpSpeedup speedup 2.95x below floor 3.00x", p.stderr)

    def test_median_below_the_baseline_tolerance_fails(self):
        p = self.compare(self.interp_json([3.3, 3.3, 3.3], [15.0, 15.5, 30.0]))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("BM_JitSpeedup speedup 15.50x below floor 16.00x", p.stderr)

    def test_run_without_repetitions_fails_clearly(self):
        current = {"benchmarks": [
            {"name": "BM_TightArith", "run_type": "iteration", "tlb_hits": 100.0,
             "jit_compiled": 2.0},
            {"name": "BM_InterpSpeedup", "run_type": "iteration", "speedup": 3.5},
            {"name": "BM_JitSpeedup", "run_type": "iteration", "speedup": 25.0,
             "jit_compiled": 2}]}
        p = self.compare(current)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("median aggregate missing", p.stderr)

    def test_jit_gate_skips_a_host_without_compiled_blocks(self):
        p = self.compare(self.interp_json([3.3, 3.3, 3.3], [2.0, 2.0, 2.0],
                                          jit_compiled=0))
        self.assertIn("skip BM_JitSpeedup.speedup", p.stdout)
        self.assertNotIn("BM_JitSpeedup speedup", p.stderr)

    # --- --manifest-warm gate ---

    def manifest_json(self, **row):
        return {"benchmarks": [{"name": "BM_ManifestWarmStart", **row}]}

    def test_warm_within_ceiling_passes(self):
        path = self.write("m.json", self.manifest_json(
            cold_ns=1e6, warm_ns=5e4, manifest_hits=3))
        p = run("--manifest-warm", path)
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_warm_above_ceiling_fails(self):
        path = self.write("m.json", self.manifest_json(
            cold_ns=1e6, warm_ns=5e5, manifest_hits=3))
        p = run("--manifest-warm", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("exceeds", p.stderr)

    def test_warm_run_without_hits_fails(self):
        path = self.write("m.json", self.manifest_json(
            cold_ns=1e6, warm_ns=5e4, manifest_hits=0))
        p = run("--manifest-warm", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("manifest_hits=0", p.stderr)

    def test_missing_row_fails_clearly(self):
        path = self.write("m.json", {"benchmarks": []})
        p = run("--manifest-warm", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("row missing", p.stderr)

    def test_zero_cold_fails_clearly(self):
        path = self.write("m.json", self.manifest_json(
            cold_ns=0, warm_ns=0, manifest_hits=1))
        p = run("--manifest-warm", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("cold_ns is 0", p.stderr)

    # --- --remote gate ---

    def remote_json(self, **row):
        return {"benchmarks": [{"name": "BM_RemoteSegmentAccess/manual_time",
                                **row}]}

    def test_cached_within_ceiling_passes(self):
        path = self.write("r.json", self.remote_json(
            local_ns=1e5, cold_ns=5e6, cached_ns=1.1e5, pages_fetched=64))
        p = run("--remote", path)
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_cached_above_ceiling_fails(self):
        path = self.write("r.json", self.remote_json(
            local_ns=1e5, cold_ns=5e6, cached_ns=2e5, pages_fetched=64))
        p = run("--remote", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("exceeds", p.stderr)

    def test_cold_pass_without_fetches_fails(self):
        path = self.write("r.json", self.remote_json(
            local_ns=1e5, cold_ns=5e6, cached_ns=1e5, pages_fetched=0))
        p = run("--remote", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("pages_fetched=0", p.stderr)

    def test_missing_remote_row_fails_clearly(self):
        path = self.write("r.json", {"benchmarks": []})
        p = run("--remote", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("row missing", p.stderr)


if __name__ == "__main__":
    unittest.main()
