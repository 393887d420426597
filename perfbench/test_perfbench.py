"""Self-tests of the benchmark's own arithmetic and failure accounting.

    python3 -m pytest perfbench      (or: python3 perfbench/test_perfbench.py)
"""

from __future__ import annotations

import math
import pathlib
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import bench  # noqa: E402
from perfbench.stats import modeled_summary, percentile  # noqa: E402
from perfbench.trace import Ledger, SpanTracer  # noqa: E402


def _span(buf, name_id, start, end, parent):
    buf.name.append(name_id)
    buf.parent.append(parent)
    buf.start.append(start)
    buf.end.append(end)
    return len(buf) - 1


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # run [0,10] > step [1,4] > commit_burst [2,3];  run > service [5,9]
        tracer = SpanTracer()
        names = ["core.scheduler.run", "core.threads.core_step", "cpu.commit_burst",
                 "core.manager.service"]
        ids = [tracer._name_id(n) for n in names]
        buf = tracer.buffer()
        run = _span(buf, ids[0], 0.0, 10.0, -1)
        step = _span(buf, ids[1], 1.0, 4.0, run)
        _span(buf, ids[2], 2.0, 3.0, step)
        _span(buf, ids[3], 5.0, 9.0, run)
        ledger = tracer.ledger(buf)
        self.assertEqual(ledger.self_s["core.scheduler.run"], 3.0)
        self.assertEqual(ledger.self_s["core.threads.core_step"], 2.0)
        self.assertEqual(ledger.self_s["cpu.commit_burst"], 1.0)
        self.assertEqual(ledger.self_s["core.manager.service"], 4.0)
        self.assertEqual(ledger.total_s["core.scheduler.run"], 10.0)
        self.assertEqual(ledger.target_model_s, 1.0)
        self.assertEqual(ledger.main_root_s, 10.0)
        # Self times partition the root span.
        self.assertEqual(sum(ledger.self_s.values()), 10.0)

    def test_wrappers_nest_and_uninstall(self):
        tracer = SpanTracer()

        def inner(x):
            return x + 1

        wrapped_inner = tracer.wrap("inner", inner)

        def outer(x):
            return wrapped_inner(x) * 2

        wrapped_outer = tracer.wrap("outer", outer)
        self.assertEqual(wrapped_outer(1), 4)
        self.assertEqual(tracer.span_count(), 0)  # disabled: no spans
        tracer.enabled = True
        wrapped_outer(1)
        buf = tracer.buffer()
        self.assertEqual(len(buf), 2)
        self.assertEqual(buf.parent[0], -1)
        self.assertEqual(buf.parent[1], 0)
        ledger = Ledger.from_buffers(tracer.names, tracer.buffers, buf)
        self.assertLessEqual(ledger.self_s["outer"], ledger.total_s["outer"])

        from repro.core.report import SimulationReport
        from repro.service import protocol

        original = (SimulationReport.__dict__["from_dict"], protocol.spec_to_wire)
        tracer.install([
            ("codec", "repro.core.report", "SimulationReport.from_dict"),
            ("codec", "repro.service.protocol", "spec_to_wire"),
        ])
        self.assertIsNot(SimulationReport.__dict__["from_dict"], original[0])
        self.assertIsNot(protocol.spec_to_wire, original[1])
        tracer.uninstall()
        self.assertIs(SimulationReport.__dict__["from_dict"], original[0])
        self.assertIs(protocol.spec_to_wire, original[1])


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        samples = [float(i) for i in range(1, 101)]
        self.assertEqual(percentile(samples, 90), 90.0)
        with self.assertRaises(ValueError):
            percentile(samples[:99], 90)

    def test_median_needs_no_tail(self):
        self.assertEqual(percentile([3.0, 1.0, 2.0], 50), 2.0)
        with self.assertRaises(ValueError):
            percentile([], 50)


class ModeledSummaryTest(unittest.TestCase):
    def _report(self, benchmark, scheme, cycles, sim_time):
        from repro.core.report import SimulationReport

        return SimulationReport(benchmark=benchmark, scheme=scheme, num_cores=8, seed=1,
                                target_cycles=cycles, cpi=cycles / 500, sim_time_s=sim_time)

    def test_geomean_speedup_and_mean_error(self):
        cc_a = self._report("fft", "cycle-by-cycle", 1000, 8.0)
        cc_b = self._report("ocean", "cycle-by-cycle", 2000, 4.0)
        pairs = [
            (self._report("fft", "slack-16", 1100, 2.0), cc_a),     # 4x, 10%
            (self._report("ocean", "slack-16", 2000, 4.0), cc_b),   # 1x, 0%
            (self._report("fft", "adaptive", 1020, 1.0), cc_a),     # 8x, 2%
        ]
        summary = modeled_summary(pairs)
        self.assertAlmostEqual(summary["modeled_speedup"], (4.0 * 1.0 * 8.0) ** (1 / 3))
        self.assertAlmostEqual(summary["exec_err_pct"], (10.0 + 0.0 + 2.0) / 3)


class CheckpointLayerTest(unittest.TestCase):
    def test_speculative_fractions_and_report_counts(self):
        from repro.core.report import SimulationReport

        capture = SimulationReport(benchmark="fft", scheme="slack-16", num_cores=8, seed=1,
                                   target_cycles=1000, checkpoints=10)
        speculative = SimulationReport(benchmark="fft", scheme="speculative[slack-16]@1000",
                                       num_cores=8, seed=1, target_cycles=600, checkpoints=3,
                                       rollbacks=2, wasted_target_cycles=200,
                                       replay_target_cycles=300)
        layers = bench.simulation_layers(Ledger(), 1, [capture, speculative])
        # The capture-only run neither dilutes nor adds to the fractions.
        self.assertEqual(layers["core.speculative.useful_frac"], 600 / 800)
        self.assertEqual(layers["core.speculative.replay_frac"], 300 / 600)
        self.assertEqual(layers["core.snapshot.takes"], 13)
        self.assertEqual(layers["core.snapshot.restores"], 2)


class FailureAccountingTest(unittest.TestCase):
    def test_forced_digest_mismatch_counts_once_and_run_continues(self):
        from repro.harness.cache import ReportCache, spec_key

        case_id, spec = bench._matrix("radix", "bounded", bench.JOBS_CORES, bench.JOBS_SCALE)
        case = bench.Case(case_id, spec)
        goldens = bench.load_goldens()
        with tempfile.TemporaryDirectory() as tmp:
            checks = bench.Checks(dict(goldens, **{case_id: "0" * 64}))
            op = bench.simulate_request(case, spec_key(spec), ReportCache(pathlib.Path(tmp) / "a"),
                                        checks)
            self.assertEqual((checks.attempted, checks.failed), (1, 1))
            self.assertIn("golden", op.problems[0])
            # The run goes on: the same request against the true golden passes.
            checks.goldens = goldens
            bench.simulate_request(case, spec_key(spec), ReportCache(pathlib.Path(tmp) / "b"),
                                   checks)
            self.assertEqual((checks.attempted, checks.failed), (2, 1))
            self.assertTrue(math.isfinite(op.run_s))
            self.assertGreater(op.miss_s, 0.0)


if __name__ == "__main__":
    unittest.main()
