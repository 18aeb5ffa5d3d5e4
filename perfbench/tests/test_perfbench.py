"""Self-tests of the benchmark: the traced pass observes without changing
anything, its spans account for the whole pass, its counts repeat, and the
output gate and the negative controls catch what they must.

    python3 -m pytest perfbench/tests      (or: python3 -m unittest discover perfbench/tests)
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402

WORKLOAD = "gl-trace-ladder"
SEED = 0


class TracedPassTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.pkg = run.load_engine()
        cls.pinned = json.loads(run.EXPECTED.read_text())
        cls.configs = run.workload_configs(WORKLOAD, SEED)
        _, reports = run.run_pass(cls.pkg, cls.configs, SEED)
        cls.untraced = [run.outcome(r) for r in reports]
        cls.traced = []
        tracer = Tracer()
        for _ in range(2):
            tracer.reset()
            tracer.install()
            try:
                seconds, reports = run.run_pass(cls.pkg, cls.configs, SEED, tracer)
            finally:
                tracer.uninstall()
            cls.traced.append({
                "run_s": sum(seconds),
                "outcomes": [run.outcome(r) for r in reports],
                "spans": list(tracer.spans),
                "self_times": tracer.self_times(),
                "counts": dict(tracer.counts),
                "metrics": tracer.layer_metrics(),
            })

    def test_untraced_pass_matches_the_pins(self):
        ledger = run.Ledger()
        ledger.check_pass(self.configs, self.untraced, self.pinned)
        self.assertEqual(ledger.failures, [])

    def test_traced_forms_digest_equals_untraced(self):
        for traced in self.traced:
            self.assertEqual([o["forms_sha256"] for o in traced["outcomes"]],
                             [o["forms_sha256"] for o in self.untraced])

    def test_no_span_has_negative_self_time(self):
        for traced in self.traced:
            self.assertTrue(traced["spans"])
            self.assertGreaterEqual(min(traced["self_times"]), 0.0)

    def test_self_times_add_up_to_traced_run_s(self):
        # cli.driver_self_s is the self time of the cli.run spans, so it is
        # part of this sum; what is left is the benchmark's loop between
        # configs.
        for traced in self.traced:
            total = sum(traced["self_times"])
            self.assertLessEqual(total, traced["run_s"])
            self.assertLess(traced["run_s"] - total, 0.01 * traced["run_s"])

    def test_every_span_belongs_to_a_config(self):
        for traced in self.traced:
            ids = {span[4] for span in traced["spans"]}
            self.assertEqual(ids, set(range(len(self.configs))))

    def test_counts_repeat_exactly_across_traced_passes(self):
        first, second = self.traced
        self.assertEqual(first["counts"], second["counts"])
        for name, (unit, _, _) in LAYER_METRICS.items():
            if unit != "s":
                self.assertEqual(first["metrics"][name], second["metrics"][name], name)

    def test_every_layer_metric_is_reported(self):
        metrics = self.traced[0]["metrics"]
        self.assertEqual(set(metrics), set(LAYER_METRICS))
        for name in ("algebra.derivation_calls", "algebra.scalar_mul_calls",
                     "algebra.mono_mul_calls", "invariants.evaluate_calls",
                     "transgression.tp_terms"):
            self.assertGreater(metrics[name], 0, name)

    def test_uninstall_restores_the_originals(self):
        cli, algebra = self.pkg.cli, self.pkg.algebra
        for func in (cli.run, cli.tp_integral, cli.validate, algebra.mono_mul,
                     self.pkg.transgression.evaluate, self.pkg.weil.bracket,
                     algebra.Derivation.__call__, algebra.Scalar.__mul__):
            self.assertFalse(hasattr(func, "__wrapped__"), func)


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.pkg = run.load_engine()
        cls.pinned = json.loads(run.EXPECTED.read_text())

    def test_negative_controls_fail_as_pinned(self):
        ledger = run.Ledger()
        run.run_controls(self.pkg, SEED, self.pinned, ledger)
        self.assertEqual(ledger.attempted, len(run.CONTROLS))
        self.assertEqual(ledger.failures, [])

    def test_a_changed_form_is_a_mismatch(self):
        label = "so8/so7 pfaffian integral,johnson,chern"
        pinned = self.pinned["configs"][label]
        got = dict(pinned, forms_sha256="0" * 64)
        self.assertEqual(run.config_mismatch(pinned, pinned), "")
        self.assertIn("forms_sha256", run.config_mismatch(pinned, got))

    def test_a_control_that_passes_is_a_mismatch(self):
        pinned = self.pinned["controls"][run.CONTROLS[0].label]
        passed = {"verdict": "pass", "failing": [], "gate_witness": ""}
        self.assertEqual(run.control_mismatch(pinned, passed), "the control passed")

    def test_every_workload_config_is_pinned(self):
        for configs in run.WORKLOADS.values():
            for config in configs:
                self.assertIn(config.label, self.pinned["configs"])
        for config in run.CONTROLS:
            self.assertIn(config.label, self.pinned["controls"])


class WithoutSourcesTest(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH_DIR, Path(tmp) / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", WORKLOAD,
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
