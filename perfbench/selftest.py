"""Fast self-test of the benchmark at tiny sizes (about half a minute).

Usage: python3 perfbench/selftest.py

Checks that untraced and traced runs emit exactly the metrics that
BENCHMARK.json names, with its units, that the inputs repeat for a seed,
and that a deliberately corrupted interval is counted as a failed op.
"""

import dataclasses
import json
import shutil
import unittest

import benchenv

benchenv.bootstrap()

import harness  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "aircraft_sweep": dict(npoints=200),
    "random_n32": dict(n=6, npoints=200),
    "cli_session": dict(npoints=200),
}


def declared(section: str) -> dict:
    with open(benchenv.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


class CorruptCircle(workloads.AircraftSweep):
    """Widens the circle interval of op 0 past the exact interval."""

    def op(self, i):
        result = super().op(i)
        if i == 0:
            iv = result.intervals["circle"]
            result.intervals["circle"] = dataclasses.replace(iv, upper=2 * iv.upper)
        return result


class SelfTest(unittest.TestCase):
    def setUp(self):
        benchenv.OUT.mkdir(exist_ok=True)
        self.workdir = benchenv.OUT / "selftest"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir()

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def make(self, name, cls=None, seed=0):
        return (cls or workloads.WORKLOADS[name])(seed, self.workdir, **TINY[name])

    def test_untraced_metrics_and_units(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                probes = []
                metrics, detail, tally = harness.measure(
                    self.make(name), 0.0, lambda k: probes.append(k) or 0.5)
                self.assertEqual(probes, list(range(harness.SETUP_PROBES)))
                self.assertEqual(units(metrics), declared("end_to_end"))
                self.assertEqual(tally.failed, 0, tally.problems)
                self.assertEqual(tally.attempted, harness.MIN_OPS)
                self.assertTrue(all(v > 0 for v, _ in metrics.values()), metrics)

    def test_traced_metrics_units_and_repeatable_counts(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                runs = []
                for _ in range(2):
                    w = self.make(name)
                    w.TRACE_OPS = 2
                    runs.append(harness.measure_traced(w, self.workdir / "spans.json"))
                (m1, d1, t1), (m2, _, _) = runs
                self.assertEqual(units(m1), declared("per_layer"))
                self.assertEqual(t1.failed, 0, t1.problems)
                self.assertNotIn("coverage_problem", d1)
                counts = [k for k in m1 if k.endswith((".calls_per_op", ".points"))]
                self.assertEqual([m1[k] for k in counts], [m2[k] for k in counts])

    def test_corrupted_interval_counts_as_failed(self):
        w = self.make("aircraft_sweep", cls=CorruptCircle)
        _, _, tally = harness.measure(w, 0.0, lambda k: 0.5)
        self.assertEqual(tally.failed, 1)
        self.assertEqual(tally.problems[0]["op"], 0)
        self.assertIn("circle upper", tally.problems[0]["problems"][0])

    def test_inputs_repeat_for_a_seed(self):
        a, b, c = (self.make("random_n32", seed=s) for s in (3, 3, 4))
        self.assertTrue((a.models[0].H == b.models[0].H).all())
        self.assertFalse((a.models[0].H == c.models[0].H).all())

    def test_setup_probe(self):
        t = harness.setup_time("aircraft_sweep", 0, self.workdir, 0)
        self.assertTrue(0 < t < 60, t)


if __name__ == "__main__":
    unittest.main()
