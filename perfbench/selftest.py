"""Tests of the benchmark itself, kept apart from the package's test suite.
Run from the root of a checkout (about two minutes):

    PYTHONPATH=src python3 perfbench/selftest.py
"""

import json
import os
import random
import unittest

import answers
import passes
import run
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
PKG = workloads.load_package()


def make(name, seed=0):
    os.makedirs(OUT, exist_ok=True)
    return workloads.WORKLOADS[name](PKG, random.Random(seed), OUT)


def traced_pass(work):
    trace = tracer.Tracer()
    trace.install(PKG, boundary_only=work.workers > 1)
    try:
        attempted, failures = work.run_pass()
    finally:
        trace.uninstall()
    return trace.layer_metrics(work.reports, work.workers), attempted, failures


class TracedCounts(unittest.TestCase):
    """Two traced passes of each workload, in different orders."""

    @classmethod
    def setUpClass(cls):
        cls.metrics = {}
        for name in workloads.NAMES:
            runs = [traced_pass(make(name, seed)) for seed in (1, 2)]
            for _, attempted, failures in runs:
                assert attempted > 0 and not failures, (name, failures)
            cls.metrics[name] = [m for m, _, _ in runs]

    def test_counts_repeat_exactly(self):
        counts = [n for n, unit, _ in tracer.per_layer_metrics() if unit == "count"]
        for name, (first, second) in self.metrics.items():
            for key in counts:
                self.assertEqual(first[key], second[key], (name, key))

    def test_m3_chi_calls(self):
        self.assertEqual(self.metrics["suite-serial"][0]["moduli.m3_chi.calls"], 15)
        self.assertEqual(self.metrics["rank3-deep"][0]["moduli.m3_chi.calls"], 1)

    def test_no_unit_inverse_in_poly_sweep(self):
        self.assertEqual(self.metrics["poly-sweep"][0]["series.motive.unit_pairs"], 0)
        self.assertGreater(self.metrics["rank3-deep"][0]["series.motive.unit_pairs"], 0)

    def test_parallel_traces_only_the_boundary(self):
        m = self.metrics["suite-parallel"][0]
        self.assertEqual(m["series.coeff.mul_calls"], 0)
        self.assertGreater(m["cli.worker_busy_share"], 0)


class PlantedAnswers(unittest.TestCase):
    """A wrong known answer must show as a failed operation."""

    def failed_share(self, work):
        _, _, attempted, failures = passes.run_passes(work, 0, 1)
        return len(failures) / attempted

    def test_correct_answers_pass(self):
        work = make("suite-serial")
        work.ops = ["var-rank2", "symmpro"]
        self.assertEqual(self.failed_share(work), 0)

    def test_wrong_verdict(self):
        work = make("suite-serial")
        work.ops = ["var-rank2", "symmpro"]
        saved = answers.FLAGGED
        answers.FLAGGED = frozenset()
        try:
            self.assertEqual(self.failed_share(work), 3 / 6)
        finally:
            answers.FLAGGED = saved

    def test_wrong_digest(self):
        work = make("rank3-deep")
        work.ops = ["m3_var"]
        saved = answers.RANK3_DIGESTS["m3_var"]
        answers.RANK3_DIGESTS["m3_var"] = "0" * 64
        try:
            self.assertEqual(self.failed_share(work), 1)
        finally:
            answers.RANK3_DIGESTS["m3_var"] = saved

    def test_wrong_realization(self):
        work = make("poly-sweep")
        work.ops = [("sym", 3, 2), ("sym", 4, 2)]
        work.want[(3, 2)] = (answers.macdonald_poincare(2, 2), work.want[(3, 2)][1])
        self.assertEqual(self.failed_share(work), 1 / 2)


class Oracles(unittest.TestCase):
    def test_macdonald_matches_small_cases(self):
        # [C_1] is the curve: 1 + 2g t + t^2, and u,v each g times
        self.assertEqual(answers.macdonald_poincare(3, 1), {0: 1, 1: 6, 2: 1})
        self.assertEqual(answers.macdonald_hodge(2, 1),
                         {(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 1})

    def test_suite_has_52_reports(self):
        self.assertEqual(len(answers.suite_tasks(answers.SUITE_CHECKS)), 52)
        self.assertEqual(len(make("poly-sweep").ops), 286)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         tracer.per_layer_metrics())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.NAMES))


if __name__ == "__main__":
    unittest.main()
