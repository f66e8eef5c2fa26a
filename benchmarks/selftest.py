"""Self-tests of the benchmark: seeded inputs, gates and tracing.

Run from the repository root (about half a minute; it runs one untraced
and one traced unit of every workload, plus the serial emit reference):

    python3 benchmarks/selftest.py

The file name keeps pytest's default collection away from it, so the
repository's own test suite is unchanged.
"""

import copy
import json
import os
import random
import shutil
import sys
import tempfile
import unittest
from time import perf_counter

import gates
import run
import workloads

SEED = 3


def _inputs_bytes(workload, seed):
    return json.dumps(workloads.make_inputs(workload, seed), sort_keys=True)


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(_inputs_bytes(workload, 11), _inputs_bytes(workload, 11))

    def test_other_seed_gives_other_inputs(self):
        # graph_sweep is exhaustive: its seed is accepted and unused
        for workload in ("subset_sweep", "exact_check", "emit_parallel"):
            self.assertNotEqual(_inputs_bytes(workload, 11), _inputs_bytes(workload, 12))

    def test_encoder_agrees_with_the_program(self):
        sys.path.insert(0, run.SRC)
        from qbounds.graphs import Graph, to_graph6

        rng = random.Random(0)
        for n in range(1, 32):
            edges = workloads.random_connected(rng, n, density=0.4)
            self.assertEqual(workloads.graph6(n, edges), to_graph6(Graph(n, edges)))

    def test_expected_counts(self):
        self.assertEqual(workloads.connected_count(3, 6), 27474)
        # K3 plus 3 + 4 + 5 + 6 labeled stars
        self.assertEqual(len(workloads.main_q1q2_witnesses(3, 6)), 19)

    def test_tail_has_ten_samples_beyond_it(self):
        samples = list(range(100))
        value, pct = run.tail(samples)
        self.assertEqual(sum(s > value for s in samples), 10)
        self.assertEqual(pct, 90.0)
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (2.0, 50.0))


class UnitsAndGates(unittest.TestCase):
    """Real units of every workload, then doctored copies of their outputs."""

    @classmethod
    def setUpClass(cls):
        scratch = os.path.join(run.ROOT, ".bench_work")
        os.makedirs(scratch, exist_ok=True)
        cls.workdir = tempfile.mkdtemp(dir=scratch)
        runner = run.Runner(cls.workdir, perf_counter() + 600)
        cls.runs = {}
        for workload in workloads.WORKLOADS:
            subdir = os.path.join(cls.workdir, workload)
            os.mkdir(subdir)
            inputs = workloads.make_inputs(workload, SEED)
            job = run.make_job(inputs, subdir)
            plain = runner.unit(job)
            traced = runner.unit(dict(job, trace=True, workers=1, char_poly=False))
            reference = None
            if workload == "emit_parallel":
                reference = runner.unit(dict(job, workers=1))
            cls.runs[workload] = (workloads.expectations(inputs), plain, traced, reference)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def assess(self, workload, out):
        expect, _, _, reference = self.runs[workload]
        return gates.assess(workload, out, expect, reference)

    def assert_caught(self, workload, doctor):
        out = copy.deepcopy(self.runs[workload][1])
        doctor(out)
        outcome = self.assess(workload, out)
        self.assertTrue(outcome.problems, "%s: doctored output passed" % workload)
        self.assertGreater(outcome.failed, 0)

    def test_real_outputs_pass_every_gate(self):
        for workload, (_, plain, traced, _) in self.runs.items():
            for out in (plain, traced):
                outcome = self.assess(workload, out)
                self.assertEqual(outcome.problems, [], workload)
                self.assertEqual(outcome.failed, 0, workload)
                self.assertGreater(outcome.instances, 0, workload)

    def test_traced_and_untraced_outputs_are_identical(self):
        for workload, (_, plain, traced, _) in self.runs.items():
            self.assertTrue(run.same_output(workload, plain, traced), workload)

    def test_traced_layers(self):
        graph = self.runs["graph_sweep"][2]["layers"]
        exact = self.runs["exact_check"][2]["layers"]
        subset = self.runs["subset_sweep"][2]["layers"]
        self.assertEqual(graph["linalg.exact_calls"], 0)
        self.assertGreater(exact["linalg.exact_calls"], 0)
        self.assertGreater(subset["spectra.cache_hit_ratio"], graph["spectra.cache_hit_ratio"])
        self.assertGreater(graph["graphs.calls"], 0)
        self.assertGreater(subset["partitions.calls"], 0)
        self.assertGreater(exact["families.calls"], 0)

    def test_doctored_graph_sweep_fails(self):
        def report_edit(edit):
            def doctor(out):
                report = json.loads(out["report"])
                edit(report)
                out["report"] = json.dumps(report)
            return doctor

        def add_violation(report):
            report["violations"]["main_q1q2"].append({"input": "Bw"})

        def add_witness(report):
            report["equality_witnesses"]["l_sum2"].append("Bw")

        for edit in (
            lambda r: r["corpus"].update(graphs=r["corpus"]["graphs"] - 1),
            add_violation,
            lambda r: r["equality_witnesses"]["main_q1q2"].pop(),
            add_witness,
        ):
            self.assert_caught("graph_sweep", report_edit(edit))

    def test_doctored_subset_sweep_fails(self):
        def lose_pair(out):
            report = json.loads(out["report"])
            report["totals"]["gm_qanalog:refined"]["holds"] -= 1
            out["report"] = json.dumps(report)

        def add_violation(out):
            report = json.loads(out["report"])
            report["truncation"]["violations"]["t1_sandwich:safe"] = 1
            out["report"] = json.dumps(report)

        self.assert_caught("subset_sweep", lose_pair)
        self.assert_caught("subset_sweep", add_violation)

    def test_doctored_exact_check_fails(self):
        def first(kind):
            def pick(out):
                return next(r for r in out["requests"] if r["kind"] == kind)
            return pick

        def edit_tie(edit):
            def doctor(out):
                record = first("tie")(out)
                payload = json.loads(record["out"])
                edit(payload["certificates"][0])
                record["out"] = json.dumps(payload)
            return doctor

        self.assert_caught("exact_check", edit_tie(lambda c: c.update(verdict="holds")))
        self.assert_caught("exact_check", edit_tie(lambda c: c["notes"].pop("exact")))
        self.assert_caught("exact_check", lambda out: first("control")(out).update(rc=1))
        self.assert_caught("exact_check", lambda out: first("family")(out).update(rc=2))
        self.assert_caught("exact_check", lambda out: first("control")(out).update(out=""))

    def test_doctored_emit_parallel_fails(self):
        def edit_report(out):
            report = json.loads(out["report"])
            report["totals"]["main_q1q2"]["holds"] += 1
            out["report"] = json.dumps(report, sort_keys=True, indent=2) + "\n"

        self.assert_caught("emit_parallel", lambda out: out.update(csv_rows=out["csv_rows"] - 1))
        self.assert_caught("emit_parallel", lambda out: out.update(csv_sha256="0" * 64))
        self.assert_caught("emit_parallel", lambda out: out.update(report=out["report"] + " "))
        self.assert_caught("emit_parallel", edit_report)
        self.assert_caught("emit_parallel", lambda out: out.update(rc=1))
        self.assert_caught("emit_parallel", lambda out: out.update(report="Traceback"))


if __name__ == "__main__":
    unittest.main()
