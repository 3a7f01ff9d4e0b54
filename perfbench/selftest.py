"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the repository root.  They cover the p90 sample rule, the
self-time arithmetic of the tracer (nested, recursive and generator
spans, on a toy package with a fake clock), the reference checks
catching tampered expected values, and the count identity check.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import types
import unittest

import run
import spans
from workloads import WORKLOADS, Census, CliSession, Extremal

sys.path.insert(0, str(run.ROOT / "src"))
REF = json.loads((run.HERE / "reference.json").read_text())

TOY_ALPHA = """
def outer():
    tick(1)
    beta.inner()
    tick(3)

def rec(depth):
    tick(1)
    if depth:
        rec(depth - 1)

def consume():
    for _ in beta.gen():
        tick(10)
"""

TOY_BETA = """
def inner():
    tick(2)

def gen():
    for i in range(2):
        tick(5)
        yield i
    tick(7)
"""


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def tick(self, ns: int) -> None:
        self.now += ns


def toy_package(clock: FakeClock):
    """A package ``toy`` with layers ``alpha`` and ``beta`` whose
    functions advance the fake clock by fixed amounts."""
    pkg = types.ModuleType("toy")
    beta = types.ModuleType("toy.beta")
    alpha = types.ModuleType("toy.alpha")
    beta.tick = alpha.tick = clock.tick
    alpha.beta = beta
    exec(TOY_BETA, beta.__dict__)
    exec(TOY_ALPHA, alpha.__dict__)
    sys.modules.update({"toy": pkg, "toy.alpha": alpha, "toy.beta": beta})
    return pkg, alpha


class TracerArithmetic(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.pkg, self.alpha = toy_package(self.clock)
        self.tracer = spans.Tracer(clock=self.clock)
        self.tracer.install(self.pkg, layers=("alpha", "beta"))

    def tearDown(self):
        self.tracer.uninstall()
        for name in ("toy", "toy.alpha", "toy.beta"):
            sys.modules.pop(name, None)

    def traced(self, fn, *args):
        root = self.tracer.open(self.tracer.name_id(spans.BENCH + ".job"))
        fn(*args)
        self.clock.tick(100)  # harness time inside the job
        self.tracer.close(root)
        return self.tracer.analyse()

    def test_nested(self):
        a = self.traced(self.alpha.outer)
        self.assertEqual(a["self_ns"]["alpha"], 4)
        self.assertEqual(a["self_ns"]["beta"], 2)
        self.assertEqual(a["incl_ns"]["alpha.outer"], 6)
        self.assertEqual(a["under_ns"][("alpha", "beta")], 2)
        self.assertEqual(a["self_ns"][spans.BENCH], 100)

    def test_recursive(self):
        a = self.traced(self.alpha.rec, 2)
        self.assertEqual(a["calls"]["alpha.rec"], 3)
        self.assertEqual(a["self_ns"]["alpha"], 3)
        # inclusive time adds nested calls of one function: 3 + 2 + 1
        self.assertEqual(a["incl_ns"]["alpha.rec"], 6)

    def test_generator_resumptions(self):
        a = self.traced(self.alpha.consume)
        # three resumptions (two yields, then exhaustion); the consumer's
        # work between them stays with alpha
        self.assertEqual(a["calls"]["beta.gen"], 3)
        self.assertEqual(a["self_ns"]["beta"], 17)
        self.assertEqual(a["self_ns"]["alpha"], 20)
        c = self.tracer.counters
        self.assertEqual((c["beta.gen.calls"], c["beta.gen.yields"], c["beta.gen.first_ns"]),
                         (1, 2, 5))

    def test_self_times_cover_the_root(self):
        a = self.traced(self.alpha.outer)
        self.assertEqual(sum(a["self_ns"].values()), self.tracer.end[0] - self.tracer.start[0])

    def test_uninstall_restores(self):
        self.tracer.uninstall()
        self.alpha.outer()
        self.assertEqual(self.tracer.span_count(), 0)


class P90Rule(unittest.TestCase):
    def test_rejects_fewer_than_100_jobs(self):
        with self.assertRaises(ValueError):
            run.job_percentiles([0.001] * 99)
        p50, p90 = run.job_percentiles([i * 1e-3 for i in range(1, 101)])
        self.assertAlmostEqual(p50, 50.5)
        self.assertGreater(p90, 89)

    def test_every_workload_has_100_jobs(self):
        for workload in WORKLOADS.values():
            api, inputs, _ = run.set_up(workload, 0, REF)
            self.assertGreaterEqual(len(workload.jobs(api, inputs)), 100, workload.name)


class ReferenceCheck(unittest.TestCase):
    def answers(self, workload, count):
        api, inputs, _ = run.set_up(workload, 0, REF)
        jobs = workload.jobs(api, inputs)
        return inputs, [jobs[i]() for i in range(count)]

    def assert_tamper_caught(self, workload, count, tamper):
        inputs, answers = self.answers(workload, count)
        self.assertEqual(workload.check(inputs, REF, answers), [])
        bad_ref = copy.deepcopy(REF)
        tamper(bad_ref)
        self.assertNotEqual(workload.check(inputs, bad_ref, answers), [])

    def test_extremal_maximum(self):
        def tamper(ref):
            ref["extremal"]["x+y+z=0 F_3^1 not-all-equal"] += 1
        # the first job solves the first grid problem
        self.assert_tamper_caught(Extremal, 1, tamper)

    def test_census_omega(self):
        def tamper(ref):
            entry = ref["census"]["x+y+z=0 F_3^1"]
            entry["omega"] = "9" + entry["omega"][1:]
        # the first group, x+y+z=0 over F_3^1, has two tuples
        self.assert_tamper_caught(Census, 2, tamper)

    def test_cli_digest(self):
        api, inputs, _ = run.set_up(CliSession, 0, REF)
        tpl = inputs.commands[0][0]

        def tamper(ref):
            ref["cli"][tpl]["sha256"] = "0" * 64
        self.assert_tamper_caught(CliSession, 1, tamper)


class CountIdentity(unittest.TestCase):
    def test_changed_count_is_flagged(self):
        path = run.OUT / "selftest" / "counts.json"
        shutil.rmtree(path.parent, ignore_errors=True)
        try:
            tally = run.Tally()
            run.compare_counts({"search.nodes": 10}, path, tally)
            run.compare_counts({"search.nodes": 10}, path, tally)
            self.assertEqual(tally.failed, 0)
            run.compare_counts({"search.nodes": 11}, path, tally)
            self.assertEqual(tally.failed, 1)
        finally:
            shutil.rmtree(path.parent, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
