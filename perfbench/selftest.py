"""Self-tests of the benchmark's own logic.

    python3 perfbench/selftest.py

Run from the root of a checkout.  The oracle tests run one real
operation per workload, confirm it passes, then inject a wrong answer
and confirm the oracle reports it.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402

run.use_checkout_sources()


class TailPercentileRule(unittest.TestCase):
    def test_percentile_for_operation_count(self):
        self.assertEqual(harness.tail_percentile(100), 90.0)
        self.assertEqual(harness.tail_percentile(1000), 99.0)
        self.assertEqual(harness.tail_percentile(40), 75.0)
        self.assertEqual(harness.tail_percentile(11), 100.0 / 11)
        self.assertIsNone(harness.tail_percentile(10))

    def test_value_has_ten_operations_beyond_it(self):
        durations = [float(v) for v in range(100, 0, -1)]
        value = harness.tail_value(durations)
        self.assertEqual(value, 90.0)
        self.assertEqual(sum(d > value for d in durations), harness.TAIL_BEYOND)
        self.assertEqual(harness.tail_value([3.0, 1.0, 2.0]), 3.0)


class SelfTime(unittest.TestCase):
    def test_union_of_children_is_subtracted_once(self):
        tracer = harness.Tracer()
        parent = tracer.add_span("op", 0, 100, parent=-1)
        tracer.add_span("a", 10, 30, parent=parent)
        tracer.add_span("b", 20, 50, parent=parent)  # overlaps a
        tracer.add_span("c", 90, 120, parent=parent)  # runs past the parent's end
        tracer.add_span("d", 40, 45, parent=1)  # grandchild: not the parent's child
        self.assertEqual(tracer.self_times_ms("op"), [50 / 1e6])
        self.assertEqual(tracer.self_times_ms("a"), [20 / 1e6])

    def test_children_longer_than_parent_are_counted(self):
        tracer = harness.Tracer()
        parent = tracer.add_span("op", 0, 10, parent=-1)
        tracer.add_span("a", 0, 6, parent=parent)
        tracer.add_span("b", 4, 10, parent=parent)
        self.assertEqual(tracer.child_overruns(), 1)

    def test_nested_spans_never_overrun(self):
        tracer = harness.Tracer()
        with tracer.span("op"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        self.assertEqual(tracer.child_overruns(), 0)
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0, 2])


def _one_op(module, index: int):
    state = module.setup(7, harness.NullTracer())
    case = module.make_input(state, index)
    return state, case, module.run_op(state, case, harness.NullTracer())


class OperationMix(unittest.TestCase):
    def test_encode_equiv_cycle_holds_every_pair_once(self):
        import encode_equiv

        state = encode_equiv.State(7, None, {}, {})  # make_input reads only the seed
        kinds = [encode_equiv.kind(encode_equiv.make_input(state, i)) for i in range(encode_equiv.CYCLE)]
        self.assertEqual(len(set(kinds)), encode_equiv.CYCLE)


class OracleCatchesWrongAnswers(unittest.TestCase):
    def test_encode_equiv(self):
        import encode_equiv

        state, case, (geo, ws) = _one_op(encode_equiv, 0)  # index 0 is a translate
        self.assertIsNotNone(case.g)
        self.assertIsNone(encode_equiv.check(state, case, (geo, ws)))
        flipped = dataclasses.replace(geo, equivalent=False)
        self.assertIsNotNone(encode_equiv.check(state, case, (flipped, ws)))
        wrong_word = dataclasses.replace(ws, witness_word=geo.witness_word.inverse() * geo.witness_word.inverse())
        self.assertIsNotNone(encode_equiv.check(state, case, (geo, wrong_word)))
        other_map = dataclasses.replace(geo, witness_map=geo.witness_map.inverse())
        self.assertIsNotNone(encode_equiv.check(state, case, (other_map, ws)))

    def test_pick_feasibility(self):
        import pick_feasibility

        state, case, (b_ok, values, report) = _one_op(pick_feasibility, 1)
        self.assertFalse(case.feasible)
        self.assertIsNone(pick_feasibility.check(state, case, (b_ok, values, report)))
        flipped = dataclasses.replace(report, is_psd=not report.is_psd)
        self.assertIsNotNone(pick_feasibility.check(state, case, (b_ok, values, flipped)))
        off = [dataclasses.replace(values[0], value=values[0].value + 1e-6)] + values[1:]
        self.assertIsNotNone(pick_feasibility.check(state, case, (b_ok, off, report)))
        self.assertIsNotNone(pick_feasibility.check(state, case, (False, values, report)))

    def test_cli_oneshot(self):
        import cli_oneshot

        state, cmd, proc = _one_op(cli_oneshot, 4)  # index 4 is encode-test on a translate
        self.assertIsNone(cli_oneshot.check(state, cmd, proc))
        payload = json.loads(proc.stdout)
        payload["geometric"]["equivalent"] = False
        tampered = subprocess.CompletedProcess(proc.args, proc.returncode, json.dumps(payload).encode(), proc.stderr)
        self.assertIsNotNone(cli_oneshot.check(state, cmd, tampered))
        wrong_code = subprocess.CompletedProcess(proc.args, 1, proc.stdout, proc.stderr)
        self.assertIsNotNone(cli_oneshot.check(state, cmd, wrong_code))

    def test_orbit_csv_row_count(self):
        import cli_oneshot

        expected = ["e", "a"]
        text = "word,length,re,im,one_minus_abs\ne,0,0.0,0.0,1.0\na,1,0.5,0.0,0.5\n"
        self.assertIn("rows", cli_oneshot._check_orbit_csv(text, expected))


class SpecConsistency(unittest.TestCase):
    def test_every_workload_metric_is_declared(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        declared = {m["name"] for m in spec["per_layer"]}
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))
        for module_name in run.WORKLOADS.values():
            module = __import__(module_name)
            self.assertLessEqual(set(module.layer_metrics(harness.Tracer())), declared, module_name)


if __name__ == "__main__":
    unittest.main()
