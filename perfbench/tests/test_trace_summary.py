#!/usr/bin/env python3
"""Unit tests of perfbench/trace_summary.py on hand-built Chrome traces.

Run: python3 perfbench/tests/test_trace_summary.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))

import trace_summary  # noqa: E402


def span(tid, name, ts, dur, cat="bench"):
    return {"name": name, "cat": cat, "ph": "X", "pid": 1, "tid": tid,
            "ts": ts, "dur": dur}


def write_trace(events, one_per_line=True):
    """Writes `events` as a Chrome trace file and returns its path."""
    f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
    meta = {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
            "args": {"name": "odnet"}}
    if one_per_line:
        # The layout telemetry::WriteChromeTrace produces.
        f.write('{"displayTimeUnit": "ns", "traceEvents": [\n')
        f.write(",\n".join(json.dumps(e) for e in [meta] + events))
        f.write("\n]}\n")
    else:
        json.dump({"traceEvents": [meta] + events}, f)
    f.close()
    return f.name


class SelfTimeTest(unittest.TestCase):
    def table(self, events, **kwargs):
        path = write_trace(events)
        try:
            spans = trace_summary.load_spans(path)
        finally:
            os.unlink(path)
        return trace_summary.aggregate(
            spans, trace_summary.self_times(spans), **kwargs)

    def test_nested_spans_subtract_direct_children_only(self):
        t = self.table([
            span(1, "root", 0.0, 100.0),
            span(1, "child", 10.0, 50.0),
            span(1, "grandchild", 20.0, 30.0),
            span(1, "child", 70.0, 20.0),
        ])
        self.assertAlmostEqual(t["root"]["self_us"], 30.0)
        self.assertAlmostEqual(t["root"]["total_us"], 100.0)
        self.assertAlmostEqual(t["child"]["self_us"], 20.0 + 20.0)
        self.assertEqual(t["child"]["count"], 2)
        self.assertAlmostEqual(t["grandchild"]["self_us"], 30.0)

    def test_spans_on_other_threads_never_nest(self):
        t = self.table([
            span(1, "request", 0.0, 100.0),
            span(2, "pool_task", 10.0, 40.0),
            span(3, "pool_task", 20.0, 40.0),
            span(2, "op", 15.0, 10.0),
        ])
        self.assertAlmostEqual(t["request"]["self_us"], 100.0)
        self.assertAlmostEqual(t["pool_task"]["self_us"], 30.0 + 40.0)
        self.assertAlmostEqual(t["op"]["self_us"], 10.0)

    def test_zero_length_spans(self):
        t = self.table([
            span(1, "parent", 0.0, 10.0),
            span(1, "empty", 0.0, 0.0),     # at the parent's start: inside
            span(1, "empty", 5.0, 0.0),     # inside
            span(1, "child", 5.0, 5.0),     # ends with the parent
            span(1, "empty", 10.0, 0.0),    # at the parent's end: outside
            span(1, "next", 10.0, 4.0),
        ])
        self.assertAlmostEqual(t["parent"]["self_us"], 5.0)
        self.assertAlmostEqual(t["empty"]["self_us"], 0.0)
        self.assertEqual(t["empty"]["count"], 3)
        self.assertAlmostEqual(t["child"]["self_us"], 5.0)
        self.assertAlmostEqual(t["next"]["self_us"], 4.0)

    def test_rounding_at_the_parent_end_still_nests(self):
        # Start and duration round independently to 1 ns, so a child may
        # appear to end a nanosecond after its parent.
        t = self.table([
            span(1, "parent", 1.000, 9.000),
            span(1, "child", 5.000, 5.001),
        ])
        self.assertAlmostEqual(t["parent"]["self_us"], 4.0, places=2)

    def test_window_and_category_filters(self):
        events = [
            span(1, "MatMul", 0.0, 5.0, cat="tensor"),
            span(1, "MatMul", 10.0, 5.0, cat="plan.node"),
            span(1, "MatMul", 30.0, 5.0, cat="tensor"),
            span(1, "bench.x", 12.0, 1.0),
        ]
        t = self.table(events, window=(5.0, 20.0),
                       categories=trace_summary.OP_CATEGORIES)
        self.assertEqual(list(t), ["MatMul"])
        self.assertEqual(t["MatMul"]["count"], 1)

    def test_compact_json_layout_parses_too(self):
        path = write_trace([span(1, "a", 0.0, 2.0)], one_per_line=False)
        try:
            spans = trace_summary.load_spans(path)
        finally:
            os.unlink(path)
        self.assertEqual(spans, [(1, "a", "bench", 0.0, 2.0)])


class SummarizeTest(unittest.TestCase):
    def test_registry_deltas_and_per_unit_division(self):
        events = [
            # Workload window [100, 200): two requests' worth of ops.
            span(5, "MatMul", 110.0, 10.0, cat="plan.node"),
            span(5, "MatMul", 150.0, 30.0, cat="plan.node"),
            span(5, "Softmax", 155.0, 4.0, cat="tensor"),
            span(5, "Fused[Mul+Add]", 185.0, 6.0, cat="plan.node"),
            span(5, "Fused[Add+Relu]", 192.0, 2.0, cat="plan.node"),
            # Probes after the window.
            span(1, "serving.recall.RecallFor", 300.0, 20.0),
            span(1, "serving.recall.RecallFor", 330.0, 40.0),
            span(1, "serving.rank.ScoreCandidates", 400.0, 100.0),
            span(1, "MatMul", 410.0, 50.0, cat="tensor"),
            span(1, "optim.Adam.Step", 600.0, 8.0),
        ]
        path = write_trace(events)
        before = {"counters": {"serving.router.cache.hits": 10,
                               "serving.router.cache.misses": 10,
                               "threadpool.tasks": 100}}
        after = {"counters": {"serving.router.cache.hits": 13,
                              "serving.router.cache.misses": 11,
                              "threadpool.tasks": 150},
                 "histograms": {"serving.router.queue_wait_ns":
                                {"p99": 2500}}}
        facts = {"window_start_us": 100, "window_end_us": 200, "units": 2,
                 "unit": "request", "probe_rows": 10,
                 "stage_probe_candidates": 4, "repeat_mismatch_ratio": 0.5,
                 "probe_train_steps": 1, "untraced_ms_per_unit": 2.0,
                 "traced_ms_per_unit": 2.5}
        try:
            m = trace_summary.summarize(path, before, after, facts)
        finally:
            os.unlink(path)
        self.assertAlmostEqual(m["serving.router.recall_cache_hit_ratio"],
                               0.75)
        self.assertAlmostEqual(m["serving.router.queue_wait_p99_us"], 2.5)
        self.assertAlmostEqual(m["util.threadpool.tasks_per_request"], 25.0)
        self.assertEqual(m["util.threadpool.tasks_per_step"], 0.0)
        self.assertAlmostEqual(m["tensor.op.MatMul.self_us_per_request"],
                               (10.0 + 26.0) / 2)
        self.assertAlmostEqual(m["tensor.op.MatMul.calls_per_request"], 1.0)
        self.assertAlmostEqual(m["tensor.op.Softmax.self_us_per_request"],
                               2.0)
        self.assertAlmostEqual(m["tensor.op.Fused.self_us_per_request"],
                               (6.0 + 2.0) / 2)
        self.assertAlmostEqual(m["serving.recall.us_per_request"], 30.0)
        self.assertAlmostEqual(m["serving.rank.score_us_per_candidate"],
                               25.0)
        self.assertAlmostEqual(m["optim.adam_step_us"], 8.0)
        self.assertAlmostEqual(m["trace.overhead_ms_per_unit"], 0.5)
        self.assertAlmostEqual(m["trace.overhead_ratio"], 0.25)
        self.assertEqual(m["serving.repeat_mismatch_ratio"], 0.5)


if __name__ == "__main__":
    unittest.main()
