#!/usr/bin/env python3
"""Per-layer summary of a traced odnet_bench run.

Turns the Chrome trace the program writes (telemetry::WriteChromeTrace) into
per-span self time -- a span's duration minus the part of it covered by its
child spans on the same thread -- and turns the telemetry registry snapshots
taken around the traced phase into the per-layer metrics that
BENCHMARK.json lists (perfbench/design.json says what each should move).

Usage (prints every span name with its count, total and self time):

  python3 perfbench/trace_summary.py trace.json

perfbench/run.py imports summarize() for the traced benchmark runs.
"""

import argparse
import json
import sys
from collections import defaultdict

# Span ts/dur are microseconds printed at ns resolution (%.3f); start and
# duration round independently, so nested end times may disagree by 1-2 ns.
EPS_US = 0.002

# Categories of tensor-op spans: eager dispatch ("tensor") and captured-plan
# replay nodes ("plan.node", named after the op they replay).
OP_CATEGORIES = ("tensor", "plan.node")

# Ops whose self time the per-layer table reports, per request and per step.
# The eight with the largest self time in serving and training traces of the
# default ODNET config.
TOP_OPS = ("MatMul", "Softmax", "EmbeddingLookup", "Add", "Mul", "Concat",
           "SumAxis", "TransposeLast2")

# Plan nodes that fuse elementwise chains are named "Fused[Op+Op+...]"; their
# self time is reported as one aggregate, since the elementwise work they run
# is missing from the Add/Mul/... rows.
FUSED_PREFIX = "Fused["


def iter_events(path):
    """Yields the trace's event objects one at a time.

    Decodes the traceEvents array element by element, so a trace of a
    million spans never becomes one big object tree.
    """
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    decoder = json.JSONDecoder()
    key = text.find('"traceEvents"')
    if key < 0:
        raise ValueError(f"{path}: no traceEvents array")
    i = text.index("[", key) + 1
    n = len(text)
    while True:
        while i < n and text[i] in " \t\r\n,":
            i += 1
        if i >= n:
            raise ValueError(f"{path}: unterminated traceEvents array")
        if text[i] == "]":
            return
        event, i = decoder.raw_decode(text, i)
        yield event


def load_spans(path):
    """Complete ("X") events as (tid, name, cat, ts_us, dur_us) tuples."""
    spans = []
    for ev in iter_events(path):
        if ev.get("ph") != "X":
            continue
        spans.append((ev["tid"], ev["name"], ev.get("cat", ""),
                      float(ev["ts"]), float(ev["dur"])))
    return spans


def self_times(spans):
    """Self time of every span, in the order of `spans`.

    On each thread, a span's children are the spans that start inside it
    and are not inside one of its other children; its self time is its
    duration minus its direct children's durations. Spans on different
    threads never nest. A zero-length span has zero self time and covers
    nothing.
    """
    out = [0.0] * len(spans)
    by_tid = defaultdict(list)
    for idx, span in enumerate(spans):
        by_tid[span[0]].append(idx)
    for indices in by_tid.values():
        # Parents before children: earlier start first, longer span first.
        indices.sort(key=lambda k: (spans[k][3], -spans[k][4]))
        stack = []  # indices of open spans, innermost last
        for k in indices:
            ts, dur = spans[k][3], spans[k][4]
            out[k] = dur
            while stack:
                top = stack[-1]
                top_end = spans[top][3] + spans[top][4]
                if ts + dur <= top_end + EPS_US and ts < top_end:
                    break
                stack.pop()
            if stack:
                out[stack[-1]] -= dur
            stack.append(k)
    return [max(0.0, s) for s in out]


def aggregate(spans, selfs, window=None, categories=None):
    """{name: {"count", "total_us", "self_us"}} over spans that start inside
    `window` ([start_us, end_us)) and belong to `categories` (all when
    None)."""
    table = defaultdict(lambda: {"count": 0, "total_us": 0.0, "self_us": 0.0})
    for span, self_us in zip(spans, selfs):
        _, name, cat, ts, dur = span
        if window is not None and not window[0] <= ts < window[1]:
            continue
        if categories is not None and cat not in categories:
            continue
        row = table[name]
        row["count"] += 1
        row["total_us"] += dur
        row["self_us"] += self_us
    return dict(table)


def counter_delta(before, after, name):
    return (after.get("counters", {}).get(name, 0) -
            before.get("counters", {}).get(name, 0))


def histogram_stat(after, name, stat):
    return after.get("histograms", {}).get(name, {}).get(stat, 0)


def ratio(num, den):
    return num / den if den else 0.0


def summarize(trace_path, before, after, facts):
    """Per-layer metrics of one traced run as {name: value}, named and
    unit-scaled as BENCHMARK.json's per_layer list.

    `before`/`after` are the registry snapshots taken around the traced
    workload phase; `facts` is the RESULT object of odnet_bench --mode trace.
    Metrics that do not apply to the workload (router metrics on a training
    workload, per-step metrics on a serving one) are 0.
    """
    spans = load_spans(trace_path)
    selfs = self_times(spans)
    window = (facts["window_start_us"], facts["window_end_us"])
    bench = aggregate(spans, selfs, categories=("bench",))
    ops = aggregate(spans, selfs, window=window, categories=OP_CATEGORIES)
    units = facts["units"]
    requests = units if facts["unit"] == "request" else 0
    steps = units if facts["unit"] == "step" else 0

    def d(name):
        return counter_delta(before, after, name)

    def span_total(name):
        return bench.get(name, {}).get("total_us", 0.0)

    def span_mean(name):
        row = bench.get(name)
        return ratio(row["total_us"], row["count"]) if row else 0.0

    rows = facts["probe_rows"]
    m = {}
    # serving
    m["serving.router.queue_wait_p99_us"] = (
        histogram_stat(after, "serving.router.queue_wait_ns", "p99") / 1e3)
    m["serving.router.batch_rows_mean"] = (
        ratio(d("serving.router.batched_rows"), d("serving.router.batches")))
    m["serving.router.recall_cache_hit_ratio"] = (
        ratio(d("serving.router.cache.hits"),
              d("serving.router.cache.hits") + d("serving.router.cache.misses")))
    m["serving.router.scored_cache_hit_ratio"] = (
        ratio(d("serving.router.scored.hits"),
              d("serving.router.scored.hits") +
              d("serving.router.scored.misses")))
    m["serving.router.shed_ratio"] = (
        ratio(d("serving.router.shed"), d("serving.router.requests")))
    m["serving.recall.us_per_request"] = span_mean("serving.recall.RecallFor")
    m["serving.rank.score_us_per_candidate"] = (
        ratio(span_total("serving.rank.ScoreCandidates"),
              facts["stage_probe_candidates"]))
    m["serving.rank.topk_us"] = span_mean("serving.rank.SelectTopK")
    m["serving.repeat_mismatch_ratio"] = facts["repeat_mismatch_ratio"]
    # core / baselines (model)
    m["core.model.predict_planned_us_per_row"] = (
        ratio(span_total("core.model.PredictPlanned"), rows))
    m["core.model.predict_eager_us_per_row"] = (
        ratio(span_total("core.model.Predict"), rows))
    m["core.plan_cache.hit_ratio"] = (
        ratio(d("serving.plan_cache.hits"),
              d("serving.plan_cache.hits") + d("serving.plan_cache.misses")))
    m["core.hsgc.city_forward_us"] = span_mean("core.hsgc.Forward")
    m["core.hsgc.embed_users_us_per_row"] = (
        ratio(span_total("core.hsgc.EmbedUsers"), rows))
    m["core.pec.forward_us_per_row"] = (
        ratio(span_total("core.pec.Forward"), rows))
    m["core.od_jlc.forward_us_per_row"] = (
        ratio(span_total("core.od_jlc.Forward"), rows))
    # data
    m["data.encode_us_per_row"] = (
        ratio(span_total("data.BatchEncoder.EncodeJoint"), rows))
    # tensor
    for op in TOP_OPS:
        self_us = ops.get(op, {}).get("self_us", 0.0)
        m[f"tensor.op.{op}.self_us_per_request"] = ratio(self_us, requests)
        m[f"tensor.op.{op}.self_us_per_step"] = ratio(self_us, steps)
    # Fused nodes come from captured inference plans, so only serving has them.
    m["tensor.op.Fused.self_us_per_request"] = ratio(
        sum(row["self_us"] for name, row in ops.items()
            if name.startswith(FUSED_PREFIX)), requests)
    # Plan replays bypass the op counters, so calls are counted from spans.
    m["tensor.op.MatMul.calls_per_request"] = (
        ratio(ops.get("MatMul", {}).get("count", 0), requests))
    m["tensor.arena.reuse_ratio"] = (
        ratio(d("tensor.arena.reuse_hits"), d("tensor.arena.acquires")))
    m["tensor.plan.replays_per_request"] = ratio(d("plan.replays"), requests)
    # util
    m["util.threadpool.tasks_per_request"] = (
        ratio(d("threadpool.tasks"), requests))
    m["util.threadpool.tasks_per_step"] = ratio(d("threadpool.tasks"), steps)
    m["util.threadpool.queue_wait_p99_us"] = (
        histogram_stat(after, "threadpool.queue_wait_ns", "p99") / 1e3)
    # core trainer / optim: one step split into its public calls
    train_steps = facts["probe_train_steps"]
    for metric, span in (("train.encode_us", "train.EncodeJoint"),
                         ("train.forward_us", "train.Loss"),
                         ("train.backward_us", "train.Backward"),
                         ("train.clip_us", "train.ClipGradNorm"),
                         ("train.optimizer_us", "train.OptimizerStep")):
        m[metric] = ratio(span_total(span), train_steps)
    m["train.step_p50_ms"] = (
        histogram_stat(after, "train.step_ns", "p50") / 1e6)
    m["train.step_p99_ms"] = (
        histogram_stat(after, "train.step_ns", "p99") / 1e6)
    # nn / optim (parameter server)
    m["ps.shard.lock_wait_p99_us"] = (
        histogram_stat(after, "trainer.shard.lock_wait_ns", "p99") / 1e3)
    m["ps.rows_applied_per_step"] = (
        ratio(d("trainer.shard.rows_applied"), steps))
    m["ps.sharded_adam_step_us"] = span_mean("optim.ShardedAdam.Step")
    m["optim.adam_step_us"] = span_mean("optim.Adam.Step")
    # tracing itself: traced minus untraced end-to-end time per unit of work
    m["trace.overhead_ms_per_unit"] = (
        facts["traced_ms_per_unit"] - facts["untraced_ms_per_unit"])
    m["trace.overhead_ratio"] = (
        ratio(facts["traced_ms_per_unit"], facts["untraced_ms_per_unit"]) - 1.0)
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    args = parser.parse_args()
    spans = load_spans(args.trace)
    table = aggregate(spans, self_times(spans))
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_us"])
    print(f"{'span':40s} {'count':>9s} {'total_ms':>11s} {'self_ms':>11s}")
    for name, row in rows:
        print(f"{name:40s} {row['count']:9d} {row['total_us'] / 1e3:11.3f} "
              f"{row['self_us'] / 1e3:11.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
