#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

Run from the repository root (builds the binary first, about 3 minutes):

    python3 perfbench/selftest.py

Checks, for every workload:
  * two traced runs with the same seed report identical deterministic
    counts (sim.*, core.rows_materialized, core.bytes_materialized, and the
    alloc.* counts on tpch_mix, where they are exact), and two untraced runs
    report the same sim_ms_per_query;
  * a different seed changes the generated inputs but not the workload
    shape (queries per unit, batch sizes, merged and sharded fractions);
  * the span file is well formed: ids are dense, every child lies inside
    its parent's interval and belongs to the same query, and every query id
    has exactly one root "query" span.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py: build helper and paths)

SECONDS = "1"
DETERMINISTIC = ("sim.kernel_launches", "sim.h2d_bytes", "sim.d2h_bytes", "sim.commands",
                 "core.rows_materialized", "core.bytes_materialized")
EXACT_ALLOC = ("alloc.count_per_query", "alloc.bytes_per_query")
SHAPE = ("server.batch_size_mean", "server.merged_frac", "multi_device.sharded_frac")
SPAN_SLACK_US = 1e-3  # timestamps are printed in microseconds


def bench(workload, seed, trace, span_file=None):
    command = [run.BINARY, "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
               "--trace", trace]
    if span_file:
        command += ["--span-file", span_file]
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.splitlines()
    info = json.loads(next(l for l in lines if l.startswith("perfbench-info "))
                      .split(" ", 1)[1])
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return info, result, metrics


def check(condition, message):
    if not condition:
        raise SystemExit("FAIL: " + message)
    print("ok:", message)


def check_spans(path, workload):
    with open(path) as f:
        spans = json.load(f)["spans"]
    check(spans, "%s: span file holds spans" % workload)
    by_id = {}
    roots = {}
    for i, span in enumerate(spans):
        if span["id"] != i + 1:
            raise SystemExit("FAIL: %s: span ids are not dense at %d" % (workload, i))
        by_id[span["id"]] = span
        if span["end_us"] < span["start_us"]:
            raise SystemExit("FAIL: %s: span %d ends before it starts" % (workload, span["id"]))
        if span["parent"] == 0:
            if span["layer"] == "query":
                roots[span["query"]] = roots.get(span["query"], 0) + 1
            continue
        parent = by_id.get(span["parent"])
        if parent is None or parent["query"] != span["query"]:
            raise SystemExit("FAIL: %s: span %d has a parent of another query" %
                             (workload, span["id"]))
        if (span["start_us"] < parent["start_us"] - SPAN_SLACK_US or
                span["end_us"] > parent["end_us"] + SPAN_SLACK_US):
            raise SystemExit("FAIL: %s: span %d lies outside its parent" %
                             (workload, span["id"]))
    queries = {span["query"] for span in spans}
    check(all(roots.get(q) == 1 for q in queries),
          "%s: one root query span per query id (%d queries, %d spans)" %
          (workload, len(queries), len(spans)))


def main():
    if not run.build():
        raise SystemExit("FAIL: build")
    for workload in run.WORKLOADS:
        span_file = os.path.join(run.BUILD_DIR, "selftest_spans_%s.json" % workload)
        info_a, result_a, traced_a = bench(workload, 11, "1", span_file)
        _, result_b, traced_b = bench(workload, 11, "1")
        check(result_a["correct"] and result_b["correct"], "%s: traced runs correct" % workload)
        names = DETERMINISTIC + (EXACT_ALLOC if workload == "tpch_mix" else ())
        for name in names:
            check(traced_a[name] == traced_b[name],
                  "%s: %s repeats with the same seed (%r)" % (workload, name, traced_a[name]))
        _, _, plain_a = bench(workload, 11, "0")
        _, _, plain_b = bench(workload, 11, "0")
        check(plain_a["sim_ms_per_query"] == plain_b["sim_ms_per_query"],
              "%s: sim_ms_per_query repeats with the same seed" % workload)

        info_c, _, traced_c = bench(workload, 12, "1")
        check(info_a["inputs_digest"] != info_c["inputs_digest"],
              "%s: another seed changes the inputs" % workload)
        check(info_a["queries_per_unit"] == info_c["queries_per_unit"],
              "%s: another seed keeps queries per unit" % workload)
        for name in SHAPE:
            check(traced_a[name] == traced_c[name],
                  "%s: another seed keeps %s (%r)" % (workload, name, traced_a[name]))
        check_spans(span_file, workload)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
