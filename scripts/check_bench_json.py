#!/usr/bin/env python3
"""Validate bench output files.

Autodetects the kind of each file passed on the command line:

  * "lagover.bench.v1"   — a bench summary (optionally embedding a
    "metrics" block with schema "lagover.metrics.v1" and/or a "perf"
    block with schema "lagover.perf.v1"),
  * "lagover.perf.trajectory.v1" — a merged perf trajectory, as
    written by scripts/perf_compare.py --collect,
  * "lagover.postmortem.v1" — a flight-recorder dump, as written by
    --postmortem-out on an invariant violation (optionally retaining a
    "health" ring of "lagover.health.v1" sample lines),
  * a Chrome trace_event file — top-level "traceEvents" list, as
    written by --trace-out (Perfetto / chrome://tracing loadable),
  * a JSONL event/span stream — one JSON object per line, as written
    by --events-out / --spans-out ("lagover.spans.v1" span lines) or
    --health-out ("lagover.health.v1" run/sample/run_end lines).

Exits non-zero with a per-file report on any violation, so CI can gate
on the schemas without golden files.
"""

import json
import sys

NUMERIC = (int, float)


def fail(path, message):
    raise ValueError(f"{path}: {message}")


def check_metrics_block(path, metrics):
    if metrics.get("schema") != "lagover.metrics.v1":
        fail(path, f"metrics schema is {metrics.get('schema')!r}, "
                   "expected 'lagover.metrics.v1'")
    for section in ("counters", "gauges", "histograms", "profile"):
        if section not in metrics:
            fail(path, f"metrics block missing '{section}'")
    for name, value in metrics["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(path, f"counter {name!r} is not a non-negative integer")
    for name, value in metrics["gauges"].items():
        if not isinstance(value, NUMERIC):
            fail(path, f"gauge {name!r} is not numeric")
    for name, hist in metrics["histograms"].items():
        for key in ("count", "sum", "min", "max", "mean",
                    "p50", "p90", "p99", "underflow", "overflow"):
            if key not in hist:
                fail(path, f"histogram {name!r} missing '{key}'")
        if hist["count"] > 0 and not (hist["min"] <= hist["p50"] <= hist["max"]):
            fail(path, f"histogram {name!r}: p50 outside [min, max]")
        for bucket in hist.get("buckets", []):
            if not (bucket["lo"] < bucket["hi"] and bucket["count"] > 0):
                fail(path, f"histogram {name!r}: malformed bucket {bucket}")
    for name, site in metrics["profile"].items():
        for key in ("calls", "total_ns", "mean_ns", "max_ns"):
            if key not in site:
                fail(path, f"profile site {name!r} missing '{key}'")
    for name, series in metrics.get("timeseries", {}).items():
        times = [point[0] for point in series]
        if times != sorted(times):
            fail(path, f"timeseries {name!r} is not time-sorted")


def check_perf_block(path, perf):
    if perf.get("schema") != "lagover.perf.v1":
        fail(path, f"perf schema is {perf.get('schema')!r}, "
                   "expected 'lagover.perf.v1'")
    for key in ("wall_time_s", "peak_rss_kb", "rounds", "rounds_per_sec",
                "messages", "messages_per_round", "alloc", "phases",
                "scopes"):
        if key not in perf:
            fail(path, f"perf block missing '{key}'")
    for key in ("wall_time_s", "peak_rss_kb", "rounds", "rounds_per_sec",
                "messages", "messages_per_round"):
        value = perf[key]
        if not isinstance(value, NUMERIC) or value < 0:
            fail(path, f"perf {key!r} is not a non-negative number")
    for key in ("rounds", "messages", "peak_rss_kb"):
        if not isinstance(perf[key], int):
            fail(path, f"perf {key!r} is not an integer")
    alloc = perf["alloc"]
    if not isinstance(alloc.get("supported"), bool):
        fail(path, "perf alloc.supported is not a boolean")
    for key in ("count", "bytes", "frees"):
        if not isinstance(alloc.get(key), int) or alloc[key] < 0:
            fail(path, f"perf alloc.{key} is not a non-negative integer")
    if not alloc["supported"] and alloc["count"] != 0:
        fail(path, "perf alloc.count nonzero without the hook compiled in")
    # rounds_per_sec must be consistent with rounds / wall_time_s
    # (1% slack for the double round-trip through JSON).
    if perf["wall_time_s"] > 0 and perf["rounds"] > 0:
        implied = perf["rounds"] / perf["wall_time_s"]
        if abs(implied - perf["rounds_per_sec"]) > 0.01 * implied:
            fail(path, f"perf rounds_per_sec {perf['rounds_per_sec']:g} "
                       f"inconsistent with rounds/wall {implied:g}")
    if perf["rounds"] > 0:
        implied = perf["messages"] / perf["rounds"]
        if abs(implied - perf["messages_per_round"]) > \
                0.01 * max(implied, 1e-9):
            fail(path, "perf messages_per_round inconsistent with "
                       "messages/rounds")
    for name, phase in perf["phases"].items():
        for key in ("wall_s", "rounds", "rounds_per_sec", "messages",
                    "messages_per_round", "allocs", "alloc_bytes"):
            if key not in phase:
                fail(path, f"perf phase {name!r} missing '{key}'")
            if not isinstance(phase[key], NUMERIC) or phase[key] < 0:
                fail(path, f"perf phase {name!r}.{key} is not a "
                           "non-negative number")
        if phase["rounds"] > perf["rounds"]:
            fail(path, f"perf phase {name!r} has more rounds than the run")
    for name, times in perf.get("micro", {}).items():
        for key in ("real_ns", "cpu_ns"):
            if not isinstance(times.get(key), NUMERIC) or times[key] < 0:
                fail(path, f"perf micro {name!r}.{key} is not a "
                           "non-negative number")


HEALTH_SAMPLE_NESTED = {
    "depth": ("max", "mean", "p50", "p90", "p99"),
    "slack": ("min", "mean", "deepest", "violated"),
    "fanout": ("edges", "capacity", "saturated", "utilization"),
    "churn": ("attaches", "detaches", "offlines", "onlines"),
}


def check_health_sample(path, where, sample):
    for key in ("round", "online", "orphans", "satisfied", "unsatisfied",
                "converged"):
        if key not in sample:
            fail(path, f"{where}: health sample missing '{key}'")
    for outer, keys in HEALTH_SAMPLE_NESTED.items():
        block = sample.get(outer)
        if not isinstance(block, dict):
            fail(path, f"{where}: health sample missing '{outer}' object")
        for key in keys:
            if not isinstance(block.get(key), NUMERIC):
                fail(path, f"{where}: health sample {outer}.{key} is not "
                           "numeric")
    for key in ("online", "orphans", "satisfied", "unsatisfied"):
        if not isinstance(sample[key], int) or sample[key] < 0:
            fail(path, f"{where}: health sample {key!r} is not a "
                       "non-negative integer")
    if sample["satisfied"] + sample["unsatisfied"] != sample["online"]:
        fail(path, f"{where}: health satisfied + unsatisfied != online")
    if sample["orphans"] > sample["online"]:
        fail(path, f"{where}: health orphans exceed online consumers")
    if sample["converged"] != (sample["unsatisfied"] == 0):
        fail(path, f"{where}: health converged flag disagrees with "
                   "unsatisfied count")
    fanout = sample["fanout"]
    if fanout["capacity"] > 0:
        implied = fanout["edges"] / fanout["capacity"]
        if abs(implied - fanout["utilization"]) > 0.01 * max(implied, 1e-9):
            fail(path, f"{where}: health fanout.utilization inconsistent "
                       "with edges/capacity")
    depth = sample["depth"]
    if not depth["p50"] <= depth["p90"] <= depth["p99"] <= depth["max"]:
        fail(path, f"{where}: health depth percentiles are not ordered")
    for name, value in sample.get("messages", {}).items():
        if not isinstance(value, int) or value < 1:
            fail(path, f"{where}: health messages[{name!r}] is not a "
                       "positive integer")


def check_health_line(path, i, record):
    if record.get("schema") != "lagover.health.v1":
        fail(path, f"line {i}: health schema is {record.get('schema')!r}")
    kind = record["kind"]
    if not isinstance(record.get("run"), int) or record["run"] < 1:
        fail(path, f"line {i}: health {kind} run is not a positive integer")
    if kind == "run":
        for key in ("t", "nodes", "consumers", "stability_rounds"):
            if key not in record:
                fail(path, f"line {i}: health run header missing '{key}'")
    elif kind == "sample":
        check_health_sample(path, f"line {i}", record)
    elif kind == "run_end":
        for key in ("rounds", "converged", "convergence_round", "samples",
                    "stride"):
            if key not in record:
                fail(path, f"line {i}: health run_end missing '{key}'")
        if record["converged"] != (record["convergence_round"] >= 0):
            fail(path, f"line {i}: health run_end converged flag disagrees "
                       "with convergence_round")
        if "final" in record:
            check_health_sample(path, f"line {i} final", record["final"])


def check_health_block(path, health):
    if health.get("schema") != "lagover.health.v1":
        fail(path, f"health schema is {health.get('schema')!r}, "
                   "expected 'lagover.health.v1'")
    for key in ("stability_rounds", "runs", "converged_runs", "samples",
                "stream_lines"):
        if not isinstance(health.get(key), int) or health[key] < 0:
            fail(path, f"health block {key!r} is not a non-negative integer")
    if health["converged_runs"] > health["runs"]:
        fail(path, "health block converged_runs exceeds runs")
    if health["converged_runs"] > 0:
        stats = health.get("convergence_round")
        if not isinstance(stats, dict):
            fail(path, "health block with converged runs needs a "
                       "'convergence_round' object")
        for key in ("min", "median", "max"):
            if not isinstance(stats.get(key), NUMERIC):
                fail(path, f"health convergence_round.{key} is not numeric")
        if not stats["min"] <= stats["median"] <= stats["max"]:
            fail(path, "health convergence_round min/median/max not ordered")
    if "final" in health:
        check_health_sample(path, "health final", health["final"])


def check_perf_trajectory(path, doc):
    benches = doc.get("benches")
    if not isinstance(benches, dict) or not benches:
        fail(path, "trajectory needs a non-empty 'benches' object")
    for name, entry in benches.items():
        if "perf" not in entry:
            fail(path, f"trajectory bench {name!r} missing 'perf'")
        check_perf_block(path, entry["perf"])
    return f"perf trajectory ({len(benches)} benches)"


def check_bench(path, doc):
    if doc.get("schema") != "lagover.bench.v1":
        fail(path, f"schema is {doc.get('schema')!r}")
    for key in ("bench", "options", "summary", "tables"):
        if key not in doc:
            fail(path, f"missing top-level '{key}'")
    for key in ("peers", "trials", "max_rounds", "seed"):
        if key not in doc["options"]:
            fail(path, f"options missing '{key}'")
    for name, value in doc["summary"].items():
        if not isinstance(value, NUMERIC):
            fail(path, f"summary {name!r} is not numeric")
    for name, table in doc["tables"].items():
        if "header" not in table or "rows" not in table:
            fail(path, f"table {name!r} missing header/rows")
        width = len(table["header"])
        for row in table["rows"]:
            if len(row) != width:
                fail(path, f"table {name!r}: row width {len(row)} != "
                           f"header width {width}")
    if "metrics" in doc:
        check_metrics_block(path, doc["metrics"])
    if "perf" in doc:
        check_perf_block(path, doc["perf"])
    if "health" in doc:
        check_health_block(path, doc["health"])
    extras = [key for key in ("metrics", "perf", "health") if key in doc]
    return "bench json" + "".join(f" + {key}" for key in extras)


SPAN_KINDS = ("publish", "source_poll", "relay", "deliver", "repair",
              "drop", "duplicate")
RECEIPT_KINDS = ("source_poll", "deliver", "repair")


def check_span_line(path, i, record):
    if record.get("schema") != "lagover.spans.v1":
        fail(path, f"line {i}: span schema is {record.get('schema')!r}")
    for key in ("item", "span", "node", "hop", "published_at",
                "start", "ts"):
        if key not in record:
            fail(path, f"line {i}: span missing '{key}'")
    if record["span"] not in SPAN_KINDS:
        fail(path, f"line {i}: unknown span kind {record['span']!r}")
    if not isinstance(record["item"], int) or record["item"] < 1:
        fail(path, f"line {i}: span item is not a positive integer")
    if record["ts"] < record["start"]:
        fail(path, f"line {i}: span ts precedes its start")
    if record["span"] in RECEIPT_KINDS:
        if "deadline" not in record:
            fail(path, f"line {i}: receipt span without 'deadline'")
        if "parent" not in record:
            fail(path, f"line {i}: receipt span without 'parent'")
        if record["hop"] < 1:
            fail(path, f"line {i}: receipt span with hop < 1")


# The TraceEvent kinds (src/telemetry/telemetry.hpp): the protocol kinds
# a node's step emits, then the four structural kinds an overlay
# mutation emits.
EVENT_TYPES = {
    "churn_leave", "churn_join", "maintenance_detach", "source_contact",
    "interaction", "oracle_empty", "interaction_failed",
    "source_contact_failed", "parent_lost", "crash", "rejoin",
    "epoch_fenced", "failover_attach", "parent_quarantined",
    "edge_attach", "edge_detach", "node_offline", "node_online",
}


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def check_event_line(path, i, record):
    for key in ("ts", "type", "node"):
        if key not in record:
            fail(path, f"line {i}: event missing '{key}'")
    if record["type"] not in EVENT_TYPES:
        fail(path, f"line {i}: unknown event type {record['type']!r}")
    for key in ("node", "partner"):
        if key in record and not is_int(record[key]):
            fail(path, f"line {i}: event '{key}' is not an integer")


def check_postmortem(path, doc):
    if doc.get("schema") != "lagover.postmortem.v1":
        fail(path, f"schema is {doc.get('schema')!r}")
    for key in ("reason", "sim_time", "repro", "events", "spans", "logs",
                "snapshots", "violations", "violations_total"):
        if key not in doc:
            fail(path, f"missing top-level '{key}'")
    for key in ("seed", "flags"):
        if key not in doc["repro"]:
            fail(path, f"repro missing '{key}'")
    if not isinstance(doc["repro"]["seed"], int):
        fail(path, "repro seed is not an integer")
    for i, event in enumerate(doc["events"], 1):
        check_event_line(path, i, event)
    for i, span in enumerate(doc["spans"], 1):
        check_span_line(path, i, span)
    for i, snapshot in enumerate(doc["snapshots"], 1):
        if "t" not in snapshot or "snapshot" not in snapshot:
            fail(path, f"snapshot {i} missing t/snapshot")
        if not snapshot["snapshot"].startswith("lagover-snapshot v1"):
            fail(path, f"snapshot {i} is not 'lagover-snapshot v1' text")
    times = [snapshot["t"] for snapshot in doc["snapshots"]]
    if times != sorted(times):
        fail(path, "snapshots are not time-sorted")
    for i, violation in enumerate(doc["violations"], 1):
        for key in ("ts", "invariant", "cause"):
            if key not in violation:
                fail(path, f"violation {i} missing '{key}'")
    if doc["violations_total"] < len(doc["violations"]):
        fail(path, "violations_total below the retained violation count")
    for i, sample in enumerate(doc.get("health", []), 1):
        check_health_line(path, i, sample)
    if "metrics" in doc:
        check_metrics_block(path, doc["metrics"])
    return (f"postmortem bundle ({len(doc['spans'])} spans, "
            f"{len(doc['violations'])} violations)")


def check_chrome_trace(path, doc):
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(path, "'traceEvents' is not a non-empty list")
    phases = set()
    for event in events:
        ph = event.get("ph")
        phases.add(ph)
        if ph not in ("M", "i", "X"):
            fail(path, f"unexpected phase {ph!r}")
        if "pid" not in event or "name" not in event:
            fail(path, "event missing pid/name")
        if ph in ("i", "X") and not isinstance(event.get("ts"), NUMERIC):
            fail(path, f"{ph!r} event without numeric 'ts'")
        if ph == "X" and not isinstance(event.get("dur"), NUMERIC):
            fail(path, "'X' event without numeric 'dur'")
    if "M" not in phases:
        fail(path, "no process_name metadata events")
    return f"chrome trace ({len(events)} events)"


def check_jsonl(path, text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        fail(path, "empty JSONL stream")
    for i, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            fail(path, f"line {i}: invalid JSON ({err})")
        kind = record.get("kind")
        if kind == "event":
            check_event_line(path, i, record)
        elif kind == "log":
            for key in ("ts", "level", "message"):
                if key not in record:
                    fail(path, f"line {i}: log missing '{key}'")
        elif kind == "span":
            check_span_line(path, i, record)
        elif kind in ("run", "sample", "run_end"):
            check_health_line(path, i, record)
        else:
            fail(path, f"line {i}: unknown kind {kind!r}")
    return f"jsonl events ({len(lines)} lines)"


def check_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return check_jsonl(path, text)
    if isinstance(doc, dict) and "traceEvents" in doc:
        return check_chrome_trace(path, doc)
    if isinstance(doc, dict) and doc.get("schema") == "lagover.metrics.v1":
        check_metrics_block(path, doc)
        return "metrics json"
    if isinstance(doc, dict) and doc.get("schema") == "lagover.postmortem.v1":
        return check_postmortem(path, doc)
    if isinstance(doc, dict) and \
            doc.get("schema") == "lagover.perf.trajectory.v1":
        return check_perf_trajectory(path, doc)
    if isinstance(doc, dict) and doc.get("schema") == "lagover.perf.v1":
        check_perf_block(path, doc)
        return "perf json"
    if isinstance(doc, dict):
        return check_bench(path, doc)
    return check_jsonl(path, text)


def main(argv):
    if len(argv) < 2:
        print(f"usage: {argv[0]} FILE...", file=sys.stderr)
        return 2
    status = 0
    for path in argv[1:]:
        try:
            kind = check_file(path)
            print(f"OK   {path}  [{kind}]")
        except (ValueError, OSError, KeyError, TypeError) as err:
            print(f"FAIL {err}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
