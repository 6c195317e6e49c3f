#!/usr/bin/env python3
"""Validate bench output files.

Autodetects the kind of each file passed on the command line:

  * "lagover.bench.v1"   — a bench summary (optionally embedding a
    "metrics" block with schema "lagover.metrics.v1" and/or a "perf"
    block with schema "lagover.perf.v1"),
  * "lagover.perf.trajectory.v1" — a merged perf trajectory, as
    written by scripts/perf_compare.py --collect,
  * "lagover.scenario.v1" — a declarative scenario document, as run by
    bench_scenario (strict keys, mirroring src/workload/scenario.cpp),
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


# --- lagover.scenario.v1 -------------------------------------------------
# Mirrors the strict C++ parser in src/workload/scenario.cpp: unknown keys
# are rejected per section, fractions live in [0, 1], windows are ordered.

SCENARIO_KEYS = ("schema", "name", "engine", "algorithm", "oracle", "seed",
                 "trials", "horizon", "workload", "churn", "faults",
                 "domains", "adversary", "defense", "overload", "feed")
SCENARIO_WORKLOAD_KEYS = ("kind", "peers", "max_latency", "source_fanout",
                          "tf1_fanout", "rand_fanout_max")
SCENARIO_CHURN_KEYS = ("leave_probability", "rejoin_probability")
SCENARIO_FAULT_KEYS = ("start", "end", "drop_probability",
                       "delay_probability", "delay_amount",
                       "duplicate_probability", "oracle_outage",
                       "oracle_staleness", "crash_probability",
                       "crash_downtime", "partition_fraction")
SCENARIO_DOMAIN_KEYS = ("name", "fraction", "members", "windows")
SCENARIO_DOMAIN_WINDOW_KEYS = ("start", "end", "fault")
SCENARIO_ADVERSARY_KEYS = ("delay_liar_fraction", "fanout_liar_fraction",
                           "free_rider_fraction", "flapper_fraction",
                           "delay_understatement", "flap_period",
                           "flap_duty", "salt")
SCENARIO_ADVERSARY_FRACTIONS = ("delay_liar_fraction", "fanout_liar_fraction",
                                "free_rider_fraction", "flapper_fraction")
SCENARIO_DEFENSE_KEYS = ("enabled", "probation_threshold",
                         "quarantine_threshold", "blacklist_threshold",
                         "oracle_plausibility", "delay_verification",
                         "receipt_audit")
SCENARIO_FEED_KEYS = ("duration", "push_loss", "recovery", "recovery_period",
                      "publish_period")
SCENARIO_OVERLOAD_KEYS = ("admission", "capacity", "join_storm")
SCENARIO_ADMISSION_KEYS = ("rate_limit", "window", "retry_after",
                           "breaker_trip_windows", "breaker_cooldown",
                           "breaker_close_windows", "serve_stale")
SCENARIO_CAPACITY_KEYS = ("relay_budget", "queue_limit", "shedding",
                          "squeezes")
SCENARIO_SQUEEZE_KEYS = ("start", "end", "factor")
SCENARIO_JOIN_STORM_KEYS = ("at", "fraction")
SCENARIO_ENGINES = ("async", "rounds")
SCENARIO_ALGORITHMS = ("greedy", "hybrid", "fanout_greedy")
SCENARIO_ORACLES = ("random", "random_capacity", "random_delay_capacity",
                    "random_delay")
SCENARIO_WORKLOADS = ("tf1", "rand", "bi_corr", "bi_uncorr")


def scenario_keys(path, section, obj, allowed):
    if not isinstance(obj, dict):
        fail(path, f"scenario {section} is not an object")
    for key in obj:
        if key not in allowed:
            fail(path, f"scenario {section} has unknown key {key!r}")


def scenario_fraction(path, section, obj, key):
    if key in obj:
        value = obj[key]
        if not isinstance(value, NUMERIC) or not 0.0 <= value <= 1.0:
            fail(path, f"scenario {section}.{key} is not in [0, 1]")


def scenario_window(path, section, obj):
    if "start" not in obj or "end" not in obj:
        fail(path, f"scenario {section} window missing start/end")
    if not (isinstance(obj["start"], NUMERIC) and
            isinstance(obj["end"], NUMERIC) and
            0 <= obj["start"] <= obj["end"]):
        fail(path, f"scenario {section} window needs 0 <= start <= end")


def check_scenario(path, doc):
    scenario_keys(path, "document", doc, SCENARIO_KEYS)
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        fail(path, "scenario needs a non-empty 'name'")
    for key, allowed in (("engine", SCENARIO_ENGINES),
                         ("algorithm", SCENARIO_ALGORITHMS),
                         ("oracle", SCENARIO_ORACLES)):
        if key in doc and doc[key] not in allowed:
            fail(path, f"scenario {key} {doc[key]!r} not in {allowed}")
    if "trials" in doc and (not isinstance(doc["trials"], int)
                            or doc["trials"] < 1):
        fail(path, "scenario trials must be an integer >= 1")
    if "horizon" in doc and (not isinstance(doc["horizon"], NUMERIC)
                             or doc["horizon"] <= 0):
        fail(path, "scenario horizon must be > 0")
    if "workload" in doc:
        workload = doc["workload"]
        scenario_keys(path, "workload", workload, SCENARIO_WORKLOAD_KEYS)
        if "kind" in workload and workload["kind"] not in SCENARIO_WORKLOADS:
            fail(path, f"scenario workload.kind {workload['kind']!r} "
                       f"not in {SCENARIO_WORKLOADS}")
        if "peers" in workload and (not isinstance(workload["peers"], int)
                                    or workload["peers"] < 2):
            fail(path, "scenario workload.peers must be >= 2")
    if "churn" in doc:
        scenario_keys(path, "churn", doc["churn"], SCENARIO_CHURN_KEYS)
        for key in SCENARIO_CHURN_KEYS:
            scenario_fraction(path, "churn", doc["churn"], key)
    for i, window in enumerate(doc.get("faults", []), 1):
        scenario_keys(path, f"faults[{i}]", window, SCENARIO_FAULT_KEYS)
        scenario_window(path, f"faults[{i}]", window)
    for i, domain in enumerate(doc.get("domains", []), 1):
        scenario_keys(path, f"domains[{i}]", domain, SCENARIO_DOMAIN_KEYS)
        if not isinstance(domain.get("name"), str) or not domain["name"]:
            fail(path, f"scenario domains[{i}] needs a non-empty 'name'")
        has_fraction = domain.get("fraction", 0) > 0
        has_members = bool(domain.get("members"))
        if has_fraction == has_members:
            fail(path, f"scenario domains[{i}] takes 'fraction' or "
                       "'members', exactly one")
        scenario_fraction(path, f"domains[{i}]", domain, "fraction")
        windows = domain.get("windows")
        if not isinstance(windows, list) or not windows:
            fail(path, f"scenario domains[{i}] needs a non-empty "
                       "'windows' array")
        for j, window in enumerate(windows, 1):
            scenario_keys(path, f"domains[{i}].windows[{j}]", window,
                          SCENARIO_DOMAIN_WINDOW_KEYS)
            scenario_window(path, f"domains[{i}].windows[{j}]", window)
            if window.get("fault", "crash") not in ("crash", "partition"):
                fail(path, f"scenario domains[{i}].windows[{j}].fault must "
                           "be 'crash' or 'partition'")
    if "adversary" in doc:
        adversary = doc["adversary"]
        scenario_keys(path, "adversary", adversary, SCENARIO_ADVERSARY_KEYS)
        for key in SCENARIO_ADVERSARY_FRACTIONS:
            scenario_fraction(path, "adversary", adversary, key)
        total = sum(adversary.get(key, 0.0)
                    for key in SCENARIO_ADVERSARY_FRACTIONS)
        if total > 1.0 + 1e-9:
            fail(path, "scenario adversary fractions must sum to <= 1")
    if "defense" in doc:
        defense = doc["defense"]
        scenario_keys(path, "defense", defense, SCENARIO_DEFENSE_KEYS)
        thresholds = [defense.get(key) for key in
                      ("probation_threshold", "quarantine_threshold",
                       "blacklist_threshold")]
        present = [t for t in thresholds if t is not None]
        if present != sorted(present):
            fail(path, "scenario defense thresholds must be ordered "
                       "probation <= quarantine <= blacklist")
    if "overload" in doc:
        overload = doc["overload"]
        scenario_keys(path, "overload", overload, SCENARIO_OVERLOAD_KEYS)
        if not overload:
            fail(path, "scenario overload must declare admission, capacity, "
                       "or join_storm")
        if "admission" in overload:
            admission = overload["admission"]
            scenario_keys(path, "overload.admission", admission,
                          SCENARIO_ADMISSION_KEYS)
            rate = admission.get("rate_limit")
            if not isinstance(rate, NUMERIC) or rate <= 0:
                fail(path, "scenario overload.admission.rate_limit must "
                           "be > 0")
            for key in ("window", "retry_after", "breaker_cooldown"):
                if key in admission and (
                        not isinstance(admission[key], NUMERIC)
                        or admission[key] <= 0):
                    fail(path, f"scenario overload.admission.{key} must "
                               "be > 0")
            for key in ("breaker_trip_windows", "breaker_close_windows"):
                if key in admission and (
                        not isinstance(admission[key], int)
                        or admission[key] < 1):
                    fail(path, f"scenario overload.admission.{key} must "
                               "be an integer >= 1")
        if "capacity" in overload:
            capacity = overload["capacity"]
            scenario_keys(path, "overload.capacity", capacity,
                          SCENARIO_CAPACITY_KEYS)
            for key in ("relay_budget", "queue_limit"):
                if key in capacity and (not isinstance(capacity[key], int)
                                        or capacity[key] < 0):
                    fail(path, f"scenario overload.capacity.{key} must "
                               "be an integer >= 0")
            for j, squeeze in enumerate(capacity.get("squeezes", []), 1):
                scenario_keys(path, f"overload.capacity.squeezes[{j}]",
                              squeeze, SCENARIO_SQUEEZE_KEYS)
                scenario_window(path, f"overload.capacity.squeezes[{j}]",
                                squeeze)
                sf = squeeze.get("factor")
                if not isinstance(sf, NUMERIC) or not 0 < sf <= 1:
                    fail(path, f"scenario overload.capacity.squeezes[{j}]"
                               ".factor must be in (0, 1]")
        if "join_storm" in overload:
            storm = overload["join_storm"]
            scenario_keys(path, "overload.join_storm", storm,
                          SCENARIO_JOIN_STORM_KEYS)
            if "churn" in doc:
                fail(path, "scenario overload.join_storm and churn are "
                           "mutually exclusive")
            at = storm.get("at")
            if not isinstance(at, NUMERIC) or at < 1:
                fail(path, "scenario overload.join_storm.at must be >= 1")
            fraction = storm.get("fraction")
            if not isinstance(fraction, NUMERIC) or not 0 < fraction < 1:
                fail(path, "scenario overload.join_storm.fraction must be "
                           "in (0, 1)")
    if "feed" in doc:
        feed = doc["feed"]
        scenario_keys(path, "feed", feed, SCENARIO_FEED_KEYS)
        scenario_fraction(path, "feed", feed, "push_loss")
        if feed.get("push_loss", 0.0) >= 1.0:
            fail(path, "scenario feed.push_loss must be < 1")
        for key in ("duration", "recovery_period", "publish_period"):
            if key in feed and (not isinstance(feed[key], NUMERIC)
                                or feed[key] <= 0):
                fail(path, f"scenario feed.{key} must be > 0")
    counts = (len(doc.get("faults", [])), len(doc.get("domains", [])))
    return (f"scenario '{doc['name']}' ({counts[0]} fault windows, "
            f"{counts[1]} domains)")


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
    if isinstance(doc, dict) and doc.get("schema") == "lagover.scenario.v1":
        return check_scenario(path, doc)
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
