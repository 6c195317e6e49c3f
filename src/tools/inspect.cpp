#include "tools/inspect.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "core/snapshot.hpp"

namespace lagover::tools {

namespace {

constexpr double kSlack = 1e-9;  ///< same float slack as the feed layer

double number_or(const Json& object, const char* key, double fallback) {
  const Json* value = object.find(key);
  return value == nullptr ? fallback : value->as_number();
}

std::int64_t int_or(const Json& object, const char* key,
                    std::int64_t fallback) {
  const Json* value = object.find(key);
  return value == nullptr ? fallback : value->as_int(fallback);
}

std::string string_or(const Json& object, const char* key) {
  const Json* value = object.find(key);
  return value == nullptr ? std::string() : value->as_string();
}

SpanRow decode_span(const Json& line) {
  SpanRow row;
  row.item = static_cast<std::uint64_t>(int_or(line, "item", 0));
  row.kind = string_or(line, "span");
  row.node = static_cast<NodeId>(int_or(line, "node", 0));
  row.parent = static_cast<NodeId>(
      int_or(line, "parent", static_cast<std::int64_t>(kNoNode)));
  row.hop = static_cast<std::uint32_t>(int_or(line, "hop", 0));
  row.feed = static_cast<std::uint32_t>(int_or(line, "feed", 0));
  row.published_at = number_or(line, "published_at", 0.0);
  row.start = number_or(line, "start", 0.0);
  row.ts = number_or(line, "ts", 0.0);
  row.deadline = number_or(line, "deadline", -1.0);
  row.epoch = int_or(line, "epoch", 0);
  row.cause = string_or(line, "cause");
  return row;
}

EventRow decode_event(const Json& line) {
  EventRow row;
  row.ts = number_or(line, "ts", 0.0);
  row.type = string_or(line, "type");
  row.cause = string_or(line, "cause");
  row.node = static_cast<NodeId>(int_or(line, "node", 0));
  row.partner = static_cast<NodeId>(int_or(line, "partner", 0));
  row.epoch = int_or(line, "epoch", 0);
  const Json* attached = line.find("attached");
  row.attached = attached != nullptr && attached->as_bool();
  return row;
}

}  // namespace

void ingest_line(const Json& line, Bundle& bundle) {
  const std::string kind = string_or(line, "kind");
  if (kind == "span")
    bundle.spans.push_back(decode_span(line));
  else if (kind == "event")
    bundle.events.push_back(decode_event(line));
  else if (kind == "log")
    ++bundle.log_lines;
  else if (kind == "run" || kind == "sample" || kind == "run_end")
    bundle.health.push_back(line);  // "lagover.health.v1" stream lines
}

void ingest_document(const Json& document, Bundle& bundle) {
  bundle.schema = string_or(document, "schema");
  bundle.reason = string_or(document, "reason");
  if (const Json* repro = document.find("repro"); repro != nullptr) {
    bundle.seed = static_cast<std::uint64_t>(int_or(*repro, "seed", 0));
    bundle.flags = string_or(*repro, "flags");
  }
  bundle.fault_plan = string_or(document, "fault_plan");
  if (const Json* events = document.find("events"); events != nullptr)
    for (const Json& line : events->elements())
      bundle.events.push_back(decode_event(line));
  if (const Json* spans = document.find("spans"); spans != nullptr)
    for (const Json& line : spans->elements())
      bundle.spans.push_back(decode_span(line));
  if (const Json* logs = document.find("logs"); logs != nullptr)
    bundle.log_lines = logs->size();
  if (const Json* snapshots = document.find("snapshots");
      snapshots != nullptr)
    for (const Json& entry : snapshots->elements())
      bundle.snapshots.emplace_back(number_or(entry, "t", 0.0),
                                    string_or(entry, "snapshot"));
  if (const Json* violations = document.find("violations");
      violations != nullptr)
    bundle.violations = *violations;
  if (const Json* metrics = document.find("metrics"); metrics != nullptr)
    bundle.metrics = *metrics;
  if (const Json* health = document.find("health"); health != nullptr)
    for (const Json& line : health->elements()) bundle.health.push_back(line);
}

bool load_bundle(const std::string& path, Bundle& bundle,
                 std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::string line;
  bool first = true;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    Json parsed;
    std::string parse_error;
    if (!Json::parse(line, parsed, &parse_error)) {
      if (error != nullptr)
        *error = path + ":" + std::to_string(line_no) + ": " + parse_error;
      return false;
    }
    if (first) {
      first = false;
      // A flight-recorder dump is one whole-document line; everything
      // else is a JSONL stream of kind-tagged lines.
      if (string_or(parsed, "schema") == "lagover.postmortem.v1") {
        ingest_document(parsed, bundle);
        return true;
      }
    }
    ingest_line(parsed, bundle);
  }
  if (first) {
    if (error != nullptr) *error = path + ": empty dump";
    return false;
  }
  return true;
}

PathResult item_path(const Bundle& bundle, std::uint64_t item, NodeId node) {
  PathResult result;
  // First receipt per node is the applied copy (later copies are
  // suppressed as duplicates); the publish span ends the chain.
  std::map<NodeId, const SpanRow*> receipt_at;
  const SpanRow* publish = nullptr;
  for (const SpanRow& span : bundle.spans) {
    if (span.item != item) continue;
    if (span.kind == "publish" && publish == nullptr) publish = &span;
    if (span.is_receipt() && receipt_at.find(span.node) == receipt_at.end())
      receipt_at[span.node] = &span;
  }
  std::vector<SpanRow> reversed;
  NodeId cursor = node;
  std::size_t steps = 0;
  while (true) {
    const auto it = receipt_at.find(cursor);
    if (it == receipt_at.end()) {
      result.note = "no receipt of item " + std::to_string(item) +
                    " at node " + std::to_string(cursor);
      break;
    }
    reversed.push_back(*it->second);
    if (it->second->parent == kSourceId) {
      result.complete = true;
      break;
    }
    if (it->second->parent == kNoNode) {
      result.note = "receipt at node " + std::to_string(cursor) +
                    " has no parent hop";
      break;
    }
    cursor = it->second->parent;
    if (++steps > receipt_at.size()) {
      result.note = "parent chain does not terminate (cycle in spans)";
      break;
    }
  }
  if (publish != nullptr && (result.complete || !reversed.empty()))
    reversed.push_back(*publish);
  std::reverse(reversed.begin(), reversed.end());
  result.hops = std::move(reversed);
  return result;
}

AncestryResult ancestry_at(const Bundle& bundle, NodeId node, double t) {
  AncestryResult result;

  // Newest snapshot at or before t. Events stamped exactly at the
  // snapshot time are treated as already included in it.
  const std::pair<double, std::string>* base = nullptr;
  for (const auto& snapshot : bundle.snapshots)
    if (snapshot.first <= t) base = &snapshot;

  std::size_t node_count = 0;
  std::vector<NodeId> parent;
  std::vector<char> online;
  double replay_from = -1.0;
  if (base != nullptr) {
    Overlay overlay = from_snapshot(base->second);
    node_count = overlay.node_count();
    parent.resize(node_count, kNoNode);
    online.resize(node_count, 1);
    for (NodeId id = 0; id < node_count; ++id) {
      parent[id] = overlay.parent(id);
      online[id] = overlay.online(id) ? 1 : 0;
    }
    replay_from = base->first;
    result.snapshot_t = base->first;
  } else {
    // No snapshot: replay the edge events from the initial forest
    // (everyone online and parentless — how every engine run starts).
    for (const EventRow& event : bundle.events) {
      if (event.node != kNoNode)
        node_count = std::max<std::size_t>(node_count, event.node + 1);
      if (event.partner != kNoNode)
        node_count = std::max<std::size_t>(node_count, event.partner + 1);
    }
    for (const SpanRow& span : bundle.spans)
      node_count = std::max<std::size_t>(node_count, span.node + 1);
    parent.resize(node_count, kNoNode);
    online.resize(node_count, 1);
  }
  if (node >= node_count) {
    result.note = "node " + std::to_string(node) + " unknown to this dump";
    return result;
  }

  for (const EventRow& event : bundle.events) {
    if (event.ts <= replay_from || event.ts > t) continue;
    if (event.node >= node_count) continue;
    if (event.type == "edge_attach")
      parent[event.node] = event.partner;
    else if (event.type == "edge_detach")
      parent[event.node] = kNoNode;
    else if (event.type == "node_offline")
      online[event.node] = 0;
    else if (event.type == "node_online")
      online[event.node] = 1;
  }

  result.online = online[node] != 0;
  NodeId cursor = node;
  std::size_t steps = 0;
  result.chain.push_back(cursor);
  while (parent[cursor] != kNoNode) {
    cursor = parent[cursor];
    result.chain.push_back(cursor);
    if (cursor >= node_count || ++steps > node_count) {
      result.note = "parent chain does not terminate (corrupt replay)";
      return result;
    }
  }
  result.ok = true;
  return result;
}

std::vector<Laggard> laggards(const Bundle& bundle, std::uint64_t item) {
  // First drop per (item, node): the recorded reason the timely copy
  // never made it, so a late repair can say *why* it was needed.
  std::map<std::pair<std::uint64_t, NodeId>, const std::string*> first_drop;
  for (const SpanRow& span : bundle.spans)
    if (span.kind == "drop" && !span.cause.empty())
      first_drop.emplace(std::make_pair(span.item, span.node), &span.cause);
  std::vector<Laggard> result;
  for (const SpanRow& span : bundle.spans) {
    if (item != 0 && span.item != item) continue;
    if (!span.is_receipt() || span.deadline < 0.0) continue;
    const double latency = span.ts - span.published_at;
    if (latency <= span.deadline + kSlack) continue;
    Laggard laggard;
    laggard.node = span.node;
    laggard.item = span.item;
    laggard.kind = span.kind;
    laggard.latency = latency;
    laggard.deadline = span.deadline;
    laggard.miss = latency - span.deadline;
    const auto dropped =
        first_drop.find(std::make_pair(span.item, span.node));
    if (dropped != first_drop.end()) laggard.drop_cause = *dropped->second;
    result.push_back(laggard);
  }
  std::stable_sort(result.begin(), result.end(),
                   [](const Laggard& a, const Laggard& b) {
                     return a.miss > b.miss;
                   });
  return result;
}

std::vector<std::pair<std::string, std::size_t>> drop_causes(
    const Bundle& bundle) {
  std::map<std::string, std::size_t> counts;
  for (const SpanRow& span : bundle.spans)
    if (span.kind == "drop")
      ++counts[span.cause.empty() ? "unknown" : span.cause];
  return {counts.begin(), counts.end()};
}

std::size_t deadline_misses(const Bundle& bundle) {
  return laggards(bundle, 0).size();
}

std::string timeline(const Bundle& bundle, NodeId node) {
  struct Entry {
    double ts;
    std::string text;
  };
  std::vector<Entry> entries;
  std::ostringstream line;
  for (const EventRow& event : bundle.events) {
    if (event.node != node && event.partner != node) continue;
    line.str("");
    line << "event " << event.type;
    if (!event.cause.empty()) line << " (" << event.cause << ")";
    line << " node=" << event.node << " partner=" << event.partner;
    if (event.epoch != 0) line << " epoch=" << event.epoch;
    entries.push_back({event.ts, line.str()});
  }
  for (const SpanRow& span : bundle.spans) {
    if (span.node != node) continue;
    line.str("");
    line << "span " << span.kind << " item=" << span.item;
    if (span.parent != kNoNode) line << " from=" << span.parent;
    line << " hop=" << span.hop;
    if (span.is_receipt())
      line << " latency=" << span.ts - span.published_at;
    if (span.deadline >= 0.0) line << " deadline=" << span.deadline;
    if (!span.cause.empty()) line << " (" << span.cause << ")";
    entries.push_back({span.ts, line.str()});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.ts < b.ts; });
  std::ostringstream out;
  out << "timeline of node " << node << " (" << entries.size()
      << " entries)\n";
  for (const Entry& entry : entries)
    out << "  t=" << entry.ts << "  " << entry.text << '\n';
  return out.str();
}

namespace {

/// bundle.health lines of one run, in stream order.
struct HealthRun {
  std::int64_t run = 0;
  std::int64_t nodes = -1;           ///< from the "run" header, -1 unknown
  const Json* end = nullptr;         ///< the "run_end" line, when present
  std::vector<const Json*> samples;  ///< the "sample" lines
};

std::int64_t nested_int(const Json& line, const char* outer,
                        const char* inner, std::int64_t fallback) {
  const Json* object = line.find(outer);
  return object == nullptr ? fallback : int_or(*object, inner, fallback);
}

double nested_number(const Json& line, const char* outer, const char* inner,
                     double fallback) {
  const Json* object = line.find(outer);
  return object == nullptr ? fallback : number_or(*object, inner, fallback);
}

/// Groups bundle.health by run id, preserving stream order. Lines with
/// no run field (foreign input) land in run 0.
std::vector<HealthRun> health_runs(const Bundle& bundle) {
  std::vector<HealthRun> runs;
  const auto run_for = [&runs](std::int64_t id) -> HealthRun& {
    for (HealthRun& run : runs)
      if (run.run == id) return run;
    runs.push_back(HealthRun{});
    runs.back().run = id;
    return runs.back();
  };
  for (const Json& line : bundle.health) {
    const std::string kind = string_or(line, "kind");
    HealthRun& run = run_for(int_or(line, "run", 0));
    if (kind == "run")
      run.nodes = int_or(line, "nodes", -1);
    else if (kind == "sample")
      run.samples.push_back(&line);
    else if (kind == "run_end")
      run.end = &line;
  }
  return runs;
}

/// The line holding a run's final sample: the run_end's embedded
/// "final", or the last streamed sample.
const Json* final_sample(const HealthRun& run) {
  if (run.end != nullptr)
    if (const Json* final = run.end->find("final"); final != nullptr)
      return final;
  return run.samples.empty() ? nullptr : run.samples.back();
}

}  // namespace

std::string health_report(const Bundle& bundle) {
  std::ostringstream out;
  if (bundle.health.empty()) {
    out << "no health data in this dump (run the bench with --health-out, "
           "or inspect a bundle recorded with --health)\n";
    return out.str();
  }
  const std::vector<HealthRun> runs = health_runs(bundle);
  out << "overlay health (lagover.health.v1): " << runs.size()
      << " run(s)\n";
  for (const HealthRun& run : runs) {
    out << "\nrun " << run.run;
    if (run.nodes >= 0) out << " (" << run.nodes << " node(s))";
    out << '\n';
    if (!run.samples.empty()) {
      // Thin long timelines: at most 40 rows, evenly strided, always
      // keeping the final sample.
      constexpr std::size_t kMaxRows = 40;
      const std::size_t stride =
          (run.samples.size() + kMaxRows - 1) / kMaxRows;
      if (stride > 1)
        out << "  (showing every " << stride << ". of "
            << run.samples.size() << " samples)\n";
      out << "  round  unsat  orphan  depth  slack  util  churn\n";
      for (std::size_t i = 0; i < run.samples.size(); ++i) {
        if (i % stride != 0 && i + 1 != run.samples.size()) continue;
        const Json& sample = *run.samples[i];
        const std::int64_t churn =
            nested_int(sample, "churn", "attaches", 0) +
            nested_int(sample, "churn", "detaches", 0) +
            nested_int(sample, "churn", "offlines", 0) +
            nested_int(sample, "churn", "onlines", 0);
        char util[16];
        std::snprintf(util, sizeof(util), "%.2f",
                      nested_number(sample, "fanout", "utilization", 0.0));
        out << "  " << int_or(sample, "round", 0) << '\t'
            << int_or(sample, "unsatisfied", 0) << '\t'
            << int_or(sample, "orphans", 0) << '\t'
            << nested_int(sample, "depth", "max", 0) << '\t'
            << nested_int(sample, "slack", "min", 0) << '\t' << util << '\t'
            << churn;
        const Json* converged = sample.find("converged");
        if (converged != nullptr && converged->as_bool()) out << "  *";
        out << '\n';
      }
      out << "  (* = all constraints held that round)\n";
    }
    if (run.end != nullptr) {
      const std::int64_t convergence_round =
          int_or(*run.end, "convergence_round", -1);
      if (convergence_round >= 0)
        out << "  converged at round " << convergence_round;
      else
        out << "  did not converge";
      out << " (" << int_or(*run.end, "rounds", 0) << " round(s), "
          << int_or(*run.end, "samples", 0) << " sample(s))\n";
    }
    if (const Json* final = final_sample(run); final != nullptr) {
      out << "  final: " << int_or(*final, "satisfied", 0) << '/'
          << int_or(*final, "online", 0) << " satisfied, "
          << int_or(*final, "orphans", 0) << " orphan(s), max depth "
          << nested_int(*final, "depth", "max", 0) << ", deepest slack "
          << nested_int(*final, "slack", "deepest", 0) << ", utilization ";
      char util[16];
      std::snprintf(util, sizeof(util), "%.2f",
                    nested_number(*final, "fanout", "utilization", 0.0));
      out << util << '\n';
    }
  }
  return out.str();
}

std::string summary(const Bundle& bundle) {
  std::ostringstream out;
  if (bundle.is_postmortem()) {
    out << "post-mortem bundle (" << bundle.schema << ")\n";
    out << "  reason:     " << bundle.reason << '\n';
    out << "  repro:      --seed " << bundle.seed
        << (bundle.flags.empty() ? "" : " | flags: " + bundle.flags) << '\n';
    if (!bundle.fault_plan.empty())
      out << "  fault plan: " << bundle.fault_plan << '\n';
    out << "  violations: " << bundle.violations.size() << '\n';
  } else {
    out << "JSONL telemetry dump\n";
  }
  std::map<std::string, std::size_t> span_kinds;
  std::map<std::uint64_t, std::size_t> items;
  for (const SpanRow& span : bundle.spans) {
    ++span_kinds[span.kind];
    ++items[span.item];
  }
  out << "  events:     " << bundle.events.size() << '\n';
  out << "  spans:      " << bundle.spans.size() << " across "
      << items.size() << " item(s)\n";
  for (const auto& [kind, count] : span_kinds) {
    out << "    " << kind << ": " << count;
    if (kind == "drop") {
      // Per-cause breakdown so overload runs show shed vs queue_full
      // vs link loss at a glance.
      out << " (";
      bool comma = false;
      for (const auto& [cause, cause_count] : drop_causes(bundle)) {
        if (comma) out << ", ";
        comma = true;
        out << cause << ": " << cause_count;
      }
      out << ")";
    }
    out << '\n';
  }
  out << "  log lines:  " << bundle.log_lines << '\n';
  out << "  snapshots:  " << bundle.snapshots.size() << '\n';
  out << "  deadline misses: " << deadline_misses(bundle) << '\n';
  if (!bundle.health.empty()) {
    const std::vector<HealthRun> runs = health_runs(bundle);
    out << "  health:     " << bundle.health.size() << " line(s), "
        << runs.size() << " run(s)\n";
    for (const HealthRun& run : runs) {
      out << "    run " << run.run << ": ";
      const std::int64_t convergence_round =
          run.end == nullptr ? -1
                             : int_or(*run.end, "convergence_round", -1);
      if (convergence_round >= 0)
        out << "converged at round " << convergence_round;
      else
        out << "did not converge";
      if (const Json* final = final_sample(run); final != nullptr)
        out << ", final orphans " << int_or(*final, "orphans", 0)
            << ", unsatisfied " << int_or(*final, "unsatisfied", 0)
            << ", deepest slack "
            << nested_int(*final, "slack", "deepest", 0);
      out << '\n';
    }
  }
  return out.str();
}

bool self_check(std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };

  // A three-node run, hand-written in the postmortem schema: the source
  // publishes item 1 at t=1; node 1 (l=2) polls it at t=2; node 2's
  // timely copy is shed by its overloaded parent at t=2.5 (drop span,
  // cause "shed"); node 2 (l=1) then receives the push at t=3 — one hop
  // too late, so it must show up as the only laggard, attributed to the
  // shed. The snapshot and the edge events disagree about node 2's
  // parent *after* t=5 (it re-attaches under the source), so
  // ancestry_at must give different answers at t=4 and t=6.
  const std::string document =
      "{\"schema\":\"lagover.postmortem.v1\",\"reason\":\"explicit\","
      "\"repro\":{\"seed\":7,\"flags\":\"--peers 2\"},"
      "\"events\":["
      "{\"kind\":\"event\",\"ts\":6.0,\"type\":\"edge_detach\","
      "\"node\":2,\"partner\":1,\"attached\":false},"
      "{\"kind\":\"event\",\"ts\":6.0,\"type\":\"edge_attach\","
      "\"node\":2,\"partner\":0,\"attached\":true}],"
      "\"spans\":["
      "{\"kind\":\"span\",\"item\":1,\"span\":\"publish\",\"node\":0,"
      "\"hop\":0,\"published_at\":1.0,\"start\":1.0,\"ts\":1.0},"
      "{\"kind\":\"span\",\"item\":1,\"span\":\"source_poll\",\"node\":1,"
      "\"parent\":0,\"hop\":1,\"published_at\":1.0,\"start\":1.0,"
      "\"ts\":2.0,\"deadline\":2.0},"
      "{\"kind\":\"span\",\"item\":1,\"span\":\"relay\",\"node\":1,"
      "\"parent\":0,\"hop\":1,\"published_at\":1.0,\"start\":2.0,"
      "\"ts\":2.0},"
      "{\"kind\":\"span\",\"item\":1,\"span\":\"drop\",\"node\":2,"
      "\"parent\":1,\"hop\":2,\"published_at\":1.0,\"start\":2.5,"
      "\"ts\":2.5,\"cause\":\"shed\"},"
      "{\"kind\":\"span\",\"item\":1,\"span\":\"deliver\",\"node\":2,"
      "\"parent\":1,\"hop\":2,\"published_at\":1.0,\"start\":2.0,"
      "\"ts\":3.0,\"deadline\":1.0}],"
      "\"snapshots\":[{\"t\":0.5,\"snapshot\":"
      "\"lagover-snapshot v1\\nsource 2\\nnode 1 2 2 1 0\\n"
      "node 2 1 1 1 1\\n\"}],"
      "\"violations\":[]}";

  Json parsed;
  std::string parse_error;
  if (!Json::parse(document, parsed, &parse_error))
    return fail("self-check document does not parse: " + parse_error);
  Bundle bundle;
  ingest_document(parsed, bundle);
  if (!bundle.is_postmortem() || bundle.seed != 7)
    return fail("bundle metadata decoded wrong");
  if (bundle.spans.size() != 5 || bundle.events.size() != 2)
    return fail("bundle streams decoded wrong");

  const PathResult path = item_path(bundle, 1, 2);
  if (!path.complete || path.hops.size() != 3)
    return fail("item_path: expected complete publish->poll->deliver chain");
  if (path.hops.front().kind != "publish" || path.hops.back().node != 2)
    return fail("item_path: wrong hop order");

  const AncestryResult before = ancestry_at(bundle, 2, 4.0);
  if (!before.ok || before.chain != std::vector<NodeId>{2, 1, 0})
    return fail("ancestry_at(t=4): expected chain 2 -> 1 -> 0");
  const AncestryResult after = ancestry_at(bundle, 2, 6.5);
  if (!after.ok || after.chain != std::vector<NodeId>{2, 0})
    return fail("ancestry_at(t=6.5): expected replayed chain 2 -> 0");

  const std::vector<Laggard> late = laggards(bundle);
  if (late.size() != 1 || late.front().node != 2 ||
      late.front().miss < 1.0 - kSlack || late.front().miss > 1.0 + kSlack)
    return fail("laggards: expected exactly node 2, one unit late");
  if (late.front().drop_cause != "shed")
    return fail("laggards: miss not attributed to the shed drop");
  if (deadline_misses(bundle) != 1)
    return fail("deadline_misses: expected 1");

  const auto causes = drop_causes(bundle);
  if (causes.size() != 1 || causes.front().first != "shed" ||
      causes.front().second != 1)
    return fail("drop_causes: expected exactly {shed: 1}");

  if (timeline(bundle, 1).find("source_poll") == std::string::npos)
    return fail("timeline: node 1 poll receipt missing");
  const std::string overview = summary(bundle);
  if (overview.find("deadline misses: 1") == std::string::npos)
    return fail("summary: miss count missing");
  if (overview.find("drop: 1 (shed: 1)") == std::string::npos)
    return fail("summary: drop-cause breakdown missing");

  // Health stream: one run that converges at round 3, fed through
  // ingest_line (the --health-out path) and rendered by both
  // health_report and the summary health section.
  const char* health_lines[] = {
      "{\"schema\":\"lagover.health.v1\",\"kind\":\"run\",\"run\":1,"
      "\"t\":0.0,\"nodes\":3,\"consumers\":2,\"stability_rounds\":2}",
      "{\"schema\":\"lagover.health.v1\",\"kind\":\"sample\",\"run\":1,"
      "\"round\":1,\"t\":1.0,\"online\":3,\"orphans\":1,\"satisfied\":1,"
      "\"unsatisfied\":1,\"converged\":false,"
      "\"depth\":{\"max\":1,\"mean\":1.0,\"p50\":1,\"p90\":1,\"p99\":1},"
      "\"slack\":{\"min\":1,\"mean\":1.0,\"deepest\":1,\"violated\":0},"
      "\"fanout\":{\"edges\":1,\"capacity\":4,\"saturated\":0,"
      "\"utilization\":0.25},"
      "\"churn\":{\"attaches\":1,\"detaches\":0,\"offlines\":0,"
      "\"onlines\":0},\"messages\":{}}",
      "{\"schema\":\"lagover.health.v1\",\"kind\":\"sample\",\"run\":1,"
      "\"round\":3,\"t\":3.0,\"online\":3,\"orphans\":0,\"satisfied\":2,"
      "\"unsatisfied\":0,\"converged\":true,"
      "\"depth\":{\"max\":2,\"mean\":1.5,\"p50\":1,\"p90\":2,\"p99\":2},"
      "\"slack\":{\"min\":0,\"mean\":1.0,\"deepest\":2,\"violated\":0},"
      "\"fanout\":{\"edges\":2,\"capacity\":4,\"saturated\":0,"
      "\"utilization\":0.5},"
      "\"churn\":{\"attaches\":1,\"detaches\":0,\"offlines\":0,"
      "\"onlines\":0},\"messages\":{}}",
      "{\"schema\":\"lagover.health.v1\",\"kind\":\"run_end\",\"run\":1,"
      "\"rounds\":4,\"converged\":true,\"convergence_round\":3,"
      "\"samples\":4,\"stride\":1,\"final\":{\"round\":4,\"online\":3,"
      "\"orphans\":0,\"satisfied\":2,\"unsatisfied\":0,\"converged\":true,"
      "\"depth\":{\"max\":2},\"slack\":{\"min\":0,\"deepest\":2},"
      "\"fanout\":{\"utilization\":0.5}}}",
  };
  Bundle health_bundle;
  for (const char* text : health_lines) {
    Json line;
    if (!Json::parse(text, line, &parse_error))
      return fail("health line does not parse: " + parse_error);
    ingest_line(line, health_bundle);
  }
  if (health_bundle.health.size() != 4)
    return fail("health: lines not ingested");
  const std::string health = health_report(health_bundle);
  if (health.find("converged at round 3") == std::string::npos)
    return fail("health_report: convergence round missing");
  if (health.find("round  unsat") == std::string::npos)
    return fail("health_report: timeline header missing");
  if (health.find("deepest slack 2") == std::string::npos)
    return fail("health_report: final sample missing");
  const std::string health_overview = summary(health_bundle);
  if (health_overview.find("converged at round 3") == std::string::npos ||
      health_overview.find("deepest slack 2") == std::string::npos)
    return fail("summary: health section missing");
  return true;
}

}  // namespace lagover::tools
