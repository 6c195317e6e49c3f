#include "telemetry/flight_recorder.hpp"

#include <fstream>
#include <utility>

#include "telemetry/export.hpp"

namespace lagover::telemetry {

const char* to_string(TraceEventType type) noexcept {
  switch (type) {
    case TraceEventType::kChurnLeave: return "churn_leave";
    case TraceEventType::kChurnJoin: return "churn_join";
    case TraceEventType::kMaintenanceDetach: return "maintenance_detach";
    case TraceEventType::kSourceContact: return "source_contact";
    case TraceEventType::kInteraction: return "interaction";
    case TraceEventType::kOracleEmpty: return "oracle_empty";
    case TraceEventType::kInteractionFailed: return "interaction_failed";
    case TraceEventType::kSourceContactFailed: return "source_contact_failed";
    case TraceEventType::kParentLost: return "parent_lost";
    case TraceEventType::kCrash: return "crash";
    case TraceEventType::kRejoin: return "rejoin";
    case TraceEventType::kEpochFenced: return "epoch_fenced";
    case TraceEventType::kFailoverAttach: return "failover_attach";
    case TraceEventType::kParentQuarantined: return "parent_quarantined";
    case TraceEventType::kEdgeAttach: return "edge_attach";
    case TraceEventType::kEdgeDetach: return "edge_detach";
    case TraceEventType::kNodeOffline: return "node_offline";
    case TraceEventType::kNodeOnline: return "node_online";
  }
  return "unknown";
}

Json event_to_json(const TraceEvent& event) {
  Json line = Json::object();
  line.set("kind", Json::string("event"));
  line.set("ts", Json::number(event.when));
  line.set("type", Json::string(to_string(event.type)));
  if (event.cause[0] != '\0') line.set("cause", Json::string(event.cause));
  line.set("node", Json::integer(event.subject));
  line.set("partner", Json::integer(event.partner));
  if (event.epoch != 0) line.set("epoch", Json::integer(event.epoch));
  line.set("attached", Json::boolean(event.attached));
  return line;
}

Json span_to_json(const ItemSpan& span) {
  Json line = Json::object();
  line.set("kind", Json::string("span"));
  line.set("schema", Json::string("lagover.spans.v1"));
  line.set("item", Json::integer(static_cast<std::int64_t>(span.item)));
  line.set("span", Json::string(to_string(span.kind)));
  line.set("node", Json::integer(span.node));
  if (span.parent != 0xffffffffu)
    line.set("parent", Json::integer(span.parent));
  line.set("hop", Json::integer(span.hop));
  if (span.feed != 0) line.set("feed", Json::integer(span.feed));
  line.set("published_at", Json::number(span.published_at));
  line.set("start", Json::number(span.start));
  line.set("ts", Json::number(span.ts));
  if (span.deadline >= 0.0) line.set("deadline", Json::number(span.deadline));
  if (span.epoch != 0) line.set("epoch", Json::integer(span.epoch));
  if (span.cause[0] != '\0') line.set("cause", Json::string(span.cause));
  return line;
}

Json log_to_json(const LogRecord& record) {
  Json line = Json::object();
  line.set("kind", Json::string("log"));
  line.set("ts", Json::number(record.sim_time));
  line.set("wall_ns", Json::integer(static_cast<std::int64_t>(record.wall_ns)));
  line.set("level", Json::integer(record.level));
  line.set("message", Json::string(record.message));
  return line;
}

FlightRecorder::FlightRecorder() : FlightRecorder(Config()) {}

FlightRecorder::FlightRecorder(Config config) : config_(config) {
  // The handlers run under their bus's lock on whichever thread
  // published, so each takes the recorder mutex (order: bus -> flight
  // recorder, never the reverse).
  event_sub_ = event_bus().subscribe([this](const TraceEvent& event) {
    MutexLock lock(&mutex_);
    retain(events_, config_.event_capacity, event);
  });
  span_sub_ = span_bus().subscribe([this](const ItemSpan& span) {
    MutexLock lock(&mutex_);
    retain(spans_, config_.span_capacity, span);
  });
  log_sub_ = log_bus().subscribe([this](const LogRecord& record) {
    MutexLock lock(&mutex_);
    retain(logs_, config_.log_capacity, record);
  });
}

FlightRecorder::~FlightRecorder() {
  event_bus().unsubscribe(event_sub_);
  span_bus().unsubscribe(span_sub_);
  log_bus().unsubscribe(log_sub_);
}

void FlightRecorder::note_snapshot(double t, const std::string& snapshot_text) {
  MutexLock lock(&mutex_);
  // Delta retention: an unchanged overlay never consumes a ring slot,
  // so the window covers the last N *state changes*, not the last N
  // sampling ticks.
  if (!snapshots_.empty() && snapshots_.back().text == snapshot_text) return;
  retain(snapshots_, config_.snapshot_capacity,
         SnapshotRecord{t, snapshot_text});
}

void FlightRecorder::note_health(const Json& sample) {
  MutexLock lock(&mutex_);
  retain(health_, config_.health_capacity, sample);
}

void FlightRecorder::note_violation(const ViolationNote& note) {
  // Decide under the lock, dump outside it: dump() re-enters to_json()
  // (which takes this mutex) and the metrics registry.
  std::string dump_to;
  {
    MutexLock lock(&mutex_);
    retain(violations_, config_.violation_capacity, note);
    ++violations_total_;
    if (violations_total_ == 1 && !dump_path_.empty()) dump_to = dump_path_;
  }
  if (dump_to.empty()) return;
  const bool ok = dump(dump_to, "invariant_violation");
  MutexLock lock(&mutex_);
  dumped_ = ok;
}

Json FlightRecorder::to_json(const std::string& reason) const {
  MutexLock lock(&mutex_);
  Json root = Json::object();
  root.set("schema", Json::string("lagover.postmortem.v1"));
  root.set("reason", Json::string(reason));
  root.set("sim_time", Json::number(sim_now()));

  Json repro = Json::object();
  repro.set("seed", Json::integer(static_cast<std::int64_t>(seed_)));
  repro.set("flags", Json::string(flags_));
  root.set("repro", std::move(repro));
  if (!fault_plan_.empty())
    root.set("fault_plan", Json::string(fault_plan_));

  Json events = Json::array();
  for (const TraceEvent& event : events_)
    events.push_back(event_to_json(event));
  root.set("events", std::move(events));

  Json spans = Json::array();
  for (const ItemSpan& span : spans_) spans.push_back(span_to_json(span));
  root.set("spans", std::move(spans));

  Json logs = Json::array();
  for (const LogRecord& record : logs_) logs.push_back(log_to_json(record));
  root.set("logs", std::move(logs));

  Json snapshots = Json::array();
  for (const SnapshotRecord& record : snapshots_) {
    Json entry = Json::object();
    entry.set("t", Json::number(record.t));
    entry.set("snapshot", Json::string(record.text));
    snapshots.push_back(std::move(entry));
  }
  root.set("snapshots", std::move(snapshots));

  Json violations = Json::array();
  for (const ViolationNote& note : violations_) {
    Json entry = Json::object();
    entry.set("ts", Json::number(note.ts));
    entry.set("invariant", Json::string(note.invariant));
    if (!note.cause.empty()) entry.set("cause", Json::string(note.cause));
    entry.set("node", Json::integer(note.node));
    entry.set("parent", Json::integer(note.parent));
    if (!note.detail.empty()) entry.set("detail", Json::string(note.detail));
    violations.push_back(std::move(entry));
  }
  root.set("violations", std::move(violations));
  root.set("violations_total",
           Json::integer(static_cast<std::int64_t>(violations_total_)));

  Json health = Json::array();
  for (const Json& sample : health_) health.push_back(sample);
  root.set("health", std::move(health));

  root.set("metrics", metrics_summary_json());
  return root;
}

bool FlightRecorder::dump(const std::string& path,
                          const std::string& reason) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json(reason).dump() << '\n';
  return static_cast<bool>(out);
}

}  // namespace lagover::telemetry
