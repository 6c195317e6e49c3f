#include "telemetry/export.hpp"

#include "telemetry/flight_recorder.hpp"

namespace lagover::telemetry {

void TimeseriesSampler::sample(double t) {
  // Benches run trials back-to-back and every trial's clock starts at
  // zero: a non-advancing timestamp means a new run began.
  if (samples_ > 0 && t <= last_t_) clear();
  last_t_ = t;
  ++samples_;
  registry_.for_each_counter(
      [&](const std::string& name, const Counter& counter) {
        series_[name].add(t, static_cast<double>(counter.value()));
      });
  registry_.for_each_gauge([&](const std::string& name, const Gauge& gauge) {
    series_[name].add(t, gauge.value());
  });
}

void TimeseriesSampler::clear() {
  series_.clear();
  samples_ = 0;
  last_t_ = 0.0;
}

Json TimeseriesSampler::to_json(std::size_t max_points) const {
  Json root = Json::object();
  for (const auto& [name, series] : series_) {
    const TimeSeries compact = series.downsample(max_points);
    Json points = Json::array();
    for (std::size_t i = 0; i < compact.size(); ++i) {
      Json point = Json::array();
      point.push_back(Json::number(compact.time_at(i)));
      point.push_back(Json::number(compact.value_at(i)));
      points.push_back(std::move(point));
    }
    root.set(name, std::move(points));
  }
  return root;
}

JsonlEventWriter::JsonlEventWriter(const std::string& path, bool spans_only)
    : out_(path) {
  span_sub_ =
      span_bus().subscribe([this](const ItemSpan& span) { on_span(span); });
  if (spans_only) return;
  subscribed_events_ = true;
  event_sub_ = event_bus().subscribe(
      [this](const TraceEvent& event) { on_event(event); });
  log_sub_ =
      log_bus().subscribe([this](const LogRecord& record) { on_log(record); });
}

JsonlEventWriter::~JsonlEventWriter() {
  span_bus().unsubscribe(span_sub_);
  if (subscribed_events_) {
    event_bus().unsubscribe(event_sub_);
    log_bus().unsubscribe(log_sub_);
  }
}

void JsonlEventWriter::on_event(const TraceEvent& event) {
  MutexLock lock(&mutex_);
  if (!out_) return;
  out_ << event_to_json(event).dump() << '\n';
  ++lines_;
}

void JsonlEventWriter::on_span(const ItemSpan& span) {
  MutexLock lock(&mutex_);
  if (!out_) return;
  out_ << span_to_json(span).dump() << '\n';
  ++lines_;
}

void JsonlEventWriter::on_log(const LogRecord& record) {
  MutexLock lock(&mutex_);
  if (!out_) return;
  out_ << log_to_json(record).dump() << '\n';
  ++lines_;
}

namespace {

constexpr int kSimPid = 1;
constexpr int kWallPid = 2;
constexpr int kItemPid = 3;

/// Chrome trace timestamps are microseconds; one simulated time unit
/// maps to one second so Perfetto's zoom levels stay usable.
double sim_to_us(double sim_time) { return sim_time * 1e6; }

Json process_name_metadata(int pid, const char* name) {
  Json args = Json::object();
  args.set("name", Json::string(name));
  Json event = Json::object();
  event.set("name", Json::string("process_name"));
  event.set("ph", Json::string("M"));
  event.set("pid", Json::integer(pid));
  event.set("tid", Json::integer(0));
  event.set("args", std::move(args));
  return event;
}

}  // namespace

ChromeTraceWriter::ChromeTraceWriter() {
  events_.push_back(process_name_metadata(kSimPid, "sim (1 unit = 1s)"));
  events_.push_back(process_name_metadata(kWallPid, "wall (profiler)"));
  events_.push_back(process_name_metadata(kItemPid, "items (1 row = 1 item)"));
  event_sub_ = event_bus().subscribe(
      [this](const TraceEvent& event) { on_event(event); });
  span_sub_ =
      span_bus().subscribe([this](const ItemSpan& span) { on_span(span); });
  log_sub_ =
      log_bus().subscribe([this](const LogRecord& record) { on_log(record); });
  previous_sink_ = Profiler::instance().sink();
  Profiler::instance().set_sink(this);
}

ChromeTraceWriter::~ChromeTraceWriter() {
  event_bus().unsubscribe(event_sub_);
  span_bus().unsubscribe(span_sub_);
  log_bus().unsubscribe(log_sub_);
  if (Profiler::instance().sink() == this)
    Profiler::instance().set_sink(previous_sink_);
}

void ChromeTraceWriter::on_event(const TraceEvent& event) {
  MutexLock lock(&mutex_);
  Json args = Json::object();
  args.set("node", Json::integer(event.subject));
  args.set("partner", Json::integer(event.partner));
  if (event.epoch != 0) args.set("epoch", Json::integer(event.epoch));
  if (event.cause[0] != '\0') args.set("cause", Json::string(event.cause));
  args.set("attached", Json::boolean(event.attached));
  Json instant = Json::object();
  instant.set("name", Json::string(to_string(event.type)));
  instant.set("cat", Json::string("overlay"));
  instant.set("ph", Json::string("i"));
  instant.set("s", Json::string("t"));  // thread-scoped instant
  instant.set("ts", Json::number(sim_to_us(event.when)));
  instant.set("pid", Json::integer(kSimPid));
  instant.set("tid", Json::integer(event.subject));
  instant.set("args", std::move(args));
  events_.push_back(std::move(instant));
}

void ChromeTraceWriter::on_span(const ItemSpan& span) {
  MutexLock lock(&mutex_);
  Json args = Json::object();
  args.set("trace_id", Json::integer(static_cast<std::int64_t>(span.item)));
  args.set("node", Json::integer(span.node));
  if (span.parent != 0xffffffffu) {
    args.set("parent", Json::integer(span.parent));
    // Parent span id mirrors the JSONL schema: span (item, node)'s
    // parent span is (item, parent).
    args.set("parent_span", Json::string(std::to_string(span.item) + ":" +
                                         std::to_string(span.parent)));
  }
  args.set("hop", Json::integer(span.hop));
  if (span.feed != 0) args.set("feed", Json::integer(span.feed));
  if (span.deadline >= 0.0) args.set("deadline", Json::number(span.deadline));
  if (span.epoch != 0) args.set("epoch", Json::integer(span.epoch));
  if (span.cause[0] != '\0') args.set("cause", Json::string(span.cause));
  Json event = Json::object();
  event.set("name", Json::string(std::string(to_string(span.kind)) + " @" +
                                 std::to_string(span.node)));
  event.set("cat", Json::string("item"));
  const bool instant = span.ts <= span.start;
  if (instant) {
    event.set("ph", Json::string("i"));
    event.set("s", Json::string("t"));
    event.set("ts", Json::number(sim_to_us(span.ts)));
  } else {
    // One X slice per hop: rows keyed by item render a dissemination
    // wave as a flame of hops.
    event.set("ph", Json::string("X"));
    event.set("ts", Json::number(sim_to_us(span.start)));
    event.set("dur", Json::number(sim_to_us(span.ts - span.start)));
  }
  event.set("pid", Json::integer(kItemPid));
  event.set("tid", Json::integer(static_cast<std::int64_t>(span.item)));
  event.set("args", std::move(args));
  events_.push_back(std::move(event));
}

void ChromeTraceWriter::on_log(const LogRecord& record) {
  MutexLock lock(&mutex_);
  Json args = Json::object();
  args.set("message", Json::string(record.message));
  args.set("level", Json::integer(record.level));
  Json event = Json::object();
  event.set("name", Json::string("log"));
  event.set("cat", Json::string("log"));
  event.set("ph", Json::string("i"));
  event.set("s", Json::string("g"));  // global instant: full-height line
  event.set("ts", Json::number(sim_to_us(record.sim_time)));
  event.set("pid", Json::integer(kSimPid));
  event.set("tid", Json::integer(0));
  event.set("args", std::move(args));
  events_.push_back(std::move(event));
}

void ChromeTraceWriter::scope_complete(const ProfileSite& site,
                                       std::uint64_t start_wall_ns,
                                       std::uint64_t duration_ns,
                                       double sim_time) {
  MutexLock lock(&mutex_);
  Json args = Json::object();
  args.set("sim_time", Json::number(sim_time));
  Json event = Json::object();
  event.set("name", Json::string(site.name));
  event.set("cat", Json::string("profile"));
  event.set("ph", Json::string("X"));  // complete (duration) event
  event.set("ts", Json::number(static_cast<double>(start_wall_ns) / 1e3));
  event.set("dur", Json::number(static_cast<double>(duration_ns) / 1e3));
  event.set("pid", Json::integer(kWallPid));
  event.set("tid", Json::integer(0));
  event.set("args", std::move(args));
  events_.push_back(std::move(event));
}

bool ChromeTraceWriter::write(const std::string& path) const {
  MutexLock lock(&mutex_);
  std::ofstream out(path);
  if (!out) return false;
  Json trace_events = Json::array();
  for (const Json& event : events_) trace_events.push_back(event);
  Json root = Json::object();
  root.set("traceEvents", std::move(trace_events));
  root.set("displayTimeUnit", Json::string("ms"));
  out << root.dump() << '\n';
  return static_cast<bool>(out);
}

Json metrics_summary_json(const TimeseriesSampler* sampler,
                          bool include_buckets) {
  Json root = MetricsRegistry::instance().to_json(include_buckets);
  root.set("profile", Profiler::instance().to_json());
  if (sampler != nullptr && sampler->samples() > 0)
    root.set("timeseries", sampler->to_json());
  return root;
}

}  // namespace lagover::telemetry
