// lagover_inspect — offline time-travel queries over telemetry dumps.
//
// Usage:
//   lagover_inspect <dump> path <item> <node>
//   lagover_inspect <dump> ancestry <node> --at <t>
//   lagover_inspect <dump> laggards [item]
//   lagover_inspect <dump> timeline <node>
//   lagover_inspect <dump> health
//   lagover_inspect <dump> summary
//   lagover_inspect --self-check
//
// <dump> is a "lagover.postmortem.v1" bundle (flight-recorder dump) or
// a JSONL stream from --events-out / --spans-out; the format is
// autodetected.
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "tools/inspect.hpp"

namespace {

using lagover::Flags;
using lagover::NodeId;
using namespace lagover::tools;

int usage() {
  std::cerr
      << "usage: lagover_inspect <dump> <query> [args]\n"
         "       lagover_inspect --self-check\n"
         "queries:\n"
         "  path <item> <node>      hop chain the item took to the node\n"
         "  ancestry <node> --at t  the node's path-to-root at sim time t\n"
         "  laggards [item]         receipts that missed their deadline\n"
         "  timeline <node>         everything at one node, in order\n"
         "  health                  convergence timeline + tree quality\n"
         "  summary                 what the dump contains\n";
  return 2;
}

void print_span(const SpanRow& span) {
  std::cout << "  t=" << span.ts << "  " << span.kind << " node="
            << span.node;
  if (span.parent != lagover::kNoNode) std::cout << " from=" << span.parent;
  std::cout << " hop=" << span.hop;
  if (span.is_receipt())
    std::cout << " latency=" << span.ts - span.published_at;
  if (span.deadline >= 0.0) std::cout << " deadline=" << span.deadline;
  if (!span.cause.empty()) std::cout << " (" << span.cause << ")";
  std::cout << '\n';
}

int run_path(const Bundle& bundle, std::uint64_t item, NodeId node) {
  const PathResult result = item_path(bundle, item, node);
  std::cout << "path of item " << item << " to node " << node << ": "
            << (result.complete ? "complete" : "INCOMPLETE") << " ("
            << result.hops.size() << " hop(s))\n";
  for (const SpanRow& span : result.hops) print_span(span);
  if (!result.note.empty()) std::cout << "  note: " << result.note << '\n';
  return result.complete ? 0 : 1;
}

int run_ancestry(const Bundle& bundle, NodeId node, double t) {
  const AncestryResult result = ancestry_at(bundle, node, t);
  if (!result.ok) {
    std::cout << "ancestry of node " << node << " at t=" << t
              << ": FAILED (" << result.note << ")\n";
    return 1;
  }
  std::cout << "ancestry of node " << node << " at t=" << t << " ("
            << (result.snapshot_t >= 0.0
                    ? "snapshot t=" + std::to_string(result.snapshot_t) +
                          " + replay"
                    : "replayed from the initial forest")
            << "):\n  ";
  for (std::size_t i = 0; i < result.chain.size(); ++i) {
    if (i > 0) std::cout << " -> ";
    std::cout << result.chain[i];
  }
  if (result.chain.back() == lagover::kSourceId)
    std::cout << "  [connected]";
  else if (!result.online)
    std::cout << "  [offline]";
  else
    std::cout << "  [detached]";
  std::cout << '\n';
  return 0;
}

int run_laggards(const Bundle& bundle, std::uint64_t item) {
  const std::vector<Laggard> late = laggards(bundle, item);
  if (item != 0)
    std::cout << "laggards of item " << item;
  else
    std::cout << "laggards across all items";
  std::cout << ": " << late.size() << " deadline miss(es)\n";
  for (const Laggard& laggard : late) {
    std::cout << "  node=" << laggard.node << " item=" << laggard.item
              << " via=" << laggard.kind << " latency=" << laggard.latency
              << " deadline=" << laggard.deadline
              << " miss=" << laggard.miss;
    if (!laggard.drop_cause.empty())
      std::cout << " dropped=" << laggard.drop_cause;
    std::cout << '\n';
  }
  return 0;
}

/// A query and its arguments, checked before the dump is read.
struct Query {
  std::string name;
  std::uint64_t item = 0;
  NodeId node = 0;
  double at = 0.0;
};

/// The query after <dump>, or nullopt when its arguments have the wrong
/// shape. Throws InvalidArgument on an unknown flag or a malformed
/// number: every number must be all digits and in range.
std::optional<Query> parse_query(const Flags& flags) {
  const std::vector<std::string> unknown = flags.unknown({"at", "self-check"});
  if (!unknown.empty())
    throw lagover::InvalidArgument("unknown flag --" + unknown.front());
  const auto& args = flags.positional();
  if (args.size() < 2) return std::nullopt;
  Query query{args[1]};
  const auto item = [&](std::size_t i) {
    return lagover::parse_uint(
        args[i], std::numeric_limits<std::uint64_t>::max(), "<item>");
  };
  const auto node = [&](std::size_t i) {
    return static_cast<NodeId>(
        lagover::parse_uint(args[i], lagover::kNoNode, "<node>"));
  };
  if (query.name == "path" && args.size() == 4) {
    query.item = item(2);
    query.node = node(3);
  } else if (query.name == "ancestry" && args.size() == 3 &&
             flags.has("at")) {
    query.node = node(2);
    query.at = flags.get_double("at", 0.0);
  } else if (query.name == "laggards" && args.size() <= 3) {
    if (args.size() == 3) query.item = item(2);
  } else if (query.name == "timeline" && args.size() == 3) {
    query.node = node(2);
  } else if (query.name != "health" && query.name != "summary") {
    return std::nullopt;
  }
  return query;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  std::optional<Query> query;
  try {
    query = parse_query(flags);
  } catch (const lagover::InvalidArgument& error) {
    std::cerr << "lagover_inspect: " << error.what() << '\n';
    return usage();
  }
  if (flags.get_bool("self-check", false)) {
    std::string error;
    if (self_check(&error)) {
      std::cout << "lagover_inspect self-check: ok\n";
      return 0;
    }
    std::cerr << "lagover_inspect self-check FAILED: " << error << '\n';
    return 1;
  }
  if (!query.has_value()) return usage();

  Bundle bundle;
  std::string error;
  if (!load_bundle(flags.positional()[0], bundle, &error)) {
    std::cerr << "lagover_inspect: " << error << '\n';
    return 1;
  }

  if (query->name == "path") return run_path(bundle, query->item, query->node);
  if (query->name == "ancestry")
    return run_ancestry(bundle, query->node, query->at);
  if (query->name == "laggards") return run_laggards(bundle, query->item);
  if (query->name == "timeline") {
    std::cout << timeline(bundle, query->node);
    return 0;
  }
  if (query->name == "health") {
    std::cout << health_report(bundle);
    return bundle.health.empty() ? 1 : 0;
  }
  std::cout << summary(bundle);
  return 0;
}
