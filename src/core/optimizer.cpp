#include "core/optimizer.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace lagover {

std::vector<std::size_t> free_slot_depth_profile(const Overlay& overlay) {
  std::vector<std::size_t> profile;
  auto add = [&](Delay child_depth, int slots) {
    if (slots <= 0) return;
    if (static_cast<std::size_t>(child_depth) >= profile.size())
      profile.resize(static_cast<std::size_t>(child_depth) + 1, 0);
    profile[static_cast<std::size_t>(child_depth)] +=
        static_cast<std::size_t>(slots);
  };
  add(1, overlay.free_fanout(kSourceId));
  for (NodeId id = 1; id < overlay.node_count(); ++id) {
    if (!overlay.online(id) || !overlay.connected(id)) continue;
    add(overlay.delay_at(id) + 1, overlay.free_fanout(id));
  }
  return profile;
}

std::size_t shallow_free_slots(const Overlay& overlay, Delay max_depth) {
  const auto profile = free_slot_depth_profile(overlay);
  std::size_t total = 0;
  for (std::size_t d = 0;
       d < profile.size() && d <= static_cast<std::size_t>(max_depth); ++d)
    total += profile[d];
  return total;
}

OptimizeReport optimize_shallow_capacity(Overlay& overlay,
                                         bool preserve_greedy_order) {
  OptimizeReport report;
  bool improved = true;
  while (improved) {
    improved = false;
    ++report.passes;
    for (NodeId leaf = 1; leaf < overlay.node_count(); ++leaf) {
      if (!overlay.online(leaf) || !overlay.children(leaf).empty()) continue;
      if (!overlay.has_parent(leaf) || !overlay.connected(leaf)) continue;
      // A leaf with fanout would carry its own open slots down with it.
      if (overlay.free_fanout(leaf) > 0) continue;
      const Delay current = overlay.delay_at(leaf);
      const Delay budget = overlay.latency_of(leaf);
      if (current >= budget) continue;  // already as deep as allowed

      // Deepest legal host strictly below the leaf's current depth.
      NodeId best = kNoNode;
      Delay best_depth = current;
      auto consider = [&](NodeId host) {
        if (host == leaf) return;
        if (!overlay.online(host) || !overlay.connected(host)) return;
        if (overlay.free_fanout(host) <= 0) return;
        const Delay child_depth = overlay.delay_at(host) + 1;
        if (child_depth <= best_depth || child_depth > budget) return;
        if (preserve_greedy_order &&
            overlay.latency_of(host) > overlay.latency_of(leaf))
          return;
        best = host;
        best_depth = child_depth;
      };
      for (NodeId host = 1; host < overlay.node_count(); ++host)
        consider(host);

      if (best == kNoNode) continue;
      overlay.detach(leaf);
      LAGOVER_ASSERT(overlay.can_attach(leaf, best));
      overlay.attach(leaf, best);
      ++report.moves;
      improved = true;
    }
  }
  // The loop counts the final no-move sweep as a pass; report only the
  // productive ones.
  if (report.passes > 0) --report.passes;
  return report;
}

}  // namespace lagover
