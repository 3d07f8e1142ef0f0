#include "core/central_manager.h"

#include <vector>

#include "core/network.h"
#include "net/etx.h"
#include "routing/centralized_routing.h"

namespace digs {

CentralManager::CentralManager(Network& network,
                               const CentralManagerConfig& config)
    : network_(network),
      config_(config),
      model_(ManagerReactionModel::fit(ManagerReactionModel::paper_anchors())) {}

void CentralManager::start() {
  pending_ = network_.sim().schedule_after(
      config_.initial_install_after, [this] { recompute_and_install(); });
}

SimDuration CentralManager::reaction_time() const {
  // Depth from the last computed routes would be circular; estimate from
  // the alive node count with the mean depth of the calibration anchors
  // (~2.2 hops/device), matching how the Fig. 3 bench reports it.
  int alive = 0;
  for (std::uint16_t i = 0; i < network_.size(); ++i) {
    if (network_.node(NodeId{i}).alive()) ++alive;
  }
  const int depth = static_cast<int>(2.2 * alive);
  return SimDuration{static_cast<std::int64_t>(
      model_.predict(alive, depth).total_s() * 1e6)};
}

void CentralManager::notify_dynamics() {
  if (pending_.pending()) return;  // coalesce into the in-flight update
  SimDuration delay = config_.detection_delay;
  if (config_.model_reaction_time) delay = delay + reaction_time();
  pending_ = network_.sim().schedule_after(
      delay, [this] { recompute_and_install(); });
}

void CentralManager::recompute_and_install() {
  const SimTime now = network_.sim().now();
  const std::uint16_t n = static_cast<std::uint16_t>(network_.size());
  const std::uint16_t aps = network_.config().num_access_points;

  // Global topology snapshot over alive nodes (the manager has collected
  // health/topology reports; the reaction-time model already charged the
  // time that takes).
  TopologySnapshot topo;
  topo.num_nodes = n;
  topo.num_access_points = aps;
  topo.etx.assign(n, std::vector<double>(n, TopologySnapshot::kNoLink));
  for (std::uint16_t a = 0; a < n; ++a) {
    if (!network_.node(NodeId{a}).alive()) continue;
    for (std::uint16_t b = static_cast<std::uint16_t>(a + 1); b < n; ++b) {
      if (!network_.node(NodeId{b}).alive()) continue;
      const double rss =
          network_.medium().mean_rss_dbm(NodeId{a}, NodeId{b}, 8,
                                         network_.config().node.mac.tx_power_dbm);
      if (rss < config_.min_rss_dbm) continue;
      const double etx = etx_from_rss(rss);
      topo.etx[a][b] = etx;
      topo.etx[b][a] = etx;
    }
  }
  const GraphRoutingResult routes = compute_graph_routes(topo);

  // Child tables are the inverse of the parent assignments.
  std::vector<std::vector<ChildEntry>> children(n);
  for (std::uint16_t v = aps; v < n; ++v) {
    const GraphRoute& route = routes.routes[v];
    if (route.best_parent.valid()) {
      children[route.best_parent.value].push_back(
          ChildEntry{NodeId{v}, true, now});
    }
    if (route.second_best_parent.valid()) {
      children[route.second_best_parent.value].push_back(
          ChildEntry{NodeId{v}, false, now});
    }
  }

  for (std::uint16_t v = 0; v < n; ++v) {
    if (!network_.node(NodeId{v}).alive()) continue;
    auto* routing = dynamic_cast<CentralizedRouting*>(
        &network_.node(NodeId{v}).routing());
    if (routing == nullptr) continue;
    const GraphRoute& route = routes.routes[v];
    routing->set_assignment(
        route.best_parent, route.second_best_parent,
        static_cast<std::uint16_t>(v < aps ? kAccessPointRank
                                           : route.depth + 1),
        std::move(children[v]), now);
  }
  ++installs_;
}

}  // namespace digs
