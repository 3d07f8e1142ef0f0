// RPL-like single-parent distance-vector routing: the baseline the paper
// compares against (Orchestra runs on top of it). Each node keeps one
// preferred parent (minimum accumulated ETX with hysteresis, candidate rank
// strictly below its own), advertises its accumulated ETX in Trickle-paced
// join-ins (DIO equivalents), and repairs by re-selecting a parent after
// consecutive ACK failures — with rank poisoning when it detaches. Pacing,
// failure detection and the child table are DiGS's own (the shared
// DistanceVectorRouting core), for a fair baseline.
//
// There is deliberately no second-best parent and no backup route: the
// repair gap this creates under interference and node failure is the
// phenomenon measured in paper Figs. 4, 5, 9 and 11.
#pragma once

#include "routing/distance_vector.h"

namespace digs {

using RplRoutingConfig = DistanceVectorConfig;

class RplRouting final : public DistanceVectorRouting {
 public:
  RplRouting(Simulator& sim, NodeId id, bool is_access_point,
             NeighborTable& neighbors, const RplRoutingConfig& config,
             Rng rng, Env env);

 private:
  void process_join_in(NodeId from, SimTime now) override;
  void handle_parent_failure(NodeId failed, SimTime now) override;
  /// Accumulated ETX through the parent.
  double path_cost(const NeighborInfo& best) override;
  /// One callback when the parent is unconfirmed or its link idle: a retry
  /// of the announcement, or a keepalive probing the parent (TSCH
  /// keepalive semantics) and refreshing its child table.
  void confirm_parents(SimTime now) override;
  /// Makes `parent` the (unconfirmed) preferred parent and announces it.
  void adopt(NodeId parent);
};

}  // namespace digs
