#include "routing/rpl_routing.h"

#include <algorithm>

namespace digs {

RplRouting::RplRouting(Simulator& sim, NodeId id, bool is_access_point,
                       NeighborTable& neighbors,
                       const RplRoutingConfig& config, Rng rng, Env env)
    : DistanceVectorRouting(sim, id, is_access_point, neighbors, config, rng,
                            std::move(env)) {}

void RplRouting::adopt(NodeId parent) {
  best_parent_ = parent;
  bp_confirmed_ = ConfirmedRole::kNone;
  send_callback(parent, /*as_best=*/true);
}

double RplRouting::path_cost(const NeighborInfo& best) {
  return best.accumulated_etx();
}

void RplRouting::process_join_in(NodeId from, SimTime now) {
  const NodeId old_parent = best_parent_;
  if (!best_parent_.valid()) {
    adopt(from);
  } else if (from != best_parent_) {
    const NeighborInfo* candidate = neighbors_.find(from);
    const bool rank_ok = candidate != nullptr && candidate->rank < rank_;
    const double cost_parent = accumulated(best_parent_);
    const double hysteresis =
        std::max(config_.parent_switch_hysteresis, 0.15 * cost_parent);
    if (rank_ok && accumulated(from) + hysteresis < cost_parent) {
      adopt(from);
      ++parent_switches_;
    }
  }

  const bool recomputed = recompute(now);
  after_update(best_parent_ != old_parent || recomputed, now);
}

void RplRouting::confirm_parents(SimTime now) {
  if (!best_parent_.valid()) return;
  if (bp_confirmed_ != ConfirmedRole::kPrimary ||
      now - last_bp_feedback_ > kParentIdle) {
    send_callback(best_parent_, /*as_best=*/true);
    last_bp_feedback_ = now;
  }
}

void RplRouting::handle_parent_failure(NodeId failed, SimTime now) {
  invalidate_neighbor(failed);
  best_parent_ = kNoNode;
  bp_confirmed_ = ConfirmedRole::kNone;
  recompute(now);

  const NodeId next = fallback_parent();
  if (!next.valid()) {
    detach(now);
    return;
  }
  adopt(next);
  ++parent_switches_;
  recompute(now);
  after_update(true, now);
}

}  // namespace digs
