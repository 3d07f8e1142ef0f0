#include "routing/distance_vector.h"

#include <cmath>

namespace digs {

DistanceVectorRouting::DistanceVectorRouting(
    Simulator& sim, NodeId id, bool is_access_point, NeighborTable& neighbors,
    const DistanceVectorConfig& config, const Rng& rng, Env env)
    : sim_(sim),
      id_(id),
      is_access_point_(is_access_point),
      neighbors_(neighbors),
      config_(config),
      env_(std::move(env)),
      trickle_(sim, config.trickle, rng.fork("trickle"),
               [this] { send_join_in(); }),
      prune_timer_(sim, seconds(static_cast<std::int64_t>(30)),
                   [this] { prune_soft_state(sim_.now()); }),
      solicit_timer_(
          sim,
          SimDuration{5'000'000 +
                      static_cast<std::int64_t>(
                          rng.fork("solicit").uniform(0.0, 4e6))},
          [this] {
            if (started_ && !joined()) {
              env_.send_routing(make_frame(FrameType::kJoinSolicit, id_,
                                           kNoNode, JoinSolicitPayload{}));
            }
          }),
      confirm_timer_(
          sim,
          SimDuration{8'000'000 +
                      static_cast<std::int64_t>(
                          rng.fork("confirm").uniform(0.0, 3e6))},
          [this] {
            if (started_) confirm_parents(sim_.now());
          }) {}

void DistanceVectorRouting::start(SimTime now) {
  started_ = true;
  if (!is_access_point_) {
    solicit_timer_.start();
    confirm_timer_.start();
  }
  if (is_access_point_) {
    // Algorithm 1: access points initialize rank to 1 and ETXw to 0 and
    // begin broadcasting join-in messages.
    rank_ = kAccessPointRank;
    cost_ = 0.0;
    trickle_.start();
    topology_changed(now);
  }
  prune_timer_.start();
}

void DistanceVectorRouting::stop(SimTime now) {
  started_ = false;
  trickle_.stop();
  prune_timer_.stop();
  solicit_timer_.stop();
  confirm_timer_.stop();
  best_parent_ = kNoNode;
  second_best_parent_ = kNoNode;
  bp_confirmed_ = ConfirmedRole::kNone;
  sbp_confirmed_ = ConfirmedRole::kNone;
  if (!is_access_point_) {
    rank_ = NeighborInfo::kInfiniteRank;
    cost_ = NeighborInfo::kInfiniteEtx;
  }
  // Children are soft state refreshed by callbacks; keep them so a brief
  // desync does not orphan downstream nodes.
  topology_changed(now);
}

void DistanceVectorRouting::power_down(SimTime now) {
  stop(now);
  // Power loss is not a brief desync: the child table dies with the node,
  // so a revival restarts cold.
  children_.clear();
}

void DistanceVectorRouting::handle_frame(const Frame& frame,
                                         double /*rss_dbm*/, SimTime now) {
  switch (frame.type) {
    case FrameType::kJoinIn: {
      if (is_access_point_) return;  // APs are the DODAG roots
      // Poisoning: our parent advertising an infinite rank equals failure.
      if (frame.as<JoinInPayload>().rank == NeighborInfo::kInfiniteRank) {
        if (frame.src == best_parent_ || frame.src == second_best_parent_) {
          handle_parent_failure(frame.src, now);
        }
        return;
      }
      if (is_child(frame.src)) return;  // our own subtree cannot be a parent
      process_join_in(frame.src, now);
      break;
    }
    case FrameType::kJoinSolicit:
      // A parentless neighbor asks for advertisements: answer promptly by
      // resetting Trickle (RFC 6550 DIS semantics).
      if (joined()) trickle_.hear_inconsistent();
      break;
    case FrameType::kJoinedCallback:
      if (frame.dst == id_) {
        process_callback(frame.src, frame.as<JoinedCallbackPayload>(), now);
      }
      break;
    default:
      break;
  }
}

void DistanceVectorRouting::on_tx_result(NodeId peer, FrameType type,
                                         bool acked, SimTime now) {
  if (peer == best_parent_) last_bp_feedback_ = now;
  if (peer == second_best_parent_) last_sbp_feedback_ = now;
  if (type == FrameType::kJoinedCallback && acked) {
    // The parent acknowledged our role announcement: its RX cells for the
    // matching attempt slots are (or will be, on its next rebuild) in
    // place, so the scheduler may now use those attempts.
    bool changed = false;
    if (peer == best_parent_ && bp_confirmed_ != ConfirmedRole::kPrimary) {
      bp_confirmed_ = ConfirmedRole::kPrimary;
      changed = true;
    } else if (peer == second_best_parent_ &&
               sbp_confirmed_ != ConfirmedRole::kBackup) {
      sbp_confirmed_ = ConfirmedRole::kBackup;
      changed = true;
    }
    if (changed) topology_changed(now);
    return;
  }
  if (acked) return;
  if (peer != best_parent_ && peer != second_best_parent_) return;
  const NeighborInfo* info = neighbors_.find(peer);
  if (info == nullptr) return;
  if (info->consecutive_noacks >= config_.parent_fail_noacks ||
      info->etx.value() >= config_.parent_fail_etx) {
    handle_parent_failure(peer, now);
  }
}

void DistanceVectorRouting::touch_child(NodeId from, SimTime now) {
  for (ChildEntry& child : children_) {
    if (child.id == from) {
      child.last_refresh = now;
      return;
    }
  }
}

void DistanceVectorRouting::process_callback(
    NodeId from, const JoinedCallbackPayload& payload, SimTime now) {
  for (ChildEntry& child : children_) {
    if (child.id == from) {
      const bool changed = child.as_best != payload.as_best_parent;
      child.as_best = payload.as_best_parent;
      child.last_refresh = now;
      if (changed) topology_changed(now);
      return;
    }
  }
  children_.push_back(ChildEntry{from, payload.as_best_parent, now});
  topology_changed(now);
}

void DistanceVectorRouting::prune_soft_state(SimTime now) {
  const auto before = children_.size();
  std::erase_if(children_, [&](const ChildEntry& child) {
    return now - child.last_refresh > config_.child_timeout;
  });
  if (children_.size() != before) topology_changed(now);
}

double DistanceVectorRouting::accumulated(NodeId id) const {
  const NeighborInfo* info = neighbors_.find(id);
  return info == nullptr ? NeighborInfo::kInfiniteEtx
                         : info->accumulated_etx();
}

void DistanceVectorRouting::invalidate_neighbor(NodeId id) {
  if (NeighborInfo* info = neighbors_.find(id)) {
    info->advertised_etxw = NeighborInfo::kInfiniteEtx;
    info->rank = NeighborInfo::kInfiniteRank;
  }
}

bool DistanceVectorRouting::is_child(NodeId id) const {
  for (const ChildEntry& child : children_) {
    if (child.id == id) return true;
  }
  return false;
}

bool DistanceVectorRouting::recompute(SimTime /*now*/) {
  const std::uint16_t old_rank = rank_;
  const double old_cost = cost_;
  if (is_access_point_) {
    rank_ = kAccessPointRank;
    cost_ = 0.0;
    return false;
  }
  if (!best_parent_.valid()) {
    rank_ = NeighborInfo::kInfiniteRank;
    cost_ = NeighborInfo::kInfiniteEtx;
    return old_rank != rank_;
  }
  const NeighborInfo* best = neighbors_.find(best_parent_);
  if (best == nullptr || best->rank == NeighborInfo::kInfiniteRank) {
    return false;
  }
  rank_ = static_cast<std::uint16_t>(best->rank + 1);
  cost_ = path_cost(*best);
  return old_rank != rank_ ||
         std::abs(old_cost - cost_) > config_.cost_epsilon;
}

void DistanceVectorRouting::after_update(bool changed, SimTime now) {
  if (!joined()) return;
  if (!trickle_.running()) trickle_.start();
  if (changed) {
    trickle_.hear_inconsistent();
    on_routes_changed();
    topology_changed(now);
  } else {
    trickle_.hear_consistent();
  }
}

NodeId DistanceVectorRouting::fallback_parent() const {
  const NeighborInfo* candidate = neighbors_.best(
      [](const NeighborInfo& n) { return n.accumulated_etx(); },
      [this](const NeighborInfo& n) {
        return n.id == id_ || is_child(n.id) ||
               n.advertised_etxw >= NeighborInfo::kInfiniteEtx;
      });
  return candidate != nullptr ? candidate->id : kNoNode;
}

void DistanceVectorRouting::detach(SimTime now) {
  send_poison();
  trickle_.stop();
  topology_changed(now);
}

void DistanceVectorRouting::send_join_in() {
  if (!joined()) return;
  JoinInPayload payload;
  payload.rank = rank_;
  payload.etxw = cost_;
  env_.send_routing(make_frame(FrameType::kJoinIn, id_, kNoNode, payload));
}

void DistanceVectorRouting::send_poison() {
  JoinInPayload payload;
  payload.rank = NeighborInfo::kInfiniteRank;
  payload.etxw = NeighborInfo::kInfiniteEtx;
  env_.send_routing(make_frame(FrameType::kJoinIn, id_, kNoNode, payload));
}

void DistanceVectorRouting::send_callback(NodeId parent, bool as_best) {
  if (!parent.valid()) return;
  JoinedCallbackPayload payload;
  payload.as_best_parent = as_best;
  env_.send_routing(
      make_frame(FrameType::kJoinedCallback, id_, parent, payload));
}

}  // namespace digs
