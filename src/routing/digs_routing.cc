#include "routing/digs_routing.h"

#include <algorithm>

namespace digs {

DigsRouting::DigsRouting(Simulator& sim, NodeId id, bool is_access_point,
                         NeighborTable& neighbors,
                         const DigsRoutingConfig& config, Rng rng, Env env)
    : DistanceVectorRouting(sim, id, is_access_point, neighbors, config, rng,
                            std::move(env)),
      digs_config_(config),
      advert_timer_(
          sim,
          SimDuration{config.dest_advert_period.us +
                      static_cast<std::int64_t>(
                          rng.fork("advert").uniform(
                              0.0, 0.4 * config.dest_advert_period.us))},
          [this] {
            if (started_) send_dest_advert();
          }) {}

void DigsRouting::start(SimTime now) {
  DistanceVectorRouting::start(now);
  if (!is_access_point_ && digs_config_.enable_downlink) {
    advert_timer_.start();
  }
}

void DigsRouting::stop(SimTime now) {
  advert_timer_.stop();
  advert_soon_.cancel();
  DistanceVectorRouting::stop(now);
}

void DigsRouting::power_down(SimTime now) {
  DistanceVectorRouting::power_down(now);
  // The descendant table dies with the node too. advert_seq_ survives — it
  // must stay monotonic across reboots so ancestors prefer the revived
  // node's fresh adverts over stale pre-crash branches (freshest-wins).
  descendants_.clear();
}

void DigsRouting::handle_frame(const Frame& frame, double rss_dbm,
                               SimTime now) {
  if (frame.type != FrameType::kDestAdvert) {
    DistanceVectorRouting::handle_frame(frame, rss_dbm, now);
    return;
  }
  if (frame.dst == id_ && digs_config_.enable_downlink) {
    process_dest_advert(frame.src, frame.as<DestAdvertPayload>(), now);
  }
}

NodeId DigsRouting::next_hop_down(NodeId dest) const {
  if (!digs_config_.enable_downlink || !dest.valid()) return kNoNode;
  const auto it = descendants_.find(dest.value);
  return it == descendants_.end() ? kNoNode : it->second.via;
}

std::int64_t DigsRouting::downlink_freshness(NodeId dest) const {
  if (!digs_config_.enable_downlink || !dest.valid()) return -1;
  const auto it = descendants_.find(dest.value);
  return it == descendants_.end() ? -1
                                  : static_cast<std::int64_t>(it->second.seq);
}

void DigsRouting::schedule_advert_soon() {
  if (!digs_config_.enable_downlink || is_access_point_) return;
  if (advert_soon_.pending()) return;
  advert_soon_ = sim_.schedule_after(
      seconds(static_cast<std::int64_t>(2)), [this] {
        if (started_) send_dest_advert();
      });
}

void DigsRouting::process_dest_advert(NodeId from,
                                      const DestAdvertPayload& payload,
                                      SimTime now) {
  if (!is_child(from)) return;  // only children extend our subtree
  touch_child(from, now);  // an advert proves the child still uses us
  bool changed = false;
  for (const auto& adv : payload.destinations) {
    if (!adv.dest.valid() || adv.dest == id_) continue;  // loop guard
    auto it = descendants_.find(adv.dest.value);
    if (it == descendants_.end()) {
      descendants_[adv.dest.value] = Descendant{from, now, adv.seq};
      changed = true;
      continue;
    }
    Descendant& entry = it->second;
    // Freshest-wins (DAO-sequence semantics): an older advert from another
    // branch must not overwrite a newer route; a refresh from the same
    // child always applies.
    if (entry.via == from || adv.seq >= entry.seq) {
      if (entry.via != from || entry.seq != adv.seq) changed = true;
      entry.via = from;
      entry.refreshed = now;
      entry.seq = adv.seq;
    }
  }
  // Adverts carry the child's COMPLETE destination set, so anything we
  // previously learned via this child that is now absent has left its
  // subtree — erase it (RPL's No-Path DAO semantics). Without this,
  // re-homed subtrees leave stale descent branches that blackhole
  // downlink traffic.
  std::erase_if(descendants_, [&](const auto& kv) {
    if (kv.second.via != from) return false;
    for (const auto& adv : payload.destinations) {
      if (adv.dest.value == kv.first) return false;
    }
    changed = true;
    return true;
  });
  // Subtree grew or re-homed: push the update towards the root promptly
  // (triggered DAO semantics); the periodic advert only refreshes.
  if (changed) schedule_advert_soon();
}

void DigsRouting::send_dest_advert() {
  if (!digs_config_.enable_downlink || !joined() || is_access_point_) return;
  prune_descendants(sim_.now());
  DestAdvertPayload payload;
  payload.destinations.push_back({id_, advert_seq_});
  for (const auto& [dest, entry] : descendants_) {
    payload.destinations.push_back({NodeId{dest}, entry.seq});
  }
  env_.send_routing(
      make_frame(FrameType::kDestAdvert, id_, best_parent_, payload));
}

double DigsRouting::path_cost(const NeighborInfo& best) {
  // Enforce the rank rule on the second-best parent after any rank change.
  if (second_best_parent_.valid()) {
    const NeighborInfo* sbp = neighbors_.find(second_best_parent_);
    if (sbp == nullptr || sbp->rank >= rank_ ||
        sbp->advertised_etxw >= NeighborInfo::kInfiniteEtx) {
      second_best_parent_ = kNoNode;
      sbp_confirmed_ = ConfirmedRole::kNone;
    }
  }

  const double acc_bp = best.accumulated_etx();
  const double acc_sbp = second_best_parent_.valid()
                             ? accumulated(second_best_parent_)
                             : acc_bp + digs_config_.missing_backup_penalty;
  return digs_config_.use_weighted_etx
             ? weighted_etx(best.etx.value(), acc_bp, acc_sbp)
             : acc_bp;
}

NodeId DigsRouting::select_second_best() const {
  const NeighborInfo* pick = neighbors_.best(
      [](const NeighborInfo& n) { return n.accumulated_etx(); },
      [this](const NeighborInfo& n) {
        return n.id == best_parent_ || n.id == id_ ||
               n.rank >= rank_ ||  // strictly smaller rank required
               is_child(n.id) ||
               n.advertised_etxw >= NeighborInfo::kInfiniteEtx;
      });
  return pick ? pick->id : kNoNode;
}

void DigsRouting::assign_parents(NodeId new_bp, NodeId new_sbp) {
  const NodeId old_bp = best_parent_;
  const NodeId old_sbp = second_best_parent_;
  const ConfirmedRole old_bp_role = bp_confirmed_;
  const ConfirmedRole old_sbp_role = sbp_confirmed_;

  const auto carried_role = [&](NodeId id) {
    if (id == old_bp) return old_bp_role;
    if (id == old_sbp) return old_sbp_role;
    return ConfirmedRole::kNone;
  };
  bp_confirmed_ = new_bp.valid() ? carried_role(new_bp) : ConfirmedRole::kNone;
  sbp_confirmed_ =
      new_sbp.valid() ? carried_role(new_sbp) : ConfirmedRole::kNone;
  best_parent_ = new_bp;
  second_best_parent_ = new_sbp;
}

void DigsRouting::reconfirm_roles() {
  if (best_parent_.valid() && bp_confirmed_ != ConfirmedRole::kPrimary) {
    send_callback(best_parent_, /*as_best=*/true);
  }
  if (second_best_parent_.valid() &&
      sbp_confirmed_ != ConfirmedRole::kBackup) {
    send_callback(second_best_parent_, /*as_best=*/false);
  }
}

void DigsRouting::confirm_parents(SimTime now) {
  reconfirm_roles();
  // Keepalive: an ACKed unicast probes a parent link (feeding
  // ETX/failure detection) and refreshes its child table — but only for
  // links with no recent unicast feedback of their own, so the shared
  // routing slot is not flooded at scale (Contiki TSCH keepalives behave
  // the same way).
  if (best_parent_.valid() && now - last_bp_feedback_ > kParentIdle) {
    send_callback(best_parent_, /*as_best=*/true);
    last_bp_feedback_ = now;  // pace retries
  }
  if (second_best_parent_.valid() && now - last_sbp_feedback_ > kParentIdle) {
    send_callback(second_best_parent_, /*as_best=*/false);
    last_sbp_feedback_ = now;
  }
}

void DigsRouting::process_join_in(NodeId from, SimTime now) {
  const NodeId old_bp = best_parent_;
  const NodeId old_sbp = second_best_parent_;
  const double etxa_i = accumulated(from);

  if (!best_parent_.valid()) {
    // First join-in: the sender becomes the best parent (Algorithm 1).
    assign_parents(from, second_best_parent_);
  } else if (from != best_parent_) {
    const double etx_min = accumulated(best_parent_);
    const NeighborInfo* candidate = neighbors_.find(from);
    const bool rank_ok =
        candidate != nullptr && candidate->rank < rank_;
    // Algorithm 1 switches the best parent purely on accumulated ETX (the
    // rank constraint applies only to the second-best parent); hysteresis
    // (absolute, plus relative at deep-network cost scales) prevents
    // flapping.
    const double hysteresis =
        std::max(config_.parent_switch_hysteresis, 0.15 * etx_min);
    if (etxa_i + hysteresis < etx_min) {
      // Better primary route: demote the current best parent to second-best
      // (Algorithm 1) and adopt the sender.
      assign_parents(from, best_parent_);
      ++parent_switches_;
    } else if (rank_ok && etxa_i >= etx_min &&
               (from == second_best_parent_ ||
                etxa_i < accumulated(second_best_parent_))) {
      // Algorithm 1's second branch:
      //   ETXa(node, sbp) > ETXa(node, i) >= ETXmin and Rank(i) < Rank(node)
      if (from != second_best_parent_) {
        assign_parents(best_parent_, from);
      }
    }
  }

  bool recomputed = recompute(now);

  // A node missing its backup parent fills it from the neighbor table:
  // eligible advertisements may have been heard before we had a rank (or
  // before this sender became eligible), and waiting for each candidate's
  // next Trickle-paced join-in would stretch joining by up to Imax.
  if (!second_best_parent_.valid() && best_parent_.valid()) {
    const NodeId candidate = select_second_best();
    if (candidate.valid()) {
      assign_parents(best_parent_, candidate);
      recomputed = recompute(now) || recomputed;
    }
  }

  const bool parents_changed =
      best_parent_ != old_bp || second_best_parent_ != old_sbp;
  if (parents_changed) reconfirm_roles();
  after_update(parents_changed || recomputed, now);
}

void DigsRouting::on_routes_changed() {
  ++advert_seq_;           // our routes re-homed: newer than any old branch
  schedule_advert_soon();  // re-home our subtree under the new parent
}

void DigsRouting::handle_parent_failure(NodeId failed, SimTime now) {
  invalidate_neighbor(failed);

  if (failed == best_parent_) {
    if (second_best_parent_.valid()) {
      // Seamless failover: the backup route becomes primary. Data keeps
      // flowing through it on the attempt slots it already confirmed
      // (ConfirmedRole carries over), so no outage occurs while the role
      // upgrade is re-confirmed.
      assign_parents(second_best_parent_, kNoNode);
    } else {
      // No backup: fall back to the best remaining neighbor, if any.
      assign_parents(kNoNode, kNoNode);
      recompute(now);
      const NodeId next = fallback_parent();
      if (!next.valid()) {
        detach(now);  // children stop routing through us
        return;
      }
      assign_parents(next, kNoNode);
    }
    ++parent_switches_;
    recompute(now);
  }
  // Refill the backup slot (after a promotion, or because the backup
  // itself failed) from the neighbor table.
  assign_parents(best_parent_, select_second_best());
  reconfirm_roles();
  recompute(now);
  after_update(true, now);
}

void DigsRouting::prune_soft_state(SimTime now) {
  DistanceVectorRouting::prune_soft_state(now);
  prune_descendants(now);
}

void DigsRouting::prune_descendants(SimTime now) {
  if (!digs_config_.enable_downlink) return;
  std::erase_if(descendants_, [&](const auto& kv) {
    return now - kv.second.refreshed > digs_config_.descendant_timeout ||
           !is_child(kv.second.via);
  });
}

}  // namespace digs
