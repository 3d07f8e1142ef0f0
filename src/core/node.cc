#include "core/node.h"

#include "routing/centralized_routing.h"

namespace digs {

Node::Node(Simulator& sim, NodeId id, bool is_access_point,
           ProtocolSuite suite, const NodeConfig& config,
           std::uint16_t num_access_points, Rng rng, Hooks hooks,
           std::uint8_t* alive_cell, EnergyMeter* meter)
    : sim_(sim),
      id_(id),
      is_access_point_(is_access_point),
      suite_(suite),
      config_(config),
      num_access_points_(num_access_points),
      hooks_(std::move(hooks)),
      neighbors_(config.etx),
      meter_(meter),
      alive_cell_(alive_cell),
      mac_(id, is_access_point, config.mac, rng.fork("mac"),
           TschMac::Callbacks{
               .on_frame = [this](const Frame& f, double rss,
                                  SimTime now) { on_frame(f, rss, now); },
               .on_tx_result =
                   [this](NodeId peer, FrameType type, bool acked,
                          SimTime now) { on_tx_result(peer, type, acked, now); },
               .on_synced = [this](SimTime now) { on_synced(now); },
               .on_desynced = [this](SimTime now) { on_desynced(now); },
               .rank_provider =
                   [this]() {
                     return routing_ ? routing_->rank()
                                     : NeighborInfo::kInfiniteRank;
                   },
               .on_data_dropped =
                   [this](const DataPayload& payload, DropReason reason,
                          SimTime now) { lose(payload, reason, now); },
               .on_wakeup_changed =
                   [this]() {
                     if (hooks_.on_wakeup_changed) {
                       hooks_.on_wakeup_changed(id_);
                     }
                   },
           }) {
  RoutingProtocol::Env env;
  env.send_routing = [this](const Frame& frame) {
    mac_.enqueue_routing(frame);
  };
  env.on_topology_changed = [this](SimTime now) { on_topology_changed(now); };

  switch (suite_) {
    case ProtocolSuite::kDigs: {
      DigsRoutingConfig routing_config = config_.routing;
      SchedulerConfig scheduler_config = config_.scheduler;
      routing_config.enable_downlink = config_.enable_downlink;
      scheduler_config.enable_downlink = config_.enable_downlink;
      scheduler_config.enable_tunnels = config_.enable_tunnels;
      routing_ = std::make_unique<DigsRouting>(
          sim_, id_, is_access_point_, neighbors_, routing_config,
          rng.fork("routing"), env);
      scheduler_ = std::make_unique<DigsScheduler>(scheduler_config);
      break;
    }
    case ProtocolSuite::kOrchestra:
      routing_ = std::make_unique<RplRouting>(
          sim_, id_, is_access_point_, neighbors_, config_.routing,
          rng.fork("routing"), env);
      scheduler_ = std::make_unique<OrchestraScheduler>(
          config_.scheduler, config_.orchestra_sender_based);
      break;
    case ProtocolSuite::kWirelessHart:
      // Centrally computed routes ride the same id-derived TSCH cell
      // layout as DiGS, isolating centralized-vs-distributed ROUTING as
      // the variable under study.
      routing_ = std::make_unique<CentralizedRouting>(id_, is_access_point_,
                                                      env);
      scheduler_ = std::make_unique<DigsScheduler>(config_.scheduler);
      break;
  }
}

void Node::start(SimTime now) {
  rebuild_schedule();
  if (is_access_point_) {
    routing_->start(now);
  }
  // Field devices wait for on_synced (first EB) before starting routing.
}

void Node::set_alive(bool alive, SimTime now) {
  if (alive == (*alive_cell_ != 0)) return;
  *alive_cell_ = alive ? 1 : 0;
  if (!alive) {
    // Power down: every layer's volatile state dies with the node, so a
    // later revival restarts cold — infinite rank, no parents, children,
    // descendants, or neighbors — instead of resuming pre-crash routes.
    mac_.power_down(now);
    routing_->power_down(now);
    neighbors_.clear();
    seen_.clear();
    rebuild_schedule();
    // An access point keeps joined() == true through power_down (its rank
    // is constitutive); force the tracker down so revival re-reports the
    // join transition like any other reboot.
    was_joined_ = false;
    return;
  }
  // Restart: a repowered device rejoins from scratch.
  mac_.reset_to_unsynced(now);
  rebuild_schedule();
  if (is_access_point_) {
    // reset_to_unsynced is a no-op for access points (they are the time
    // source); restart their routing directly so they resume beaconing
    // and advertising immediately.
    routing_->start(now);
  }
}

void Node::generate_packet(FlowId flow, std::uint32_t seq, SimTime now,
                           NodeId final_dst) {
  DataPayload payload;
  payload.flow = flow;
  payload.seq = seq;
  payload.origin = id_;
  payload.final_dst = final_dst;
  payload.created = now;
  payload.hops = 0;
  NodeId down = kNoNode;
  if (payload.is_downlink()) {
    if (is_access_point_) {
      // Gateway-originated command: the backbone injects it at whichever
      // access point holds the freshest route to the destination.
      if (hooks_.gateway_route && hooks_.gateway_route(payload, now)) return;
      lose(payload, DropReason::kNoRoute, now);
      return;
    }
    down = routing_->next_hop_down(final_dst);
  }
  mac_.enqueue_data(payload, now, down);  // drops via on_data_dropped
}

bool Node::inject_downlink(const DataPayload& payload, SimTime now) {
  const NodeId down = routing_->next_hop_down(payload.final_dst);
  if (!down.valid()) return false;
  return mac_.enqueue_data(payload, now, down);
}

bool Node::inject_tunnel(const DataPayload& payload, SimTime now) {
  if (static_cast<std::size_t>(payload.route_hop) + 1 >=
      payload.route.size()) {
    return false;
  }
  DataPayload copy = payload;
  ++copy.route_hop;
  // Mark the pair as locally seen so a copy looping back here (stale route
  // through the ingress) cannot be re-forwarded; mac drops report through
  // on_data_dropped as usual.
  seen_.seen_or_insert(copy.flow, copy.seq);
  const NodeId next = copy.route[copy.route_hop];
  mac_.enqueue_data(copy, now, next);
  return true;
}

void Node::on_frame(const Frame& frame, double rss_dbm, SimTime now) {
  // Keep the neighbor table fresh from everything we hear.
  switch (frame.type) {
    case FrameType::kJoinIn: {
      const auto& payload = frame.as<JoinInPayload>();
      neighbors_.on_heard(frame.src, rss_dbm, payload.rank, payload.etxw,
                          now);
      break;
    }
    default:
      neighbors_.on_heard_rss(frame.src, rss_dbm, now);
      break;
  }
  // Only traffic actually routed through us proves the child still uses
  // us; overheard broadcasts must not keep ex-children alive.
  if (frame.dst == id_ && frame.type == FrameType::kData) {
    routing_->touch_child(frame.src, now);
  }

  switch (frame.type) {
    case FrameType::kJoinIn:
    case FrameType::kJoinSolicit:
    case FrameType::kJoinedCallback:
    case FrameType::kDestAdvert:
      routing_->handle_frame(frame, rss_dbm, now);
      break;
    case FrameType::kData: {
      if (frame.dst != id_) break;  // overheard; not ours to forward
      DataPayload payload = frame.as<DataPayload>();
      if (payload.is_source_routed()) {
        // Replicated tunnel copy. Duplicate elimination first — at the
        // egress and at any relay both routes share — so the second copy of
        // a (flow, seq) stops here instead of burning slots downstream. The
        // suppressed copy is reported as a kDuplicate drop; the stats layer
        // never counts it against PDR because the pair already delivered
        // (or still can deliver via the surviving copy).
        if (seen_.seen_or_insert(payload.flow, payload.seq)) {
          lose(payload, DropReason::kDuplicate, now);
          break;
        }
        if (payload.final_dst == id_) {
          if (hooks_.on_data_delivered) {
            hooks_.on_data_delivered(id_, payload, now);
          }
          break;
        }
        ++payload.hops;
        if (payload.hops > config_.mac.max_hops) {
          lose(payload, DropReason::kHopLimit, now);
          break;
        }
        // Advance the route stack: we must be the hop the copy is addressed
        // to; anything else is a stale route (re-derived mid-flight).
        const std::size_t pos = payload.route_hop;
        if (pos + 1 >= payload.route.size() || payload.route[pos] != id_) {
          lose(payload, DropReason::kStaleRoute, now);
          break;
        }
        ++payload.route_hop;
        mac_.enqueue_data(payload, now, payload.route[payload.route_hop]);
        break;
      }
      // Delivery: uplink packets end at any access point; downlink (or
      // device-to-device) packets end at their final destination.
      const bool delivered = payload.is_downlink()
                                 ? payload.final_dst == id_
                                 : is_access_point_;
      if (delivered) {
        if (hooks_.on_data_delivered) {
          hooks_.on_data_delivered(id_, payload, now);
        }
        break;
      }
      ++payload.hops;
      if (payload.hops > config_.mac.max_hops) {
        lose(payload, DropReason::kHopLimit, now);
        break;
      }
      // Common-ancestor forwarding: descend as soon as the destination is
      // in our subtree, otherwise keep climbing the uplink graph.
      NodeId down = kNoNode;
      if (payload.is_downlink()) {
        down = routing_->next_hop_down(payload.final_dst);
        if (!down.valid()) {
          if (is_access_point_) {
            // Not in our subtree: hand over the wired gateway backbone, or
            // declare the packet undeliverable.
            if (hooks_.gateway_route && hooks_.gateway_route(payload, now)) {
              break;
            }
            lose(payload, DropReason::kNoRoute, now);
            break;
          }
          // A packet that was DESCENDING reached us through a stale table
          // entry at an ancestor; re-climbing would ping-pong until the
          // hop limit. Drop it and let end-to-end retries use the
          // refreshed tables.
          const bool descending =
              frame.src == routing_->best_parent() ||
              frame.src == routing_->second_best_parent();
          if (descending) {
            lose(payload, DropReason::kStaleRoute, now);
            break;
          }
          // Ascending with no route yet: keep climbing (down stays
          // invalid, so the packet rides the uplink ladder).
        }
      }
      mac_.enqueue_data(payload, now, down);
      break;
    }
    default:
      break;
  }
}

void Node::lose(const DataPayload& payload, DropReason reason, SimTime now) {
  if (hooks_.on_data_lost) hooks_.on_data_lost(id_, payload, reason, now);
}

void Node::on_tx_result(NodeId peer, FrameType type, bool acked,
                        SimTime now) {
  neighbors_.on_transmission(peer, acked);
  routing_->on_tx_result(peer, type, acked, now);
}

void Node::on_synced(SimTime now) { routing_->start(now); }

void Node::on_desynced(SimTime now) { routing_->stop(now); }

bool Node::fully_joined() const {
  if (is_access_point_) return true;
  if (!routing_->joined()) return false;
  if (suite_ == ProtocolSuite::kDigs) {
    return routing_->second_best_parent().valid();
  }
  return true;  // Orchestra / WirelessHART: best parent suffices
}

void Node::on_topology_changed(SimTime now) {
  rebuild_schedule();
  // The time source follows the best parent (the node we exchange the most
  // ACKed traffic with, so corrections are frequent). While routing has no
  // parent yet, keep the MAC's provisional source (the EB sender that
  // synchronized us) instead of clobbering it with kNoNode — losing the
  // source mid-join would leave the clock uncorrectable.
  if (routing_->best_parent().valid()) {
    mac_.set_time_source(routing_->best_parent());
  }

  const bool now_joined = routing_->joined();
  if (!joined_reported_ && now_joined) {
    joined_reported_ = true;
    if (hooks_.on_joined) hooks_.on_joined(id_, now);
  }
  if (!fully_joined_reported_ && fully_joined() && !is_access_point_) {
    fully_joined_reported_ = true;
    if (hooks_.on_fully_joined) hooks_.on_fully_joined(id_, now);
  }
  if (now_joined && !was_joined_ && hooks_.on_became_joined) {
    hooks_.on_became_joined(id_, now);
  }
  was_joined_ = now_joined;
  if (hooks_.on_topology_audit) hooks_.on_topology_audit(id_, now);
}

void Node::rebuild_schedule() {
  RoutingView view;
  view.id = id_;
  view.is_access_point = is_access_point_;
  view.num_access_points = num_access_points_;
  view.best_parent = routing_ ? routing_->best_parent() : kNoNode;
  view.second_best_parent =
      routing_ ? routing_->second_best_parent() : kNoNode;
  if (routing_) view.children = routing_->children();
  scheduler_->rebuild(mac_.schedule(), view);
  if (!hooks_.app_slot_permutation) return;
  // SlotSwapper post-pass: remap the application slotframe's slot offsets
  // through the network's epoch permutation and reinstall. install() runs
  // the ordinary occupancy/wake path, so the engine and the sharded
  // pipeline see the reshuffle as a normal schedule change.
  const Slotframe* app = mac_.schedule().slotframe(TrafficClass::kApplication);
  if (app == nullptr) {
    base_app_frame_ = Slotframe{};
    base_app_frame_.cells.clear();
    return;
  }
  base_app_frame_ = *app;
  const std::vector<std::uint16_t>* perm = hooks_.app_slot_permutation();
  if (perm == nullptr || perm->size() != app->length) return;
  mac_.schedule().install(app->remapped(*perm));
}

}  // namespace digs
