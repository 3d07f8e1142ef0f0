#include "mac/tsch_mac.h"

#include <algorithm>

#include "common/log.h"

namespace digs {

TschMac::TschMac(NodeId id, bool is_access_point, const MacConfig& config,
                 Rng rng, Callbacks callbacks)
    : id_(id),
      is_access_point_(is_access_point),
      config_(config),
      rng_(std::move(rng)),
      callbacks_(std::move(callbacks)),
      synced_(is_access_point),  // APs are the time source
      backoff_exp_(config.backoff_min_exp) {
  scan_channel_start_ = static_cast<int>(rng_.uniform_int(kNumChannels));
  // Access points are the network's clock reference and never drift. Field
  // devices get an oscillator only when the config enables one; the fork
  // does not advance rng_, so the ppm = 0 draw sequence is untouched.
  if (!is_access_point_ && config_.oscillator.enabled()) {
    oscillator_ = Oscillator(config_.oscillator, rng_.fork("osc"));
    clock_active_ = true;
  }
  // Slotframe installs/removals change when this node is next active.
  schedule_.set_occupancy_listener([this] { notify_wakeup_changed(); });
}

bool TschMac::enqueue_data(const DataPayload& payload, SimTime now,
                           NodeId down_next_hop) {
  if (app_queue_.size() >= config_.app_queue_capacity) {
    if (callbacks_.on_data_dropped) {
      callbacks_.on_data_dropped(payload, DropReason::kQueueOverflow, now);
    }
    return false;
  }
  const bool was_idle = app_queue_.empty();
  app_queue_.push_back(AppPacket{payload, down_next_hop, 0, next_token_++});
  // An empty queue lets the engine skip dedicated TX slots; the first queued
  // packet re-activates them (e.g. a downlink injected into a sleeping AP).
  if (was_idle) notify_wakeup_changed();
  return true;
}

void TschMac::enqueue_routing(const Frame& frame) {
  if (frame.type == FrameType::kJoinIn && frame.is_broadcast()) {
    // Replace any not-yet-sent join-in: only the freshest advertisement
    // matters (Trickle may fire again before the shared slot comes around).
    for (auto& queued : routing_queue_) {
      if (queued.frame.type == FrameType::kJoinIn &&
          queued.frame.is_broadcast()) {
        queued.frame = frame;
        return;
      }
    }
  }
  if (routing_queue_.size() >= config_.routing_queue_capacity) {
    // Drop oldest; routing state is soft. An evicted keep-alive must clear
    // its in-flight flag or end_slot() would never re-poll.
    if (routing_queue_.front().frame.type == FrameType::kKeepAlive) {
      keepalive_pending_ = false;
    }
    routing_queue_.pop_front();
  }
  const bool was_idle = routing_queue_.empty();
  routing_queue_.push_back(RoutingPacket{frame, 0});
  // An empty routing queue makes shared slots pure listens the engine can
  // skip; the first queued frame re-activates them as TX-capable.
  if (was_idle) notify_wakeup_changed();
}

SlotPlan TschMac::plan_slot(std::uint64_t asn, SimTime /*slot_start*/) {
  pending_tx_.reset();
  if (!synced_) {
    // Joining: camp on one channel, rotating every scan_dwell_slots, until
    // an EB is heard (paper Section VI, "Assigning Slots for
    // Synchronization": a joining node snoops the channel to capture an EB).
    SlotPlan plan;
    plan.kind = SlotPlan::Kind::kScan;
    plan.channel = scan_dwell_ahead(0).channel;
    ++scan_slots_;
    return plan;
  }

  const auto cells = schedule_.active_cells(asn);
  if (cells.empty()) return SlotPlan{};  // sleep

  switch (cells.front().traffic) {
    case TrafficClass::kSync: return plan_sync(cells, asn);
    case TrafficClass::kRouting: return plan_routing(cells, asn);
    case TrafficClass::kApplication: return plan_application(cells, asn);
  }
  return SlotPlan{};
}

SlotPlan TschMac::plan_sync(std::span<const Cell> cells, std::uint64_t asn) {
  // Prefer the TX (own EB) cell if present; otherwise listen for the
  // parent's EB.
  const Cell* tx_cell = nullptr;
  const Cell* rx_cell = nullptr;
  for (const Cell& cell : cells) {
    if (cell.option == CellOption::kTx && tx_cell == nullptr) tx_cell = &cell;
    if (cell.option == CellOption::kRx && rx_cell == nullptr) rx_cell = &cell;
  }
  SlotPlan plan;
  plan.traffic = TrafficClass::kSync;
  const std::uint16_t rank =
      callbacks_.rank_provider ? callbacks_.rank_provider() : 0;
  // Only routed nodes beacon: an EB from a node with no route would let
  // joiners synchronize onto an island (Contiki TSCH behaves the same).
  const bool may_beacon = is_access_point_ || rank != kInfiniteRank;
  if (tx_cell != nullptr && may_beacon) {
    plan.kind = SlotPlan::Kind::kTx;
    plan.channel = hop_channel(asn, tx_cell->channel_offset);
    EbPayload eb;
    eb.asn = asn;
    eb.rank = rank;
    plan.frame = make_frame(FrameType::kEnhancedBeacon, id_, kNoNode, eb);
    plan.expects_ack = false;
    pending_tx_ = PendingTx{TrafficClass::kSync, FrameType::kEnhancedBeacon,
                            kNoNode, false};
    ++eb_sent_;
    return plan;
  }
  if (rx_cell != nullptr) {
    plan.kind = SlotPlan::Kind::kRx;
    plan.channel = hop_channel(asn, rx_cell->channel_offset);
    return plan;
  }
  return SlotPlan{};
}

SlotPlan TschMac::plan_routing(std::span<const Cell> cells,
                               std::uint64_t asn) {
  const Cell& cell = cells.front();  // single shared routing cell
  SlotPlan plan;
  plan.traffic = TrafficClass::kRouting;
  plan.channel = hop_channel(asn, cell.channel_offset);
  if (!routing_queue_.empty() && backoff_counter_ == 0) {
    plan.kind = SlotPlan::Kind::kTx;
    plan.frame = routing_queue_.front().frame;
    plan.expects_ack = !plan.frame.is_broadcast();
    pending_tx_ = PendingTx{TrafficClass::kRouting, plan.frame.type,
                            plan.frame.dst, plan.expects_ack};
    return plan;
  }
  if (backoff_counter_ > 0) --backoff_counter_;
  // Shared slots are listen-by-default so topology/routing updates from any
  // neighbor are heard.
  plan.kind = SlotPlan::Kind::kRx;
  return plan;
}

std::size_t TschMac::match_packet(const Cell& cell) const {
  for (std::size_t i = 0; i < app_queue_.size(); ++i) {
    const AppPacket& packet = app_queue_[i];
    const bool packet_down = packet.down_next_hop.valid();
    // Source-routed copies ride the dedicated tunnel ladders only, and
    // table-routed packets never use them: the two queues' cells are
    // disjoint, which is what keeps a replicated copy from stealing the
    // downlink ladder slot Eq. 4 reserved for ordinary traffic.
    if (cell.tunnel != packet.payload.is_source_routed()) continue;
    if (cell.downlink != packet_down) continue;
    if (packet_down && packet.down_next_hop != cell.peer) continue;
    return i;
  }
  return static_cast<std::size_t>(-1);
}

SlotPlan TschMac::plan_application(std::span<const Cell> cells,
                                   std::uint64_t asn) {
  SlotPlan plan;
  plan.traffic = TrafficClass::kApplication;

  // TX first: among active TX cells with a valid peer and a matching queued
  // packet, use the lowest attempt index (cells are the WirelessHART
  // attempt ladder).
  if (!app_queue_.empty()) {
    const Cell* best_tx = nullptr;
    std::size_t best_packet = static_cast<std::size_t>(-1);
    for (const Cell& cell : cells) {
      if (cell.option != CellOption::kTx || !cell.peer.valid()) continue;
      if (best_tx != nullptr && cell.attempt >= best_tx->attempt) continue;
      const std::size_t packet = match_packet(cell);
      if (packet == static_cast<std::size_t>(-1)) continue;
      best_tx = &cell;
      best_packet = packet;
    }
    if (best_tx != nullptr) {
      AppPacket& packet = app_queue_[best_packet];
      plan.kind = SlotPlan::Kind::kTx;
      plan.channel = hop_channel(asn, best_tx->channel_offset);
      plan.frame = make_frame(FrameType::kData, id_, best_tx->peer,
                              packet.payload);
      plan.expects_ack = true;
      pending_tx_ = PendingTx{TrafficClass::kApplication, FrameType::kData,
                              best_tx->peer, true, packet.token};
      ++data_tx_attempts_;
      return plan;
    }
  }

  for (const Cell& cell : cells) {
    if (cell.option == CellOption::kRx) {
      plan.kind = SlotPlan::Kind::kRx;
      plan.channel = hop_channel(asn, cell.channel_offset);
      return plan;
    }
  }
  return SlotPlan{};  // nothing to do: sleep
}

void TschMac::on_receive(const Frame& frame, double rss_dbm, SimTime now,
                         double sender_clock_offset_us) {
  if (frame.type == FrameType::kEnhancedBeacon) {
    // Any EB from a synchronized neighbor carries the network time (only
    // routed nodes beacon), so any EB refreshes the sync deadline — the
    // 6TiSCH practice. Desync then means "no synchronized neighbor heard
    // for sync_timeout", i.e. genuine loss of contact with the network.
    // Without a time source yet, the beaconer becomes the provisional one
    // (an EB sender is necessarily synced — unsynced nodes never transmit);
    // routing replaces it with the best parent once one is selected.
    if (!time_source_.valid()) time_source_ = frame.src;
    if (!synced_) {
      synced_ = true;
      scan_slots_ = 0;
      sync_deadline_ = now + config_.sync_timeout;
      if (clock_active_) correct_clock(sender_clock_offset_us, now);
      notify_wakeup_changed();
      if (callbacks_.on_synced) callbacks_.on_synced(now);
    } else if (clock_active_ && frame.src == time_source_) {
      // Only the time source's EBs correct the clock: taking corrections
      // from arbitrary neighbors (each with their own error) would make
      // the offset chase whoever beaconed last.
      correct_clock(sender_clock_offset_us, now);
    }
    sync_deadline_ = now + config_.sync_timeout;
  }
  if (!synced_) return;  // cannot use non-EB frames while unsynced
  if (callbacks_.on_frame) callbacks_.on_frame(frame, rss_dbm, now);
}

void TschMac::on_tx_outcome(bool acked, SimTime now,
                            double acker_clock_offset_us) {
  if (!pending_tx_.has_value()) return;
  const PendingTx pending = *pending_tx_;
  pending_data_token_ = pending.data_token;
  pending_tx_.reset();

  // Every ACK from the time source corrects the clock (802.15.4e time
  // correction IE): data frames, joined-callbacks and keep-alive polls to
  // the parent all double as synchronization traffic.
  if (clock_active_ && acked && pending.expects_ack &&
      pending.peer == time_source_) {
    correct_clock(acker_clock_offset_us, now);
  }

  if (pending.expects_ack && callbacks_.on_tx_result) {
    callbacks_.on_tx_result(pending.peer, pending.type, acked, now);
  }

  switch (pending.traffic) {
    case TrafficClass::kSync:
      break;  // EBs are fire-and-forget
    case TrafficClass::kRouting:
      handle_routing_tx_result(acked, now);
      break;
    case TrafficClass::kApplication:
      handle_data_tx_result(acked, now);
      break;
  }
}

void TschMac::handle_routing_tx_result(bool acked, SimTime now) {
  if (routing_queue_.empty()) return;
  RoutingPacket& head = routing_queue_.front();
  const bool is_keepalive = head.frame.type == FrameType::kKeepAlive;
  if (head.frame.is_broadcast()) {
    // Broadcasts are done after one transmission.
    routing_queue_.pop_front();
    backoff_exp_ = config_.backoff_min_exp;
    backoff_counter_ = 0;
    return;
  }
  if (acked) {
    if (is_keepalive) keepalive_pending_ = false;
    routing_queue_.pop_front();
    backoff_exp_ = config_.backoff_min_exp;
    backoff_counter_ = 0;
    return;
  }
  ++head.attempts;
  const int max_transmissions = is_keepalive
                                    ? config_.keepalive_transmissions
                                    : config_.max_routing_transmissions;
  if (head.attempts >= max_transmissions) {
    routing_queue_.pop_front();
    backoff_exp_ = config_.backoff_min_exp;
    backoff_counter_ = 0;
    if (is_keepalive) {
      // Poll failed. Retry a bounded number of times while the drift
      // budget lasts; a time source that stays silent has effectively
      // disappeared, so give up on it and rescan rather than drifting
      // past the guard with TX cells still installed.
      keepalive_pending_ = false;
      ++keepalive_failures_;
      if (keepalive_failures_ >= config_.keepalive_max_failures) {
        reset_to_unsynced(now);
      } else {
        keepalive_due_ = now + config_.keepalive_retry;
      }
    }
    return;
  }
  backoff_exp_ = std::min(backoff_exp_ + 1, config_.backoff_max_exp);
  backoff_counter_ =
      static_cast<int>(rng_.uniform_int(std::uint64_t{1} << backoff_exp_));
}

std::size_t TschMac::expire_tunnel_packets(SimDuration max_age, SimTime now) {
  std::size_t dropped = 0;
  std::size_t i = 0;
  while (i < app_queue_.size()) {
    const DataPayload& payload = app_queue_[i].payload;
    if (payload.is_source_routed() && now - payload.created > max_age) {
      drop_packet(i, DropReason::kStaleRoute, now);
      ++dropped;
    } else {
      ++i;
    }
  }
  // Dropping can only move the next-activity ASN later (an emptier queue
  // skips more slots), so no wakeup notification is needed.
  return dropped;
}

void TschMac::drop_packet(std::size_t index, DropReason reason, SimTime now) {
  if (callbacks_.on_data_dropped) {
    callbacks_.on_data_dropped(app_queue_[index].payload, reason, now);
  }
  app_queue_.erase(app_queue_.begin() +
                   static_cast<std::ptrdiff_t>(index));
}

void TschMac::handle_data_tx_result(bool acked, SimTime now) {
  // Locate the packet this outcome belongs to by its stable token (the
  // queue may serve uplink and downlink packets out of order).
  for (std::size_t i = 0; i < app_queue_.size(); ++i) {
    if (app_queue_[i].token != pending_data_token_) continue;
    if (acked) {
      app_queue_.erase(app_queue_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
    AppPacket& packet = app_queue_[i];
    ++packet.attempts;
    if (packet.attempts >= config_.max_data_transmissions) {
      drop_packet(i, DropReason::kAttemptsExhausted, now);
    }
    return;
  }
}

void TschMac::end_slot(SimTime now) {
  if (!synced_ || is_access_point_) return;
  if (now >= sync_deadline_) {
    reset_to_unsynced(now);
    return;
  }
  if (!clock_active_) return;
  if (now >= resync_deadline_) {
    // The projected offset has exhausted the guard budget without a
    // correction: this node can no longer hit anyone's listen window, so
    // holding its cells is pure loss. Desync and rescan.
    reset_to_unsynced(now);
    return;
  }
  if (!keepalive_pending_ && now >= keepalive_due_ && time_source_.valid()) {
    enqueue_routing(make_frame(FrameType::kKeepAlive, id_, time_source_,
                               KeepAlivePayload{}));
    keepalive_pending_ = true;
    ++keepalives_sent_;
  }
}

void TschMac::reset_to_unsynced(SimTime now) {
  if (is_access_point_) return;
  const bool was_synced = synced_;
  synced_ = false;
  time_source_ = kNoNode;
  routing_queue_.clear();
  backoff_counter_ = 0;
  backoff_exp_ = config_.backoff_min_exp;
  pending_tx_.reset();
  scan_slots_ = 0;
  scan_channel_start_ = static_cast<int>(rng_.uniform_int(kNumChannels));
  keepalive_pending_ = false;
  keepalive_failures_ = 0;
  keepalive_due_ = kNeverDeadline;
  resync_deadline_ = kNeverDeadline;
  if (was_synced) {
    ++desync_events_;
    // Unsynced nodes scan every slot — the engine must start waking this
    // node immediately, even when the reset came from outside the slot loop
    // (experiment restarts a dead node).
    notify_wakeup_changed();
    if (callbacks_.on_desynced) callbacks_.on_desynced(now);
  }
}

void TschMac::power_down(SimTime now) {
  while (!app_queue_.empty()) drop_packet(0, DropReason::kPowerLoss, now);
  routing_queue_.clear();
  backoff_counter_ = 0;
  backoff_exp_ = config_.backoff_min_exp;
  pending_tx_.reset();
  scan_slots_ = 0;
  keepalive_pending_ = false;
  keepalive_failures_ = 0;
  keepalive_due_ = kNeverDeadline;
  resync_deadline_ = kNeverDeadline;
  if (!is_access_point_) {
    synced_ = false;
    time_source_ = kNoNode;
  }
}

void TschMac::correct_clock(double source_offset_us, SimTime now) {
  clock_offset_ref_us_ = source_offset_us;
  anchor_drift_us_ = oscillator_.elapsed_drift_us(now);
  ++clock_corrections_;
  keepalive_failures_ = 0;
  // Project when the guard budget runs out, assuming worst-case relative
  // drift (both crystals at their bound, opposite signs). Half the budget
  // triggers the keep-alive; the full budget is the point of no return.
  const double relative_rate_ppm = 2.0 * oscillator_.max_rate_ppm();
  if (relative_rate_ppm <= 0.0) {
    // Jump-activated clock with no oscillator: the offset is constant, so
    // there is no budget to project (sync_timeout remains the backstop).
    keepalive_due_ = kNeverDeadline;
    resync_deadline_ = kNeverDeadline;
    return;
  }
  const double budget_us = static_cast<double>(SlotTiming::rx_guard().us) /
                           (relative_rate_ppm * 1e-6);
  keepalive_due_ =
      now + SimDuration{static_cast<std::int64_t>(
                budget_us * config_.keepalive_fraction)};
  resync_deadline_ =
      now + SimDuration{static_cast<std::int64_t>(budget_us)};
}

void TschMac::inject_clock_offset(double offset_us, SimTime now) {
  if (is_access_point_) return;
  const double current = clock_offset_us(now);
  clock_active_ = true;
  clock_offset_ref_us_ = current + offset_us;
  anchor_drift_us_ = oscillator_.elapsed_drift_us(now);
  // Deadlines are left alone: they project DRIFT accumulation since the
  // last correction, which a step change does not alter. A jump past the
  // guard is healed by the next correction — or, if the node can no longer
  // decode anything, by the sync timeout.
}

}  // namespace digs
