// Per-node TSCH MAC engine.
//
// The network loop is slotted: every 10 ms slot the Network asks each node
// for a SlotPlan (transmit / listen / scan / sleep), resolves the medium, and
// feeds back receptions and ACK outcomes. The MAC owns:
//   - join & synchronization state (unsynced nodes scan for EBs, synced nodes
//     keep alive on the time source's EBs and desync on timeout),
//   - the application packet queue with the WirelessHART retransmission
//     policy (cells carry the attempt index; attempt 3 cells point at the
//     second-best parent),
//   - the routing message queue with CSMA-like backoff for shared slots,
//   - EB generation in the synchronization slotframe.
//
// Schedule content is owned by the scheduler (DiGS autonomous or Orchestra);
// the MAC only executes it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>

#include "common/oscillator.h"
#include "common/rng.h"
#include "common/time.h"
#include "common/types.h"
#include "mac/hopping.h"
#include "mac/schedule.h"
#include "net/frame.h"

namespace digs {

struct MacConfig {
  /// Total unicast attempts for a data packet before it is dropped
  /// (spread over slotframe cycles; one cycle offers A attempts under DiGS,
  /// one under Orchestra).
  int max_data_transmissions = 12;
  /// Unicast attempts for a routing message (joined-callback).
  int max_routing_transmissions = 8;
  std::size_t app_queue_capacity = 8;
  std::size_t routing_queue_capacity = 8;
  /// Desync if no EB from the time source for this long.
  SimDuration sync_timeout = seconds(static_cast<std::int64_t>(30));
  /// Slots spent scanning one channel before moving to the next.
  std::uint64_t scan_dwell_slots = 100;
  /// CSMA backoff exponent bounds for shared slots (window = 2^BE slots of
  /// the shared cell).
  int backoff_min_exp = 1;
  int backoff_max_exp = 5;
  /// Frames with more hops than this are dropped (routing-loop protection).
  int max_hops = 32;
  double tx_power_dbm = 0.0;
  /// Per-node crystal model; ppm = 0 (the default) disables the entire
  /// drift subsystem (clock offsets, guard misses, keep-alives) at the cost
  /// of one branch per query, bit-identical to the pre-drift simulator.
  OscillatorConfig oscillator;
  /// Fraction of the projected guard budget after which a keep-alive poll
  /// to the time source is queued (IEEE 802.15.4e KA; the ACK carries the
  /// correction).
  double keepalive_fraction = 0.5;
  /// Consecutive failed keep-alive polls before the node declares itself
  /// desynchronized and rescans.
  int keepalive_max_failures = 2;
  /// Unicast attempts for one keep-alive poll. Lower than
  /// max_routing_transmissions: a poll is only useful while the remaining
  /// drift budget lasts, so fail fast and escalate instead of backing off
  /// through a long retry ladder.
  int keepalive_transmissions = 3;
  /// Delay before re-polling after a failed keep-alive.
  SimDuration keepalive_retry = seconds(static_cast<std::int64_t>(1));
};

/// Radio timing constants at 250 kbps (CC2420), used for energy accounting.
struct SlotTiming {
  /// Listen window in an RX cell before giving up when nothing arrives.
  static constexpr SimDuration rx_guard() { return microseconds(2200); }
  /// Sender's listen window for the ACK.
  static constexpr SimDuration ack_wait() { return microseconds(1000); }
  static constexpr SimDuration ack_duration() {
    return microseconds(32 * FrameSizes::kAck);
  }
  static constexpr SimDuration frame_duration(int bytes) {
    return microseconds(32 * bytes);
  }
};

/// What a node does during one slot.
struct SlotPlan {
  enum class Kind : std::uint8_t { kSleep, kTx, kRx, kScan };
  Kind kind{Kind::kSleep};
  PhysicalChannel channel{0};
  /// Valid when kind == kTx.
  Frame frame;
  bool expects_ack{false};
  TrafficClass traffic{TrafficClass::kApplication};
};

class TschMac {
 public:
  struct Callbacks {
    /// Upper-layer delivery of every decoded frame (broadcast or addressed
    /// to us), with its RSS.
    std::function<void(const Frame&, double rss_dbm, SimTime now)> on_frame;
    /// Outcome of a unicast attempt (for ETX / failure detection).
    std::function<void(NodeId peer, FrameType type, bool acked, SimTime now)>
        on_tx_result;
    /// Fired when the node acquires synchronization (heard its first EB).
    std::function<void(SimTime now)> on_synced;
    /// Fired when the node loses synchronization (sync timeout).
    std::function<void(SimTime now)> on_desynced;
    /// Rank to advertise in our EBs.
    std::function<std::uint16_t()> rank_provider;
    /// A queued data packet exhausted its attempts or was evicted.
    std::function<void(const DataPayload&, DropReason, SimTime now)>
        on_data_dropped;
    /// The answer of next_tx_capable_asn() or the listen pattern may have
    /// moved *earlier*: a slotframe
    /// was (re)installed, the application queue went empty -> non-empty, or
    /// the sync state flipped. The slot engine listens here to re-arm its
    /// wakeup heap; events that can only move the wakeup later (queue
    /// drained, sync deadline extended) are deliberately not reported — a
    /// stale-early wakeup is a harmless no-op slot.
    std::function<void()> on_wakeup_changed;
  };

  TschMac(NodeId id, bool is_access_point, const MacConfig& config, Rng rng,
          Callbacks callbacks);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] bool is_access_point() const { return is_access_point_; }
  [[nodiscard]] bool synced() const { return synced_; }
  [[nodiscard]] const MacConfig& config() const { return config_; }

  /// The schedule executed by this MAC; schedulers install slotframes here.
  [[nodiscard]] Schedule& schedule() { return schedule_; }
  [[nodiscard]] const Schedule& schedule() const { return schedule_; }

  /// Node whose EBs refresh our sync (the best parent). Invalid = accept any.
  void set_time_source(NodeId source) { time_source_ = source; }
  [[nodiscard]] NodeId time_source() const { return time_source_; }

  /// Queues an application packet. Uplink packets ride the attempt-ladder
  /// cells towards the parents; packets with a valid `down_next_hop` use
  /// the downlink cells towards that child. Returns false (and reports a
  /// drop) when the queue is full.
  bool enqueue_data(const DataPayload& payload, SimTime now,
                    NodeId down_next_hop = kNoNode);

  /// Queues a routing frame (join-in broadcast or joined-callback unicast).
  /// A queued join-in that has not been sent yet is replaced, not duplicated.
  void enqueue_routing(const Frame& frame);

  /// Drops queued source-routed tunnel copies older than `max_age`
  /// (kStaleRoute). A copy's route stack is frozen at the ingress, so
  /// parent churn can strand it in a relay queue whose tunnel cells moved
  /// away; an aged command is dead weight to its control loop anyway.
  /// Returns the number of packets dropped.
  std::size_t expire_tunnel_packets(SimDuration max_age, SimTime now);

  [[nodiscard]] std::size_t app_queue_size() const { return app_queue_.size(); }
  [[nodiscard]] std::size_t routing_queue_size() const {
    return routing_queue_.size();
  }

  // --- Slot loop interface (driven by the Network) ---

  /// Decides this node's action for slot `asn`.
  [[nodiscard]] SlotPlan plan_slot(std::uint64_t asn, SimTime slot_start);

  /// Delivers a frame this node decoded during the current slot.
  /// `sender_clock_offset_us` is the sender's accumulated clock offset at
  /// the slot start; an EB from the time source adopts it as this node's
  /// new reference (clock correction). 0 whenever drift is disabled.
  void on_receive(const Frame& frame, double rss_dbm, SimTime now,
                  double sender_clock_offset_us = 0.0);

  /// Reports the outcome of this node's own transmission in the current
  /// slot (`acked` is meaningful only when the plan expected an ACK;
  /// broadcasts pass acked=false). An ACK from the time source carries a
  /// clock correction (`acker_clock_offset_us`, the acker's offset at the
  /// slot start), TSCH keep-alive style.
  void on_tx_outcome(bool acked, SimTime now,
                     double acker_clock_offset_us = 0.0);

  /// End-of-slot housekeeping (sync timeout).
  void end_slot(SimTime now);

  /// Force-desynchronizes (used when a node is restarted in experiments).
  void reset_to_unsynced(SimTime now);

  /// Power loss: every queued packet dies with the node (reported as
  /// kPowerLoss drops) and all MAC soft state is wiped, including the sync
  /// state of field devices. Unlike reset_to_unsynced() this fires no
  /// desync notification — the owning Node powers the routing layer down
  /// itself, with power-loss (not brief-desync) semantics.
  void power_down(SimTime now);

  // --- Slot-engine interface ---

  /// Smallest ASN >= `from` at which this MAC can put a frame on the air:
  /// sync TX cells always (EBs are unconditional when routed), routing and
  /// application cells only while the matching queue holds something.
  /// Unsynced nodes never transmit. Slots outside this set are pure listens
  /// or sleeps — invisible to every other node — which is what lets the slot
  /// engine execute only transmission-capable slots and settle the listening
  /// in between arithmetically.
  [[nodiscard]] std::uint64_t next_tx_capable_asn(std::uint64_t from) const {
    if (!synced_) return kNeverOccupied;
    return schedule_.next_tx_asn(from, !routing_queue_.empty(),
                                 !app_queue_.empty());
  }

  /// Instant at which end_slot() would desynchronize this node (meaningful
  /// while synced). The engine must wake the node for the slot containing
  /// this deadline even if the schedule is idle there.
  [[nodiscard]] SimTime sync_deadline() const { return sync_deadline_; }

  // --- Clock / drift interface ---

  /// Deadline sentinel meaning "never" (far future, but small enough that
  /// the engine's slot-index arithmetic cannot overflow on it).
  static constexpr SimTime kNeverDeadline{
      std::numeric_limits<std::int64_t>::max() / 4};

  /// True once this node's clock can deviate from the reference (oscillator
  /// enabled, or a clock jump was injected). Never true for access points —
  /// they ARE the reference.
  [[nodiscard]] bool clock_active() const { return clock_active_; }

  /// This node's accumulated clock offset vs. the network reference (µs) at
  /// real time `t`: the offset adopted at the last correction plus the
  /// drift the oscillator accumulated since. Exactly 0 when the clock is
  /// inactive — the one-branch gate that keeps ppm = 0 runs bit-identical.
  [[nodiscard]] double clock_offset_us(SimTime t) const {
    if (!clock_active_) return 0.0;
    return clock_offset_ref_us_ +
           (oscillator_.elapsed_drift_us(t) - anchor_drift_us_);
  }

  /// Earliest instant at which end_slot() acts on the drift budget (queue a
  /// keep-alive or declare resync failure); kNeverDeadline while inactive.
  /// The engine wakes the node for the slot containing this deadline, like
  /// sync_deadline().
  [[nodiscard]] SimTime drift_deadline() const {
    if (!clock_active_ || !synced_ || is_access_point_) return kNeverDeadline;
    return keepalive_pending_ ? resync_deadline_
                              : std::min(keepalive_due_, resync_deadline_);
  }

  /// Fault injection: instantaneously shifts this node's clock by
  /// `offset_us` (and activates the clock path if the oscillator is
  /// disabled, so a 0 µs jump exercises the drift code with all offsets
  /// exactly 0). No-op on access points.
  void inject_clock_offset(double offset_us, SimTime now);

  // Clock diagnostics (cumulative over the node's lifetime).
  [[nodiscard]] std::uint64_t keepalives_sent() const {
    return keepalives_sent_;
  }
  [[nodiscard]] std::uint64_t clock_corrections() const {
    return clock_corrections_;
  }
  [[nodiscard]] std::uint64_t desync_events() const { return desync_events_; }

  /// Engine-only: prefetch the state plan_slot() reads first (sync/scan
  /// fields and the pending-TX slot). The slot loop calls this a few
  /// participants ahead of the planning cursor so the scattered per-node
  /// cache misses overlap the planning of the nodes before them. Pure
  /// address arithmetic — no member is read here.
  void prefetch_plan_state() const {
    __builtin_prefetch(&synced_);
    __builtin_prefetch(&pending_tx_);
  }

  /// Engine-only lazy settling of skipped scan slots: while unsynced, the
  /// sole per-slot state change of plan_slot() is advancing the scan-dwell
  /// counter, so `n` skipped slots are accounted by advancing it `n` times.
  void advance_scan(std::uint64_t n) { scan_slots_ += n; }

  /// Where the scan plan stands `ahead` scan slots from now (0 = the next
  /// plan_slot() while unsynced): the channel plan_slot() scans there, and
  /// how many scan slots, that one included, stay on it before the dwell
  /// rotates. Meaningful while unsynced; reads no mutable state beyond the
  /// scan counters, so the engine can ask without touching the node's plan.
  struct ScanDwell {
    PhysicalChannel channel;
    std::uint64_t slots;
  };
  [[nodiscard]] ScanDwell scan_dwell_ahead(std::uint64_t ahead) const {
    const std::uint64_t dwell = scan_dwell_len();
    const std::uint64_t slot = scan_slots_ + ahead;
    return ScanDwell{
        static_cast<PhysicalChannel>(
            (static_cast<std::uint64_t>(scan_channel_start_) + slot / dwell) %
            kNumChannels),
        dwell - slot % dwell};
  }

  // Diagnostics
  [[nodiscard]] std::uint64_t data_tx_attempts() const {
    return data_tx_attempts_;
  }
  [[nodiscard]] std::uint64_t eb_sent() const { return eb_sent_; }

 private:
  struct AppPacket {
    DataPayload payload;
    NodeId down_next_hop;  // valid -> downlink packet
    int attempts{0};
    std::uint64_t token{0};  // stable id for TX-outcome bookkeeping
  };
  struct RoutingPacket {
    Frame frame;
    int attempts{0};
  };
  struct PendingTx {
    TrafficClass traffic;
    FrameType type;
    NodeId peer;
    bool expects_ack;
    std::uint64_t data_token{0};  // AppPacket the outcome belongs to
  };

  [[nodiscard]] SlotPlan plan_sync(std::span<const Cell> cells,
                                   std::uint64_t asn);
  [[nodiscard]] SlotPlan plan_routing(std::span<const Cell> cells,
                                      std::uint64_t asn);
  [[nodiscard]] SlotPlan plan_application(std::span<const Cell> cells,
                                          std::uint64_t asn);
  void handle_data_tx_result(bool acked, SimTime now);
  void handle_routing_tx_result(bool acked, SimTime now);
  /// Adopts `source_offset_us` as this node's offset (re-anchoring the
  /// oscillator) and re-projects the keep-alive / resync deadlines from the
  /// worst-case relative drift rate.
  void correct_clock(double source_offset_us, SimTime now);
  void drop_packet(std::size_t index, DropReason reason, SimTime now);
  /// Queue index of the first packet the given TX cell can carry, or npos.
  [[nodiscard]] std::size_t match_packet(const Cell& cell) const;
  void notify_wakeup_changed() {
    if (callbacks_.on_wakeup_changed) callbacks_.on_wakeup_changed();
  }

  NodeId id_;
  bool is_access_point_;
  MacConfig config_;
  Rng rng_;
  Callbacks callbacks_;

  [[nodiscard]] std::uint64_t scan_dwell_len() const {
    return std::max<std::uint64_t>(config_.scan_dwell_slots, 1);
  }

  Schedule schedule_;
  bool synced_;
  NodeId time_source_;
  SimTime sync_deadline_{};
  std::uint64_t scan_slots_{0};
  int scan_channel_start_;

  std::deque<AppPacket> app_queue_;
  std::uint64_t next_token_{1};
  std::deque<RoutingPacket> routing_queue_;
  int backoff_counter_{0};
  int backoff_exp_;

  std::optional<PendingTx> pending_tx_;
  std::uint64_t pending_data_token_{0};

  std::uint64_t data_tx_attempts_{0};
  std::uint64_t eb_sent_{0};

  // Clock state. The offset at time t is closed-form from (ref, anchor):
  // ref + (drift(t) - drift(anchor)) — no incremental accumulation, so the
  // value is independent of when and how often it is queried (the polled
  // loop and the wake-heap engine query at different instants; this is what
  // keeps them bit-identical under drift).
  Oscillator oscillator_;
  bool clock_active_{false};
  double clock_offset_ref_us_{0.0};
  double anchor_drift_us_{0.0};
  SimTime keepalive_due_{kNeverDeadline};
  SimTime resync_deadline_{kNeverDeadline};
  bool keepalive_pending_{false};
  int keepalive_failures_{0};
  std::uint64_t keepalives_sent_{0};
  std::uint64_t clock_corrections_{0};
  std::uint64_t desync_events_{0};
};

}  // namespace digs
