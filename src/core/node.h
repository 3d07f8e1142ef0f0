// A simulated field device or access point: the full stack wired together —
// TSCH MAC, neighbor table with ETX estimation, routing protocol (DiGS graph
// routing or RPL baseline), autonomous scheduler (DiGS or Orchestra), and
// radio energy meter.
#pragma once

#include <functional>
#include <memory>

#include "common/rng.h"
#include "common/types.h"
#include "energy/energy_meter.h"
#include "mac/tsch_mac.h"
#include "net/duplicate_filter.h"
#include "net/neighbor_table.h"
#include "routing/digs_routing.h"
#include "routing/routing.h"
#include "routing/rpl_routing.h"
#include "sched/digs_scheduler.h"
#include "sched/orchestra_scheduler.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"

namespace digs {

/// Which pair of (routing, scheduling) protocols the network runs.
enum class ProtocolSuite {
  kDigs,          // DiGS graph routing + DiGS autonomous scheduling
  kOrchestra,     // RPL single-parent routing + Orchestra scheduling
  kWirelessHart,  // centrally computed graph routes (Network Manager),
                  // installed after the Fig. 3 reaction time
};

[[nodiscard]] constexpr const char* to_string(ProtocolSuite suite) {
  switch (suite) {
    case ProtocolSuite::kDigs: return "DiGS";
    case ProtocolSuite::kOrchestra: return "Orchestra";
    case ProtocolSuite::kWirelessHart: return "WirelessHART";
  }
  return "?";
}

struct NodeConfig {
  MacConfig mac;
  SchedulerConfig scheduler;
  /// Read by both distance-vector protocols; the RPL baseline uses its
  /// DistanceVectorConfig part.
  DigsRoutingConfig routing;
  EtxConfig etx;
  RadioPowerProfile power;
  /// Enables the downlink-graph extension (destination advertisements +
  /// downlink cells) for the DiGS suite.
  bool enable_downlink = false;
  /// Enables the dedicated tunnel-cell ladders for source-routed multipath
  /// downlink (DiGS suite; other schedulers ignore it and the network falls
  /// back to table routing with a counted single-path fallback).
  bool enable_tunnels = false;
  /// Maximum queue age of a source-routed tunnel copy before the periodic
  /// tunnel maintenance purges it (kStaleRoute): route stacks are frozen at
  /// the ingress, so parent churn can strand a copy in a relay whose tunnel
  /// cells moved away. Bounds the sensor->actuator latency tail — an older
  /// command is past any sane actuation deadline anyway.
  SimDuration tunnel_queue_max_age = seconds(static_cast<std::int64_t>(5));
  /// Orchestra unicast slotframe flavour (see OrchestraScheduler).
  /// Sender-based avoids persistent sibling collisions at the AP funnel and
  /// matches the paper's measured Orchestra performance; receiver-based is
  /// available for ablation.
  bool orchestra_sender_based = true;
};

class Node {
 public:
  /// Network-level hooks.
  struct Hooks {
    /// An access point received an application packet (end of the uplink).
    std::function<void(NodeId ap, const DataPayload&, SimTime now)>
        on_data_delivered;
    /// A data packet was lost at this node (attempts exhausted, queue
    /// overflow, hop limit, stale route, or power loss).
    std::function<void(NodeId node, const DataPayload&, DropReason,
                       SimTime now)>
        on_data_lost;
    /// First time the node selected a best parent (joined).
    std::function<void(NodeId node, SimTime now)> on_joined;
    /// Every false -> true transition of routing().joined(), including the
    /// first. The Network matches these against pending revivals to measure
    /// time-to-rejoin; the one-shot on_joined above stays first-join-only
    /// (Fig. 13 semantics survive crash/recover cycles).
    std::function<void(NodeId node, SimTime now)> on_became_joined;
    /// Fired after every routing/schedule change was applied (parents,
    /// rank, children, or confirmed roles moved and the slotframes were
    /// rebuilt). The invariant monitor audits from here; unset when
    /// monitoring is disabled, so the hook costs one branch.
    std::function<void(NodeId node, SimTime now)> on_topology_audit;
    /// First time the node holds every parent its protocol wants
    /// (bp+sbp for DiGS, bp for Orchestra) — the Fig. 13 join criterion.
    std::function<void(NodeId node, SimTime now)> on_fully_joined;
    /// Access points are wired to the gateway: when this AP has no downlink
    /// route to a destination, the backbone may hand the packet to the AP
    /// that owns the destination's subtree. Returns true if taken.
    std::function<bool(const DataPayload&, SimTime now)> gateway_route;
    /// This node's next-active slot may have moved earlier (schedule
    /// rebuilt, traffic queued, sync state flipped). The Network's slot
    /// engine re-arms its wakeup heap from here.
    std::function<void(NodeId node)> on_wakeup_changed;
    /// SlotSwapper schedule randomization: the network's current epoch
    /// permutation over application slot offsets, or nullptr for identity.
    /// When set, every schedule rebuild applies it as a post-pass (so
    /// mid-epoch topology rebuilds stay consistent with the network-wide
    /// permutation) and keeps a pre-permutation copy of the application
    /// slotframe for the validators. Unset when randomization is off —
    /// rebuilds then cost nothing extra.
    std::function<const std::vector<std::uint16_t>*()> app_slot_permutation;
  };

  /// `alive_cell` / `meter` point at the Network-owned struct-of-arrays
  /// storage for the hot per-node state (cache-linear slot loop).
  Node(Simulator& sim, NodeId id, bool is_access_point, ProtocolSuite suite,
       const NodeConfig& config, std::uint16_t num_access_points, Rng rng,
       Hooks hooks, std::uint8_t* alive_cell, EnergyMeter* meter);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Begins operation at network start. APs are born synchronized and
  /// immediately beacon; field devices start scanning.
  void start(SimTime now);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] bool is_access_point() const { return is_access_point_; }
  [[nodiscard]] ProtocolSuite suite() const { return suite_; }

  [[nodiscard]] bool alive() const { return *alive_cell_ != 0; }
  /// Powers the node on/off (failure injection). Turning off silences the
  /// radio immediately; turning on restarts from the unsynchronized state.
  void set_alive(bool alive, SimTime now);

  /// Enqueues an application packet originated here. A valid `final_dst`
  /// makes it a downlink / device-to-device packet (common-ancestor
  /// routing); invalid means uplink to the access points.
  void generate_packet(FlowId flow, std::uint32_t seq, SimTime now,
                       NodeId final_dst = kNoNode);

  /// Injects a downlink packet at this node (used by the wired gateway
  /// backbone between access points). Returns false when no downlink route
  /// to the packet's destination is known here.
  bool inject_downlink(const DataPayload& payload, SimTime now);

  /// Injects a source-routed tunnel copy at this node (the tunnel ingress
  /// access point). `payload.route_hop` must index this node; the copy is
  /// enqueued towards the next hop of its route stack. Returns false on a
  /// malformed route (already at the end).
  bool inject_tunnel(const DataPayload& payload, SimTime now);

  [[nodiscard]] TschMac& mac() { return mac_; }
  [[nodiscard]] const TschMac& mac() const { return mac_; }
  [[nodiscard]] RoutingProtocol& routing() { return *routing_; }
  [[nodiscard]] const RoutingProtocol& routing() const { return *routing_; }
  [[nodiscard]] NeighborTable& neighbors() { return neighbors_; }
  [[nodiscard]] EnergyMeter& meter() { return *meter_; }
  [[nodiscard]] const EnergyMeter& meter() const { return *meter_; }
  [[nodiscard]] const Scheduler& scheduler() const { return *scheduler_; }

  /// Re-derives the schedule from current routing state, re-applying the
  /// current slot permutation. The randomization epoch driver calls this on
  /// every node after advancing the permutation, so the reshuffle reaches
  /// the MAC through the ordinary schedule-install path.
  void refresh_schedule() { rebuild_schedule(); }

  /// The application slotframe as the scheduler built it, before the slot
  /// permutation post-pass. Only maintained while the permutation hook is
  /// set; empty otherwise.
  [[nodiscard]] const Slotframe& base_app_slotframe() const {
    return base_app_frame_;
  }

 private:
  void on_frame(const Frame& frame, double rss_dbm, SimTime now);
  /// Reports a data packet lost at this node through Hooks::on_data_lost.
  void lose(const DataPayload& payload, DropReason reason, SimTime now);
  void on_tx_result(NodeId peer, FrameType type, bool acked, SimTime now);
  void on_synced(SimTime now);
  void on_desynced(SimTime now);
  void on_topology_changed(SimTime now);
  void rebuild_schedule();
  [[nodiscard]] bool fully_joined() const;

  Simulator& sim_;
  NodeId id_;
  bool is_access_point_;
  ProtocolSuite suite_;
  NodeConfig config_;
  std::uint16_t num_access_points_;
  Hooks hooks_;

  NeighborTable neighbors_;
  // Hot state lives in the Network's struct-of-arrays (the slot loop then
  // reads contiguous arrays instead of striding across Node objects).
  EnergyMeter* meter_;
  std::uint8_t* alive_cell_;
  TschMac mac_;
  std::unique_ptr<RoutingProtocol> routing_;
  std::unique_ptr<Scheduler> scheduler_;
  /// Per-node forwarding-plane dedup for replicated tunnel copies: the
  /// second copy of a (flow, seq) is suppressed at the first node both
  /// routes traverse (usually the egress). Volatile — cleared on power loss.
  DuplicateFilter seen_;
  /// Pre-permutation application slotframe (see base_app_slotframe()).
  Slotframe base_app_frame_;

  bool joined_reported_{false};
  bool fully_joined_reported_{false};
  /// Tracks routing().joined() across topology changes so on_became_joined
  /// fires exactly on false -> true transitions (reset on power-down, so a
  /// revived access point re-reports when it restarts its routing).
  bool was_joined_{false};
};

}  // namespace digs
