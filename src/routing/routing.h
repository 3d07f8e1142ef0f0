// Common interface of the three routing protocols: DiGS distributed graph
// routing (paper Section V) and the RPL-like single-parent baseline that
// Orchestra schedules on top of, both built on the DistanceVectorRouting
// core, and the centrally installed routes of the WirelessHART suite.
//
// The protocol object is pure control plane: it consumes routing frames and
// link feedback, and exposes the current parents / rank / advertised cost /
// child table. The Node wires its outputs (join-in and joined-callback
// frames) into the MAC routing queue and tells the scheduler when topology
// changed.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "net/frame.h"
#include "net/neighbor_table.h"

namespace digs {

/// The attempt-slot role a parent has *acknowledged* serving for us, i.e.
/// the role carried by the last joined-callback that parent ACKed. Until a
/// role is confirmed the parent has no RX cells for the matching attempt
/// slots, so transmitting there would be wasted; and when a backup parent
/// is promoted it keeps listening on the old backup slots until it confirms
/// the upgrade — which is what makes DiGS failover seamless.
enum class ConfirmedRole : std::uint8_t {
  kNone,     // parent has not acknowledged any role yet
  kPrimary,  // parent listens on attempt slots 1..A-1
  kBackup,   // parent listens on attempt slot A
};

/// A downstream node that selected us as one of its parents, learned from
/// its joined-callback message. The role decides which of the child's
/// transmission-attempt cells we must listen on.
struct ChildEntry {
  NodeId id;
  /// True: we are the child's best parent (attempts 1..2).
  /// False: second-best parent (attempt 3).
  bool as_best{true};
  SimTime last_refresh{};

  friend bool operator==(const ChildEntry&, const ChildEntry&) = default;
};

class RoutingProtocol {
 public:
  /// Wiring provided by the owning Node.
  struct Env {
    /// Enqueue a routing frame (join-in broadcast or joined-callback
    /// unicast) for transmission in the shared routing slot.
    std::function<void(const Frame&)> send_routing;
    /// Topology output changed: parents, rank or children. The node reacts
    /// by rebuilding its autonomous schedule, updating the time source, and
    /// recording join-time milestones (Fig. 13).
    std::function<void(SimTime now)> on_topology_changed;
  };

  virtual ~RoutingProtocol() = default;

  /// Begins operation (node synchronized). Access points join immediately;
  /// field devices wait for join-in messages.
  virtual void start(SimTime now) = 0;

  /// Halts operation (node desynchronized); forgets parents but keeps the
  /// neighbor table (owned by the Node).
  virtual void stop(SimTime now) = 0;

  /// The node lost power (failure injection): unlike stop(), downstream
  /// soft state (child / descendant tables) must die with the node so a
  /// later revival restarts cold instead of resuming pre-crash routes.
  virtual void power_down(SimTime now) { stop(now); }

  /// Handles a received routing frame (join-in / joined-callback). The
  /// neighbor table has already been updated with the frame's RSS and
  /// advertisement by the Node.
  virtual void handle_frame(const Frame& frame, double rss_dbm,
                            SimTime now) = 0;

  /// Link-layer feedback for a unicast towards `peer` (drives failure
  /// detection; ETX bookkeeping lives in the neighbor table).
  virtual void on_tx_result(NodeId peer, FrameType type, bool acked,
                            SimTime now) = 0;

  /// Any frame heard from `from` proves the node is alive; refreshes the
  /// child-table entry so steadily forwarding children are never pruned.
  virtual void touch_child(NodeId from, SimTime now) = 0;

  /// Downlink graph support (paper footnote 2): the child through which
  /// `dest` is reachable, learned from destination advertisements.
  /// kNoNode when unknown or when the protocol has no downlink support.
  [[nodiscard]] virtual NodeId next_hop_down(NodeId dest) const {
    (void)dest;
    return kNoNode;
  }
  /// Freshness of the downlink route to `dest` (-1 = no route). Higher is
  /// newer; the gateway backbone uses it to pick the right access point
  /// when a destination recently re-homed between AP subtrees.
  [[nodiscard]] virtual std::int64_t downlink_freshness(NodeId dest) const {
    (void)dest;
    return -1;
  }

  [[nodiscard]] virtual NodeId best_parent() const = 0;
  [[nodiscard]] virtual NodeId second_best_parent() const = 0;
  /// Role the best parent has acknowledged (see ConfirmedRole).
  [[nodiscard]] virtual ConfirmedRole best_parent_confirmed() const {
    return best_parent().valid() ? ConfirmedRole::kPrimary
                                 : ConfirmedRole::kNone;
  }
  [[nodiscard]] virtual std::uint16_t rank() const = 0;
  /// Path cost advertised in join-in messages (ETXw for DiGS, accumulated
  /// ETX for the RPL baseline).
  [[nodiscard]] virtual double advertised_cost() const = 0;
  [[nodiscard]] virtual std::span<const ChildEntry> children() const = 0;
  /// True once the node has selected its preferred parent(s).
  [[nodiscard]] virtual bool joined() const = 0;
};

/// Rank of access points (paper Section V: "All access points set their
/// ranks to 1").
inline constexpr std::uint16_t kAccessPointRank = 1;

/// Weighting factors of the paper's Eq. (1)-(3):
///   w1 = 1 - (1 - 1/ETXbp)^2   (P[delivery within the first two attempts])
///   w2 = (1 - 1/ETXbp)^2       (P[the first two attempts fail])
struct EtxwWeights {
  double w1{1.0};
  double w2{0.0};
};

[[nodiscard]] inline EtxwWeights etxw_weights(double etx_to_best_parent) {
  const double etx = etx_to_best_parent < 1.0 ? 1.0 : etx_to_best_parent;
  const double miss = 1.0 - 1.0 / etx;
  EtxwWeights w;
  w.w2 = miss * miss;
  w.w1 = 1.0 - w.w2;
  return w;
}

/// The paper's weighted ETX (Eq. 1) given the accumulated costs through the
/// two parents and the link ETX to the best parent.
[[nodiscard]] inline double weighted_etx(double etx_to_best_parent,
                                         double accumulated_best,
                                         double accumulated_second_best) {
  const EtxwWeights w = etxw_weights(etx_to_best_parent);
  return w.w1 * accumulated_best + w.w2 * accumulated_second_best;
}

}  // namespace digs
