// The distance-vector core shared by DiGS graph routing (paper Section V)
// and the RPL-like baseline Orchestra runs on. Both protocols pace join-in
// advertisements with Trickle, solicit them while parentless, announce
// themselves to their parents with joined-callbacks, keep a child table,
// poison their sub-DODAG when they detach, and declare a parent dead on the
// same evidence. This class owns all of that, so the two protocols differ
// only where the paper compares them: parent selection (Algorithm 1 with a
// backup parent vs. a single preferred parent), the advertised path cost and
// how parents are re-confirmed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "routing/routing.h"
#include "routing/trickle.h"
#include "sim/simulator.h"

namespace digs {

struct DistanceVectorConfig {
  TrickleConfig trickle;
  /// Accumulated-ETX improvement required before switching best parent
  /// (standard distance-vector hysteresis; prevents parent flapping).
  double parent_switch_hysteresis = 0.5;
  /// A parent is declared dead on a long run of consecutive unicast
  /// failures, or when its EWMA link ETX degrades past a threshold —
  /// evidence-weighted, so a partially jammed link (channel hopping still
  /// succeeds on clean channels) does not trigger spurious churn.
  int parent_fail_noacks = 10;
  double parent_fail_etx = 8.0;
  /// Children not heard from for this long are pruned.
  SimDuration child_timeout = seconds(static_cast<std::int64_t>(180));
  /// Advertised rank/cost changes below these thresholds count as
  /// consistent for Trickle.
  double cost_epsilon = 0.25;
};

class DistanceVectorRouting : public RoutingProtocol {
 public:
  void start(SimTime now) override;
  void stop(SimTime now) override;
  void power_down(SimTime now) override;
  void handle_frame(const Frame& frame, double rss_dbm, SimTime now) override;
  void on_tx_result(NodeId peer, FrameType type, bool acked,
                    SimTime now) override;
  void touch_child(NodeId from, SimTime now) override;

  [[nodiscard]] NodeId best_parent() const override { return best_parent_; }
  [[nodiscard]] NodeId second_best_parent() const override {
    return second_best_parent_;
  }
  [[nodiscard]] ConfirmedRole best_parent_confirmed() const override {
    return bp_confirmed_;
  }
  [[nodiscard]] std::uint16_t rank() const override { return rank_; }
  [[nodiscard]] double advertised_cost() const override { return cost_; }
  [[nodiscard]] std::span<const ChildEntry> children() const override {
    return children_;
  }
  [[nodiscard]] bool joined() const override {
    return is_access_point_ ? rank_ == kAccessPointRank
                            : best_parent_.valid();
  }

  // Diagnostics for tests and ablations.
  [[nodiscard]] std::uint64_t parent_switches() const {
    return parent_switches_;
  }
  [[nodiscard]] const Trickle& trickle() const { return trickle_; }

 protected:
  DistanceVectorRouting(Simulator& sim, NodeId id, bool is_access_point,
                        NeighborTable& neighbors,
                        const DistanceVectorConfig& config, const Rng& rng,
                        Env env);

  /// A parent link with no unicast feedback for this long gets a keepalive
  /// callback from the confirm timer.
  static constexpr SimDuration kParentIdle =
      seconds(static_cast<std::int64_t>(45));

  // --- the protocol-specific parts ---

  /// Parent selection for a usable join-in from `from`: not poisoned, not
  /// from one of our children, and we are not an access point.
  virtual void process_join_in(NodeId from, SimTime now) = 0;
  /// `failed` (our best or second-best parent) was poisoned or declared
  /// dead.
  virtual void handle_parent_failure(NodeId failed, SimTime now) = 0;
  /// Advertised path cost through the usable best parent `best`, called by
  /// recompute() after rank_ is updated.
  virtual double path_cost(const NeighborInfo& best) = 0;
  /// Runs on every confirm-timer tick while started: re-announce parents
  /// whose role is unconfirmed and probe idle parent links.
  virtual void confirm_parents(SimTime now) = 0;
  /// after_update() saw a material change, before the topology callback.
  virtual void on_routes_changed() {}
  /// The prune timer: drops children not heard from within child_timeout.
  virtual void prune_soft_state(SimTime now);

  // --- shared helpers ---

  /// Accumulated ETX to the APs through neighbor `id`
  /// (paper: ETXa(node, i) = ETX(node, i) + ETXw(i)).
  [[nodiscard]] double accumulated(NodeId id) const;
  /// Marks a neighbor unusable until it is heard from again.
  void invalidate_neighbor(NodeId id);
  /// True if `id` is currently in our child table. A child's route passes
  /// through us, so adopting it as a parent would form a routing loop
  /// (the distance-vector count-to-infinity); children are never parent
  /// candidates.
  [[nodiscard]] bool is_child(NodeId id) const;
  /// Recomputes rank_ and cost_ from the current parents. Returns true if
  /// either changed materially. Leaves them alone when the best parent is
  /// no longer usable; the caller handles failover.
  bool recompute(SimTime now);
  /// Restarts Trickle once joined and feeds it the update's consistency;
  /// a material change also reaches on_routes_changed() and the node.
  void after_update(bool changed, SimTime now);
  /// The lowest-cost usable neighbor that is not one of our children, for
  /// a node that lost its only parent; kNoNode if there is none.
  [[nodiscard]] NodeId fallback_parent() const;
  /// No parent left: poison the sub-DODAG and go quiet until a fresh
  /// join-in arrives (local repair).
  void detach(SimTime now);
  void send_callback(NodeId parent, bool as_best);
  void topology_changed(SimTime now) {
    if (env_.on_topology_changed) env_.on_topology_changed(now);
  }

  Simulator& sim_;
  NodeId id_;
  bool is_access_point_;
  NeighborTable& neighbors_;
  DistanceVectorConfig config_;
  Env env_;

  NodeId best_parent_;
  NodeId second_best_parent_;
  ConfirmedRole bp_confirmed_{ConfirmedRole::kNone};
  ConfirmedRole sbp_confirmed_{ConfirmedRole::kNone};
  std::uint16_t rank_{NeighborInfo::kInfiniteRank};
  /// Advertised path cost (ETXw for DiGS, accumulated ETX for RPL).
  double cost_{NeighborInfo::kInfiniteEtx};
  SimTime last_bp_feedback_{};
  SimTime last_sbp_feedback_{};
  bool started_{false};
  std::uint64_t parent_switches_{0};

 private:
  void process_callback(NodeId from, const JoinedCallbackPayload& payload,
                        SimTime now);
  void send_join_in();
  void send_poison();

  std::vector<ChildEntry> children_;
  Trickle trickle_;
  PeriodicTimer prune_timer_;
  /// DIS-analogue pacing: while synchronized but parentless, solicit
  /// join-ins so Trickle-suppressed neighbors answer promptly.
  PeriodicTimer solicit_timer_;
  /// Runs confirm_parents(): lost callbacks would otherwise leave attempt
  /// slots unusable forever.
  PeriodicTimer confirm_timer_;
};

}  // namespace digs
