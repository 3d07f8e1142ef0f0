// DiGS distributed graph routing (paper Section V, Algorithm 1).
//
// Every field device maintains a best parent and a second-best parent chosen
// by accumulated ETX towards the access points; ranks grow away from the
// APs and a (second-best) parent must have a strictly smaller rank than the
// node — equal-rank links are never used for routing, the paper's
// loop-avoidance rule. The advertised path cost is the weighted ETX of
// Eq. (1)-(3), which accounts for the WirelessHART retransmission split
// (attempts 1-2 on the primary path, attempt 3 on the backup path).
//
// Join-in messages are paced by Trickle; joined-callback messages inform a
// selected parent of its new child and role so it can install the matching
// RX cells. Both, with the child table and failure detection, live in the
// DistanceVectorRouting core the RPL baseline shares.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "routing/distance_vector.h"

namespace digs {

struct DigsRoutingConfig : DistanceVectorConfig {
  /// Surrogate extra cost used for ETXw while no second-best parent exists
  /// (ETXasbp := ETXabp + penalty), so single-parented nodes advertise a
  /// worse cost than fully backed-up ones.
  double missing_backup_penalty = 1.0;
  /// Ablation switch: when false, advertise the plain accumulated ETX via
  /// the best parent instead of the paper's weighted ETX (Eq. 1-3).
  bool use_weighted_etx = true;
  /// Downlink graph (paper footnote 2): when enabled, nodes advertise their
  /// subtree destinations to the best parent (RPL storing-mode DAO style)
  /// and forward downlink packets via the learned child tables.
  bool enable_downlink = false;
  SimDuration dest_advert_period = seconds(static_cast<std::int64_t>(45));
  SimDuration descendant_timeout = seconds(static_cast<std::int64_t>(90));
};

class DigsRouting final : public DistanceVectorRouting {
 public:
  DigsRouting(Simulator& sim, NodeId id, bool is_access_point,
              NeighborTable& neighbors, const DigsRoutingConfig& config,
              Rng rng, Env env);

  void start(SimTime now) override;
  void stop(SimTime now) override;
  void power_down(SimTime now) override;
  void handle_frame(const Frame& frame, double rss_dbm, SimTime now) override;

  [[nodiscard]] NodeId next_hop_down(NodeId dest) const override;
  [[nodiscard]] std::int64_t downlink_freshness(NodeId dest) const override;

  /// True when both preferred parents are set (the DiGS join criterion used
  /// for Fig. 13).
  [[nodiscard]] bool fully_joined() const {
    return is_access_point_ ||
           (best_parent_.valid() && second_best_parent_.valid());
  }

  /// Read-only view of one downlink-table entry, for the invariant monitor
  /// and tests (the table itself stays private).
  struct DescendantView {
    NodeId dest;
    NodeId via;
    SimTime refreshed;
  };
  [[nodiscard]] std::vector<DescendantView> descendant_entries() const {
    std::vector<DescendantView> out;
    out.reserve(descendants_.size());
    for (const auto& [dest, entry] : descendants_) {
      out.push_back({NodeId{dest}, entry.via, entry.refreshed});
    }
    return out;
  }
  [[nodiscard]] const DigsRoutingConfig& config() const {
    return digs_config_;
  }

 private:
  /// Runs the Algorithm 1 update for a join-in received from `from`.
  void process_join_in(NodeId from, SimTime now) override;
  /// Promotes the backup parent when the best parent fails, refills the
  /// backup when it fails.
  void handle_parent_failure(NodeId failed, SimTime now) override;
  /// ETXw (Eq. 1-3) through both parents. Drops a second-best parent the
  /// new rank makes illegal first (the rank rule).
  double path_cost(const NeighborInfo& best) override;
  /// Role retries (reconfirm_roles), then one keepalive per parent whose
  /// link has had no recent unicast feedback of its own.
  void confirm_parents(SimTime now) override;
  /// Our routes re-homed: a newer advert sequence and a triggered advert.
  void on_routes_changed() override;
  /// Children, then subtree routes.
  void prune_soft_state(SimTime now) override;

  void send_dest_advert();
  void process_dest_advert(NodeId from, const DestAdvertPayload& payload,
                           SimTime now);

  /// Picks the lowest-cost eligible second-best parent from the neighbor
  /// table (rank < ours, not the best parent). Returns kNoNode if none.
  [[nodiscard]] NodeId select_second_best() const;
  /// Drops subtree routes that were not refreshed or whose via-child left.
  void prune_descendants(SimTime now);

  /// Reassigns bp/sbp while carrying each parent's confirmed role along
  /// with its identity (a demoted parent keeps its confirmed kPrimary role
  /// until it ACKs the downgrade, and vice versa).
  void assign_parents(NodeId new_bp, NodeId new_sbp);
  /// Sends callbacks for any parent whose confirmed role does not match
  /// its current assignment (initial joins, promotions, demotions, and
  /// retries after lost callbacks).
  void reconfirm_roles();

  DigsRoutingConfig digs_config_;

  /// Downlink graph: dest id -> (child next hop, last refresh).
  struct Descendant {
    NodeId via;
    SimTime refreshed;
    std::uint32_t seq{0};
  };
  std::unordered_map<std::uint16_t, Descendant> descendants_;
  /// Our own DAO-sequence: bumped whenever we re-home (best parent
  /// changes), so ancestors can tell fresh routes from stale branches.
  std::uint32_t advert_seq_{0};
  PeriodicTimer advert_timer_;
  /// Triggered advert (the RPL "DAO on change" behaviour): scheduled a
  /// couple of seconds after the subtree or the best parent changes.
  EventHandle advert_soon_;
  void schedule_advert_soon();
};

}  // namespace digs
