#include "core/invariant_monitor.h"

#include <algorithm>
#include <cmath>

#include "core/network.h"
#include "routing/digs_routing.h"
#include "sched/conflict_analysis.h"

namespace digs {

NetworkInvariantMonitor::NetworkInvariantMonitor(Network& net)
    : net_(net), sweep_(net.sim(), kSweepPeriod, [this] {
        audit_network(net_.sim().now());
      }) {}

void NetworkInvariantMonitor::start() { sweep_.start(); }

std::size_t NetworkInvariantMonitor::count(InvariantKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(violations_.begin(), violations_.end(),
                    [&](const InvariantViolation& v) { return v.kind == kind; }));
}

void NetworkInvariantMonitor::record(InvariantKind kind, NodeId node,
                                     NodeId other, SimTime now) {
  if (!recorded_.insert(key(kind, node, other)).second) return;
  InvariantViolation v;
  v.kind = kind;
  v.node = node;
  v.other = other;
  v.asn = net_.current_asn();
  v.at = now;
  violations_.push_back(v);
}

void NetworkInvariantMonitor::on_topology_changed(NodeId node, SimTime now) {
  audit_node(node.value, now);
}

void NetworkInvariantMonitor::audit_network(SimTime now) {
  for (std::size_t i = 0; i < net_.size(); ++i) audit_node(i, now);
  audit_uplink_slot_uniqueness(now);
  audit_tunnels(now);
}

void NetworkInvariantMonitor::on_swap_epoch(SimTime now) {
  ++swap_epoch_audits_;
  const std::size_t before = violations_.size();
  audit_network(now);
  // Attribute only schedule conflicts to the swap: the permutation touches
  // nothing but slot offsets, so a routing-side violation surfacing here is
  // a graced suspicion whose maturation merely coincided with this audit
  // (the 5 s sweep would have recorded it moments later anyway).
  for (std::size_t i = before; i < violations_.size(); ++i) {
    if (violations_[i].kind == InvariantKind::kScheduleConflict ||
        violations_[i].kind == InvariantKind::kTunnelConflict) {
      ++violations_at_swap_epochs_;
    }
  }
}

void NetworkInvariantMonitor::audit_node(std::size_t i, SimTime now) {
  const NodeId id{static_cast<std::uint16_t>(i)};
  graced_scratch_.clear();
  immediate_scratch_.clear();
  if (net_.node(id).alive()) {
    collect_rank_and_cycle(i, graced_scratch_);
    collect_staleness(i, now, graced_scratch_, immediate_scratch_);
    collect_schedule_conflicts(i, immediate_scratch_);
    collect_sync_drift(i, now, graced_scratch_);
  }
  // A suspicion for this node that is no longer observed is a transient
  // that resolved itself: forget it so a later recurrence restarts its
  // grace clock from scratch.
  std::erase_if(suspects_, [&](const auto& entry) {
    if (key_node(entry.first) != id) return false;
    return std::none_of(
        graced_scratch_.begin(), graced_scratch_.end(),
        [&](const GracedCondition& c) { return c.key == entry.first; });
  });
  for (const GracedCondition& c : graced_scratch_) {
    const auto [it, inserted] = suspects_.try_emplace(c.key, now);
    if (!inserted && now - it->second >= c.grace) {
      record(static_cast<InvariantKind>(c.key >> 32), id,
             NodeId{static_cast<std::uint16_t>(c.key & 0xFFFF)}, now);
    }
  }
  for (const std::uint64_t k : immediate_scratch_) {
    record(static_cast<InvariantKind>(k >> 32), id,
           NodeId{static_cast<std::uint16_t>(k & 0xFFFF)}, now);
  }
}

void NetworkInvariantMonitor::collect_rank_and_cycle(
    std::size_t i, std::vector<GracedCondition>& graced) const {
  const NodeId id{static_cast<std::uint16_t>(i)};
  const Node& node = net_.node(id);
  const RoutingProtocol& routing = node.routing();
  const std::uint16_t rank = routing.rank();
  if (node.is_access_point() || rank == kInfiniteRank) return;

  for (const NodeId parent :
       {routing.best_parent(), routing.second_best_parent()}) {
    if (!parent.valid() || parent.value >= net_.size()) continue;
    // A dead parent has no rank: failure detection is traffic-driven by
    // design (a silent backup parent's death is only noticed when attempts
    // fall through to it), so holding one is measured by the recovery
    // metrics, not flagged as a graph inconsistency.
    if (!net_.node(parent).alive()) continue;
    // Ground truth, not the node's (possibly outdated) neighbor-table view:
    // the monitor asks whether the route is CURRENTLY consistent, and the
    // grace period absorbs the propagation delay of rank changes.
    const std::uint16_t parent_rank = net_.node(parent).routing().rank();
    if (parent_rank >= rank) {
      graced.push_back({key(InvariantKind::kRankRule, id, parent),
                        kTransientGrace});
    }
  }

  // Follow the best-parent chain; returning to the start is a routing loop.
  NodeId cur = routing.best_parent();
  for (std::size_t steps = 0; steps < net_.size() && cur.valid(); ++steps) {
    if (cur == id) {
      graced.push_back(
          {key(InvariantKind::kParentCycle, id, kNoNode), kTransientGrace});
      break;
    }
    if (cur.value >= net_.size() || net_.node(cur).is_access_point()) break;
    cur = net_.node(cur).routing().best_parent();
  }
}

void NetworkInvariantMonitor::collect_staleness(
    std::size_t i, SimTime now, std::vector<GracedCondition>& graced,
    std::vector<std::uint64_t>& immediate) const {
  const NodeId id{static_cast<std::uint16_t>(i)};
  const Node& node = net_.node(id);
  const ProtocolSuite suite = net_.config().suite;
  // The WirelessHART manager owns the child tables (installed, not
  // refreshed); timeout semantics do not apply.
  if (suite == ProtocolSuite::kWirelessHart) return;

  const SimDuration child_timeout = net_.config().node.routing.child_timeout;
  for (const ChildEntry& child : node.routing().children()) {
    if (now - child.last_refresh > child_timeout + kPruneGrace) {
      immediate.push_back(key(InvariantKind::kStaleChild, id, child.id));
    }
  }

  const auto* routing = dynamic_cast<const DigsRouting*>(&node.routing());
  if (routing == nullptr || !routing->config().enable_downlink) return;
  const SimDuration descendant_timeout =
      routing->config().descendant_timeout;
  const std::span<const ChildEntry> children = node.routing().children();
  for (const DigsRouting::DescendantView& d : routing->descendant_entries()) {
    if (now - d.refreshed > descendant_timeout + kPruneGrace) {
      immediate.push_back(key(InvariantKind::kStaleDescendant, id, d.dest));
      continue;
    }
    const bool via_is_child =
        std::any_of(children.begin(), children.end(),
                    [&](const ChildEntry& c) { return c.id == d.via; });
    if (!via_is_child) {
      // The prune timer drops routes whose via-child left within one
      // period; persisting longer than that means the eviction is broken.
      graced.push_back(
          {key(InvariantKind::kStaleDescendant, id, d.dest), kPruneGrace});
    }
  }
}

void NetworkInvariantMonitor::collect_schedule_conflicts(
    std::size_t i, std::vector<std::uint64_t>& immediate) const {
  const NodeId id{static_cast<std::uint16_t>(i)};
  const Schedule& schedule = net_.node(id).mac().schedule();
  for (int t = 0; t < kNumTrafficClasses; ++t) {
    const Slotframe* frame =
        schedule.slotframe(static_cast<TrafficClass>(t));
    if (frame == nullptr) continue;
    const std::vector<Cell>& cells = frame->cells;
    for (std::size_t a = 0; a < cells.size(); ++a) {
      if (cells[a].option != CellOption::kTx) continue;
      for (std::size_t b = a + 1; b < cells.size(); ++b) {
        if (cells[b].option != CellOption::kTx) continue;
        if (cells[a].slot_offset != cells[b].slot_offset) continue;
        // Uplink and downlink ladders legitimately overlap (the downlink
        // ladder is the uplink one shifted by half the frame, so some
        // pair of offsets coincides); the MAC deterministically picks one
        // cell per slot. A conflict is two same-direction dedicated TX
        // cells fighting for the slot towards DIFFERENT peers.
        if (cells[a].downlink != cells[b].downlink) continue;
        // Tunnel cells are exempt here: the primary- and backup-role
        // ladders are each Eq. 4-injective but not mutually so, so a parent
        // serving children in both roles may hold overlapping tunnel TX
        // offsets by construction (the MAC deterministically picks one, and
        // the invariant that matters — the two copies of one packet never
        // colliding — is audited per destination by audit_tunnels).
        if (cells[a].tunnel || cells[b].tunnel) continue;
        if (cells[a].peer == cells[b].peer) continue;
        immediate.push_back(
            key(InvariantKind::kScheduleConflict, id, cells[b].peer));
      }
    }
  }
}

void NetworkInvariantMonitor::collect_sync_drift(
    std::size_t i, SimTime now, std::vector<GracedCondition>& graced) const {
  const NodeId id{static_cast<std::uint16_t>(i)};
  const Node& node = net_.node(id);
  if (node.is_access_point() || !node.mac().synced()) return;

  // Drifting relative to an alive, synced time source while still holding
  // dedicated TX cells means the schedule promises airtime the node can no
  // longer hit: its frames arrive outside every receiver's guard window.
  // The keep-alive policy should correct the clock (or desync the node,
  // dropping its cells) long before this persists past the grace.
  const NodeId source = node.mac().time_source();
  if (!source.valid() || source.value >= net_.size()) return;
  const Node& src = net_.node(source);
  if (!src.alive() || !src.mac().synced()) return;
  if (!node.mac().clock_active() && !src.mac().clock_active()) return;

  const double offset_gap = std::fabs(node.mac().clock_offset_us(now) -
                                      src.mac().clock_offset_us(now));
  if (offset_gap <= static_cast<double>(SlotTiming::rx_guard().us)) return;

  bool holds_tx_cell = false;
  for (int t = 0; t < kNumTrafficClasses && !holds_tx_cell; ++t) {
    const Slotframe* frame =
        node.mac().schedule().slotframe(static_cast<TrafficClass>(t));
    if (frame == nullptr) continue;
    for (const Cell& cell : frame->cells) {
      if (cell.option == CellOption::kTx && cell.peer.valid()) {
        holds_tx_cell = true;
        break;
      }
    }
  }
  if (!holds_tx_cell) return;

  graced.push_back({key(InvariantKind::kSyncDrift, id, source),
                    kTransientGrace});
}

void NetworkInvariantMonitor::audit_uplink_slot_uniqueness(SimTime now) {
  const NetworkConfig& cfg = net_.config();
  // Only the DiGS cell layout (paper Eq. 4) promises cross-node uniqueness,
  // and only while the attempt ladder fits the slotframe without wrapping.
  if (cfg.suite == ProtocolSuite::kOrchestra) return;
  const SchedulerConfig& sched = cfg.node.scheduler;
  const std::size_t field_devices = net_.size() - cfg.num_access_points;
  if (static_cast<std::size_t>(sched.attempts) * field_devices >=
      sched.app_slotframe_len) {
    return;
  }

  // slot offset -> first alive field device transmitting uplink there.
  std::vector<NodeId> owner(sched.app_slotframe_len, kNoNode);
  for (std::size_t i = cfg.num_access_points; i < net_.size(); ++i) {
    const NodeId id{static_cast<std::uint16_t>(i)};
    const Node& node = net_.node(id);
    if (!node.alive()) continue;
    const Slotframe* frame =
        node.mac().schedule().slotframe(TrafficClass::kApplication);
    if (frame == nullptr) continue;
    for (const Cell& cell : frame->cells) {
      if (cell.option != CellOption::kTx || cell.downlink) continue;
      if (cell.slot_offset >= owner.size()) continue;
      NodeId& slot_owner = owner[cell.slot_offset];
      if (!slot_owner.valid()) {
        slot_owner = id;
      } else if (slot_owner != id) {
        record(InvariantKind::kScheduleConflict, slot_owner, id, now);
      }
    }
  }
}

void NetworkInvariantMonitor::audit_tunnels(SimTime now) {
  const TunnelManager* tunnels = net_.tunnel_manager();
  if (tunnels == nullptr) return;
  const DigsScheduler sched(net_.config().node.scheduler);
  const std::uint16_t naps = net_.config().num_access_points;
  const std::vector<std::uint16_t>& perm = net_.app_slot_permutation();
  std::vector<std::uint8_t> seen(net_.size(), 0);
  for (const NodeId dest : tunnels->destinations()) {
    const TunnelPair* pair = tunnels->pair(dest);
    if (pair == nullptr || !pair->valid()) continue;
    // Loop-freedom: a source route visiting any node twice would orbit
    // until the hop limit (the climb's visited set makes this impossible;
    // the audit proves the stored state, not the construction).
    for (const TunnelPath* path : {&pair->primary, &pair->backup}) {
      if (!path->valid()) continue;
      std::fill(seen.begin(), seen.end(), 0);
      for (const NodeId hop : path->hops) {
        if (hop.value >= seen.size()) continue;
        if (seen[hop.value] != 0) {
          record(InvariantKind::kTunnelLoop, dest, hop, now);
        }
        seen[hop.value] = 1;
      }
    }
    // The disjointness flag must be honest: a pair advertised as
    // node-disjoint shares no interior node (endpoints exempt — the
    // destination is common by definition, and the ingress APs may be too).
    if (pair->disjoint) {
      for (std::size_t a = 1; a + 1 < pair->primary.hops.size(); ++a) {
        for (std::size_t b = 1; b + 1 < pair->backup.hops.size(); ++b) {
          if (pair->primary.hops[a] == pair->backup.hops[b]) {
            record(InvariantKind::kTunnelDisjoint, dest,
                   pair->primary.hops[a], now);
          }
        }
      }
    }
    // Eq. 4-style replication conflict-freedom, checked through the current
    // SlotSwapper permutation: the two copies of one packet never contest a
    // (slot, channel) from different links — in the permuted frame too.
    if (!tunnel_pair_conflict_free(*pair, sched, naps, perm)) {
      record(InvariantKind::kTunnelConflict, dest, kNoNode, now);
    }
  }
}

}  // namespace digs
