#include "core/network.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/env.h"
#include "common/prof.h"
#include "core/invariant_monitor.h"

namespace digs {

namespace {

constexpr std::size_t kMaxShards = 64;

/// A shard or thread count: `configured` when nonzero, else the environment
/// variable `env_name` (see env_count(); unset or empty reads as 0, the
/// default). Throws std::invalid_argument for a count above kMaxShards from
/// either source and for a malformed environment value.
std::size_t shard_setting(std::size_t configured, const char* field,
                          const char* env_name) {
  if (configured != 0) {
    if (configured > kMaxShards) {
      throw std::invalid_argument(std::string("NetworkConfig::") + field +
                                  " = " + std::to_string(configured) +
                                  " exceeds the limit of 64");
    }
    return configured;
  }
  return env_count(env_name, kMaxShards);
}

std::size_t resolve_shards(std::size_t configured) {
  return std::max<std::size_t>(
      shard_setting(configured, "shards", "DIGS_SHARDS"), 1);
}

std::size_t resolve_shard_threads(std::size_t configured, std::size_t shards) {
  std::size_t threads =
      shard_setting(configured, "shard_threads", "DIGS_SHARD_THREADS");
  if (threads == 0) {
    // Default: one worker per shard, capped at the hardware — extra threads
    // beyond either bound only add scheduling noise, never speed.
    const unsigned hw = std::thread::hardware_concurrency();
    threads = std::min<std::size_t>(shards, hw == 0 ? 1 : hw);
  }
  return std::clamp<std::size_t>(threads, 1, shards);
}

}  // namespace

Network::~Network() = default;

Network::Network(const NetworkConfig& config, std::vector<Position> positions)
    : config_(config),
      medium_(config.medium, std::move(positions), config.seed),
      rng_(hash_mix(config.seed, 0xAE7)),
      draw_seed_(hash_mix(config.seed, 0xD0A1)),
      ack_seed_(hash_mix(config.seed, 0xACC5)),
      num_shards_(resolve_shards(config.shards)),
      joined_at_(medium_.num_nodes(), SimTime{-1}),
      fully_joined_at_(medium_.num_nodes(), SimTime{-1}),
      reception_(medium_, num_shards_) {
  medium_.build_reachability(config.node.mac.tx_power_dbm);
  assign_shards();
  shard_threads_ = resolve_shard_threads(config.shard_threads, num_shards_);
  // A pool without extra workers runs its tasks inline on the caller.
  if (num_shards_ > 1) pool_ = std::make_unique<ShardPool>(shard_threads_ - 1);
  // The monitor's audits hook into topology changes mid-slot and assume
  // serial hook order; with it on, sharding still fans out reception
  // resolution but the node regions run on one work list.
  slot_shards_ = config.monitor_invariants ? 1 : num_shards_;
  shard_members_.resize(num_shards_);
  shard_listener_li_.resize(num_shards_);
  shard_tx_.resize(num_shards_);
  shard_rx_.resize(num_shards_);
  defer_bufs_.resize(num_shards_);
  shard_busy_ns_.assign(num_shards_, 0);
  // Hot struct-of-arrays storage, sized before any Node is constructed so
  // the pointers handed to nodes stay stable for the network's lifetime.
  alive_.assign(medium_.num_nodes(), 1);
  meters_.assign(medium_.num_nodes(), EnergyMeter{config.node.power});
  Node::Hooks hooks;
  // The stats collector dedups first-wins per (flow, seq), so it must see
  // records in serial arrival order: run_in_order applies them at once on
  // a serial path and, inside a parallel region, at the region's replay
  // under the current site key — the serial order either way.
  hooks.on_data_delivered = [this](NodeId /*ap*/, const DataPayload& payload,
                                   SimTime now) {
    sim_.run_in_order([this, flow = payload.flow, seq = payload.seq, now,
                       tunnel = payload.tunnel] {
      // A delivery whose first arriving copy rode the backup tunnel is a
      // replication win: the primary copy lost the race (or the path).
      const bool first = !stats_.was_delivered(flow, seq);
      stats_.on_delivered(flow, seq, now);
      if (first && tunnel == 2) ++replication_wins_;
    });
  };
  hooks.on_data_lost = [this](NodeId node, const DataPayload& payload,
                              DropReason reason, SimTime now) {
    sim_.run_in_order([this, flow = payload.flow, seq = payload.seq, now,
                       reason, tunnel = payload.tunnel,
                       at_final_dst = node == payload.final_dst] {
      if (reason == DropReason::kDuplicate && tunnel != 0) {
        ++duplicates_suppressed_;
        // Suppressed at the egress itself: the other copy already
        // delivered, so this one was pure redundancy (the replication-loss
        // counter).
        if (at_final_dst) ++replication_losses_;
      }
      stats_.on_dropped(flow, seq, now, reason);
    });
  };
  hooks.on_joined = [this](NodeId id, SimTime now) {
    joined_at_[id.value] = now;
  };
  hooks.on_became_joined = [this](NodeId id, SimTime now) {
    const std::int32_t pending = pending_revive_[id.value];
    if (pending < 0) return;  // a first join, not a post-revival rejoin
    revivals_[static_cast<std::size_t>(pending)].rejoined_at = now;
    pending_revive_[id.value] = -1;
  };
  hooks.on_fully_joined = [this](NodeId id, SimTime now) {
    fully_joined_at_[id.value] = now;
  };
  hooks.gateway_route = [this](const DataPayload& payload, SimTime now) {
    const NodeId ap = freshest_ap(payload.final_dst);
    return ap.valid() && nodes_[ap.value]->inject_downlink(payload, now);
  };
  hooks.on_wakeup_changed = [this](NodeId id) { on_node_wake_dirty(id); };
  if (config_.monitor_invariants) {
    hooks.on_topology_audit = [this](NodeId id, SimTime now) {
      if (monitor_) monitor_->on_topology_changed(id, now);
    };
  }
  if (config_.randomization.enabled) {
    // Every schedule rebuild (initial, topology-driven, or the epoch
    // reinstall itself) re-applies the network's current permutation, so a
    // node that re-derives its slotframe mid-epoch stays consistent with
    // the rest of the network.
    hooks.app_slot_permutation =
        [this]() -> const std::vector<std::uint16_t>* {
      return app_slot_perm_.empty() ? nullptr : &app_slot_perm_;
    };
  }

  pending_revive_.assign(medium_.num_nodes(), -1);
  nodes_.reserve(medium_.num_nodes());
  for (std::size_t i = 0; i < medium_.num_nodes(); ++i) {
    const NodeId id{static_cast<std::uint16_t>(i)};
    const bool is_ap = i < config_.num_access_points;
    nodes_.push_back(std::make_unique<Node>(
        sim_, id, is_ap, config_.suite, config_.node,
        config_.num_access_points, rng_.fork(hash_mix(0x40DE, i)), hooks,
        &alive_[i], &meters_[i]));
  }
  if (config_.suite == ProtocolSuite::kWirelessHart) {
    manager_ = std::make_unique<CentralManager>(*this, config_.manager);
  }
  if (config_.monitor_invariants) {
    monitor_ = std::make_unique<NetworkInvariantMonitor>(*this);
  }
  if (config_.node.enable_tunnels) {
    // Pure control plane over a read-only routing view; derivations only
    // run from serial seams (injection, the maintenance timer, fault
    // handling), never from inside a parallel region.
    TunnelManager::Env env;
    env.best_parent = [this](NodeId id) {
      if (id.value >= nodes_.size() || alive_[id.value] == 0) return kNoNode;
      return nodes_[id.value]->routing().best_parent();
    };
    env.second_best_parent = [this](NodeId id) {
      if (id.value >= nodes_.size() || alive_[id.value] == 0) return kNoNode;
      return nodes_[id.value]->routing().second_best_parent();
    };
    env.alive = [this](NodeId id) {
      return id.value < nodes_.size() && alive_[id.value] != 0;
    };
    env.num_access_points = config_.num_access_points;
    env.num_nodes = medium_.num_nodes();
    tunnels_ = std::make_unique<TunnelManager>(std::move(env));
  }
}

void Network::assign_shards() {
  const std::size_t n = medium_.num_nodes();
  shard_of_node_.assign(n, 0);
  if (num_shards_ <= 1) return;
  const SpatialGrid& grid = medium_.grid();
  if (grid.built() && grid.active() &&
      grid.num_cells() >= 2 * num_shards_) {
    // Cell-based assignment: a shard's listeners share grid cells, so its
    // CSR rows and attempt subsets stay cache-adjacent.
    for (std::size_t i = 0; i < n; ++i) {
      shard_of_node_[i] = static_cast<std::uint16_t>(
          grid.cell_of(static_cast<std::uint16_t>(i)) % num_shards_);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      shard_of_node_[i] = static_cast<std::uint16_t>(i % num_shards_);
    }
  }
  // Access points are pinned to shard 0: an AP's frame delivery can run
  // gateway_route, which reads every AP's routing state and injects into
  // the freshest one — keeping all APs on one shard makes every AP-state
  // access serial within a region. Assignment affects load balance only,
  // never results.
  for (std::uint16_t ap = 0; ap < config_.num_access_points && ap < n; ++ap) {
    shard_of_node_[ap] = 0;
  }
}

void Network::add_flow(const FlowSpec& flow) {
  stats_.register_flow(flow.id, flow.source);
  flows_.push_back(flow);
  flow_seq_.push_back(0);
}

void Network::start() {
  if (started_) return;
  started_ = true;
  const SimTime now = sim_.now();
  start_ = now;

  const std::size_t n = nodes_.size();
  slots_charged_.assign(n, 0);
  kinds_.assign(n, SlotPlan::Kind::kSleep);
  channels_.assign(n, 0);
  listen_time_.assign(n, SimDuration{0});
  tx_time_.assign(n, SimDuration{0});
  clock_offset_us_.assign(n, 0.0);
  plans_.assign(n, SlotPlan{});
  all_ids_.resize(n);
  std::iota(all_ids_.begin(), all_ids_.end(), std::uint16_t{0});
  identity_.resize(n);
  std::iota(identity_.begin(), identity_.end(), std::uint32_t{0});

  for (auto& node : nodes_) node->start(now);
  if (manager_) manager_->start();
  if (monitor_) monitor_->start();

  // Slot driver. The engine's wakeup table is built only now, after every
  // node installed its initial slotframes (install notifications before this
  // point are ignored because next_wake_ is empty).
  if (config_.use_slot_engine) {
    next_wake_.assign(n, kNeverOccupied);
    scanning_.assign(n, 0);
    scanners_.clear();
    scan_channel_.assign(n, 0);
    scan_channel_until_.assign(n, 0);
    listen_buckets_.clear();
    registered_.assign(n, {});
    for (std::size_t i = 0; i < n; ++i) {
      update_listen_registration(i);
      refresh_wake(i, 0);
    }
    arm_engine();
  } else {
    sim_.schedule_after(kSlotDuration, [this] { slot_tick(); });
  }

  // Flow generators.
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    sim_.schedule_after(flows_[i].start_offset,
                        [this, i] { generate_flow_packet(i); });
  }

  // Schedule randomization epoch driver. The timer fires as an ordinary
  // simulator event between slots, so the whole epoch (permutation draw +
  // every node's reinstall) is atomic with respect to the slot loop.
  if (config_.randomization.enabled) {
    SlotSwapperConfig swapper;
    swapper.frame_len = config_.suite == ProtocolSuite::kOrchestra
                            ? config_.node.scheduler.orchestra_unicast_len
                            : config_.node.scheduler.app_slotframe_len;
    swapper.swaps_per_epoch = config_.randomization.swaps_per_epoch;
    swapper.max_retries = config_.randomization.max_retries;
    swapper.seed = hash_mix(config_.seed, 0x5107, config_.randomization.seed);
    slot_swapper_ = std::make_unique<SlotSwapper>(swapper);
    swap_timer_ = std::make_unique<PeriodicTimer>(
        sim_, config_.randomization.epoch,
        [this] { advance_randomization_epoch(); });
    swap_timer_->start();
  }

  // Tunnel maintenance: re-derive every registered destination roughly once
  // a second, so repairs are detected (and timed) even while the control
  // traffic that would lazily refresh them is sparse.
  if (tunnels_) {
    tunnel_timer_ = std::make_unique<PeriodicTimer>(
        sim_, seconds(static_cast<std::int64_t>(1)), [this] {
          const SimTime now = sim_.now();
          tunnels_->maintain(now);
          // Purge stranded tunnel copies: a route stack frozen at the
          // ingress can outlive the cells it was laid over (churn moved a
          // relay's tunnel ladder away), and an aged command is useless to
          // its control loop. Bounds the delivered-latency tail.
          for (const auto& nd : nodes_) {
            if (nd->alive()) {
              nd->mac().expire_tunnel_packets(
                  config_.node.tunnel_queue_max_age, now);
            }
          }
        });
    tunnel_timer_->start();
  }
}

void Network::run_until(SimTime until) {
  sim_.run_until(until);
  if (started_) settle_all();
}

void Network::generate_flow_packet(std::size_t flow_index) {
  const FlowSpec& flow = flows_[flow_index];
  const std::uint32_t seq = flow_seq_[flow_index]++;
  const SimTime now = sim_.now();
  stats_.on_generated(flow.id, seq, now);
  Node& source = node(flow.source);
  if (!source.alive()) {
    stats_.on_dropped(flow.id, seq, now, DropReason::kSourceDead);
  } else if (source.is_access_point() && flow.downlink_dest.valid() &&
             tunnels_ &&
             inject_tunnel_downlink(flow.id, seq, flow.downlink_dest, now)) {
    // Replicated down the node-disjoint tunnels; the egress dedup keeps the
    // first-wins stats semantics identical to a single-copy delivery.
  } else {
    if (source.is_access_point() && flow.downlink_dest.valid() && tunnels_) {
      // Tunnels are on but no valid tunnel exists for this destination right
      // now (not joined, partitioned, or a non-DiGS suite without tunnel
      // cells): degrade to ordinary table routing, counted, never asserted.
      ++single_path_fallbacks_;
    }
    source.generate_packet(flow.id, seq, now, flow.downlink_dest);
  }
  sim_.schedule_after(flow.period,
                      [this, flow_index] { generate_flow_packet(flow_index); });
}

bool Network::inject_tunnel_downlink(FlowId flow, std::uint32_t seq,
                                     NodeId dest, SimTime now) {
  // Only the DiGS scheduler installs tunnel cell ladders; source-routing a
  // copy on any other suite would strand it in the MAC queue forever. The
  // caller's fallback path (table routing) handles those suites.
  if (!tunnels_ || config_.suite != ProtocolSuite::kDigs) return false;
  const TunnelPair& pair = tunnels_->refresh(dest, now);
  if (!pair.valid()) return false;
  const NodeId ingress = pair.primary.hops.front();
  if (ingress.value >= nodes_.size() || alive_[ingress.value] == 0) {
    return false;
  }
  DataPayload payload;
  payload.flow = flow;
  payload.seq = seq;
  payload.origin = ingress;
  payload.final_dst = dest;
  payload.created = now;
  payload.route = pair.primary.hops;
  payload.route_hop = 0;
  payload.tunnel = 1;
  bool injected = nodes_[ingress.value]->inject_tunnel(payload, now);
  if (config_.tunnel_replication && pair.replicated()) {
    const NodeId backup_ingress = pair.backup.hops.front();
    if (backup_ingress.value < nodes_.size() &&
        alive_[backup_ingress.value] != 0) {
      DataPayload copy = payload;
      copy.origin = backup_ingress;
      copy.route = pair.backup.hops;
      copy.tunnel = 2;
      injected = nodes_[backup_ingress.value]->inject_tunnel(copy, now) ||
                 injected;
    }
  } else if (config_.tunnel_replication) {
    // Replication requested but only one path exists right now (e.g. the
    // second-best parent is down or coincides with the primary's exit).
    ++single_path_fallbacks_;
  }
  return injected;
}

bool Network::send_downlink(FlowId flow, std::uint32_t seq, NodeId dest,
                            SimTime now) {
  if (inject_tunnel_downlink(flow, seq, dest, now)) return true;
  if (tunnels_) ++single_path_fallbacks_;
  const NodeId ap = freshest_ap(dest);
  if (!ap.valid()) return false;
  DataPayload payload;
  payload.flow = flow;
  payload.seq = seq;
  payload.origin = ap;
  payload.final_dst = dest;
  payload.created = now;
  return nodes_[ap.value]->inject_downlink(payload, now);
}

NodeId Network::freshest_ap(NodeId dest) const {
  std::int64_t best_freshness = -1;
  NodeId best = kNoNode;
  for (std::uint16_t ap = 0; ap < config_.num_access_points; ++ap) {
    if (!nodes_[ap]->alive()) continue;
    const std::int64_t freshness =
        nodes_[ap]->routing().downlink_freshness(dest);
    if (freshness > best_freshness) {
      best_freshness = freshness;
      best = NodeId{ap};
    }
  }
  return best;
}

void Network::observe_on_air(std::uint64_t asn, SimTime slot_start) {
  const bool reactive = medium_.num_reactive_jammers() > 0;
  if (!reactive && medium_.num_jammers() == 0) return;
  // Reactive jammers sniff every attempt on the air this slot (energy
  // detection at their own position — see Medium::observe_slot_attempts).
  // Runs once per executed slot at the serial on-air seam, so the sniffer's
  // histogram and epoch rollovers are identical at every shard/thread
  // setting and in both slot drivers.
  if (reactive) medium_.observe_slot_attempts(asn, slot_start, on_air_);
  // Victim slot-hit coverage: which data-frame attempts launched into a
  // (slot, channel) cell some jammer was actively blasting. Geometry-free
  // on purpose — it measures the jammer's schedule-targeting efficiency,
  // the quantity schedule randomization is supposed to destroy.
  for (std::size_t t = 0; t < transmitters_.size(); ++t) {
    if (transmitters_[t].plan.frame.type != FrameType::kData) continue;
    ++victim_tx_attempts_;
    if (medium_.any_jammer_active(on_air_[t].channel, asn, slot_start)) {
      ++victim_tx_jammed_;
    }
  }
}

void Network::advance_randomization_epoch() {
  if (!slot_swapper_) return;
  // Precedence edges from the live routing graph and the pre-permutation
  // (base) schedules: for each field device forwarding through a field-
  // device parent, the child's uplink TX offsets must still be able to
  // precede the parent's within one slotframe cycle wherever the base
  // schedule ordered them (AP parents sink traffic and impose nothing).
  const std::size_t n = nodes_.size();
  std::vector<std::vector<std::uint16_t>> uplink_tx(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (alive_[i] == 0) continue;
    for (const Cell& cell : nodes_[i]->base_app_slotframe().cells) {
      if (cell.option == CellOption::kTx && !cell.downlink) {
        uplink_tx[i].push_back(cell.slot_offset);
      }
    }
  }
  std::vector<PrecedenceEdge> edges;
  for (std::size_t i = config_.num_access_points; i < n; ++i) {
    if (alive_[i] == 0 || uplink_tx[i].empty()) continue;
    const RoutingProtocol& routing = nodes_[i]->routing();
    for (const NodeId parent :
         {routing.best_parent(), routing.second_best_parent()}) {
      if (!parent.valid() || parent.value < config_.num_access_points) {
        continue;
      }
      if (parent.value >= n || alive_[parent.value] == 0) continue;
      if (uplink_tx[parent.value].empty()) continue;
      PrecedenceEdge edge;
      edge.child_tx = uplink_tx[i];
      edge.parent_tx = uplink_tx[parent.value];
      edges.push_back(std::move(edge));
    }
  }
  app_slot_perm_ = slot_swapper_->advance_epoch(swap_epoch_++, edges);
  // Atomic reinstall: every alive node re-derives its schedule through the
  // new permutation inside this one event, in id order, via the ordinary
  // install path (occupancy listeners and the wake engine see a normal
  // schedule change). Slots never interleave with a half-switched network.
  for (std::size_t i = 0; i < n; ++i) {
    if (alive_[i] != 0) nodes_[i]->refresh_schedule();
  }
  if (monitor_) monitor_->on_swap_epoch(sim_.now());
}

void Network::set_node_alive(NodeId id, bool alive) {
  const auto i = static_cast<std::size_t>(id.value);
  const SimTime now = sim_.now();
  if (started_ && nodes_[i]->alive() != alive) {
    // The slot firing exactly at this instant runs after this injection
    // event (it was scheduled later), so it excludes a dying node and
    // includes a reviving one: account strictly-before in both directions.
    if (!alive) {
      settle_node_to(i, slots_before(now));
    } else {
      slots_charged_[i] = slots_before(now);
    }
  }
  if (nodes_[i]->alive() != alive) {
    if (alive) {
      // Open the rejoin measurement BEFORE restarting the node: a revived
      // access point rejoins instantly inside set_alive.
      pending_revive_[i] = static_cast<std::int32_t>(revivals_.size());
      revivals_.push_back(ReviveRecord{id, now, SimTime{-1}});
    } else {
      pending_revive_[i] = -1;  // an open record stays never-rejoined
    }
  }
  node(id).set_alive(alive, now);  // revival refreshes the wakeup via the
                                   // MAC's unsynced notification
  if (engine_active()) {
    if (alive) {
      // Not reachable through the MAC's notifications alone: a node that
      // died while already unsynced revives without a sync transition.
      on_node_wake_dirty(id);
    } else {
      set_scanner(i, false);
      clear_listen_registration(i);
      next_wake_[i] = kNeverOccupied;
      arm_engine();
    }
  }
  if (manager_) manager_->notify_dynamics();
  // Crisp repair anchors: a crash (or revival) that breaks or heals a
  // tunnel is observed at the injection instant, not a maintenance period
  // later.
  if (tunnels_) tunnels_->maintain(now);
}

void Network::inject_clock_jump(NodeId id, double offset_us) {
  if (id.value >= nodes_.size()) return;
  Node& nd = node(id);
  if (nd.is_access_point()) return;  // APs are the clock reference
  nd.mac().inject_clock_offset(offset_us, sim_.now());
  // No wake update needed: a jump moves no deadline (the drift projections
  // are anchored at the last correction and a step does not change them).
}

std::size_t Network::joined_count() const {
  std::size_t n = 0;
  for (std::size_t i = config_.num_access_points; i < nodes_.size(); ++i) {
    if (joined_at_[i].us >= 0) ++n;
  }
  return n;
}

double Network::total_energy_mj() const {
  // Logical constness: settling only converts accrued-but-unrecorded sleep
  // time into meter state; it never changes what a reading means.
  const_cast<Network*>(this)->settle_all();
  double mj = 0.0;
  for (std::size_t i = config_.num_access_points; i < nodes_.size(); ++i) {
    mj += meters_[i].energy_mj();
  }
  return mj;
}

double Network::mean_duty_cycle() const {
  const_cast<Network*>(this)->settle_all();
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = config_.num_access_points; i < nodes_.size(); ++i) {
    sum += meters_[i].duty_cycle();
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

void Network::reset_energy() {
  settle_all();  // pending sleep belongs to the window being discarded
  for (EnergyMeter& meter : meters_) meter.reset();
}

std::uint64_t Network::current_asn() const {
  if (!config_.use_slot_engine) return asn_;
  if (!started_) return 0;
  return slots_completed(sim_.now());
}

// --- shard regions ---

template <typename Fn>
void Network::run_region(std::size_t shards, Fn&& fn) {
  if (shards == 1) {
    fn(std::size_t{0});
    return;
  }
  const bool pf = prof::enabled();
  auto task = [&](std::size_t s) {
    const std::uint64_t t0 = pf ? prof::now_ns() : 0;
    Simulator::set_defer_buffer(&defer_bufs_[s]);
    fn(s);
    Simulator::set_defer_buffer(nullptr);
    if (pf) shard_busy_ns_[s] += prof::now_ns() - t0;
  };
  pool_->run(shards, task);
  // The serial post-barrier merge: nothing else runs between the barrier
  // and this replay, so the sorted keys reproduce the serial effect order
  // and seq values.
  sim_.replay_deferred(defer_bufs_.data(), shards);
}

template <typename NodeOf>
void Network::partition_by_shard(
    std::vector<std::vector<std::uint32_t>>& lists, std::size_t n,
    NodeOf node_of) const {
  for (std::vector<std::uint32_t>& list : lists) list.clear();
  for (std::size_t k = 0; k < n; ++k) {
    lists[shard_of_node_[node_of(k)]].push_back(static_cast<std::uint32_t>(k));
  }
}

// --- slot engine ---

std::uint64_t Network::slots_completed(SimTime t) const {
  const std::int64_t d = t.us - start_.us;
  return d <= 0 ? 0 : static_cast<std::uint64_t>(d / kSlotDuration.us);
}

std::uint64_t Network::slots_before(SimTime t) const {
  const std::int64_t d = t.us - start_.us;
  return d <= 0 ? 0 : static_cast<std::uint64_t>((d - 1) / kSlotDuration.us);
}

std::uint64_t Network::asn_floor(SimTime t) const {
  const std::int64_t d = t.us - start_.us;
  if (d <= kSlotDuration.us) return 0;
  return static_cast<std::uint64_t>((d + kSlotDuration.us - 1) /
                                        kSlotDuration.us -
                                    1);
}

void Network::set_scanner(std::size_t i, bool scanning) {
  if (scanning_.empty() || (scanning_[i] != 0) == scanning) return;
  scanning_[i] = scanning ? 1 : 0;
  const auto v = static_cast<std::uint16_t>(i);
  const auto it = std::lower_bound(scanners_.begin(), scanners_.end(), v);
  if (scanning) {
    scanners_.insert(it, v);
  } else if (it != scanners_.end() && *it == v) {
    scanners_.erase(it);
  }
}

void Network::update_listen_registration(std::size_t i) {
  if (registered_.empty()) return;
  const TschMac& mac = nodes_[i]->mac();
  const Schedule& sched = mac.schedule();
  // A scanner listens through its scan plan, not its schedule: it registers
  // nothing, and settle_node_to() reads registered_ only while synced.
  const bool synced = mac.synced();
  const auto v = static_cast<std::uint16_t>(i);
  for (int t = 0; t < kNumTrafficClasses; ++t) {
    const auto traffic = static_cast<TrafficClass>(t);
    const std::uint16_t length = synced ? sched.frame_length(traffic) : 0;
    const auto offsets = synced ? sched.listen_offsets(traffic)
                                : std::span<const std::uint16_t>{};
    RegisteredFrame& reg = registered_[i][t];
    if (reg.length == length &&
        std::equal(reg.offsets.begin(), reg.offsets.end(), offsets.begin(),
                   offsets.end())) {
      continue;  // unchanged pattern; buckets already match
    }
    // Remove the old membership, then insert the new one.
    unlist(v, traffic, reg);
    reg.length = length;
    reg.offsets.assign(offsets.begin(), offsets.end());
    if (length == 0 || reg.offsets.empty()) continue;
    BucketFrame* frame = nullptr;
    for (auto& bucket : listen_buckets_) {
      if (bucket.traffic == traffic && bucket.length == length) {
        frame = &bucket;
        break;
      }
    }
    if (frame == nullptr) {
      listen_buckets_.push_back(BucketFrame{traffic, length, {}});
      frame = &listen_buckets_.back();
      frame->nodes.resize(length);
    }
    for (const std::uint16_t offset : reg.offsets) {
      auto& slot = frame->nodes[offset];
      slot.insert(std::lower_bound(slot.begin(), slot.end(), v), v);
    }
  }
}

void Network::clear_listen_registration(std::size_t i) {
  if (registered_.empty()) return;
  for (int t = 0; t < kNumTrafficClasses; ++t) {
    unlist(static_cast<std::uint16_t>(i), static_cast<TrafficClass>(t),
           registered_[i][t]);
    registered_[i][t] = RegisteredFrame{};
  }
}

void Network::unlist(std::uint16_t v, TrafficClass traffic,
                     const RegisteredFrame& reg) {
  for (auto& bucket : listen_buckets_) {
    if (bucket.traffic != traffic || bucket.length != reg.length) continue;
    for (const std::uint16_t offset : reg.offsets) {
      auto& slot = bucket.nodes[offset];
      const auto it = std::lower_bound(slot.begin(), slot.end(), v);
      if (it != slot.end() && *it == v) slot.erase(it);
    }
    return;
  }
}

std::uint64_t Network::next_registered_listen(std::size_t i,
                                              std::uint64_t from) const {
  std::uint64_t next = kNeverOccupied;
  for (const RegisteredFrame& reg : registered_[i]) {
    next = std::min(next, Schedule::next_in(reg.offsets, reg.length, from));
  }
  return next;
}

void Network::apply_wake_change(std::size_t i, std::uint64_t settle_target,
                                std::uint64_t refresh_from) {
  // Settle with the *old* registered pattern: the slots up to the change
  // used it. Only then mirror the new pattern into the buckets.
  if (nodes_[i]->alive()) settle_node_to(i, settle_target);
  update_listen_registration(i);
  refresh_wake(i, refresh_from);
}

void Network::refresh_wake(std::size_t i, std::uint64_t from) {
  const Node& nd = *nodes_[i];
  if (alive_[i] == 0) {
    set_scanner(i, false);
    next_wake_[i] = kNeverOccupied;
    return;
  }
  const TschMac& mac = nd.mac();
  if (!mac.synced()) {
    // Scanners carry no heap entry: a frame needs some synced node's
    // TX-capable cell, which is a scheduled wake, and the executed slot
    // takes the scanners it can reach. Their scan state may have just been
    // reset, so the cached scan channel is recomputed on next use.
    set_scanner(i, true);
    scan_channel_until_[i] = 0;
    next_wake_[i] = kNeverOccupied;
    return;
  }
  set_scanner(i, false);
  std::uint64_t wake = mac.next_tx_capable_asn(from);
  if (!nd.is_access_point()) {
    // First slot whose end_slot() sees now >= deadline: the node must wake
    // there to act on it even if its schedule is idle. The deadline is the
    // earlier of the sync timeout and the drift budget (keep-alive due /
    // resync failure) — end_slot() handles all three.
    // slot_end(k) = start_ + (k+2)*slot >= deadline.
    const SimTime deadline =
        std::min(mac.sync_deadline(), mac.drift_deadline());
    const std::int64_t lead = deadline.us - (start_.us + kSlotDuration.us);
    const std::int64_t k =
        lead <= 0 ? -1 : (lead + kSlotDuration.us - 1) / kSlotDuration.us - 1;
    const std::uint64_t timeout_wake =
        (k < 0 || static_cast<std::uint64_t>(k) < from)
            ? from
            : static_cast<std::uint64_t>(k);
    wake = std::min(wake, timeout_wake);
  }
  next_wake_[i] = wake;
  if (wake == kNeverOccupied) return;
  wake_heap_.push(wake, static_cast<std::uint16_t>(i));
}

void Network::arm_engine() {
  if (in_slot_ || engine_yielded_) return;  // re-armed after the slot runs
  // Arm at the heap minimum, pruned of stale tops first.
  while (!wake_heap_.empty()) {
    const WakeHeap::Entry& top = wake_heap_.top();
    if (next_wake_[top.node] == top.asn && alive_[top.node] != 0) break;
    wake_heap_.pop();  // stale
  }
  if (wake_heap_.empty()) {
    engine_event_.cancel();
    armed_asn_ = kNeverOccupied;
    return;
  }
  const std::uint64_t target = wake_heap_.top().asn;
  if (engine_event_.pending() && armed_asn_ == target) return;
  engine_event_.cancel();
  armed_asn_ = target;
  engine_event_ = sim_.schedule_at(slot_time(target), [this] { engine_tick(); });
}

void Network::engine_tick() {
  if (!engine_yielded_ && sim_.has_pending_at(sim_.now())) {
    // Yield once: re-scheduling at the same instant gives this event the
    // newest sequence number, so anything else due now (flow generators on
    // slot boundaries, failure injections, protocol timers) runs first —
    // exactly the order the polled loop produces, whose tick is armed only
    // one slot ahead and therefore always newest. When nothing else is due
    // at this instant the yield would be a no-op, so it is skipped and the
    // common case costs one simulator event per woken slot.
    engine_yielded_ = true;
    engine_event_ = sim_.schedule_at(sim_.now(), [this] { engine_tick(); });
    return;
  }
  engine_yielded_ = false;
  const bool pf = prof::enabled();
  const std::uint64_t slot_t0 = pf ? prof::now_ns() : 0;
  std::uint64_t mark = slot_t0;
  const std::uint64_t asn = armed_asn_;
  armed_asn_ = kNeverOccupied;

  participants_.clear();
  // Pop every due entry. The heap orders (asn, node), so this slot's live
  // entries come out in ascending node order, and a node pushed twice for
  // the same slot pops twice in a row: the participants are sorted and
  // duplicate-free without a sort.
  while (!wake_heap_.empty() && wake_heap_.top().asn <= asn) {
    const WakeHeap::Entry entry = wake_heap_.pop();
    if (entry.asn != asn) continue;                     // stale (past)
    if (next_wake_[entry.node] != entry.asn) continue;  // stale (moved)
    if (alive_[entry.node] == 0) continue;
    if (!participants_.empty() && participants_.back() == entry.node) {
      continue;  // duplicate push
    }
    participants_.push_back(entry.node);
  }

  // Slot set: the TX-capable (heap-due) nodes and every synced node
  // listening at this ASN per the reverse listen index. Scanners join
  // inside process_slot, once the on-air list shows which of them a frame
  // can reach. Every source is already sorted and duplicate-free
  // (participants_ above, the per-offset bucket lists), so pairwise
  // set_union keeps the set sorted in linear time.
  slot_nodes_.assign(participants_.begin(), participants_.end());
  for (const BucketFrame& bucket : listen_buckets_) {
    const auto& at = bucket.nodes[asn % bucket.length];
    if (at.empty()) continue;
    merge_scratch_.clear();
    std::set_union(slot_nodes_.begin(), slot_nodes_.end(), at.begin(),
                   at.end(), std::back_inserter(merge_scratch_));
    slot_nodes_.swap(merge_scratch_);
  }

  if (pf) mark = prof::lap(prof::kWakePop, mark);

  last_processed_asn_ = static_cast<std::int64_t>(asn);
  in_slot_ = true;
  dirty_.clear();
  process_slot(asn, sim_.now(), slot_nodes_, pf ? &mark : nullptr);
  in_slot_ = false;

  // Only the heap-due nodes need a recomputed TX wake: pure listeners'
  // wakes are untouched (their sync deadline moving later on an EB heard
  // here only makes the old heap entry conservatively early), and any node
  // whose queues or slotframes changed this slot notified into dirty_.
  // Serial at every shard count: a refresh is a few loads and one heap push.
  for (const std::uint16_t i : participants_) refresh_wake(i, asn + 1);
  for (const std::uint16_t i : dirty_) apply_wake_change(i, asn + 1, asn + 1);
  arm_engine();
  if (pf) {
    const std::uint64_t now = prof::now_ns();
    prof::add(prof::kWakeRefresh, now - mark);
    prof::add(prof::kSlotTotal, now - slot_t0);
  }
}

void Network::on_node_wake_dirty(NodeId id) {
  if (!engine_active() || next_wake_.empty()) return;
  if (in_slot_) {
    // Applied after the slot. Raised on a shard task, the push lands at
    // the region's replay in serial order.
    sim_.run_in_order([this, node = id.value] { dirty_.push_back(node); });
    return;
  }
  std::uint64_t from = asn_floor(sim_.now());
  const auto floor_asn = static_cast<std::uint64_t>(last_processed_asn_ + 1);
  if (from < floor_asn) from = floor_asn;
  // Slots strictly before this instant used the old listen pattern; the
  // slot whose tick is exactly now (if any) runs after this event and uses
  // the new one — same order as the polled loop, whose tick is always the
  // newest event at its instant.
  apply_wake_change(id.value, slots_before(sim_.now()), from);
  arm_engine();
}

void Network::settle_node_to(std::size_t i, std::uint64_t target) {
  if (slots_charged_.empty()) return;  // not started
  if (target <= slots_charged_[i]) return;
  const std::uint64_t from = slots_charged_[i];
  const std::uint64_t n = target - from;
  Node& nd = *nodes_[i];
  EnergyMeter& meter = meters_[i];
  const SimDuration span{kSlotDuration.us * static_cast<std::int64_t>(n)};
  if (!nd.mac().synced()) {
    // Scanning the whole window: full-slot listens, and the scan-dwell
    // counter advances exactly as if plan_slot had run in each slot. Sync
    // state is constant across the window — it only changes inside executed
    // slots, which settle first.
    nd.mac().advance_scan(n);
    meter.charge(RadioState::kListen, span);
  } else {
    // Skipped slots where the registered pattern listens cost one RX guard
    // each (nothing was on the air there — any transmitter would have made
    // the slot TX-capable and hence executed); the rest of the window slept.
    std::uint64_t listens = 0;
    if (!registered_.empty()) {
      for (std::uint64_t w = next_registered_listen(i, from); w < target;
           w = next_registered_listen(i, w + 1)) {
        ++listens;
      }
    }
    if (listens > 0) {
      const SimDuration guard{SlotTiming::rx_guard().us *
                              static_cast<std::int64_t>(listens)};
      meter.charge(RadioState::kListen, guard);
      meter.charge(RadioState::kSleep, span - guard);
    } else {
      meter.charge(RadioState::kSleep, span);
    }
  }
  slots_charged_[i] = target;
}

void Network::settle_all() {
  if (!started_) return;
  const std::uint64_t target = slots_completed(sim_.now());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (alive_[i] != 0) settle_node_to(i, target);
  }
}

bool Network::add_near_scanners(
    std::uint64_t asn, SimTime slot_start,
    const std::vector<std::uint16_t>& participants) {
  static_assert(kNumChannels <= 32, "on-air channel mask is 32 bits");
  std::uint32_t on_air_channels = 0;
  for (const TransmissionAttempt& attempt : on_air_) {
    on_air_channels |= std::uint32_t{1} << attempt.channel;
  }
  // A scanner can hear only the co-channel attempts coupled to it. On an
  // active grid empty_near() is false for every scanner with
  // such an attempt in its 3x3 cell neighbourhood; on an inactive grid it
  // is always false and the channel test alone is exact. Keeping a few
  // extra scanners is harmless: they run exactly as they always did.
  near_scanners_.clear();
  for (const std::uint16_t i : scanners_) {
    if (asn >= scan_channel_until_[i]) {
      // The channel asn - slots_charged_[i] scan slots past the counter:
      // the skipped slots up to asn settle one scan slot each.
      const TschMac::ScanDwell dwell =
          nodes_[i]->mac().scan_dwell_ahead(asn - slots_charged_[i]);
      scan_channel_[i] = dwell.channel;
      scan_channel_until_[i] = asn + dwell.slots;
    }
    const PhysicalChannel channel = scan_channel_[i];
    if (((on_air_channels >> channel) & 1U) == 0 ||
        cell_index_.empty_near(i, channel)) {
      continue;
    }
    near_scanners_.push_back(i);
  }
  if (near_scanners_.empty()) return false;
  // Settle + plan, serially: a handful per slot even on a city floor.
  for (const std::uint16_t i : near_scanners_) {
    if (asn > slots_charged_[i]) settle_node_to(i, asn);
    const SlotPlan plan = nodes_[i]->mac().plan_slot(asn, slot_start);
    kinds_[i] = plan.kind;
    channels_[i] = plan.channel;
  }
  // Merge by id, so the listener order (hence the reception, ACK and
  // delivery order) is the one a full participant list produces. Scan
  // listeners stay guard-exempt.
  listener_scratch_.clear();
  auto next = listeners_.cbegin();
  for (const std::uint16_t i : near_scanners_) {
    for (; next != listeners_.cend() && next->id.value < i; ++next) {
      listener_scratch_.push_back(*next);
    }
    listener_scratch_.push_back(
        SlotReception::Listener{NodeId{i}, channels_[i]});
  }
  listener_scratch_.insert(listener_scratch_.end(), next, listeners_.cend());
  listeners_.swap(listener_scratch_);
  slot_members_.clear();
  std::merge(participants.begin(), participants.end(), near_scanners_.begin(),
             near_scanners_.end(), std::back_inserter(slot_members_));
  return true;
}

// --- polled driver ---

void Network::slot_tick() {
  const SimTime slot_start = sim_.now();
  const std::uint64_t asn = asn_++;
  const bool pf = prof::enabled();
  std::uint64_t mark = pf ? prof::now_ns() : 0;
  const std::uint64_t slot_t0 = mark;
  process_slot(asn, slot_start, all_ids_, pf ? &mark : nullptr);
  // mark comes back as the energy-settle end timestamp, so the slot total
  // is exactly the phase sum here (no trailing clock read).
  if (pf) prof::add(prof::kSlotTotal, mark - slot_t0);
  sim_.schedule_after(kSlotDuration, [this] { slot_tick(); });
}

// --- the slot body ---

void Network::resolve_receptions(std::uint64_t asn, SimTime slot_start,
                                 std::uint64_t* prof_mark) {
  // A listener can decode at most one frame per slot; if several pass the
  // SINR draw (rare near/far capture), the strongest wins. Every per-pair
  // draw is hashed from (asn, listener, sender) and every per-listener
  // outcome lands in its own rx_result_ slot, so the resolution order —
  // one list, or parallel across shards — cannot affect any result; the
  // merge into receptions_ is always listener order.
  receptions_.clear();
  const std::size_t num_listeners = listeners_.size();
  // On a quiet slot prof_mark is left untouched: the caller's next lap
  // absorbs this sliver, so nothing escapes the phase sum.
  if (transmitters_.empty() || num_listeners == 0) return;
  const bool pf = prof_mark != nullptr;
  std::uint64_t mark = pf ? *prof_mark : 0;
  rx_result_.assign(num_listeners, SlotReception::Outcome{});
  const std::uint64_t slot_draw_seed = hash_mix(draw_seed_, asn);
  // Resolution raises no hooks, so it fans out over every shard even when
  // the monitor keeps the node regions on one list.
  const std::size_t shards = num_shards_;
  if (shards > 1) {
    partition_by_shard(
        shard_listener_li_, num_listeners,
        [this](std::size_t li) { return listeners_[li].id.value; });
  }
  reception_.begin_slot(asn, slot_start, on_air_, listeners_);
  if (pf) mark = prof::lap(prof::kBucketBuild, mark);
  // One list charges the walk to begin_listener and the decode to decode;
  // shard workers are timed wholesale as shard_resolve.
  const bool lap_stages = pf && shards == 1;
  run_region(shards, [&](std::size_t s) {
    // Every shard walks all attempts but keeps only the listeners it owns,
    // on its own scratch: shards share no mutable state.
    reception_.walk(s, work_list(shards, shard_listener_li_, s, num_listeners),
                    rx_result_);
    if (lap_stages) mark = prof::lap(prof::kBeginListener, mark);
    reception_.decode(s, slot_draw_seed, rx_result_);
    if (lap_stages) mark = prof::lap(prof::kDecode, mark);
  });
  if (pf && shards > 1) mark = prof::lap(prof::kShardResolve, mark);
  // Guard misses sum in listener order (integer addition commutes, so the
  // total is shard-invariant anyway).
  for (std::size_t li = 0; li < num_listeners; ++li) {
    const SlotReception::Outcome& result = rx_result_[li];
    guard_misses_ += result.guard_misses;
    if (result.tx_index < 0) continue;
    receptions_.push_back(SlotRx{listeners_[li].id,
                                 static_cast<std::size_t>(result.tx_index),
                                 result.rss_dbm});
  }
  if (pf) *prof_mark = prof::lap(prof::kMergeCompact, mark);
}

void Network::process_slot(std::uint64_t asn, SimTime slot_start,
                           const std::vector<std::uint16_t>& participants,
                           std::uint64_t* prof_mark) {
  const bool pf = prof_mark != nullptr;
  std::uint64_t mark = pf ? *prof_mark : 0;
  const std::size_t shards = slot_shards_;
  const bool sharded = shards > 1;
  const std::size_t num_participants = participants.size();
  transmitters_.clear();
  listeners_.clear();
  on_air_.clear();

  // Sharded, each region walks its shard's participant ranks (ranks, not
  // ids, so sites and end_slot reproduce participant order); one list is
  // the identity over all participants.
  if (sharded) {
    partition_by_shard(shard_members_, num_participants,
                       [&](std::size_t pi) { return participants[pi]; });
  }

  // --- Region A: settle + plan + clock snapshot. Planning is node-local;
  // sharded, the rare hook or timer op it raises defers under the
  // participant-rank site, so the post-barrier replay is the serial order.
  // (On one list no buffer is installed and the sites are inert.)
  run_region(shards, [&](std::size_t s) {
    Simulator::DeferBuffer& defer = defer_bufs_[s];
    const std::span<const std::uint32_t> members =
        work_list(shards, shard_members_, s, num_participants);
    const std::size_t m = members.size();
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint16_t idx = participants[members[j]];
      // Pull the plan-state lines of a node a few steps ahead:
      // participants' TschMac objects are scattered across the heap and
      // each plan_slot() otherwise stalls on its first member load.
      if (j + 4 < m) {
        nodes_[participants[members[j + 4]]]->mac().prefetch_plan_state();
      }
      if (alive_[idx] == 0) continue;
      defer.set_site(members[j]);
      // Settle the engine's skipped slots right before planning: a scanner
      // that syncs *during* this slot must have them charged as scan
      // listening, not sleep. Settling is node-local, so interleaving it
      // with other nodes' planning is immaterial.
      if (asn > slots_charged_[idx]) settle_node_to(idx, asn);
      Node& nd = *nodes_[idx];
      SlotPlan plan = nd.mac().plan_slot(asn, slot_start);
      kinds_[idx] = plan.kind;
      channels_[idx] = plan.channel;
      // Snapshot the participant's slot-start clock offset once, right
      // after its own plan_slot (other nodes' planning cannot move it):
      // reused by the listener guard, the on-air attempts and the shard
      // resolvers and the ACK-borne correction, which read the array and
      // never TschMac. Exactly 0 while the node's clock is inactive.
      clock_offset_us_[idx] = nd.mac().clock_offset_us(slot_start);
      if (plan.kind == SlotPlan::Kind::kTx) plans_[idx] = std::move(plan);
    }
  });
  // Gather, in participant order: each transmitter's plan moves out of
  // plans_ into the transmitter list (plus its on-air attempt, for the SINR
  // interference terms); each listener joins the listener list.
  for (const std::uint16_t idx : participants) {
    if (alive_[idx] == 0) continue;
    switch (kinds_[idx]) {
      case SlotPlan::Kind::kTx: {
        const SlotPlan& plan =
            transmitters_.emplace_back(PlannedTx{NodeId{idx},
                                                 std::move(plans_[idx])})
                .plan;
        TransmissionAttempt& attempt = on_air_.emplace_back();
        attempt.sender = NodeId{idx};
        attempt.channel = plan.channel;
        attempt.frame_bytes = plan.frame.length_bytes;
        attempt.tx_power_dbm = config_.node.mac.tx_power_dbm;
        attempt.clock_offset_us = clock_offset_us_[idx];
        break;
      }
      case SlotPlan::Kind::kRx:
      case SlotPlan::Kind::kScan: {
        SlotReception::Listener listener{NodeId{idx}, channels_[idx]};
        if (kinds_[idx] == SlotPlan::Kind::kRx) {
          // Dedicated RX cells only open the guard window; scan slots
          // listen for the whole slot and stay guard-exempt (that is how a
          // drifted-out node can still capture an EB and resynchronize).
          // With every clock inactive all offsets are 0 and the guard
          // never closes.
          listener.clock_offset_us = clock_offset_us_[idx];
          listener.guard_us = static_cast<double>(SlotTiming::rx_guard().us);
        }
        listeners_.push_back(listener);
        break;
      }
      case SlotPlan::Kind::kSleep:
        break;
    }
  }

  observe_on_air(asn, slot_start);
  if (pf) mark = prof::lap(prof::kPlanGather, mark);

  // The slot's node list from here on: the participants, plus the scanners
  // a frame can reach (engine only: the polled loop passes every node and
  // keeps no scanner set).
  const std::vector<std::uint16_t>* members = &participants;
  if (!on_air_.empty() && !scanners_.empty()) {
    // The scanner selection reads a bucket index over the on-air attempts.
    cell_index_.build(medium_.grid(), on_air_);
    if (pf) mark = prof::lap(prof::kBucketBuild, mark);
    if (add_near_scanners(asn, slot_start, participants)) {
      members = &slot_members_;
      if (sharded) {
        partition_by_shard(shard_members_, members->size(),
                           [&](std::size_t pi) { return (*members)[pi]; });
      }
    }
    if (pf) mark = prof::lap(prof::kPlanGather, mark);
  }
  const std::vector<std::uint16_t>& slot_members = *members;
  const std::size_t num_members = slot_members.size();

  // Reception resolution through the transmitter-major walk: each
  // attempt's received power at a listener is computed once, and per-pair
  // interference falls out of the listener's total-power accumulator.
  // Draws are keyed by (asn, listener, sender), so skipping a pruned pair —
  // its mean RSS is provably too far below sensitivity for any fading
  // excursion to decode — affects no other pair's outcome (and its own draw
  // would fail anyway: probability is exactly 0).
  resolve_receptions(asn, slot_start, pf ? &mark : nullptr);

  // ACK resolution: a unicast frame decoded by its destination in an RX cell
  // triggers an ACK on the reverse link (a scanner acts on EBs only, so it
  // answers nothing). ACKs occupy the tail of the slot; concurrent
  // ACKs on the same channel interfere with each other and jammers apply.
  // ACK draws use their own key space so they can never collide with a data
  // draw of the same (asn, listener, sender). Serial at every shard count:
  // hashed draws, modest work.
  frame_acked_.assign(transmitters_.size(), 0);
  dst_received_.assign(transmitters_.size(), 0);
  ack_on_air_.clear();
  for (const SlotRx& rx : receptions_) {
    const PlannedTx& tx = transmitters_[rx.tx_index];
    if (tx.plan.expects_ack && tx.plan.frame.dst == rx.receiver &&
        kinds_[rx.receiver.value] == SlotPlan::Kind::kRx) {
      dst_received_[rx.tx_index] = 1;
      TransmissionAttempt ack;
      ack.sender = rx.receiver;
      ack.channel = tx.plan.channel;
      ack.frame_bytes = FrameSizes::kAck;
      ack.tx_power_dbm = config_.node.mac.tx_power_dbm;
      ack_on_air_.push_back(ack);
    }
  }
  {
    // The reverse-link walk reuses the same cell pruning as the data path:
    // an index over the slot's ACK attempts cuts each check's interference
    // sum to the acker's neighborhood (identical doubles — uncoupled ACKs
    // contribute exactly 0.0 there too).
    ack_cells_.build(medium_.grid(), ack_on_air_);
    std::size_t ack_index = 0;
    for (std::size_t t = 0; t < transmitters_.size(); ++t) {
      if (!dst_received_[t]) continue;
      const TransmissionAttempt& ack = ack_on_air_[ack_index++];
      const NodeId ack_rx = transmitters_[t].sender;
      if (!medium_.maybe_reachable(ack.sender, ack_rx)) continue;
      const double p = medium_.reception_probability(
          ack, ack_rx, asn, slot_start, ack_on_air_, 0.0,
          std::numeric_limits<double>::infinity(), &ack_cells_);
      if (!(p > 0.0)) continue;
      const double draw = hashed_uniform(
          hash_mix(ack_seed_, asn, ack_rx.value, ack.sender.value));
      frame_acked_[t] = draw < p ? 1 : 0;
    }
  }
  if (pf) mark = prof::lap(prof::kAckResolve, mark);

  // Deliver frames, then report TX outcomes, then meter energy and run
  // end_slot. Completion is credited at the end of the slot: the frame and
  // its ACK occupy the slot body. Sharded, receptions go to the receiver's
  // shard and transmissions to the sender's.
  const std::size_t num_rx = receptions_.size();
  const std::size_t num_tx = transmitters_.size();
  if (sharded) {
    partition_by_shard(shard_rx_, num_rx, [this](std::size_t r) {
      return receptions_[r].receiver.value;
    });
    partition_by_shard(shard_tx_, num_tx, [this](std::size_t t) {
      return transmitters_[t].sender.value;
    });
  }
  const SimTime slot_done = slot_start + kSlotDuration;
  // --- Region B: deliver + TX outcomes + energy + end_slot in one
  // fork-join. Every mutation inside is per-node (= per-shard): a delivery
  // touches the receiver, a TX outcome the transmitter (receivers never
  // transmit in the same slot), energy and end_slot the member. Sites
  // mirror the serial statement order — receptions at [0, R), TX outcomes
  // at [R, R+T), end_slot at R+T+pi — and the keys are disjoint, so one
  // sorted replay is the serial order. On one list it is that order.
  run_region(shards, [&](std::size_t s) {
    Simulator::DeferBuffer& defer = defer_bufs_[s];
    for (const std::uint32_t r : work_list(shards, shard_rx_, s, num_rx)) {
      defer.set_site(r);
      const SlotRx& rx = receptions_[r];
      // The sender's slot-start offset rides along: an EB from the time
      // source corrects the receiver's clock to it.
      node(rx.receiver)
          .mac()
          .on_receive(transmitters_[rx.tx_index].plan.frame, rx.rss_dbm,
                      slot_done, on_air_[rx.tx_index].clock_offset_us);
    }
    for (const std::uint32_t t : work_list(shards, shard_tx_, s, num_tx)) {
      defer.set_site(num_rx + t);
      const PlannedTx& tx = transmitters_[t];
      const bool acked = frame_acked_[t] != 0;
      // The acker's offset feeds the ACK-borne correction. It answered from
      // an RX cell, so Region A snapshotted it, and nothing in this slot
      // moves its clock: only an EB does, and it decoded this frame.
      node(tx.sender).mac().on_tx_outcome(
          acked, slot_done,
          acked ? clock_offset_us_[tx.plan.frame.dst.value] : 0.0);
    }
    if (pf && !sharded) mark = prof::lap(prof::kDeliver, mark);
    // Energy accounting: every slot member accounts exactly one slot
    // (absent nodes sleep, idle-listen or scan the whole slot; their energy
    // is settled lazily). Then end-of-slot housekeeping. Scanner slots skip
    // end_slot without touching the node: a member that planned kScan
    // either stayed unsynced (end_slot returns at its first branch) or
    // synced inside this very slot, in which case on_receive just projected
    // every deadline past slot_end — end_slot is a no-op for it either way.
    const std::span<const std::uint32_t> members =
        work_list(shards, shard_members_, s, num_members);
    for (const std::uint32_t pi : members) {
      const std::uint16_t i = slot_members[pi];
      if (alive_[i] == 0) continue;
      listen_time_[i] = SimDuration{0};
      tx_time_[i] = SimDuration{0};
      switch (kinds_[i]) {
        case SlotPlan::Kind::kScan:
          listen_time_[i] = kSlotDuration;
          break;
        case SlotPlan::Kind::kRx:
          listen_time_[i] = SlotTiming::rx_guard();
          break;
        default:
          break;
      }
    }
    for (const std::uint32_t t : work_list(shards, shard_tx_, s, num_tx)) {
      const PlannedTx& tx = transmitters_[t];
      const auto i = static_cast<std::size_t>(tx.sender.value);
      tx_time_[i] =
          tx_time_[i] + SlotTiming::frame_duration(tx.plan.frame.length_bytes);
      if (tx.plan.expects_ack) {
        listen_time_[i] = listen_time_[i] + SlotTiming::ack_wait() +
                          SlotTiming::ack_duration();
      }
    }
    // A scanner's full-slot listen already covers what it hears.
    for (const std::uint32_t r : work_list(shards, shard_rx_, s, num_rx)) {
      const SlotRx& rx = receptions_[r];
      const auto i = static_cast<std::size_t>(rx.receiver.value);
      if (kinds_[i] == SlotPlan::Kind::kScan) continue;
      const PlannedTx& tx = transmitters_[rx.tx_index];
      listen_time_[i] =
          listen_time_[i] +
          SlotTiming::frame_duration(tx.plan.frame.length_bytes);
      if (tx.plan.expects_ack && tx.plan.frame.dst == rx.receiver) {
        tx_time_[i] = tx_time_[i] + SlotTiming::ack_duration();
      }
    }
    for (const std::uint32_t pi : members) {
      const std::uint16_t i = slot_members[pi];
      if (alive_[i] == 0) continue;
      EnergyMeter& meter = meters_[i];
      SimDuration active = listen_time_[i] + tx_time_[i];
      if (active > kSlotDuration) active = kSlotDuration;
      if (tx_time_[i].us > 0) meter.charge(RadioState::kTransmit, tx_time_[i]);
      if (listen_time_[i].us > 0) {
        meter.charge(RadioState::kListen, listen_time_[i]);
      }
      meter.charge(RadioState::kSleep, kSlotDuration - active);
      slots_charged_[i] = asn + 1;
    }
    for (const std::uint32_t pi : members) {
      const std::uint16_t i = slot_members[pi];
      if (alive_[i] == 0 || kinds_[i] == SlotPlan::Kind::kScan) continue;
      defer.set_site(num_rx + num_tx + pi);
      nodes_[i]->mac().end_slot(slot_done);
    }
  });
  if (pf) {
    // Sharded, the workers' time is one lump, charged to deliver.
    if (sharded) mark = prof::lap(prof::kDeliver, mark);
    mark = prof::lap(prof::kEnergySettle, mark);
  }
  if (pf) *prof_mark = mark;
}

}  // namespace digs
