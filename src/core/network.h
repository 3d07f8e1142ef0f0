// The simulated WSAN: owns the simulator, the shared medium, every node,
// the application flows, and the per-slot TSCH loop that moves frames
// between nodes.
//
// The loop is slotted (TSCH is slot-synchronous): at every 10 ms boundary it
// collects each participating node's SlotPlan, resolves transmissions on the
// medium (SINR with co-channel transmitters and jammers), draws ACKs on the
// reverse links, delivers frames, reports transmission outcomes, and meters
// radio energy so each node accounts exactly one slot of radio time.
//
// One slot body (process_slot) runs every slot, at every shard count and
// clock setting: a pipeline of regions (settle + plan + clock snapshot,
// reception, then deliver + outcomes + energy + end_slot), each walking S
// work lists — the shard count when sharding is on and the invariant
// monitor is off, else 1. At S = 1 a region is a direct call and hooks fire
// in plain participant / reception / transmitter order. Above 1 regions
// fork-join over a pool, with every side effect deferred and replayed in
// that same order, so results are bit-identical at every shard and thread
// count. Reception raises no hooks and always uses every shard.
//
// Two drivers feed the slot body:
//   - the schedule-driven slot engine (default): a min-heap of per-node
//     next transmission-capable ASNs picks the slots to execute, and the
//     simulation jumps over the rest, where nothing can be on the air. An
//     executed slot visits the heap-due nodes, the synced nodes whose
//     registered pattern listens there, and only those unsynced scanners
//     that some on-air frame can reach on their scan channel. Everything
//     the left-out nodes would have done (sleep, an idle RX guard, a
//     full-slot scan listen) is settled lazily in exact per-slot integer
//     amounts, so results are bit-identical to polling.
//   - the polled loop (use_slot_engine = false): one event per slot asking
//     every alive node, kept as the reference implementation for the
//     equivalence tests.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/central_manager.h"
#include "core/node.h"
#include "core/wake_heap.h"
#include "phy/cell_index.h"
#include "phy/medium.h"
#include "phy/reception.h"
#include "routing/tunnel.h"
#include "sched/slot_swapper.h"
#include "sim/shard_pool.h"
#include "sim/simulator.h"
#include "stats/flow_stats.h"

namespace digs {

struct NetworkConfig {
  ProtocolSuite suite = ProtocolSuite::kDigs;
  std::uint16_t num_access_points = 2;
  NodeConfig node;
  MediumConfig medium;
  /// Manager behaviour for the kWirelessHart suite.
  CentralManagerConfig manager;
  std::uint64_t seed = 1;
  /// Schedule-driven slot engine (default) vs. the reference polled loop
  /// that visits every node every slot. Both produce bit-identical results;
  /// the flag exists for the equivalence tests and for debugging.
  bool use_slot_engine = true;
  /// Runs the NetworkInvariantMonitor: audits DAG-ness, table consistency
  /// and schedule conflict-freedom after every topology change and on a
  /// periodic sweep. Off by default — when off, no monitor is constructed
  /// and the per-change cost is one unset-hook branch.
  bool monitor_invariants = false;
  /// Intra-trial spatial shards: every slot runs its regions over this many
  /// work lists (nodes are assigned by grid cell when the spatial grid is
  /// active, round-robin otherwise) with a deterministic serial-order
  /// replay, so results are bit-identical at every shard count; with the
  /// invariant monitor on, only reception is sharded. 0 reads DIGS_SHARDS;
  /// unset means 1: one work list, no threads, no synchronization. Counts
  /// above 64 and non-numeric DIGS_SHARDS throw std::invalid_argument.
  std::size_t shards = 0;
  /// Worker threads driving the sharded slot pipeline, decoupled from the
  /// shard count: many cell-shards can load-balance over few cores (the
  /// claim order affects wall-clock only, never results). 0 reads the
  /// DIGS_SHARD_THREADS environment variable; still 0 defaults to
  /// min(shards, hardware threads). Clamped to [1, shards]; at 1 the
  /// shard pool has no extra workers and runs every region inline on the
  /// caller.
  /// Validated like `shards`, at every shard count.
  std::size_t shard_threads = 0;
  /// SlotSwapper-style schedule randomization (see sched/slot_swapper.h):
  /// every `epoch` the network draws a fresh validated permutation of the
  /// application slotframe's slot offsets and reinstalls every alive node's
  /// schedule through it, invalidating a reactive jammer's learned activity
  /// histogram. Off by default — no swapper, no timer, no per-rebuild cost.
  struct SlotRandomization {
    bool enabled = false;
    SimDuration epoch = seconds(static_cast<std::int64_t>(30));
    std::uint64_t seed = 1;
    std::uint32_t swaps_per_epoch = 48;
    std::uint32_t max_retries = 8;
  };
  SlotRandomization randomization;
  /// Replicate tunneled downlink packets over both node-disjoint paths
  /// (when node.enable_tunnels built them). Off sends the primary copy only
  /// — the ablation arm of the downlink-determinism bench. Ignored while
  /// tunnels are disabled.
  bool tunnel_replication = true;
};

/// A periodic application flow from a field device towards the APs.
struct FlowSpec {
  FlowId id;
  NodeId source;
  SimDuration period = seconds(static_cast<std::int64_t>(5));
  /// Offset of the first packet after Network::start().
  SimDuration start_offset = seconds(static_cast<std::int64_t>(0));
  /// Valid: a downlink / device-to-device flow towards this destination
  /// (requires the DiGS downlink extension to be enabled).
  NodeId downlink_dest;
};

class NetworkInvariantMonitor;

/// One node revival and when (whether) the revived node rejoined the
/// routing graph. A record whose node crashes again before rejoining stays
/// open forever (it never rejoined within that up-window).
struct ReviveRecord {
  NodeId node;
  SimTime revived_at;
  SimTime rejoined_at{-1};  // < 0: not (yet) rejoined
};

class Network {
 public:
  /// `positions[i]` is the position of node i; nodes
  /// [0, num_access_points) are the access points.
  Network(const NetworkConfig& config, std::vector<Position> positions);
  ~Network();

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] Medium& medium() { return medium_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Node& node(NodeId id) { return *nodes_[id.value]; }
  [[nodiscard]] const Node& node(NodeId id) const { return *nodes_[id.value]; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  void add_jammer(const JammerConfig& jammer) { medium_.add_jammer(jammer); }
  void add_reactive_jammer(const ReactiveJammerConfig& jammer) {
    medium_.add_reactive_jammer(jammer);
  }

  /// Registers a flow; packet generation starts at `first_packet` once the
  /// network is started.
  void add_flow(const FlowSpec& flow);

  /// Starts all nodes and the slot loop at the current simulator time.
  void start();

  void run_until(SimTime until);
  void run_for(SimDuration duration) { run_until(sim_.now() + duration); }

  /// Failure injection.
  void set_node_alive(NodeId id, bool alive);

  /// Injects a (possibly replicated) source-routed downlink packet for
  /// `flow` towards `dest` through the tunnel subsystem: re-derives the
  /// destination's tunnel pair from the live DAG, stamps the primary copy
  /// with its route stack at the ingress AP, and — when tunnel_replication
  /// is on and a backup path exists — a second copy down the backup tunnel.
  /// Returns false when no tunnel transport applies (tunnels disabled,
  /// non-DiGS suite, or no valid primary right now); the caller falls back
  /// to ordinary table-routed injection. Serial seams only.
  bool inject_tunnel_downlink(FlowId flow, std::uint32_t seq, NodeId dest,
                              SimTime now);

  /// Gateway-side downlink send: tunnels first (replicated when possible),
  /// otherwise table routing injected at the alive AP with the freshest
  /// downlink route (the wired-backbone rule), counting the single-path
  /// fallback. Returns false when nothing could be injected at all (no
  /// tunnel and no AP knows the destination) — the caller records the drop.
  /// Serial seams only.
  bool send_downlink(FlowId flow, std::uint32_t seq, NodeId dest, SimTime now);

  /// The multipath tunnel manager (only when config.node.enable_tunnels).
  [[nodiscard]] TunnelManager* tunnel_manager() { return tunnels_.get(); }
  [[nodiscard]] const TunnelManager* tunnel_manager() const {
    return tunnels_.get();
  }

  // --- tunnel replication observability ---

  /// Deliveries whose FIRST arriving copy rode the backup tunnel: the
  /// replication saved a packet the primary failed to deliver first.
  [[nodiscard]] std::uint64_t replication_wins() const {
    return replication_wins_;
  }
  /// Redundant copies that reached the egress destination after the other
  /// copy had already delivered (the replication cost nothing but airtime).
  [[nodiscard]] std::uint64_t replication_losses() const {
    return replication_losses_;
  }
  /// Every replicated copy suppressed by a node's duplicate filter
  /// (egress or an earlier shared hop).
  [[nodiscard]] std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }
  /// Tunnel injections that went out unreplicated (no backup path — e.g. a
  /// suite without second-best parents, or a partitioned DAG) plus
  /// downlink generations that fell back to table routing entirely.
  [[nodiscard]] std::uint64_t single_path_fallbacks() const {
    return single_path_fallbacks_;
  }

  /// Fault injection: instantaneously shifts one node's clock by
  /// `offset_us` (activating that node's clock if it was off, so the resync
  /// path can be exercised even at ppm = 0). No-op on access points.
  void inject_clock_jump(NodeId id, double offset_us);

  /// Receptions lost to the guard-time miss model (TX/RX clock offsets
  /// farther apart than the receiver's guard), network-wide since start.
  [[nodiscard]] std::uint64_t guard_misses() const { return guard_misses_; }

  /// The Network Manager (kWirelessHart suite only; nullptr otherwise).
  [[nodiscard]] CentralManager* manager() { return manager_.get(); }

  /// The invariant monitor (only when config.monitor_invariants).
  [[nodiscard]] NetworkInvariantMonitor* invariant_monitor() {
    return monitor_.get();
  }
  [[nodiscard]] const NetworkInvariantMonitor* invariant_monitor() const {
    return monitor_.get();
  }

  /// Every revival injected via set_node_alive(id, true), in order, with
  /// the rejoin instant filled in once the revived node selects a parent
  /// again (time-to-rejoin = rejoined_at - revived_at).
  [[nodiscard]] const std::vector<ReviveRecord>& revivals() const {
    return revivals_;
  }

  [[nodiscard]] FlowStatsCollector& stats() { return stats_; }
  [[nodiscard]] const FlowStatsCollector& stats() const { return stats_; }

  /// Join milestones (Fig. 13): time each field device first selected a
  /// best parent / its full parent set, indexed by node id (<0 = never).
  [[nodiscard]] const std::vector<SimTime>& join_times() const {
    return joined_at_;
  }
  [[nodiscard]] const std::vector<SimTime>& full_join_times() const {
    return fully_joined_at_;
  }
  [[nodiscard]] std::size_t joined_count() const;

  /// Total radio energy across field devices (mJ).
  [[nodiscard]] double total_energy_mj() const;
  /// Mean radio duty cycle across field devices.
  [[nodiscard]] double mean_duty_cycle() const;

  /// Resets energy meters (to scope energy to a measurement window).
  void reset_energy();

  /// Slots completed since start. Identical in both drivers: the engine
  /// derives it from simulated time, the polled loop counts ticks.
  [[nodiscard]] std::uint64_t current_asn() const;

  /// Resolved intra-trial shard count (config.shards / DIGS_SHARDS).
  [[nodiscard]] std::size_t num_shards() const { return num_shards_; }
  /// Resolved worker-thread count for the sharded slot pipeline
  /// (config.shard_threads / DIGS_SHARD_THREADS; 1 when unsharded).
  [[nodiscard]] std::size_t num_shard_threads() const {
    return shard_threads_;
  }
  /// Cumulative busy nanoseconds per shard across every parallel region
  /// since start (all-zero unless DIGS_PROF is on). max/mean over this
  /// vector is the load-imbalance ratio the scaling benches record.
  [[nodiscard]] const std::vector<std::uint64_t>& shard_busy_ns() const {
    return shard_busy_ns_;
  }

  // --- schedule randomization / jamming observability ---

  /// The current epoch's slot permutation (empty = identity / off).
  [[nodiscard]] const std::vector<std::uint16_t>& app_slot_permutation()
      const {
    return app_slot_perm_;
  }
  /// Randomization epochs completed, and the swapper's accepted/rejected
  /// transposition counters (0 when randomization is off).
  [[nodiscard]] std::uint64_t swap_epochs() const {
    return slot_swapper_ ? slot_swapper_->epochs() : 0;
  }
  [[nodiscard]] std::uint64_t swaps_applied() const {
    return slot_swapper_ ? slot_swapper_->swaps_applied() : 0;
  }
  [[nodiscard]] std::uint64_t swaps_rejected() const {
    return slot_swapper_ ? slot_swapper_->swaps_rejected() : 0;
  }
  /// Jammer slot-hit coverage: data-frame transmission attempts since
  /// start, and how many of them launched into a (slot, channel) some
  /// jammer was actively blasting. Counted only while jammers exist.
  [[nodiscard]] std::uint64_t victim_tx_attempts() const {
    return victim_tx_attempts_;
  }
  [[nodiscard]] std::uint64_t victim_tx_jammed() const {
    return victim_tx_jammed_;
  }

 private:
  // --- shared per-slot arithmetic ---

  /// Executes TSCH slot `asn` for `participants` (node indices in ascending
  /// id order). The polled loop passes every node; the engine passes the
  /// heap-due nodes and the registered listeners, and the slot adds the
  /// scanners a frame can reach once the on-air list is known. Absent nodes
  /// only sleep, idle-listen or scan with nothing to hear, so plans, medium
  /// resolution, RNG draws, deliveries, and energy are identical.
  /// Runs settle + plan, then deliver + outcomes + energy + end_slot, as
  /// regions over slot_shards_ work lists (see the file header). `prof_mark`, when
  /// non-null (profiler on), carries the caller's chained phase timestamp
  /// in and out so phase boundaries share clock reads and the DIGS_PROF
  /// phase sum stays gap-free against the slot total.
  void process_slot(std::uint64_t asn, SimTime slot_start,
                    const std::vector<std::uint16_t>& participants,
                    std::uint64_t* prof_mark = nullptr);

  /// Reception resolution for one busy slot: each of num_shards_ lists
  /// runs reception_'s walk and decode for the listeners its shard owns,
  /// filling their rx_result_ entries; the serial loop after the barrier
  /// compacts rx_result_ into receptions_ in listener order and sums the
  /// guard misses, so N-shard output is bit-identical to one list. Shards
  /// only read shared slot state and write their owned rx_result_ entries
  /// and their own walk scratch.
  void resolve_receptions(std::uint64_t asn, SimTime slot_start,
                          std::uint64_t* prof_mark = nullptr);
  /// Partitions nodes into num_shards_ shards: by grid cell when the
  /// spatial grid is active (keeps a shard's listeners cache-adjacent),
  /// round-robin otherwise. Assignment affects load balance only — never
  /// results.
  void assign_shards();

  void slot_tick();  // polled driver
  void generate_flow_packet(std::size_t flow_index);
  /// Wired-backbone rule: the alive access point holding the freshest
  /// downlink route to `dest` (a re-homed device may transiently appear in
  /// both AP subtrees; the newer DAO sequence wins), or kNoNode when no
  /// alive access point knows one.
  [[nodiscard]] NodeId freshest_ap(NodeId dest) const;

  /// Serial pre-resolution seam, run once per executed slot right after the
  /// on-air attempt list is gathered (both drivers, every shard count): feeds
  /// the slot's attempts to the medium's reactive-jammer sniffers and counts
  /// data-frame attempts launched into actively-jammed (slot, channel)
  /// cells. No-op (one branch) when no jammers exist.
  void observe_on_air(std::uint64_t asn, SimTime slot_start);
  /// Randomization epoch driver (PeriodicTimer event): rebuilds the
  /// precedence edges from the live routing graph and the pre-permutation
  /// schedules, advances the SlotSwapper, and atomically reinstalls every
  /// alive node's schedule through the new permutation in id order.
  void advance_randomization_epoch();

  // --- slot engine ---

  [[nodiscard]] bool engine_active() const {
    return config_.use_slot_engine && started_;
  }
  [[nodiscard]] SimTime slot_time(std::uint64_t asn) const {
    return SimTime{start_.us +
                   kSlotDuration.us * static_cast<std::int64_t>(asn + 1)};
  }
  /// Slots whose tick instant is <= t (the polled loop's asn_ at time t).
  [[nodiscard]] std::uint64_t slots_completed(SimTime t) const;
  /// Slots whose tick instant is strictly before t (used at kill/revive
  /// instants, where the tick at t fires after the injection event).
  [[nodiscard]] std::uint64_t slots_before(SimTime t) const;
  /// Smallest asn whose slot starts at or after t.
  [[nodiscard]] std::uint64_t asn_floor(SimTime t) const;

  /// Recomputes node i's next *transmission-capable* wakeup at or after
  /// `from` (sync TX cells, queue-backed routing/app cells, and the desync
  /// deadline) and feeds the heap. Pure-listen slots carry no heap entry:
  /// nothing is on the air unless some node is TX-capable, so the engine
  /// executes exactly the TX-capable slots, finds the listeners there via
  /// the reverse listen index, and settles skipped listens arithmetically.
  /// Unsynced alive nodes are tracked in `scanners_` instead of the heap,
  /// and their cached scan channel is forgotten: every reset of scan state
  /// (sync, desync, power-down, revival) reaches this branch before the
  /// node's next executed slot.
  void refresh_wake(std::size_t i, std::uint64_t from);
  /// Adds/removes node i from the sorted scanner set.
  void set_scanner(std::size_t i, bool scanning);

  /// Mirrors node i's current per-class listen pattern (slotframe length +
  /// listen offsets) into `registered_[i]` and the reverse listen buckets.
  /// The registered copy is what settling steps over, so it must be updated
  /// only *after* the slots that used the old pattern have been settled.
  /// An unsynced node registers no pattern (it listens through its scan
  /// plan, not its schedule), so the buckets hold synced nodes only.
  void update_listen_registration(std::size_t i);
  /// Drops node i from the listen buckets (node death).
  void clear_listen_registration(std::size_t i);
  /// Smallest ASN >= `from` at which node i's *registered* pattern listens.
  [[nodiscard]] std::uint64_t next_registered_listen(std::size_t i,
                                                     std::uint64_t from) const;
  /// Handles a deferred or immediate wakeup change for node i: settle the
  /// old pattern up to `settle_target`, re-register, recompute the wake.
  void apply_wake_change(std::size_t i, std::uint64_t settle_target,
                         std::uint64_t refresh_from);
  /// (Re)schedules the engine event for the heap minimum.
  void arm_engine();
  /// The engine event: yields once so same-instant events scheduled earlier
  /// run first (matching the polled loop, whose tick is always the newest
  /// event at its instant), then executes the slot.
  void engine_tick();
  /// Node state changed in a way that may move its wakeup earlier.
  void on_node_wake_dirty(NodeId id);

  /// Charges node i's uncharged slots up to `target` slots total: sleep for
  /// synced nodes, full-slot scan listening (plus the scan-dwell advance)
  /// for unsynced ones. Exact because the meter accumulates integer
  /// microseconds per state.
  void settle_node_to(std::size_t i, std::uint64_t target);
  /// Settles every alive node up to slots_completed(now).
  void settle_all();
  /// Engine only, after the gather of a slot with frames on the air and
  /// cell_index_ built over them: settles and plans the scanners some
  /// on-air attempt on their scan channel is coupled to, and merges them by
  /// id into listeners_ and, with `participants`, into slot_members_.
  /// Returns false, touching nothing, when no scanner is near a frame. A
  /// left-out scanner would hear nothing, so its slot is exactly the
  /// full-slot scan listen settle_node_to() charges.
  bool add_near_scanners(std::uint64_t asn, SimTime slot_start,
                         const std::vector<std::uint16_t>& participants);

  NetworkConfig config_;
  Simulator sim_;
  Medium medium_;
  Rng rng_;
  // Base keys for the per-pair reception and ACK draws: each Bernoulli draw
  // is hashed from (seed tag, asn, listener, sender) instead of consuming a
  // sequential stream, so skipping a provably-impossible pair (reachability
  // pruning) cannot shift any other pair's draw.
  std::uint64_t draw_seed_;
  std::uint64_t ack_seed_;
  // --- hot per-node state, struct-of-arrays ---
  // Owned here (not in Node) so the slot loop's liveness checks, energy
  // charges, and clock snapshots stride contiguous arrays instead of
  // pointer-chasing across Node heap objects. Nodes hold pointers into
  // alive_/meters_ (sized once before node construction, never reallocated).
  std::vector<std::uint8_t> alive_;
  std::vector<EnergyMeter> meters_;
  // Per-slot snapshot of each participant's clock offset at slot start
  // (µs; exactly 0 while its clock is inactive), taken once in the plan
  // loop and reused by the listener guard, the on-air attempts, the shard
  // resolvers and the ACK-borne correction, none of which call into
  // TschMac. Near scanners take none: they listen guard-exempt and never
  // ACK.
  std::vector<double> clock_offset_us_;

  // --- spatial shards ---
  std::size_t num_shards_{1};
  std::size_t shard_threads_{1};
  // Work lists of the slot's node regions: num_shards_ when sharding is on
  // and no monitor runs (its audits assume serial hook order), else 1.
  std::size_t slot_shards_{1};
  std::vector<std::uint16_t> shard_of_node_;
  std::unique_ptr<ShardPool> pool_;  // only when num_shards_ > 1

  /// Runs fn(s) for each of `shards` work lists. At 1, a direct call on
  /// the caller: no defer buffer, no replay. Above 1, on the pool (inline
  /// on the caller at 1 thread) with shard s's defer buffer installed and
  /// its busy time accumulated into shard_busy_ns_ (profiler on only),
  /// then one sim_.replay_deferred() over the shards' buffers: every side
  /// effect a region raises — event schedules and cancels, and the stat
  /// records and dirty-wake notices hooks route through
  /// Simulator::run_in_order — applies in the serial program order.
  template <typename Fn>
  void run_region(std::size_t shards, Fn&& fn);
  /// Shard s's work list over a per-slot array of n items: its partition in
  /// `lists` when the region runs sharded, else the identity prefix [0, n)
  /// (never rebuilt per slot).
  [[nodiscard]] std::span<const std::uint32_t> work_list(
      std::size_t shards, const std::vector<std::vector<std::uint32_t>>& lists,
      std::size_t s, std::size_t n) const {
    if (shards == 1) return {identity_.data(), n};
    return lists[s];
  }
  /// Rebuilds one list per shard over the indices [0, n) of a per-slot
  /// array, each index going to the shard owning node node_of(index); every
  /// list stays ascending.
  template <typename NodeOf>
  void partition_by_shard(std::vector<std::vector<std::uint32_t>>& lists,
                          std::size_t n, NodeOf node_of) const;

  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<CentralManager> manager_;
  std::unique_ptr<NetworkInvariantMonitor> monitor_;
  // --- multipath tunnel state (only when config.node.enable_tunnels) ---
  std::unique_ptr<TunnelManager> tunnels_;
  std::unique_ptr<PeriodicTimer> tunnel_timer_;
  std::uint64_t replication_wins_{0};
  std::uint64_t replication_losses_{0};
  std::uint64_t duplicates_suppressed_{0};
  std::uint64_t single_path_fallbacks_{0};
  std::vector<ReviveRecord> revivals_;
  // Per node: index into revivals_ of its open record (-1 = none). Cleared
  // on death — a revival interrupted by another crash never rejoined.
  std::vector<std::int32_t> pending_revive_;
  std::vector<FlowSpec> flows_;
  std::vector<std::uint32_t> flow_seq_;
  FlowStatsCollector stats_;
  std::vector<SimTime> joined_at_;
  std::vector<SimTime> fully_joined_at_;
  std::uint64_t asn_{0};  // polled driver's slot counter
  bool started_{false};
  // --- schedule randomization state ---
  std::unique_ptr<SlotSwapper> slot_swapper_;
  std::unique_ptr<PeriodicTimer> swap_timer_;
  // Current epoch permutation; empty = identity (the node hook then returns
  // nullptr and rebuilds skip the post-pass entirely).
  std::vector<std::uint16_t> app_slot_perm_;
  std::uint64_t swap_epoch_{0};
  // Jammer slot-hit coverage counters (see victim_tx_attempts()).
  std::uint64_t victim_tx_attempts_{0};
  std::uint64_t victim_tx_jammed_{0};
  std::uint64_t guard_misses_{0};

  SimTime start_{};  // instant of Network::start(); slot k starts at
                     // start_ + (k+1) * kSlotDuration
  // Per-node next wakeup ASN (kNeverOccupied = none); heap entries that
  // disagree with this array are stale.
  std::vector<std::uint64_t> next_wake_;
  // Every node's wakeups, fed serially at every shard count. The engine
  // arms at the minimum and pops a slot's due entries in (asn, node)
  // order, so the participants come out ascending with any duplicate
  // push adjacent.
  WakeHeap wake_heap_;
  EventHandle engine_event_;
  std::uint64_t armed_asn_{kNeverOccupied};
  std::int64_t last_processed_asn_{-1};
  bool in_slot_{false};
  bool engine_yielded_{false};
  // Nodes whose wakeup went dirty while a slot was executing.
  std::vector<std::uint16_t> dirty_;
  std::vector<std::uint16_t> participants_;
  std::vector<std::uint16_t> all_ids_;  // 0..N-1, for the polled driver
  std::vector<std::uint32_t> identity_;  // 0..N-1: every one-list work list
  // Unsynced alive nodes (ascending ids). An executed slot takes only those
  // an on-air frame can reach on their scan channel (add_near_scanners);
  // every other scan slot is settled lazily as a full-slot listen.
  std::vector<std::uint16_t> scanners_;
  std::vector<char> scanning_;            // membership flag, by node index
  // Per-node cache of the scan plan's channel: scan_channel_[i] holds for
  // every ASN below scan_channel_until_[i] (0 = unknown). Exact because a
  // scanner's scan counter and slots_charged_[i] advance together — every
  // slot, settled or planned, adds one to both — and refresh_wake() clears
  // it on every reset of scan state.
  std::vector<PhysicalChannel> scan_channel_;
  std::vector<std::uint64_t> scan_channel_until_;
  std::vector<std::uint16_t> near_scanners_;  // scratch: the slot's kept
                                              // scanners, ascending
  std::vector<std::uint16_t> slot_nodes_;  // scratch: heap-due + listeners
  std::vector<std::uint16_t> slot_members_;  // scratch: slot_nodes_ + kept
                                             // scanners
  std::vector<std::uint16_t> merge_scratch_;  // set_union double buffer

  // Reverse listen index: for each (class, slotframe length) in use, the
  // sorted set of nodes with a listen offset at each slot of the frame. At
  // an executed ASN the listeners are the union of the matching buckets —
  // no per-node query. Registered patterns (the exact offsets mirrored into
  // the buckets) also drive the arithmetic settling of skipped listens.
  struct BucketFrame {
    TrafficClass traffic;
    std::uint16_t length;
    std::vector<std::vector<std::uint16_t>> nodes;  // [offset] -> sorted ids
  };
  struct RegisteredFrame {
    std::uint16_t length{0};
    std::vector<std::uint16_t> offsets;
  };
  std::vector<BucketFrame> listen_buckets_;
  std::vector<std::array<RegisteredFrame, kNumTrafficClasses>> registered_;
  /// Removes node `v` from the buckets of its registered `traffic` pattern.
  void unlist(std::uint16_t v, TrafficClass traffic,
              const RegisteredFrame& reg);

  // Count of slots already charged to each node's energy meter; the gap to
  // slots_completed(now) is pure sleep, settled lazily in exact amounts.
  std::vector<std::uint64_t> slots_charged_;
  // Per-slot scratch indexed by node id; only participant entries are
  // written/read within one process_slot call.
  std::vector<SlotPlan::Kind> kinds_;
  std::vector<PhysicalChannel> channels_;
  std::vector<SimDuration> listen_time_;
  std::vector<SimDuration> tx_time_;

  // Per-slot reception scratch, reused across slots to avoid the per-slot
  // allocation churn of the busy path.
  struct PlannedTx {
    NodeId sender;
    SlotPlan plan;
  };
  struct SlotRx {
    NodeId receiver;
    std::size_t tx_index;
    double rss_dbm;
  };
  std::vector<PlannedTx> transmitters_;
  // Every RX-cell listener opens the guard window; scan listeners keep the
  // guard-exempt defaults, since they listen the whole slot.
  std::vector<SlotReception::Listener> listeners_;
  std::vector<SlotReception::Listener> listener_scratch_;  // merge buffer
  std::vector<TransmissionAttempt> on_air_;
  std::vector<SlotRx> receptions_;
  std::vector<std::uint8_t> frame_acked_;
  std::vector<std::uint8_t> dst_received_;
  std::vector<TransmissionAttempt> ack_on_air_;
  // Per-listener resolution result, written by exactly one shard each and
  // compacted into receptions_ in listener order after the barrier.
  std::vector<SlotReception::Outcome> rx_result_;
  // --- sharded-region arenas, sized once and reused across slots ---
  // Per-shard work lists, rebuilt serially each sharded slot in
  // O(P)/O(L)/O(T)/O(R) total: participant ranks, listener indices,
  // transmitter indices and reception indices owned by each shard. Each
  // region task walks only its own list. One-list regions walk identity_
  // instead and never touch these.
  std::vector<std::vector<std::uint32_t>> shard_members_;
  std::vector<std::vector<std::uint32_t>> shard_listener_li_;
  std::vector<std::vector<std::uint32_t>> shard_tx_;
  std::vector<std::vector<std::uint32_t>> shard_rx_;
  // Per-node plan storage for Region A (kTx entries only; the gather after
  // the region moves them out in participant order).
  std::vector<SlotPlan> plans_;
  // Per-shard deferred schedules, cancels and in-order calls.
  std::vector<Simulator::DeferBuffer> defer_bufs_;
  // Cumulative per-shard busy ns across regions (profiler on only).
  std::vector<std::uint64_t> shard_busy_ns_;
  // Per-slot attempt buckets by grid cell, built in busy slots while
  // scanners exist, for the scanner selection; ack_cells_ is the same index
  // over the slot's ACK attempts for the reverse-link resolution.
  CellAttemptIndex cell_index_;
  CellAttemptIndex ack_cells_;
  // The busy-slot reception walk, with one scratch per shard (one list
  // uses shard 0's).
  SlotReception reception_;
};

}  // namespace digs
