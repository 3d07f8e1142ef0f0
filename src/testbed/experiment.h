// Experiment harness: assembles a Network from a TestbedLayout and a suite,
// runs warmup -> (optional jammers / node failures) -> measurement window,
// and harvests the metrics the paper reports (per-flow PDR, latency,
// energy per delivered packet, duty cycle, repair times, join times).
//
// Every figure bench is a thin loop over ExperimentRunner with different
// parameters; repeated "flow sets" vary the experiment seed, which varies
// flow sources, fading, and traffic phases.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/fault_script.h"
#include "core/network.h"
#include "testbed/layouts.h"
#include "testbed/plant.h"

namespace digs {

struct ExperimentConfig {
  ProtocolSuite suite = ProtocolSuite::kDigs;
  std::uint64_t seed = 1;

  std::size_t num_flows = 8;
  SimDuration flow_period = seconds(static_cast<std::int64_t>(5));

  /// Network-formation time before traffic and measurement start.
  SimDuration warmup = seconds(static_cast<std::int64_t>(120));
  /// Measurement window.
  SimDuration duration = seconds(static_cast<std::int64_t>(300));
  /// Extra simulated time after the window so packets generated near its
  /// end can still be delivered (they count for the window's PDR).
  SimDuration stat_drain = seconds(static_cast<std::int64_t>(20));

  /// Jammers switch on this long after the measurement window starts
  /// (<0: never).
  std::optional<SimDuration> jammer_start_after =
      seconds(static_cast<std::int64_t>(0));
  std::size_t num_jammers = 0;
  JammerPattern jammer_pattern = JammerPattern::kWifiStreaming;
  /// JamLab runs on motes at the same 0 dBm as the field devices (the
  /// paper raises the jammers' power to emulate 802.11 reach, but CC2420
  /// tops out at 0 dBm); the damage stays local to the jammer, not
  /// floor-wide. Calibrated so the Orchestra baseline's worst-case
  /// flow-set PDR lands near the paper's ~0.76.
  double jammer_tx_power_dbm = -4.0;
  /// Macro on/off cycle for disturbers (Fig. 12: 5 min on / 5 min off);
  /// zero off-duration means continuously on.
  SimDuration jammer_on = seconds(static_cast<std::int64_t>(100000));
  SimDuration jammer_off = seconds(static_cast<std::int64_t>(0));

  /// Reactive (learning) jammers, placed on the same layout positions as
  /// the oblivious ones and switched on at the same jammer_start_after
  /// offset, with ReactiveJammerConfig's default shape: they sniff
  /// per-(slot-offset, channel-offset) activity over 1510-slot epochs and
  /// then jam the 423 hottest cells of each following epoch
  /// (phy/reactive_jammer.h). 423 matches the oblivious kWifiStreaming
  /// duty cycle (0.175 of the 151x16 cell grid), so reactive-vs-oblivious
  /// comparisons hold energy constant. FaultScript::reactive_jammer takes
  /// a per-jammer shape.
  std::size_t num_reactive_jammers = 0;

  /// SlotSwapper-style schedule randomization (sched/slot_swapper.h):
  /// every `randomize_epoch` the network permutes the application
  /// slotframe's slot offsets (validated against conflict-freedom and
  /// route precedence) and reinstalls every schedule, so a reactive
  /// jammer's learned histogram goes stale each epoch.
  bool randomize_schedule = false;
  SimDuration randomize_epoch = seconds(static_cast<std::int64_t>(30));
  std::uint64_t randomize_seed = 1;

  /// Declarative fault timeline (crash/recover cycles, link blackouts,
  /// AP failover, bursts), installed when the measurement window starts —
  /// offsets in the script are relative to warmup end.
  FaultScript faults;
  /// Runs the NetworkInvariantMonitor during the experiment; violations are
  /// counted in ExperimentResult::invariant_violations.
  bool monitor_invariants = false;

  /// Overrides applied to the default NodeConfig (slotframe lengths etc.).
  SchedulerConfig scheduler;
  /// Per-packet persistence measured in application slotframe cycles, so
  /// both suites keep a packet alive for the same wall-clock time (DiGS
  /// offers `attempts` tries per cycle, Orchestra one). Contiki TSCH's
  /// 8-retry default corresponds to 8 cycles.
  int max_delivery_cycles = 8;
  /// Optional Trickle override for both protocols (ablation).
  std::optional<TrickleConfig> trickle;
  /// Ablation: disable the paper's weighted-ETX advertisement (Eq. 1-3).
  bool use_weighted_etx = true;
  /// Slot driver selection (see NetworkConfig::use_slot_engine); the
  /// equivalence tests run the same experiment under both drivers.
  bool use_slot_engine = true;

  /// Oscillator drift: static tolerance (ppm) and slow random-walk
  /// amplitude (ppm), both 0 by default — the drift subsystem stays
  /// entirely inactive and runs are bit-identical to pre-drift builds.
  double clock_ppm = 0.0;
  double clock_walk_ppm = 0.0;

  /// Intra-trial spatial shards (see NetworkConfig::shards): 0 defers to
  /// the DIGS_SHARDS environment variable (default 1 = one work list).
  std::size_t shards = 0;
  /// Worker threads for the sharded slot pipeline (see
  /// NetworkConfig::shard_threads): 0 defers to DIGS_SHARD_THREADS, then
  /// min(shards, hardware threads).
  std::size_t shard_threads = 0;

  // --- multipath downlink tunnels + closed-loop control workload ---

  /// Builds node-disjoint AP->device tunnels (dedicated tunnel cell
  /// ladders, source-routed frames) for every downlink destination; also
  /// enables the DiGS downlink extension the fallback path needs.
  bool enable_tunnels = false;
  /// Replicate each tunneled packet over both paths (the ablation arm
  /// sends the primary copy only). Ignored unless enable_tunnels.
  bool tunnel_replication = true;
  /// Closed-loop control workload: this many PID-style loops (sensor
  /// device -> AP controller -> actuation downlink), 0 = none. Devices are
  /// drawn deterministically from the experiment seed.
  std::size_t control_loops = 0;
  /// Sampling/actuation period and sensor-to-actuator deadline of every
  /// control loop (see PlantConfig).
  SimDuration control_period = seconds(static_cast<std::int64_t>(1));
  SimDuration control_deadline = seconds(static_cast<std::int64_t>(5));
  /// Crash a relay node picked live from the interior of the first tunnel
  /// destination's primary path this long after the measurement window
  /// starts (nullopt: never), reviving it after the downtime — the
  /// replication-win scenario of the downlink bench. The runner rejects a
  /// negative offset, a downtime <= 0 and fewer than one strike.
  std::optional<SimDuration> crash_tunnel_relay_after;
  SimDuration crash_tunnel_relay_downtime =
      seconds(static_cast<std::int64_t>(30));
  /// Number of crash/revive strikes. Strike k fires 2*k*downtime after the
  /// first (one downtime of outage, one of recovery headroom), and re-picks
  /// its victim from the then-current primary path — repeated strikes keep
  /// hitting whatever relay actually carries the primary copies, which is
  /// what separates replicated from single-path delivery above seed noise.
  int crash_tunnel_relay_cycles = 1;
};

struct ExperimentResult {
  double overall_pdr{0};
  std::vector<double> flow_pdrs;
  std::vector<double> latencies_ms;
  /// Radio energy per delivered packet over the measurement window
  /// (mJ/packet), network-wide.
  double energy_per_delivered_mj{0};
  /// Mean radio duty cycle across field devices in the window.
  double duty_cycle{0};
  /// Duty cycle normalized per delivered packet (Fig. 12(c)), in
  /// percent per 100 packets.
  double duty_cycle_per_delivered{0};
  std::uint64_t delivered{0};
  std::uint64_t generated{0};
  /// Longest post-disturbance outage per flow (s); only flows that lost at
  /// least one packet appear.
  std::vector<double> repair_times_s;
  /// Per-device join time (s since network start) until the best parent is
  /// selected, Fig. 13; devices that never joined are absent.
  std::vector<double> join_times_s;
  /// Per-device time until the full parent set (best + second-best for
  /// DiGS); nodes with no eligible backup in radio range are absent.
  std::vector<double> full_join_times_s;
  /// The flow ids in flow_pdrs order, and per-(flow, seq) delivery map for
  /// micro-benchmarks.
  std::vector<FlowId> flow_ids;

  // --- recovery metrics (fault-script experiments) ---

  /// Node revivals injected during the run (crash/recover cycles).
  std::size_t revivals{0};
  /// Time-to-rejoin (s) per revival that rejoined the routing graph; a
  /// revival missing here never rejoined before the run ended (or crashed
  /// again first). Finite recovery for every revived node means
  /// rejoin_times_s.size() == revivals.
  std::vector<double> rejoin_times_s;
  /// PDR dip around one fault-script disturbance: how deep network-wide
  /// PDR fell below the pre-fault baseline and how long it stayed below
  /// (10 s bins; duration capped at the measurement window end).
  struct FaultDip {
    double at_s{0};        // disturbance offset from warmup end (s)
    double depth{0};       // baseline PDR minus the worst 10 s bin
    double duration_s{0};  // time until a bin returns near baseline
  };
  std::vector<FaultDip> fault_dips;
  /// Packets lost to stale routes (an ancestor's outdated downlink table
  /// sent them down a dead branch).
  std::uint64_t stale_route_drops{0};
  /// Violations the invariant monitor recorded (0 when not monitoring).
  std::size_t invariant_violations{0};

  // --- jamming / randomization metrics ---

  /// Data-frame transmission attempts network-wide since start, and how
  /// many launched into a (slot, channel) an active jammer was blasting.
  /// Their ratio (jam_slot_hit_rate) is the jammer's schedule-targeting
  /// efficiency — the quantity randomization is designed to destroy.
  std::uint64_t victim_tx_attempts{0};
  std::uint64_t victim_tx_jammed{0};
  double jam_slot_hit_rate{0};
  /// Randomization epochs completed, and the SlotSwapper's accepted /
  /// rejected transposition counts (all 0 with randomization off).
  std::uint64_t swap_epochs{0};
  std::uint64_t swaps_applied{0};
  std::uint64_t swaps_rejected{0};
  /// Swap-epoch audits run by the invariant monitor and violations they
  /// detected (0 unless both monitoring and randomization are on).
  std::uint64_t swap_epoch_audits{0};
  std::uint64_t swap_epoch_violations{0};

  // --- tunnel / control-loop metrics (all 0 without tunnels / loops) ---

  /// Mean quadratic stage cost per control tick per loop, actuation
  /// commands issued in the window, and how many missed the sensor-to-
  /// actuator deadline (including never-delivered commands).
  double control_cost{0};
  std::uint64_t actuations{0};
  std::uint64_t actuation_deadline_misses{0};
  /// Sensor-sample-to-actuator latencies (ms) of delivered actuations, and
  /// their p99.9 (0 when no samples) — the bounded-tail gate.
  std::vector<double> sensor_actuator_latencies_ms;
  double p999_sensor_actuator_ms{0};
  /// Replication scoreboard (Network counters over the whole run):
  /// deliveries won by the backup copy, redundant copies suppressed at the
  /// egress, all suppressed duplicates, and single-path fallbacks.
  std::uint64_t replication_wins{0};
  std::uint64_t replication_losses{0};
  std::uint64_t duplicates_suppressed{0};
  std::uint64_t single_path_fallbacks{0};
  /// Tunnel derivations that changed a destination's hop lists, and the
  /// broken->repaired durations the maintenance loop observed.
  std::uint64_t tunnel_rebuilds{0};
  std::vector<double> tunnel_repair_times_s;
  /// Monitor violations of the tunnel invariants only (loop-freedom,
  /// disjointness honesty, replication conflict-freedom) — 0 unless
  /// monitor_invariants is on. The acceptance gate on multipath safety.
  std::uint64_t tunnel_violations{0};

  // --- clock-drift metrics (all 0 when drift is disabled) ---

  /// Desynchronizations across all nodes over the whole run (sync timeout,
  /// resync-deadline expiry, or repeated keep-alive failure).
  std::uint64_t desync_events{0};
  /// Receptions lost because the TX/RX relative clock offset exceeded the
  /// guard time.
  std::uint64_t guard_misses{0};
  /// Keep-alive polls enqueued (resync overhead).
  std::uint64_t keepalives_sent{0};
  /// Clock corrections applied from EBs and time-source ACKs.
  std::uint64_t clock_corrections{0};
};

class ExperimentRunner {
 public:
  /// Throws std::invalid_argument when a `faults` event names a node
  /// outside the layout.
  ExperimentRunner(const TestbedLayout& layout, const ExperimentConfig& config);

  /// Runs the full experiment and returns the harvested metrics. The
  /// Network remains accessible for custom inspection (micro-benchmarks).
  ExperimentResult run();

  [[nodiscard]] Network& network() { return *network_; }
  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  /// Time the measurement window started (valid after run()).
  [[nodiscard]] SimTime measure_start() const { return measure_start_; }

  /// Default node configuration used by all experiments; exposed so tests
  /// and ablations share it.
  [[nodiscard]] static NodeConfig default_node_config();
  [[nodiscard]] static MediumConfig default_medium_config();

  /// The control workload (nullptr unless control_loops > 0).
  [[nodiscard]] PlantWorkload* plant() { return plant_.get(); }

 private:
  TestbedLayout layout_;
  ExperimentConfig config_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<PlantWorkload> plant_;
  SimTime measure_start_{};
};

/// Longest per-flow outage (s) after `event`: the Fig. 4 repair-time
/// measurement (generation of the first lost packet to the next delivery).
/// Flows that lost no packet after `event` are absent.
[[nodiscard]] std::vector<double> repair_times_after(
    const FlowStatsCollector& stats, SimTime event);

/// Per-flow PDR over the repair window [event, event + window): the Fig. 5
/// PDR-during-repair measurement. One entry per registered flow.
[[nodiscard]] std::vector<double> repair_window_pdrs(
    const FlowStatsCollector& stats, SimTime event, SimDuration window);

/// One independent experiment for run_trials().
struct TrialSpec {
  TestbedLayout layout;
  ExperimentConfig config;
};

/// Worker count for parallel_map() and run_trials(): the DIGS_THREADS
/// environment variable when it holds a count above 0, otherwise (unset,
/// empty or 0) the hardware concurrency (min 1). A value that is not a
/// plain decimal count throws std::invalid_argument (see env_count()).
[[nodiscard]] std::size_t trial_threads();

/// Runs `fn(0..count-1)` on a small thread pool and returns the results
/// indexed by input, identical to the sequential loop whatever `threads`
/// is, as long as each call is a pure function of its index.
/// `threads == 0` means trial_threads(); `1` runs inline without spawning.
template <typename Fn>
[[nodiscard]] std::vector<std::invoke_result_t<Fn, std::size_t>> parallel_map(
    std::size_t count, Fn fn, std::size_t threads = 0) {
  if (threads == 0) threads = trial_threads();
  std::vector<std::invoke_result_t<Fn, std::size_t>> results(count);
  const std::size_t workers = std::min(threads, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) results[i] = fn(i);
    return results;
  }
  // Dynamic work stealing off one atomic counter: runs vary widely in cost,
  // so static striping would leave workers idle. Every worker writes only
  // results[i] for the indices it claimed, so no synchronization beyond the
  // counter and the joins is needed.
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < count;
           i = next.fetch_add(1)) {
        results[i] = fn(i);
      }
    });
  }
  for (auto& worker : pool) worker.join();
  return results;
}

/// Runs every trial through parallel_map() and returns the results in
/// submission order. Each trial is an independent ExperimentRunner — a pure
/// function of its spec — so the result vector is bit-identical to running
/// the trials sequentially.
[[nodiscard]] std::vector<ExperimentResult> run_trials(
    const std::vector<TrialSpec>& trials, std::size_t threads = 0);

}  // namespace digs
