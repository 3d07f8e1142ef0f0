#include "testbed/experiment.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "common/env.h"
#include "common/stats.h"
#include "core/invariant_monitor.h"

namespace digs {

std::vector<double> repair_times_after(const FlowStatsCollector& stats,
                                       SimTime event) {
  std::vector<double> out;
  for (const FlowRecord& flow : stats.flows()) {
    const auto outage = stats.outage_after(flow.id, event);
    if (outage) out.push_back(outage->seconds());
  }
  return out;
}

std::vector<double> repair_window_pdrs(const FlowStatsCollector& stats,
                                       SimTime event, SimDuration window) {
  std::vector<double> out;
  out.reserve(stats.flows().size());
  for (const FlowRecord& flow : stats.flows()) {
    out.push_back(stats.pdr(flow.id, event, event + window));
  }
  return out;
}

NodeConfig ExperimentRunner::default_node_config() {
  NodeConfig config;
  // Paper Section VII: slotframe lengths 557 / 47 / 151 for all
  // experiments; 3 attempts per packet per cycle (WirelessHART rule).
  config.scheduler.sync_slotframe_len = 557;
  config.scheduler.routing_slotframe_len = 47;
  config.scheduler.app_slotframe_len = 151;
  config.scheduler.attempts = 3;
  return config;
}

MediumConfig ExperimentRunner::default_medium_config() {
  return MediumConfig{};
}

ExperimentRunner::ExperimentRunner(const TestbedLayout& layout,
                                   const ExperimentConfig& config)
    : layout_(layout), config_(config) {
  // Reject fault events naming a node outside the layout up front, before
  // anything is built or scheduled (set_node_alive does not bounds-check).
  config.faults.validate(layout.num_nodes());
  // A negative offset would be clamped to "now" and fire out of order; the
  // strike schedule needs a positive downtime and at least one strike. A
  // periodic timer with a period <= 0 reschedules itself at the same
  // instant forever, so every period in use must be positive.
  const auto reject = [](const char* field, double value, const char* why) {
    char msg[128];
    std::snprintf(msg, sizeof msg, "ExperimentConfig::%s = %g %s", field,
                  value, why);
    throw std::invalid_argument(msg);
  };
  if (config.crash_tunnel_relay_after.value_or(SimDuration{}).us < 0) {
    reject("crash_tunnel_relay_after",
           config.crash_tunnel_relay_after->seconds(), "s is negative");
  }
  if (config.crash_tunnel_relay_downtime.us <= 0) {
    reject("crash_tunnel_relay_downtime",
           config.crash_tunnel_relay_downtime.seconds(), "s is not positive");
  }
  if (config.crash_tunnel_relay_cycles < 1) {
    reject("crash_tunnel_relay_cycles", config.crash_tunnel_relay_cycles,
           "is below 1");
  }
  if (config.num_flows > 0 && config.flow_period.us <= 0) {
    reject("flow_period", config.flow_period.seconds(), "s is not positive");
  }
  if (config.randomize_schedule && config.randomize_epoch.us <= 0) {
    reject("randomize_epoch", config.randomize_epoch.seconds(),
           "s is not positive");
  }
  if (config.control_loops > 0 && config.control_period.us <= 0) {
    reject("control_period", config.control_period.seconds(),
           "s is not positive");
  }

  NetworkConfig net;
  net.suite = config.suite;
  net.num_access_points = layout.num_access_points;
  net.seed = config.seed;
  net.node = default_node_config();
  net.node.scheduler = config.scheduler;
  // Per-packet persistence: DiGS offers `attempts` tries per 151-slot
  // cycle; Orchestra one try per (shorter) unicast cycle. Both get
  // max_delivery_cycles of their own cycles, bounded by Contiki TSCH's
  // 8-retransmission default for the Orchestra baseline.
  net.node.mac.max_data_transmissions =
      config.suite == ProtocolSuite::kDigs
          ? config.scheduler.attempts * config.max_delivery_cycles
          : std::min(config.max_delivery_cycles, 8);
  net.node.mac.tx_power_dbm = layout.tx_power_dbm;
  if (config.trickle.has_value()) net.node.routing.trickle = *config.trickle;
  net.node.routing.use_weighted_etx = config.use_weighted_etx;
  net.node.mac.oscillator.ppm = config.clock_ppm;
  net.node.mac.oscillator.walk_ppm = config.clock_walk_ppm;
  net.medium = default_medium_config();
  net.medium.propagation.path_loss_exponent = layout.path_loss_exponent;
  net.node.etx.admission_rss_dbm = layout.admission_rss_dbm;
  net.use_slot_engine = config.use_slot_engine;
  net.monitor_invariants = config.monitor_invariants;
  net.shards = config.shards;
  net.shard_threads = config.shard_threads;
  net.randomization.enabled = config.randomize_schedule;
  net.randomization.epoch = config.randomize_epoch;
  net.randomization.seed = config.randomize_seed;
  if (config.enable_tunnels || config.control_loops > 0) {
    // Tunnels source-route over dedicated cells, but their table-routed
    // fallback (and the control workload's actuation flows) need the
    // downlink extension's destination advertisements.
    net.node.enable_downlink = true;
  }
  net.node.enable_tunnels = config.enable_tunnels;
  net.tunnel_replication = config.tunnel_replication;

  network_ = std::make_unique<Network>(net, layout.positions);

  if (config.control_loops > 0) {
    PlantConfig plant;
    plant.period = config.control_period;
    plant.deadline = config.control_deadline;
    plant.seed = hash_mix(config.seed, 0x91D5);
    plant_ = std::make_unique<PlantWorkload>(
        *network_, plant,
        pick_sources(layout, config.control_loops,
                     hash_mix(config.seed, 0xC7A1)));
  }

  // Flows: sources drawn deterministically from the experiment seed,
  // periods staggered so sources do not phase-align.
  const auto sources =
      pick_sources(layout, config.num_flows, hash_mix(config.seed, 0xF10));
  Rng stagger_rng(hash_mix(config.seed, 0x57A6));
  for (std::size_t i = 0; i < sources.size(); ++i) {
    FlowSpec flow;
    flow.id = FlowId{static_cast<std::uint16_t>(i)};
    flow.source = sources[i];
    flow.period = config.flow_period;
    flow.start_offset =
        config.warmup +
        SimDuration{static_cast<std::int64_t>(
            stagger_rng.uniform(0.0, config.flow_period.seconds()) * 1e6)};
    network_->add_flow(flow);
  }

  // Jammers.
  if (config.num_jammers > 0 && config.jammer_start_after.has_value()) {
    const SimTime jam_start =
        SimTime{0} + config.warmup + *config.jammer_start_after;
    const std::size_t count =
        std::min(config.num_jammers, layout.jammer_positions.size());
    for (std::size_t j = 0; j < count; ++j) {
      JammerConfig jammer;
      jammer.position = layout.jammer_positions[j];
      jammer.tx_power_dbm = config.jammer_tx_power_dbm;
      jammer.pattern = config.jammer_pattern;
      jammer.wifi_block_start = static_cast<int>((j * 4) % 13);
      jammer.start = jam_start;
      jammer.on_duration = config.jammer_on;
      jammer.off_duration = config.jammer_off;
      network_->add_jammer(jammer);
    }
  }

  // Reactive jammers: same layout positions and start offset as the
  // oblivious ones, so reactive-vs-oblivious comparisons differ only in
  // the targeting policy.
  if (config.num_reactive_jammers > 0 &&
      config.jammer_start_after.has_value()) {
    const SimTime jam_start =
        SimTime{0} + config.warmup + *config.jammer_start_after;
    const std::size_t count =
        std::min(config.num_reactive_jammers, layout.jammer_positions.size());
    for (std::size_t j = 0; j < count; ++j) {
      ReactiveJammerConfig jammer;
      jammer.position = layout.jammer_positions[j];
      jammer.tx_power_dbm = config.jammer_tx_power_dbm;
      jammer.start = jam_start;
      network_->add_reactive_jammer(jammer);
    }
  }
}

ExperimentResult ExperimentRunner::run() {
  Network& net = *network_;
  net.start();

  // Control loops start with the measurement traffic.
  if (plant_) plant_->start(config_.warmup);

  // Tunnel-relay crash: the victim is picked at fire time from the live
  // interior of the first tunnel destination's primary path (deterministic
  // — the tunnel state at that instant is a pure function of the run), so
  // the crash severs the path actually carrying the primary copies.
  if (config_.crash_tunnel_relay_after.has_value()) {
    const SimDuration downtime = config_.crash_tunnel_relay_downtime;
    for (int strike = 0; strike < config_.crash_tunnel_relay_cycles;
         ++strike) {
      net.sim().schedule_after(
          config_.warmup + *config_.crash_tunnel_relay_after +
              2 * strike * downtime,
          [&net, downtime] {
            const TunnelManager* tunnels = net.tunnel_manager();
            if (tunnels == nullptr) return;
            // Deepest primary path wins: a destination adjacent to its AP
            // has no interior relay to kill, so scanning (rather than taking
            // the first destination) keeps the fault meaningful on every
            // topology the flow picker produces.
            const TunnelPair* victim_pair = nullptr;
            for (const NodeId dest : tunnels->destinations()) {
              const TunnelPair* pair = tunnels->pair(dest);
              if (pair == nullptr || pair->primary.hops.size() < 3) continue;
              if (victim_pair == nullptr ||
                  pair->primary.hops.size() >
                      victim_pair->primary.hops.size()) {
                victim_pair = pair;
              }
            }
            if (victim_pair == nullptr) return;
            const NodeId relay =
                victim_pair->primary.hops[victim_pair->primary.hops.size() /
                                          2];
            net.set_node_alive(relay, false);
            net.sim().schedule_after(downtime, [&net, relay] {
              net.set_node_alive(relay, true);
            });
          });
    }
  }

  // Warmup: let the mesh form.
  net.run_for(config_.warmup);
  measure_start_ = net.sim().now();
  net.reset_energy();

  // Fault script: installed now, so event offsets are relative to warmup
  // end (faults hit a converged network, like the paper's disturbances).
  if (!config_.faults.empty()) config_.faults.install(net);

  net.run_for(config_.duration + config_.stat_drain);
  // Packets *generated* within the window count; the drain time only gives
  // the last generations a chance to arrive.
  const SimTime measure_end = measure_start_ + config_.duration;

  ExperimentResult result;
  const FlowStatsCollector& stats = net.stats();
  result.overall_pdr = stats.overall_pdr(measure_start_, measure_end);
  for (const FlowRecord& flow : stats.flows()) {
    result.flow_ids.push_back(flow.id);
    result.flow_pdrs.push_back(stats.pdr(flow.id, measure_start_,
                                         measure_end));
  }
  result.latencies_ms = stats.latencies_ms(measure_start_, measure_end);

  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  for (const FlowRecord& flow : stats.flows()) {
    for (const PacketRecord& packet : flow.packets) {
      if (packet.generated < measure_start_ ||
          packet.generated >= measure_end) {
        continue;
      }
      ++generated;
      if (packet.received()) ++delivered;
    }
  }
  result.generated = generated;
  result.delivered = delivered;

  const double energy_mj = net.total_energy_mj();
  result.energy_per_delivered_mj =
      delivered > 0 ? energy_mj / static_cast<double>(delivered) : 0.0;
  result.duty_cycle = net.mean_duty_cycle();
  result.duty_cycle_per_delivered =
      delivered > 0
          ? 100.0 * result.duty_cycle / static_cast<double>(delivered) * 100.0
          : 0.0;

  // Repair times: longest outage after the earliest disturbance (jammer
  // start or first fault-script disturbance), per flow that lost packets.
  std::optional<SimTime> disturbance;
  if ((config_.num_jammers > 0 || config_.num_reactive_jammers > 0) &&
      config_.jammer_start_after.has_value()) {
    disturbance = SimTime{0} + config_.warmup + *config_.jammer_start_after;
  }
  for (const SimDuration offset : config_.faults.disturbance_offsets()) {
    const SimTime at = measure_start_ + offset;
    if (!disturbance || at < *disturbance) disturbance = at;
  }
  if (disturbance) {
    result.repair_times_s = repair_times_after(stats, *disturbance);
  }

  // Recovery metrics.
  result.revivals = net.revivals().size();
  for (const ReviveRecord& revival : net.revivals()) {
    if (revival.rejoined_at.us >= 0) {
      result.rejoin_times_s.push_back(
          (revival.rejoined_at - revival.revived_at).seconds());
    }
  }
  result.stale_route_drops = stats.dropped_by(DropReason::kStaleRoute);
  result.guard_misses = net.guard_misses();
  for (std::size_t i = 0; i < net.size(); ++i) {
    const TschMac& mac = net.node(NodeId{static_cast<std::uint16_t>(i)}).mac();
    result.desync_events += mac.desync_events();
    result.keepalives_sent += mac.keepalives_sent();
    result.clock_corrections += mac.clock_corrections();
  }
  if (const NetworkInvariantMonitor* monitor = net.invariant_monitor()) {
    result.invariant_violations = monitor->violations().size();
    result.swap_epoch_audits = monitor->swap_epoch_audits();
    result.swap_epoch_violations = monitor->violations_at_swap_epochs();
    result.tunnel_violations =
        monitor->count(InvariantKind::kTunnelLoop) +
        monitor->count(InvariantKind::kTunnelDisjoint) +
        monitor->count(InvariantKind::kTunnelConflict);
  }

  // Jamming / randomization metrics.
  result.victim_tx_attempts = net.victim_tx_attempts();
  result.victim_tx_jammed = net.victim_tx_jammed();
  result.jam_slot_hit_rate =
      result.victim_tx_attempts > 0
          ? static_cast<double>(result.victim_tx_jammed) /
                static_cast<double>(result.victim_tx_attempts)
          : 0.0;
  result.swap_epochs = net.swap_epochs();
  result.swaps_applied = net.swaps_applied();
  result.swaps_rejected = net.swaps_rejected();

  // PDR dip around each fault-script disturbance: depth below the
  // pre-fault baseline and time until a 10 s bin returns near it.
  const SimDuration bin = seconds(static_cast<std::int64_t>(10));
  for (const SimDuration offset : config_.faults.disturbance_offsets()) {
    const SimTime fault_at = measure_start_ + offset;
    if (fault_at >= measure_end) continue;
    const double baseline = stats.overall_pdr(measure_start_, fault_at);
    ExperimentResult::FaultDip dip;
    dip.at_s = offset.seconds();
    double worst = baseline;
    SimTime recovered_at = measure_end;
    for (SimTime t = fault_at; t < measure_end; t = t + bin) {
      const SimTime bin_end = std::min(t + bin, measure_end);
      const double pdr = stats.overall_pdr(t, bin_end);
      worst = std::min(worst, pdr);
      if (pdr >= baseline - 0.05) {
        recovered_at = t;
        break;
      }
    }
    dip.depth = std::max(0.0, baseline - worst);
    dip.duration_s = (recovered_at - fault_at).seconds();
    result.fault_dips.push_back(dip);
  }

  // Control-loop and tunnel-replication metrics.
  if (plant_) {
    PlantMetrics plant = plant_->harvest(measure_start_, measure_end);
    result.control_cost = plant.control_cost;
    result.actuations = plant.actuations;
    result.actuation_deadline_misses = plant.deadline_misses;
    if (!plant.sensor_actuator_latencies_ms.empty()) {
      Cdf cdf;
      for (const double ms : plant.sensor_actuator_latencies_ms) cdf.add(ms);
      result.p999_sensor_actuator_ms = cdf.percentile(99.9);
    }
    result.sensor_actuator_latencies_ms =
        std::move(plant.sensor_actuator_latencies_ms);
  }
  result.replication_wins = net.replication_wins();
  result.replication_losses = net.replication_losses();
  result.duplicates_suppressed = net.duplicates_suppressed();
  result.single_path_fallbacks = net.single_path_fallbacks();
  if (const TunnelManager* tunnels = net.tunnel_manager()) {
    result.tunnel_rebuilds = tunnels->rebuilds();
    result.tunnel_repair_times_s = tunnels->repair_times_s();
  }

  for (std::size_t i = layout_.num_access_points;
       i < net.join_times().size(); ++i) {
    const SimTime t = net.join_times()[i];
    if (t.us >= 0) result.join_times_s.push_back(t.seconds());
    const SimTime full = net.full_join_times()[i];
    if (full.us >= 0) result.full_join_times_s.push_back(full.seconds());
  }
  return result;
}

std::size_t trial_threads() {
  if (const std::size_t n = env_count("DIGS_THREADS"); n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::vector<ExperimentResult> run_trials(const std::vector<TrialSpec>& trials,
                                         std::size_t threads) {
  return parallel_map(
      trials.size(),
      [&](std::size_t i) {
        ExperimentRunner runner(trials[i].layout, trials[i].config);
        return runner.run();
      },
      threads);
}

}  // namespace digs
