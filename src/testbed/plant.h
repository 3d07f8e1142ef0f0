// Closed-loop control workload over the simulated network: a set of scalar
// discrete-time plants (x+ = a*x + b*u + w, slightly unstable open loop),
// each sensed at a field device, controlled at the access points, and
// actuated back at the device over the (optionally tunneled and replicated)
// downlink. The workload scores what a control engineer scores — quadratic
// state/effort cost and actuation deadline misses — so the downlink bench
// can show that multipath replication keeps a control loop inside its cost
// envelope through node crashes and jamming, not merely that PDR stayed up.
//
// Transport realism, not payload simulation: the simulator moves empty
// DataPayloads, so the plant keeps the app-level contents (sampled x per
// sensor seq, commanded u per actuation seq) on the side and consults the
// FlowStatsCollector's per-packet delivery records to learn WHEN each value
// arrived. The controller only uses sensor samples already delivered to an
// AP; the actuator only applies commands already delivered to the device —
// both zero-order holds, as on a real fieldbus.
//
// All ticks run as ordinary simulator events (serial seams), so reading
// network state and injecting packets here is race-free at every shard and
// thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "core/network.h"

namespace digs {

struct PlantConfig {
  /// Sampling/actuation period of every loop (ticks are staggered across
  /// loops so their packets do not phase-align).
  SimDuration period = seconds(static_cast<std::int64_t>(1));
  /// Sensor-sample-to-actuation deadline: a delivered command whose
  /// underlying sensor sample is older than this on application — or a
  /// command that never arrives — counts as a deadline miss.
  SimDuration deadline = seconds(static_cast<std::int64_t>(5));
  /// Plant x+ = a*x + b*u + w. a slightly above 1: the open loop drifts,
  /// so losing actuation for long visibly inflates the quadratic cost.
  double a = 1.02;
  double b = 0.5;
  /// Controller u = -gain * x_est (latest delivered sensor sample);
  /// closed-loop pole a - b*gain = 0.6 with the defaults.
  double gain = 0.84;
  /// Stage cost q*x^2 + r*u^2.
  double q = 1.0;
  double r = 0.1;
  /// Process-noise standard deviation (deterministic per (seed, loop, tick)
  /// hash draw, so trials are bit-reproducible).
  double noise = 0.1;
  std::uint64_t seed = 1;
  /// Flow-id bases; loop i uses sensor_flow_base + i (device -> AP uplink)
  /// and act_flow_base + i (AP -> device downlink).
  std::uint16_t sensor_flow_base = 1000;
  std::uint16_t act_flow_base = 1100;
};

/// Harvested over a measurement window (by actuation issue time).
struct PlantMetrics {
  /// Mean stage cost per tick per loop.
  double control_cost{0};
  std::uint64_t actuations{0};
  std::uint64_t deadline_misses{0};
  /// Sensor-sample-to-actuator-application latency (ms) of every delivered
  /// actuation whose controller had a delivered sensor sample; the p99.9
  /// over these is the bench's tail gate.
  std::vector<double> sensor_actuator_latencies_ms;
};

class PlantWorkload {
 public:
  /// One loop per entry of `devices` (field-device ids). Registers the
  /// sensor and actuation flows with the network's stats collector.
  PlantWorkload(Network& net, const PlantConfig& config,
                std::vector<NodeId> devices);

  /// Schedules every loop's first tick at `initial_delay` plus a per-loop
  /// stagger; each tick reschedules itself every period.
  void start(SimDuration initial_delay);

  [[nodiscard]] PlantMetrics harvest(SimTime from, SimTime to) const;

 private:
  struct Actuation {
    double u{0};
    /// Sensor seq the controller used (-1: none delivered yet) and its
    /// sample instant, for the end-to-end latency/deadline accounting.
    std::int64_t sensor_seq{-1};
    SimTime sensor_at{-1};
    SimTime issued{-1};
  };
  struct Loop {
    NodeId device;
    FlowId sensor_flow;
    FlowId act_flow;
    double x{0};
    double u_applied{0};
    std::uint32_t ticks{0};
    std::int64_t applied_act_seq{-1};
    std::int64_t ctrl_sensor_seq{-1};
    std::vector<double> x_sent;       // sampled x per sensor seq
    std::vector<SimTime> sensor_at;   // sample instant per sensor seq
    std::vector<Actuation> acts;      // per actuation seq
    std::vector<std::pair<SimTime, double>> costs;  // (tick, stage cost)
  };

  void tick(std::size_t i);

  Network& net_;
  PlantConfig config_;
  std::vector<Loop> loops_;
};

}  // namespace digs
