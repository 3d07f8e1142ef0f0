// Declarative fault timeline for robustness experiments: node crashes AND
// recoveries, transient link blackouts (a pair's PRR forced to zero for a
// window), access-point failover (crash an AP; traffic re-homes to the
// survivor through the same crash/recover events), and burst-interference
// windows. A script is built fluently, stored in an ExperimentConfig, and
// installed onto a running Network, where each event becomes a simulator
// event at its offset. All offsets are relative to install time (the
// experiment runner installs at warmup end, matching the paper's
// disturbance-after-convergence methodology).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "phy/geometry.h"

namespace digs {

class Network;

struct FaultEvent {
  enum class Kind : std::uint8_t {
    kCrash,     // node loses power (cold restart on recovery)
    kRecover,   // node powers back up, rejoins from scratch
    kBlackout,   // link (a, b) receives nothing for `duration`
    kBurst,      // constant interferer at `position` for `duration`
    kClockJump,  // node's clock steps by `clock_offset_us` instantly
    kReactiveJammer,  // learning jammer at `position` from `at` onwards
  };
  Kind kind;
  SimDuration at{};  // offset from install()
  NodeId node;       // kCrash / kRecover / kClockJump
  NodeId link_a;     // kBlackout endpoints
  NodeId link_b;
  SimDuration duration{};      // kBlackout / kBurst window length
  Position position;           // kBurst / kReactiveJammer location
  double power_dbm{10.0};      // kBurst / kReactiveJammer TX power
  double clock_offset_us{0.0};  // kClockJump step size (signed)
  // kReactiveJammer shape (see ReactiveJammerConfig for semantics).
  std::uint32_t jam_top_k{423};
  double sniff_dbm{-90.0};
  std::uint32_t period_slots{151};
  std::uint32_t epoch_slots{1510};
};

class FaultScript {
 public:
  FaultScript& crash(SimDuration at, NodeId node) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kCrash;
    e.at = at;
    e.node = node;
    events_.push_back(e);
    return *this;
  }

  FaultScript& recover(SimDuration at, NodeId node) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kRecover;
    e.at = at;
    e.node = node;
    events_.push_back(e);
    return *this;
  }

  /// `cycles` crash/recover pairs: crash at `first_crash`, recover after
  /// `downtime`, next crash after a further `uptime`, and so on.
  FaultScript& crash_cycle(SimDuration first_crash, NodeId node,
                           SimDuration downtime, SimDuration uptime,
                           int cycles) {
    SimDuration t = first_crash;
    for (int i = 0; i < cycles; ++i) {
      crash(t, node);
      recover(t + downtime, node);
      t = t + downtime + uptime;
    }
    return *this;
  }

  /// Forces the (a, b) link PRR to zero in both directions for `duration`.
  FaultScript& blackout(SimDuration at, NodeId a, NodeId b,
                        SimDuration duration) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kBlackout;
    e.at = at;
    e.link_a = a;
    e.link_b = b;
    e.duration = duration;
    events_.push_back(e);
    return *this;
  }

  /// Steps `node`'s clock by `offset_us` microseconds at `at` (brown-out
  /// or oscillator glitch). The node keeps running; whether it recovers
  /// via its next time-source correction or desyncs past the guard is the
  /// behaviour under test.
  FaultScript& clock_jump(SimDuration at, NodeId node, double offset_us) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kClockJump;
    e.at = at;
    e.node = node;
    e.clock_offset_us = offset_us;
    events_.push_back(e);
    return *this;
  }

  /// Constant carrier at `where` for `duration` (JamLab-style burst).
  FaultScript& burst(SimDuration at, Position where, double power_dbm,
                     SimDuration duration) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kBurst;
    e.at = at;
    e.duration = duration;
    e.position = where;
    e.power_dbm = power_dbm;
    events_.push_back(e);
    return *this;
  }

  /// Reactive jammer at `where` switched on at `at`: sniffs per-(slot,
  /// channel-offset) activity over `epoch_slots`-slot epochs and jams the
  /// `top_k` hottest cells of each following epoch (ReactiveJammer).
  FaultScript& reactive_jammer(SimDuration at, Position where,
                               double power_dbm, std::uint32_t top_k = 423,
                               double sniff_dbm = -90.0,
                               std::uint32_t period_slots = 151,
                               std::uint32_t epoch_slots = 1510) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kReactiveJammer;
    e.at = at;
    e.position = where;
    e.power_dbm = power_dbm;
    e.jam_top_k = top_k;
    e.sniff_dbm = sniff_dbm;
    e.period_slots = period_slots;
    e.epoch_slots = epoch_slots;
    events_.push_back(e);
    return *this;
  }

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Offsets at which something starts going wrong (crashes, blackout and
  /// burst starts — not recoveries). Repair-time measurement anchors here.
  [[nodiscard]] std::vector<SimDuration> disturbance_offsets() const;

  /// Throws std::invalid_argument naming the first event with a negative
  /// offset, a blackout or burst with a negative duration, or a node (a
  /// crash, recover or clock-jump target, or a blackout endpoint) outside
  /// a `num_nodes`-node layout.
  void validate(std::size_t num_nodes) const;

  /// Schedules every event on the network's simulator, offsets relative to
  /// the current simulated time. Burst events register their jammer
  /// immediately (jammers are stateless; the macro on/off window gates
  /// them), everything else becomes a timed simulator event. Validates the
  /// whole script first, so an invalid one schedules nothing.
  void install(Network& net) const;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace digs
