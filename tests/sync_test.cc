// Clock-drift subsystem tests: oscillator determinism and bounds, the
// guard-time miss model in both reception paths, TSCH keep-alive polling and
// its escalation to desync, clock-jump fault injection and recovery, the
// time-source tracking rules, the sync-drift invariant, and the pin that
// keeps ppm = 0 (with the drift code path ACTIVE via a 0 us jump)
// bit-identical to a fully disabled run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/oscillator.h"
#include "common/rng.h"
#include "core/fault_script.h"
#include "core/invariant_monitor.h"
#include "core/network.h"
#include "mac/tsch_mac.h"
#include "net/frame.h"
#include "phy/medium.h"
#include "testbed/experiment.h"
#include "testbed/layouts.h"

namespace digs {
namespace {

// --- oscillator ---

TEST(OscillatorTest, DisabledReportsZeroDrift) {
  Oscillator osc;
  EXPECT_FALSE(osc.enabled());
  EXPECT_EQ(osc.elapsed_drift_us(SimTime{0} + seconds(std::int64_t{100})),
            0.0);
  OscillatorConfig config;  // defaults: ppm = 0, walk_ppm = 0
  Oscillator from_config(config, Rng(1));
  EXPECT_FALSE(from_config.enabled());
  EXPECT_EQ(
      from_config.elapsed_drift_us(SimTime{0} + seconds(std::int64_t{100})),
      0.0);
}

TEST(OscillatorTest, DeterministicPerSeedAndConfig) {
  OscillatorConfig config;
  config.ppm = 40.0;
  config.walk_ppm = 5.0;
  Oscillator a(config, Rng(7));
  Oscillator b(config, Rng(7));
  Oscillator c(config, Rng(8));
  bool seed_differs = false;
  for (std::int64_t s = 1; s <= 200; s += 7) {
    const SimTime t = SimTime{0} + seconds(s);
    EXPECT_EQ(a.elapsed_drift_us(t), b.elapsed_drift_us(t)) << "t=" << s;
    if (a.elapsed_drift_us(t) != c.elapsed_drift_us(t)) seed_differs = true;
  }
  EXPECT_TRUE(seed_differs);
}

TEST(OscillatorTest, QueryOrderDoesNotChangeValues) {
  // The polled loop queries every slot; the wake-heap engine queries only
  // executed slots, in a different order. Closed-form drift means the
  // answer is a pure function of t, whatever was asked before.
  OscillatorConfig config;
  config.ppm = 20.0;
  config.walk_ppm = 10.0;
  Oscillator sequential(config, Rng(99));
  Oscillator scattered(config, Rng(99));

  std::vector<SimTime> times;
  for (std::int64_t s = 0; s <= 300; s += 3) {
    times.push_back(SimTime{0} + seconds(s) + microseconds(s * 137));
  }
  // Scattered: far-future first, then a shuffled-ish stride backwards.
  (void)scattered.elapsed_drift_us(times.back());
  for (std::size_t i = times.size(); i-- > 0;) {
    (void)scattered.elapsed_drift_us(times[i]);
  }
  for (const SimTime t : times) {
    EXPECT_EQ(sequential.elapsed_drift_us(t), scattered.elapsed_drift_us(t))
        << "t=" << t.us;
  }
}

TEST(OscillatorTest, RateAndDriftStayWithinConfiguredBounds) {
  OscillatorConfig config;
  config.ppm = 40.0;
  config.walk_ppm = 5.0;
  config.walk_period = seconds(std::int64_t{10});
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Oscillator osc(config, Rng(seed));
    EXPECT_EQ(osc.max_rate_ppm(), 45.0);
    double prev_drift = 0.0;
    for (std::int64_t s = 10; s <= 2000; s += 10) {
      const SimTime t = SimTime{0} + seconds(s);
      EXPECT_LE(std::fabs(osc.rate_ppm_at(t)), config.max_rate_ppm());
      // Accumulated drift can never outrun the worst-case rate.
      const double drift = osc.elapsed_drift_us(t);
      EXPECT_LE(std::fabs(drift),
                config.max_rate_ppm() * 1e-6 * static_cast<double>(t.us) +
                    1e-9);
      EXPECT_LE(std::fabs(drift - prev_drift),
                config.max_rate_ppm() * 1e-6 * 10e6 + 1e-9);
      prev_drift = drift;
    }
  }
}

// --- guard-time miss model (reference reception path) ---

TEST(GuardMissTest, OffsetBeyondGuardKillsReceptionKeepsRss) {
  MediumConfig config;
  config.propagation.path_loss_exponent = 3.8;
  const std::vector<Position> positions = {{0.0, 0.0, 0.0}, {8.0, 0.0, 0.0}};
  Medium medium(config, positions, 0x5EED);

  TransmissionAttempt attempt;
  attempt.sender = NodeId{0};
  attempt.channel = 11;
  attempt.frame_bytes = FrameSizes::kData;
  const std::span<const TransmissionAttempt> alone(&attempt, 1);
  const SimTime slot_start = SimTime{0} + kSlotDuration;

  const auto baseline =
      medium.check_reception(attempt, NodeId{1}, 1, slot_start, alone);
  ASSERT_GT(baseline.probability, 0.9);  // 8 m apart: a clean link
  EXPECT_FALSE(baseline.guard_missed);

  // Relative offset within the guard: identical to the baseline.
  attempt.clock_offset_us = 3000.0;
  const auto within = medium.check_reception(attempt, NodeId{1}, 1,
                                             slot_start, alone,
                                             /*rx_clock_offset_us=*/1500.0,
                                             /*guard_us=*/2200.0);
  EXPECT_EQ(within.probability, baseline.probability);
  EXPECT_EQ(within.rss_dbm, baseline.rss_dbm);
  EXPECT_FALSE(within.guard_missed);

  // Beyond the guard: the frame is not decodable, but it still radiated —
  // the RSS is reported unchanged (it interferes with co-channel slots).
  const auto missed = medium.check_reception(attempt, NodeId{1}, 1,
                                             slot_start, alone,
                                             /*rx_clock_offset_us=*/0.0,
                                             /*guard_us=*/2200.0);
  EXPECT_EQ(missed.probability, 0.0);
  EXPECT_TRUE(missed.guard_missed);
  EXPECT_EQ(missed.rss_dbm, baseline.rss_dbm);

  // The check is on RELATIVE offset: both clocks shifted equally is fine.
  const auto common_mode = medium.check_reception(attempt, NodeId{1}, 1,
                                                  slot_start, alone,
                                                  /*rx_clock_offset_us=*/3000.0,
                                                  /*guard_us=*/2200.0);
  EXPECT_EQ(common_mode.probability, baseline.probability);
  EXPECT_FALSE(common_mode.guard_missed);
}

// --- MAC clock corrections and keep-alive policy ---

struct SyncMacHarness {
  MacConfig config;
  int synced_events = 0;
  int desynced_events = 0;
  std::unique_ptr<TschMac> mac;

  explicit SyncMacHarness(NodeId id, MacConfig cfg, bool is_ap = false) {
    config = cfg;
    TschMac::Callbacks callbacks;
    callbacks.on_synced = [this](SimTime) { ++synced_events; };
    callbacks.on_desynced = [this](SimTime) { ++desynced_events; };
    callbacks.rank_provider = [] { return std::uint16_t{3}; };
    mac = std::make_unique<TschMac>(id, is_ap, config, Rng(42), callbacks);
  }
};

Frame eb_from(NodeId src, std::uint64_t asn = 0) {
  EbPayload payload;
  payload.asn = asn;
  payload.rank = 1;
  return make_frame(FrameType::kEnhancedBeacon, src, kNoNode, payload);
}

MacConfig drift_config(double ppm) {
  MacConfig config;
  config.oscillator.ppm = ppm;
  return config;
}

TEST(MacClockTest, EbFromTimeSourceAdoptsSenderOffset) {
  SyncMacHarness harness(NodeId{5}, drift_config(40.0));
  TschMac& mac = *harness.mac;
  EXPECT_TRUE(mac.clock_active());
  mac.on_receive(eb_from(NodeId{0}), -70.0, SimTime{0}, 0.0);
  mac.set_time_source(NodeId{0});
  ASSERT_TRUE(mac.synced());

  const SimTime later = SimTime{0} + seconds(std::int64_t{20});
  mac.on_receive(eb_from(NodeId{0}, 2000), -70.0, later, 123.5);
  EXPECT_EQ(mac.clock_offset_us(later), 123.5);
  EXPECT_GE(mac.clock_corrections(), 2u);  // first sync + this EB

  // An EB from a non-source neighbor refreshes sync but must NOT correct.
  const SimTime after = later + seconds(std::int64_t{1});
  const double before = mac.clock_offset_us(after);
  mac.on_receive(eb_from(NodeId{9}, 2100), -70.0, after, 999.0);
  EXPECT_EQ(mac.clock_offset_us(after), before);
}

TEST(MacClockTest, InjectedJumpShiftsOffsetAndActivatesClock) {
  SyncMacHarness harness(NodeId{5}, MacConfig{});  // ppm = 0
  TschMac& mac = *harness.mac;
  EXPECT_FALSE(mac.clock_active());
  const SimTime t = SimTime{0} + seconds(std::int64_t{3});
  mac.inject_clock_offset(5000.0, t);
  EXPECT_TRUE(mac.clock_active());
  EXPECT_EQ(mac.clock_offset_us(t), 5000.0);
  mac.inject_clock_offset(-2000.0, t);  // jumps accumulate
  EXPECT_EQ(mac.clock_offset_us(t), 3000.0);

  // Access points ARE the reference: jumps must not touch them.
  SyncMacHarness ap(NodeId{0}, MacConfig{}, /*is_ap=*/true);
  ap.mac->inject_clock_offset(5000.0, t);
  EXPECT_FALSE(ap.mac->clock_active());
  EXPECT_EQ(ap.mac->clock_offset_us(t), 0.0);
}

TEST(MacKeepAliveTest, PollsTimeSourceBeforeDriftBudgetExpires) {
  SyncMacHarness harness(NodeId{5}, drift_config(40.0));
  TschMac& mac = *harness.mac;
  mac.on_receive(eb_from(NodeId{0}), -70.0, SimTime{0}, 0.0);
  mac.set_time_source(NodeId{0});
  ASSERT_TRUE(mac.synced());

  // Worst-case relative rate 2 * 40 ppm -> budget 2200 / 80e-6 = 27.5 s;
  // the poll goes out at keepalive_fraction (0.5) of that: 13.75 s.
  const SimTime due = mac.drift_deadline();
  EXPECT_EQ(due.us, 13'750'000);

  mac.end_slot(SimTime{0} + seconds(std::int64_t{10}));
  EXPECT_EQ(mac.keepalives_sent(), 0u);
  EXPECT_EQ(mac.routing_queue_size(), 0u);

  mac.end_slot(SimTime{0} + seconds(std::int64_t{14}));
  EXPECT_EQ(mac.keepalives_sent(), 1u);
  EXPECT_EQ(mac.routing_queue_size(), 1u);

  // While the poll is pending no duplicate is queued; the deadline the
  // engine must wake for is now the hard resync deadline (27.5 s).
  mac.end_slot(SimTime{0} + seconds(std::int64_t{15}));
  EXPECT_EQ(mac.keepalives_sent(), 1u);
  EXPECT_EQ(mac.drift_deadline().us, 27'500'000);

  // A correction re-projects both deadlines from its instant. The poll is
  // still queued (it will harvest its own ACK correction when it goes
  // out), so the engine-visible deadline stays the hard resync one:
  // 16 s + 27.5 s.
  mac.on_receive(eb_from(NodeId{0}, 1600), -70.0,
                 SimTime{0} + seconds(std::int64_t{16}), 0.0);
  EXPECT_EQ(mac.drift_deadline().us, 16'000'000 + 27'500'000);
}

TEST(MacKeepAliveTest, RepeatedPollFailureEscalatesToDesync) {
  MacConfig config = drift_config(40.0);
  config.sync_timeout = seconds(std::int64_t{60});  // KA must fire first
  SyncMacHarness harness(NodeId{5}, config);
  TschMac& mac = *harness.mac;
  mac.on_receive(eb_from(NodeId{0}), -70.0, SimTime{0}, 0.0);
  mac.set_time_source(NodeId{0});

  // One shared routing cell so plan_slot can put the keep-alive on the air.
  Slotframe routing;
  routing.traffic = TrafficClass::kRouting;
  routing.length = 5;
  Cell shared;
  shared.slot_offset = 0;
  shared.option = CellOption::kTx;
  shared.traffic = TrafficClass::kRouting;
  routing.cells.push_back(shared);
  mac.schedule().install(routing);

  // Drive slots with every keep-alive transmission failing: the poll is
  // retried keepalive_transmissions times, re-queued once after
  // keepalive_retry, and the second exhausted poll desynchronizes.
  std::uint64_t ka_tx = 0;
  for (std::uint64_t asn = 0; asn < 4000 && mac.synced(); ++asn) {
    const SimTime now = SimTime{0} + static_cast<std::int64_t>(asn) *
                                         kSlotDuration;
    const SlotPlan plan = mac.plan_slot(asn, now);
    if (plan.kind == SlotPlan::Kind::kTx &&
        plan.frame.type == FrameType::kKeepAlive) {
      ++ka_tx;
      mac.on_tx_outcome(false, now);
    }
    mac.end_slot(now);
  }
  EXPECT_FALSE(mac.synced());
  EXPECT_EQ(harness.desynced_events, 1);
  EXPECT_EQ(mac.keepalives_sent(), 2u);  // two polls, each exhausted
  EXPECT_EQ(ka_tx, 2u * 3u);             // keepalive_transmissions each
  EXPECT_EQ(mac.desync_events(), 1u);
  // Desync wiped the keep-alive state: deadlines are parked at "never".
  EXPECT_EQ(mac.drift_deadline(), TschMac::kNeverDeadline);
}

// --- network-level: zero-jump pin, fault recovery, time-source tracking ---

ExperimentConfig small_experiment(ProtocolSuite suite, std::uint64_t seed) {
  ExperimentConfig config;
  config.suite = suite;
  config.seed = seed;
  config.num_flows = 4;
  config.warmup = seconds(std::int64_t{60});
  config.duration = seconds(std::int64_t{60});
  config.stat_drain = seconds(std::int64_t{10});
  config.num_jammers = 0;
  return config;
}

struct NetSnapshot {
  ExperimentResult result;
  std::uint64_t final_asn{0};
  std::vector<double> energy_mj;
};

NetSnapshot run_experiment(const ExperimentConfig& config) {
  ExperimentRunner runner(half_testbed_a(), config);
  NetSnapshot snap;
  snap.result = runner.run();
  Network& net = runner.network();
  snap.final_asn = net.current_asn();
  for (std::size_t i = 0; i < net.size(); ++i) {
    snap.energy_mj.push_back(
        net.node(NodeId{static_cast<std::uint16_t>(i)}).meter().energy_mj());
  }
  return snap;
}

// THE zero-cost pin: a 0 us clock jump turns the whole drift code path ON
// (offset queries, guard checks, correction bookkeeping) with every offset
// exactly 0.0 — and the run must be bit-identical to one where the drift
// subsystem never existed. This holds only if the drift logic is free of
// side effects at zero offset (no extra RNG draws, no energy changes, no
// behavioral branches), which is exactly the ppm = 0 contract.
TEST(SyncNetworkTest, ZeroJumpIsBitIdenticalToDisabledDrift) {
  const ExperimentConfig base = small_experiment(ProtocolSuite::kDigs, 11);

  ExperimentConfig jumped = base;
  jumped.faults.clock_jump(seconds(std::int64_t{1}), NodeId{5}, 0.0);

  const NetSnapshot off = run_experiment(base);
  const NetSnapshot on = run_experiment(jumped);

  EXPECT_EQ(on.final_asn, off.final_asn);
  EXPECT_EQ(on.result.generated, off.result.generated);
  EXPECT_EQ(on.result.delivered, off.result.delivered);
  EXPECT_EQ(on.result.overall_pdr, off.result.overall_pdr);
  EXPECT_EQ(on.result.flow_pdrs, off.result.flow_pdrs);
  EXPECT_EQ(on.result.latencies_ms, off.result.latencies_ms);
  EXPECT_EQ(on.result.duty_cycle, off.result.duty_cycle);
  EXPECT_EQ(on.energy_mj, off.energy_mj);
  EXPECT_EQ(on.result.guard_misses, 0u);
  EXPECT_EQ(off.result.guard_misses, 0u);
  // The drift path really was active in the jumped run: the jumped node
  // kept re-anchoring its (zero) clock on every time-source correction.
  EXPECT_GT(on.result.clock_corrections, 0u);
  EXPECT_EQ(off.result.clock_corrections, 0u);
}

TEST(SyncNetworkTest, LargeClockJumpDesyncsThenRecovers) {
  ExperimentConfig config = small_experiment(ProtocolSuite::kDigs, 3);
  config.duration = seconds(std::int64_t{120});
  // +5000 us: past the 2200 us guard, so every dedicated-cell reception at
  // or from the node fails until it desyncs, rescans (scan slots listen the
  // whole slot and are guard-exempt), and re-anchors on a fresh EB.
  config.faults.clock_jump(seconds(std::int64_t{5}), NodeId{7}, 5000.0);

  ExperimentRunner runner(half_testbed_a(), config);
  const ExperimentResult result = runner.run();

  EXPECT_GT(result.guard_misses, 0u);
  EXPECT_GE(result.desync_events, 1u);
  // Recovery: the node is synchronized again at the end of the run and its
  // clock was re-anchored (corrections from the new time source).
  const TschMac& mac = runner.network().node(NodeId{7}).mac();
  EXPECT_TRUE(mac.synced());
  EXPECT_TRUE(mac.clock_active());
  EXPECT_GT(mac.clock_corrections(), 0u);
  EXPECT_GT(result.overall_pdr, 0.5);
}

TEST(SyncNetworkTest, DriftAt40PpmIsAbsorbedByCorrections) {
  ExperimentConfig config = small_experiment(ProtocolSuite::kDigs, 2);
  config.clock_ppm = 40.0;
  config.clock_walk_ppm = 5.0;
  const NetSnapshot snap = run_experiment(config);
  // EB/ACK corrections arrive far inside the 27.5 s worst-case budget, so
  // 40 ppm must not collapse the network: packets still flow and no desync
  // storm develops.
  EXPECT_GT(snap.result.clock_corrections, 100u);
  EXPECT_GT(snap.result.overall_pdr, 0.6);
  EXPECT_LT(snap.result.desync_events, 20u);
}

TEST(SyncNetworkTest, TimeSourceFollowsBestParentAcrossRevival) {
  ExperimentConfig config = small_experiment(ProtocolSuite::kDigs, 5);
  config.duration = seconds(std::int64_t{120});
  // Crash a relay mid-run and revive it: the revived node must re-acquire a
  // time source via its rescan and then re-pin it to its new best parent.
  config.faults.crash(seconds(std::int64_t{20}), NodeId{7});
  config.faults.recover(seconds(std::int64_t{50}), NodeId{7});

  ExperimentRunner runner(half_testbed_a(), config);
  (void)runner.run();
  Network& net = runner.network();

  const TschMac& revived = net.node(NodeId{7}).mac();
  ASSERT_TRUE(revived.synced());
  ASSERT_TRUE(revived.time_source().valid());

  for (std::size_t i = 0; i < net.size(); ++i) {
    const Node& node = net.node(NodeId{static_cast<std::uint16_t>(i)});
    if (node.is_access_point() || !node.alive() || !node.mac().synced()) {
      continue;
    }
    const NodeId source = node.mac().time_source();
    ASSERT_TRUE(source.valid()) << "node " << i;
    EXPECT_NE(source, node.id()) << "node " << i;
    // The source follows routing: once a best parent exists, they agree.
    if (node.routing().best_parent().valid()) {
      EXPECT_EQ(source, node.routing().best_parent()) << "node " << i;
    }
    // A time source is someone whose clock the node can trust: never an
    // unsynced neighbor (EB senders are synced by construction, and the
    // best parent of a joined node is routed, hence synced).
    const Node& src = net.node(source);
    EXPECT_TRUE(src.is_access_point() || src.mac().synced()) << "node " << i;
  }
}

TEST(SyncNetworkTest, MonitorFlagsPersistentDriftWithTxCells) {
  NetworkConfig config;
  config.suite = ProtocolSuite::kDigs;
  config.seed = 21;
  config.node = ExperimentRunner::default_node_config();
  // Long sync timeout: the node must NOT heal by desyncing before the
  // monitor's 60 s transient grace elapses — the invariant is about
  // holding TX cells while drifted, and we pin the node in that state.
  config.node.mac.sync_timeout = seconds(std::int64_t{600});
  config.medium.propagation.path_loss_exponent = 3.8;
  config.monitor_invariants = true;

  const std::vector<Position> positions = {
      {12.0, 10.0, 0.0}, {24.0, 10.0, 0.0},  // APs
      {10.0, 5.0, 0.0},  {10.0, 15.0, 0.0}, {17.0, 8.0, 0.0},
      {17.0, 14.0, 0.0}, {24.0, 6.0, 0.0},  {30.0, 10.0, 0.0},
      {14.0, 11.0, 0.0}, {27.0, 12.0, 0.0},
  };
  Network net(config, positions);
  net.start();
  net.run_until(SimTime{0} + seconds(std::int64_t{120}));
  ASSERT_TRUE(net.node(NodeId{7}).mac().synced());
  ASSERT_EQ(net.invariant_monitor()->count(InvariantKind::kSyncDrift), 0u);

  net.inject_clock_jump(NodeId{7}, 5000.0);
  net.run_for(seconds(std::int64_t{80}));

  EXPECT_GE(net.invariant_monitor()->count(InvariantKind::kSyncDrift), 1u);
  for (const InvariantViolation& v : net.invariant_monitor()->violations()) {
    if (v.kind == InvariantKind::kSyncDrift) {
      EXPECT_EQ(v.node, NodeId{7});
    }
  }
}

}  // namespace
}  // namespace digs
