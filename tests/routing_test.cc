// Unit tests for Trickle (RFC 6206), the ETXw weighting (paper Eq. 1-3),
// DiGS graph routing (Algorithm 1), and the RPL baseline — driven directly
// through the protocol interfaces without the MAC/medium.
#include <gtest/gtest.h>

#include <vector>

#include "routing/digs_routing.h"
#include "routing/routing.h"
#include "routing/rpl_routing.h"
#include "routing/trickle.h"
#include "sim/simulator.h"

namespace digs {
namespace {

// --- ETXw weights (Eq. 1-3) ---

TEST(EtxwTest, PerfectLinkAllWeightOnPrimary) {
  const EtxwWeights w = etxw_weights(1.0);
  EXPECT_DOUBLE_EQ(w.w1, 1.0);
  EXPECT_DOUBLE_EQ(w.w2, 0.0);
}

TEST(EtxwTest, WeightsSumToOne) {
  for (double etx = 1.0; etx <= 5.0; etx += 0.25) {
    const EtxwWeights w = etxw_weights(etx);
    EXPECT_NEAR(w.w1 + w.w2, 1.0, 1e-12);
    EXPECT_GE(w.w1, 0.0);
    EXPECT_GE(w.w2, 0.0);
  }
}

TEST(EtxwTest, WorseLinkShiftsWeightToBackup) {
  const EtxwWeights good = etxw_weights(1.1);
  const EtxwWeights bad = etxw_weights(3.0);
  EXPECT_GT(bad.w2, good.w2);
  // ETX 2 -> miss probability per attempt 1/2 -> w2 = 1/4.
  const EtxwWeights two = etxw_weights(2.0);
  EXPECT_NEAR(two.w2, 0.25, 1e-12);
  EXPECT_NEAR(two.w1, 0.75, 1e-12);
}

TEST(EtxwTest, WeightedEtxInterpolates) {
  // Perfect primary link: ETXw == accumulated cost through best parent.
  EXPECT_DOUBLE_EQ(weighted_etx(1.0, 2.0, 10.0), 2.0);
  // ETX 2: 0.75 * 2 + 0.25 * 6 = 3.
  EXPECT_DOUBLE_EQ(weighted_etx(2.0, 2.0, 6.0), 3.0);
}

TEST(EtxwTest, SubUnityEtxClamped) {
  const EtxwWeights w = etxw_weights(0.5);
  EXPECT_DOUBLE_EQ(w.w1, 1.0);
}

// --- Trickle ---

TEST(TrickleTest, FiresWithinFirstInterval) {
  Simulator sim;
  int fires = 0;
  TrickleConfig config;
  config.imin = milliseconds(100);
  config.doublings = 4;
  Trickle trickle(sim, config, Rng(1), [&] { ++fires; });
  trickle.start();
  sim.run_until(SimTime{0} + milliseconds(100));
  EXPECT_EQ(fires, 1);
}

TEST(TrickleTest, IntervalDoublesUpToImax) {
  Simulator sim;
  TrickleConfig config;
  config.imin = milliseconds(100);
  config.doublings = 3;  // Imax = 800ms
  Trickle trickle(sim, config, Rng(1), [] {});
  trickle.start();
  EXPECT_EQ(trickle.current_interval().us, milliseconds(100).us);
  sim.run_until(SimTime{0} + milliseconds(101));
  EXPECT_EQ(trickle.current_interval().us, milliseconds(200).us);
  sim.run_until(SimTime{0} + seconds(static_cast<std::int64_t>(10)));
  EXPECT_EQ(trickle.current_interval().us, milliseconds(800).us);
}

TEST(TrickleTest, TransmissionRateDecaysWhenConsistent) {
  Simulator sim;
  int fires = 0;
  TrickleConfig config;
  config.imin = milliseconds(100);
  config.doublings = 6;
  config.redundancy_k = 0;  // no suppression, count interval structure
  Trickle trickle(sim, config, Rng(2), [&] { ++fires; });
  trickle.start();
  sim.run_until(SimTime{0} + seconds(static_cast<std::int64_t>(1)));
  const int early = fires;
  sim.run_until(SimTime{0} + seconds(static_cast<std::int64_t>(60)));
  const int late_rate_window = fires;
  sim.run_until(SimTime{0} + seconds(static_cast<std::int64_t>(120)));
  // In steady state (Imax = 6.4 s) about 9-10 fires per minute.
  const int steady = fires - late_rate_window;
  EXPECT_GE(early, 3);  // several fires in the first second
  EXPECT_LE(steady, 12);
}

TEST(TrickleTest, RedundancySuppresses) {
  Simulator sim;
  int fires = 0;
  TrickleConfig config;
  config.imin = milliseconds(100);
  config.doublings = 2;
  config.redundancy_k = 2;
  Trickle trickle(sim, config, Rng(3), [&] { ++fires; });
  trickle.start();
  // Keep feeding consistency before each potential fire.
  PeriodicTimer feeder(sim, milliseconds(10), [&] {
    trickle.hear_consistent();
    trickle.hear_consistent();
  });
  feeder.start();
  sim.run_until(SimTime{0} + seconds(static_cast<std::int64_t>(5)));
  EXPECT_EQ(fires, 0);
  EXPECT_GT(trickle.suppressions(), 0u);
}

TEST(TrickleTest, InconsistencyResetsInterval) {
  Simulator sim;
  TrickleConfig config;
  config.imin = milliseconds(100);
  config.doublings = 4;
  Trickle trickle(sim, config, Rng(4), [] {});
  trickle.start();
  sim.run_until(SimTime{0} + seconds(static_cast<std::int64_t>(2)));
  EXPECT_GT(trickle.current_interval().us, milliseconds(100).us);
  trickle.hear_inconsistent();
  EXPECT_EQ(trickle.current_interval().us, milliseconds(100).us);
}

TEST(TrickleTest, StopHalts) {
  Simulator sim;
  int fires = 0;
  TrickleConfig config;
  config.imin = milliseconds(100);
  Trickle trickle(sim, config, Rng(5), [&] { ++fires; });
  trickle.start();
  trickle.stop();
  sim.run_until(SimTime{0} + seconds(static_cast<std::int64_t>(2)));
  EXPECT_EQ(fires, 0);
  EXPECT_FALSE(trickle.running());
}

// --- protocol harness -------------------------------------------------

struct ProtoHarness {
  Simulator sim;
  NeighborTable table;
  std::vector<Frame> sent;
  int topology_changes = 0;
  std::unique_ptr<RoutingProtocol> proto;

  RoutingProtocol::Env env() {
    RoutingProtocol::Env e;
    e.send_routing = [this](const Frame& f) { sent.push_back(f); };
    e.on_topology_changed = [this](SimTime) { ++topology_changes; };
    return e;
  }

  /// Simulates hearing a join-in from `from` with the advertisement,
  /// going through the same path the Node uses (table update + handler).
  void hear_join_in(RoutingProtocol& r, NodeId from, std::uint16_t rank,
                    double etxw, double rss = -65.0) {
    table.on_heard(from, rss, rank, etxw, sim.now());
    JoinInPayload payload;
    payload.rank = rank;
    payload.etxw = etxw;
    r.handle_frame(make_frame(FrameType::kJoinIn, from, kNoNode, payload),
                   rss, sim.now());
  }

  void hear_callback(RoutingProtocol& r, NodeId me, NodeId from,
                     bool as_best) {
    table.on_heard_rss(from, -65.0, sim.now());
    JoinedCallbackPayload payload;
    payload.as_best_parent = as_best;
    r.handle_frame(
        make_frame(FrameType::kJoinedCallback, from, me, payload), -65.0,
        sim.now());
  }

  /// Reports `n` consecutive failed unicasts towards `peer`.
  void fail_towards(RoutingProtocol& r, NodeId peer, int n) {
    for (int i = 0; i < n; ++i) {
      table.on_transmission(peer, false);
      r.on_tx_result(peer, FrameType::kData, false, sim.now());
    }
  }

  [[nodiscard]] int callbacks_to(NodeId parent, bool as_best) const {
    int n = 0;
    for (const Frame& f : sent) {
      if (f.type == FrameType::kJoinedCallback && f.dst == parent &&
          f.as<JoinedCallbackPayload>().as_best_parent == as_best) {
        ++n;
      }
    }
    return n;
  }
};

DigsRouting make_digs(ProtoHarness& h, NodeId id, bool is_ap = false,
                      DigsRoutingConfig config = {}) {
  return DigsRouting(h.sim, id, is_ap, h.table, config, Rng(7), h.env());
}

RplRouting make_rpl(ProtoHarness& h, NodeId id, bool is_ap = false,
                    RplRoutingConfig config = {}) {
  return RplRouting(h.sim, id, is_ap, h.table, config, Rng(7), h.env());
}

// --- behaviour both distance-vector protocols share ---

template <typename Protocol>
struct ProtocolConfig;
template <>
struct ProtocolConfig<DigsRouting> {
  using type = DigsRoutingConfig;
};
template <>
struct ProtocolConfig<RplRouting> {
  using type = RplRoutingConfig;
};

template <typename Protocol>
class SharedRoutingTest : public ::testing::Test {
 protected:
  using Config = typename ProtocolConfig<Protocol>::type;

  Protocol make(NodeId id, bool is_ap = false, Config config = {}) {
    return Protocol(h.sim, id, is_ap, h.table, config, Rng(7), h.env());
  }

  [[nodiscard]] int sent_of(FrameType type) const {
    int n = 0;
    for (const Frame& f : h.sent) {
      if (f.type == type) ++n;
    }
    return n;
  }

  ProtoHarness h;
};

using Protocols = ::testing::Types<DigsRouting, RplRouting>;
TYPED_TEST_SUITE(SharedRoutingTest, Protocols);

TYPED_TEST(SharedRoutingTest, CallbackRegistersChild) {
  TypeParam ap = this->make(NodeId{0}, /*is_ap=*/true);
  ap.start(this->h.sim.now());
  this->h.hear_callback(ap, NodeId{0}, NodeId{5}, true);
  ASSERT_EQ(ap.children().size(), 1u);
  EXPECT_EQ(ap.children()[0].id, NodeId{5});
  EXPECT_TRUE(ap.children()[0].as_best);
  // A repeated callback refreshes the entry, it does not duplicate it.
  this->h.hear_callback(ap, NodeId{0}, NodeId{5}, true);
  EXPECT_EQ(ap.children().size(), 1u);
}

TYPED_TEST(SharedRoutingTest, ChildrenPrunedAfterTimeout) {
  typename TestFixture::Config config;
  config.child_timeout = seconds(static_cast<std::int64_t>(60));
  TypeParam ap = this->make(NodeId{0}, /*is_ap=*/true, config);
  ap.start(this->h.sim.now());
  this->h.hear_callback(ap, NodeId{0}, NodeId{5}, true);
  EXPECT_EQ(ap.children().size(), 1u);
  this->h.sim.run_until(SimTime{0} + seconds(static_cast<std::int64_t>(120)));
  EXPECT_EQ(ap.children().size(), 0u);
}

TYPED_TEST(SharedRoutingTest, StopForgetsParents) {
  TypeParam node = this->make(NodeId{5});
  node.start(this->h.sim.now());
  this->h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  node.stop(this->h.sim.now());
  EXPECT_FALSE(node.joined());
  EXPECT_EQ(node.best_parent(), kNoNode);
  EXPECT_EQ(node.rank(), NeighborInfo::kInfiniteRank);
}

TYPED_TEST(SharedRoutingTest, PowerDownClearsChildren) {
  // stop() is a desync: the child table survives so downstream nodes are
  // not orphaned. power_down() is a crash: it dies with the node.
  TypeParam node = this->make(NodeId{5});
  node.start(this->h.sim.now());
  this->h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  this->h.hear_callback(node, NodeId{5}, NodeId{9}, true);
  ASSERT_EQ(node.children().size(), 1u);
  node.stop(this->h.sim.now());
  EXPECT_EQ(node.children().size(), 1u);
  node.start(this->h.sim.now());
  node.power_down(this->h.sim.now());
  EXPECT_TRUE(node.children().empty());
  EXPECT_FALSE(node.joined());
}

TYPED_TEST(SharedRoutingTest, JoinInTransmittedByTrickleAfterJoining) {
  typename TestFixture::Config config;
  config.trickle.imin = milliseconds(100);
  TypeParam node = this->make(NodeId{5}, false, config);
  node.start(this->h.sim.now());
  this->h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  this->h.sim.run_until(SimTime{0} + seconds(static_cast<std::int64_t>(1)));
  EXPECT_GE(this->sent_of(FrameType::kJoinIn), 1);
}

TYPED_TEST(SharedRoutingTest, UnjoinedNodeSolicitsJoinIns) {
  // RPL DIS analogue: a started (synchronized) but parentless node
  // periodically broadcasts a join solicitation.
  TypeParam node = this->make(NodeId{5});
  node.start(this->h.sim.now());
  this->h.sim.run_until(SimTime{0} + seconds(static_cast<std::int64_t>(30)));
  EXPECT_GE(this->sent_of(FrameType::kJoinSolicit), 2);
}

TYPED_TEST(SharedRoutingTest, JoinedNodeStopsSoliciting) {
  TypeParam node = this->make(NodeId{5});
  node.start(this->h.sim.now());
  this->h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  const auto before = this->h.sent.size();
  this->h.sim.run_until(SimTime{0} + seconds(static_cast<std::int64_t>(30)));
  for (std::size_t i = before; i < this->h.sent.size(); ++i) {
    EXPECT_NE(this->h.sent[i].type, FrameType::kJoinSolicit);
  }
}

TYPED_TEST(SharedRoutingTest, SolicitResetsTrickleOfJoinedNeighbor) {
  typename TestFixture::Config config;
  config.trickle.imin = milliseconds(200);
  config.trickle.doublings = 6;
  TypeParam ap = this->make(NodeId{0}, /*is_ap=*/true, config);
  ap.start(this->h.sim.now());
  this->h.sim.run_until(SimTime{0} + seconds(static_cast<std::int64_t>(60)));
  ASSERT_GT(ap.trickle().current_interval().us, milliseconds(200).us);
  ap.handle_frame(make_frame(FrameType::kJoinSolicit, NodeId{9}, kNoNode,
                             JoinSolicitPayload{}),
                  -70.0, this->h.sim.now());
  EXPECT_EQ(ap.trickle().current_interval().us, milliseconds(200).us);
}

TYPED_TEST(SharedRoutingTest, KeepaliveProbesIdleParentLink) {
  // A joined node whose parent confirmed it, but with no unicast feedback
  // since, re-sends its joined-callback periodically (TSCH keepalive
  // semantics).
  TypeParam node = this->make(NodeId{5});
  node.start(this->h.sim.now());
  this->h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  node.on_tx_result(NodeId{0}, FrameType::kJoinedCallback, true,
                    this->h.sim.now());
  ASSERT_EQ(node.best_parent_confirmed(), ConfirmedRole::kPrimary);
  const int initial = this->h.callbacks_to(NodeId{0}, true);
  this->h.sim.run_until(SimTime{0} + seconds(static_cast<std::int64_t>(120)));
  EXPECT_GT(this->h.callbacks_to(NodeId{0}, true), initial);
}

TYPED_TEST(SharedRoutingTest, CallbackAckConfirmsRole) {
  TypeParam node = this->make(NodeId{5});
  node.start(this->h.sim.now());
  this->h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  EXPECT_EQ(node.best_parent_confirmed(), ConfirmedRole::kNone);
  node.on_tx_result(NodeId{0}, FrameType::kJoinedCallback, true,
                    this->h.sim.now());
  EXPECT_EQ(node.best_parent_confirmed(), ConfirmedRole::kPrimary);
}

TYPED_TEST(SharedRoutingTest, ChildNeverBecomesParent) {
  // Local loop protection: a node that registered us as its parent cannot
  // become our parent, however good its advertisement looks.
  TypeParam node = this->make(NodeId{5});
  node.start(this->h.sim.now());
  this->h.hear_join_in(node, NodeId{2}, 2, 3.0, -60.0);  // mediocre parent
  this->h.hear_callback(node, NodeId{5}, NodeId{9}, true);  // our child
  this->h.hear_join_in(node, NodeId{9}, 1, 0.0, -60.0);  // looks great
  EXPECT_EQ(node.best_parent(), NodeId{2});
  EXPECT_NE(node.second_best_parent(), NodeId{9});
}

// --- DiGS Algorithm 1 ---

TEST(DigsRoutingTest, AccessPointInitialState) {
  ProtoHarness h;
  DigsRouting ap = make_digs(h, NodeId{0}, /*is_ap=*/true);
  ap.start(h.sim.now());
  EXPECT_EQ(ap.rank(), kAccessPointRank);
  EXPECT_DOUBLE_EQ(ap.advertised_cost(), 0.0);
  EXPECT_TRUE(ap.joined());
  EXPECT_TRUE(ap.fully_joined());
}

TEST(DigsRoutingTest, FirstJoinInSetsBestParent) {
  ProtoHarness h;
  DigsRouting node = make_digs(h, NodeId{5});
  node.start(h.sim.now());
  EXPECT_FALSE(node.joined());
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  EXPECT_TRUE(node.joined());
  EXPECT_EQ(node.best_parent(), NodeId{0});
  EXPECT_EQ(node.rank(), 2);  // parent rank + 1
  EXPECT_EQ(h.callbacks_to(NodeId{0}, true), 1);
}

TEST(DigsRoutingTest, SecondJoinInBecomesSecondBestParent) {
  ProtoHarness h;
  DigsRouting node = make_digs(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  h.hear_join_in(node, NodeId{1}, 1, 0.5, -60.0);  // worse, rank ok
  EXPECT_EQ(node.best_parent(), NodeId{0});
  EXPECT_EQ(node.second_best_parent(), NodeId{1});
  EXPECT_TRUE(node.fully_joined());
  EXPECT_EQ(h.callbacks_to(NodeId{1}, false), 1);
}

TEST(DigsRoutingTest, BetterRouteSwitchesBestParentAndDemotes) {
  ProtoHarness h;
  DigsRouting node = make_digs(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{2}, 1, 2.0, -60.0);  // cost ~3
  EXPECT_EQ(node.best_parent(), NodeId{2});
  EXPECT_EQ(node.rank(), 2);
  // A much better neighbor appears (rank 1, cost ~1).
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  EXPECT_EQ(node.best_parent(), NodeId{0});
  EXPECT_EQ(node.second_best_parent(), NodeId{2});  // demoted (Algorithm 1)
  EXPECT_EQ(node.rank(), 2);
  EXPECT_GE(node.parent_switches(), 1u);
}

TEST(DigsRoutingTest, DemotedParentDroppedIfRankRuleViolated) {
  // When the switch lowers our rank to the demoted parent's level, the
  // equal-rank exclusion removes it from the backup slot.
  ProtoHarness h;
  DigsRouting node = make_digs(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{2}, 2, 2.0, -60.0);  // rank -> 3
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);  // rank -> 2
  EXPECT_EQ(node.best_parent(), NodeId{0});
  // Old parent has rank 2 == our new rank: not a legal backup.
  EXPECT_EQ(node.second_best_parent(), kNoNode);
}

TEST(DigsRoutingTest, EqualRankNeighborNeverSecondBest) {
  // Paper's loop-avoidance: the link between equal-rank nodes is not used.
  ProtoHarness h;
  DigsRouting node = make_digs(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);  // rank -> 2
  h.hear_join_in(node, NodeId{6}, 2, 0.8, -60.0);  // same rank as ours
  EXPECT_EQ(node.second_best_parent(), kNoNode);
}

TEST(DigsRoutingTest, HysteresisPreventsFlapping) {
  ProtoHarness h;
  DigsRoutingConfig config;
  config.parent_switch_hysteresis = 0.5;
  DigsRouting node = make_digs(h, NodeId{5}, false, config);
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  // Marginally better neighbor: within hysteresis, no switch.
  h.hear_join_in(node, NodeId{1}, 1, -0.1, -60.0);
  EXPECT_EQ(node.best_parent(), NodeId{0});
}

TEST(DigsRoutingTest, EtxwReflectsBothParents) {
  // Use a mid-quality primary link (ETX 2 at -75 dBm) so w2 = 0.25 > 0
  // and the backup path's cost matters (Eq. 1-3).
  ProtoHarness h;
  DigsRouting node = make_digs(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -75.0);
  const double single_parent_cost = node.advertised_cost();
  h.hear_join_in(node, NodeId{1}, 1, 0.0, -75.0);
  // With a real backup the surrogate missing-backup penalty disappears.
  EXPECT_LT(node.advertised_cost(), single_parent_cost);
}

TEST(DigsRoutingTest, PerfectPrimaryLinkIgnoresBackupCost) {
  // ETX 1 primary link: w1 = 1, w2 = 0 - the backup does not change ETXw.
  ProtoHarness h;
  DigsRouting node = make_digs(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  const double before = node.advertised_cost();
  h.hear_join_in(node, NodeId{1}, 1, 3.0, -60.0);
  EXPECT_NEAR(node.advertised_cost(), before, 1e-9);
}

TEST(DigsRoutingTest, BestParentFailurePromotesBackupSeamlessly) {
  ProtoHarness h;
  DigsRouting node = make_digs(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  h.hear_join_in(node, NodeId{1}, 1, 0.5, -60.0);
  h.fail_towards(node, NodeId{0}, 12);
  EXPECT_EQ(node.best_parent(), NodeId{1});
  EXPECT_TRUE(node.joined());
  EXPECT_EQ(h.callbacks_to(NodeId{1}, true), 1);  // promoted to best
}

TEST(DigsRoutingTest, SecondBestFailureReplacedFromTable) {
  ProtoHarness h;
  DigsRouting node = make_digs(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  h.hear_join_in(node, NodeId{1}, 1, 0.5, -60.0);
  h.hear_join_in(node, NodeId{2}, 1, 0.9, -60.0);  // another candidate
  ASSERT_EQ(node.second_best_parent(), NodeId{1});
  h.fail_towards(node, NodeId{1}, 12);
  EXPECT_EQ(node.best_parent(), NodeId{0});
  EXPECT_EQ(node.second_best_parent(), NodeId{2});
}

TEST(DigsRoutingTest, TotalFailureDetaches) {
  ProtoHarness h;
  DigsRouting node = make_digs(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  h.fail_towards(node, NodeId{0}, 12);
  EXPECT_FALSE(node.joined());
  EXPECT_EQ(node.rank(), NeighborInfo::kInfiniteRank);
  // Poison join-in was emitted.
  bool poisoned = false;
  for (const Frame& f : h.sent) {
    if (f.type == FrameType::kJoinIn &&
        f.as<JoinInPayload>().rank == NeighborInfo::kInfiniteRank) {
      poisoned = true;
    }
  }
  EXPECT_TRUE(poisoned);
}

TEST(DigsRoutingTest, CallbackRoleChangeUpdatesChild) {
  ProtoHarness h;
  DigsRouting ap = make_digs(h, NodeId{0}, /*is_ap=*/true);
  ap.start(h.sim.now());
  h.hear_callback(ap, NodeId{0}, NodeId{5}, true);
  const int changes = h.topology_changes;
  // A role change updates the entry in place and reports the change.
  h.hear_callback(ap, NodeId{0}, NodeId{5}, false);
  ASSERT_EQ(ap.children().size(), 1u);
  EXPECT_FALSE(ap.children()[0].as_best);
  EXPECT_GT(h.topology_changes, changes);
}

TEST(DigsRoutingTest, PoisonFromParentTriggersFailover) {
  ProtoHarness h;
  DigsRouting node = make_digs(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  h.hear_join_in(node, NodeId{1}, 1, 0.5, -60.0);
  h.hear_join_in(node, NodeId{0}, NeighborInfo::kInfiniteRank,
                 NeighborInfo::kInfiniteEtx, -60.0);
  EXPECT_EQ(node.best_parent(), NodeId{1});
}

// --- RPL baseline ---

TEST(RplRoutingTest, SingleParentNoBackup) {
  ProtoHarness h;
  RplRouting node = make_rpl(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  h.hear_join_in(node, NodeId{1}, 1, 0.5, -60.0);
  EXPECT_EQ(node.best_parent(), NodeId{0});
  EXPECT_EQ(node.second_best_parent(), kNoNode);  // by design
}

TEST(RplRoutingTest, AdvertisesAccumulatedEtx) {
  ProtoHarness h;
  RplRouting node = make_rpl(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{0}, 1, 1.5, -60.0);
  // link etx ~1 + advertised 1.5
  EXPECT_NEAR(node.advertised_cost(), 2.5, 0.3);
}

TEST(RplRoutingTest, SwitchesToBetterParent) {
  ProtoHarness h;
  RplRouting node = make_rpl(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{2}, 2, 3.0, -60.0);
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  EXPECT_EQ(node.best_parent(), NodeId{0});
  EXPECT_EQ(node.rank(), 2);
}

TEST(RplRoutingTest, ParentFailureNeedsRepair) {
  ProtoHarness h;
  RplRouting node = make_rpl(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  h.hear_join_in(node, NodeId{1}, 1, 0.5, -60.0);  // known alternative
  h.fail_towards(node, NodeId{0}, 12);
  // Repairs to the alternative (but had an outage window in real traffic).
  EXPECT_EQ(node.best_parent(), NodeId{1});
}

TEST(RplRoutingTest, NoAlternativeDetachesAndPoisons) {
  ProtoHarness h;
  RplRouting node = make_rpl(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  h.fail_towards(node, NodeId{0}, 12);
  EXPECT_FALSE(node.joined());
  bool poisoned = false;
  for (const Frame& f : h.sent) {
    if (f.type == FrameType::kJoinIn &&
        f.as<JoinInPayload>().rank == NeighborInfo::kInfiniteRank) {
      poisoned = true;
    }
  }
  EXPECT_TRUE(poisoned);
}

TEST(RplRoutingTest, PoisonFromParentDetaches) {
  ProtoHarness h;
  RplRouting node = make_rpl(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{0}, 1, 0.0, -60.0);
  h.hear_join_in(node, NodeId{0}, NeighborInfo::kInfiniteRank,
                 NeighborInfo::kInfiniteEtx, -60.0);
  EXPECT_FALSE(node.joined());
}

TEST(RplRoutingTest, EqualRankParentNotSelected) {
  ProtoHarness h;
  RplRouting node = make_rpl(h, NodeId{5});
  node.start(h.sim.now());
  h.hear_join_in(node, NodeId{0}, 1, 2.0, -88.0);  // weak link to AP
  ASSERT_EQ(node.rank(), 2);
  // Equal-rank neighbor with better cost must not become parent.
  h.hear_join_in(node, NodeId{6}, 2, 0.1, -60.0);
  EXPECT_EQ(node.best_parent(), NodeId{0});
}

}  // namespace
}  // namespace digs
