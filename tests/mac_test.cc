// Unit tests for the TSCH MAC: slotframes, schedule combination by traffic
// priority (paper Section VI), channel hopping, queues, retransmission
// policy, join/sync behaviour, and shared-slot backoff.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "mac/hopping.h"
#include "mac/schedule.h"
#include "mac/tsch_mac.h"

namespace digs {
namespace {

// --- hopping ---

TEST(HoppingTest, CyclesThroughAllChannels) {
  std::set<PhysicalChannel> seen;
  for (std::uint64_t asn = 0; asn < 16; ++asn) {
    seen.insert(hop_channel(asn, 0));
  }
  EXPECT_EQ(seen.size(), 16u);
}

TEST(HoppingTest, OffsetSeparatesChannels) {
  for (std::uint64_t asn = 0; asn < 100; ++asn) {
    EXPECT_NE(hop_channel(asn, 0), hop_channel(asn, 1));
  }
}

TEST(HoppingTest, WrapsAtSixteen) {
  EXPECT_EQ(hop_channel(0, 0), hop_channel(16, 0));
  EXPECT_EQ(hop_channel(5, 15), hop_channel(5 + 16, 15));
}

// --- schedule combination & occupancy ---

Slotframe make_slotframe(TrafficClass traffic, std::uint16_t length,
                         std::vector<std::uint16_t> tx_slots) {
  Slotframe frame;
  frame.traffic = traffic;
  frame.length = length;
  for (const auto slot : tx_slots) {
    Cell cell;
    cell.slot_offset = slot;
    cell.option = CellOption::kTx;
    cell.traffic = traffic;
    frame.cells.push_back(cell);
  }
  return frame;
}

TEST(ScheduleTest, EmptyScheduleNoCells) {
  Schedule schedule;
  EXPECT_TRUE(schedule.active_cells(0).empty());
  EXPECT_EQ(schedule.total_cells(), 0u);
}

TEST(ScheduleTest, SingleSlotframeRepeats) {
  Schedule schedule;
  schedule.install(make_slotframe(TrafficClass::kApplication, 7, {3}));
  EXPECT_TRUE(schedule.active_cells(0).empty());
  EXPECT_EQ(schedule.active_cells(3).size(), 1u);
  EXPECT_EQ(schedule.active_cells(10).size(), 1u);  // 10 % 7 == 3
  EXPECT_EQ(schedule.active_cells(17).size(), 1u);
}

TEST(ScheduleTest, PriorityCombination) {
  // Paper Fig. 7: sync wins over routing wins over application.
  Schedule schedule;
  schedule.install(make_slotframe(TrafficClass::kSync, 61, {0}));
  schedule.install(make_slotframe(TrafficClass::kRouting, 11, {0}));
  schedule.install(make_slotframe(TrafficClass::kApplication, 7, {0}));
  // ASN 0: all three match; sync wins.
  EXPECT_EQ(schedule.active_cells(0).front().traffic, TrafficClass::kSync);
  // ASN 77 = 7*11: routing (77%11==0) and app (77%7==0) match, sync
  // (77%61==16) does not; routing wins.
  EXPECT_EQ(schedule.active_cells(77).front().traffic,
            TrafficClass::kRouting);
  // ASN 7: only application matches.
  EXPECT_EQ(schedule.active_cells(7).front().traffic,
            TrafficClass::kApplication);
}

TEST(ScheduleTest, SkippedDetection) {
  Schedule schedule;
  schedule.install(make_slotframe(TrafficClass::kSync, 61, {0}));
  schedule.install(make_slotframe(TrafficClass::kApplication, 7, {0}));
  EXPECT_TRUE(schedule.skipped(TrafficClass::kApplication, 0));
  EXPECT_FALSE(schedule.skipped(TrafficClass::kApplication, 7));
  EXPECT_FALSE(schedule.skipped(TrafficClass::kSync, 0));
}

TEST(ScheduleTest, NoTrafficConstantlyBlocked) {
  // Coprime lengths (61, 11, 7): every class gets unskipped slots within
  // one hyperperiod (the paper's "no traffic is constantly blocked").
  Schedule schedule;
  schedule.install(make_slotframe(TrafficClass::kSync, 61, {0}));
  schedule.install(make_slotframe(TrafficClass::kRouting, 11, {0}));
  schedule.install(make_slotframe(TrafficClass::kApplication, 7, {0}));
  int app_unskipped = 0;
  int routing_unskipped = 0;
  const std::uint64_t hyper = 61ULL * 11 * 7;
  for (std::uint64_t asn = 0; asn < hyper; ++asn) {
    if (!schedule.class_cells(TrafficClass::kApplication, asn).empty() &&
        !schedule.skipped(TrafficClass::kApplication, asn)) {
      ++app_unskipped;
    }
    if (!schedule.class_cells(TrafficClass::kRouting, asn).empty() &&
        !schedule.skipped(TrafficClass::kRouting, asn)) {
      ++routing_unskipped;
    }
  }
  EXPECT_GT(app_unskipped, 0);
  EXPECT_GT(routing_unskipped, 0);
}

Slotframe make_rx_slotframe(TrafficClass traffic, std::uint16_t length,
                            std::vector<std::uint16_t> rx_slots) {
  Slotframe frame;
  frame.traffic = traffic;
  frame.length = length;
  for (const auto slot : rx_slots) {
    Cell cell;
    cell.slot_offset = slot;
    cell.option = CellOption::kRx;
    cell.traffic = traffic;
    frame.cells.push_back(cell);
  }
  return frame;
}

TEST(ScheduleOccupancyTest, EmptyScheduleNeverOccupied) {
  Schedule schedule;
  EXPECT_EQ(schedule.next_tx_asn(0, true, true), kNeverOccupied);
  EXPECT_EQ(schedule.next_tx_asn(12345, false, false), kNeverOccupied);
  EXPECT_TRUE(schedule.listen_offsets(TrafficClass::kSync).empty());
  EXPECT_EQ(schedule.frame_length(TrafficClass::kSync), 0u);
  EXPECT_EQ(Schedule::next_in({}, 7, 0), kNeverOccupied);
  const std::vector<std::uint16_t> offsets{3};
  EXPECT_EQ(Schedule::next_in(offsets, 0, 0), kNeverOccupied);
}

TEST(ScheduleOccupancyTest, SingleCellAdvancesAndWraps) {
  Schedule schedule;
  schedule.install(make_slotframe(TrafficClass::kSync, 7, {3}));
  EXPECT_EQ(schedule.next_tx_asn(0, false, false), 3u);
  EXPECT_EQ(schedule.next_tx_asn(3, false, false), 3u);   // inclusive
  EXPECT_EQ(schedule.next_tx_asn(4, false, false), 10u);  // wraps
  EXPECT_EQ(schedule.next_tx_asn(700, false, false), 703u);
  schedule.install(make_rx_slotframe(TrafficClass::kSync, 7, {3}));
  const auto listens = schedule.listen_offsets(TrafficClass::kSync);
  ASSERT_EQ(listens.size(), 1u);
  EXPECT_EQ(listens[0], 3u);
  EXPECT_EQ(Schedule::next_in(listens, 7, 3), 3u);   // inclusive
  EXPECT_EQ(Schedule::next_in(listens, 7, 4), 10u);  // wraps
  EXPECT_EQ(Schedule::next_in(listens, 7, 700), 703u);
}

TEST(ScheduleOccupancyTest, MergesAllSlotframes) {
  Schedule schedule;
  schedule.install(make_slotframe(TrafficClass::kSync, 61, {50}));
  schedule.install(make_slotframe(TrafficClass::kRouting, 11, {4}));
  // From 0: routing offset 4 comes before sync offset 50.
  EXPECT_EQ(schedule.next_tx_asn(0, true, false), 4u);
  EXPECT_EQ(schedule.next_tx_asn(5, true, false), 15u);  // next routing hit
  // An empty routing queue leaves only the EB cell.
  EXPECT_EQ(schedule.next_tx_asn(0, false, false), 50u);
  // Exhaustive cross-check over a hyperperiod: with every cell able to
  // transmit, the query must equal the first asn with non-empty
  // active_cells.
  std::uint64_t asn = 0;
  for (int hops = 0; hops < 100; ++hops) {
    const std::uint64_t next = schedule.next_tx_asn(asn, true, false);
    for (std::uint64_t a = asn; a < next; ++a) {
      EXPECT_TRUE(schedule.active_cells(a).empty()) << "asn " << a;
    }
    EXPECT_FALSE(schedule.active_cells(next).empty()) << "asn " << next;
    asn = next + 1;
  }
}

TEST(ScheduleOccupancyTest, AppTxOnlySlotsSkippedWhenQueueIdle) {
  Schedule schedule;
  schedule.install(make_slotframe(TrafficClass::kApplication, 7, {2}));
  schedule.install(make_rx_slotframe(TrafficClass::kSync, 61, {9}));
  // Queue idle: the dedicated TX cell at offset 2 cannot put a frame on the
  // air, and the RX-only sync frame never transmits.
  EXPECT_EQ(schedule.next_tx_asn(0, true, false), kNeverOccupied);
  // Queue non-empty: the TX cell counts again.
  EXPECT_EQ(schedule.next_tx_asn(0, false, true), 2u);
  // A TX cell is no listen; the sync RX cell listens unconditionally.
  EXPECT_TRUE(schedule.listen_offsets(TrafficClass::kApplication).empty());
  ASSERT_EQ(schedule.listen_offsets(TrafficClass::kSync).size(), 1u);
  EXPECT_EQ(schedule.listen_offsets(TrafficClass::kSync)[0], 9u);
  // An RX cell listens whatever the queue holds, and never transmits.
  schedule.install(make_rx_slotframe(TrafficClass::kApplication, 7, {5}));
  EXPECT_EQ(schedule.next_tx_asn(0, false, true), kNeverOccupied);
  EXPECT_EQ(Schedule::next_in(schedule.listen_offsets(
                                  TrafficClass::kApplication),
                              schedule.frame_length(TrafficClass::kApplication),
                              0),
            5u);
}

TEST(ScheduleOccupancyTest, SyncTxCellsNeverSkipped) {
  // EB transmissions do not depend on any queue; sync TX offsets count
  // even when the caller reports both queues empty.
  Schedule schedule;
  schedule.install(make_slotframe(TrafficClass::kSync, 61, {8}));
  EXPECT_EQ(schedule.next_tx_asn(0, false, false), 8u);
}

TEST(ScheduleOccupancyTest, ListenerFiresOnInstallAndRemove) {
  Schedule schedule;
  int notified = 0;
  schedule.set_occupancy_listener([&] { ++notified; });
  schedule.install(make_slotframe(TrafficClass::kSync, 61, {8}));
  EXPECT_EQ(notified, 1);
  schedule.install(make_slotframe(TrafficClass::kRouting, 11, {4}));
  EXPECT_EQ(notified, 2);
  schedule.remove(TrafficClass::kSync);
  EXPECT_EQ(notified, 3);
  EXPECT_EQ(schedule.next_tx_asn(0, true, false), 4u);
  EXPECT_EQ(schedule.next_tx_asn(0, false, false), kNeverOccupied);
}

TEST(ScheduleTest, ReinstallReplaces) {
  Schedule schedule;
  schedule.install(make_slotframe(TrafficClass::kApplication, 7, {1, 2, 3}));
  EXPECT_EQ(schedule.total_cells(), 3u);
  schedule.install(make_slotframe(TrafficClass::kApplication, 7, {5}));
  EXPECT_EQ(schedule.total_cells(), 1u);
  EXPECT_TRUE(schedule.active_cells(1).empty());
  EXPECT_EQ(schedule.active_cells(5).size(), 1u);
}

TEST(ScheduleTest, RemoveClass) {
  Schedule schedule;
  schedule.install(make_slotframe(TrafficClass::kSync, 61, {0}));
  schedule.remove(TrafficClass::kSync);
  EXPECT_TRUE(schedule.active_cells(0).empty());
  EXPECT_EQ(schedule.slotframe(TrafficClass::kSync), nullptr);
}

// --- TschMac ---

struct MacHarness {
  MacConfig config;
  std::vector<Frame> received;
  std::vector<std::pair<NodeId, bool>> tx_results;
  std::vector<DataPayload> drops;
  int synced_events = 0;
  int desynced_events = 0;
  std::unique_ptr<TschMac> mac;

  explicit MacHarness(NodeId id, bool is_ap = false, MacConfig cfg = {}) {
    config = cfg;
    TschMac::Callbacks callbacks;
    callbacks.on_frame = [this](const Frame& f, double, SimTime) {
      received.push_back(f);
    };
    callbacks.on_tx_result = [this](NodeId peer, FrameType, bool acked,
                                    SimTime) {
      tx_results.emplace_back(peer, acked);
    };
    callbacks.on_synced = [this](SimTime) { ++synced_events; };
    callbacks.on_desynced = [this](SimTime) { ++desynced_events; };
    callbacks.rank_provider = [] { return std::uint16_t{3}; };
    callbacks.on_data_dropped = [this](const DataPayload& p, DropReason,
                                       SimTime) { drops.push_back(p); };
    mac = std::make_unique<TschMac>(id, is_ap, config, Rng(42), callbacks);
  }
};

Frame eb_from(NodeId src, std::uint64_t asn = 0) {
  EbPayload payload;
  payload.asn = asn;
  payload.rank = 1;
  return make_frame(FrameType::kEnhancedBeacon, src, kNoNode, payload);
}

TEST(TschMacTest, AccessPointBornSynced) {
  MacHarness harness(NodeId{0}, /*is_ap=*/true);
  EXPECT_TRUE(harness.mac->synced());
}

TEST(TschMacTest, FieldDeviceScansUntilEb) {
  MacHarness harness(NodeId{5});
  EXPECT_FALSE(harness.mac->synced());
  const SlotPlan plan = harness.mac->plan_slot(0, SimTime{0});
  EXPECT_EQ(plan.kind, SlotPlan::Kind::kScan);
  harness.mac->on_receive(eb_from(NodeId{0}), -70.0, SimTime{0});
  EXPECT_TRUE(harness.mac->synced());
  EXPECT_EQ(harness.synced_events, 1);
}

TEST(TschMacTest, ScanRotatesChannels) {
  MacConfig config;
  config.scan_dwell_slots = 10;
  MacHarness harness(NodeId{5}, false, config);
  std::set<PhysicalChannel> channels;
  for (std::uint64_t asn = 0; asn < 160; ++asn) {
    channels.insert(harness.mac->plan_slot(asn, SimTime{0}).channel);
  }
  EXPECT_EQ(channels.size(), 16u);
}

// The slot engine reads an unsynced MAC's scan channel k slots ahead
// without planning. Predicts `steps` scan slots from the current state,
// checks that the dwell counts end exactly where the channel changes, then
// walks the MAC through those slots with a mix of plan_slot() and
// advance_scan() steps, comparing every planned channel.
void expect_scan_dwell_matches_plans(TschMac& mac, std::uint64_t steps) {
  ASSERT_FALSE(mac.synced());
  std::vector<TschMac::ScanDwell> ahead;
  for (std::uint64_t k = 0; k < steps; ++k) {
    ahead.push_back(mac.scan_dwell_ahead(k));
  }
  for (std::uint64_t k = 0; k + 1 < steps; ++k) {
    if (ahead[k].slots > 1) {
      EXPECT_EQ(ahead[k + 1].channel, ahead[k].channel) << k;
      EXPECT_EQ(ahead[k + 1].slots, ahead[k].slots - 1) << k;
    } else {
      EXPECT_NE(ahead[k + 1].channel, ahead[k].channel) << k;
      EXPECT_EQ(ahead[k + 1].slots, mac.config().scan_dwell_slots) << k;
    }
  }
  std::uint64_t k = 0;
  while (k < steps) {
    EXPECT_EQ(mac.plan_slot(k, SimTime{0}).channel, ahead[k].channel) << k;
    ++k;
    const std::uint64_t skip = std::min<std::uint64_t>(k % 4, steps - k);
    mac.advance_scan(skip);
    k += skip;
  }
}

TEST(TschMacTest, ScanDwellAheadMatchesPlannedChannels) {
  MacConfig config;
  config.scan_dwell_slots = 7;
  MacHarness harness(NodeId{5}, false, config);
  TschMac& mac = *harness.mac;
  // Each walk leaves the counter at a different phase of the dwell, so the
  // next one's predictions cross dwell boundaries from another offset.
  EXPECT_EQ(mac.scan_dwell_ahead(0).slots, 7u);
  for (int walk = 0; walk < 4; ++walk) {
    expect_scan_dwell_matches_plans(mac, 26 + walk);
  }

  // A desync restarts the scan at the top of a dwell on a freshly drawn
  // channel.
  mac.on_receive(eb_from(NodeId{0}), -70.0, SimTime{0});
  ASSERT_TRUE(mac.synced());
  mac.reset_to_unsynced(SimTime{100});
  EXPECT_EQ(mac.scan_dwell_ahead(0).slots, 7u);
  expect_scan_dwell_matches_plans(mac, 30);

  // So does a power loss, mid-dwell.
  mac.advance_scan(4);
  mac.power_down(SimTime{200});
  EXPECT_EQ(mac.scan_dwell_ahead(0).slots, 7u);
  expect_scan_dwell_matches_plans(mac, 30);
}

TEST(TschMacTest, SyncTimeoutDesyncs) {
  MacConfig config;
  config.sync_timeout = seconds(static_cast<std::int64_t>(5));
  MacHarness harness(NodeId{5}, false, config);
  harness.mac->on_receive(eb_from(NodeId{0}), -70.0, SimTime{0});
  EXPECT_TRUE(harness.mac->synced());
  harness.mac->end_slot(SimTime{0} + seconds(static_cast<std::int64_t>(4)));
  EXPECT_TRUE(harness.mac->synced());
  harness.mac->end_slot(SimTime{0} + seconds(static_cast<std::int64_t>(6)));
  EXPECT_FALSE(harness.mac->synced());
  EXPECT_EQ(harness.desynced_events, 1);
}

TEST(TschMacTest, EbFromTimeSourceRefreshesSync) {
  MacConfig config;
  config.sync_timeout = seconds(static_cast<std::int64_t>(5));
  MacHarness harness(NodeId{5}, false, config);
  harness.mac->on_receive(eb_from(NodeId{0}), -70.0, SimTime{0});
  harness.mac->set_time_source(NodeId{0});
  harness.mac->on_receive(eb_from(NodeId{0}), -70.0,
                          SimTime{0} + seconds(static_cast<std::int64_t>(4)));
  harness.mac->end_slot(SimTime{0} + seconds(static_cast<std::int64_t>(6)));
  EXPECT_TRUE(harness.mac->synced());  // refreshed at t=4s
}

TEST(TschMacTest, EbFromAnyNeighborRefreshesSync) {
  // Only routed nodes beacon, so any EB proves the network is alive and
  // refreshes the sync timeout (6TiSCH-style). Clock *corrections* are
  // stricter — only time-source frames re-anchor the offset (sync_test.cc).
  MacConfig config;
  config.sync_timeout = seconds(static_cast<std::int64_t>(5));
  MacHarness harness(NodeId{5}, false, config);
  harness.mac->on_receive(eb_from(NodeId{0}), -70.0, SimTime{0});
  harness.mac->set_time_source(NodeId{0});
  harness.mac->on_receive(eb_from(NodeId{9}), -70.0,
                          SimTime{0} + seconds(static_cast<std::int64_t>(4)));
  harness.mac->end_slot(SimTime{0} + seconds(static_cast<std::int64_t>(6)));
  EXPECT_TRUE(harness.mac->synced());
  // And with no EBs at all the timeout still fires.
  harness.mac->end_slot(SimTime{0} + seconds(static_cast<std::int64_t>(12)));
  EXPECT_FALSE(harness.mac->synced());
}

// Installs a simple application slotframe with one TX cell to `peer` at
// slot 1 and an EB TX cell at slot 0 of a sync slotframe.
void install_simple_schedule(TschMac& mac, NodeId peer) {
  Slotframe sync;
  sync.traffic = TrafficClass::kSync;
  sync.length = 101;
  Cell eb;
  eb.slot_offset = 0;
  eb.option = CellOption::kTx;
  eb.traffic = TrafficClass::kSync;
  sync.cells.push_back(eb);
  mac.schedule().install(sync);

  Slotframe app;
  app.traffic = TrafficClass::kApplication;
  app.length = 10;
  for (int p = 1; p <= 3; ++p) {
    Cell tx;
    tx.slot_offset = static_cast<std::uint16_t>(p);
    tx.option = CellOption::kTx;
    tx.traffic = TrafficClass::kApplication;
    tx.peer = peer;
    tx.attempt = static_cast<std::uint8_t>(p);
    app.cells.push_back(tx);
  }
  mac.schedule().install(app);
}

TEST(TschMacTest, TransmitsEbInSyncSlot) {
  MacHarness harness(NodeId{0}, /*is_ap=*/true);
  install_simple_schedule(*harness.mac, NodeId{1});
  const SlotPlan plan = harness.mac->plan_slot(0, SimTime{0});
  EXPECT_EQ(plan.kind, SlotPlan::Kind::kTx);
  EXPECT_EQ(plan.frame.type, FrameType::kEnhancedBeacon);
  EXPECT_TRUE(plan.frame.is_broadcast());
  EXPECT_FALSE(plan.expects_ack);
  EXPECT_EQ(plan.frame.as<EbPayload>().rank, 3);  // from rank_provider
}

TEST(TschMacTest, DataWaitsInQueueUntilTxCell) {
  MacHarness harness(NodeId{0}, /*is_ap=*/true);
  install_simple_schedule(*harness.mac, NodeId{1});
  DataPayload payload;
  payload.flow = FlowId{1};
  payload.seq = 7;
  EXPECT_TRUE(harness.mac->enqueue_data(payload, SimTime{0}));
  // Slot 5: no cell -> sleep.
  EXPECT_EQ(harness.mac->plan_slot(5, SimTime{0}).kind,
            SlotPlan::Kind::kSleep);
  // Slot 1: TX cell.
  const SlotPlan plan = harness.mac->plan_slot(11, SimTime{0});
  EXPECT_EQ(plan.kind, SlotPlan::Kind::kTx);
  EXPECT_EQ(plan.frame.type, FrameType::kData);
  EXPECT_EQ(plan.frame.dst, NodeId{1});
  EXPECT_TRUE(plan.expects_ack);
  EXPECT_EQ(plan.frame.as<DataPayload>().seq, 7u);
}

TEST(TschMacTest, AckDequeuesPacket) {
  MacHarness harness(NodeId{0}, /*is_ap=*/true);
  install_simple_schedule(*harness.mac, NodeId{1});
  harness.mac->enqueue_data(DataPayload{}, SimTime{0});
  (void)harness.mac->plan_slot(1, SimTime{0});
  harness.mac->on_tx_outcome(true, SimTime{0});
  EXPECT_EQ(harness.mac->app_queue_size(), 0u);
  ASSERT_EQ(harness.tx_results.size(), 1u);
  EXPECT_TRUE(harness.tx_results[0].second);
}

TEST(TschMacTest, NoAckRetriesThenDrops) {
  MacConfig config;
  config.max_data_transmissions = 4;
  MacHarness harness(NodeId{0}, /*is_ap=*/true, config);
  install_simple_schedule(*harness.mac, NodeId{1});
  harness.mac->enqueue_data(DataPayload{}, SimTime{0});
  int attempts = 0;
  for (std::uint64_t asn = 0; asn < 40 && harness.mac->app_queue_size() > 0;
       ++asn) {
    const SlotPlan plan = harness.mac->plan_slot(asn, SimTime{0});
    if (plan.kind == SlotPlan::Kind::kTx &&
        plan.frame.type == FrameType::kData) {
      ++attempts;
      harness.mac->on_tx_outcome(false, SimTime{0});
    }
  }
  EXPECT_EQ(attempts, 4);
  EXPECT_EQ(harness.drops.size(), 1u);
  EXPECT_EQ(harness.mac->app_queue_size(), 0u);
}

TEST(TschMacTest, QueueOverflowDrops) {
  MacConfig config;
  config.app_queue_capacity = 2;
  MacHarness harness(NodeId{0}, /*is_ap=*/true, config);
  EXPECT_TRUE(harness.mac->enqueue_data(DataPayload{}, SimTime{0}));
  EXPECT_TRUE(harness.mac->enqueue_data(DataPayload{}, SimTime{0}));
  EXPECT_FALSE(harness.mac->enqueue_data(DataPayload{}, SimTime{0}));
  EXPECT_EQ(harness.drops.size(), 1u);
  EXPECT_EQ(harness.mac->app_queue_size(), 2u);
}

TEST(TschMacTest, JoinInReplacedNotDuplicated) {
  MacHarness harness(NodeId{0}, /*is_ap=*/true);
  JoinInPayload p1;
  p1.rank = 2;
  harness.mac->enqueue_routing(
      make_frame(FrameType::kJoinIn, NodeId{0}, kNoNode, p1));
  JoinInPayload p2;
  p2.rank = 3;
  harness.mac->enqueue_routing(
      make_frame(FrameType::kJoinIn, NodeId{0}, kNoNode, p2));
  EXPECT_EQ(harness.mac->routing_queue_size(), 1u);
}

TEST(TschMacTest, SharedSlotTransmitsRoutingFrame) {
  MacHarness harness(NodeId{0}, /*is_ap=*/true);
  Slotframe routing;
  routing.traffic = TrafficClass::kRouting;
  routing.length = 11;
  Cell shared;
  shared.slot_offset = 0;
  shared.option = CellOption::kShared;
  shared.traffic = TrafficClass::kRouting;
  routing.cells.push_back(shared);
  harness.mac->schedule().install(routing);

  // Without pending traffic the shared slot listens.
  EXPECT_EQ(harness.mac->plan_slot(0, SimTime{0}).kind, SlotPlan::Kind::kRx);

  harness.mac->enqueue_routing(
      make_frame(FrameType::kJoinIn, NodeId{0}, kNoNode, JoinInPayload{}));
  const SlotPlan plan = harness.mac->plan_slot(11, SimTime{0});
  EXPECT_EQ(plan.kind, SlotPlan::Kind::kTx);
  EXPECT_EQ(plan.frame.type, FrameType::kJoinIn);
  // Broadcast: done after one transmission.
  harness.mac->on_tx_outcome(false, SimTime{0});
  EXPECT_EQ(harness.mac->routing_queue_size(), 0u);
}

TEST(TschMacTest, UnicastRoutingBacksOffAfterFailure) {
  MacHarness harness(NodeId{0}, /*is_ap=*/true);
  Slotframe routing;
  routing.traffic = TrafficClass::kRouting;
  routing.length = 1;  // shared slot every slot, for test speed
  Cell shared;
  shared.slot_offset = 0;
  shared.option = CellOption::kShared;
  shared.traffic = TrafficClass::kRouting;
  routing.cells.push_back(shared);
  harness.mac->schedule().install(routing);

  harness.mac->enqueue_routing(make_frame(
      FrameType::kJoinedCallback, NodeId{0}, NodeId{1},
      JoinedCallbackPayload{}));
  // First transmission fails -> backoff engaged: not every subsequent slot
  // may transmit.
  const SlotPlan first = harness.mac->plan_slot(0, SimTime{0});
  ASSERT_EQ(first.kind, SlotPlan::Kind::kTx);
  EXPECT_TRUE(first.expects_ack);
  harness.mac->on_tx_outcome(false, SimTime{0});
  EXPECT_EQ(harness.mac->routing_queue_size(), 1u);  // retained for retry

  int tx_count = 0;
  for (std::uint64_t asn = 1; asn < 200 && harness.mac->routing_queue_size();
       ++asn) {
    const SlotPlan plan = harness.mac->plan_slot(asn, SimTime{0});
    if (plan.kind == SlotPlan::Kind::kTx) {
      ++tx_count;
      harness.mac->on_tx_outcome(false, SimTime{0});
    }
  }
  // max_routing_transmissions = 8 total; 7 more after the first.
  EXPECT_EQ(tx_count, 7);
  EXPECT_EQ(harness.mac->routing_queue_size(), 0u);
}

TEST(TschMacTest, ResetToUnsyncedClearsRoutingState) {
  MacHarness harness(NodeId{5});
  harness.mac->on_receive(eb_from(NodeId{0}), -70.0, SimTime{0});
  harness.mac->enqueue_routing(
      make_frame(FrameType::kJoinIn, NodeId{5}, kNoNode, JoinInPayload{}));
  harness.mac->reset_to_unsynced(SimTime{100});
  EXPECT_FALSE(harness.mac->synced());
  EXPECT_EQ(harness.mac->routing_queue_size(), 0u);
  EXPECT_EQ(harness.desynced_events, 1);
}

TEST(TschMacTest, UnsyncedIgnoresNonEbFrames) {
  MacHarness harness(NodeId{5});
  harness.mac->on_receive(
      make_frame(FrameType::kJoinIn, NodeId{1}, kNoNode, JoinInPayload{}),
      -70.0, SimTime{0});
  EXPECT_TRUE(harness.received.empty());
}

TEST(TschMacTest, UnjoinedNodeDoesNotBeacon) {
  // A synced-but-unrouted field device must not send EBs (joiners would
  // synchronize onto an island).
  MacHarness harness(NodeId{5});
  harness.mac->on_receive(eb_from(NodeId{0}), -70.0, SimTime{0});
  ASSERT_TRUE(harness.mac->synced());
  Slotframe sync;
  sync.traffic = TrafficClass::kSync;
  sync.length = 10;
  Cell eb;
  eb.slot_offset = 0;
  eb.option = CellOption::kTx;
  eb.traffic = TrafficClass::kSync;
  sync.cells.push_back(eb);
  harness.mac->schedule().install(sync);

  // rank_provider returns 3 by default (joined) -> beacons.
  EXPECT_EQ(harness.mac->plan_slot(0, SimTime{0}).kind, SlotPlan::Kind::kTx);

  // Unrouted (infinite rank) -> silent.
  TschMac::Callbacks callbacks;
  callbacks.rank_provider = [] { return kInfiniteRank; };
  TschMac unrouted(NodeId{6}, false, MacConfig{}, Rng(1), callbacks);
  unrouted.on_receive(eb_from(NodeId{0}), -70.0, SimTime{0});
  unrouted.schedule().install(sync);
  EXPECT_NE(unrouted.plan_slot(0, SimTime{0}).kind, SlotPlan::Kind::kTx);
}

TEST(TschMacTest, DownlinkAndUplinkPacketsMatchTheirCells) {
  MacHarness harness(NodeId{0}, /*is_ap=*/true);
  Slotframe app;
  app.traffic = TrafficClass::kApplication;
  app.length = 10;
  Cell up;
  up.slot_offset = 1;
  up.option = CellOption::kTx;
  up.traffic = TrafficClass::kApplication;
  up.peer = NodeId{1};
  up.attempt = 1;
  app.cells.push_back(up);
  Cell down;
  down.slot_offset = 2;
  down.option = CellOption::kTx;
  down.traffic = TrafficClass::kApplication;
  down.peer = NodeId{7};
  down.attempt = 1;
  down.downlink = true;
  app.cells.push_back(down);
  harness.mac->schedule().install(app);

  DataPayload command;
  command.final_dst = NodeId{9};
  harness.mac->enqueue_data(command, SimTime{0}, NodeId{7});  // downlink
  DataPayload report;
  harness.mac->enqueue_data(report, SimTime{0});  // uplink

  // Uplink cell at slot 1 must carry the uplink packet even though the
  // downlink packet is at the head of the queue.
  const SlotPlan at1 = harness.mac->plan_slot(1, SimTime{0});
  ASSERT_EQ(at1.kind, SlotPlan::Kind::kTx);
  EXPECT_EQ(at1.frame.dst, NodeId{1});
  EXPECT_FALSE(at1.frame.as<DataPayload>().is_downlink());
  harness.mac->on_tx_outcome(true, SimTime{0});

  // Downlink cell carries the command.
  const SlotPlan at2 = harness.mac->plan_slot(2, SimTime{0});
  ASSERT_EQ(at2.kind, SlotPlan::Kind::kTx);
  EXPECT_EQ(at2.frame.dst, NodeId{7});
  EXPECT_TRUE(at2.frame.as<DataPayload>().is_downlink());
  harness.mac->on_tx_outcome(true, SimTime{0});
  EXPECT_EQ(harness.mac->app_queue_size(), 0u);
}

TEST(TschMacTest, AttemptLadderPicksLowestAttemptCell) {
  MacHarness harness(NodeId{0}, /*is_ap=*/true);
  // Two TX cells at the same slot offset with different attempts: the MAC
  // must use the earlier attempt.
  Slotframe app;
  app.traffic = TrafficClass::kApplication;
  app.length = 5;
  for (int p : {3, 1}) {
    Cell tx;
    tx.slot_offset = 2;
    tx.option = CellOption::kTx;
    tx.traffic = TrafficClass::kApplication;
    tx.peer = NodeId{static_cast<std::uint16_t>(p)};  // peer encodes attempt
    tx.attempt = static_cast<std::uint8_t>(p);
    app.cells.push_back(tx);
  }
  harness.mac->schedule().install(app);
  harness.mac->enqueue_data(DataPayload{}, SimTime{0});
  const SlotPlan plan = harness.mac->plan_slot(2, SimTime{0});
  ASSERT_EQ(plan.kind, SlotPlan::Kind::kTx);
  EXPECT_EQ(plan.frame.dst, NodeId{1});
}

}  // namespace
}  // namespace digs
