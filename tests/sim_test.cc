// Unit tests for the discrete-event simulation kernel, its defer window,
// and the slot engine's wake heap.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/wake_heap.h"
#include "sim/simulator.h"

namespace digs {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now().us, 0);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime{300}, [&] { order.push_back(3); });
  sim.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  sim.schedule_at(SimTime{200}, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, SameTimeFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime{100}, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen;
  sim.schedule_at(SimTime{12345}, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen.us, 12345);
  EXPECT_EQ(sim.now().us, 12345);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime{100}, [&] { ++fired; });
  sim.schedule_at(SimTime{200}, [&] { ++fired; });
  sim.run_until(SimTime{150});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().us, 150);
  sim.run_until(SimTime{250});
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(SimTime{5000});
  EXPECT_EQ(sim.now().us, 5000);
}

TEST(SimulatorTest, ScheduleAfter) {
  Simulator sim;
  sim.schedule_at(SimTime{100}, [&] {
    sim.schedule_after(SimDuration{50}, [&] {
      EXPECT_EQ(sim.now().us, 150);
    });
  });
  sim.run();
  EXPECT_EQ(sim.now().us, 150);
}

TEST(SimulatorTest, EventsScheduledDuringRun) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.schedule_after(SimDuration{10}, chain);
  };
  sim.schedule_at(SimTime{0}, chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now().us, 40);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle handle =
      sim.schedule_at(SimTime{100}, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, HandleNotPendingAfterFire) {
  Simulator sim;
  EventHandle handle = sim.schedule_at(SimTime{10}, [] {});
  sim.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // harmless no-op
}

TEST(SimulatorTest, DefaultHandleInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.cancel();
}

TEST(SimulatorTest, PendingEventCount) {
  Simulator sim;
  EXPECT_EQ(sim.pending_events(), 0u);
  auto h1 = sim.schedule_at(SimTime{10}, [] {});
  auto h2 = sim.schedule_at(SimTime{20}, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  h1.cancel();
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  (void)h2;
}

TEST(SimulatorTest, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.schedule_at(SimTime{i * 10}, [] {});
  }
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(SimulatorTest, PastScheduleClampsToNow) {
  Simulator sim;
  sim.run_until(SimTime{100});
  bool fired = false;
  sim.schedule_at(SimTime{50}, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now().us, 100);
}

// Regression: the pre-heap implementation moved the executing event out of
// priority_queue::top() via const_cast; these pin the behaviours that made
// that rewrite risky — cancellation seen only at pop time, and same-instant
// FIFO across a mix of live, cancelled, and nested schedules.
TEST(SimulatorTest, CancelledEventAmongSameInstantPeersIsSkipped) {
  Simulator sim;
  std::vector<int> order;
  auto h0 = sim.schedule_at(SimTime{100}, [&] { order.push_back(0); });
  sim.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  auto h2 = sim.schedule_at(SimTime{100}, [&] { order.push_back(2); });
  sim.schedule_at(SimTime{100}, [&] { order.push_back(3); });
  h0.cancel();
  h2.cancel();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelFromInsideSameInstantEvent) {
  Simulator sim;
  std::vector<int> order;
  EventHandle later;
  sim.schedule_at(SimTime{100}, [&] {
    order.push_back(0);
    later.cancel();  // cancels a peer already in the heap for this instant
  });
  later = sim.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  sim.schedule_at(SimTime{100}, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(SimulatorTest, SameInstantFifoWithNestedSchedules) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime{100}, [&] {
    order.push_back(0);
    // Scheduled during execution at the same instant: runs after every
    // event that was already queued for t=100.
    sim.schedule_at(SimTime{100}, [&] { order.push_back(3); });
  });
  sim.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  sim.schedule_at(SimTime{100}, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorTest, FifoSurvivesInterleavedCancellations) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  handles.reserve(50);
  for (int i = 0; i < 50; ++i) {
    handles.push_back(
        sim.schedule_at(SimTime{100}, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 50; i += 3) handles[static_cast<std::size_t>(i)].cancel();
  sim.run();
  std::vector<int> expected;
  for (int i = 0; i < 50; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(SimulatorTest, MoveOnlyCaptureInEvent) {
  Simulator sim;
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  sim.schedule_at(SimTime{10},
                  [&seen, p = std::move(payload)] { seen = *p; });
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(PeriodicTimerTest, FiresEveryPeriod) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, SimDuration{100}, [&] { ++fires; });
  timer.start();
  sim.run_until(SimTime{1000});
  EXPECT_EQ(fires, 10);
}

TEST(PeriodicTimerTest, StopHalts) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, SimDuration{100}, [&] { ++fires; });
  timer.start();
  sim.run_until(SimTime{350});
  timer.stop();
  EXPECT_FALSE(timer.running());
  sim.run_until(SimTime{1000});
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTimerTest, RestartResetsPhase) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, SimDuration{100}, [&] { ++fires; });
  timer.start();
  sim.run_until(SimTime{50});
  timer.start();  // restart at t=50; next fire at 150
  sim.run_until(SimTime{149});
  EXPECT_EQ(fires, 0);
  sim.run_until(SimTime{150});
  EXPECT_EQ(fires, 1);
}

TEST(PeriodicTimerTest, SetPeriodAppliesOnRestart) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, SimDuration{100}, [&] { ++fires; });
  timer.start();
  sim.run_until(SimTime{200});
  EXPECT_EQ(fires, 2);
  timer.set_period(SimDuration{400});
  EXPECT_EQ(timer.period().us, 400);
  timer.start();
  sim.run_until(SimTime{500});  // next fire at 600
  EXPECT_EQ(fires, 2);
  sim.run_until(SimTime{600});
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTimerTest, DestructorCancels) {
  Simulator sim;
  int fires = 0;
  {
    PeriodicTimer timer(sim, SimDuration{10}, [&] { ++fires; });
    timer.start();
  }
  sim.run_until(SimTime{100});
  EXPECT_EQ(fires, 0);
}

// --- defer window ---

TEST(DeferWindowTest, RunInOrderOutsideAWindowRunsAtOnce) {
  Simulator sim;
  int calls = 0;
  sim.run_in_order([&] { ++calls; });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

/// Six program sites mixing schedules, a cancel and in-order calls. Each
/// call snapshots what the simulator shows at that point: the live event
/// count and which of the five events are pending. The snapshot reads
/// copies of the handles (the events' identities): the handles the sites
/// own are program state, updated when an op is recorded, not replayed.
class SiteProgram {
 public:
  void site(int k) {
    switch (k) {
      case 0:
        schedule(0, SimTime{100});
        break;
      case 1:
        in_window_ += schedule(1, SimTime{100}).pending() ? 'B' : 'b';
        schedule(2, SimTime{50});
        break;
      case 2:
        call(k);
        break;
      case 3:
        owned_[2].cancel();
        in_window_ += owned_[2].pending() ? 'C' : 'c';
        call(k);
        break;
      case 4:
        schedule(3, SimTime{100});
        call(k);
        break;
      case 5:
        call(k);  // keyed before e's schedule: must not see it
        schedule(4, SimTime{100});
        break;
      default:
        break;
    }
  }

  Simulator& sim() { return sim_; }
  [[nodiscard]] const std::vector<std::string>& calls() const {
    return calls_;
  }
  [[nodiscard]] const std::string& fired() const { return fired_; }
  [[nodiscard]] const std::string& in_window() const { return in_window_; }

 private:
  // Event i fires as the letter 'a' + i.
  EventHandle& schedule(int i, SimTime at) {
    owned_[i] = sim_.schedule_at(
        at, [this, i] { fired_ += static_cast<char>('a' + i); });
    events_[i] = owned_[i];
    return owned_[i];
  }
  void call(int k) {
    sim_.run_in_order([this, k] {
      std::string seen = std::to_string(k) + ":" +
                         std::to_string(sim_.pending_events()) + ":";
      for (const EventHandle& event : events_) {
        seen += event.pending() ? '1' : '0';
      }
      calls_.push_back(seen);
    });
  }

  Simulator sim_;
  EventHandle owned_[5];
  EventHandle events_[5];
  std::vector<std::string> calls_;
  std::string fired_;
  std::string in_window_;
};

TEST(DeferWindowTest, ReplayRunsCallsAmongScheduleAndCancelInKeyOrder) {
  SiteProgram serial;
  for (int k = 0; k < 6; ++k) serial.site(k);
  EXPECT_EQ(serial.calls(),
            (std::vector<std::string>{"2:3:11100", "3:2:11000", "4:3:11010",
                                      "5:3:11010"}));

  // Even sites record on one buffer, odd sites on the other (as two shard
  // tasks would), then one replay merges them by key.
  SiteProgram deferred;
  Simulator::DeferBuffer bufs[2];
  for (int shard = 0; shard < 2; ++shard) {
    Simulator::set_defer_buffer(&bufs[shard]);
    for (int k = shard; k < 6; k += 2) {
      bufs[shard].set_site(static_cast<std::uint64_t>(k));
      deferred.site(k);
    }
    Simulator::set_defer_buffer(nullptr);
  }
  EXPECT_TRUE(deferred.calls().empty()) << "a call ran inside the window";
  EXPECT_EQ(deferred.sim().pending_events(), 0u);
  deferred.sim().replay_deferred(bufs, 2);

  // Every call saw exactly the ops keyed before it; pending() agreed inside
  // the window (own buffer) and after the replay (live set).
  EXPECT_EQ(deferred.calls(), serial.calls());
  EXPECT_EQ(deferred.in_window(), serial.in_window());
  EXPECT_EQ(deferred.in_window(), "Bc");
  EXPECT_EQ(deferred.sim().pending_events(), serial.sim().pending_events());

  // Same-instant events fire in serial seq order (a, b, d, e; the buffer
  // order would be a, d, b, e), and the cancelled c never fires.
  serial.sim().run();
  deferred.sim().run();
  EXPECT_EQ(serial.fired(), "abde");
  EXPECT_EQ(deferred.fired(), serial.fired());

  // The replay emptied both buffers: a second replay is a no-op.
  deferred.sim().replay_deferred(bufs, 2);
  EXPECT_EQ(deferred.sim().pending_events(), 0u);
  EXPECT_EQ(deferred.calls().size(), serial.calls().size());
}

// --- wake heap ---

TEST(WakeHeapTest, PopsByAsnThenNodeWithDuplicatesAdjacent) {
  WakeHeap heap;
  const std::vector<std::pair<std::uint64_t, std::uint16_t>> pushes = {
      {7, 5}, {3, 9}, {7, 2}, {9, 1}, {7, 5}, {7, 0}, {3, 4}};
  for (const auto& [asn, node] : pushes) heap.push(asn, node);
  std::vector<std::pair<std::uint64_t, std::uint16_t>> popped;
  while (!heap.empty()) {
    const WakeHeap::Entry top = heap.top();
    const WakeHeap::Entry entry = heap.pop();
    EXPECT_EQ(top.asn, entry.asn);
    EXPECT_EQ(top.node, entry.node);
    popped.emplace_back(entry.asn, entry.node);
  }
  // Same-asn entries pop in ascending node order; the duplicate (7, 5)
  // pops twice in a row.
  EXPECT_EQ(popped,
            (std::vector<std::pair<std::uint64_t, std::uint16_t>>{
                {3, 4}, {3, 9}, {7, 0}, {7, 2}, {7, 5}, {7, 5}, {9, 1}}));
}

}  // namespace
}  // namespace digs
