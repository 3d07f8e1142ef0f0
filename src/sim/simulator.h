// Discrete-event simulation kernel.
//
// A Simulator owns a binary min-heap of timestamped events. Events scheduled
// for the same instant fire in scheduling order (FIFO via a sequence number),
// which keeps runs deterministic. Events can be cancelled through the handle
// returned at scheduling time.
//
// The heap is owned directly (not a std::priority_queue) so the executing
// event can be moved out of the structure safely — priority_queue::top() is
// const and forcing a move out of it is undefined-behaviour-adjacent.
// Callbacks are EventFn (small-buffer, move-only), so recurring events — the
// slot engine, periodic timers, flow generators — pay no heap allocation.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/time.h"
#include "sim/event_fn.h"

namespace digs {

class Simulator;

/// Handle to a scheduled event; allows cancellation. Default-constructed
/// handles are inert. Handles do not own the event; cancelling after the
/// event fired is a harmless no-op.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event has neither fired nor been cancelled.
  [[nodiscard]] bool pending() const;

  /// Cancels the event if still pending.
  void cancel();

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint64_t id) : sim_(sim), id_(id) {}

  Simulator* sim_{nullptr};
  std::uint64_t id_{0};
};

/// Single-threaded discrete-event simulator — with one concession to the
/// parallel slot pipeline: a *defer window*. While a thread has a
/// DeferBuffer installed (Simulator::set_defer_buffer), schedule_at(),
/// EventHandle::cancel() and run_in_order() do not touch the heap, the
/// live-id set or any caller state; they record the operation in the
/// buffer under a caller-supplied ordering key, and the caller replays all
/// buffers after the fork-join barrier, in ascending key order —
/// reproducing the exact effect sequence (and seq numbers) the serial
/// execution would have produced. pending() answers from the thread's own
/// buffer first (an id belongs to exactly one node, and a node to exactly
/// one shard, so the local view is complete), then from the live set,
/// which is read-only during a window because cancels are deferred too.
/// Event *ids* are allocated from an atomic counter, so their values may
/// differ between thread counts — harmless: ordering uses only (at, seq),
/// and the id set is never iterated.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Per-shard buffer of the schedule, cancel and call operations recorded
  /// during one parallel region. Keys are (site << 16 | sub): the caller
  /// sets the site — the op's global serial-order rank (reception index,
  /// transmitter index, participant rank...) — before invoking node code,
  /// and each recorded op takes the next sub-counter value. Sites ascend
  /// within a shard and never collide across shards, so a stable sort over
  /// all buffers is exactly the serial program order.
  class DeferBuffer {
   public:
    /// Starts a new op site; resets the intra-site sub-counter.
    void set_site(std::uint64_t site) {
      site_ = site;
      sub_ = 0;
    }

   private:
    friend class Simulator;
    friend class EventHandle;
    enum class Kind : std::uint8_t { kSchedule, kCancel, kCall };
    struct Op {
      std::uint64_t key;
      Kind kind;
      SimTime at;        // schedule ops only
      std::uint64_t id;  // schedule and cancel ops; 0 (no handle) for calls
      EventFn fn;        // schedule and call ops
    };

    /// Records an op under the current site's next key.
    void record(Kind kind, SimTime at, std::uint64_t id, EventFn fn) {
      ops_.push_back(Op{(site_ << 16) | sub_++, kind, at, id, std::move(fn)});
    }

    std::vector<Op> ops_;
    std::uint64_t site_{0};
    std::uint64_t sub_{0};
  };

  /// Installs `buf` as the calling thread's defer sink (nullptr closes the
  /// window for this thread). Only the slot pipeline's fork-join regions
  /// use this; everything else runs with no buffer installed and sees the
  /// plain single-threaded behavior.
  static void set_defer_buffer(DeferBuffer* buf);

  /// Applies every deferred op from `bufs[0..n)` in ascending key order:
  /// schedules enter the heap with freshly assigned seq numbers (the same
  /// values the serial execution would have assigned — no other schedule
  /// can interleave, and calls take no seq), cancels erase from the live
  /// set (leaving the heap tombstone a serial cancel would leave), and
  /// calls run, seeing exactly the ops keyed before them applied. Clears
  /// the buffers.
  void replay_deferred(DeferBuffer* bufs, std::size_t n);

  /// Runs `fn` in serial program order: at once outside a defer window,
  /// else recorded under the window's next key for replay_deferred. Hooks
  /// that update serial state (flow statistics, the engine's dirty-wake
  /// list) go through here. A deferred `fn` runs after its whole region,
  /// so it captures the values it needs rather than reading node state.
  void run_in_order(EventFn fn);

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `at`; times in the past are clamped to
  /// now (fires immediately on the next run step).
  EventHandle schedule_at(SimTime at, EventFn fn);

  /// Schedules `fn` after the given delay (>= 0).
  EventHandle schedule_after(SimDuration delay, EventFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs events until the queue drains or `until` is reached; the clock
  /// advances to `until` even if the queue drains earlier.
  void run_until(SimTime until);

  /// Runs until the event queue is empty.
  void run();

  /// Number of events executed so far (for diagnostics/benchmarks).
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  /// Number of events currently pending (scheduled, not fired, not
  /// cancelled).
  [[nodiscard]] std::size_t pending_events() const { return live_.size(); }

  /// True if a live event is queued for exactly time `t`. Used by the slot
  /// engine to decide whether it must yield to same-instant events to keep
  /// FIFO order identical to the polled loop. Lazily discards cancelled
  /// tombstones from the top of the heap (observable behaviour unchanged —
  /// run_until skips them anyway).
  [[nodiscard]] bool has_pending_at(SimTime t);

 private:
  friend class EventHandle;

  struct Event {
    SimTime at;
    std::uint64_t seq;
    std::uint64_t id;
    EventFn fn;
  };

  /// True if `a` fires strictly before `b`.
  static bool fires_before(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Removes and returns the earliest event (heap must be non-empty).
  Event pop_min();

  SimTime now_{};
  std::uint64_t next_seq_{0};
  // Atomic so deferred schedules can mint ids inside parallel regions; the
  // *values* handed out may then depend on thread interleaving, which is
  // fine — ids are opaque (never ordered or iterated), only seq orders ties.
  std::atomic<std::uint64_t> next_id_{1};
  std::uint64_t events_executed_{0};
  // Binary min-heap ordered by fires_before.
  std::vector<Event> heap_;
  // Ids of events that are queued and neither fired nor cancelled.
  std::unordered_set<std::uint64_t> live_;
  // Reused by replay_deferred (pointers into the shard buffers).
  std::vector<DeferBuffer::Op*> replay_scratch_;
};

/// Repeating timer built on the simulator; fires every `period` until
/// stopped. Restartable. Non-copyable (the callback captures `this`).
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, SimDuration period, EventFn fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {}
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Starts (or restarts) the timer; first firing after one period.
  void start();
  void stop() { handle_.cancel(); }
  [[nodiscard]] bool running() const { return handle_.pending(); }

  void set_period(SimDuration period) { period_ = period; }
  [[nodiscard]] SimDuration period() const { return period_; }

 private:
  void fire();

  Simulator& sim_;
  SimDuration period_;
  EventFn fn_;
  EventHandle handle_;
};

}  // namespace digs
