// Persistent slot-synchronous worker pool for intra-trial sharding.
//
// Network runs each slot's parallel phases (plan/gather, reception resolve,
// deliver, energy, wake refresh) as fork-join regions: run(tasks, fn)
// invokes fn(0..tasks-1) across the pool's workers plus the calling thread,
// and returns only when every task finished — the per-region barrier.
// Shards write to disjoint per-node state and per-shard defer buffers, and
// all ordered merging happens on the caller after the barrier, so
// determinism never depends on scheduling.
//
// A slot fans out a handful of tasks every few hundred microseconds of
// wall time, so dispatch latency dominates: work is published with one
// release store of a generation counter, tasks are claimed with an atomic
// fetch-add, and completion is a lock-free countdown the caller spins on.
// Workers spin briefly (yielding, so oversubscribed runs stay live) before
// parking on a condvar; the caller never parks — regions are short and the
// next one follows immediately. With zero workers run() degenerates to an
// inline loop — the exact serial behavior with no synchronization.
//
// The worker count is decoupled from the shard count (DIGS_SHARD_THREADS
// vs. DIGS_SHARDS): many cell-shards can load-balance over few cores via
// the dynamic claim order, which affects wall-clock only, never results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace digs {

class ShardPool {
 public:
  /// Spawns `extra_workers` threads (the caller is the +1st worker).
  explicit ShardPool(std::size_t extra_workers);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Runs fn(0), ..., fn(tasks - 1) across the workers and the calling
  /// thread; blocks until all of them completed. Tasks are claimed
  /// dynamically (load balancing across uneven shards). fn must not call
  /// run() reentrantly. With the DIGS_PROF profiler on, the caller's wait
  /// at the completion barrier is charged to prof::kBarrierWait and worker
  /// out-of-work time to prof::kWorkerIdle.
  void run(std::size_t tasks, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  // Work descriptor, published by the release store of generation_ and read
  // by workers after their acquire load: fn_/total_ are plain because they
  // are written only before the publish and read only after it.
  const std::function<void(std::size_t)>* fn_{nullptr};
  std::size_t total_{0};
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> remaining_{0};
  // Workers that finished claiming for the current generation; run()
  // returns only when all checked out, so the next region's counter reset
  // can never race a straggler's stale claim.
  std::atomic<std::size_t> checked_out_{0};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> stop_{false};

  // Park/unpark (slow path only): a worker that spun out takes the mutex,
  // bumps sleepers_, and waits; run() only touches the mutex when a sleeper
  // might miss the generation bump.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::atomic<int> sleepers_{0};

  std::vector<std::thread> workers_;
};

}  // namespace digs
