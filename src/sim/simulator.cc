#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace digs {

namespace {

// The calling thread's open defer window, if any. Thread-local (not
// per-Simulator): a thread runs at most one simulation at a time, and the
// window only spans one fork-join region of one slot.
thread_local Simulator::DeferBuffer* t_defer = nullptr;

}  // namespace

void Simulator::set_defer_buffer(DeferBuffer* buf) { t_defer = buf; }

bool EventHandle::pending() const {
  if (sim_ == nullptr) return false;
  if (Simulator::DeferBuffer* buf = t_defer; buf != nullptr) {
    // Events of a node live on that node's shard, so every not-yet-replayed
    // op touching this id is in *this* thread's buffer; the latest one wins.
    // (Call ops carry id 0, which no handle holds.)
    for (auto it = buf->ops_.rbegin(); it != buf->ops_.rend(); ++it) {
      if (it->id == id_) {
        return it->kind != Simulator::DeferBuffer::Kind::kCancel;
      }
    }
  }
  return sim_->live_.contains(id_);
}

void EventHandle::cancel() {
  if (sim_ != nullptr) {
    if (Simulator::DeferBuffer* buf = t_defer; buf != nullptr) {
      buf->record(Simulator::DeferBuffer::Kind::kCancel, SimTime{}, id_, {});
    } else {
      sim_->live_.erase(id_);
    }
  }
  sim_ = nullptr;
  id_ = 0;
}

EventHandle Simulator::schedule_at(SimTime at, EventFn fn) {
  if (at < now_) at = now_;
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  if (DeferBuffer* buf = t_defer; buf != nullptr) {
    buf->record(DeferBuffer::Kind::kSchedule, at, id, std::move(fn));
    return EventHandle{this, id};
  }
  heap_.push_back(Event{at, next_seq_++, id, std::move(fn)});
  sift_up(heap_.size() - 1);
  live_.insert(id);
  return EventHandle{this, id};
}

void Simulator::replay_deferred(DeferBuffer* bufs, std::size_t n) {
  // Gather all shards' ops and sort into serial program order. Stable so
  // same-key ops (impossible by construction, but cheap insurance) keep
  // buffer order.
  replay_scratch_.clear();
  for (std::size_t s = 0; s < n; ++s) {
    for (auto& op : bufs[s].ops_) replay_scratch_.push_back(&op);
  }
  std::stable_sort(replay_scratch_.begin(), replay_scratch_.end(),
                   [](const DeferBuffer::Op* a, const DeferBuffer::Op* b) {
                     return a->key < b->key;
                   });
  for (DeferBuffer::Op* op : replay_scratch_) {
    if (op->kind == DeferBuffer::Kind::kCall) {
      op->fn();
    } else if (op->kind == DeferBuffer::Kind::kCancel) {
      live_.erase(op->id);  // heap tombstone, exactly as a serial cancel
    } else {
      heap_.push_back(Event{op->at, next_seq_++, op->id, std::move(op->fn)});
      sift_up(heap_.size() - 1);
      live_.insert(op->id);
    }
  }
  replay_scratch_.clear();
  for (std::size_t s = 0; s < n; ++s) bufs[s].ops_.clear();
}

void Simulator::run_in_order(EventFn fn) {
  if (DeferBuffer* buf = t_defer; buf != nullptr) {
    buf->record(DeferBuffer::Kind::kCall, SimTime{}, 0, std::move(fn));
    return;
  }
  fn();
}

void Simulator::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!fires_before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Simulator::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t left = 2 * i + 1;
    if (left >= n) break;
    std::size_t best = left;
    const std::size_t right = left + 1;
    if (right < n && fires_before(heap_[right], heap_[left])) best = right;
    if (!fires_before(heap_[best], heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

Simulator::Event Simulator::pop_min() {
  Event min = std::move(heap_.front());
  heap_.front() = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return min;
}

bool Simulator::has_pending_at(SimTime t) {
  while (!heap_.empty() && !live_.contains(heap_.front().id)) {
    (void)pop_min();
  }
  return !heap_.empty() && heap_.front().at == t;
}

void Simulator::run_until(SimTime until) {
  while (!heap_.empty() && heap_.front().at <= until) {
    Event ev = pop_min();
    if (live_.erase(ev.id) == 0) continue;  // was cancelled
    now_ = ev.at;
    ++events_executed_;
    ev.fn();
  }
  if (now_ < until) now_ = until;
}

void Simulator::run() {
  while (!heap_.empty()) {
    run_until(heap_.front().at);
  }
}

void PeriodicTimer::start() {
  handle_.cancel();
  handle_ = sim_.schedule_after(period_, [this] { fire(); });
}

void PeriodicTimer::fire() {
  handle_ = sim_.schedule_after(period_, [this] { fire(); });
  fn_();
}

}  // namespace digs
