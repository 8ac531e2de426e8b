#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace sim {

// Orphaned slabs from destroyed engines, kept warm for the next EventPool
// on this thread. Everything is single-threaded by design (see engine.hpp),
// so a plain thread_local vector suffices.
struct EventSlabCache {
  std::vector<std::unique_ptr<EventPool::Slab>> spare;

  static EventSlabCache& instance() {
    thread_local EventSlabCache cache;
    return cache;
  }
};

EventPool::~EventPool() {
  auto& cache = EventSlabCache::instance().spare;
  for (auto& slab : slabs_) cache.push_back(std::move(slab));
}

void EventPool::grow() {
  auto& cache = EventSlabCache::instance().spare;
  if (!cache.empty()) {
    slabs_.push_back(std::move(cache.back()));
    cache.pop_back();
  } else {
    // for_overwrite: nodes are fully written at acquire; value-init would
    // memset every slab for nothing.
    slabs_.push_back(std::make_unique_for_overwrite<Slab>());
    ++slab_allocs_;
  }
  bump_ = slabs_.back()->nodes;
  bump_left_ = kSlabNodes;
}

CalendarQueue::CalendarQueue()
    : buckets_(kInitialBuckets, nullptr), mask_(kInitialBuckets - 1) {}

void CalendarQueue::refill() {
  // Precondition: heap_ empty, size_ > 0 (so wheel and/or ladder has work).
  if (in_wheel_ == 0) {
    // Wheel is dry: jump the cursor to just before the earliest ladder
    // event instead of sweeping empty ticks. The cursor only moves forward:
    // ladder events were beyond the horizon when inserted, and the scan
    // below never passes an occupied tick.
    assert(!overflow_.empty());
    cur_tick_ = tick_of(overflow_.front()->t) - 1;
  }
  // Events whose ticks now fall inside the window migrate ladder -> wheel.
  const std::int64_t window_end =
      cur_tick_ + static_cast<std::int64_t>(buckets_.size());
  while (!overflow_.empty() && tick_of(overflow_.front()->t) <= window_end) {
    std::pop_heap(overflow_.begin(), overflow_.end(), &later);
    EventNode* n = overflow_.back();
    overflow_.pop_back();
    EventNode*& head =
        buckets_[static_cast<std::uint64_t>(tick_of(n->t)) & mask_];
    n->next = head;
    head = n;
    ++in_wheel_;
  }
  // Advance to the next occupied bucket; guaranteed within one window.
  for (;;) {
    ++cur_tick_;
    EventNode*& head = buckets_[static_cast<std::uint64_t>(cur_tick_) & mask_];
    if (head != nullptr) {
      for (EventNode* n = head; n != nullptr; n = n->next) {
        heap_.push_back(n);
        --in_wheel_;
      }
      head = nullptr;
      std::make_heap(heap_.begin(), heap_.end(), &later);
      return;
    }
  }
}

void CalendarQueue::rebuild() {
  std::vector<EventNode*> all;
  all.reserve(size_);
  all.insert(all.end(), heap_.begin(), heap_.end());
  all.insert(all.end(), overflow_.begin(), overflow_.end());
  for (EventNode* head : buckets_) {
    for (EventNode* n = head; n != nullptr; n = n->next) all.push_back(n);
  }
  heap_.clear();
  overflow_.clear();
  in_wheel_ = 0;

  Time min_t = all.front()->t;
  Time max_t = min_t;
  for (const EventNode* n : all) {
    min_t = std::min(min_t, n->t);
    max_t = std::max(max_t, n->t);
  }
  // Retune the bucket width to ~4x the mean inter-event gap — a handful of
  // events per tick amortizes the per-tick refill work without making the
  // drain heap deep — and grow the wheel to cover the whole active span,
  // so the steady-state ladder holds only genuinely far-future stragglers.
  const std::uint64_t span = static_cast<std::uint64_t>(max_t - min_t);
  const std::uint64_t gap = span / all.size();
  lw_ = std::min(40, static_cast<int>(std::bit_width(gap | 1)) + 1);
  const std::size_t span_ticks = static_cast<std::size_t>(span >> lw_);
  const std::size_t want = std::min(
      kMaxBuckets,
      std::bit_ceil(std::max({all.size(), span_ticks, kInitialBuckets})));
  buckets_.assign(want, nullptr);
  mask_ = want - 1;
  cur_tick_ = tick_of(min_t) - 1;

  size_ = all.size();
  for (EventNode* n : all) insert(n);
}

}  // namespace sim
