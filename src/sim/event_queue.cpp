#include "sim/event_queue.hpp"

#include <bit>

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

namespace {

// Reverses a chain in place. Chains are pushed newest first; reversed, a
// slot's chain is in ascending seq and a block's in push order.
EventNode* reverse(EventNode* n) {
  EventNode* out = nullptr;
  while (n != nullptr) {
    EventNode* next = n->next;
    n->next = out;
    out = n;
    n = next;
  }
  return out;
}

}  // namespace

EventNode* CalendarQueue::Level::take(std::int64_t i) {
  EventNode* chain = head[i];
  head[i] = nullptr;
  words[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  if (words[i >> 6] == 0) summary &= ~(std::uint64_t{1} << (i >> 6));
  return chain;
}

std::int64_t CalendarQueue::Level::next(std::int64_t from) const {
  const std::int64_t w = from >> 6;
  if (const std::uint64_t m = words[w] & (~std::uint64_t{0} << (from & 63))) {
    return (w << 6) | std::countr_zero(m);
  }
  // Words after w, else wrap around to the first occupied word.
  std::uint64_t after = w == 63 ? 0 : summary & (~std::uint64_t{0} << (w + 1));
  if (after == 0) after = summary;
  const std::int64_t first = std::countr_zero(after);
  return (first << 6) | std::countr_zero(words[first]);
}

CalendarQueue::CalendarQueue()
    : l0_(std::make_unique<Level>()), l1_(std::make_unique<Level>()) {}

void CalendarQueue::enter(std::int64_t block) {
  blk_ = block;
  while (!far_.empty() && (far_.front().t >> kBits) - blk_ < kSlots) {
    place(heap_pop(far_));
  }
}

void CalendarQueue::refill() {
  // Precondition: the drain FIFO is empty. Leaves it empty only when the
  // wheel and the far heap are, so that only the side heap holds events.
  for (;;) {
    if (l0_->summary != 0) {
      const std::int64_t i = l0_->next(0);
      now_ = (blk_ << kBits) | i;
      fifo_tail_ = l0_->take(i);
      fifo_head_ = reverse(fifo_tail_);
      return;
    }
    if (l1_->summary != 0) {
      // Cascade the next occupied block into level 0, in push order.
      const std::int64_t i = l1_->next((blk_ + 1) & kMask);
      EventNode* n = reverse(l1_->take(i));
      enter(blk_ + ((i - blk_) & kMask));
      while (n != nullptr) {
        EventNode* next = n->next;
        put0(n);
        n = next;
      }
      continue;
    }
    if (far_.empty()) return;
    // The wheel is dry: jump the cursor to the earliest far event.
    enter(far_.front().t >> kBits);
  }
}

}  // namespace sim
