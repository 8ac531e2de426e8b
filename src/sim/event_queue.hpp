// Zero-allocation event core for the DES engine.
//
// The engine's hot loop used to pop `std::function` closures out of a
// `std::priority_queue` — one heap allocation (often two) per scheduled
// event, and O(log n) comparator work against the full queue for every
// push/pop. At 16k simulated PEs that is the dominant host cost. This file
// replaces it with:
//
//   * EventNode — an intrusive, typed event record. There are two kinds,
//     both tagged PODs dispatched by switch: fiber resume, and a raw
//     callback (function pointer + context + two integers) that every
//     communication layer schedules through. Nothing in a node owns
//     memory, so a queued node needs no destructor.
//   * EventPool — slab allocator with a free list. Steady-state
//     scheduling recycles nodes and never touches the heap; the
//     hit/miss/slab counters let tests assert exactly that.
//   * CalendarQueue — a calendar/ladder queue: a power-of-two wheel of
//     buckets covering the near future (bucket = time >> lw_), a small
//     min-heap for the bucket currently being drained, and a sorted
//     overflow ladder (binary heap) for events beyond the wheel horizon.
//     Push and pop are O(1) amortized when events are roughly uniform in
//     time, and never worse than O(log n).
//
// Determinism: pop order is *exactly* ascending (t, seq) — identical to
// the old priority queue — regardless of how events are distributed over
// wheel/heap/ladder internally. Same program + same seed still executes
// identically, byte for byte.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace sim {

class Fiber;

/// Raw event callback: no captures, no allocation. `ctx` plus two integer
/// slots cover every scheduling site (fabric delivery streams, round trips,
/// AMs, detector sweeps/declares); per-operation state lives in a pooled
/// record the callback receives through them.
using RawFn = void (*)(void* ctx, std::uint64_t a, std::uint64_t b);

struct EventNode {
  enum class Kind : std::uint8_t {
    kFiberResume,  ///< resume u.fiber at its own clock
    kRawCall,      ///< u.raw.fn(ctx, a, b)
  };

  Time t;
  std::uint64_t seq;
  union Payload {
    Fiber* fiber;
    struct Raw {
      RawFn fn;
      void* ctx;
      std::uint64_t a;
      std::uint64_t b;
    } raw;
    EventNode* next_free;  ///< free-list link while the node is pooled
  } u;
  EventNode* next;  ///< intrusive bucket-chain link while queued in the wheel
  Kind kind;
};

/// Slab allocator for EventNodes. acquire() pops the free list (a "hit",
/// zero heap traffic); when the list is dry it bump-allocates out of the
/// current slab, touching the heap only once per kSlabNodes events. The
/// payload union is returned raw: the caller sets `kind` and the matching
/// member.
class EventPool {
 public:
  static constexpr std::size_t kSlabNodes = 512;

  EventPool() = default;
  /// Parks this pool's slabs in a thread-local cache for the next engine on
  /// this thread (benchmarks and tests construct engines in sequence; the
  /// cache saves re-faulting the slab pages every time).
  ~EventPool();

  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  EventNode* acquire() {
    if (free_ != nullptr) {
      EventNode* n = free_;
      free_ = n->u.next_free;
      ++hits_;
      return n;
    }
    if (bump_left_ == 0) grow();
    ++misses_;
    --bump_left_;
    return bump_++;
  }

  void release(EventNode* n) {
    n->u.next_free = free_;
    free_ = n;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t slab_allocs() const { return slab_allocs_; }

 private:
  friend struct EventSlabCache;
  struct Slab {
    EventNode nodes[kSlabNodes];
  };

  void grow();  // next slab: thread-local cache first, heap second

  std::vector<std::unique_ptr<Slab>> slabs_;
  EventNode* free_ = nullptr;
  EventNode* bump_ = nullptr;
  std::size_t bump_left_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t slab_allocs_ = 0;  ///< slabs that actually hit the heap
};

/// Calendar queue over EventNode*. See file comment for the structure; the
/// only contract is pop() returns nodes in ascending (t, seq) order.
class CalendarQueue {
 public:
  CalendarQueue();

  void push(EventNode* n);
  /// Smallest (t, seq) node, or nullptr when empty.
  EventNode* pop();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kInitialBuckets = 256;
  static constexpr std::size_t kMaxBuckets = 1u << 20;

  /// True when a should pop after b — min-heap comparator over (t, seq).
  static bool later(const EventNode* a, const EventNode* b) {
    if (a->t != b->t) return a->t > b->t;
    return a->seq > b->seq;
  }

  std::int64_t tick_of(Time t) const { return static_cast<std::int64_t>(t) >> lw_; }

  void insert(EventNode* n);  // push minus the resize triggers
  void refill();              // advance the cursor to the next occupied tick
  void rebuild();             // regrow the wheel / retune the bucket width

  bool wants_rebuild() const {
    // Grow when occupancy outstrips the wheel, or when the ladder holds
    // more than a wheel's worth of "far" events (the active span outgrew
    // the window and pops would churn the ladder heap).
    return buckets_.size() < kMaxBuckets &&
           (size_ > buckets_.size() * 2 || overflow_.size() > buckets_.size());
  }

  int lw_ = 6;  ///< log2 bucket width in ns; retuned by rebuild()
  /// The wheel: one intrusive LIFO chain of nodes per bucket (linked via
  /// EventNode::next). Chains are unordered; the drain heap restores the
  /// (t, seq) total order, so pop order never depends on chain layout.
  std::vector<EventNode*> buckets_;
  std::size_t mask_;
  /// Tick whose bucket is currently drained through heap_. Events at ticks
  /// <= cur_tick_ go straight to heap_; (cur_tick_, cur_tick_ + B] to the
  /// wheel; later ones to the overflow ladder.
  std::int64_t cur_tick_ = -1;
  std::vector<EventNode*> heap_;      ///< min-heap, current bucket + stragglers
  std::vector<EventNode*> overflow_;  ///< min-heap ladder beyond the horizon
  std::size_t in_wheel_ = 0;
  std::size_t size_ = 0;
};

// ---- hot-path definitions (kept in the header so the engine's scheduling
// ---- sites inline them) ----

inline void CalendarQueue::insert(EventNode* n) {
  const std::int64_t tk = tick_of(n->t);
  if (tk - cur_tick_ <= static_cast<std::int64_t>(buckets_.size())) {
    if (tk <= cur_tick_) {
      // At or behind the drain cursor (same-time follow-up events the
      // engine clamped to sim_now): merge into the current min-heap.
      heap_.push_back(n);
      std::push_heap(heap_.begin(), heap_.end(), &later);
    } else {
      EventNode*& head = buckets_[static_cast<std::uint64_t>(tk) & mask_];
      n->next = head;
      head = n;
      ++in_wheel_;
    }
  } else {
    overflow_.push_back(n);
    std::push_heap(overflow_.begin(), overflow_.end(), &later);
  }
}

inline void CalendarQueue::push(EventNode* n) {
  ++size_;
  insert(n);
  if (wants_rebuild()) rebuild();
}

inline EventNode* CalendarQueue::pop() {
  if (heap_.empty()) {
    if (size_ == 0) return nullptr;
    refill();
  }
  --size_;
  if (heap_.size() == 1) {
    EventNode* n = heap_.front();
    heap_.clear();
    return n;
  }
  std::pop_heap(heap_.begin(), heap_.end(), &later);
  EventNode* n = heap_.back();
  heap_.pop_back();
  return n;
}

}  // namespace sim
