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
//   * CalendarQueue — a two-level hashed and hierarchical timing wheel
//     (Varghese & Lauck, SOSP '87) with fixed sizes. Level 0 has one slot
//     per nanosecond of the current aligned 2^12-ns block; level 1 has one
//     chain per block for the next 2^12 blocks and cascades a block into
//     level 0 when the cursor enters it. The nanosecond being drained sits
//     in a FIFO that same-time follow-ups append to in O(1). Two small
//     heaps take the rest: the side heap, pushes whose seq is below their
//     slot's newest (older seqs taken with Engine::reserve_seq), and the
//     far heap, events beyond level 1. Simulated synchronization schedules
//     bursts of events at one nanosecond in ascending seq; a slot chain
//     keeps them in pop order at the cost of one seq comparison a push.
//
// Determinism: pop order is *exactly* ascending (t, seq) — identical to
// the old priority queue — regardless of how events are distributed over
// wheel, FIFO and heaps internally. Same program + same seed still executes
// identically, byte for byte.
#pragma once

#include <algorithm>
#include <cassert>
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
  EventNode* next;  ///< intrusive link while queued in a wheel slot or block
                    ///< chain, or in the drain FIFO
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

/// Two-level timing wheel over EventNode*. See the file comment for the
/// structure; the only contract is that pop() returns nodes in ascending
/// (t, seq) order. The engine pushes no t below the last pop's (it clamps to
/// sim_now); such a push would still pop in order, through the side heap.
class CalendarQueue {
 public:
  CalendarQueue();

  void push(EventNode* n);
  /// Smallest (t, seq) node, or nullptr when empty.
  EventNode* pop();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

 private:
  static constexpr int kBits = 12;
  static constexpr std::int64_t kSlots = std::int64_t{1} << kBits;
  static constexpr std::int64_t kMask = kSlots - 1;

  /// One wheel level: a chain head per slot (linked via EventNode::next)
  /// and a two-level occupancy bitmap, so finding the next occupied slot is
  /// two count-trailing-zeros.
  struct Level {
    EventNode* head[kSlots];
    std::uint64_t words[kSlots / 64];
    std::uint64_t summary;

    void link(std::int64_t i, EventNode* n) {
      n->next = head[i];
      head[i] = n;
      words[i >> 6] |= std::uint64_t{1} << (i & 63);
      summary |= std::uint64_t{1} << (i >> 6);
    }
    EventNode* take(std::int64_t i);
    /// First occupied slot at or after `from`, wrapping around; the level
    /// must not be empty.
    std::int64_t next(std::int64_t from) const;
  };

  /// Heap entry: the key inline, so sifting never touches a node.
  struct Key {
    Time t;
    std::uint64_t seq;
    EventNode* n;
  };
  /// True when a should pop after b — min-heap comparator over (t, seq).
  static bool later(const Key& a, const Key& b) {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }
  static void heap_push(std::vector<Key>& h, EventNode* n) {
    h.push_back(Key{n->t, n->seq, n});
    std::push_heap(h.begin(), h.end(), &later);
  }
  static EventNode* heap_pop(std::vector<Key>& h) {
    std::pop_heap(h.begin(), h.end(), &later);
    EventNode* n = h.back().n;
    h.pop_back();
    return n;
  }

  void place(EventNode* n);  // push minus the drain-FIFO append
  void put0(EventNode* n);   // into a level-0 slot, or the side heap
  void enter(std::int64_t block);  // move the cursor, pull in far events
  void refill();  // load the next occupied nanosecond into the drain FIFO

  std::unique_ptr<Level> l0_;  ///< nanoseconds of block blk_
  std::unique_ptr<Level> l1_;  ///< blocks (blk_, blk_ + kSlots), by block
  std::int64_t blk_ = 0;       ///< the block level 0 covers
  Time now_ = -1;              ///< the nanosecond in the drain FIFO
  /// Nodes at now_ in ascending seq, linked via EventNode::next.
  EventNode* fifo_head_ = nullptr;
  EventNode* fifo_tail_ = nullptr;
  std::vector<Key> side_;  ///< pushes below their slot's or FIFO's newest seq
  std::vector<Key> far_;   ///< events beyond level 1
  std::size_t size_ = 0;
};

// ---- hot-path definitions (kept in the header so the engine's scheduling
// ---- sites inline them) ----

inline void CalendarQueue::put0(EventNode* n) {
  const std::int64_t i = n->t & kMask;
  const EventNode* newest = l0_->head[i];
  if (newest != nullptr && n->seq < newest->seq) {
    heap_push(side_, n);
  } else {
    l0_->link(i, n);
  }
}

inline void CalendarQueue::place(EventNode* n) {
  if (n->t <= now_) {
    heap_push(side_, n);
    return;
  }
  const std::int64_t b = n->t >> kBits;
  assert(b >= blk_);
  if (b == blk_) {
    put0(n);
  } else if (b - blk_ < kSlots) {
    l1_->link(b & kMask, n);
  } else {
    heap_push(far_, n);
  }
}

inline void CalendarQueue::push(EventNode* n) {
  ++size_;
  // A same-time follow-up of the nanosecond being drained: O(1) append.
  if (n->t == now_ && (fifo_tail_ == nullptr || n->seq > fifo_tail_->seq)) {
    n->next = nullptr;
    (fifo_tail_ != nullptr ? fifo_tail_->next : fifo_head_) = n;
    fifo_tail_ = n;
    return;
  }
  place(n);
}

inline EventNode* CalendarQueue::pop() {
  if (fifo_head_ == nullptr) {
    if (size_ == 0) return nullptr;
    refill();
  }
  --size_;
  EventNode* n = fifo_head_;
  if (!side_.empty() &&
      (n == nullptr || later(Key{n->t, n->seq, n}, side_.front()))) {
    return heap_pop(side_);
  }
  fifo_head_ = n->next;
  if (fifo_head_ == nullptr) fifo_tail_ = nullptr;
  return n;
}

}  // namespace sim
