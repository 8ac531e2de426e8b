// Unit tests for sim::CalendarQueue, the engine's two-level timing wheel:
// a seeded differential test against a reference std::priority_queue over
// (t, seq), targeted cases for each of the wheel's paths (level 0, level 1,
// the drain FIFO, the side heap, the far heap), and an engine-level test
// that pins the side-heap path through reserve_seq.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"

using namespace sim;

namespace {

constexpr Time kBlock = Time{1} << 12;       // one level-0 block, in ns
constexpr Time kHorizon = kBlock * kBlock;   // level 1's reach, in ns

// Drives a CalendarQueue and a reference priority queue with the same
// pushes and checks every pop against the reference. Like the engine, it
// never pushes a time below the last pop's.
class Differential {
 public:
  void push(Time t, std::uint64_t seq) {
    ASSERT_GE(t, now_) << "harness pushed into the past";
    EventNode* n = pool_.acquire();
    n->t = t;
    n->seq = seq;
    n->kind = EventNode::Kind::kRawCall;
    q_.push(n);
    ref_.emplace(t, seq);
  }
  void push(Time t) { push(t, next_seq_++); }
  std::uint64_t reserve() { return next_seq_++; }

  /// Pops one node and compares it with the reference; false when both
  /// are empty or on the first mismatch.
  bool pop() {
    EventNode* n = q_.pop();
    if (ref_.empty()) {
      if (n != nullptr) fail(n, "queue popped past the reference's end");
      return false;
    }
    if (n == nullptr) {
      fail(nullptr, "queue ran dry before the reference");
      return false;
    }
    const auto want = ref_.top();
    ref_.pop();
    if (n->t != want.first || n->seq != want.second) {
      std::ostringstream os;
      os << "want (" << want.first << ", " << want.second << ")";
      fail(n, os.str());
      return false;
    }
    now_ = n->t;
    ++pops_;
    pool_.release(n);
    return true;
  }
  void drain() {
    while (pop()) {
    }
  }

  Time now() const { return now_; }
  std::size_t size() const { return ref_.size(); }
  std::uint64_t pops() const { return pops_; }
  const std::string& error() const { return error_; }
  bool queue_matches_size() const { return q_.size() == ref_.size(); }

 private:
  void fail(const EventNode* n, const std::string& why) {
    if (!error_.empty()) return;
    std::ostringstream os;
    os << "pop " << pops_ << ": ";
    if (n != nullptr) os << "got (" << n->t << ", " << n->seq << "), ";
    os << why;
    error_ = os.str();
  }

  using Key = std::pair<Time, std::uint64_t>;
  EventPool pool_;
  CalendarQueue q_;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> ref_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t pops_ = 0;
  Time now_ = 0;
  std::string error_;
};

TEST(EventQueue, SameNanosecondBurstWithMidDrainFollowUps) {
  Differential d;
  for (int i = 0; i < 4096; ++i) d.push(777);
  // Every pop schedules a same-time follow-up for the first half of the
  // burst, and a send 150 ns later.
  for (int i = 0; i < 6000 && d.pop(); ++i) {
    if (i < 2048) d.push(d.now());
    d.push(d.now() + 150);
  }
  d.drain();
  EXPECT_EQ(d.error(), "");
  EXPECT_EQ(d.pops(), 4096u + 2048u + 6000u);
}

TEST(EventQueue, OlderSeqsAtBusyAndIdleNanoseconds) {
  Differential d;
  const std::uint64_t r1 = d.reserve();
  const std::uint64_t r2 = d.reserve();
  const std::uint64_t r3 = d.reserve();
  const std::uint64_t r4 = d.reserve();
  for (int i = 0; i < 8; ++i) d.push(100);
  d.push(100, r1);  // below the slot's newest: the side heap
  d.push(300, r2);  // idle nanosecond: an ordinary slot
  d.push(300);
  ASSERT_TRUE(d.pop());
  ASSERT_TRUE(d.pop());
  d.push(100, r3);  // at the drain time, below the FIFO's tail
  d.push(100);      // at the drain time, above it: appended
  d.push(kBlock + 5);
  d.push(kBlock + 5, r4);  // below a level-1 block's newest, cascaded
  d.drain();
  EXPECT_EQ(d.error(), "");
  EXPECT_EQ(d.pops(), 15u);
}

TEST(EventQueue, BlockAndRingBoundaries) {
  Differential d;
  d.push(0);
  ASSERT_TRUE(d.pop());
  // Both sides of the level-0 block edge, the last block level 1 holds,
  // the first block past it, and far beyond.
  for (Time t : {kBlock - 1, kBlock, kBlock + 1, 2 * kBlock - 1,
                 (kBlock - 1) * kBlock, (kBlock - 1) * kBlock + kBlock - 1,
                 kHorizon, kHorizon + 1, 3 * kHorizon + 17}) {
    d.push(t);
    d.push(t);
  }
  // Walk the cursor through the blocks one at a time so that level 1's
  // ring indices wrap around.
  for (int i = 0; i < 4 * kBlock && d.pop(); ++i) {
    d.push(d.now() + 3 * kBlock);
    if (i % 7 == 0) d.push(d.now() + kBlock * (kBlock - 1));
  }
  d.drain();
  EXPECT_EQ(d.error(), "");
  EXPECT_TRUE(d.queue_matches_size());
}

TEST(EventQueue, DryWheelJumpsToFarHeap) {
  Differential d;
  const std::uint64_t older = d.reserve();
  d.push(5);
  d.push(Time{1} << 40);
  d.push(Time{1} << 40, older);
  ASSERT_TRUE(d.pop());
  // The wheel is now empty; the next pop must jump the cursor, and pushes
  // at and just after the new time must order around the far events.
  ASSERT_TRUE(d.pop());
  d.push(d.now());
  d.push(d.now() + 1);
  d.push(d.now() + 3 * kHorizon);
  d.drain();
  EXPECT_EQ(d.error(), "");
  EXPECT_EQ(d.pops(), 6u);
}

// The seeded mix: bursts of 2,048 or more pushes at one nanosecond,
// same-time follow-ups in the middle of a drain, older reserved seqs at busy
// and idle nanoseconds, events past level 0 and past level 1, dry wheels that
// must jump to the far heap, and pushes on block and ring boundaries.
TEST(EventQueue, DifferentialAgainstPriorityQueue) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Differential d;
    std::vector<std::uint64_t> reserved;
    for (int step = 0; step < 400 && d.error().empty(); ++step) {
      const Time now = d.now();
      switch (rng.below(8)) {
        case 0: {  // a burst at one nanosecond, now or a little later
          const Time t = now + (rng.below(2) == 0 ? 0 : Time(rng.below(300)));
          const int n = 2048 + static_cast<int>(rng.below(1024));
          for (int i = 0; i < n; ++i) d.push(t);
          break;
        }
        case 1:  // a dissemination round: follow-ups and sends mid-drain
          for (int i = 0, n = static_cast<int>(rng.below(3000)); i < n; ++i) {
            if (!d.pop()) break;
            if (rng.below(2) == 0) d.push(d.now());
            if (rng.below(2) == 0) d.push(d.now() + 140 + Time(rng.below(20)));
          }
          break;
        case 2:  // reserve seqs now, schedule them later
          for (int i = 0; i < 8; ++i) reserved.push_back(d.reserve());
          break;
        case 3:  // replay reserved seqs at busy or idle nanoseconds
          while (!reserved.empty()) {
            const std::uint64_t s = reserved.back();
            reserved.pop_back();
            switch (rng.below(3)) {
              case 0: d.push(now, s); break;
              case 1: d.push(now + Time(rng.below(64)), s); break;
              default: d.push(now + Time(rng.below(kHorizon)), s); break;
            }
          }
          break;
        case 4:  // past level 0, past level 1, far past both
          for (int i = 0; i < 64; ++i) {
            d.push(now + kBlock + Time(rng.below(kBlock * 16)));
            d.push(now + kHorizon + Time(rng.below(kHorizon)));
            if (i % 16 == 0) d.push(now + (Time{1} << 36) + Time(i));
          }
          break;
        case 5: {  // block edges and the level-1 ring's wrap point
          const Time base = (now / kBlock + 1) * kBlock;
          for (Time off : {Time{-1}, Time{0}, Time{1}}) {
            d.push(base + off);
            d.push(base + (kBlock - 1) * kBlock + off);
            d.push(base + kHorizon + off);
          }
          break;
        }
        case 6:  // empty the wheel, then leave only far events behind
          if (rng.below(4) == 0) {
            d.drain();
            d.push(d.now() + kHorizon * (1 + Time(rng.below(8))));
            d.push(d.now() + kHorizon * 9);
          }
          break;
        default:  // plain pops
          for (int i = 0, n = static_cast<int>(rng.below(500)); i < n; ++i) {
            if (!d.pop()) break;
          }
          break;
      }
    }
    for (std::uint64_t s : reserved) d.push(d.now(), s);
    d.drain();
    EXPECT_EQ(d.error(), "");
    EXPECT_EQ(d.size(), 0u);
    EXPECT_GT(d.pops(), 100'000u);
  }
}

// ---- engine level ----

struct Log {
  std::vector<char> order;
};

void record(void* ctx, std::uint64_t tag, std::uint64_t) {
  static_cast<Log*>(ctx)->order.push_back(static_cast<char>(tag));
}

// One event schedules, at a single later nanosecond, two ordinary events and
// then one under a seq it reserved first: the reserved one sorts below the
// slot's newest, takes the side heap, and must still run first. The same
// again at the drain time itself, below the drain FIFO's tail.
TEST(EventQueue, EngineReservedSeqRunsBeforeLaterSeqsAtOneTime) {
  struct Ctx {
    Engine eng;
    Log log;
  } c;
  c.eng.schedule_raw(
      10,
      [](void* p, std::uint64_t, std::uint64_t) {
        auto* x = static_cast<Ctx*>(p);
        const std::uint64_t r500 = x->eng.reserve_seq();
        const std::uint64_t r10 = x->eng.reserve_seq();
        x->eng.schedule_raw(500, &record, &x->log, 'A');
        x->eng.schedule_raw(500, &record, &x->log, 'B');
        x->eng.schedule_raw_reserved(500, r500, &record, &x->log, 'R');
        x->eng.schedule_raw(10, &record, &x->log, 'C');
        x->eng.schedule_raw_reserved(10, r10, &record, &x->log, 'S');
      },
      &c);
  c.eng.run();
  EXPECT_EQ(std::string(c.log.order.begin(), c.log.order.end()), "SCRAB");
  EXPECT_EQ(c.eng.events_processed(), 6u);
}

}  // namespace
