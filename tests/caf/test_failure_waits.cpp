// Failure declarations end the CAF runtime's failure-aware waits through the
// Domain wait (fabric::Domain::end_wait), not through values written into
// the symmetric heap: while the failure hooks run, no survivor's segment
// changes; every statement parked on the dead image still reports it, in
// the same events as before; and a wait of any comparison ends.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "caf_test_util.hpp"
#include "net/fault.hpp"
#include "sim/engine.hpp"

namespace caf {
/// Test access to the runtime's failure-aware wait.
struct RuntimeTestPeer {
  static void wait_fault(Runtime& rt, std::uint64_t off, Cmp cmp,
                         std::int64_t value) {
    rt.wait_fault(off, cmp, value);
  }
};
}  // namespace caf

using caftest::Harness;
using caftest::Stack;

namespace {

constexpr int kImages = 11;
constexpr int kVictim = 11;  // 1-based
/// The victim starts enqueueing on image 10's lock at kEnqueueAt and is
/// killed between its queue-record put and its link put into image 10's
/// qnode; every other survivor is parked by then.
constexpr sim::Time kEnqueueAt = 600'000;
constexpr sim::Time kKillAt = 600'625;

/// What the scenario below leaves behind.
struct Outcome {
  std::vector<int> stat = std::vector<int>(kImages + 1, -1);  ///< by image
  std::vector<bool> parked = std::vector<bool>(kImages + 1);  ///< at the
                                                              ///< declaration
  std::vector<std::string> changed;  ///< survivors whose segment the hooks
                                     ///< wrote, with the first changed offset
  int hooks_run = 0;
  std::uint64_t digest = 14695981039346656037ull;  ///< (image, stat, clock)
  std::size_t events = 0;
  std::string stall;  ///< the stall report's failed-partner line
};

void fold(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
}

/// Image 11 holds a robust lock, enqueues on a second one and is killed
/// before it links itself in. Every other image is parked on it in a
/// different statement when the failure detector declares it:
///   1  waits on an RPC future the victim never serves;
///   2  waits for the lock behind the victim (mcs_lock's wait);
///   3  event_wait_stat on an event only the victim would post;
///   4  rpc_ff into a full ring the victim never drains (backpressure);
///   5, 6  co_sum_team over {5, 6, 11};
///   7  sync_images_stat on the victim;
///   8  plain sync_images on the victim (stalls once it is declared);
///   9  sync_images_stat on image 8, a live partner that never arrives:
///      the declaration must leave this wait running (it stalls too);
///  10  unlocks its lock, on which the victim enqueued behind it, and waits
///      for the victim's link (mcs_unlock's wait).
/// A failure hook registered before the runtime's copies every survivor's
/// segment; one registered after it compares.
Outcome run_parked_survivors() {
  net::FaultPlan plan;
  plan.with_seed(0xE9D5).kill_pe(kVictim - 1, kKillAt);
  caf::Options opts;
  opts.rpc.enabled = true;
  opts.rpc.slots_per_pair = 2;
  Harness h(Stack::kShmemCray, kImages, opts, 1 << 20, plan);
  static_assert(kImages <= 24, "one XC30 node: no wire faults in the way");
  sim::Engine& eng = h.engine();
  Outcome out;
  std::vector<bool> inside(kImages + 1);
  std::vector<std::vector<std::byte>> before(kImages + 1);
  auto survivor = [&](int image) {
    return image != kVictim && !eng.pe_declared(image - 1);
  };
  eng.on_pe_failure([&](const sim::PeFailure&) {
    caf::Conduit& c = h.rt().conduit();
    for (int i = 1; i <= kImages; ++i) {
      out.parked[static_cast<std::size_t>(i)] = inside[i];
      if (!survivor(i)) continue;
      const std::byte* seg = c.segment(i - 1);
      before[static_cast<std::size_t>(i)].assign(seg, seg + c.segment_bytes());
    }
  });
  bool after_registered = false;
  try {
    h.run([&] {
      auto& rt = h.rt();
      const int me = rt.this_image();
      if (!after_registered) {
        // The runtime registered its own hook in init(): this one runs
        // after it.
        after_registered = true;
        eng.on_pe_failure([&](const sim::PeFailure&) {
          ++out.hooks_run;
          caf::Conduit& c = h.rt().conduit();
          for (int i = 1; i <= kImages; ++i) {
            if (!survivor(i)) continue;
            const std::byte* seg = c.segment(i - 1);
            const auto& b = before[static_cast<std::size_t>(i)];
            for (std::size_t k = 0; k < b.size(); ++k) {
              if (seg[k] != b[k]) {
                out.changed.push_back("image " + std::to_string(i) +
                                      " at offset " + std::to_string(k));
                break;
              }
            }
          }
        });
      }
      const caf::CoLock lck = rt.make_lock();
      const caf::CoLock handoff = rt.make_lock();
      const caf::CoEvent ev = rt.make_event();
      rt.sync_all();
      if (me == kVictim) {
        EXPECT_EQ(rt.lock_stat(lck, 1), caf::kStatOk);
        eng.advance_to(kEnqueueAt);
        (void)rt.lock_stat(handoff, 10);
        ADD_FAILURE() << "the victim got image 10's lock";
        for (;;) eng.advance(50'000);
      }
      if (me == 10) {
        EXPECT_EQ(rt.lock_stat(handoff, 10), caf::kStatOk);
      }
      eng.advance_to(200'000);  // the victim holds the lock by now
      if (me == 10) eng.advance_to(kEnqueueAt + 1'000);
      inside[me] = true;
      int st = caf::kStatOk;
      switch (me) {
        case 1:
          st = caf::rpc(rt, kVictim, [](std::int64_t x) { return x + 1; },
                        std::int64_t{1})
                   .wait();
          break;
        case 2:
          st = rt.lock_stat(lck, 1);
          EXPECT_TRUE(rt.holds_lock(lck, 1));
          break;
        case 3:
          st = rt.event_wait_stat(ev, 1);
          break;
        case 4:
          for (int k = 0; k < 3; ++k) {
            caf::rpc_ff(rt, kVictim, [](std::int64_t) {}, std::int64_t{k});
          }
          st = rt.image_status(kVictim);
          break;
        case 5:
        case 6: {
          const caf::Team team{{5, 6, kVictim}};
          std::int64_t x = me;
          st = rt.co_sum_team(team, &x, 1);
          EXPECT_EQ(x, 11);
          break;
        }
        case 7: {
          const int partner[] = {kVictim};
          st = rt.sync_images_stat(partner);
          break;
        }
        case 8: {
          const int partner[] = {kVictim};
          rt.sync_images(partner);
          break;
        }
        case 9: {
          const int partner[] = {8};
          st = rt.sync_images_stat(partner);
          break;
        }
        case 10:
          st = rt.unlock_stat(handoff, 10);
          break;
        default:
          break;
      }
      inside[me] = false;
      out.stat[static_cast<std::size_t>(me)] = st;
      fold(out.digest, static_cast<std::uint64_t>(me));
      fold(out.digest, static_cast<std::uint64_t>(st));
      fold(out.digest, static_cast<std::uint64_t>(eng.now()));
    });
    ADD_FAILURE() << "images 8 and 9 must stall";
  } catch (const sim::FailedImageError& e) {
    const std::string what = e.what();
    const std::size_t at = what.find("sync images (failed partner)");
    if (at != std::string::npos) {
      const std::size_t from = what.rfind('\n', at) + 1;
      out.stall = what.substr(from, what.find('\n', at) - from);
    }
  }
  out.events = eng.events_processed();
  return out;
}

TEST(FailureWaits, DeclarationWritesNoSurvivorMemory) {
  const Outcome o = run_parked_survivors();
  EXPECT_EQ(o.hooks_run, 1);
  for (int i = 1; i < kVictim; ++i) {
    EXPECT_TRUE(o.parked[static_cast<std::size_t>(i)])
        << "image " << i << " was not parked when the victim was declared";
  }
  EXPECT_TRUE(o.changed.empty())
      << "the failure hooks wrote into " << o.changed.size()
      << " survivors' segments, first " << o.changed.front();
}

// Ending waits through the Domain must resume each fiber in the event a
// write into its watched word would: every statement's stat, the virtual
// time each image leaves it (folded into the digest), the event count and
// the stall report's line are pinned.
TEST(FailureWaits, EndedWaitsReturnAtTheSameEvents) {
  const Outcome o = run_parked_survivors();
  EXPECT_EQ(o.stat[1], caf::kStatFailedImage);   // RPC future
  EXPECT_EQ(o.stat[2], caf::kStatFailedImage);   // lock reclaimed
  EXPECT_EQ(o.stat[3], caf::kStatFailedImage);   // event_wait_stat
  EXPECT_EQ(o.stat[4], caf::kStatFailedImage);   // backpressured rpc_ff
  EXPECT_EQ(o.stat[5], caf::kStatFailedImage);   // co_sum_team
  EXPECT_EQ(o.stat[6], caf::kStatFailedImage);
  EXPECT_EQ(o.stat[7], caf::kStatFailedImage);   // sync_images_stat
  EXPECT_EQ(o.stat[8], -1);                      // stalled
  EXPECT_EQ(o.stat[9], -1);                      // stalled on image 8
  EXPECT_EQ(o.stat[10], caf::kStatOk);           // unlock repaired the queue
  EXPECT_EQ(o.digest, 2036781740535811875u);
  EXPECT_EQ(o.events, 2567u);
  EXPECT_EQ(o.stall,
            "  [pe 7] clock=1.050 ms blocked in sync images (failed partner) "
            "(peer pe 10, FAILED)");
}

// A failure-aware wait of any comparison ends on a declaration: the cell's
// value plays no part in ending it.
TEST(FailureWaits, AnyComparisonEndsOnDeclaration) {
  net::FaultPlan plan;
  plan.kill_pe(2, 500'000);  // image 3
  Harness h(Stack::kShmemCray, 3, {}, 1 << 20, plan);
  std::vector<sim::Time> ended;
  h.run([&] {
    auto& rt = h.rt();
    const std::uint64_t off = rt.allocate_coarray_bytes(16);
    const std::int64_t init[2] = {0, 100};
    std::memcpy(rt.local_addr(off), init, sizeof init);
    rt.sync_all();
    switch (rt.this_image()) {
      case 1:
        caf::RuntimeTestPeer::wait_fault(rt, off, caf::Cmp::kEq, 42);
        break;
      case 2:
        caf::RuntimeTestPeer::wait_fault(rt, off + 8, caf::Cmp::kLt, 5);
        break;
      default:
        for (;;) h.engine().advance(50'000);
    }
    ended.push_back(h.engine().now());
    // Nothing was written into the cells.
    std::int64_t now[2];
    std::memcpy(now, rt.local_addr(off), sizeof now);
    EXPECT_EQ(now[0], 0);
    EXPECT_EQ(now[1], 100);
  });
  ASSERT_EQ(ended.size(), 2u);
  const sim::Time declared = h.engine().declared_failures().at(0).at;
  EXPECT_EQ(ended[0], declared);
  EXPECT_EQ(ended[1], declared);
}

}  // namespace
