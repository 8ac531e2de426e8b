// End-to-end fault-injection tests over the full CAF stack: deterministic
// replay under loss, Fortran-2018 failed-image semantics (image_status /
// sync_all(stat=) / RMA stat= variants), watchdog diagnostics, and
// symmetric-heap exhaustion reporting.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "caf_test_util.hpp"
#include "net/fault.hpp"
#include "shmem/heap.hpp"
#include "sim/engine.hpp"

using caftest::Harness;
using caftest::Stack;

namespace {

struct RunResult {
  std::size_t events = 0;
  std::uint64_t data_hash = 0;
  std::uint64_t trace_hash = 0;
  bool operator==(const RunResult&) const = default;
};

// A small ring workload under mixed loss/duplication/delay: every image
// puts into its right neighbour and reads from its left neighbour for a
// few synchronized rounds, folding what it read into an accumulator.
// cores_per_node + 2 images span two XC30 nodes, so the ring edges that
// cross the node boundary — and the barrier fan-ins — actually traverse
// the lossy wire; intra-node traffic bypasses the injector by design.
RunResult run_lossy_ring(std::uint64_t seed) {
  const int kImages =
      net::machine_profile(net::Machine::kXC30).cores_per_node + 2;
  net::FaultPlan plan;
  plan.with_seed(seed)
      .with_loss(0.02)
      .with_duplicates(0.01)
      .with_delays(0.05, 200, 2'000);
  Harness h(Stack::kShmemCray, kImages, {}, 2 << 20, plan);
  std::vector<std::int64_t> finals(kImages, 0);
  h.run([&] {
    auto& rt = h.rt();
    const int me = rt.this_image();  // 1-based
    const int n = rt.num_images();
    const std::uint64_t off = rt.allocate_coarray_bytes(32);
    std::int64_t acc = me;
    for (int round = 0; round < 8; ++round) {
      const int right = me % n + 1;
      const int left = (me + n - 2) % n + 1;
      const std::int64_t v = acc * 1'000 + round;
      rt.put_bytes(right, off + 8 * (round % 4), &v, sizeof v);
      rt.sync_all();
      std::int64_t got = 0;
      rt.get_bytes(&got, left, off + 8 * (round % 4), sizeof got);
      acc += got;
      rt.sync_all();
    }
    finals[me - 1] = acc;
  });
  RunResult r;
  r.events = h.engine().events_processed();
  r.data_hash = 14695981039346656037ull;
  for (const std::int64_t v : finals) {
    r.data_hash ^= static_cast<std::uint64_t>(v);
    r.data_hash *= 1099511628211ull;
  }
  // Guard against the test passing vacuously: if no message ever reached
  // the injector, the trace hashes compare equal for the wrong reason.
  EXPECT_GT(h.injector()->counters().judged, 0u);
  r.trace_hash = h.injector()->trace_hash();
  return r;
}

}  // namespace

TEST(FaultDeterminism, SamePlanAndSeedReplaysBitIdentically) {
  const RunResult a = run_lossy_ring(0xD5);
  const RunResult b = run_lossy_ring(0xD5);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.data_hash, b.data_hash);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
}

TEST(FaultDeterminism, DifferentSeedsProduceDifferentTraces) {
  const RunResult a = run_lossy_ring(0xD5);
  const RunResult b = run_lossy_ring(0xD6);
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

TEST(FailedImage, SurvivorsSeeStatFailedImageAndFinish) {
  net::FaultPlan plan;
  plan.kill_pe(2, 2'000'000);  // image 3 dies at 2 ms
  Harness h(Stack::kShmemCray, 4, {}, 2 << 20, plan);
  h.run([&] {
    auto& rt = h.rt();
    const int me = rt.this_image();
    const std::uint64_t off = rt.allocate_coarray_bytes(8);
    if (me == 3) {
      // Victim: spins in stat-barriers until the injector kills it.
      for (;;) {
        h.engine().advance(100'000);
        (void)rt.sync_all_stat();
      }
    }
    // Survivors run a fixed number of rounds; the kill lands mid-loop and
    // every later round must report the failure instead of hanging.
    int st = caf::kStatOk;
    for (int k = 0; k < 30; ++k) {
      h.engine().advance(100'000);
      st = rt.sync_all_stat();
    }
    EXPECT_EQ(st, caf::kStatFailedImage);
    EXPECT_EQ(rt.image_status(3), caf::kStatFailedImage);
    EXPECT_EQ(rt.image_status(me), caf::kStatOk);
    const std::vector<int> failed = rt.failed_images();
    ASSERT_EQ(failed.size(), 1u);
    EXPECT_EQ(failed[0], 3);
    std::int64_t v = 42;
    EXPECT_EQ(rt.put_bytes_stat(3, off, &v, sizeof v), caf::kStatFailedImage);
    std::int64_t g = 0;
    EXPECT_EQ(rt.get_bytes_stat(&g, 3, off, sizeof g), caf::kStatFailedImage);
    int astat = -1;
    EXPECT_EQ(rt.allocate_coarray_bytes(64, &astat), 0u);
    EXPECT_EQ(astat, caf::kStatFailedImage);
  });
  // The run itself completed: no DeadlockError escaped h.run().
  EXPECT_EQ(h.engine().failed_count(), 1);
}

// The write-combining stage + deferred quiet must not weaken failed-image
// reporting: a staged put whose target dies still surfaces as
// kStatFailedImage from the stat= variants and from sync stat= — never as
// a hang or a silent drop (this PR's aggregation tentpole, fault leg).
TEST(FailedImage, AggregationPreservesStatReporting) {
  net::FaultPlan plan;
  plan.kill_pe(2, 2'000'000);  // image 3 dies at 2 ms
  caf::Options opts;
  opts.rma.completion = caf::CompletionMode::kDeferred;
  opts.rma.write_combining = true;
  Harness h(Stack::kShmemCray, 4, opts, 2 << 20, plan);
  h.run([&] {
    auto& rt = h.rt();
    const int me = rt.this_image();
    const std::uint64_t off = rt.allocate_coarray_bytes(512);
    if (me == 3) {
      for (;;) {
        h.engine().advance(100'000);
        (void)rt.sync_all_stat();
      }
    }
    int st = caf::kStatOk;
    for (int k = 0; k < 30; ++k) {
      h.engine().advance(100'000);
      if (me == 1 && k < 10) {
        // Keep feeding small puts for the stage to combine — some flush
        // before the kill lands, some after.
        for (int i = 0; i < 8; ++i) {
          const std::int64_t v = k * 8 + i;
          (void)rt.put_bytes_stat(3, off + static_cast<std::uint64_t>(i) * 8,
                                  &v, 8);
        }
      }
      st = rt.sync_all_stat();
    }
    EXPECT_EQ(st, caf::kStatFailedImage);
    if (me == 1) {
      EXPECT_GT(rt.stats().agg_staged, 0u);
    }
    // Post-mortem stat= RMA through the pipeline: synchronous reporting.
    std::int64_t v = 42;
    EXPECT_EQ(rt.put_bytes_stat(3, off, &v, sizeof v), caf::kStatFailedImage);
    // Puts staged toward a peer that dies before the flush must not leave
    // the stage wedged: traffic to live images keeps flowing.
    if (me == 1) {
      const std::int64_t ok = 7;
      EXPECT_EQ(rt.put_bytes_stat(2, off, &ok, sizeof ok), caf::kStatOk);
    }
    (void)rt.sync_all_stat();
  });
  EXPECT_EQ(h.engine().failed_count(), 1);
}

TEST(FailedImage, WatchdogNamesStuckSurvivorAndDeadPeer) {
  net::FaultPlan plan;
  plan.kill_pe(1, 500'000);  // image 2 dies
  Harness h(Stack::kShmemCray, 2, {}, 2 << 20, plan);
  try {
    h.run([&] {
      auto& rt = h.rt();
      if (rt.this_image() == 2) {
        for (;;) h.engine().advance(50'000);
      }
      const int partner[] = {2};
      rt.sync_images(partner);  // plain (non-stat) sync: hangs on the corpse
    });
    FAIL() << "expected sim::FailedImageError";
  } catch (const sim::FailedImageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stalled after image failure"), std::string::npos)
        << what;
    EXPECT_NE(what.find("[pe 0]"), std::string::npos) << what;
    EXPECT_NE(what.find("blocked in"), std::string::npos) << what;
    EXPECT_NE(what.find("failed images: pe 1"), std::string::npos) << what;
  }
}

TEST(Watchdog, PlainDeadlockListsBlockedOps) {
  Harness h(Stack::kShmemCray, 2);
  try {
    h.run([&] {
      auto& rt = h.rt();
      if (rt.this_image() == 1) {
        const int partner[] = {2};
        rt.sync_images(partner);  // image 2 never reciprocates
      }
    });
    FAIL() << "expected sim::DeadlockError";
  } catch (const sim::FailedImageError&) {
    FAIL() << "no image failed; expected plain DeadlockError";
  } catch (const sim::DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("simulation deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("[pe 0]"), std::string::npos) << what;
    EXPECT_NE(what.find("blocked in"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Symmetric-heap exhaustion
// ---------------------------------------------------------------------------

class HeapExhaustion : public ::testing::TestWithParam<Stack> {};

INSTANTIATE_TEST_SUITE_P(Conduits, HeapExhaustion,
                         ::testing::ValuesIn(caftest::kAllStacks),
                         [](const auto& info) {
                           std::string s = caftest::to_string(info.param);
                           for (auto& c : s) {
                             if (c == '-') c = '_';
                           }
                           return s;
                         });

TEST_P(HeapExhaustion, AllocateStatReportsOutOfMemoryAndHeapSurvives) {
  Harness h(GetParam(), 2, {}, /*heap=*/2 << 20);
  h.run([&] {
    auto& rt = h.rt();
    int stat = -1;
    EXPECT_EQ(rt.allocate_coarray_bytes(8 << 20, &stat), 0u);
    EXPECT_EQ(stat, caf::kStatOutOfMemory);
    // The collective replay log stays consistent: a smaller allocation
    // still succeeds on every image afterwards.
    int stat2 = -1;
    const std::uint64_t off = rt.allocate_coarray_bytes(1'024, &stat2);
    EXPECT_EQ(stat2, caf::kStatOk);
    std::memset(rt.local_addr(off), 0, 1'024);
    rt.sync_all();
  });
}

TEST_P(HeapExhaustion, ThrowingAllocateCarriesDiagnostics) {
  Harness h(GetParam(), 2, {}, /*heap=*/2 << 20);
  h.run([&] {
    auto& rt = h.rt();
    try {
      (void)rt.allocate_coarray_bytes(8 << 20);
      ADD_FAILURE() << "expected shmem::HeapExhaustedError";
    } catch (const shmem::HeapExhaustedError& e) {
      EXPECT_EQ(e.requested(), static_cast<std::uint64_t>(8 << 20));
      const std::string what = e.what();
      EXPECT_NE(what.find("cannot allocate"), std::string::npos) << what;
      EXPECT_NE(what.find("in use"), std::string::npos) << what;
    }
    rt.sync_all();
  });
}

TEST(HeapExhaustionNonsym, ManagedSlabThrowsAndStaysUsable) {
  Harness h(Stack::kShmemCray, 2);
  h.run([&] {
    auto& rt = h.rt();
    // The managed slab defaults to 256 KiB; a 1 MiB request must fail.
    EXPECT_THROW((void)rt.nonsym_alloc(1 << 20), shmem::HeapExhaustedError);
    const caf::RemotePtr p = rt.nonsym_alloc(64);
    rt.nonsym_free(p);
    rt.sync_all();
  });
}
