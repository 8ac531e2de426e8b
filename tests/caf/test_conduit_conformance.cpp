// Conduit conformance suite: exercises the raw caf::Conduit contract over
// every implementation (ShmemConduit, GasnetConduit, ArmciConduit) so that
// a new conduit can be validated against the exact semantics the runtime
// depends on, independent of the higher-level coarray machinery.
//
// Every case runs twice per conduit: once over a perfect wire, and once
// with 1% message loss injected — the reliable-delivery layer must make
// the loss invisible (same data lands, only timing differs).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <tuple>
#include <vector>

#include "caf_test_util.hpp"
#include "obs/obs.hpp"

using namespace caf;
using caftest::Harness;
using caftest::Stack;

namespace {

Conduit& conduit(Harness& h) { return h.rt().conduit(); }

class ConduitConformance
    : public ::testing::TestWithParam<std::tuple<Stack, int>> {
 protected:
  Harness make(int images) {
    const Stack stack = std::get<0>(GetParam());
    const int loss_pct = std::get<1>(GetParam());
    net::FaultPlan plan;
    if (loss_pct > 0) {
      plan.with_seed(0xC0FFEE).with_loss(loss_pct / 100.0);
    }
    return Harness(stack, images, {}, 2 << 20, plan);
  }
};

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Conduits, ConduitConformance,
    ::testing::Combine(::testing::ValuesIn(caftest::kAllStacks),
                       ::testing::Values(0, 1)),
    [](const auto& info) {
      std::string s = caftest::to_string(std::get<0>(info.param));
      for (auto& c : s) {
        if (c == '-') c = '_';
      }
      const int loss = std::get<1>(info.param);
      s += loss > 0 ? "_loss" + std::to_string(loss) + "pct" : "_clean";
      return s;
    });

TEST_P(ConduitConformance, IdentityAndSegments) {
  Harness h = make(6);
  h.run([&] {
    Conduit& c = conduit(h);
    EXPECT_EQ(c.nranks(), 6);
    EXPECT_GE(c.rank(), 0);
    EXPECT_LT(c.rank(), 6);
    EXPECT_GT(c.segment_bytes(), 0u);
    for (int r = 0; r < 6; ++r) EXPECT_NE(c.segment(r), nullptr);
  });
}

TEST_P(ConduitConformance, CollectiveAllocationIsSymmetricAndAligned) {
  Harness h = make(5);
  std::vector<std::uint64_t> offs(5);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t a = c.allocate(48);
    const std::uint64_t b = c.allocate(8);
    offs[c.rank()] = a ^ (b << 24);
    EXPECT_EQ(a % 8, 0u);
    c.deallocate(b);
    c.deallocate(a);
  });
  for (int i = 1; i < 5; ++i) EXPECT_EQ(offs[i], offs[0]);
}

TEST_P(ConduitConformance, PutHasLocalCompletionSemantics) {
  Harness h = make(4);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(64);
    c.barrier();
    if (c.rank() == 0) {
      std::int64_t v = 1234;
      c.put(1, off, &v, sizeof v, /*nbi=*/false);
      v = 0;  // source reusable immediately
      c.quiet();
    }
    c.barrier();
    if (c.rank() == 1) {
      std::int64_t got = 0;
      std::memcpy(&got, c.segment(1) + off, sizeof got);
      EXPECT_EQ(got, 1234);
    }
    c.barrier();
  });
}

TEST_P(ConduitConformance, NbiPutsCompleteAtQuiet) {
  Harness h = make(4);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(1024);
    c.barrier();
    if (c.rank() == 0) {
      std::vector<int> v(16);
      for (int i = 0; i < 16; ++i) {
        v[i] = 100 + i;
        c.put(2, off + i * 64, &v[i], sizeof(int), /*nbi=*/true);
      }
      c.quiet();
    }
    c.barrier();
    if (c.rank() == 2) {
      for (int i = 0; i < 16; ++i) {
        int got = 0;
        std::memcpy(&got, c.segment(2) + off + i * 64, sizeof got);
        EXPECT_EQ(got, 100 + i);
      }
    }
    c.barrier();
  });
}

TEST_P(ConduitConformance, GetReadsCurrentRemoteState) {
  Harness h = make(4);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(8);
    const std::int64_t mine = 5000 + c.rank();
    std::memcpy(c.segment(c.rank()) + off, &mine, sizeof mine);
    c.barrier();
    std::int64_t got = 0;
    c.get(&got, (c.rank() + 1) % 4, off, sizeof got);
    EXPECT_EQ(got, 5000 + (c.rank() + 1) % 4);
    c.barrier();
  });
}

TEST_P(ConduitConformance, StridedPutScatter) {
  Harness h = make(4);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(1024);
    std::memset(c.segment(c.rank()) + off, 0, 1024);
    c.barrier();
    if (c.rank() == 0) {
      std::vector<int> src(10);
      std::iota(src.begin(), src.end(), 700);
      c.iput(3, off, /*dst_stride=*/5, src.data(), /*src_stride=*/1,
             sizeof(int), 10);
      c.quiet();
    }
    c.barrier();
    if (c.rank() == 3) {
      for (int i = 0; i < 10; ++i) {
        int got = 0;
        std::memcpy(&got, c.segment(3) + off + i * 5 * sizeof(int), sizeof got);
        EXPECT_EQ(got, 700 + i);
      }
    }
    c.barrier();
  });
}

TEST_P(ConduitConformance, StridedGetGather) {
  Harness h = make(4);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(1024);
    auto* base = c.segment(c.rank()) + off;
    for (int i = 0; i < 32; ++i) {
      const int v = c.rank() * 100 + i;
      std::memcpy(base + i * sizeof(int), &v, sizeof v);
    }
    c.barrier();
    if (c.rank() == 1) {
      std::vector<int> dst(8, -1);
      c.iget(dst.data(), 1, 2, off, /*src_stride=*/4, sizeof(int), 8);
      for (int i = 0; i < 8; ++i) EXPECT_EQ(dst[i], 200 + 4 * i);
    }
    c.barrier();
  });
}

TEST_P(ConduitConformance, AtomicsAreLinearizable) {
  Harness h = make(8);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(16);
    std::memset(c.segment(c.rank()) + off, 0, 16);
    c.barrier();
    // fadd: fetched values must be a permutation of partial sums.
    const std::int64_t fetched = c.amo_fadd(0, off, 1);
    EXPECT_GE(fetched, 0);
    EXPECT_LT(fetched, 8);
    c.barrier();
    std::int64_t total = 0;
    std::memcpy(&total, c.segment(0) + off, sizeof total);
    EXPECT_EQ(total, 8);
    c.barrier();
    // cswap: exactly one winner from 0.
    static int winners;
    if (c.rank() == 0) winners = 0;
    c.barrier();
    if (c.amo_cswap(0, off + 8, 0, c.rank() + 1) == 0) ++winners;
    c.barrier();
    if (c.rank() == 0) {
      EXPECT_EQ(winners, 1);
    }
    // swap returns the previous value.
    if (c.rank() == 0) {
      const std::int64_t prev = c.amo_swap(1, off, -9);
      std::int64_t now = 0;
      std::memcpy(&now, c.segment(1) + off, sizeof now);
      EXPECT_EQ(now, -9);
      (void)prev;
    }
    c.barrier();
  });
}

TEST_P(ConduitConformance, BitwiseAtomics) {
  Harness h = make(2);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(8);
    std::memset(c.segment(c.rank()) + off, 0, 8);
    c.barrier();
    if (c.rank() == 0) {
      EXPECT_EQ(c.amo_for(1, off, 0b1100), 0);
      EXPECT_EQ(c.amo_fand(1, off, 0b0110), 0b1100);
      EXPECT_EQ(c.amo_fxor(1, off, 0b0011), 0b0100);
      std::int64_t v = 0;
      std::memcpy(&v, c.segment(1) + off, sizeof v);
      EXPECT_EQ(v, 0b0111);
    }
    c.barrier();
  });
}

TEST_P(ConduitConformance, WaitUntilWakesOnEveryComparison) {
  Harness h = make(2);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(8 * 6);
    std::memset(c.segment(c.rank()) + off, 0, 8 * 6);
    c.barrier();
    struct Case {
      Cmp cmp;
      std::int64_t arg;
      std::int64_t write;
    };
    const Case cases[] = {
        {Cmp::kEq, 7, 7},   {Cmp::kNe, 0, 3},  {Cmp::kGt, 10, 11},
        {Cmp::kGe, 5, 5},   {Cmp::kLt, 0, -2}, {Cmp::kLe, -5, -6},
    };
    if (c.rank() == 1) {
      for (int i = 0; i < 6; ++i) {
        h.engine().advance(5'000);
        c.put(0, off + i * 8, &cases[i].write, 8, /*nbi=*/false);
        c.quiet();
      }
    } else {
      for (int i = 0; i < 6; ++i) {
        c.wait_until(off + i * 8, cases[i].cmp, cases[i].arg);
        std::int64_t v = 0;
        std::memcpy(&v, c.segment(0) + off + i * 8, sizeof v);
        EXPECT_EQ(v, cases[i].write) << "case " << i;
      }
    }
    c.barrier();
  });
}

TEST_P(ConduitConformance, BarrierIsAFullFence) {
  Harness h = make(6);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(8);
    std::memset(c.segment(c.rank()) + off, 0, 8);
    c.barrier();
    h.engine().advance(500 * (c.rank() + 1));
    c.barrier();
    EXPECT_GE(h.engine().now(), 3'000);
  });
}

// put_scatter: every record's bytes land at its destination offset after a
// quiet, regardless of how the conduit maps the scatter (hardware scatter,
// ARMCI vector put, MPI datatype, or a loop of nbi puts).
TEST_P(ConduitConformance, PutScatterDeliversAllRecords) {
  Harness h = make(4);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(1024);
    std::memset(c.segment(c.rank()) + off, 0, 1024);
    c.barrier();
    if (c.rank() == 0) {
      constexpr int kRecs = 16;
      std::int64_t vals[kRecs];
      fabric::ScatterRec recs[kRecs];
      for (int i = 0; i < kRecs; ++i) {
        vals[i] = 1000 + i;
        recs[i] = {off + static_cast<std::uint64_t>(i) * 32, 8,
                   static_cast<std::uint32_t>(i) * 8};
      }
      c.put_scatter(1, recs, kRecs, vals, sizeof vals);
      EXPECT_TRUE(c.pending(1));
      c.quiet();
      EXPECT_FALSE(c.pending(1));
      for (int i = 0; i < kRecs; ++i) {
        std::int64_t g = 0;
        c.get(&g, 1, off + static_cast<std::uint64_t>(i) * 32, 8);
        EXPECT_EQ(g, 1000 + i) << "record " << i;
      }
    }
    c.barrier();
    if (c.rank() == 1) {
      // The gaps between records stayed untouched.
      for (int i = 0; i < 16; ++i) {
        std::int64_t gap = -1;
        std::memcpy(&gap, c.segment(1) + off +
                              static_cast<std::uint64_t>(i) * 32 + 8, 8);
        EXPECT_EQ(gap, 0) << "gap after record " << i;
      }
    }
    c.barrier();
  });
}

// The outstanding-op tracker: quiet() with a clean tracker is elided (no
// transport fence), and puts mark exactly their target dirty.
TEST_P(ConduitConformance, QuietIsElidedWhenNoOpsAreInFlight) {
  Harness h = make(4);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(64);
    c.barrier();
    if (c.rank() == 0) {
      const std::uint64_t elided0 =
          obs::registry().value(0, "rma.quiet_elided");
      c.quiet();
      c.quiet();
      EXPECT_EQ(obs::registry().value(0, "rma.quiet_elided"), elided0 + 2);
      std::int64_t v = 5;
      c.put(2, off, &v, sizeof v, /*nbi=*/true);
      EXPECT_TRUE(c.pending(2));
      EXPECT_FALSE(c.pending(1));
      c.quiet();  // real fence: tracker dirty
      EXPECT_EQ(obs::registry().value(0, "rma.quiet_elided"), elided0 + 2);
      EXPECT_FALSE(c.pending_any());
    }
    c.barrier();
  });
}

// The tracker holds only the targets put to, whatever their number: after
// deferred (nbi) puts to 200 of 256 images, pending() is true for exactly
// those, and one quiet() clears them all. The second round, to another
// set, reuses the emptied tracker.
TEST_P(ConduitConformance, TrackerFollowsDeferredPutsToManyTargets) {
  constexpr int kImages = 256;
  constexpr int kTargets = 200;
  Harness h = make(kImages);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(64);
    c.barrier();
    if (c.rank() == 0) {
      for (const int stride : {3, 5}) {
        std::vector<bool> put_to(kImages, false);
        const std::int64_t v = stride;
        for (int i = 0; i < kTargets; ++i) {
          const int t = (1 + stride * i) % kImages;  // 200 distinct ranks
          c.put(t, off, &v, sizeof v, /*nbi=*/true);
          put_to[static_cast<std::size_t>(t)] = true;
        }
        for (int t = 0; t < kImages; ++t) {
          EXPECT_EQ(c.pending(t), put_to[static_cast<std::size_t>(t)])
              << "stride " << stride << " target " << t;
        }
        c.quiet();
        for (int t = 0; t < kImages; ++t) {
          EXPECT_FALSE(c.pending(t)) << "stride " << stride << " target " << t;
        }
        EXPECT_FALSE(c.pending_any());
      }
    }
    c.barrier();
  });
}
