// Tests for the OpenSHMEM active-set collectives (the classic PE_start /
// logPE_stride / PE_size triplet API with pSync/pWrk work arrays).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "net/profiles.hpp"
#include "shmem/world.hpp"

using namespace shmem;

namespace {

struct Harness {
  sim::Engine engine{64 * 1024};
  net::Fabric fabric;
  World world;

  explicit Harness(int npes)
      : fabric(net::machine_profile(net::Machine::kXC30), npes),
        world(engine, fabric,
              net::sw_profile(net::Library::kShmemCray, net::Machine::kXC30),
              2 << 20) {}

  void run(std::function<void()> pe_main) {
    world.launch(std::move(pe_main));
    engine.run();
  }
};

}  // namespace

TEST(ActiveSet, TripletArithmetic) {
  ActiveSet as{4, 1, 5};  // PEs 4, 6, 8, 10, 12
  EXPECT_EQ(as.stride(), 2);
  EXPECT_EQ(as.world_pe(0), 4);
  EXPECT_EQ(as.world_pe(4), 12);
  EXPECT_EQ(as.rel_of(8), 2);
  EXPECT_EQ(as.rel_of(5), -1);   // off-stride
  EXPECT_EQ(as.rel_of(14), -1);  // past the set
  EXPECT_EQ(as.rel_of(2), -1);   // before pe_start
}

TEST(ActiveSet, SubsetBarrierDoesNotBlockOutsiders) {
  Harness h(16);
  h.run([&] {
    auto* pSync = static_cast<std::int64_t*>(
        h.world.shmalloc(kSyncSize * sizeof(std::int64_t)));
    const ActiveSet evens{0, 1, 8};  // PEs 0,2,...,14
    const int me = h.world.my_pe();
    if (me % 2 == 0) {
      h.engine.advance(1'000 * (me + 1));
      h.world.barrier(evens, pSync);
      EXPECT_GE(h.engine.now(), 15'000);  // waits for PE 14's arrival
    }
    // Odd PEs never touch the barrier and finish immediately.
    h.world.barrier_all();
    h.world.shfree(pSync);
  });
}

TEST(ActiveSet, BarrierPutsRideTheirOwnPairStream) {
  // PE 0's round-0 peer is PE 1 in barrier_all and PE 2 in the evens
  // barrier. The barrier caches each round's fabric pair id; reusing PE
  // 1's for PE 2 would queue the flag behind the 1 MiB put still in flight
  // to PE 1, and PE 2 would leave the barrier only after it landed.
  constexpr std::size_t kBig = std::size_t{1} << 20;
  Harness h(8);
  sim::Time landed = 0;
  sim::Time left = 0;
  h.run([&] {
    auto* pSync = static_cast<std::int64_t*>(
        h.world.shmalloc(kSyncSize * sizeof(std::int64_t)));
    auto* buf = static_cast<std::int64_t*>(h.world.shmalloc(kBig));
    const int me = h.world.my_pe();
    h.world.barrier_all();
    if (me == 0) {
      const std::vector<std::int64_t> src(kBig / sizeof(std::int64_t), 7);
      h.world.putmem_nbi(buf, src.data(), kBig, 1);
    }
    if (me == 1) {
      h.world.wait_until(buf + kBig / sizeof(std::int64_t) - 1, Cmp::kNe, 0);
      landed = h.engine.now();
    }
    if (me % 2 == 0) {
      h.world.barrier(ActiveSet{0, 1, 4}, pSync);  // PEs 0, 2, 4, 6
      if (me == 2) left = h.engine.now();
    }
    h.world.barrier_all();
    h.world.shfree(buf);
    h.world.shfree(pSync);
  });
  EXPECT_LT(left, landed);
}

TEST(ActiveSet, StridedSubsetBroadcast) {
  Harness h(32);
  h.run([&] {
    auto* pSync = static_cast<std::int64_t*>(
        h.world.shmalloc(kSyncSize * sizeof(std::int64_t)));
    auto* buf = static_cast<int*>(h.world.shmalloc(4 * sizeof(int)));
    const ActiveSet quads{1, 2, 6};  // PEs 1,5,9,13,17,21
    const int me = h.world.my_pe();
    const int rel = quads.rel_of(me);
    std::fill_n(buf, 4, -1);
    h.world.barrier_all();
    if (rel >= 0) {
      if (rel == 2) {  // root is PE 9
        for (int i = 0; i < 4; ++i) buf[i] = 900 + i;
      }
      h.world.broadcast(quads, buf, buf, 4 * sizeof(int), /*root_rel=*/2,
                        pSync);
      for (int i = 0; i < 4; ++i) EXPECT_EQ(buf[i], 900 + i) << "pe " << me;
    }
    h.world.barrier_all();
    // Non-members untouched.
    if (rel < 0) {
      for (int i = 0; i < 4; ++i) EXPECT_EQ(buf[i], -1);
    }
    h.world.barrier_all();
    h.world.shfree(buf);
    h.world.shfree(pSync);
  });
}

class ActiveSetToAll : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(SetSizes, ActiveSetToAll,
                         ::testing::Values(1, 2, 3, 6, 8, 13));

TEST_P(ActiveSetToAll, SumToAllOnSubset) {
  const int set_size = GetParam();
  Harness h(2 * set_size + 3);
  h.run([&] {
    auto* pSync = static_cast<std::int64_t*>(
        h.world.shmalloc(kSyncSize * sizeof(std::int64_t)));
    auto* pWrk = static_cast<long*>(
        h.world.shmalloc(kSyncSize * 2 * sizeof(long)));
    auto* data = static_cast<long*>(h.world.shmalloc(2 * sizeof(long)));
    const ActiveSet odds{1, 1, set_size};  // PEs 1,3,5,...
    const int me = h.world.my_pe();
    const int rel = odds.rel_of(me);
    h.world.barrier_all();
    if (rel >= 0) {
      long src[2] = {rel + 1L, -2L * rel};
      h.world.to_all(odds, data, src, 2, ReduceOp::kSum, pWrk, pSync);
      long e0 = 0, e1 = 0;
      for (int r = 0; r < set_size; ++r) {
        e0 += r + 1;
        e1 += -2 * r;
      }
      EXPECT_EQ(data[0], e0);
      EXPECT_EQ(data[1], e1);
    }
    h.world.barrier_all();
    h.world.shfree(data);
    h.world.shfree(pWrk);
    h.world.shfree(pSync);
  });
}

TEST(ActiveSet, RepeatedCollectivesReusePsync) {
  Harness h(8);
  h.run([&] {
    auto* pSync = static_cast<std::int64_t*>(
        h.world.shmalloc(kSyncSize * sizeof(std::int64_t)));
    auto* pWrk =
        static_cast<double*>(h.world.shmalloc(kSyncSize * sizeof(double)));
    auto* v = static_cast<double*>(h.world.shmalloc(sizeof(double)));
    const ActiveSet all{0, 0, 8};
    for (int round = 1; round <= 5; ++round) {
      double mine = h.world.my_pe() * 1.0 + round;
      h.world.to_all(all, v, &mine, 1, ReduceOp::kMax, pWrk, pSync);
      EXPECT_DOUBLE_EQ(v[0], 7.0 + round) << "round " << round;
      h.world.barrier(all, pSync);
    }
    h.world.barrier_all();
    h.world.shfree(v);
    h.world.shfree(pWrk);
    h.world.shfree(pSync);
  });
}

TEST(ActiveSet, NonMemberCallThrows) {
  Harness h(8);
  h.run([&] {
    auto* pSync = static_cast<std::int64_t*>(
        h.world.shmalloc(kSyncSize * sizeof(std::int64_t)));
    const ActiveSet firstFour{0, 0, 4};
    if (h.world.my_pe() >= 4) {
      EXPECT_THROW(h.world.barrier(firstFour, pSync), std::logic_error);
    }
    h.world.barrier_all();
    h.world.shfree(pSync);
  });
}

TEST(ActiveSet, OutOfRangeSetThrows) {
  Harness h(4);
  h.run([&] {
    auto* pSync = static_cast<std::int64_t*>(
        h.world.shmalloc(kSyncSize * sizeof(std::int64_t)));
    if (h.world.my_pe() == 0) {
      const ActiveSet tooBig{0, 0, 9};
      EXPECT_THROW(h.world.barrier(tooBig, pSync), std::invalid_argument);
    }
    h.world.barrier_all();
    h.world.shfree(pSync);
  });
}

TEST(ActiveSet, DisjointSetsRunConcurrently) {
  // Two disjoint active sets reduce independently at the same time.
  Harness h(16);
  h.run([&] {
    auto* pSync = static_cast<std::int64_t*>(
        h.world.shmalloc(kSyncSize * sizeof(std::int64_t)));
    auto* pWrk = static_cast<long*>(h.world.shmalloc(kSyncSize * sizeof(long)));
    auto* v = static_cast<long*>(h.world.shmalloc(sizeof(long)));
    const int me = h.world.my_pe();
    const ActiveSet low{0, 0, 8};
    const ActiveSet high{8, 0, 8};
    const ActiveSet& mine = me < 8 ? low : high;
    long x = me + 1;
    h.world.to_all(mine, v, &x, 1, ReduceOp::kSum, pWrk, pSync);
    EXPECT_EQ(v[0], me < 8 ? 36 : 100);  // 1..8 vs 9..16
    h.world.barrier_all();
    h.world.shfree(v);
    h.world.shfree(pWrk);
    h.world.shfree(pSync);
  });
}
