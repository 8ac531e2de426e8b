// Tests for the Cray-CAF baseline runtime: allocation, RMA, strided path,
// barrier, ticket locks, and collectives.
#include "craycaf/craycaf.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

using namespace craycaf;

namespace {

struct Harness {
  sim::Engine engine{64 * 1024};
  net::Fabric fabric;
  Runtime rt;

  explicit Harness(int images, std::size_t heap = 2 << 20)
      : fabric(net::machine_profile(net::Machine::kXC30), images),
        rt(engine, fabric, heap) {}

  void run(std::function<void()> main) {
    rt.launch(std::move(main));
    engine.run();
  }
};

}  // namespace

TEST(CrayCaf, ImagesAndAllocation) {
  Harness h(8);
  std::vector<std::uint64_t> offs(8);
  h.run([&] {
    EXPECT_EQ(h.rt.num_images(), 8);
    const std::uint64_t off = h.rt.allocate(256);
    offs[h.rt.this_image() - 1] = off;
  });
  for (int i = 1; i < 8; ++i) EXPECT_EQ(offs[i], offs[0]);
}

TEST(CrayCaf, PutGetRoundTrip) {
  Harness h(20);
  h.run([&] {
    const std::uint64_t off = h.rt.allocate(64);
    const int me = h.rt.this_image();
    auto* mine = reinterpret_cast<int*>(h.rt.local_addr(off));
    mine[0] = me * 11;
    h.rt.sync_all();
    const int right = me % h.rt.num_images() + 1;
    int got = 0;
    h.rt.get_bytes(&got, right, off, sizeof got);
    EXPECT_EQ(got, right * 11);
    h.rt.sync_all();
  });
}

TEST(CrayCaf, StridedPutScatters) {
  Harness h(4);
  h.run([&] {
    const std::uint64_t off = h.rt.allocate(64 * sizeof(int));
    std::memset(h.rt.local_addr(off), 0, 64 * sizeof(int));
    h.rt.sync_all();
    if (h.rt.this_image() == 1) {
      std::vector<int> src(8);
      std::iota(src.begin(), src.end(), 500);
      h.rt.put_strided_1d(2, off, 4, src.data(), 1, sizeof(int), 8);
    }
    h.rt.sync_all();
    if (h.rt.this_image() == 2) {
      const auto* v = reinterpret_cast<const int*>(h.rt.local_addr(off));
      for (int i = 0; i < 8; ++i) EXPECT_EQ(v[4 * i], 500 + i);
    }
    h.rt.sync_all();
  });
}

TEST(CrayCaf, BarrierSynchronizes) {
  Harness h(16);
  h.run([&] {
    h.engine.advance(1'000 * h.rt.this_image());
    h.rt.sync_all();
    EXPECT_GE(h.engine.now(), 16'000);
  });
}

TEST(CrayCaf, TicketLockMutualExclusion) {
  Harness h(16);
  int counter = 0, inside = 0, max_inside = 0;
  h.run([&] {
    CoLock lck = h.rt.make_lock();
    for (int round = 0; round < 3; ++round) {
      h.rt.lock(lck, 1);
      ++inside;
      max_inside = std::max(max_inside, inside);
      const int snap = counter;
      h.engine.advance(600);
      counter = snap + 1;
      --inside;
      h.rt.unlock(lck, 1);
    }
    h.rt.sync_all();
  });
  EXPECT_EQ(counter, 48);
  EXPECT_EQ(max_inside, 1);
}

TEST(CrayCaf, TicketLockIsFair) {
  Harness h(6);
  std::vector<int> order;
  h.run([&] {
    CoLock lck = h.rt.make_lock();
    const int me = h.rt.this_image();
    h.engine.advance(static_cast<sim::Time>(me) * 300'000);
    h.rt.lock(lck, 1);
    order.push_back(me);
    h.engine.advance(40'000);
    h.rt.unlock(lck, 1);
    h.rt.sync_all();
  });
  for (int i = 0; i < 6; ++i) EXPECT_EQ(order[i], i + 1);
}

// Fault-free, a lock is its two-word cell: lock_stat/unlock_stat take the
// same packed ticket path as lock/unlock and write nothing past the cell.
TEST(CrayCaf, StatLockStaysInsideItsCell) {
  Harness h(4);
  h.run([&] {
    const CoLock lck = h.rt.make_lock();
    const std::uint64_t next = h.rt.allocate(64);
    auto* words = reinterpret_cast<std::int64_t*>(h.rt.local_addr(next));
    for (int i = 0; i < 8; ++i) words[i] = 1000 + i;
    h.rt.sync_all();
    EXPECT_EQ(h.rt.lock_stat(lck, 1), kStatOk);
    EXPECT_EQ(h.rt.unlock_stat(lck, 1), kStatOk);
    h.rt.sync_all();
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(words[i], 1000 + i) << "image " << h.rt.this_image()
                                    << ", word " << i;
    }
  });
}

// The plain and stat= forms pair up in any mix: each release frees the
// lock for the next acquire. An image only acquires after the previous
// release reported kStatOk, so a lock left held fails an assertion
// instead of hanging the run.
TEST(CrayCaf, PlainAndStatLockFormsMix) {
  Harness h(4);
  int plain_then_stat = -1, stat_lock = -1, stat_then_plain = -1;
  h.run([&] {
    const CoLock lck = h.rt.make_lock();
    const int me = h.rt.this_image();
    if (me == 2) {
      h.rt.lock(lck, 1);
      plain_then_stat = h.rt.unlock_stat(lck, 1);
    }
    h.rt.sync_all();
    if (me == 3 && plain_then_stat == kStatOk) {
      stat_lock = h.rt.lock_stat(lck, 1);
      h.rt.unlock(lck, 1);
    }
    h.rt.sync_all();
    if (me == 4 && stat_lock == kStatOk) {
      h.rt.lock(lck, 1);
      stat_then_plain = h.rt.unlock_stat(lck, 1);
    }
    h.rt.sync_all();
  });
  EXPECT_EQ(plain_then_stat, kStatOk);
  EXPECT_EQ(stat_lock, kStatOk);
  EXPECT_EQ(stat_then_plain, kStatOk);
}

TEST(CrayCaf, CoSumMatchesSerial) {
  for (int n : {1, 2, 5, 8, 13}) {
    Harness h(n);
    h.run([&] {
      double v[2] = {h.rt.this_image() * 1.0, 0.5};
      h.rt.co_sum_f64(v, 2);
      EXPECT_DOUBLE_EQ(v[0], n * (n + 1) / 2.0);
      EXPECT_DOUBLE_EQ(v[1], 0.5 * n);
    });
  }
}
