// Tests for the runtime extensions: stat= lock variants, per-image
// communication statistics, and coarray-to-coarray section copies.
#include <gtest/gtest.h>

#include <numeric>

#include "caf_test_util.hpp"

using namespace caf;
using caftest::Harness;
using caftest::Stack;

TEST(StatVariants, LockStatCodes) {
  Harness h(Stack::kShmemCray, 4);
  h.run([&] {
    CoLock lck = h.rt().make_lock();
    if (h.rt().this_image() == 1) {
      EXPECT_EQ(h.rt().unlock_stat(lck, 2), kStatUnlocked);  // not held
      EXPECT_EQ(h.rt().lock_stat(lck, 2), kStatOk);
      EXPECT_EQ(h.rt().lock_stat(lck, 2), kStatLocked);      // double acquire
      EXPECT_EQ(h.rt().unlock_stat(lck, 2), kStatOk);
      EXPECT_EQ(h.rt().unlock_stat(lck, 2), kStatUnlocked);
    }
    h.rt().sync_all();
  });
}

TEST(Stats, CountsMatchOperations) {
  Harness h(Stack::kShmemCray, 4);
  h.run([&] {
    auto x = make_coarray<int>(h.rt(), {64});
    h.rt().sync_all();
    if (h.rt().this_image() == 1) {
      h.rt().reset_stats();
      std::vector<int> buf(16, 7);
      x.put_contiguous(2, buf.data(), 16);          // 1 put, 64 bytes
      x.put_scalar(3, {5}, 9);                      // 1 put, 4 bytes
      (void)x.get_scalar(2, {1});                   // 1 get, 4 bytes
      const auto& s = h.rt().stats();
      EXPECT_EQ(s.puts, 2u);
      EXPECT_EQ(s.put_bytes, 64u + 4u);
      EXPECT_EQ(s.gets, 1u);
      EXPECT_EQ(s.get_bytes, 4u);
    }
    h.rt().sync_all();
  });
}

TEST(Stats, StridedCountersMatchStridedStats) {
  Harness h(Stack::kShmemCray, 4, {}, 8 << 20);
  h.run([&] {
    const Shape shape{40, 40};
    auto x = make_coarray<int>(h.rt(), shape);
    h.rt().sync_all();
    if (h.rt().this_image() == 1) {
      h.rt().reset_stats();
      const Section sec{{1, 39, 2}, {1, 40, 2}};
      std::vector<int> src(20 * 20, 3);
      const auto st = x.put_section(2, sec, src.data());
      EXPECT_EQ(h.rt().stats().strided_puts, st.messages);
      EXPECT_EQ(h.rt().stats().put_bytes, st.elements * sizeof(int));
    }
    h.rt().sync_all();
  });
}

TEST(Stats, LockAndSyncCounters) {
  Harness h(Stack::kShmemCray, 4);
  h.run([&] {
    CoLock lck = h.rt().make_lock();
    h.rt().reset_stats();
    h.rt().lock(lck, 1);
    h.rt().unlock(lck, 1);
    h.rt().sync_all();
    h.rt().sync_all();
    EXPECT_EQ(h.rt().stats().locks_acquired, 1u);
    EXPECT_EQ(h.rt().stats().syncs, 2u);
  });
}

// A successful try_lock is one acquisition, whichever lock path runs: the
// plain MCS cell fault-free, the robust cell with kills armed.
TEST(Stats, SuccessfulTryLockCountsOnce) {
  for (const bool kills : {false, true}) {
    net::FaultPlan plan;
    if (kills) plan.kill_pe(3, 1'000'000);  // image 4, idle until it dies
    Harness h(Stack::kShmemCray, 4, {}, 2 << 20, plan);
    bool got = false;
    std::uint64_t acquired = 0;
    h.run([&] {
      CoLock lck = h.rt().make_lock();
      if (h.rt().this_image() == 4 && kills) {
        for (;;) h.engine().advance(100'000);
      }
      if (h.rt().this_image() == 1) {
        h.rt().reset_stats();
        got = h.rt().try_lock(lck, 2);
        acquired = h.rt().stats().locks_acquired;
        h.rt().unlock(lck, 2);
      }
    });
    EXPECT_TRUE(got) << (kills ? "kills armed" : "fault-free");
    EXPECT_EQ(acquired, 1u) << (kills ? "kills armed" : "fault-free");
  }
}

class CopySectionStacks : public ::testing::TestWithParam<Stack> {};
INSTANTIATE_TEST_SUITE_P(Stacks, CopySectionStacks,
                         ::testing::ValuesIn(caftest::kAllStacks),
                         [](const auto& info) {
                           std::string s = caftest::to_string(info.param);
                           for (auto& c : s) if (c == '-') c = '_';
                           return s;
                         });

TEST_P(CopySectionStacks, SectionToSectionPut) {
  // dst(2:20:2, 1:5)[2] = src(1:10, 3:7) — different shapes, same counts.
  Harness h(GetParam(), 4, {}, 8 << 20);
  h.run([&] {
    auto src = make_coarray<int>(h.rt(), {10, 8});
    auto dst = make_coarray<int>(h.rt(), {20, 6});
    for (std::int64_t i = 0; i < src.size(); ++i) {
      src.data()[i] = h.rt().this_image() * 1000 + static_cast<int>(i);
    }
    for (std::int64_t i = 0; i < dst.size(); ++i) dst.data()[i] = -1;
    h.rt().sync_all();
    if (h.rt().this_image() == 1) {
      copy_section(dst, 2, Section{{2, 20, 2}, {1, 5, 1}}, src,
                   Section{{1, 10, 1}, {3, 7, 1}});
    }
    h.rt().sync_all();
    if (h.rt().this_image() == 2) {
      // Element (i,j) of the destination section came from src(i', j'+2).
      for (int j = 1; j <= 5; ++j) {
        for (int i = 1; i <= 10; ++i) {
          const int expect = 1000 + (i - 1) + (j + 1) * 10;
          EXPECT_EQ(dst(2 * i, j), expect) << i << "," << j;
        }
      }
      // Untouched holes stay -1.
      EXPECT_EQ(dst(1, 1), -1);
      EXPECT_EQ(dst(3, 1), -1);
    }
    h.rt().sync_all();
  });
}

TEST_P(CopySectionStacks, SectionFromRemote) {
  Harness h(GetParam(), 3, {}, 8 << 20);
  h.run([&] {
    auto x = make_coarray<double>(h.rt(), {12, 12});
    for (std::int64_t i = 0; i < x.size(); ++i) {
      x.data()[i] = h.rt().this_image() * 100.0 + static_cast<double>(i);
    }
    h.rt().sync_all();
    if (h.rt().this_image() == 1) {
      auto local = make_coarray<double>(h.rt(), {6, 6});
      // local(1:3, 1:6) = x(1:12:4, 2:12:2)[3]
      copy_section_from(local, Section{{1, 3, 1}, {1, 6, 1}}, x, 3,
                        Section{{1, 12, 4}, {2, 12, 2}});
      for (int j = 1; j <= 6; ++j) {
        for (int i = 1; i <= 3; ++i) {
          const double expect = 300.0 + (4 * (i - 1)) + (2 * j - 1) * 12;
          EXPECT_DOUBLE_EQ(local(i, j), expect);
        }
      }
    } else {
      auto local = make_coarray<double>(h.rt(), {6, 6});  // collective pair
      (void)local;
    }
    h.rt().sync_all();
  });
}

TEST(CopySection, MismatchedCountsThrow) {
  Harness h(Stack::kShmemCray, 2);
  h.run([&] {
    auto a = make_coarray<int>(h.rt(), {10});
    auto b = make_coarray<int>(h.rt(), {10});
    h.rt().sync_all();
    if (h.rt().this_image() == 1) {
      EXPECT_THROW(copy_section(a, 2, Section{{1, 4, 1}}, b,
                                Section{{1, 6, 1}}),
                   std::invalid_argument);
    }
    h.rt().sync_all();
  });
}
