// Tests for the multi-dimensional strided algorithms (§IV-C): correctness
// equivalence of naive vs 2dim_strided across all conduits, message-count
// claims from the paper, and randomized property tests.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <utility>

#include "caf_test_util.hpp"
#include "sim/rng.hpp"

using namespace caf;
using caftest::Harness;
using caftest::Stack;

namespace {

/// Runs a strided put of `sec` into image 2's coarray and returns the
/// remote result plus the message count.
struct StridedResult {
  std::vector<int> remote;
  StridedStats stats;
};

StridedResult run_strided_put(Stack stack, StridedAlgo algo, Shape shape,
                              Section sec) {
  Options opts;
  opts.strided = algo;
  Harness h(stack, 4, opts, 8 << 20);
  auto result = std::make_shared<StridedResult>();
  h.run([&] {
    auto x = make_coarray<int>(h.rt(), shape);
    for (std::int64_t i = 0; i < x.size(); ++i) x.data()[i] = -1;
    h.rt().sync_all();
    const SectionDesc d = describe(shape, sec);
    if (h.rt().this_image() == 1) {
      std::vector<int> src(static_cast<std::size_t>(d.total));
      std::iota(src.begin(), src.end(), 100);
      result->stats = x.put_section(2, sec, src.data());
    }
    h.rt().sync_all();
    if (h.rt().this_image() == 2) {
      result->remote.assign(x.data(), x.data() + x.size());
    }
    h.rt().sync_all();
  });
  return std::move(*result);
}

/// Reference: what the remote array should contain.
std::vector<int> expected_remote(Shape shape, Section sec) {
  std::vector<int> ref(static_cast<std::size_t>(shape.size()), -1);
  const auto elems = linear_elements(describe(shape, sec));
  for (std::size_t i = 0; i < elems.size(); ++i) {
    ref[static_cast<std::size_t>(elems[i])] = 100 + static_cast<int>(i);
  }
  return ref;
}

}  // namespace

class StridedAllStacks : public ::testing::TestWithParam<Stack> {};
INSTANTIATE_TEST_SUITE_P(Stacks, StridedAllStacks,
                         ::testing::ValuesIn(caftest::kAllStacks),
                         [](const auto& info) {
                           std::string s = caftest::to_string(info.param);
                           for (auto& c : s) if (c == '-') c = '_';
                           return s;
                         });

TEST_P(StridedAllStacks, NaiveAndTwoDimProduceIdenticalMemory) {
  const Shape shape{20, 16, 6};
  const Section sec{{1, 19, 2}, {2, 16, 3}, {1, 6, 2}};
  const auto naive = run_strided_put(GetParam(), StridedAlgo::kNaive, shape, sec);
  const auto twodim =
      run_strided_put(GetParam(), StridedAlgo::kTwoDim, shape, sec);
  const auto ref = expected_remote(shape, sec);
  EXPECT_EQ(naive.remote, ref);
  EXPECT_EQ(twodim.remote, ref);
}

TEST(Strided, PaperMessageCountClaim) {
  // §IV-C: (1:100:2, 1:80:2, 1:100:4) of X(100,100,100):
  // naive = 50*40*25 transfers; 2dim = 1*40*25 (base dim = dim 1).
  const Shape shape{100, 100, 100};
  const Section sec{{1, 100, 2}, {1, 80, 2}, {1, 100, 4}};
  const auto naive =
      run_strided_put(Stack::kShmemCray, StridedAlgo::kNaive, shape, sec);
  EXPECT_EQ(naive.stats.messages, 50u * 40u * 25u);
  const auto twodim =
      run_strided_put(Stack::kShmemCray, StridedAlgo::kTwoDim, shape, sec);
  EXPECT_EQ(twodim.stats.messages, 40u * 25u);
  EXPECT_EQ(twodim.stats.elements, 50u * 40u * 25u);
}

TEST(Strided, BaseDimPrefersLargerOfFirstTwo) {
  // If dim 2 has more strided elements than dim 1, it becomes the base —
  // but dim 3 is never chosen (locality restriction).
  const Shape shape{100, 100, 100};
  const Section sec{{1, 20, 2}, {1, 80, 2}, {1, 100, 1}};  // counts 10,40,100
  const auto r =
      run_strided_put(Stack::kShmemCray, StridedAlgo::kTwoDim, shape, sec);
  EXPECT_EQ(r.stats.messages, 10u * 100u);  // base dim = 2nd (40 elements)
}

TEST(Strided, MatrixOrientedNaiveUsesRowTransfers) {
  // Contiguous innermost dimension: naive sends one putmem per row (the
  // Himeno-favourable case, §V-D), not one per element.
  const Shape shape{64, 32};
  const Section sec{{1, 64, 1}, {1, 32, 2}};
  const auto naive =
      run_strided_put(Stack::kShmemMvapich, StridedAlgo::kNaive, shape, sec);
  EXPECT_EQ(naive.stats.messages, 16u);  // 16 selected columns
  const auto ref = expected_remote(shape, sec);
  EXPECT_EQ(naive.remote, ref);
}

TEST_P(StridedAllStacks, GetSectionMatchesPut) {
  const Shape shape{12, 10, 4};
  const Section sec{{2, 12, 2}, {1, 9, 4}, {1, 4, 3}};
  for (StridedAlgo algo : {StridedAlgo::kNaive, StridedAlgo::kTwoDim}) {
    Options opts;
    opts.strided = algo;
    Harness h(GetParam(), 3, opts);
    h.run([&] {
      auto x = make_coarray<int>(h.rt(), shape);
      for (std::int64_t i = 0; i < x.size(); ++i) {
        x.data()[i] = h.rt().this_image() * 10'000 + static_cast<int>(i);
      }
      h.rt().sync_all();
      if (h.rt().this_image() == 1) {
        const SectionDesc d = describe(shape, sec);
        std::vector<int> got(static_cast<std::size_t>(d.total), -1);
        x.get_section(got.data(), 3, sec);
        const auto elems = linear_elements(d);
        for (std::size_t i = 0; i < elems.size(); ++i) {
          ASSERT_EQ(got[i], 30'000 + static_cast<int>(elems[i]));
        }
      }
      h.rt().sync_all();
    });
  }
}

TEST(Strided, TwoDimFasterThanNaiveOnCray) {
  // §V-B-2: on DMAPP hardware the 2dim algorithm wins big (the paper
  // reports ~9x vs naive).
  const Shape shape{100, 100, 10};
  const Section sec{{1, 100, 2}, {1, 80, 2}, {1, 10, 2}};
  auto timed = [&](StridedAlgo algo) {
    Options opts;
    opts.strided = algo;
    Harness h(Stack::kShmemCray, 18, opts, 8 << 20);
    sim::Time elapsed = 0;
    h.run([&] {
      auto x = make_coarray<int>(h.rt(), shape);
      h.rt().sync_all();
      if (h.rt().this_image() == 1) {
        const SectionDesc d = describe(shape, sec);
        std::vector<int> src(static_cast<std::size_t>(d.total), 7);
        const sim::Time t0 = h.engine().now();
        x.put_section(17, sec, src.data());  // other node
        elapsed = h.engine().now() - t0;
      }
      h.rt().sync_all();
    });
    return elapsed;
  };
  const sim::Time naive = timed(StridedAlgo::kNaive);
  const sim::Time twodim = timed(StridedAlgo::kTwoDim);
  EXPECT_GT(naive, 4 * twodim);
}

TEST(Strided, NaiveEqualsTwoDimOnMvapich) {
  // §V-B-2 (Stampede): MVAPICH2-X's software iput degenerates to the same
  // per-element putmem loop, so the two algorithms perform alike.
  const Shape shape{64, 64, 4};
  const Section sec{{1, 63, 2}, {1, 64, 2}, {1, 4, 1}};
  auto timed = [&](StridedAlgo algo) {
    Options opts;
    opts.strided = algo;
    Harness h(Stack::kShmemMvapich, 18, opts, 8 << 20);
    sim::Time elapsed = 0;
    h.run([&] {
      auto x = make_coarray<int>(h.rt(), shape);
      h.rt().sync_all();
      if (h.rt().this_image() == 1) {
        const SectionDesc d = describe(shape, sec);
        std::vector<int> src(static_cast<std::size_t>(d.total), 7);
        const sim::Time t0 = h.engine().now();
        x.put_section(17, sec, src.data());
        elapsed = h.engine().now() - t0;
      }
      h.rt().sync_all();
    });
    return elapsed;
  };
  const double naive = static_cast<double>(timed(StridedAlgo::kNaive));
  const double twodim = static_cast<double>(timed(StridedAlgo::kTwoDim));
  EXPECT_NEAR(naive / twodim, 1.0, 0.15);
}

TEST(StridedProperty, RandomSectionsAllAlgorithmsAgree) {
  sim::Rng rng(77);
  for (int trial = 0; trial < 12; ++trial) {
    const int rank = 1 + static_cast<int>(rng.below(3));
    std::vector<std::int64_t> extents;
    std::int64_t total = 1;
    for (int d = 0; d < rank; ++d) {
      const std::int64_t e = 3 + static_cast<std::int64_t>(rng.below(12));
      extents.push_back(e);
      total *= e;
    }
    Shape shape = [&] {
      switch (rank) {
        case 1: return Shape{extents[0]};
        case 2: return Shape{extents[0], extents[1]};
        default: return Shape{extents[0], extents[1], extents[2]};
      }
    }();
    Section sec = [&] {
      auto t = [&](std::int64_t e) {
        const std::int64_t lo = 1 + static_cast<std::int64_t>(rng.below(
                                        static_cast<std::uint64_t>(e)));
        const std::int64_t hi =
            lo + static_cast<std::int64_t>(rng.below(
                     static_cast<std::uint64_t>(e - lo + 1)));
        const std::int64_t st = 1 + static_cast<std::int64_t>(rng.below(3));
        return Triplet{lo, hi, st};
      };
      switch (rank) {
        case 1: return Section{t(extents[0])};
        case 2: return Section{t(extents[0]), t(extents[1])};
        default:
          return Section{t(extents[0]), t(extents[1]), t(extents[2])};
      }
    }();
    if (describe(shape, sec).total == 0) continue;
    const auto naive =
        run_strided_put(Stack::kShmemCray, StridedAlgo::kNaive, shape, sec);
    const auto twodim =
        run_strided_put(Stack::kShmemCray, StridedAlgo::kTwoDim, shape, sec);
    const auto ref = expected_remote(shape, sec);
    ASSERT_EQ(naive.remote, ref) << "trial " << trial;
    ASSERT_EQ(twodim.remote, ref) << "trial " << trial;
    ASSERT_LE(twodim.stats.messages, naive.stats.messages) << "trial " << trial;
  }
}

namespace {

/// Builds a Shape or Section of rank 1-7 from a runtime list.
template <typename R, typename E, std::size_t... I>
R braced(const std::vector<E>& v, std::index_sequence<I...>) {
  return R{v[I]...};
}
template <typename R, typename E>
R braced(const std::vector<E>& v) {
  switch (v.size()) {
    case 1: return braced<R>(v, std::make_index_sequence<1>{});
    case 2: return braced<R>(v, std::make_index_sequence<2>{});
    case 3: return braced<R>(v, std::make_index_sequence<3>{});
    case 4: return braced<R>(v, std::make_index_sequence<4>{});
    case 5: return braced<R>(v, std::make_index_sequence<5>{});
    case 6: return braced<R>(v, std::make_index_sequence<6>{});
    case 7: return braced<R>(v, std::make_index_sequence<7>{});
  }
  throw std::invalid_argument("braced: rank out of range");
}

/// Random sections of rank 1-4 (dim-0 stride 1 in every other case, 1-3
/// otherwise; about one triplet in eight empty), plus a rank-7 section and
/// two with an empty dimension 0.
std::vector<std::pair<Shape, Section>> walker_cases() {
  sim::Rng rng(24);
  std::vector<std::pair<Shape, Section>> out;
  for (int trial = 0; trial < 40; ++trial) {
    const int rank = 1 + static_cast<int>(rng.below(4));
    std::vector<std::int64_t> extents;
    std::vector<Triplet> dims;
    for (int d = 0; d < rank; ++d) {
      const auto e = 2 + static_cast<std::int64_t>(rng.below(rank > 2 ? 5 : 11));
      const auto lo = 1 + static_cast<std::int64_t>(
                              rng.below(static_cast<std::uint64_t>(e)));
      auto hi = lo + static_cast<std::int64_t>(
                         rng.below(static_cast<std::uint64_t>(e - lo + 1)));
      const auto st = d == 0 && trial % 2 == 0
                          ? 1
                          : 1 + static_cast<std::int64_t>(rng.below(3));
      if (rng.below(8) == 0) hi = lo - 1;
      extents.push_back(e);
      dims.push_back(Triplet{lo, hi, st});
    }
    out.emplace_back(braced<Shape>(extents), braced<Section>(dims));
  }
  out.emplace_back(Shape{3, 2, 4, 2, 3, 2, 2},
                   Section{{1, 3, 2}, {1, 2, 1}, {2, 4, 2}, {1, 2, 1},
                           {1, 3, 1}, {2, 2, 1}, {1, 2, 1}});
  out.emplace_back(Shape{5, 4}, Section{{3, 2, 1}, {1, 4, 1}});
  out.emplace_back(Shape{5, 4}, Section{{4, 3, 2}, {1, 4, 2}});
  return out;
}

std::vector<int> contents(const Coarray<int>& x) {
  return std::vector<int>(x.data(), x.data() + x.size());
}

}  // namespace

TEST(RunWalkerProperty, PackUnpackAndCopiesMatchTheOracle) {
  const auto cases = walker_cases();
  for (StridedAlgo algo : {StridedAlgo::kNaive, StridedAlgo::kTwoDim}) {
    Options opts;
    opts.strided = algo;
    Harness h(Stack::kShmemCray, 2, opts, 8 << 20);
    h.run([&] {
      Runtime& rt = h.rt();
      const int me = rt.this_image();
      for (std::size_t c = 0; c < cases.size(); ++c) {
        const auto& [shape, sec] = cases[c];
        auto x = make_coarray<int>(rt, shape);
        auto y = make_coarray<int>(rt, shape);
        const auto elems = linear_elements(describe(shape, sec));
        std::vector<int> orig(static_cast<std::size_t>(x.size()));
        std::iota(orig.begin(), orig.end(), me * 100'000);
        std::copy(orig.begin(), orig.end(), x.data());
        std::fill(y.data(), y.data() + y.size(), -1);

        // pack_local is the oracle's gather, and writes nothing past it.
        std::vector<int> packed(elems.size() + 1, -7);
        x.pack_local(packed.data(), sec);
        std::vector<int> gather(elems.size() + 1, -7);
        for (std::size_t k = 0; k < elems.size(); ++k) {
          gather[k] = orig[static_cast<std::size_t>(elems[k])];
        }
        EXPECT_EQ(packed, gather) << "case " << c;

        // unpack_local is the oracle's scatter.
        std::vector<int> src(elems.size());
        std::iota(src.begin(), src.end(), -1'000'000);
        x.unpack_local(sec, src.data());
        std::vector<int> scatter = orig;
        for (std::size_t k = 0; k < elems.size(); ++k) {
          scatter[static_cast<std::size_t>(elems[k])] = src[k];
        }
        EXPECT_EQ(contents(x), scatter) << "case " << c;

        // unpack(pack(x)) restores x.
        x.unpack_local(sec, packed.data());
        EXPECT_EQ(contents(x), orig) << "case " << c;
        rt.sync_all();

        // copy_section ships image 1's x(sec) into image 2's y(sec);
        // copy_section_from brings it back into image 1's y(sec).
        std::vector<int> want(orig.size(), -1);
        for (const std::int64_t e : elems) {
          want[static_cast<std::size_t>(e)] = 100'000 + static_cast<int>(e);
        }
        if (me == 1) copy_section(y, 2, sec, x, sec);
        rt.sync_all();
        if (me == 2) {
          EXPECT_EQ(contents(y), want) << "case " << c;
        }
        rt.sync_all();
        if (me == 1) {
          copy_section_from(y, sec, y, 2, sec);
          EXPECT_EQ(contents(y), want) << "case " << c;
        }
        rt.sync_all();
      }
    });
  }
}
