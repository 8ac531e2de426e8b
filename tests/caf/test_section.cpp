// Unit tests for Fortran-style shapes, triplets, sections, and SectionDesc.
#include "caf/section.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

using namespace caf;

TEST(Shape, ColumnMajorStrides) {
  Shape s{10, 20, 30};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.size(), 6000);
  EXPECT_EQ(s.dim_stride(0), 1);
  EXPECT_EQ(s.dim_stride(1), 10);
  EXPECT_EQ(s.dim_stride(2), 200);
}

TEST(Shape, CachedStridesAreProductsOfLowerExtents) {
  const Shape shapes[] = {Shape{}, Shape{9}, Shape{4, 3, 5},
                          Shape{2, 3, 4, 5, 2, 3, 2}};
  const std::vector<std::int64_t> extents[] = {
      {}, {9}, {4, 3, 5}, {2, 3, 4, 5, 2, 3, 2}};
  for (int n = 0; n < 4; ++n) {
    const Shape& s = shapes[n];
    ASSERT_EQ(s.rank(), static_cast<int>(extents[n].size()));
    EXPECT_EQ(s.dim_stride(0), 1) << "rank " << s.rank();
    std::int64_t lower = 1;
    for (int d = 0; d < s.rank(); ++d) {
      EXPECT_EQ(s.dim_stride(d), lower) << "rank " << s.rank() << " dim " << d;
      lower *= extents[n][static_cast<std::size_t>(d)];
    }
    EXPECT_EQ(s.size(), lower);
  }
}

TEST(Shape, LinearIndexMatchesFormulaAtCorners) {
  // sum_d (s_d - 1) * prod_{e < d} extent_e at every corner of a rank-3 and
  // a rank-7 shape (subscript 1 or extent in each dimension).
  const Shape s3{4, 3, 5};
  for (int mask = 0; mask < (1 << 3); ++mask) {
    auto sub = [&](int d, std::int64_t e) { return (mask >> d & 1) ? e : 1; };
    const std::int64_t i = sub(0, 4), j = sub(1, 3), k = sub(2, 5);
    EXPECT_EQ(s3.linear_index({i, j, k}), (i - 1) + (j - 1) * 4 + (k - 1) * 12);
  }
  const std::int64_t e[kMaxDims] = {2, 3, 4, 5, 2, 3, 2};
  const Shape s7{2, 3, 4, 5, 2, 3, 2};
  for (int mask = 0; mask < (1 << kMaxDims); ++mask) {
    std::int64_t sub[kMaxDims];
    std::int64_t want = 0;
    std::int64_t lower = 1;
    for (int d = 0; d < kMaxDims; ++d) {
      sub[d] = (mask >> d & 1) ? e[d] : 1;
      want += (sub[d] - 1) * lower;
      lower *= e[d];
    }
    EXPECT_EQ(s7.linear_index(
                  {sub[0], sub[1], sub[2], sub[3], sub[4], sub[5], sub[6]}),
              want)
        << "corner mask " << mask;
  }
  EXPECT_EQ(s7.linear_index({2, 3, 4, 5, 2, 3, 2}), s7.size() - 1);
  EXPECT_EQ(Shape{}.linear_index({}), 0);
}

TEST(Shape, LinearIndexChecksBoundsAndRank) {
  const Shape s{4, 3, 5};
  EXPECT_THROW(s.linear_index({0, 1, 1}), std::out_of_range);
  EXPECT_THROW(s.linear_index({1, 4, 1}), std::out_of_range);
  EXPECT_THROW(s.linear_index({1, 1, 6}), std::out_of_range);
  EXPECT_THROW(s.linear_index({1, 1, -1}), std::out_of_range);
  EXPECT_THROW(s.linear_index({1, 1}), std::invalid_argument);
  EXPECT_THROW(s.linear_index({1, 1, 1, 1}), std::invalid_argument);
  EXPECT_THROW(Shape{}.linear_index({1}), std::invalid_argument);
  const Shape s7{2, 3, 4, 5, 2, 3, 2};
  EXPECT_THROW(s7.linear_index({2, 3, 4, 5, 2, 3, 3}), std::out_of_range);
  EXPECT_THROW(s7.linear_index({2, 3, 4, 5, 2, 3}), std::invalid_argument);
}

TEST(Shape, LinearIndexIsOneBased) {
  Shape s{4, 3};
  EXPECT_EQ(s.linear_index({1, 1}), 0);
  EXPECT_EQ(s.linear_index({2, 1}), 1);
  EXPECT_EQ(s.linear_index({1, 2}), 4);
  EXPECT_EQ(s.linear_index({4, 3}), 11);
  EXPECT_THROW(s.linear_index({0, 1}), std::out_of_range);
  EXPECT_THROW(s.linear_index({5, 1}), std::out_of_range);
  EXPECT_THROW(s.linear_index({1}), std::invalid_argument);
}

TEST(Triplet, CountsInclusive) {
  EXPECT_EQ((Triplet{1, 10, 1}).count(), 10);
  EXPECT_EQ((Triplet{1, 10, 2}).count(), 5);
  EXPECT_EQ((Triplet{1, 9, 2}).count(), 5);   // 1,3,5,7,9
  EXPECT_EQ((Triplet{3, 3, 1}).count(), 1);
  EXPECT_EQ((Triplet{5, 4, 1}).count(), 0);
  EXPECT_THROW((Triplet{1, 4, 0}).count(), std::invalid_argument);
}

TEST(Section, PaperExampleCounts) {
  // §IV-C: coarray X(100,100,100), section (1:100:2, 1:80:2, 1:100:4)
  // has 50, 40, 25 strided elements per dimension.
  Shape shape{100, 100, 100};
  Section sec{{1, 100, 2}, {1, 80, 2}, {1, 100, 4}};
  sec.validate(shape);
  SectionDesc d = describe(shape, sec);
  EXPECT_EQ(d.count[0], 50);
  EXPECT_EQ(d.count[1], 40);
  EXPECT_EQ(d.count[2], 25);
  EXPECT_EQ(d.total, 50 * 40 * 25);
  EXPECT_EQ(d.elem_stride[0], 2);
  EXPECT_EQ(d.elem_stride[1], 2 * 100);
  EXPECT_EQ(d.elem_stride[2], 4 * 100 * 100);
  EXPECT_FALSE(d.dim0_contiguous());
}

TEST(Section, MatrixOrientedIsDim0Contiguous) {
  // The Himeno halo case: full contiguous rows, strided planes.
  Shape shape{64, 64, 8};
  Section sec{{1, 64, 1}, {1, 64, 2}, {2, 2, 1}};
  SectionDesc d = describe(shape, sec);
  EXPECT_TRUE(d.dim0_contiguous());
  EXPECT_EQ(d.total, 64 * 32);
  EXPECT_EQ(d.first_elem, 64 * 64);  // k == 2 plane
}

TEST(Section, ValidationCatchesBadTriplets) {
  Shape shape{10, 10};
  EXPECT_THROW(describe(shape, Section{{1, 11, 1}, {1, 10, 1}}),
               std::out_of_range);
  EXPECT_THROW(describe(shape, Section{{0, 5, 1}, {1, 10, 1}}),
               std::out_of_range);
  EXPECT_THROW(describe(shape, Section{{1, 10, 1}}), std::invalid_argument);
}

TEST(Section, AllSelectsEverything) {
  Shape shape{7, 5};
  SectionDesc d = describe(shape, Section::all(shape));
  EXPECT_EQ(d.total, 35);
  EXPECT_EQ(d.first_elem, 0);
  EXPECT_TRUE(d.dim0_contiguous());
}

TEST(Section, LinearElementsColumnMajorOrder) {
  Shape shape{4, 3};
  Section sec{{1, 3, 2}, {2, 3, 1}};  // rows 1,3; cols 2,3
  auto elems = linear_elements(describe(shape, sec));
  // (1,2)=4, (3,2)=6, (1,3)=8, (3,3)=10  (0-based linear)
  EXPECT_EQ(elems, (std::vector<std::int64_t>{4, 6, 8, 10}));
}

TEST(Section, ScalarSectionHasOneElement) {
  Shape shape{10};
  SectionDesc d = describe(shape, Section{{3, 3, 1}});
  EXPECT_EQ(d.total, 1);
  EXPECT_EQ(d.first_elem, 2);
}

TEST(Section, RunWalkerCoversTheOracle) {
  // for_each_run along any base dimension visits every selected element
  // exactly once, at the packed position linear_elements assigns it.
  const std::pair<Shape, Section> cases[] = {
      {Shape{100, 100, 100}, Section{{1, 100, 2}, {1, 80, 2}, {1, 100, 4}}},
      {Shape{64, 64, 8}, Section{{1, 64, 1}, {1, 64, 2}, {2, 2, 1}}},
      {Shape{4, 3}, Section{{1, 3, 2}, {2, 3, 1}}},
      {Shape{10}, Section{{3, 9, 3}}},
      {Shape{3, 2, 4, 2, 3, 2, 2},
       Section{{1, 3, 2}, {1, 2, 1}, {2, 4, 2}, {1, 2, 1}, {1, 3, 1},
               {2, 2, 1}, {1, 2, 1}}},
      {Shape{5, 4}, Section{{3, 2, 1}, {1, 4, 1}}},  // empty dimension 0
      {Shape{5, 4}, Section{{1, 5, 2}, {4, 3, 1}}},  // empty dimension 1
  };
  for (const auto& [shape, sec] : cases) {
    const SectionDesc d = describe(shape, sec);
    const auto oracle = linear_elements(d);
    for (int base = 0; base < d.rank; ++base) {
      std::vector<std::int64_t> seen(oracle.size(), -1);
      std::int64_t runs = 0;
      for_each_run(d, base, [&](std::int64_t elem, std::int64_t packed) {
        ++runs;
        for (std::int64_t i = 0; i < d.count[base]; ++i) {
          const auto at =
              static_cast<std::size_t>(packed + i * d.packed_stride(base));
          ASSERT_LT(at, seen.size());
          ASSERT_EQ(seen[at], -1) << "element visited twice";
          seen[at] = elem + i * d.elem_stride[base];
        }
      });
      EXPECT_EQ(seen, oracle) << "rank " << d.rank << " base " << base;
      if (d.count[base] > 0) {
        EXPECT_EQ(runs * d.count[base], d.total);
      }
    }
  }
}
