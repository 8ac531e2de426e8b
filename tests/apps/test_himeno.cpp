// Tests for the Himeno solver: decomposition logic, numerical agreement
// between serial and decomposed runs, residual decrease, and conduit
// independence of the numerics.
#include "apps/himeno.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "caf_test_util.hpp"

using namespace apps::himeno;
using caftest::Harness;
using caftest::Stack;

namespace {

Result run_himeno(Stack stack, int images, Config base,
                  caf::StridedAlgo algo = caf::StridedAlgo::kNaive) {
  caf::Options opts;
  opts.strided = algo;
  Harness h(stack, images, opts, 8 << 20);
  const Config cfg = decompose(base, images);
  Result r;
  h.run([&] {
    Solver solver(h.rt(), cfg);
    r = solver.run();
    h.rt().sync_all();
  });
  return r;
}

}  // namespace

TEST(HimenoDecompose, PicksSquarishDivisibleGrids) {
  Config cfg;
  cfg.gy = 32;
  cfg.gz = 32;
  auto d4 = decompose(cfg, 4);
  EXPECT_EQ(d4.py * d4.pz, 4);
  EXPECT_EQ(d4.py, 2);
  auto d8 = decompose(cfg, 8);
  EXPECT_EQ(d8.py * d8.pz, 8);
  EXPECT_EQ(32 % d8.py, 0);
  EXPECT_EQ(32 % d8.pz, 0);
  EXPECT_THROW(decompose(cfg, 7 * 11), std::invalid_argument);
}

TEST(Himeno, ResidualDecreasesOverIterations) {
  Config cfg;
  cfg.gx = cfg.gy = cfg.gz = 16;
  cfg.iters = 1;
  const Result r1 = run_himeno(Stack::kShmemCray, 4, cfg);
  cfg.iters = 6;
  const Result r6 = run_himeno(Stack::kShmemCray, 4, cfg);
  EXPECT_GT(r1.gosa, 0.0);
  EXPECT_LT(r6.gosa, r1.gosa);
}

TEST(Himeno, DecomposedMatchesSerialGosa) {
  // The halo exchange must make a 2x2-image run numerically equivalent to
  // the single-image run (co_sum ordering differences are within 1e-12).
  Config cfg;
  cfg.gx = cfg.gy = cfg.gz = 16;
  cfg.iters = 3;
  const Result serial = run_himeno(Stack::kShmemCray, 1, cfg);
  const Result par4 = run_himeno(Stack::kShmemCray, 4, cfg);
  const Result par8 = run_himeno(Stack::kShmemCray, 8, cfg);
  EXPECT_NEAR(par4.gosa, serial.gosa, 1e-9 * std::max(1.0, serial.gosa));
  EXPECT_NEAR(par8.gosa, serial.gosa, 1e-9 * std::max(1.0, serial.gosa));
}

TEST(Himeno, NumericsIndependentOfConduitAndAlgo) {
  Config cfg;
  cfg.gx = cfg.gy = cfg.gz = 16;
  cfg.iters = 2;
  const Result ref = run_himeno(Stack::kShmemCray, 4, cfg);
  for (Stack s : caftest::kAllStacks) {
    for (auto algo : {caf::StridedAlgo::kNaive, caf::StridedAlgo::kTwoDim}) {
      const Result r = run_himeno(s, 4, cfg, algo);
      EXPECT_NEAR(r.gosa, ref.gosa, 1e-12)
          << caftest::to_string(s) << " algo " << static_cast<int>(algo);
    }
  }
}

TEST(Himeno, MoreImagesMoreMflops) {
  Config cfg;
  cfg.gx = cfg.gy = cfg.gz = 32;
  cfg.iters = 2;
  const Result r1 = run_himeno(Stack::kShmemMvapich, 1, cfg);
  const Result r16 = run_himeno(Stack::kShmemMvapich, 16, cfg);
  EXPECT_GT(r16.mflops, 2.0 * r1.mflops);
}

TEST(Himeno, ElapsedIsDeterministic) {
  Config cfg;
  cfg.gx = cfg.gy = cfg.gz = 16;
  cfg.iters = 2;
  const Result a = run_himeno(Stack::kGasnet, 4, cfg);
  const Result b = run_himeno(Stack::kGasnet, 4, cfg);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_DOUBLE_EQ(a.gosa, b.gosa);
}

TEST(HimenoHalo, PutStreamPinnedAtTheBenchmarkDecomposition) {
  // The four halo sections Solver::exchange_halos ships at 128^3 over 2048
  // images, put from image 1 to image 17 (the next Stampede node). Message
  // counts, coalesced runs and virtual put time are pinned per algorithm,
  // so a change to the section walk cannot change what is sent.
  Config base;
  base.gx = base.gy = base.gz = 128;
  const Config cfg = decompose(base, 2048);
  const std::int64_t ly = cfg.gy / cfg.py;
  const std::int64_t lz = cfg.gz / cfg.pz;
  ASSERT_EQ(ly, 4);
  ASSERT_EQ(lz, 2);
  using caf::Section;
  using caf::Triplet;
  const caf::Shape shape{cfg.gx, ly + 2, lz + 2};
  const Triplet all_x{1, cfg.gx, 1};
  const Triplet int_y{2, ly + 1, 1};
  const Triplet int_z{2, lz + 1, 1};
  auto plane_y = [&](std::int64_t j) {
    return Section{all_x, {j, j, 1}, int_z};
  };
  auto plane_z = [&](std::int64_t k) {
    return Section{all_x, int_y, {k, k, 1}};
  };
  // (mine, theirs) for -y, +y, -z, +z.
  const std::pair<Section, Section> halos[] = {
      {plane_y(2), plane_y(ly + 2)},
      {plane_y(ly + 1), plane_y(1)},
      {plane_z(2), plane_z(lz + 2)},
      {plane_z(lz + 1), plane_z(1)},
  };
  struct Pin {
    std::size_t messages, coalesced;
    std::uint64_t coalesced_runs;
    sim::Time ns;
  };
  struct Case {
    caf::StridedAlgo algo;
    Pin pins[4];
  };
  // Measured at the per-element walk this pin was written against.
  const Case cases[] = {
      {caf::StridedAlgo::kNaive,
       {{2, 0, 0, 1836}, {2, 0, 0, 1836}, {1, 3, 3, 2114}, {1, 3, 3, 2114}}},
      {caf::StridedAlgo::kTwoDim,
       {{2, 0, 0, 65161}, {2, 0, 0, 65161}, {4, 0, 0, 129161},
        {4, 0, 0, 129161}}},
      {caf::StridedAlgo::kAggregate,
       {{2, 0, 0, 180}, {2, 0, 0, 180}, {1, 3, 3, 90}, {1, 3, 3, 90}}},
      {caf::StridedAlgo::kAdaptive,
       {{2, 0, 0, 1836}, {2, 0, 0, 1836}, {1, 3, 3, 2114}, {1, 3, 3, 2114}}},
  };
  for (const Case& cs : cases) {
    caf::Options opts;
    opts.strided = cs.algo;
    if (cs.algo == caf::StridedAlgo::kAggregate) {
      opts.rma.completion = caf::CompletionMode::kDeferred;
      opts.rma.write_combining = true;
    }
    Harness h(Stack::kShmemMvapich, 18, opts, 1 << 20);
    h.run([&] {
      caf::Runtime& rt = h.rt();
      auto p = caf::make_coarray<double>(rt, shape);
      for (std::int64_t i = 0; i < p.size(); ++i) {
        p.data()[i] = rt.this_image() * 1e6 + static_cast<double>(i);
      }
      rt.sync_all();
      if (rt.this_image() == 1) {
        std::vector<double> pack(static_cast<std::size_t>(cfg.gx * (ly + 2)));
        for (int n = 0; n < 4; ++n) {
          p.pack_local(pack.data(), halos[n].first);
          rt.reset_stats();
          const sim::Time t0 = h.engine().now();
          const caf::StridedStats st =
              p.put_section(17, halos[n].second, pack.data());
          const Pin got{st.messages, st.coalesced, rt.stats().coalesced_runs,
                        h.engine().now() - t0};
          const Pin& want = cs.pins[n];
          const std::string at = "algo " +
                                 std::to_string(static_cast<int>(cs.algo)) +
                                 " halo " + std::to_string(n);
          EXPECT_EQ(got.messages, want.messages) << at;
          EXPECT_EQ(got.coalesced, want.coalesced) << at;
          EXPECT_EQ(got.coalesced_runs, want.coalesced_runs) << at;
          EXPECT_EQ(got.ns, want.ns) << at;
        }
      }
      rt.sync_all();
      if (rt.this_image() == 17) {
        // Each ghost plane holds image 1's matching interior plane.
        for (const auto& [mine, theirs] : halos) {
          const auto src = caf::linear_elements(caf::describe(shape, mine));
          const auto dst = caf::linear_elements(caf::describe(shape, theirs));
          ASSERT_EQ(src.size(), dst.size());
          for (std::size_t k = 0; k < src.size(); ++k) {
            ASSERT_EQ(p.data()[dst[k]], 1e6 + static_cast<double>(src[k]));
          }
        }
      }
      rt.sync_all();
    });
  }
}
