// Determinism regression for the engine core: a 256-image run under a
// combined grey-failure plan (mid-run image kill + healable partition +
// straggler) must produce a byte-identical observable trace every time.
// The test checks two things:
//   * two in-process same-seed runs hash identically (no hidden host state
//     leaks into the simulation), and
//   * the hash matches a checked-in golden constant, pinning the engine's
//     global (time, seq) event pop order across refactors of the queue,
//     fiber, and delivery internals. If a change to src/sim or src/fabric
//     moves this hash, it changed simulated behavior — every BENCH_*.json
//     baseline is stale and the change needs a determinism review, not a
//     baseline bump.
// The hash covers the Chrome-trace JSON of the obs session (span-exact
// virtual timeline of every PE and wire message) and the engine's declared
// failure list (pe, declaration time).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "caf_test_util.hpp"
#include "net/fault.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

using caftest::Harness;
using caftest::Stack;

namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

caf::Team full_team(int images) {
  caf::Team t;
  for (int i = 1; i <= images; ++i) t.members.push_back(i);
  return t;
}

std::uint64_t faulty_run_hash() {
  const int images = 256;
  const int victim = 38;  // 1-based image; pe 37, node 2 on XC30
  net::FaultPlan plan;
  plan.with_seed(0xD5);
  plan.kill_pe(victim - 1, 1'200'000);
  plan.partition_nodes({1}, 300'000, 700'000);  // heals before the grace
  plan.straggle_pe(93, 1.7);
  obs::enable({});
  Harness h(Stack::kShmemCray, images, {}, 4 << 20, plan);
  h.run([&] {
    auto& rt = h.rt();
    const int me = rt.this_image();
    const caf::Team all = full_team(images);
    if (me == victim) {
      // Participates until the kill lands mid-collective.
      for (;;) {
        h.engine().advance(100'000);
        std::int64_t v = me;
        (void)rt.co_sum_team(all, &v, 1);
      }
    }
    for (int k = 0; k < 25; ++k) {
      h.engine().advance(100'000);
      std::int64_t v = me;
      const int st = rt.co_sum_team(all, &v, 1);
      ASSERT_TRUE(st == caf::kStatOk || st == caf::kStatFailedImage);
    }
  });
  std::uint64_t hash = kFnvOffset;
  const std::string trace = obs::chrome_trace_json();
  hash = fnv1a(hash, trace.data(), trace.size());
  for (const sim::PeFailure& f : h.engine().declared_failures()) {
    hash = fnv1a(hash, &f.pe, sizeof f.pe);
    hash = fnv1a(hash, &f.at, sizeof f.at);
  }
  obs::disable();
  return hash;
}

// Golden hash of the run above. Regenerate (and review!) with:
//   build/tests/test_faults --gtest_filter=Determinism.* (failure message
//   prints the new value).
constexpr std::uint64_t kGoldenHash = 0x45e16b80612aca1aull;

}  // namespace

TEST(Determinism, FaultyRunTraceIsByteIdentical) {
  const std::uint64_t a = faulty_run_hash();
  const std::uint64_t b = faulty_run_hash();
  EXPECT_EQ(a, b) << "same-seed rerun diverged within one process";
  EXPECT_EQ(a, kGoldenHash)
      << "trace hash changed: simulated behavior moved. New hash: 0x"
      << std::hex << a;
}
